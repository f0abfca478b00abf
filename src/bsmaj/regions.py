"""Ordering regions of the coupling angle and prefix-sum derivative tests.

For a fixed photon number the sorted spectrum keeps a constant sorting
permutation on maximal angle intervals ("regions") of [0, pi/4). Region
boundaries are the crossover angles where two components coincide. Within
a region, whether an infinitesimal increase of the angle yields a majorized
spectrum reduces to the sign pattern of the accumulation derivatives: the
angle derivatives of the prefix sums of the sorted spectrum.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .beamsplitter import check_angle, check_photons, spectrum
from .vectors import TOL, as_integer, as_real, check_tol, check_work

QUARTER_PI = math.pi / 4

#: Most ordering entries (regions times k+1) one partition may hold, bounded
#: a priori by (k+1) * (k(k+1)/2 + 1); larger photon numbers are rejected
#: before any crossover is computed.
MAX_REGION_ENTRIES = 2 * 10**7

#: Most component pairs, k(k+1)/2, a crossing scan may test; larger photon
#: numbers are rejected before any binomial is computed.
MAX_CROSSING_PAIRS = 2**21

#: Crossing pairs whose angles one pass of ``_angles`` takes in Python lists.
CROSSING_BLOCK = 2**16

#: Most crossing pairs plus partition ordering entries the memo keeps over
#: all photon numbers: one scan at MAX_CROSSING_PAIRS (k = 2047, 1047552
#: pairs, 26 MB in all), or the partition of any k <= 160.
SCAN_MEMO_ANGLES = 2**20

#: Least recently used first, each value with the entries it charges against
#: ``SCAN_MEMO_ANGLES``: the scan of ``_crossover_angles`` under k, and the
#: partition of :func:`find_crossovers` under -k; and the lock that makes
#: each recall and each keep one step.
_memo: OrderedDict[int, tuple[object, int]] = OrderedDict()
_memo_lock = threading.Lock()


class AmbiguousOrderingError(ValueError):
    """The angle sits on a crossover, where the sort order is undefined.

    The sorting permutation is discontinuous there; the caller must pick a
    side of the crossover explicitly.
    """


@dataclass(frozen=True, eq=False)
class RegionPartition:
    """Crossover angles partitioning [0, pi/4) into fixed-ordering regions.

    ``crossovers`` are sorted ascending. Region r (1-based) is the
    half-open interval [crossovers[r-2], crossovers[r-1]), with region 1
    starting at 0 and the last region ending at pi/4; a crossover angle
    itself belongs to the region on its right. ``orderings[r-1]`` is the
    sorting permutation of the spectrum throughout region r. It is exact,
    derived from the crossing transpositions rather than sampled: region 1
    is (k, k-1, ..., 0) and every later region swaps the crossing pairs of
    the crossover before it. ``pairs[i]`` lists the component index pairs
    (n, m), n > m, that coincide at ``crossovers[i]``.

    ``orderings`` is one read-only int16 table of shape (n_regions, k+1),
    2 bytes per entry; the other fields are tuples. The instance is frozen
    and compares by identity, so one partition per photon number is shared
    by all callers of :func:`find_crossovers`.
    """

    k: int
    crossovers: tuple[float, ...]
    orderings: np.ndarray
    pairs: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_regions(self) -> int:
        return len(self.crossovers) + 1

    def region_of(self, theta: float) -> int:
        """1-based region label of an angle in [0, pi/4)."""
        theta = as_real(theta, "theta")
        if not 0.0 <= theta < QUARTER_PI:
            raise ValueError(f"theta must lie in [0, pi/4), got {theta!r}")
        return bisect_right(self.crossovers, theta) + 1


@dataclass(frozen=True)
class AccumulationDerivatives:
    """Angle derivatives of the sorted-spectrum prefix sums at one angle.

    ``values[j]`` is the derivative of the sum of the j+1 largest
    components, for j = 0 .. k-1. The full-sum derivative is identically
    zero by normalization and is not stored.
    """

    theta: float
    values: tuple[float, ...]


class InfinitesimalStatus(str, enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class InfinitesimalVerdict:
    """Whether nudging the angle upward yields a majorized spectrum."""

    status: InfinitesimalStatus
    first_violation: int | None = None
    derivatives: AccumulationDerivatives | None = None
    reason: str | None = None


def find_crossovers(k: int) -> RegionPartition:
    """Enumerate all component crossings inside (0, pi/4).

    Components n and m (n > m) coincide where

        tan(theta)^(2(n-m)) = (m! (k-m)!) / (n! (k-n)!) = C(k,n) / C(k,m),

    an explicit equation with a single solution per pair. Solutions are
    kept when they fall more than ``TOL`` inside (0, pi/4) and sorted. One
    gap test merges them: an angle more than ``TOL`` above the angle before
    it opens a crossover, and any other joins the crossover before it. The
    coinciding pairs are recorded per crossover.

    The partition is kept in the memo apart from k's scan, so repeated
    calls return the same frozen object; one with more ordering entries
    than ``SCAN_MEMO_ANGLES`` (k > 160) is built on every call. Two threads
    may build one k, and both agree.

    Raises ``ValueError`` for a photon number :func:`check_photons` refuses,
    and when the partition could hold more than ``MAX_REGION_ENTRIES``
    ordering entries.
    """
    k = check_photons(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = (k + 1) * (k * (k + 1) // 2 + 1)
    check_work(bound, MAX_REGION_ENTRIES,
               f"the regions of k={k} may hold up to {bound} ordering entries")
    part = _recall(-k)
    if part is None:
        crossovers, pairs = _crossings(k)
        part = RegionPartition(k=k, crossovers=tuple(crossovers),
                               orderings=_orderings(k, pairs), pairs=tuple(pairs))
        _keep(-k, part, part.orderings.size)
    return part


def _crossings(k: int) -> tuple[list[float], list[tuple[tuple[int, int], ...]]]:
    """Sorted crossover angles in (0, pi/4) and the pairs meeting at each.

    The crossovers and the grouping of the pairs come from
    :func:`_crossover_angles`; the pairs of a crossover keep the order in
    which its scan sorted them.
    """
    crossovers, first, n, m = _crossover_angles(k)
    pairs = list(zip(n.tolist(), m.tolist()))
    cuts = [*np.flatnonzero(first).tolist(), len(pairs)]
    return crossovers.tolist(), [tuple(pairs[a:b]) for a, b in zip(cuts, cuts[1:])]


def _crossover_angles(k: int) -> tuple[np.ndarray, ...]:
    """The ascending crossover angles in (0, pi/4); for the ascending angles
    at which crossing pairs meet, which of them open a crossover; and the
    pair (n, m) meeting at each of those angles.

    The photon number is checked against ``MAX_CROSSING_PAIRS`` on every
    call; the arrays of :func:`_scan` are then kept, read-only, in the memo.
    """
    n_pairs = k * (k + 1) // 2
    check_work(n_pairs, MAX_CROSSING_PAIRS, f"k={k} has {n_pairs} component pairs")
    scan = _recall(k)
    if scan is None:
        scan = _scan(k)  # unlocked: two threads may scan one k, and both agree
        _keep(k, scan, scan[2].size)
    return scan


def _recall(key: int):
    """The memo's value under ``key``, now its most recently used, or None."""
    with _memo_lock:
        if key in _memo:
            _memo.move_to_end(key)
            return _memo[key][0]
    return None


def _keep(key: int, value, entries: int) -> None:
    """Store ``value``, which charges ``entries`` against ``SCAN_MEMO_ANGLES``,
    as the memo's most recently used entry, unless it alone would exceed the
    budget; then evict the least recently used entries until the memo fits."""
    if entries > SCAN_MEMO_ANGLES:
        return
    with _memo_lock:
        _memo[key] = value, entries
        _memo.move_to_end(key)
        held = sum(n for _, n in _memo.values())
        while held > SCAN_MEMO_ANGLES:
            held -= _memo.popitem(last=False)[1][1]


def _scan(k: int) -> tuple[np.ndarray, ...]:
    """The four arrays of :func:`_crossover_angles`, computed afresh.

    Only the pairs of :func:`_crossing_pairs` cross inside; their angles
    come from :func:`_angles`, ``CROSSING_BLOCK`` pairs at a time. One
    stable sort keeps the pair order among equal angles. An angle opens a
    crossover when it lies more than ``TOL`` above the angle before it, and
    otherwise joins the crossover of that angle.
    """
    binom = [math.comb(k, j) for j in range(k + 1)]
    n, m = _crossing_pairs(k)
    theta = np.empty(n.size)
    for start in range(0, n.size, CROSSING_BLOCK):
        block = slice(start, start + CROSSING_BLOCK)
        theta[block] = _angles(binom, n[block], m[block])
    order = np.argsort(theta, kind="stable")
    theta = theta[order]
    inside = slice(theta.searchsorted(TOL, "right"), theta.searchsorted(QUARTER_PI - TOL))
    theta, order = theta[inside], order[inside]
    first = np.diff(theta, prepend=-math.inf) > TOL
    scan = theta[first], first, n[order], m[order]
    for array in scan:
        array.flags.writeable = False
    return scan


def _crossing_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (n, m), n > m, with C(k,n) < C(k,m), ordered by n, then m.

    C(k, j) is symmetric about k/2 and rises toward it, so C(k,n) < C(k,m)
    exactly when |2n - k| > |2m - k|; for n > m that is n > k/2 and
    k - n < m < n. The other pairs cross at or beyond pi/4. No binomial is
    compared.
    """
    top = np.arange(k // 2 + 1, k + 1)
    counts = 2 * top - k - 1  # m = k - n + 1 .. n - 1 for each n in top
    n = np.repeat(top, counts)
    m = np.arange(n.size) + np.repeat(k + 1 - top - (np.cumsum(counts) - counts), counts)
    return n, m


def _angles(binom: list[int], n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Crossing angle of each pair (n, m), n > m, with C(k,n) < C(k,m).

    The binomial quotient C(k,n) / C(k,m) is the exact rational of the
    crossing equation, rounded once to a float; its root is taken with
    ``**`` and the angle with ``math.atan``, one builtin call per pair. A
    quotient below the smallest normal float would lose its digits (or
    vanish), so its root is taken from the logarithms of the two integers
    instead.
    """
    ns, ms = n.tolist(), m.tolist()
    ratios = list(map(operator.truediv, map(binom.__getitem__, ns), map(binom.__getitem__, ms)))
    roots = map(pow, ratios, (1.0 / (2 * (n - m))).tolist())
    theta = np.fromiter(map(math.atan, roots), float, len(ratios))
    if min(ratios) < sys.float_info.min:  # from k = 1028
        for i in np.flatnonzero(np.array(ratios) < sys.float_info.min).tolist():
            a, b = ns[i], ms[i]
            root = math.exp((math.log(binom[a]) - math.log(binom[b])) / (2 * (a - b)))
            theta[i] = math.atan(root)
    return theta


def _orderings(k: int, pairs: list[tuple[tuple[int, int], ...]]) -> np.ndarray:
    """Sorting permutation of the spectrum in every region, from the crossings:
    a read-only int16 table, one row per region.

    For n > m, P_n / P_m = C(k,n) / C(k,m) * cot(theta)^(2(n-m)) falls
    strictly from infinity at theta = 0, so region 1 sorts as (k, ..., 0)
    and each pair crosses once, from n above m to m above n. Two components
    that meet at a crossover are adjacent just before it, so every later
    region is the previous one with each pair of its crossover swapped, in
    the order ``_crossings`` lists them. No spectrum is built: the orderings
    hold where float components underflow to zero and would tie. The swaps
    are replayed in a copy of region 1's row, which is copied into the
    table after each crossover; ``MAX_REGION_ENTRIES`` keeps k <= 341, so
    int16 holds every entry.
    """
    table = np.empty((len(pairs) + 1, k + 1), np.int16)
    table[0] = np.arange(k, -1, -1)
    where = list(range(k, -1, -1))  # where[n] = k - n is the position of component n
    with memoryview(table.reshape(-1)) as rows, memoryview(table[0].copy()) as order:
        for r, group in enumerate(pairs, 1):
            for n, m in group:
                i, j = where[n], where[m]
                order[i], order[j] = m, n
                where[n], where[m] = j, i
            rows[r * (k + 1):(r + 1) * (k + 1)] = order
    table.flags.writeable = False
    return table.view()  # a view of a read-only base cannot be made writeable


def component_derivatives(k: int, theta: float) -> np.ndarray:
    """Angle derivatives of all spectrum components, in original index order.

    Differentiating C(k,n) cos^(2n) sin^(2(k-n)) gives

        dP_n/dtheta = P_n * ( 2(k-n) cot(theta) - 2n tan(theta) ),

    with P the spectrum at theta. Where cos(theta) or sin(theta) is exactly
    zero the spectrum is a point mass at a stationary point, and every
    derivative is zero. Where sin^2(theta) is subnormal (theta below about
    1.5e-154), the spectrum entries next to n = k are subnormal or zero and
    2k cot(theta) may overflow, so the equal form
    2 tan(theta) ((n+1) P_(n+1) - n P_n), with P_(k+1) = 0, is used instead,
    since P_n (k-n) cot(theta) = P_(n+1) (n+1) tan(theta).
    """
    return _derivatives(spectrum(k, theta).components, theta)


def _derivatives(p: np.ndarray, theta: float) -> np.ndarray:
    """``component_derivatives`` from the spectrum ``p`` at ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    if c == 0.0 or s == 0.0:
        return np.zeros(p.size)
    n = np.arange(p.size)  # n[::-1] is k - n
    if s * s < sys.float_info.min:
        w = n * p
        return 2.0 * s / c * (np.append(w[1:], 0.0) - w)
    return p * (2.0 * c / s * n[::-1] - 2.0 * s / c * n)


def accumulation_derivatives(
    k: int, theta: float, *, tol: float = TOL
) -> AccumulationDerivatives:
    """Prefix-sum derivatives of the sorted spectrum at one angle.

    Raises :class:`AmbiguousOrderingError` when ``theta`` is within ``tol``
    of a crossover (or of pi/4 itself), where the sorting permutation is
    not well defined. A NaN, infinite or negative ``tol`` raises ValueError.
    """
    k = check_photons(k)
    theta = check_angle(theta, QUARTER_PI)
    tol = check_tol(tol)
    if k == 0:
        return AccumulationDerivatives(theta=theta, values=())
    if QUARTER_PI - theta <= tol:
        raise AmbiguousOrderingError(
            "theta sits at pi/4 where symmetric components tie"
        )
    # theta - c falls as the sorted crossovers c rise, so the crossovers
    # within tol of theta form a run, opened by the first with theta - c <= tol.
    crossovers = _crossover_angles(k)[0]
    i = bisect_left(crossovers, True, key=lambda c: theta - c <= tol)
    if i < len(crossovers) and theta - crossovers[i] >= -tol:
        raise AmbiguousOrderingError(
            f"theta is within tolerance of the crossover at {float(crossovers[i])!r}"
        )
    p = spectrum(k, theta).components
    order = np.argsort(-p, kind="stable")  # the order of ``sort_desc``
    acc = _derivatives(p, theta)[order].cumsum()[:k]
    return AccumulationDerivatives(theta=theta, values=tuple(acc.tolist()))


def region1_closed_form(k: int, j: int, theta: float) -> float:
    """Closed form of the j-th accumulation derivative in the first region:

        -cos(theta)^(2k) * 2(k-j) * C(k,j) * tan(theta)^(2j+1),

    manifestly nonpositive for j = 0 .. k-1, which is why infinitesimal
    majorization always holds before the first crossover. It is evaluated
    as -2(k-j) tan(theta) P_(k-j), the same product since
    P_(k-j) = C(k,j) cos(theta)^(2(k-j)) sin(theta)^(2j), so it takes the
    spectrum's accuracy and no binomial coefficient has to fit a float.
    """
    k = check_photons(k)
    j = as_integer(j, "j")
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must lie in [0, {k - 1}], got {j}")
    theta = check_angle(theta, QUARTER_PI)
    return -2.0 * (k - j) * math.tan(theta) * float(spectrum(k, theta).components[k - j])


def infinitesimal_verdict(
    k: int, theta: float, *, tol: float = TOL
) -> InfinitesimalVerdict:
    """Decide infinitesimal parametric majorization at one angle.

    Holds when every accumulation derivative is at most ``tol``; Violated
    reports the first offending prefix index; Boundary is returned when the
    angle sits on a crossover (or at pi/4), where the two sides of the
    crossing must be examined separately, with the message of
    :class:`AmbiguousOrderingError` as its ``reason``.
    """
    try:
        acc = accumulation_derivatives(k, theta, tol=tol)
    except AmbiguousOrderingError as exc:
        return InfinitesimalVerdict(status=InfinitesimalStatus.BOUNDARY, reason=str(exc))
    j = next((j for j, value in enumerate(acc.values) if value > tol), None)
    status = InfinitesimalStatus.HOLDS if j is None else InfinitesimalStatus.VIOLATED
    return InfinitesimalVerdict(status=status, first_violation=j, derivatives=acc)


def positivity_bound(k: int, n: int) -> float:
    """Bounding angle up to which the n-th component derivative stays positive:

        arctan( (n / (k-n)) ^ (1 / (2n-1)) ).

    Here n indexes the components in the first-region sorted
    parameterization, valid for 1 <= n <= k-1.
    """
    k = check_photons(k)
    n = as_integer(n, "n")
    if not 1 <= n <= k - 1:
        raise ValueError(f"n must lie in [1, {k - 1}], got {n}")
    return math.atan((n / (k - n)) ** (1.0 / (2 * n - 1)))
