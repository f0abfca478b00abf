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
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .beamsplitter import as_photon_number, spectrum, spectrum_rows
from .vectors import TOL, sort_desc

QUARTER_PI = math.pi / 4

#: Most ordering entries (regions times k+1) one partition may hold, bounded
#: a priori by (k+1) * (k(k+1)/2 + 1); larger photon numbers are rejected
#: before any crossover is computed.
MAX_REGION_ENTRIES = 2 * 10**7


class AmbiguousOrderingError(ValueError):
    """The angle sits on a crossover, where the sort order is undefined.

    The sorting permutation is discontinuous there; the caller must pick a
    side of the crossover explicitly.
    """


@dataclass(frozen=True)
class RegionPartition:
    """Crossover angles partitioning [0, pi/4) into fixed-ordering regions.

    ``crossovers`` are sorted ascending. Region r (1-based) is the
    half-open interval [crossovers[r-2], crossovers[r-1]), with region 1
    starting at 0 and the last region ending at pi/4; a crossover angle
    itself belongs to the region on its right. ``orderings[r-1]`` is the
    sorting permutation sampled at the midpoint of region r, and
    ``pairs[i]`` lists the component index pairs (n, m), n > m, that
    coincide at ``crossovers[i]``.
    """

    k: int
    crossovers: tuple[float, ...]
    orderings: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def n_regions(self) -> int:
        return len(self.crossovers) + 1

    def region_of(self, theta: float) -> int:
        """1-based region label of an angle in [0, pi/4)."""
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


def find_crossovers(k: int) -> RegionPartition:
    """Enumerate all component crossings inside (0, pi/4).

    Components n and m (n > m) coincide where

        tan(theta)^(2(n-m)) = (m! (k-m)!) / (n! (k-n)!) = C(k,n) / C(k,m),

    an explicit equation with a single solution per pair. Solutions are
    kept when they fall strictly inside (0, pi/4), sorted, and deduplicated
    within tolerance; the coinciding pairs are recorded per crossover.

    Raises ``ValueError`` when the partition could hold more than
    ``MAX_REGION_ENTRIES`` ordering entries.
    """
    k = as_photon_number(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = (k + 1) * (k * (k + 1) // 2 + 1)
    if bound > MAX_REGION_ENTRIES:
        raise ValueError(
            f"the regions of k={k} may hold up to {bound} ordering entries, "
            f"more than the limit of {MAX_REGION_ENTRIES}"
        )
    crossovers, pairs = _crossings(k)
    return RegionPartition(
        k=k,
        crossovers=tuple(crossovers),
        orderings=tuple(_orderings(k, crossovers)),
        pairs=tuple(tuple(p) for p in pairs),
    )


def _crossings(k: int) -> tuple[list[float], list[list[tuple[int, int]]]]:
    """Sorted crossover angles in (0, pi/4) and the pairs meeting at each.

    The binomial quotient C(k,n) / C(k,m) is the exact rational of the
    crossing equation, rounded once to a float. Pairs with C(k,n) >= C(k,m)
    cross at or beyond pi/4 and are skipped. A quotient below the smallest
    normal float would lose its digits (or vanish), so its root is taken
    from the logarithms of the two integers instead.
    """
    binom = [math.comb(k, j) for j in range(k + 1)]
    hits: list[tuple[float, tuple[int, int]]] = []
    for n in range(1, k + 1):
        cn = binom[n]
        for m in range(n):
            cm = binom[m]
            if cn >= cm:
                continue
            ratio = cn / cm
            if ratio >= sys.float_info.min:
                t = ratio ** (1.0 / (2 * (n - m)))
            else:
                t = math.exp((math.log(cn) - math.log(cm)) / (2 * (n - m)))
            theta = math.atan(t)
            if TOL < theta < QUARTER_PI - TOL:
                hits.append((theta, (n, m)))
    hits.sort(key=lambda item: item[0])

    crossovers: list[float] = []
    pairs: list[list[tuple[int, int]]] = []
    for theta, pair in hits:
        if crossovers and abs(theta - crossovers[-1]) <= TOL:
            pairs[-1].append(pair)
        else:
            crossovers.append(theta)
            pairs.append([pair])
    return crossovers, pairs


def _orderings(k: int, crossovers: list[float]) -> list[tuple[int, ...]]:
    """Sorting permutation of the spectrum at the midpoint of every region.

    The midpoints' spectra come from ``spectrum_rows`` block by block, the
    rows ``spectrum`` returns; each block is argsorted as ``sort_desc``
    sorts (descending, ties to the lower index).
    """
    bounds = np.array([0.0, *crossovers, QUARTER_PI])
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    out: list[tuple[int, ...]] = []
    for rows in spectrum_rows(k, mids):
        out.extend(map(tuple, np.argsort(-rows, axis=1, kind="stable").tolist()))
    return out


def component_derivatives(k: int, theta: float) -> np.ndarray:
    """Angle derivatives of all spectrum components, in original index order.

    Differentiating C(k,n) cos^(2n) sin^(2(k-n)) gives

        dP_n/dtheta = P_n * ( 2(k-n) cot(theta) - 2n tan(theta) ),

    with P the spectrum at theta. Where cos(theta) or sin(theta) is exactly
    zero the spectrum is a point mass at a stationary point, and every
    derivative is zero.
    """
    return _derivatives(spectrum(k, theta).components, theta)


def _derivatives(p: np.ndarray, theta: float) -> np.ndarray:
    """``component_derivatives`` from the spectrum ``p`` at ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    if c == 0.0 or s == 0.0:
        return np.zeros(p.size)
    n = np.arange(p.size)  # n[::-1] is k - n
    return p * (2.0 * c / s * n[::-1] - 2.0 * s / c * n)


def accumulation_derivatives(
    k: int, theta: float, *, tol: float = TOL
) -> AccumulationDerivatives:
    """Prefix-sum derivatives of the sorted spectrum at one angle.

    Raises :class:`AmbiguousOrderingError` when ``theta`` is within ``tol``
    of a crossover (or of pi/4 itself), where the sorting permutation is
    not well defined.
    """
    k = as_photon_number(k)
    theta = _check_region_angle(theta)
    if k == 0:
        return AccumulationDerivatives(theta=theta, values=())
    if QUARTER_PI - theta <= tol:
        raise AmbiguousOrderingError(
            "theta sits at pi/4 where symmetric components tie"
        )
    for cross in _crossings(k)[0]:
        if abs(theta - cross) <= tol:
            raise AmbiguousOrderingError(
                f"theta is within tolerance of the crossover at {cross!r}"
            )
    p = spectrum(k, theta)
    order = sort_desc(p).perm
    acc = np.cumsum(_derivatives(p.components, theta)[list(order)])[:k]
    return AccumulationDerivatives(theta=theta, values=tuple(float(a) for a in acc))


def region1_closed_form(k: int, j: int, theta: float) -> float:
    """Closed form of the j-th accumulation derivative in the first region:

        -cos(theta)^(2k) * 2(k-j) * C(k,j) * tan(theta)^(2j+1),

    manifestly nonpositive for j = 0 .. k-1, which is why infinitesimal
    majorization always holds before the first crossover.
    """
    k = as_photon_number(k)
    if not 0 <= j <= k - 1:
        raise ValueError(f"j must lie in [0, {k - 1}], got {j}")
    theta = _check_region_angle(theta)
    lead = math.cos(theta) ** (2 * k)
    return -lead * 2.0 * (k - j) * math.comb(k, j) * math.tan(theta) ** (2 * j + 1)


def infinitesimal_verdict(
    k: int, theta: float, *, tol: float = TOL
) -> InfinitesimalVerdict:
    """Decide infinitesimal parametric majorization at one angle.

    Holds when every accumulation derivative is at most ``tol``; Violated
    reports the first offending prefix index; Boundary is returned when the
    angle sits on a crossover (or at pi/4), where the two sides of the
    crossing must be examined separately.
    """
    try:
        acc = accumulation_derivatives(k, theta, tol=tol)
    except AmbiguousOrderingError:
        return InfinitesimalVerdict(status=InfinitesimalStatus.BOUNDARY)
    for j, value in enumerate(acc.values):
        if value > tol:
            return InfinitesimalVerdict(
                status=InfinitesimalStatus.VIOLATED,
                first_violation=j,
                derivatives=acc,
            )
    return InfinitesimalVerdict(status=InfinitesimalStatus.HOLDS, derivatives=acc)


def positivity_bound(k: int, n: int) -> float:
    """Bounding angle up to which the n-th component derivative stays positive:

        arctan( (n / (k-n)) ^ (1 / (2n-1)) ).

    Here n indexes the components in the first-region sorted
    parameterization, valid for 1 <= n <= k-1.
    """
    k = as_photon_number(k)
    if not 1 <= n <= k - 1:
        raise ValueError(f"n must lie in [1, {k - 1}], got {n}")
    return math.atan((n / (k - n)) ** (1.0 / (2 * n - 1)))


def _check_region_angle(theta: float) -> float:
    theta = float(theta)
    if not 0.0 <= theta <= QUARTER_PI:
        raise ValueError(
            f"theta must lie in [0, pi/4], got {theta!r}; angles beyond pi/4 "
            "mirror onto pi/2 - theta with transmittance and reflectance swapped"
        )
    return theta
