"""Catalyzed majorization: making incomparable spectra LOCC-convertible.

Two incomparable spectra p and q can sometimes be supplemented with a
shared catalyst spectrum c so that the product p (x) c is majorized by
q (x) c; the catalyst is returned intact by the conversion. Supported
catalyst families: the two-outcome spectrum of a single photon split at an
angle, two-mode squeezed vacuum (a geometric spectrum with ratio tanh^2 r,
decided for the untruncated state), and explicit user-supplied vectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beamsplitter import angle_squares, check_angle
from .entropy import renyi_orders
from .majorization import (MajorizationVerdict, Relation, compare, gap_relation,
                           majorized_by_mask, prefix_gaps)
from .vectors import (TOL, ProbVector, check_tol, check_work, normalize_rows, tensor,
                      tensor_rows)

#: Spectral mass of a squeezed vacuum beyond the truncation that
#: :func:`tmsv_dimension` counts. Only ``catalysis check`` uses it, and prints
#: it as ``tail_tol``; checks and searches decide for the untruncated state.
TAIL_TOL = 1e-12

#: Most grid candidates one search may scan; finer grids are rejected
#: before any candidate is checked.
MAX_CANDIDATES = 10**6

#: Most closed-form threshold terms (n^2 for n nonzero entries of the pair)
#: the check of a squeezed-vacuum catalyst may take.
MAX_CLOSED_FORM_TERMS = 10**6

#: Most tensored entries (candidates times dimension) a single-photon search
#: compares in one numpy pass.
BATCH_ENTRIES = 2**18

#: Most closed-form terms (candidates times n^2) a squeezed-vacuum search
#: decides in one numpy pass. A pass costs about 28 us in fixed numpy calls,
#: most of what a small pair's pass costs, so larger blocks run faster: on the
#: catalyst-scan benchmark's 0.06 grid up to r = 3 (50 candidates), 2^12
#: decides a pair of k = 3, 4, 5, 6 photons (n = 8, 10, 12, 14) in 1, 2, 2
#: and 3 passes, and a pair with n^2 > 2^12 one ratio per pass. A pass holds
#: a few float64 arrays of its terms, 32 kB each at 2^12 terms. 2^13
#: would be faster still, but that benchmark's worker keeps one float per
#: operation of its fixed-length run, so its peak RSS grows with throughput
#: and read +1.9% and +2.5% against a 3% bound; raise it once the worker
#: keeps its latencies in an array('d').
TMSV_BATCH_TERMS = 2**12

#: Entropy orders of the additivity-based necessary condition.
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, math.inf)


class CatalystFamily(str, enum.Enum):
    SINGLE_PHOTON = "single-photon"
    TMSV = "tmsv"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class CatalystSpec:
    """One catalyst candidate: a family plus its parameter."""

    family: CatalystFamily
    theta_c: float | None = None
    r: float | None = None
    vector: ProbVector | None = None

    @classmethod
    def single_photon(cls, theta_c: float) -> "CatalystSpec":
        return cls(family=CatalystFamily.SINGLE_PHOTON, theta_c=check_angle(theta_c))

    @classmethod
    def tmsv(cls, r: float) -> "CatalystSpec":
        return cls(family=CatalystFamily.TMSV, r=check_squeezing(r))

    @classmethod
    def explicit(cls, vector: ProbVector) -> "CatalystSpec":
        return cls(family=CatalystFamily.EXPLICIT, vector=vector)

    def describe(self) -> dict:
        out: dict = {"family": self.family.value}
        if self.theta_c is not None:
            out["theta_c"] = float(self.theta_c)
        if self.r is not None:
            out["r"] = float(self.r)
        if self.vector is not None:
            out["components"] = [float(x) for x in self.vector.components]
        return out


def check_squeezing(r: float) -> float:
    """Validate a squeezing parameter: positive, and small enough that
    tanh^2 r stays below 1 (a NaN is refused too)."""
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"squeezing parameter must be positive, got {r!r}")
    if math.tanh(r) ** 2 >= 1.0:
        raise ValueError(
            f"squeezing parameter {r!r} is too large: tanh^2 r rounds to 1, "
            "so the geometric spectrum has no normalizable truncation"
        )
    return r


def tmsv_dimension(r: float) -> int:
    """Smallest truncation keeping the discarded geometric mass below TAIL_TOL.

    The untruncated spectrum is (1 - q) q^n with q = tanh^2 r, so the mass
    beyond the first N terms is exactly q^N. When q underflows to zero
    the spectrum is the vacuum alone and one term holds all of it. ``r`` is
    checked as :meth:`CatalystSpec.tmsv` checks it. Only ``catalysis
    check`` uses it, and prints it as ``catalyst_dim``.
    """
    q = math.tanh(check_squeezing(r)) ** 2
    if q == 0.0:
        return 1
    return math.ceil(math.log(TAIL_TOL) / math.log(q))


def catalyst_spectrum(spec: CatalystSpec) -> ProbVector:
    """The probability vector of a single-photon or explicit catalyst.

    A squeezed vacuum is decided in closed form (:func:`check_catalysis`)
    and is never materialized, so its spec raises ValueError.
    """
    if spec.family is CatalystFamily.SINGLE_PHOTON:
        return ProbVector._from_trusted(_single_photon_rows([spec.theta_c])[0])
    if spec.family is CatalystFamily.EXPLICIT:
        return spec.vector
    raise ValueError("a squeezed-vacuum catalyst has no materialized spectrum")


def _single_photon_rows(thetas) -> np.ndarray:
    """Row i is the single-photon catalyst (cos^2 t, 1 - cos^2 t) at the
    angle t = ``thetas[i]``, normalized as ``ProbVector`` normalizes it; the
    angles are checked and squared by one :func:`angle_squares` pass."""
    c2 = angle_squares(thetas)[0]
    return normalize_rows(np.stack([c2, 1.0 - c2], axis=1))


@dataclass(frozen=True)
class CatalysisReport:
    """Verdicts with and without the catalyst attached."""

    verdict_without: MajorizationVerdict
    verdict_with: MajorizationVerdict
    catalyst: CatalystSpec

    @property
    def catalysis_achieved(self) -> bool:
        """True when the catalyst turns incomparability into majorization."""
        return (
            self.verdict_without.relation is Relation.INCOMPARABLE
            and self.verdict_with.relation is Relation.MAJORIZED_BY
        )

    def to_dict(self) -> dict:
        return {
            "without": self.verdict_without.relation.value,
            "with": self.verdict_with.relation.value,
            # Kept in the output schema; no verdict is marginal since
            # squeezed-vacuum catalysts are decided for the untruncated state.
            "marginal": False,
            "achieved": self.catalysis_achieved,
            "catalyst": self.catalyst.describe(),
        }


def check_catalysis(
    p: ProbVector,
    q: ProbVector,
    c: CatalystSpec,
    *,
    tol: float = TOL,
) -> CatalysisReport:
    """Compare p against q bare and with the catalyst tensored onto both.

    A squeezed-vacuum catalyst is the untruncated geometric spectrum
    c_j = (1 - rho) rho^j, rho = tanh^2 r. Its verdict comes from the
    threshold form of majorization: p (x) c is majorized by q (x) c exactly
    when D(t) = F_q(t) - F_p(t) >= 0 for every t > 0, where F(t) = sum over
    entries x of (x - t)_+. The verdict is
    :func:`~bsmaj.majorization.gap_relation` of the least and greatest D,
    which :func:`_threshold_extremes` finds in closed form; it carries no
    prefix-sum gaps. Pairs whose closed form needs more than
    ``MAX_CLOSED_FORM_TERMS`` terms are refused before any is formed, and so
    are squeezings too close to tanh^2 r = 1 for it (:func:`_check_closed_form`).

    Every other catalyst, and the vacuum (a squeezing whose tanh^2 r
    underflows to 0, the one-entry catalyst [1]), is materialized and
    compared by prefix sums.
    """
    verdict_without = compare(p, q, tol=tol)
    rho = math.tanh(c.r) ** 2 if c.family is CatalystFamily.TMSV else 0.0
    if rho > 0.0:
        vals, weights = _gap_entries(p, q)
        _check_closed_form(vals, c.r)
        lo, hi = _threshold_extremes(vals, weights, np.array([rho]))
        verdict_with = MajorizationVerdict(gap_relation(float(lo[0]), float(hi[0]), tol),
                                           np.empty(0), None)
    else:
        cvec = ProbVector([1.0]) if c.family is CatalystFamily.TMSV else catalyst_spectrum(c)
        verdict_with = compare(tensor(p, cvec), tensor(q, cvec), tol=tol)
    return CatalysisReport(verdict_without, verdict_with, c)


def _gap_entries(p, q):
    """Nonzero entries of q and p in non-increasing order, with threshold-gap
    weights +1 for those of q and -1 for those of p."""
    b, a = q.components[q.components > 0], p.components[p.components > 0]
    vals = np.concatenate([b, a])
    order = np.argsort(-vals, kind="stable")
    return vals[order], np.repeat([1.0, -1.0], [b.size, a.size])[order]


def _check_closed_form(vals, r) -> None:
    """Refuse, before any term is formed, more than ``MAX_CLOSED_FORM_TERMS``
    closed-form terms (n^2 for n entries), or a squeezing at which a switch-on
    index c_yx of :func:`_threshold_extremes` would pass 2^53, beyond which
    neighbouring catalyst powers are no longer distinct floats. The largest
    c_yx is that of the largest entry seen from the smallest."""
    n = vals.size
    check_work(n * n, MAX_CLOSED_FORM_TERMS,
               f"{n} nonzero entries need {n * n} closed-form threshold terms")
    reach = (math.log(vals[0]) - math.log(vals[-1])) / -math.log(math.tanh(r) ** 2)
    if not reach <= 2.0**53:
        raise ValueError(
            f"squeezing parameter {r!r} is too large for this pair: its entries "
            f"lie {reach:.3g} catalyst powers apart, more than 2^53"
        )


def _threshold_extremes(vals, weights, rhos):
    """Least and greatest threshold gap D over t > 0, in closed form, for
    each catalyst ratio in the array ``rhos``.

    ``vals`` are the nonzero entries v of p and q in non-increasing order
    and ``weights`` their w, +1 on q and -1 on p. With lam = -ln rho and
    J_x(t) the number of products (1 - rho) v_x rho^j above t,

        D(t) = sum_x w_x [v_x (1 - rho^J_x) - t J_x],

    which is linear between products, so its extremes lie at products or are
    the 0 it takes above them all. At the product t = (1 - rho) v_y rho^j of
    a base entry y, J_x = max(0, j + c_yx), where c_yx = ceil(delta_yx) and
    delta_yx = ln(v_x / v_y) / lam, and v_x rho^J_x = v_y rho^j
    rho^(c_yx - delta_yx). So each y sees the entries x switch on in order,
    at j >= 1 - c_yx, and between two switch-ons

        D = S0 - v_y rho^j [S1 + (1 - rho)(S2 + j S3)],

    summed over the prefix switched on so far: S0 = sum w v; S1 = sum w
    rho^(c - delta), each factor in (rho, 1], so nothing overflows;
    S2 = sum w c; S3 = sum w. The bracket is alpha + beta j, with
    alpha = S1 + (1 - rho) S2 and beta = (1 - rho) S3, and rho^j (alpha +
    beta j) has one stationary point, j* = 1/lam - alpha/beta. So each
    segment's extremes lie at its two ends and at floor(j*) and ceil(j*);
    the last segment, with every entry on, runs on to j -> infinity, where D
    tends to S0, which is 0 for unit-sum p and q. Of the n^2 segments for n
    entries only the nonempty ones are evaluated: entries within one catalyst
    power of each other switch on together, so at small rho most segments
    are empty. Each is evaluated at its ends, and at floor(j*) and ceil(j*)
    only where S3 != 0 and j* lies strictly inside it; elsewhere those two
    clamp to an end, whose value is already taken.

    S2 + j S3 is formed in whole numbers before it is scaled. It may pass
    2^53 (n terms of up to 1 + L/lam each, L = ln(v_max / v_min)), but its
    rounding enters D multiplied by (1 - rho) v_y rho^j, and since
    1 - rho <= lam and rho^j j <= 1/(e lam), that product stays below
    n (L + 2) v_y, so the rounding of its n additions adds at most about
    n^2 (L + 2) v_y 2^-53 to D at any rho. The factors of S1 carry the
    rounding of delta_yx, whose error times lam is a few ulps of L.
    :func:`_check_closed_form` refuses a c_yx past 2^53, where catalyst
    powers one apart stop being distinct floats; that cut-off is
    conservative, and the tests check the kernel up to it. Each ratio's
    extremes come out bit for bit the same whichever block of ratios it is
    decided in.
    """
    n = vals.size
    lam, rest = -np.log(rhos), 1.0 - rhos
    logs = np.log(vals)
    delta = (logs - logs[:, None]) / lam[:, None, None]  # [ratio, y, x]
    c = np.ceil(delta)
    s1 = np.add.accumulate(weights * np.exp(lam[:, None, None] * (delta - c)), axis=-1)
    del delta
    s2 = np.add.accumulate(weights * c, axis=-1)
    # segment k runs from j = max(0, 1 - c_k) to -c_(k+1); the last one has no end
    ends = np.empty((2,) + c.shape)
    np.maximum(1.0 - c, 0.0, out=ends[0])
    np.negative(c[..., 1:], out=ends[1, ..., :-1])
    ends[1, ..., -1] = np.inf
    del c
    # Gather the nonempty segments, ratio-major, freeing each n^2 array as it
    # goes. Every ratio keeps at least its n last segments, so no reduceat
    # group below is empty.
    seg = np.flatnonzero(ends[0] <= ends[1])
    s1 = s1.ravel()[seg]
    s2 = s2.ravel()[seg]
    ends = np.take(ends.reshape(2, -1), seg, axis=1)
    lower, upper = ends
    ratio, seg = np.divmod(seg, n * n)
    y, x = np.divmod(seg, n)
    del seg
    starts = np.searchsorted(ratio, np.arange(rhos.size))
    lam, rest, v = lam[ratio], rest[ratio], vals[y]
    del ratio, y
    s0, s3 = np.add.accumulate(weights * vals)[x], np.add.accumulate(weights)[x]
    del x
    with np.errstate(divide="ignore", invalid="ignore"):
        jstar = 1.0 / lam - (s1 + rest * s2) / (rest * s3)
        inside = np.flatnonzero((s3 != 0.0) & (lower < jstar) & (jstar < upper))
    np.copyto(upper, lower, where=np.isinf(upper))  # the last segment has one end
    gap = _segment_gaps(ends, s0, v, lam, s1, rest, s2, s3)
    lo, hi = np.minimum(*gap), np.maximum(*gap)
    del gap
    if inside.size:
        jstar = jstar[inside]
        gap = _segment_gaps(np.concatenate([np.floor(jstar), np.ceil(jstar)]).reshape(2, -1),
                            *(a[inside] for a in (s0, v, lam, s1, rest, s2, s3)))
        lo[inside] = np.minimum(lo[inside], np.minimum(*gap))
        hi[inside] = np.maximum(hi[inside], np.maximum(*gap))
    return (np.minimum(np.minimum.reduceat(lo, starts), 0.0),
            np.maximum(np.maximum.reduceat(hi, starts), 0.0))


def _segment_gaps(j, s0, v, lam, s1, rest, s2, s3):
    """D at the points ``j`` (one row each) of segments given by their sums."""
    return s0 - v * np.exp(-lam * j) * (s1 + rest * (s2 + j * s3))


def necessary_conditions(p: ProbVector, q: ProbVector, *, tol: float = TOL) -> bool:
    """Entropy screen that any catalyzable pair must pass.

    These entropies are additive over tensor products, so a catalyzed
    conversion from q-like to p-like spectra forces every order to satisfy
    S(p) >= S(q) at every order of ``ALPHA_GRID``. A single decrease rules
    every catalyst out. This is the sampled-order form of Turgut's trumping
    conditions (J. Phys. A 40, 12185, 2007).

    Both spectra take every order in one :func:`~bsmaj.entropy.renyi_orders`
    pass, bit for bit the ``renyi`` of each order, and the orders are
    compared as one array. Every order is evaluated, with no early exit, so
    a pair the screen rejects costs as much as one it passes: about 35 us
    for a k = 3 pair on a 2-vCPU AMD EPYC host, where stopping at the first
    failing order took about 21 us (and a passing pair about 97 us).
    """
    check_tol(tol)
    s_p = renyi_orders(p.components, ALPHA_GRID)
    s_q = renyi_orders(q.components, ALPHA_GRID)
    return bool(np.all(s_p >= s_q - tol))


def search_catalyst(
    p: ProbVector,
    q: ProbVector,
    family: CatalystFamily | str,
    grid: float,
    *,
    r_max: float = 3.0,
    tol: float = TOL,
) -> CatalystSpec | None:
    """First catalyst in the family (scanning its parameter upward) that works.

    If p is already majorized by q there is nothing to catalyze and the
    trivial one-dimensional catalyst is returned immediately; if the
    entropy screen fails, no catalyst can exist and None is returned
    without scanning. Grid candidates are decided as
    :func:`check_catalysis` decides them, in blocks: single-photon catalysts
    by the prefix sums of the tensored pairs, squeezed-vacuum catalysts by
    the closed-form threshold gaps of the untruncated state
    (:func:`_threshold_extremes`). A squeezed-vacuum scan that
    :func:`check_catalysis` would refuse at ``r_max`` is refused before any
    candidate is decided.
    """
    return next(_search(p, q, family, grid, r_max, tol), None)


def search_catalyst_all(
    p: ProbVector,
    q: ProbVector,
    family: CatalystFamily | str,
    grid: float,
    *,
    r_max: float = 3.0,
    tol: float = TOL,
) -> list[CatalystSpec]:
    """All grid candidates in the family that achieve catalysis.

    Screens and decides candidates as :func:`search_catalyst` does.
    """
    return list(_search(p, q, family, grid, r_max, tol))


def _search(p, q, family, grid, r_max, tol):
    """Yield, in scan order, every candidate that achieves catalysis.

    The grid is the float products ``grid * i`` for i = 1, 2, ... up to the
    family's limit plus 1e-15 (the last point may overshoot by roundoff).
    Consecutive candidates form a block, decided in one numpy pass: at most
    ``BATCH_ENTRIES`` tensored entries for single-photon catalysts, at most
    ``TMSV_BATCH_TERMS`` closed-form terms for squeezed vacua. Decisions are
    made per block: its least and greatest gaps give every verdict of the
    block as one array (:func:`~bsmaj.majorization.majorized_by_mask`), and
    a ``CatalystSpec`` is built only for a hit, by the dataclass itself: the
    grid lies in the family's range, and ``r_max`` is validated once. A
    squeezed-vacuum search sorts the pair's entries once, for its ``r_max``
    guard and its blocks.
    """
    family = CatalystFamily(family)
    if family is CatalystFamily.EXPLICIT:
        raise ValueError("search requires a parametric family")
    if not 0 < grid < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {grid!r}")
    single = family is CatalystFamily.SINGLE_PHOTON
    limit = math.pi / 4 if single else CatalystSpec.tmsv(r_max).r
    span = limit + 1e-15
    check_work(span / grid, MAX_CANDIDATES,
               f"grid step {grid!r} would scan about {span / grid:.3g} candidates")
    if not single:
        vals, weights = _gap_entries(p, q)
        if limit >= grid:
            # The largest candidate has the largest switch-on indices.
            _check_closed_form(vals, limit)

    base = compare(p, q, tol=tol).relation
    if base in (Relation.MAJORIZED_BY, Relation.EQUAL):
        yield CatalystSpec.explicit(ProbVector([1.0]))
        return
    if base is Relation.MAJORIZES or not necessary_conditions(p, q, tol=tol):
        return

    per_block = max(1, BATCH_ENTRIES // (2 * max(p.dim, q.dim)) if single
                    else TMSV_BATCH_TERMS // vals.size**2)
    # The products rise with i, so the points within span are a prefix.
    values = grid * np.arange(1, int(span / grid) + 2)
    values = values[values <= span].tolist()
    for start in range(0, len(values), per_block):
        block = values[start:start + per_block]
        if single:
            hits = _majorized_by_rows(p, q, _single_photon_rows(block), tol)
        else:
            rhos = np.array([math.tanh(r) ** 2 for r in block])
            hits = majorized_by_mask(*_threshold_extremes(vals, weights, rhos), tol)
        for i in np.flatnonzero(hits).tolist():
            yield (CatalystSpec(family, theta_c=block[i]) if single
                   else CatalystSpec(family, r=block[i]))


def _majorized_by_rows(p, q, cats, tol) -> np.ndarray:
    """Row i: is ``tensor(p, c_i)`` MajorizedBy ``tensor(q, c_i)``? Each row
    is decided through the code of :func:`tensor` and :func:`compare`; a
    block of more candidates than entries gets its gaps entry-major from
    :func:`~bsmaj.majorization.prefix_gaps`, so each row's extremes are
    taken as a few vector operations."""
    gaps = prefix_gaps(tensor_rows(p, cats), tensor_rows(q, cats))
    return majorized_by_mask(gaps.min(axis=-1), gaps.max(axis=-1), tol)
