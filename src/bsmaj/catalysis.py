"""Catalyzed majorization: making incomparable spectra LOCC-convertible.

Two incomparable spectra p and q can sometimes be supplemented with a
shared catalyst spectrum c so that the product p (x) c is majorized by
q (x) c; the catalyst is returned intact by the conversion. Supported
catalyst families: the two-outcome spectrum of a single photon split at an
angle, two-mode squeezed vacuum (a geometric spectrum with ratio tanh^2 r,
decided for the untruncated state unless a truncation is given), and
explicit user-supplied vectors.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beamsplitter import check_angle
from .entropy import renyi
from .majorization import MajorizationVerdict, Relation, compare, gap_relation
from .vectors import TOL, ProbVector, check_work, normalize_rows, tensor

#: Allowed spectral mass beyond the truncation point of a squeezed-vacuum
#: catalyst, before renormalization. Only a truncated catalyst (an explicit
#: ``tmsv:R,N``, or ``catalyst_spectrum``) uses it; checks and searches with an
#: automatic squeezed-vacuum catalyst decide for the untruncated state.
TAIL_TOL = 1e-12

#: Most grid candidates one search may scan; finer grids are rejected
#: before any candidate is checked.
MAX_CANDIDATES = 10**6

#: Most components a truncated squeezed-vacuum catalyst may have, and most
#: closed-form threshold terms (n^2 for n nonzero entries of the pair) the
#: check of an untruncated one may take.
MAX_CATALYST_DIM = 10**6

#: Most tensored entries (candidates times dimension) a single-photon search
#: compares in one numpy pass.
BATCH_ENTRIES = 2**18

#: Most closed-form terms (candidates times n^2) a squeezed-vacuum search
#: decides in one numpy pass. Larger blocks run faster (2^12 cut the
#: catalyst-scan benchmark's round by another quarter), but that benchmark's
#: worker keeps one float per operation of its fixed-length run, so its peak
#: RSS then rose past its 3% bound; at 2^10 it stays within it.
TMSV_BATCH_TERMS = 2**10

#: Entropy orders of the additivity-based necessary condition.
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, math.inf)


class CatalystFamily(str, enum.Enum):
    SINGLE_PHOTON = "single-photon"
    TMSV = "tmsv"
    EXPLICIT = "explicit"


class TruncationError(ValueError):
    """The requested truncation keeps too much spectral mass in the tail."""

    def __init__(self, message: str, required_dim: int):
        super().__init__(message)
        self.required_dim = required_dim


@dataclass(frozen=True)
class CatalystSpec:
    """One catalyst candidate: a family plus its parameter."""

    family: CatalystFamily
    theta_c: float | None = None
    r: float | None = None
    vector: ProbVector | None = None
    truncation_dim: int | None = None

    @classmethod
    def single_photon(cls, theta_c: float) -> "CatalystSpec":
        return cls(family=CatalystFamily.SINGLE_PHOTON, theta_c=check_angle(theta_c))

    @classmethod
    def tmsv(cls, r: float, truncation_dim: int | None = None) -> "CatalystSpec":
        r = float(r)
        if not r > 0.0:
            raise ValueError(f"squeezing parameter must be positive, got {r!r}")
        if math.tanh(r) ** 2 >= 1.0:
            raise ValueError(
                f"squeezing parameter {r!r} is too large: tanh^2 r rounds to 1, "
                "so the geometric spectrum has no normalizable truncation"
            )
        if truncation_dim is not None:
            if truncation_dim < 1:
                raise ValueError("truncation_dim must be positive")
            check_work(truncation_dim, MAX_CATALYST_DIM,
                       f"truncation_dim {truncation_dim}")
        return cls(family=CatalystFamily.TMSV, r=r, truncation_dim=truncation_dim)

    @classmethod
    def explicit(cls, vector: ProbVector) -> "CatalystSpec":
        return cls(family=CatalystFamily.EXPLICIT, vector=vector)

    def describe(self) -> dict:
        out: dict = {"family": self.family.value}
        if self.theta_c is not None:
            out["theta_c"] = float(self.theta_c)
        if self.r is not None:
            out["r"] = float(self.r)
        if self.truncation_dim is not None:
            out["truncation_dim"] = int(self.truncation_dim)
        if self.vector is not None:
            out["components"] = [float(x) for x in self.vector.components]
        return out


def tmsv_dimension(r: float, tail_tol: float = TAIL_TOL) -> int:
    """Smallest truncation keeping the discarded geometric mass below tail_tol.

    The untruncated spectrum is (1 - q) q^n with q = tanh^2 r, so the mass
    beyond the first N terms is exactly q^N. When q underflows to zero
    the spectrum is the vacuum alone and one term holds all of it.
    """
    q = math.tanh(r) ** 2
    if q == 0.0:
        return 1
    return max(1, math.ceil(math.log(tail_tol) / math.log(q)))


def catalyst_spectrum(spec: CatalystSpec, *, tail_tol: float = TAIL_TOL) -> ProbVector:
    """Materialize the probability vector of a catalyst candidate."""
    if spec.family is CatalystFamily.SINGLE_PHOTON:
        c2 = math.cos(spec.theta_c) ** 2
        return ProbVector([c2, 1.0 - c2])
    if spec.family is CatalystFamily.EXPLICIT:
        return spec.vector
    # Truncated squeezed vacuum: geometric with ratio tanh^2 r.
    q = math.tanh(spec.r) ** 2
    needed = n_terms = tmsv_dimension(spec.r, tail_tol)
    if spec.truncation_dim is None:
        check_work(needed, MAX_CATALYST_DIM, f"squeezing parameter {spec.r!r} needs "
                   f"{needed} components for tail mass {tail_tol:.3g}")
    else:
        n_terms = spec.truncation_dim
    tail = q**n_terms
    if tail >= tail_tol:
        raise TruncationError(
            f"truncation at {n_terms} terms leaves tail mass {tail!r} "
            f">= {tail_tol!r}; need at least {needed} terms",
            required_dim=needed,
        )
    weights = (1.0 - q) * q ** np.arange(n_terms)
    return ProbVector(weights / weights.sum())


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
    tail_tol: float = TAIL_TOL,
) -> CatalysisReport:
    """Compare p against q bare and with the catalyst tensored onto both.

    A squeezed-vacuum catalyst without an explicit truncation is the
    untruncated geometric spectrum c_j = (1 - rho) rho^j, rho = tanh^2 r.
    Its verdict comes from the threshold form of majorization: p (x) c is
    majorized by q (x) c exactly when D(t) = F_q(t) - F_p(t) >= 0 for every
    t > 0, where F(t) = sum over entries x of (x - t)_+. The verdict is
    :func:`~bsmaj.majorization.gap_relation` of the least and greatest D,
    which :func:`_threshold_extremes` finds in closed form; it carries no
    prefix-sum gaps. Pairs whose closed form needs more than
    ``MAX_CATALYST_DIM`` terms are refused before any is formed, and so are
    squeezings too close to tanh^2 r = 1 for it (:func:`_check_closed_form`).

    Every other catalyst, including an explicit ``tmsv:R,N`` truncated at
    ``tail_tol``, is materialized and compared by prefix sums.
    """
    verdict_without = compare(p, q, tol=tol)
    untruncated = c.family is CatalystFamily.TMSV and c.truncation_dim is None
    rho = math.tanh(c.r) ** 2 if untruncated else 0.0
    # tanh^2 r = 0 is the vacuum, which catalyst_spectrum builds exactly
    if rho > 0.0:
        vals, weights = _gap_entries(p, q)
        _check_closed_form(vals, c.r)
        lo, hi = _threshold_extremes(vals, weights, np.array([rho]))
        verdict_with = MajorizationVerdict(gap_relation(float(lo[0]), float(hi[0]), tol),
                                           (), None)
    else:
        cvec = catalyst_spectrum(c, tail_tol=tail_tol)
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
    """Refuse, before any term is formed, more than ``MAX_CATALYST_DIM``
    closed-form terms (n^2 for n entries), or a squeezing at which a switch-on
    index c_yx of :func:`_threshold_extremes` would pass 2^53, beyond which
    neighbouring catalyst powers are no longer distinct floats. The largest
    c_yx is that of the largest entry seen from the smallest."""
    n = vals.size
    check_work(n * n, MAX_CATALYST_DIM,
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
    tends to S0, which is 0 for unit-sum p and q. That is n^2 segments for n
    entries, whatever rho and however many decades the entries span.

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
    lam = -np.log(rhos)[:, None, None]
    rest = (1.0 - rhos)[:, None, None]
    logs = np.log(vals)
    delta = (logs - logs[:, None]) / lam  # [ratio, y, x]
    c = np.ceil(delta)
    s0, s3 = np.cumsum(weights * vals), np.cumsum(weights)
    s1 = np.cumsum(weights * np.exp(lam * (delta - c)), axis=-1)
    s2 = np.cumsum(weights * c, axis=-1)
    # segment k runs from j = max(0, 1 - c_k) to -c_(k+1); the last one has no end
    lower = np.maximum(1.0 - c, 0.0)
    upper = np.concatenate([-c[..., 1:], np.full_like(c[..., :1], np.inf)], axis=-1)
    valid = lower <= upper
    with np.errstate(divide="ignore", invalid="ignore"):
        jstar = np.where(s3 != 0.0, 1.0 / lam - (s1 + rest * s2) / (rest * s3), lower)
    upper = np.maximum(upper, lower)  # an empty segment is masked out below
    lo = hi = np.zeros(rhos.size)
    for j in (lower, np.where(np.isinf(upper), lower, upper),
              np.floor(jstar), np.ceil(jstar)):
        j = np.clip(j, lower, upper)
        gap = s0 - vals[:, None] * np.exp(-lam * j) * (s1 + rest * (s2 + j * s3))
        gap = np.where(valid, gap, 0.0)
        lo = np.minimum(lo, gap.min(axis=(1, 2)))
        hi = np.maximum(hi, gap.max(axis=(1, 2)))
    return lo, hi


def necessary_conditions(p: ProbVector, q: ProbVector, *, tol: float = TOL) -> bool:
    """Entropy screen that any catalyzable pair must pass.

    These entropies are additive over tensor products, so a catalyzed
    conversion from q-like to p-like spectra forces every order to satisfy
    S(p) >= S(q) at every order of ``ALPHA_GRID``. A single decrease rules
    every catalyst out.
    """
    return all(renyi(p, a) >= renyi(q, a) - tol for a in ALPHA_GRID)


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
    ``TMSV_BATCH_TERMS`` closed-form terms for squeezed vacua. A
    ``CatalystSpec`` is built only for a hit.
    """
    family = CatalystFamily(family)
    if family is CatalystFamily.EXPLICIT:
        raise ValueError("search requires a parametric family")
    if not grid > 0:
        raise ValueError("grid step must be positive")
    single = family is CatalystFamily.SINGLE_PHOTON
    limit = math.pi / 4 if single else r_max
    span = limit + 1e-15
    check_work(span / grid, MAX_CANDIDATES,
               f"grid step {grid!r} would scan about {span / grid:.3g} candidates")
    if not single and limit >= grid:
        # The largest candidate has the largest switch-on indices.
        _check_closed_form(_gap_entries(p, q)[0], CatalystSpec.tmsv(limit).r)

    base = compare(p, q, tol=tol).relation
    if base in (Relation.MAJORIZED_BY, Relation.EQUAL):
        yield CatalystSpec.explicit(ProbVector([1.0]))
        return
    if base is Relation.MAJORIZES or not necessary_conditions(p, q, tol=tol):
        return

    if single:
        per_block, make = BATCH_ENTRIES // (2 * max(p.dim, q.dim)), CatalystSpec.single_photon

        def hits(thetas):
            # the rows catalyst_spectrum builds, normalized as ProbVector does
            c2 = np.array([math.cos(t) ** 2 for t in thetas])
            cats = normalize_rows(np.stack([c2, 1.0 - c2], axis=1))
            return _majorized_by_rows(p, q, cats, tol)
    else:
        vals, weights = _gap_entries(p, q)
        per_block, make = TMSV_BATCH_TERMS // vals.size**2, CatalystSpec.tmsv

        def hits(rs):
            rhos = np.array([math.tanh(r) ** 2 for r in rs])
            lo, hi = _threshold_extremes(vals, weights, rhos)
            return [gap_relation(a, b, tol) is Relation.MAJORIZED_BY
                    for a, b in zip(lo.tolist(), hi.tolist())]

    # The products rise with i, so the points within span are a prefix.
    values = grid * np.arange(1, int(span / grid) + 2)
    values = values[values <= span].tolist()
    per_block = max(1, per_block)
    for start in range(0, len(values), per_block):
        block = values[start:start + per_block]
        for value, hit in zip(block, hits(block)):
            if hit:
                yield make(value)


def _majorized_by_rows(p, q, cats, tol) -> np.ndarray:
    """Row i: is ``tensor(p, c_i)`` MajorizedBy ``tensor(q, c_i)``?

    Each step repeats what :func:`tensor` and :func:`compare` do for one
    catalyst, row by row, so every decision is bit-identical to theirs.
    """
    d = max(p.dim, q.dim) * cats.shape[1]
    ps = _sorted_products(p, cats, d)
    qs = _sorted_products(q, cats, d)
    gaps = np.cumsum(qs, axis=1)
    gaps -= np.cumsum(ps, axis=1)
    extremes = zip(gaps.min(axis=1).tolist(), gaps.max(axis=1).tolist())
    return np.array(
        [gap_relation(lo, hi, tol) is Relation.MAJORIZED_BY for lo, hi in extremes],
        dtype=bool,
    )


def _sorted_products(p, cats, d) -> np.ndarray:
    """Rows ``tensor(p, c_i)``, normalized as ProbVector does, zero-padded
    to ``d`` entries and sorted in non-increasing order."""
    m, n = cats.shape[0], p.dim * cats.shape[1]
    rows = normalize_rows(
        (p.components[None, :, None] * cats[:, None, :]).reshape(m, n)
    )
    if n < d:
        rows = np.concatenate([rows, np.zeros((m, d - n))], axis=1)
    rows.sort(axis=1)
    return rows[:, ::-1]
