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
#: terms the threshold window of an untruncated one may hold.
MAX_CATALYST_DIM = 10**6

#: Most tensored entries (candidates times dimension) a single-photon search
#: compares in one numpy pass.
BATCH_ENTRIES = 2**18

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
    t > 0, where F(t) = sum over entries x of (x - t)_+ (the ROADMAP.md
    derivation under "Decide squeezed-vacuum catalysis exactly"). Below the
    smallest nonzero entry a_min of (1 - rho) p and (1 - rho) q,
    D(rho t) = rho (D(t) - Delta t) with Delta = |supp q| - |supp p|, so D is
    evaluated only at the products in [rho a_min, a_max] and continued in
    closed form below them. When p and q span many decades that window is
    long, and it stops instead at a floor below which |D| provably stays
    within tol / 2, too little to change the verdict; either way its length
    grows with the decades between its ends over |log rho|. The verdict is
    :func:`~bsmaj.majorization.gap_relation` of min D and max D, the rule
    ``compare`` applies to prefix sums; it carries no prefix-sum gaps. The
    window is refused above ``MAX_CATALYST_DIM`` terms.

    Every other catalyst, including an explicit ``tmsv:R,N`` truncated at
    ``tail_tol``, is materialized and compared by prefix sums.
    """
    verdict_without = compare(p, q, tol=tol)
    untruncated = c.family is CatalystFamily.TMSV and c.truncation_dim is None
    # tanh^2 r = 0 is the vacuum, which catalyst_spectrum builds exactly
    if untruncated and math.tanh(c.r) ** 2 > 0.0:
        verdict_with = _window_verdict(p, q, c.r, tol)
    else:
        cvec = catalyst_spectrum(c, tail_tol=tail_tol)
        verdict_with = compare(tensor(p, cvec), tensor(q, cvec), tol=tol)
    return CatalysisReport(verdict_without, verdict_with, c)


def _window_verdict(p, q, r, tol) -> MajorizationVerdict:
    """``check_catalysis``'s verdict for the untruncated squeezed vacuum; it
    carries no prefix-sum gaps."""
    vals, weights = _window_entries(p, q)
    _check_window(vals, r, tol)
    lo, hi = _threshold_gaps(vals, weights, math.tanh(r) ** 2, tol)
    return MajorizationVerdict(gap_relation(lo, hi, tol), (), None)


def _window_entries(p, q):
    """Nonzero entries of q, then of p, with threshold-gap weights +1 and -1."""
    b, a = q.components[q.components > 0], p.components[p.components > 0]
    return np.concatenate([b, a]), np.repeat([1.0, -1.0], [b.size, a.size])


def _window_floor(n, rho, tol) -> float:
    """A threshold t0 below which every threshold gap of n entries stays
    within tol / 2.

    D(t) = G_p(t) - G_q(t) with G(t) = sum min(x, t), which rises with t, so
    |D(t)| <= max(G_p(t0), G_q(t0)) for t <= t0. An entry v adds t0 K + v rho^K
    to G(t0): K < log(1/t0)/|log rho| + 1 products lie at or above t0, and the
    mass below them is v rho^K < t0 s with s = 1/(1 - rho) >= 1/|log rho|. So
    G(t0) <= n s t0 (log(1/t0) + 2), which is at most tol / 2 at
    t0 = 1/(X (2 log X + 2)) for any X >= max(8, 2 n s / tol).
    """
    if tol <= 0.0:
        return 0.0
    x = max(8.0, 2.0 * n / ((1.0 - rho) * tol))
    return 1.0 / (x * (2.0 * math.log(x) + 2.0))


def _window_steps(vals, rho, tol):
    """Per entry, how many products (1 - rho) v rho^j the window holds, and
    whether the window is self-similar.

    The window holds every product at or above its lower end, the larger of
    rho (1 - rho) a_min and ``_window_floor``. At the first, the last product
    of each entry lies in [rho a_min, a_min) (scaled by 1 - rho) and D
    continues below the window in closed form; at the second, D stays
    within tol / 2 below it and so cannot change the verdict.
    """
    log_rho = math.log(rho)
    floor = _window_floor(vals.size, rho, tol)
    a_min = vals.min()
    if floor <= rho * (1.0 - rho) * a_min:
        return np.floor(np.log(vals / a_min) / -log_rho) + 2.0, True
    steps = np.floor(np.log((1.0 - rho) * vals / floor) / -log_rho) + 1.0
    return np.maximum(steps, 0.0), False


def _check_window(vals, r, tol) -> None:
    """Refuse a window of more than ``MAX_CATALYST_DIM`` terms before any is
    built; it grows without bound as tanh^2 r approaches one."""
    terms = int(_window_steps(vals, math.tanh(r) ** 2, tol)[0].sum())
    check_work(terms, MAX_CATALYST_DIM, f"squeezing parameter {r!r} needs a "
               f"threshold window of {terms} terms for this pair")


def _threshold_gaps(vals, weights, rho, tol):
    """Least and greatest threshold gap D for catalyst ratio ``rho``, as far
    as the verdict at ``tol`` can tell them apart.

    With the window's products z sorted in decreasing order and w their
    weights, D at z_k is sum_{l <= k} w_l (z_l - z_k): one cumsum of w z and
    one of w. Below a self-similar window the extremes are continued in
    closed form; below a floored one D stays within tol / 2 and is left out.
    """
    n = vals.size
    log_rho = math.log(rho)
    steps, self_similar = _window_steps(vals, rho, tol)
    lengths = steps.astype(np.int64)
    entry = np.repeat(np.arange(n), lengths)
    power = np.arange(entry.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    z = ((1.0 - rho) * vals)[entry] * rho**power
    order = np.argsort(-z)
    z = z[order]
    w = weights[entry[order]]
    gaps = np.cumsum(w * z) - z * np.cumsum(w)
    # D = 0 above every product, and a floor above every product leaves none
    lo, hi = gaps.min(initial=0.0), gaps.max(initial=0.0)
    if not self_similar:
        return lo, hi

    # The last n products are the terms in [rho a_min, a_min); D at rho^m
    # times such a term t is rho^m (D(t) - m Delta t).
    d, t = gaps[-n:], z[-n:]
    delta = int(weights.sum())
    if delta > 0:
        lo = min(lo, _tail_least(d, delta * t, rho, log_rho))
    elif delta < 0:
        hi = max(hi, -_tail_least(-d, -delta * t, rho, log_rho))
    return lo, hi


def _tail_least(d, u, rho, log_rho) -> float:
    """Least rho^m (d - m u) over integers m >= 1 and entries, for u >= 0.

    Consecutive values differ by rho^m ((1 - rho)(m u - d) - rho u), so the
    sequence falls until m reaches d/u + rho/(1 - rho) and rises after it;
    its ceiling (at least 1) is the minimizer. Beyond 746/|log rho| every
    power underflows to zero, so larger m are clipped there.
    """
    with np.errstate(over="ignore"):
        ratio = np.divide(d, u, out=np.zeros_like(d), where=u > 0.0)
    steps = np.clip(np.ceil(ratio + rho / (1.0 - rho)), 1.0, 746.0 / -log_rho)
    return float((np.exp(steps * log_rho) * (d - steps * u)).min())


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
    :func:`check_catalysis` decides them: single-photon catalysts in
    batches, by the prefix sums of the tensored pairs; squeezed-vacuum
    catalysts one at a time, by the threshold gaps of the untruncated state
    on their window (the ROADMAP.md derivation under "Decide squeezed-vacuum
    catalysis exactly"). A squeezed-vacuum scan whose window
    at ``r_max`` would exceed ``MAX_CATALYST_DIM`` terms is refused before
    any candidate is decided.
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
    Squeezed-vacuum candidates are decided one window at a time. Consecutive
    single-photon candidates form a batch of at most ``BATCH_ENTRIES``
    tensored entries, compared in one numpy pass. A ``CatalystSpec`` is
    built only for a hit.
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
        # The largest candidate has the largest window.
        _check_window(_window_entries(p, q)[0], CatalystSpec.tmsv(limit).r, tol)

    base = compare(p, q, tol=tol).relation
    if base in (Relation.MAJORIZED_BY, Relation.EQUAL):
        yield CatalystSpec.explicit(ProbVector([1.0]))
        return
    if base is Relation.MAJORIZES or not necessary_conditions(p, q, tol=tol):
        return

    # The products rise with i, so the points within span are a prefix.
    values = grid * np.arange(1, int(span / grid) + 2)
    values = values[values <= span].tolist()
    if not single:
        vals, weights = _window_entries(p, q)
        for r in values:
            lo, hi = _threshold_gaps(vals, weights, math.tanh(r) ** 2, tol)
            if gap_relation(lo, hi, tol) is Relation.MAJORIZED_BY:
                yield CatalystSpec.tmsv(r)
        return
    per_batch = max(1, BATCH_ENTRIES // (2 * max(p.dim, q.dim)))
    for start in range(0, len(values), per_batch):
        thetas = values[start:start + per_batch]
        # the rows catalyst_spectrum builds, normalized as ProbVector does
        c2 = np.array([math.cos(t) ** 2 for t in thetas])
        cats = normalize_rows(np.stack([c2, 1.0 - c2], axis=1))
        for theta, hit in zip(thetas, _majorized_by_rows(p, q, cats, tol)):
            if hit:
                yield CatalystSpec.single_photon(theta)


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
