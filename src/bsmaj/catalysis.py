"""Catalyzed majorization: making incomparable spectra LOCC-convertible.

Two incomparable spectra p and q can sometimes be supplemented with a
shared catalyst spectrum c so that the product p (x) c is majorized by
q (x) c; the catalyst is returned intact by the conversion. Supported
catalyst families: the two-outcome spectrum of a single photon split at an
angle, truncated two-mode squeezed vacuum (a geometric spectrum with ratio
tanh^2 r), and explicit user-supplied vectors.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import renyi
from .majorization import MajorizationVerdict, Relation, compare
from .vectors import NORM_TOL, TOL, ProbVector, tensor

#: Allowed spectral mass beyond the truncation point of a squeezed-vacuum
#: catalyst, before renormalization.
TAIL_TOL = 1e-12

#: Strict prefix-sum margins within this factor of the tail tolerance
#: trigger a confirmation pass at a much deeper truncation.
MARGINAL_FACTOR = 10.0

#: Tail tolerance shrink factor used by the confirmation pass.
CONFIRM_SHRINK = 1e-6

#: Most grid candidates one search may scan; finer grids are rejected
#: before any candidate is checked.
MAX_CANDIDATES = 10**6

#: Most components a squeezed-vacuum catalyst may have, whether the
#: truncation is chosen automatically, for the deep pass, or given explicitly.
MAX_CATALYST_DIM = 10**6

#: Most tensored entries (candidates times dimension) a search compares in
#: one numpy pass.
BATCH_ENTRIES = 2**18

#: Default entropy orders for the additivity-based necessary condition.
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
        theta_c = float(theta_c)
        if not 0.0 <= theta_c <= math.pi / 2:
            raise ValueError(f"theta_c must lie in [0, pi/2], got {theta_c!r}")
        return cls(family=CatalystFamily.SINGLE_PHOTON, theta_c=theta_c)

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
        if truncation_dim is not None and truncation_dim < 1:
            raise ValueError("truncation_dim must be positive")
        if truncation_dim is not None and truncation_dim > MAX_CATALYST_DIM:
            raise ValueError(
                f"truncation_dim {truncation_dim} exceeds the limit of "
                f"{MAX_CATALYST_DIM} components"
            )
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


def _capped_tmsv_dimension(r: float, tail_tol: float) -> int:
    """``tmsv_dimension``, refused above ``MAX_CATALYST_DIM`` before any
    component is allocated."""
    needed = tmsv_dimension(r, tail_tol)
    if needed > MAX_CATALYST_DIM:
        raise ValueError(
            f"squeezing parameter {r!r} needs {needed} components for tail mass "
            f"{tail_tol:.3g}, more than the limit of {MAX_CATALYST_DIM}"
        )
    return needed


def catalyst_spectrum(spec: CatalystSpec, *, tail_tol: float = TAIL_TOL) -> ProbVector:
    """Materialize the probability vector of a catalyst candidate."""
    if spec.family is CatalystFamily.SINGLE_PHOTON:
        c2 = math.cos(spec.theta_c) ** 2
        return ProbVector([c2, 1.0 - c2])
    if spec.family is CatalystFamily.EXPLICIT:
        return spec.vector
    # Truncated squeezed vacuum: geometric with ratio tanh^2 r.
    q = math.tanh(spec.r) ** 2
    if spec.truncation_dim is None:
        needed = n_terms = _capped_tmsv_dimension(spec.r, tail_tol)
    else:
        needed, n_terms = tmsv_dimension(spec.r, tail_tol), spec.truncation_dim
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
    marginal: bool = False

    @property
    def catalysis_achieved(self) -> bool:
        """True when the catalyst turns incomparability into majorization.

        Marginal successes, whose verdict failed to reproduce at a deeper
        truncation, are not claimed.
        """
        return (
            self.verdict_without.relation is Relation.INCOMPARABLE
            and self.verdict_with.relation is Relation.MAJORIZED_BY
            and not self.marginal
        )

    def to_dict(self) -> dict:
        return {
            "without": self.verdict_without.relation.value,
            "with": self.verdict_with.relation.value,
            "marginal": self.marginal,
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

    For a squeezed-vacuum catalyst whose catalyzed pair has an interior
    prefix-sum gap within ``MARGINAL_FACTOR * tail_tol`` of zero, which is
    nearly always, a deep pass recomputes that verdict with the catalyst
    truncated at ``tail_tol * CONFIRM_SHRINK``, whatever the verdict is.
    The searches call this only for candidates already MajorizedBy.
    """
    cvec = catalyst_spectrum(c, tail_tol=tail_tol)
    verdict_without = compare(p, q, tol=tol)
    verdict_with = compare(tensor(p, cvec), tensor(q, cvec), tol=tol)

    marginal = False
    if c.family is CatalystFamily.TMSV:
        # Deep in the geometric tail both sorted prefix sums approach one
        # together, so gaps near the truncation floor are expected there and
        # do not by themselves discredit the verdict. When such gaps occur,
        # the verdict is recomputed at a much deeper truncation and flagged
        # as numerically marginal only if it fails to reproduce. The final
        # gap is structurally zero (both sides sum to one) and is skipped.
        interior = verdict_with.partial_sum_gaps[:-1]
        floor = MARGINAL_FACTOR * tail_tol
        if any(abs(g) <= floor for g in interior):
            deep = catalyst_spectrum(
                CatalystSpec.tmsv(c.r), tail_tol=tail_tol * CONFIRM_SHRINK
            )
            confirm = compare(tensor(p, deep), tensor(q, deep), tol=tol)
            marginal = confirm.relation is not verdict_with.relation

    return CatalysisReport(
        verdict_without=verdict_without,
        verdict_with=verdict_with,
        catalyst=c,
        marginal=marginal,
    )


def necessary_conditions(
    p: ProbVector,
    q: ProbVector,
    *,
    alphas=ALPHA_GRID,
    tol: float = TOL,
) -> bool:
    """Entropy screen that any catalyzable pair must pass.

    These entropies are additive over tensor products, so a catalyzed
    conversion from q-like to p-like spectra forces every order to satisfy
    S(p) >= S(q). A single decrease rules every catalyst out.
    """
    return all(renyi(p, a) >= renyi(q, a) - tol for a in alphas)


def search_catalyst(
    p: ProbVector,
    q: ProbVector,
    family: CatalystFamily | str,
    grid: float,
    *,
    r_max: float = 3.0,
    tol: float = TOL,
    tail_tol: float = TAIL_TOL,
) -> CatalystSpec | None:
    """First catalyst in the family (scanning its parameter upward) that works.

    If p is already majorized by q there is nothing to catalyze and the
    trivial one-dimensional catalyst is returned immediately; if the
    entropy screen fails, no catalyst can exist and None is returned
    without scanning. Grid candidates are screened in batches, and only
    those whose tensored pair is MajorizedBy reach :func:`check_catalysis`,
    so the deep-truncation pass runs for no other squeezed-vacuum candidate.
    """
    return next(_search(p, q, family, grid, r_max, tol, tail_tol), None)


def search_catalyst_all(
    p: ProbVector,
    q: ProbVector,
    family: CatalystFamily | str,
    grid: float,
    *,
    r_max: float = 3.0,
    tol: float = TOL,
    tail_tol: float = TAIL_TOL,
) -> list[CatalystSpec]:
    """All grid candidates in the family that achieve catalysis.

    Screens and checks candidates as :func:`search_catalyst` does.
    """
    return list(_search(p, q, family, grid, r_max, tol, tail_tol))


def _search(p, q, family, grid, r_max, tol, tail_tol):
    """Yield, in scan order, every candidate that achieves catalysis.

    Consecutive grid candidates of one catalyst dimension form a batch of
    at most ``BATCH_ENTRIES`` tensored entries. A batch is compared in one
    numpy pass; a candidate whose tensored pair is not MajorizedBy cannot
    achieve catalysis and is dropped without a report.
    """
    specs = _candidate_specs(p, q, family, grid, r_max, tol, tail_tol)
    first = next(specs, None)
    if first is None:
        return
    if first.family is CatalystFamily.EXPLICIT:
        yield first  # trivial catalyst short-circuit
        return
    batch, rows = [], []
    for spec in itertools.chain([first], specs):
        c = catalyst_spectrum(spec, tail_tol=tail_tol).components
        if batch and (
            c.size != rows[0].size
            or (len(rows) + 1) * c.size * max(p.dim, q.dim) > BATCH_ENTRIES
        ):
            yield from _checked(p, q, batch, rows, tol, tail_tol)
            batch, rows = [], []
        batch.append(spec)
        rows.append(c)
    if batch:
        yield from _checked(p, q, batch, rows, tol, tail_tol)


def _checked(p, q, batch, rows, tol, tail_tol):
    """The batch's candidates that achieve catalysis, in order."""
    cats = np.stack(rows)
    for i in np.flatnonzero(_majorized_by_rows(p, q, cats, tol)):
        spec = batch[i]
        if check_catalysis(p, q, spec, tol=tol, tail_tol=tail_tol).catalysis_achieved:
            yield spec


def _majorized_by_rows(p, q, cats, tol) -> np.ndarray:
    """Row i: is ``tensor(p, c_i)`` MajorizedBy ``tensor(q, c_i)``?

    Each step repeats what :func:`tensor` and :func:`compare` do for one
    catalyst, row by row, so every decision is bit-identical to theirs.
    """
    d = max(p.dim, q.dim) * cats.shape[1]
    ps = _sorted_products(p, cats, d)
    qs = _sorted_products(q, cats, d)
    equal = np.abs(ps - qs).max(axis=1) <= tol
    gaps = np.cumsum(qs, axis=1)
    gaps -= np.cumsum(ps, axis=1)
    return (gaps.min(axis=1) >= -tol) & ~equal


def _sorted_products(p, cats, d) -> np.ndarray:
    """Rows ``tensor(p, c_i)``, normalized as ProbVector does, zero-padded
    to ``d`` entries and sorted in non-increasing order."""
    m, n = cats.shape[0], p.dim * cats.shape[1]
    rows = (p.components[None, :, None] * cats[:, None, :]).reshape(m, n)
    np.clip(rows, 0.0, None, out=rows)
    totals = rows.sum(axis=1)
    if np.any(np.abs(totals - 1.0) > NORM_TOL):
        raise ValueError(f"tensored components sum to {totals.min()!r}, not 1")
    rows /= totals[:, None]
    if n < d:
        rows = np.concatenate([rows, np.zeros((m, d - n))], axis=1)
    rows.sort(axis=1)
    return rows[:, ::-1]


def _candidate_specs(p, q, family, grid, r_max, tol, tail_tol):
    """Yield candidates; a leading explicit spec short-circuits the scan,
    and a bare None means the search is hopeless."""
    family = CatalystFamily(family)
    if family is CatalystFamily.EXPLICIT:
        raise ValueError("search requires a parametric family")
    if not grid > 0:
        raise ValueError("grid step must be positive")
    limit = math.pi / 4 if family is CatalystFamily.SINGLE_PHOTON else r_max
    if limit / grid > MAX_CANDIDATES:
        raise ValueError(
            f"grid step {grid!r} would scan about {limit / grid:.3g} candidates, "
            f"more than the limit of {MAX_CANDIDATES}; use a coarser grid"
        )
    if family is CatalystFamily.TMSV and limit >= grid:
        # The largest candidate's deep-truncation pass fixes the largest
        # catalyst the scan can build.
        _capped_tmsv_dimension(CatalystSpec.tmsv(limit).r, tail_tol * CONFIRM_SHRINK)

    base = compare(p, q, tol=tol)
    if base.relation in (Relation.MAJORIZED_BY, Relation.EQUAL):
        yield CatalystSpec.explicit(ProbVector([1.0]))
        return
    if base.relation is Relation.MAJORIZES or not necessary_conditions(p, q, tol=tol):
        yield None
        return

    i = 1
    while i * grid <= limit + 1e-15:
        value = i * grid
        if family is CatalystFamily.SINGLE_PHOTON:
            yield CatalystSpec.single_photon(value)
        else:
            yield CatalystSpec.tmsv(value)
        i += 1
