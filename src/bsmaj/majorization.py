"""The majorization partial order: verdicts with partial-sum witnesses."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .vectors import TOL, ProbVector, pad_to


class Relation(str, enum.Enum):
    MAJORIZES = "Majorizes"
    MAJORIZED_BY = "MajorizedBy"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of a prefix-sum comparison of two sorted spectra.

    ``partial_sum_gaps[i]`` is the difference between the (i+1)-term prefix
    sums, second argument minus first; the first argument is majorized by
    the second exactly when every gap is nonnegative (within tolerance).
    The relation follows :func:`gap_relation`: Equal when both directions
    hold, so swapping the arguments mirrors it. ``first_violation`` is the
    first prefix index where the first direction fails, if any. A verdict
    decided without prefix sums (a pair catalyzed by an untruncated squeezed
    vacuum) has no gaps and no first violation.
    """

    relation: Relation
    partial_sum_gaps: tuple[float, ...]
    first_violation: int | None

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "gaps": [float(g) for g in self.partial_sum_gaps],
            "first_violation": self.first_violation,
        }


def gap_relation(lo: float, hi: float, tol: float) -> Relation:
    """The relation of p to q from the least and greatest gap, q minus p.

    p is majorized by q when every gap is at least -tol, and majorizes q
    when every gap is at most tol. Equal means both hold; otherwise the one
    that holds is the relation, and Incomparable means neither does.
    """
    below, above = lo >= -tol, hi <= tol
    if below and above:
        return Relation.EQUAL
    if below:
        return Relation.MAJORIZED_BY
    if above:
        return Relation.MAJORIZES
    return Relation.INCOMPARABLE


def majorized_by_mask(lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise ``gap_relation(lo, hi, tol) is Relation.MAJORIZED_BY``:
    every gap at least -tol, and not every gap at most tol."""
    return (lo >= -tol) & ~(hi <= tol)


def compare(p: ProbVector, q: ProbVector, *, tol: float = TOL) -> MajorizationVerdict:
    """Decide the majorization relation between ``p`` and ``q``.

    Vectors of unequal dimension are zero-padded to a common dimension
    first; padding never changes any prefix sum of a sorted vector. The
    relation comes from the extremes of the prefix-sum gaps by
    :func:`gap_relation`: a gap within ``tol`` of zero counts as satisfied
    for both directions, and the pair is Equal when both directions hold,
    so ``compare(q, p)`` is always the mirror of ``compare(p, q)``.
    """
    d = max(p.dim, q.dim)
    ps = np.sort(pad_to(p, d).components)[::-1]
    qs = np.sort(pad_to(q, d).components)[::-1]
    gaps = np.cumsum(qs) - np.cumsum(ps)
    lo = gaps.min()
    return MajorizationVerdict(
        relation=gap_relation(lo, gaps.max(), tol),
        partial_sum_gaps=tuple(gaps.tolist()),
        first_violation=None if lo >= -tol else int(np.argmax(gaps < -tol)),
    )


def random_majorized(q: ProbVector, n_perms: int, seed: int) -> ProbVector:
    """Random convex mixture of permutations of ``q``.

    The result is majorized by ``q`` by construction (a mixture of
    permutations acts as a doubly stochastic matrix). Deterministic for a
    given seed.
    """
    if n_perms < 1:
        raise ValueError("n_perms must be at least 1")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_perms))
    mixed = np.zeros(q.dim)
    for w in weights:
        mixed += w * q.components[rng.permutation(q.dim)]
    return ProbVector(mixed)
