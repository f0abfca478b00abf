"""The majorization partial order: verdicts with partial-sum witnesses."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .vectors import TOL, ProbVector, as_integer, check_tol


class Relation(str, enum.Enum):
    MAJORIZES = "Majorizes"
    MAJORIZED_BY = "MajorizedBy"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True, eq=False)
class MajorizationVerdict:
    """Outcome of a prefix-sum comparison of two sorted spectra.

    ``partial_sum_gaps[i]`` is the difference between the (i+1)-term prefix
    sums, second argument minus first; the first argument is majorized by
    the second exactly when every gap is nonnegative (within tolerance).
    The gaps are a read-only float64 array, so verdicts compare by identity.
    The relation follows :func:`gap_relation`: Equal when both directions
    hold, so swapping the arguments mirrors it. ``first_violation`` is the
    first prefix index where the first direction fails, if any. A verdict
    decided without prefix sums (a pair catalyzed by an untruncated squeezed
    vacuum) has an empty gap array and no first violation.
    """

    relation: Relation
    partial_sum_gaps: np.ndarray
    first_violation: int | None

    def to_dict(self) -> dict:
        return {
            "relation": self.relation.value,
            "gaps": self.partial_sum_gaps.tolist(),
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


def prefix_gaps(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Prefix-sum gaps, q minus p, between the paired rows (last axis) of
    ``ps`` and ``qs``.

    Each row is zero-padded to the longer of the two lengths and sorted in
    non-increasing order first; padding never changes any prefix sum of a
    sorted nonnegative row.

    A call with more rows than entries per row (a block of catalyst
    candidates) forms the running sums one column at a time across every
    row: d - 1 left-to-right vector adds, the additions of
    ``np.add.accumulate`` in its order, so every gap is bit for bit the same.
    Its gaps come back with the entry axis outermost in memory, so a
    reduction over each row's entries (the last axis) is a few vector
    operations rather than one short reduction per row.
    """
    d = max(ps.shape[-1], qs.shape[-1])
    both = np.zeros((2, *ps.shape[:-1], d))
    both[0, ..., :ps.shape[-1]] = ps
    both[1, ..., :qs.shape[-1]] = qs
    both.sort(axis=-1)
    if both.size <= 2 * d * d:  # no more rows than entries
        sums = np.add.accumulate(both[..., ::-1], axis=-1)
        return sums[1] - sums[0]
    sums = np.moveaxis(both[..., ::-1], -1, 0).copy()
    for j in range(1, d):
        sums[j] += sums[j - 1]
    return np.moveaxis(sums[:, 1] - sums[:, 0], 0, -1)


def compare(p: ProbVector, q: ProbVector, *, tol: float = TOL) -> MajorizationVerdict:
    """Decide the majorization relation between ``p`` and ``q``.

    Vectors of unequal dimension are zero-padded to a common dimension
    first; padding never changes any prefix sum of a sorted vector. The
    relation comes from the extremes of the prefix-sum gaps by
    :func:`gap_relation`: a gap within ``tol`` of zero counts as satisfied
    for both directions, and the pair is Equal when both directions hold,
    so ``compare(q, p)`` is always the mirror of ``compare(p, q)``. A NaN,
    infinite or negative ``tol`` raises ValueError.
    """
    tol = check_tol(tol)
    gaps = prefix_gaps(p.components, q.components)
    gaps.flags.writeable = False
    # the entries at argmin and argmax are the extremes, found without the
    # setup of a ufunc reduction
    lo = gaps[gaps.argmin()]
    return MajorizationVerdict(
        relation=gap_relation(lo, gaps[gaps.argmax()], tol),
        partial_sum_gaps=gaps,
        first_violation=None if lo >= -tol else int(np.argmax(gaps < -tol)),
    )


def random_majorized(q: ProbVector, n_perms: int, seed: int) -> ProbVector:
    """Random convex mixture of permutations of ``q``.

    The result is majorized by ``q`` by construction (a mixture of
    permutations acts as a doubly stochastic matrix). Deterministic for a
    given nonnegative integer seed.
    """
    n_perms = as_integer(n_perms, "n_perms")
    if n_perms < 1:
        raise ValueError("n_perms must be at least 1")
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_perms))
    mixed = np.zeros(q.dim)
    for w in weights:
        mixed += w * q.components[rng.permutation(q.dim)]
    return ProbVector(mixed)
