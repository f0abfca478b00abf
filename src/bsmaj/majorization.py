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
    ``first_violation`` is the first prefix index where that fails, if any.
    A verdict decided without prefix sums (a pair catalyzed by an untruncated
    squeezed vacuum) has no gaps and no first violation.
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

    @classmethod
    def from_dict(cls, data: dict) -> "MajorizationVerdict":
        return cls(
            relation=Relation(data["relation"]),
            partial_sum_gaps=tuple(float(g) for g in data["gaps"]),
            first_violation=data["first_violation"],
        )


def compare(p: ProbVector, q: ProbVector, *, tol: float = TOL) -> MajorizationVerdict:
    """Decide the majorization relation between ``p`` and ``q``.

    Vectors of unequal dimension are zero-padded to a common dimension
    first; padding never changes any prefix sum of a sorted vector. A gap
    within ``tol`` of zero counts as satisfied for both directions, and
    componentwise equality (within ``tol``) takes precedence over the two
    one-sided verdicts.
    """
    d = max(p.dim, q.dim)
    ps = np.sort(pad_to(p, d).components)[::-1]
    qs = np.sort(pad_to(q, d).components)[::-1]
    gaps = np.cumsum(qs) - np.cumsum(ps)

    p_prec_q = bool(gaps.min() >= -tol)
    q_prec_p = bool(gaps.max() <= tol)

    first_violation: int | None = None
    if not p_prec_q:
        first_violation = int(np.argmax(gaps < -tol))

    if np.max(np.abs(ps - qs)) <= tol:
        relation = Relation.EQUAL
        first_violation = None
    elif p_prec_q:
        relation = Relation.MAJORIZED_BY
    elif q_prec_p:
        relation = Relation.MAJORIZES
    else:
        relation = Relation.INCOMPARABLE

    return MajorizationVerdict(
        relation=relation,
        partial_sum_gaps=tuple(gaps.tolist()),
        first_violation=first_violation,
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
