import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmaj import (
    DoublyStochasticMatrix,
    ProbVector,
    Relation,
    compare,
    pad_to,
    random_majorized,
    renyi,
    spectrum,
)
from bsmaj.birkhoff import apply as ds_apply
from bsmaj.majorization import gap_relation, majorized_by_mask

from conftest import oracle_relation, prob_vectors, random_mixture_matrix

ALPHAS = (0.0, 0.5, 1.0, 2.0, 10.0, math.inf)


def test_uniform_majorized_by_point_mass():
    v = compare(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))
    assert v.relation is Relation.MAJORIZED_BY
    assert v.first_violation is None


def test_reflexivity_example():
    p = ProbVector([0.6, 0.3, 0.1])
    assert compare(p, p).relation is Relation.EQUAL


def test_incomparable_three_photon_pair():
    v = compare(spectrum(3, 0.72), spectrum(3, 0.62))
    assert v.relation is Relation.INCOMPARABLE
    assert v.first_violation is not None
    gaps = np.asarray(v.partial_sum_gaps)
    assert gaps.max() > 1e-12 and gaps.min() < -1e-12


def test_gap_values_are_sorted_prefix_differences():
    p, q = ProbVector([0.5, 0.5]), ProbVector([0.9, 0.1])
    v = compare(p, q)
    assert v.partial_sum_gaps == pytest.approx((0.4, 0.0), abs=1e-15)


def test_majorizes_direction_and_first_violation():
    v = compare(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5]))
    assert v.relation is Relation.MAJORIZES
    assert v.first_violation == 0


@settings(max_examples=100)
@given(prob_vectors())
def test_reflexivity(p):
    assert compare(p, p).relation is Relation.EQUAL


@settings(max_examples=100)
@given(prob_vectors(max_dim=6))
def test_padding_invariance(p):
    q = ProbVector(sorted(p.components, reverse=True))
    base = compare(p, q)
    padded = compare(pad_to(p, p.dim + 2), pad_to(q, q.dim + 2))
    assert base.relation is padded.relation


@settings(max_examples=100)
@given(prob_vectors(max_dim=6), prob_vectors(max_dim=6))
def test_compare_agrees_with_oracle(p, q):
    assert compare(p, q).relation.value == oracle_relation(p.components, q.components)


#: Prefix gaps +8e-13, -8e-13, 0: inside the tolerance both ways, while the
#: middle entries differ by 1.6e-12.
NEAR_P = [0.5, 0.3, 0.2]
NEAR_Q = [0.5000000000008, 0.2999999999984, 0.2000000000008]


def test_pair_within_tolerance_both_ways_is_equal_in_both_orders():
    p, q = ProbVector(NEAR_P), ProbVector(NEAR_Q)
    for a, b in ((p, q), (q, p)):
        verdict = compare(a, b)
        assert verdict.relation is Relation.EQUAL
        assert verdict.first_violation is None
        assert oracle_relation(a.components, b.components) == "Equal"


MIRROR = {
    Relation.EQUAL: Relation.EQUAL,
    Relation.INCOMPARABLE: Relation.INCOMPARABLE,
    Relation.MAJORIZED_BY: Relation.MAJORIZES,
    Relation.MAJORIZES: Relation.MAJORIZED_BY,
}


@st.composite
def near_equal_pairs(draw):
    """A vector and a copy perturbed by a few 1e-12 per entry, so that the
    prefix gaps straddle the tolerance."""
    p = draw(prob_vectors(max_dim=6))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=p.dim, max_size=p.dim))
    q = np.maximum(p.components + 1e-12 * np.array(shifts, dtype=float), 0.0)
    return p, ProbVector(q)


@settings(max_examples=200)
@given(near_equal_pairs())
def test_compare_mirrors_under_swap(pair):
    p, q = pair
    forward = compare(p, q)
    assert compare(q, p).relation is MIRROR[forward.relation]
    assert forward.relation.value == oracle_relation(p.components, q.components)


def test_random_majorized_point_mass():
    q = ProbVector([1.0, 0.0, 0.0])
    p = random_majorized(q, 3, seed=0)
    assert compare(p, q).relation is Relation.MAJORIZED_BY
    assert oracle_relation(p.components, q.components) == "MajorizedBy"


def test_random_majorized_uniform_fixed_point():
    q = ProbVector([1 / 3] * 3)
    p = random_majorized(q, 4, seed=11)
    assert compare(p, q).relation is Relation.EQUAL


def test_random_majorized_generic_seeded():
    q = ProbVector([0.7, 0.2, 0.1])
    p = random_majorized(q, 5, seed=42)
    assert oracle_relation(p.components, q.components) == "MajorizedBy"
    assert np.array_equal(p.components, random_majorized(q, 5, seed=42).components)


def test_random_majorized_rejects_zero_perms():
    with pytest.raises(ValueError):
        random_majorized(ProbVector([1.0]), 0, seed=0)


def test_transitivity_on_generated_chains():
    rng = np.random.default_rng(3)
    for trial in range(60):
        dim = int(rng.integers(2, 8))
        r = ProbVector(rng.dirichlet(np.ones(dim)))
        q = random_majorized(r, int(rng.integers(1, 5)), seed=trial)
        p = random_majorized(q, int(rng.integers(1, 5)), seed=trial + 1000)
        verdict = compare(p, r)
        assert verdict.relation is not Relation.INCOMPARABLE
        assert verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)


def test_schur_concavity_contract():
    rng = np.random.default_rng(9)
    for trial in range(120):
        dim = int(rng.integers(2, 10))
        q = ProbVector(rng.dirichlet(np.ones(dim)))
        p = random_majorized(q, int(rng.integers(1, 6)), seed=trial)
        for alpha in ALPHAS:
            assert renyi(p, alpha) >= renyi(q, alpha) - 1e-12


def test_mixture_matrix_round_trip():
    # Applying any doubly stochastic matrix can only flatten the vector.
    rng = np.random.default_rng(21)
    for trial in range(60):
        d = int(rng.integers(2, 9))
        D = DoublyStochasticMatrix(random_mixture_matrix(rng, d, int(rng.integers(1, 6))))
        q = ProbVector(rng.dirichlet(np.ones(d)))
        verdict = compare(ds_apply(D, q), q)
        assert verdict.relation is not Relation.INCOMPARABLE
        assert verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)


def test_majorized_by_mask_is_gap_relation_elementwise():
    tol = 1e-12
    edges = [tol, -tol, 0.0, -0.0, math.nan, math.inf, -math.inf]
    values = edges + [np.nextafter(e, d) for e in (tol, -tol) for d in (-1.0, 1.0)]
    lo, hi = (a.ravel() for a in np.meshgrid(values, values))
    got = majorized_by_mask(lo, hi, tol)
    want = [gap_relation(a, b, tol) is Relation.MAJORIZED_BY
            for a, b in zip(lo.tolist(), hi.tolist())]
    assert got.dtype == bool
    assert got.tolist() == want
    assert any(want) and not all(want)
