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
    random_majorized,
    renyi,
    spectrum,
)
from bsmaj.birkhoff import apply as ds_apply
from bsmaj.majorization import gap_relation, majorized_by_mask, prefix_gaps

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
    padded = compare(ProbVector(np.pad(p.components, (0, 2))),
                     ProbVector(np.pad(q.components, (0, 2))))
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


@pytest.mark.parametrize("n_perms", [3.0, 0.5])
def test_random_majorized_rejects_a_float_n_perms(n_perms):
    with pytest.raises(ValueError, match=f"^n_perms must be an integer, got {n_perms}$"):
        random_majorized(ProbVector([0.7, 0.3]), n_perms, 0)


@pytest.mark.parametrize("seed,message", [
    (0.5, "seed must be an integer, got 0.5"),
    (-1, "seed must be nonnegative, got -1"),
])
def test_random_majorized_refuses_a_seed_that_is_no_nonnegative_integer(seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_majorized(ProbVector([0.7, 0.3]), 2, seed)


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


def _accumulated_gaps(ps, qs):
    # prefix_gaps as one np.add.accumulate over the last axis, for any shape
    both = np.zeros((2, *ps.shape[:-1], max(ps.shape[-1], qs.shape[-1])))
    both[0, ..., :ps.shape[-1]] = ps
    both[1, ..., :qs.shape[-1]] = qs
    both.sort(axis=-1)
    sums = np.add.accumulate(both[..., ::-1], axis=-1)
    return sums[1] - sums[0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _random_rows(rng, shape):
    # nonnegative rows with zeros and repeated entries, as tensored spectra have
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    rows[rng.random(shape) < 0.2] = 0.0
    ties = rng.random(shape) < 0.2
    rows[ties] = rows.flat[0]
    return rows


@pytest.mark.parametrize("rows,dp,dq", [
    (1, 6, 6), (5, 6, 6), (6, 6, 6), (7, 6, 6),  # around the choice at rows = d
    (392, 8, 8), (392, 14, 14), (3, 16, 8), (40, 8, 16), (40, 16, 10), (2, 3, 1),
])
def test_prefix_gaps_are_the_accumulated_gaps_bit_for_bit(rows, dp, dq):
    rng = np.random.default_rng(rows * 1000 + dp * 10 + dq)
    ps, qs = _random_rows(rng, (rows, dp)), _random_rows(rng, (rows, dq))
    got = prefix_gaps(ps, qs)
    assert got.shape == (rows, max(dp, dq))
    assert np.array_equal(_bits(got), _bits(_accumulated_gaps(ps, qs)))
    # a block of more rows than entries comes back entry-major in memory
    assert (got.T if rows > max(dp, dq) else got).flags.c_contiguous
    assert np.array_equal(_bits(got.min(axis=-1)),
                          _bits([row.min() for row in _accumulated_gaps(ps, qs)]))


def test_prefix_gaps_of_one_row_and_of_stacks_are_the_accumulated_gaps():
    rng = np.random.default_rng(5)
    for dp, dq in [(1, 1), (4, 9), (9, 4), (30, 30)]:
        p, q = _random_rows(rng, (dp,)), _random_rows(rng, (dq,))
        got = prefix_gaps(p, q)
        assert got.shape == (max(dp, dq),) and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(_accumulated_gaps(p, q)))
    ps, qs = _random_rows(rng, (4, 25, 6)), _random_rows(rng, (4, 25, 5))
    got = prefix_gaps(ps, qs)
    assert got.shape == (4, 25, 6)
    assert np.array_equal(_bits(got), _bits(_accumulated_gaps(ps, qs)))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_compare_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match=f"tolerance must be finite and nonnegative, got {tol!r}"):
        compare(spectrum(3, 0.72), spectrum(3, 0.62), tol=tol)


def test_compare_accepts_a_zero_tolerance():
    p = ProbVector([0.6, 0.3, 0.1])
    assert compare(p, p, tol=0.0).relation is Relation.EQUAL
    assert compare(spectrum(3, 0.72), spectrum(3, 0.62), tol=0.0).relation is Relation.INCOMPARABLE
