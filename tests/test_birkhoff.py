import itertools
import math
import sys

import numpy as np
import pytest

from bsmaj import (
    DoublyStochasticMatrix,
    ProbVector,
    Relation,
    birkhoff_decompose,
    bs_witness_matrix,
    compare,
    pad_to,
    spectrum,
)
from bsmaj import birkhoff
from bsmaj.birkhoff import _perfect_matching
from bsmaj.birkhoff import apply as ds_apply

from conftest import random_mixture_matrix

# sin^2 and cos^2 at the 0.62 reference angle
S2_062 = 0.337601857780612
C2_062 = 0.662398142219388


def test_witness_balanced_two_by_two():
    D = bs_witness_matrix(0, math.pi / 4)
    assert np.allclose(D.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_witness_theta_zero_transmits_everything():
    # At theta=0 every photon goes through: the padded 1-photon spectrum
    # (0, 1, 0) must map onto the 2-photon spectrum (0, 0, 1).
    D = bs_witness_matrix(1, 0.0)
    padded = pad_to(spectrum(1, 0.0), 3)
    assert np.array_equal(padded.components, [0.0, 1.0, 0.0])
    out = ds_apply(D, padded)
    assert np.allclose(out.components, spectrum(2, 0.0).components, atol=1e-15)


def test_witness_structure():
    theta = 0.37
    D = bs_witness_matrix(3, theta).entries
    s2, c2 = math.sin(theta) ** 2, math.cos(theta) ** 2
    assert D.shape == (5, 5)
    assert np.allclose(np.diag(D), s2, atol=0.0)
    assert np.allclose(np.diag(D, -1), c2, atol=0.0)
    assert D[0, 4] == c2
    assert np.count_nonzero(D) == 10  # 5 diagonal + 4 subdiagonal + 1 corner


@pytest.mark.parametrize("k", [0, 1, 2, 5, 11, 24])
@pytest.mark.parametrize("theta", [0.0, 0.31, math.pi / 4, 1.1, math.pi / 2])
def test_witness_maps_padded_spectrum_up_one_photon(k, theta):
    D = bs_witness_matrix(k, theta)
    out = ds_apply(D, pad_to(spectrum(k, theta), k + 2))
    assert np.allclose(out.components, spectrum(k + 1, theta).components, atol=1e-12)


def test_witness_sums_exact():
    for k in (0, 3, 9):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            e = bs_witness_matrix(k, float(theta)).entries
            assert np.max(np.abs(e.sum(axis=0) - 1.0)) <= 1e-15
            assert np.max(np.abs(e.sum(axis=1) - 1.0)) <= 1e-15


def test_witness_rejects_bad_angle():
    with pytest.raises(ValueError):
        bs_witness_matrix(2, -0.1)
    with pytest.raises(ValueError):
        bs_witness_matrix(2, math.pi / 2 + 0.1)


def test_witness_entries_bound(monkeypatch):
    monkeypatch.setattr(birkhoff, "MAX_WITNESS_ENTRIES", 16)
    assert bs_witness_matrix(2, 0.3).d == 4
    with pytest.raises(ValueError, match="entries"):
        bs_witness_matrix(3, 0.3)


def test_witness_rejects_bad_photon_number():
    with pytest.raises(ValueError, match="integer"):
        bs_witness_matrix(2.5, 0.3)
    with pytest.raises(ValueError, match="nonnegative"):
        bs_witness_matrix(-1, 0.3)


def test_apply_identity():
    q = ProbVector([0.2, 0.3, 0.5])
    D = DoublyStochasticMatrix(np.eye(3))
    assert np.array_equal(ds_apply(D, q).components, q.components)


def test_apply_uniform_mixer():
    q = ProbVector([0.7, 0.2, 0.1])
    D = DoublyStochasticMatrix(np.full((3, 3), 1 / 3))
    assert np.allclose(ds_apply(D, q).components, [1 / 3] * 3, atol=1e-15)


def test_apply_witness_reproduces_direct_formula():
    # Independent route: binomial formula evaluated inline.
    theta = 0.62
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    direct = [math.comb(3, n) * c2**n * s2 ** (3 - n) for n in range(4)]
    out = ds_apply(bs_witness_matrix(2, theta), pad_to(spectrum(2, theta), 4))
    assert np.allclose(out.components, direct, atol=1e-12)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        ds_apply(DoublyStochasticMatrix(np.eye(3)), ProbVector([0.5, 0.5]))


def test_matrix_validation():
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[0.9, 0.0], [0.0, 0.9]])
    with pytest.raises(ValueError):
        DoublyStochasticMatrix([[1.2, -0.2], [-0.2, 1.2]])
    clamped = DoublyStochasticMatrix([[1.0, -1e-13], [0.0, 1.0]])
    assert clamped.entries[0, 1] == 0.0


@pytest.mark.parametrize("entries,message", [
    ([[math.nan]], "must be finite"),
    ([[None]], "must be finite"),
    ([[math.nan, 1.0], [1.0, math.nan]], "must be finite"),
    ([[math.inf]], "must be finite"),
])
def test_matrix_rejects_non_numbers(entries, message):
    with pytest.raises(ValueError, match=message):
        DoublyStochasticMatrix(entries)


def test_decompose_identity():
    dec = birkhoff_decompose(DoublyStochasticMatrix(np.eye(4)))
    assert len(dec) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-15)
    assert dec.permutations[0] == (0, 1, 2, 3)


def test_decompose_two_by_two_closed_form():
    D = DoublyStochasticMatrix([[S2_062, C2_062], [C2_062, S2_062]])
    dec = birkhoff_decompose(D)
    terms = dict(zip(dec.permutations, dec.weights))
    assert terms[(0, 1)] == pytest.approx(S2_062, abs=1e-15)
    assert terms[(1, 0)] == pytest.approx(C2_062, abs=1e-15)


def test_decompose_witness_within_bound():
    D = bs_witness_matrix(2, 0.5)
    dec = birkhoff_decompose(D)
    assert len(dec) <= (4 - 1) ** 2 + 1
    assert np.max(np.abs(dec.reconstruct() - D.entries)) < 1e-9
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)


def test_decompose_flags_non_stochastic_residual():
    # Row sums drift inside the acceptance window but the support cannot be
    # peeled to zero by permutations; the decomposition must say so.
    drift = 8e-10
    D = DoublyStochasticMatrix([[0.5, 0.5], [0.5, 0.5 + drift]])
    with pytest.raises(ValueError, match="doubly stochastic"):
        birkhoff_decompose(D)


@pytest.mark.parametrize("d", [30, 40])
def test_decompose_drops_rounding_residue_off_every_matching(d):
    # Weight (s+1)/(d(d+1)/2) on cyclic shift s. Peeling leaves pivots of a
    # few 1e-12 that lie on no perfect matching (the first after 441 terms
    # at d = 30); each is zeroed as residue instead of refusing the matrix.
    m = np.zeros((d, d))
    for s in range(d):
        m[np.arange(d), (np.arange(d) + s) % d] = (s + 1) / (d * (d + 1) / 2)
    D = DoublyStochasticMatrix(m)
    dec = birkhoff_decompose(D)
    assert len(dec) <= (d - 1) ** 2 + 1
    assert np.max(np.abs(dec.reconstruct() - D.entries)) < 1e-9
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-9)


def test_decompose_random_mixture_corpus():
    rng = np.random.default_rng(17)
    for trial in range(60):
        d = int(rng.integers(2, 13))
        m = int(rng.integers(1, 9))
        D = DoublyStochasticMatrix(random_mixture_matrix(rng, d, m))
        dec = birkhoff_decompose(D)
        assert len(dec) <= (d - 1) ** 2 + 1
        assert np.max(np.abs(dec.reconstruct() - D.entries)) < 1e-9
        assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)
        q = ProbVector(rng.dirichlet(np.ones(d)))
        assert compare(ds_apply(D, q), q).relation in (
            Relation.MAJORIZED_BY,
            Relation.EQUAL,
        )


def test_matrix_rows_round_trip():
    D = bs_witness_matrix(1, 0.4)
    again = DoublyStochasticMatrix(D.to_rows())
    assert np.allclose(again.entries, D.entries, atol=0.0)


def _brute_force_matching(support, pivot):
    d = len(support)
    for perm in itertools.permutations(range(d)):
        if perm[pivot[0]] == pivot[1] and all(support[i, perm[i]] for i in range(d)):
            return perm
    return None


def test_matching_agrees_with_brute_force():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(600):
        d = int(rng.integers(1, 7))
        support = rng.random((d, d)) < rng.uniform(0.2, 0.9)
        edges = np.argwhere(support)
        if not len(edges):
            continue
        pivot = tuple(int(i) for i in edges[rng.integers(len(edges))])
        got = _perfect_matching(support, pivot)
        assert (got is None) == (_brute_force_matching(support, pivot) is None)
        if got is not None:
            found += 1
            assert sorted(got) == list(range(d))
            assert got[pivot[0]] == pivot[1]
            assert all(support[i, got[i]] for i in range(d))
    assert found > 100


def test_matching_depth_is_not_bounded_by_recursion_limit():
    # Row i < d-1 may take column i or i+1 and the last row only column 0;
    # rows take columns greedily, so the last row's augmenting path runs
    # through every other row.
    d = 3 * sys.getrecursionlimit()
    support = np.zeros((d, d), dtype=bool)
    i = np.arange(d - 1)
    support[i, i] = support[i, i + 1] = True
    support[d - 1, 0] = True
    assert _perfect_matching(support, (d - 1, 0)) == (*range(1, d), 0)
