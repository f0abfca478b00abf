import json

import numpy as np
import pytest
from hypothesis import given, settings

from bsmaj import ProbVector, compare, sort_desc, spectrum, tensor
from bsmaj.majorization import Relation

from conftest import prob_vectors, sorted_prefix

# Reference values printed to six digits for the 3-photon spectrum at 0.62.
K3_THETA062_SORTED = (0.44439, 0.290641, 0.226491, 0.0384782)


def test_constructor_renormalizes_small_drift():
    p = ProbVector([0.5 + 4e-10, 0.5])
    assert abs(p.components.sum() - 1.0) < 1e-15


def test_constructor_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProbVector([0.5, 0.6])


def test_constructor_clamps_tiny_negative():
    p = ProbVector([1.0, -1e-13])
    assert p.components[1] == 0.0


def test_constructor_rejects_real_negative():
    with pytest.raises(ValueError):
        ProbVector([1.1, -0.1])


def test_constructor_rejects_empty_and_2d():
    with pytest.raises(ValueError):
        ProbVector([])
    with pytest.raises(ValueError):
        ProbVector([[0.5, 0.5]])


def test_sort_desc_basic():
    osc = sort_desc(ProbVector([0.2, 0.5, 0.3]))
    assert np.allclose(osc.sorted.components, [0.5, 0.3, 0.2])
    assert osc.perm == (1, 2, 0)


def test_sort_desc_tie_keeps_original_order():
    osc = sort_desc(ProbVector([0.5, 0.5]))
    assert osc.perm == (0, 1)


def test_sort_desc_matches_printed_spectrum():
    osc = sort_desc(spectrum(3, 0.62))
    assert np.allclose(osc.sorted.components, K3_THETA062_SORTED, atol=1e-5)


def test_perm_reproduces_sorted_exactly():
    src = ProbVector([0.125, 0.5, 0.25, 0.125])
    osc = sort_desc(src)
    assert np.array_equal(src.components[list(osc.perm)], osc.sorted.components)


@settings(max_examples=100)
@given(prob_vectors())
def test_sort_desc_idempotent(p):
    once = sort_desc(p).sorted
    twice = sort_desc(once)
    assert np.array_equal(once.components, twice.sorted.components)
    assert twice.perm == tuple(range(p.dim))


@settings(max_examples=100)
@given(prob_vectors(max_dim=6))
def test_pad_preserves_sorted_prefix_sums(p):
    padded = ProbVector(np.pad(p.components, (0, 3)))
    for j in range(p.dim):
        assert sorted_prefix(padded, j) == pytest.approx(
            sorted_prefix(p, j), abs=1e-15
        )


def test_tensor_point_mass():
    out = tensor(ProbVector([1.0, 0.0]), ProbVector([0.6, 0.4]))
    assert np.allclose(out.components, [0.6, 0.4, 0.0, 0.0])


def test_tensor_uniform():
    half = ProbVector([0.5, 0.5])
    assert np.allclose(tensor(half, half).components, [0.25] * 4)


@settings(max_examples=60)
@given(prob_vectors(max_dim=4), prob_vectors(max_dim=4), prob_vectors(max_dim=3))
def test_tensor_associative_up_to_relabeling(p, q, r):
    left = np.sort(tensor(tensor(p, q), r).components)
    right = np.sort(tensor(p, tensor(q, r)).components)
    assert np.allclose(left, right, atol=1e-12)
    assert tensor(p, q).components.sum() == pytest.approx(1.0, abs=1e-12)


def test_catalyzed_tensor_orders_the_pair():
    # Tensoring the shared two-outcome catalyst onto the two incomparable
    # 3-photon spectra produces prefix sums that are ordered throughout.
    from bsmaj import CatalystSpec, catalyst_spectrum

    c = catalyst_spectrum(CatalystSpec.single_photon(0.7))
    low = tensor(spectrum(3, 0.72), c)
    high = tensor(spectrum(3, 0.62), c)
    assert low.dim == 8
    verdict = compare(low, high)
    assert verdict.relation is Relation.MAJORIZED_BY


def _json_text(p):
    """A JSON array of the components, as a vector file may hold them."""
    return json.dumps(p.components.tolist())


def _csv_text(p):
    """A single-column CSV of the components, one per line."""
    return "\n".join(repr(float(x)) for x in p.components) + "\n"


def test_json_round_trip():
    p = ProbVector([0.25, 0.5, 0.25])
    again = ProbVector.parse(_json_text(p))
    assert p.allclose(again, tol=0.0)
    assert not p.allclose(ProbVector([0.25, 0.5, 0.25, 0.0]), tol=1.0)  # dimensions differ


@pytest.mark.parametrize("text,want", [
    ("[0.5, 0.5]", [0.5, 0.5]),
    ("[1, 0]", [1.0, 0.0]),
    ("  [0.25, 0.75]\n", [0.25, 0.75]),
])
def test_parse_reads_json_numbers(text, want):
    assert ProbVector.parse(text).components.tolist() == want


@pytest.mark.parametrize("text,message", [
    ("[true, false]", "found a boolean"),
    ('["0.5", "0.5"]', "found a string"),
    ("[null]", "found null"),
    ("[{}]", "found an object"),
    ("[[1]]", "found an array"),
    ("[1, [1]]", "found an array"),
    ("[[1, 0], [0.5, 0.5]]", "found an array"),
    ("[[]]", "found an array"),
    ("[[1], 0]", "found an array"),
    ("[[1, 0], [1]]", "found an array"),
    ("[[{}]]", "found an array"),
    ("[[true, false], [false, true]]", "found an array"),
    ("[[Infinity]]", "found an array"),
    ('{"a": 1}', "could not convert"),
    ("[-2, 1e300]", "negative entry beyond tolerance"),
    ("[]", "non-empty"),
    ("0.5", "sum to 0.5"),
    ("[1" + "0" * 400 + "]", "too large for a float"),
    ("[NaN]", "must be finite"),
    ("[1e400]", "must be finite"),
    ("[" * 100_000, "nested too deeply"),
    ("[0.5, 0.5", "Expecting"),
])
def test_parse_refuses_anything_but_finite_numbers(text, message):
    with pytest.raises(ValueError, match=message):
        ProbVector.parse(text)


def test_csv_round_trip():
    p = ProbVector([0.125, 0.375, 0.5])
    again = ProbVector.parse(_csv_text(p))
    assert p.allclose(again, tol=0.0)


def test_parse_accepts_both_forms():
    p = ProbVector([0.5, 0.5])
    assert ProbVector.parse(_json_text(p)).allclose(p)
    assert ProbVector.parse(_csv_text(p)).allclose(p)


def test_components_are_read_only():
    p = ProbVector([0.5, 0.5])
    with pytest.raises(ValueError):
        p.components[0] = 0.9
