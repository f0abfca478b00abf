import itertools
import math
import operator

import numpy as np
import pytest

from bsmaj import (
    Relation,
    photon_chain_check,
    renyi,
    sort_desc,
    spectrum,
)
from bsmaj import beamsplitter
from bsmaj.beamsplitter import DIRECT_K_LIMIT, MAX_PHOTONS, spectrum_rows
from bsmaj.vectors import normalize_rows

from conftest import oracle_relation, spectrum_recurrence


def test_single_photon_balanced():
    vec = spectrum(1, math.pi / 4)
    assert np.allclose(vec.components, [0.5, 0.5], atol=1e-15)
    assert renyi(vec, 1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_two_photon_components_follow_formula():
    theta = 0.83
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    vec = spectrum(2, theta)
    assert np.allclose(vec.components, [s2**2, 2 * c2 * s2, c2**2], atol=1e-15)


def test_three_photon_sorted_reference_values():
    osc = sort_desc(spectrum(3, 0.62))
    assert np.allclose(
        osc.sorted.components, (0.44439, 0.290641, 0.226491, 0.0384782), atol=1e-5
    )


def test_point_mass_limits():
    # From k = 1100 on, log C(k, k/2) exceeds the largest finite exp
    # argument, so a theta = 0 row must not pass its exponents to exp.
    for k in (4, 1100, 2000):
        want = np.zeros(k + 1)
        want[k] = 1.0
        assert np.array_equal(spectrum(k, 0.0).components, want)
        assert spectrum(k, math.pi / 2).components[0] == pytest.approx(1.0, abs=1e-15)
        rows = np.concatenate(list(spectrum_rows(k, [0.0, 0.3, 0.0])))
        assert np.array_equal(rows[[0, 2]], [want, want])


def test_validation():
    with pytest.raises(ValueError):
        spectrum(-1, 0.3)
    with pytest.raises(ValueError):
        spectrum(2.5, 0.3)
    with pytest.raises(ValueError):
        spectrum(2, 1.8)


def test_photon_number_bound():
    with pytest.raises(ValueError, match="limit of 1000000"):
        spectrum(MAX_PHOTONS + 1, 0.5)
    with pytest.raises(ValueError, match="limit"):
        spectrum(10**8, 0.5)


def test_spectrum_rows_blocks(monkeypatch):
    monkeypatch.setattr(beamsplitter, "ROW_ENTRIES", 2 * 5)
    grid = np.linspace(0.0, math.pi / 2, 7)
    blocks = list(spectrum_rows(4, grid))
    assert [len(b) for b in blocks] == [2, 2, 2, 1]
    rows = np.concatenate(blocks)
    for theta, row in zip(grid, rows):
        assert np.array_equal(row, spectrum(4, float(theta)).components)
    monkeypatch.setattr(beamsplitter, "ROW_ENTRIES", 1)
    assert [len(b) for b in spectrum_rows(4, grid)] == [1] * 7


def test_spectrum_rows_checks_before_yielding():
    with pytest.raises(ValueError, match="theta"):
        next(spectrum_rows(3, [0.2, 1.8]))
    with pytest.raises(ValueError, match="photon number"):
        next(spectrum_rows(-1, []))


def test_pascal_rows_are_cached_read_only():
    row = beamsplitter._direct_coefficients(5)
    assert beamsplitter._direct_coefficients(5) is row
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 2.0


def test_photon_chain_builds_each_pascal_row_once(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return accumulate(*args, **kwargs)

    accumulate = itertools.accumulate
    beamsplitter._direct_coefficients.cache_clear()
    monkeypatch.setattr(itertools, "accumulate", counted)
    photon_chain_check(28, 0.6)
    assert len(built) == 29  # rows k = 0 .. 28; rows 1 .. 27 are asked for twice
    beamsplitter._direct_coefficients.cache_clear()


@pytest.mark.parametrize("k", [0, 1, 2, 28, 59, DIRECT_K_LIMIT])
def test_cached_pascal_row_spectra_equal_a_fresh_row(k):
    ratios = map(operator.truediv, range(k, 0, -1), range(1, k + 1))
    fresh = np.fromiter(itertools.accumulate(ratios, operator.mul, initial=1.0), float, k + 1)
    n = np.arange(k + 1)
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        (want,) = normalize_rows((fresh * c2**n * s2 ** n[::-1])[None, :])
        for _ in range(2):  # the first call may build the row, the second reads it
            assert np.array_equal(spectrum(k, theta).components, want), theta


def test_recurrence_base_case():
    assert np.array_equal(spectrum_recurrence(0, 0.9).components, [1.0])


def test_recurrence_single_photon_balanced():
    assert np.allclose(
        spectrum_recurrence(1, math.pi / 4).components, [0.5, 0.5], atol=1e-15
    )


def test_recurrence_matches_direct_k10():
    a = spectrum(10, 0.3).components
    b = spectrum_recurrence(10, 0.3).components
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 7, 23, 45, 60])
def test_recurrence_matches_direct_grid(k):
    for theta in np.linspace(0.0, math.pi / 2, 17):
        a = spectrum(k, float(theta)).components
        b = spectrum_recurrence(k, float(theta)).components
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("k", [61, 85, 120])
def test_log_space_path_matches_recurrence(k):
    for theta in (0.0, 0.2, math.pi / 4, 1.3, math.pi / 2):
        a = spectrum(k, theta).components
        b = spectrum_recurrence(k, theta).components
        assert np.max(np.abs(a - b)) < 1e-12


def test_reflectance_symmetry():
    for k in (1, 3, 8):
        for theta in np.linspace(0.0, math.pi / 2, 11):
            left = spectrum(k, float(theta)).components
            right = spectrum(k, math.pi / 2 - float(theta)).components[::-1]
            assert np.max(np.abs(left - right)) < 1e-13


def test_chain_equal_at_theta_zero():
    verdicts = photon_chain_check(4, 0.0)
    assert all(v.relation is Relation.EQUAL for v in verdicts)


def test_chain_balanced():
    verdicts = photon_chain_check(5, math.pi / 4)
    assert all(v.relation is Relation.MAJORIZED_BY for v in verdicts)


def test_chain_agrees_with_oracle():
    for theta in (0.2, 0.62, 1.0):
        for k in range(5):
            got = photon_chain_check(k + 1, theta)[k].relation.value
            want = oracle_relation(
                spectrum(k + 1, theta).components, spectrum(k, theta).components
            )
            assert got == want == "MajorizedBy"


def test_chain_requires_positive_k_max():
    with pytest.raises(ValueError):
        photon_chain_check(0, 0.5)


def test_chain_length_bound(monkeypatch):
    # k_max^2 + 2 k_max entries: 2047 is the longest chain under 2^22
    with pytest.raises(ValueError, match="limit of 4194304"):
        photon_chain_check(2048, 0.5)

    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(beamsplitter, "spectrum", no_spectrum)
    with pytest.raises(ValueError, match="limit"):
        photon_chain_check(100000, 0.5)
    # the bound is exact: 3 photons build 3 * 5 = 15 entries
    monkeypatch.undo()
    monkeypatch.setattr(beamsplitter, "MAX_CHAIN_ENTRIES", 15)
    assert len(photon_chain_check(3, 0.5)) == 3
    with pytest.raises(ValueError, match="24 spectrum entries"):
        photon_chain_check(4, 0.5)
