import itertools
import math
import operator
import re

import numpy as np
import pytest

from bsmaj import (
    Relation,
    accumulation_derivatives,
    bs_witness_matrix,
    build_kraus,
    entropy_curve,
    find_crossovers,
    photon_chain_check,
    positivity_bound,
    region1_closed_form,
    renyi,
    sort_desc,
    spectrum,
)
from bsmaj import beamsplitter, locc
from bsmaj.beamsplitter import (DIRECT_K_LIMIT, MAX_PHOTONS, angle_squares, check_angle,
                                spectrum_rows)
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
    # From k = 1030 on, C(k, k/2) exceeds the largest double, and at
    # theta = 0 every ratio below the mode is zero: the rows stay exact.
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


#: Every entry point that takes a photon number, called with that number
#: and, where it takes more, arguments it would refuse too.
PHOTON_NUMBER_CALLS = {
    "spectrum": lambda k: spectrum(k, -1.0),
    "spectrum_rows": lambda k: next(spectrum_rows(k, [-1.0])),
    "photon_chain_check": lambda k: photon_chain_check(k, -1.0),
    "build_kraus": build_kraus,
    "locc": lambda k: locc.locc(k, -1.0),
    "find_crossovers": find_crossovers,
    "accumulation_derivatives": lambda k: accumulation_derivatives(k, -1.0, tol=-1.0),
    "region1_closed_form": lambda k: region1_closed_form(k, -1, -1.0),
    "positivity_bound": lambda k: positivity_bound(k, 0),
    "bs_witness_matrix": lambda k: bs_witness_matrix(k, -1.0),
}


@pytest.mark.parametrize("k,message", [
    (1.5, "photon number must be an integer, got 1.5"),
    (-1, "photon number must be nonnegative, got -1"),
    (MAX_PHOTONS + 1, f"photon number {MAX_PHOTONS + 1}, more than the limit of {MAX_PHOTONS}"),
])
@pytest.mark.parametrize("call", PHOTON_NUMBER_CALLS.values(), ids=PHOTON_NUMBER_CALLS)
def test_every_photon_number_passes_one_check_first(call, k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(k)


def test_spectra_at_the_photon_cap_normalize_at_small_angles():
    # A log-space kernel, whose lgamma(k+1) past 2^23 rounds to an ulp of
    # 1.9e-9, summed 0.004932 to 1 - 1.09e-9 here; ratio products anchored
    # at the mode keep every row at the cap within roundoff of one.
    angles = [0.001, 0.003, 0.004932, 0.01, 0.02363, 0.05]
    rows = np.concatenate(list(spectrum_rows(MAX_PHOTONS, angles)))
    assert rows.shape == (len(angles), MAX_PHOTONS + 1)
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)


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


def _angle_message(theta):
    with pytest.raises(ValueError) as info:
        check_angle(theta)
    return re.escape(str(info.value))


@pytest.mark.parametrize("bad", [math.nan, -1e-300, math.pi / 2 + 1e-15, math.inf, -math.inf])
def test_spectrum_rows_refuse_the_first_bad_angle_before_any_row(bad):
    # the bad angle sits in the sweep's last block of rows, behind a second one
    thetas = np.full(3000, 0.3)
    thetas[2500], thetas[2900] = bad, 2.0
    with pytest.raises(ValueError, match=_angle_message(bad)):
        next(spectrum_rows(3, thetas))
    with pytest.raises(ValueError, match=_angle_message(bad)):
        entropy_curve(3, [1.0], thetas)


def _search_grid(grid):
    # the single-photon catalyst angles a search scans, as catalysis._search forms them
    span = math.pi / 4 + 1e-15
    values = grid * np.arange(1, int(span / grid) + 2)
    return values[values <= span]


@pytest.mark.parametrize("thetas", [
    _search_grid(2e-3),
    _search_grid(1e-3),
    _search_grid(1e-4),
    np.random.default_rng(27).uniform(0.0, math.pi / 2, 10**5),
    np.array([0.0, math.pi / 4, math.pi / 2]),
], ids=["grid2e-3", "grid1e-3", "grid1e-4", "random", "ends"])
def test_angle_squares_are_the_math_squares_bit_for_bit(thetas):
    c2, s2 = angle_squares(thetas)
    angles = thetas.tolist()
    want_c2 = np.array([math.cos(t) ** 2 for t in angles])
    want_s2 = np.array([math.sin(t) ** 2 for t in angles])
    assert np.array_equal(c2.view(np.uint64), want_c2.view(np.uint64))
    assert np.array_equal(s2.view(np.uint64), want_s2.view(np.uint64))


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
def test_mode_anchored_path_matches_recurrence(k):
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


def _mode_anchored_row(k, c2, s2):
    """One spectrum row above 60 photons as scalar loops: 1 at the mode,
    then each neighbour by the ratio P_n / P_(n+1) = (n+1)/(k-n) tan^2 going
    down and its reciprocal going up, each clipped at 1, so the products
    start where the ratios pass through 1."""
    tan2 = s2 / c2
    ratios = [float(n + 1) / float(k - n) * tan2 for n in range(k)]
    row = [1.0] * (k + 1)
    for n, r in enumerate(ratios):
        row[n + 1] = row[n] * (1.0 / max(r, 1.0))
    below = 1.0
    for n in range(k - 1, -1, -1):
        below *= min(ratios[n], 1.0)
        row[n] *= below
    return row


def _reference_rows(k, thetas):
    """The spectrum kernel as scalar code: direct products up to a literal
    60 photons, not ``DIRECT_K_LIMIT``, with integer exponents, and the
    mode-anchored ratio products of ``_mode_anchored_row`` above it; row
    sums by ``ndarray.sum``. A kernel that moves these k to another regime
    changes bytes and fails."""
    n = np.arange(k + 1)
    cs = np.array([(math.cos(t) ** 2, math.sin(t) ** 2) for t in thetas])
    c2, s2 = cs[:, :1], cs[:, 1:]
    if k <= 60:
        ratios = map(operator.truediv, range(k, 0, -1), range(1, k + 1))
        coeff = np.fromiter(itertools.accumulate(ratios, operator.mul, initial=1.0),
                            float, k + 1)
        rows = coeff * c2**n * s2 ** n[::-1]
    else:
        rows = np.array([_mode_anchored_row(k, c, s) for c, s in cs.tolist()])
    totals = rows.sum(axis=-1, keepdims=True)
    assert k > 60 or np.abs(totals - 1.0).max() <= 1e-9
    return rows / totals


@pytest.mark.parametrize("k", [3, 20])
def test_sweeps_square_the_angles_as_math_does(k):
    # np.cos(t) ** 2 rounds differently from math.cos(t) ** 2 at about one
    # angle in a thousand, so a sweep of this length would show it
    thetas = np.random.default_rng(29).uniform(0.0, math.pi / 2, 20000)
    rows = np.concatenate(list(spectrum_rows(k, thetas)))
    assert rows.tobytes() == _reference_rows(k, thetas.tolist()).tobytes()


@pytest.mark.parametrize("ks", [range(0, 36), range(36, 71), [1000, 2047]])
def test_one_row_spectra_match_the_rows_bit_for_bit(ks):
    rng = np.random.default_rng(23)
    thetas = [0.0, math.pi / 4, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 5).tolist()]
    for k in ks:
        rows = np.concatenate(list(spectrum_rows(k, thetas)))
        assert rows.tobytes() == _reference_rows(k, thetas).tobytes(), k
        for theta, row in zip(thetas, rows):
            assert spectrum(k, theta).components.tobytes() == row.tobytes(), (k, theta)
