import math

import numpy as np
import pytest
from hypothesis import given, settings

from bsmaj import (
    ProbVector,
    additivity_check,
    entropy_curve,
    find_crossovers,
    min_entropy,
    renyi,
    shannon,
    sort_desc,
    spectrum,
    tensor,
)
from bsmaj import beamsplitter
from bsmaj.entropy import _logsumexp, parse_order
from bsmaj.regions import QUARTER_PI

from conftest import entropy_curve_reference, prob_vectors

ALPHAS = (0.0, 0.5, 1.0, 2.0, 10.0, math.inf)


def test_uniform_is_order_independent():
    u = ProbVector([0.5, 0.5])
    for alpha in ALPHAS:
        assert renyi(u, alpha) == pytest.approx(math.log(2), abs=1e-12)


def test_point_mass_has_zero_entropy():
    p = ProbVector([1.0, 0.0, 0.0])
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert renyi(p, alpha) == pytest.approx(0.0, abs=1e-15)


def test_min_entropy_of_reference_spectrum():
    val = min_entropy(sort_desc(spectrum(3, 0.62)).sorted)
    assert val == pytest.approx(0.81106, abs=1e-5)
    assert val == pytest.approx(-math.log(0.44439), abs=1e-5)


def test_order_zero_counts_support():
    p = ProbVector([0.5, 0.5, 0.0])
    assert renyi(p, 0.0) == pytest.approx(math.log(2), abs=1e-15)


def test_rejects_negative_order():
    with pytest.raises(ValueError):
        renyi(ProbVector([1.0]), -0.5)


def test_parse_order():
    assert parse_order("inf") == math.inf
    assert parse_order("2") == 2.0
    assert parse_order(0.5) == 0.5
    with pytest.raises(ValueError):
        parse_order("-1")


def test_shannon_alias():
    p = ProbVector([0.25, 0.75])
    assert shannon(p) == pytest.approx(
        -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)), abs=1e-15
    )


@settings(max_examples=80)
@given(prob_vectors())
def test_monotone_in_order(p):
    # Order 0 counts support above the comparison tolerance, so components
    # straddling that threshold would make it undershoot; positive orders
    # are monotone unconditionally.
    comps = p.components
    tol_clean = not np.any((comps > 0) & (comps < 1e-9))
    alphas = ALPHAS if tol_clean else ALPHAS[1:]
    values = [renyi(p, a) for a in alphas]
    for lo, hi in zip(values[:-1], values[1:]):
        assert hi <= lo + 1e-10


@settings(max_examples=50)
@given(prob_vectors())
def test_continuity_at_shannon_point(p):
    s1 = renyi(p, 1.0)
    assert abs(renyi(p, 1.0 + 1e-6) - s1) < 1e-4
    assert abs(renyi(p, 1.0 - 1e-6) - s1) < 1e-4


def test_additivity_trivial_cases():
    p = ProbVector([0.3, 0.7])
    point = ProbVector([1.0])
    assert additivity_check(p, point, 2.0) == pytest.approx(0.0, abs=1e-12)
    u = ProbVector([0.5, 0.5])
    assert additivity_check(u, u, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_additivity_on_reference_pair():
    p = spectrum(3, 0.62)
    c = ProbVector([math.cos(0.7) ** 2, math.sin(0.7) ** 2])
    assert abs(additivity_check(p, c, 10.0)) < 1e-10


@settings(max_examples=50)
@given(prob_vectors(max_dim=5), prob_vectors(max_dim=5))
def test_additivity_generic(p, q):
    for alpha in (0.5, 1.0, 3.0, math.inf):
        assert abs(additivity_check(p, q, alpha)) < 1e-10


def test_entropy_curve_shape_and_bits():
    grid = np.linspace(0.1, 0.7, 5)
    nats = entropy_curve(2, [1.0, math.inf], grid)
    bits = entropy_curve(2, [1.0, math.inf], grid, bits=True)
    assert nats.shape == (5, 2)
    assert np.allclose(bits * math.log(2), nats, atol=1e-12)


@pytest.mark.parametrize("k", [2, 60, 61, 1000, 1100])
def test_entropy_curve_matches_per_angle_renyi(monkeypatch, k):
    # Three rows per block, so the 11 angles end in a partial block.
    monkeypatch.setattr(beamsplitter, "ROW_ENTRIES", 3 * (k + 1) + k)
    grid = np.linspace(0.0, math.pi / 2, 11)
    got = entropy_curve(k, ALPHAS, grid)
    assert np.array_equal(got, entropy_curve_reference(k, ALPHAS, grid))


def test_two_photon_shannon_strictly_increasing():
    grid = np.linspace(1e-4, QUARTER_PI - 1e-6, 500)
    s1 = entropy_curve(2, [1.0], grid)[:, 0]
    assert np.all(np.diff(s1) > 0)


def test_two_photon_min_entropy_decreases_past_crossover():
    cross = find_crossovers(2).crossovers[0]
    grid = np.linspace(cross + 1e-9, QUARTER_PI - 1e-9, 200)
    s_inf = entropy_curve(2, [math.inf], grid)[:, 0]
    assert np.all(np.diff(s_inf) < 0)


def test_two_photon_min_entropy_kink_at_crossover():
    # The min-entropy slope flips sign exactly at the crossover, so the
    # discrete second difference spikes negative there and nowhere else.
    cross = find_crossovers(2).crossovers[0]
    grid = np.linspace(0.3, QUARTER_PI - 1e-6, 801)
    s_inf = entropy_curve(2, [math.inf], grid)[:, 0]
    second = np.diff(s_inf, 2)
    spike = int(np.argmin(second))
    assert abs(grid[spike + 1] - cross) < 2 * (grid[1] - grid[0])
    assert second[spike] < 10 * np.median(second)


def test_three_photon_min_entropy_interior_minimum():
    t1, t2 = find_crossovers(3).crossovers
    grid = np.linspace(t1, t2, 500)
    s_inf = entropy_curve(3, [math.inf], grid)[:, 0]
    arg = int(np.argmin(s_inf))
    assert 0 < arg < len(grid) - 1
    assert grid[arg] == pytest.approx(math.atan(1 / math.sqrt(2)), abs=2e-3)


def test_schur_concavity_along_photon_chain():
    for theta in (0.3, 0.62, 1.1):
        for k in range(6):
            lower, higher = spectrum(k + 1, theta), spectrum(k, theta)
            for alpha in ALPHAS:
                assert renyi(lower, alpha) >= renyi(higher, alpha) - 1e-12


def test_tensor_entropy_never_decreases_entropy_sum():
    p = spectrum(2, 0.5)
    q = spectrum(3, 0.9)
    joint = tensor(p, q)
    assert shannon(joint) == pytest.approx(shannon(p) + shannon(q), abs=1e-12)


# ---------------------------------------------------------------------------
# log-sum-exp kernel behind the Renyi orders


def _logsumexp_inputs():
    """Power-sum exponents as renyi builds them: order times log of a spectrum,
    plus ties at the maximum and single-element input."""
    rng = np.random.default_rng(5)
    cases = [np.array([0.0]), np.array([-3.25]), np.array([-1.0, -1.0, -2.0]),
             np.full(7, 3.0 * math.log(1 / 7)), np.array([-700.0, -0.5, -0.5])]
    for k, theta in ((3, 0.62), (20, 0.3), (60, QUARTER_PI), (1000, 0.2)):
        pos = spectrum(k, theta).components
        pos = pos[pos > 0]
        for alpha in (0.3, 0.5, 2.0, 10.0, 50.0, 200.0):
            cases.append(alpha * np.log(pos))
    for _ in range(40):
        p = rng.dirichlet(np.full(int(rng.integers(1, 30)), 0.4))
        cases.append(float(rng.choice([0.5, 3.0, 200.0])) * np.log(p[p > 0]))
    return cases


def test_logsumexp_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for a in _logsumexp_inputs():
        with mpmath.workdps(40):
            ref = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(x))) for x in a))
        got = float(_logsumexp(a))
        scale = max(1.0, float(np.abs(a).max()))
        assert abs(got - float(ref)) <= 4 * eps * scale, (a, got, ref)


def test_logsumexp_bit_identical_to_scipy():
    special = pytest.importorskip("scipy.special")
    for a in _logsumexp_inputs():
        assert float(_logsumexp(a)) == float(special.logsumexp(a))


def test_logsumexp_rows_match_one_row_bit_for_bit():
    rng = np.random.default_rng(11)
    a = 3.0 * np.log(rng.dirichlet(np.full(40, 0.4), size=12))
    a[2, :15] = -np.inf  # zero components, as renyi passes them
    a[5, :3] = a[5].max()  # ties at the maximum
    a[7] = 0.0
    rows = _logsumexp(a)
    assert rows.shape == (12,)
    for row, want in zip(a, rows):
        assert _logsumexp(row) == want
