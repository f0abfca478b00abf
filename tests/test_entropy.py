import math

import numpy as np
import pytest
from hypothesis import given, settings

from bsmaj import (
    ProbVector,
    entropy_curve,
    find_crossovers,
    renyi,
    sort_desc,
    spectrum,
    tensor,
)
from bsmaj import beamsplitter, entropy
from bsmaj.catalysis import ALPHA_GRID
from bsmaj.entropy import (
    HUGE_ORDER,
    SHANNON_WINDOW,
    _logsumexp,
    parse_order,
    renyi_orders,
)
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
    val = renyi(sort_desc(spectrum(3, 0.62)).sorted, math.inf)
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


def test_order_one_is_shannon_entropy():
    p = ProbVector([0.25, 0.75])
    assert renyi(p, 1) == pytest.approx(
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


def _additivity_gap(p, q, alpha):
    """Entropy of the product distribution minus the sum of entropies: zero
    up to roundoff at every order, which is why the entropy screen of
    catalysis is valid."""
    return renyi(tensor(p, q), alpha) - renyi(p, alpha) - renyi(q, alpha)


def test_additivity_trivial_cases():
    p = ProbVector([0.3, 0.7])
    point = ProbVector([1.0])
    assert _additivity_gap(p, point, 2.0) == pytest.approx(0.0, abs=1e-12)
    u = ProbVector([0.5, 0.5])
    assert _additivity_gap(u, u, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_additivity_on_reference_pair():
    p = spectrum(3, 0.62)
    c = ProbVector([math.cos(0.7) ** 2, math.sin(0.7) ** 2])
    assert abs(_additivity_gap(p, c, 10.0)) < 1e-10


@settings(max_examples=50)
@given(prob_vectors(max_dim=5), prob_vectors(max_dim=5))
def test_additivity_generic(p, q):
    for alpha in (0.5, 1.0, 3.0, math.inf):
        assert abs(_additivity_gap(p, q, alpha)) < 1e-10


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
    assert renyi(joint, 1) == pytest.approx(renyi(p, 1) + renyi(q, 1), abs=1e-12)


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


# ---------------------------------------------------------------------------
# every order of a block of rows in one pass


def _one_order(x, alpha):
    """One order of ``renyi`` for every row, each order on its own path."""
    if math.isinf(alpha):
        return -np.log(x.max(axis=-1))
    if alpha == 0.0:
        return np.log((x > 1e-12).sum(axis=-1))
    pos = x > 0
    logs = np.log(np.where(pos, x, 1.0))
    if abs(alpha - 1.0) <= SHANNON_WINDOW:
        return -(x * logs).sum(axis=-1)
    return _logsumexp(np.where(pos, alpha * logs, -np.inf)) / (1.0 - alpha)


KERNEL_ORDERS = ALPHA_GRID + (1.0 - 1e-10, 1.0 + 1e-10, 1.0 - 2e-9, 1.0 + 2e-9,
                              0.3, 3.75, 1e4, 1e-300)


def _kernel_vectors():
    rng = np.random.default_rng(17)
    vecs = [np.array([1.0]), np.array([0.5, 0.5, 0.0]), np.array([0.0, 1.0, 0.0]),
            np.array([0.3, 0.3, 0.2, 0.2]), np.full(7, 1 / 7),
            np.array([0.4, 0.4, 1e-13, 0.2 - 1e-13])]
    for k, theta in ((3, 0.62), (6, 0.03), (20, 0.3), (60, QUARTER_PI), (1000, 0.2)):
        vecs.append(spectrum(k, theta).components)
    for _ in range(30):
        x = rng.dirichlet(np.full(int(rng.integers(2, 30)), 0.4))
        x[rng.random(x.size) < 0.25] = 0.0
        vecs.append(x / x.sum() if x.sum() > 0 else np.eye(x.size)[0])
    return [ProbVector(x) for x in vecs]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_renyi_orders_columns_equal_one_order_renyi_bit_for_bit():
    for p in _kernel_vectors():
        got = renyi_orders(p.components, KERNEL_ORDERS)
        assert got.shape == (len(KERNEL_ORDERS),)
        for j, alpha in enumerate(KERNEL_ORDERS):
            want = renyi(p, alpha)
            assert _bits(got[j]) == _bits(want), (p, alpha)
            assert _bits(want) == _bits(_one_order(p.components, alpha)), (p, alpha)


@pytest.mark.parametrize("order_entries", [entropy.ORDER_ENTRIES, 1, 40])
def test_renyi_orders_of_a_block_equal_each_row_and_order(monkeypatch, order_entries):
    # a small ORDER_ENTRIES takes the power orders in turns
    monkeypatch.setattr(entropy, "ORDER_ENTRIES", order_entries)
    rows = np.stack([p.components for p in _kernel_vectors() if p.dim == 4]
                    + [np.array([0.25, 0.25, 0.25, 0.25]), np.array([1.0, 0, 0, 0])])
    got = renyi_orders(rows, KERNEL_ORDERS)
    assert got.shape == (len(rows), len(KERNEL_ORDERS))
    for j, alpha in enumerate(KERNEL_ORDERS):
        assert _bits(got[:, j]) == _bits(_one_order(rows, alpha)), alpha
    block = np.stack([spectrum(60, t).components for t in np.linspace(0.0, 1.5, 9)])
    got = renyi_orders(block, KERNEL_ORDERS)
    for i, row in enumerate(block):
        assert _bits(got[i]) == _bits(renyi_orders(row, KERNEL_ORDERS))


def test_renyi_orders_with_no_order_is_empty():
    assert renyi_orders(np.array([0.5, 0.5]), []).shape == (0,)
    assert renyi_orders(np.full((3, 4), 0.25), ()).shape == (3, 0)
    assert entropy_curve(3, [], np.linspace(0.1, 0.5, 4)).shape == (4, 0)


def test_orders_past_the_float_range_give_the_min_entropy():
    # 1e308 log p overflows for every entry here (max p = e^-3.68), and the
    # order is far above 2^53, where alpha / (alpha - 1) rounds to 1.
    p = spectrum(1000, QUARTER_PI)
    assert _bits(renyi(p, 1e308)) == _bits(renyi(p, math.inf))
    assert math.isclose(renyi(p, 1e308), 3.6799189920938, rel_tol=1e-12)
    # Orders mixed with others, on rows where an order past HUGE_ORDER
    # would overflow only some terms: those orders take the min-entropy's
    # bits, and every other column keeps its own.
    rows = np.stack([p.components, spectrum(1000, 0.02).components,
                     spectrum(1000, 1.0).components, np.full(1001, 1.0 / 1001)])
    orders = (2.0, 1e308, 0.5, 1e300, math.inf, 3e305, HUGE_ORDER)
    got = renyi_orders(rows, orders)
    assert np.all(np.isfinite(got))
    for j in (0, 2, 3, 4, 6):
        assert _bits(got[:, j]) == _bits(_one_order(rows, orders[j])), orders[j]
    for j in (1, 5):
        assert _bits(got[:, j]) == _bits(got[:, 4]), orders[j]
    assert np.allclose(got[:, 3], got[:, 4], rtol=1e-12, atol=0.0)
