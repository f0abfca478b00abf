import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmaj import catalysis
from bsmaj import (
    CatalystFamily,
    CatalystSpec,
    ProbVector,
    Relation,
    TruncationError,
    catalyst_spectrum,
    check_catalysis,
    compare,
    necessary_conditions,
    pad_to,
    search_catalyst,
    search_catalyst_all,
    spectrum,
    tensor,
    tmsv_dimension,
)

from conftest import exact_threshold_extremes, prob_vectors, reference_search

TOL = 1e-12
P_072 = spectrum(3, 0.72)
Q_062 = spectrum(3, 0.62)


def test_single_photon_catalyst_reference_values():
    vec = catalyst_spectrum(CatalystSpec.single_photon(0.7))
    assert np.allclose(vec.components, [0.584984, 0.415016], atol=1e-5)


def test_single_photon_balanced():
    vec = catalyst_spectrum(CatalystSpec.single_photon(math.pi / 4))
    assert np.allclose(vec.components, [0.5, 0.5], atol=1e-15)


def test_tmsv_geometric_structure():
    r = 1.38
    ratio = math.tanh(r) ** 2
    vec = catalyst_spectrum(CatalystSpec.tmsv(r))
    assert vec.dim == tmsv_dimension(r)
    # geometric ratio between consecutive components
    ratios = vec.components[1:] / vec.components[:-1]
    assert np.allclose(ratios, ratio, atol=1e-12)
    # leading entry approaches 1 - tanh^2 r up to the truncation renormalization
    assert vec.components[0] == pytest.approx(1.0 - ratio, abs=1e-11)
    # pre-renormalization tail mass is below the tolerance
    assert ratio ** vec.dim < 1e-12


def test_tmsv_truncation_error_reports_requirement():
    with pytest.raises(TruncationError) as err:
        catalyst_spectrum(CatalystSpec.tmsv(1.38, truncation_dim=20))
    assert err.value.required_dim == tmsv_dimension(1.38)


def test_catalyst_spec_validation():
    with pytest.raises(ValueError):
        CatalystSpec.tmsv(-1.0)
    with pytest.raises(ValueError):
        CatalystSpec.single_photon(2.0)
    with pytest.raises(ValueError):
        CatalystSpec.tmsv(1.0, truncation_dim=0)
    # tanh^2 r rounds to 1 in double precision: no truncation normalizes
    with pytest.raises(ValueError, match="tanh"):
        CatalystSpec.tmsv(25.0)


def test_tmsv_vanishing_squeezing_is_the_vacuum():
    # tanh^2 r underflows to 0: one term carries all of the mass
    assert tmsv_dimension(1e-200) == 1
    vec = catalyst_spectrum(CatalystSpec.tmsv(1e-200))
    assert vec.components.tolist() == [1.0]


def test_reference_pair_is_incomparable_and_single_photon_catalyzes():
    report = check_catalysis(P_072, Q_062, CatalystSpec.single_photon(0.7))
    assert report.verdict_without.relation is Relation.INCOMPARABLE
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert report.catalysis_achieved
    assert report.to_dict()["marginal"] is False


def test_reference_pair_tmsv_catalyzes():
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38), tail_tol=1e-12)
    assert report.verdict_without.relation is Relation.INCOMPARABLE
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert report.to_dict()["marginal"] is False
    assert report.catalysis_achieved


def test_trivial_catalyst_changes_nothing():
    trivial = CatalystSpec.explicit(ProbVector([1.0]))
    report = check_catalysis(P_072, Q_062, trivial)
    assert report.verdict_with.relation is report.verdict_without.relation
    assert not report.catalysis_achieved


def test_catalyst_order_independence():
    base = ProbVector([0.55, 0.3, 0.15])
    shuffled = ProbVector([0.15, 0.55, 0.3])
    a = check_catalysis(P_072, Q_062, CatalystSpec.explicit(base))
    b = check_catalysis(P_072, Q_062, CatalystSpec.explicit(shuffled))
    assert a.verdict_with.relation is b.verdict_with.relation
    assert np.allclose(a.verdict_with.partial_sum_gaps, b.verdict_with.partial_sum_gaps,
                       atol=1e-12)


def test_necessary_conditions_on_majorized_pair():
    assert necessary_conditions(spectrum(2, 0.5), spectrum(2, 0.4))


def test_necessary_conditions_on_reference_pair():
    assert necessary_conditions(P_072, Q_062)


def test_necessary_conditions_fail_in_min_entropy_descent():
    # Between the first crossover and the min-entropy minimum the leading
    # component grows, so the min-entropy drops and no catalyst can exist
    # for an upward step there.
    p, q = spectrum(3, 0.56), spectrum(3, 0.55)
    assert compare(p, q).relation is Relation.INCOMPARABLE
    assert not necessary_conditions(p, q)
    assert search_catalyst(p, q, "single-photon", 0.05) is None


def test_search_single_photon_success_set_contains_reference():
    hits = search_catalyst_all(P_072, Q_062, "single-photon", 1e-3)
    values = [h.theta_c for h in hits]
    assert any(abs(v - 0.7) < 1e-9 for v in values)
    first = search_catalyst(P_072, Q_062, "single-photon", 1e-3)
    assert first is not None
    assert first.theta_c == pytest.approx(min(values), abs=1e-12)


def test_search_tmsv_success_set_contains_reference():
    hits = search_catalyst_all(P_072, Q_062, "tmsv", 1e-2, r_max=3.0)
    values = [h.r for h in hits]
    assert any(abs(v - 1.38) < 1e-9 for v in values)


def test_search_returns_trivial_catalyst_when_already_majorized():
    hit = search_catalyst(spectrum(2, 0.5), spectrum(2, 0.4), "tmsv", 0.1)
    assert hit is not None
    assert hit.family is CatalystFamily.EXPLICIT
    assert np.array_equal(hit.vector.components, [1.0])


def test_search_soundness():
    # Any successful search implies the entropy screen passes.
    hit = search_catalyst(P_072, Q_062, "single-photon", 5e-3)
    assert hit is not None
    assert necessary_conditions(P_072, Q_062)


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_catalyst(P_072, Q_062, "explicit", 0.1)
    with pytest.raises(ValueError):
        search_catalyst(P_072, Q_062, "tmsv", 0.0)


def test_search_rejects_unbounded_grid(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(catalysis, "check_catalysis", no_checks)
    monkeypatch.setattr(catalysis, "compare", no_checks)
    for family, grid in (("single-photon", 1e-12), ("tmsv", 1e-9)):
        with pytest.raises(ValueError, match="candidates"):
            search_catalyst_all(P_072, Q_062, family, grid)


def test_tmsv_truncation_stability():
    base_dim = tmsv_dimension(1.38)
    baseline = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38))
    for extra in (10, 40, 90):
        deeper = check_catalysis(
            P_072, Q_062, CatalystSpec.tmsv(1.38, truncation_dim=base_dim + extra)
        )
        assert (
            deeper.verdict_with.relation is baseline.verdict_with.relation
        )


def test_pair_within_tolerance_stays_equal_with_squeezed_vacuum():
    # Every threshold gap sits inside the tolerance in both directions, so
    # the catalyzed verdict is Equal, nothing is achieved and the JSON's
    # marginal flag reads false.
    eps = 5e-13
    p = ProbVector([0.5 + eps, 0.5 - eps])
    q = ProbVector([0.5, 0.5])
    report = check_catalysis(p, q, CatalystSpec.tmsv(0.8))
    assert report.verdict_with.relation is Relation.EQUAL
    assert report.verdict_with.first_violation is None
    assert not report.catalysis_achieved
    assert report.to_dict()["marginal"] is False


def test_report_serialization():
    report = check_catalysis(P_072, Q_062, CatalystSpec.single_photon(0.7))
    payload = report.to_dict()
    assert payload["without"] == "Incomparable"
    assert payload["with"] == "MajorizedBy"
    assert payload["achieved"] is True
    assert payload["catalyst"]["family"] == "single-photon"


def test_tensor_of_catalyzed_pair_has_expected_dimension():
    c = catalyst_spectrum(CatalystSpec.single_photon(0.7))
    assert tensor(P_072, c).dim == 8


def test_squeezed_vacuum_dimension_is_capped(monkeypatch):
    cap = catalysis.MAX_CATALYST_DIM
    with pytest.raises(ValueError, match="limit"):
        CatalystSpec.tmsv(1.38, truncation_dim=cap + 1)
    assert CatalystSpec.tmsv(1.38, truncation_dim=cap).truncation_dim == cap
    # r = 10 would need about 3.4e9 components; refused, not a TruncationError
    with pytest.raises(ValueError, match="limit") as err:
        catalyst_spectrum(CatalystSpec.tmsv(10.0))
    assert not isinstance(err.value, TruncationError)
    # The untruncated check is capped by its window instead. At r = 6 the
    # paper pair's window holds about 5.3e5 terms although a truncation
    # would need about 1.1e6 components; at r = 6.5 the window holds about
    # 1.4e6 terms and is refused before any term is built.
    assert tmsv_dimension(6.0) > cap
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(6.0))
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert report.verdict_with.partial_sum_gaps == ()
    assert 5 * 10**5 < _window_terms(P_072, Q_062, 6.0) <= cap

    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(catalysis, "_threshold_gaps", no_window)
    with pytest.raises(ValueError, match="threshold window of 14[0-9]{5} terms") as err:
        check_catalysis(P_072, Q_062, CatalystSpec.tmsv(6.5))
    assert not isinstance(err.value, TruncationError)


def test_search_rejects_oversized_squeezing_before_any_check(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(catalysis, "check_catalysis", no_checks)
    monkeypatch.setattr(catalysis, "compare", no_checks)
    monkeypatch.setattr(catalysis, "_threshold_gaps", no_checks)
    # 6.5 is refused for the paper pair's window (about 1.4e6 terms at the
    # largest r); 10 for a far larger one; 25 has tanh^2 r = 1
    for r_max in (6.5, 10.0, 25.0):
        with pytest.raises(ValueError):
            search_catalyst_all(P_072, Q_062, "tmsv", 0.5, r_max=r_max)


def _catalyst_rows(specs):
    return np.stack([catalyst_spectrum(s).components for s in specs])


@settings(max_examples=60, deadline=None)
@given(
    p=prob_vectors(max_dim=6),
    q=prob_vectors(max_dim=6),
    thetas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=8),
    rs=st.lists(st.sampled_from([0.2, 0.7, 1.38, 2.0]), min_size=1, max_size=4),
)
@example(p=P_072, q=Q_062, thetas=[0.7, 0.1], rs=[1.38, 0.2])
@example(p=P_072, q=P_072, thetas=[0.7], rs=[1.38])
def test_survivor_mask_matches_compare(p, q, thetas, rs):
    # tmsv rows share one truncation, deep enough for the largest r
    dim = tmsv_dimension(max(rs))
    for specs in (
        [CatalystSpec.single_photon(t) for t in thetas],
        [CatalystSpec.tmsv(r, truncation_dim=dim) for r in rs],
    ):
        rows = _catalyst_rows(specs)
        mask = catalysis._majorized_by_rows(p, q, rows, 1e-12)
        d = max(p.dim, q.dim) * rows.shape[1]
        sorted_p = catalysis._sorted_products(p, rows, d)
        want = []
        for spec, row in zip(specs, sorted_p):
            c = catalyst_spectrum(spec)
            want.append(compare(tensor(p, c), tensor(q, c)).relation is Relation.MAJORIZED_BY)
            # the batched rows are bit for bit the sorted, padded tensor
            assert np.array_equal(row, np.sort(pad_to(tensor(p, c), d).components)[::-1])
        assert mask.tolist() == want


def _search_pairs():
    pairs = [(P_072, Q_062)]
    for seed in (1, 4, 6):
        rng = np.random.default_rng(seed)
        while True:
            k_p, k_q = (int(k) for k in rng.integers(3, 6, size=2))
            p, q = spectrum(k_p, rng.uniform(0.2, 1.3)), spectrum(k_q, rng.uniform(0.2, 1.3))
            if compare(p, q).relation is Relation.INCOMPARABLE and necessary_conditions(p, q):
                pairs.append((p, q))
                break
    # unequal dimensions: the shorter tensored vector is zero-padded
    rng = np.random.default_rng(229)
    pairs.append((ProbVector(rng.dirichlet(np.ones(4))), ProbVector(rng.dirichlet(np.ones(3)))))
    return pairs


SEARCH_PAIRS = _search_pairs()


@pytest.mark.parametrize("family,grid", [("single-photon", 5e-3), ("tmsv", 0.1)])
@pytest.mark.parametrize("pair", range(len(SEARCH_PAIRS)))
def test_search_matches_per_candidate_reference(pair, family, grid):
    p, q = SEARCH_PAIRS[pair]
    want = list(reference_search(p, q, family, grid))
    assert want  # the pairs are chosen to have catalysts in both families
    assert search_catalyst_all(p, q, family, grid) == want
    assert search_catalyst(p, q, family, grid) == want[0]


def test_batch_boundaries_do_not_change_the_result(monkeypatch):
    # batches of a few candidates each, split across many boundaries
    monkeypatch.setattr(catalysis, "BATCH_ENTRIES", 100)
    for family, grid in (("single-photon", 5e-3), ("tmsv", 0.05)):
        want = list(reference_search(P_072, Q_062, family, grid))
        assert search_catalyst_all(P_072, Q_062, family, grid) == want


@pytest.mark.parametrize("family,grid", [("tmsv", 0.1), ("single-photon", 0.02)])
def test_tmsv_search_builds_no_truncated_catalyst(monkeypatch, family, grid):
    want = list(reference_search(P_072, Q_062, family, grid))
    assert 0 < len(want) < 30

    def refuse(*args, **kwargs):
        raise AssertionError("a catalyst was built, a pair tensored or checked")

    refused = ["catalyst_spectrum", "tensor", "check_catalysis"]
    if family == "tmsv":
        refused.append("_majorized_by_rows")
    for name in refused:
        monkeypatch.setattr(catalysis, name, refuse)
    assert search_catalyst_all(P_072, Q_062, family, grid) == want
    assert search_catalyst(P_072, Q_062, family, grid) == want[0]


def _old_grid(grid, limit):
    """The grid points of the per-candidate loop: i * grid while within
    limit + 1e-15."""
    values, i = [], 1
    while i * grid <= limit + 1e-15:
        values.append(i * grid)
        i += 1
    return values


def _scanned(monkeypatch, family, grid, r_max=3.0):
    """Every grid candidate a search decides, in order: each one is made a
    hit."""
    monkeypatch.setattr(catalysis, "_threshold_gaps", lambda *args: (0.0, 1.0))
    monkeypatch.setattr(catalysis, "_majorized_by_rows",
                        lambda p, q, cats, tol: np.ones(cats.shape[0], dtype=bool))
    hits = search_catalyst_all(P_072, Q_062, family, grid, r_max=r_max)
    return [hit.r if family == "tmsv" else hit.theta_c for hit in hits]


@pytest.mark.parametrize("family,grid,r_max", [
    # 3 * 0.1 = 0.30000000000000004 overshoots 0.3 by roundoff and is kept
    ("tmsv", 0.1, 0.3),
    ("tmsv", 0.01, 3.0),
    ("tmsv", 0.3, 0.9),
    ("single-photon", 0.1, None),
    ("single-photon", math.pi / 4 / 7, None),
    ("single-photon", math.pi / 4 / 393, None),
])
def test_scanned_grid_matches_the_per_candidate_loop(monkeypatch, family, grid, r_max):
    limit = math.pi / 4 if r_max is None else r_max
    want = _old_grid(grid, limit)
    assert _scanned(monkeypatch, family, grid, r_max=r_max or 3.0) == want
    if (family, grid) == ("tmsv", 0.1):
        assert want[-1] == 0.30000000000000004


def test_r_max_below_the_grid_scans_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a window was checked or built")

    monkeypatch.setattr(catalysis, "_check_window", refuse)
    monkeypatch.setattr(catalysis, "_threshold_gaps", refuse)
    assert search_catalyst_all(P_072, Q_062, "tmsv", 0.5, r_max=0.3) == []
    assert search_catalyst(P_072, Q_062, "tmsv", 0.5, r_max=0.3) is None


#: Allowed distance between the float threshold extremes and the exact ones.
#: The float gaps are prefix sums of up to about 2,000 products below one;
#: over 1,500 random pairs drawn as below their extremes stayed within
#: 1.2e-15 of the exact ones, so 1e-14 leaves a margin of about 9 and is 1%
#: of the tolerance.
WINDOW_ALLOWANCE = 1e-14


@st.composite
def weight_vectors(draw):
    """Probability vectors from integer weights 0..20 over 1 to 6 entries:
    equal and unequal supports, and entries within a factor 20 of each other,
    so that the exact windows stay small."""
    weights = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))
    if not any(weights):
        weights[0] = 1
    return ProbVector(np.array(weights, dtype=float) / sum(weights))


def _window_extremes(p, q, r, tol=TOL):
    vals, weights = catalysis._window_entries(p, q)
    return catalysis._threshold_gaps(vals, weights, math.tanh(r) ** 2, tol)


def _window_terms(p, q, r, tol=TOL):
    vals, _ = catalysis._window_entries(p, q)
    return int(catalysis._window_steps(vals, math.tanh(r) ** 2, tol)[0].sum())


@settings(max_examples=60, deadline=None)
@given(p=weight_vectors(), q=weight_vectors(), r=st.floats(0.05, 3.0))
@example(p=P_072, q=Q_062, r=1.38)
@example(p=ProbVector([0.7, 0.3]), q=ProbVector([0.8, 0.19, 0.01]), r=3.0)
@example(p=ProbVector([0.5, 0.3, 0.2]), q=ProbVector([0.5, 0.3, 0.2]), r=2.0)
def test_window_verdict_matches_exact_rationals(p, q, r):
    want_lo, want_hi = exact_threshold_extremes(p, q, r)
    lo, hi = _window_extremes(p, q, r)
    assert abs(lo - want_lo) <= WINDOW_ALLOWANCE
    assert abs(hi - want_hi) <= WINDOW_ALLOWANCE
    verdict = check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with
    assert verdict.partial_sum_gaps == () and verdict.first_violation is None
    majorized = verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)
    assert majorized == (lo >= -TOL)
    if abs(want_lo + TOL) > WINDOW_ALLOWANCE and abs(want_hi - TOL) > WINDOW_ALLOWANCE:
        below, above = want_lo >= -TOL, want_hi <= TOL
        want = {(True, True): Relation.EQUAL, (True, False): Relation.MAJORIZED_BY,
                (False, True): Relation.MAJORIZES, (False, False): Relation.INCOMPARABLE}
        assert verdict.relation is want[below, above]


def test_violation_below_the_window_is_found_by_the_tail(monkeypatch):
    # q has one entry more than p, 2e-11, far below the rest: every gap on
    # the window is nonnegative, and the continuation below it, with its
    # drift -m Delta t, is what rules MajorizedBy out (by about 4.5e-12)
    p = ProbVector([0.3, 0.7])
    q = ProbVector([0.95, 0.05 - 2e-11, 2e-11])
    verdict = check_catalysis(p, q, CatalystSpec.tmsv(1.5)).verdict_with
    assert verdict.relation is Relation.INCOMPARABLE
    want_lo, _ = exact_threshold_extremes(p, q, 1.5)
    assert want_lo < -4 * TOL
    lo, _ = _window_extremes(p, q, 1.5)
    assert abs(lo - want_lo) <= WINDOW_ALLOWANCE
    monkeypatch.setattr(catalysis, "_tail_least", lambda *args: math.inf)
    assert _window_extremes(p, q, 1.5)[0] >= 0.0


def test_catalyzed_pair_inside_the_tolerance_is_equal_both_ways():
    # Incomparable bare by about 1e-12. At r = 1 every exact threshold gap
    # lies inside +-tol (-6.2e-13 .. 7.6e-13): the catalyzed pair is Equal in
    # both orders, so r = 1 is no hit.
    p = ProbVector([0.2920450262389661, 0.2350690037451042,
                    0.19593811311492307, 0.27694785690100665])
    q = ProbVector([0.2920450262397049, 0.23506900374181805,
                    0.1959381131164012, 0.2769478569020757])
    assert compare(p, q).relation is Relation.INCOMPARABLE
    lo, hi = exact_threshold_extremes(p, q, 1.0)
    assert -TOL + WINDOW_ALLOWANCE < lo < 0.0 < hi < TOL - WINDOW_ALLOWANCE
    for a, b in ((p, q), (q, p)):
        report = check_catalysis(a, b, CatalystSpec.tmsv(1.0))
        assert report.verdict_with.relation is Relation.EQUAL
        assert not report.catalysis_achieved
    # at r = 0.75 p (x) c leads by more than the tolerance somewhere
    assert [hit.r for hit in search_catalyst_all(p, q, "tmsv", 0.25)] == [0.75]


@pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.3])
@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 3.0, 6.0])
def test_window_floor_bounds_the_gaps_below_it(r, tol):
    # Below the floor t0 every threshold gap lies within +-max G(t0), with
    # G(t) = sum min(x, t) over the products (1 - rho) v rho^j of one side.
    # Evaluate G(t0) exactly per entry, t0 K + v rho^K with K products at or
    # above t0, on the sides that come closest to the bound: n equal entries,
    # and one entry of mass one among n - 1 negligible ones.
    rho = math.tanh(r) ** 2
    with mpmath.workdps(40):
        m_rho = mpmath.mpf(rho)
        for n in (1, 2, 6, 200):
            t0 = catalysis._window_floor(n, rho, tol)
            assert t0 > 0.0
            for side in (np.full(n, 1.0 / n), np.array([1.0] + [1e-300] * (n - 1))):
                total = mpmath.mpf(0)
                for v in side:
                    k = max(0, math.floor(math.log((1 - rho) * v / t0) / -math.log(rho)) + 1)
                    # make the count exact: the K-th product is the first below t0
                    while k > 0 and (1 - m_rho) * v * m_rho ** (k - 1) < t0:
                        k -= 1
                    while (1 - m_rho) * v * m_rho**k >= t0:
                        k += 1
                    total += t0 * k + v * m_rho**k
                assert total <= tol / 2


#: Pairs whose nonzero entries span from about 1e-35 (k = 100 near pi/4) to
#: 1e-261 (k = 100 at small angles): the self-similar window would hold
#: millions of terms, so the window stops at the floor.
WIDE_PAIRS = [
    (spectrum(100, 0.78), spectrum(100, 0.74)),
    (spectrum(100, 0.05), spectrum(100, 0.06)),
]


@pytest.mark.parametrize("p,q", WIDE_PAIRS)
def test_wide_range_pair_is_decided_as_the_truncated_test_decides(p, q):
    # The truncated test tensors a 2,787-term catalyst onto both 101-vectors
    # at r = 3; the floored window is smaller and the success set the same.
    vals, _ = catalysis._window_entries(p, q)
    assert not catalysis._window_steps(vals, math.tanh(3.0) ** 2, TOL)[1]
    assert _window_terms(p, q, 3.0) < tmsv_dimension(3.0) * (p.dim + q.dim)
    assert search_catalyst_all(p, q, "tmsv", 0.5) == list(reference_search(p, q, "tmsv", 0.5))
    for r in (0.3, 2.5):
        c = catalyst_spectrum(CatalystSpec.tmsv(r))
        want = compare(tensor(p, c), tensor(q, c)).relation
        assert check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with.relation is want


@pytest.mark.parametrize("p,q", WIDE_PAIRS)
@pytest.mark.parametrize("r", [0.3, 0.6, 1.0])
def test_floored_window_agrees_with_the_full_one(monkeypatch, p, q, r):
    # Where the self-similar window of a wide pair is still affordable, the
    # floored window's extremes are within tol / 2 of its exact ones and the
    # verdict is the same.
    floored = _window_extremes(p, q, r)
    verdict = check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with
    monkeypatch.setattr(catalysis, "_window_floor", lambda *args: 0.0)
    vals, _ = catalysis._window_entries(p, q)
    assert catalysis._window_steps(vals, math.tanh(r) ** 2, TOL)[1]
    full = _window_extremes(p, q, r)
    assert abs(floored[0] - full[0]) <= TOL / 2
    assert abs(floored[1] - full[1]) <= TOL / 2
    assert check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with == verdict
