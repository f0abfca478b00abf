import math
import tracemalloc

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
    catalyst_spectrum,
    check_catalysis,
    compare,
    necessary_conditions,
    search_catalyst,
    search_catalyst_all,
    spectrum,
    tensor,
    tmsv_dimension,
)
from bsmaj.majorization import gap_relation, majorized_by_mask, prefix_gaps
from bsmaj.vectors import normalize_rows, tensor_rows

from conftest import (
    closed_form_extremes_mpmath,
    dense_threshold_extremes,
    exact_threshold_extremes,
    prob_vectors,
    reference_search,
    sorted_threshold_gaps,
    truncated_tmsv,
)

TOL = 1e-12
P_072 = spectrum(3, 0.72)
Q_062 = spectrum(3, 0.62)


def test_single_photon_catalyst_reference_values():
    vec = catalyst_spectrum(CatalystSpec.single_photon(0.7))
    assert np.allclose(vec.components, [0.584984, 0.415016], atol=1e-5)


def test_single_photon_balanced():
    vec = catalyst_spectrum(CatalystSpec.single_photon(math.pi / 4))
    assert np.allclose(vec.components, [0.5, 0.5], atol=1e-15)


def test_truncated_tmsv_geometric_structure():
    r = 1.38
    ratio = math.tanh(r) ** 2
    vec = truncated_tmsv(r).vector
    assert vec.dim == tmsv_dimension(r)
    # geometric ratio between consecutive components
    ratios = vec.components[1:] / vec.components[:-1]
    assert np.allclose(ratios, ratio, atol=1e-12)
    # leading entry approaches 1 - tanh^2 r up to the truncation renormalization
    assert vec.components[0] == pytest.approx(1.0 - ratio, abs=1e-11)
    # pre-renormalization tail mass is below the tolerance
    assert ratio ** vec.dim < 1e-12


@pytest.mark.parametrize("r", [1e-200, 0.05, 0.5, 1.38, 3.0, 6.0])
def test_tmsv_dimension_is_the_least_truncation_within_the_tail_tolerance(r):
    # the mass beyond N terms is rho^N: at most TAIL_TOL at N, above it at
    # N - 1; at r = 1e-200 rho underflows to 0 and N = 1
    rho, n = math.tanh(r) ** 2, tmsv_dimension(r)
    assert rho**n <= catalysis.TAIL_TOL < rho ** (n - 1)


def test_catalyst_spec_validation():
    with pytest.raises(ValueError):
        CatalystSpec.tmsv(-1.0)
    with pytest.raises(ValueError):
        CatalystSpec.single_photon(2.0)
    # tanh^2 r rounds to 1 in double precision: no truncation normalizes
    with pytest.raises(ValueError, match="tanh"):
        CatalystSpec.tmsv(25.0)


@pytest.mark.parametrize("r,message", [
    (20.0, "too large: tanh"),
    (math.inf, "too large: tanh"),
    (math.nan, "must be positive, got nan"),
    (-1.0, "must be positive, got -1.0"),
    (0.0, "must be positive, got 0.0"),
])
def test_tmsv_dimension_checks_the_squeezing_as_the_spec_does(r, message):
    # these once raised ZeroDivisionError (tanh^2 r rounds to 1), a
    # conversion error (NaN), or returned 51 for r = -1
    with pytest.raises(ValueError, match=message):
        tmsv_dimension(r)
    with pytest.raises(ValueError, match=message):
        CatalystSpec.tmsv(r)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_tolerances_that_are_not_finite_and_nonnegative_are_refused(tol):
    # a NaN tol once made the entropy screen reject every pair
    message = f"tolerance must be finite and nonnegative, got {tol!r}"
    with pytest.raises(ValueError, match=message):
        necessary_conditions(P_072, Q_062, tol=tol)
    with pytest.raises(ValueError, match=message):
        check_catalysis(P_072, Q_062, CatalystSpec.single_photon(0.7), tol=tol)
    for family in ("single-photon", "tmsv"):
        with pytest.raises(ValueError, match=message):
            search_catalyst_all(P_072, Q_062, family, 0.1, tol=tol)


def test_a_zero_tolerance_is_accepted_by_the_screen_and_the_searches():
    assert necessary_conditions(P_072, Q_062, tol=0.0)
    assert necessary_conditions(Q_062, P_072, tol=0.0) is False
    # the paper's catalyst angle still works with no tolerance at all
    hits = search_catalyst_all(P_072, Q_062, "single-photon", 0.01, tol=0.0)
    assert 0.7 in [round(hit.theta_c, 12) for hit in hits]
    assert search_catalyst_all(P_072, Q_062, "tmsv", 0.06, tol=0.0)


def test_tmsv_vanishing_squeezing_is_the_vacuum():
    # tanh^2 r underflows to 0: one term carries all of the mass, and the
    # check tensors the one-entry vacuum onto the pair, which changes nothing
    assert tmsv_dimension(1e-200) == 1
    assert truncated_tmsv(1e-200).vector.components.tolist() == [1.0]
    bare = compare(P_072, Q_062)
    verdict = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1e-200)).verdict_with
    assert verdict.relation is bare.relation is Relation.INCOMPARABLE
    assert np.allclose(verdict.partial_sum_gaps, bare.partial_sum_gaps, rtol=0, atol=1e-15)


@pytest.mark.parametrize("r", [1e-200, 1.38])
def test_squeezed_vacuum_is_never_materialized(r):
    with pytest.raises(ValueError, match="squeezed-vacuum"):
        catalyst_spectrum(CatalystSpec.tmsv(r))


def test_reference_pair_is_incomparable_and_single_photon_catalyzes():
    report = check_catalysis(P_072, Q_062, CatalystSpec.single_photon(0.7))
    assert report.verdict_without.relation is Relation.INCOMPARABLE
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert report.catalysis_achieved
    assert report.to_dict()["marginal"] is False


def test_reference_pair_tmsv_catalyzes():
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38))
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


def _renyi_mpmath(p, alpha):
    """Renyi entropy of the float entries of p, at 40 digits."""
    xs = [mpmath.mpf(float(x)) for x in p.components if x > 0]
    if math.isinf(alpha):
        return -mpmath.log(max(xs))
    if alpha == 0.0:
        return mpmath.log(sum(1 for x in p.components if x > TOL))
    if alpha == 1.0:
        return -mpmath.fsum(x * mpmath.log(x) for x in xs)
    a = mpmath.mpf(alpha)
    return mpmath.log(mpmath.fsum(x**a for x in xs)) / (1 - a)


def test_screen_decisions_match_mpmath_renyi():
    # k = 3..6 on a 0.03 angle grid, every ordered pair of distinct angles;
    # a pair counts where its least margin S_a(p) - S_a(q) + tol over the
    # orders is 0 exactly (equal supports at order 0) or exceeds 1e-9.
    thetas = [0.03 * i for i in range(1, 27)]
    decided = {True: 0, False: 0}
    with mpmath.workdps(40):
        for k in range(3, 7):
            specs = [spectrum(k, t) for t in thetas]
            ents = [[_renyi_mpmath(p, a) for a in catalysis.ALPHA_GRID] for p in specs]
            for i, p in enumerate(specs):
                for j, q in enumerate(specs):
                    if i == j:
                        continue
                    margins = [sp - sq + TOL for sp, sq in zip(ents[i], ents[j])]
                    if any(abs(m) <= 1e-9 and m != TOL for m in margins):
                        continue
                    want = all(m >= 0 for m in margins)
                    assert necessary_conditions(p, q) is want, (k, thetas[i], thetas[j])
                    decided[want] += 1
    assert decided[True] > 500 and decided[False] > 500, decided


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
    # an infinite grid step used to scan no candidate and report no catalyst
    for family in ("single-photon", "tmsv"):
        for grid, shown in ((math.inf, "inf"), (math.nan, "nan"), (0.0, "0.0"), (-1.0, "-1.0")):
            with pytest.raises(ValueError, match=f"positive and finite, got {shown}$"):
                search_catalyst_all(P_072, Q_062, family, grid)
            with pytest.raises(ValueError, match=f"positive and finite, got {shown}$"):
                search_catalyst(P_072, Q_062, family, grid)


def test_search_rejects_unbounded_grid(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(catalysis, "check_catalysis", no_checks)
    monkeypatch.setattr(catalysis, "compare", no_checks)
    for family, grid in (("single-photon", 1e-12), ("tmsv", 1e-9)):
        with pytest.raises(ValueError, match="candidates"):
            search_catalyst_all(P_072, Q_062, family, grid)


def test_tmsv_truncation_stability():
    # deeper truncations, compared by prefix sums, agree with the closed form
    base_dim = tmsv_dimension(1.38)
    baseline = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38))
    for extra in (10, 40, 90):
        deeper = check_catalysis(P_072, Q_062, truncated_tmsv(1.38, base_dim + extra))
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


def test_squeezed_vacuum_check_is_capped_by_its_closed_form_terms(monkeypatch):
    cap = catalysis.MAX_CLOSED_FORM_TERMS
    # The untruncated check is capped by its n^2 closed-form terms, whatever
    # r: the paper pair's 8 entries take 64 at r = 6 and at r = 10, where a
    # truncation would need about 1.1e6 and 3.4e9 components.
    assert tmsv_dimension(6.0) > cap
    for r in (6.0, 10.0):
        report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(r))
        assert report.verdict_with.relation is Relation.MAJORIZED_BY
        assert report.verdict_with.partial_sum_gaps.size == 0

    def no_closed_form(*args, **kwargs):
        raise AssertionError("a closed form was evaluated")

    # two k = 500 spectra have 1,002 nonzero entries: 1,004,004 terms at any
    # r, refused before any is formed; k = 499 is the largest such pair taken
    monkeypatch.setattr(catalysis, "_threshold_extremes", no_closed_form)
    p, q = spectrum(500, 0.7), spectrum(500, 0.72)
    with pytest.raises(ValueError, match="1004004 closed-form threshold terms"):
        check_catalysis(p, q, CatalystSpec.tmsv(0.1))
    vals = catalysis._gap_entries(spectrum(499, 0.7), spectrum(499, 0.72))[0]
    assert vals.size**2 == cap
    catalysis._check_closed_form(vals, 0.1)


def test_search_rejects_oversized_squeezing_before_any_check(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(catalysis, "check_catalysis", no_checks)
    monkeypatch.setattr(catalysis, "compare", no_checks)
    monkeypatch.setattr(catalysis, "_threshold_extremes", no_checks)
    # at r = 19 the paper pair's entries lie 1.1e16 > 2^53 catalyst powers
    # apart; 25 has tanh^2 r = 1
    for r_max, message in ((19.0, "more than 2\\^53"), (25.0, "tanh")):
        with pytest.raises(ValueError, match=message):
            search_catalyst_all(P_072, Q_062, "tmsv", 0.5, r_max=r_max)
    # two k = 500 spectra take more closed-form terms than the cap at any r
    with pytest.raises(ValueError, match="closed-form threshold terms"):
        search_catalyst_all(spectrum(500, 0.7), spectrum(500, 0.72), "tmsv", 0.5)


def test_squeezing_near_one_is_decided_up_to_the_whole_number_guard(monkeypatch):
    # r = 18.5 puts the paper pair's entries 5.5e15 catalyst powers apart,
    # within 2^53, and is decided; at r = 19 (1.1e16) the closed form would
    # leave the whole numbers and is refused before it is evaluated.
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(18.5))
    assert report.verdict_with.relation is Relation.MAJORIZED_BY

    def no_closed_form(*args, **kwargs):
        raise AssertionError("a closed form was evaluated")

    monkeypatch.setattr(catalysis, "_threshold_extremes", no_closed_form)
    with pytest.raises(ValueError, match="more than 2\\^53"):
        check_catalysis(P_072, Q_062, CatalystSpec.tmsv(19.0))


def test_closed_form_holds_its_allowance_up_to_the_whole_number_guard():
    # The largest float r that the guard accepts for the paper pair puts its
    # entries just within 2^53 catalyst powers apart, where S2 + j S3 passes
    # 2^53. The float extremes still agree with the same segments evaluated
    # at 60 digits with exact indices (to 5e-18 when this was written); the
    # next float r is refused.
    vals, weights = catalysis._gap_entries(P_072, Q_062)

    def within(r):
        try:
            catalysis._check_closed_form(vals, r)
        except ValueError:
            return False
        return True

    lo, hi = 18.0, 19.0
    assert within(lo) and not within(hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if within(mid) else (lo, mid)
    assert 18.5 < lo < 18.52
    for r in (1.38, 6.5, 12.0, 18.0, lo):
        rho = math.tanh(r) ** 2
        got = catalysis._threshold_extremes(vals, weights, np.array([rho]))
        want = closed_form_extremes_mpmath(vals, weights, rho)
        assert abs(float(got[0][0]) - want[0]) <= WINDOW_ALLOWANCE
        assert abs(float(got[1][0]) - want[1]) <= WINDOW_ALLOWANCE
        assert float(want[0]) >= -TOL  # catalysis holds all the way up
    with pytest.raises(ValueError, match="more than 2\\^53"):
        check_catalysis(P_072, Q_062, CatalystSpec.tmsv(hi))


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
        [truncated_tmsv(r, dim) for r in rs],
    ):
        rows = _catalyst_rows(specs)
        mask = catalysis._majorized_by_rows(p, q, rows, 1e-12)
        p_rows = tensor_rows(p, rows)
        gaps = prefix_gaps(p_rows, tensor_rows(q, rows))
        want = []
        for spec, row, row_gaps in zip(specs, p_rows, gaps):
            c = catalyst_spectrum(spec)
            verdict = compare(tensor(p, c), tensor(q, c))
            want.append(verdict.relation is Relation.MAJORIZED_BY)
            # the batched rows and their gaps are bit for bit the one-row ones
            assert np.array_equal(row, tensor(p, c).components)
            assert np.array_equal(row_gaps, verdict.partial_sum_gaps)
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
    monkeypatch.setattr(catalysis, "TMSV_BATCH_TERMS", 100)
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
    refused.append("_majorized_by_rows" if family == "tmsv" else "_threshold_extremes")
    for name in refused:
        monkeypatch.setattr(catalysis, name, refuse)
    assert search_catalyst_all(P_072, Q_062, family, grid) == want
    assert search_catalyst(P_072, Q_062, family, grid) == want[0]


@pytest.mark.parametrize("family,grid", [("tmsv", 0.1), ("single-photon", 0.02)])
def test_search_builds_hits_without_revalidating(monkeypatch, family, grid):
    want = list(reference_search(P_072, Q_062, family, grid))
    calls = []
    for name in ("tmsv", "single_photon"):
        def counted(*args, _make=getattr(CatalystSpec, name), _name=name, **kwargs):
            calls.append(_name)
            return _make(*args, **kwargs)
        monkeypatch.setattr(CatalystSpec, name, counted)
    assert search_catalyst_all(P_072, Q_062, family, grid) == want
    assert calls == ["tmsv"]  # the r_max guard only, for both families


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
    monkeypatch.setattr(catalysis, "_threshold_extremes",
                        lambda vals, weights, rhos: (np.zeros(rhos.size), np.ones(rhos.size)))
    monkeypatch.setattr(catalysis, "_majorized_by_rows",
                        lambda p, q, cats, tol: np.ones(cats.shape[0], dtype=bool))
    hits = search_catalyst_all(P_072, Q_062, family, grid, r_max=r_max)
    return [hit.r if family == "tmsv" else hit.theta_c for hit in hits]


def test_single_photon_rows_square_the_cosine_as_math_does():
    # np.cos(t) ** 2 rounds differently from math.cos(t) ** 2 at about one
    # angle in a thousand; the catalyst rows keep math's bits
    thetas = np.random.default_rng(41).uniform(0.0, math.pi / 2, 10**5)
    c2 = np.array([math.cos(t) ** 2 for t in thetas.tolist()])
    want = normalize_rows(np.stack([c2, 1.0 - c2], axis=1))
    got = catalysis._single_photon_rows(thetas)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("grid", [2e-3, math.pi / 4 / 393])
def test_catalyst_spectrum_is_the_search_row(monkeypatch, grid):
    # Each row a single-photon search decides is catalyst_spectrum at its
    # angle, bit for bit, and both keep the bits of ProbVector([c2, 1 - c2]).
    rows = []
    decide = catalysis._majorized_by_rows

    def recorded(p, q, cats, tol):
        rows.extend(cats)
        return decide(p, q, cats, tol)

    monkeypatch.setattr(catalysis, "_majorized_by_rows", recorded)
    search_catalyst_all(P_072, Q_062, "single-photon", grid)
    thetas = _old_grid(grid, math.pi / 4)
    assert len(rows) == len(thetas)
    for theta, row in zip(thetas, rows):
        vec = catalyst_spectrum(CatalystSpec.single_photon(theta)).components
        c2 = math.cos(theta) ** 2
        assert np.array_equal(vec, row), theta
        assert np.array_equal(vec, ProbVector([c2, 1.0 - c2]).components), theta


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
        raise AssertionError("a closed form was checked or evaluated")

    monkeypatch.setattr(catalysis, "_check_closed_form", refuse)
    monkeypatch.setattr(catalysis, "_threshold_extremes", refuse)
    assert search_catalyst_all(P_072, Q_062, "tmsv", 0.5, r_max=0.3) == []
    assert search_catalyst(P_072, Q_062, "tmsv", 0.5, r_max=0.3) is None


#: Allowed distance between the float threshold extremes and the exact ones.
#: Each closed-form gap sums about 2n terms below one, for n nonzero
#: entries; over 1,500 random pairs drawn as below the extremes stayed within
#: 2.8e-16 of the exact ones, so 1e-14 leaves a margin of about 36 and is 1%
#: of the tolerance.
WINDOW_ALLOWANCE = 1e-14


@st.composite
def weight_vectors(draw):
    """Probability vectors from integer weights 0..20 over 1 to 6 entries:
    equal and unequal supports, and entries within a factor 20 of each other,
    so that the exact oracle's windows stay small."""
    weights = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))
    if not any(weights):
        weights[0] = 1
    return ProbVector(np.array(weights, dtype=float) / sum(weights))


def _extremes(p, q, r):
    vals, weights = catalysis._gap_entries(p, q)
    lo, hi = catalysis._threshold_extremes(vals, weights, np.array([math.tanh(r) ** 2]))
    return float(lo[0]), float(hi[0])


@settings(max_examples=60, deadline=None)
@given(p=weight_vectors(), q=weight_vectors(), r=st.floats(0.05, 3.0))
@example(p=P_072, q=Q_062, r=1.38)
@example(p=ProbVector([0.7, 0.3]), q=ProbVector([0.8, 0.19, 0.01]), r=3.0)
@example(p=ProbVector([0.5, 0.3, 0.2]), q=ProbVector([0.5, 0.3, 0.2]), r=2.0)
def test_closed_form_verdict_matches_exact_rationals(p, q, r):
    want_lo, want_hi = exact_threshold_extremes(p, q, r)
    lo, hi = _extremes(p, q, r)
    assert abs(lo - want_lo) <= WINDOW_ALLOWANCE
    assert abs(hi - want_hi) <= WINDOW_ALLOWANCE
    verdict = check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with
    assert verdict.partial_sum_gaps.size == 0 and verdict.first_violation is None
    majorized = verdict.relation in (Relation.MAJORIZED_BY, Relation.EQUAL)
    assert majorized == (lo >= -TOL)
    if abs(want_lo + TOL) > WINDOW_ALLOWANCE and abs(want_hi - TOL) > WINDOW_ALLOWANCE:
        below, above = want_lo >= -TOL, want_hi <= TOL
        want = {(True, True): Relation.EQUAL, (True, False): Relation.MAJORIZED_BY,
                (False, True): Relation.MAJORIZES, (False, False): Relation.INCOMPARABLE}
        assert verdict.relation is want[below, above]


@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 1.12, 1.14, 2.0, 3.0])
def test_paper_pair_verdict_matches_exact_rationals(r):
    # The paper's pair across the onset of catalysis, which the exact oracle
    # puts between r = 1.12 (least gap about -7.7e-4) and r = 1.14 (least gap 0)
    want_lo, want_hi = exact_threshold_extremes(P_072, Q_062, r)
    lo, hi = _extremes(P_072, Q_062, r)
    assert abs(lo - want_lo) <= WINDOW_ALLOWANCE
    assert abs(hi - want_hi) <= WINDOW_ALLOWANCE
    want = gap_relation(float(want_lo), float(want_hi), TOL)
    assert want is (Relation.MAJORIZED_BY if r >= 1.14 else Relation.INCOMPARABLE)
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(r))
    assert report.verdict_with.relation is want
    assert report.catalysis_achieved == (r >= 1.14)


def test_violation_below_every_first_product_is_found_by_the_last_segment():
    # q has one entry more than p, 2e-11, far below the rest: every gap down
    # to the smallest first product (1 - rho) a_min is nonnegative, and only
    # below it, where every entry is switched on for every base entry (the
    # last segment, with its drift -j Delta t), is MajorizedBy ruled out, by
    # about 4.5e-12
    p = ProbVector([0.3, 0.7])
    q = ProbVector([0.95, 0.05 - 2e-11, 2e-11])
    verdict = check_catalysis(p, q, CatalystSpec.tmsv(1.5)).verdict_with
    assert verdict.relation is Relation.INCOMPARABLE
    want_lo, _ = exact_threshold_extremes(p, q, 1.5)
    assert want_lo < -4 * TOL
    assert abs(_extremes(p, q, 1.5)[0] - want_lo) <= WINDOW_ALLOWANCE
    rho = math.tanh(1.5) ** 2
    assert sorted_threshold_gaps(p, q, 1.5, (1.0 - rho) * 2e-11).min() >= 0.0


def test_pair_with_a_subnormal_entry_is_decided():
    # 0.7 / 1e-320 overflows a float, but the entries' log distance does not:
    # the pair is decided as the truncated test decides it, not refused.
    p = ProbVector([0.6, 0.4 - 1e-320, 1e-320])
    q = ProbVector([0.75, 0.25])
    for r in (1.0, 2.0):
        c = truncated_tmsv(r).vector
        want = compare(tensor(p, c), tensor(q, c)).relation
        assert check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with.relation is want


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


#: Pairs whose nonzero entries span from about 1e-35 (k = 100 near pi/4) to
#: 1e-261 (k = 100 at small angles); a window of their products would hold
#: millions of terms at r = 3.
WIDE_PAIRS = [
    (spectrum(100, 0.78), spectrum(100, 0.74)),
    (spectrum(100, 0.05), spectrum(100, 0.06)),
]


@pytest.mark.parametrize("p,q", WIDE_PAIRS)
def test_wide_range_pair_is_decided_as_the_truncated_test_decides(p, q):
    # The truncated test tensors a 2,787-term catalyst onto both 101-vectors
    # at r = 3; the closed form takes 202^2 terms and the success set is the
    # same.
    assert search_catalyst_all(p, q, "tmsv", 0.5) == list(reference_search(p, q, "tmsv", 0.5))
    for r in (0.3, 2.5, 3.0):
        c = truncated_tmsv(r).vector
        want = compare(tensor(p, c), tensor(q, c)).relation
        assert check_catalysis(p, q, CatalystSpec.tmsv(r)).verdict_with.relation is want


@pytest.mark.parametrize("pair,r", [(0, 0.3), (0, 0.6), (0, 1.0), (0, 1.5), (1, 0.3), (1, 0.6)])
def test_wide_range_pair_extremes_match_exact_rationals(pair, r):
    # As far as the exact oracle's window of big integers is affordable (its
    # terms grow as the decades spanned over |log rho|, and their bits with
    # them); r up to 3 is compared with the truncated test above.
    p, q = WIDE_PAIRS[pair]
    want_lo, want_hi = exact_threshold_extremes(p, q, r)
    lo, hi = _extremes(p, q, r)
    assert abs(lo - want_lo) <= WINDOW_ALLOWANCE
    assert abs(hi - want_hi) <= WINDOW_ALLOWANCE


def test_single_and_batched_closed_forms_are_bit_identical(monkeypatch):
    # Each ratio's extremes are the same bits alone, in one block of the
    # whole grid, and in a search whose blocks split the grid mid-way.
    for p, q, grid in ((P_072, Q_062, 0.06), (*SEARCH_PAIRS[-1], 0.06), (*WIDE_PAIRS[0], 0.5)):
        vals, weights = catalysis._gap_entries(p, q)
        rs = _old_grid(grid, 3.0)
        rhos = np.array([math.tanh(r) ** 2 for r in rs])
        lo, hi = catalysis._threshold_extremes(vals, weights, rhos)
        for i in range(rhos.size):
            one = catalysis._threshold_extremes(vals, weights, rhos[i:i + 1])
            assert (one[0].tobytes(), one[1].tobytes()) == (lo[i:i + 1].tobytes(),
                                                            hi[i:i + 1].tobytes())
        blocks = []
        kernel = catalysis._threshold_extremes

        def spy(vals, weights, rhos):
            blocks.append(kernel(vals, weights, rhos))
            return blocks[-1]

        with monkeypatch.context() as patch:
            patch.setattr(catalysis, "TMSV_BATCH_TERMS", 4 * vals.size**2 + 1)
            patch.setattr(catalysis, "_threshold_extremes", spy)
            hits = search_catalyst_all(p, q, "tmsv", grid)
        assert len(blocks) == -(-len(rs) // 4) > 1
        assert np.concatenate([b[0] for b in blocks]).tobytes() == lo.tobytes()
        assert np.concatenate([b[1] for b in blocks]).tobytes() == hi.tobytes()
        assert hits == list(catalysis._search(p, q, "tmsv", grid, 3.0, TOL))


def _scan_corpus():
    """The paper's pair and two seeded pairs for each k = 3 ... 6, incomparable
    and passing the entropy screen, at angles drawn as the catalyst-scan
    benchmark draws them."""
    pairs = [(P_072, Q_062)]
    rng = np.random.default_rng(16)
    for k in (3, 3, 4, 4, 5, 5, 6, 6):
        while True:
            p, q = (spectrum(k, t) for t in rng.uniform(0.2, math.pi / 4 - 0.02, size=2))
            if compare(p, q).relation is Relation.INCOMPARABLE and necessary_conditions(p, q):
                break
        pairs.append((p, q))
    return pairs


SCAN_CORPUS = _scan_corpus()


@pytest.mark.parametrize("terms", [2**6, 2**10, 2**11, 2**12, 2**14])
def test_block_size_changes_nothing_on_the_scan_corpus(monkeypatch, terms):
    # Blocks of 1 candidate (2^6) up to the whole 50-point grid in one (2^14)
    rs = _old_grid(0.06, 3.0)
    found = 0
    for p, q in SCAN_CORPUS:
        vals, weights = catalysis._gap_entries(p, q)
        lo, hi = catalysis._threshold_extremes(vals, weights,
                                               np.array([math.tanh(r) ** 2 for r in rs]))
        want = [rs[i] for i in np.flatnonzero(majorized_by_mask(lo, hi, TOL))]
        blocks = []
        kernel = catalysis._threshold_extremes

        def spy(vals, weights, rhos):
            blocks.append(kernel(vals, weights, rhos))
            return blocks[-1]

        with monkeypatch.context() as patch:
            patch.setattr(catalysis, "TMSV_BATCH_TERMS", terms)
            patch.setattr(catalysis, "_threshold_extremes", spy)
            hits = search_catalyst_all(p, q, "tmsv", 0.06)
        assert len(blocks) == -(-len(rs) // max(1, terms // vals.size**2))
        assert np.concatenate([b[0] for b in blocks]).tobytes() == lo.tobytes()
        assert np.concatenate([b[1] for b in blocks]).tobytes() == hi.tobytes()
        assert [hit.r for hit in hits] == want
        found += bool(want)
    assert found >= len(SCAN_CORPUS) // 2


def test_scan_corpus_passes_per_photon_number(monkeypatch):
    # The production block size on the 50-point grid: pairs of k = 3 ... 6
    # photons have n = 2(k + 1) nonzero entries, so 4096 // n^2 ratios a pass.
    passes = []
    kernel = catalysis._threshold_extremes

    def spy(vals, weights, rhos):
        passes[-1] += 1
        return kernel(vals, weights, rhos)

    monkeypatch.setattr(catalysis, "_threshold_extremes", spy)
    counts = {}
    for p, q in SCAN_CORPUS:
        passes.append(0)
        search_catalyst_all(p, q, "tmsv", 0.06, r_max=3.0)
        counts.setdefault(p.dim - 1, set()).add(passes[-1])
    assert counts == {3: {1}, 4: {2}, 5: {2}, 6: {3}}


def _matches_dense_kernel(vals, weights, rhos):
    lo, hi = catalysis._threshold_extremes(vals, weights, rhos)
    want_lo, want_hi = dense_threshold_extremes(vals, weights, rhos)
    return np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_extremes_match_the_dense_kernel_bit_for_bit():
    # Pairs of beam-splitter spectra and Dirichlet vectors of up to 11
    # entries each, decided in blocks of 1 to 40 ratios
    rng = np.random.default_rng(14)

    def draw():
        k = int(rng.integers(0, 11))
        if rng.random() < 0.5:
            return spectrum(k, float(rng.uniform(0.01, 1.5)))
        return ProbVector(rng.dirichlet(np.ones(k + 1)))

    for _ in range(2000):
        vals, weights = catalysis._gap_entries(draw(), draw())
        rhos = np.tanh(rng.uniform(0.001, 5.0, int(rng.integers(1, 41)))) ** 2
        assert _matches_dense_kernel(vals, weights, rhos)


@pytest.mark.parametrize("p,q", [*WIDE_PAIRS, (spectrum(200, 0.78), spectrum(200, 0.74)),
                                 (spectrum(499, 0.7), spectrum(499, 0.72))])
def test_wide_pair_extremes_match_the_dense_kernel_bit_for_bit(p, q):
    # From r = 0.01, where most segments are empty, to r = 12
    vals, weights = catalysis._gap_entries(p, q)
    for r in (0.01, 0.06, 1.0, 3.0, 12.0):
        assert _matches_dense_kernel(vals, weights, np.array([math.tanh(r) ** 2]))


@pytest.mark.parametrize("r", [0.06, 1.0, 3.0, 12.0])
def test_check_at_the_closed_form_cap_allocates_at_most_80_mib(r):
    # n = 1,000 entries, n^2 = MAX_CLOSED_FORM_TERMS terms. The dense kernel
    # peaked at 107.8 MiB at every r; the nonempty segments peak at 46 MiB
    # (r = 0.06) to 61 MiB (r >= 6). numpy reports its buffers to tracemalloc.
    p, q, spec = spectrum(499, 0.7), spectrum(499, 0.72), CatalystSpec.tmsv(r)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        check_catalysis(p, q, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20


def test_inputs_past_the_old_window_cap_are_decided():
    # The paper pair at r = 6.5 needed a window of 1.44e6 products, and
    # bs:100,0.78 against bs:100,0.74 at r = 4 one of 8.5e6: both were
    # refused. The first is checked against every product of its
    # self-similar window, sorted in float (D(rho t) = rho D(t) below it,
    # since the supports are equal); the second against its 20,592-term
    # truncation, compared by prefix sums.
    rho = math.tanh(6.5) ** 2
    a_min = min(P_072.components.min(), Q_062.components.min())
    gaps = sorted_threshold_gaps(P_072, Q_062, 6.5, rho * (1.0 - rho) * a_min)
    assert gaps.size > 1.4e6
    lo, hi = _extremes(P_072, Q_062, 6.5)
    assert abs(lo - gaps.min()) <= 1e-13 and abs(hi - gaps.max()) <= 1e-13
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(6.5))
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert gap_relation(gaps.min(), gaps.max(), TOL) is Relation.MAJORIZED_BY

    p, q = WIDE_PAIRS[0]
    c = truncated_tmsv(4.0).vector.components
    assert c.size == 20592
    ps, qs = (np.sort(np.multiply.outer(v.components, c).ravel())[::-1] for v in (p, q))
    prefix = np.cumsum(qs) - np.cumsum(ps)
    want = gap_relation(prefix.min(), prefix.max(), TOL)
    assert want is Relation.MAJORIZED_BY
    assert check_catalysis(p, q, CatalystSpec.tmsv(4.0)).verdict_with.relation is want
