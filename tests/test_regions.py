import math
import sys

import mpmath
import numpy as np
import pytest

from bsmaj import (
    AmbiguousOrderingError,
    InfinitesimalStatus,
    Relation,
    accumulation_derivatives,
    compare,
    component_derivatives,
    find_crossovers,
    infinitesimal_verdict,
    positivity_bound,
    region1_closed_form,
    sort_desc,
    spectrum,
)
from bsmaj import beamsplitter, regions
from bsmaj.regions import QUARTER_PI

from conftest import central_difference, reference_partition

THETA1_K3 = math.atan(1 / math.sqrt(3))  # 0.5235987755982988
THETA2_K3 = math.atan(3 ** -0.25)        # 0.6497662865344379
CROSS_K2 = math.atan(1 / math.sqrt(2))   # 0.6154797086703873


def sorted_prefix_at(k, theta, j):
    comps = np.sort(spectrum(k, theta).components)[::-1]
    return float(np.cumsum(comps)[j])


# ---------------------------------------------------------------------------
# crossovers


def test_single_photon_has_single_region():
    part = find_crossovers(1)
    assert part.crossovers == ()
    assert part.n_regions == 1
    assert part.orderings == ((1, 0),)


def test_two_photon_crossover():
    part = find_crossovers(2)
    assert len(part.crossovers) == 1
    assert part.crossovers[0] == pytest.approx(CROSS_K2, abs=1e-12)


def test_three_photon_crossovers():
    part = find_crossovers(3)
    assert len(part.crossovers) == 2
    assert part.crossovers[0] == pytest.approx(0.5235988, abs=1e-6)
    assert part.crossovers[1] == pytest.approx(0.6498305, abs=1e-4)
    assert part.crossovers[0] == pytest.approx(THETA1_K3, abs=1e-12)
    assert part.crossovers[1] == pytest.approx(THETA2_K3, abs=1e-12)


def test_three_photon_orderings():
    part = find_crossovers(3)
    assert part.orderings == ((3, 2, 1, 0), (2, 3, 1, 0), (2, 1, 3, 0))


def test_region_of_half_open_convention():
    part = find_crossovers(3)
    assert part.region_of(0.0) == 1
    assert part.region_of(THETA1_K3 - 1e-9) == 1
    assert part.region_of(part.crossovers[0]) == 2  # crossover joins the right region
    assert part.region_of(0.7) == 3
    with pytest.raises(ValueError):
        part.region_of(QUARTER_PI)


@pytest.mark.parametrize("k", range(2, 9))
def test_crossover_pairs_are_equal_eigenvalues(k):
    part = find_crossovers(k)
    for theta, group in zip(part.crossovers, part.pairs):
        comps = spectrum(k, theta).components
        deriv = component_derivatives(k, theta)
        for n, m in group:
            assert abs(comps[n] - comps[m]) <= 1e-12
            # the components genuinely cross: their slopes differ
            assert abs(deriv[n] - deriv[m]) > 1e-6


@pytest.mark.parametrize("k", range(1, 9))
def test_ordering_constant_within_regions(k):
    part = find_crossovers(k)
    boundaries = [0.0, *part.crossovers, QUARTER_PI]
    for r, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        samples = np.linspace(lo + 1e-7, hi - 1e-7, 5)
        perms = {sort_desc(spectrum(k, float(t))).perm for t in samples}
        assert perms == {part.orderings[r]}


def test_first_crossover_swaps_top_two():
    # Region 1 ends where the two largest components meet, at arctan(1/sqrt(k)).
    for k in range(2, 12):
        part = find_crossovers(k)
        assert part.crossovers[0] == pytest.approx(
            math.atan(1 / math.sqrt(k)), abs=1e-12
        )
        assert part.orderings[0][:2] == (k, k - 1)
        assert part.orderings[1][:2] == (k - 1, k)


def test_find_crossovers_rejects_k0():
    with pytest.raises(ValueError):
        find_crossovers(0)


@pytest.mark.parametrize("k", [*range(1, 101), 150, 200])
def test_partition_matches_reference(k):
    # Covers both spectrum regimes: direct up to k=60, log space above.
    part, ref = find_crossovers(k), reference_partition(k)
    assert part.crossovers == ref.crossovers
    assert part.pairs == ref.pairs
    assert part.orderings == ref.orderings


@pytest.mark.parametrize("k,rows", [(4, 2), (9, 4), (61, 2), (70, 3)])
def test_orderings_across_chunk_boundaries(monkeypatch, k, rows):
    monkeypatch.setattr(beamsplitter, "ROW_ENTRIES", rows * (k + 1) + k)
    part = find_crossovers(k)
    assert part.n_regions % rows != 0  # a partial last chunk
    assert part.orderings == reference_partition(k).orderings


def test_find_crossovers_bounds_partition_size():
    limit = regions.MAX_REGION_ENTRIES
    largest = max(k for k in range(1, 400) if (k + 1) * (k * (k + 1) // 2 + 1) <= limit)
    assert find_crossovers(largest).n_regions > 1
    with pytest.raises(ValueError, match="ordering entries"):
        find_crossovers(largest + 1)
    with pytest.raises(ValueError, match="ordering entries"):
        find_crossovers(1100)


def test_crossings_beyond_float_range_of_binomials():
    # C(1100, 550) exceeds the largest float, so quotients of binomials
    # overflow or fall below the smallest normal float; every pair with
    # C(k,n) < C(k,m) still crosses once inside (0, pi/4).
    k = 1100
    binom = [math.comb(k, j) for j in range(k + 1)]
    crossing = [(n, m) for n in range(1, k + 1) for m in range(n) if binom[n] < binom[m]]
    crossovers, pairs = regions._crossings(k)
    assert sorted(pair for group in pairs for pair in group) == sorted(crossing)
    assert all(b - a > 0 for a, b in zip(crossovers, crossovers[1:]))

    mpmath.mp.dps = 40
    tiny = {(n, m) for n, m in crossing if binom[n] / binom[m] < sys.float_info.min}
    assert len(tiny) == 2078
    angle = {group[0]: theta for theta, group in zip(crossovers, pairs) if len(group) == 1}
    for n, m in sorted(tiny)[::300]:
        ratio = mpmath.mpf(binom[n]) / binom[m]
        want = mpmath.atan(ratio ** (mpmath.mpf(1) / (2 * (n - m))))
        assert abs(angle[n, m] - float(want)) <= 1e-12


# ---------------------------------------------------------------------------
# derivatives


def test_component_derivatives_match_finite_differences():
    for k in (1, 4, 9):
        for theta in (0.1, 0.4, 0.7):
            deriv = component_derivatives(k, theta)
            for n in range(k + 1):
                fd = central_difference(
                    lambda t, n=n, k=k: float(spectrum(k, t).components[n]), theta
                )
                assert deriv[n] == pytest.approx(fd, abs=1e-9)


def test_component_derivatives_finite_at_endpoints():
    for k in (1, 3, 10):
        assert np.all(np.isfinite(component_derivatives(k, 0.0)))
        assert np.allclose(component_derivatives(k, 0.0), 0.0, atol=0.0)


def test_accumulation_zero_at_theta_zero():
    acc = accumulation_derivatives(5, 0.0)
    assert acc.values == (0.0,) * 5


def test_accumulation_k2_region2_closed_forms():
    theta = 0.7
    acc = accumulation_derivatives(2, theta).values
    assert acc[0] == pytest.approx(math.sin(4 * theta), abs=1e-14)
    assert acc[1] == pytest.approx(
        -4 * math.cos(theta) * math.sin(theta) ** 3, abs=1e-14
    )
    assert acc[0] > 0  # positive throughout the second region


def test_accumulation_k3_region2_closed_forms():
    theta = 0.60
    c, s = math.cos(theta), math.sin(theta)
    acc = accumulation_derivatives(3, theta).values
    assert acc[0] == pytest.approx(
        3 * c**3 * (-1 + 3 * math.cos(2 * theta)) * s, abs=1e-13
    )
    assert acc[1] == pytest.approx(-1.5 * math.sin(2 * theta) ** 3, abs=1e-13)
    assert acc[2] == pytest.approx(-6 * c * s**5, abs=1e-13)


def test_accumulation_k3_region3_closed_forms():
    theta = 0.70
    c, s = math.cos(theta), math.sin(theta)
    acc = accumulation_derivatives(3, theta).values
    assert acc[0] == pytest.approx(
        3 * c**3 * (-1 + 3 * math.cos(2 * theta)) * s, abs=1e-13
    )
    assert acc[1] == pytest.approx(1.5 * math.sin(4 * theta), abs=1e-13)
    assert acc[2] == pytest.approx(-6 * c * s**5, abs=1e-13)
    assert acc[0] < 0 and acc[1] > 0 and acc[2] < 0


def test_last_accumulation_closed_form_and_sign():
    # The final stored accumulation derivative is -2k sin^(2k-1) cos, which
    # is strictly negative away from the endpoints: majorization in the
    # opposite direction is never possible.
    for k in range(1, 9):
        crossings = find_crossovers(k).crossovers if k >= 1 else ()
        for theta in np.linspace(0.02, QUARTER_PI - 0.02, 25):
            theta = float(theta)
            if any(abs(theta - c) < 1e-6 for c in crossings):
                continue
            acc = accumulation_derivatives(k, theta).values
            want = -2 * k * math.sin(theta) ** (2 * k - 1) * math.cos(theta)
            assert acc[k - 1] == pytest.approx(want, abs=1e-13)
            assert want < 0
            # the computed value may sit at the roundoff floor when the
            # closed form is analytically tiny
            assert acc[k - 1] < 1e-15


def test_accumulation_matches_prefix_sum_finite_differences():
    for k in range(1, 11):
        crossings = find_crossovers(k).crossovers
        for theta in np.linspace(0.01, QUARTER_PI - 0.01, 15):
            theta = float(theta)
            if any(abs(theta - c) < 5e-5 for c in crossings):
                continue
            acc = accumulation_derivatives(k, theta).values
            for j in range(k):
                fd = central_difference(
                    lambda t, j=j, k=k: sorted_prefix_at(k, t, j), theta
                )
                assert acc[j] == pytest.approx(fd, abs=1e-7)


def test_accumulation_raises_on_crossover():
    with pytest.raises(AmbiguousOrderingError):
        accumulation_derivatives(2, CROSS_K2)
    with pytest.raises(AmbiguousOrderingError):
        accumulation_derivatives(3, QUARTER_PI)


def test_accumulation_rejects_angles_beyond_quarter_pi():
    with pytest.raises(ValueError):
        accumulation_derivatives(2, 1.0)


# ---------------------------------------------------------------------------
# first-region closed form


def test_region1_closed_form_matches_accumulation():
    for k in range(1, 9):
        theta1 = math.atan(1 / math.sqrt(k))
        for theta in np.linspace(1e-3, theta1 - 1e-3, 20):
            acc = accumulation_derivatives(k, float(theta)).values
            for j in range(k):
                cf = region1_closed_form(k, j, float(theta))
                assert cf == pytest.approx(acc[j], abs=1e-10)
                assert cf <= 0.0


def test_region1_closed_form_last_index_reduces():
    for k in (1, 2, 5):
        for theta in (0.05, 0.2):
            want = -2 * k * math.sin(theta) ** (2 * k - 1) * math.cos(theta)
            assert region1_closed_form(k, k - 1, theta) == pytest.approx(
                want, abs=1e-15
            )


def test_region1_closed_form_zero_at_origin():
    for j in range(4):
        assert region1_closed_form(4, j, 0.0) == 0.0


def test_region1_closed_form_matches_finite_difference():
    fd = central_difference(lambda t: sorted_prefix_at(2, t, 0), 0.3)
    assert region1_closed_form(2, 0, 0.3) == pytest.approx(fd, abs=1e-8)


def test_region1_closed_form_rejects_bad_j():
    with pytest.raises(ValueError):
        region1_closed_form(3, 3, 0.2)
    with pytest.raises(ValueError):
        region1_closed_form(3, -1, 0.2)


# ---------------------------------------------------------------------------
# infinitesimal verdicts


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 20])
def test_region1_verdict_holds(k):
    theta1 = find_crossovers(k).crossovers[0] if k >= 2 else QUARTER_PI
    for theta in np.linspace(0.0, theta1 - 1e-6, 12):
        verdict = infinitesimal_verdict(k, float(theta))
        assert verdict.status is InfinitesimalStatus.HOLDS


def test_k2_verdict_violated_just_past_crossover():
    verdict = infinitesimal_verdict(2, CROSS_K2 + 1e-9)
    assert verdict.status is InfinitesimalStatus.VIOLATED
    assert verdict.first_violation == 0


def test_k3_region3_always_violated():
    # The positive accumulation derivative is the second one, whose closed
    # form is (3/2) sin(4 theta); the states on either side of an
    # infinitesimal step are incomparable throughout the third region.
    for theta in np.linspace(THETA2_K3 + 1e-6, QUARTER_PI - 1e-6, 12):
        verdict = infinitesimal_verdict(3, float(theta))
        assert verdict.status is InfinitesimalStatus.VIOLATED
        assert verdict.first_violation == 1
        assert verdict.derivatives.values[1] == pytest.approx(
            1.5 * math.sin(4 * float(theta)), abs=1e-12
        )


def test_k3_region2_descent_window_violated():
    for theta in np.linspace(THETA1_K3 + 1e-6, CROSS_K2 - 1e-6, 12):
        verdict = infinitesimal_verdict(3, float(theta))
        assert verdict.status is InfinitesimalStatus.VIOLATED
        assert verdict.first_violation == 0


def test_k3_region2_right_part_holds():
    for theta in np.linspace(CROSS_K2 + 1e-6, THETA2_K3 - 1e-6, 12):
        verdict = infinitesimal_verdict(3, float(theta))
        assert verdict.status is InfinitesimalStatus.HOLDS


def test_verdict_boundary_at_crossover_and_quarter_pi():
    assert (
        infinitesimal_verdict(2, CROSS_K2).status is InfinitesimalStatus.BOUNDARY
    )
    assert (
        infinitesimal_verdict(2, QUARTER_PI).status is InfinitesimalStatus.BOUNDARY
    )


def test_verdict_scans_crossovers_once(monkeypatch):
    # A verdict needs the crossover angles once and never the orderings.
    calls, built = [], []
    scan, order = regions._crossings, regions._orderings

    def counted(k):
        calls.append(k)
        return scan(k)

    def counted_orderings(k, crossovers):
        built.append(k)
        return order(k, crossovers)

    monkeypatch.setattr(regions, "_crossings", counted)
    monkeypatch.setattr(regions, "_orderings", counted_orderings)
    for theta, status in ((0.1, "Holds"), (0.7, "Violated"), (THETA1_K3, "Boundary")):
        calls.clear()
        assert infinitesimal_verdict(3, theta).status.value == status
        assert calls == [3]
    assert built == []


def test_verdict_k0_trivially_holds():
    verdict = infinitesimal_verdict(0, 0.3)
    assert verdict.status is InfinitesimalStatus.HOLDS
    assert verdict.derivatives.values == ()


def test_holds_window_implies_majorization():
    # If the verdict holds across a within-region window, the endpoint
    # spectra are ordered: larger angle majorized by smaller.
    windows = [(3, 0.20, 0.45), (3, 0.62, 0.645), (2, 0.1, 0.5), (5, 0.05, 0.35)]
    for k, lo, hi in windows:
        grid = np.linspace(lo, hi, 40)
        assert all(
            infinitesimal_verdict(k, float(t)).status is InfinitesimalStatus.HOLDS
            for t in grid
        )
        verdict = compare(spectrum(k, hi), spectrum(k, lo))
        assert verdict.relation is Relation.MAJORIZED_BY


# ---------------------------------------------------------------------------
# positivity bound


def test_positivity_bound_values():
    assert positivity_bound(2, 1) == pytest.approx(math.pi / 4, abs=1e-15)
    assert positivity_bound(3, 1) == pytest.approx(math.atan(0.5), abs=1e-15)


def test_positivity_bound_exact_root_in_balanced_case():
    # When k = 2n the bound coincides with the exact sign change of the
    # matching component derivative (the component with original index k-n).
    for k, n in [(2, 1), (4, 2), (6, 3), (8, 4)]:
        theta = positivity_bound(k, n)
        deriv = component_derivatives(k, theta)[k - n]
        assert abs(deriv) < 1e-10


def test_positivity_bound_covers_region_leaders():
    # Whenever a region leader's derivative eventually turns negative, the
    # sign change happens no later than the bound evaluated one index up
    # (second component, third component, ... in 1-based counting).
    for k in range(2, 21):
        part = find_crossovers(k)
        for ordering in part.orderings[1:]:
            lead = ordering[0]
            m = k - lead  # first-region parameterization index of the leader
            true_zero = math.atan(math.sqrt((k - lead) / lead))
            bound = (
                positivity_bound(k, m + 1) if m + 1 <= k - 1 else math.pi / 2
            )
            assert true_zero <= bound + 1e-12


def test_positivity_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        positivity_bound(3, 0)
    with pytest.raises(ValueError):
        positivity_bound(3, 3)
