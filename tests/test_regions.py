import dataclasses
import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsmaj import (
    AmbiguousOrderingError,
    InfinitesimalStatus,
    Relation,
    accumulation_derivatives,
    compare,
    component_derivatives,
    find_crossovers,
    infinitesimal_verdict,
    photon_chain_check,
    positivity_bound,
    region1_closed_form,
    sort_desc,
    spectrum,
)
from bsmaj import beamsplitter, cli, regions
from bsmaj.cli import main
from bsmaj.regions import QUARTER_PI, TOL

from conftest import central_difference, descends_in_mpmath, reference_partition

THETA1_K3 = math.atan(1 / math.sqrt(3))  # 0.5235987755982988
THETA2_K3 = math.atan(3 ** -0.25)        # 0.6497662865344379
CROSS_K2 = math.atan(1 / math.sqrt(2))   # 0.6154797086703873


def fields(part):
    """Every field of a partition, its orderings as lists of ints."""
    return part.k, part.crossovers, part.pairs, part.orderings.tolist()


def orderings_replay(k, pairs):
    """The tuple replay ``regions._orderings`` replaced, kept as its
    reference: each region's ordering as a tuple, from the crossing swaps."""
    order = list(range(k, -1, -1))
    where = order[:]
    out = [tuple(order)]
    for group in pairs:
        for n, m in group:
            i, j = where[n], where[m]
            order[i], order[j] = m, n
            where[n], where[m] = j, i
        out.append(tuple(order))
    return tuple(out)


def sorted_prefix_at(k, theta, j):
    comps = np.sort(spectrum(k, theta).components)[::-1]
    return float(np.cumsum(comps)[j])


# ---------------------------------------------------------------------------
# crossovers


def test_single_photon_has_single_region():
    part = find_crossovers(1)
    assert part.crossovers == ()
    assert part.n_regions == 1
    assert part.orderings.tolist() == [[1, 0]]


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
    assert part.orderings.tolist() == [[3, 2, 1, 0], [2, 3, 1, 0], [2, 1, 3, 0]]


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
        assert perms == {tuple(part.orderings[r].tolist())}


def test_first_crossover_swaps_top_two():
    # Region 1 ends where the two largest components meet, at arctan(1/sqrt(k)).
    for k in range(2, 12):
        part = find_crossovers(k)
        assert part.crossovers[0] == pytest.approx(
            math.atan(1 / math.sqrt(k)), abs=1e-12
        )
        assert part.orderings[0, :2].tolist() == [k, k - 1]
        assert part.orderings[1, :2].tolist() == [k - 1, k]


@pytest.mark.parametrize("k", [1, 2, 3, 30, 160, 341])
def test_orderings_are_a_read_only_int16_table(k):
    part = find_crossovers(k)
    table = part.orderings
    assert type(table) is np.ndarray and table.dtype == np.int16
    assert table.shape == (part.n_regions, k + 1)
    assert table.flags.c_contiguous and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = table[0, 0]
    with pytest.raises(ValueError):
        table.flags.writeable = True  # the memo's partition is shared
    assert (np.sort(table, axis=1) == np.arange(k + 1)).all()  # every row a permutation


@pytest.mark.parametrize("k", [*range(1, 121), 200, 326, 341])
def test_orderings_equal_the_tuple_replay(k):
    pairs = regions._crossings(k)[1]
    assert find_crossovers(k).orderings.tolist() == list(map(list, orderings_replay(k, pairs)))


@pytest.mark.parametrize("k", [1, 3, 30, 123])
def test_regions_prints_the_same_bytes_for_table_and_tuple_orderings(monkeypatch, cli_runner, k):
    part = find_crossovers(k)
    tuples = dataclasses.replace(part, orderings=orderings_replay(k, part.pairs))
    table = cli_runner.invoke(main, ["regions", "--k", str(k)], catch_exceptions=False)
    monkeypatch.setattr(cli, "find_crossovers", lambda _: tuples)
    replay = cli_runner.invoke(main, ["regions", "--k", str(k)], catch_exceptions=False)
    assert table.exit_code == replay.exit_code == 0
    assert table.stdout_bytes == replay.stdout_bytes


def test_find_crossovers_rejects_k0():
    with pytest.raises(ValueError):
        find_crossovers(0)


#: Largest k whose float spectrum has at most one component 0.0 at every
#: region midpoint, so that no zeros tie in the float sort.
FLOAT_EXACT_K = 122


def region_midpoints(part):
    bounds = [0.0, *part.crossovers, QUARTER_PI]
    return [0.5 * (lo + hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("k", [*range(1, 101), 150, 200])
def test_partition_matches_reference(k):
    # Covers both spectrum regimes: direct up to k=60, log space above.
    part, ref = find_crossovers(k), reference_partition(k)
    assert part.crossovers == ref.crossovers
    assert part.pairs == ref.pairs
    if k <= FLOAT_EXACT_K:
        assert part.orderings.tolist() == [list(order) for order in ref.orderings]
        return
    # Components that underflow to 0.0 tie in float; the float sort puts
    # them in index order, the orderings in their true order.
    mids = region_midpoints(part)
    for mid, order in zip(mids, part.orderings):
        assert np.all(np.diff(spectrum(k, mid).components[list(order)]) <= 0.0)
    n = part.n_regions
    for r in sorted({0, n // 3, n // 2, 2 * n // 3, n - 1}):
        assert descends_in_mpmath(k, mids[r], part.orderings[r]), r


@pytest.mark.parametrize("k", [4, 9, 61, 70, 123])
def test_find_crossovers_builds_no_spectrum(monkeypatch, k):
    def refuse(*args, **kwargs):
        raise AssertionError("find_crossovers built a spectrum")

    for module, name in ((beamsplitter, "spectrum"), (beamsplitter, "spectrum_rows"),
                         (beamsplitter, "_spectrum_block"), (regions, "spectrum")):
        monkeypatch.setattr(module, name, refuse)
    part = find_crossovers(k)
    assert part.n_regions == len(part.orderings)


def test_region1_ordering_where_float_components_underflow(cli_runner):
    # At k=123 the float spectrum at the first region's midpoint holds two
    # exact zeros, which a float sort would rank in index order.
    k = 123
    want = tuple(range(k, -1, -1))
    part = find_crossovers(k)
    mid = region_midpoints(part)[0]
    assert part.orderings[0].tolist() == list(want)
    assert np.count_nonzero(spectrum(k, mid).components == 0.0) == 2
    assert descends_in_mpmath(k, mid, want)
    result = cli_runner.invoke(main, ["regions", "--k", str(k)], catch_exceptions=False)
    assert result.exit_code == 0
    assert tuple(json.loads(result.output)["results"]["orderings"][0]) == want


def test_merged_crossover_swaps_each_pair():
    # At k=326 two disjoint pairs cross 6.4e-13 apart and share one
    # crossover; the orderings on both sides of it must be exact.
    k = 326
    crossovers, pairs = regions._crossings(k)
    merged = [i for i, group in enumerate(pairs) if len(group) > 1]
    assert merged and sorted(pairs[merged[0]]) == [(199, 143), (297, 41)]
    orderings = regions._orderings(k, pairs)
    bounds = [0.0, *crossovers, QUARTER_PI]
    for i in merged:
        for r in (i, i + 1):  # the regions left and right of crossover i
            mid = 0.5 * (bounds[r] + bounds[r + 1])
            assert descends_in_mpmath(k, mid, orderings[r]), r


def crossings_loop(k):
    """The per-pair loop ``_crossings`` replaced, kept as its reference."""
    binom = [math.comb(k, j) for j in range(k + 1)]
    hits = []
    for n in range(1, k + 1):
        for m in range(n):
            cn, cm = binom[n], binom[m]
            if cn >= cm:
                continue
            ratio = cn / cm
            if ratio >= sys.float_info.min:
                t = ratio ** (1.0 / (2 * (n - m)))
            else:
                t = math.exp((math.log(cn) - math.log(cm)) / (2 * (n - m)))
            theta = math.atan(t)
            if TOL < theta < QUARTER_PI - TOL:
                hits.append((theta, (n, m)))
    hits.sort(key=lambda item: item[0])
    crossovers, pairs = [], []
    for theta, pair in hits:
        if crossovers and abs(theta - crossovers[-1]) <= TOL:
            pairs[-1].append(pair)
        else:
            crossovers.append(theta)
            pairs.append([pair])
    return crossovers, [tuple(group) for group in pairs]


def test_crossings_equal_the_pair_loop():
    for k in range(1, 121):
        assert regions._crossings(k) == crossings_loop(k), k


#: sha256 of the repr of ``crossings_loop(k)``: k = 326 holds a merged
#: crossover, k = 1100 quotients below the smallest normal float, and
#: k = 1936 seven merged angles, the most of any k up to 2047.
CROSSINGS_SHA256 = {
    326: "75ba1f62cd10e6d8a341cd211994195e685bb29bdf82b5d36952dac9978927ed",
    1100: "ad9420efed9ccc2b19884095fb7654a023043d61f0472be2d9f0e593bad170dc",
    1936: "4ad1fb75e21488ea8d7c1a47c85486f229a76ccff81c23d015e12998252c3f11",
}


@pytest.mark.parametrize("k", sorted(CROSSINGS_SHA256))
def test_crossings_equal_the_pair_loop_beyond_k_200(k):
    crossovers, pairs = regions._crossings(k)
    text = repr((crossovers, pairs))
    assert hashlib.sha256(text.encode()).hexdigest() == CROSSINGS_SHA256[k]


def test_crossing_pairs_are_the_pairs_with_the_smaller_binomial():
    for k in range(301):
        binom = [math.comb(k, j) for j in range(k + 1)]
        rank = {c: r for r, c in enumerate(sorted(set(binom)))}
        ranks = np.array([rank[c] for c in binom])
        n, m = np.tril_indices(k + 1, -1)
        smaller = ranks[n] < ranks[m]  # C(k,n) < C(k,m), compared as integers
        got_n, got_m = regions._crossing_pairs(k)
        assert got_n.tolist() == n[smaller].tolist(), k
        assert got_m.tolist() == m[smaller].tolist(), k


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 150), region=st.floats(0.0, 1.0), u=st.floats(0.01, 0.99))
@example(k=123, region=0.0, u=0.5)
@example(k=150, region=0.999, u=0.01)
def test_orderings_descend_in_mpmath_inside_region(k, region, u):
    part = find_crossovers(k)
    r = min(int(region * part.n_regions), part.n_regions - 1)
    bounds = [0.0, *part.crossovers, QUARTER_PI]
    theta = bounds[r] + u * (bounds[r + 1] - bounds[r])
    assert part.region_of(theta) == r + 1
    assert descends_in_mpmath(k, theta, part.orderings[r])


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


@pytest.mark.parametrize("k", [3, 20, 61, 300])
def test_accumulation_equals_the_sort_desc_prefix_sums(k):
    # bit for bit the prefix sums of the component derivatives taken in the
    # order of sort_desc, read back as Python floats
    rng = np.random.default_rng(k)
    for theta in [0.0, *rng.uniform(0.0, QUARTER_PI - 0.01, 8).tolist()]:
        try:
            got = accumulation_derivatives(k, theta).values
        except AmbiguousOrderingError:
            continue
        order = list(sort_desc(spectrum(k, theta)).perm)
        want = np.cumsum(component_derivatives(k, theta)[order])[:k]
        assert got == tuple(float(a) for a in want), theta
        assert all(type(a) is float for a in got)


def test_accumulation_raises_on_crossover():
    with pytest.raises(AmbiguousOrderingError):
        accumulation_derivatives(2, CROSS_K2)
    with pytest.raises(AmbiguousOrderingError):
        accumulation_derivatives(3, QUARTER_PI)


def _ambiguity_by_loop(k, theta, tol):
    """The refusal message of ``accumulation_derivatives``, found by testing
    every crossover in ascending order, or None."""
    if k > 0 and QUARTER_PI - theta <= tol:
        return "theta sits at pi/4 where symmetric components tie"
    for cross in regions._crossings(k)[0]:
        if abs(theta - cross) <= tol:
            return f"theta is within tolerance of the crossover at {cross!r}"
    return None


@pytest.mark.parametrize("tol", [TOL, 0.2])
def test_accumulation_ambiguity_matches_the_crossover_loop(tol):
    # angles at c - tol, c, c + tol and one ulp either side of the two ends
    for k in (*range(1, 13), 20, 33, 60):
        thetas = set()
        for c in regions._crossings(k)[0]:
            for end in (c - tol, c + tol):
                thetas.update((end, math.nextafter(end, -1.0), math.nextafter(end, 2.0)))
            thetas.add(c)
        for theta in sorted(t for t in thetas if 0.0 <= t <= QUARTER_PI):
            try:
                accumulation_derivatives(k, theta, tol=tol)
                got = None
            except AmbiguousOrderingError as exc:
                got = str(exc)
            assert got == _ambiguity_by_loop(k, theta, tol), (k, theta)


@pytest.mark.parametrize("tol", [0.0, TOL, 1e-9, 1e-6])
def test_accumulation_ambiguity_at_a_crossover_of_two_angles(tol):
    # At k = 326 the pairs of one crossover meet at two angles, the second
    # within TOL of the first; angles near either must be answered as the
    # loop over crossovers answers them.
    k = 326
    crossovers, pairs = regions._crossings(k)
    (i,) = [i for i, group in enumerate(pairs) if len(group) > 1]
    binom = [math.comb(k, j) for j in range(k + 1)]
    angles = regions._angles(binom, *np.array(pairs[i]).T).tolist()
    assert angles[0] == crossovers[i]
    assert 0.0 < angles[1] - angles[0] <= TOL
    thetas = set()
    for c in angles:
        for t in (c - tol, c, c + tol):
            thetas.update((t, math.nextafter(t, -1.0), math.nextafter(t, 2.0)))
    for theta in sorted(thetas):
        try:
            accumulation_derivatives(k, theta, tol=tol)
            got = None
        except AmbiguousOrderingError as exc:
            got = str(exc)
        assert got == _ambiguity_by_loop(k, theta, tol), theta


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


@pytest.mark.parametrize("k,j,theta,bound", [(2000, 1000, 0.7, 1e-13), (300, 100, 0.7, 2e-14)])
def test_region1_closed_form_matches_mpmath_where_the_binomial_is_large(k, j, theta, bound):
    # C(2000, 1000) passes the largest double, though the derivative
    # (about -5.58e-12) does not; C(300, 100) fits, but a product of it with
    # two powers of the angle's functions is off by 4e-14 relative. Taken
    # from the spectrum the two are off by 3.4e-14 and 5.6e-15.
    with mpmath.workdps(50):
        t = mpmath.mpf(theta)
        want = (-mpmath.cos(t) ** (2 * k) * 2 * (k - j) * mpmath.binomial(k, j)
                * mpmath.tan(t) ** (2 * j + 1))
        got = region1_closed_form(k, j, theta)
        assert abs((got - want) / want) < bound


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_tolerances_that_are_not_finite_and_nonnegative_are_refused(tol):
    # a NaN tol once made every accumulation derivative pass as Holds, and
    # every chain verdict Incomparable
    message = f"tolerance must be finite and nonnegative, got {tol!r}"
    with pytest.raises(ValueError, match=message):
        accumulation_derivatives(3, 0.2, tol=tol)
    with pytest.raises(ValueError, match=message):
        accumulation_derivatives(0, 0.2, tol=tol)
    with pytest.raises(ValueError, match=message):
        infinitesimal_verdict(3, 0.7, tol=tol)
    with pytest.raises(ValueError, match=message):
        photon_chain_check(3, 0.5, tol=tol)


def test_a_zero_tolerance_is_accepted():
    assert infinitesimal_verdict(3, 0.7, tol=0.0).status is InfinitesimalStatus.VIOLATED
    assert infinitesimal_verdict(3, 0.2, tol=0.0).status is InfinitesimalStatus.HOLDS
    assert accumulation_derivatives(3, 0.2, tol=0.0).values == accumulation_derivatives(3, 0.2).values
    assert {v.relation for v in photon_chain_check(3, 0.5, tol=0.0)} == {Relation.MAJORIZED_BY}


def test_region1_closed_form_rejects_bad_j():
    with pytest.raises(ValueError):
        region1_closed_form(3, 3, 0.2)
    with pytest.raises(ValueError):
        region1_closed_form(3, -1, 0.2)


def test_region1_closed_form_rejects_a_non_integer_j():
    with pytest.raises(ValueError, match="^j must be an integer, got 0.5$"):
        region1_closed_form(3, 0.5, 0.3)


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
    # a Boundary verdict carries the refusal of accumulation_derivatives
    for theta in (CROSS_K2, QUARTER_PI):
        verdict = infinitesimal_verdict(2, theta)
        assert verdict.status is InfinitesimalStatus.BOUNDARY
        assert verdict.reason == _ambiguity_by_loop(2, theta, TOL)
    assert infinitesimal_verdict(2, 0.3).reason is None


def test_verdict_scans_crossovers_once(monkeypatch):
    # A verdict scans the crossover angles once, and never groups their
    # pairs or builds the orderings.
    calls, grouped = [], []
    scan, group = regions._crossover_angles, regions._crossings

    def counted(k):
        calls.append(k)
        return scan(k)

    def counted_groups(k):
        grouped.append(k)
        return group(k)

    monkeypatch.setattr(regions, "_crossover_angles", counted)
    monkeypatch.setattr(regions, "_crossings", counted_groups)
    for theta, status in ((0.1, "Holds"), (0.7, "Violated"), (THETA1_K3, "Boundary")):
        calls.clear()
        assert infinitesimal_verdict(3, theta).status.value == status
        assert calls == [3]
    assert grouped == []


@pytest.fixture
def scans(monkeypatch):
    """An empty memo for one test, and the photon numbers scanned."""
    calls, scan = [], regions._scan

    def counted(k):
        calls.append(k)
        return scan(k)

    monkeypatch.setattr(regions, "_memo", OrderedDict())
    monkeypatch.setattr(regions, "_scan", counted)
    return calls


def test_sweep_at_one_k_scans_once(scans):
    # A theta sweep of verdicts and accumulation derivatives, then the
    # partition, all at one photon number, scan its crossing pairs once.
    k = 30
    thetas = [*np.linspace(0.0, QUARTER_PI, 41).tolist(), *find_crossovers(k).crossovers[:5]]
    for theta in thetas:
        infinitesimal_verdict(k, theta)
        try:
            accumulation_derivatives(k, theta)
        except AmbiguousOrderingError:
            pass
    find_crossovers(k)
    assert scans == [k]


def test_memo_hit_derivatives_copy_no_angles(scans):
    # A memo hit bisects the memoized crossovers in place. At k = 600 they
    # take 720 kB; a copy of them would allocate as much.
    crossovers = regions._crossover_angles(600)[0]
    tracemalloc.start()
    try:
        accumulation_derivatives(600, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < crossovers.nbytes / 4
    assert scans == [600]


@pytest.mark.parametrize("k", [*range(1, 61), 326, 341])
def test_memo_hit_partitions_equal_fresh_scans(scans, k):
    # The scan a verdict leaves in the memo gives the same partition as a
    # scan made afresh after the memo is cleared, and so does the partition
    # the memo then keeps, for every k small enough to keep it.
    infinitesimal_verdict(k, 0.3)
    built = find_crossovers(k)
    hit = find_crossovers(k)
    assert (hit is built) == (k <= 160)
    regions._memo.clear()
    fresh = find_crossovers(k)
    for part in (built, hit):
        assert fields(part) == fields(fresh)
    assert scans == [k, k]


@pytest.mark.parametrize("k,steps", [(3, 400), (20, 400), (60, 400), (600, 12)])
def test_memo_hit_verdicts_equal_fresh_scans(scans, k, steps):
    # Evenly spaced angles and as many crossovers; only k = 600 has more
    # crossing pairs than one CROSSING_BLOCK.
    assert (regions._crossing_pairs(k)[0].size > regions.CROSSING_BLOCK) == (k == 600)
    crossovers = regions._crossings(k)[0]
    thetas = [*np.linspace(0.0, QUARTER_PI, steps).tolist(),
              *crossovers[::-(-len(crossovers) // steps)]]
    hits = [infinitesimal_verdict(k, theta) for theta in thetas]
    hit_arrays = [a.tobytes() for a in regions._crossover_angles(k)]
    fresh = []
    for theta in thetas:
        regions._memo.clear()
        fresh.append(infinitesimal_verdict(k, theta))
    regions._memo.clear()
    assert [a.tobytes() for a in regions._crossover_angles(k)] == hit_arrays
    assert hits == fresh
    assert {v.status for v in hits} >= {InfinitesimalStatus.BOUNDARY, InfinitesimalStatus.HOLDS}
    # one scan for the hits, one per fresh verdict but the one at pi/4, and
    # one for the fresh arrays
    assert scans == [k] * (len(thetas) + 1)


def memo_held(memo):
    """Crossing pairs plus partition ordering entries the memo holds: each
    scan under its k and each partition under -k, with the count it is
    charged checked against its value."""
    for key, (value, entries) in memo.items():
        if key > 0:
            assert len(value) == 4 and entries == value[2].size, key
        else:
            assert value.k == -key and entries == value.orderings.size, key
    return sum(entries for _, entries in memo.values())


def test_memo_keeps_its_angle_budget_and_evicts_least_recent_first(monkeypatch, scans):
    # k = 9, 10, 11 and 12 have 20, 25, 30 and 36 crossing pairs.
    sizes = {k: regions._scan(k)[2].size for k in (9, 10, 11, 12)}
    assert sizes == {9: 20, 10: 25, 11: 30, 12: 36}
    budget = sizes[10] + sizes[11] + sizes[12]
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", budget)
    memo = regions._memo
    # k = 60's scan alone exceeds the budget: it is not kept, and evicts
    # nothing.
    for k, held in ((10, [10]), (11, [10, 11]), (12, [10, 11, 12]),
                    (10, [11, 12, 10]), (9, [12, 10, 9]), (11, [10, 9, 11]),
                    (60, [10, 9, 11]), (9, [10, 11, 9])):
        regions._crossover_angles(k)
        assert list(memo) == held, k
        assert memo_held(memo) <= budget
    assert scans[4:] == [10, 11, 12, 9, 11, 60]


def test_memo_stays_consistent_across_threads(monkeypatch, scans):
    # Eight threads share a memo of 800 entries, which holds any one of
    # their partitions (k = 14's has 750 ordering entries) but not two of
    # the largest, with the interpreter switching threads as often as it
    # can. Every scan and partition a thread gets equals one built afresh.
    ks = range(9, 15)
    want = {k: [a.tobytes() for a in regions._scan(k)] for k in ks}
    fresh = {}
    for k in ks:
        regions._memo.clear()
        fresh[k] = find_crossovers(k)
    regions._memo.clear()
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", 800)
    errors = []

    def work(shift):
        try:
            for i in range(1000):
                k = ks[(i + shift) % len(ks)]
                assert [a.tobytes() for a in regions._crossover_angles(k)] == want[k]
                assert fields(find_crossovers(k)) == fields(fresh[k])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo_held(regions._memo) <= 800
    assert any(key < 0 for key in regions._memo)


def test_find_crossovers_returns_the_kept_partition(scans):
    # k's scan and its partition are two entries, the partition under -k.
    part = find_crossovers(20)
    assert find_crossovers(20) is part
    assert list(regions._memo) == [20, -20]
    assert regions._memo[-20] == (part, part.orderings.size)
    assert regions._memo[20][0] is regions._crossover_angles(20)
    assert scans == [20]


def test_a_memo_hit_returns_the_same_orderings_array(scans):
    # perfbench's worker compares each timed result with the first as a
    # tuple holding the orderings; tuples holding one array object compare
    # equal without calling the array's ``!=``.
    built = find_crossovers(99)
    hit = find_crossovers(99)
    assert hit.orderings is built.orderings
    assert not (hit.crossovers, hit.pairs, hit.orderings) != (
        built.crossovers, built.pairs, built.orderings)


def test_a_partition_hit_allocates_under_1kb(scans):
    find_crossovers(99)
    tracemalloc.start()
    try:
        find_crossovers(99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_partition_hits_set_off_no_collection(scans):
    # Building k = 99 allocates 2,450 pair groups; a hit allocates none.
    find_crossovers(99)
    gc.collect()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        for _ in range(100):
            find_crossovers(99)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


def test_memo_keeps_its_budget_with_partitions_counted(monkeypatch, scans):
    # Scan, partition: k = 9, 10 and 11 hold 20 and 210, 25 and 286, and
    # 30 and 372 entries.
    sizes = {k: (regions._scan(k)[2].size, find_crossovers(k).orderings.size)
             for k in (9, 10, 11)}
    regions._memo.clear()
    scans.clear()
    assert sizes == {9: (20, 210), 10: (25, 286), 11: (30, 372)}
    budget = 733
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", budget)
    memo = regions._memo
    # A partition hit marks only the partition used, so k = 11's scan goes
    # first when k = 10's partition needs room, and its partition stays.
    for call, k, held in ((find_crossovers, 10, [10, -10]),
                          (find_crossovers, 11, [10, -10, 11, -11]),
                          (regions._crossover_angles, 9, [10, -10, 11, -11, 9]),
                          (find_crossovers, 9, [11, -11, 9, -9]),
                          (find_crossovers, 11, [11, 9, -9, -11]),
                          (regions._crossover_angles, 10, [11, 9, -9, -11, 10]),
                          (find_crossovers, 10, [-11, 10, -10])):
        call(k)
        assert list(memo) == held, k
        assert memo_held(memo) <= budget
    assert scans == [10, 11, 9, 10]


def test_a_partition_above_the_budget_is_returned_not_kept(monkeypatch, scans):
    fresh = find_crossovers(12)
    regions._memo.clear()
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", fresh.orderings.size - 1)
    part = find_crossovers(12)
    assert fields(part) == fields(fresh)
    assert list(regions._memo) == [12]
    again = find_crossovers(12)
    assert fields(again) == fields(fresh) and again is not part
    # At exactly its size the partition is kept, and its scan makes room.
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", fresh.orderings.size)
    kept = find_crossovers(12)
    assert list(regions._memo) == [-12] and find_crossovers(12) is kept
    assert scans == [12, 12]


def test_partitions_above_k_160_are_not_kept(scans):
    # 160 is the largest k whose partition fits SCAN_MEMO_ANGLES; the scans
    # of both are kept beside it.
    for k, kept, entries in ((160, True, 1_030_561), (161, False, 1_049_922)):
        part = find_crossovers(k)
        assert part.orderings.size == entries
        assert (find_crossovers(k) is part) == kept
        assert (-k in regions._memo) == kept
    assert list(regions._memo) == [160, -160, 161]
    assert memo_held(regions._memo) <= regions.SCAN_MEMO_ANGLES


def test_evicting_a_scan_leaves_its_partition_kept(monkeypatch, scans):
    monkeypatch.setattr(regions, "SCAN_MEMO_ANGLES", 340)
    part = find_crossovers(10)  # 25 crossing pairs and 286 ordering entries
    assert list(regions._memo) == [10, -10]
    regions._crossover_angles(12)  # 36 more: k = 10's scan goes, alone
    assert list(regions._memo) == [-10, 12]
    assert find_crossovers(10) is part
    assert scans == [10, 12]


def test_memoized_arrays_are_read_only(scans):
    for array in regions._crossover_angles(5):
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


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
        for ordering in part.orderings[1:].tolist():
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


def test_positivity_bound_rejects_a_non_integer_index():
    with pytest.raises(ValueError, match="^n must be an integer, got 1.5$"):
        positivity_bound(5, 1.5)
