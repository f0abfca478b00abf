"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
from click.testing import CliRunner

from bsmaj import (
    CatalystSpec,
    DoublyStochasticMatrix,
    InfinitesimalStatus,
    ProbVector,
    Relation,
    accumulation_derivatives,
    birkhoff_decompose,
    bs_witness_matrix,
    catalyst_spectrum,
    check_catalysis,
    compare,
    entropy_curve,
    find_crossovers,
    infinitesimal_verdict,
    random_majorized,
    region1_closed_form,
    renyi,
    run_protocol,
    spectrum,
    verify_nielsen,
)
from bsmaj.birkhoff import apply as ds_apply
from bsmaj.cli import main
from bsmaj.locc import build_kraus
from bsmaj.regions import QUARTER_PI

from conftest import CLI_BATTERY, central_difference, random_mixture_matrix

SORTED_062 = (0.44439, 0.290641, 0.226491, 0.0384782)
SORTED_072 = (0.416698, 0.320544, 0.180565, 0.0821927)
SINGLE_PHOTON_07 = (0.584984, 0.415016)


def _report(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


def _cli(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


@_report(1, "printed reference spectra reproduced to 1e-5")
def test_criterion_1_reference_numbers():
    start = time.perf_counter()
    out = json.loads(_cli(["spectrum", "--k", "3", "--theta", "0.62", "--sorted"]))
    assert np.allclose(out["results"], SORTED_062, atol=1e-5)
    out = json.loads(_cli(["spectrum", "--k", "3", "--theta", "0.72", "--sorted"]))
    assert np.allclose(out["results"], SORTED_072, atol=1e-5)
    vec = catalyst_spectrum(CatalystSpec.single_photon(0.7))
    assert np.allclose(vec.components, SINGLE_PHOTON_07, atol=1e-5)
    assert time.perf_counter() - start < 1.0


@_report(2, "incomparable pair catalyzed by both reference catalysts")
def test_criterion_2_incomparability_and_catalysis():
    start = time.perf_counter()
    p, q = spectrum(3, 0.72), spectrum(3, 0.62)
    assert compare(p, q).relation is Relation.INCOMPARABLE

    single = check_catalysis(p, q, CatalystSpec.single_photon(0.7))
    assert single.verdict_with.relation is Relation.MAJORIZED_BY
    assert single.catalysis_achieved

    squeezed = check_catalysis(p, q, CatalystSpec.tmsv(1.38))
    assert squeezed.verdict_with.relation is Relation.MAJORIZED_BY
    assert squeezed.catalysis_achieved
    assert time.perf_counter() - start < 1.0


@_report(3, "photon-number chain and transfer-matrix witness, k<=30")
def test_criterion_3_photon_chain():
    thetas = np.linspace(0.0, math.pi / 2, 52)[1:-1]
    for k in range(31):
        for theta in thetas:
            theta = float(theta)
            lower, higher = spectrum(k + 1, theta), spectrum(k, theta)
            assert compare(lower, higher).relation is Relation.MAJORIZED_BY
            padded = ProbVector(np.pad(higher.components, (0, 1)))
            witness = ds_apply(bs_witness_matrix(k, theta), padded)
            assert np.max(np.abs(witness.components - lower.components)) < 1e-12


@_report(4, "first-region closed form, nonpositivity, finite differences")
def test_criterion_4_region_one():
    def sorted_prefix(k, theta, j):
        comps = np.sort(spectrum(k, theta).components)[::-1]
        return float(np.cumsum(comps)[j])

    for k in range(1, 21):
        theta1 = math.atan(1 / math.sqrt(k))
        grid = np.linspace(1e-3, theta1 - 1e-3, 100)
        fd_grid = grid[::10]
        for theta in grid:
            theta = float(theta)
            acc = accumulation_derivatives(k, theta).values
            for j in range(k):
                closed = region1_closed_form(k, j, theta)
                assert abs(closed - acc[j]) < 1e-10
                assert acc[j] <= 1e-12
        for theta in fd_grid:
            theta = float(theta)
            acc = accumulation_derivatives(k, theta).values
            for j in range(k):
                fd = central_difference(
                    lambda t, j=j, k=k: sorted_prefix(k, t, j), theta
                )
                assert abs(fd - acc[j]) < 1e-7


@_report(5, "crossover angles and eigenvalue coincidences to 1e-12")
def test_criterion_5_crossovers():
    part2 = find_crossovers(2)
    assert len(part2.crossovers) == 1
    assert abs(part2.crossovers[0] - math.atan(1 / math.sqrt(2))) < 1e-12

    part3 = find_crossovers(3)
    assert len(part3.crossovers) == 2
    assert abs(part3.crossovers[0] - math.atan(1 / math.sqrt(3))) < 1e-12
    assert abs(part3.crossovers[1] - math.atan(3 ** -0.25)) < 1e-12

    for part in (part2, part3):
        k = part.k
        for theta, group in zip(part.crossovers, part.pairs):
            comps = spectrum(k, theta).components
            for n, m in group:
                assert abs(comps[n] - comps[m]) < 1e-12


@_report(6, "violation structure in the second and third regions")
def test_criterion_6_violation_structure():
    cross2 = find_crossovers(2).crossovers[0]
    for theta in np.linspace(cross2 + 1e-6, QUARTER_PI - 1e-6, 60):
        verdict = infinitesimal_verdict(2, float(theta))
        assert verdict.status is InfinitesimalStatus.VIOLATED
        assert verdict.first_violation == 0
        assert verdict.derivatives.values[0] > 0  # leading accumulation grows

    theta1, theta2 = find_crossovers(3).crossovers
    for theta in np.linspace(theta2 + 1e-6, QUARTER_PI - 1e-6, 60):
        verdict = infinitesimal_verdict(3, float(theta))
        assert verdict.status is InfinitesimalStatus.VIOLATED
        # the positive accumulation derivative is (3/2) sin(4 theta)
        positive = [j for j, a in enumerate(verdict.derivatives.values) if a > 0]
        assert positive == [1]
        expected = 1.5 * math.sin(4 * float(theta))
        assert abs(verdict.derivatives.values[1] - expected) <= 1e-10

    descent_hi = math.atan(1 / math.sqrt(2))
    for theta in np.linspace(theta1 + 1e-6, descent_hi - 1e-6, 60):
        verdict = infinitesimal_verdict(3, float(theta))
        assert verdict.status is InfinitesimalStatus.VIOLATED
        assert verdict.first_violation == 0


@_report(7, "deterministic conversion protocol, k<=30")
def test_criterion_7_locc():
    for k in range(31):
        pair = build_kraus(k)  # completeness is asserted below, not by build_kraus
        for m in range(k + 2):
            total = 0.0
            if m <= k:
                total += pair.f1_diag[m] ** 2
            if m >= 1:
                total += pair.f2_weights[m - 1] ** 2
            assert abs(total - 1.0) <= 1e-15
        for theta in np.linspace(0.0, math.pi / 2, 20):
            theta = float(theta)
            branch1, branch2 = run_protocol(k, theta)
            assert abs(branch1.probability - math.sin(theta) ** 2) < 1e-12
            assert abs(branch2.probability - math.cos(theta) ** 2) < 1e-12
            target = spectrum(k, theta)
            for branch in (branch1, branch2):
                assert (
                    np.max(np.abs(branch.post_spectrum.components - target.components))
                    < 1e-12
                )
            assert verify_nielsen(k, theta)


@_report(8, "entropy curve shapes for two and three photons")
def test_criterion_8_entropy_shapes():
    grid = np.linspace(1e-4, QUARTER_PI - 1e-6, 500)

    shannon_2 = entropy_curve(2, [1.0], grid)[:, 0]
    assert np.all(np.diff(shannon_2) > 0)

    cross2 = find_crossovers(2).crossovers[0]
    min_ent_2 = entropy_curve(2, [math.inf], grid)[:, 0]
    right = grid > cross2
    assert np.all(np.diff(min_ent_2[right]) < 0)

    theta1, theta2 = find_crossovers(3).crossovers
    inner = np.linspace(theta1, theta2, 500)
    min_ent_3 = entropy_curve(3, [math.inf], inner)[:, 0]
    arg = int(np.argmin(min_ent_3))
    assert 0 < arg < len(inner) - 1
    assert min_ent_3[arg] < min_ent_3[0] and min_ent_3[arg] < min_ent_3[-1]


@_report(9, "property corpus: Schur concavity, decomposition, mixing")
def test_criterion_9_property_corpus():
    alphas = (0.0, 0.5, 1.0, 2.0, 10.0, math.inf)
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        dim = int(rng.integers(2, 13))
        q = ProbVector(rng.dirichlet(np.ones(dim)))
        p = random_majorized(q, int(rng.integers(1, 7)), seed=trial)
        for alpha in alphas:
            assert renyi(p, alpha) >= renyi(q, alpha) - 1e-12

    rng = np.random.default_rng(4096)
    for trial in range(200):
        d = int(rng.integers(2, 13))
        D = DoublyStochasticMatrix(
            random_mixture_matrix(rng, d, int(rng.integers(1, 9)))
        )
        decomposition = birkhoff_decompose(D)
        assert len(decomposition) <= (d - 1) ** 2 + 1
        assert np.max(np.abs(decomposition.reconstruct() - D.entries)) < 1e-9
        q = ProbVector(rng.dirichlet(np.ones(d)))
        assert compare(ds_apply(D, q), q).relation in (
            Relation.MAJORIZED_BY,
            Relation.EQUAL,
        )


@_report(10, "byte-identical output across consecutive CLI runs")
def test_criterion_10_determinism():
    runner = CliRunner()

    def run_all():
        outputs = []
        for args in CLI_BATTERY:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, (args, result.output)
            outputs.append(result.output)
        return "".join(outputs)

    assert run_all() == run_all()
