"""The benchmark's checkers accept right answers and reject perturbed ones.

Fast by design: small photon numbers only, so the suite stays a few seconds.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

import bsmaj
import oracles as ref
import tracing
import worker
import workloads as wl
from oracles import CheckError


def bump(values, i=0, factor=1 + 1e-8):
    out = [float(v) for v in values]
    out[i] *= factor
    return out


def test_spectrum_check():
    good = bsmaj.spectrum(7, 0.4).components
    ref.check_spectrum(good, 7, 0.4)
    with pytest.raises(CheckError):
        ref.check_spectrum(bump(good, 3), 7, 0.4)
    big = bsmaj.spectrum(1000, 0.9).components
    ref.check_spectrum(big, 1000, 0.9)
    with pytest.raises(CheckError):
        ref.check_spectrum(bump(big, 700), 1000, 0.9)


def test_exact_relation():
    p, q = bsmaj.spectrum(3, 0.72).components, bsmaj.spectrum(3, 0.62).components
    assert ref.relation(p, q) == "Incomparable"
    assert ref.relation(bsmaj.spectrum(4, 0.5).components, bsmaj.spectrum(3, 0.5).components) \
        == "MajorizedBy"
    assert ref.relation([0.5, 0.5], [1.0]) == "MajorizedBy"
    assert ref.relation([1.0], [0.5, 0.5]) == "Majorizes"
    assert ref.relation([0.25, 0.75], [0.75, 0.25]) == "Equal"


def test_crossover_check():
    part = bsmaj.find_crossovers(6)
    data = part.crossovers, part.pairs, part.orderings
    ref.check_crossovers(6, *data, angle_tol=1e-12, at_reported=True)
    moved = (part.crossovers[0] + 1e-9, *part.crossovers[1:])
    with pytest.raises(CheckError):
        ref.check_crossovers(6, moved, part.pairs, part.orderings, angle_tol=1e-12,
                             at_reported=True)
    with pytest.raises(CheckError):
        ref.check_crossovers(6, part.crossovers, (part.pairs[0][:-1], *part.pairs[1:])
                             if len(part.pairs[0]) > 1 else ((), *part.pairs[1:]),
                             part.orderings, angle_tol=1e-12, at_reported=True)
    swapped = list(map(list, part.orderings))
    swapped[0][:2] = swapped[0][1::-1]
    with pytest.raises(CheckError):
        ref.check_crossovers(6, part.crossovers, part.pairs, swapped, angle_tol=1e-12,
                             at_reported=True)


def test_verdict_check():
    k, theta = 5, 0.7  # beyond the first crossover: Violated
    v = bsmaj.infinitesimal_verdict(k, theta)
    ref.check_infinitesimal(v.status.value, v.first_violation, v.derivatives.values, k, theta)
    with pytest.raises(CheckError):
        ref.check_infinitesimal("Holds", None, v.derivatives.values, k, theta)
    with pytest.raises(CheckError):
        ref.check_infinitesimal(v.status.value, v.first_violation,
                                bump(v.derivatives.values, 1, 1 + 1e-6), k, theta)
    h = bsmaj.infinitesimal_verdict(k, 0.1)  # region 1: Holds
    ref.check_infinitesimal(h.status.value, None, h.derivatives.values, k, 0.1)
    with pytest.raises(CheckError):
        ref.check_infinitesimal("Violated", 0, h.derivatives.values, k, 0.1)


def test_witness_and_birkhoff_checks():
    k, theta = 4, 0.3
    matrix = bsmaj.bs_witness_matrix(k, theta)
    dec = bsmaj.birkhoff_decompose(matrix)
    rows = matrix.entries.tolist()
    ref.check_witness(rows, k, theta)
    ref.check_birkhoff(rows, dec.permutations, dec.weights)
    bad = [list(r) for r in rows]
    bad[1][0] += 1e-9
    with pytest.raises(CheckError):
        ref.check_witness(bad, k, theta)
    with pytest.raises(CheckError):
        ref.check_birkhoff(rows, dec.permutations, bump(dec.weights, 0, 1.01))
    with pytest.raises(CheckError):
        ref.check_birkhoff(rows, [(0,) * (k + 2)] + list(dec.permutations[1:]), dec.weights)


def test_entropy_check():
    grid = [0.1, 0.3, 0.5, 0.7]
    orders = [1.0, 10.0, math.inf, 0.5]
    table = bsmaj.entropy_curve(3, orders, grid).tolist()
    ref.check_entropy_table(table, 3, grid, orders)
    bad = [list(r) for r in table]
    bad[2][1] *= 1 + 1e-7
    with pytest.raises(CheckError):
        ref.check_entropy_table(bad, 3, grid, orders)
    with pytest.raises(CheckError):  # Shannon must rise: reverse the angles
        ref.check_entropy_table(table[::-1], 3, grid[::-1], orders)


def test_locc_check():
    b1, b2 = bsmaj.run_protocol(2, 0.62)
    branches = [b1.to_dict(), b2.to_dict()]
    target = bsmaj.spectrum(2, 0.62).components
    ref.check_locc(branches, target, 2, 0.62)
    branches[0]["probability"] += 1e-6
    with pytest.raises(CheckError):
        ref.check_locc(branches, target, 2, 0.62)


def test_catalyst_checker():
    pair = wl.Pair("paper", *wl.PAPER_PAIR)
    pair.p, pair.q = ref.spectrum_ref(3, 0.72), ref.spectrum_ref(3, 0.62)
    check = wl.CatalystChecker([pair], seed=0)
    op = ("search", (0, "single-photon", 0.05))
    found = bsmaj.search_catalyst_all(bsmaj.spectrum(3, 0.72), bsmaj.spectrum(3, 0.62),
                                      "single-photon", 0.05)
    hits = worker.extract("search", found)
    check(op, hits)
    with pytest.raises(CheckError):  # 0.2 is no catalyst for this pair
        check(op, hits + (("single-photon", 0.2),))
    with pytest.raises(CheckError):  # the paper's catalyst near 0.7 is missing
        check(op, tuple(h for h in hits if abs(h[1] - 0.7) > 1e-9))
    with pytest.raises(CheckError):  # a working catalyst left out of the set
        check(op, ())


def test_worker_round_and_checks():
    ops = [("spectrum", (5, 0.3)), ("crossovers", (6,)), ("search", (0, "tmsv", 0.5)),
           ("spectrum", (3, 2.0))]
    job = {"ops": ops, "pairs": [wl.PAPER_PAIR], "seconds": 0.0, "min_rounds": 2,
           "trace_rounds": 0}
    res = worker.run(job)
    assert len(res["round_seconds"]) == 2 and len(res["latencies"]) == 8
    assert res["failing"] == [3] and res["failed"] == 2  # theta beyond pi/2 is refused
    assert res["differing"] == []
    wl.parametric_check(ops[0], res["first"][0])
    wl.parametric_check(ops[1], res["first"][1])
    pair = wl.Pair("search", *wl.PAPER_PAIR)  # r = 1.38 is off this coarse grid
    pair.p, pair.q = res["inputs"][0]
    check = wl.CatalystChecker([pair], seed=0)
    check.check_inputs()
    check(ops[2], res["first"][2])


def test_cli_checker():
    check = wl.CliChecker(seed=0)
    args = ("spectrum", "--k", "3", "--theta", "0.62", "--sorted")
    values = sorted(bsmaj.spectrum(3, 0.62).components.tolist(), reverse=True)
    out = json.dumps({"results": [float(f"{v:.12g}") for v in values]})
    check(args, wl.ChildResult(0, out, "", 0.0))
    out = json.dumps({"results": bump(values, 2, 1 + 1e-8)})
    with pytest.raises(CheckError):
        check(args, wl.ChildResult(0, out, "", 0.0))
    with pytest.raises(CheckError):  # the expected-error invocations must not exit 0
        check(wl.FAILING[0], wl.ChildResult(0, "", "", 0.0))
    trace = wl.ChildResult(1, "", "Traceback (most recent call last):\n", 0.0)
    assert wl.cli_failed(trace)
    assert not wl.cli_failed(wl.ChildResult(2, "", "Usage: bsmaj\n", 0.0))


def test_cli_battery_has_a_checker_for_every_command():
    battery = wl.cli_battery(Path(__file__).resolve().parents[1])
    commands = {wl._parse(args)[1] for args in battery}
    assert commands <= {"spectrum", "majorize", "photon-chain", "regions", "infinitesimal",
                        "entropy-curve", "figure-data", "locc-verify", "catalysis check",
                        "catalysis search", "birkhoff"}


def test_seeded_inputs_repeat():
    assert wl.parametric_ops(3) == wl.parametric_ops(3)
    assert wl.catalyst_pairs(3) == wl.catalyst_pairs(3)
    assert wl.cli_ops(Path(__file__).resolve().parents[1], 3) == \
        wl.cli_ops(Path(__file__).resolve().parents[1], 3)


def test_unreported_candidates_keep_away_from_hits():
    hits = [0.7, 0.702]
    picks = wl.unreported("single-photon", 2e-3, 3.0, hits, random.Random(0), count=50)
    assert picks and all(abs(v - h) > 2 * 2e-3 for v in picks for h in hits)


def test_layer_metrics_self_time_and_ratios():
    spans = [
        ["regions.infinitesimal_verdict", 0.0, 10.0, -1, None],
        ["regions.find_crossovers", 1.0, 3.0, 0, None],
        ["beamsplitter.spectrum", 1.5, 2.0, 1, None],
        ["regions.find_crossovers", 4.0, 6.0, 0, None],
        ["catalysis.search_catalyst_all", 20.0, 30.0, -1, 1],
        ["catalysis.check_catalysis", 21.0, 25.0, 4, "tmsv"],
        ["catalysis.catalyst_spectrum", 21.0, 22.0, 5, None],
        ["catalysis.catalyst_spectrum", 23.0, 24.0, 5, None],
        ["catalysis.check_catalysis", 26.0, 27.0, 4, "tmsv"],
        ["catalysis.catalyst_spectrum", 26.0, 26.5, 8, None],
        ["majorization.compare", 40.0, 41.0, -1, 4],
        ["majorization.compare", 42.0, 43.0, -1, 8],
    ]
    m = tracing.layer_metrics([spans])
    assert m["regions.infinitesimal_verdict.self_s"][0] == pytest.approx(6.0)
    assert m["regions.find_crossovers.self_s"][0] == pytest.approx(3.5)
    assert m["regions.find_crossovers.calls"][0] == 2
    assert m["regions.find_crossovers_per_verdict"][0] == 2.0
    assert m["catalysis.hit_ratio"][0] == 0.5
    assert m["catalysis.confirm_ratio"][0] == 0.5
    assert m["majorization.compare.dim_mean"][0] == 6.0


def test_tracer_wraps_every_binding_and_restores():
    import bsmaj.beamsplitter
    import bsmaj.regions

    original = bsmaj.regions.spectrum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bsmaj.regions.spectrum is bsmaj.beamsplitter.spectrum is bsmaj.spectrum
        assert bsmaj.regions.spectrum is not original
        bsmaj.photon_chain_check(2, 0.3)
    finally:
        tracer.uninstall()
    assert bsmaj.regions.spectrum is original
    names = [s[0] for s in tracer.spans]
    assert names.count("beamsplitter.spectrum") == 4
    assert names.count("majorization.compare") == 2
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "majorization.compare")


def test_import_breakdown():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        70 |        120 |     scipy.special",
        "import time:        30 |        450 |   bsmaj.entropy",
        "import time:        20 |        800 | bsmaj",
        "import time:        40 |        900 | bsmaj.cli",
    ])
    got = tracing.import_breakdown(text)
    assert got["import.numpy_s"] == pytest.approx(300e-6)
    assert got["import.scipy_s"] == pytest.approx(120e-6)
    assert got["import.click_s"] == 0
    assert got["import.bsmaj_self_s"] == pytest.approx(90e-6)
