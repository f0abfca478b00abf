"""Benchmark for bsmaj: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload parametric-sweep --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` does a fixed amount of traced work and reports per-layer
metrics instead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as wl
from oracles import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

WORKLOADS = ("cli-cold", "parametric-sweep", "catalyst-scan")

#: Fewest timed rounds, and the tail percentile, per workload. Each minimum
#: leaves at least ten operations beyond the percentile (16, 36 and 26
#: operations per round).
MIN_ROUNDS = {"cli-cold": 3, "parametric-sweep": 4, "catalyst-scan": 4}
TAIL_PERCENTILE = {"cli-cold": 75, "parametric-sweep": 90, "catalyst-scan": 90}

#: Fresh interpreters timed for setup_s, and -X importtime samples.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5

#: Rounds of a traced run: fixed, so that call counts repeat exactly.
TRACE_ROUNDS = 2


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """Latencies, round times and failures of one benchmark run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, fn, *args) -> None:
        """Run one check; a wrong or unreadable output is recorded, not raised."""
        try:
            fn(*args)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
            if len(self.errors) < 20:
                self.errors.append(f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------------
# in-process workloads


def run_inprocess(name: str, seed: int, seconds: float, trace: bool):
    """Builds the inputs and checks the outputs here; the timed work runs in
    worker.py, a process of its own that imports only bsmaj."""
    if name == "parametric-sweep":
        ops, pairs, check = wl.parametric_ops(seed), [], wl.parametric_check
    else:
        ops, pairs = wl.catalyst_ops(seed)
        check = wl.CatalystChecker(pairs, seed)
    job = {"ops": ops, "pairs": [(p.k_p, p.theta_p, p.k_q, p.theta_q) for p in pairs],
           "seconds": seconds, "min_rounds": MIN_ROUNDS[name],
           "trace_rounds": TRACE_ROUNDS if trace else 0}
    job_path, result_path = OUT / f"job-{name}-{seed}.pickle", OUT / f"result-{name}-{seed}.pickle"
    with open(job_path, "wb") as fh:
        pickle.dump(job, fh)
    child = wl.run_child([sys.executable, str(HERE / "worker.py"), str(job_path),
                          str(result_path)], child_env(), ROOT, timeout=150.0)
    job_path.unlink()
    if child.code != 0:
        raise RuntimeError(f"worker.py exited {child.code}:\n{child.err}")
    with open(result_path, "rb") as fh:
        res = pickle.load(fh)
    result_path.unlink()

    run = Run()
    run.latencies, run.round_seconds = res["latencies"], res["round_seconds"]
    run.attempted, run.failed = len(res["latencies"]), res["failed"]
    for pair, (p, q) in zip(pairs, res["inputs"]):
        pair.p, pair.q = p, q
    if pairs:
        run.check(check.check_inputs)
    for i, data in enumerate(res["first"]):
        if i not in res["failing"]:
            run.check(check, ops[i], data)
    for i, data in res["differing"]:  # a timed result unlike the checked one
        run.check(check, ops[i], data)
    return run, res["peak_mb"], [res["spans"]] if trace else []


# --------------------------------------------------------------------------
# cli-cold


def run_cli(seed: int, seconds: float, trace: bool):
    """Runs each command as a fresh process; a traced run does one round."""
    ops = wl.cli_ops(ROOT, seed)
    check = wl.CliChecker(seed)
    env = child_env()
    run = Run()
    span_sets = []

    def one_round() -> None:
        busy = 0.0
        for n, args in enumerate(ops):
            if trace:
                spans_path = OUT / f"cli-spans-{n}.json"
                cmd = [sys.executable, str(HERE / "cli_boot.py"), str(spans_path), *args]
            else:
                cmd = [sys.executable, "-m", "bsmaj.cli", *args]
            result = wl.run_child(cmd, env, ROOT)
            busy += result.seconds
            if trace:
                span_sets.extend(tracing.read_trace(spans_path))
                spans_path.unlink()
            run.attempted += 1
            run.latencies.append(result.seconds)
            if wl.cli_failed(result):
                run.failed += 1
            else:
                run.check(check, args, result)
        run.round_seconds.append(busy)

    wl.run_child([sys.executable, "-m", "bsmaj.cli", *ops[0]], env, ROOT)  # warm-up
    if trace:
        one_round()
    else:
        begin = time.perf_counter()
        while (len(run.round_seconds) < MIN_ROUNDS["cli-cold"]
               or time.perf_counter() - begin < seconds):
            one_round()
    # The largest child ever waited for: every child imports bsmaj.cli, and
    # the CLI commands do more than the set-up imports, so it is one of them.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return run, peak_mb, span_sets


# --------------------------------------------------------------------------
# set-up and import times


def measure_setup() -> float:
    """Median of fresh interpreters timed from start to ``bsmaj.cli`` imported."""
    cmd, env = [sys.executable, "-c", "import bsmaj.cli"], child_env()
    first = wl.run_child(cmd, env, ROOT)  # compiles bytecode; not timed
    if first.code != 0:
        raise RuntimeError(f"cannot import bsmaj.cli:\n{first.err}")
    return statistics.median(wl.run_child(cmd, env, ROOT).seconds
                             for _ in range(SETUP_SAMPLES))


def measure_imports() -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c", "import bsmaj.cli"]
    samples = [tracing.import_breakdown(wl.run_child(cmd, child_env(), ROOT).err)
               for _ in range(IMPORT_SAMPLES)]
    return tracing.median_imports(samples)


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is imported here or in any child.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "bsmaj" / "__init__.py").is_file():
        log(f"no bsmaj sources under {SRC}; run from a checkout of the repository")
        return 2
    if args.workload == "cli-cold" and not (ROOT / "tests" / "conftest.py").is_file():
        log("tests/conftest.py (the CLI battery) is missing")
        return 2
    OUT.mkdir(exist_ok=True)

    setup_s = None if args.trace else measure_setup()
    if args.workload == "cli-cold":
        run, peak_mb, span_sets = run_cli(args.seed, args.seconds, bool(args.trace))
    else:
        run, peak_mb, span_sets = run_inprocess(args.workload, args.seed, args.seconds,
                                                bool(args.trace))
    for message in run.errors:
        log(f"CHECK FAILED: {message}")

    if args.trace:
        tracing.write_trace(OUT / f"trace-{args.workload}-{args.seed}.json", span_sets)
        layers = {**tracing.layer_metrics(span_sets), **measure_imports()}
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(run.round_seconds), "s"),
            "op_p50_s": (statistics.median(run.latencies), "s"),
            "op_tail_s": (percentile(run.latencies, TAIL_PERCENTILE[args.workload]), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
