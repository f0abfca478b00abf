"""Timed part of the in-process workloads, in a process that imports only bsmaj.

    python perfbench/worker.py JOB.pickle RESULT.pickle

The job holds the operations as ``(kind, params)`` tuples built by
:mod:`workloads`, the catalyst pairs as photon numbers and angles, the run
length and the number of traced rounds. The worker makes one untimed warm-up
round, then repeats the round until the run length and the fewest rounds are
reached (or runs the traced rounds instead), reads its own peak resident
memory and writes plain data back: latencies, round times, each operation's
warm-up result, the timed results that differ from it, the pair spectra and,
when traced, the spans. The parent checks the results, so the oracles and
mpmath stay out of this process and out of its memory figure.
"""

from __future__ import annotations

import pickle
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Timed results that differ from the warm-up result, kept for checking.
MAX_DIFFERING = 50


def make_calls(ops, pairs, bs):
    """One zero-argument callable per operation, and the pair spectra."""
    spectra = [(bs.spectrum(kp, tp), bs.spectrum(kq, tq)) for kp, tp, kq, tq in pairs]

    def witness(k, t):
        matrix = bs.bs_witness_matrix(k, t)
        return matrix, bs.birkhoff_decompose(matrix)

    def search(i, family, grid):
        p, q = spectra[i]
        return bs.search_catalyst_all(p, q, family, grid)

    # Names are looked up on each call, so that a traced run sees its wrappers.
    table = {
        "chain": lambda k, t: bs.photon_chain_check(k, t),
        "nielsen": lambda k, t: bs.verify_nielsen(k, t),
        "witness": witness,
        "crossovers": lambda k: bs.find_crossovers(k),
        "verdict": lambda k, t: bs.infinitesimal_verdict(k, t),
        "accumulation": lambda k, t: bs.accumulation_derivatives(k, t),
        "entropy": lambda k, orders, grid: bs.entropy_curve(k, orders, grid),
        "spectrum": lambda k, t: bs.spectrum(k, t),
        "search": search,
    }
    calls = [lambda fn=table[kind], a=params: fn(*a) for kind, params in ops]
    inputs = [(p.components.tolist(), q.components.tolist()) for p, q in spectra]
    return calls, inputs


def extract(kind: str, result):
    """An operation's result as plain data (tuples, floats, strings)."""
    if kind == "chain":
        return tuple(v.relation.value for v in result)
    if kind == "nielsen":
        return bool(result)
    if kind == "witness":
        matrix, dec = result
        return (tuple(map(tuple, matrix.entries.tolist())), dec.permutations, dec.weights)
    if kind == "crossovers":
        return result.crossovers, result.pairs, result.orderings
    if kind == "verdict":
        values = result.derivatives.values if result.derivatives else ()
        return result.status.value, result.first_violation, values
    if kind == "accumulation":
        return result.values
    if kind == "entropy":
        return tuple(map(tuple, result.tolist()))
    if kind == "spectrum":
        return tuple(result.components.tolist())
    if kind == "search":
        return tuple(("explicit", tuple(s.vector.components.tolist()))
                     if s.family.value == "explicit"
                     else (s.family.value, s.theta_c if s.r is None else s.r)
                     for s in result)
    raise ValueError(kind)


def run(job: dict) -> dict:
    import bsmaj as bs

    if Path(bs.__file__).resolve().parent != SRC / "bsmaj":
        raise ImportError(f"imported bsmaj from {bs.__file__}, not from {SRC}")
    ops = job["ops"]
    calls, inputs = make_calls(ops, job["pairs"], bs)

    first = []
    for (kind, _), call in zip(ops, calls):
        try:
            first.append(extract(kind, call()))
        except Exception as exc:  # a failing operation is counted, not fatal
            first.append(exc)
    failing = {i for i, f in enumerate(first) if isinstance(f, Exception)}
    first = [None if i in failing else f for i, f in enumerate(first)]

    latencies, round_seconds, failed, differing = [], [], 0, []

    def one_round() -> None:
        nonlocal failed
        busy = 0.0
        for i, ((kind, _), call) in enumerate(zip(ops, calls)):
            start = time.perf_counter()
            try:
                result, ok = call(), True
            except Exception:
                ok = False
            took = time.perf_counter() - start
            busy += took
            latencies.append(took)
            if not ok or i in failing:
                failed += 1
                continue
            data = extract(kind, result)
            if data != first[i] and len(differing) < MAX_DIFFERING:
                differing.append((i, data))
        round_seconds.append(busy)

    spans = None
    if job["trace_rounds"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(job["trace_rounds"]):
                one_round()
        finally:
            tracer.uninstall()
        spans = tracer.spans
    else:
        begin = time.perf_counter()
        while (len(round_seconds) < job["min_rounds"]
               or time.perf_counter() - begin < job["seconds"]):
            one_round()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"latencies": latencies, "round_seconds": round_seconds, "failed": failed,
            "first": first, "failing": sorted(failing), "differing": differing,
            "inputs": inputs,
            "peak_mb": peak_mb, "spans": spans}


def main() -> None:
    job_path, result_path = sys.argv[1:3]
    with open(job_path, "rb") as fh:
        job = pickle.load(fh)
    result = run(job)
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
