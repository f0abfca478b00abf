"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload builds its inputs from the seed once, then the runner repeats the
same round of operations. For the in-process workloads an operation is a
``(kind, params)`` pair that :mod:`worker` turns into a bsmaj call; the
worker reduces each result to plain data and the checkers here compare it
with :mod:`oracles`. Results that repeat an already checked result exactly
are not checked twice.
"""

from __future__ import annotations

import ast
import json
import math
import random
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import oracles as ref
from oracles import CheckError, require

QUARTER_PI = math.pi / 4


# --------------------------------------------------------------------------
# parametric-sweep


CHAIN_K = (24, 26, 28, 30)
NIELSEN_K = (5, 10, 20, 30)
WITNESS_K = (5, 10, 20, 30)
CROSSOVER_K = (20, 40, 60, 80, 100)
VERDICT_K = (3, 5, 8, 12, 16, 20, 25, 30)
ACCUMULATION_K = (4, 10, 20, 30)
ENTROPY_K = ((2, 200), (3, 200), (60, 100), (1000, 30))
SPECTRUM_K = (60, 61, 1000)


def _off_crossover(rng: random.Random, k: int, lo: float, hi: float) -> float:
    while True:
        theta = rng.uniform(lo, hi)
        if ref.well_separated(k, theta):
            return theta


def parametric_ops(seed: int) -> list[tuple[str, tuple]]:
    """Photon chain, witness, crossovers, verdicts and entropy sweeps.

    Photon numbers are the constants above minus a seeded jitter of at most
    two, so the round's cost hardly depends on the seed; the angles are
    seeded. Half of the verdict angles fall in region 1 and half beyond the
    first crossover, all away from crossovers.
    """
    rng = random.Random(seed)
    wide = (0.05, math.pi / 2 - 0.05)
    ops: list[tuple[str, tuple]] = []
    for k in CHAIN_K:
        k -= rng.randrange(2)
        t = rng.uniform(*wide)
        ops.append(("chain", (k, t)))
    for k in NIELSEN_K:
        t = rng.uniform(*wide)
        ops.append(("nielsen", (k, t)))
    for k in WITNESS_K:
        ops.append(("witness", (k, rng.uniform(*wide))))
    for k in CROSSOVER_K:
        k -= rng.randrange(3)
        ops.append(("crossovers", (k,)))
    for i, k in enumerate(VERDICT_K):
        k -= rng.randrange(2) if k > 5 else 0
        first = ref.first_crossover(k)
        t = (_off_crossover(rng, k, 0.05 * first, 0.95 * first) if i % 2 == 0
             else _off_crossover(rng, k, first, QUARTER_PI - 0.01))
        ops.append(("verdict", (k, t)))
    for k in ACCUMULATION_K:
        t = _off_crossover(rng, k, 0.02, QUARTER_PI - 0.02)
        ops.append(("accumulation", (k, t)))
    for k, steps in ENTROPY_K:
        grid = tuple(sorted(rng.uniform(0.001, QUARTER_PI - 0.001) for _ in range(steps)))
        orders = (1.0, 10.0, math.inf, round(rng.uniform(0.3, 5.0), 6))
        ops.append(("entropy", (k, orders, grid)))
    for k in SPECTRUM_K:
        ops.append(("spectrum", (k, rng.uniform(*wide))))
    rng.shuffle(ops)
    return ops


def parametric_check(op: tuple[str, tuple], data) -> None:
    kind, params = op
    if kind == "chain":
        k, t = params
        require(len(data) == k and all(r == "MajorizedBy" for r in data),
                f"photon_chain_check({k}, {t!r}): {data}")
    elif kind == "nielsen":
        require(data is True, f"verify_nielsen{params}: {data}")
    elif kind == "witness":
        matrix, perms, weights = data
        ref.check_witness(matrix, *params)
        ref.check_birkhoff(matrix, perms, weights)
    elif kind == "crossovers":
        ref.check_crossovers(params[0], *data, angle_tol=1e-12, at_reported=True)
    elif kind == "verdict":
        ref.check_infinitesimal(*data, *params)
    elif kind == "accumulation":
        ref.check_accumulation(data, *params, f"accumulation_derivatives{params}")
    elif kind == "entropy":
        ref.check_entropy_table(data, params[0], params[2], list(params[1]))
    elif kind == "spectrum":
        ref.check_spectrum(data, *params)
    else:
        raise ValueError(kind)


# --------------------------------------------------------------------------
# catalyst-scan


PAPER_PAIR = (3, 0.72, 3, 0.62)
SEARCH_K = (3, 3, 4, 4, 5, 5, 6, 6)
GRIDS = (("single-photon", 2e-3), ("tmsv", 0.06))
PAPER_HITS = {"single-photon": 0.7, "tmsv": 1.38}
#: Angles where every component of a k <= 6 spectrum exceeds 1e-9.
PAIR_ANGLES = (0.2, QUARTER_PI - 0.02)


@dataclass
class Pair:
    role: str  # paper, search, rejected or majorized
    k_p: int
    theta_p: float
    k_q: int
    theta_q: float
    p: list = None  # spectra as computed by bsmaj, filled in by the runner
    q: list = None


def _incomparable_pair(rng: random.Random, k: int, want_screen: bool) -> Pair:
    """A same-k pair that is incomparable by a margin, oriented so that the
    Rényi screen passes (``want_screen``) or fails, far from its threshold."""
    while True:
        a, b = rng.uniform(*PAIR_ANGLES), rng.uniform(*PAIR_ANGLES)
        p, q = ref.spectrum_ref(k, a), ref.spectrum_ref(k, b)
        if ref.relation(p, q, tol=1e-9) != "Incomparable":
            continue
        for (ta, va), (tb, vb) in (((a, p), (b, q)), ((b, q), (a, p))):
            failure = ref.screen_failure(va, vb)
            if failure == "ambiguous":
                break
            if (failure is None) == want_screen:
                return Pair("search" if want_screen else "rejected", k, ta, k, tb)


def catalyst_pairs(seed: int) -> list[Pair]:
    """The paper's pair, two screened incomparable pairs for each k in 3..6,
    two pairs the screen rejects and two photon-chain pairs (already
    majorized), all drawn from the seed."""
    rng = random.Random(seed)
    pairs = [Pair("paper", *PAPER_PAIR)]
    pairs += [_incomparable_pair(rng, k, True) for k in SEARCH_K]
    pairs += [_incomparable_pair(rng, k, False) for k in (4, 6)]
    for k in (3, 5):
        t = rng.uniform(0.2, 1.3)
        pairs.append(Pair("majorized", k + 1, t, k, t))
    return pairs


def catalyst_ops(seed: int) -> tuple[list[tuple[str, tuple]], list[Pair]]:
    """One search per pair and family; ``search`` params index the pair list."""
    pairs = catalyst_pairs(seed)
    ops = [("search", (i, family, grid)) for i in range(len(pairs)) for family, grid in GRIDS]
    random.Random(seed).shuffle(ops)
    return ops, pairs


def unreported(family: str, grid: float, r_max: float, hits, rng: random.Random,
               count: int = 3) -> list[float]:
    """Seeded grid candidates at least two steps away from every reported hit.

    Candidates next to a hit can sit within rounding of the tolerance, so
    only these are required to fail the independent check.
    """
    limit = QUARTER_PI if family == "single-photon" else r_max
    values = [n * grid for n in range(1, int(limit / grid + 1e-9) + 1)]
    far = [v for v in values if all(abs(v - h) > 2.5 * grid for h in hits)]
    return sorted(rng.sample(far, min(count, len(far))))


class CatalystChecker:
    """Checks search results against the oracles."""

    def __init__(self, pairs: list[Pair], seed: int):
        self.pairs = pairs
        self.seed = seed

    def check_inputs(self) -> None:
        for pair in self.pairs:
            ref.check_spectrum(pair.p, pair.k_p, pair.theta_p)
            ref.check_spectrum(pair.q, pair.k_q, pair.theta_q)

    def __call__(self, op: tuple[str, tuple], data) -> None:
        i, family, grid = op[1]
        pair = self.pairs[i]
        p, q = pair.p, pair.q
        what = f"search_catalyst_all(pair {i} [{pair.role}], {family}, {grid})"
        if pair.role == "majorized":
            require(ref.relation(p, q) == "MajorizedBy", f"{what}: pair is not majorized")
            require(data == (("explicit", (1.0,)),), f"{what}: expected the trivial catalyst")
            return
        if pair.role == "rejected":
            failure = ref.screen_failure(p, q)
            require(failure not in (None, "ambiguous"), f"{what}: the screen should pass")
            require(data == (), f"{what}: screen-rejected pair returned {data}")
            return
        values = []
        for fam, value in data:
            require(fam == family, f"{what}: catalyst of family {fam}")
            require(ref.catalysis_holds(p, q, family, value),
                    f"{what}: {family}:{value!r} does not work")
            values.append(value)
        if data:
            require(ref.relation(p, q) == "Incomparable", f"{what}: bare pair is comparable")
        if pair.role == "paper":
            want = PAPER_HITS[family]
            require(any(abs(v - want) <= 1e-9 for v in values),
                    f"{what}: {want} missing from the success set")
        rng = random.Random(f"{self.seed}/{i}/{family}")
        for value in unreported(family, grid, 3.0, values, rng):
            require(ref.catalysis_fails(p, q, family, value),
                    f"{what}: {family}:{value!r} works but was not reported")


# --------------------------------------------------------------------------
# cli-cold


#: Invocations that end in a traceback today; kept as failing operations.
FAILING = (
    ("spectrum", "--k", "3", "--theta", "pi/0"),
    ("catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62", "--catalyst", "tmsv:25"),
)

_FLAGS = {"--sorted", "--bits", "--all"}


def cli_battery(root: Path) -> list[tuple[str, ...]]:
    """CLI_BATTERY from tests/conftest.py, read without importing it."""
    tree = ast.parse((root / "tests" / "conftest.py").read_text())
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(getattr(t, "id", None) == "CLI_BATTERY" for t in targets):
            return [tuple(cmd) for cmd in ast.literal_eval(node.value)]
    raise LookupError("CLI_BATTERY not found in tests/conftest.py")


def cli_ops(root: Path, seed: int) -> list[tuple[str, ...]]:
    ops = cli_battery(root) + list(FAILING)
    random.Random(seed).shuffle(ops)
    return ops


@dataclass
class ChildResult:
    code: int
    out: str
    err: str
    seconds: float


def run_child(cmd: list[str], env: dict, cwd: Path, timeout: float = 120.0) -> ChildResult:
    """Run a command to completion and time it; a hung command is killed."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return ChildResult(-9, "", f"timed out after {exc.timeout} s", time.perf_counter() - start)
    return ChildResult(proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start)


def cli_failed(result: ChildResult) -> bool:
    """The CLI contract: exit 0, 1 or 2 and never a Python traceback."""
    return result.code not in (0, 1, 2) or "Traceback (most recent call last)" in result.err


def _angle(text: str) -> float:
    s = text.strip().lower()
    if "pi" not in s:
        return float(s)
    head, _, tail = s.partition("pi")
    coeff = float(head.rstrip("*")) if head.rstrip("*") not in ("", "+") else 1.0
    return coeff * math.pi / (float(tail[1:]) if tail else 1.0)


def _bs(text: str) -> tuple[int, float]:
    k, _, t = text[3:].partition(",")
    return int(k), _angle(t)


def _parse(args) -> tuple[str, str, dict]:
    args = list(args)
    glob = {}
    while args[0].startswith("--"):
        name = args.pop(0)
        glob[name] = args.pop(0)
    command = args.pop(0)
    if command == "catalysis":
        command += " " + args.pop(0)
    opts = {}
    while args:
        name = args.pop(0)
        opts[name] = True if name in _FLAGS else args.pop(0)
    return glob.get("--out", "json"), command, opts


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _table(out: str, fmt: str):
    """Rows and annotation lines of a JSON or CSV table payload."""
    if fmt == "json":
        res = json.loads(out)["results"]
        return res["rows"], res.get("crossovers")
    lines = out.strip().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:] if not ln.startswith("#")]
    crossings = [float(ln.split(",")[1]) for ln in lines if ln.startswith("# crossover,")]
    return rows, crossings


def _check_sweep(rows, k, thetas, orders, bits, what):
    require(len(rows) == len(thetas), f"{what}: {len(rows)} rows")
    for row, t in zip(rows, thetas):
        require(abs(row[0] - t) <= 1e-11, f"{what}: theta column {row[0]!r} vs {t!r}")
    ref.check_entropy_table([row[1:] for row in rows], k, thetas, orders, bits=bits)


def _orders(text: str) -> list[float]:
    return [math.inf if t.strip() == "inf" else float(t) for t in text.split(",") if t.strip()]


class CliChecker:
    """Checks one CLI invocation's stdout against the oracles."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, args, result: ChildResult) -> None:
        if tuple(args) in FAILING:
            require(result.code in (1, 2), f"{args}: exit {result.code}")
            return
        require(result.code == 0, f"{args}: exit {result.code}: {result.err.strip()[-200:]}")
        fmt, command, opts = _parse(args)
        body = json.loads(result.out)["results"] if fmt == "json" else None
        what = " ".join(args)
        if command == "spectrum":
            k, t = int(opts["--k"]), _angle(opts["--theta"])
            values = body if body is not None else [float(x) for x in result.out.split()]
            ref.check_spectrum(values, k, t, sort=bool(opts.get("--sorted")))
        elif command == "majorize":
            p, q = ref.spectrum_ref(*_bs(opts["--p"])), ref.spectrum_ref(*_bs(opts["--q"]))
            require(body["relation"] == ref.relation(p, q), f"{what}: {body['relation']}")
            ref.check_close(body["gaps"], ref.exact_gaps(p, q), rel=0, floor=1e-10, what=what)
        elif command == "photon-chain":
            k_max = int(opts["--k-max"])
            require([r["k"] for r in body] == list(range(k_max)), f"{what}: wrong k list")
            require(all(r["relation"] == "MajorizedBy" for r in body), f"{what}: {body}")
        elif command == "regions":
            ref.check_crossovers(int(opts["--k"]), body["crossovers"], body["pairs"],
                                 body["orderings"], angle_tol=1e-11, at_reported=False)
        elif command == "infinitesimal":
            ref.check_infinitesimal(body["status"], body["first_violation"],
                                    body["accumulation_derivatives"],
                                    int(opts["--k"]), _angle(opts["--theta"]))
        elif command == "entropy-curve":
            lo = _angle(opts.get("--theta-min", "0"))
            hi = _angle(opts.get("--theta-max", "pi/4"))
            thetas = _linspace(lo, hi, int(opts.get("--steps", 100)))
            rows, _ = _table(result.out, fmt)
            _check_sweep(rows, int(opts["--k"]), thetas, _orders(opts.get("--alphas", "1,10,inf")),
                         bool(opts.get("--bits")), what)
        elif command == "figure-data":
            k = {"fig4": 2, "fig5": 3}[opts["--figure"]]
            thetas = _linspace(0.0, QUARTER_PI, int(opts.get("--steps", 500)))
            rows, crossings = _table(result.out, fmt)
            _check_sweep(rows, k, thetas, [1.0, 10.0, math.inf], False, what)
            want = ref.crossover_angles(k)
            require(len(crossings) == len(want), f"{what}: {crossings}")
            for got, w in zip(crossings, want):
                require(abs(got - w) <= 1e-11, f"{what}: crossover {got!r} vs {w!r}")
        elif command == "locc-verify":
            k, t = int(opts["--k"]), _angle(opts["--theta"])
            require(body["nielsen_agreement"] is True, f"{what}: no agreement")
            ref.check_locc(body["branches"], body["target_spectrum"], k, t)
        elif command == "catalysis check":
            self._check_catalysis(opts, body, what)
        elif command == "catalysis search":
            self._check_search(opts, body, what)
        elif command == "birkhoff":
            k, _, t = opts["--witness"].partition(",")
            ref.check_witness(body["matrix"], int(k), _angle(t), tol=1e-11)
            ref.check_birkhoff(body["matrix"], body["perms"], body["weights"])
        else:
            raise CheckError(f"no checker for CLI command {command!r}")

    def _check_catalysis(self, opts, body, what):
        p, q = ref.spectrum_ref(*_bs(opts["--p"])), ref.spectrum_ref(*_bs(opts["--q"]))
        family, _, value = opts["--catalyst"].partition(":")
        value = float(value) if family == "tmsv" else _angle(value)
        require(body["without"] == ref.relation(p, q), f"{what}: without={body['without']}")
        require(body["achieved"] == ref.catalysis_holds(p, q, family, value),
                f"{what}: achieved={body['achieved']}")
        if body["achieved"]:
            require(body["with"] == "MajorizedBy", f"{what}: with={body['with']}")
        dim = ref.tmsv_terms(value) if family == "tmsv" else 2
        require(body["catalyst_dim"] == dim, f"{what}: catalyst_dim {body['catalyst_dim']}")

    def _check_search(self, opts, body, what):
        pq = (_bs(opts["--p"]), _bs(opts["--q"]))
        p, q = ref.spectrum_ref(*pq[0]), ref.spectrum_ref(*pq[1])
        family, grid = opts["--family"], float(opts["--grid"])
        values = [h["theta_c"] if family == "single-photon" else h["r"]
                  for h in body["success_set"]]
        require(body["count"] == len(values), f"{what}: count {body['count']}")
        for v in values:
            require(ref.catalysis_holds(p, q, family, v), f"{what}: {family}:{v!r} does not work")
        if pq == ((3, 0.72), (3, 0.62)):
            want = PAPER_HITS[family]
            if abs(round(want / grid) * grid - want) <= 1e-9:
                require(any(abs(v - want) <= 1e-9 for v in values), f"{what}: {want} missing")
        rng = random.Random(f"{self.seed}/{what}")
        for v in unreported(family, grid, float(opts.get("--r-max", 3.0)), values, rng):
            require(ref.catalysis_fails(p, q, family, v),
                    f"{what}: {family}:{v!r} works but was not reported")
