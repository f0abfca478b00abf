"""Spans around bsmaj's public functions, recorded from outside the package.

:class:`Tracer` replaces each function in :data:`TRACED` with a wrapper at
every ``bsmaj`` module that binds the function's name, so calls made inside
the package (``photon_chain_check`` calling ``spectrum``) are seen as well as
calls made by the benchmark. Spans are kept in memory as
``[name, start, end, parent, tag]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Public functions wrapped in a traced run, as ``module.function``.
TRACED = (
    "beamsplitter.spectrum",
    "beamsplitter.photon_chain_check",
    "regions.find_crossovers",
    "regions.component_derivatives",
    "regions.accumulation_derivatives",
    "regions.infinitesimal_verdict",
    "entropy.renyi",
    "entropy.entropy_curve",
    "vectors.tensor",
    "vectors.sort_desc",
    "majorization.compare",
    "catalysis.catalyst_spectrum",
    "catalysis.check_catalysis",
    "catalysis.necessary_conditions",
    "catalysis.search_catalyst_all",
    "birkhoff.birkhoff_decompose",
    "locc.run_protocol",
    "locc.verify_nielsen",
)


def _compare_dim(args, kwargs, result):
    return max(args[0].dim, args[1].dim)


def _catalyst_family(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["c"]
    return spec.family.value


def _hits(args, kwargs, result):
    return sum(1 for spec in result if spec.family.value != "explicit")


#: Per-call facts kept on a span, computed from arguments and result.
TAGS = {
    "majorization.compare": _compare_dim,
    "catalysis.check_catalysis": _catalyst_family,
    "catalysis.search_catalyst_all": _hits,
}


class Tracer:
    """Records nested spans; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Times the block as a child of the open span; yields its index."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def wrap(self, name: str, fn):
        tag = TAGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as idx:
                result = fn(*args, **kwargs)
            if tag is not None:
                tracer.spans[idx][4] = tag(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bsmaj" or n.startswith("bsmaj."))]
        for qualified in TRACED:
            mod_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"bsmaj.{mod_name}"], fn_name)
            wrapped = self.wrap(qualified, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def write_trace(path, span_sets: list[list[list]]) -> None:
    """Write one span list per process as JSON."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                   "processes": span_sets}, fh)


def read_trace(path) -> list[list[list]]:
    with open(path) as fh:
        return json.load(fh)["processes"]


# --------------------------------------------------------------------------
# per-layer metrics


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(span_sets) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one or more span lists (one per process)."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    dims: list[int] = []
    crossovers_in_verdict = hits = searched = tmsv_checks = confirms = 0
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        children: defaultdict = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        for i, (name, start, end, _, tag) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if name == "majorization.compare":
                dims.append(tag)
            elif name == "regions.find_crossovers":
                crossovers_in_verdict += _has_ancestor(spans, i, "regions.infinitesimal_verdict")
            elif name == "catalysis.search_catalyst_all":
                hits += tag
            elif name == "catalysis.check_catalysis":
                searched += _has_ancestor(spans, i, "catalysis.search_catalyst_all")
                if tag == "tmsv":
                    tmsv_checks += 1
                    materialized = sum(
                        spans[c][0] == "catalysis.catalyst_spectrum" for c in children[i])
                    confirms += max(0, materialized - 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for qualified in (*TRACED, "cli.main"):
        out[f"{qualified}.calls"] = (calls[qualified], "count")
        out[f"{qualified}.self_s"] = (self_s[qualified], "s")
    out["majorization.compare.dim_mean"] = (ratio(sum(dims), len(dims)), "entries")
    out["regions.find_crossovers_per_verdict"] = (
        ratio(crossovers_in_verdict, calls["regions.infinitesimal_verdict"]), "ratio")
    out["catalysis.hit_ratio"] = (ratio(hits, searched), "ratio")
    out["catalysis.confirm_ratio"] = (ratio(confirms, tmsv_checks), "ratio")
    return out


# --------------------------------------------------------------------------
# import times


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and click, and bsmaj's own modules.

    Parsed from ``python -X importtime`` output. A library's time is the
    cumulative time of its outermost entries, so it counts once however
    many of its submodules are imported.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]) // 2, m[4]))
    totals = dict.fromkeys(("numpy", "scipy", "click", "bsmaj_self"), 0)
    stack: list[tuple[int, str]] = []
    # Lines come children first; walking them backwards visits parents first.
    for self_us, cum_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in ("numpy", "scipy", "click") and all(
                a.split(".")[0] != top for _, a in stack):
            totals[top] += cum_us
        if top == "bsmaj":
            totals["bsmaj_self"] += self_us
        stack.append((depth, name))
    return {f"import.{key}_s": value / 1e6 for key, value in totals.items()}


def median_imports(samples: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    return {key: (statistics.median(s[key] for s in samples), "s") for key in samples[0]}
