"""Command-line front end: scriptable, deterministic JSON/CSV output.

Every JSON payload is wrapped in a stable envelope
``{command, params, results, tool_version}`` and all floats are emitted
with 12 significant digits, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import click
import numpy as np

from . import __version__
from .beamsplitter import check_angle, photon_chain_check, spectrum
from .birkhoff import (
    DoublyStochasticMatrix,
    birkhoff_decompose,
    bs_witness_matrix,
)
from .catalysis import (
    CatalystFamily,
    CatalystSpec,
    TAIL_TOL,
    catalyst_spectrum,
    check_catalysis,
    search_catalyst,
    search_catalyst_all,
    tmsv_dimension,
)
from .entropy import entropy_curve, parse_order
from .locc import run_protocol, verify_nielsen
from .majorization import compare
from .regions import (
    InfinitesimalStatus,
    QUARTER_PI,
    find_crossovers,
    infinitesimal_verdict,
)
from .vectors import TOL, ProbVector, check_work, json_array, sort_desc


#: Most angles an entropy sweep may sample.
MAX_STEPS = 10**6

#: Most entry steps, support entries times d^2, a ``birkhoff --file``
#: decomposition may take: each of its terms zeroes at least one support
#: entry and scans the d x d residual. A dense d = 90 matrix is accepted.
#: This is an estimate, not a worst-case bound: a term's augmenting-path
#: matching may cost up to d times the support. Random and circulant
#: mixtures at d = 90 took 0.35-0.65 ms per term.
MAX_DECOMPOSITION_WORK = 2**26


# --------------------------------------------------------------------------
# parsing and formatting helpers


def parse_angle(text) -> float:
    """Parse an angle in radians, allowing 'pi' forms like pi/4 or 3*pi/8."""
    s = str(text).strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty angle")
    if "pi" not in s:
        value = float(s)
    else:
        head, _, tail = s.partition("pi")
        coeff = 1.0
        if head:
            if head.endswith("*"):
                head = head[:-1]
            if head == "-":
                coeff = -1.0
            elif head not in ("", "+"):
                coeff = float(head)
        div = 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            div = float(tail[1:])
            if div == 0.0:
                raise ValueError(f"angle {text!r} divides by zero")
            if math.isinf(div):
                raise ValueError(f"angle {text!r} divides by infinity")
        value = coeff * math.pi / div
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering used by every emitter."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        if obj == 0.0:
            return 0.0
        return float(_fmt(obj))
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round12(float(obj))
    return obj


class AngleType(click.ParamType):
    name = "angle"

    def convert(self, value, param, ctx):
        if isinstance(value, float):
            return value
        try:
            return parse_angle(value)
        except ValueError:
            self.fail(f"{value!r} is not a valid angle", param, ctx)


ANGLE = AngleType()


def parse_vector_arg(text: str) -> ProbVector:
    """Parse a vector argument: bs:K,THETA, an inline JSON array, or a path."""
    s = str(text).strip()
    if s.startswith("bs:"):
        k_str, sep, theta_str = s[3:].partition(",")
        if not sep:
            raise ValueError(f"expected bs:K,THETA, got {text!r}")
        return spectrum(int(k_str), parse_angle(theta_str))
    return _read_vector(s)


def parse_catalyst_arg(text: str) -> CatalystSpec:
    """Parse single-photon:THETA, tmsv:R, file:PATH, or an inline array."""
    s = str(text).strip()
    if s.startswith("single-photon:"):
        return CatalystSpec.single_photon(parse_angle(s.partition(":")[2]))
    if s.startswith("tmsv:"):
        return CatalystSpec.tmsv(float(s.partition(":")[2]))
    return CatalystSpec.explicit(_read_vector(s))


def _read_vector(s: str) -> ProbVector:
    """Read an inline JSON array, or a file named as file:PATH or PATH."""
    if s.startswith("["):
        return ProbVector.from_json(s)
    path = s[5:] if s.startswith("file:") else s
    return ProbVector.parse(Path(path).read_text())


class ParsedType(click.ParamType):
    """A click type that reads text with ``parse`` and passes through values
    that are already of type ``kind``; parse errors exit 2."""

    def __init__(self, name: str, parse, kind: type):
        self.name, self.parse, self.kind = name, parse, kind

    def convert(self, value, param, ctx):
        if isinstance(value, self.kind):
            return value
        try:
            return self.parse(value)
        except (ValueError, OSError) as exc:
            self.fail(f"cannot parse {self.name} {value!r}: {exc}", param, ctx)


VECTOR = ParsedType("vector", parse_vector_arg, ProbVector)
CATALYST = ParsedType("catalyst", parse_catalyst_arg, CatalystSpec)


def _finite(ctx, param, value):
    """Reject NaN, which passes every range check, and infinities."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number", ctx, param)
    return value


def _domain_guard(fn):
    """Map library ValueErrors, raised on malformed or out-of-range
    parameters, onto usage errors: exit 2."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _emit_json(obj, command: str, params: dict, results) -> None:
    envelope = {
        "command": command,
        "params": {"out": obj["out"], "tol": obj["tol"], "seed": obj["seed"], **params},
        "results": results,
        "tool_version": __version__,
    }
    click.echo(json.dumps(_round12(envelope), indent=2))


def _emit_column_csv(values) -> None:
    click.echo("\n".join(_fmt(v) for v in values))


def _emit_table_csv(header: list[str], rows, annotations: list[str] = ()) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(annotations)
    click.echo("\n".join(lines))


def _check_steps(steps: int) -> None:
    """Reject angle-grid sizes outside [2, MAX_STEPS] before any allocation."""
    if steps < 2:
        raise click.UsageError("steps must be at least 2")
    check_work(steps, MAX_STEPS, f"{steps} angle steps")


def _check_decomposition(matrix: DoublyStochasticMatrix, tol: float) -> None:
    """Refuse a decomposition of more than ``MAX_DECOMPOSITION_WORK`` entry
    steps before it starts."""
    support = int(np.count_nonzero(matrix.entries > tol))
    work = support * matrix.d**2
    check_work(work, MAX_DECOMPOSITION_WORK, f"decomposing a {matrix.d}x{matrix.d} matrix "
               f"with {support} support entries takes about {work} entry steps")


def _require_json(obj, command: str) -> None:
    if obj["out"] != "json":
        raise click.UsageError(f"{command} only supports --out json")


# --------------------------------------------------------------------------
# command group


@click.group()
@click.version_option(version=__version__, prog_name="bsmaj")
@click.option("--out", type=click.Choice(["json", "csv"]), default="json",
              show_default=True, help="Output format.")
@click.option("--tol", type=click.FloatRange(min=0), default=TOL, show_default=True,
              callback=_finite,
              help="Comparison tolerance for ordering decisions.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for any randomized operation.")
@click.pass_context
def main(ctx, out, tol, seed):
    """Beam-splitter Fock-state spectra and the majorization order over them."""
    ctx.obj = {"out": out, "tol": tol, "seed": seed}


@main.command("spectrum")
@click.option("--k", type=int, required=True, help="Incident photon number.")
@click.option("--theta", type=ANGLE, required=True, help="Coupling angle in radians.")
@click.option("--sorted", "sorted_", is_flag=True, help="Emit in non-increasing order.")
@click.pass_obj
@_domain_guard
def spectrum_cmd(obj, k, theta, sorted_):
    """Transmitted-photon Schmidt spectrum for |k> and vacuum inputs."""
    vec = spectrum(k, theta)
    if sorted_:
        vec = sort_desc(vec).sorted
    values = [float(x) for x in vec.components]
    if obj["out"] == "csv":
        _emit_column_csv(values)
    else:
        _emit_json(obj, "spectrum", {"k": k, "theta": theta, "sorted": sorted_}, values)


@main.command("majorize")
@click.option("--p", "p", type=VECTOR, required=True,
              help="First vector (bs:K,THETA, inline JSON, or a file).")
@click.option("--q", "q", type=VECTOR, required=True, help="Second vector.")
@click.pass_obj
@_domain_guard
def majorize_cmd(obj, p, q):
    """Majorization verdict for p against q with prefix-sum gaps."""
    _require_json(obj, "majorize")
    verdict = compare(p, q, tol=obj["tol"])
    _emit_json(obj, "majorize",
               {"p": [float(x) for x in p.components],
                "q": [float(x) for x in q.components]},
               verdict.to_dict())


@main.command("photon-chain")
@click.option("--k-max", type=int, required=True, help="Largest photon number checked.")
@click.option("--theta", type=ANGLE, required=True)
@click.pass_obj
@_domain_guard
def photon_chain_cmd(obj, k_max, theta):
    """Verdicts for every consecutive photon-number pair at a fixed angle."""
    _require_json(obj, "photon-chain")
    verdicts = photon_chain_check(k_max, theta, tol=obj["tol"])
    results = [{"k": k, "relation": v.relation.value} for k, v in enumerate(verdicts)]
    _emit_json(obj, "photon-chain", {"k_max": k_max, "theta": theta}, results)


@main.command("regions")
@click.option("--k", type=int, required=True)
@click.pass_obj
@_domain_guard
def regions_cmd(obj, k):
    """Crossover angles and per-region sorting permutations for photon number k."""
    _require_json(obj, "regions")
    part = find_crossovers(k)
    results = {
        "crossovers": [float(c) for c in part.crossovers],
        "orderings": [list(o) for o in part.orderings],
        "pairs": [[list(pair) for pair in group] for group in part.pairs],
    }
    _emit_json(obj, "regions", {"k": k}, results)


@main.command("infinitesimal")
@click.option("--k", type=int, required=True)
@click.option("--theta", type=ANGLE, required=True)
@click.pass_obj
@_domain_guard
def infinitesimal_cmd(obj, k, theta):
    """Infinitesimal parametric-majorization verdict at one angle."""
    _require_json(obj, "infinitesimal")
    verdict = infinitesimal_verdict(k, theta, tol=obj["tol"])
    if verdict.status is InfinitesimalStatus.BOUNDARY:
        raise click.ClickException(
            f"theta={theta!r} sits on a crossover; pick a side of the boundary"
        )
    results = {
        "status": verdict.status.value,
        "first_violation": verdict.first_violation,
        "accumulation_derivatives": [float(a) for a in verdict.derivatives.values],
    }
    _emit_json(obj, "infinitesimal", {"k": k, "theta": theta}, results)


@main.command("entropy-curve")
@click.option("--k", type=int, required=True)
@click.option("--alphas", default="1,10,inf", show_default=True,
              help="Comma-separated entropy orders; 'inf' is the min-entropy.")
@click.option("--theta-min", type=ANGLE, default=0.0, show_default=True)
@click.option("--theta-max", type=ANGLE, default=QUARTER_PI,
              help="Defaults to pi/4.")
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--bits", is_flag=True, help="Report entropies in bits, not nats.")
@click.pass_obj
@_domain_guard
def entropy_curve_cmd(obj, k, alphas, theta_min, theta_max, steps, bits):
    """Entropies of the k-photon spectrum over an angle grid."""
    tokens = [t.strip() for t in alphas.split(",") if t.strip()]
    if not tokens:
        raise click.UsageError("at least one entropy order is required")
    orders = [parse_order(t) for t in tokens]
    _check_steps(steps)
    check_angle(theta_min)
    check_angle(theta_max)
    if not theta_min < theta_max:
        raise click.UsageError("need 0 <= theta-min < theta-max")
    grid = np.linspace(theta_min, theta_max, steps)
    values = entropy_curve(k, orders, grid, bits=bits)
    header = ["theta"] + [f"S_{t}" for t in tokens]
    rows = [[float(t), *map(float, row)] for t, row in zip(grid, values)]
    if obj["out"] == "csv":
        _emit_table_csv(header, rows)
    else:
        _emit_json(obj, "entropy-curve",
                   {"k": k, "alphas": tokens, "theta_min": theta_min,
                    "theta_max": theta_max, "steps": steps, "bits": bits},
                   {"columns": header, "rows": rows})


@main.command("figure-data")
@click.option("--figure", type=click.Choice(["fig4", "fig5"]), required=True,
              help="fig4 is the 2-photon sweep, fig5 the 3-photon sweep.")
@click.option("--steps", type=int, default=500, show_default=True)
@click.pass_obj
@_domain_guard
def figure_data_cmd(obj, figure, steps):
    """Entropy sweep data behind the 2- and 3-photon figures."""
    _check_steps(steps)
    k = {"fig4": 2, "fig5": 3}[figure]
    grid = np.linspace(0.0, QUARTER_PI, steps)
    values = entropy_curve(k, [1.0, 10.0, math.inf], grid)
    crossings = [float(c) for c in find_crossovers(k).crossovers]
    header = ["theta", "S_1", "S_10", "S_inf"]
    rows = [[float(t), *map(float, row)] for t, row in zip(grid, values)]
    if obj["out"] == "csv":
        annotations = ["# region-boundaries"]
        annotations.extend(f"# crossover,{_fmt(c)}" for c in crossings)
        _emit_table_csv(header, rows, annotations)
    else:
        _emit_json(obj, "figure-data", {"figure": figure, "steps": steps},
                   {"columns": header, "rows": rows, "crossovers": crossings})


@main.command("locc-verify")
@click.option("--k", type=int, required=True,
              help="Target photon number; the input state carries k+1 photons.")
@click.option("--theta", type=ANGLE, required=True)
@click.pass_obj
@_domain_guard
def locc_verify_cmd(obj, k, theta):
    """Run both measurement branches and check agreement with majorization."""
    _require_json(obj, "locc-verify")
    branch1, branch2 = run_protocol(k, theta)
    agreement = verify_nielsen(k, theta, tol=obj["tol"])
    results = {
        "branches": [branch1.to_dict(), branch2.to_dict()],
        "target_spectrum": [float(x) for x in spectrum(k, theta).components],
        "nielsen_agreement": agreement,
    }
    _emit_json(obj, "locc-verify", {"k": k, "theta": theta}, results)


@main.group("catalysis")
def catalysis_group():
    """Catalyzed conversion between incomparable spectra."""


@catalysis_group.command("check")
@click.option("--p", type=VECTOR, required=True,
              help="Conversion source spectrum (bs:K,THETA, JSON, or file).")
@click.option("--q", type=VECTOR, required=True, help="Conversion target spectrum.")
@click.option("--catalyst", type=CATALYST, required=True,
              help="single-photon:THETA, tmsv:R, file:PATH, or inline JSON.")
@click.pass_obj
@_domain_guard
def catalysis_check_cmd(obj, p, q, catalyst):
    """Verdicts for p against q, bare and with the catalyst attached."""
    _require_json(obj, "catalysis check")
    report = check_catalysis(p, q, catalyst, tol=obj["tol"])
    results = report.to_dict()
    if catalyst.family is CatalystFamily.TMSV:
        results["catalyst_dim"] = tmsv_dimension(catalyst.r)
    else:
        results["catalyst_dim"] = catalyst_spectrum(catalyst).dim
    _emit_json(obj, "catalysis check",
               {"p": [float(x) for x in p.components],
                "q": [float(x) for x in q.components],
                "tail_tol": TAIL_TOL},
               results)


@catalysis_group.command("search")
@click.option("--p", type=VECTOR, required=True)
@click.option("--q", type=VECTOR, required=True)
@click.option("--family", type=click.Choice(["single-photon", "tmsv"]), required=True)
@click.option("--grid", type=float, required=True, callback=_finite,
              help="Parameter grid step.")
@click.option("--r-max", type=float, default=3.0, show_default=True, callback=_finite,
              help="Upper end of the squeezing-parameter scan.")
@click.option("--all", "all_", is_flag=True, help="Report the whole success set.")
@click.pass_obj
@_domain_guard
def catalysis_search_cmd(obj, p, q, family, grid, r_max, all_):
    """Scan a catalyst family for parameters that achieve catalysis."""
    _require_json(obj, "catalysis search")
    params = {"p": [float(x) for x in p.components],
              "q": [float(x) for x in q.components],
              "family": family, "grid": grid, "r_max": r_max, "all": all_}
    if all_:
        hits = search_catalyst_all(p, q, family, grid, r_max=r_max, tol=obj["tol"])
        results = {"success_set": [h.describe() for h in hits], "count": len(hits)}
    else:
        hit = search_catalyst(p, q, family, grid, r_max=r_max, tol=obj["tol"])
        results = {"found": hit.describe() if hit is not None else None}
    _emit_json(obj, "catalysis search", params, results)


@main.command("birkhoff")
@click.option("--witness", default=None, metavar="K,THETA",
              help="Decompose the photon-chain witness matrix for K at THETA.")
@click.option("--file", "path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Decompose a matrix read as a JSON array of rows.")
@click.pass_obj
@_domain_guard
def birkhoff_cmd(obj, witness, path):
    """Decompose a doubly stochastic matrix into a permutation mixture."""
    _require_json(obj, "birkhoff")
    if (witness is None) == (path is None):
        raise click.UsageError("provide exactly one of --witness or --file")
    if witness is not None:
        k_str, sep, theta_str = witness.partition(",")
        if not sep:
            raise click.UsageError("expected --witness K,THETA")
        matrix = bs_witness_matrix(int(k_str), parse_angle(theta_str))
        params = {"witness": witness}
    else:
        matrix = DoublyStochasticMatrix(json_array(Path(path).read_text(), 2))
        _check_decomposition(matrix, obj["tol"])
        params = {"file": str(path)}
    decomp = birkhoff_decompose(matrix, tol=obj["tol"])
    error = float(np.max(np.abs(decomp.reconstruct() - matrix.entries)))
    results = {
        "matrix": matrix.to_rows(),
        **decomp.to_dict(),
        "terms": len(decomp),
        "reconstruction_error": error,
    }
    _emit_json(obj, "birkhoff", params, results)


if __name__ == "__main__":
    main()
