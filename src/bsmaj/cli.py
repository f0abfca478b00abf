"""Command-line front end: scriptable, deterministic JSON/CSV output.

Every command returns its ``(params, results)`` and :func:`_emits` writes
them. Every JSON payload is wrapped in a stable envelope
``{command, params, results, tool_version}`` and all floats are emitted
with 12 significant digits, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import click
import numpy as np

from . import __version__
from .beamsplitter import check_angle, photon_chain_check, spectrum
from .birkhoff import (
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
from .entropy import entropy_curve
from .locc import locc
from .majorization import compare
from .regions import (
    InfinitesimalStatus,
    QUARTER_PI,
    find_crossovers,
    infinitesimal_verdict,
)
from .vectors import TOL, ProbVector, check_tol, check_work, sort_desc


#: Most angles an entropy sweep may sample.
MAX_STEPS = 10**6

#: Most bytes read from a vector or catalyst file; a larger file is
#: refused after MAX_INPUT_BYTES + 1 bytes are read.
MAX_INPUT_BYTES = 2**26


# --------------------------------------------------------------------------
# parsing and formatting helpers


def parse_angle(text) -> float:
    """Parse an angle in radians, allowing 'pi' forms like pi/4 or 3*pi/8."""
    s = str(text).strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty angle")
    head, pi, tail = s.partition("pi")
    if pi:
        head = head.removesuffix("*")
    coeff = float(head + "1") if pi and head in ("", "+", "-") else float(head)
    if tail and not tail.startswith("/"):
        raise ValueError(f"cannot parse angle {text!r}")
    div = float(tail[1:]) if tail else 1.0
    if div == 0.0:
        raise ValueError(f"angle {text!r} divides by zero")
    if math.isinf(div):
        raise ValueError(f"angle {text!r} divides by infinity")
    value = coeff * (math.pi if pi else 1.0) / div
    if not math.isfinite(value):
        raise ValueError(f"angle {text!r} is not finite")
    return value


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering used by every emitter."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{float(x):.12g}"


def _round12(obj):
    """``obj`` with every float at 12 significant digits, and every array
    and tuple as a list; an integer array's list holds no float to round."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist() if obj.dtype.kind in "iu" else _round12(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def parse_k_theta(text) -> tuple[int, float]:
    """Parse K,THETA: a photon number and an angle."""
    k_str, sep, theta_str = str(text).partition(",")
    if not sep:
        raise ValueError(f"expected K,THETA, got {text!r}")
    return int(k_str), parse_angle(theta_str)


def parse_vector_arg(text: str) -> ProbVector:
    """Parse a vector argument: bs:K,THETA, an inline JSON array, or a path."""
    s = str(text).strip()
    if s.startswith("bs:"):
        return spectrum(*parse_k_theta(s[3:]))
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
    return ProbVector.parse(s if s.startswith("[") else _read_file(s.removeprefix("file:")))


def _read_file(path) -> str:
    """The text of the file at ``path``. At most ``MAX_INPUT_BYTES + 1``
    bytes are read, and a file that holds more is refused."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    check_work(len(data), MAX_INPUT_BYTES, f"the file {path!r} holds at least {len(data)} bytes")
    return data.decode()


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
        except ValueError as exc:
            self.fail(f"cannot parse {self.name} {value!r}: {exc}", param, ctx)


ANGLE = ParsedType("angle", parse_angle, float)
VECTOR = ParsedType("vector", parse_vector_arg, ProbVector)
CATALYST = ParsedType("catalyst", parse_catalyst_arg, CatalystSpec)


def _emits(command: str, *, csv: bool = False):
    """Make a body, which takes ``tol`` and its options and returns
    ``(params, results)``, into a command that writes the results.

    ``--out csv`` is refused before the body runs unless ``csv`` is set. A
    ValueError from ``check_tol`` of ``--tol``, which every body is given, or
    from the body, raised on malformed or out-of-range parameters, is a
    usage error (exit 2). CSV holds a 1-D
    array as one column, or a table ``{columns, rows[, crossovers]}`` as
    header, rows and annotations. The text is written in batches of pieces
    as it is made, never joined whole.
    """

    def decorate(fn):
        @click.pass_obj
        @functools.wraps(fn)
        def run(obj, **options):
            if obj["out"] == "csv" and not csv:
                raise click.UsageError(f"{command} only supports --out json")
            try:
                params, results = fn(check_tol(obj["tol"]), **options)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
            if obj["out"] == "csv":
                pieces = _csv_lines(results)
            else:
                envelope = {"command": command, "params": {**obj, **params},
                            "results": results, "tool_version": __version__}
                pieces = itertools.chain(
                    json.JSONEncoder(indent=2).iterencode(_round12(envelope)), ["\n"])
            while text := "".join(itertools.islice(pieces, 4096)):
                click.echo(text, nl=False)

        return run

    return decorate


def _csv_lines(results):
    """The CSV text of ``results``: a 1-D array as one piece, a table as
    one piece per line."""
    if not isinstance(results, dict):
        yield "\n".join(map(_fmt, results.tolist())) + "\n"
        return
    yield ",".join(results["columns"]) + "\n"
    for row in results["rows"]:
        yield ",".join(map(_fmt, row.tolist())) + "\n"
    if "crossovers" in results:
        yield "# region-boundaries\n"
        yield from (f"# crossover,{_fmt(c)}\n" for c in results["crossovers"])


def _sweep(k: int, orders, steps: int, theta_min: float = 0.0,
           theta_max: float = QUARTER_PI, *, bits: bool = False) -> np.ndarray:
    """Rows (theta, entropies...) over ``steps`` evenly spaced angles. The
    grid is checked against [2, ``MAX_STEPS``] and [0, pi/2] before any
    allocation."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
    check_work(steps, MAX_STEPS, f"{steps} angle steps")
    check_angle(theta_min)
    check_angle(theta_max)
    if not theta_min < theta_max:
        raise ValueError("need 0 <= theta-min < theta-max")
    grid = np.linspace(theta_min, theta_max, steps)
    return np.column_stack([grid, entropy_curve(k, orders, grid, bits=bits)])


# --------------------------------------------------------------------------
# command group


@click.group()
@click.version_option(version=__version__, prog_name="bsmaj")
@click.option("--out", type=click.Choice(["json", "csv"]), default="json",
              show_default=True, help="Output format.")
@click.option("--tol", type=float, default=TOL, show_default=True,
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
@_emits("spectrum", csv=True)
def spectrum_cmd(tol, k, theta, sorted_):
    """Transmitted-photon Schmidt spectrum for |k> and vacuum inputs."""
    vec = spectrum(k, theta)
    if sorted_:
        vec = sort_desc(vec).sorted
    return {"k": k, "theta": theta, "sorted": sorted_}, vec.components


@main.command("majorize")
@click.option("--p", "p", type=VECTOR, required=True,
              help="First vector (bs:K,THETA, inline JSON, or a file).")
@click.option("--q", "q", type=VECTOR, required=True, help="Second vector.")
@_emits("majorize")
def majorize_cmd(tol, p, q):
    """Majorization verdict for p against q with prefix-sum gaps."""
    return {"p": p.components, "q": q.components}, compare(p, q, tol=tol).to_dict()


@main.command("photon-chain")
@click.option("--k-max", type=int, required=True, help="Largest photon number checked.")
@click.option("--theta", type=ANGLE, required=True)
@_emits("photon-chain")
def photon_chain_cmd(tol, k_max, theta):
    """Verdicts for every consecutive photon-number pair at a fixed angle."""
    verdicts = photon_chain_check(k_max, theta, tol=tol)
    results = [{"k": k, "relation": v.relation.value} for k, v in enumerate(verdicts)]
    return {"k_max": k_max, "theta": theta}, results


@main.command("regions")
@click.option("--k", type=int, required=True)
@_emits("regions")
def regions_cmd(tol, k):
    """Crossover angles and per-region sorting permutations for photon number k."""
    part = find_crossovers(k)
    return {"k": k}, {"crossovers": part.crossovers, "orderings": part.orderings,
                      "pairs": part.pairs}


@main.command("infinitesimal")
@click.option("--k", type=int, required=True)
@click.option("--theta", type=ANGLE, required=True)
@_emits("infinitesimal")
def infinitesimal_cmd(tol, k, theta):
    """Infinitesimal parametric-majorization verdict at one angle."""
    verdict = infinitesimal_verdict(k, theta, tol=tol)
    if verdict.status is InfinitesimalStatus.BOUNDARY:
        raise click.ClickException(
            f"{verdict.reason} (theta={theta!r}); pick an angle away from it"
        )
    results = {
        "status": verdict.status.value,
        "first_violation": verdict.first_violation,
        "accumulation_derivatives": verdict.derivatives.values,
    }
    return {"k": k, "theta": theta}, results


@main.command("entropy-curve")
@click.option("--k", type=int, required=True)
@click.option("--alphas", default="1,10,inf", show_default=True,
              help="Comma-separated entropy orders; 'inf' is the min-entropy.")
@click.option("--theta-min", type=ANGLE, default=0.0, show_default=True)
@click.option("--theta-max", type=ANGLE, default=QUARTER_PI,
              help="Defaults to pi/4.")
@click.option("--steps", type=int, default=100, show_default=True)
@click.option("--bits", is_flag=True, help="Report entropies in bits, not nats.")
@_emits("entropy-curve", csv=True)
def entropy_curve_cmd(tol, k, alphas, theta_min, theta_max, steps, bits):
    """Entropies of the k-photon spectrum over an angle grid."""
    tokens = [t.strip() for t in alphas.split(",") if t.strip()]
    if not tokens:
        raise ValueError("at least one entropy order is required")
    rows = _sweep(k, tokens, steps, theta_min, theta_max, bits=bits)
    params = {"k": k, "alphas": tokens, "theta_min": theta_min,
              "theta_max": theta_max, "steps": steps, "bits": bits}
    return params, {"columns": ["theta"] + [f"S_{t}" for t in tokens], "rows": rows}


@main.command("figure-data")
@click.option("--figure", type=click.Choice(["fig4", "fig5"]), required=True,
              help="fig4 is the 2-photon sweep, fig5 the 3-photon sweep.")
@click.option("--steps", type=int, default=500, show_default=True)
@_emits("figure-data", csv=True)
def figure_data_cmd(tol, figure, steps):
    """Entropy sweep data behind the 2- and 3-photon figures."""
    k = {"fig4": 2, "fig5": 3}[figure]
    rows = _sweep(k, [1.0, 10.0, math.inf], steps)
    return {"figure": figure, "steps": steps}, {
        "columns": ["theta", "S_1", "S_10", "S_inf"],
        "rows": rows,
        "crossovers": find_crossovers(k).crossovers,
    }


@main.command("locc-verify")
@click.option("--k", type=int, required=True,
              help="Target photon number; the input state carries k+1 photons.")
@click.option("--theta", type=ANGLE, required=True)
@_emits("locc-verify")
def locc_verify_cmd(tol, k, theta):
    """Run both measurement branches and check agreement with majorization."""
    branch1, branch2, target, agreement = locc(k, theta, tol=tol)
    results = {
        "branches": [branch1.to_dict(), branch2.to_dict()],
        "target_spectrum": target.components,
        "nielsen_agreement": agreement,
    }
    return {"k": k, "theta": theta}, results


@main.group("catalysis")
def catalysis_group():
    """Catalyzed conversion between incomparable spectra."""


@catalysis_group.command("check")
@click.option("--p", type=VECTOR, required=True,
              help="Conversion source spectrum (bs:K,THETA, JSON, or file).")
@click.option("--q", type=VECTOR, required=True, help="Conversion target spectrum.")
@click.option("--catalyst", type=CATALYST, required=True,
              help="single-photon:THETA, tmsv:R, file:PATH, or inline JSON.")
@_emits("catalysis check")
def catalysis_check_cmd(tol, p, q, catalyst):
    """Verdicts for p against q, bare and with the catalyst attached."""
    report = check_catalysis(p, q, catalyst, tol=tol)
    if catalyst.family is CatalystFamily.TMSV:
        dim = tmsv_dimension(catalyst.r)
    else:
        dim = catalyst_spectrum(catalyst).dim
    params = {"p": p.components, "q": q.components, "tail_tol": TAIL_TOL}
    return params, {**report.to_dict(), "catalyst_dim": dim}


@catalysis_group.command("search")
@click.option("--p", type=VECTOR, required=True)
@click.option("--q", type=VECTOR, required=True)
@click.option("--family", type=click.Choice(["single-photon", "tmsv"]), required=True)
@click.option("--grid", type=float, required=True,
              help="Parameter grid step.")
@click.option("--r-max", type=float, default=3.0, show_default=True,
              help="Upper end of the squeezing-parameter scan.")
@click.option("--all", "all_", is_flag=True, help="Report the whole success set.")
@_emits("catalysis search")
def catalysis_search_cmd(tol, p, q, family, grid, r_max, all_):
    """Scan a catalyst family for parameters that achieve catalysis."""
    params = {"p": p.components, "q": q.components,
              "family": family, "grid": grid, "r_max": r_max, "all": all_}
    if all_:
        hits = search_catalyst_all(p, q, family, grid, r_max=r_max, tol=tol)
        return params, {"success_set": [h.describe() for h in hits], "count": len(hits)}
    hit = search_catalyst(p, q, family, grid, r_max=r_max, tol=tol)
    return params, {"found": hit.describe() if hit is not None else None}


@main.command("birkhoff")
@click.option("--witness", required=True, metavar="K,THETA",
              help="Decompose the photon-chain witness matrix for K at THETA.")
@_emits("birkhoff")
def birkhoff_cmd(tol, witness):
    """Decompose the photon-chain witness matrix into a permutation mixture."""
    matrix = bs_witness_matrix(*parse_k_theta(witness))
    decomp = birkhoff_decompose(matrix, tol=tol)
    results = {
        "matrix": matrix.entries,
        **decomp.to_dict(),
        "terms": len(decomp),
        "reconstruction_error": np.max(np.abs(decomp.reconstruct() - matrix.entries)),
    }
    return {"witness": witness}, results


if __name__ == "__main__":
    main()
