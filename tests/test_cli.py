import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmaj import (
    BirkhoffDecomposition,
    DoublyStochasticMatrix,
    MajorizationVerdict,
    ProbVector,
    Relation,
    compare,
    spectrum,
)
from bsmaj import __version__, cli, locc
from bsmaj.cli import main, parse_angle, parse_catalyst_arg, parse_vector_arg

from conftest import CLI_BATTERY


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def payload(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_angle_forms():
    assert parse_angle("0.62") == 0.62
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("3*pi/8") == 3 * math.pi / 8
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("1e-3") == 1e-3
    assert parse_angle("*pi") == math.pi
    assert parse_angle("+pi") == math.pi
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("PI/4") == math.pi / 4
    assert parse_angle(" 3 * pi / 8 ") == 3 * math.pi / 8
    with pytest.raises(ValueError):
        parse_angle("four")
    for bad, message in (("", "empty angle"), ("  ", "empty angle"),
                         ("pi*3", "cannot parse angle"), ("2*pi8", "cannot parse angle"),
                         ("pi/0", "divides by zero"), ("2*pi/0.0", "divides by zero"),
                         ("pi/inf", "divides by infinity"), ("pi/-inf", "divides by infinity"),
                         ("pi/1e999", "divides by infinity"),
                         ("2*pi/infinity", "divides by infinity"),
                         ("inf", "is not finite"), ("-inf", "is not finite"),
                         ("nan", "is not finite"), ("1e400", "is not finite"),
                         ("1e308*pi", "is not finite"), ("pi/nan", "is not finite")):
        with pytest.raises(ValueError, match=message):
            parse_angle(bad)


def test_parse_vector_arg_forms(tmp_path):
    bs = parse_vector_arg("bs:2,pi/4")
    assert np.allclose(bs.components, spectrum(2, math.pi / 4).components)
    inline = parse_vector_arg("[0.5, 0.5]")
    assert np.allclose(inline.components, [0.5, 0.5])
    path = tmp_path / "vec.json"
    path.write_text("[0.25, 0.75]")
    assert np.allclose(parse_vector_arg(str(path)).components, [0.25, 0.75])
    csv_path = tmp_path / "vec.csv"
    csv_path.write_text("0.3\n0.7\n")
    assert np.allclose(parse_vector_arg(f"file:{csv_path}").components, [0.3, 0.7])


def test_parse_catalyst_arg_forms(tmp_path):
    sp = parse_catalyst_arg("single-photon:0.7")
    assert sp.theta_c == 0.7
    tm = parse_catalyst_arg("tmsv:1.38")
    assert tm.r == 1.38
    inline = parse_catalyst_arg("[0.9, 0.1]")
    assert np.allclose(inline.vector.components, [0.9, 0.1])


# ---------------------------------------------------------------------------
# commands


def test_spectrum_json_envelope(cli_runner):
    result = invoke(cli_runner, ["spectrum", "--k", "3", "--theta", "0.62", "--sorted"])
    assert result.exit_code == 0
    data = payload(result)
    assert data["command"] == "spectrum"
    assert data["params"]["k"] == 3
    assert data["tool_version"]
    assert np.allclose(
        data["results"], (0.44439, 0.290641, 0.226491, 0.0384782), atol=1e-5
    )
    # round trip into the domain type
    vec = ProbVector(data["results"])
    assert vec.dim == 4


def test_spectrum_csv_single_column(cli_runner):
    result = invoke(cli_runner, ["--out", "csv", "spectrum", "--k", "2", "--theta", "0.5"])
    assert result.exit_code == 0
    vec = ProbVector.parse(result.output)
    assert vec.allclose(spectrum(2, 0.5), tol=1e-11)


def test_majorize_round_trip(cli_runner):
    result = invoke(cli_runner, ["majorize", "--p", "bs:3,0.72", "--q", "bs:3,0.62"])
    results = payload(result)["results"]
    verdict = MajorizationVerdict(Relation(results["relation"]), tuple(results["gaps"]),
                                  results["first_violation"])
    want = compare(spectrum(3, 0.72), spectrum(3, 0.62))
    assert verdict.relation is want.relation is Relation.INCOMPARABLE
    assert verdict.first_violation == want.first_violation
    assert np.allclose(verdict.partial_sum_gaps, want.partial_sum_gaps, rtol=0, atol=1e-11)


def test_majorize_pair_within_tolerance_is_equal_both_ways(cli_runner):
    p, q = "[0.5, 0.3, 0.2]", "[0.5000000000008, 0.2999999999984, 0.2000000000008]"
    for a, b in ((p, q), (q, p)):
        result = invoke(cli_runner, ["majorize", "--p", a, "--q", b])
        assert payload(result)["results"]["relation"] == "Equal"


def test_photon_chain(cli_runner):
    result = invoke(cli_runner, ["photon-chain", "--k-max", "4", "--theta", "0.7"])
    data = payload(result)
    assert [row["relation"] for row in data["results"]] == ["MajorizedBy"] * 4


def test_regions_crossovers(cli_runner):
    result = invoke(cli_runner, ["regions", "--k", "3"])
    data = payload(result)
    got = data["results"]["crossovers"]
    assert got[0] == pytest.approx(math.atan(1 / math.sqrt(3)), abs=1e-9)
    assert got[1] == pytest.approx(math.atan(3 ** -0.25), abs=1e-9)
    assert len(data["results"]["orderings"]) == 3


def test_infinitesimal_verdict(cli_runner):
    result = invoke(cli_runner, ["infinitesimal", "--k", "3", "--theta", "0.7"])
    data = payload(result)
    assert data["results"]["status"] == "Violated"
    assert data["results"]["first_violation"] == 1
    assert len(data["results"]["accumulation_derivatives"]) == 3


def test_infinitesimal_boundary_exits_one(cli_runner):
    cross = repr(math.atan(1 / math.sqrt(2)))
    result = cli_runner.invoke(main, ["infinitesimal", "--k", "2", "--theta", cross])
    assert result.exit_code == 1
    assert "crossover" in result.output
    # pi/4 is the symmetric tie, with no side beyond it in [0, pi/4]
    result = cli_runner.invoke(main, ["infinitesimal", "--k", "3", "--theta", "pi/4"])
    assert result.exit_code == 1
    assert result.output == ("Error: theta sits at pi/4 where symmetric components tie"
                             f" (theta={math.pi / 4!r}); pick an angle away from it\n")


def test_usage_errors_exit_two(cli_runner):
    result = cli_runner.invoke(main, ["spectrum", "--k", "2", "--theta", "oops"])
    assert result.exit_code == 2
    result = cli_runner.invoke(main, ["spectrum", "--k", "-3", "--theta", "0.3"])
    assert result.exit_code == 2
    result = cli_runner.invoke(main, ["nonsense"])
    assert result.exit_code == 2
    result = cli_runner.invoke(
        main, ["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
               "--family", "bogus", "--grid", "0.1"]
    )
    assert result.exit_code == 2


def test_out_of_range_angle_exits_two(cli_runner):
    result = cli_runner.invoke(main, ["spectrum", "--k", "2", "--theta", "2.0"])
    assert result.exit_code == 2


def test_entropy_curve_csv_header(cli_runner):
    result = invoke(
        cli_runner,
        ["--out", "csv", "entropy-curve", "--k", "2", "--alphas", "1,10,inf",
         "--steps", "5"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "theta,S_1,S_10,S_inf"
    assert len(lines) == 6


def test_entropy_curve_bits(cli_runner):
    result = invoke(
        cli_runner,
        ["entropy-curve", "--k", "1", "--alphas", "1", "--theta-min", "pi/4",
         "--theta-max", "pi/3", "--steps", "2", "--bits"],
    )
    data = payload(result)
    # one photon on a balanced splitter carries exactly one bit
    assert data["results"]["rows"][0][1] == pytest.approx(1.0, abs=1e-9)


def test_figure_data_fig4_shape(cli_runner):
    result = invoke(cli_runner, ["figure-data", "--figure", "fig4", "--steps", "40"])
    data = payload(result)
    assert data["results"]["columns"] == ["theta", "S_1", "S_10", "S_inf"]
    assert len(data["results"]["rows"]) == 40
    assert len(data["results"]["crossovers"]) == 1


def test_figure_data_csv_annotations(cli_runner):
    result = invoke(
        cli_runner, ["--out", "csv", "figure-data", "--figure", "fig5", "--steps", "3"]
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "theta,S_1,S_10,S_inf"
    assert lines[4] == "# region-boundaries"
    assert len([ln for ln in lines if ln.startswith("# crossover")]) == 2


def joined_csv(results) -> str:
    """The CSV of ``results`` as one text joined by newlines, the way
    ``_emits`` wrote it before it streamed its output."""
    if not isinstance(results, dict):
        return "\n".join(map(cli._fmt, results.tolist())) + "\n"
    lines = [",".join(results["columns"])]
    lines.extend(",".join(map(cli._fmt, row)) for row in results["rows"].tolist())
    if "crossovers" in results:
        lines.append("# region-boundaries")
        lines.extend(f"# crossover,{cli._fmt(c)}" for c in results["crossovers"])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("args,pieces,lines", [
    (["spectrum", "--k", "40", "--theta", "0.3"], 1, 41),  # a 1-D array
    (["figure-data", "--figure", "fig5", "--steps", "7"], 1, 11),  # a table with crossovers
    # far more JSON pieces and CSV lines than one batch of a few thousand
    (["entropy-curve", "--k", "2", "--steps", "20000"], 10**5, 20001),
], ids=["array", "crossovers", "batches"])
def test_streamed_output_equals_the_joined_text(cli_runner, args, pieces, lines):
    # _emits writes its pieces in batches; a batch that dropped or repeated
    # a piece would change the text.
    command = main.commands[args[0]]
    options = command.make_context(args[0], args[1:]).params
    params, results = inspect.unwrap(command.callback)(cli.TOL, **options)
    envelope = cli._round12({"command": args[0],
                             "params": {"out": "json", "tol": cli.TOL, "seed": 0, **params},
                             "results": results, "tool_version": __version__})
    assert len(list(json.JSONEncoder(indent=2).iterencode(envelope))) >= pieces
    assert invoke(cli_runner, args).output == json.dumps(envelope, indent=2) + "\n"
    csv = invoke(cli_runner, ["--out", "csv", *args]).output
    assert csv == joined_csv(results)
    assert csv.count("\n") == lines


def test_figure_data_two_steps_endpoints_only(cli_runner):
    result = invoke(cli_runner, ["figure-data", "--figure", "fig4", "--steps", "2"])
    rows = payload(result)["results"]["rows"]
    assert len(rows) == 2
    assert rows[0][0] == 0.0
    assert rows[1][0] == pytest.approx(math.pi / 4, abs=1e-9)


def test_locc_verify(cli_runner):
    result = invoke(cli_runner, ["locc-verify", "--k", "2", "--theta", "0.62"])
    data = payload(result)
    assert data["results"]["nielsen_agreement"] is True
    probs = [b["probability"] for b in data["results"]["branches"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_locc_verify_builds_two_spectra(cli_runner, monkeypatch):
    # the branches, the verdict and the printed target share the (k+1)- and
    # k-photon spectra
    calls = []

    def counted(k, theta):
        calls.append(k)
        return spectrum(k, theta)

    monkeypatch.setattr(locc, "spectrum", counted)
    monkeypatch.setattr(cli, "spectrum", counted)
    result = invoke(cli_runner, ["locc-verify", "--k", "4", "--theta", "0.9"])
    assert payload(result)["results"]["nielsen_agreement"] is True
    assert sorted(calls) == [4, 5]


def test_catalysis_check(cli_runner):
    result = invoke(
        cli_runner,
        ["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
         "--catalyst", "single-photon:0.7"],
    )
    data = payload(result)
    assert data["results"]["without"] == "Incomparable"
    assert data["results"]["with"] == "MajorizedBy"
    assert data["results"]["achieved"] is True


def test_catalysis_search_first_hit(cli_runner):
    result = invoke(
        cli_runner,
        ["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
         "--family", "single-photon", "--grid", "0.01"],
    )
    data = payload(result)
    assert data["results"]["found"]["family"] == "single-photon"


def test_birkhoff_witness(cli_runner):
    result = invoke(cli_runner, ["birkhoff", "--witness", "2,0.5"])
    results = payload(result)["results"]
    decomp = BirkhoffDecomposition(tuple(map(tuple, results["perms"])),
                                   tuple(results["weights"]))
    matrix = DoublyStochasticMatrix(results["matrix"])
    assert np.max(np.abs(decomp.reconstruct() - matrix.entries)) < 1e-9
    assert results["terms"] <= 10


#: A usage error's arguments and the message click prints after its usage lines.
USAGE_ERRORS = [
    # a matrix file is no input: the refusal names the option, not the file
    (["birkhoff"], "Missing option '--witness'."),
    (["birkhoff", "--file", "m.json"], "No such option '--file'."),
    # a command body's ValueError, mapped by _emits
    (["entropy-curve", "--k", "2", "--steps", "1"], "steps must be at least 2"),
    (["entropy-curve", "--k", "2", "--theta-min", "0.5", "--theta-max", "0.1"],
     "need 0 <= theta-min < theta-max"),
    (["entropy-curve", "--k", "2", "--alphas", ","], "at least one entropy order is required"),
    (["figure-data", "--figure", "fig4", "--steps", "1"], "steps must be at least 2"),
]


@pytest.mark.parametrize("args,message", USAGE_ERRORS,
                         ids=[" ".join(args) for args, _ in USAGE_ERRORS])
def test_usage_errors_print_usage_and_one_message(cli_runner, args, message):
    result = invoke_within_contract(cli_runner, args)
    assert result.exit_code == 2
    assert result.output == (f"Usage: main {args[0]} [OPTIONS]\n"
                             f"Try 'main {args[0]} --help' for help.\n\nError: {message}\n")


def test_input_files_are_read_within_the_cap(cli_runner, tmp_path, monkeypatch):
    # every file input goes through one reader, which reads at most one byte
    # past MAX_INPUT_BYTES and refuses a larger file
    vector = tmp_path / "p.json"
    vector.write_text("[0.6, 0.4]" + " " * 100)
    size = vector.stat().st_size
    for args in (["majorize", "--p", str(vector), "--q", "[1]"],
                 ["catalysis", "check", "--p", "[1]", "--q", "[1]",
                  "--catalyst", f"file:{vector}"]):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
        assert invoke_within_contract(cli_runner, args).exit_code == 0
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
        result = invoke_within_contract(cli_runner, args)
        assert result.exit_code == 2
        assert f"holds at least {size} bytes, more than the limit of {size - 1}" in result.output
    # a larger file is refused after MAX_INPUT_BYTES + 1 bytes
    reads = []

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(cli, "open", CountingFile, raising=False)
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 10)
    with pytest.raises(ValueError, match="holds at least 11 bytes"):
        cli._read_file(vector)
    assert reads == [11]


#: The options of one valid invocation of each command that writes JSON only.
JSON_ONLY = {
    "majorize": ["--p", "bs:1,0.3", "--q", "bs:1,0.4"],
    "photon-chain": ["--k-max", "2", "--theta", "0.3"],
    "regions": ["--k", "3"],
    "infinitesimal": ["--k", "3", "--theta", "0.7"],
    "locc-verify": ["--k", "2", "--theta", "0.62"],
    "catalysis check": ["--p", "bs:3,0.72", "--q", "bs:3,0.62",
                        "--catalyst", "single-photon:0.7"],
    "catalysis search": ["--p", "bs:3,0.72", "--q", "bs:3,0.62",
                         "--family", "single-photon", "--grid", "0.01"],
    "birkhoff": ["--witness", "2,0.5"],
}


@pytest.mark.parametrize("command", JSON_ONLY)
def test_csv_unsupported_commands_exit_two(cli_runner, command):
    args = [*command.split(), *JSON_ONLY[command]]
    assert invoke(cli_runner, args).exit_code == 0
    result = invoke(cli_runner, ["--out", "csv", *args])
    assert result.exit_code == 2
    assert f"{command} only supports --out json" in result.output


#: Invocations that once ended in a traceback, ran without bound or printed
#: NaN or Infinity into the JSON output, with the exit code each must give now.
CONTRACT_CASES = [
    (["spectrum", "--k", "3", "--theta", "pi/0"], 2),
    (["spectrum", "--k", "3", "--theta", "pi/inf"], 2),
    (["spectrum", "--k", "3", "--theta", "pi/-inf"], 2),
    (["majorize", "--p", "bs:3,pi/1e999", "--q", "bs:3,0.62"], 2),
    (["birkhoff", "--witness", "2,pi/0"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:25"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:1e-200"], 0),
    (["--tol", "-1", "majorize", "--p", "bs:3,0.62", "--q", "bs:3,0.62"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "single-photon", "--grid", "1e-12"], 2),
    (["--tol", "nan", "majorize", "--p", "bs:3,0.62", "--q", "bs:3,0.72"], 2),
    (["--tol", "inf", "majorize", "--p", "bs:3,0.62", "--q", "bs:3,0.72"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:10"], 0),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "0.1", "--r-max", "10"], 0),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "0.1", "--r-max", "nan"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "inf"], 2),
    (["regions", "--k", "1100"], 2),
    (["infinitesimal", "--k", "1100", "--theta", "0.3"], 0),
    (["entropy-curve", "--k", "2", "--steps", "10000000000"], 2),
    (["figure-data", "--figure", "fig4", "--steps", "10000000000"], 2),
    (["entropy-curve", "--k", "2", "--theta-max", "2"], 2),
    (["entropy-curve", "--k", "2", "--theta-min", "-1"], 2),
    (["entropy-curve", "--k", "2", "--theta-min", "2", "--theta-max", "3"], 2),
    (["spectrum", "--k", "100000000", "--theta", "0.5"], 2),
    (["spectrum", "--k", "3000000", "--theta", "0.5"], 2),
    (["spectrum", "--k", "1000001", "--theta", "0.5"], 2),
    (["spectrum", "--k", "1000000", "--theta", "0.5"], 0),
    (["spectrum", "--k", "500000", "--theta", "0.004932"], 0),
    (["birkhoff", "--witness", "20000,0.3"], 2),
    (["birkhoff", "--witness", "100000,0.3"], 2),
    (["photon-chain", "--k-max", "100000", "--theta", "0.5"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "1e-170", "--r-max", "1e-165"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:6.5"], 0),
    (["catalysis", "check", "--p", "bs:100,0.78", "--q", "bs:100,0.74",
      "--catalyst", "tmsv:4"], 0),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:19"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "0.5", "--r-max", "19"], 2),
    (["catalysis", "check", "--p", "bs:500,0.7", "--q", "bs:500,0.72",
      "--catalyst", "tmsv:0.1"], 2),
    (["catalysis", "check", "--p", "bs:100,0.05", "--q", "bs:100,0.06",
      "--catalyst", "tmsv:2.5"], 0),
    (["catalysis", "search", "--p", "bs:100,0.05", "--q", "bs:100,0.06",
      "--family", "tmsv", "--grid", "0.1"], 0),
    (["--tol", "0", "catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:1.38"], 0),
    (["--tol", "100", "catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:3"], 0),
    (["infinitesimal", "--k", "20000", "--theta", "0.3"], 2),
    (["infinitesimal", "--k", "100000000", "--theta", "0.3"], 2),
    (["entropy-curve", "--k", "1000000", "--steps", "1000000"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "tmsv:1.38,10"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "0.1", "--r-max", "-1"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "0.1", "--r-max", "0"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "tmsv", "--grid", "30", "--r-max", "25"], 2),
    (["majorize", "--p", "[{}]", "--q", "[1]"], 2),
    (["catalysis", "check", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--catalyst", "file:object.json"], 2),
    (["majorize", "--p", "[true, false]", "--q", "[1]"], 2),
    (["majorize", "--p", '["0.5", "0.5"]', "--q", "[1]"], 2),
    (["birkhoff"], 2),
    (["birkhoff", "--file", "m.json"], 2),
    (["majorize", "--p", "bs:3,", "--q", "bs:3,0.62"], 2),
    (["majorize", "--p", "bs:x,0.5", "--q", "bs:3,0.62"], 2),
    (["birkhoff", "--witness", "2"], 2),
    (["birkhoff", "--witness", "x,0.5"], 2),
    (["birkhoff", "--witness", "2,abc"], 2),
    (["spectrum", "--k", "3", "--theta", "abc"], 2),
    (["entropy-curve", "--k", "1000", "--alphas", "1e308", "--steps", "3",
      "--theta-min", "1e-300"], 0),
    (["infinitesimal", "--k", "3", "--theta", "5e-324"], 0),
    (["--tol", "nan", "spectrum", "--k", "3", "--theta", "0.3"], 2),
    (["--tol", "-1", "regions", "--k", "3"], 2),
    (["catalysis", "search", "--p", "bs:3,0.72", "--q", "bs:3,0.62",
      "--family", "single-photon", "--grid", "0.1", "--r-max", "-1"], 2),
]

#: Files that contract cases name, written into the directory each case runs in.
CONTRACT_FILES = {"object.json": "[{}]", "m.json": "[[0.5, 0.5], [0.5, 0.5]]"}

#: Seconds within which a refused input must exit: refusals come before the
#: work they bound.
REFUSAL_SECONDS = 1.0


def invoke_within_contract(runner, args):
    """``invoke``, checking that no traceback shows and a refusal is prompt."""
    start = time.perf_counter()
    result = invoke(runner, args)
    elapsed = time.perf_counter() - start
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert elapsed < REFUSAL_SECONDS, result.output
    return result


@pytest.mark.parametrize("args,code", CONTRACT_CASES,
                         ids=[" ".join(args) for args, _ in CONTRACT_CASES])
def test_exit_code_contract(cli_runner, tmp_path, args, code):
    with cli_runner.isolated_filesystem(temp_dir=tmp_path):
        for name, text in CONTRACT_FILES.items():
            Path(name).write_text(text)
        result = invoke_within_contract(cli_runner, args)
    assert result.exit_code == code, result.output
    if code == 0:
        json.loads(result.output, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"JSON output holds {name}")


#: Small valid values of each drawn option, and values far past every cap or
#: no number at all.
SMALL_VALUES = {
    "k": ["0", "1", "2", "3", "5"],
    "theta": ["0", "0.3", "0.62", "pi/4", "1.2"],
    "theta2": ["0.2", "0.72", "pi/3"],
    "steps": ["2", "3", "17"],
    "grid": ["0.1", "0.05", "0.5"],
    "r_max": ["0.5", "1.5", "3"],
}
FAR_VALUES = ["100000000", "10000000000", "1e-170", "nan", "inf", "-1",
              "5e-324", "-0", "1e999", "true", "pi/0"]


@st.composite
def cli_arguments(draw):
    """One CLI argument list; the options in a drawn set take far values."""
    far = draw(st.sets(st.sampled_from(sorted(SMALL_VALUES))))
    v = {name: draw(st.sampled_from(FAR_VALUES if name in far else small))
         for name, small in SMALL_VALUES.items()}
    k, theta, theta2 = v["k"], v["theta"], v["theta2"]
    steps, grid, r_max = v["steps"], v["grid"], v["r_max"]
    pair = ["--p", f"bs:{k},{theta}", "--q", f"bs:3,{theta2}"]
    return draw(st.sampled_from([
        ["spectrum", "--k", k, "--theta", theta],
        ["photon-chain", "--k-max", k, "--theta", theta],
        ["regions", "--k", k],
        ["infinitesimal", "--k", k, "--theta", theta],
        ["entropy-curve", "--k", k, "--theta-min", theta, "--theta-max", theta2,
         "--steps", steps],
        ["figure-data", "--figure", "fig5", "--steps", steps],
        ["locc-verify", "--k", k, "--theta", theta],
        ["birkhoff", "--witness", f"{k},{theta}"],
        ["majorize", *pair],
        ["catalysis", "check", *pair, "--catalyst", f"tmsv:{r_max}"],
        ["catalysis", "check", *pair, "--catalyst", f"single-photon:{theta}"],
        ["catalysis", "search", *pair, "--family", "tmsv", "--grid", grid,
         "--r-max", r_max],
        ["catalysis", "search", *pair, "--family", "single-photon", "--grid", grid],
    ]))


@settings(max_examples=300, deadline=None)
@given(args=cli_arguments())
def test_exit_code_contract_fuzz(args):
    result = invoke_within_contract(CliRunner(), args)
    assert result.exit_code in (0, 1, 2), result.output


#: JSON values of every kind: null, booleans, strings, integers past the
#: float range, negative and non-finite floats, and arrays and objects of them,
#: nested; plus a few valid vectors, and matrices, which every vector input
#: refuses.
JSON_VALUES = st.one_of(
    st.sampled_from([[1], [0.5, 0.5], [0.25, 0.75, 0], [[1, 0], [0, 1]],
                     [[0.5, 0.5], [0.5, 0.5]]]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.floats(),
                  st.integers(min_value=-10**400, max_value=10**400),
                  st.sampled_from([0, 1, 0.5, 0.25])),
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=16,
    ),
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, inline=st.booleans(),
       slot=st.sampled_from(["--p", "--q", "--catalyst"]))
def test_json_inputs_exit_within_contract_fuzz(value, inline, slot):
    # Inline text that does not open an array is read as a path, and fails
    # to open: only arrays reach the JSON reader inline.
    text = json.dumps(value)
    options = {"--p": "bs:3,0.72", "--q": "bs:3,0.62",
               slot: text if inline else "file:v.json"}
    args = ["catalysis", "check"] if slot == "--catalyst" else ["majorize"]
    args += [x for option in options.items() for x in option]
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("v.json").write_text(text)
        result = invoke_within_contract(runner, args)
    assert result.exit_code in (0, 2), result.output


@pytest.mark.parametrize("flags,value", [
    (["--theta-max", "2"], "2.0"),
    (["--theta-min", "2", "--theta-max", "3"], "2.0"),
    (["--theta-min", "-1"], "-1.0"),
])
def test_entropy_curve_names_the_angle_out_of_range(cli_runner, flags, value):
    result = invoke(cli_runner, ["entropy-curve", "--k", "2", *flags])
    assert result.exit_code == 2
    assert f"got {value}" in result.output


def test_vacuum_catalyst_has_one_component(cli_runner):
    result = invoke(cli_runner, ["catalysis", "check", "--p", "bs:3,0.72",
                                 "--q", "bs:3,0.62", "--catalyst", "tmsv:1e-200"])
    assert payload(result)["results"]["catalyst_dim"] == 1


def test_cli_import_leaves_scipy_unloaded():
    import bsmaj

    src = str(Path(bsmaj.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, bsmaj.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
