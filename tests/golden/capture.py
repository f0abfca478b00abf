"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root, with bsmaj importable:

    PYTHONPATH=src python tests/golden/capture.py

Each case records its arguments, exit code, stdout and stderr as produced
by click's ``CliRunner``. Regenerate only when an output is meant to
change, and review the diff of ``cli.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import CLI_BATTERY  # noqa: E402

PAIR = ["--p", "bs:3,0.72", "--q", "bs:3,0.62"]

#: Invocations beyond ``CLI_BATTERY``: searches, checks with a catalyst of
#: each kind: a squeezed vacuum, a single photon, an explicit vector and the
#: vacuum (a squeezing whose tanh^2 r underflows to zero), and a spectrum
#: above ``beamsplitter.DIRECT_K_LIMIT`` photons.
EXTRA_CASES = [
    ["catalysis", "search", *PAIR, "--family", "tmsv", "--grid", "0.02", "--all"],
    ["catalysis", "search", *PAIR, "--family", "single-photon", "--grid", "0.001"],
    ["catalysis", "search", "--p", "bs:3,0.62", "--q", "bs:3,0.72",
     "--family", "tmsv", "--grid", "0.05", "--all"],
    ["catalysis", "check", *PAIR, "--catalyst", "tmsv:0.5"],
    ["catalysis", "check", *PAIR, "--catalyst", "single-photon:0.7"],
    ["catalysis", "check", *PAIR, "--catalyst", "[0.6, 0.4]"],
    ["catalysis", "check", *PAIR, "--catalyst", "tmsv:1e-200"],
    ["--out", "csv", "spectrum", "--k", "100", "--theta", "0.7"],
]

GOLDEN_PATH = HERE / "cli.json"


def run_case(args: list[str]) -> dict:
    from click.testing import CliRunner

    from bsmaj.cli import main as cli

    result = CliRunner().invoke(cli, args, catch_exceptions=False)
    return {
        "args": list(args),
        "exit_code": result.exit_code,
        "stdout": result.stdout,
        "stderr": result.stderr,
    }


def main() -> None:
    cases = [run_case(args) for args in [*CLI_BATTERY, *EXTRA_CASES]]
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
