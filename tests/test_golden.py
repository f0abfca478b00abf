"""Byte identity of CLI output against committed golden captures.

``tests/golden/cli.json`` holds the exit code, stdout and stderr of every
``CLI_BATTERY`` command and of a few catalyst searches, captured with
``tests/golden/capture.py``. Run-to-run determinism is tested elsewhere;
this catches drift between revisions.
"""

from __future__ import annotations

import json

import pytest

from conftest import CLI_BATTERY
from golden.capture import EXTRA_CASES, GOLDEN_PATH, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_battery_and_extra_cases():
    assert [case["args"] for case in GOLDEN] == [*CLI_BATTERY, *EXTRA_CASES]


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["args"]) for c in GOLDEN])
def test_cli_output_matches_golden(case):
    assert run_case(case["args"]) == case
