"""One work-bound rule: every cap goes through ``vectors.check_work``.

Each cap is tested at its edge (a count equal to the limit is accepted, one
more is refused), and a source check keeps the rule in place: no ``MAX_*``
constant is compared outside ``check_work``. The README limits table is
checked against the constants in ``test_source.py``.
"""

import ast
import math
import re
from pathlib import Path

import pytest

import bsmaj
from bsmaj import beamsplitter, birkhoff, catalysis, cli, entropy, locc, regions, vectors
from bsmaj.beamsplitter import photon_chain_check, spectrum
from bsmaj.birkhoff import bs_witness_matrix
from bsmaj.catalysis import CatalystSpec, check_catalysis, search_catalyst_all
from bsmaj.entropy import entropy_curve
from bsmaj.locc import build_kraus, verify_nielsen
from bsmaj.regions import find_crossovers, infinitesimal_verdict
from bsmaj.vectors import check_work, tensor

SRC = Path(bsmaj.__file__).parent
README = SRC.parents[1] / "README.md"

P_072, Q_062 = spectrum(3, 0.72), spectrum(3, 0.62)


#: (module, cap, the count a call makes, the call) for every check_work site.
SITES = [
    (beamsplitter, "MAX_PHOTONS", 5, lambda: spectrum(5, 0.3)),
    (beamsplitter, "MAX_SWEEP_ENTRIES", 3 * 4,
     lambda: entropy_curve(3, [1.0], [0.1, 0.2, 0.3])),
    (beamsplitter, "MAX_CHAIN_ENTRIES", 3 * 5, lambda: photon_chain_check(3, 0.5)),
    (entropy, "MAX_CURVE_VALUES", 2 * 3, lambda: entropy_curve(2, [1, 10, "inf"], [0.1, 0.2])),
    (regions, "MAX_REGION_ENTRIES", 4 * 7, lambda: find_crossovers(3)),
    (regions, "MAX_CROSSING_PAIRS", 3 * 4 // 2, lambda: infinitesimal_verdict(3, 0.3)),
    (birkhoff, "MAX_WITNESS_ENTRIES", 4 * 4, lambda: bs_witness_matrix(2, 0.3)),
    (catalysis, "MAX_CLOSED_FORM_TERMS", (4 + 4) ** 2,
     lambda: check_catalysis(P_072, Q_062, CatalystSpec.tmsv(1.38))),
    (catalysis, "MAX_CANDIDATES", (math.pi / 4 + 1e-15) / 0.1,
     lambda: search_catalyst_all(P_072, Q_062, "single-photon", 0.1)),
    (cli, "MAX_STEPS", 5, lambda: cli._sweep(2, [1.0], 5)),
    (cli, "MAX_INPUT_BYTES", README.stat().st_size, lambda: cli._read_file(README)),
    (vectors, "MAX_TENSOR_ENTRIES", 3 * 4,
     lambda: tensor(spectrum(2, 0.3), spectrum(3, 0.3))),
    (beamsplitter, "MAX_PHOTONS", 5, lambda: build_kraus(5)),
    (locc, "MAX_PHOTONS", 5 + 1, lambda: verify_nielsen(5, 0.3)),
]


@pytest.mark.parametrize(
    "module,name,count,call", SITES,
    ids=[f"{m.__name__[6:]}.{n}-{i}" for i, (m, n, _, _) in enumerate(SITES)],
)
def test_cap_edge(monkeypatch, module, name, count, call):
    monkeypatch.setattr(module, name, count)
    call()
    monkeypatch.setattr(module, name, count - 1)
    message = re.escape(f"more than the limit of {count - 1}")
    with pytest.raises(ValueError, match=message):
        call()


def test_check_work_refuses_above_the_limit_and_nan():
    check_work(3, 3, "three units")
    with pytest.raises(ValueError, match="^four units, more than the limit of 3$"):
        check_work(4, 3, "four units")
    with pytest.raises(ValueError, match="limit of 3"):
        check_work(math.nan, 3, "no count")


def _caps():
    """(module stem, name) of every module-level ``MAX_*`` constant in bsmaj."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("MAX_"):
                    yield path.stem, target.id


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_caps_are_compared_only_by_check_work():
    caps = {name for _, name in _caps()}
    assert caps, "no MAX_* constant found"
    compared, limits = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                compared += [(path.name, node.lineno, n) for n in _names(node) & caps]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "check_work" and len(node.args) > 1):
                limits |= _names(node.args[1])
    assert compared == [], "compare MAX_* limits through check_work"
    assert caps <= limits, f"caps no check_work call enforces: {caps - limits}"
