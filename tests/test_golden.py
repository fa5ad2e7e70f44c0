"""CLI reports against stored ones.

`data/analyze_golden.json` holds `analyze` reports as written before the
equivariance and Clifford operators were built from arrays;
`data/commands_golden.json` holds the `decompose`, `theta`, `subgroups` and
`liegroup` reports as written before every set of matrices became one
(k, n, n) array.  Floats must agree to 1e-12 relative (absolute below 1);
the last printed digit is not compared exactly because it moves with the
BLAS thread count.
"""

import json
from pathlib import Path

import pytest

from gstruct.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "analyze_golden.json").read_text())
COMMANDS = json.loads((DATA / "commands_golden.json").read_text())


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            _assert_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), f"{path}: {got} vs {want}"
    else:
        assert got == want, path


@pytest.mark.parametrize("case", GOLDEN, ids=["_".join(c["argv"][1:]) for c in GOLDEN])
def test_analyze_matches_golden(capsys, case):
    code = main(case["argv"])
    assert code == case["exit_code"]
    _assert_close(json.loads(capsys.readouterr().out), case["report"], "report")


@pytest.mark.parametrize("case", COMMANDS, ids=["_".join(c["argv"]) for c in COMMANDS])
def test_command_matches_golden(capsys, case):
    code = main(case["argv"])
    assert code == case["exit_code"]
    _assert_close(json.loads(capsys.readouterr().out), case["report"], "report")
