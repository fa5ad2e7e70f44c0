"""The corpus of ``tools/identity.py``, without running git."""

import importlib.util
from pathlib import Path

import pytest

from gstruct import cli, spaces

_spec = importlib.util.spec_from_file_location("identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_corpus_is_deterministic_and_covers_every_command_and_space():
    argvs = identity.corpus()
    assert argvs == identity.corpus() and all(isinstance(a, str) for argv in argvs for a in argv)
    assert {argv[0] for argv in argvs} == {"analyze", "decompose", "theta", "subgroups", "liegroup", "verify"}
    analyzed = {spaces.canonical_id(argv[1]) for argv in argvs if argv[0] == "analyze" and argv[1] != "M5"}
    assert analyzed == set(spaces.ALIASES.values())
    for sid in ("M1", "M2", "M3", "M4"):  # JSON and table, feasible and not
        for_sid = [argv for argv in argvs if argv[:2] == ["analyze", sid]]
        assert any("--format" in argv for argv in for_sid) and any("--format" not in argv for argv in for_sid)
    assert ["verify"] in argvs and ["verify", "--space", "M4"] in argvs


def test_every_corpus_argv_parses():
    # the usage errors of the corpus fail after parsing, in the handler
    parser = cli.make_parser()
    for argv in identity.corpus():
        parser.parse_args(argv)


@pytest.mark.parametrize("a, b, where", [
    ('{\n  "x": 1.25,\n}', '{\n  "x": 1.26,\n}', "line 2: '1.25' vs '1.26'"),
    ("3\n", "2\n", "line 1: '3' vs '2'"),
    ("a b\n", "a b c\n", "line 1: '<end>' vs 'c'"),
    ("a\n", "a\nb\n", "line 2: '<end>' vs 'b'"),
])
def test_first_difference(a, b, where):
    assert identity.first_difference(a, b) == where
