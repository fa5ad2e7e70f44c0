import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gstruct.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_integrable_point(capsys):
    code, out = run_cli(
        capsys, "analyze", "su5-sp2", "--alpha", "1", "--beta", "2", "--gamma", "1.2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["characteristic"]["exists"] is True
    assert rep["torsion"]["norm2"] <= 1e-18
    assert rep["holonomy"] == {"dim": 21, "label": "sp3"}


def test_analyze_m2_spin_section(capsys):
    code, out = run_cli(capsys, "analyze", "u4-so2so2", "--alpha", "1", "--beta", "1")
    assert code == 0
    rep = json.loads(out)
    eigs = {round(abs(x), 9) for x in rep["spin"]["dirac_eigenvalues"]}
    assert eigs == {round(np.sqrt(5.0), 9)}
    assert rep["spin"]["parallel_spinor_dim"] == 16
    assert rep["spin"]["equality_flags"]["friedrich_equality"] is True


def test_analyze_infeasible_exit_code(capsys):
    code, out = run_cli(
        capsys,
        "analyze", "su4-so2", "--alpha", "1",
        "--alpha2", "2", "--alpha3", "1", "--alpha4", "1", "--alpha5", "1",
        "--alpha6", "1", "--alpha7", "1", "--alpha8", "1",
    )
    assert code == 2
    rep = json.loads(out)
    assert rep["characteristic"]["exists"] is False
    assert rep["torsion"] is None
    assert rep["curvature"]["ricci_riem_diag"] is not None


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing space id
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "unknown-selector"])
    assert exc.value.code == 1
    code = main(["analyze", "not-a-space"])
    assert code == 1


def _flags(*indices):
    return [arg for i in indices for arg in (f"--alpha{i}", str(1 + i / 10))]


@pytest.mark.parametrize("sid, flags", [
    ("M2", _flags(2, 3, 4, 5, 8)),  # five flags, but M2's are --alpha2..--alpha6
    ("M3", _flags(2, 3, 4, 5, 7)),
    ("M1", _flags(2, 3, 4, 6, 7, 8)),  # a gap at --alpha5
    ("M4", _flags(2)),  # M4 has no extra alpha coefficients
], ids=["M2", "M3", "M1", "M4"])
def test_alpha_flags_are_all_or_none(capsys, sid, flags):
    # a space with n extra coefficients takes exactly --alpha2..--alpha(1+n)
    code = main(["analyze", sid, *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def _non_hermitian_dirac(original):
    def patched(*args):
        lifts_b, t_op, D = original(*args)
        return lifts_b, t_op, D + 1j * np.eye(len(D))

    return patched


def _shifted_ricci(original):
    return lambda *args: original(*args) + 1.0  # the two Ricci routes disagree


@pytest.mark.parametrize("module, name, patch", [
    ("spin", "_dirac_terms", _non_hermitian_dirac),
    ("curvature", "_identity_route", _shifted_ricci),
], ids=["dirac", "ricci"])
def test_internal_violation_exits_three(capsys, monkeypatch, module, name, patch):
    mod = importlib.import_module(f"gstruct.{module}")
    monkeypatch.setattr(mod, name, patch(getattr(mod, name)))
    assert main(["analyze", "M2"]) == 3
    err = capsys.readouterr().err
    assert "internal invariant violation" in err and "Traceback" not in err


def test_verify_takes_no_format(capsys):
    # verify prints PASS/FAIL lines in one fixed layout
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "json"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [["analyze", "M4"], ["theta", "sp3"], ["verify"]], ids=" ".join)
def test_closed_stdout_exits_one_without_traceback(argv):
    # the reader is gone before the child writes: the report's own write
    # or the flush after it meets a broken pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "gstruct.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("tol, env", [("0", None), ("2", None), ("nan", None), (None, "abc")])
def test_invalid_tolerance_is_usage_error(capsys, monkeypatch, tol, env):
    if env is not None:
        monkeypatch.setenv("GSTRUCT_TOL", env)
    code = main(["theta", "sp3"] + (["--tol", tol] if tol is not None else []))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_decompose_lambda3(capsys):
    code, out = run_cli(capsys, "decompose", "lambda3")
    assert code == 0
    rep = json.loads(out)
    got = {int(p["casimir_eigenvalue"]): p["dim"] for p in rep["parts"]}
    assert got == {-8: 21, -12: 70, -18: 84, -16: 189}


def test_theta_sp3(capsys):
    code, out = run_cli(capsys, "theta", "sp3")
    assert code == 0
    rep = json.loads(out)
    assert rep["kernel_dim"] == 0
    assert rep["rank"] == 364


def test_theta_su3_adjoint(capsys):
    code, out = run_cli(capsys, "theta", "su3-adjoint")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 1


def test_subgroups(capsys):
    code, out = run_cli(capsys, "subgroups")
    assert code == 0
    rep = json.loads(out)
    assert all(row["match"] for row in rep["rows"])
    assert len(rep["rows"]) == 5


def test_liegroup(capsys):
    code, out = run_cli(capsys, "liegroup", "su2+su2")
    assert code == 0
    rep = json.loads(out)
    assert rep["theta_kernel_dim"] == 2
    assert rep["torsion_family_size"] == 2
    assert all(r <= 1e-9 for r in rep["family_in_kernel_residuals"])


def test_byte_identical_reports(capsys):
    args = ("analyze", "su5-sp2", "--alpha", "1.1", "--beta", "0.9", "--gamma", "1.3")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_table_format(capsys):
    code, out = run_cli(
        capsys, "analyze", "u4u1-so2so2so2", "--format", "table", "--no-spin"
    )
    assert code == 0
    assert "family_dim" in out and "{" not in out.splitlines()[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", ["1e-80", "1e-200", "1e-300"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_overflowing_report_exits_one(capsys, fmt, alpha):
    # from alpha 1e-80 the Ricci values' squares overflow float64, from about
    # 1e-150 the torsion and Ricci values too: the first overflow stops the
    # command, with no report, one error line, no warning and no traceback
    code = main(["analyze", "M1", "--alpha", alpha, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GSTRUCT_TOL", "1e-10")
    code, out = run_cli(capsys, "theta", "sp3")
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 0


@pytest.mark.parametrize("space", ["M2", "M4"])
def test_analyze_solves_invariant_spinors_once(capsys, monkeypatch, space):
    from gstruct import spin

    calls = []
    original = spin.invariant_spinors

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spin, "invariant_spinors", counting)
    code, out = run_cli(capsys, "analyze", space, "--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5")
    assert code == 0
    assert json.loads(out)["spin"]["dirac_eigenvalues"]
    assert len(calls) == 1


def _count_calls(monkeypatch, names):
    """Wrap each named gstruct function at every module attribute that
    binds it; returns the call counts by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        mod, attr = name.split(".")
        original = getattr(importlib.import_module(f"gstruct.{mod}"), attr)

        def counting(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("gstruct"):
                for key, obj in list(vars(module).items()):
                    if obj is original:
                        monkeypatch.setattr(module, key, counting)
    return counts


def test_analyze_runs_each_stage_once(capsys, monkeypatch):
    counts = _count_calls(monkeypatch, [
        "connections.holonomy_algebra", "curvature.curvature_report", "spin.invariant_spinors",
        "spin.dirac_on_invariants", "connections.torsion_of_map", "connections.curvature_of_map",
    ])
    from functools import cached_property

    from gstruct.connections import InvariantConnection

    stacks = []
    build_stack = InvariantConnection._stack.func
    counting_stack = cached_property(lambda conn: stacks.append(conn) or build_stack(conn))
    counting_stack.__set_name__(InvariantConnection, "_stack")
    monkeypatch.setattr(InvariantConnection, "_stack", counting_stack)
    code, out = run_cli(capsys, "analyze", "M4", "--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5")
    assert code == 0 and json.loads(out)["spin"]["dirac_eigenvalues"]
    assert counts == {
        "connections.holonomy_algebra": 1, "curvature.curvature_report": 1,
        "spin.invariant_spinors": 1, "spin.dirac_on_invariants": 1,
        # the connection
        "connections.torsion_of_map": 1,
        # Levi-Civita only: the connection's curvature is in rho coordinates
        "connections.curvature_of_map": 1,
    }
    assert len(stacks) == 1


def test_reading_conn_computes_no_other_stage(monkeypatch):
    # every stage of an Analysis is computed on first read
    from gstruct import spaces
    from gstruct.analysis import Analysis

    later = ["connections.solve_equivariant", "connections.holonomy_algebra",
             "curvature.curvature_report", "spin.invariant_spinors"]
    counts = _count_calls(monkeypatch, later + ["connections.characteristic_connection"])
    a = Analysis(spaces.build("M1", spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4)))
    assert a.conn is not None and a.conn is a.conn
    assert counts == dict.fromkeys(later, 0) | {"connections.characteristic_connection": 1}


def _differing(full, other, prefix=""):
    """The dotted keys whose values differ between two reports."""
    out = set()
    for k, v in full.items():
        if isinstance(v, dict) and isinstance(other[k], dict):
            out |= _differing(v, other[k], f"{prefix}{k}.")
        elif v != other[k]:
            out.add(prefix + k)
    return out


@pytest.mark.parametrize("flag, blanked", [
    ("--no-holonomy", {"holonomy"}),
    ("--no-spin", {"spin"}),
    ("--no-curvature", {"curvature", "spin.friedrich_rhs", "spin.twistor_rhs",
                        "spin.equality_flags.friedrich_equality", "spin.equality_flags.twistor_strict"}),
])
def test_each_flag_blanks_its_own_section(capsys, flag, blanked):
    code, out = run_cli(capsys, "analyze", "M4", "--gamma", "1.8")
    full = json.loads(out)
    assert code == 0 and full["spin"]["friedrich_rhs"] is not None
    flagged_code, out = run_cli(capsys, "analyze", "M4", "--gamma", "1.8", flag)
    flagged = json.loads(out)
    assert flagged_code == code
    assert flagged.keys() == full.keys() and _differing(full, flagged) == blanked
    assert all(functools.reduce(dict.get, key.split("."), flagged) is None for key in blanked)


def test_decompose_v14xv70_uses_split_casimir(capsys, monkeypatch):
    # the factors' Casimirs (dims 14 and 70) are computed, the 980-dim one is not
    from gstruct import reps

    counts = _count_calls(monkeypatch, ["reps.v14_v70_rep"])
    dims = []
    original = reps.casimir
    monkeypatch.setattr(reps, "casimir", lambda rep: dims.append(rep.shape[1]) or original(rep))
    code, out = run_cli(capsys, "decompose", "v14xv70")
    assert code == 0
    assert sorted(p["dim"] for p in json.loads(out)["parts"]) == [14, 21, 70, 84, 90, 189, 512]
    assert counts == {"reps.v14_v70_rep": 0}
    assert sorted(dims) == [14, 70]


_M1_INFEASIBLE = ["--alpha2", "2", "--alpha3", "1", "--alpha4", "1", "--alpha5", "1", "--alpha6", "1", "--alpha7", "1",
                  "--alpha8", "1"]


@pytest.mark.parametrize("sid, metrics, codes", [
    # the last metrics: far smaller Ricci values than the bracket products that cancel in them
    ("M1", (["--alpha", "1.1", "--beta", "0.8", "--gamma", "1.4"], _M1_INFEASIBLE, ["--alpha", "1e12"],
            ["--beta", "1.3e-12", "--gamma", "0.8"]), (0, 2, 0, 0)),
    ("M2", (["--alpha", "1", "--beta", "2"], ["--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5"]), (0, 0)),
    ("M3", (["--alpha", "0.9", "--beta", "1.3", "--gamma", "0.7"], ["--gamma", "1.6"]), (0, 0)),
    ("M4", (["--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5"], ["--beta", "2", "--gamma", "1.2"],
            ["--beta", "1.3", "--gamma", "8e-13"]), (0, 0, 0)),
], ids=["M1", "M2", "M3", "M4"])
def test_analyze_solves_each_isotropy_system_once(capsys, monkeypatch, fresh_isotropy_cache, sid, metrics, codes):
    # every metric of a catalog space shares the equivariant family and the
    # invariant spinors, so each joint-kernel system is solved once per
    # space and process, off the feasibility locus too; both are solved
    # from their entries, the parallel spinors densely
    from gstruct import connections, spaces, spin

    systems = []

    def recording(module, name, columns):
        solve = getattr(module, name)

        def record(*args, **kwargs):
            systems.append(columns(*args))
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    for module in (connections, spin):
        recording(module, "nullspace_entries", lambda rows, cols, vals, shape, *_: shape[1])
    recording(spin, "nullspace", lambda M, *_: np.shape(M)[1])
    fx = spaces.fixtures(spaces.canonical_id(sid))
    for argv, expected in zip(metrics, codes):
        code, out = run_cli(capsys, "analyze", sid, *argv)
        assert code == expected
        rep = json.loads(out)
        assert rep["family_dim"] == fx.expected_family_dim
        assert rep["spin"]["invariant_dim"] == fx.expected_spinor_dim
        assert bool(rep["spin"].get("dirac_eigenvalues")) == (code == 0 and fx.expected_spinor_dim > 0)
    # 294 columns: the equivariance system; 128: the spinor system
    assert systems.count(294) == 1 and systems.count(128) == 1


def test_analyze_does_not_import_numpy_random():
    # numpy imports numpy.random and numpy.ma lazily, on first use; analyze,
    # subgroups and verify never use them (a plain np.unique(x) imports numpy.ma)
    child = (
        "import contextlib, io, sys\n"
        "from gstruct import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', 'M3']) == 0\n"
        "    assert cli.main(['analyze', 'M4']) == 0\n"
        "    assert cli.main(['subgroups']) == 0\n"
        "    assert cli.main(['verify']) == 0\n"
        "print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


def test_analyze_uses_no_pair_coordinates():
    # the connection's curvature and holonomy stay in rho coordinates: a
    # fresh process analyzes M1-M4 without reps.pack_so or reps.unpack_so,
    # which `theta sp3` then shows the counting sees
    child = (
        "import contextlib, io, sys\n"
        "from gstruct import cli, reps\n"
        "calls = []\n"
        "for fn in (reps.pack_so, reps.unpack_so):\n"
        "    counted = lambda *a, _fn=fn, **k: calls.append(_fn.__name__) or _fn(*a, **k)\n"
        "    for mod in [m for key, m in sys.modules.items() if key.startswith('gstruct')]:\n"
        "        for attr in [attr for attr, obj in vars(mod).items() if obj is fn]:\n"
        "            setattr(mod, attr, counted)\n"
        "for argvs in ([['analyze', sid] for sid in ('M1', 'M2', 'M3', 'M4')], [['theta', 'sp3']]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert all(cli.main(argv) == 0 for argv in argvs)\n"
        "    print(sorted(set(calls)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "['pack_so', 'unpack_so']"]


THREAD_GUARD_COMMANDS = (
    ["analyze", "M1", "--alpha", "1.1", "--beta", "0.8", "--gamma", "1.4"],
    ["analyze", "M2", "--alpha", "1", "--beta", "2"],
    ["analyze", "M4", "--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5"],
    ["analyze", "M4", "--alpha", "1", "--beta", "2", "--gamma", "1.2"],
    ["decompose", "lambda3"],
    ["decompose", "v14xv70"],
    ["subgroups"],
    ["liegroup", "su3"],
)


def _child_reports(commands, **env) -> bytes:
    """stdout of one child process that runs ``commands`` in turn, each
    report followed by its exit code."""
    child = (
        "from gstruct import cli\n"
        f"for argv in {list(commands)!r}:\n"
        "    print('exit', cli.main(argv), flush=True)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def test_reports_do_not_depend_on_blas_threads():
    # one child process per BLAS thread count runs every command in turn
    outs = [_child_reports(THREAD_GUARD_COMMANDS, OPENBLAS_NUM_THREADS=t) for t in ("1", "2")]
    assert outs[0].count(b"exit 0") == len(THREAD_GUARD_COMMANDS)
    assert outs[0] == outs[1]


HISTORY_COMMANDS = (
    ["verify"],
    ["analyze", "M4", "--alpha", "0.9", "--beta", "1.4", "--gamma", "0.8"],
    ["analyze", "M3", "--alpha", "0.9", "--beta", "1.3", "--gamma", "0.7"],
    ["analyze", "M2", "--alpha", "1", "--beta", "0.8", "--gamma", "1.3"],
    ["analyze", "M1", "--alpha", "1.1", "--beta", "0.8", "--gamma", "1.4"],
    ["analyze", "M4", "--alpha", "1.2", "--beta", "0.8", "--gamma", "1.5"],
    ["analyze", "M1", *_M1_INFEASIBLE],
    ["analyze", "M2", "--alpha", "1.2", "--alpha2", "0.9", "--alpha3", "1.1", "--alpha4", "1.3", "--alpha5", "1.2",
     "--alpha6", "0.8", "--beta", "0.8", "--gamma", "1.5"],
)


def test_reports_do_not_depend_on_earlier_commands():
    # the isotropy results cached for each catalog space come from its
    # unit metric, never from whichever metric ran first in the process
    together = _child_reports(HISTORY_COMMANDS, OPENBLAS_NUM_THREADS="1")
    alone = b"".join(_child_reports([argv], OPENBLAS_NUM_THREADS="1") for argv in HISTORY_COMMANDS)
    # the infeasible M1 and the unequal-alpha M2 exit 2
    assert together.count(b"exit 0") == len(HISTORY_COMMANDS) - 2 and together.count(b"exit 2") == 2
    assert together == alone


def test_parser_reused_across_calls(capsys):
    from gstruct import cli

    assert cli.make_parser() is cli.make_parser()
    code, out = run_cli(capsys, "analyze", "M2", "--alpha", "1", "--beta", "1", "--no-spin")
    assert code == 0
    first = json.loads(out)
    code, out = run_cli(capsys, "analyze", "M4", "--gamma", "1.8", "--no-curvature")
    assert code == 0
    second = json.loads(out)
    code, out = run_cli(capsys, "theta", "su3-adjoint")
    assert code == 0 and json.loads(out)["kernel_dim"] == 1
    assert first["space_id"] == "u4-so2so2" and first["params"]["beta"] == 1.0
    assert first["spin"] is None and first["curvature"] is not None
    assert second["space_id"] == "su5-sp2" and second["params"]["gamma"] == 1.8
    assert second["params"]["beta"] == 1.0 and second["curvature"] is None
    assert second["spin"] is not None and second["holonomy"] == {"dim": 11, "label": "sp2+w1"}
