import dataclasses

import pytest
from conftest import pipeline

from gstruct import connections as con
from gstruct import spaces, spin, verify
from gstruct.errors import Infeasible


def test_run_all_passes_every_check(verify_records):
    assert len(verify_records) == 75
    assert [name for name, (ok, _) in verify_records.items() if not ok] == []


def test_missing_connection_is_reported_not_raised(monkeypatch):
    def infeasible(space, *args, **kwargs):
        raise Infeasible(f"{space.space_id}: forced")

    monkeypatch.setattr(con, "characteristic_connection", infeasible)
    results = verify.run_all(space="M2")
    failed = [name for name, ok, _ in results if not ok]
    assert failed and all("no characteristic connection" == detail for _, ok, detail in results if not ok)
    assert any(name.endswith("family dim") for name, ok, _ in results if ok)


def test_torsion_table_check_covers_unlisted_entries(monkeypatch):
    # a fixture table missing one nonzero entry expects 0 there, so the
    # check fails at both sample points
    fixtures = spaces.fixtures

    def dropping(sid):
        fx = fixtures(sid)

        def torsion(p):
            table = fx.torsion(p)
            del table[next(iter(table))]
            return table

        return dataclasses.replace(fx, torsion=torsion)

    monkeypatch.setattr(spaces, "fixtures", dropping)
    failed = [name for name, ok, _ in verify.run_all(space="M3") if not ok]
    assert len(failed) == 2 and all(name.endswith(" torsion table") for name in failed)


def _shifted(f):
    return lambda p: f(p) + 1e-6


# each field of the fixtures, perturbed, and the one claim whose check it fails
_PERTURBED = {
    "char_lambda": (lambda f: lambda p: {k: c + 1e-6 for k, c in f(p).items()}, "characteristic map"),
    "ricci_riem": (_shifted, "Ricci/scalar tables"),
    "scal_conn": (_shifted, "Ricci/scalar tables"),
    "holonomy": (lambda f: lambda p: (f(p)[0] + 1, f(p)[1]), "holonomy"),
    "parallel": (lambda f: lambda p: not f(p), "parallel torsion"),
    "expected_family_dim": (lambda n: n + 1, "family dim"),
    "expected_spinor_dim": (lambda n: n + 1, "invariant spinors"),
    "extras": (lambda e: {"dirac": _shifted(e["dirac"])}, "Dirac spectrum"),
}


@pytest.mark.parametrize("field", _PERTURBED)
def test_each_point_check_fails_on_its_perturbed_fixture(monkeypatch, field):
    # M4 has every claim, the Dirac spectrum included
    perturb, claim = _PERTURBED[field]
    fixtures = spaces.fixtures

    def perturbed(sid):
        fx = fixtures(sid)
        return dataclasses.replace(fx, **{field: perturb(getattr(fx, field))})

    ctx = pipeline("M4", alpha=1.1, beta=0.9, gamma=1.3)
    assert all(ok for _, ok, _ in verify.point_checks(ctx["analysis"], ctx["params"]))
    monkeypatch.setattr(spaces, "fixtures", perturbed)
    failed = [name for name, ok, _ in verify.point_checks(ctx["analysis"], ctx["params"]) if not ok]
    assert failed == [f"M4(a=1.100,b=0.900,g=1.300) {claim}"]


def test_space_checks_skip_unchecked_stages(monkeypatch):
    # no sample check reads a type component, and only M2 and M4 have a
    # closed-form Dirac spectrum: M1's samples must not compute one
    counts = {"classify_type": 0, "dirac_on_invariants": 0}
    for mod, name in ((con, "classify_type"), (spin, "dirac_on_invariants")):
        original = getattr(mod, name)

        def counting(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    assert all(ok for _, ok, _ in verify.run_all(space="M1"))
    assert counts == {"classify_type": 0, "dirac_on_invariants": 0}
    assert all(ok for _, ok, _ in verify.run_all(space="M2"))
    assert counts["classify_type"] == 0 and counts["dirac_on_invariants"] > 0
