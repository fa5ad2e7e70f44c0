import dataclasses

from gstruct import connections as con
from gstruct import spaces, spin, verify
from gstruct.errors import Infeasible


def test_run_all_passes_every_check():
    results = verify.run_all()
    assert len(results) == 75
    assert [name for name, ok, _ in results if not ok] == []


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
