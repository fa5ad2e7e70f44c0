from gstruct import connections as con
from gstruct import verify
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
