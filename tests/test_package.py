"""The package surface: every public name resolves on first use, and the
plain-data records are immutable named tuples with fixed fields."""

import importlib
import json
from types import MappingProxyType

import pytest
from conftest import pipeline

import gstruct
from gstruct import connections, curvature, reps, sp3, spaces, spin
from gstruct.cli import main

FROM_LINALG = ("DEFAULT_TOL", "ToleranceProfile", "eig_selfadjoint", "nullspace", "rank")
FROM_SPACES = ("ALIASES", "SPACE_IDS", "MetricParams", "build", "fixtures")
SUBMODULES = ("connections", "curvature", "groups", "liealg", "linalg", "reps", "sp3", "spaces", "spin")


def test_public_names_resolve():
    assert sorted(gstruct.__all__) == sorted(FROM_LINALG + FROM_SPACES + SUBMODULES)
    star = {}
    exec("from gstruct import *", star)
    for name in gstruct.__all__:
        home = name if name in SUBMODULES else "linalg" if name in FROM_LINALG else "spaces"
        module = importlib.import_module(f"gstruct.{home}")
        want = module if name in SUBMODULES else getattr(module, name)
        assert getattr(gstruct, name) is want and star[name] is want, name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gstruct.no_such_name
    assert not hasattr(gstruct, "no_such_name")


RECORDS = {
    connections.TorsionTensor: ("t12", "t3"),
    connections.HolonomyResult: ("basis", "dim", "label"),
    curvature.CurvatureReport: ("ricci_conn", "ricci_riem", "scal_conn", "scal_riem", "einstein_defect"),
    reps.IsotypicDecomposition: ("parts",),
    sp3.SubgroupRow: ("name", "generators", "expected_blocks"),
    sp3.Sp3Data: ("A", "B", "rho"),
    spaces._Frame: ("K", "nu2", "H", "slot"),
    spaces.SpaceFixtures: ("expected_family_dim", "expected_spinor_dim", "torsion", "char_lambda", "char_feasible",
                           "ricci_conn", "ricci_riem", "scal_conn", "scal_riem", "holonomy", "parallel", "extras"),
    spin.DiracReport: ("eigenvalues", "torsion_op_eigenvalues", "torsion_norm2", "parallel_spinor_dim"),
    spin.Estimates: ("friedrich_rhs", "twistor_rhs", "friedrich_equality", "twistor_strict"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_keep_their_fields_and_refuse_writes(record):
    fields = RECORDS[record]
    assert record._fields == fields
    instance = record(*range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
    with pytest.raises(AttributeError):
        instance.new_field = None


def test_fixture_extras_default_is_read_only():
    extras = spaces.fixtures("M1").extras
    assert isinstance(extras, MappingProxyType) and not extras
    with pytest.raises(TypeError):
        extras["dirac"] = None
    assert "dirac" in spaces.fixtures("M4").extras


def test_estimates_fields_in_report_order(capsys):
    # the report prints the estimates in the order of the record's fields
    est = pipeline("M4")["analysis"].estimates
    assert main(["analyze", "M4"]) == 0
    rep = json.loads(capsys.readouterr().out)["spin"]
    printed = [key for key in rep if key.endswith("_rhs")] + list(rep["equality_flags"])
    assert list(est._asdict()) == printed == list(RECORDS[spin.Estimates])
