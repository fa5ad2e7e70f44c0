"""Every set of matrices is one (k, n, n) ndarray, and the process-wide
caches hand theirs out read-only."""

import numpy as np
import pytest
from conftest import pipeline

from gstruct import connections as con
from gstruct import groups, reps, sp3, spin

STACKS = {
    "sp3.A": (lambda: sp3.load().A, (21, 6, 6)),
    "sp3.B": (lambda: sp3.load().B, (14, 6, 6)),
    "sp3.rho": (lambda: sp3.load().rho, (21, 14, 14)),
    "sp3.structure_constants": (sp3.structure_constants, (21, 21, 21)),
    "complement_basis": (lambda: reps.complement_action()[0], (70, 14, 14)),
    "complement_acts": (lambda: reps.complement_action()[1], (21, 70, 70)),
    "M1.iso": (lambda: pipeline("M1")["space"].iso, (1, 14, 14)),
    "M4.iso": (lambda: pipeline("M4")["space"].iso, (10, 14, 14)),
    "M1.family": (lambda: pipeline("M1")["family"], (98, 14, 21)),
    "M4.family": (lambda: pipeline("M4")["family"], (7, 14, 21)),
    "M4.holonomy": (lambda: con.holonomy_algebra(pipeline("M4")["conn"]).basis, (10, 14, 14)),
    "su3": (lambda: groups.su_algebra(3), (8, 3, 3)),
    "u2": (lambda: groups.u_algebra(2), (4, 2, 2)),
    "su2+su2": (groups.su2_plus_su2, (6, 4, 4)),
    "invariant_cubics": (reps.invariant_cubics, (1, 14, 14, 14)),
}


@pytest.mark.parametrize("name", STACKS)
def test_matrix_sets_are_stacked_arrays(name):
    get, shape = STACKS[name]
    stack = get()
    assert isinstance(stack, np.ndarray) and stack.shape == shape


# every metric of a catalog space shares its family and spinors
SHARED = {
    **{name: STACKS[name][0] for name in ("sp3.rho", "sp3.structure_constants", "complement_acts",
                                          "M4.family", "M1.family")},
    "M4.spinors": lambda: spin.invariant_spinors(pipeline("M4")["space"]).basis,
    "M1.spinors": lambda: spin.invariant_spinors(pipeline("M1")["space"]).basis,
    "M1.lifted_rho": lambda: spin.invariant_spinors(pipeline("M1")["space"]).lifted_rho,
}


@pytest.mark.parametrize("name", SHARED)
def test_shared_caches_are_read_only(name):
    stack = SHARED[name]()
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[(0,) * (stack.ndim - 1) + (1,)] = 1.0


def _m1_support():
    basis_rows, tables = spin.invariant_spinors(pipeline("M1")["space"]).support
    with pytest.raises(TypeError):
        tables[3] = tables[1]
    return (basis_rows, *(a for table in tables.values() for a in table))


INDEX_TABLES = {
    "spin._product_table": lambda: spin._product_table(14, 1),
    "spin._product_table(14, 2)": lambda: spin._product_table(14, 2),
    "spin._product_table(14, 3)": lambda: spin._product_table(14, 3),
    "SpinorSubspace.support": _m1_support,
    "reps.theta_index": lambda: reps.theta_index(14),
    "reps.theta_rho_entries": reps.theta_rho_entries,
    "reps._symmetric_coords": lambda: (reps._symmetric_coords(14),),
}


@pytest.mark.parametrize("name", INDEX_TABLES)
def test_cached_index_tables_are_read_only(name):
    for table in INDEX_TABLES[name]():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = table.flat[0]
