"""Every set of matrices is one (k, n, n) ndarray, and the process-wide
caches hand theirs out read-only."""

import numpy as np
import pytest
from conftest import pipeline

from gstruct import connections as con
from gstruct import reps, sp3, spin

STACKS = {
    "sp3.A": (lambda: sp3.load().A, (21, 6, 6)),
    "sp3.B": (lambda: sp3.load().B, (14, 6, 6)),
    "sp3.rho": (lambda: sp3.load().rho, (21, 14, 14)),
    "complement_basis": (lambda: reps.complement_action()[0], (70, 14, 14)),
    "complement_acts": (lambda: reps.complement_action()[1], (21, 70, 70)),
    "M1.iso": (lambda: pipeline("M1")["space"].iso, (1, 14, 14)),
    "M4.iso": (lambda: pipeline("M4")["space"].iso, (10, 14, 14)),
    "M4.generators": (lambda: pipeline("M4")["space"].generators(), (2, 14, 14)),
    "M4.family": (lambda: pipeline("M4")["family"].basis, (7, 14, 21)),
    "M4.holonomy": (lambda: con.holonomy_algebra(pipeline("M4")["conn"]).basis, (10, 14, 14)),
    "clifford14.gammas": (lambda: spin.build_clifford(14).gammas, (14, 128, 128)),
}


@pytest.mark.parametrize("name", STACKS)
def test_matrix_sets_are_stacked_arrays(name):
    get, shape = STACKS[name]
    stack = get()
    assert isinstance(stack, np.ndarray) and stack.shape == shape


# every metric of a catalog space shares its generators, family and spinors
SHARED = {
    **{name: STACKS[name][0] for name in ("sp3.rho", "complement_acts", "clifford14.gammas", "M4.generators", "M4.family")},
    "M4.spinors": lambda: spin.invariant_spinors(pipeline("M4")["space"]).basis,
}


@pytest.mark.parametrize("name", SHARED)
def test_shared_caches_are_read_only(name):
    stack = SHARED[name]()
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[(0,) * (stack.ndim - 1) + (1,)] = 1.0


INDEX_TABLES = {
    "spin._product_table": lambda: spin._product_table(14, 1),
    "reps.theta_index": lambda: reps.theta_index(14),
    "reps._symmetric_embedding": lambda: (reps._symmetric_embedding(14),),
}


@pytest.mark.parametrize("name", INDEX_TABLES)
def test_cached_index_tables_are_read_only(name):
    for table in INDEX_TABLES[name]():
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = table.flat[0]
