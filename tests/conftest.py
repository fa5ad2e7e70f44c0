from itertools import permutations

import numpy as np
import pytest

from gstruct import connections as con
from gstruct import spaces, verify
from gstruct.analysis import Analysis
from gstruct.linalg import nullspace

_cache = {}


def pipeline(sid, alpha=1.0, beta=1.0, gamma=1.0, alphas=()):
    """Build-and-solve cache shared across test modules: the space, its
    family and characteristic connection (None off the feasibility locus),
    and the `Analysis` whose later stages are computed on first read."""
    sid = spaces.ALIASES.get(sid, sid)
    key = (sid, alpha, beta, gamma, tuple(alphas))
    if key not in _cache:
        p = spaces.MetricParams(alpha=alpha, alphas=tuple(alphas), beta=beta, gamma=gamma)
        a = Analysis(spaces.build(sid, p))
        _cache[key] = {"params": p, "analysis": a, "space": a.space, "family": a.family, "conn": a.conn}
    return _cache[key]


def assert_point_checks(sid, points, *claims):
    """Run ``verify.point_checks`` at each point, (alpha, beta, gamma) or
    (alpha, beta, gamma, alphas), and assert that its record of each claim
    (the record name after the metric tag, "torsion table" say) is there
    and passed.  Returns the details of those records in order."""
    details = []
    for point in points:
        ctx = pipeline(sid, *point)
        records = {name.split(") ", 1)[1]: (ok, detail)
                   for name, ok, detail in verify.point_checks(ctx["analysis"], ctx["params"])}
        for claim in claims:
            ok, detail = records[claim]
            assert ok, (sid, point, claim, detail)
            details.append(detail)
    return details


def parallel_vector_fields(conn, holonomy):
    """Frame vectors killed by both the holonomy algebra of ``conn`` (as
    ``holonomy_algebra`` returns it) and the isotropy, together with the
    2-forms obtained by contracting them into the torsion.

    Returns (vectors as columns, list of 14x14 antisymmetric 2-forms).
    """
    vecs = nullspace(np.concatenate([holonomy.basis, conn.space.iso]).reshape(-1, 14))
    return vecs, [np.tensordot(v, conn.torsion.t3, 1) for v in vecs.T]


def densify(rows, cols, vals, shape):
    """The matrix of an entry list, values at a repeated position summed in
    input order."""
    A = np.zeros(shape, dtype=np.result_type(np.asarray(vals).dtype, float))
    np.add.at(A, (rows, cols), vals)
    return A


def draws(sid, count, seed, lo=0.55, hi=1.9):
    """Deterministic positive (alpha, beta, gamma) samples per space."""
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in rng.uniform(lo, hi, 3)) for _ in range(count)]


@pytest.fixture
def fresh_isotropy_cache():
    """Empty per-space frame and isotropy caches during the test, and again
    after it, so what a patched test computes there reaches no other test."""
    spaces._frame.cache_clear()
    spaces._unit_metric_space.cache_clear()
    yield
    spaces._frame.cache_clear()
    spaces._unit_metric_space.cache_clear()


@pytest.fixture(scope="session")
def verify_records():
    """The records of ``verify.run_all()`` by name: {name: (passed, detail)}."""
    return {name: (ok, detail) for name, ok, detail in verify.run_all()}


@pytest.fixture(scope="session")
def v14_v70_parts():
    """The Casimir eigenspaces of the product module, decomposed once per
    session from the entries of ``reps.v14_v70_casimir()``, for the tests
    that read them."""
    from gstruct import reps

    return reps.decompose_casimir(reps.v14_v70_casimir()).parts


def trace_cubic():
    """The invariant cubic built directly from the ambient triple trace,
    Im tr(sym(B_i B_j B_k)); an independent construction used as an oracle."""
    from gstruct import sp3

    B = sp3.load().B
    t = np.imag(np.einsum("iab,jbc,kca->ijk", B, B, B))
    return sum(np.transpose(t, p) for p in permutations(range(3))) / 6.0


def metric_reconstructor():
    """The trace cubic scaled to U with U_v^2 v = |v|^2 v for every v, the
    scale fixed on one sample vector: (tensor, scale applied)."""
    t = trace_cubic()
    v = np.random.default_rng(7).standard_normal(14)
    v /= np.linalg.norm(v)
    M = np.einsum("ijk,k->ij", t, v)
    denom = float(v @ (M @ M) @ v)
    assert denom > 0, "trace cubic degenerate on the sample vector"
    c = 1.0 / np.sqrt(denom)
    return c * t, c


def v14_v70_rep():
    """Dense reference action on the 980-dimensional product module
    V14 (x) V70, a (21, 980, 980) stack: R_a (x) I + I (x) ad_a."""
    from gstruct import reps, sp3

    R, acts = sp3.load().rho, reps.complement_action()[1]
    out = np.empty((len(R), 980, 980))
    for g, r, ad in zip(out, R, acts):
        g[:] = np.kron(r, np.eye(70)) + np.kron(np.eye(14), ad)
    return out


@pytest.fixture(scope="session")
def sp3_data():
    from gstruct import sp3

    return sp3.load()
