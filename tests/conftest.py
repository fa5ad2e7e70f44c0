import json
from itertools import permutations

import numpy as np
import pytest

from gstruct import connections as con
from gstruct import spaces, verify
from gstruct.analysis import Analysis
from gstruct.errors import GstructError
from gstruct.linalg import DEFAULT_TOL, nullspace, rank

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


def curvature_of_map(space, lam):
    """Reference: R4[i, j] = R(K_i, K_j) = [Lambda(K_i), Lambda(K_j)] - Lambda([K_i, K_j]_m)
    - rho([K_i, K_j]_h), the (14, 14, 14, 14) so(14) matrices acting on frame
    coordinates, of any connection map (stack of so(14) matrices)."""
    comm = lam[:, None] @ lam[None]
    comm = comm - np.swapaxes(comm, 0, 1)
    return comm - np.tensordot(space.pm, lam, 1) - np.tensordot(space.ph, space.iso, 1)


def nabla_torsion(lam, t12):
    """Reference: (nabla_V T)(X, Y) over all frame directions, nt[v, k, i, j],
    the full (14, 14, 14, 14) array."""
    return (
        (lam.reshape(-1, 14) @ t12.reshape(14, -1)).reshape(14, 14, 14, 14)
        - np.tensordot(lam, t12, (1, 1)).transpose(0, 2, 1, 3)
        - np.tensordot(lam, t12, (1, 2)).transpose(0, 2, 3, 1)
    )


def homomorphism_defect():
    """Reference: max |[A_a, A_b] - sum_c F[a, b, c] A_c|; rho is a
    homomorphism iff the A basis has the structure constants F of the rho basis."""
    from gstruct import sp3

    A = sp3.load().A
    brackets = A[:, None] @ A[None] - A[None] @ A[:, None]
    return float(np.max(np.abs(brackets - np.tensordot(sp3.structure_constants(), A, 1))))


def is_naturally_reductive(pm, tol=DEFAULT_TOL):
    """Reference: (flag, max defect) for g([X,Y]_m, Z) + g(Y, [X,Z]_m) over
    the triples of an orthonormal frame, read off its bracket table pm
    (pm[i, j, k] is g([K_i, K_j]_m, K_k)) and measured against ||pm||."""
    pm = np.asarray(pm)
    defect = float(np.max(np.abs(pm + np.swapaxes(pm, 1, 2))))
    return not tol.exceeds(defect, np.linalg.norm(pm)), defect


def densify(rows, cols, vals, shape):
    """The matrix of an entry list, values at a repeated position summed in
    input order."""
    A = np.zeros(shape, dtype=np.result_type(np.asarray(vals).dtype, float))
    np.add.at(A, (rows, cols), vals)
    return A


def entries(A):
    """The entry list (rows, cols, vals, shape) of the nonzero cells of a matrix."""
    nz = np.nonzero(A)
    return (*nz, A[nz], A.shape)


def pack_pairs(M):
    """Reference: the pair coordinates w_ab, a < b, of an n x n matrix, or
    (..., pairs) of a stack."""
    M = np.asarray(M)
    return M[(..., *np.triu_indices(M.shape[-1], 1))]


def unpack_pairs(v, n):
    """Reference: the antisymmetric matrix of pair coordinates; a (..., pairs)
    stack gives a (..., n, n) stack."""
    v = np.asarray(v)
    M = np.zeros(v.shape[:-1] + (n, n))
    M[(..., *np.triu_indices(n, 1))] = v
    return M - np.swapaxes(M, -1, -2)


def sp3_rotation(seed):
    """g = exp(rho(X)) in Sp(3) inside SO(14), X with coefficients 0.7 N(0, 1)."""
    from gstruct import sp3

    A = np.tensordot(0.7 * np.random.default_rng(seed).standard_normal(21), sp3.load().rho, axes=1)
    w, V = np.linalg.eigh(1j * A)  # A = -i V diag(w) V^H
    return ((V * np.exp(-1j * w)) @ V.conj().T).real


def dirac_reference(lam, coeffs, t3, sub, tol=DEFAULT_TOL):
    """Reference for ``spin.dirac_on_invariants``: the full-matrix route that
    the chiral blocks replaced.  On the support S, the rows where the basis B
    is nonzero, in ascending order, D_r = B[S]^H X[S, S] B[S] for X = c(c3 -
    T/2) + c(v) and T_r likewise for X = T_cl, the sum of the rows of S x S
    of ``spin._product_table``; their spectra by ``eigvalsh`` of the
    Hermitian parts; and k minus the ``rank`` of the whole (r 128, k) stack
    of the lifts over the row space of coeffs.  Returns (D_r, T_r, Dirac
    eigenvalues, torsion-operator eigenvalues, parallel spinor dim)."""
    from gstruct import spin

    S = np.flatnonzero(np.any(sub.basis != 0, axis=1))
    bs = sub.basis[S]
    place = np.full(len(sub.basis), -1)
    place[S] = np.arange(S.size)

    def restricted(*forms):
        X = 0
        for t in forms:
            combos, cols, vals = spin._product_table(14, t.ndim)
            j = place[cols[:, S]]
            term, i = np.nonzero(j >= 0)
            w = t[tuple(combos.T)][term] * vals[term, S[i]]
            X = X + spin._scatter(i * S.size + j[term, i], w, S.size ** 2)
        return bs.conj().T @ X.reshape(S.size, S.size) @ bs

    c3 = -0.5 * (lam - lam.transpose(1, 0, 2) + lam.transpose(1, 2, 0))
    v = 0.5 * np.trace(lam, axis1=0, axis2=1)
    Tr, Dr = restricted(t3), restricted(c3 + spin.DIRAC_TORSION_FACTOR * t3, v)
    nz = np.flatnonzero(np.any(coeffs != 0, axis=0))
    _, s, vh = np.linalg.svd(coeffs[:, nz], full_matrices=False)
    rows = (s[:, None] * vh)[s > tol.round_off(s.max(initial=0.0), *coeffs.shape)]
    stack = (rows @ sub.lifted_rho[nz].reshape(nz.size, sub.basis.size)).reshape(-1, sub.dim)
    return (Dr, Tr, np.linalg.eigvalsh(0.5 * (Dr + Dr.conj().T)), np.linalg.eigvalsh(0.5 * (Tr + Tr.conj().T)),
            sub.dim - rank(stack, tol))


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


def _round15(obj):
    """Reference: the report tree with floats normalized to 15 significant
    digits; a non-finite one has no JSON form and raises."""
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        if not np.isfinite(obj):
            raise GstructError(f"the report holds a non-finite value ({float(obj)}): the parameters overflow")
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim == 1 and np.isfinite(obj).all():
            return [float(f"{v:.15g}") for v in obj.tolist()]
        return _round15(obj.tolist())
    return obj


def reference_report(report, fmt="json"):
    """Reference: the stdout of a report as the rounded copy then json.dumps
    wrote it, or as the table of its dotted-key leaves."""
    report = _round15(report)
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"

    def walk(prefix, obj):
        if not isinstance(obj, dict):
            return [(prefix, obj)]
        return [leaf for k, v in obj.items() for leaf in walk(f"{prefix}.{k}" if prefix else k, v)]

    lines = walk("", report)
    width = max(len(k) for k, _ in lines)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in lines)
