from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import densify, metric_reconstructor, trace_cubic, v14_v70_rep
from test_liealg import _sym3_action, _sym3_basis, _sym3_tensors

from gstruct import reps, sp3, spaces
from gstruct.errors import NotClosed
from gstruct.linalg import eig_selfadjoint, nullspace, nullspace_entries, rank

_PERM_SIGN = {p: (1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1)
              for p in permutations(range(3))}


def _sort_sign(t):
    """(sorted tuple, permutation sign); None sign for repeated indices."""
    i, j, k = t
    if i == j or j == k or i == k:
        return None, 0
    order = tuple(sorted(range(3), key=lambda s: t[s]))
    return tuple(sorted(t)), _PERM_SIGN[order]


def _triples(n):
    """The increasing triples of range(n) in lexicographic order."""
    return list(combinations(range(n), 3))


def _triple_index(n):
    return {t: i for i, t in enumerate(_triples(n))}


def _lambda3_action_loop(rho_list):
    """Reference: the derivative action on 3-forms, entry by entry."""
    rho_list = [np.asarray(r) for r in rho_list]
    n = rho_list[0].shape[0]
    trips = _triples(n)
    idx = _triple_index(n)
    gens = []
    for A in rho_list:
        M = np.zeros((len(trips), len(trips)))
        nz_cols = [np.nonzero(A[:, c])[0] for c in range(n)]
        for col, t in enumerate(trips):
            for slot in range(3):
                orig = t[slot]
                for l in nz_cols[orig]:
                    newt = list(t)
                    newt[slot] = int(l)
                    srt, sign = _sort_sign(tuple(newt))
                    if sign:
                        M[idx[srt], col] += sign * A[l, orig]
        gens.append(M)
    return gens


def _theta_map_loop(group_gens):
    """Reference: Theta column by column, one matvec per contraction."""
    n = np.shape(group_gens)[-1]
    F = reps.pack_so(reps.so_complement(group_gens, n), n)
    q = len(F)
    trips = _triples(n)
    pidx = {p: i for i, p in enumerate(combinations(range(n), 2))}
    theta = np.zeros((n * q, len(trips)))
    if q == 0:
        return theta
    for col, (i, j, k) in enumerate(trips):
        # e_l _| (e_i^e_j^e_k) for l = i, j, k
        for l, pair, sign in ((i, (j, k), 1.0), (j, (i, k), -1.0), (k, (i, j), 1.0)):
            w = np.zeros(F.shape[1])
            w[pidx[pair]] = sign
            theta[l * q:(l + 1) * q, col] = F @ w
    return theta


@pytest.fixture(scope="module")
def lambda3(sp3_data):
    return np.array(_lambda3_action_loop(list(sp3_data.rho)))


def test_lambda3_dimension(lambda3):
    assert lambda3.shape[1] == 364


def test_lambda3_leibniz_spot_check(sp3_data, lambda3):
    # action on a decomposable 3-form agrees with the slot-wise rule
    A = sp3_data.rho[8]
    trips = _triples(14)
    idx = _triple_index(14)
    col = idx[(4, 5, 8)]
    v = np.zeros(364)
    v[col] = 1.0
    out = lambda3[8] @ v
    expect = np.zeros(364)
    for slot, orig in enumerate((4, 5, 8)):
        for l in range(14):
            if A[l, orig] == 0.0:
                continue
            t = [4, 5, 8]
            t[slot] = l
            if len(set(t)) < 3:
                continue
            srt, sign = _sort_sign(tuple(t))
            expect[idx[srt]] += sign * A[l, orig]
    assert np.max(np.abs(out - expect)) < 1e-14


def test_lambda3_casimir_matches_loop_reference(lambda3):
    # the production splitting diagonalizes -6 I - 4 Theta^T Theta
    theta = reps.sp3_theta()
    C = reps.casimir(lambda3)
    assert np.max(np.abs(-6 * np.eye(364) - 4 * theta.T @ theta - C)) <= 1e-12 * np.linalg.norm(C)
    for ev, _, basis in reps.lambda3_decomposition().parts:
        assert np.max(np.abs(C @ basis - ev * basis)) <= 1e-12 * np.linalg.norm(C)


def test_theta_map_matches_loop_reference(sp3_data):
    assert np.array_equal(reps.theta_map(sp3_data.rho), _theta_map_loop(sp3_data.rho))


def test_type_components_skip_theta_and_verify_builds_it_once(monkeypatch):
    from gstruct import linalg, verify
    from gstruct.analysis import Analysis
    from gstruct.linalg import DEFAULT_TOL

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(reps, "theta_map", counting("theta_map", reps.theta_map))
    for mod in (reps, linalg):
        monkeypatch.setattr(mod, "eig_selfadjoint", counting("eig_selfadjoint", linalg.eig_selfadjoint))
    for sid in ("M1", "M2", "M3", "M4"):
        # a fresh process: no Lambda^3 splitting or Theta built yet
        reps.lambda3_decomposition.cache_clear()
        reps.sp3_theta.cache_clear()
        comps = Analysis(spaces.build(sid, spaces.MetricParams())).type_components
        assert set(comps) == {-8, -12, -18, -16}
        assert calls == [], sid

    reps.lambda3_decomposition.cache_clear()
    reps.sp3_theta.cache_clear()
    results = []
    verify._check_reps(DEFAULT_TOL, results)
    assert all(ok for _, ok, _ in results)
    assert calls.count("theta_map") == 1
    assert not reps.sp3_theta().flags.writeable


def test_lambda3_respects_structure_constants(sp3_data, lambda3):
    from gstruct.liealg import CoordinateFrame, bracket

    frame = CoordinateFrame(list(sp3_data.A))
    rng = np.random.default_rng(0)
    for _ in range(6):
        i, j = rng.integers(0, 21, 2)
        (c,), _ = frame.stack_coords(bracket(sp3_data.A[i], sp3_data.A[j])[None])
        lhs = sum(ck * g for ck, g in zip(c, lambda3))
        rhs = lambda3[i] @ lambda3[j] - lambda3[j] @ lambda3[i]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_casimir_on_base_module_is_scalar(sp3_data):
    C = reps.casimir(sp3_data.rho)
    # independent oracle: the scalar equals the trace average
    scalar = sum(np.trace(R @ R) for R in sp3_data.rho) / 14.0
    assert np.max(np.abs(C - scalar * np.eye(14))) < 1e-12
    assert abs(scalar - (-6.0)) < 1e-12


def test_casimir_commutes_with_generators(lambda3):
    C = reps.casimir(lambda3)
    g = lambda3[0]
    assert np.max(np.abs(C @ g - g @ C)) < 1e-9


def test_lambda3_isotypic_table(lambda3):
    dec = reps.decompose_casimir(reps.casimir(lambda3))
    got = {int(round(ev)): d for ev, d, _ in dec.parts}
    assert got == {-8: 21, -12: 70, -18: 84, -16: 189}
    for ev, d, basis in dec.parts:
        assert basis.shape == (364, d)


def test_trivial_rep_single_part():
    dec = reps.decompose_casimir(reps.casimir(np.zeros((1, 5, 5))))
    assert len(dec.parts) == 1
    ev, d, _ = dec.parts[0]
    assert ev == 0.0 and d == 5


def test_v14_v70_multiset(v14_v70_parts):
    assert sorted(d for _, d, _ in v14_v70_parts) == [14, 21, 70, 84, 90, 189, 512]
    # the seven Casimir eigenvalues are pairwise distinct (computed)
    evs = sorted(ev for ev, _, _ in v14_v70_parts)
    assert min(b - a for a, b in zip(evs, evs[1:])) > 1.0


def test_v14_v70_casimir_matches_generators():
    C = densify(*reps.v14_v70_casimir())
    ref = reps.casimir(v14_v70_rep())
    assert np.max(np.abs(C - ref)) <= 1e-12 * np.linalg.norm(ref)


def _symmetric_embedding(n):
    """The (n * n, n(n+1)/2) 0/1 matrix whose column (p, q), p <= q in
    ``np.triu_indices`` order, is vec(E_pq + E_qp) (vec(E_pp) for p = q)."""
    p, q = np.triu_indices(n)
    P = np.zeros((n * n, p.size))
    P[p * n + q, np.arange(p.size)] = P[q * n + p, np.arange(p.size)] = 1.0
    return P


def _commutant_block(R):
    """Dense reference for one generator: S |-> vec(S R - R S) over the
    symmetric coordinates, vec(S R) = (I (x) R^T) vec S and vec(R S) =
    (R (x) I) vec S for row-major vec."""
    I = np.eye(len(R))
    return (np.kron(I, R.T) - np.kron(R, I)) @ _symmetric_embedding(len(R))


@pytest.mark.parametrize("row", sp3.subgroup_rows(), ids=lambda row: row.name)
def test_commutant_kernel_matches_dense_kron_route(row):
    # the entry system and the stacked kron blocks have the same kernel bit
    # for bit, and scattering the coordinates is the 0/1 embedding
    gens = sp3.load().rho_of(row.generators)
    ker = nullspace_entries(*reps._commutant_entries(gens))
    ref = nullspace(np.vstack([_commutant_block(R) for R in gens]))
    assert ker.shape == ref.shape and np.array_equal(ker, ref)
    assert np.array_equal(ker.T[:, reps._symmetric_coords(14)], (_symmetric_embedding(14) @ ref).T.reshape(-1, 14, 14))


def test_theta_sp3_full_rank(sp3_data):
    tmap = reps.theta_map(list(sp3_data.rho))
    assert tmap.shape == (14 * 70, 364)
    assert rank(tmap) == 364
    kdim = nullspace(tmap).shape[1]
    assert kdim == 0


def test_theta_so_n_itself():
    n = 4
    gens = []
    for a, b in combinations(range(n), 2):
        m = np.zeros((n, n))
        m[a, b], m[b, a] = 1.0, -1.0
        gens.append(m)
    tmap = reps.theta_map(gens)
    kdim = nullspace(tmap).shape[1]
    assert kdim == 4  # full 3-form space C(4,3)


def test_theta_restricted_to_adjoint_part_full_rank(sp3_data, lambda3):
    dec = reps.decompose_casimir(reps.casimir(lambda3))
    basis21 = next(b for ev, d, b in dec.parts if int(round(ev)) == -8)
    tmap = reps.theta_map(list(sp3_data.rho))
    assert rank(tmap @ basis21) == 21


def test_invariant_vectors_of_space_isotropies():
    from conftest import pipeline

    m1 = pipeline("M1")["space"]
    m2 = pipeline("M2")["space"]
    inv1 = nullspace(m1.iso.reshape(-1, 14))
    inv2 = nullspace(m2.iso.reshape(-1, 14))
    assert inv1.shape[1] == 6
    assert inv2.shape[1] == 2
    # trivial directions of the first space are the last six frame vectors
    P = inv1 @ inv1.T
    for idx in range(8, 14):
        e = np.zeros(14)
        e[idx] = 1.0
        assert np.linalg.norm(P @ e - e) < 1e-10


def test_invariant_vectors_full_module_none(sp3_data):
    assert nullspace(sp3_data.rho.reshape(-1, 14)).shape[1] == 0


def test_subgroup_decompose_all_rows():
    for row in sp3.subgroup_rows():
        got = reps.subgroup_decompose(row)
        assert tuple(sorted(got)) == tuple(sorted(row.expected_blocks)), row.name


def _unit_rows(*idxs):
    """Coefficient vectors of A_i, i = 1..21, over the A basis."""
    return tuple(np.eye(21)[[i - 1 for i in idxs]])


# rows whose S* eigensplit is finer than the isotypic split, so the merge
# decides the answer; the torus splits follow from the weights +-e_i+-e_j+-e_k
# and +-e_i of the module
_MERGE_ROWS = [
    (sp3.SubgroupRow("A21", _unit_rows(21), (8, 6)), 10),
    (sp3.SubgroupRow("A19,A20,A21", _unit_rows(19, 20, 21), (8, 6)), 8),
    (sp3.SubgroupRow("A10,A21", _unit_rows(10, 21), (4, 4, 2, 2, 2)), 8),
    (sp3.SubgroupRow("torus A9,A10,A21", _unit_rows(9, 10, 21), (2,) * 7), 8),
]


@pytest.mark.parametrize("row,eigenblocks", _MERGE_ROWS, ids=[r.name for r, _ in _MERGE_ROWS])
def test_subgroup_decompose_merges_eigenblocks(row, eigenblocks, monkeypatch):
    counts = []

    def counting(*args, **kwargs):
        parts = eig_selfadjoint(*args, **kwargs)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(reps, "eig_selfadjoint", counting)
    assert reps.subgroup_decompose(row) == tuple(sorted(row.expected_blocks))
    assert counts == [eigenblocks]


def test_subgroup_decompose_rejects_unclosed_generators():
    with pytest.raises(NotClosed):
        reps.subgroup_decompose(sp3.SubgroupRow("A1,A3", _unit_rows(1, 3), (14,)))


def test_invariant_cubics_properties():
    cubics = reps.invariant_cubics()
    assert len(cubics) >= 1
    for U in cubics:
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.max(np.abs(U - np.transpose(U, perm))) < 1e-12
        assert np.linalg.norm(np.einsum("iik->k", U)) < 1e-9
        assert abs(np.linalg.norm(U.ravel()) - 1.0) < 1e-10


def test_trace_cubic_lies_in_invariant_space():
    cubics = reps.invariant_cubics()
    t = trace_cubic()
    G = np.array([U.ravel() for U in cubics])
    resid = t.ravel() - G.T @ (G @ t.ravel())
    assert np.linalg.norm(resid) < 1e-9 * np.linalg.norm(t)


def _sym3_reference_casimir(gens):
    """Sum of the squared derivative actions on the monomial basis, each
    built tensor by tensor."""
    n = gens.shape[1]
    multis, weights = _sym3_basis(n)
    I, J, K = np.array(multis).T
    batch = _sym3_tensors(n)
    D = [(_sym3_action(A, batch)[:, I, J, K] * weights[None, :]).T for A in gens]
    return sum(d @ d for d in D)


_entry = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _skew_stacks(draw):
    """(k, n, n) stacks of skew matrices, n in 2..6, k in 1..3."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    X = np.array(draw(st.lists(_entry, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)
    return X - np.swapaxes(X, 1, 2)


@settings(max_examples=40, deadline=None)
@given(_skew_stacks())
def test_theta_map_arbitrary_input_matches_loop(gens):
    got = reps.theta_map(gens)
    assert got.shape[1] == len(_triples(gens.shape[-1]))
    assert np.array_equal(got, _theta_map_loop(gens))


@settings(max_examples=40, deadline=None)
@given(_skew_stacks())
def test_sym3_casimir_matches_squared_actions(gens):
    C, S = reps.sym3_casimir(gens)
    assert np.allclose(S.T @ S, np.eye(S.shape[1]), rtol=0, atol=1e-14)
    ref = _sym3_reference_casimir(gens)
    assert np.max(np.abs(C - ref)) <= 1e-12 * max(1.0, np.linalg.norm(C))


@pytest.mark.parametrize("n", range(2, 7))
def test_sym3_casimir_kernel_of_zero_stack_is_everything(n):
    C, _ = reps.sym3_casimir(np.zeros((1, n, n)))
    assert nullspace(C).shape[1] == comb(n + 2, 3)


def test_sym3_casimir_so3_has_no_invariant_cubic():
    E = np.zeros((3, 3, 3))
    for g, (a, b) in zip(E, ((0, 1), (0, 2), (1, 2))):
        g[a, b], g[b, a] = 1.0, -1.0
    C, _ = reps.sym3_casimir(E)
    assert nullspace(C).shape[1] == 0


def test_invariant_cubic_is_the_trace_cubic():
    (U,) = reps.invariant_cubics()
    t = trace_cubic()
    t /= np.linalg.norm(t)
    assert min(np.max(np.abs(U - t)), np.max(np.abs(U + t))) <= 1e-12


def test_metric_reconstruction():
    U, scale = metric_reconstructor()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(14)
        v /= np.linalg.norm(v)
        M = np.einsum("ijk,k->ij", U, v)
        worst = max(worst, float(np.linalg.norm(M @ M @ v - v)))
    assert worst <= 1e-8
    # trace-freeness of the scaled tensor
    assert np.linalg.norm(np.einsum("iik->k", U)) <= 1e-9
