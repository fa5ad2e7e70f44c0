from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from conftest import assert_point_checks, densify, dirac_reference, pipeline, sp3_rotation
from hypothesis import given, settings
from hypothesis import strategies as st

from gstruct import sp3, spin, spaces
from gstruct import connections as con
from gstruct.errors import (BadDimension, NoInvariantSpinors, NotAntisymmetric, StructureViolation,
                            TorsionNotParallel)
from gstruct.linalg import DEFAULT_TOL, nullspace, rank


# The kron construction of the gammas, which the mask/phase tables of
# ``spin._product_table`` replaced, kept as their reference.
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@lru_cache(maxsize=8)
def _kron_clifford(n):
    m = n // 2
    gammas = []
    for k in range(m):
        for sigma in (1j * _SX, 1j * _SY):
            factors = [_SZ] * k + [sigma] + [np.eye(2, dtype=complex)] * (m - k - 1)
            g = factors[0]
            for f in factors[1:]:
                g = np.kron(g, f)
            gammas.append(g)
    return np.array(gammas)


def _kron_table(n, k):
    """The product table read back from the kron gammas: one column and one
    value per row of each product over increasing k-tuples."""
    g = _kron_clifford(n)
    gcols = np.argmax(g != 0, axis=2)
    gvals = np.take_along_axis(g, gcols[..., None], axis=2)[..., 0]
    combos = np.array(list(combinations(range(n), k)))
    cols = np.broadcast_to(np.arange(g.shape[1]), (len(combos), g.shape[1]))
    vals = np.ones(cols.shape, dtype=complex)
    for b in combos.T:
        vals = vals * gvals[b[:, None], cols]
        cols = gcols[b[:, None], cols]
    return combos, cols, vals


def _scattered(cols, vals):
    """The bincount of a table into its dense (terms, 2^m, 2^m) matrices."""
    d = cols.shape[1]
    idx = (np.arange(len(cols))[:, None] * d * d + np.arange(d) * d + cols).ravel()
    return spin._scatter(idx, vals.ravel(), len(cols) * d * d).reshape(-1, d, d)


def _gammas(n):
    """The gammas of Cl(n), scattered from the src table."""
    return _scattered(*spin._product_table(n, 1)[1:])


def _form_action(t, n):
    """sum over increasing tuples p of t[p] e_p, for a k-index array t over
    R^n: the bincount of its ``spin._form_entries``."""
    _, cols, w = spin._form_entries(np.asarray(t)[None], n)
    dim = cols.shape[1]
    return spin._scatter((np.arange(dim) * dim + cols).ravel(), w.ravel(), dim * dim).reshape(dim, dim)


def _lift(A):
    """The spin lift (1/4) sum_ij A_ij e_j e_i of an antisymmetric n x n A."""
    return _form_action(-0.5 * A, len(A))


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_product_table_matches_kron_reference(n):
    for k in (1, 2, 3):
        got, ref = spin._product_table(n, k), _kron_table(n, k)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref)), k
        # the two differ only in the sign of some zero real or imaginary
        # parts, which a bincount, the one way the tables are summed, drops
        if n == 14:
            assert _scattered(*got[1:]).tobytes() == _scattered(*ref[1:]).tobytes()


def test_clifford_small_and_large():
    cl2 = _gammas(2)
    assert cl2.shape[1] == 2
    for g in cl2:
        assert np.max(np.abs(g @ g + np.eye(2))) < 1e-15
    cl14 = _gammas(14)
    assert cl14.shape[1] == 128
    rng = np.random.default_rng(0)
    for _ in range(12):
        i, j = rng.integers(0, 14, 2)
        anti = cl14[i] @ cl14[j] + cl14[j] @ cl14[i]
        target = -2.0 * np.eye(128) if i == j else np.zeros((128, 128))
        assert np.max(np.abs(anti - target)) <= 1e-12
    for g in cl14[:3]:
        assert np.max(np.abs(g.conj().T @ g - np.eye(128))) < 1e-12


def test_clifford_bad_dimension():
    for n in (1, 3, 16, 0):
        with pytest.raises(BadDimension):
            spin._product_table(n, 1)
        with pytest.raises(BadDimension):
            spin._form_entries(np.zeros((1, n, n)), n)


def test_clifford_irreducible_small():
    cl = _gammas(4)
    rows = []
    for g in cl:
        rows.append(np.kron(np.eye(4), g) - np.kron(g.T, np.eye(4)))
    ker = nullspace(np.vstack(rows))
    assert ker.shape[1] == 1  # commutant is scalar


def test_spin_lift_properties(sp3_data):
    cl = _gammas(14)
    assert np.max(np.abs(_lift(np.zeros((14, 14))))) == 0.0
    with pytest.raises(NotAntisymmetric, match="antisymmetric generators"):
        spin._lift_entries(np.eye(14)[None], DEFAULT_TOL)
    # [lift(A), c(v)] = c(Av)
    A = sp3_data.rho[8]
    lam = _lift(A)
    v = np.zeros(14)
    v[4] = 1.0  # e5
    cv = cl[4]
    Av = A @ v
    cAv = sum(Av[i] * cl[i] for i in range(14))
    assert np.max(np.abs(lam @ cv - cv @ lam - cAv)) < 1e-12
    # homomorphism on random antisymmetric pairs
    rng = np.random.default_rng(4)
    for _ in range(3):
        X = rng.standard_normal((14, 14))
        X = X - X.T
        Y = rng.standard_normal((14, 14))
        Y = Y - Y.T
        lhs = _lift(X @ Y - Y @ X)
        lx, ly = _lift(X), _lift(Y)
        assert np.max(np.abs(lhs - (lx @ ly - ly @ lx))) < 1e-10


def test_invariant_spinor_dimensions():
    for sid in ["M1", "M2", "M3", "M4"]:
        assert_point_checks(sid, [(1.1, 0.8, 1.4)], "invariant spinors")


def test_no_invariant_spinors_error():
    ctx = pipeline("M3", alpha=1.0, beta=1.0, gamma=1.0)
    with pytest.raises(NoInvariantSpinors):
        spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)


def test_m2_dirac_closed_form_three_draws():
    points = [(1.0, b, 1.7) for b in (1.0, 2.3, 0.41)]
    assert_point_checks("M2", points, "Dirac spectrum")
    for point in points:
        ev = pipeline("M2", *point)["analysis"].dirac.eigenvalues
        assert int(np.sum(ev > 0)) == 8 and int(np.sum(ev < 0)) == 8


def test_m2_mu_and_torsion_norm():
    for b in (1.0, 0.6, 2.4):
        ctx = pipeline("M2", alpha=1.0, beta=b, gamma=1.1)
        rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - 2 * np.sqrt(4 + b)) <= 1e-9
        assert abs(rep.torsion_norm2 - (8 + 4 * b)) <= 1e-9


def test_torsion_norm_convention():
    ctx = pipeline("M2", alpha=1.0, beta=1.7, gamma=1.0)
    T = ctx["conn"].torsion
    full_sum = float(np.sum(T.t3**2))
    assert abs(full_sum - 6 * T.norm2_increasing) < 1e-10


def test_m4_dirac_formula_three_draws():
    fx = spaces.fixtures("M4")
    for a, b, g in [(1.0, 1.0, 1.0), (1.3, 0.9, 1.1), (0.8, 1.7, 2.2)]:
        ctx = pipeline("M4", alpha=a, beta=b, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
        expect = fx.extras["dirac"](ctx["params"])
        assert np.max(np.abs(np.abs(rep.eigenvalues) - expect)) <= 1e-9
    ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
    assert np.max(np.abs(np.abs(rep.eigenvalues) - 0.5 * np.sqrt(30))) <= 1e-12


def test_m4_mu_and_norm_alpha_beta_one():
    for g in (1.0, 0.5, 2.0):
        ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - np.sqrt(25 + 5 * g)) <= 1e-9
        assert abs(rep.torsion_norm2 - (5 + 5 * g)) <= 1e-9


def _estimates(sid, a, b, g):
    return pipeline(sid, alpha=a, beta=b, gamma=g)["analysis"].estimates


def test_friedrich_equality_and_parallel_spinors():
    an = pipeline("M2", alpha=1.0, beta=1.0, gamma=1.4)["analysis"]
    assert an.estimates.friedrich_equality
    assert abs(min(an.dirac.eigenvalues**2) - an.estimates.friedrich_rhs) <= 1e-9
    assert an.dirac.parallel_spinor_dim == 16
    an4 = pipeline("M4", alpha=1.0, beta=1.0, gamma=1.0)["analysis"]
    assert an4.estimates.friedrich_equality
    assert an4.dirac.parallel_spinor_dim == 4
    assert abs(an4.estimates.friedrich_rhs - 7.5) < 1e-12


def test_twistor_strict_everywhere_sampled():
    for b in (0.5, 1.0, 1.8):
        assert _estimates("M2", 1.0, b, 1.2).twistor_strict
    for g in (0.6, 1.0, 1.9):
        assert _estimates("M4", 1.0, 1.0, g).twistor_strict


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e12])
def test_estimate_flags_are_scale_free(scale):
    # lambda^2 and both right-hand sides scale like 1/s under a uniform scaling
    want = {0.5: (False, True), 1.0: (True, True), 2.0: (False, True)}
    for b, flags in want.items():
        est = _estimates("M2", scale, b * scale, scale)
        assert (est.friedrich_equality, est.twistor_strict) == flags, b


def test_estimate_crossovers_bracketing():
    b0 = 166.0 / 275.0
    d_lo = _estimates("M2", 1.0, b0 - 1e-6, 1.2)
    d_hi = _estimates("M2", 1.0, b0 + 1e-6, 1.2)
    assert d_lo.twistor_rhs - d_lo.friedrich_rhs > 0
    assert d_hi.twistor_rhs - d_hi.friedrich_rhs < 0
    g0 = 189.0 / 275.0
    d_lo = _estimates("M4", 1.0, 1.0, g0 - 1e-6)
    d_hi = _estimates("M4", 1.0, 1.0, g0 + 1e-6)
    assert d_lo.twistor_rhs - d_lo.friedrich_rhs > 0
    assert d_hi.twistor_rhs - d_hi.friedrich_rhs < 0


def test_estimates_require_parallel_torsion():
    ctx = pipeline("M4", alpha=1.0, beta=1.5, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
    with pytest.raises(TorsionNotParallel):
        spin.eigenvalue_estimates(rep, 10.0, con.torsion_is_parallel(ctx["conn"]))


def test_dirac_selfadjoint_and_symmetric_spectrum_m1():
    # no closed form exists for the 48-dimensional case; assert structure only
    ctx = pipeline("M1", alpha=1.0, beta=1.3, gamma=0.7)
    rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
    assert rep.eigenvalues.shape == (48,)
    ev = np.sort(rep.eigenvalues)
    # D_r is odd for the chirality grading, so its spectrum is +-sigma exactly
    assert np.array_equal(ev, -ev[::-1])


def test_parallel_spinors_are_torsion_eigenvectors():
    ctx = pipeline("M2", alpha=1.0, beta=1.0, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"], ctx["analysis"].spinors)
    assert rep.parallel_spinor_dim == 16
    # with a vanishing connection map the Dirac matrix is the torsion term
    assert set(np.round(np.abs(rep.eigenvalues), 9)) == {round(np.sqrt(5.0), 9)}
    assert np.max(np.abs(np.abs(rep.torsion_op_eigenvalues) - 2 * np.sqrt(5.0))) < 1e-9


# Reference implementations: the dense pair-product loops that the scattered
# monomial tables replaced (the pair products are kept per dimension).
@lru_cache(maxsize=1)
def _loop_pair_products(n):
    g = _kron_clifford(n)
    return {(i, j): g[i] @ g[j] for i in range(n) for j in range(i + 1, n)}


def _loop_spin_lift(cl, A):
    out = np.zeros((cl.shape[1], cl.shape[1]), dtype=complex)
    for (i, j), G in _loop_pair_products(len(cl)).items():
        if A[i, j] != 0.0:
            out -= 0.5 * A[i, j] * G
    return out


def _loop_torsion_clifford(cl, t3):
    pp = _loop_pair_products(len(cl))
    out = np.zeros((cl.shape[1], cl.shape[1]), dtype=complex)
    for i in range(len(cl)):
        for j in range(i + 1, len(cl)):
            w = np.zeros((cl.shape[1], cl.shape[1]), dtype=complex)
            for k in range(j + 1, len(cl)):
                if t3[i, j, k] != 0.0:
                    w += t3[i, j, k] * cl[k]
            out += pp[(i, j)] @ w
    return out


def _random_form(rng, n, degree, density):
    """Antisymmetric random array; a share 1 - density of its increasing entries is zero."""
    from itertools import permutations

    t = np.zeros((n,) * degree)
    for idx in combinations(range(n), degree):
        if rng.random() < density:
            c = rng.standard_normal()
            for p in permutations(range(degree)):
                sign = np.linalg.det(np.eye(degree)[list(p)])
                t[tuple(idx[s] for s in p)] = sign * c
    return t


def test_spin_lift_matches_loop_reference():
    cl = _kron_clifford(14)
    rng = np.random.default_rng(21)
    for density in (1.0, 0.3, 0.05):
        A = _random_form(rng, 14, 2, density)
        ref = _loop_spin_lift(cl, A)
        assert np.max(np.abs(_lift(A) - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_lift_entries_match_loop_reference():
    # rows 128 g .. 128 g + 127 of the entry-built stack are the lift of iso[g], bit for bit
    cl = _kron_clifford(14)
    for sid in ("M2", "M4"):
        iso = pipeline(sid, alpha=1.2, beta=0.8, gamma=1.5)["space"].iso
        L = densify(*spin._lift_entries(iso, DEFAULT_TOL))
        assert L.shape == (128 * len(iso), 128)
        assert L.tobytes() == np.vstack([_lift(R) for R in iso]).tobytes()
        for R, block in zip(iso, L.reshape(-1, 128, 128)):
            ref = _loop_spin_lift(cl, R)
            assert np.max(np.abs(block - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
    with pytest.raises(NotAntisymmetric, match="antisymmetric generators"):
        spin._lift_entries(np.stack([iso[0], np.eye(14)]), DEFAULT_TOL)


def _torsion_clifford(t3):
    """The full 128 x 128 Clifford action of a 3-form over R^14 (the
    increasing-triple sum): the reference for the restricted T_r."""
    return _form_action(t3, 14)


def test_torsion_clifford_matches_loop_reference():
    cl = _kron_clifford(14)
    rng = np.random.default_rng(22)
    for density in (1.0, 0.2):
        t3 = _random_form(rng, 14, 3, density)
        ref = _loop_torsion_clifford(cl, t3)
        assert np.max(np.abs(_torsion_clifford(t3) - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def _close(got, ref):
    return np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def _odd_rows(n=128):
    """True on the odd rows of the module, popcount(r) mod 2 = 1, by bit count."""
    return np.array([bin(r).count("1") % 2 == 1 for r in range(n)])


def _graded_basis(rng, even, odd, pure=None):
    """Orthonormal columns of one chirality each: the pure columns of ``pure``
    followed by ``even`` random complex vectors on the even rows and ``odd``
    on the odd rows, each chirality orthonormalised on its own rows."""
    pure = np.zeros((128, 0), dtype=complex) if pure is None else pure
    rows = _odd_rows()
    parts = []
    for c, extra in ((False, even), (True, odd)):
        mine = pure[:, np.any(pure[rows == c] != 0, axis=0)]
        q = np.linalg.qr(np.hstack([mine[rows == c], rng.standard_normal((64, extra))
                                    + 1j * rng.standard_normal((64, extra))]))[0]
        part = np.zeros((128, q.shape[1]), dtype=complex)
        part[rows == c] = q
        parts.append(part)
    return np.hstack(parts)


def _chiral_blocks(sub, R):
    """The blocks (B+^H M B-, B-^H M B+) of R = B^H M B in the padded layout
    of ``spin._restricted``, and the largest entry of its two same-chirality
    blocks, which is 0 for an odd M."""
    _, order, _, kp = sub.chirality
    R = R[np.ix_(order, order)]
    km = sub.dim - kp
    out = np.zeros((2,) + sub.support[0].shape[2:] * 2, dtype=complex)
    out[0, :kp, :km], out[1, :km, :kp] = R[:kp, kp:], R[kp:, :kp]
    return out, max(np.max(np.abs(R[:kp, :kp]), initial=0.0), np.max(np.abs(R[kp:, kp:]), initial=0.0))


def test_restricted_dirac_matrix_matches_loop_reference():
    # D_r and T_r are formed as their off-diagonal chiral blocks on the rows
    # where the invariant-spinor basis is nonzero (48, 16 and 16 of 128 here,
    # half of each chirality); the reference projects the full loop-built
    # matrices, whose same-chirality blocks are exactly zero
    cl = _kron_clifford(14)
    for sid, support in (("M1", 48), ("M2", 16), ("M4", 16)):
        ctx = pipeline(sid, alpha=1.3, beta=0.9, gamma=1.1)
        lam, T = ctx["conn"].stack, ctx["conn"].torsion
        T_ref = _loop_torsion_clifford(cl, T.t3)
        D_ref = sum(cl[i] @ _loop_spin_lift(cl, lam[i]) for i in range(14)) + spin.DIRAC_TORSION_FACTOR * T_ref
        sub = spin.invariant_spinors(ctx["space"])
        assert sub.support[0].shape == (2, support // 2, sub.dim // 2)
        _, Tr, Dr = spin._dirac_terms(lam, ctx["conn"].lambda_coeffs, T.t3, sub, DEFAULT_TOL)
        B = sub.basis
        for got, ref in ((Dr, D_ref), (Tr, T_ref)):
            blocks, same = _chiral_blocks(sub, B.conj().T @ ref @ B)
            assert same == 0.0
            assert _close(got, blocks)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 4, 48]))
def test_dirac_terms_match_loop_reference(seed, k):
    # sum_i e_i lift(a[i]) = c(c3) + c(v) for any antisymmetric stack a, so
    # the full D is checked on a general one, through the identity basis
    # (S = all rows); D reads only a and the lifts only coeffs, which stand
    # for the stack coeffs . rho; a graded random basis has k columns, of
    # each chirality at random
    cl = _kron_clifford(14)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((14, 14, 14))
    a = a - a.transpose(0, 2, 1)
    coeffs = rng.standard_normal((14, 21))
    coeffs[:, rng.permutation(21)[:rng.integers(0, 21)]] = 0.0
    t3 = _random_form(rng, 14, 3, 0.5)
    T_ref = _loop_torsion_clifford(cl, t3)
    D_ref = sum(g @ _loop_spin_lift(cl, A) for g, A in zip(cl, a)) + spin.DIRAC_TORSION_FACTOR * T_ref
    whole = spin.SpinorSubspace(np.eye(128, dtype=complex))
    _, T, D = spin._dirac_terms(a, coeffs, t3, whole, DEFAULT_TOL)
    for got, ref in ((D, D_ref), (T, T_ref)):
        blocks, same = _chiral_blocks(whole, ref)
        assert same == 0.0
        assert np.max(np.abs(got - blocks)) <= 1e-13 * np.max(np.abs(ref))

    even = rng.integers(0, k + 1)
    basis = _graded_basis(rng, even, k - even)
    sub = spin.SpinorSubspace(basis)
    stack, Tr, Dr = spin._dirac_terms(a, coeffs, t3, sub, DEFAULT_TOL)
    assert _close(Dr, _chiral_blocks(sub, basis.conj().T @ D_ref @ basis)[0])
    assert _close(Tr, _chiral_blocks(sub, basis.conj().T @ T_ref @ basis)[0])
    lifts_ref = np.array([_loop_spin_lift(cl, A) @ basis for A in np.tensordot(coeffs, sp3.load().rho, 1)])
    assert k - rank(stack) == nullspace(lifts_ref.reshape(-1, k)).shape[1]


# ROADMAP item 4's anisotropic probe within |e| <= 7: one of alpha, beta,
# gamma scaled by 10^e
@settings(max_examples=40, deadline=None)
@given(sid=st.sampled_from(["M1", "M2", "M4"]), point=st.tuples(*[st.floats(0.6, 1.8)] * 3),
       unequal=st.booleans(), axis=st.integers(0, 2), e=st.integers(-7, 7), seed=st.integers(0, 2**32 - 1))
def test_chiral_route_matches_full_matrix_reference(sid, point, unequal, axis, e, seed):
    # off equal alphas M1 and M2 have no characteristic connection; there a
    # random member of the family, whose D_r is far from self-adjoint, is
    # checked through its blocks, its refusal and its parallel spinors; the
    # member is scaled with the brackets, which set the size of its torsion,
    # so its skew part stays comparable to D_r at every metric
    rng = np.random.default_rng(seed)
    point = tuple(c * 10.0**e if i == axis else c for i, c in enumerate(point))
    alphas = tuple(rng.uniform(0.6, 1.8, {"M1": 7, "M2": 5}[sid])) if unequal and sid != "M4" else ()
    ctx = pipeline(sid, *point, alphas=alphas)
    conn = ctx["conn"]
    if conn is None:
        scale = np.max(np.abs(ctx["space"].pm))
        conn = con.InvariantConnection(ctx["space"], np.tensordot(scale * rng.standard_normal(len(ctx["family"])),
                                                                  ctx["family"], 1))
    sub = ctx["analysis"].spinors
    Dr, Tr, eigs, mu, parallel = dirac_reference(conn.stack, conn.lambda_coeffs, conn.torsion.t3, sub)
    stack, T, D = spin._dirac_terms(conn.stack, conn.lambda_coeffs, conn.torsion.t3, sub, DEFAULT_TOL)
    assert sub.dim - rank(stack) == parallel
    for got, ref in ((D, Dr), (T, Tr)):
        blocks, same = _chiral_blocks(sub, ref)
        assert same == 0.0
        assert np.max(np.abs(got - blocks)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref)) * sub.dim
    if ctx["conn"] is None:
        with pytest.raises(StructureViolation, match="not self-adjoint"):
            spin.dirac_on_invariants(conn, sub)
        return
    rep = spin.dirac_on_invariants(conn, sub)
    assert rep.parallel_spinor_dim == parallel
    for got, ref, M in ((rep.eigenvalues, eigs, Dr), (rep.torsion_op_eigenvalues, mu, Tr)):
        bound = 64 * np.finfo(float).eps * np.max(np.abs(M)) * sub.dim
        assert np.max(np.abs(got - ref)) <= bound
        assert np.array_equal(got, -got[::-1])


@pytest.mark.parametrize("sid, halves", [("M1", (24, 24)), ("M2", (8, 8)), ("M3", (0, 0)), ("M4", (2, 2)),
                                         ("rotated M1", (24, 24)), ("rotated M4", (2, 2))])
def test_invariant_spinors_are_chirally_pure(sid, halves):
    # nullspace_entries solves each connected block of the lift entries, and
    # the lifts are even, so no block joins the two chiralities; on a frame
    # rotated in Sp(3) the spinor system is the two half-spin blocks
    name = spaces.canonical_id(sid.split()[-1])
    ctx = pipeline(name, 1.1, 0.8, 1.4)
    space = ctx["space"]
    if sid.startswith("rotated"):
        K, H, _ = spaces.frames(name, ctx["params"])
        space = spaces.assemble(name, np.tensordot(sp3_rotation(3).T, K, axes=1), H)
    sub = spin.invariant_spinors(space)
    rows, order, mp, kp = sub.chirality
    assert (kp, sub.dim - kp) == halves
    odd = _odd_rows()
    assert np.array_equal(odd[rows], np.arange(rows.size) >= mp)
    cols = sub.basis[:, order] != 0
    assert not np.any(cols[odd, :kp]) and not np.any(cols[~odd, kp:])
    assert not any(a.flags.writeable for a in (rows, order))


@pytest.mark.parametrize("even, odd", [(5, 2), (2, 5), (3, 0)])
def test_unequal_halves_give_exact_zeros(even, odd):
    # D_r = [[0, A], [A^H, 0]] with A of shape k+ x k- has |k+ - k-| zero
    # eigenvalues, and both spectra are exactly +-sigma around them
    ctx = pipeline("M1", alpha=1.0, beta=1.3, gamma=0.7)
    conn = ctx["conn"]
    sub = spin.SpinorSubspace(_graded_basis(np.random.default_rng(even * 10 + odd), even, odd))
    rep = spin.dirac_on_invariants(conn, sub)
    Dr, Tr, eigs, mu, parallel = dirac_reference(conn.stack, conn.lambda_coeffs, conn.torsion.t3, sub)
    for got, ref, M in ((rep.eigenvalues, eigs, Dr), (rep.torsion_op_eigenvalues, mu, Tr)):
        assert got.shape == (even + odd,)
        assert np.count_nonzero(got == 0.0) == abs(even - odd)
        assert np.array_equal(got, -got[::-1])
        assert np.max(np.abs(got - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(M)) * sub.dim
    assert rep.parallel_spinor_dim == parallel


def test_mixed_chirality_basis_is_refused():
    # rows 0 and 1 have popcounts 0 and 1: a column on both mixes the halves
    basis = np.zeros((128, 2), dtype=complex)
    basis[3, 0] = 1.0
    basis[[0, 1], 1] = np.sqrt(0.5)
    with pytest.raises(StructureViolation, match="column 1 mixes both chiralities"):
        spin.dirac_on_invariants(pipeline("M2")["conn"], spin.SpinorSubspace(basis))


# Reference for the parallel-spinor count: all 14 lifts coeffs . lift(rho) B,
# stacked to (14 m, k), and their joint kernel, as the count was made before
# it went over the row space of coeffs.
def _full_stack_count(coeffs, rho_b):
    lifts = (coeffs @ rho_b.reshape(21, -1)).reshape((14,) + rho_b.shape[1:])
    return nullspace(lifts.reshape(-1, rho_b.shape[2])).shape[1]


def _row_space_count(coeffs, sub):
    zero = np.zeros((14, 14, 14))
    stack, _, _ = spin._dirac_terms(zero, coeffs, zero, sub, DEFAULT_TOL)
    return sub.dim - rank(stack)


@lru_cache(maxsize=None)
def _isotropy_rows(sid):
    """Orthonormal rows spanning the rho coordinates of the isotropy of sid."""
    iso = pipeline(sid)["space"].iso
    x = np.linalg.lstsq(sp3.load().rho.reshape(21, -1).T, iso.reshape(len(iso), -1).T, rcond=None)[0]
    return np.linalg.qr(x)[0].T


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sid=st.sampled_from(["M1", "M2", "M4"]),
       r=st.sampled_from([0, 1, 2, 9, 14]), in_isotropy=st.booleans(), round_off=st.booleans())
def test_row_space_count_matches_full_stack(seed, sid, r, in_isotropy, round_off):
    # coeffs of rank r (at most the isotropy's dimension when its rows lie
    # in the isotropy), some rows exactly zero, optionally plus a full-rank
    # part at round-off size; the graded basis spans the first j invariant
    # spinors, which the isotropy lifts kill, and three random spinors
    rng = np.random.default_rng(seed)
    inv = spin.invariant_spinors(pipeline(sid)["space"]).basis
    j = rng.integers(0, inv.shape[1] + 1)
    even = rng.integers(0, 4)
    basis = _graded_basis(rng, even, 3 - even, inv[:, :j])
    rows = _isotropy_rows(sid) if in_isotropy else np.eye(21)
    left = rng.standard_normal((14, r))
    left[rng.permutation(14)[:rng.integers(0, 15 - r)]] = 0.0
    coeffs = left @ rng.standard_normal((r, len(rows))) @ rows
    if round_off:
        coeffs = coeffs + 1e-17 * np.abs(coeffs).max(initial=0.0) * rng.standard_normal((14, 21))
    sub = spin.SpinorSubspace(basis)
    count = _row_space_count(coeffs, sub)
    assert count == _full_stack_count(coeffs, sub.lifted_rho)
    if r == 0:
        assert count == basis.shape[1]
    elif in_isotropy:
        assert count >= j


# ROADMAP item 1's probe points: M1 with alpha, M2 and M4 with gamma far
# from the other coefficients, at two base points each
_ANISOTROPIC = [(sid, tuple(c * f if i == axis else c for i, c in enumerate(base)))
                for sid, axis, e in (("M1", 0, 5), ("M2", 2, 7), ("M4", 2, 7))
                for base in ((1, 1.3, 0.8), (1, 1, 1.3)) for f in (10.0**e, 10.0**-e)]


@pytest.mark.parametrize("sid, point", _ANISOTROPIC)
def test_row_space_count_at_anisotropic_points(sid, point):
    ctx = pipeline(sid, *point)
    sub = spin.invariant_spinors(ctx["space"])
    assert ctx["analysis"].dirac.parallel_spinor_dim == _full_stack_count(ctx["conn"].lambda_coeffs, sub.lifted_rho)


def test_lifted_rho_is_shared_with_the_spinor_subspace():
    # the builds of a catalog space share their invariant spinors, so
    # lift(rho) B is formed once per space and process
    m4 = [spin.invariant_spinors(spaces.build("M4", spaces.MetricParams(alpha=a, beta=1.3))) for a in (0.9, 1.4)]
    assert m4[0].lifted_rho is m4[1].lifted_rho
    assert m4[0].lifted_rho.shape == (21, 128, 4) and not m4[0].lifted_rho.flags.writeable
    m1 = [spin.invariant_spinors(spaces.build("M1", p)) for p in (
        spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4),
        spaces.MetricParams(alpha=1.1, alphas=(0.9, 1.1, 1.1, 1.3, 1.1, 1.1, 1.1), beta=0.8, gamma=1.4))]
    assert m1[0].lifted_rho is m1[1].lifted_rho
    assert m1[0].lifted_rho.shape == (21, 128, 48) and not m1[0].lifted_rho.flags.writeable


@pytest.mark.parametrize("sid", ["M1", "M2", "M4"])
def test_lifted_rho_matches_dense_reference(sid):
    # lift(rho)[:, S] B[S] from the support's 2-form entries against the
    # dense lifts applied to all 128 rows of B
    sub = spin.invariant_spinors(pipeline(sid)["space"])
    ref = np.array([_lift(R) for R in sp3.load().rho]) @ sub.basis
    assert _close(sub.lifted_rho, ref)


def test_clifford_shape_mismatch_rejected():
    # the module is read from n: a 2-form over R^12 acts on the Cl(12)
    # module, and a size with no Clifford module here is rejected
    assert _lift(np.zeros((12, 12))).shape == (64, 64)
    for n in (13, 16):
        with pytest.raises(BadDimension):
            spin._form_entries(np.zeros((1, n, n)), n)
    with pytest.raises(BadDimension):
        spin._form_entries(np.zeros((1, 12, 12, 12)), 14)
