from functools import lru_cache

import numpy as np
import pytest
from conftest import assert_point_checks, densify, pipeline
from hypothesis import given, settings
from hypothesis import strategies as st

from gstruct import sp3, spin, spaces
from gstruct import connections as con
from gstruct.errors import BadDimension, NoInvariantSpinors, NotAntisymmetric, TorsionNotParallel
from gstruct.linalg import DEFAULT_TOL, nullspace


def test_clifford_small_and_large():
    cl2 = spin.build_clifford(2)
    assert cl2.shape[1] == 2
    for g in cl2:
        assert np.max(np.abs(g @ g + np.eye(2))) < 1e-15
    cl14 = spin.build_clifford(14)
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
            spin.build_clifford(n)


def test_clifford_irreducible_small():
    cl = spin.build_clifford(4)
    rows = []
    for g in cl:
        rows.append(np.kron(np.eye(4), g) - np.kron(g.T, np.eye(4)))
    ker = nullspace(np.vstack(rows))
    assert ker.shape[1] == 1  # commutant is scalar


def test_spin_lift_properties(sp3_data):
    cl = spin.build_clifford(14)
    assert np.max(np.abs(spin.spin_lift(np.zeros((14, 14))))) == 0.0
    with pytest.raises(NotAntisymmetric):
        spin.spin_lift(np.eye(14))
    # [lift(A), c(v)] = c(Av)
    A = sp3_data.rho[8]
    lam = spin.spin_lift(A)
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
        lhs = spin.spin_lift(X @ Y - Y @ X)
        lx, ly = spin.spin_lift(X), spin.spin_lift(Y)
        assert np.max(np.abs(lhs - (lx @ ly - ly @ lx))) < 1e-10


def test_invariant_spinor_dimensions():
    for sid in ["M1", "M2", "M3", "M4"]:
        assert_point_checks(sid, [(1.1, 0.8, 1.4)], "invariant spinors")


def test_no_invariant_spinors_error():
    ctx = pipeline("M3", alpha=1.0, beta=1.0, gamma=1.0)
    with pytest.raises(NoInvariantSpinors):
        spin.dirac_on_invariants(ctx["conn"])


def test_m2_dirac_closed_form_three_draws():
    points = [(1.0, b, 1.7) for b in (1.0, 2.3, 0.41)]
    assert_point_checks("M2", points, "Dirac spectrum")
    for point in points:
        ev = pipeline("M2", *point)["analysis"].dirac.eigenvalues
        assert int(np.sum(ev > 0)) == 8 and int(np.sum(ev < 0)) == 8


def test_m2_mu_and_torsion_norm():
    for b in (1.0, 0.6, 2.4):
        ctx = pipeline("M2", alpha=1.0, beta=b, gamma=1.1)
        rep = spin.dirac_on_invariants(ctx["conn"])
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - 2 * np.sqrt(4 + b)) <= 1e-9
        assert abs(rep.torsion_norm2 - (8 + 4 * b)) <= 1e-9


def test_torsion_norm_convention():
    ctx = pipeline("M2", alpha=1.0, beta=1.7, gamma=1.0)
    T = con.torsion(ctx["conn"])
    full_sum = float(np.sum(T.t3**2))
    assert abs(full_sum - 6 * T.norm2_increasing) < 1e-10


def test_m4_dirac_formula_three_draws():
    fx = spaces.fixtures("M4")
    for a, b, g in [(1.0, 1.0, 1.0), (1.3, 0.9, 1.1), (0.8, 1.7, 2.2)]:
        ctx = pipeline("M4", alpha=a, beta=b, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"])
        expect = fx.extras["dirac"](ctx["params"])
        assert np.max(np.abs(np.abs(rep.eigenvalues) - expect)) <= 1e-9
    ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"])
    assert np.max(np.abs(np.abs(rep.eigenvalues) - 0.5 * np.sqrt(30))) <= 1e-12


def test_m4_mu_and_norm_alpha_beta_one():
    for g in (1.0, 0.5, 2.0):
        ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"])
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
    rep = spin.dirac_on_invariants(ctx["conn"])
    with pytest.raises(TorsionNotParallel):
        spin.eigenvalue_estimates(rep, 10.0, con.torsion_is_parallel(ctx["conn"]))


def test_dirac_selfadjoint_and_symmetric_spectrum_m1():
    # no closed form exists for the 48-dimensional case; assert structure only
    ctx = pipeline("M1", alpha=1.0, beta=1.3, gamma=0.7)
    rep = spin.dirac_on_invariants(ctx["conn"])
    assert rep.invariant_dim == 48
    ev = np.sort(rep.eigenvalues)
    assert np.max(np.abs(ev + ev[::-1])) < 1e-9


def test_parallel_spinors_are_torsion_eigenvectors():
    ctx = pipeline("M2", alpha=1.0, beta=1.0, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"])
    assert rep.parallel_spinor_dim == 16
    # with a vanishing connection map the Dirac matrix is the torsion term
    assert set(np.round(np.abs(rep.eigenvalues), 9)) == {round(np.sqrt(5.0), 9)}
    assert np.max(np.abs(np.abs(rep.torsion_op_eigenvalues) - 2 * np.sqrt(5.0))) < 1e-9


# Reference implementations: the dense pair-product loops that the scattered
# monomial tables replaced (the pair products are kept per dimension).
@lru_cache(maxsize=1)
def _loop_pair_products(n):
    g = spin.build_clifford(n)
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
    from itertools import combinations, permutations

    t = np.zeros((n,) * degree)
    for idx in combinations(range(n), degree):
        if rng.random() < density:
            c = rng.standard_normal()
            for p in permutations(range(degree)):
                sign = np.linalg.det(np.eye(degree)[list(p)])
                t[tuple(idx[s] for s in p)] = sign * c
    return t


def test_spin_lift_matches_loop_reference():
    cl = spin.build_clifford(14)
    rng = np.random.default_rng(21)
    for density in (1.0, 0.3, 0.05):
        A = _random_form(rng, 14, 2, density)
        ref = _loop_spin_lift(cl, A)
        assert np.max(np.abs(spin.spin_lift(A) - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_lift_entries_match_loop_reference():
    # rows 128 g .. 128 g + 127 of the entry-built stack are spin_lift(iso[g]), bit for bit
    cl = spin.build_clifford(14)
    for sid in ("M2", "M4"):
        iso = pipeline(sid, alpha=1.2, beta=0.8, gamma=1.5)["space"].iso
        L = densify(*spin._lift_entries(iso, DEFAULT_TOL))
        assert L.shape == (128 * len(iso), 128)
        assert L.tobytes() == np.vstack([spin.spin_lift(R) for R in iso]).tobytes()
        for R, block in zip(iso, L.reshape(-1, 128, 128)):
            ref = _loop_spin_lift(cl, R)
            assert np.max(np.abs(block - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)
    with pytest.raises(NotAntisymmetric):
        spin._lift_entries(np.stack([iso[0], np.eye(14)]), DEFAULT_TOL)


def test_torsion_clifford_matches_loop_reference():
    cl = spin.build_clifford(14)
    rng = np.random.default_rng(22)
    for density in (1.0, 0.2):
        t3 = _random_form(rng, 14, 3, density)
        ref = _loop_torsion_clifford(cl, t3)
        assert np.max(np.abs(spin.torsion_clifford(t3) - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def test_restricted_dirac_matrix_matches_loop_reference():
    cl = spin.build_clifford(14)
    for sid in ("M2", "M4"):
        ctx = pipeline(sid, alpha=1.3, beta=0.9, gamma=1.1)
        lam, T = ctx["conn"].so_matrices(), con.torsion(ctx["conn"])
        D_ref = sum(cl[i] @ _loop_spin_lift(cl, lam[i]) for i in range(14))
        D_ref = D_ref + spin.DIRAC_TORSION_FACTOR * _loop_torsion_clifford(cl, T.t3)
        sub = spin.invariant_spinors(ctx["space"])
        B = sub.basis
        _, _, D = spin._dirac_terms(lam, ctx["conn"].lambda_coeffs, T.t3, sub.lifted_rho)
        ref = B.conj().T @ D_ref @ B
        assert np.max(np.abs(B.conj().T @ D @ B - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 4, 48]))
def test_dirac_terms_match_loop_reference(seed, k):
    # sum_i e_i lift(a[i]) = c(c3) + c(v) for any antisymmetric stack a, so
    # the full D is checked on a general one; D reads only a and the lifts
    # only coeffs, which stand for the stack coeffs . rho
    cl = spin.build_clifford(14)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((14, 14, 14))
    a = a - a.transpose(0, 2, 1)
    coeffs = rng.standard_normal((14, 21))
    t3 = _random_form(rng, 14, 3, 0.5)
    basis = np.linalg.qr(rng.standard_normal((cl.shape[1], k)) + 1j * rng.standard_normal((cl.shape[1], k)))[0]
    lifts_b, t_op, D = spin._dirac_terms(a, coeffs, t3, spin.SpinorSubspace(basis).lifted_rho)

    D_ref = sum(g @ _loop_spin_lift(cl, A) for g, A in zip(cl, a))
    D_ref = D_ref + spin.DIRAC_TORSION_FACTOR * _loop_torsion_clifford(cl, t3)
    assert np.max(np.abs(D - D_ref)) <= 1e-13 * np.max(np.abs(D_ref))
    lifts_ref = np.array([_loop_spin_lift(cl, A) @ basis for A in np.tensordot(coeffs, sp3.load().rho, 1)])
    assert np.max(np.abs(lifts_b - lifts_ref)) <= 1e-13 * np.max(np.abs(lifts_ref))


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


def test_clifford_shape_mismatch_rejected():
    # spin_lift reads n from A: a 12 x 12 matrix lifts to the Cl(12) module,
    # and a size with no Clifford module here is rejected
    assert spin.spin_lift(np.zeros((12, 12))).shape == (64, 64)
    for n in (13, 16):
        with pytest.raises(BadDimension):
            spin.spin_lift(np.zeros((n, n)))
    with pytest.raises(BadDimension):
        spin.torsion_clifford(np.zeros((12, 12, 12)))
