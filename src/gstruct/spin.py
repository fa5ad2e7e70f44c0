"""Clifford algebra up to dimension 14, spin lifts, invariant spinors, the
Dirac operator of the torsion connection on invariant spinors, and the two
eigenvalue estimates.

Conventions: e_i e_j + e_j e_i = -2 delta_ij, gammas unitary (hence
anti-hermitian); a 3-form acts by sum_{i<j<k} T_ijk c(e_i)c(e_j)c(e_k).
That normalization reproduces the closed-form torsion-operator spectrum
of the solvable catalog spaces, and the Dirac operator of the connection
with a third of the characteristic torsion is

    D = sum_i c(e_i) lift(Lambda(e_i)) - (1/2) T_cl .

The torsion coefficient was calibrated once against the first closed-form
Dirac spectrum at two parameter samples and then validated untouched
against the second space's independent formula; see the verification
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from . import sp3
from .connections import InvariantConnection, torsion
from .errors import BadDimension, NoInvariantSpinors, NotAntisymmetric, StructureViolation, TorsionNotParallel
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace, nullspace_entries, read_only
from .spaces import HomogeneousSpaceInstance

# coefficient of the torsion term inside the Dirac operator; the value was
# calibrated against the first space's closed-form spectrum and frozen
DIRAC_TORSION_FACTOR = -0.5

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CliffordAlgebra:
    n: int
    gammas: np.ndarray  # (n, 2^(n/2), 2^(n/2)), read-only: build_clifford shares it

    @property
    def dim(self) -> int:
        return self.gammas.shape[1]


@lru_cache(maxsize=8)
def build_clifford(n: int) -> CliffordAlgebra:
    """Iterated tensor construction; dimension 2^(n/2), e_i^2 = -Id."""
    if n % 2 or not (2 <= n <= 14):
        raise BadDimension(f"need an even dimension between 2 and 14, got {n}")
    m = n // 2
    gammas = []
    for k in range(m):
        for sigma in (1j * _SX, 1j * _SY):
            factors = [_SZ] * k + [sigma] + [np.eye(2, dtype=complex)] * (m - k - 1)
            g = factors[0]
            for f in factors[1:]:
                g = np.kron(g, f)
            gammas.append(g)
    return CliffordAlgebra(n=n, gammas=read_only(np.array(gammas)))


@lru_cache(maxsize=16)
def _product_table(n: int, k: int):
    """The products e_p = e_i1 ... e_ik over increasing tuples p, in
    combinations order.  Each gamma is a Kronecker product of 2x2 factors
    with one nonzero entry per row, so each product is too: returns the
    tuples and the column and value of that entry in every row, the last
    two of shape (C(n, k), 2^(n/2))."""
    g = build_clifford(n).gammas
    gcols = np.argmax(g != 0, axis=2)
    gvals = np.take_along_axis(g, gcols[..., None], axis=2)[..., 0]
    combos = np.array(list(combinations(range(n), k)))
    cols = np.broadcast_to(np.arange(g.shape[1]), (len(combos), g.shape[1]))
    vals = np.ones(cols.shape, dtype=complex)
    for b in combos.T:
        # row r of (P G_b) is vals[r] times row cols[r] of G_b
        vals = vals * gvals[b[:, None], cols]
        cols = gcols[b[:, None], cols]
    return read_only(combos), read_only(cols), read_only(vals)


def _form_action(t: np.ndarray, n: int) -> np.ndarray:
    """sum over increasing tuples p of t[p] e_p, for a k-index array t over
    R^n, scattering the one entry per row of each e_p with t[p] != 0."""
    if t.shape != (n,) * t.ndim:
        raise BadDimension(f"need {t.ndim} indices over R^{n}, got shape {t.shape}")
    combos, cols, vals = _product_table(n, t.ndim)
    coeffs = t[tuple(combos.T)]
    nz = np.flatnonzero(coeffs)
    dim = cols.shape[1]
    idx = (np.arange(dim) * dim + cols[nz]).ravel()
    w = (coeffs[nz, None] * vals[nz]).ravel()
    out = np.bincount(idx, w.real, dim * dim) + 1j * np.bincount(idx, w.imag, dim * dim)
    return out.reshape(dim, dim)


def spin_lift(cl: CliffordAlgebra, A, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Lift of an antisymmetric matrix to the spinor module,
    (1/4) sum_ij A_ij e_j e_i, with the entry order fixed so that both
    [lift(A), c(v)] = c(Av) and lift([A, B]) = [lift(A), lift(B)] hold."""
    A = np.asarray(A)
    _check_antisymmetric(A, tol)
    return _form_action(-0.5 * A, cl.n)


def _check_antisymmetric(A: np.ndarray, tol: ToleranceProfile):
    """Raise NotAntisymmetric unless A, a matrix or a stack of them, is."""
    if np.any(tol.exceeds(np.abs(A + np.swapaxes(A, -1, -2)).max(axis=(-2, -1)), np.abs(A).max(axis=(-2, -1)), 1)):
        raise NotAntisymmetric("spin_lift needs an antisymmetric matrix")


def _lift_entries(iso: np.ndarray, tol: ToleranceProfile):
    """(rows, cols, vals, shape) of the spin lifts of the generators iso[g]
    in rows g*128 + r, read off the one entry per row of each e_i e_j
    (``_product_table(14, 2)``) in the order ``_form_action`` sums them."""
    _check_antisymmetric(iso, tol)
    combos, cols, vals = _product_table(14, 2)
    coeffs = -0.5 * iso[:, combos[:, 0], combos[:, 1]]
    g, p = np.nonzero(coeffs)
    rows = (128 * g[:, None] + np.arange(128)).ravel()
    return rows, cols[p].ravel(), (coeffs[g, p, None] * vals[p]).ravel(), (128 * len(iso), 128)


@lru_cache(maxsize=1)
def _lifted_rho() -> np.ndarray:
    """(21, 128, 128) read-only stack of the spin lifts of the rho(sp3) basis."""
    return read_only(np.array([spin_lift(build_clifford(14), r) for r in sp3.load().rho]))


@dataclass(frozen=True)
class SpinorSubspace:
    basis: np.ndarray  # (2^(n/2), k), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def lifted_rho(self) -> np.ndarray:
        """(21, 2^(n/2), k) read-only: the spin lifts of the rho(sp3) basis
        applied to the basis columns, computed once per subspace."""
        return read_only((_lifted_rho().reshape(-1, self.basis.shape[0]) @ self.basis).reshape(21, -1, self.dim))


def invariant_spinors(space: HomogeneousSpaceInstance, tol: ToleranceProfile = DEFAULT_TOL) -> SpinorSubspace:
    """Joint kernel of the lifted isotropy generators inside the spinor module.

    The lifts of the isotropy generators ``space.iso`` are solved from their
    entries; the subspace depends on the isotropy alone and is shared like
    it (``isotropy_result``)."""
    def solve(owner):
        return SpinorSubspace(basis=read_only(nullspace_entries(*_lift_entries(owner.iso, tol), tol)))

    return space.isotropy_result("spinors", tol, solve)


def torsion_clifford(t3: np.ndarray, n: int = 14) -> np.ndarray:
    """Clifford action of the torsion 3-form (increasing-triple sum)."""
    return _form_action(np.asarray(t3), n)


@dataclass(frozen=True)
class DiracReport:
    invariant_dim: int
    eigenvalues: np.ndarray  # Dirac spectrum on the invariant subspace
    torsion_op_eigenvalues: np.ndarray  # mu spectrum on the subspace
    torsion_norm2: float  # sum over increasing triples of T(K_i,K_j,K_k)^2
    parallel_spinor_dim: int


@dataclass(frozen=True)
class Estimates:
    """Both lower bounds for the squared first Dirac eigenvalue; whether it
    attains the first and strictly exceeds the second."""

    friedrich_rhs: float
    twistor_rhs: float
    friedrich_equality: bool
    twistor_strict: bool


def _dirac_terms(lam: np.ndarray, coeffs: np.ndarray, t3: np.ndarray, rho_b: np.ndarray):
    """(lifts of the Lambda(e_i) applied to a spinor basis, torsion operator
    T_cl, Dirac matrix D) on the full spinor module, for connection matrices
    lam = coeffs . rho and torsion t3, with rho_b the lifts of the rho basis
    applied to that basis (``SpinorSubspace.lifted_rho``).  With
    a[i] = Lambda(e_i), sum_i e_i lift(a[i]) = c(c3) + c(v) for the 3-form
    c3[i, k, l] = -(a[i, k, l] + a[k, l, i] + a[l, i, k]) / 2 and the vector
    v[m] = sum_k a[k, k, m] / 2; the lifts are coeffs . lift(rho)."""
    lifts_b = (coeffs @ rho_b.reshape(21, -1)).reshape((14,) + rho_b.shape[1:])
    c3 = -0.5 * (lam - lam.transpose(1, 0, 2) + lam.transpose(1, 2, 0))
    v = 0.5 * np.trace(lam, axis1=0, axis2=1)
    t_op = torsion_clifford(t3)
    return lifts_b, t_op, _form_action(c3 + DIRAC_TORSION_FACTOR * t3, 14) + _form_action(v, 14)


def dirac_on_invariants(conn: InvariantConnection, tol: ToleranceProfile = DEFAULT_TOL,
                        sub: SpinorSubspace = None) -> DiracReport:
    """Dirac matrix of the connection with torsion T/3 on invariant spinors,
    plus the torsion-operator spectrum and norm used by the estimates, from
    the connection's cached so(14) stack and torsion; ``sub`` is the
    invariant-spinor subspace of ``conn.space`` if already computed."""
    if sub is None:
        sub = invariant_spinors(conn.space, tol)
    if sub.dim == 0:
        raise NoInvariantSpinors(f"{conn.space.space_id} has no invariant spinors")
    T = torsion(conn)
    B = sub.basis
    lifts_b, t_op, D = _dirac_terms(conn.so_matrices(), conn.lambda_coeffs, T.t3, sub.lifted_rho)

    Dr = B.conj().T @ D @ B
    herm = np.max(np.abs(Dr - Dr.conj().T))
    if tol.exceeds(herm, np.max(np.abs(Dr))):
        raise StructureViolation(f"restricted Dirac matrix not self-adjoint ({herm:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (Dr + Dr.conj().T))

    Tr = B.conj().T @ t_op @ B
    mu = np.linalg.eigvalsh(0.5 * (Tr + Tr.conj().T))

    par = nullspace(lifts_b.reshape(-1, sub.dim), tol)

    return DiracReport(
        invariant_dim=sub.dim,
        eigenvalues=eigs,
        torsion_op_eigenvalues=mu,
        torsion_norm2=T.norm2_increasing,
        parallel_spinor_dim=par.shape[1],
    )


def eigenvalue_estimates(report: DiracReport, scal_riem: float, parallel: tuple,
                         tol: ToleranceProfile = DEFAULT_TOL) -> Estimates:
    """The two lower bounds for the squared first Dirac eigenvalue of ``report``.

    Valid for parallel characteristic torsion only: ``parallel`` is the
    (flag, ratio) of ``connections.torsion_is_parallel``, and a false flag
    raises TorsionNotParallel.  mu is the extreme torsion-operator
    eigenvalue on the invariant subspace.
    """
    flag, ratio = parallel
    if not flag:
        raise TorsionNotParallel(f"nabla T / (||pm|| ||T||) = {ratio:.3e}")
    t2 = report.torsion_norm2
    mu2 = float(np.max(np.abs(report.torsion_op_eigenvalues)) ** 2) if report.torsion_op_eigenvalues.size else 0.0
    n = 14.0
    friedrich = 0.25 * scal_riem + t2 / 8.0 - 0.25 * mu2
    twistor = (
        n / (4 * (n - 1)) * scal_riem
        + n * (n - 5) / (8 * (n - 3) ** 2) * t2
        + n * (4 - n) / (4 * (n - 3) ** 2) * mu2
    )
    lam2 = float(np.min(report.eigenvalues**2))
    # every term has the units of lam2, so both flags are scale-free
    scale = max(lam2, abs(scal_riem) / 4, t2 / 8, mu2 / 4)
    return Estimates(friedrich, twistor, not tol.exceeds(abs(lam2 - friedrich), scale, 1),
                     bool(tol.exceeds(lam2 - twistor, scale, 1)))
