"""Clifford algebra up to dimension 14, spin lifts, invariant spinors, the
Dirac operator of the torsion connection on invariant spinors, and the two
eigenvalue estimates.

Conventions: e_i e_j + e_j e_i = -2 delta_ij, gammas unitary (hence
anti-hermitian); a 3-form acts by sum_{i<j<k} T_ijk c(e_i)c(e_j)c(e_k).
That normalization reproduces the closed-form torsion-operator spectrum
of the solvable catalog spaces, and the Dirac operator of the connection
with a third of the characteristic torsion is

    D = sum_i c(e_i) lift(Lambda(e_i)) - (1/2) T_cl .

No Clifford matrix is formed: every monomial e_p has one nonzero entry per
row, a Pauli string (Aaronson-Gottesman), kept as the column and the value
of that entry in each row.  On the 2^m-dim module of Cl(2m), e_{2j+s} sends
row r to column r XOR 2^(m-1-j), with value (-1)^popcount(r >> (m-j)) times
i for s = 0 and times (-1)^(bit m-1-j of r) for s = 1; the lift of an
antisymmetric A is (1/4) sum_ij A_ij e_j e_i, the 2-form -A/2.

The torsion coefficient was calibrated once against the first closed-form
Dirac spectrum at two parameter samples and then validated untouched
against the second space's independent formula; see the verification
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import sp3
from .connections import InvariantConnection
from .errors import BadDimension, NoInvariantSpinors, NotAntisymmetric, StructureViolation, TorsionNotParallel
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace_entries, rank, read_only
from .spaces import HomogeneousSpaceInstance

# coefficient of the torsion term inside the Dirac operator; the value was
# calibrated against the first space's closed-form spectrum and frozen
DIRAC_TORSION_FACTOR = -0.5

@lru_cache(maxsize=16)
def _product_table(n: int, k: int):
    """The products e_p = e_i1 ... e_ik over increasing tuples p, in
    combinations order, from the XOR masks and popcount signs of the gammas
    (module docstring): returns the tuples and the column and value of the
    one entry of e_p in every row, the last two of shape (C(n, k), 2^(n/2))."""
    if n % 2 or not (2 <= n <= 14):
        raise BadDimension(f"need an even dimension between 2 and 14, got {n}")
    r = np.arange(2 ** (n // 2))
    masks = 1 << np.arange(n // 2 - 1, -1, -1)[:, None]
    flip = np.where(r & masks, -1.0, 1.0)
    sign = np.cumprod(flip, axis=0)  # (-1)^popcount(r >> (m-1-j)) in row j
    gcols = np.repeat(r ^ masks, 2, axis=0)
    gvals = np.stack([1j * sign * flip, sign], axis=1).reshape(n, -1)
    combos = np.array(list(combinations(range(n), k)))
    cols = np.broadcast_to(r, (len(combos), r.size))
    vals = np.ones(cols.shape, dtype=complex)
    for b in combos.T:
        # row r of (P G_b) is vals[r] times row cols[r] of G_b
        vals = vals * gvals[b[:, None], cols]
        cols = gcols[b[:, None], cols]
    return read_only(combos), read_only(cols), read_only(vals)


def _form_entries(stack: np.ndarray, n: int):
    """The entries of sum over increasing tuples p of t[p] e_p for each
    k-index array t = stack[g] over R^n: for every (g, p) with t[p] != 0, in
    ascending order, g and the column and value of the one entry in each row
    of t[p] e_p, as (terms,), (terms, 2^(n/2)) and (terms, 2^(n/2)) arrays."""
    if stack.shape[1:] != (n,) * (stack.ndim - 1):
        raise BadDimension(f"need {stack.ndim - 1} indices over R^{n}, got shape {stack.shape[1:]}")
    combos, cols, vals = _product_table(n, stack.ndim - 1)
    coeffs = stack[(slice(None), *combos.T)]
    g, p = np.nonzero(coeffs)
    return g, cols[p], coeffs[g, p, None] * vals[p]


def _lift_entries(iso: np.ndarray, tol: ToleranceProfile):
    """(rows, cols, vals, shape) of the spin lifts of the generators iso[g]
    in rows g*128 + r: the ``_form_entries`` of the 2-forms -iso/2."""
    if np.any(tol.exceeds(np.abs(iso + iso.transpose(0, 2, 1)).max(axis=(1, 2)), np.abs(iso).max(axis=(1, 2)), 1)):
        raise NotAntisymmetric("a spin lift needs antisymmetric generators")
    g, cols, vals = _form_entries(-0.5 * iso, 14)
    rows = (128 * g[:, None] + np.arange(128)).ravel()
    return rows, cols.ravel(), vals.ravel(), (128 * len(iso), 128)


def _scatter(idx: np.ndarray, w: np.ndarray, size: int) -> np.ndarray:
    """The complex bincount of the weights w at the flat positions idx."""
    return np.bincount(idx, w.real, size) + 1j * np.bincount(idx, w.imag, size)


@dataclass(frozen=True)
class SpinorSubspace:
    basis: np.ndarray  # (2^(n/2), k), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def _on_support(self, cols: np.ndarray, rows: np.ndarray):
        """(t, i, cell) for the entries cols[t, rows[i]] of a table with one
        entry per row whose column lies in the support S, the rows where the
        basis is nonzero, in the table's order; cell = i |S| + the place of
        the column in S."""
        mask = np.any(self.basis != 0, axis=1)
        t, i = np.nonzero(mask[cols[:, rows]])
        return t, i, i * np.count_nonzero(mask) + (np.cumsum(mask) - 1)[cols[t, rows[i]]]

    @cached_property
    def lifted_rho(self) -> np.ndarray:
        """(21, 2^(n/2), k) read-only: the spin lifts of the rho(sp3) basis
        applied to the basis columns, lift(rho)[:, S] B[S], from the entries
        of the 2-forms -rho/2 with column in S; computed once per subspace,
        so once per catalog space in a process (``invariant_spinors``)."""
        bs = self.support[0]
        g, cols, vals = _form_entries(-0.5 * sp3.load().rho, 14)
        t, r, cells = self._on_support(cols, np.arange(len(self.basis)))
        size = len(self.basis) * len(bs)
        lifts = _scatter(g[t] * size + cells, vals[t, r], 21 * size)
        return read_only((lifts.reshape(-1, len(bs)) @ bs).reshape(21, -1, self.dim))

    @cached_property
    def support(self):
        """(B[S], {k: (terms, cells, values)}), S the rows where the basis B is
        nonzero: for k = 3, 1 the entries of ``_product_table(14, k)`` in rows
        S[i] and columns S[j], cell i |S| + j, in the table's order; read-only
        and computed once per subspace, like ``lifted_rho`` (``_restricted``)."""
        rows = np.flatnonzero(np.any(self.basis != 0, axis=1))
        tables = {}
        for k in (3, 1):
            _, cols, vals = _product_table(14, k)
            term, i, cells = self._on_support(cols, rows)
            tables[k] = tuple(read_only(a) for a in (term, cells, vals[term, rows[i]]))
        return read_only(self.basis[rows]), MappingProxyType(tables)


def invariant_spinors(space: HomogeneousSpaceInstance, tol: ToleranceProfile = DEFAULT_TOL) -> SpinorSubspace:
    """Joint kernel of the lifted isotropy generators inside the spinor module.

    The lifts of the isotropy generators ``space.iso`` are solved from their
    entries; the subspace depends on the isotropy alone, so every build of
    a catalog space shares it (``isotropy_result``) and a process solves it
    once per space."""
    def solve():
        return SpinorSubspace(basis=read_only(nullspace_entries(*_lift_entries(space.iso, tol), tol)))

    return space.isotropy_result("spinors", tol, solve)


class DiracReport(NamedTuple):
    eigenvalues: np.ndarray  # Dirac spectrum on the invariant subspace
    torsion_op_eigenvalues: np.ndarray  # mu spectrum on the subspace
    torsion_norm2: float  # sum over increasing triples of T(K_i,K_j,K_k)^2
    parallel_spinor_dim: int


class Estimates(NamedTuple):
    """Both lower bounds for the squared first Dirac eigenvalue; whether it
    attains the first and strictly exceeds the second."""

    friedrich_rhs: float
    twistor_rhs: float
    friedrich_equality: bool
    twistor_strict: bool


def _restricted(sub: SpinorSubspace, *forms: np.ndarray) -> np.ndarray:
    """B^H X B for X the sum of the Clifford actions of ``forms`` (3-forms or
    vectors over R^14): B is zero off S, so it is B[S]^H X[S, S] B[S], and
    X[S, S] is the bincount of ``sub.support``'s entries."""
    bs, tables = sub.support
    m = bs.shape[0]
    X = 0
    for t in forms:
        terms, cells, vals = tables[t.ndim]
        w = t[tuple(_product_table(14, t.ndim)[0].T)][terms] * vals
        X = X + _scatter(cells, w, m * m)
    return bs.conj().T @ X.reshape(m, m) @ bs


def _dirac_terms(lam: np.ndarray, coeffs: np.ndarray, t3: np.ndarray, sub: SpinorSubspace, tol: ToleranceProfile):
    """(a stack whose kernel is the parallel spinors, T_r, D_r) on the
    spinor subspace ``sub`` with basis B, for lam = coeffs . rho and torsion
    t3: T_r = B^H T_cl B and D_r = B^H D B, formed by ``_restricted``.

    The lifts of the Lambda(e_i) on B stack to (C x I) R, C = coeffs[:, nz]
    for its nonzero columns nz and R = ``sub.lifted_rho``[nz] as (|nz| m, k).
    For C = U S Vh, U^H x I is orthogonal, so only the blocks s_i (Vh_i x I) R
    with s_i > tau = ``round_off``(s_0, 14, 21) <= 64 eps s_0 are formed, none
    for C = 0.  That moves a singular value by at most tau ||R||_2, the order
    of the round-off of forming C R: 64 eps / rank_tol of the rank cut times
    s_0 ||R||_2 / ||C R||_2.  With a[i] = Lambda(e_i), sum_i e_i lift(a[i]) =
    c(c3) + c(v) for the 3-form c3[i, k, l] = -(a[i, k, l] + a[k, l, i] +
    a[l, i, k]) / 2 and the vector v[m] = sum_k a[k, k, m] / 2."""
    nz = np.flatnonzero(np.any(coeffs != 0, axis=0))
    _, s, vh = np.linalg.svd(coeffs[:, nz], full_matrices=False)
    rows = (s[:, None] * vh)[s > tol.round_off(s.max(initial=0.0), *coeffs.shape)]
    stack = (rows @ sub.lifted_rho[nz].reshape(nz.size, sub.basis.size)).reshape(-1, sub.dim)
    c3 = -0.5 * (lam - lam.transpose(1, 0, 2) + lam.transpose(1, 2, 0))
    v = 0.5 * np.trace(lam, axis1=0, axis2=1)
    return stack, _restricted(sub, t3), _restricted(sub, c3 + DIRAC_TORSION_FACTOR * t3, v)


def dirac_on_invariants(conn: InvariantConnection, sub: SpinorSubspace,
                        tol: ToleranceProfile = DEFAULT_TOL) -> DiracReport:
    """Dirac matrix of the connection with torsion T/3 on the invariant
    spinors ``sub`` of ``conn.space``, plus the torsion-operator spectrum and
    norm used by the estimates, from the connection's cached stack and torsion;
    the parallel spinors are k minus the rank of ``_dirac_terms``' stack."""
    if sub.dim == 0:
        raise NoInvariantSpinors(f"{conn.space.space_id} has no invariant spinors")
    T = conn.torsion
    stack, Tr, Dr = _dirac_terms(conn.stack, conn.lambda_coeffs, T.t3, sub, tol)
    herm = np.max(np.abs(Dr - Dr.conj().T))
    if tol.exceeds(herm, np.max(np.abs(Dr))):
        raise StructureViolation(f"restricted Dirac matrix not self-adjoint ({herm:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (Dr + Dr.conj().T))
    mu = np.linalg.eigvalsh(0.5 * (Tr + Tr.conj().T))

    return DiracReport(
        eigenvalues=eigs,
        torsion_op_eigenvalues=mu,
        torsion_norm2=T.norm2_increasing,
        parallel_spinor_dim=sub.dim - rank(stack, tol),
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
