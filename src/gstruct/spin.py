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

Chirality: each gamma flips one bit of the row, so the parity of
popcount(r) grades the module.  2-forms, hence the spin lifts, are even and
keep each half; vectors and 3-forms, hence D and T_cl, are odd and swap
them.  The invariant spinors are chirally pure, and on them D and T_cl are
[[0, A], [A^H, 0]], with spectrum +-sigma(A) and |k+ - k-| zeros.

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


def _odd(r: np.ndarray) -> np.ndarray:
    """The chirality of the rows r of the Cl(14) module, popcount(r) mod 2,
    as True for odd: every gamma flips one bit of the row (module docstring)."""
    return np.count_nonzero(r[:, None] & (1 << np.arange(7)), axis=1) % 2 == 1


@dataclass(frozen=True)
class SpinorSubspace:
    basis: np.ndarray  # (2^(n/2), k), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def chirality(self):
        """(S, order, m+, k+), read-only: the support S, the rows where the
        basis is nonzero, and the order of the basis columns, each even
        chirality first, with m+ even rows and k+ even columns.  A column
        with nonzero rows of both chiralities raises StructureViolation."""
        nonzero = self.basis != 0
        odd = _odd(np.arange(len(self.basis)))
        rows = np.flatnonzero(np.any(nonzero, axis=1))
        rows = rows[np.argsort(odd[rows], kind="stable")]
        has = [np.any(nonzero[odd == c], axis=0) for c in (False, True)]
        mixed = np.flatnonzero(has[0] & has[1])
        if mixed.size:
            raise StructureViolation(f"spinor basis column {mixed[0]} mixes both chiralities")
        return (read_only(rows), read_only(np.argsort(has[1], kind="stable")),
                int(np.count_nonzero(~odd[rows])), int(np.count_nonzero(~has[1])))

    def _on_support(self, cols: np.ndarray, rows: np.ndarray):
        """(t, i, j) for the entries cols[t, rows[i]] of a table with one
        entry per row whose column lies in the support S, in the table's
        order; j is the place of the column in S, ordered by ``chirality``."""
        support = self.chirality[0]
        place = np.full(len(self.basis), -1)
        place[support] = np.arange(support.size)
        j = place[cols[:, rows]]
        t, i = np.nonzero(j >= 0)
        return t, i, j[t, i]

    @cached_property
    def lifted_rho(self) -> np.ndarray:
        """(21, 2^(n/2), k) read-only: the spin lifts of the rho(sp3) basis
        applied to the basis columns, lift(rho)[:, S] B[S], from the entries
        of the 2-forms -rho/2 with column in S; computed once per subspace,
        so once per catalog space in a process (``invariant_spinors``)."""
        support = self.chirality[0]
        g, cols, vals = _form_entries(-0.5 * sp3.load().rho, 14)
        t, r, j = self._on_support(cols, np.arange(len(self.basis)))
        size = len(self.basis) * support.size
        lifts = _scatter(g[t] * size + r * support.size + j, vals[t, r], 21 * size)
        return read_only((lifts.reshape(-1, support.size) @ self.basis[support]).reshape(21, -1, self.dim))

    @cached_property
    def lifted_halves(self) -> np.ndarray:
        """(2, 21, 64, h) read-only, h = max(k+, k-): ``lifted_rho`` split by
        chirality, the even rows of the even columns and the odd rows of the
        odd columns, each zero-padded to h columns.  The lifts are even, so
        the other rows of these columns are zero."""
        _, order, _, kp = self.chirality
        odd = _odd(np.arange(len(self.basis)))
        h = max(kp, self.dim - kp)
        out = np.zeros((2, 21, len(self.basis) // 2, h), dtype=self.lifted_rho.dtype)
        for c, cols in enumerate((order[:kp], order[kp:])):
            out[c, :, :, :cols.size] = self.lifted_rho[:, np.flatnonzero(odd == c)[:, None], cols]
        return read_only(out)

    @cached_property
    def support(self):
        """(B, {k: (terms, cells, values)}), read-only and computed once per
        subspace, like ``lifted_rho`` (``_restricted``).  With S and the basis
        columns split by ``chirality``, B is (2, max(m+, m-), max(k+, k-)):
        B[S+, even columns] and B[S-, odd columns], zero-padded.  For k = 3, 1
        the tables hold the entries of ``_product_table(14, k)`` in rows S and
        columns S, in the table's order; these monomials are odd, so an entry
        in row S+[a] lies in a column S-[b], cell a h + b of an h x h block,
        h = max(m+, m-), and one in row S-[a] in column S+[b], cell h^2 + a h + b."""
        rows, order, mp, kp = self.chirality
        h = max(mp, rows.size - mp)
        blocks = np.zeros((2, h, max(kp, self.dim - kp)), dtype=self.basis.dtype)
        blocks[0, :mp, :kp] = self.basis[np.ix_(rows[:mp], order[:kp])]
        blocks[1, :rows.size - mp, :self.dim - kp] = self.basis[np.ix_(rows[mp:], order[kp:])]
        tables = {}
        for k in (3, 1):
            _, cols, vals = _product_table(14, k)
            term, i, j = self._on_support(cols, rows)
            odd_row = i >= mp
            cells = odd_row * h * h + (i - mp * odd_row) * h + (j - mp * ~odd_row)
            tables[k] = tuple(read_only(a) for a in (term, cells, vals[term, rows[i]]))
        return read_only(blocks), MappingProxyType(tables)


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
    """The blocks (B+^H X B-, B-^H X B+) of B^H X B, zero-padded to (2, h, h),
    h = max(k+, k-), for X the sum of the Clifford actions of ``forms``
    (3-forms or vectors over R^14): B is zero off S and X is odd, so these
    are its only nonzero blocks, formed from the blocks X[S+, S-] and
    X[S-, S+] that ``sub.support``'s entries bincount into."""
    bs, tables = sub.support
    h = bs.shape[1]
    X = 0
    for t in forms:
        terms, cells, vals = tables[t.ndim]
        w = t[tuple(_product_table(14, t.ndim)[0].T)][terms] * vals
        X = X + _scatter(cells, w, 2 * h * h)
    return bs.conj().swapaxes(1, 2) @ X.reshape(2, h, h) @ bs[::-1]


def _dirac_terms(lam: np.ndarray, coeffs: np.ndarray, t3: np.ndarray, sub: SpinorSubspace, tol: ToleranceProfile):
    """(the two chiral halves of a stack whose kernel is the parallel
    spinors, the blocks of T_r, the blocks of D_r) on the spinor subspace
    ``sub`` with basis B, for lam = coeffs . rho and torsion t3: T_r = B^H T_cl B
    and D_r = B^H D B, each as its two off-diagonal chiral blocks (``_restricted``).

    The lifts of the Lambda(e_i) on B stack to (C x I) R, C = coeffs[:, nz]
    for its nonzero columns nz and R the lifts of rho[nz] on B as (|nz| m, k).
    For C = U S Vh, U^H x I is orthogonal, so only the blocks s_i (Vh_i x I) R
    with s_i > tau = ``round_off``(s_0, 14, 21) <= 64 eps s_0 are formed, none
    for C = 0.  That moves a singular value by at most tau ||R||_2, the order
    of the round-off of forming C R: 64 eps / rank_tol of the rank cut times
    s_0 ||R||_2 / ||C R||_2.  The lifts are even, so R is block-diagonal in
    the chiral split and the stack is formed as its two halves, (2, |rows|
    64, h), from ``sub.lifted_halves``[:, nz].
    With a[i] = Lambda(e_i), sum_i e_i lift(a[i]) = c(c3) + c(v) for the
    3-form c3[i, k, l] = -(a[i, k, l] + a[k, l, i] + a[l, i, k]) / 2 and the
    vector v[m] = sum_k a[k, k, m] / 2."""
    nz = np.flatnonzero(np.any(coeffs != 0, axis=0))
    _, s, vh = np.linalg.svd(coeffs[:, nz], full_matrices=False)
    rows = (s[:, None] * vh)[s > tol.round_off(s.max(initial=0.0), *coeffs.shape)]
    _, _, m, h = sub.lifted_halves.shape
    stack = (rows @ sub.lifted_halves[:, nz].reshape(2, nz.size, m * h)).reshape(2, -1, h)
    c3 = -0.5 * (lam - lam.transpose(1, 0, 2) + lam.transpose(1, 2, 0))
    v = 0.5 * np.trace(lam, axis1=0, axis2=1)
    return stack, _restricted(sub, t3), _restricted(sub, c3 + DIRAC_TORSION_FACTOR * t3, v)


def dirac_on_invariants(conn: InvariantConnection, sub: SpinorSubspace,
                        tol: ToleranceProfile = DEFAULT_TOL) -> DiracReport:
    """Dirac matrix of the connection with torsion T/3 on the invariant
    spinors ``sub`` of ``conn.space``, plus the torsion-operator spectrum and
    norm used by the estimates, from the connection's cached stack and torsion.

    D_r and T_r are odd: in the chiral split they are [[0, A], [A^H, 0]] with
    A the Hermitian part of the k+ x k- block, so each spectrum is +-sigma(A)
    and |k+ - k-| zeros, from one batched SVD of the two A.  The parallel
    spinors are k minus the ``rank`` of ``_dirac_terms``' two stack halves."""
    if sub.dim == 0:
        raise NoInvariantSpinors(f"{conn.space.space_id} has no invariant spinors")
    T = conn.torsion
    stack, Tr, Dr = _dirac_terms(conn.stack, conn.lambda_coeffs, T.t3, sub, tol)
    herm = np.max(np.abs(Dr[0] - Dr[1].conj().T))
    if tol.exceeds(herm, np.max(np.abs(Dr))):
        raise StructureViolation(f"restricted Dirac matrix not self-adjoint ({herm:.3e})")
    kp = sub.chirality[3]
    pair = min(kp, sub.dim - kp)
    blocks = np.stack([Dr, Tr])
    s = np.linalg.svd(0.5 * (blocks[:, 0] + blocks[:, 1].conj().swapaxes(1, 2)), compute_uv=False)[:, :pair]
    eigs, mu = np.concatenate([-s, np.zeros((2, sub.dim - 2 * pair)), s[:, ::-1]], axis=1)

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
