"""Hard-coded reference data for the symplectic subalgebra of su(6).

Contents: the 21-element basis A of sp(3) inside su(6), the 14-element
orthonormal basis B of its complement m, the tabulated 14x14 isotropy
matrices rho(A_i), and the maximal-subgroup generator table with the
expected block dimensions of the 14-dimensional module.

Generator conventions:
  E(n, i, j):  e_i -> -e_j,  e_j -> e_i        (antisymmetric)
  S(n, i, j):  e_i ->  e_j,  e_j -> e_i        (symmetric; S(n,i,i) = unit diag)

The transcription is double-entry bookkeeping: ``derive_isotropy`` recomputes
every rho(A_i) from the 6x6 matrices via the bracket and the build must agree
entrywise to 1e-12, so a single typo in either copy is caught immediately.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConventionMismatch
from .liealg import CoordinateFrame, isotropy_matrices
from .linalg import read_only

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)
# entrywise agreement required of the transcribed and the derived rho(A_i)
_TRANSCRIPTION_TOL = 1e-12


def E(n: int, i: int, j: int) -> np.ndarray:
    """Antisymmetric generator, 1-indexed."""
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    m[j - 1, i - 1] = -1.0
    return m


def S(n: int, i: int, j: int) -> np.ndarray:
    """Symmetric generator, 1-indexed; S(n, i, i) is the diagonal unit."""
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    m[j - 1, i - 1] = 1.0
    if i == j:
        m[i - 1, j - 1] = 1.0
    return m


def _a_basis():
    E6, S6 = (lambda i, j: E(6, i, j)), (lambda i, j: S(6, i, j))
    return [
        0.5 * (E6(2, 3) + E6(5, 6)),
        0.5j * (S6(2, 3) - S6(5, 6)),
        0.5 * (E6(2, 6) + E6(3, 5)),
        0.5j * (S6(2, 6) + S6(3, 5)),
        E6(2, 5) / SQ2,
        E6(3, 6) / SQ2,
        1j * S6(2, 5) / SQ2,
        1j * S6(3, 6) / SQ2,
        1j * (S6(2, 2) - S6(5, 5)) / SQ2,
        1j * (S6(3, 3) - S6(6, 6)) / SQ2,
        0.5 * (E6(1, 3) + E6(4, 6)),
        0.5j * (S6(1, 3) - S6(4, 6)),
        0.5 * (E6(1, 6) + E6(3, 4)),
        0.5j * (S6(1, 6) + S6(3, 4)),
        0.5 * (E6(1, 5) + E6(2, 4)),
        0.5j * (S6(1, 5) + S6(2, 4)),
        0.5 * (E6(1, 2) + E6(4, 5)),
        0.5j * (S6(1, 2) - S6(4, 5)),
        E6(1, 4) / SQ2,
        1j * S6(1, 4) / SQ2,
        1j * (S6(1, 1) - S6(4, 4)) / SQ2,
    ]


def _b_basis():
    E6, S6 = (lambda i, j: E(6, i, j)), (lambda i, j: S(6, i, j))
    return [
        0.5 * (E6(1, 3) - E6(4, 6)),
        0.5j * (S6(1, 3) + S6(4, 6)),
        0.5 * (E6(1, 6) - E6(3, 4)),
        0.5j * (S6(1, 6) - S6(3, 4)),
        0.5 * (E6(1, 2) - E6(4, 5)),
        0.5j * (S6(1, 2) + S6(4, 5)),
        0.5 * (E6(1, 5) - E6(2, 4)),
        0.5j * (S6(1, 5) - S6(2, 4)),
        0.5 * (E6(2, 3) - E6(5, 6)),
        0.5j * (S6(2, 3) + S6(5, 6)),
        0.5 * (E6(2, 6) - E6(3, 5)),
        0.5j * (S6(2, 6) - S6(3, 5)),
        0.5j * (S6(2, 2) - S6(3, 3) + S6(5, 5) - S6(6, 6)),
        (1j / (2 * SQ3)) * (-2 * S6(1, 1) + S6(2, 2) + S6(3, 3) - 2 * S6(4, 4) + S6(5, 5) + S6(6, 6)),
    ]


# Tabulated isotropy matrices as (coefficient, i, j) terms of E(14, i, j).
# The 1/sqrt(2)-normalised generators (rows 5..10, 19..21) act with
# coefficient sqrt(2)/2; the remaining half-normalised ones with 1/2 and
# sqrt(3)/2 on the e_13/e_14 couplings.
_H, _Q = 0.5, SQ2 / 2
_RHO_TERMS = [
    [(-_H, 1, 5), (-_H, 2, 6), (-_H, 3, 7), (-_H, 4, 8), (-1.0, 10, 13)],
    [(_H, 1, 6), (-_H, 2, 5), (-_H, 3, 8), (_H, 4, 7), (1.0, 9, 13)],
    [(_H, 1, 7), (_H, 2, 8), (-_H, 3, 5), (-_H, 4, 6), (-1.0, 12, 13)],
    [(_H, 1, 8), (-_H, 2, 7), (_H, 3, 6), (-_H, 4, 5), (1.0, 11, 13)],
    [(_Q, 5, 7), (_Q, 6, 8), (_Q, 9, 11), (-_Q, 10, 12)],
    [(_Q, 1, 3), (_Q, 2, 4), (_Q, 9, 11), (_Q, 10, 12)],
    [(_Q, 5, 8), (-_Q, 6, 7), (_Q, 9, 12), (_Q, 10, 11)],
    [(_Q, 1, 4), (-_Q, 2, 3), (_Q, 9, 12), (-_Q, 10, 11)],
    [(_Q, 5, 6), (-_Q, 7, 8), (-_Q, 9, 10), (-_Q, 11, 12)],
    [(_Q, 1, 2), (-_Q, 3, 4), (_Q, 9, 10), (-_Q, 11, 12)],
    [(-_H, 2, 13), (SQ3 / 2, 2, 14), (-_H, 5, 9), (_H, 6, 10), (-_H, 7, 11), (-_H, 8, 12)],
    [(_H, 1, 13), (-SQ3 / 2, 1, 14), (-_H, 5, 10), (-_H, 6, 9), (_H, 7, 12), (-_H, 8, 11)],
    [(-_H, 4, 13), (SQ3 / 2, 4, 14), (-_H, 5, 11), (_H, 6, 12), (_H, 7, 9), (_H, 8, 10)],
    [(_H, 3, 13), (-SQ3 / 2, 3, 14), (-_H, 5, 12), (-_H, 6, 11), (-_H, 7, 10), (_H, 8, 9)],
    [(_H, 1, 11), (-_H, 2, 12), (-_H, 3, 9), (_H, 4, 10), (_H, 8, 13), (SQ3 / 2, 8, 14)],
    [(_H, 1, 12), (_H, 2, 11), (-_H, 3, 10), (-_H, 4, 9), (-_H, 7, 13), (-SQ3 / 2, 7, 14)],
    [(_H, 1, 9), (_H, 2, 10), (_H, 3, 11), (_H, 4, 12), (_H, 6, 13), (SQ3 / 2, 6, 14)],
    [(-_H, 1, 10), (_H, 2, 9), (-_H, 3, 12), (_H, 4, 11), (-_H, 5, 13), (-SQ3 / 2, 5, 14)],
    [(_Q, 1, 3), (-_Q, 2, 4), (_Q, 5, 7), (-_Q, 6, 8)],
    [(_Q, 1, 4), (_Q, 2, 3), (_Q, 5, 8), (_Q, 6, 7)],
    [(-_Q, 1, 2), (-_Q, 3, 4), (-_Q, 5, 6), (-_Q, 7, 8)],
]


def _rho_matrices():
    out = np.zeros((len(_RHO_TERMS), 14, 14))
    for m, terms in zip(out, _RHO_TERMS):
        for coeff, i, j in terms:
            m += coeff * E(14, i, j)
    return out


class SubgroupRow(NamedTuple):
    """A maximal-subalgebra generator set with the expected module split."""

    name: str
    generators: tuple  # vectors of coefficients over the A basis
    expected_blocks: tuple


@lru_cache(maxsize=1)
def subgroup_rows() -> tuple:
    """The maximal-subalgebra rows, built once per process."""

    def gen(*pairs):
        v = np.zeros(21)
        for coeff, idx in pairs:
            v[idx - 1] = coeff
        return v

    unit = lambda *idxs: [gen((1.0, i)) for i in idxs]
    return (
        SubgroupRow("u3", tuple(unit(1, 2, 9, 10, 11, 12, 17, 18, 21)), (8, 6)),
        SubgroupRow(
            "so3",
            (
                gen((np.sqrt(10.0), 1), (4.0, 17), (-3.0, 19)),
                gen((np.sqrt(10.0), 2), (4.0, 18), (3.0, 20)),
                gen((3.0, 9), (5.0, 10), (1.0, 21)),
            ),
            (9, 5),
        ),
        SubgroupRow("sp2xsp1", tuple(unit(*range(1, 11), 19, 20, 21)), (8, 5, 1)),
        SubgroupRow(
            "so3xsp1",
            (
                gen((1.0, 1)),
                gen((1.0, 11)),
                gen((1.0, 17)),
                gen((1.0, 9), (1.0, 10), (1.0, 21)),
                gen((1.0, 5), (1.0, 6), (1.0, 19)),
                gen((1.0, 7), (1.0, 8), (1.0, 20)),
            ),
            (9, 5),
        ),
        SubgroupRow("sp2", tuple(unit(*range(1, 11))), (8, 5, 1)),
    )


class Sp3Data(NamedTuple):
    A: np.ndarray  # (21, 6, 6) anti-hermitian
    B: np.ndarray  # (14, 6, 6) anti-hermitian, orthonormal complement of A
    rho: np.ndarray  # (21, 14, 14) real antisymmetric

    def rho_of(self, coeffs) -> np.ndarray:
        """rho applied to an A-coefficient vector, or to each row of an
        (N, 21) stack of them."""
        return np.tensordot(coeffs, self.rho, axes=1)

    def project_rho(self, M):
        """(coefficients, residual) of a 14x14 matrix against span{rho(A_i)};
        for an (N, 14, 14) stack, (N, 21) coefficients and (N,) residuals.

        The rho matrices are mutually orthogonal with Frobenius norm^2 = 4.
        """
        M = np.asarray(M)
        coeffs = np.tensordot(M, self.rho, axes=([-2, -1], [1, 2])) / 4.0
        resid = np.linalg.norm(M - np.tensordot(coeffs, self.rho, axes=1), axis=(-2, -1))
        return coeffs, resid if M.ndim > 2 else float(resid)


@lru_cache(maxsize=1)
def load() -> Sp3Data:
    return Sp3Data(
        A=read_only(np.array(_a_basis())),
        B=read_only(np.array(_b_basis())),
        rho=read_only(_rho_matrices()),
    )


@lru_cache(maxsize=1)
def structure_constants() -> np.ndarray:
    """F (21, 21, 21), read-only: [rho_a, rho_b] = sum_c F[a, b, c] rho_c, so
    F[a, b, c] = sum [rho_a, rho_b] * rho_c / 4 (rho is orthonormal for
    -tr(XY)/4): one batched product of the pairs, then one matrix product."""
    rho = load().rho
    c = ((rho[:, None] @ rho[None]).reshape(441, -1) @ rho.reshape(21, -1).T / 4.0).reshape(21, 21, 21)
    return read_only(c - c.transpose(1, 0, 2))


def derive_isotropy():
    """Recompute ad(A_i)|_m in the B basis and compare with the transcription.

    Returns the derived (21, 14, 14) stack; raises ConventionMismatch if a
    derived matrix agrees with neither the stored one nor its transpose.
    """
    data = load()
    derived = isotropy_matrices(CoordinateFrame(np.concatenate([data.A, data.B])), len(data.A))
    for i, (d, t) in enumerate(zip(derived, data.rho)):
        if np.max(np.abs(d - t)) > _TRANSCRIPTION_TOL:
            if np.max(np.abs(d - t.T)) <= _TRANSCRIPTION_TOL:
                raise ConventionMismatch(f"rho(A_{i + 1}) matches only as a transpose")
            raise ConventionMismatch(
                f"rho(A_{i + 1}) disagrees with ad(A_{i + 1})|_m "
                f"(max dev {np.max(np.abs(d - t)):.3e})"
            )
    return derived
