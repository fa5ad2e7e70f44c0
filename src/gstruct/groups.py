"""Connection families on compact Lie groups with biinvariant metrics:
the per-ideal commutator-rescaling torsion family, kernels of the
skew-torsion compatibility map for adjoint embeddings, and the two
exceptional equivariant bilinear maps with their metricity defects.
"""

from __future__ import annotations

import numpy as np

from . import reps
from .errors import DimensionMismatch, NotAnIdeal
from .liealg import inner, structure_constants
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace_entries

# random triples drawn by metricity_defect, from a fixed seed
_METRICITY_SAMPLES = 100
_METRICITY_SEED = 11


def su_algebra(n: int) -> np.ndarray:
    """su(n) with an orthonormal basis under -Re tr(XY), as one complex
    (n^2 - 1, n, n) array."""
    from .sp3 import E, S

    basis = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            basis.append(E(n, i, j) / np.sqrt(2.0))
            basis.append(1j * S(n, i, j) / np.sqrt(2.0))
    diag = []
    for k in range(1, n):
        diag.append(1j * (S(n, k, k) - S(n, k + 1, k + 1)))
    # orthonormalize the torus part (deterministic Gram-Schmidt)
    ortho = []
    for d in diag:
        v = d.copy()
        for u in ortho:
            v = v - inner(v, u) * u
        ortho.append(v / np.sqrt(inner(v, v)))
    return np.array(basis + ortho, dtype=complex)


def u_algebra(n: int) -> np.ndarray:
    """u(n): the su(n) basis and the unit centre, a (n^2, n, n) array."""
    return np.concatenate([su_algebra(n), 1j * np.eye(n)[None] / np.sqrt(n)])


def su2_plus_su2() -> np.ndarray:
    """su(2) + su(2) block-diagonally in su(4), a (6, 4, 4) array."""
    a = su_algebra(2)
    basis = np.zeros((6, 4, 4), dtype=complex)
    basis[:3, :2, :2] = a
    basis[3:, 2:, 2:] = a
    return basis


def verify_ideals(alg: np.ndarray, ideal_partition, tol: ToleranceProfile = DEFAULT_TOL):
    """Each block of the partition must be an ideal: [g, block] in block,
    up to round-off of the largest structure constant."""
    c = structure_constants(alg, tol)
    for block in map(sorted, map(set, ideal_partition)):
        # leak[i, j] = |pr_outside [b_i, b_j]| for every j in the block
        leak = np.linalg.norm(np.delete(c[:, block], block, axis=2), axis=2)
        bad = tol.exceeds(leak, np.max(np.abs(c)))
        if bad.any():
            raise NotAnIdeal(f"block {block} is not an ideal (leak {leak[bad][0]:.3e})")
    return c


def canonical_torsion_family(alg: np.ndarray, ideal_partition, tol: ToleranceProfile = DEFAULT_TOL):
    """One torsion 3-form per (non-abelian) ideal: the commutator rescaled
    on that ideal, as vectors over increasing basis triples (zero ones,
    up to round-off of the largest structure constant, dropped)."""
    c = verify_ideals(alg, ideal_partition, tol)
    i, j, k = reps.theta_index(len(alg))[0]  # row 0: the triples i < j < k in order
    family = [np.where(np.isin(k, block), c[i, j, k], 0.0) for block in ideal_partition]
    return [v for v in family if tol.exceeds(np.linalg.norm(v), np.max(np.abs(c)), 1)]


def adjoint_generators(alg: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """ad matrices in the orthonormal basis (antisymmetric for compact
    type), as a (dim, dim, dim) stack."""
    c = structure_constants(alg, tol)
    return c.transpose(0, 2, 1)  # ad(b_i)[k, j] = c[i, j, k]


def theta_kernel_adjoint(alg: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """(orthonormal kernel basis as columns over the triples, the entries
    ``reps.theta_entries`` of Theta) for the adjoint embedding."""
    theta = reps.theta_entries(reps.so_complement(adjoint_generators(alg, tol), tol))
    return nullspace_entries(*theta, tol), theta


def laquer_eta(X, Y, alpha: float = 1.0) -> np.ndarray:
    """The symmetric equivariant map i*alpha*[XY + YX - (2/n) tr(XY) I]."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {X.shape}, {Y.shape}")
    n = X.shape[0]
    anti = X @ Y + Y @ X
    return 1j * alpha * (anti - (2.0 / n) * np.trace(X @ Y) * np.eye(n))


def laquer_nu(X, Y) -> np.ndarray:
    """The antisymmetric equivariant map i (X tr Y - Y tr X) on u(n)."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {X.shape}, {Y.shape}")
    return 1j * (X * np.trace(Y) - Y * np.trace(X))


def su_metric(n: int):
    """The biinvariant metric -2n tr(XY) used for the metricity tests."""
    return lambda X, Y: float(-2 * n * np.real(np.trace(X @ Y)))


def u_metric(n: int, center_coefficient: float = 1.0):
    """Any positive extension of the su(n) metric to the center."""

    def g(X, Y):
        tx, ty = np.trace(X), np.trace(Y)
        X0 = X - tx / n * np.eye(n)
        Y0 = Y - ty / n * np.eye(n)
        return float(-2 * n * np.real(np.trace(X0 @ Y0)) + center_coefficient * np.real(np.conj(tx) * ty))

    return g


def metricity_defect(lam, metric, basis) -> float:
    """max over random triples of |g(lambda(X,Y), Z) + g(Y, lambda(X,Z))|,
    with X, Y, Z drawn as unit-coefficient combinations of the basis."""
    rng = np.random.default_rng(_METRICITY_SEED)
    d = len(basis)
    worst = 0.0
    for _ in range(_METRICITY_SAMPLES):
        cs = rng.standard_normal((3, d))
        cs /= np.linalg.norm(cs, axis=1, keepdims=True)
        X, Y, Z = np.tensordot(cs, basis, axes=1)
        worst = max(worst, abs(metric(lam(X, Y), Z) + metric(Y, lam(X, Z))))
    return worst
