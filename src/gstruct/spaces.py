"""The four 14-dimensional homogeneous spaces of the catalog, parameterized
by their invariant-metric coefficients, plus closed-form expected values
(torsion tables, Ricci diagonals, holonomy cases, spectra) used by the
verification suite.

Space identifiers (with the short aliases M1..M4):

  su4-so2         M1   su(4)          / so(2)
  u4-so2so2       M2   u(4)           / so(2)+so(2)
  u4u1-so2so2so2  M3   u(4)+u(1)      / so(2)^3
  su5-sp2         M4   su(5)          / sp(2)

Conventions: the metric normalizations
(1/sqrt(2*alpha), ...) are baked into the tangent frames so every frame is
orthonormal for its metric, and each frame is identified with the fixed
basis B of the 14-dimensional module (isotropy then lands inside rho(sp3)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import sp3
from .errors import BadParams, StructureViolation
from .liealg import (
    InnerProductSpec,
    MatrixLieAlgebra,
    ReductiveSplit,
    generating_set,
    isotropy_matrices,
    pair_brackets,
    stack_scales,
)
from .linalg import DEFAULT_TOL, ToleranceProfile, read_only
from .sp3 import E, S

SPACE_IDS = ("su4-so2", "u4-so2so2", "u4u1-so2so2so2", "su5-sp2")
ALIASES = {"M1": "su4-so2", "M2": "u4-so2so2", "M3": "u4u1-so2so2so2", "M4": "su5-sp2"}
_EXTRA_ALPHAS = {"su4-so2": 7, "u4-so2so2": 5, "u4u1-so2so2so2": 5, "su5-sp2": 0}
# two metric coefficients a, b count as equal when |a - b| <= _EQUAL_REL * alpha
_EQUAL_REL = 1e-9


def canonical_id(space_id: str) -> str:
    sid = ALIASES.get(space_id, space_id)
    if sid not in SPACE_IDS:
        raise BadParams(f"unknown space id {space_id!r}")
    return sid


@dataclass(frozen=True)
class MetricParams:
    """Positive metric coefficients; ``alphas`` are the extra coefficients
    of the off-diagonal blocks (empty tuple means all equal to alpha)."""

    alpha: float = 1.0
    alphas: tuple = ()
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, *self.alphas)
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise BadParams("metric coefficients must be positive and finite")

    def filled_alphas(self, count: int) -> tuple:
        if not self.alphas:
            return (self.alpha,) * count
        if len(self.alphas) != count:
            raise BadParams(f"expected {count} extra alpha coefficients, got {len(self.alphas)}")
        return tuple(float(a) for a in self.alphas)

    def equal_alphas(self, count: int) -> bool:
        return all(abs(a - self.alpha) <= _EQUAL_REL * self.alpha for a in self.filled_alphas(count))


@dataclass
class HomogeneousSpaceInstance:
    """A concrete reductive split at fixed parameters, with the isotropy
    expressed in the orthonormal tangent frame and the bracket tables
    every connection computation consumes."""

    space_id: str
    params: MetricParams
    split: ReductiveSplit
    iso: np.ndarray  # (r, 14, 14) real isotropy matrices, one per h generator
    iso_coeffs: np.ndarray  # (r, 21) coefficients over rho(A_i)
    pm: np.ndarray  # pm[i, j] = m-coordinates of [K_i, K_j]
    ph: np.ndarray  # ph[i, j] = h-coordinates of [K_i, K_j]
    # the space whose isotropy results this one shares: a build of a space
    # in ``_SHARED_ISOTROPY`` shares those of its unit metric (see ``build``)
    _isotropy_owner: HomogeneousSpaceInstance = field(default=None, init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def isotropy_result(self, stage: str, tol: ToleranceProfile, compute):
        """``compute(owner)``, memoized per (stage, tol) on the owner of this
        space's isotropy: the space itself, or for a build of a space in
        ``_SHARED_ISOTROPY`` the space at the unit metric, so every metric
        of it gets the same (read-only) result.  Only for results that
        depend on the isotropy alone."""
        owner = self._isotropy_owner or self
        key = (stage, tol)
        if key not in owner._memo:
            owner._memo[key] = compute(owner)
        return owner._memo[key]

    def generators(self, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
        """``liealg.generating_set`` of the isotropy, read-only; the
        equivariance and spinor systems both stack over it."""
        return self.isotropy_result("generators", tol, lambda s: read_only(generating_set(s.iso, tol)))


def _su4_frames(p: MetricParams):
    a = p.alpha
    a2, a3, a4, a5, a6, a7, a8 = p.filled_alphas(7)
    b, g = p.beta, p.gamma
    E4 = lambda i, j: E(4, i, j)
    S4 = lambda i, j: S(4, i, j)
    K = [
        E4(1, 3) / np.sqrt(2 * a),
        1j * S4(1, 3) / np.sqrt(2 * a),
        E4(2, 4) / np.sqrt(2 * a2),
        1j * S4(2, 4) / np.sqrt(2 * a2),
        E4(2, 3) / np.sqrt(2 * a3),
        1j * S4(2, 3) / np.sqrt(2 * a3),
        E4(1, 4) / np.sqrt(2 * a4),
        1j * S4(1, 4) / np.sqrt(2 * a4),
        E4(1, 2) / np.sqrt(2 * a5),
        1j * S4(1, 2) / np.sqrt(2 * a6),
        E4(3, 4) / np.sqrt(2 * a7),
        1j * S4(3, 4) / np.sqrt(2 * a8),
        (1j / (2 * np.sqrt(b))) * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4)),
        (1j / (2 * np.sqrt(g))) * (-S4(1, 1) + S4(2, 2) + S4(3, 3) - S4(4, 4)),
    ]
    H = [0.5j * (S4(1, 1) + S4(2, 2) - S4(3, 3) - S4(4, 4))]
    blocks = ((0, 1), (2, 3), (4, 5), (6, 7), (8,), (9,), (10,), (11,), (12,), (13,))
    coeffs = (a, a2, a3, a4, a5, a6, a7, a8, b, g)
    return K, H, InnerProductSpec(blocks, coeffs)


def _u4_frames(p: MetricParams):
    a = p.alpha
    a2, a3, a4, a5, a6 = p.filled_alphas(5)
    b, g = p.beta, p.gamma
    E4 = lambda i, j: E(4, i, j)
    S4 = lambda i, j: S(4, i, j)
    K = [
        E4(1, 3) / np.sqrt(2 * a),
        1j * S4(1, 3) / np.sqrt(2 * a),
        E4(2, 4) / np.sqrt(2 * a2),
        1j * S4(2, 4) / np.sqrt(2 * a2),
        E4(2, 3) / np.sqrt(2 * a3),
        1j * S4(2, 3) / np.sqrt(2 * a3),
        E4(1, 4) / np.sqrt(2 * a4),
        1j * S4(1, 4) / np.sqrt(2 * a4),
        E4(1, 2) / np.sqrt(2 * a5),
        1j * S4(1, 2) / np.sqrt(2 * a5),
        E4(3, 4) / np.sqrt(2 * a6),
        1j * S4(3, 4) / np.sqrt(2 * a6),
        (1j / (2 * np.sqrt(b))) * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4)),
        (1j / (2 * np.sqrt(g))) * (S4(1, 1) + S4(2, 2) + S4(3, 3) + S4(4, 4)),
    ]
    H = [
        0.5j * (S4(1, 1) + S4(2, 2) - S4(3, 3) - S4(4, 4)),
        0.5j * (-S4(1, 1) + S4(2, 2) + S4(3, 3) - S4(4, 4)),
    ]
    blocks = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12,), (13,))
    coeffs = (a, a2, a3, a4, a5, a6, b, g)
    return K, H, InnerProductSpec(blocks, coeffs)


def _embed5(m44) -> np.ndarray:
    out = np.zeros((5, 5), dtype=complex)
    out[:4, :4] = m44
    return out


def _u4u1_frames(p: MetricParams):
    b = p.beta
    # same frame as u(4), but the beta direction moves to the u(1) factor
    # and the corresponding su(4) diagonal joins the isotropy
    q = MetricParams(alpha=p.alpha, alphas=p.alphas, beta=1.0, gamma=p.gamma)
    K2, H2, ip2 = _u4_frames(q)
    S4 = lambda i, j: S(4, i, j)
    K = [_embed5(k) for k in K2]
    u1 = np.zeros((5, 5), dtype=complex)
    u1[4, 4] = 1j / np.sqrt(b)
    K[12] = u1
    H = [_embed5(h) for h in H2]
    H.append(_embed5(0.5j * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4))))
    coeffs = ip2.coefficients[:-2] + (b, p.gamma)
    return K, H, InnerProductSpec(ip2.blocks, coeffs)


def _su5_basis():
    """A basis of su(5) realized in the lower-right 5x5 block of su(6)."""
    out = []
    for i in range(2, 7):
        for j in range(i + 1, 7):
            out.append(E(6, i, j).astype(complex))
            out.append(1j * S(6, i, j))
    for k in range(2, 6):
        out.append(1j * (S(6, k, k) - S(6, k + 1, k + 1)))
    return out


def _su5_frames(p: MetricParams):
    """Tangent frame of the quotient by sp(2), pulled back from the fixed
    complement basis B through the sp(3)-complement projection."""
    p.filled_alphas(0)
    data = sp3.load()
    basis = np.array(_su5_basis())
    sp2 = data.A[:10]
    # X in su(5) with <X, A_i> = 0 (i<=10) and <X, B_j> = delta: one linear solve
    G = -np.einsum("rab,cba->rc", np.concatenate([sp2, data.B]), basis).real
    rhs = np.zeros((24, 14))
    rhs[10:, :] = np.eye(14)
    X = np.linalg.solve(G, rhs)  # coefficient columns over the su(5) basis
    khat = np.tensordot(X.T, basis, axes=1)
    # blockwise norms must agree inside each isotypic block
    norms = -np.einsum("kab,kba->k", khat, khat).real
    for blk in ((0, 8), (8, 13), (13, 14)):
        seg = norms[blk[0]:blk[1]]
        if np.max(np.abs(seg - seg[0])) > 1e-10:
            raise StructureViolation("unequal norms inside an isotypic block")
    scales = np.concatenate(
        [
            np.full(8, np.sqrt(p.alpha * norms[0])),
            np.full(5, np.sqrt(p.beta * norms[8])),
            np.full(1, np.sqrt(p.gamma * norms[13])),
        ]
    )
    K = khat / scales[:, None, None]
    H = sp2
    blocks = (tuple(range(8)), tuple(range(8, 13)), (13,))
    coeffs = (p.alpha, p.beta, p.gamma)
    return K, H, InnerProductSpec(blocks, coeffs)


_FRAME_BUILDERS = {
    "su4-so2": _su4_frames,
    "u4-so2so2": _u4_frames,
    "u4u1-so2so2so2": _u4u1_frames,
    "su5-sp2": _su5_frames,
}


def assemble(label: str, params: MetricParams, K, H, ip: InnerProductSpec,
             tol: ToleranceProfile = DEFAULT_TOL) -> HomogeneousSpaceInstance:
    """Assemble an instance from explicit frames (also usable for custom
    quotients beyond the catalog, as long as the 14-dim frame carries the
    same structure).

    Verifies orthonormality of the frame, reductivity, and that the isotropy
    lands inside rho(sp3) (StructureViolation otherwise).
    """
    k_alg = MatrixLieAlgebra(label, np.concatenate([H, K]))
    split = ReductiveSplit(algebra=k_alg, h_basis=H, m_basis=K, ip=ip)
    iso = isotropy_matrices(split, tol)
    coeffs, resid = sp3.load().project_rho(iso)
    bad = np.flatnonzero(resid > 1e3 * tol.residual_tol * stack_scales(iso))
    if bad.size:
        raise StructureViolation(
            f"{label}: isotropy leaves rho(sp3) (residual {resid[bad[0]]:.3e})"
        )
    n = len(K)
    i, j, br = pair_brackets(K)
    ch, cm = split.split_stack(br, tol)
    pm = np.zeros((n, n, n))
    ph = np.zeros((n, n, len(H)))
    pm[i, j], pm[j, i] = cm, -cm
    ph[i, j], ph[j, i] = ch, -ch
    return HomogeneousSpaceInstance(
        space_id=label,
        params=params,
        split=split,
        iso=iso,
        iso_coeffs=coeffs,
        pm=pm,
        ph=ph,
    )


# Catalog spaces whose builds share the isotropy results of their unit
# metric.  M1-M3 still solve theirs per build: the analyze-tori benchmark
# warms up with a single M1 op, so results kept from its first M2 and M3
# ops would make its per-op call counts depend on how many rounds a run
# completes, and its self-check requires them to repeat exactly.
_SHARED_ISOTROPY = ("su5-sp2",)


@functools.lru_cache(maxsize=None)
def _unit_metric_space(sid: str, tol: ToleranceProfile) -> HomogeneousSpaceInstance:
    """The catalog space at ``MetricParams()``, with read-only isotropy: it
    owns the isotropy results of every build of ``sid`` at ``tol``."""
    space = assemble(sid, MetricParams(), *_FRAME_BUILDERS[sid](MetricParams()), tol)
    read_only(space.iso)
    return space


def build(space_id: str, params: MetricParams, tol: ToleranceProfile = DEFAULT_TOL) -> HomogeneousSpaceInstance:
    """Construct a catalog space at concrete parameters.  The isotropy of
    a catalog space does not depend on the metric, so for a space in
    ``_SHARED_ISOTROPY`` the build must reproduce the one at the unit
    metric (StructureViolation otherwise) and then shares its isotropy
    results."""
    sid = canonical_id(space_id)
    K, H, ip = _FRAME_BUILDERS[sid](params)
    space = assemble(sid, params, K, H, ip, tol)
    if sid not in _SHARED_ISOTROPY:
        return space
    owner = _unit_metric_space(sid, tol)
    dev = np.max(np.abs(space.iso - owner.iso))
    if dev > 1e3 * tol.residual_tol * np.max(np.abs(owner.iso)):
        raise StructureViolation(f"{sid}: isotropy depends on the metric (deviation {dev:.3e})")
    space._isotropy_owner = owner
    return space


# ---------------------------------------------------------------------------
# Expected closed forms (per-space verification fixtures).

# the sixteen off-diagonal torsion monomials shared by the first three spaces
_ALPHA_TRIPLES = (
    (1, 5, 9, 1), (1, 6, 10, -1), (1, 7, 11, 1), (1, 8, 12, 1),
    (2, 5, 10, 1), (2, 6, 9, 1), (2, 7, 12, -1), (2, 8, 11, 1),
    (3, 5, 11, -1), (3, 6, 12, 1), (3, 7, 9, -1), (3, 8, 10, -1),
    (4, 5, 12, -1), (4, 6, 11, -1), (4, 7, 10, 1), (4, 8, 9, -1),
)
_BETA_TRIPLES = ((5, 6, 13, 1), (7, 8, 13, -1), (9, 10, 13, -1), (11, 12, 13, -1))
_GAMMA_TRIPLES_M1 = ((1, 2, 14, 1), (3, 4, 14, -1), (9, 10, 14, 1), (11, 12, 14, -1))

# the quotient by sp(2): a different sign pattern, plus the trivial direction
_M4_C1_TRIPLES = (
    (1, 2, 13, 1), (1, 5, 9, 1), (1, 6, 10, -1), (1, 7, 11, 1), (1, 8, 12, 1),
    (2, 5, 10, 1), (2, 6, 9, 1), (2, 7, 12, -1), (2, 8, 11, 1),
    (3, 4, 13, 1), (3, 5, 11, 1), (3, 6, 12, -1), (3, 7, 9, -1), (3, 8, 10, -1),
    (4, 5, 12, 1), (4, 6, 11, 1), (4, 7, 10, 1), (4, 8, 9, -1),
    (5, 6, 13, -1), (7, 8, 13, -1),
)
_M4_C2_TRIPLES = ((1, 2, 14, 1), (3, 4, 14, 1), (5, 6, 14, 1), (7, 8, 14, 1))


def _table(groups):
    """{(i,j,k) 0-indexed: coefficient} from ((triples, coeff), ...)."""
    out = {}
    for trips, c in groups:
        for i, j, k, s in trips:
            out[(i - 1, j - 1, k - 1)] = s * c
    return out


def m4_p1_lambda_coefficient(p: MetricParams) -> float:
    a, b, g = p.alpha, p.beta, p.gamma
    return (
        (-g * np.sqrt(5 * b) + np.sqrt(3 * g) * b - np.sqrt(3 * g) * a + np.sqrt(5 * b) * a)
        / (np.sqrt(2.0) * a * np.sqrt(b * g))
    )


def m4_pure_sp3_alpha(beta: float, gamma: float) -> float:
    return 0.25 * (np.sqrt(15 * beta * gamma) - beta)


def m4_pure_189_alpha(beta: float, gamma: float) -> float:
    return (9 * beta - np.sqrt(15 * beta * gamma)) / 12.0


@dataclass(frozen=True)
class SpaceFixtures:
    space_id: str
    expected_family_dim: int
    expected_spinor_dim: int
    torsion: callable  # params -> {(i,j,k) 0-indexed: coefficient}
    char_lambda: callable  # params -> {(K index, A index) 0-indexed: coefficient}
    char_feasible: callable  # params -> bool
    ricci_conn: callable  # params -> diag (14,)
    ricci_riem: callable
    scal_conn: callable
    scal_riem: callable
    holonomy: callable  # params -> (dim, label)
    parallel: callable  # params -> bool
    extras: dict = field(default_factory=dict)


def _fixtures_m1():
    def torsion(p):
        a = p.alpha
        return _table(
            (
                (_ALPHA_TRIPLES, 1 / np.sqrt(2 * a)),
                (_BETA_TRIPLES, np.sqrt(p.beta) / a),
                (_GAMMA_TRIPLES_M1, np.sqrt(p.gamma) / a),
            )
        )

    def char_lambda(p):
        a = p.alpha
        return {
            (12, 8): np.sqrt(2.0) * (a - p.beta) / (a * np.sqrt(p.beta)),
            (13, 9): np.sqrt(2.0) * (a - p.gamma) / (a * np.sqrt(p.gamma)),
        }

    def ricci_conn(p):
        a, b, g = p.alpha, p.beta, p.gamma
        return np.array([2 * a - g] * 4 + [2 * a - b] * 4 + [2 * a - b - g] * 4 + [0, 0]) / a**2

    def ricci_riem(p):
        a, b, g = p.alpha, p.beta, p.gamma
        return np.array([6 * a - g] * 4 + [6 * a - b] * 4 + [6 * a - b - g] * 4 + [4 * b, 4 * g]) / (2 * a**2)

    def holonomy(p):
        eb = abs(p.beta - p.alpha) <= _EQUAL_REL * p.alpha
        eg = abs(p.gamma - p.alpha) <= _EQUAL_REL * p.alpha
        return (1 if (eb and eg) else 2 if (eb or eg) else 3, "torus")

    return SpaceFixtures(
        space_id="su4-so2",
        expected_family_dim=98,
        expected_spinor_dim=48,
        torsion=torsion,
        char_lambda=char_lambda,
        char_feasible=lambda p: p.equal_alphas(7),
        ricci_conn=ricci_conn,
        ricci_riem=ricci_riem,
        scal_conn=lambda p: 8 * (3 * p.alpha - p.beta - p.gamma) / p.alpha**2,
        scal_riem=lambda p: 2 * (18 * p.alpha - p.beta - p.gamma) / p.alpha**2,
        holonomy=holonomy,
        parallel=lambda p: True,
    )


def _fixtures_m2():
    def torsion(p):
        a = p.alpha
        return _table(
            (
                (_ALPHA_TRIPLES, 1 / np.sqrt(2 * a)),
                (_BETA_TRIPLES, np.sqrt(p.beta) / a),
            )
        )

    def char_lambda(p):
        a = p.alpha
        return {(12, 8): np.sqrt(2.0) * (a - p.beta) / (a * np.sqrt(p.beta))}

    def ricci_conn(p):
        a, b = p.alpha, p.beta
        return np.array([2 * a] * 4 + [2 * a - b] * 8 + [0, 0]) / a**2

    def ricci_riem(p):
        a, b = p.alpha, p.beta
        return np.array([6 * a] * 4 + [6 * a - b] * 8 + [4 * b, 0]) / (2 * a**2)

    def holonomy(p):
        # computed case split: 2 iff beta = alpha, independent of gamma
        return (2 if abs(p.beta - p.alpha) <= _EQUAL_REL * p.alpha else 3, "torus")

    return SpaceFixtures(
        space_id="u4-so2so2",
        expected_family_dim=30,
        expected_spinor_dim=16,
        torsion=torsion,
        char_lambda=char_lambda,
        char_feasible=lambda p: p.equal_alphas(5),
        ricci_conn=ricci_conn,
        ricci_riem=ricci_riem,
        scal_conn=lambda p: 8 * (3 * p.alpha - p.beta) / p.alpha**2,
        scal_riem=lambda p: 2 * (18 * p.alpha - p.beta) / p.alpha**2,
        holonomy=holonomy,
        parallel=lambda p: True,
        extras={"dirac": lambda p: np.sqrt((p.alpha + 4 * p.beta) / (p.alpha * p.beta))},
    )


def _fixtures_m3():
    def torsion(p):
        return _table(((_ALPHA_TRIPLES, 1 / np.sqrt(2 * p.alpha)),))

    def ricci_conn(p):
        return (2 / p.alpha) * np.array([1.0] * 12 + [0, 0])

    return SpaceFixtures(
        space_id="u4u1-so2so2so2",
        expected_family_dim=18,
        expected_spinor_dim=0,
        torsion=torsion,
        char_lambda=lambda p: {},
        char_feasible=lambda p: p.equal_alphas(5),
        ricci_conn=ricci_conn,
        ricci_riem=lambda p: 1.5 * ricci_conn(p),
        scal_conn=lambda p: 24 / p.alpha,
        scal_riem=lambda p: 36 / p.alpha,
        holonomy=lambda p: (3, "torus"),
        parallel=lambda p: True,
    )


def _fixtures_m4():
    def c1(p):
        return (2 * p.alpha - p.beta) / (2 * p.alpha * np.sqrt(p.beta))

    def c2(p):
        # closed form fitted to the computed torsion and frozen here; it
        # vanishes at the integrable point beta = 2 alpha, gamma = 1.2 alpha
        return (2 * np.sqrt(3.0) * (p.beta - p.alpha) - np.sqrt(5 * p.beta * p.gamma)) / (
            2 * p.alpha * np.sqrt(p.beta)
        )

    def torsion(p):
        return _table(((_M4_C1_TRIPLES, c1(p)), (_M4_C2_TRIPLES, c2(p))))

    def char_lambda(p):
        b = (p.alpha - p.beta) / (p.alpha * np.sqrt(p.beta))
        # the a=c=d=0 slice of the two 4x4 pattern blocks: the second block
        # is a permuted identity, pairing K5..K8 with A17, A18, A15, A16
        out = {(j, 10 + j): b for j in range(4)}
        out.update({(4, 16): b, (5, 17): b, (6, 14): b, (7, 15): b})
        out[(13, 20)] = m4_p1_lambda_coefficient(p)
        return out

    def ricci_conn(p):
        a, b, g = p.alpha, p.beta, p.gamma
        ra = (
            (2 * np.sqrt(15 * b * g) - 11 * b - 5 * g) / (4 * a**2)
            + 21 / (2 * a)
            - 4 / b
            - np.sqrt(15 * g) / (2 * a * np.sqrt(b))
        )
        rb = 2 * (a + b) / (b * a)
        rc = 2 * (b - a) * (3 / (a * b) + np.sqrt(15 * g) / (a**2 * np.sqrt(b)) - 3 / a**2)
        return np.array([ra] * 8 + [rb] * 5 + [rc])

    def ricci_riem(p):
        a, b, g = p.alpha, p.beta, p.gamma
        ra = 10 * a - 1.25 * b - 1.25 * g
        rb = (8 * a**2 + b**2) / b
        return np.array([ra] * 8 + [rb] * 5 + [5 * g]) / (2 * a**2)

    def holonomy(p):
        eb = abs(p.beta - p.alpha) <= _EQUAL_REL * p.alpha
        eg = abs(p.gamma - p.alpha) <= _EQUAL_REL * p.alpha
        if not eb:
            return 21, "sp3"
        return (10, "sp2") if eg else (11, "sp2+w1")

    def parallel(p):
        if abs(p.beta - p.alpha) <= _EQUAL_REL * p.alpha:
            return True
        return (
            abs(p.beta - 2 * p.alpha) <= _EQUAL_REL * p.alpha
            and abs(p.gamma - 1.2 * p.alpha) <= _EQUAL_REL * p.alpha
        )

    def dirac(p):
        a, b, g = p.alpha, p.beta, p.gamma
        num = (
            5 * a**2 * b
            + 3 * a**2 * g
            - 6 * a * b * g
            + 2 * a * np.sqrt(15 * b * g) * (b - a)
            + 28 * b**2 * g
        )
        return 0.5 * np.sqrt(num / (a**2 * b * g))

    return SpaceFixtures(
        space_id="su5-sp2",
        expected_family_dim=7,
        expected_spinor_dim=4,
        torsion=torsion,
        char_lambda=char_lambda,
        char_feasible=lambda p: True,
        ricci_conn=ricci_conn,
        ricci_riem=ricci_riem,
        scal_conn=lambda p: float(np.sum(ricci_conn(p))),
        scal_riem=lambda p: 5
        * (16 * p.alpha * p.beta - p.beta * p.gamma - p.beta**2 + 8 * p.alpha**2)
        / (2 * p.alpha**2 * p.beta),
        holonomy=holonomy,
        parallel=parallel,
        extras={"dirac": dirac},
    )


_FIXTURES = {
    "su4-so2": _fixtures_m1,
    "u4-so2so2": _fixtures_m2,
    "u4u1-so2so2so2": _fixtures_m3,
    "su5-sp2": _fixtures_m4,
}


def fixtures(space_id: str) -> SpaceFixtures:
    return _FIXTURES[canonical_id(space_id)]()
