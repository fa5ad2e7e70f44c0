"""The four 14-dimensional homogeneous spaces of the catalog, parameterized
by their invariant-metric coefficients, plus closed-form expected values
(torsion tables, Ricci diagonals, holonomy cases, spectra) used by the
verification suite.

Space identifiers (with the short aliases M1..M4):

  su4-so2         M1   su(4)          / so(2)
  u4-so2so2       M2   u(4)           / so(2)+so(2)
  u4u1-so2so2so2  M3   u(4)+u(1)      / so(2)^3
  su5-sp2         M4   su(5)          / sp(2)

Conventions: each space is one fixed reductive split k = h + m with a
metric-free frame (``_Frame``): the tangent frame with the base norms of
its vectors, the metric slot of each vector and the isotropy basis.  A
metric only rescales the frame slot by slot (K_i = Khat_i / sigma_i,
sigma_i the square root of the coefficient of K_i's slot, e.g.
1/sqrt(2*alpha) for a root vector), so every frame is orthonormal for its
metric; each frame is identified with the fixed basis B of the
14-dimensional module (isotropy then lands inside rho(sp3)).  The isotropy
does not depend on the metric and the bracket tables only rescale, so
``build`` assembles each space once per process, at the unit metric, and
rescales it.

M1-M3 share one su(4) root frame, stated once in ``_ROOT_TABLE``: the six
root planes in frame order, and for each space the metric slot of each of
the 12 root vectors and the beta, gamma and isotropy directions as signs on
e1..e4.  M3 is the M2 frame inside u(5) with its beta direction moved to
the u(1) factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import sp3
from .errors import BadParams, StructureViolation
from .liealg import CoordinateFrame, isotropy_matrices, pair_brackets, split_coords
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

    def equals_alpha(self, x: float, c: float = 1.0) -> bool:
        """Whether x = c * alpha, up to ``_EQUAL_REL * alpha``."""
        return abs(x - c * self.alpha) <= _EQUAL_REL * self.alpha

    def equal_alphas(self, count: int) -> bool:
        return all(self.equals_alpha(a) for a in self.filled_alphas(count))


@dataclass
class HomogeneousSpaceInstance:
    """A space at fixed parameters, as the tables every later stage reads:
    the isotropy in its orthonormal tangent frame K and the brackets of K."""

    space_id: str
    iso: np.ndarray  # (r, 14, 14) real isotropy matrices, one per h generator
    pm: np.ndarray  # pm[i, j] = m-coordinates of [K_i, K_j]
    ph: np.ndarray  # ph[i, j] = h-coordinates of [K_i, K_j]
    # isotropy results per (stage, tol); every build of a catalog space
    # holds its unit metric's dict (see ``build``)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def isotropy_result(self, stage: str, tol: ToleranceProfile, compute):
        """``compute()``, memoized per (stage, tol) in ``_memo``, which the
        builds of a catalog space share, so every metric of it gets the
        same (read-only) result.  Only for results that depend on the
        isotropy alone."""
        key = (stage, tol)
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


class _Frame(NamedTuple):
    """The metric-free frame of a catalog space.  At metric coefficients c
    (alpha, the extra alphas, beta, gamma) its tangent frame is
    K_i = K[i] / sqrt(nu2[i] c[slot[i]]), orthonormal for that metric; at
    the unit metric it is the base-orthonormal frame, and the metric only
    rescales it slot by slot.  Read-only arrays, built once per process
    (``_frame``)."""

    K: np.ndarray  # (14, n, n) tangent frame, unnormalized
    nu2: np.ndarray  # (14,) base norm^2 of each K[i]
    H: np.ndarray  # (r, n, n) isotropy basis
    slot: np.ndarray  # (14,) index of each K[i]'s metric coefficient


# The su(4) root frame of M1-M3.  Root plane (i, j) gives the root vectors
# E_ij and i S_ij (base norm^2 2); K_13 and K_14 are i diag(signs) (base
# norm^2 4) for the beta and gamma signs, and each isotropy row gives
# (i/2) diag(signs).  Root vector k has metric slot slot[k] (coefficient
# alpha for slot 0, alpha_(s+1) for slot s); beta and gamma come last.
_ROOT_PLANES = ((1, 3), (2, 4), (2, 3), (1, 4), (1, 2), (3, 4))
_ROOTS = read_only(np.array([m for i, j in _ROOT_PLANES for m in (E(4, i, j), 1j * S(4, i, j))]))
_ROOT_TABLE = {
    # space: (slot of each root vector, beta signs, gamma signs, isotropy rows)
    "su4-so2": ((0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7),
                (1, -1, 1, -1), (-1, 1, 1, -1), ((1, 1, -1, -1),)),
    "u4-so2so2": ((0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5),
                  (1, -1, 1, -1), (1, 1, 1, 1), ((1, 1, -1, -1), (-1, 1, 1, -1))),
}


def _root_frame(sid: str) -> _Frame:
    slots, beta, gamma, iso = _ROOT_TABLE[sid]
    return _Frame(
        K=np.concatenate([_ROOTS, [1j * np.diag(beta), 1j * np.diag(gamma)]]),
        nu2=np.array([2.0] * 12 + [4.0, 4.0]),
        H=np.array([0.5j * np.diag(row) for row in iso]),
        slot=np.array(slots + (max(slots) + 1, max(slots) + 2)),
    )


def _embed5(X) -> np.ndarray:
    """A stack of 4x4 matrices in the upper-left block of 5x5 ones."""
    out = np.zeros((len(X), 5, 5), dtype=complex)
    out[:, :4, :4] = X
    return out


def _u4u1_frame() -> _Frame:
    # the u(4) frame inside u(5), but the beta direction moves to the u(1)
    # factor and the su(4) diagonal it held joins the isotropy
    f = _root_frame("u4-so2so2")
    K = _embed5(f.K)
    K[12] = 0
    K[12, 4, 4] = 1j
    nu2 = f.nu2.copy()
    nu2[12] = 1.0
    beta = _ROOT_TABLE["u4-so2so2"][1]
    return _Frame(K, nu2, _embed5(np.concatenate([f.H, [0.5j * np.diag(beta)]])), f.slot)


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


def _su5_frame() -> _Frame:
    """Tangent frame of the quotient by sp(2), pulled back from the fixed
    complement basis B through the sp(3)-complement projection."""
    data = sp3.load()
    basis = np.array(_su5_basis())
    sp2 = data.A[:10]
    # X in su(5) with <X, A_i> = 0 (i<=10) and <X, B_j> = delta: one linear solve
    G = -np.einsum("rab,cba->rc", np.concatenate([sp2, data.B]), basis).real
    rhs = np.zeros((24, 14))
    rhs[10:, :] = np.eye(14)
    X = np.linalg.solve(G, rhs)  # coefficient columns over the su(5) basis
    khat = np.tensordot(X.T, basis, axes=1)
    # the norms must agree inside each isotypic block (slot)
    norms = -np.einsum("kab,kba->k", khat, khat).real
    slot = np.repeat([0, 1, 2], [8, 5, 1])
    nu2 = norms[[0, 8, 13]][slot]
    if np.max(np.abs(norms - nu2)) > 1e-10:
        raise StructureViolation("unequal norms inside an isotypic block")
    return _Frame(khat, nu2, np.array(sp2), slot)


_FRAME_BUILDERS = {
    "su4-so2": functools.partial(_root_frame, "su4-so2"),
    "u4-so2so2": functools.partial(_root_frame, "u4-so2so2"),
    "u4u1-so2so2so2": _u4u1_frame,
    "su5-sp2": _su5_frame,
}


@functools.lru_cache(maxsize=None)
def _frame(sid: str) -> _Frame:
    f = _FRAME_BUILDERS[sid]()
    for a in (f.K, f.nu2, f.H, f.slot):
        read_only(a)
    return f


def _coefficients(sid: str, params: MetricParams) -> np.ndarray:
    """The metric coefficient of each frame vector of ``sid``: alpha, the
    extra alphas, beta and gamma, read through the frame's slots."""
    c = (params.alpha, *params.filled_alphas(_EXTRA_ALPHAS[sid]), params.beta, params.gamma)
    return np.array(c, dtype=float)[_frame(sid).slot]


def frames(space_id: str, params: MetricParams):
    """(K, H, c) of a catalog space at ``params``: the tangent frame,
    orthonormal for the metric, the isotropy basis (read-only) and the
    (14,) metric coefficient of each frame vector, so that sqrt(c) K is
    base-orthonormal.  ``assemble`` takes K and H."""
    sid = canonical_id(space_id)
    f, c = _frame(sid), _coefficients(sid, params)
    return f.K / np.sqrt(f.nu2 * c)[:, None, None], f.H, c


def assemble(label: str, K, H, tol: ToleranceProfile = DEFAULT_TOL) -> HomogeneousSpaceInstance:
    """Assemble an instance labelled ``label`` from explicit frames: the
    (14, n, n) tangent frame K, orthonormal for the metric, and the
    (r, n, n) isotropy basis H (also usable for custom quotients beyond
    the catalog, as long as the 14-dim frame carries the same structure).
    ``build`` rescales the assembled unit-metric space instead; this is the
    route for custom frames and the reference for ``build``.

    Checks that [h, m] lies in m and each [K_i, K_j] in h + m (NotReductive
    otherwise) and the isotropy in rho(sp3) (StructureViolation otherwise),
    up to round-off of the operands; the orthonormality of the frame is
    not checked.
    """
    n, r = len(K), len(H)
    frame = CoordinateFrame(np.concatenate([H, K]))
    iso = isotropy_matrices(frame, r, tol)
    _, resid = sp3.load().project_rho(iso)
    bad = np.flatnonzero(tol.exceeds(resid, np.linalg.norm(iso, axis=(1, 2))))
    if bad.size:
        raise StructureViolation(
            f"{label}: isotropy leaves rho(sp3) (residual {resid[bad[0]]:.3e})"
        )
    i, j, br, scale = pair_brackets(K)
    ch, cm = split_coords(frame, r, br, scale, tol)
    pm = np.zeros((n, n, n))
    ph = np.zeros((n, n, r))
    pm[i, j], pm[j, i] = cm, -cm
    ph[i, j], ph[j, i] = ch, -ch
    return HomogeneousSpaceInstance(space_id=label, iso=iso, pm=pm, ph=ph)


@functools.lru_cache(maxsize=None)
def _unit_metric_space(sid: str, tol: ToleranceProfile) -> HomogeneousSpaceInstance:
    """The catalog space at ``MetricParams()``, assembled from its frames,
    with read-only isotropy: every build of ``sid`` at ``tol`` rescales its
    tables and shares its isotropy results, once per process."""
    K, H, _ = frames(sid, MetricParams())
    space = assemble(sid, K, H, tol)
    read_only(space.iso)
    return space


def build(space_id: str, params: MetricParams, tol: ToleranceProfile = DEFAULT_TOL) -> HomogeneousSpaceInstance:
    """Construct a catalog space at concrete parameters by rescaling the
    space at the unit metric; no frame is formed.  With sigma_i the square
    root of the coefficient of K_i's slot, K_i = Khat_i / sigma_i for the
    unit-metric frame Khat, so the bracket tables are pm_ijk = pmhat_ijk
    sigma_k / (sigma_i sigma_j) and ph_ijr = phhat_ijr / (sigma_i sigma_j),
    and the isotropy is iso_rkj sigma_k / sigma_j.  That is the unit
    metric's isotropy (whose read-only array the build takes) unless H
    rotates frame vectors of slots with unequal coefficients: the build
    checks max |iso sigma_k / sigma_j - iso| over the entries of iso above
    round-off of max |iso| against max |iso| (StructureViolation "isotropy
    depends on the metric" otherwise).  The build then shares the unit
    metric's isotropy results (its ``_memo``), so the family and the
    invariant spinors are solved once per space and tolerance profile in a
    process."""
    sid = canonical_id(space_id)
    unit = _unit_metric_space(sid, tol)
    sigma = np.sqrt(_coefficients(sid, params))
    amax = np.max(np.abs(unit.iso))
    held = np.abs(unit.iso) > tol.round_off(amax, 14, 14)
    dev = np.max(np.abs(unit.iso * (sigma[:, None] / sigma) - unit.iso)[held], initial=0.0)
    if tol.exceeds(dev, amax):
        raise StructureViolation(f"{sid}: isotropy depends on the metric (deviation {dev:.3e})")
    inv = 1.0 / np.outer(sigma, sigma)[:, :, None]
    space = HomogeneousSpaceInstance(space_id=sid, iso=unit.iso, pm=unit.pm * (inv * sigma), ph=unit.ph * inv)
    space._memo = unit._memo
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


class SpaceFixtures(NamedTuple):
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
    extras: dict = MappingProxyType({})  # read-only, shared by every record that leaves it out


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
        eb, eg = p.equals_alpha(p.beta), p.equals_alpha(p.gamma)
        return (1 if (eb and eg) else 2 if (eb or eg) else 3, "torus")

    return SpaceFixtures(
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
        return (2 if p.equals_alpha(p.beta) else 3, "torus")

    return SpaceFixtures(
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
        eb, eg = p.equals_alpha(p.beta), p.equals_alpha(p.gamma)
        if not eb:
            return 21, "sp3"
        return (10, "sp2") if eg else (11, "sp2+w1")

    def parallel(p):
        return p.equals_alpha(p.beta) or (p.equals_alpha(p.beta, 2) and p.equals_alpha(p.gamma, 1.2))

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
