import numpy as np
import pytest

from gstruct import spaces
from gstruct.analysis import analyze

_cache = {}


def pipeline(sid, alpha=1.0, beta=1.0, gamma=1.0, alphas=()):
    """Build-and-solve cache shared across test modules: `analyze` with the
    later stages off (conn is None off the feasibility locus)."""
    sid = spaces.ALIASES.get(sid, sid)
    key = (sid, alpha, beta, gamma, tuple(alphas))
    if key not in _cache:
        p = spaces.MetricParams(alpha=alpha, alphas=tuple(alphas), beta=beta, gamma=gamma)
        a = analyze(sid, p, holonomy=False, curvature=False, spin=False)
        _cache[key] = {"params": p, "space": a.space, "family": a.family, "conn": a.conn}
    return _cache[key]


def draws(sid, count, seed, lo=0.55, hi=1.9):
    """Deterministic positive (alpha, beta, gamma) samples per space."""
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in rng.uniform(lo, hi, 3)) for _ in range(count)]


@pytest.fixture(scope="session")
def sp3_data():
    from gstruct import sp3

    return sp3.load()
