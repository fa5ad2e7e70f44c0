import numpy as np
import pytest

from gstruct import connections as con
from gstruct import spaces

_cache = {}


def pipeline(sid, alpha=1.0, beta=1.0, gamma=1.0, alphas=(), want_char=True):
    """Build-and-solve cache shared across test modules."""
    sid = spaces.ALIASES.get(sid, sid)
    key = (sid, alpha, beta, gamma, tuple(alphas), want_char)
    if key not in _cache:
        p = spaces.MetricParams(alpha=alpha, alphas=tuple(alphas), beta=beta, gamma=gamma)
        space = spaces.build(sid, p)
        fam = con.solve_equivariant(space)
        conn = con.characteristic_connection(space, fam) if want_char else None
        _cache[key] = {"params": p, "space": space, "family": fam, "conn": conn}
    return _cache[key]


def draws(sid, count, seed, lo=0.55, hi=1.9):
    """Deterministic positive (alpha, beta, gamma) samples per space."""
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in rng.uniform(lo, hi, 3)) for _ in range(count)]


@pytest.fixture(scope="session")
def sp3_data():
    from gstruct import sp3

    return sp3.load()
