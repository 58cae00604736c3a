"""The package's Brent root finder against scipy.optimize.brentq.

experiments._brentq ports scipy's brentq.c so that importing the package
skips scipy.optimize; every root the campaigns take must keep scipy's
bytes.  The grid covers the echo campaign's predicted-time roots, the
dissipation surrogate's half-life roots and seeded random cubics.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from vpfp import experiments
from vpfp.experiments import _brentq, surrogate_half_life
from vpfp.semigroup import eta_ct


def same_outcome(f, a, b, **kw):
    """Assert the port and scipy return the same bytes or raise the same
    exception type; return the root, or None when both raised."""
    try:
        want = optimize.brentq(f, a, b, **kw)
    except (ValueError, RuntimeError) as err:
        with pytest.raises(type(err)):
            _brentq(f, a, b, **kw)
        return None
    got = _brentq(f, a, b, **kw)
    assert float(got).hex() == float(want).hex()
    return got


@pytest.mark.parametrize("nu", [float(v) for v in np.geomspace(1e-9, 3e-2, 15)])
def test_echo_predicted_time_roots(nu):
    # the echo campaign's bracket and function, at every seed position the
    # campaigns reach; nu * eta_star >= 1 leaves no root (echo writes NaN)
    roots = 0
    for j in range(4, 15):
        eta_star = 2.0 ** (j / 2)
        got = same_outcome(lambda t: eta_ct(t, 1, nu) - eta_star,
                           1e-9, 6.0 * eta_star)
        if nu * eta_star >= 1.0:
            assert got is None
        roots += got is not None
    assert roots > 0


@pytest.mark.parametrize("k", range(1, 9))
def test_surrogate_half_life_roots(monkeypatch, k):
    nus = [float(v) for v in np.geomspace(1e-6, 1e-3, 7)]
    got = [surrogate_half_life(k, nu) for nu in nus]
    monkeypatch.setattr(experiments, "_brentq", optimize.brentq)
    want = [surrogate_half_life(k, nu) for nu in nus]
    assert [g.hex() for g in got] == [float(w).hex() for w in want]


def test_random_cubics():
    rng = np.random.default_rng(20171019)
    roots = 0
    for _ in range(400):
        c = rng.normal(size=4)
        a, b = sorted(rng.uniform(-4.0, 4.0, size=2))
        f = lambda x, c=c: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]
        roots += same_outcome(f, a, b) is not None
    assert roots > 100


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_nan_value_raises():
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)


def test_maxiter_raises():
    f = lambda x: x ** 3 - 2.0
    with pytest.raises(RuntimeError):
        optimize.brentq(f, 0.0, 4.0, maxiter=2)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(f, 0.0, 4.0, maxiter=2)
    assert same_outcome(f, 0.0, 4.0) == pytest.approx(2.0 ** (1 / 3))


def test_endpoint_roots_returned_as_given():
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
