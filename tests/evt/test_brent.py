"""The in-repo Brent root finder returns scipy.optimize's doubles.

scipy's ``brentq`` is the reference: every case runs both on the same
function and requires the same root or the same exception type.  The
brackets are the fitter's own: the Weibull shape equation of
``_solve_shape`` and the profile derivative around the best offset of
the coarse μ grid.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from repro.errors import FitError
from repro.evt import mle
from repro.evt.brent import brentq


def _root(solver, f, a, b, **kwargs):
    try:
        return ("root", float(solver(f, a, b, **kwargs)))
    except (ValueError, RuntimeError, FitError) as exc:
        return ("raised", type(exc))


def _sample(rng: np.random.Generator) -> np.ndarray:
    """Block maxima like the fitter sees: reversed Weibull, normal maxima
    or Gumbel, m from 3 to 40, in watts or unit scale."""
    m = int(rng.integers(3, 41))
    family = int(rng.integers(3))
    if family == 0:
        x = 5.0 - rng.weibull(float(np.exp(rng.uniform(-0.7, 4.4))), m)
    elif family == 1:
        x = rng.normal(size=(m, int(rng.integers(5, 60)))).max(axis=1)
    else:
        x = rng.gumbel(size=m)
    return x * (1e-3, 1.0)[int(rng.integers(2))]


def _grid(x: np.ndarray):
    """``(top, spread, offsets, best)``: the fitter's default μ grid and
    the index of its best offset by the vectorised pass."""
    top, spread = float(x.max()), float(np.ptp(x))
    offsets = np.geomspace(1e-4 * spread, 10.0 * spread, 80)
    with np.errstate(all="ignore"):
        lls, _, _ = mle._grid_profile(top + offsets, x)
    return top, spread, offsets, int(np.nanargmax(lls))


class TestBrentq:
    def test_shape_equation_brackets(self):
        """10,000 shape equations of normalised ``y``, bracket ends
        ``1e-6`` and 8–128, with and without the end values."""
        rng = np.random.default_rng(1998)
        roots = 0
        for case in range(10_000):
            x = _sample(rng)
            spread = float(np.ptp(x))
            y = x.max() + spread * 10.0 ** rng.uniform(-4.0, 1.0) - x
            y = y / y.max()
            ln_y = np.log(y)
            args = (y, ln_y, float(np.add.reduce(ln_y) / y.size))
            f = mle._weibull_shape_equation
            lo, hi = 1e-6, float(np.exp(rng.uniform(math.log(8.0), math.log(128.0))))
            expected = _root(optimize.brentq, f, lo, hi, args=args, xtol=1e-12)
            got = _root(brentq, f, lo, hi, args=args, xtol=1e-12)
            given = _root(
                brentq, f, lo, hi, args=args, xtol=1e-12,
                fa=f(lo, *args), fb=f(hi, *args),
            )
            assert got == expected == given, (case, y.tolist(), hi)
            roots += expected[0] == "root"
        assert roots > 5_000

    def test_profile_derivative_brackets(self):
        """1,000 derivative roots around the best grid offset, and around
        a random one (mostly same-sign ends), at the fitter's tolerance."""
        rng = np.random.default_rng(22)
        roots = 0
        for case in range(500):
            x = _sample(rng)
            top, spread, offsets, best = _grid(x)

            def dll(off):
                return mle._profile_dll(
                    top + off, x, mle._profile_loglik(top + off, x)
                )

            for i in (best, int(rng.integers(80))):
                lo = offsets[max(i - 1, 0)]
                hi = offsets[min(i + 1, 79)]
                kwargs = dict(xtol=1e-13 * spread)
                expected = _root(optimize.brentq, dll, lo, hi, **kwargs)
                got = _root(brentq, dll, lo, hi, **kwargs)
                assert got == expected, (case, x.tolist(), i)
                if expected[0] == "root":
                    roots += 1
                    given = _root(brentq, dll, lo, hi, fa=dll(lo), fb=dll(hi), **kwargs)
                    assert given == expected, (case, x.tolist(), i)
        assert roots > 200

    @pytest.mark.parametrize(
        "f, a, b, kwargs",
        [
            (lambda x: x - 1.0, 1.0, 2.0, {}),  # root exactly at a
            (lambda x: x - 1.0, 0.0, 1.0, {}),  # root exactly at b
            (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # same sign at both ends
            (lambda x: math.nan if x < 0 else x - 1.0, -1.0, 2.0, {}),  # NaN at a
            (lambda x: math.nan if x > 1.5 else x - 1.0, 0.0, 2.0, {}),  # NaN at b
            (lambda x: math.nan if 0.1 < x < 1.9 else x - 1.0, 0.0, 2.0, {}),
            (lambda x: x**3 - 2.0, 0.0, 2.0, {"maxiter": 2}),  # runs out
            (lambda x: x**3 - 2.0, 0.0, 2.0, {"maxiter": 0}),
            (lambda x: x**3 - 2.0, 0.0, 2.0, {"xtol": 0.0}),
            (lambda x: x**3 - 2.0, 0.0, 2.0, {"rtol": 1e-17}),
            (lambda x: math.copysign(1.0, x - 0.3), 0.0, 1.0, {}),  # a step
            (lambda x: (x - 0.7) ** 9, 0.0, 1.0, {}),  # flat near the root
            # Slopes so small their product underflows: C divides by zero.
            (lambda x: 1e-200 * (x**3 - 2.0), 0.0, 2.0, {}),
        ],
        ids=[
            "root-at-a", "root-at-b", "same-sign", "nan-at-a", "nan-at-b",
            "nan-inside", "maxiter", "maxiter-0", "xtol", "rtol", "step", "flat",
            "tiny-slopes",
        ],
    )
    def test_edge_cases(self, f, a, b, kwargs):
        expected = _root(optimize.brentq, f, a, b, **kwargs)
        assert _root(brentq, f, a, b, **kwargs) == expected
        if "xtol" not in kwargs and "rtol" not in kwargs:
            given = _root(brentq, f, a, b, fa=f(a), fb=f(b), **kwargs)
            assert given == expected

    def test_nan_end_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: x - 1.0, 0.0, 2.0, fa=math.nan)
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: x - 1.0, 0.0, 2.0, fb=math.nan)

