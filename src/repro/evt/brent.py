"""Brent's root finder, ported from SciPy.

The profile-likelihood MLE (:mod:`repro.evt.mle`) solves the Weibull
shape equation and the profile derivative with a bracketing root
finder, and the moments fit (:mod:`repro.evt.fitting`) solves its shape
equation with it too.  :func:`brentq` ports SciPy's ``brentq`` (the C
loop of ``scipy/optimize/Zeros/brentq.c`` and the NaN, sign and
non-convergence errors of its Python wrapper).  It does the same IEEE
double operations in the same order, so it returns SciPy's doubles
(``tests/evt/test_brent.py`` compares them on the fitter's own
brackets) without importing ``scipy.optimize``, which the estimator's
default path then never loads.

One addition: :func:`brentq` takes the function values at the bracket
ends (``fa``/``fb``) when the caller has already computed them.

The ported code is under SciPy's licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional

__all__ = ["brentq"]

# scipy.optimize.brentq's defaults.
_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _cdiv(n: float, d: float) -> float:
    """C's ``n / d``: a zero divisor gives ±inf or NaN, not an exception."""
    try:
        return n / d
    except ZeroDivisionError:
        if n != n or n == 0.0:
            return math.nan
        return math.copysign(math.inf, n) * math.copysign(1.0, d)


def brentq(
    f: Callable[..., float],
    a: float,
    b: float,
    args: tuple = (),
    xtol: float = _XTOL,
    rtol: float = _RTOL,
    maxiter: int = _MAXITER,
    fa: Optional[float] = None,
    fb: Optional[float] = None,
) -> float:
    """A root of ``f`` in ``[a, b]``: ``scipy.optimize.brentq``, bit for bit.

    ``fa`` and ``fb``, when given, must be ``f(a, *args)`` and
    ``f(b, *args)``; they spare those two evaluations.

    Raises
    ------
    ValueError
        When ``f`` is NaN at a point (``fa``/``fb`` included), when
        ``f(a)`` and ``f(b)`` have the same sign, or on a non-positive
        ``xtol`` or an ``rtol`` below ``4·eps``.
    RuntimeError
        When ``maxiter`` iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def checked(x: float, fx: float) -> float:
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    fpre = checked(xpre, f(xpre, *args) if fa is None else fa)
    fcur = checked(xcur, f(xcur, *args) if fb is None else fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # The root lies between xcur and xblk; xcur is the best estimate
        # and xpre the previous one.
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _cdiv(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _cdiv(fpre - fcur, xpre - xcur)
                dblk = _cdiv(fblk - fcur, xblk - xcur)
                stry = _cdiv(
                    -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
                )
            # C's MIN(p, q) is p < q ? p : q, which differs from min() on NaN.
            p, q = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (p if p < q else q):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur, f(xcur, *args))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")

