"""The Nelder–Mead simplex minimiser, ported from SciPy.

The GPD maximum-likelihood fit (:func:`repro.evt.gpd.fit_gpd_mle`)
minimises its negative log-likelihood over ``(ξ, ln σ)`` with
Nelder–Mead.  :func:`minimize_neldermead` ports the branch of
``_minimize_neldermead`` (``scipy/optimize/_optimize.py``) that
``minimize(method="Nelder-Mead")`` runs for that fit: two parameters,
no bounds, SciPy's default initial simplex, ``adaptive=False``, no
callback, ``maxiter`` given and ``maxfev`` not (so evaluations are
unbounded).  It does the same IEEE double operations in the same order
on plain floats, so it returns SciPy's point, value, iteration and
evaluation counts (``tests/evt/test_nelder_mead.py`` compares all five
on the fitter's own objective) without importing ``scipy.optimize``.

SciPy orders the vertices with ``np.argsort``, whose default sort is
not stable (on AVX-512 hosts tied values can come back in another
order).  Values that are distinct and not NaN have only one ascending
order, so those are sorted here in Python; ties and NaNs still go
through ``np.argsort``, which keeps them in SciPy's order.

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
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = ["NelderMeadResult", "minimize_neldermead"]

Point = Tuple[float, float]


class NelderMeadResult(NamedTuple):
    """``x``, ``fun``, ``nit``, ``nfev`` and ``success`` of SciPy's
    ``OptimizeResult``; ``success`` is false when ``maxiter`` ran out."""

    x: Point
    fun: float
    nit: int
    nfev: int
    success: bool


def _order(sim: List[Point], fsim: List[float]) -> Tuple[list, list]:
    """The vertices and their values in ``np.argsort(fsim)`` order."""
    f0, f1, f2 = fsim
    if f0 < f1 < f2:
        return sim, fsim
    if f0 != f1 and f1 != f2 and f0 != f2 and not math.isnan(f0 + f1 + f2):
        ind = sorted(range(3), key=fsim.__getitem__)
    else:
        ind = np.argsort(fsim).tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def minimize_neldermead(
    func: Callable[[Point], float],
    x0: Sequence[float],
    *,
    maxiter: int,
    xatol: float = 1e-4,
    fatol: float = 1e-4,
) -> NelderMeadResult:
    """Minimum of ``func`` over two parameters, started at ``x0``.

    ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter})``,
    bit for bit.  ``func`` takes a pair of floats and returns a float;
    it may return ``inf`` or NaN where it is undefined.

    Raises
    ------
    ValueError
        When ``x0`` does not hold exactly two values.
    """
    if len(x0) != 2:
        raise ValueError("this Nelder-Mead port takes two parameters")
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    p, q = float(x0[0]), float(x0[1])
    sim = [
        (p, q),
        ((1 + nonzdelt) * p if p != 0 else zdelt, q),
        (p, (1 + nonzdelt) * q if q != 0 else zdelt),
    ]
    fsim = [func(v) for v in sim]
    nfev = 3
    # SciPy sorts the first simplex twice; an unstable sort may permute
    # tied values again.
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        (b0, b1), (m0, m1), (w0, w1) = sim  # best, middle, worst
        if (
            abs(m0 - b0) <= xatol
            and abs(m1 - b1) <= xatol
            and abs(w0 - b0) <= xatol
            and abs(w1 - b1) <= xatol
            and abs(fsim[0] - fsim[1]) <= fatol
            and abs(fsim[0] - fsim[2]) <= fatol
        ):
            break

        # np.add.reduce(sim[:-1], 0) / N sums each column from 0.0.
        c0 = (0.0 + b0 + m0) / 2
        c1 = (0.0 + b1 + m1) / 2
        xr = ((1 + rho) * c0 - rho * w0, (1 + rho) * c1 - rho * w1)
        fxr = func(xr)
        nfev += 1
        doshrink = False

        if fxr < fsim[0]:
            xe = (
                (1 + rho * chi) * c0 - rho * chi * w0,
                (1 + rho * chi) * c1 - rho * chi * w1,
            )
            fxe = func(xe)
            nfev += 1
            if fxe < fxr:
                sim[2], fsim[2] = xe, fxe
            else:
                sim[2], fsim[2] = xr, fxr
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        elif fxr < fsim[2]:
            # contraction
            xc = (
                (1 + psi * rho) * c0 - psi * rho * w0,
                (1 + psi * rho) * c1 - psi * rho * w1,
            )
            fxc = func(xc)
            nfev += 1
            if fxc <= fxr:
                sim[2], fsim[2] = xc, fxc
            else:
                doshrink = True
        else:
            # inside contraction
            xcc = ((1 - psi) * c0 + psi * w0, (1 - psi) * c1 + psi * w1)
            fxcc = func(xcc)
            nfev += 1
            if fxcc < fsim[2]:
                sim[2], fsim[2] = xcc, fxcc
            else:
                doshrink = True

        if doshrink:
            for j in (1, 2):
                v0, v1 = sim[j]
                sim[j] = (b0 + sigma * (v0 - b0), b1 + sigma * (v1 - b1))
                fsim[j] = func(sim[j])
                nfev += 1
        iterations += 1
        sim, fsim = _order(sim, fsim)

    return NelderMeadResult(
        x=sim[0],
        fun=float(np.min(fsim)),
        nit=iterations,
        nfev=nfev,
        success=iterations < maxiter,
    )
