"""Maximum-likelihood estimation of the generalized Weibull parameters.

This is the estimator of paper §2.2/§3.2: given block maxima
``x_1..x_m`` assumed to follow ``G(x; α, β, μ) = exp(−β(μ−x)^α)``, find
``(α̂, β̂, μ̂)`` maximizing the likelihood.  Smith (1985) shows the MLE
exists and is asymptotically normal when ``α > 2`` — the paper argues
this always holds when the sample size n is much smaller than |V|.

Implementation: with ``y_i = μ − x_i`` the model is an ordinary Weibull
in ``y``, so for fixed ``μ`` the inner problem has the classical
solution (1-D monotone shape equation + closed-form scale).  We profile
the log-likelihood over ``μ`` on a fixed log-spaced grid of offsets
above ``max(x)`` (``_GRID_POINTS`` from ``_MIN_OFFSET_FRAC`` to
``_MU_SPAN`` times ``range(x)``), then refine, which is robust for the
small ``m`` (≈10) the paper uses — exactly where naive 3-D
optimization and curve fitting get unstable (§3.1).

The refinement has one rule: the root of the profile derivative when
it changes sign across the offsets around the best one, else that grid
point.  At an end of the search (the last offset, or the first whose
``μ`` leaves ``max(x)``) the profile then still rises toward the limit
(``α̂ → ∞`` at the top, ``α̂ < 1`` at the bottom).

The coarse grid is valued in one vectorised pass (:func:`_grid_profile`)
whose values only choose candidates: every offset near the best value,
and every offset the pass cannot vouch for, is re-evaluated exactly on
the scalar path, so the best grid offset and the refinement bracket
are those a scalar scan of the whole grid gives.

An exact profile solves its shape equation by safeguarded Newton on
``ln a`` from a known root (:func:`_newton_shape`): a re-evaluated grid
row from the root the pass found for it, a root-path point from the
root at the nearest offset solved so far.  Without a start, or when
Newton gives up, the cold Brent solve runs.  Fits thus match the cold
solves' up to rounding, not bit for bit (``μ̂ − max(x)`` and ``α̂``
within ``1e-8``, the log-likelihood within ``1e-12`` relative).  The
cold shape solve and the derivative root use
:func:`~repro.evt.brent.brentq`, a port of scipy's ``brentq`` that
returns scipy's doubles, so a fit imports no scipy.

Also provided: an observed-information covariance estimate of
``(α̂, β̂, μ̂)`` (the paper's ``VAR`` matrix, Eqn. 3.4) and a scipy
cross-check fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import EstimationError, FitError
from ..obs.spans import get_span_recorder
from .brent import brentq
from .distributions import GeneralizedWeibull

__all__ = ["WeibullFit", "fit_weibull_mle", "fit_weibull_mle_scipy", "fisher_covariance"]

_SPANS = get_span_recorder()


@dataclass(frozen=True)
class WeibullFit:
    """Result of a generalized-Weibull fit.

    Attributes
    ----------
    distribution:
        The fitted :class:`~repro.evt.distributions.GeneralizedWeibull`.
    loglik:
        Total log-likelihood at the optimum.
    method:
        Which fitter produced it (``"profile-mle"``, ``"scipy-mle"``,
        ``"lsq"``, ``"moments"``).
    shape_gt2:
        Whether ``α̂ > 2`` — the regularity condition under which the
        paper's normality theory (Theorems 3–4) applies.
    """

    distribution: GeneralizedWeibull
    loglik: float
    method: str
    shape_gt2: bool

    @property
    def alpha(self) -> float:
        return self.distribution.alpha

    @property
    def beta(self) -> float:
        return self.distribution.beta

    @property
    def mu(self) -> float:
        """The estimated right endpoint (maximum power)."""
        return self.distribution.mu

    def quantile(self, q: float) -> float:
        return float(self.distribution.ppf(q))

    def to_dict(self) -> dict:
        """Versioned JSON-able form (see :mod:`repro.schemas`)."""
        from ..schemas import dump_weibull_fit

        return dump_weibull_fit(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WeibullFit":
        from ..schemas import load_weibull_fit

        return load_weibull_fit(data)


def _validate_sample(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise FitError("sample must be 1-D", cause="bad-shape")
    if x.size < 3:
        raise FitError(
            f"need at least 3 block maxima, got {x.size}", cause="too-few"
        )
    if not np.isfinite(x).all():
        raise FitError("sample contains non-finite values", cause="non-finite")
    if np.ptp(x) <= 0:
        raise FitError(
            "degenerate sample: all block maxima are equal", cause="degenerate"
        )
    return x


#: The μ search: log-spaced offsets above ``max(x)`` over
#: ``[_MIN_OFFSET_FRAC, _MU_SPAN]·range(x)``; the smallest keeps the
#: non-regular boundary at bay.
_MU_SPAN = 10.0
_GRID_POINTS = 80
_MIN_OFFSET_FRAC = 1e-4

#: Limits of the scalar shape solve: :func:`_solve_shape` returns its
#: lower limit when the root lies below it, and fails when ``g`` is
#: still negative at its last bracket end.
_SHAPE_LO = 1e-6
_SHAPE_HI = 8.0 * 4.0**11

#: Newton steps a warm shape solve may take before the cold solve runs.
_NEWTON_STEPS = 12
_LN4 = math.log(4.0)

#: Grid cells (offsets × sample values) one vectorised pass holds at once.
_GRID_BLOCK = 1 << 16

#: Bound on how far a vectorised grid value may lie from the scalar
#: one, relative to the magnitude of the terms it sums: both paths add
#: the same terms in another order, from roots of the same equation
#: (measured: within 2e-15 of that magnitude).
_GRID_TOL = 1e-9

# ndarray.sum()/mean() minus their Python-level wrappers: same doubles.
_sum = np.add.reduce


def _weibull_shape_equation(
    a: float, y: np.ndarray, ln_y: np.ndarray, mean_ln: float
) -> float:
    """g(a) = sum(y^a ln y)/sum(y^a) − 1/a − mean(ln y); root is the MLE."""
    ya = y ** a
    return float(_sum(ya * ln_y) / _sum(ya) - 1.0 / a - mean_ln)


def _newton_shape(ln_y: np.ndarray, mean_ln: float, a: float) -> Optional[float]:
    """Shape root by safeguarded Newton on ``ln a``, started at ``a``.

    The iteration of one :func:`_grid_profile` row, with its stop test
    (a step of at most ``1e-10`` in ``ln a``, which is then taken), but
    no step moves ``a`` by more than ×4.  ``None`` when an iterate
    leaves ``(_SHAPE_LO, _SHAPE_HI / 2)``, a step is not finite, or
    ``_NEWTON_STEPS`` steps do not converge.
    """
    lo, hi = _SHAPE_LO, math.inf
    for _ in range(_NEWTON_STEPS):
        if not _SHAPE_LO < a < 0.5 * _SHAPE_HI:
            return None
        w = np.exp(a * ln_y)
        s0 = float(_sum(w))
        wz = w * ln_y
        r = float(_sum(wz)) / s0
        g = r - 1.0 / a - mean_ln
        dg = float(_sum(wz * ln_y)) / s0 - r * r + 1.0 / (a * a)
        newton = -g / (a * dg) if dg else math.inf
        if not math.isfinite(newton):
            return None
        if abs(newton) <= 1e-10:
            return a * math.exp(newton)
        if g < 0.0:
            lo = a
        elif g > 0.0:
            hi = a
        # At most ×4 either way: from far above the root a full step
        # lands far below it, where Newton climbs by ×e a step.
        step = a * math.exp(max(-_LN4, min(newton, _LN4)))
        if not lo <= step <= hi:
            step = math.sqrt(lo * hi) if hi < math.inf else 4.0 * a
        a = step
    return None


def _solve_shape(y: np.ndarray, start: Optional[float] = None) -> Tuple[float, bool]:
    """Solve the 1-D Weibull shape equation for y in (0, 1].

    Returns ``(a, cold)``.  From ``start``, the root of a nearby
    equation, the solve is :func:`_newton_shape`.  Without a start, or
    when Newton gives up, it is the cold Brent solve on the bracket
    ``[_SHAPE_LO, 8]`` (widened ×4 as needed), and ``cold`` is true.
    """
    ln_y = np.log(y)
    mean_ln = float(_sum(ln_y) / y.size)
    if start is not None:
        a = _newton_shape(ln_y, mean_ln, start)
        if a is not None:
            return a, False
    lo, hi = _SHAPE_LO, 8.0
    g_hi = _weibull_shape_equation(hi, y, ln_y, mean_ln)
    while g_hi < 0 and hi < _SHAPE_HI:
        hi *= 4.0
        g_hi = _weibull_shape_equation(hi, y, ln_y, mean_ln)
    if g_hi < 0:
        raise FitError("Weibull shape equation has no root in range", cause="no-root")
    g_lo = _weibull_shape_equation(lo, y, ln_y, mean_ln)
    if g_lo > 0:
        # Extremely heavy lower tail; the root is below lo.
        return lo, True
    root = brentq(
        _weibull_shape_equation,
        lo,
        hi,
        args=(y, ln_y, mean_ln),
        xtol=1e-12,
        fa=g_lo,
        fb=g_hi,
    )
    return root, True


def _profile_loglik(
    mu: float, x: np.ndarray, start: Optional[float] = None
) -> Tuple[float, float, float, bool]:
    """Maximize over (alpha, scale) at fixed mu.

    Returns ``(loglik, alpha, scale, cold)`` where scale is the Weibull
    scale of ``y = mu − x`` (so ``beta = scale**(-alpha)``) and ``cold``
    tells whether the shape root came from the cold Brent solve rather
    than from Newton at ``start`` (see :func:`_solve_shape`).  Raises
    :class:`FitError` (cause ``zero-offset``) when ``mu`` rounds to
    ``max(x)``, which leaves a zero in ``y``.
    """
    y = mu - x
    if not y.min() > 0.0:
        raise FitError(
            f"mu = {float(mu)!r} rounds to the sample maximum", cause="zero-offset"
        )
    c = float(y.max())
    yn = y / c  # scale-invariant shape equation; renormalize after
    a, cold = _solve_shape(yn, start)
    m = x.size
    lam_n = float(_sum(yn ** a) / m) ** (1.0 / a)
    scale = lam_n * c
    # ll = m ln a − m a ln λ + (a−1) Σ ln y − Σ (y/λ)^a, last term = m.
    ll = (
        m * math.log(a)
        - m * a * math.log(scale)
        + (a - 1.0) * float(_sum(np.log(y)))
        - m
    )
    return ll, a, scale, cold


def _grid_profile(
    mus: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate profile log-likelihood at every ``mu`` in one pass.

    Solves the shape equations of all rows of ``y = mus[:, None] − x``
    at once by Newton's method on ``ln a`` (``g`` is increasing in
    ``a``), safeguarded by a per-row bracket that falls back to
    bisection.  Returns ``(ll, err, a)``: each value is within ``err``
    of what :func:`_profile_loglik` computes at that ``mu``, so the
    values only choose which offsets the scalar path re-evaluates, and
    ``a`` is each row's shape root, where that solve starts.  ``err`` is
    infinite where the value says nothing about the scalar one:
    non-finite, unconverged, or a root near the scalar solver's upper
    limit (past which it fails).
    """
    m = x.size
    with np.errstate(all="ignore"):
        y = mus[:, None] - x
        ln_y = np.log(y)
        ln_c = ln_y.max(axis=1)
        z = ln_y - ln_c[:, None]  # ln(y / max y) <= 0, one zero per row
        mean_z = z.mean(axis=1)
        # Start from the log-moment estimate: sd(ln y) = π / (a √6).
        a = np.clip(math.pi / (math.sqrt(6.0) * z.std(axis=1)), _SHAPE_LO, 1e8)
        lo = np.full_like(a, _SHAPE_LO)
        hi = np.full_like(a, np.inf)
        for _ in range(60):
            w = np.exp(a[:, None] * z)
            s0 = w.sum(axis=1)
            wz = w * z
            r = wz.sum(axis=1) / s0
            g = r - 1.0 / a - mean_z
            dg = (wz * z).sum(axis=1) / s0 - r * r + 1.0 / (a * a)
            newton = -g / (a * dg)  # Newton step in ln a
            converged = np.abs(newton) <= 1e-10
            # Rows past the scalar solver's limit are suspect anyway.
            settled = converged | ~np.isfinite(newton) | (lo > 0.5 * _SHAPE_HI)
            if settled.all():
                break
            lo = np.where(g < 0.0, a, lo)
            hi = np.where(g > 0.0, a, hi)
            step = a * np.exp(newton)
            step = np.where(
                (step >= lo) & (step <= hi),
                step,
                np.where(np.isfinite(hi), np.sqrt(lo * hi), 4.0 * a),
            )
            a = np.where(settled, a, step)
        # ll = m ln a − m a ln λ + (a−1) Σ ln y − m with the profiled
        # scale λ: m a ln λ = m ln mean((y/c)^a) + m a ln c.
        terms = (
            m * np.log(a),
            -m * np.log(s0 / m),
            -m * a * ln_c,
            (a - 1.0) * ln_y.sum(axis=1),
        )
        ll = sum(terms) - m
        err = _GRID_TOL * (m + sum(np.abs(t) for t in terms))
    # No root comes near the scalar solver's floor: g < 0 below
    # 1/range(ln y), and ln y of doubles spans less than 1,500.
    err[~converged | ~np.isfinite(ll) | (a > 0.5 * _SHAPE_HI)] = np.inf
    return ll, err, a


def _profile_dll(
    mu: float, x: np.ndarray, profile: Tuple[float, float, float, bool]
) -> float:
    """Derivative of the profile log-likelihood with respect to mu.

    By the envelope theorem the total derivative of the profiled
    likelihood equals the partial derivative of the full likelihood at
    the inner optimum (``∂ll/∂α = ∂ll/∂λ = 0`` there):
    ``dll/dμ = (α−1) Σ 1/y_i − (α/λ) Σ (y_i/λ)^(α−1)``, ``y = μ − x``,
    with ``(α, λ)`` from ``profile``, the :func:`_profile_loglik` of
    ``mu``.  Root-finding on this derivative localizes the profile
    optimum to ~machine precision, where a scalar *minimizer* on the
    likelihood itself can only reach ~sqrt(eps).
    """
    _, a, scale, _ = profile
    y = mu - x
    return (a - 1.0) * float(_sum(1.0 / y)) - (a / scale) * float(
        _sum((y / scale) ** (a - 1.0))
    )


def fit_weibull_mle(x: np.ndarray) -> WeibullFit:
    """Profile-likelihood MLE for the generalized Weibull of the block
    maxima ``x`` (at least 3, not all equal); see the module doc.

    Raises
    ------
    FitError
        On degenerate samples or a failed inner solve.
    """
    with _SPANS.span("mle.fit", m=len(x)) as span:
        try:
            fit, diag = _fit_weibull_mle_impl(x)
        except FitError as exc:
            span.set(cause=exc.cause)
            raise
        span.set(
            alpha=fit.alpha,
            beta=fit.beta,
            mu=fit.mu,
            loglik=fit.loglik,
            method=fit.method,
            shape_gt2=fit.shape_gt2,
            **diag,
        )
    return fit


def _fit_weibull_mle_impl(
    x: np.ndarray,
    mu_span: float = _MU_SPAN,
    grid_points: int = _GRID_POINTS,
    min_offset_frac: float = _MIN_OFFSET_FRAC,
) -> Tuple[WeibullFit, dict]:
    """Uninstrumented fitter core; returns ``(fit, diagnostics)``.

    Tests pass other search settings to reach grid rows that round to
    ``max(x)`` or pass the shape solver's limit.  The diagnostics are
    the ``mle.fit`` span's: the coarse grid's size and finite values,
    the refinement bracket around the best offset, what gave the fit
    (``"root"``, the derivative's root in the bracket; else the best
    grid point, ``"edge"`` at an end of the search, ``"grid"`` inside
    it), and the exact profile solves (``profile_solves``, one per
    offset valued), of which ``cold_solves`` ran the cold Brent solve.
    """
    x = _validate_sample(x)
    top = float(x.max())
    spread = float(np.ptp(x))
    offsets = np.geomspace(
        min_offset_frac * spread, mu_span * spread, grid_points
    )
    # One vectorised pass values every offset; the scalar path then
    # re-evaluates every offset the pass cannot rule out as the best
    # (suspect rows, and all within their error bound of the best
    # value), so ``best`` and the refinement bracket are a scalar
    # scan's.
    rows = max(1, _GRID_BLOCK // x.size)
    passes = [
        _grid_profile(top + offsets[i : i + rows], x)
        for i in range(0, offsets.size, rows)
    ]
    lls, err, roots = (np.concatenate(p) for p in zip(*passes))
    exact = set()
    # (ll, a, scale, cold) at every offset the scalar path valued
    # without failing: the grid's exact rows, then the root search's.
    profiles = {}
    todo = np.flatnonzero(np.isinf(err))
    while True:
        for i in todo:
            off = offsets[i]
            # A row the pass vouches for starts from the root it found.
            start = float(roots[i]) if math.isfinite(err[i]) else None
            try:
                profiles[off] = _profile_loglik(top + off, x, start)
                lls[i] = profiles[off][0]
            except (FitError, FloatingPointError, OverflowError):
                lls[i] = -np.inf
            err[i] = 0.0
            exact.add(i)
        # Suspect rows are exact now, and a scalar value is finite or
        # -inf, so lls holds no NaN.  A row left approximate falls short
        # of the best value by more than its error bound.
        peak = lls.max()
        todo = [i for i in np.flatnonzero(lls + err >= peak) if i not in exact]
        if not todo:
            break
    best_idx = int(np.argmax(lls))
    if not math.isfinite(lls[best_idx]):
        raise FitError(
            "profile likelihood evaluation failed everywhere",
            cause="profile-failed",
        )
    ll, a, scale, _ = profiles[offsets[best_idx]]
    best = (ll, top + offsets[best_idx], a, scale)

    # Refine around the best grid offset: a root of the profile
    # derivative pins μ̂ to ~machine precision, where a minimizer on the
    # likelihood (flat to second order there) stops at ~sqrt(eps)
    # relative.  Without a sign change the best grid point is the fit.
    # The search starts at the first offset that leaves max(x): the ones
    # below it round to max(x) (failed, zero-offset grid rows), so a
    # best offset just above them is the bracket's lower end.
    last = offsets.size - 1
    first = int(np.count_nonzero(top + offsets == top))
    lo_off = offsets[max(best_idx - 1, first)]
    hi_off = offsets[min(best_idx + 1, last)]
    refine_path = "edge" if best_idx in (first, last) else "grid"
    accepted = False

    def dll_at(off: float) -> float:
        # A root-path point starts from the root at the nearest offset
        # solved so far.
        if off not in profiles:
            near = min(profiles, key=lambda o: abs(o - off))
            profiles[off] = _profile_loglik(top + off, x, profiles[near][1])
        return _profile_dll(top + off, x, profiles[off])

    try:
        d_lo = dll_at(lo_off)
        d_hi = dll_at(hi_off)
    except (FitError, FloatingPointError, OverflowError):
        d_lo = d_hi = math.nan
    if math.isfinite(d_lo) and math.isfinite(d_hi) and d_lo > 0.0 > d_hi:
        refine_path = "root"
        refined = brentq(
            dll_at, lo_off, hi_off, xtol=1e-13 * spread, fa=d_lo, fb=d_hi
        )
        ll, a, scale, _ = profiles[refined]
        # Tolerance keeps the accept decision stable under ulp-level
        # input perturbations (e.g. the same sample at another scale).
        accepted = ll >= best[0] - 1e-9 * abs(best[0])
        if accepted:
            best = (ll, top + refined, a, scale)

    ll, mu, alpha, scale = best
    try:
        dist = GeneralizedWeibull.from_scale(alpha=alpha, scale=scale, mu=mu)
    except (EstimationError, OverflowError) as exc:
        # Pathological tails (e.g. extreme heavy-tail samples) can push
        # beta = scale**(-alpha) to under/overflow.
        raise FitError(
            f"fitted parameters out of range: {exc}", cause="param-range"
        ) from None
    fit = WeibullFit(
        distribution=dist,
        loglik=ll,
        method="profile-mle",
        shape_gt2=alpha > 2.0,
    )
    diag = {
        "m": int(x.size),
        "grid_points": int(offsets.size),
        "grid_finite": int(np.isfinite(lls).sum()),
        "refine": refine_path,
        "refine_accepted": accepted,
        "bracket_lo": float(lo_off),
        "bracket_hi": float(hi_off),
        "mu_offset": float(mu - top),
        "profile_solves": len(profiles),
        "cold_solves": sum(p[3] for p in profiles.values()),
    }
    return fit, diag


def fit_weibull_mle_scipy(x: np.ndarray) -> WeibullFit:
    """Cross-check fit via ``scipy.stats.weibull_max.fit``.

    scipy's generic MLE does unconstrained 3-parameter optimization; it
    can wander in the non-regular corner, which is exactly why the
    profile fitter above is the production path.  Exposed for the
    validation tests and the fitting ablation.
    """
    from scipy import stats

    x = _validate_sample(x)
    c, loc, scale = stats.weibull_max.fit(x)
    if not (c > 0 and scale > 0 and loc >= x.max()):
        raise FitError("scipy fit left the admissible region")
    dist = GeneralizedWeibull.from_scale(alpha=c, scale=scale, mu=loc)
    ll = float(np.sum(dist.logpdf(x)))
    return WeibullFit(
        distribution=dist, loglik=ll, method="scipy-mle", shape_gt2=c > 2.0
    )


def fisher_covariance(
    fit: WeibullFit, x: np.ndarray, step_frac: float = 1e-4
) -> Optional[np.ndarray]:
    """Observed-information covariance of ``(α̂, β̂, μ̂)`` (Eqn. 3.4).

    Numerical Hessian of the negative total log-likelihood at the fit,
    inverted.  Returns ``None`` when the Hessian is singular or not
    positive definite (common at small m — the paper's iterative
    procedure sidesteps this by estimating the variance empirically
    across hyper-samples).
    """
    x = np.asarray(x, dtype=np.float64)
    theta = np.array([fit.alpha, fit.beta, fit.mu])
    steps = np.maximum(np.abs(theta) * step_frac, 1e-12)
    # The likelihood needs mu > max(x); keep finite-difference points legal.
    steps[2] = min(steps[2], max((fit.mu - x.max()) * 0.49, 1e-15))

    def negll(params: np.ndarray) -> float:
        alpha, beta, mu = params
        if alpha <= 0 or beta <= 0 or mu <= x.max():
            return np.inf
        dist = GeneralizedWeibull(alpha=alpha, beta=beta, mu=mu)
        return -float(np.sum(dist.logpdf(x)))

    hess = np.empty((3, 3))
    f0 = negll(theta)
    if not math.isfinite(f0):
        return None
    for i in range(3):
        for j in range(i, 3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = steps[i]
            ej[j] = steps[j]
            fpp = negll(theta + ei + ej)
            fpm = negll(theta + ei - ej)
            fmp = negll(theta - ei + ej)
            fmm = negll(theta - ei - ej)
            if not all(map(math.isfinite, (fpp, fpm, fmp, fmm))):
                return None
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (
                4.0 * steps[i] * steps[j]
            )
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(cov).all() or (np.diag(cov) <= 0).any():
        return None
    return cov
