"""Generalized Pareto distribution (GPD) and threshold-exceedance fits.

Pickands–Balkema–de Haan: exceedances of a high threshold follow a GPD

    ``H(y) = 1 − (1 + ξ y/σ)^(−1/ξ)``,  y >= 0

with the *same* tail index ξ as the GEV of the block maxima.  For ξ < 0
the underlying distribution has the finite right endpoint
``u + σ/(−ξ)`` — a second, independent route to the paper's maximum
power, used by :mod:`repro.estimation.pot`.

Fits: Hosking–Wallis PWM (closed form, robust) and maximum likelihood
(2-parameter optimization started from the PWM point).  The canonical
entry point is :func:`fit_gpd`, which selects the method by name the
same way the estimator layer selects families through
``EstimatorConfig.method``; the per-method functions remain public for
direct use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import EstimationError, FitError
from .distributions import _as_array, _scalar_aware
from .nelder_mead import minimize_neldermead

__all__ = ["GPD", "fit_gpd", "fit_gpd_pwm", "fit_gpd_mle"]

_EXP_EPS = 1e-9


@dataclass(frozen=True)
class GPD:
    """Generalized Pareto law on exceedances ``y >= 0``."""

    xi: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise EstimationError("sigma must be positive")
        if not math.isfinite(self.xi):
            raise EstimationError("xi must be finite")

    @property
    def is_exponential(self) -> bool:
        return abs(self.xi) < _EXP_EPS

    def right_endpoint(self) -> float:
        """``σ/(−ξ)`` for ξ < 0 (exceedance units), else +inf."""
        if self.xi < -_EXP_EPS:
            return -self.sigma / self.xi
        return math.inf

    def _arg(self, y: np.ndarray) -> np.ndarray:
        return 1.0 + self.xi * y / self.sigma

    @_scalar_aware
    def cdf(self, y) -> np.ndarray:
        y = _as_array(y)
        out = np.zeros_like(y)
        pos = y >= 0
        if self.is_exponential:
            out[pos] = 1.0 - np.exp(-y[pos] / self.sigma)
            return out
        arg = self._arg(y)
        inside = pos & (arg > 0)
        out[inside] = 1.0 - arg[inside] ** (-1.0 / self.xi)
        out[pos & ~inside] = 1.0  # beyond a finite endpoint
        return out

    @_scalar_aware
    def sf(self, y) -> np.ndarray:
        return 1.0 - self.cdf(_as_array(y))

    @_scalar_aware
    def logpdf(self, y) -> np.ndarray:
        y = _as_array(y)
        out = np.full_like(y, -np.inf)
        pos = y >= 0
        if self.is_exponential:
            out[pos] = -math.log(self.sigma) - y[pos] / self.sigma
            return out
        arg = self._arg(y)
        inside = pos & (arg > 0)
        out[inside] = (
            -math.log(self.sigma)
            - (1.0 / self.xi + 1.0) * np.log(arg[inside])
        )
        return out

    @_scalar_aware
    def pdf(self, y) -> np.ndarray:
        return np.exp(self.logpdf(_as_array(y)))

    @_scalar_aware
    def ppf(self, q) -> np.ndarray:
        q = _as_array(q)
        if ((q < 0) | (q >= 1)).any():
            raise EstimationError("quantile levels must be in [0, 1)")
        if self.is_exponential:
            return -self.sigma * np.log(1.0 - q)
        return self.sigma * ((1.0 - q) ** (-self.xi) - 1.0) / self.xi

    def rvs(
        self, size: int, rng: "np.random.Generator | int | None" = None
    ) -> np.ndarray:
        gen = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        u = np.clip(gen.random(size), 0.0, 1.0 - 1e-16)
        return np.asarray(self.ppf(u))

    def mean(self) -> float:
        if self.xi >= 1:
            return math.inf
        return self.sigma / (1.0 - self.xi)


def _validate_exceedances(y: np.ndarray, minimum: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < minimum:
        raise FitError(f"need at least {minimum} exceedances")
    if (y < 0).any():
        raise FitError("exceedances must be non-negative")
    if np.ptp(y) <= 0:
        raise FitError("degenerate exceedances")
    return y


def fit_gpd_pwm(y: np.ndarray) -> GPD:
    """Hosking–Wallis PWM fit: closed form from ``b0`` and ``b1``.

    With ``b0 = E[Y]`` and ``b1 = E[Y(1−F(Y))]``:
    ``ξ = 2 − b0/(b0 − 2 b1)``, ``σ = 2 b0 b1/(b0 − 2 b1)``.
    """
    y = _validate_exceedances(y, 4)
    ys = np.sort(y)
    n = ys.size
    b0 = float(ys.mean())
    # b1 = E[Y (1 - F(Y))]: weights (n - j)/(n - 1) on ascending order.
    j = np.arange(1, n + 1, dtype=np.float64)
    b1 = float((ys * (n - j) / (n - 1.0)).mean())
    denom = b0 - 2.0 * b1
    if denom == 0:
        raise FitError("PWM denominator vanished")
    xi = 2.0 - b0 / denom
    sigma = 2.0 * b0 * b1 / denom
    if sigma <= 0:
        raise FitError("PWM produced a non-positive scale")
    return GPD(xi=xi, sigma=sigma)


def _negll(y: np.ndarray) -> Callable[[Sequence[float]], float]:
    """The MLE's objective on validated exceedances ``y``: ``(ξ, ln σ)``
    ↦ ``-sum(GPD(ξ, σ).logpdf(y))``, bit for bit, without building a
    :class:`GPD`; ``inf`` where that law is undefined or puts an
    exceedance past its endpoint."""
    y_max = float(y.max())

    def negll(params: Sequence[float]) -> float:
        xi, log_sigma = params
        try:
            sigma = math.exp(log_sigma)
        except OverflowError:
            return math.inf
        if not (sigma > 0 and math.isfinite(sigma) and math.isfinite(xi)):
            return math.inf
        if abs(xi) < _EXP_EPS:
            ll = -math.log(sigma) - y / sigma
        else:
            # 1 + ξy/σ is at least 1 for ξ > 0 and falls with y for
            # ξ < 0 (rounding is monotone), so its smallest value is the
            # one at max(y).
            if xi < 0 and 1.0 + xi * y_max / sigma <= 0:
                return math.inf
            ll = -math.log(sigma) - (1.0 / xi + 1.0) * np.log(
                1.0 + xi * y / sigma
            )
        total = float(np.add.reduce(ll))
        return -total if math.isfinite(total) else math.inf

    return negll


def _open_start(y: np.ndarray) -> GPD:
    """A start with no right endpoint (ξ > 0), so no exceedance lies
    past it."""
    return GPD(xi=0.1, sigma=float(y.mean()))


def _improve(negll, start: GPD) -> Optional[GPD]:
    """The Nelder–Mead fit from ``start``, or ``None`` when it fails or
    does not improve on ``start``."""
    x0 = (start.xi, math.log(start.sigma))
    result = minimize_neldermead(
        negll, x0, xatol=1e-8, fatol=1e-10, maxiter=2000
    )
    if result.success and result.fun < negll(x0):
        xi, log_sigma = result.x
        return GPD(xi=xi, sigma=math.exp(log_sigma))
    return None


def fit_gpd_mle(
    y: np.ndarray, start: Optional[GPD] = None
) -> GPD:
    """Maximum-likelihood GPD fit, started from the PWM point.

    Minimizes the negative log-likelihood over ``(ξ, log σ)`` by
    Nelder–Mead, with the support constraint folded into the objective
    (``inf`` outside).  Falls back to the start if the optimizer fails
    to improve on it.  A start that puts an exceedance past its
    endpoint is refuted by the data and never returned: the fit then
    restarts once from ``ξ = 0.1``, which has no endpoint.

    Raises
    ------
    FitError
        ``cause="infeasible-start"`` when the start puts an exceedance
        past its endpoint and neither run converges (below ξ = −1 the
        likelihood has no maximum).
    """
    y = _validate_exceedances(y, 5)
    if start is None:
        try:
            start = fit_gpd_pwm(y)
        except FitError:
            start = _open_start(y)

    negll = _negll(y)
    fit = _improve(negll, start)
    if fit is None and negll((start.xi, math.log(start.sigma))) == math.inf:
        fit = _improve(negll, _open_start(y))
        if fit is None:
            raise FitError(
                "infeasible start: the start puts an exceedance past its "
                "endpoint and Nelder-Mead converged neither from it nor "
                "from xi = 0.1",
                cause="infeasible-start",
            )
    return start if fit is None else fit


def fit_gpd(
    y: np.ndarray, method: str = "mle", start: Optional[GPD] = None
) -> GPD:
    """Fit the GPD to exceedances by the named method.

    The single front door the estimator layer calls: ``method`` is
    ``"mle"`` (default; PWM-started maximum likelihood) or ``"pwm"``
    (closed-form Hosking–Wallis).  ``start`` seeds the MLE and is
    rejected for the closed-form PWM fit.
    """
    if method == "mle":
        return fit_gpd_mle(y, start=start)
    if method == "pwm":
        if start is not None:
            raise FitError("the closed-form PWM fit takes no start point")
        return fit_gpd_pwm(y)
    raise FitError(f"unknown GPD fit method {method!r} (use 'mle' or 'pwm')")
