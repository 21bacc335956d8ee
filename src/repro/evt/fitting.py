"""Alternative Weibull fitters and goodness-of-fit measures.

The paper (§3.1) tried "curve-fit the samples to Eqn. (2.16)" and found
it *unstable* for small sample counts, which motivated the MLE.  Both
rejected alternatives are implemented here so the instability claim can
be reproduced quantitatively (benchmark ``bench_ablation_fitting``):

* :func:`fit_weibull_lsq` — least-squares fit of the model CDF to the
  empirical CDF (what "curve fitting" means in the paper);
* :func:`fit_weibull_moments` — endpoint heuristic plus
  moment-matching for the shape/scale.

Also here: the least-squares *normal* fit used to produce Figure 2 and
Kolmogorov–Smirnov distances used throughout the figure harnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import FitError
from .brent import brentq
from .distributions import GeneralizedWeibull
from .mle import WeibullFit, _validate_sample
from .order_stats import empirical_cdf

__all__ = [
    "fit_weibull_lsq",
    "fit_weibull_moments",
    "NormalFit",
    "fit_normal",
    "fit_normal_lsq",
    "ks_statistic",
]


def fit_weibull_lsq(x: np.ndarray, mu_span: float = 10.0) -> WeibullFit:
    """Least-squares CDF fit of the generalized Weibull (paper's rejected
    "curve fitting approach").

    Minimizes ``sum_i (G(x_(i); α, β, μ) − p_i)^2`` over the admissible
    region, with ``p_i`` midpoint plotting positions.  Parametrized as
    ``(log α, log scale, log(μ − max x))`` so the optimizer cannot leave
    the support constraint.

    Raises
    ------
    FitError
        If the optimizer fails to converge.
    """
    from scipy import optimize

    x = _validate_sample(x)
    xs, probs = empirical_cdf(x)
    top = float(xs[-1])
    spread = float(np.ptp(xs))

    def residuals(params: np.ndarray) -> np.ndarray:
        log_a, log_scale, log_off = params
        dist = GeneralizedWeibull.from_scale(
            alpha=math.exp(log_a),
            scale=math.exp(log_scale),
            mu=top + math.exp(log_off),
        )
        return dist.cdf(xs) - probs

    x0 = np.array([math.log(2.0), math.log(spread), math.log(0.1 * spread)])
    result = optimize.least_squares(
        residuals,
        x0,
        bounds=(
            [-6.0, math.log(spread) - 12.0, math.log(spread) - 14.0],
            [12.0, math.log(spread) + 8.0, math.log(mu_span * spread)],
        ),
        xtol=1e-12,
        ftol=1e-12,
    )
    if not result.success:
        raise FitError(f"least-squares CDF fit failed: {result.message}")
    log_a, log_scale, log_off = result.x
    dist = GeneralizedWeibull.from_scale(
        alpha=math.exp(log_a),
        scale=math.exp(log_scale),
        mu=top + math.exp(log_off),
    )
    ll = float(np.sum(dist.logpdf(x)))
    return WeibullFit(
        distribution=dist,
        loglik=ll,
        method="lsq",
        shape_gt2=dist.alpha > 2.0,
    )


def fit_weibull_moments(x: np.ndarray) -> WeibullFit:
    """Endpoint-heuristic + moment-matching fit.

    The endpoint is estimated with the classical spacing estimator
    ``μ̂ = x_(m) + (x_(m) − x_(m−1))``; then the first two moments of
    ``y = μ̂ − x`` are matched to a Weibull by solving for the shape on
    the coefficient-of-variation equation.
    """
    x = _validate_sample(x)
    xs = np.sort(x)
    mu = float(xs[-1] + (xs[-1] - xs[-2]))
    if mu <= xs[-1]:
        mu = float(xs[-1] + 0.05 * np.ptp(xs))
    y = mu - x
    mean_y = float(y.mean())
    std_y = float(y.std(ddof=1))
    if std_y <= 0:
        raise FitError("zero variance after endpoint shift")
    cv2 = (std_y / mean_y) ** 2

    def cv_equation(a: float) -> float:
        g1 = math.gamma(1.0 + 1.0 / a)
        g2 = math.gamma(1.0 + 2.0 / a)
        return g2 / g1 ** 2 - 1.0 - cv2

    lo, hi = 0.05, 1.0
    while cv_equation(hi) > 0 and hi < 1e4:
        lo = hi
        hi *= 2.0
    try:
        alpha = brentq(cv_equation, lo, hi, xtol=1e-10)
    except ValueError as exc:
        raise FitError(f"moment shape equation unsolvable: {exc}") from None
    scale = mean_y / math.gamma(1.0 + 1.0 / alpha)
    dist = GeneralizedWeibull.from_scale(alpha=alpha, scale=scale, mu=mu)
    ll = float(np.sum(dist.logpdf(x)))
    return WeibullFit(
        distribution=dist,
        loglik=ll,
        method="moments",
        shape_gt2=alpha > 2.0,
    )


@dataclass(frozen=True)
class NormalFit:
    """Fitted normal distribution (Figure 2 overlays, Theorem 3 checks)."""

    mean: float
    std: float
    method: str

    def cdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import stats

        return stats.norm.cdf(np.asarray(x), loc=self.mean, scale=self.std)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy import stats

        return stats.norm.pdf(np.asarray(x), loc=self.mean, scale=self.std)


def fit_normal(x: np.ndarray) -> NormalFit:
    """Moment (ML) normal fit."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise FitError("need at least 2 values")
    std = float(x.std(ddof=1))
    if std <= 0:
        raise FitError("degenerate sample for normal fit")
    return NormalFit(mean=float(x.mean()), std=std, method="moments")


def fit_normal_lsq(x: np.ndarray) -> NormalFit:
    """Least-squares CDF normal fit (the paper's Figure 2 methodology)."""
    from scipy import optimize, stats

    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise FitError("need at least 3 values")
    xs, probs = empirical_cdf(x)
    start = fit_normal(x)

    def residuals(params: np.ndarray) -> np.ndarray:
        mean, log_std = params
        return stats.norm.cdf(xs, loc=mean, scale=math.exp(log_std)) - probs

    result = optimize.least_squares(
        residuals, np.array([start.mean, math.log(start.std)])
    )
    if not result.success:
        raise FitError(f"normal CDF fit failed: {result.message}")
    mean, log_std = result.x
    return NormalFit(mean=float(mean), std=float(math.exp(log_std)), method="lsq")


def ks_statistic(cdf_values: np.ndarray) -> float:
    """KS distance between a fitted CDF (evaluated at the sorted sample)
    and the empirical step function.

    ``cdf_values`` must be the fitted ``F(x_(i))`` for the *sorted*
    sample; returns ``max_i max(|F − i/n|, |F − (i−1)/n|)``.
    """
    f = np.asarray(cdf_values, dtype=np.float64)
    n = f.size
    if n == 0:
        raise FitError("empty CDF evaluation")
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.maximum(np.abs(f - hi), np.abs(f - lo)).max())
