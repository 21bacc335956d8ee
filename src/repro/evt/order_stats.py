"""Order-statistics utilities (paper §2.1 background).

Implements the distribution-free machinery the paper builds on and that
the quantile-estimation baseline [9][10] uses directly:

* empirical distribution and quantile functions (Eqns. 2.1–2.2);
* the exact distribution of the r-th order statistic,
  ``P{X_{r:n} <= t} = I_{F(t)}(r, n-r+1)`` (regularized incomplete
  beta), specializing to ``F(t)^n`` for the sample maximum (Eqn. 2.3);
* distribution-free confidence intervals for quantiles from the
  binomial distribution of exceedance counts.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import EstimationError

__all__ = [
    "empirical_cdf",
    "empirical_quantile",
    "order_statistic_cdf",
    "sample_maximum_cdf",
    "quantile_confidence_interval",
]


def empirical_cdf(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, F_hat)`` with midpoint plotting positions.

    Uses ``(i - 0.5) / n`` positions — the convention that keeps both
    endpoints off 0/1 so Weibull curve fitting (Figure 1) is well posed.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise EstimationError("values must be a non-empty 1-D array")
    x = np.sort(values)
    n = x.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    return x, probs


def empirical_quantile(values: np.ndarray, q: float) -> float:
    """Smallest-q-quantile per the paper's q.f. definition (Eqn. 2.2).

    ``F^{-1}(q) = inf { t : F_hat(t) >= q }`` over the empirical d.f.
    """
    if not 0.0 <= q <= 1.0:
        raise EstimationError("q must be in [0, 1]")
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n == 0:
        raise EstimationError("values must be non-empty")
    if q == 0.0:
        return float(values[0])
    rank = int(np.ceil(q * n))  # smallest k with k/n >= q
    return float(values[min(rank, n) - 1])


def order_statistic_cdf(p: float, r: int, n: int) -> float:
    """``P{X_{r:n} <= t}`` given ``p = F(t)``.

    Exact via the regularized incomplete beta function: the event is
    "at least r of n i.i.d. draws land at or below t".
    """
    if not 0 <= p <= 1:
        raise EstimationError("p must be in [0, 1]")
    if not 1 <= r <= n:
        raise EstimationError("need 1 <= r <= n")
    from scipy import special

    return float(special.betainc(r, n - r + 1, p))


def sample_maximum_cdf(p: float, n: int) -> float:
    """``P{X_{n:n} <= t} = F(t)^n`` (paper Eqn. 2.3)."""
    if not 0 <= p <= 1:
        raise EstimationError("p must be in [0, 1]")
    if n < 1:
        raise EstimationError("n must be >= 1")
    return float(p ** n)


def quantile_confidence_interval(
    values: np.ndarray, q: float, level: float
) -> Tuple[float, float, float]:
    """Distribution-free CI for the q-quantile from one sample.

    Returns ``(point, low, high)`` where the point estimate is the
    empirical q-quantile and ``[low, high]`` covers the true quantile
    with probability at least ``level``, using the binomial distribution
    of the number of observations below the quantile (the classical
    order-statistic interval, as used by the CDF-estimation approach of
    reference [10]).
    """
    if not 0 < q < 1:
        raise EstimationError("q must be in (0, 1)")
    if not 0 < level < 1:
        raise EstimationError("level must be in (0, 1)")
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < 2:
        raise EstimationError("need at least 2 values")
    from scipy import stats

    point = empirical_quantile(x, q)
    tail = (1.0 - level) / 2.0
    lo_rank = int(stats.binom.ppf(tail, n, q))
    hi_rank = int(stats.binom.ppf(1.0 - tail, n, q)) + 1
    lo_rank = max(lo_rank, 1)
    hi_rank = min(hi_rank, n)
    return point, float(x[lo_rank - 1]), float(x[hi_rank - 1])
