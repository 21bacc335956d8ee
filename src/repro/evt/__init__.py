"""Extreme-value-theory core: the paper's statistical contribution.

Layering:

* :mod:`~repro.evt.distributions` — the three max-limit laws, with the
  generalized Weibull of Eqn. (2.16) as the workhorse.
* :mod:`~repro.evt.order_stats` — distribution-free order-statistic
  background (§2.1).
* :mod:`~repro.evt.block_maxima` — sample formation (Figure 3).
* :mod:`~repro.evt.mle` — profile-likelihood MLE (§2.2/§3.2).
* :mod:`~repro.evt.brent` — the MLE's root finder, a port of scipy's
  ``brentq`` that returns its doubles.
* :mod:`~repro.evt.gpd` — the generalized Pareto law and its
  threshold-exceedance fits (the POT route), whose MLE runs on
  :mod:`~repro.evt.nelder_mead`, a port of scipy's Nelder–Mead that
  returns its doubles.
* :mod:`~repro.evt.fitting` — the rejected curve-fit/moment
  alternatives plus normal fits (Figures 1–2, ablations).
* :mod:`~repro.evt.domain` — domain-of-attraction diagnostics.
* :mod:`~repro.evt.confidence` — u_l/t intervals and SRS sizing
  (Theorems 4, 6); :mod:`~repro.evt.t_table` holds the t quantiles
  at l = 0.90.
"""

from .block_maxima import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_SIZE,
    block_maxima,
    block_maxima_from_values,
)
from .confidence import (
    MeanInterval,
    normal_interval,
    normal_two_sided_quantile,
    srs_required_units,
    t_mean_interval,
    t_two_sided_quantile,
)
from .distributions import Frechet, GeneralizedWeibull, Gumbel
from .domain import (
    DomainVerdict,
    classify_domain,
    dekkers_moment_estimator,
    endpoint_estimate,
    pickands_estimator,
)
from .fitting import (
    NormalFit,
    fit_normal,
    fit_normal_lsq,
    fit_weibull_lsq,
    fit_weibull_moments,
    ks_statistic,
)
from .gev import GEV, fit_gev_pwm, probability_weighted_moments
from .gpd import GPD, fit_gpd, fit_gpd_mle, fit_gpd_pwm
from .mle import WeibullFit, fisher_covariance, fit_weibull_mle, fit_weibull_mle_scipy
from .order_stats import (
    empirical_cdf,
    empirical_quantile,
    order_statistic_cdf,
    quantile_confidence_interval,
    sample_maximum_cdf,
)

__all__ = [
    "GeneralizedWeibull",
    "Gumbel",
    "Frechet",
    "GEV",
    "fit_gev_pwm",
    "probability_weighted_moments",
    "GPD",
    "fit_gpd",
    "fit_gpd_pwm",
    "fit_gpd_mle",
    "block_maxima",
    "block_maxima_from_values",
    "DEFAULT_SAMPLE_SIZE",
    "DEFAULT_NUM_SAMPLES",
    "WeibullFit",
    "fit_weibull_mle",
    "fit_weibull_mle_scipy",
    "fisher_covariance",
    "fit_weibull_lsq",
    "fit_weibull_moments",
    "NormalFit",
    "fit_normal",
    "fit_normal_lsq",
    "ks_statistic",
    "classify_domain",
    "DomainVerdict",
    "pickands_estimator",
    "dekkers_moment_estimator",
    "endpoint_estimate",
    "MeanInterval",
    "t_mean_interval",
    "normal_interval",
    "normal_two_sided_quantile",
    "t_two_sided_quantile",
    "srs_required_units",
    "empirical_cdf",
    "empirical_quantile",
    "order_statistic_cdf",
    "sample_maximum_cdf",
    "quantile_confidence_interval",
]
