"""Profile-likelihood MLE for the generalized Weibull."""

import math
import warnings
from typing import Optional, Tuple

import numpy as np
import pytest
from scipy import optimize

from repro.errors import EstimationError, FitError
from repro.evt import mle
from repro.evt.distributions import GeneralizedWeibull
from repro.evt.mle import (
    WeibullFit,
    _validate_sample,
    fisher_covariance,
    fit_weibull_mle,
    fit_weibull_mle_scipy,
)


class TestRecovery:
    @pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
    def test_large_sample_parameter_recovery(self, alpha):
        true = GeneralizedWeibull.from_scale(alpha=alpha, scale=1.0, mu=5.0)
        x = true.rvs(4000, rng=11)
        fit = fit_weibull_mle(x)
        assert fit.alpha == pytest.approx(alpha, rel=0.15)
        assert fit.mu == pytest.approx(5.0, abs=0.15)
        assert fit.method == "profile-mle"
        assert fit.shape_gt2

    def test_agrees_with_scipy_on_large_sample(self):
        true = GeneralizedWeibull(alpha=3.0, beta=2.0, mu=10.0)
        x = true.rvs(3000, rng=42)
        ours = fit_weibull_mle(x)
        ref = fit_weibull_mle_scipy(x)
        assert ours.mu == pytest.approx(ref.mu, abs=0.02)
        assert ours.alpha == pytest.approx(ref.alpha, rel=0.02)
        assert ours.loglik == pytest.approx(ref.loglik, abs=0.5)

    def test_loglik_at_optimum_beats_neighbours(self):
        true = GeneralizedWeibull(alpha=4.0, beta=1.0, mu=2.0)
        x = true.rvs(300, rng=3)
        fit = fit_weibull_mle(x)
        for factor in (0.7, 1.3):
            worse = GeneralizedWeibull(
                alpha=fit.alpha * factor, beta=fit.beta, mu=fit.mu
            )
            assert float(np.sum(worse.logpdf(x))) <= fit.loglik + 1e-6

    def test_mu_always_above_sample_max(self):
        true = GeneralizedWeibull(alpha=5.0, beta=1.0, mu=1.0)
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = true.rvs(10, rng)
            fit = fit_weibull_mle(x)
            assert fit.mu > x.max()

    def test_quantile_helper(self):
        true = GeneralizedWeibull(alpha=3.0, beta=1.0, mu=0.0)
        x = true.rvs(500, rng=2)
        fit = fit_weibull_mle(x)
        q = fit.quantile(0.999)
        assert q < fit.mu
        assert fit.distribution.cdf(q) == pytest.approx(0.999, abs=1e-6)


class TestSmallSampleRobustness:
    def test_never_crashes_at_m10(self):
        true = GeneralizedWeibull(alpha=3.0, beta=1.0, mu=0.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = true.rvs(10, rng)
            fit = fit_weibull_mle(x)
            assert np.isfinite(fit.mu)
            assert fit.alpha > 0 and fit.beta > 0

    def test_translation_equivariance(self):
        true = GeneralizedWeibull(alpha=4.0, beta=1.0, mu=0.0)
        x = true.rvs(200, rng=5)
        f0 = fit_weibull_mle(x)
        f1 = fit_weibull_mle(x + 100.0)
        assert f1.mu == pytest.approx(f0.mu + 100.0, abs=1e-3)
        assert f1.alpha == pytest.approx(f0.alpha, rel=1e-3)

    def test_scale_equivariance(self):
        true = GeneralizedWeibull(alpha=4.0, beta=1.0, mu=0.0)
        x = true.rvs(200, rng=6)
        f0 = fit_weibull_mle(x)
        f1 = fit_weibull_mle(x * 1e-3)  # watt-scale values
        assert f1.mu == pytest.approx(f0.mu * 1e-3, rel=1e-3, abs=1e-9)
        assert f1.alpha == pytest.approx(f0.alpha, rel=1e-2)


class TestValidation:
    def test_degenerate_sample_rejected(self):
        with pytest.raises(FitError, match="degenerate"):
            fit_weibull_mle(np.full(10, 3.3))

    def test_too_few_values_rejected(self):
        with pytest.raises(FitError, match="at least 3"):
            fit_weibull_mle(np.array([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(FitError, match="non-finite"):
            fit_weibull_mle(np.array([1.0, 2.0, np.nan]))

    def test_2d_rejected(self):
        with pytest.raises(FitError, match="1-D"):
            fit_weibull_mle(np.ones((3, 3)))


class TestFisherCovariance:
    def test_positive_definite_on_good_fit(self):
        true = GeneralizedWeibull(alpha=4.0, beta=1.0, mu=2.0)
        x = true.rvs(2000, rng=9)
        fit = fit_weibull_mle(x)
        cov = fisher_covariance(fit, x)
        assert cov is not None
        assert cov.shape == (3, 3)
        assert (np.diag(cov) > 0).all()
        eigvals = np.linalg.eigvalsh(cov)
        assert (eigvals > 0).all()

    def test_variance_shrinks_with_sample_size(self):
        true = GeneralizedWeibull(alpha=4.0, beta=1.0, mu=2.0)
        var_mu = []
        for m in (200, 2000):
            x = true.rvs(m, rng=10)
            fit = fit_weibull_mle(x)
            cov = fisher_covariance(fit, x)
            assert cov is not None
            var_mu.append(cov[2, 2])
        assert var_mu[1] < var_mu[0]


# ---------------------------------------------------------------------------
# Identity of the vectorised coarse grid with the scalar scan it replaced.
#
# The reference below is the scalar fitter as it stood before the grid
# was vectorised, kept verbatim (only the names carry a ``_ref`` prefix):
# shape solver, profile likelihood and derivative, the per-offset grid
# loop and the refinement.  The production fitter must return the same
# fit, the same diagnostics and the same FitError cause, bit for bit.


def _ref_weibull_shape_equation(a: float, y: np.ndarray, mean_ln: float) -> float:
    """g(a) = sum(y^a ln y)/sum(y^a) − 1/a − mean(ln y); root is the MLE."""
    ya = y ** a
    return float((ya * np.log(y)).sum() / ya.sum() - 1.0 / a - mean_ln)


def _ref_solve_shape(y: np.ndarray) -> float:
    """Solve the 1-D Weibull shape equation for y in (0, 1]."""
    mean_ln = float(np.log(y).mean())
    lo, hi = 1e-6, 8.0
    g_hi = _ref_weibull_shape_equation(hi, y, mean_ln)
    while g_hi < 0 and hi < 1e7:
        hi *= 4.0
        g_hi = _ref_weibull_shape_equation(hi, y, mean_ln)
    if g_hi < 0:
        raise FitError("Weibull shape equation has no root in range", cause="no-root")
    g_lo = _ref_weibull_shape_equation(lo, y, mean_ln)
    if g_lo > 0:
        # Extremely heavy lower tail; the root is below lo.
        return lo
    return float(
        optimize.brentq(
            _ref_weibull_shape_equation, lo, hi, args=(y, mean_ln), xtol=1e-12
        )
    )


def _ref_profile_loglik(
    mu: float, x: np.ndarray
) -> Tuple[float, float, float]:
    y = mu - x
    c = float(y.max())
    yn = y / c  # scale-invariant shape equation; renormalize after
    a = _ref_solve_shape(yn)
    m = x.size
    lam_n = float(np.mean(yn ** a)) ** (1.0 / a)
    scale = lam_n * c
    # ll = m ln a − m a ln λ + (a−1) Σ ln y − Σ (y/λ)^a, last term = m.
    ll = (
        m * math.log(a)
        - m * a * math.log(scale)
        + (a - 1.0) * float(np.log(y).sum())
        - m
    )
    return ll, a, scale


def _ref_profile_dll(mu: float, x: np.ndarray) -> Tuple[float, float]:
    ll, a, scale = _ref_profile_loglik(mu, x)
    y = mu - x
    dll = (a - 1.0) * float((1.0 / y).sum()) - (a / scale) * float(
        ((y / scale) ** (a - 1.0)).sum()
    )
    return dll, ll


def _reference_fit(
    x: np.ndarray,
    mu_span: float,
    grid_points: int,
    min_offset_frac: float,
) -> Tuple[WeibullFit, dict]:
    x = _validate_sample(x)
    top = float(x.max())
    spread = float(np.ptp(x))
    offsets = np.geomspace(
        min_offset_frac * spread, mu_span * spread, grid_points
    )
    best: Optional[Tuple[float, float, float, float]] = None
    lls = np.empty(offsets.size)
    for i, off in enumerate(offsets):
        try:
            ll, a, scale = _ref_profile_loglik(top + off, x)
        except (FitError, FloatingPointError, OverflowError):
            ll, a, scale = -np.inf, math.nan, math.nan
        lls[i] = ll
        if best is None or ll > best[0]:
            best = (ll, top + off, a, scale)
    if best is None or not math.isfinite(best[0]):
        raise FitError(
            "profile likelihood evaluation failed everywhere",
            cause="profile-failed",
        )

    # Refine around the best grid offset.  When the bracket straddles a
    # sign change of the profile derivative, locate the stationary point
    # by root-finding: that pins μ̂ to ~machine precision, whereas a
    # scalar minimizer on the likelihood itself can only localize an
    # optimum to ~sqrt(eps) relative (the likelihood is flat to second
    # order there).  The bounded minimize remains as a fallback for
    # boundary optima and clamped inner solves.
    best_idx = int(np.argmax(lls))
    lo_off = offsets[max(best_idx - 1, 0)]
    hi_off = offsets[min(best_idx + 1, offsets.size - 1)]
    refined: Optional[float] = None
    refine_path = "none"
    if hi_off > lo_off:
        try:
            d_lo = _ref_profile_dll(top + lo_off, x)[0]
            d_hi = _ref_profile_dll(top + hi_off, x)[0]
        except (FitError, FloatingPointError, OverflowError):
            d_lo = d_hi = math.nan
        if math.isfinite(d_lo) and math.isfinite(d_hi) and d_lo > 0.0 > d_hi:
            refine_path = "root"
            refined = float(
                optimize.brentq(
                    lambda off: _ref_profile_dll(top + off, x)[0],
                    lo_off,
                    hi_off,
                    xtol=1e-13 * spread,
                )
            )
        else:
            refine_path = "minimize"
            result = optimize.minimize_scalar(
                lambda off: -_ref_profile_loglik(top + off, x)[0],
                bounds=(lo_off, hi_off),
                method="bounded",
                options={"xatol": 1e-10 * spread},
            )
            if result.success:
                refined = float(result.x)
    if refined is not None:
        try:
            ll, a, scale = _ref_profile_loglik(top + refined, x)
        except (FitError, FloatingPointError, OverflowError):
            ll = -math.inf
        # Tolerance keeps the accept decision stable under ulp-level
        # input perturbations (e.g. the same sample at another scale).
        if ll >= best[0] - 1e-9 * abs(best[0]):
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
        "refine_accepted": refined is not None and best[1] == top + refined,
        "bracket_lo": float(lo_off),
        "bracket_hi": float(hi_off),
        "mu_offset": float(mu - top),
    }
    return fit, diag


def _identity_case(seed: int):
    """One seeded sample and fitter settings for the identity check.

    Families: reversed Weibull with α log-uniform in [0.5, 80], Gumbel,
    Pareto(1), lattice samples with ties, and normal block maxima like
    the estimator's; scaled to watts (1e-3), unit or 1e6 values, some
    on a 1e6 offset; m from 3 to 40; about a third with non-default
    ``grid_points``/``mu_span``/``min_offset_frac``, some of them with
    spans so wide that the shape root passes the scalar solver's limit.
    """
    rng = np.random.default_rng([1998, seed])
    m = int(rng.integers(3, 41))
    family = seed % 5
    if family == 0:
        alpha = float(np.exp(rng.uniform(math.log(0.5), math.log(80.0))))
        x = 5.0 - rng.weibull(alpha, m)
    elif family == 1:
        x = rng.gumbel(size=m)
    elif family == 2:
        x = rng.pareto(1.0, m) + 1.0
    elif family == 3:
        x = 3.0 - rng.weibull(rng.uniform(1.0, 10.0), m)
        x = np.round(x * rng.integers(2, 12))
    else:
        x = rng.normal(size=(m, int(rng.integers(5, 60)))).max(axis=1)
    x = x * (1e-3, 1.0, 1e6)[int(rng.integers(3))]
    if rng.random() < 0.1:
        x = x + 1e6
    settings = (10.0, 80, 1e-4)
    if rng.random() < 0.3:
        settings = (
            float(rng.choice([0.5, 2.0, 40.0, 300.0, 1e8, 1e10])),
            int(rng.choice([5, 17, 40, 160, 200])),
            float(rng.choice([1e-9, 1e-7, 1e-5, 1e-2])),
        )
    return x, settings


def _outcome(fitter, x, settings):
    try:
        fit, diag = fitter(x, *settings)
    except FitError as exc:
        return ("error", exc.cause)
    except ValueError as exc:  # brentq meeting a NaN (μ rounds to max(x))
        return ("raised", str(exc))
    return ("fit", fit, diag)


def _assert_matches_reference(x, settings, context):
    expected = _outcome(_reference_fit, x, settings)
    got = _outcome(mle._fit_weibull_mle_impl, x, settings)
    if expected[0] == "raised":
        # The reference's brentq meets a NaN where μ rounds to max(x);
        # the fitter treats such an offset as a failed profile row
        # (FitError "zero-offset") and never raises a bare ValueError.
        assert got[0] in ("fit", "error"), context
    else:
        assert got == expected, context


class TestVectorisedGridIdentity:
    """2,000 seeded samples: fit, diagnostics and FitError cause match."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_matches_scalar_reference(self, chunk):
        with np.errstate(all="ignore"):
            for seed in range(250 * chunk, 250 * (chunk + 1)):
                x, settings = _identity_case(seed)
                _assert_matches_reference(x, settings, (seed, x.tolist(), settings))

    @pytest.mark.parametrize(
        "x",
        [
            # A Newton residual that reaches exactly zero: the row must
            # keep its root while other rows iterate.
            np.array([1.1500616084127513, 2.5593164596790245, 2.6850098086056704]),
            # m = 2000: the grid is valued in several row blocks.
            GeneralizedWeibull.from_scale(alpha=3.0, scale=1.0, mu=2.0).rvs(
                2000, rng=4
            ),
        ],
        ids=["zero-residual", "row-blocks"],
    )
    def test_matches_scalar_reference_on_edge_samples(self, x):
        _assert_matches_reference(x, (10.0, 80, 1e-4), x.tolist())


class TestZeroOffset:
    """μ rounding to max(x) leaves a zero in ``y = μ − x``: that profile
    row fails with a FitError, before any log of zero."""

    @pytest.mark.parametrize(
        "x, settings",
        [
            # Spread 5e-5 at 1e6: the smallest offsets round away.
            (1e6 + np.random.default_rng(1).uniform(0.0, 5e-5, 9), (10.0, 80, 1e-7)),
            # Default settings, spread below ~1e-12 of the values.
            (1.0 + np.random.default_rng(2).uniform(0.0, 1e-13, 10), (10.0, 80, 1e-4)),
        ],
        ids=["offset-1e6", "spread-1e-13"],
    )
    def test_fit_or_fit_error_without_warnings(self, x, settings):
        assert x.max() + settings[2] * np.ptp(x) == x.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fit = fit_weibull_mle(x, *settings)
            except FitError:
                return
        assert fit.mu > x.max()

    def test_profile_row_fails_with_its_own_cause(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(FitError) as info:
            mle._profile_loglik(3.0, x)
        assert info.value.cause == "zero-offset"
