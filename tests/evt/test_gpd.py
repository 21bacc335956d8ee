"""Generalized Pareto distribution and threshold-exceedance fits."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.errors import EstimationError, FitError
from repro.evt.gpd import GPD, fit_gpd_mle, fit_gpd_pwm

#: Exceedances whose PWM start puts the largest one past its endpoint.
INFEASIBLE_START_EXCEEDANCES = [
    3.185324999999974e-05, 6.370649999999927e-05, 6.452324999999914e-05,
    5.036624999999991e-05, 0.00011243924999999942, 5.826149999999951e-05,
    9.174825000000009e-05, 4.9821749999999845e-05, 5.199974999999966e-05,
    2.9402999999999678e-05,
]

GPDS = [
    GPD(xi=-0.3, sigma=1.0),   # bounded tail
    GPD(xi=0.0, sigma=2.0),    # exponential
    GPD(xi=0.4, sigma=0.5),    # heavy tail
]


class TestDistribution:
    def test_validation(self):
        with pytest.raises(EstimationError):
            GPD(xi=0.1, sigma=0)
        with pytest.raises(EstimationError):
            GPD(xi=math.nan)

    @pytest.mark.parametrize("dist", GPDS)
    def test_matches_scipy_genpareto(self, dist):
        ref = stats.genpareto(c=dist.xi, scale=dist.sigma)
        ys = np.linspace(0, 5, 40)
        assert dist.cdf(ys) == pytest.approx(ref.cdf(ys), abs=1e-10)
        assert dist.pdf(ys) == pytest.approx(ref.pdf(ys), abs=1e-10)

    @pytest.mark.parametrize("dist", GPDS)
    def test_ppf_inverts_cdf(self, dist):
        qs = np.array([0.0, 0.3, 0.9, 0.999])
        assert dist.cdf(dist.ppf(qs)) == pytest.approx(qs, abs=1e-9)

    def test_right_endpoint(self):
        assert GPDS[0].right_endpoint() == pytest.approx(1.0 / 0.3)
        assert GPDS[1].right_endpoint() == math.inf
        assert GPDS[2].right_endpoint() == math.inf

    def test_bounded_samples_below_endpoint(self):
        d = GPDS[0]
        draws = d.rvs(5000, rng=1)
        assert (draws >= 0).all()
        assert (draws <= d.right_endpoint()).all()

    def test_mean(self):
        assert GPDS[0].mean() == pytest.approx(1.0 / 1.3)
        assert GPD(xi=1.5, sigma=1.0).mean() == math.inf

    def test_negative_values_have_zero_density(self):
        assert GPDS[0].pdf(-1.0) == 0.0
        assert GPDS[0].cdf(-1.0) == 0.0


class TestFits:
    @pytest.mark.parametrize("xi", [-0.35, -0.1, 0.0, 0.3])
    def test_pwm_recovery(self, xi):
        true = GPD(xi=xi, sigma=1.5)
        y = true.rvs(8000, rng=2)
        fit = fit_gpd_pwm(y)
        assert fit.xi == pytest.approx(xi, abs=0.06)
        assert fit.sigma == pytest.approx(1.5, rel=0.08)

    @pytest.mark.parametrize("xi", [-0.35, 0.0, 0.3])
    def test_mle_recovery(self, xi):
        true = GPD(xi=xi, sigma=1.5)
        y = true.rvs(4000, rng=3)
        fit = fit_gpd_mle(y)
        assert fit.xi == pytest.approx(xi, abs=0.06)
        assert fit.sigma == pytest.approx(1.5, rel=0.08)

    def test_mle_no_worse_than_pwm_in_likelihood(self):
        true = GPD(xi=-0.25, sigma=1.0)
        y = true.rvs(500, rng=4)
        pwm = fit_gpd_pwm(y)
        mle = fit_gpd_mle(y)
        ll_pwm = float(np.sum(pwm.logpdf(y)))
        ll_mle = float(np.sum(mle.logpdf(y)))
        assert ll_mle >= ll_pwm - 1e-9

    def test_endpoint_estimate(self):
        true = GPD(xi=-0.3, sigma=1.0)  # endpoint 10/3
        y = true.rvs(6000, rng=5)
        fit = fit_gpd_mle(y)
        assert fit.right_endpoint() == pytest.approx(10 / 3, rel=0.1)

    def test_validation(self):
        with pytest.raises(FitError):
            fit_gpd_pwm(np.ones(10))
        with pytest.raises(FitError):
            fit_gpd_pwm(np.array([1.0, -2.0, 3.0, 4.0]))
        with pytest.raises(FitError):
            fit_gpd_mle(np.array([1.0, 2.0]))

    def test_small_sample_robustness(self):
        true = GPD(xi=-0.2, sigma=1.0)
        rng = np.random.default_rng(6)
        for _ in range(40):
            fit = fit_gpd_mle(true.rvs(30, rng))
            assert math.isfinite(fit.xi)
            assert fit.sigma > 0

    def test_fits_never_put_an_exceedance_past_the_endpoint(self):
        # PWM starts of small bounded-tail samples often end below the
        # largest value (9 of these 40); the fit restarts from xi = 0.1.
        true = GPD(xi=-0.2, sigma=1.0)
        rng = np.random.default_rng(6)
        refuted_starts = 0
        for _ in range(40):
            y = true.rvs(30, rng)
            refuted_starts += fit_gpd_pwm(y).right_endpoint() <= y.max()
            assert fit_gpd_mle(y).right_endpoint() > y.max()
        assert refuted_starts > 0

    def test_infeasible_start_raises(self):
        # One POT round's exceedances (c880 zero-delay pool of 20k pairs,
        # seed 1; method="auto" at rng 1005).  The PWM start, xi = -2.23,
        # ends at 8.75e-5, below the largest value: its likelihood is 0.
        # Below xi = -1 the likelihood has no maximum, so Nelder-Mead runs
        # out of iterations from that start and from xi = 0.1.
        y = np.array(INFEASIBLE_START_EXCEEDANCES)
        start = fit_gpd_pwm(y)
        assert start.xi < -2 and start.right_endpoint() < y.max()
        with pytest.raises(FitError, match="infeasible start") as info:
            fit_gpd_mle(y)
        assert info.value.cause == "infeasible-start"


class TestFitDispatcher:
    """``fit_gpd`` — the single front door over the MLE/PWM fitters."""

    def test_default_is_mle(self):
        from repro.evt.gpd import fit_gpd

        rng = np.random.default_rng(2)
        y = GPD(xi=-0.2, sigma=1.0).rvs(500, rng)
        via_front = fit_gpd(y)
        direct = fit_gpd_mle(y)
        assert via_front.xi == direct.xi
        assert via_front.sigma == direct.sigma

    def test_pwm_route(self):
        from repro.evt.gpd import fit_gpd

        rng = np.random.default_rng(2)
        y = GPD(xi=-0.2, sigma=1.0).rvs(500, rng)
        via_front = fit_gpd(y, method="pwm")
        direct = fit_gpd_pwm(y)
        assert via_front.xi == direct.xi
        assert via_front.sigma == direct.sigma

    def test_pwm_rejects_start_point(self):
        from repro.evt.gpd import fit_gpd

        rng = np.random.default_rng(2)
        y = GPD(xi=-0.2, sigma=1.0).rvs(100, rng)
        with pytest.raises(FitError, match="start"):
            fit_gpd(y, method="pwm", start=(-0.1, 1.0))

    def test_unknown_method_rejected(self):
        from repro.evt.gpd import fit_gpd

        with pytest.raises(FitError, match="unknown GPD fit method"):
            fit_gpd(np.ones(50), method="bogus")
