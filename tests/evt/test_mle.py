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
# Identity of the vectorised coarse grid and the warm shape solves with
# the scalar scan they replaced.
#
# The reference below is the scalar fitter as it stood before the grid
# was vectorised, kept verbatim (only the names carry a ``_ref`` prefix)
# apart from the refinement rule and the search's first offset, which
# it takes too: shape solver (scipy's Brent from the cold bracket),
# profile likelihood and derivative, the per-offset grid loop and the
# refinement.  The production fitter, whose shape solves start Newton
# from a known root, must return the same outcome, diagnostics and
# FitError cause, and the same fit up to the shape roots' rounding
# (``_assert_matches_reference``).  With ``edge=False`` the reference
# runs scipy's bounded minimizer wherever the derivative brackets no
# root, as the fitter did before it kept the grid point there
# (TestEdgeOptima).


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
    edge: bool = True,
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
    # order there).  Otherwise the best grid point is the fit ("edge" at
    # an end of the search, "grid" inside it), or, with ``edge=False``,
    # the bounded minimize runs on the bracket.  The search starts at
    # the first offset for which ``top + offset`` leaves ``top``.
    best_idx = int(np.argmax(lls))
    first = int(np.count_nonzero(top + offsets == top))
    last = offsets.size - 1
    lo_off = offsets[max(best_idx - 1, first)]
    hi_off = offsets[min(best_idx + 1, last)]
    refined: Optional[float] = None
    refine_path = "edge" if best_idx in (first, last) else "grid"
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
    elif not edge:
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


#: The fitter's search settings: ``(mu_span, grid_points, min_offset_frac)``.
_DEFAULT = (mle._MU_SPAN, mle._GRID_POINTS, mle._MIN_OFFSET_FRAC)


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
    settings = _DEFAULT
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


#: Diagnostics the warm solves leave exactly as the reference's.
_SAME_DIAG = (
    "refine", "refine_accepted", "m", "grid_points", "grid_finite",
    "bracket_lo", "bracket_hi",
)


def _assert_same_fit(got, expected, context):
    """The same outcome kind, FitError cause and search diagnostics; the
    same fit up to the shape roots' rounding: α̂, the Weibull scale and
    μ̂ − max(x) within 1e-8 relative, the log-likelihood within 1e-12."""
    assert got[0] == expected[0], context
    if got[0] != "fit":
        assert got == expected, context
        return
    (_, fit, diag), (_, ref, ref_diag) = got, expected
    assert [diag[k] for k in _SAME_DIAG] == [
        ref_diag[k] for k in _SAME_DIAG
    ], context
    for value, ref_value in (
        (fit.alpha, ref.alpha),
        (fit.distribution.scale, ref.distribution.scale),
        (diag["mu_offset"], ref_diag["mu_offset"]),
    ):
        assert value == pytest.approx(ref_value, rel=1e-8, abs=0.0), context
    assert fit.loglik == pytest.approx(ref.loglik, rel=1e-12, abs=0.0), context


def _assert_matches_reference(x, settings, context):
    """The fitter's outcome, checked against the reference."""
    expected = _outcome(_reference_fit, x, settings)
    got = _outcome(mle._fit_weibull_mle_impl, x, settings)
    if expected[0] == "raised":
        # The reference's brentq meets a NaN where μ rounds to max(x);
        # the fitter treats such an offset as a failed profile row
        # (FitError "zero-offset") and never raises a bare ValueError.
        assert got[0] in ("fit", "error"), context
    else:
        _assert_same_fit(got, expected, context)
    return got


class TestVectorisedGridIdentity:
    """2,000 seeded samples: outcome, diagnostics and FitError cause
    match, and the fit within the shape roots' rounding."""

    @pytest.mark.parametrize("chunk", range(8))
    def test_matches_scalar_reference(self, chunk):
        """At the default grid no fit is a bare interior grid point: the
        derivative brackets a root, or the best offset ends the search."""
        with np.errstate(all="ignore"):
            for seed in range(250 * chunk, 250 * (chunk + 1)):
                x, settings = _identity_case(seed)
                context = (seed, x.tolist(), settings)
                got = _assert_matches_reference(x, settings, context)
                if settings == _DEFAULT and got[0] == "fit":
                    assert got[2]["refine"] in ("root", "edge"), context

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
        _assert_matches_reference(x, _DEFAULT, x.tolist())


def _grid_offsets(x, settings):
    mu_span, grid_points, min_offset_frac = settings
    spread = float(np.ptp(x))
    return np.geomspace(min_offset_frac * spread, mu_span * spread, grid_points)


class TestEdgeOptima:
    """A profile that peaks at an end of the μ grid, with no sign change
    of its derivative there, keeps that grid point as the fit."""

    @staticmethod
    def _normal_maxima(seed):
        # Block maxima of normal units, like the estimator's (γ ≈ 0).
        return np.random.default_rng(seed).normal(size=(10, 30)).max(axis=1)

    def test_top_end_is_the_search_limit(self):
        x = self._normal_maxima(0)
        fit, diag = mle._fit_weibull_mle_impl(x)
        offsets = _grid_offsets(x, _DEFAULT)
        assert diag["refine"] == "edge"
        assert not diag["refine_accepted"]
        assert fit.mu == x.max() + offsets[-1]
        assert diag["bracket_hi"] == offsets[-1]
        assert fit.alpha > 2.0

    def test_bottom_end_heavy_lower_tail(self):
        x = self._normal_maxima(16)
        fit, diag = mle._fit_weibull_mle_impl(x)
        offsets = _grid_offsets(x, _DEFAULT)
        assert diag["refine"] == "edge"
        assert fit.mu == x.max() + offsets[0]
        assert diag["bracket_lo"] == offsets[0]
        assert fit.alpha < 1.0

    @pytest.mark.parametrize("slope", [math.nan, -1.0])
    def test_end_needs_an_outward_derivative(self, monkeypatch, slope):
        """No sign change, no search inside the end cell: with a NaN
        derivative, or one that turns down inside it, the end grid point
        is still the fit."""
        x = self._normal_maxima(0)
        monkeypatch.setattr(mle, "_profile_dll", lambda mu, x, profile: slope)
        fit, diag = mle._fit_weibull_mle_impl(x)
        offsets = _grid_offsets(x, _DEFAULT)
        assert diag["refine"] == "edge"
        assert not diag["refine_accepted"]
        assert fit.mu == x.max() + offsets[-1]
        assert diag["bracket_hi"] == offsets[-1]

    def test_root_path_still_runs_at_a_grid_end(self):
        x, settings = _identity_case(1159)
        assert settings == _DEFAULT
        _, diag = mle._fit_weibull_mle_impl(x, *settings)
        assert diag["refine"] == "root"
        assert diag["bracket_hi"] == _grid_offsets(x, settings)[-1]

    @pytest.mark.parametrize("chunk", range(2))
    def test_only_grid_end_minimizer_fits_move(self, chunk):
        """Against the bounded minimizer the fitter ran on every bracket
        without a derivative root (``_reference_fit`` with ``edge=False``),
        on the identity samples: no end cell holds a better point than
        its grid end.  An edge fit keeps the minimizer's search
        diagnostics, and its log-likelihood does not fall (by more than
        the warm shape solves' rounding, 1e-12 relative).

        Root fits take the same branch with ``edge`` on or off, and
        TestVectorisedGridIdentity holds the fitter to them; the interior
        grid fits are test_coarse_grid_keeps_its_best_point's."""
        grid_keys = ("m", "grid_points", "grid_finite", "bracket_lo", "bracket_hi")
        edge_fits = 0
        with np.errstate(all="ignore"):
            for seed in range(1000 * chunk, 1000 * (chunk + 1)):
                x, settings = _identity_case(seed)
                new = _outcome(mle._fit_weibull_mle_impl, x, settings)
                if new[0] != "fit" or new[2]["refine"] != "edge":
                    continue
                edge_fits += 1
                context = (seed, x.tolist(), settings)
                old = _outcome(
                    lambda *a: _reference_fit(*a, edge=False), x, settings
                )
                if old[0] == "raised":  # as in _assert_matches_reference
                    continue
                assert old[0] == "fit", context
                (_, fit, diag), (_, old_fit, old_diag) = new, old
                assert old_diag["refine"] == "minimize", context
                assert [diag[k] for k in grid_keys] == [
                    old_diag[k] for k in grid_keys
                ], context
                # An end cell: the bracket spans one grid step, not two.
                offsets = _grid_offsets(x, settings)
                top = float(x.max())
                assert (diag["bracket_lo"], diag["bracket_hi"], fit.mu) in (
                    (offsets[0], offsets[1], top + offsets[0]),
                    (offsets[-2], offsets[-1], top + offsets[-1]),
                ), context
                assert not diag["refine_accepted"], context
                assert fit.loglik >= old_fit.loglik - 1e-12 * abs(
                    old_fit.loglik
                ), context
                assert fit.mu == pytest.approx(old_fit.mu, rel=1e-7), context
        assert edge_fits > 300

    def test_coarse_grid_keeps_its_best_point(self):
        """5 grid points over 1e8·range(x), and no sign change of the
        derivative around the best, interior, offset: that grid point is
        the fit (``grid``), 1.18 below the log-likelihood the bounded
        minimizer reached.  No default-grid fit is one."""
        x, settings = _identity_case(1494)
        assert settings[:2] == (1e8, 5)
        fit, diag = mle._fit_weibull_mle_impl(x, *settings)
        offsets = _grid_offsets(x, settings)
        assert diag["refine"] == "grid"
        assert not diag["refine_accepted"]
        assert fit.mu in x.max() + offsets[1:-1]
        old = _reference_fit(x, *settings, edge=False)[0]
        assert old.loglik - fit.loglik == pytest.approx(1.18, rel=0.01)
        # The other such grid's best point has α̂ ≈ 5,900, so β =
        # scale^−α underflows: that fit fails, where the minimizer's
        # point (α̂ ≈ 67) did not.
        x, settings = _identity_case(1601)
        assert settings[:2] == (1e8, 5)
        with pytest.raises(FitError) as info:
            mle._fit_weibull_mle_impl(x, *settings)
        assert info.value.cause == "param-range"
        assert _reference_fit(x, *settings, edge=False)[0].alpha < 100.0


class TestWarmShapeSolve:
    """An exact shape solve with a start runs Newton on ``ln a`` from it,
    and the cold Brent solve only where Newton gives up."""

    @staticmethod
    def _equations():
        # Normalised y of normal block maxima across the default μ grid.
        for seed in range(20):
            x = TestEdgeOptima._normal_maxima(seed)
            for frac in (1e-4, 1e-2, 1.0, 10.0):
                y = x.max() + frac * np.ptp(x) - x
                yield y / y.max()

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_warm_start_returns_the_cold_root(self, factor):
        for yn in self._equations():
            root, cold = mle._solve_shape(yn)
            assert cold
            a, cold = mle._solve_shape(yn, factor * root)
            assert not cold, yn.tolist()
            assert a == pytest.approx(root, rel=1e-12, abs=0.0), yn.tolist()

    @pytest.mark.parametrize(
        "start", [0.5 * mle._SHAPE_LO, mle._SHAPE_LO, 0.5 * mle._SHAPE_HI, math.nan]
    )
    def test_start_outside_the_limits_runs_the_cold_solve(self, start):
        for yn in self._equations():
            assert mle._solve_shape(yn, start) == mle._solve_shape(yn)

    def test_normal_block_maxima_make_no_cold_solves(self):
        """Every 5th identity seed (block maxima of normals, like the
        estimator's) at default settings, and 2,000 seeded samples of
        m = 10 maxima of 30 normals: every exact profile solve, grid row
        or refinement point, starts from a known root, and every fit is
        a derivative root or a search end (``edge``), never an interior
        grid point."""
        samples = [
            x for x, settings in map(_identity_case, range(4, 2000, 5))
            if settings == _DEFAULT
        ] + [TestEdgeOptima._normal_maxima(seed) for seed in range(2000)]
        fits = solves = 0
        with np.errstate(all="ignore"):
            for x in samples:
                try:
                    _, diag = mle._fit_weibull_mle_impl(x)
                except FitError:
                    continue
                fits += 1
                solves += diag["profile_solves"]
                assert diag["cold_solves"] == 0, (x.tolist(), diag)
                assert diag["refine"] in ("root", "edge"), (x.tolist(), diag)
        assert fits > 2250 and solves > 12000


class TestZeroOffset:
    """μ rounding to max(x) leaves a zero in ``y = μ − x``: that profile
    row fails with a FitError, before any log of zero, and the
    refinement's search starts above such rows."""

    @pytest.mark.parametrize(
        "x, settings",
        [
            # Spread 5e-5 at 1e6: the smallest offsets round away.
            (1e6 + np.random.default_rng(1).uniform(0.0, 5e-5, 9), (10.0, 80, 1e-7)),
            # Default settings, spread below ~1e-12 of the values.
            (1.0 + np.random.default_rng(2).uniform(0.0, 1e-13, 10), _DEFAULT),
        ],
        ids=["offset-1e6", "spread-1e-13"],
    )
    def test_fit_or_fit_error_without_warnings(self, x, settings):
        assert x.max() + settings[2] * np.ptp(x) == x.max()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                fit, _ = mle._fit_weibull_mle_impl(x, *settings)
            except FitError:
                return
        assert fit.mu > x.max()

    def test_profile_row_fails_with_its_own_cause(self):
        x = np.array([1.0, 2.0, 3.0])
        with pytest.raises(FitError) as info:
            mle._profile_loglik(3.0, x)
        assert info.value.cause == "zero-offset"

    @pytest.mark.parametrize(
        "seed", [8, 64, 112, 118, 177, 188, 226, 239, 242, 244, 255, 261, 270]
    )
    def test_search_starts_above_the_rows_that_round_away(self, seed):
        """Normal block maxima of spread ~1e-5 at 1e6 whose best offset is
        the first that leaves max(x): it is the lower end of the search
        (bracket and edge rule), so no refinement point rounds to max(x),
        which used to fail the whole fit with cause ``zero-offset``."""
        normal = np.random.default_rng(seed).normal(size=(10, 30)).max(axis=1)
        x = 1e6 + 1e-5 * normal
        settings = (10.0, 80, 1e-9)
        fit, diag = mle._fit_weibull_mle_impl(x, *settings)
        top = float(x.max())
        offsets = _grid_offsets(x, settings)
        first = int(np.count_nonzero(top + offsets == top))
        assert first > 0
        assert diag["bracket_lo"] == offsets[first]
        assert diag["refine"] in ("edge", "root")
        grid = []
        for off in offsets[first:]:
            try:
                grid.append(mle._profile_loglik(top + off, x)[0])
            except FitError:
                pass
        # The accept rule's tolerance: no fit below the best grid value.
        assert fit.loglik >= max(grid) - 1e-9 * abs(max(grid))
