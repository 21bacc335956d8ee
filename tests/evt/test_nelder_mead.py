"""The in-repo Nelder–Mead returns scipy.optimize's result, bit for bit.

``scipy.optimize.minimize(method="Nelder-Mead")`` is the reference: every
case runs both on the same objective from the same start and requires
the same ``x``, ``fun``, ``nit``, ``nfev`` and ``success``.  The
objectives are the GPD fitter's own negative log-likelihood, on the
exceedances of POT and ``auto`` runs and on random GPD samples, plus
hand-made edge cases.
"""

import math

import numpy as np
import pytest
from scipy import optimize

import repro.estimation.adaptive as adaptive_module
import repro.estimation.pot as pot_module
from repro.api import EstimatorConfig, build_estimator, build_population
from repro.errors import EstimationError, FitError
from repro.evt import gpd
from repro.evt.gpd import GPD
from repro.evt.nelder_mead import minimize_neldermead

#: The GPD fitter's options.
FIT_OPTIONS = {"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000}


def _same(a: float, b: float) -> bool:
    """Equal doubles (signed zeros told apart), NaN equal to NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_same_result(f, x0, **options):
    with np.errstate(invalid="ignore"):
        # scipy's own inf - inf comparisons warn; the port's do not.
        expected = optimize.minimize(
            f, np.array(x0, dtype=float), method="Nelder-Mead", options=options
        )
    got = minimize_neldermead(f, x0, **options)
    context = (x0, options, got)
    assert len(got.x) == 2 and all(
        _same(a, b) for a, b in zip(got.x, expected.x)
    ), context
    assert _same(got.fun, expected.fun), context
    assert (got.nit, got.nfev) == (expected.nit, expected.nfev), context
    assert got.success == bool(expected.success), context
    return got


def _fitter_start(y: np.ndarray):
    """``(ξ, ln σ)`` of the start ``fit_gpd_mle`` uses for ``y``."""
    try:
        start = gpd.fit_gpd_pwm(y)
    except FitError:
        start = gpd._open_start(y)
    return (start.xi, math.log(start.sigma))


def _open_start(y: np.ndarray):
    start = gpd._open_start(y)
    return (start.xi, math.log(start.sigma))


@pytest.fixture(scope="module")
def run_exceedances():
    """Every exceedance set the GPD fit sees in POT and ``auto`` runs on
    the c3540 (pool seed 1) and c880 (pool seed 1000) pools of 20k
    unit-delay pairs, estimator seeds 0–3."""
    recorded = []
    patch = pytest.MonkeyPatch()
    for module in (pot_module, adaptive_module):
        fit = module.fit_gpd

        def recording(y, *args, _fit=fit, **kwargs):
            recorded.append(np.array(y, dtype=np.float64))
            return _fit(y, *args, **kwargs)

        patch.setattr(module, "fit_gpd", recording)
    try:
        for circuit, pool_seed in (("c3540", 1), ("c880", 1000)):
            pool = build_population(
                circuit, population_size=20000, sim_mode="unit", seed=pool_seed
            )
            for config in (
                EstimatorConfig(method="pot", pot_threshold_quantile=0.9),
                EstimatorConfig(method="auto"),
            ):
                for seed in range(4):
                    build_estimator(pool, config).run(
                        rng=np.random.default_rng(seed)
                    )
    finally:
        patch.undo()
    return [y for y in recorded if y.size >= 5 and np.ptp(y) > 0]


class TestAgainstScipy:
    def test_run_exceedances(self, run_exceedances):
        assert len(run_exceedances) > 200
        for y in run_exceedances:
            _assert_same_result(gpd._negll(y), _fitter_start(y), **FIT_OPTIONS)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_gpd_samples(self, chunk):
        """1,000 GPD samples: ξ from −2 to 0.5, scales 1e-6 to 1e3, sizes
        5 to 80, from the fitter's start and, where that start is
        refuted by the sample, from its ξ = 0.1 restart.  Below ξ = −1
        the likelihood has no maximum and most runs use up ``maxiter``,
        so those samples draw it from 1–400 instead of the fitter's."""
        rng = np.random.default_rng([25, chunk])
        ran_out = 0
        for _ in range(250):
            xi = rng.uniform(-2.0, 0.5)
            sigma = 10.0 ** rng.uniform(-6.0, 3.0)
            y = GPD(xi=xi, sigma=sigma).rvs(int(rng.integers(5, 81)), rng)
            options = dict(FIT_OPTIONS)
            if xi < -1.0:
                options["maxiter"] = int(rng.integers(1, 401))
            negll = gpd._negll(y)
            x0 = _fitter_start(y)
            got = _assert_same_result(negll, x0, **options)
            ran_out += not got.success
            if negll(x0) == math.inf:
                got = _assert_same_result(negll, _open_start(y), **options)
                ran_out += not got.success
        assert ran_out > 30


class TestEdgeCases:
    @staticmethod
    def bowl(p):
        return (p[0] - 1.0) ** 2 + 3.0 * (p[1] + 0.5) ** 2 + 0.1 * p[0] * p[1]

    @pytest.mark.parametrize(
        "x0", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.0, 0.5)],
        ids=["zero-first", "zero-second", "both-zero", "negative-zero"],
    )
    def test_zero_coordinates(self, x0):
        got = _assert_same_result(self.bowl, x0, **FIT_OPTIONS)
        assert got.success

    def test_all_infinite_simplex(self):
        got = _assert_same_result(lambda p: math.inf, (0.3, -2.0), maxiter=50)
        assert not got.success and got.fun == math.inf

    def test_gpd_start_with_every_vertex_infeasible(self):
        # The fitter's objective at a refuted start: the whole first
        # simplex lies past the largest exceedance.
        y = np.array([0.1, 0.2, 0.3, 0.5, 1.0])
        negll = gpd._negll(y)
        x0 = (-2.0, math.log(0.5))
        assert negll(x0) == math.inf
        got = _assert_same_result(negll, x0, maxiter=200)
        assert not got.success

    @pytest.mark.parametrize(
        "f",
        [
            lambda p: math.nan,
            lambda p: math.nan if p[0] > 0.4 else (p[0] - 0.3) ** 2 + p[1] ** 2,
            lambda p: math.nan if p[1] < 0 else (p[0] - 0.3) ** 2 + p[1] ** 2,
        ],
        ids=["nan", "nan-part", "nan-below"],
    )
    def test_nan_objective(self, f):
        _assert_same_result(f, (0.35, 0.2), **FIT_OPTIONS)

    @pytest.mark.parametrize("maxiter", [1, 2, 3])
    def test_small_maxiter(self, maxiter):
        got = _assert_same_result(self.bowl, (0.3, 0.2), maxiter=maxiter)
        assert got.nit == maxiter and not got.success

    @pytest.mark.parametrize(
        "f",
        [
            lambda p: 0.0,  # every vertex ties
            lambda p: abs(p[0]) + abs(p[1]),  # mirror-image ties
            lambda p: float(math.floor(4.0 * p[0])),  # plateaus
            lambda p: math.inf if p[0] > 1.0 else -0.0 * p[1],  # ±0 and inf
        ],
        ids=["constant", "mirror", "plateaus", "signed-zero"],
    )
    def test_tied_values(self, f):
        _assert_same_result(f, (1.0, 1.0), **FIT_OPTIONS)
        _assert_same_result(f, (0.0, -1.0), maxiter=40)

    def test_default_tolerances(self):
        got = _assert_same_result(self.bowl, (0.3, 0.2), maxiter=400)
        assert got.success

    def test_two_parameters_only(self):
        with pytest.raises(ValueError, match="two parameters"):
            minimize_neldermead(lambda p: 0.0, (1.0, 2.0, 3.0), maxiter=10)


def _reference_negll(xi: float, log_sigma: float, y: np.ndarray) -> float:
    """The objective the fit minimised before the port: through
    :class:`GPD` and its masked ``logpdf``."""
    try:
        dist = GPD(xi=xi, sigma=math.exp(log_sigma))
    except (EstimationError, OverflowError):
        return math.inf
    with np.errstate(all="ignore"):
        total = float(np.sum(dist.logpdf(y)))
    return -total if math.isfinite(total) else math.inf


class TestObjective:
    XIS = [
        -50.0, -2.0, -1.0, -0.5, -1e-3, -1e-9, -9.9e-10, -1e-12, -0.0, 0.0,
        1e-12, 9.9e-10, 1e-9, 1e-3, 0.3, 1.0, 2.0, 50.0, math.nan, math.inf,
    ]
    LOG_SIGMAS = [
        -800.0, -700.0, -300.0, -20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 300.0,
        709.0, 710.0, math.inf, -math.inf, math.nan,
    ]

    @pytest.mark.parametrize(
        "y",
        [
            np.array([0.0, 0.5, 1.0, 2.0, 3.0]),
            np.array([1e-6, 3e-6, 2e-6, 5e-6, 4e-6, 1e-7]),
            np.geomspace(1e-3, 1e3, 40),
            np.array([0.0, 1e-300, 1.0, 1e300, 7.0]),
        ],
        ids=["unit", "micro", "wide", "extreme"],
    )
    def test_matches_gpd_logpdf(self, y):
        negll = gpd._negll(y)
        infinite = 0
        for xi in self.XIS:
            for log_sigma in self.LOG_SIGMAS:
                expected = _reference_negll(xi, log_sigma, y)
                with np.errstate(over="ignore"):
                    got = negll((xi, log_sigma))
                assert _same(got, expected), (xi, log_sigma)
                infinite += got == math.inf
        assert 0 < infinite < len(self.XIS) * len(self.LOG_SIGMAS)

    def test_matches_on_fitter_points(self, run_exceedances):
        # Points a fit visits: its start and a vertex of its first
        # simplex, plus the endpoint placed on the largest exceedance.
        for y in run_exceedances[::5]:
            negll = gpd._negll(y)
            xi, log_sigma = _fitter_start(y)
            points = [(xi, log_sigma), (xi * 1.05, log_sigma)]
            if xi < 0:
                points.append((xi, math.log(-xi * float(y.max()))))
            for point in points:
                assert _same(negll(point), _reference_negll(*point, y)), point
