"""Confidence machinery: u_l, Student-t intervals, SRS sizing."""

import math

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.evt.confidence import (
    MeanInterval,
    normal_interval,
    normal_two_sided_quantile,
    srs_required_units,
    t_mean_interval,
    t_two_sided_quantile,
)


class TestQuantiles:
    def test_u_l_known_values(self):
        assert normal_two_sided_quantile(0.90) == pytest.approx(1.6449, abs=1e-3)
        assert normal_two_sided_quantile(0.95) == pytest.approx(1.9600, abs=1e-3)
        assert normal_two_sided_quantile(0.99) == pytest.approx(2.5758, abs=1e-3)

    def test_t_quantile_known_values(self):
        # t_{0.9, 1} = 6.314 (the k=2 hyper-sample case)
        assert t_two_sided_quantile(0.90, 1) == pytest.approx(6.314, abs=1e-2)
        assert t_two_sided_quantile(0.90, 9) == pytest.approx(1.833, abs=1e-2)

    def test_t_approaches_normal(self):
        assert t_two_sided_quantile(0.90, 10000) == pytest.approx(
            normal_two_sided_quantile(0.90), abs=1e-3
        )

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(EstimationError):
                normal_two_sided_quantile(bad)
            with pytest.raises(EstimationError):
                t_two_sided_quantile(bad, 5)
        with pytest.raises(EstimationError):
            t_two_sided_quantile(0.9, 0)


class TestQuantilesMatchScipyStats:
    """``scipy.special`` serves the same doubles ``scipy.stats`` did."""

    LEVELS = [0.005 * i for i in range(1, 200)] + [0.001, 0.683, 0.9973, 0.999]

    def test_normal_quantile(self):
        from scipy import stats

        for level in self.LEVELS:
            expected = float(stats.norm.ppf(0.5 * (1.0 + level)))
            assert normal_two_sided_quantile(level) == expected, level

    def test_t_quantile(self):
        from scipy import stats

        for level in self.LEVELS:
            expected = stats.t.ppf(0.5 * (1.0 + level), np.arange(1, 200))
            got = [t_two_sided_quantile(level, dof) for dof in range(1, 200)]
            assert got == expected.tolist(), level


class TestTInterval:
    def test_hand_computed_interval(self):
        values = [10.0, 12.0, 11.0, 13.0]
        interval = t_mean_interval(values, 0.90)
        s = np.std(values, ddof=1)
        t = t_two_sided_quantile(0.90, 3)
        assert interval.mean == pytest.approx(11.5)
        assert interval.half_width == pytest.approx(t * s / 2.0)
        assert interval.k == 4
        assert interval.low == pytest.approx(11.5 - interval.half_width)
        assert interval.contains(11.5)
        assert not interval.contains(100.0)

    def test_rel_half_width(self):
        interval = MeanInterval(mean=10.0, half_width=0.5, level=0.9, k=5, std=1.0)
        assert interval.rel_half_width == pytest.approx(0.05)
        zero = MeanInterval(mean=0.0, half_width=0.5, level=0.9, k=5, std=1.0)
        assert zero.rel_half_width == math.inf

    def test_needs_two_values(self):
        with pytest.raises(EstimationError):
            t_mean_interval([1.0], 0.9)

    def test_interval_coverage_simulation(self):
        # 90% t-intervals over N(5,1) samples of size 8 should cover the
        # true mean ~90% of the time.
        rng = np.random.default_rng(13)
        hits = 0
        trials = 500
        for _ in range(trials):
            values = rng.normal(5.0, 1.0, size=8)
            if t_mean_interval(values, 0.90).contains(5.0):
                hits += 1
        assert hits / trials == pytest.approx(0.90, abs=0.04)


class TestNormalInterval:
    def test_formula(self):
        lo, hi = normal_interval(10.0, 2.0, 25, 0.95)
        half = 1.96 * 2.0 / 5.0
        assert lo == pytest.approx(10.0 - half, abs=1e-3)
        assert hi == pytest.approx(10.0 + half, abs=1e-3)

    def test_validation(self):
        with pytest.raises(EstimationError):
            normal_interval(0.0, -1.0, 5, 0.9)
        with pytest.raises(EstimationError):
            normal_interval(0.0, 1.0, 0, 0.9)


class TestSrsSizing:
    def test_paper_c1355_value(self):
        # Paper Table 1: Y = 0.0001 -> 23024 units at 90%.
        assert srs_required_units(0.0001, 0.9) == pytest.approx(23024, rel=1e-3)

    def test_paper_c432_value(self):
        # Paper Table 1: Y = 0.000038 -> 60593 units.
        assert srs_required_units(0.000038, 0.9) == pytest.approx(
            60591, rel=1e-3
        )

    def test_edge_cases(self):
        assert srs_required_units(0.0) == math.inf
        assert srs_required_units(1.0) == 1.0

    def test_edge_cases_hold_at_any_level(self):
        # Y = 0: no qualified unit can ever be drawn; Y = 1: the very
        # first draw qualifies — independent of the confidence level.
        for level in (0.1, 0.5, 0.9, 0.999):
            assert srs_required_units(0.0, level) == math.inf
            assert srs_required_units(1.0, level) == 1.0

    def test_near_edge_portions_finite_and_ordered(self):
        almost_all = srs_required_units(1.0 - 1e-12, 0.9)
        almost_none = srs_required_units(1e-12, 0.9)
        assert 0.0 < almost_all < 1.0 + 1e-6
        assert math.isfinite(almost_none) and almost_none > 1e9

    def test_monotone_in_portion(self):
        assert srs_required_units(1e-5) > srs_required_units(1e-3)

    def test_monotone_in_level(self):
        assert srs_required_units(1e-4, 0.99) > srs_required_units(1e-4, 0.9)

    def test_validation(self):
        with pytest.raises(EstimationError):
            srs_required_units(-0.1)
        with pytest.raises(EstimationError):
            srs_required_units(0.5, 1.0)
