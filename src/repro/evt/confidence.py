"""Confidence-interval machinery (paper Theorems 4 and 6).

Two interval forms appear in the paper:

* the *theoretical* normal interval with the standard-normal two-sided
  quantile ``u_l`` (Eqn. 3.5–3.6) — unusable directly because σ_μ² is
  unknown;
* the *practical* Student-t interval over k hyper-sample estimates
  (Eqn. 3.8) — what the iterative procedure actually evaluates.

Both are provided, plus the SRS sample-size formula from the paper's
efficiency analysis (Section IV):
``x = log(1 − l) / log(1 − Y)`` units for confidence ``l`` when a
fraction ``Y`` of units qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import special

from ..errors import EstimationError

__all__ = [
    "normal_two_sided_quantile",
    "t_two_sided_quantile",
    "MeanInterval",
    "t_mean_interval",
    "normal_interval",
    "srs_required_units",
]


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise EstimationError(f"confidence level must be in (0,1), got {level}")


def normal_two_sided_quantile(level: float) -> float:
    """The paper's ``u_l``: ``P(−u <= Z <= u) = level`` for standard Z."""
    _check_level(level)
    return float(special.ndtri(0.5 * (1.0 + level)))


def t_two_sided_quantile(level: float, dof: int) -> float:
    """The paper's ``t_{l,k−1}`` two-sided Student-t quantile."""
    _check_level(level)
    if dof < 1:
        raise EstimationError("degrees of freedom must be >= 1")
    return float(special.stdtrit(dof, 0.5 * (1.0 + level)))


@dataclass(frozen=True)
class MeanInterval:
    """A symmetric confidence interval around a sample mean.

    ``rel_half_width`` is the paper's convergence quantity
    ``t_{l,k−1}·s / (√k · P̄_MAX)`` (or its normal analogue).
    """

    mean: float
    half_width: float
    level: float
    k: int
    std: float

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def rel_half_width(self) -> float:
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def to_dict(self) -> dict:
        """Versioned JSON-able form (see :mod:`repro.schemas`)."""
        from ..schemas import dump_mean_interval

        return dump_mean_interval(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MeanInterval":
        from ..schemas import load_mean_interval

        return load_mean_interval(data)


def t_mean_interval(values: Sequence[float], level: float) -> MeanInterval:
    """Student-t interval over hyper-sample estimates (Eqn. 3.8).

    Needs at least two values (k − 1 >= 1 degrees of freedom).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise EstimationError("need at least 2 values for a t interval")
    _check_level(level)
    k = arr.size
    mean = float(arr.mean())
    s = float(arr.std(ddof=1))
    t = t_two_sided_quantile(level, k - 1)
    return MeanInterval(
        mean=mean,
        half_width=t * s / math.sqrt(k),
        level=level,
        k=k,
        std=s,
    )


def normal_interval(
    mean: float, sigma: float, m: int, level: float
) -> Tuple[float, float]:
    """Theoretical interval of Theorem 4: ``mean ± u_l · σ/√m``."""
    _check_level(level)
    if sigma < 0 or m < 1:
        raise EstimationError("sigma must be >= 0 and m >= 1")
    u = normal_two_sided_quantile(level)
    half = u * sigma / math.sqrt(m)
    return mean - half, mean + half


def srs_required_units(qualified_portion: float, level: float = 0.9) -> float:
    """Units simple random sampling needs to hit a qualified unit.

    The paper's Section IV analysis: with qualified portion ``Y``, the
    probability that ``x`` random units contain at least one qualified
    unit is ``1 − (1 − Y)^x``; solving for probability ``level`` gives
    ``x = log(1 − level) / log(1 − Y)``.

    Returns ``inf`` when ``Y == 0``.
    """
    _check_level(level)
    if not 0.0 <= qualified_portion <= 1.0:
        raise EstimationError("qualified_portion must be in [0, 1]")
    if qualified_portion == 0.0:
        return math.inf
    if qualified_portion == 1.0:
        return 1.0
    return math.log(1.0 - level) / math.log(1.0 - qualified_portion)
