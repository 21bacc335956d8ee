"""Result records for the estimators (reported objects, no logic).

Both records serialize to plain JSON (``to_dict``/``to_json`` with
``from_dict``/``from_json`` round trips), and the dict forms share their
field names with the attributes of the ``estimator.hyper_sample`` and
``estimator.run`` spans recorded by :mod:`repro.obs` — a persisted
result and a trace of the run that produced it describe the same thing
in the same vocabulary.

The wire format itself (field set, ``schema_version`` stamping, major
version rejection) is owned by :mod:`repro.schemas`; the methods here
delegate to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import EstimationError
from ..evt.confidence import MeanInterval
from ..evt.mle import WeibullFit

__all__ = ["AdaptiveDecision", "HyperSample", "EstimationResult"]


@dataclass(frozen=True)
class AdaptiveDecision:
    """What the adaptive controller chose, and why (a result record).

    Attached to :attr:`EstimationResult.decision` by runs with
    ``method="auto"`` (see :mod:`repro.estimation.adaptive`); plain data
    so it serializes with the result and survives checkpoints, the job
    service, and trace exports unchanged.

    Attributes
    ----------
    chosen_n, chosen_m:
        The block size and blocks-per-hyper-sample the production run
        used (the paper fixes 30 and 10; the pilot may not).
    family:
        Selected estimator family: ``"weibull"`` (block-maxima MLE) or
        ``"pot"`` (peaks-over-threshold/GPD).
    cv_score_weibull, cv_score_pot:
        Cross-validation scores (mean relative prediction error of
        held-out pilot block maxima; lower is better).
    pilot_units:
        Vector pairs the pilot + cross-validation phases simulated
        (already included in :attr:`EstimationResult.units_used`).
    candidate_ns:
        Block sizes the pilot measured.
    pilot_fallback_rate:
        Fraction of pilot hyper-samples at ``chosen_n`` whose Weibull
        fit fell back to the sample maximum (drives the m policy).
    """

    chosen_n: int
    chosen_m: int
    family: str
    cv_score_weibull: float
    cv_score_pot: float
    pilot_units: int
    candidate_ns: List[int] = field(default_factory=list)
    pilot_fallback_rate: float = 0.0

    def to_dict(self) -> dict:
        """Versioned JSON-able form (see :mod:`repro.schemas`)."""
        from ..schemas import dump_adaptive_decision

        return dump_adaptive_decision(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveDecision":
        from ..schemas import load_adaptive_decision

        return load_adaptive_decision(data)


@dataclass(frozen=True)
class HyperSample:
    """One hyper-sample (paper Figure 3): m block maxima -> one estimate.

    Attributes
    ----------
    index:
        1-based position in the iteration.
    maxima:
        The m block-maxima values the fit consumed.
    fit:
        The generalized-Weibull MLE fit, or ``None`` when the fit fell
        back to the plain maximum or the round fitted no Weibull (a POT
        round).
    estimate:
        The hyper-sample's maximum-power estimate ``P̂_i,MAX`` — μ̂ for
        infinite populations, the (1 − 1/|V|) Weibull quantile for
        finite ones, or the sample maximum in the degenerate case.
    units_used:
        Vector pairs simulated for this hyper-sample (n · m).
    fallback_reason:
        Why the fit fell back to the plain maximum (the ``FitError``
        message), or ``None`` when the fit succeeded.
    """

    index: int
    maxima: np.ndarray
    fit: Optional[WeibullFit]
    estimate: float
    units_used: int
    fallback_reason: Optional[str] = None

    @property
    def degenerate(self) -> bool:
        """Whether the round fell back to the plain maximum."""
        return self.fallback_reason is not None

    def to_dict(self) -> dict:
        """Versioned JSON-able form (see :mod:`repro.schemas`)."""
        from ..schemas import dump_hyper_sample

        return dump_hyper_sample(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HyperSample":
        from ..schemas import load_hyper_sample

        return load_hyper_sample(data)


@dataclass
class EstimationResult:
    """Outcome of the iterative maximum-power estimation (Figure 4).

    Attributes
    ----------
    estimate:
        ``P̄_MAX`` — the mean of the hyper-sample estimates.
    interval:
        The Student-t confidence interval at the requested level over
        all k hyper-samples (always set: every method enforces
        ``min_hyper_samples >= 2``).
    converged:
        Whether the relative half-width met the error bound before the
        hyper-sample budget ran out.
    error_bound, confidence:
        The requested ε and l.
    hyper_samples:
        Full per-iteration history.
    units_used:
        Total simulated vector pairs (the paper's "# of units" columns).
    population_name, population_size:
        Provenance (size ``None`` for infinite populations).
    ci_trajectory:
        Relative CI half-width after each hyper-sample from
        ``min_hyper_samples`` on — the convergence trajectory the
        iterative procedure walked (one entry per evaluated interval).
    method:
        How the estimator was selected: ``"fixed"`` (the paper's
        block-maxima estimator with explicit n/m), ``"pot"``
        (peaks-over-threshold), or ``"auto"`` (the adaptive controller).
    decision:
        The adaptive controller's choices (``method="auto"`` only).
    """

    estimate: float
    interval: Optional[MeanInterval]
    converged: bool
    error_bound: float
    confidence: float
    hyper_samples: List[HyperSample] = field(default_factory=list)
    units_used: int = 0
    population_name: str = ""
    population_size: Optional[int] = None
    ci_trajectory: List[float] = field(default_factory=list)
    method: str = "fixed"
    decision: Optional[AdaptiveDecision] = None

    @property
    def k(self) -> int:
        """Number of hyper-samples consumed."""
        return len(self.hyper_samples)

    @property
    def rel_half_width(self) -> float:
        if self.interval is None:
            return float("inf")
        return self.interval.rel_half_width

    def relative_error(self, actual_max: float) -> float:
        """Signed relative error vs. a known true maximum.

        Raises :class:`~repro.errors.EstimationError` when
        ``actual_max`` is zero, consistently with the SRS and
        high-quantile baselines (a degenerate all-zero-power population
        has no meaningful relative error).
        """
        if actual_max == 0:
            raise EstimationError(
                "relative error is undefined against a zero actual maximum "
                "(degenerate all-zero-power population)"
            )
        return (self.estimate - actual_max) / actual_max

    def summary(self, quantity: str = "P_max", unit: str = "W") -> str:
        """One-line human-readable summary of the estimated maximum."""
        status = "converged" if self.converged else "NOT converged"
        ci = (
            f" CI=[{self.interval.low:.4g}, {self.interval.high:.4g}]"
            if self.interval
            else ""
        )
        return (
            f"{self.population_name}: {quantity}≈{self.estimate:.4g} {unit}{ci} "
            f"({status}, k={self.k}, units={self.units_used}, "
            f"ε={self.error_bound:.0%} @ l={self.confidence:.0%})"
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-able dump including every hyper-sample fit."""
        from ..schemas import dump_estimation_result

        return dump_estimation_result(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "EstimationResult":
        from ..schemas import load_estimation_result

        return load_estimation_result(data)

    @classmethod
    def from_json(cls, text: str) -> "EstimationResult":
        return cls.from_dict(json.loads(text))
