"""Per-key demand tracking and pool-size targets.

The controller is the glue between raw observations ("how many
containers of type *k* were needed this interval") and actionable
targets ("keep *n* warm containers of type *k*").  HotC's middleware
calls :meth:`observe` once per key per control interval and reads
:meth:`target` when resizing the pool.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.predictor.combined import CombinedPredictor

__all__ = ["AdaptivePoolController"]

PredictorFactory = Callable[[], CombinedPredictor]


class AdaptivePoolController:
    """Maintains one predictor and demand history per runtime key.

    Parameters
    ----------
    predictor_factory:
        Zero-arg callable building a fresh predictor for a new key.
        Defaults to the paper's configuration
        (:class:`CombinedPredictor` with alpha=0.8).
    max_target:
        Upper clamp on any per-key target (safety net, mirrors the
        pool-wide 500-container cap).
    """

    def __init__(
        self,
        predictor_factory: Optional[PredictorFactory] = None,
        max_target: int = 500,
    ) -> None:
        if max_target < 0:
            raise ValueError("max_target must be >= 0")
        self._factory = predictor_factory or CombinedPredictor
        self.max_target = max_target
        self._predictors: Dict[object, CombinedPredictor] = {}
        self._history: Dict[object, List[float]] = {}
        self._forecasts: Dict[object, List[float]] = {}

    # -- observation ------------------------------------------------------
    def observe(self, key, demand: float) -> float:
        """Record one interval's demand for ``key``; returns the forecast."""
        if demand < 0:
            raise ValueError(f"demand must be >= 0, got {demand}")
        predictor = self._predictors.get(key)
        if predictor is None:
            predictor = self._predictors[key] = self._factory()
            self._history[key] = []
            self._forecasts[key] = []
        self._history[key].append(float(demand))
        forecast = predictor.update(float(demand))
        self._forecasts[key].append(forecast)
        return forecast

    # -- queries ----------------------------------------------------------
    def target(self, key) -> int:
        """Warm-container target for ``key``: the rounded-up forecast."""
        predictor = self._predictors.get(key)
        if predictor is None or predictor.forecast is None:
            return 0
        return int(min(self.max_target, max(0, math.ceil(predictor.forecast - 1e-9))))

    def target_upper(self, key, quantile: float = 0.9, horizon: int = 4) -> int:
        """Risk-aware target from the k-step upper-quantile forecast.

        Never below :meth:`target`: ``forecast_upper`` is clamped to the
        point forecast (and falls back to it while the key's residual
        chain has no data), so the risk-aware target can only add
        capacity.  This is the target HotC's pool resizing uses: it
        keeps capacity provisioned across recurring bursts (Fig 14b).
        """
        predictor = self._predictors.get(key)
        if predictor is None:
            return 0
        upper = predictor.forecast_upper(quantile=quantile, horizon=horizon)
        if upper is None:
            return 0
        return int(min(self.max_target, max(0, math.ceil(upper - 1e-9))))

    def donation_headroom(
        self, key, total: int, quantile: float = 0.9, horizon: int = 4
    ) -> int:
        """How many of ``total`` pooled containers ``key`` can donate.

        The repurposing donor policy: a key may give up idle containers
        only down to the *larger* of its point-forecast and risk-aware
        targets — donate the slack the forecast says will not be
        missed.  A key the controller has never observed has no
        forecast demand, so its containers are fully donatable (they
        exist only because a request left them behind).
        """
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        need = max(
            self.target(key),
            self.target_upper(key, quantile=quantile, horizon=horizon),
        )
        return max(0, total - need)

    def known_keys(self) -> Tuple:
        """All keys that have been observed, insertion-ordered."""
        return tuple(self._predictors)

    def history(self, key) -> Tuple[float, ...]:
        """Raw demand history of a key."""
        return tuple(self._history.get(key, ()))

    def forecast_history(self, key) -> Tuple[float, ...]:
        """Forecast made after each observation (for Fig 10)."""
        return tuple(self._forecasts.get(key, ()))

    def last_forecast(self, key) -> Optional[float]:
        """``forecast_history(key)[-1]`` (None if unseen), without a copy."""
        forecasts = self._forecasts.get(key)
        return forecasts[-1] if forecasts else None

    def relative_errors(self, key) -> Tuple[float, ...]:
        """|forecast_{t-1} - actual_t| / max(actual_t, 1) per step.

        ``forecast_history[i]`` predicts ``history[i+1]`` — the series
        behind the paper's "relative error drops from 29% to 10%" claim.
        """
        history = self._history.get(key, [])
        forecasts = self._forecasts.get(key, [])
        errors = []
        for index in range(1, len(history)):
            actual = history[index]
            predicted = forecasts[index - 1]
            errors.append(abs(predicted - actual) / max(actual, 1.0))
        return tuple(errors)
