"""Exponential smoothing (paper Eq. 1).

    e_{k,t} = alpha * history[k][t] + (1 - alpha) * e_{k,t-1}

The paper chooses ``alpha = 0.8`` (high sensitivity, suited to the
volatile serverless series) and initialises with the *average of the
first five observations* when the series is short (< 20 points), else
the first observation — Section IV-C(2).  In a streaming setting the
series is always "short" when the initial value is chosen, so
``init="auto"`` is the mean-of-first-five rule; ``"first"`` and
``"mean5"`` force either behaviour for the Fig 10b sensitivity study.

The mean-based init holds the level at the *running mean* while the
first five observations accumulate — after five points the level is
exactly their average, and only then does the Eq. 1 recursion take
over.  (Replaying early observations through the recursion on top of a
mean that already contains them would double-count them; the smoother
deliberately does not do that.)
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["ExponentialSmoothing"]

_INIT_POLICIES = ("auto", "first", "mean5")

#: How many leading observations the mean-based init averages.
_INIT_WINDOW = 5


class ExponentialSmoothing:
    """Streaming single exponential smoother.

    >>> es = ExponentialSmoothing(alpha=0.8, init="first")
    >>> es.update(10.0)
    10.0
    >>> es.update(20.0)  # 0.8*20 + 0.2*10
    18.0
    """

    def __init__(self, alpha: float = 0.8, init: str = "auto") -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if init not in _INIT_POLICIES:
            raise ValueError(f"init must be one of {_INIT_POLICIES}, got {init!r}")
        self.alpha = alpha
        self.init = init
        self._level: Optional[float] = None
        self._count = 0

    @property
    def n_observations(self) -> int:
        """How many points have been fed in."""
        return self._count

    @property
    def forecast(self) -> Optional[float]:
        """Current one-step-ahead forecast (None before any data)."""
        return self._level

    def update(self, observation: float) -> float:
        """Feed one observation; returns the new one-step forecast.

        With a mean-based init the level tracks the running mean of the
        first :data:`_INIT_WINDOW` observations — after five points it
        is exactly their average (the paper's rule) — and the Eq. 1
        recursion takes over from the sixth point on.  State is O(1):
        only the level and a count are kept.
        """
        if not math.isfinite(observation):
            raise ValueError(f"observation must be finite, got {observation}")
        observation = float(observation)
        self._count += 1
        if self.init != "first" and self._count <= _INIT_WINDOW:
            if self._level is None:
                self._level = observation
            else:
                self._level += (observation - self._level) / self._count
            return self._level
        if self._level is None:
            self._level = observation
            return self._level
        self._level = self.alpha * observation + (1 - self.alpha) * self._level
        return self._level

    def fit_series(self, values) -> np.ndarray:
        """Feed a whole series; returns the forecast after each point.

        ``result[i]`` is the forecast for point ``i + 1`` given values
        ``[0..i]`` — the series the Fig 10 experiment plots.
        """
        return np.array([self.update(v) for v in np.asarray(values, dtype=float)])
