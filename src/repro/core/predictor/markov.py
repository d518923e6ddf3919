"""Markov chain over region states (paper Eq. 2).

The paper divides the data range into ``n`` region states
``R_i = [R_i1, R_i2]``, estimates the k-step transition probability
``P_ij(k) = T_ij(k) / T_i`` from historical samples, and predicts the
next value as the midpoint of the most probable next state.

Implementation notes
--------------------
* States are equal-width bins spanning the observed data range; bounds
  update as new data arrives.
* History is a bounded sliding window (default 512 observations): a
  long-running gateway must not grow per-key predictor state without
  limit, and old demand regimes should age out of the transition
  estimates.  ``window=None`` keeps everything (batch/ablation use).
* A control tick is O(n_states) plain Python (numpy on 4×4 arrays costs
  more in overhead than in arithmetic): per-lag transition counts (flat
  ``n²`` int lists) and the occupancy are updated per observation, states
  are found with ``bisect_right``, and a forecast builds only the rows it
  reads (:meth:`MarkovChain.transition_row`).  numpy runs only in the
  O(window) passes: a lag's first count, and the rebuild of edges, states
  and counts when the observed range changes (a new min/max enters, or
  the old extreme leaves the window).
* Rows of the transition matrix with no observed departures fall back
  to "stay in place" (identity row), the conservative choice for a
  sparse history.
* Every float matches the numpy matrix formulation kept as a reference
  in ``tests/core/test_markov_reference.py``, bit for bit.

The streaming bookkeeping is exactly equivalent to refitting from
scratch on the retained window: ``MarkovChain(window=w)`` fed a series
point-by-point matches ``MarkovChain(window=w).fit(series[-w:])`` after
every point (the equivalence test in ``tests/core/test_markov.py``
asserts this for all lags).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import reduce
from operator import add
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["MarkovChain"]

#: Default sliding-window length (observations retained per chain).
DEFAULT_WINDOW = 512


class MarkovChain:
    """Region-state Markov predictor over a scalar series."""

    def __init__(self, n_states: int = 4, window: Optional[int] = DEFAULT_WINDOW) -> None:
        if n_states < 2:
            raise ValueError(f"n_states must be >= 2, got {n_states}")
        if window is not None and window < 2:
            raise ValueError(f"window must be >= 2 (or None), got {window}")
        self.n_states = n_states
        self.window = window
        self._values: Deque[float] = deque()
        #: Bin index of each stored value under the current edges.
        self._states: Deque[int] = deque()
        self._edges: Optional[List[float]] = None
        #: ``(state, midpoint)`` pairs in ascending midpoint order.
        self._ladder: Tuple[Tuple[int, float], ...] = ()
        self._lo = self._hi = 0.0
        #: Per-lag flat transition counts (``[i * n + j]``), built on a
        #: lag's first use and then kept in sync.
        self._counts: Dict[int, List[int]] = {}
        #: State-occupancy counts of the stored series.
        self._occupancy: List[int] = [0] * n_states

    # -- data -------------------------------------------------------------
    def update(self, value: float) -> None:
        """Append one observation, evicting past the window bound."""
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        value = float(value)
        n = self.n_states
        states = self._states
        range_dirty = False
        if self.window is not None and len(self._values) == self.window:
            evicted = self._values.popleft()
            if self._edges is not None:
                # Remove the transitions that depart from the evicted
                # head before its state leaves the deque.
                head = states[0] * n
                for k, counts in self._counts.items():
                    if len(states) > k:
                        counts[head + states[k]] -= 1
                self._occupancy[states.popleft()] -= 1
            # Exact equality is safe: _lo/_hi were taken from stored
            # values, so an extreme leaving the window compares equal.
            range_dirty = evicted == self._lo or evicted == self._hi
        self._values.append(value)
        if self._edges is None or range_dirty or not self._lo <= value <= self._hi:
            self._rebuild()
            return
        state = self.state_of(value)
        for k, counts in self._counts.items():
            if len(states) >= k:
                counts[states[-k] * n + state] += 1
        states.append(state)
        self._occupancy[state] += 1

    def fit(self, values) -> "MarkovChain":
        """Replace the history with ``values`` (truncated to the window)."""
        array = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(array)):
            raise ValueError("values must be finite")
        if self.window is not None:
            array = array[-self.window :]
        self._values = deque(float(v) for v in array)
        self._rebuild()
        return self

    @property
    def n_observations(self) -> int:
        """Number of observations currently retained."""
        return len(self._values)

    def _rebuild(self) -> None:
        """Recompute edges, cached states and counts from the window."""
        n = self.n_states
        self._states.clear()
        if len(self._values) < 2:
            self._edges = None
            return
        values = np.fromiter(self._values, dtype=float, count=len(self._values))
        self._lo = float(values.min())
        self._hi = float(values.max())
        # A constant series gets one tiny bin around the value.
        high = self._hi if self._hi != self._lo else self._lo + 1.0
        # np.linspace's arithmetic, subnormal-step branch included, without
        # its call overhead: young keys rebuild on most updates.
        step = (high - self._lo) / n
        if step == 0:
            edges = [i / n * (high - self._lo) + self._lo for i in range(n)]
        else:
            edges = [i * step + self._lo for i in range(n)]
        self._edges = edges = edges + [high]
        mids = [0.5 * (low + up) for low, up in zip(edges, edges[1:])]
        # Equal or out-of-order midpoints keep np.argsort's order.
        ascending = all(low < up for low, up in zip(mids, mids[1:]))
        order = range(n) if ascending else np.argsort(mids).tolist()
        self._ladder = tuple((state, mids[state]) for state in order)
        # Values are >= edges[0].  Subnormal ranges can round the edges out
        # of order, so search all of them, as state_of does.
        states = np.minimum(np.searchsorted(edges, values, side="right") - 1, n - 1)
        self._states.extend(states.tolist())
        self._occupancy = np.bincount(states, minlength=n).tolist()
        self._counts = {k: self._count_lag(states, k) for k in self._counts}

    def _count_lag(self, states: np.ndarray, k: int) -> List[int]:
        n = self.n_states
        return np.bincount(states[:-k] * n + states[k:], minlength=n * n).tolist()

    # -- states -------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether bounds exist (>= 2 retained observations)."""
        return self._edges is not None

    def state_of(self, value: float) -> int:
        """Region-state index of ``value`` (clipped to the known range)."""
        if self._edges is None:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        return min(max(bisect_right(self._edges, value) - 1, 0), self.n_states - 1)

    def state_bounds(self, state: int) -> Tuple[float, float]:
        """``[R_i1, R_i2]`` interval of a state."""
        if self._edges is None:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        if not 0 <= state < self.n_states:
            raise IndexError(f"state {state} out of range")
        return self._edges[state], self._edges[state + 1]

    def state_midpoint(self, state: int) -> float:
        """``(R_i1 + R_i2) / 2`` — the paper's predicted value."""
        low, high = self.state_bounds(state)
        return 0.5 * (low + high)

    def midpoint_ladder(self) -> Tuple[Tuple[int, float], ...]:
        """``(state, midpoint)`` pairs in ascending midpoint order (cached)."""
        if self._edges is None:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        return self._ladder

    # -- transitions ---------------------------------------------------------
    def state_marginal(self) -> np.ndarray:
        """Empirical state-occupancy distribution of the stored series."""
        if self._edges is None:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        return np.array(self._marginal())

    def _marginal(self) -> List[float]:
        total = sum(self._occupancy)
        return [count / total for count in self._occupancy]

    def _counts_for_lag(self, k: int) -> List[int]:
        counts = self._counts.get(k)
        if counts is None:
            states = np.fromiter(self._states, dtype=np.int64, count=len(self._states))
            counts = self._counts[k] = self._count_lag(states, k)
        return counts

    def transition_row(self, k: int, state: int, empty_rows: str = "identity") -> List[float]:
        """Row ``state`` of :meth:`transition_matrix`, bit for bit, in O(n_states).

        A forecast reads one row per lag, so it never builds the others.
        """
        if k < 1:
            raise ValueError(f"step k must be >= 1, got {k}")
        if empty_rows not in ("identity", "marginal"):
            raise ValueError(f"unknown empty_rows policy {empty_rows!r}")
        if self._edges is None:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        n = self.n_states
        if not 0 <= state < n:
            raise IndexError(f"state {state} out of range")
        counts = self._counts_for_lag(k)[state * n : (state + 1) * n]
        if departures := sum(counts):
            return [count / departures for count in counts]
        if empty_rows == "identity":
            return [float(j == state) for j in range(n)]
        marginal = self._marginal()
        # numpy's row sum: left to right below 8 terms, pairwise above.
        total = reduce(add, marginal, 0.0) if n < 8 else float(np.add.reduce(marginal))
        return [share / total for share in marginal]

    def transition_matrix(self, k: int = 1, empty_rows: str = "identity") -> np.ndarray:
        """The k-step transition probability matrix (Eq. 2).

        ``P[i, j]`` estimates the probability of moving from state ``i``
        to state ``j`` in ``k`` steps, counted directly from the stored
        series at lag ``k``; row ``i`` is :meth:`transition_row`.  Rows
        without observed departures have no data; ``empty_rows`` picks
        the fallback:

        * ``"identity"`` — stay in place (conservative point forecasts);
        * ``"marginal"`` — the empirical state-occupancy distribution
          (used for risk-aware pool sizing, where "no idea where this
          state leads" should mean "anything the series has done", not
          "stuck here forever").
        """
        return np.array([self.transition_row(k, i, empty_rows) for i in range(self.n_states)])

    def predict_next_state(self, current_value: float, k: int = 1) -> int:
        """Most probable state ``k`` steps after ``current_value``.

        Ties resolve to the lowest state index (deterministic).
        """
        row = self.transition_row(k, self.state_of(current_value))
        return row.index(max(row))

    def predict(self, current_value: float, k: int = 1) -> float:
        """Predicted value: midpoint of the most probable next state."""
        return self.state_midpoint(self.predict_next_state(current_value, k))
