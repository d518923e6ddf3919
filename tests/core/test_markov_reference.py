"""Differential test: list-based Markov bookkeeping vs. a numpy reference.

:class:`ReferenceMarkovChain` is the executable reference for
:class:`~repro.core.predictor.markov.MarkovChain`, as
``NaiveContainerRuntimePool`` is for the pool: it keeps float count
matrices in numpy, builds and normalises the whole k-step matrix on
every call, and :class:`ReferenceCombinedPredictor` reads one row of it
per forecast step.  The production chain keeps int lists and builds
only the row it needs; every assertion here is exact ``==``, because a
speed-only change to the predictor must leave every float unchanged.
"""

import random
from collections import deque

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import CombinedPredictor, MarkovChain

LAGS = range(1, 7)
POLICIES = ("identity", "marginal")


class ReferenceMarkovChain:
    """Numpy matrix formulation of the region-state chain (Eq. 2)."""

    def __init__(self, n_states=4, window=512):
        self.n_states = n_states
        self.window = window
        self._values = deque()
        self._states = deque()
        self._edges = None
        self._lo = self._hi = 0.0
        self._counts = {}
        self._occupancy = np.zeros(n_states, dtype=float)

    @property
    def ready(self):
        return self._edges is not None

    def update(self, value):
        value = float(value)
        range_dirty = False
        if self.window is not None and len(self._values) == self.window:
            evicted = self._values.popleft()
            if self._edges is not None:
                for k, counts in self._counts.items():
                    if len(self._states) > k:
                        counts[self._states[0], self._states[k]] -= 1.0
                self._occupancy[self._states[0]] -= 1.0
                self._states.popleft()
            if evicted == self._lo or evicted == self._hi:
                range_dirty = True
        self._values.append(value)
        if len(self._values) < 2:
            self._edges = None
            return
        if self._edges is None or range_dirty or not self._lo <= value <= self._hi:
            self._rebuild()
            return
        state = self.state_of(value)
        for k, counts in self._counts.items():
            if len(self._states) >= k:
                counts[self._states[-k], state] += 1.0
        self._states.append(state)
        self._occupancy[state] += 1.0

    def fit(self, values):
        self._values = deque(float(v) for v in values[-self.window :])
        self._rebuild()
        return self

    def _rebuild(self):
        self._counts.clear()
        values = np.fromiter(self._values, dtype=float, count=len(self._values))
        self._lo, self._hi = float(values.min()), float(values.max())
        high = self._hi if self._hi != self._lo else self._lo + 1.0
        self._edges = np.linspace(self._lo, high, self.n_states + 1)
        states = np.clip(
            np.searchsorted(self._edges, values, side="right") - 1,
            0,
            self.n_states - 1,
        )
        self._states = deque(int(s) for s in states)
        self._occupancy = np.bincount(states, minlength=self.n_states).astype(float)

    def state_of(self, value):
        index = int(np.searchsorted(self._edges, value, side="right")) - 1
        return min(max(index, 0), self.n_states - 1)

    def state_midpoint(self, state):
        return 0.5 * (float(self._edges[state]) + float(self._edges[state + 1]))

    def state_marginal(self):
        return self._occupancy / self._occupancy.sum()

    def transition_matrix(self, k=1, empty_rows="identity"):
        counts = self._counts.get(k)
        if counts is None:
            counts = np.zeros((self.n_states, self.n_states), dtype=float)
            if len(self._states) > k:
                states = np.fromiter(self._states, dtype=np.int64)
                np.add.at(counts, (states[:-k], states[k:]), 1.0)
            self._counts[k] = counts
        matrix = counts.copy()
        empty = matrix.sum(axis=1) == 0
        if empty.any():
            if empty_rows == "identity":
                matrix[empty, :] = np.eye(self.n_states)[empty]
            else:
                matrix[empty, :] = self.state_marginal()
        return matrix / matrix.sum(axis=1, keepdims=True)

    def predict(self, current_value, k=1):
        row = self.transition_matrix(k)[self.state_of(current_value)]
        return self.state_midpoint(int(np.argmax(row)))


class ReferenceCombinedPredictor(CombinedPredictor):
    """The combined predictor over the reference chain, with the
    whole-matrix ``forecast_upper`` algorithm."""

    def __init__(self, n_states=4, markov_window=512, **kwargs):
        super().__init__(n_states=n_states, markov_window=markov_window, **kwargs)
        self.residual_chain = ReferenceMarkovChain(n_states, markov_window)

    def forecast_upper(self, quantile=0.9, horizon=4):
        chain = self.residual_chain
        if (
            self._last_residual is None
            or not chain.ready
            or self.smoother.n_observations < self.min_history
        ):
            return self._forecast_next
        trend = self._last_forecast
        current_state = chain.state_of(self._last_residual)
        midpoints = np.array(
            [chain.state_midpoint(i) for i in range(chain.n_states)]
        )
        order = np.argsort(midpoints)
        best = self._forecast_next
        for step in range(1, horizon + 1):
            row = chain.transition_matrix(step, empty_rows="marginal")[current_state]
            cumulative = 0.0
            correction = midpoints[order[-1]]
            for state in order:
                cumulative += row[state]
                if cumulative >= quantile - 1e-12:
                    correction = midpoints[state]
                    break
            candidate = trend + float(correction)
            if self.clamp_min is not None:
                candidate = max(self.clamp_min, candidate)
            best = max(best, candidate)
        return max(best, self._forecast_next)


@st.composite
def residual_series(draw):
    """``(series, window)`` from one of the shapes the chain must handle."""
    kind = draw(
        st.sampled_from(("short", "full", "constant", "extremes", "collapsed"))
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "short":
        values = draw(
            st.lists(
                st.floats(-50, 50, allow_nan=False), min_size=2, max_size=40
            )
        )
        return values, draw(st.sampled_from((2, 3, 8, 512, None)))
    if kind == "full":
        # Past a full 512 window: every update evicts.
        length = draw(st.integers(513, 700))
        return [rng.gauss(0.0, 5.0) for _ in range(length)], 512
    if kind == "constant":
        value = draw(st.floats(-1e6, 1e6, allow_nan=False))
        return [value] * draw(st.integers(2, 60)), draw(st.sampled_from((4, 512)))
    if kind == "extremes":
        # Rare spikes of both signs in a small window: extremes keep
        # entering and leaving, so the range (and the edges) move.
        window = draw(st.integers(4, 32))
        values = [
            rng.choice((-1, 1)) * rng.uniform(50, 500)
            if rng.random() < 0.1
            else float(rng.randint(-3, 3))
            for _ in range(draw(st.integers(window, 4 * window)))
        ]
        return values, window
    # Values a few ulps apart (or subnormal, as an idle key's residuals
    # become): the equal-width bins collapse and midpoints tie.
    base = draw(st.sampled_from((1e16, -3e15, 5e-324, 0.0)))
    step = 2.0 if abs(base) > 1.0 else 5e-324
    length = draw(st.integers(2, 40))
    return [base + step * rng.randint(0, 3) for _ in range(length)], 16


def assert_chain_equal(chain, ref):
    assert chain.ready == ref.ready
    if not chain.ready:
        return
    assert np.array_equal(chain.state_marginal(), ref.state_marginal())
    for k in LAGS:
        for policy in POLICIES:
            matrix = ref.transition_matrix(k, policy)
            assert np.array_equal(chain.transition_matrix(k, policy), matrix)
            for state in range(chain.n_states):
                assert chain.transition_row(k, state, policy) == matrix[state].tolist()
    midpoints = [ref.state_midpoint(state) for state in range(ref.n_states)]
    assert [chain.state_midpoint(s) for s in range(chain.n_states)] == midpoints
    assert [state for state, _ in chain.midpoint_ladder()] == np.argsort(
        midpoints
    ).tolist()


@settings(max_examples=150, deadline=None)
@given(residual_series(), st.integers(2, 9))
# Subnormal range whose linspace edges come out of order (5 > 4 units).
@example(([2e-323, 2e-323, 5e-324], 16), 5)
def test_transition_rows_match_reference(case, n_states):
    values, window = case
    chain = MarkovChain(n_states=n_states, window=window)
    ref = ReferenceMarkovChain(n_states=n_states, window=window)
    # Long series are checked at a stride: every check queries all six
    # lags, which also keeps those lags tracked through later updates.
    stride = 1 if len(values) <= 64 else 37
    for index, value in enumerate(values):
        chain.update(value)
        ref.update(value)
        if index % stride == 0 or index == len(values) - 1:
            assert_chain_equal(chain, ref)
            if chain.ready:
                probe = values[(index * 7) % len(values)]
                assert chain.predict(probe) == ref.predict(probe)
    fitted = MarkovChain(n_states=n_states, window=window).fit(values)
    if window is not None:
        assert_chain_equal(fitted, ReferenceMarkovChain(n_states, window).fit(values))


@st.composite
def demand_series(draw):
    """Per-interval container demand: bursts, recurring spikes, idle tails."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.integers(0, 30))
    values = []
    for _ in range(draw(st.integers(1, 6))):
        shape = draw(st.sampled_from(("noise", "burst", "idle")))
        length = draw(st.integers(1, 120))
        if shape == "noise":
            values += [max(0, level + rng.randint(-4, 4)) for _ in range(length)]
        elif shape == "burst":
            values += [level * (6 if i % 4 == 3 else 1) for i in range(length)]
        else:
            values += [0] * length
    if draw(st.booleans()):
        # An idle tail long enough for the ES level to decay into
        # subnormals and then to exactly zero.
        values += [0] * draw(st.integers(440, 520))
    return [float(v) for v in values]


@settings(max_examples=60, deadline=None)
@given(
    demand_series(),
    st.integers(2, 6),
    st.sampled_from((16, 512)),
    st.sampled_from((0.5, 0.9, 0.99, 1.0)),
    st.integers(1, 6),
)
def test_combined_predictor_matches_reference(series, n_states, window, quantile, horizon):
    predictor = CombinedPredictor(n_states=n_states, markov_window=window)
    ref = ReferenceCombinedPredictor(n_states=n_states, markov_window=window)
    for value in series:
        assert predictor.update(value) == ref.update(value)
        assert predictor.forecast == ref.forecast
        upper = predictor.forecast_upper(quantile=quantile, horizon=horizon)
        assert upper == ref.forecast_upper(quantile=quantile, horizon=horizon)
