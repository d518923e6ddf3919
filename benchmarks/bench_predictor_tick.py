"""Per-tick predictor microbenchmark: list-based chain vs. the numpy reference.

Times what the adaptive controller pays per key on every control tick,
``AdaptivePoolController.observe`` plus ``target_upper`` (the paper's
ES + Markov predictor, Eq. 1–2, and its k-step upper-quantile
forecast), with the residual chain holding a full 40-value and a full
512-value window.  It also times one full-window rebuild of the chain
plus the recount of four tracked lags, the O(window) pass that runs
whenever an extreme value enters or leaves the window.

The in-process baseline is the numpy matrix formulation kept as an
executable reference in ``tests/core/test_markov_reference.py``; both
sides see the same demand series, and every forecast is asserted equal
before anything is timed.  Rounds of the two sides alternate and each
side's median is reported; the script gates nothing.

Run:
    python benchmarks/bench_predictor_tick.py
    python benchmarks/bench_predictor_tick.py --ticks 2000 --output out.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT):  # src for repro, the root for tests
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.core.predictor import (  # noqa: E402
    AdaptivePoolController,
    CombinedPredictor,
    MarkovChain,
)

WINDOWS = (40, 512)
#: Lags a default control tick tracks (the controller's ``horizon`` = 4).
LAGS = (1, 2, 3, 4)


def demand_series(length: int, seed: int = 0):
    """Bursty per-interval demand of one warm key: noise around a level,
    a recurring 5x spike, and short idle gaps."""
    rng = random.Random(seed)
    values = []
    for index in range(length):
        if index % 50 >= 45:
            values.append(0.0)
        elif index % 7 == 6:
            values.append(float(rng.randint(20, 30)))
        else:
            values.append(float(max(0, 5 + rng.randint(-3, 3))))
    return values


def _controller(factory, window: int, warmup):
    controller = AdaptivePoolController(
        predictor_factory=lambda: factory(markov_window=window)
    )
    for value in warmup:
        controller.observe("key", value)
        controller.target_upper("key")
    return controller


def tick_round(factory, window: int, ticks: int) -> float:
    """µs per key-tick (``observe`` + ``target_upper``) over one round,
    with the residual chain's window full before timing starts."""
    series = demand_series(window + 8 + ticks)
    warmup, timed = series[: window + 8], series[window + 8 :]
    controller = _controller(factory, window, warmup)
    start = time.perf_counter()
    for value in timed:
        controller.observe("key", value)
        controller.target_upper("key")
    return (time.perf_counter() - start) / len(timed) * 1e6


def rebuild_round(chain_class, window: int, calls: int) -> float:
    """µs per full-window rebuild plus recount of :data:`LAGS`.

    Each timed update brings in a new maximum, so the range moves and
    the whole window is re-binned; asking for each lag's matrix
    afterwards makes both chains hold current counts for all four lags.
    """
    values = demand_series(window, seed=1)
    chain = chain_class(n_states=4, window=window).fit(values)
    rising = max(values)
    start = time.perf_counter()
    for _ in range(calls):
        rising += 1.0
        chain.update(rising)
        for k in LAGS:
            chain.transition_matrix(k, "marginal")
    return (time.perf_counter() - start) / calls * 1e6


def paired(current, reference, repeats: int) -> dict:
    """Alternate rounds of both sides (host speed drifts in phases) and
    report each side's median."""
    ours, ref = [], []
    for _ in range(repeats):
        ours.append(current())
        ref.append(reference())
    ours_median, ref_median = statistics.median(ours), statistics.median(ref)
    return {
        "current": ours_median,
        "reference": ref_median,
        "speedup": ref_median / ours_median,
    }


def check_equal(reference_factory, window: int, ticks: int) -> None:
    """Both predictors make bit-identical forecasts on the bench series."""
    ours = AdaptivePoolController(
        predictor_factory=lambda: CombinedPredictor(markov_window=window)
    )
    ref = AdaptivePoolController(
        predictor_factory=lambda: reference_factory(markov_window=window)
    )
    for value in demand_series(window + ticks):
        assert ours.observe("key", value) == ref.observe("key", value)
        assert ours.target_upper("key") == ref.target_upper("key")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ticks", type=int, default=1000,
                        help="timed key-ticks per round (default 1000)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="alternating rounds per side; medians are reported")
    parser.add_argument("--output", type=pathlib.Path,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    from tests.core.test_markov_reference import (
        ReferenceCombinedPredictor,
        ReferenceMarkovChain,
    )

    results = {}
    for window in WINDOWS:
        check_equal(ReferenceCombinedPredictor, window, 200)
        results[f"tick_us_window{window}"] = paired(
            lambda: tick_round(CombinedPredictor, window, args.ticks),
            lambda: tick_round(ReferenceCombinedPredictor, window, args.ticks),
            args.repeats,
        )
    calls = max(50, args.ticks // 10)
    results["rebuild_recount_us_window512"] = paired(
        lambda: rebuild_round(MarkovChain, 512, calls),
        lambda: rebuild_round(ReferenceMarkovChain, 512, calls),
        args.repeats,
    )

    print(f"{'metric':34s} {'current':>10s} {'reference':>10s} {'speedup':>8s}")
    for name, row in results.items():
        print(
            f"{name:34s} {row['current']:10.2f} {row['reference']:10.2f} "
            f"{row['speedup']:7.2f}x"
        )
    if args.output is not None:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
