#!/usr/bin/env python3
"""The repo benchmark: one workload per process, end to end or per layer.

    python3 perfbench/run.py --workload zipf-wide --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced runs and prints every end-to-end metric;
``--trace 1`` alternates untraced and traced runs and prints every
per-layer metric plus the tracing overhead.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable copy with the run's stamp and digests.  A JSON record of the
run (and, traced, a sample of span records) is written to
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One process, one thread of numeric work: keep BLAS pools from
# spawning threads (the simulator never needs them).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: End-to-end metrics (``--trace 0``): name -> (unit, time base).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "req_per_host_s": ("1/s", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "cold_ratio": ("ratio", "sim"),
    "sim_p50_ms": ("ms", "sim"),
    "sim_p99_ms": ("ms", "sim"),
    "sim_mean_ms": ("ms", "sim"),
    "ok_share": ("ratio", "sim"),
    "boots_per_1k_req": ("count/1k", "sim"),
}

#: Fault kinds the workloads inject, reported as ``faults.injected.<kind>``.
FAULT_KINDS = ("memory_leaks", "state_poisons", "perf_decays", "crash_loops")

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.us_per_event": "us/event",
    "tracegen.arrivals": "count",
    "tracegen.self_s": "s",
    "cluster.acquire_calls": "count",
    "cluster.acquire_self_us": "us/call",
    "cluster.warm_route_ratio": "ratio",
    "cluster.failovers": "count",
    "hotc.acquire_self_us": "us/call",
    "hotc.release_self_us": "us/call",
    "hotc.control_ticks": "count",
    "hotc.tick_self_ms": "ms/tick",
    "predictor.update_calls": "count",
    "predictor.forecast_calls": "count",
    "predictor.self_s": "s",
    "predictor.idle_key_share": "ratio",
    "pool.hits": "count",
    "pool.misses": "count",
    "pool.hit_ratio": "ratio",
    "pool.evictions": "count",
    "pool.quarantined": "count",
    "pool.recycled": "count",
    "pool.self_s": "s",
    "containers.boots": "count",
    "containers.warm_execs": "count",
    "containers.cold_execs": "count",
    "containers.exec_self_us": "us/call",
    "containers.clean_self_us": "us/call",
    "containers.boot_self_us": "us/call",
    "containers.boot_useful_ratio": "ratio",
    "admission.admitted": "count",
    "admission.shed": "count",
    "admission.admit_self_us": "us/call",
    "admission.queue_wait_ms": "ms",
    "health.quarantined": "count",
    "health.recycled": "count",
    "health.observe_self_us": "us/call",
    **{f"faults.injected.{kind}": "count" for kind in FAULT_KINDS},
    "faas.requests": "count",
    "faas.gateway_self_us": "us/call",
    "faas.watchdog_self_us": "us/call",
    "obs.events": "count",
    "obs.emit_self_us": "us/call",
    "obs.metric_calls": "count",
    "obs.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: Per-layer units that are host time; every other per-layer number is
#: a count or ratio of simulated work, or simulated time.
HOST_UNITS = ("s", "us/call", "us/event", "ms/tick")

#: Set-up is repeated for at least this long (and at least 5 times) per
#: run; its median is reported.
SETUP_SECONDS = 0.3
#: The warm-up run uses at most this share of the workload's volume.
WARMUP_SCALE = 0.1
#: Timed runs per process, whatever ``--seconds`` says.
MIN_TIMED_RUNS = 3
#: Requests whose spans are kept in full, per traced run (about).
SAMPLED_REQUESTS = 200
#: Slack for float rounding in the self-time checks (seconds).
SELF_TIME_SLACK_S = 1e-6


# -- stamp ---------------------------------------------------------------------


def calibration_score() -> float:
    """Pure-Python dict and integer work per microsecond (median of 5).

    A host-speed yardstick printed beside every result so numbers from
    different hosts are never compared as equals.
    """
    def work() -> int:
        table: Dict[int, int] = {}
        total = 0
        for i in range(100_000):
            table[i & 4095] = i
            total += table.get((i * 7) & 4095, 0)
        return total

    rounds = []
    for _ in range(5):
        start = time.perf_counter()
        work()
        rounds.append(time.perf_counter() - start)
    return 100_000 / statistics.median(rounds) / 1e6


def source_digest() -> str:
    """SHA-256 over the simulator's sources (works without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def make_stamp() -> Dict[str, object]:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_ops_per_us": calibration_score(),
    }


# -- checks --------------------------------------------------------------------


def check_outcomes(arrivals: int, result) -> List[str]:
    """Every generated arrival must end ok, failed or shed, exactly once."""
    errors = []
    if result.terminal != arrivals:
        errors.append(
            f"terminal outcomes {result.terminal} (ok {result.ok} + failed "
            f"{result.failed} + shed {result.shed}) != arrivals {arrivals}"
        )
    if len(result.latencies) != result.ok:
        errors.append(
            f"{len(result.latencies)} latency samples for {result.ok} "
            "successful requests"
        )
    if result.ok == 0:
        errors.append("no request succeeded")
    return errors


def check_self_times(tracer, traced_wall: float) -> List[str]:
    """Self times are non-negative and fit inside the traced wall time."""
    errors = [
        f"negative self time {value:.3g}s for {name}"
        for name, value in tracer.self_s.items()
        if value < -SELF_TIME_SLACK_S
    ]
    total = sum(tracer.self_s.values())
    if total > traced_wall + SELF_TIME_SLACK_S:
        errors.append(
            f"self times sum to {total:.4f}s, more than the traced wall "
            f"{traced_wall:.4f}s"
        )
    return errors


def sim_digest(outcome: Dict[str, float], report: str) -> str:
    """Fingerprint of the simulated outputs (equal across speed-only PRs)."""
    digest = hashlib.sha256(report.encode())
    digest.update(json.dumps(outcome, sort_keys=True).encode())
    return digest.hexdigest()


# -- per-layer metrics ---------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, result) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer numbers of one traced run, and the layers that never ran."""
    found = result.capture.instances
    hotcs = found["hotc"]
    pools = [hotc.pool.stats for hotc in hotcs]
    engines = [engine.stats for engine in found["engine"]]
    clusters = [cluster.stats for cluster in found["cluster"]]
    admissions = [controller.stats for controller in found["admission"]]
    planes = found["health"]
    faults = [plan.stats for plan in found["faultplan"]]
    observatories = found["observatory"]
    calls, self_s, tally = tracer.calls, tracer.self_s, tracer.tally
    per_us = tracer.per_call_us

    events = sum(sim.steps for sim in found["sim"])
    routed = sum(stats.total_routed for stats in clusters)
    lookups = sum(stats.lookups for stats in pools)
    observes = calls["health.observe_success"] + calls["health.observe_failure"]
    metrics = {
        "sim.events": events,
        "sim.self_s": self_s["sim.run"],
        "sim.us_per_event": _ratio(self_s["sim.run"] * 1e6, events),
        "tracegen.arrivals": tally["tracegen.arrivals"],
        "tracegen.self_s": tracer.layer_self_s("tracegen"),
        "cluster.acquire_calls": calls["cluster.acquire"],
        "cluster.acquire_self_us": per_us("cluster.acquire"),
        "cluster.warm_route_ratio": _ratio(
            sum(stats.reuse_routed for stats in clusters), routed
        ),
        "cluster.failovers": sum(stats.failovers for stats in clusters),
        "hotc.acquire_self_us": per_us("hotc.acquire"),
        "hotc.release_self_us": per_us("hotc.release"),
        "hotc.control_ticks": calls["hotc.control_tick"],
        "hotc.tick_self_ms": per_us("hotc.control_tick") / 1e3,
        "predictor.update_calls": calls["predictor.update"],
        "predictor.forecast_calls": calls["predictor.forecast_upper"],
        "predictor.self_s": tracer.layer_self_s("predictor"),
        "predictor.idle_key_share": _ratio(
            tally["predictor.idle"], tally["predictor.observed"]
        ),
        "pool.hits": sum(stats.hits for stats in pools),
        "pool.misses": sum(stats.misses for stats in pools),
        "pool.hit_ratio": _ratio(sum(stats.hits for stats in pools), lookups),
        "pool.evictions": sum(
            stats.evictions_capacity + stats.evictions_pressure for stats in pools
        ),
        "pool.quarantined": sum(stats.quarantined for stats in pools),
        "pool.recycled": sum(stats.recycled for stats in pools),
        "pool.self_s": tracer.layer_self_s("pool"),
        "containers.boots": sum(stats.boots for stats in engines),
        "containers.warm_execs": sum(stats.warm_execs for stats in engines),
        "containers.cold_execs": sum(stats.cold_execs for stats in engines),
        "containers.exec_self_us": per_us("containers.execute"),
        "containers.clean_self_us": per_us("containers.clean"),
        "containers.boot_self_us": per_us("containers.boot"),
        "containers.boot_useful_ratio": _ratio(
            len(tracer.booted & tracer.served), len(tracer.booted)
        ),
        "admission.admitted": sum(stats.admitted for stats in admissions),
        "admission.shed": sum(stats.shed_total for stats in admissions),
        "admission.admit_self_us": per_us("admission.admit"),
        "admission.queue_wait_ms": _ratio(
            tally["admission.wait_ms"], tally["admission.waits"]
        ),
        "health.quarantined": sum(plane.quarantines for plane in planes),
        "health.recycled": sum(plane.recycles for plane in planes),
        "health.observe_self_us": _ratio(
            (self_s["health.observe_success"] + self_s["health.observe_failure"])
            * 1e6,
            observes,
        ),
        **{
            f"faults.injected.{kind}": sum(getattr(s, kind) for s in faults)
            for kind in FAULT_KINDS
        },
        "faas.requests": calls["faas.gateway"],
        "faas.gateway_self_us": per_us("faas.gateway"),
        "faas.watchdog_self_us": per_us("faas.watchdog"),
        "obs.events": sum(obs.events.total_appended for obs in observatories),
        "obs.emit_self_us": per_us("obs.emit"),
        "obs.metric_calls": calls["obs.metric"],
        "obs.self_s": tracer.layer_self_s("obs"),
    }
    ran = {
        "sim": bool(found["sim"]),
        "tracegen": tracer.layer_calls("tracegen") > 0,
        "cluster": bool(clusters),
        "hotc": bool(hotcs),
        "predictor": tracer.layer_calls("predictor") > 0,
        "pool": bool(hotcs),
        "containers": bool(engines),
        "admission": bool(admissions),
        "health": bool(planes),
        "faults": bool(faults),
        "faas": tracer.layer_calls("faas") > 0,
        "obs": bool(observatories),
    }
    return metrics, sorted(layer for layer, present in ran.items() if not present)


# -- the two modes ---------------------------------------------------------------


class RunSeries:
    """Timed runs of one prepared workload, each checked against the first."""

    def __init__(self, prepared) -> None:
        self.prepared = prepared
        self.reference = None
        #: Process memory high-water mark after the first run (MB).
        self.peak_rss_mb = 0.0
        self.errors: List[str] = []
        #: Simulated requests driven by the timed runs.
        self.attempted = 0

    def run(self, tracer=None):
        """One timed run; returns (result, wall seconds)."""
        # Collect the previous run's garbage outside the timed region.
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            result = self.prepared.run()
            wall = time.perf_counter() - start
        self.attempted += result.terminal
        if self.reference is None:
            # Nothing before this point ran the workload at full scale.
            self.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            self.errors.extend(check_outcomes(self.prepared.arrivals, result))
            self.reference = dataclasses.replace(result, capture=None)
        elif result.report != self.reference.report:
            kind = "traced" if tracer is not None else "untraced"
            self.errors.append(f"a {kind} run simulated differently from the first")
        return result, wall


def measure_untraced(series: RunSeries, seconds: float) -> List[float]:
    """Untraced runs for ``seconds``; returns their wall times."""
    walls: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
        walls.append(series.run()[1])
    return walls


def measure_traced(series: RunSeries, seconds: float):
    """Alternate untraced and traced runs; returns per-layer medians."""
    from tracer import Tracer

    untraced: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    first_tracer = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(series.run()[1])
        tracer = Tracer(
            sample_every=series.prepared.arrivals // SAMPLED_REQUESTS
        )
        result, wall = series.run(tracer)
        traced.append(wall)
        series.errors.extend(check_self_times(tracer, wall))
        metrics, absent = layer_metrics(tracer, result)
        samples.append(metrics)
        # Free the run's object graph before the next timed run starts.
        del result
        first_tracer = first_tracer or tracer
    per_layer = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    per_layer["trace.wall_s"] = statistics.median(traced)
    per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        untraced
    )
    return per_layer, absent, first_tracer


def write_spans(path: Path, tracer) -> None:
    records = [
        dict(zip(("id", "name", "parent", "request", "host_start_s",
                  "host_end_s", "sim_ms"), record))
        for record in tracer.records
    ]
    path.write_text(json.dumps({"missing_targets": tracer.missing,
                                "records": records}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="request-volume multiplier (1 = the benchmark; self-tests use less)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the simulator: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times: List[float] = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup_times) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        prepared = workloads.prepare(args.workload, args.seed, args.scale)
        setup_times.append(time.perf_counter() - start)

    # Warm-up on a smaller copy of the workload: lazy imports and
    # allocator growth happen here, outside every timed run.
    workloads.prepare(
        args.workload, args.seed, min(args.scale, WARMUP_SCALE)
    ).run()

    series = RunSeries(prepared)
    record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "arrivals": prepared.arrivals,
        "schedule_digest": prepared.schedule_digest,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        walls = measure_untraced(series, args.seconds)
        values = {
            "req_per_host_s": statistics.median(
                prepared.arrivals / wall for wall in walls
            ),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": series.peak_rss_mb,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        record["run_walls_s"] = walls
    else:
        values, absent, tracer = measure_traced(series, args.seconds)
        units = PER_LAYER
        record["absent_layers"] = absent
        record["missing_targets"] = tracer.missing
        write_spans(OUT_DIR / f"{stem}-spans.json", tracer)
    stamp = make_stamp()
    record["stamp"] = stamp
    errors = series.errors
    reference = series.reference
    outcome = workloads.sim_outcome(reference) if reference.ok else {}
    if args.trace == 0:
        values.update(outcome)
    digest = sim_digest(outcome, reference.report)
    record["sim_digest"] = digest
    record["latency_samples"] = len(reference.latencies)

    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in units.items()
    }
    record["metrics"] = metrics
    record["errors"] = errors
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in stamp.items()))
    print(f"arrivals={prepared.arrivals} latency_samples={len(reference.latencies)}"
          f" schedule_digest={prepared.schedule_digest} sim_digest={digest}")
    if args.trace:
        print("absent layers: " + (", ".join(record["absent_layers"]) or "none"))
        if record["missing_targets"]:
            print("wrap targets not found: " + ", ".join(record["missing_targets"]))
    for name, metric in metrics.items():
        base = END_TO_END[name][1] if name in END_TO_END else (
            "host" if metric["unit"] in HOST_UNITS else "sim"
        )
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']:<9} {base}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": series.attempted,
        "failed": series.attempted if errors else 0,
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
