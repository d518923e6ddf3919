"""The benchmark's four workloads, built only from public entry points.

Three workloads are trace scenarios run through
:func:`repro.scenarios.run_scenario`; one drives the full FaaS gateway
path through :class:`~repro.faas.platform.FaasPlatform` and
:class:`~repro.workloads.generator.WorkloadGenerator`.  All four are open
loops in simulated time: every arrival fires at its trace instant
whatever the backlog, and latency counts from that instant.

``scale`` multiplies each workload's request volume (1.0 is the
benchmark; the self-tests use a small fraction).  See README.md for why
each workload exists and which layers it should move.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.hotc import HotC, HotCConfig
from repro.faas.platform import FaasPlatform
from repro.obs import Observatory, Snapshotter
from repro.scenarios import run_scenario
from repro.scenarios.spec import (
    AdmissionSpec,
    ArmSpec,
    ClusterSpec,
    FaultsSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.sim.rng import derive_seed
from repro.workloads.apps import default_catalog, qr_encoder_app
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.patterns import TracePattern
from repro.workloads.tracegen import TraceConfig, TraceWorkload
from repro.workloads.traces import youtube_campus_trace

from tracer import Capture

WORKLOADS = ("zipf-adaptive", "zipf-wide", "leaky-overload", "gateway-observed")

#: Control interval of every adaptive arm: one predictor tick per trace
#: minute, the granularity of the paper's per-minute demand series.
CONTROL_MS = 60_000.0


@dataclass
class RunResult:
    """Simulated outcome of one run of a workload."""

    #: Canonical JSON of everything the run simulated; two runs of the
    #: same inputs must produce it byte for byte.
    report: str
    ok: int
    failed: int
    shed: int
    cold: int
    #: Container boots of every kind (cold, prewarm, recycle).
    boots: int
    #: Simulated latency (ms) of every successful request.
    latencies: List[float]
    capture: Capture = field(repr=False)

    @property
    def terminal(self) -> int:
        """Requests that reached a terminal outcome."""
        return self.ok + self.failed + self.shed


@dataclass
class Prepared:
    """A workload's generated inputs plus the callable that runs them."""

    #: Arrivals the generated schedule holds.
    arrivals: int
    #: Digest of the generated arrival schedule (input identity).
    schedule_digest: str
    run: Callable[[], RunResult]


def _trace(n_keys: int, n_tenants: int, minutes: float, requests: float,
           **shape) -> TraceConfig:
    duration = minutes * 60_000.0
    return TraceConfig(
        n_keys=n_keys,
        n_tenants=n_tenants,
        duration_ms=duration,
        slot_ms=60_000.0,
        total_requests=requests,
        zipf_s=1.1,
        diurnal_period_ms=duration,
        churn_interval_ms=duration / 4,
        **shape,
    )


def zipf_adaptive_spec(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """Zipf trace on 2 hosts with the paper's adaptive controller on."""
    return ScenarioSpec(
        name="zipf-adaptive",
        seed=seed,
        traffic=TrafficSpec(
            kind="trace",
            trace=_trace(400, 10, 40, 12_000 * scale, diurnal_amplitude=0.4,
                         flash_crowds=1, flash_factor=6.0,
                         flash_duration_ms=300_000.0, flash_keys=5,
                         churn_fraction=0.1),
        ),
        cluster=ClusterSpec(n_hosts=2),
        arms=(ArmSpec(name="hotc", adaptive=True, control_interval_ms=CONTROL_MS),),
    )


def zipf_wide_spec(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """The same traffic shape, adaptive off, on a wide 28-host cluster."""
    return ScenarioSpec(
        name="zipf-wide",
        seed=seed,
        traffic=TrafficSpec(
            kind="trace",
            trace=_trace(1_000, 20, 120, 25_000 * scale, diurnal_amplitude=0.4,
                         flash_crowds=1, flash_factor=6.0,
                         flash_duration_ms=600_000.0, flash_keys=5,
                         churn_fraction=0.1),
        ),
        cluster=ClusterSpec(n_hosts=28),
        arms=(ArmSpec(name="hotc", adaptive=False),),
    )


def leaky_overload_spec(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """40 keys of 5 s functions on 2 hosts: aging faults, health, admission.

    Long functions keep tens of requests in flight on the hot keys, so
    the admission controller's per-function concurrency limit queues
    about 1 % of requests and its 2-deep queue sheds a few tenths of a
    per cent; every boot rolls the container-degradation lottery, so the
    health plane quarantines and recycles hundreds of containers.
    """
    return ScenarioSpec(
        name="leaky-overload",
        seed=seed,
        traffic=TrafficSpec(
            kind="trace",
            exec_ms=5_000.0,
            trace=_trace(40, 4, 30, 24_000 * scale, diurnal_amplitude=0.3,
                         flash_crowds=0, churn_fraction=0.1),
        ),
        cluster=ClusterSpec(n_hosts=2),
        faults=FaultsSpec(
            memory_leak_rate=0.2,
            memory_leak_mb=24.0,
            state_poison_rate=0.01,
            perf_decay_rate=0.05,
            perf_decay_factor=1.03,
            crash_loop_rate=0.02,
            crash_loop_after=8,
        ),
        admission=AdmissionSpec(max_queue_depth=2, default_deadline_ms=10_000.0),
        arms=(
            ArmSpec(name="hotc", adaptive=True, control_interval_ms=30_000.0,
                    container_health=True),
        ),
    )


SPECS = {
    "zipf-adaptive": zipf_adaptive_spec,
    "zipf-wide": zipf_wide_spec,
    "leaky-overload": leaky_overload_spec,
}


def _run_trace(spec: ScenarioSpec) -> RunResult:
    with Capture() as capture:
        report = run_scenario(spec, jobs=1)
    arm = report.arms[0]
    boots = sum(engine.stats.boots for engine in capture.instances["engine"])
    return RunResult(
        report=json.dumps({"scenario": report.to_dict(), "boots": boots},
                          sort_keys=True),
        ok=arm.requests,
        failed=arm.failed,
        shed=arm.shed,
        cold=arm.cold,
        boots=boots,
        latencies=capture.latencies,
        capture=capture,
    )


def _prepare_trace(name: str, seed: int, scale: float) -> Prepared:
    spec = SPECS[name](seed, scale)
    # The runner derives the arrival stream's seed the same way.
    config = spec.traffic.trace.with_seed(derive_seed(spec.seed, "trace-arrivals"))
    workload = TraceWorkload(config)
    return Prepared(
        arrivals=int(workload.slot_counts().sum()),
        schedule_digest=workload.schedule_digest(),
        run=lambda: _run_trace(spec),
    )


#: Fraction of the campus trace's per-minute request counts replayed.
GATEWAY_TRACE_SCALE = 0.06


#: The campus day is the canonical Fig 11 trace (``run_fig11``'s
#: default seed); ``--seed`` drives the platform's latency jitter.  The
#: day's pool cold starts hinge on a few per-minute bursts, so drawing a
#: fresh noise realisation per seed swings ``cold_ratio`` by a third.
CAMPUS_TRACE_SEED = 0


def gateway_pattern(scale: float = 1.0) -> TracePattern:
    """The Fig 11 campus day (burst, decline, night rise), shrunk."""
    trace = youtube_campus_trace(seed=CAMPUS_TRACE_SEED)
    return TracePattern(trace.counts, slot_ms=60_000.0,
                        scale=GATEWAY_TRACE_SCALE * scale)


def _run_gateway(pattern: TracePattern, seed: int) -> RunResult:
    with Capture() as capture:
        platform = FaasPlatform(
            default_catalog().make_registry(),
            seed=seed,
            provider_factory=lambda engine: HotC(
                engine, HotCConfig(control_interval_ms=CONTROL_MS)
            ),
            jitter_sigma=0.05,
        )
        observatory = Observatory()
        platform.attach_observatory(observatory)
        snapshotter = Snapshotter(platform.sim, observatory, period_ms=CONTROL_MS)
        function = qr_encoder_app(name="qr-python", language="python")
        platform.deploy(function)
        platform.sim.process(platform.engine.ensure_image(function.image))
        platform.run()

        snapshotter.start()
        platform.provider.start_control_loop()
        generator = WorkloadGenerator(platform)
        generator.submit(pattern, function.name)
        last_arrival = max(time for time, _ in pattern.rounds())
        # The control loop re-arms forever: bound the run past the last
        # arrival, stop the loop, then drain what is still in flight.
        platform.run(until=platform.sim.now + last_arrival + 4 * CONTROL_MS)
        platform.provider.stop_control_loop()
        snapshotter.stop()
        platform.run()

    traces = platform.traces
    outcomes = traces.outcome_counts()
    latencies = traces.latencies().tolist()
    ok = len(latencies)
    boots = platform.engine.stats.boots
    report = {
        "outcomes": dict(sorted(outcomes.items())),
        "cold": traces.cold_count(),
        "boots": boots,
        "latency_sha256": hashlib.sha256(
            np.asarray(latencies, dtype=np.float64).tobytes()
        ).hexdigest(),
        "events_by_kind": observatory.events.counts_by_kind(),
        "events_total": observatory.events.total_appended,
        "snapshots": len(snapshotter.records),
        "sim_time_ms": platform.sim.now,
    }
    return RunResult(
        report=json.dumps(report, sort_keys=True),
        ok=ok,
        failed=traces.failed_count(),
        shed=traces.shed_count() + traces.deadline_count(),
        cold=traces.cold_count(),
        boots=boots,
        latencies=latencies,
        capture=capture,
    )


def _prepare_gateway(seed: int, scale: float) -> Prepared:
    pattern = gateway_pattern(scale)
    return Prepared(
        arrivals=pattern.total_requests,
        schedule_digest=hashlib.sha256(
            np.ascontiguousarray(pattern.request_times()).tobytes()
        ).hexdigest(),
        run=lambda: _run_gateway(pattern, seed),
    )


def prepare(name: str, seed: int, scale: float = 1.0) -> Prepared:
    """Generate ``name``'s inputs from ``seed`` (the timed set-up step)."""
    if name == "gateway-observed":
        return _prepare_gateway(seed, scale)
    if name in SPECS:
        return _prepare_trace(name, seed, scale)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def sim_outcome(result: RunResult) -> Dict[str, float]:
    """The simulated end-to-end metrics of one run (exact, deterministic)."""
    latencies = np.asarray(result.latencies, dtype=np.float64)
    p50, p99 = np.percentile(latencies, [50.0, 99.0])
    return {
        "cold_ratio": result.cold / result.ok,
        "sim_p50_ms": float(p50),
        "sim_p99_ms": float(p99),
        "sim_mean_ms": float(latencies.mean()),
        "ok_share": result.ok / result.terminal,
        "boots_per_1k_req": 1_000.0 * result.boots / result.terminal,
    }
