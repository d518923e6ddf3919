"""Instance capture and per-layer host-time tracing, from outside ``src/``.

Nothing here edits the simulator.  Both tools patch class attributes for
the duration of a ``with`` block and restore them on exit:

* :class:`Capture` records every instance of a few classes built inside
  the block (simulators, engines, providers, admission controllers,
  health planes, fault plans, observatories), so the benchmark can read
  their counters after a run, and records the scenario runner's per-
  request latency samples.  It is installed on untraced and traced runs
  alike, so both pay the same (per-object, not per-event) cost.
* :class:`Tracer` wraps each layer's public functions.  A plain call is
  one timed segment; a generator is timed per resume, so a span's host
  time never includes the simulated waits between resumes.  Segments
  nest on a stack, and a segment's self time is its duration minus the
  duration of the wrapped segments nested inside it.  Totals are kept
  for every call; full segment records are kept only for a bounded
  sample of requests.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Sim-latency histograms the scenario runner fills, one per tenant.
RUNNER_LATENCY_HISTOGRAM = "scenario_latency_ms"

#: A forecast below this counts as zero for ``predictor.idle_key_share``
#: (exponential smoothing only decays towards 0, it never reaches it).
IDLE_FORECAST_EPS = 1e-6


class _Patches:
    """Class-attribute patches, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _forward(inner, enter, leave):
    """Drive generator ``inner`` like ``yield from``, bracketing resumes.

    ``enter()`` runs before each resume of ``inner`` and ``leave(token)``
    after it, so the caller's clock covers exactly the host time spent
    inside ``inner`` and never the simulated wait between resumes.
    Values, exceptions and ``close()`` are forwarded unchanged.
    """
    value = error = None
    while True:
        token = enter()
        try:
            if error is None:
                target = inner.send(value)
            else:
                target = inner.throw(error)
        except StopIteration as stop:
            leave(token, stop.value, True)
            return stop.value
        except BaseException:
            leave(token, None, True)
            raise
        leave(token, target, False)
        try:
            value, error = (yield target), None
        except GeneratorExit:
            inner.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into inner
            value, error = None, exc


def _named_like(wrapper, inner):
    """Give a wrapping generator the name the engine would have shown."""
    wrapper.__name__ = inner.__name__
    wrapper.__qualname__ = inner.__qualname__
    return wrapper


class Capture:
    """Collect instances built, and runner latencies observed, in a block."""

    def __init__(self) -> None:
        self.instances: Dict[str, list] = defaultdict(list)
        self.latencies: List[float] = []
        self._patches = _Patches()

    def __enter__(self) -> "Capture":
        from repro.admission.controller import AdmissionController
        from repro.containers.engine import ContainerEngine
        from repro.core.cluster import ClusterHotC
        from repro.core.hotc import HotC
        from repro.faults.plan import FaultPlan
        from repro.health.container import ContainerHealthPlane
        from repro.obs.events import Observatory
        from repro.obs.registry import Histogram
        from repro.sim.engine import Simulator

        for label, cls in (
            ("sim", Simulator),
            ("engine", ContainerEngine),
            ("hotc", HotC),
            ("cluster", ClusterHotC),
            ("admission", AdmissionController),
            ("health", ContainerHealthPlane),
            ("faultplan", FaultPlan),
            ("observatory", Observatory),
        ):
            self._patches.replace(cls, "__init__", self._recording_init(label, cls))

        observe = Histogram.observe
        record = self.latencies.append

        def observe_and_record(hist, value):
            if hist.name == RUNNER_LATENCY_HISTOGRAM:
                record(value)
            observe(hist, value)

        self._patches.replace(Histogram, "observe", observe_and_record)
        return self

    def _recording_init(self, label: str, cls: type) -> Callable:
        original = cls.__dict__["__init__"]
        found = self.instances[label]

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            found.append(obj)

        return init

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Per-layer self time and call counts, plus sampled span records.

    ``sample_every`` selects which request processes have their segments
    recorded in full (every n-th one, at most ``max_records`` records).
    A request process is one the scenario runner spawns per arrival
    (generator ``request``) or one ``FaasPlatform.submit`` spawns
    (process name ``request:<function>``).
    """

    def __init__(self, sample_every: int = 1, max_records: int = 20_000) -> None:
        self.sample_every = max(1, int(sample_every))
        self.max_records = max_records
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Finished records: (id, name, parent id, request id,
        #: host start s, host end s, sim ms at start).
        self.records: List[Tuple] = []
        #: Targets that were not found in this version of the program.
        self.missing: List[str] = []
        #: Layer-specific tallies filled by the hooks below.
        self.tally: Dict[str, float] = defaultdict(float)
        self.booted: set = set()
        self.served: set = set()
        self._stack: List[list] = []
        self._request: Optional[int] = None
        self._requests_seen = 0
        self._next_record = 0
        self._sim = None
        self._controller_owner: Dict[int, object] = {}
        self._t0 = 0.0
        self._patches = _Patches()

    # -- the timed segment ----------------------------------------------------
    def _enter(self, name: str) -> list:
        record_id = None
        if self._request is not None and len(self.records) < self.max_records:
            record_id = self._next_record
            self._next_record += 1
        frame = [name, 0.0, 0.0, record_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, child, record_id = frame
        elapsed = end - start
        self.self_s[name] += elapsed - child
        if stack:
            stack[-1][2] += elapsed
        if record_id is not None:
            parent = None
            for outer in reversed(stack):
                if outer[3] is not None:
                    parent = outer[3]
                    break
            sim_now = self._sim.now if self._sim is not None else None
            self.records.append(
                (record_id, name, parent, self._request,
                 start - self._t0, end - self._t0, sim_now)
            )

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, owner: type, attr: str, name: str, before=None, after=None):
        original = owner.__dict__.get(attr)
        if not inspect.isfunction(original):
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        enter, leave, calls = self._enter, self._leave, self.calls
        if inspect.isgeneratorfunction(original):

            def wrapper(*args, **kwargs):
                calls[name] += 1
                state = before(args) if before is not None else None
                inner = original(*args, **kwargs)

                def done(frame, value, finished):
                    leave(frame)
                    if after is not None:
                        after(args, state, value, finished)

                return _named_like(
                    _forward(inner, lambda: enter(name), done), inner
                )

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                state = before(args) if before is not None else None
                frame = enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    leave(frame)
                if after is not None:
                    after(args, state, result, True)
                return result

        self._patches.replace(owner, attr, wrapper)

    def _tag_requests(self, simulator_cls: type) -> None:
        """Mark sampled request processes so their segments are recorded."""
        original = simulator_cls.__dict__["process"]
        tracer = self

        def process(sim, generator, name=""):
            label = name or getattr(generator, "__name__", "")
            if label == "request" or label.startswith("request:"):
                tracer._requests_seen += 1
                seq = tracer._requests_seen
                if (
                    seq % tracer.sample_every == 0
                    and len(tracer.records) < tracer.max_records
                ):

                    def enter():
                        previous = tracer._request
                        tracer._request = seq
                        return previous

                    def leave(previous, _value, _finished):
                        tracer._request = previous

                    generator = _named_like(
                        _forward(generator, enter, leave), generator
                    )
            return original(sim, generator, name)

        self._patches.replace(simulator_cls, "process", process)

    # -- hooks ----------------------------------------------------------------
    def _note_sim(self, args):
        self._sim = args[0]

    def _note_batch(self, _args, _state, value, finished):
        if not finished:
            self.tally["tracegen.arrivals"] += value.size

    def _note_hotc(self, args, _state, _result, _finished):
        hotc = args[0]
        self._controller_owner[id(hotc.controller)] = hotc

    def _note_observe(self, args, _state, forecast, _finished):
        controller, key, demand = args[0], args[1], args[2]
        self.tally["predictor.observed"] += 1
        if demand == 0 and (forecast is None or forecast < IDLE_FORECAST_EPS):
            hotc = self._controller_owner.get(id(controller))
            if hotc is None or hotc.pool.num_total(key) == 0:
                self.tally["predictor.idle"] += 1

    def _note_boot(self, _args, _state, container, finished):
        if finished and container is not None:
            self.booted.add(container.container_id)

    def _note_exec(self, args):
        self.served.add(args[1].container_id)

    def _admit_started(self, args):
        return args[0].sim.now

    def _admit_done(self, args, started, admitted, finished):
        if finished and admitted:
            self.tally["admission.waits"] += 1
            self.tally["admission.wait_ms"] += args[0].sim.now - started

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        from repro.admission.controller import AdmissionController
        from repro.containers.engine import ContainerEngine
        from repro.core.cluster import ClusterHotC
        from repro.core.hotc import HotC
        from repro.core.pool import ContainerRuntimePool
        from repro.core.predictor.combined import CombinedPredictor
        from repro.core.predictor.controller import AdaptivePoolController
        from repro.faas.gateway import Gateway
        from repro.faas.watchdog import Watchdog
        from repro.health.container import ContainerHealthPlane
        from repro.obs.events import Observatory
        from repro.obs.exporters import Snapshotter
        from repro.sim.engine import Simulator
        from repro.workloads.tracegen import TraceWorkload

        wrap = self._wrap
        wrap(Simulator, "run", "sim.run", before=self._note_sim)
        wrap(TraceWorkload, "batches", "tracegen.batches", after=self._note_batch)
        for attr in ("acquire", "release", "discard"):
            wrap(ClusterHotC, attr, f"cluster.{attr}")
        wrap(HotC, "__init__", "hotc.init", after=self._note_hotc)
        for attr in ("acquire", "release", "discard", "control_tick"):
            wrap(HotC, attr, f"hotc.{attr}")
        wrap(AdaptivePoolController, "observe", "predictor.observe",
             after=self._note_observe)
        for attr in ("target", "target_upper", "donation_headroom"):
            wrap(AdaptivePoolController, attr, f"predictor.{attr}")
        for attr in ("update", "forecast_upper"):
            wrap(CombinedPredictor, attr, f"predictor.{attr}")
        for attr in (
            "acquire", "acquire_donor", "register", "release", "remove",
            "quarantine", "mark_recycled", "discard_dead", "eviction_candidate",
        ):
            wrap(ContainerRuntimePool, attr, f"pool.{attr}")
        wrap(ContainerEngine, "boot_container", "containers.boot",
             after=self._note_boot)
        wrap(ContainerEngine, "execute", "containers.execute",
             before=self._note_exec)
        wrap(ContainerEngine, "clean_container", "containers.clean")
        for attr in ("stop_container", "remove_container"):
            wrap(ContainerEngine, attr, f"containers.{attr}")
        wrap(AdmissionController, "admit", "admission.admit",
             before=self._admit_started, after=self._admit_done)
        for attr in ("release", "tick"):
            wrap(AdmissionController, attr, f"admission.{attr}")
        for attr in ("observe_success", "observe_failure", "recycle_reason"):
            wrap(ContainerHealthPlane, attr, f"health.{attr}")
        wrap(Gateway, "handle", "faas.gateway")
        wrap(Watchdog, "handle", "faas.watchdog")
        wrap(Observatory, "emit", "obs.emit")
        for attr in ("counter", "gauge", "histogram"):
            wrap(Observatory, attr, "obs.metric")
        wrap(Snapshotter, "snap", "obs.snap")
        self._tag_requests(Simulator)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- results --------------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        """Summed self time of every span in ``layer``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        """Summed call count of every span in ``layer``."""
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def per_call_us(self, name: str) -> float:
        """Mean self time of one call of span ``name``, in microseconds."""
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) / calls * 1e6 if calls else 0.0
