"""Metric primitives: counters, gauges, fixed-bucket streaming histograms.

The registry is the numeric half of :mod:`repro.obs` (the event log is
the other).  Metrics are identified by ``(name, labels)`` where labels
are free-form key/value tags — by convention every instrument carries a
``host`` label and per-runtime-key series add a ``key`` label.

Design constraints (see DESIGN.md §7):

* **Cheap** — each observation is a dict lookup plus an integer/float
  add (histograms: one bisect).  Nothing allocates per observation
  after the instrument exists.
* **Mergeable histograms** — :meth:`Histogram.merge_from` folds
  another histogram in.  The merge is count-lossless and
  order-independent because the buckets are fixed at construction and
  identically-labelled series must share bucket bounds.
* **Sim-time native** — the registry never reads a wall clock; callers
  stamp times where needed (the event log, the snapshotter).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WIDE_LATENCY_BUCKETS_MS",
]

#: Default bucket upper bounds (ms) for latency-shaped histograms:
#: spans sub-ms pool ops through multi-second cold starts.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 30_000.0,
)

#: Wider layout for scenario-scale runs: keeps the default resolution
#: through 30 s but resolves queueing/fault tails out to ten minutes,
#: so a day-long trace's p999 stays inside a finite bucket.
WIDE_LATENCY_BUCKETS_MS: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS + (
    60_000.0, 120_000.0, 300_000.0, 600_000.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time sample (pool size, forecast, in-flight count)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the sample."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the sample by ``delta``."""
        self.value += delta


class Histogram:
    """Fixed-bucket streaming histogram (Prometheus-style cumulative).

    ``bounds`` are the finite bucket upper limits in strictly ascending
    order; an implicit ``+Inf`` bucket catches the overflow.  Exact
    ``sum``/``count`` are kept alongside, so the mean is recoverable and
    a merge across hosts loses no observations.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        labels: LabelItems = (),
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be ascending, got {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram of identical bounds into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bounds differ "
                f"({other.bounds} vs {self.bounds})"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.sum += other.sum

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per ``le`` bound (Prometheus bucket rows)."""
        running = 0
        cumulative = []
        for count in self.bucket_counts:
            running += count
            cumulative.append(running)
        return cumulative

    @property
    def overflow_count(self) -> int:
        """Observations past the last finite bound (the +Inf bucket).

        A non-zero overflow means upper quantiles may be unresolvable:
        any ``q`` whose rank lands here has no finite bucket bound, so
        :meth:`quantile` reports ``inf`` (or raises under ``strict``)
        rather than silently clamping to the top finite bound.
        """
        return self.bucket_counts[-1]

    def quantile_resolvable(self, q: float) -> bool:
        """Whether the q-th observation falls inside a finite bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return False
        return q * self.count <= self.count - self.bucket_counts[-1]

    def quantile(self, q: float, strict: bool = False) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th observation); NaN when empty.

        When the q-th observation landed past the last finite bound the
        estimate is ``inf`` — never the top bucket's bound, which would
        silently under-report the tail.  Under ``strict=True`` that
        case raises instead, so million-request p999 gates fail loudly
        when the bucket layout cannot resolve them.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        running = 0
        for index, count in enumerate(self.bucket_counts):
            running += count
            if running >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                break
        if strict:
            raise OverflowError(
                f"histogram {self.name!r}: q={q} falls among the "
                f"{self.bucket_counts[-1]} overflow observations past "
                f"the last bound ({self.bounds[-1]}); widen the buckets"
            )
        return float("inf")


class MetricsRegistry:
    """Get-or-create store of labelled instruments.

    One registry typically serves a whole platform; per-host series are
    distinguished by the ``host`` label rather than separate registries.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._help: Dict[str, str] = {}

    # -- instruments --------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter ``name{labels}`` (created on first use)."""
        key = (name, _label_items(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
            if help:
                self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge ``name{labels}`` (created on first use)."""
        key = (name, _label_items(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
            if help:
                self._help.setdefault(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        help: str = "",
        **labels,
    ) -> Histogram:
        """The histogram ``name{labels}`` (created on first use).

        ``bounds`` only applies at creation; later calls must agree or
        the merge invariant (identical bounds per name) would break.
        """
        key = (name, _label_items(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                name, bounds=bounds, labels=key[1]
            )
            if help:
                self._help.setdefault(name, help)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already exists with bounds "
                f"{instrument.bounds}"
            )
        return instrument

    # -- views ---------------------------------------------------------------
    def counters(self) -> Tuple[Counter, ...]:
        """All counters, in deterministic (name, labels) order."""
        return tuple(v for _, v in sorted(self._counters.items()))

    def gauges(self) -> Tuple[Gauge, ...]:
        """All gauges, in deterministic (name, labels) order."""
        return tuple(v for _, v in sorted(self._gauges.items()))

    def histograms(self) -> Tuple[Histogram, ...]:
        """All histograms, in deterministic (name, labels) order."""
        return tuple(v for _, v in sorted(self._histograms.items()))

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serialisable dump of every instrument's current state."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in self.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in self.gauges()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for h in self.histograms()
            ],
        }

    # -- Prometheus text exposition -------------------------------------------
    @staticmethod
    def _escape_label(value: str) -> str:
        return (
            value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )

    @classmethod
    def _format_labels(cls, labels: LabelItems, extra: LabelItems = ()) -> str:
        items = labels + extra
        if not items:
            return ""
        body = ",".join(f'{k}="{cls._escape_label(v)}"' for k, v in items)
        return "{" + body + "}"

    @staticmethod
    def _format_value(value: float) -> str:
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))

    def to_prometheus(self) -> str:
        """Render every instrument in the Prometheus text format."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def header(name: str, metric_type: str) -> None:
            if seen_types.get(name) == metric_type:
                return
            seen_types[name] = metric_type
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric_type}")

        for counter in self.counters():
            header(counter.name, "counter")
            lines.append(
                f"{counter.name}{self._format_labels(counter.labels)} "
                f"{self._format_value(counter.value)}"
            )
        for gauge in self.gauges():
            header(gauge.name, "gauge")
            lines.append(
                f"{gauge.name}{self._format_labels(gauge.labels)} "
                f"{self._format_value(gauge.value)}"
            )
        for histogram in self.histograms():
            header(histogram.name, "histogram")
            cumulative = histogram.cumulative_counts()
            for bound, count in zip(histogram.bounds, cumulative):
                le = self._format_value(bound)
                lines.append(
                    f"{histogram.name}_bucket"
                    f"{self._format_labels(histogram.labels, (('le', le),))} "
                    f"{count}"
                )
            lines.append(
                f"{histogram.name}_bucket"
                f"{self._format_labels(histogram.labels, (('le', '+Inf'),))} "
                f"{histogram.count}"
            )
            lines.append(
                f"{histogram.name}_sum{self._format_labels(histogram.labels)} "
                f"{self._format_value(histogram.sum)}"
            )
            lines.append(
                f"{histogram.name}_count{self._format_labels(histogram.labels)} "
                f"{histogram.count}"
            )
        return "\n".join(lines) + ("\n" if lines else "")
