"""Differential test: holder-index routing vs. the full host scan.

:func:`reference_pick` is the executable reference for
:meth:`~repro.core.cluster.ClusterHotC._pick_host`, as
``NaiveContainerRuntimePool`` is for the pool: it derives the key on
every host, asks every candidate host's pool for an available container
and ranks the warm hosts (or, failing that, every candidate) by load.
The production scheduler visits only the hosts the holder index lists
for the key.  Hypothesis drives acquire, release, discard, host outages,
partitions and their healing, health-state changes, and control-plane
crash/recovery; after every step both must pick the same
``(host index, found_warm)`` for every config and several ``excluded``
sets, leave the round-robin cursor in the same place, and the holder
index must pass :meth:`ClusterHotC.check_consistency`.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.containers import ContainerConfig, Registry, make_base_image
from repro.containers.container import ContainerError
from repro.core import HotCConfig, PoolLimits
from repro.core.cluster import ClusterHotC, make_cluster_engines
from repro.faults import FaultPlan, RuntimeUnavailableError
from repro.faults.errors import HostDownError
from repro.health import HealthMonitor, HostState
from repro.recovery import RecoveryManager
from repro.sim import Simulator

CONFIGS = (
    ContainerConfig(image="python:3.6", mem_mb=128.0),
    ContainerConfig(image="python:3.6", mem_mb=256.0),
    ContainerConfig(image="golang:1.11"),
    ContainerConfig(image="alpine:3.8"),
    # Never acquired: its key is in no host's pool.
    ContainerConfig(image="alpine:3.8", mem_mb=64.0),
)
ACQUIRED_CONFIGS = len(CONFIGS) - 1


def reference_load_key(cluster, index):
    host = cluster.hosts[index]
    load = float(cluster._inflight[index])
    if cluster.health is not None:
        weight = cluster.health.routing_weight(host.engine.name)
        if weight < 1.0:
            load = (load + 1.0) / max(weight, 1e-9)
    return (load, host.engine.resources.mem_fraction, index)


def reference_pick(cluster, config, excluded=frozenset()):
    """The O(hosts) scan: every candidate host's pool is asked."""
    candidates = [
        index
        for index in range(len(cluster.hosts))
        if index not in excluded
        and index not in cluster._down
        and (
            cluster.health is None
            or cluster.health.routable(cluster.hosts[index].engine.name)
        )
    ]
    if not candidates:
        raise RuntimeUnavailableError("no routable host left")
    if cluster.placement == "round-robin":
        while True:
            index = cluster._rr_next % len(cluster.hosts)
            cluster._rr_next += 1
            if index in candidates:
                break
        key = cluster.hosts[index].key_of(config)
        return index, cluster.hosts[index].pool.num_available(key) > 0
    warm_hosts = []
    for index in candidates:
        host = cluster.hosts[index]
        key = host.key_of(config)
        if host.pool.num_available(key) > 0:
            warm_hosts.append(index)
    load_key = lambda index: reference_load_key(cluster, index)  # noqa: E731
    if warm_hosts:
        return min(warm_hosts, key=load_key), True
    return min(candidates, key=load_key), False


def outcome(pick, cluster, config, excluded):
    """``(result or exception type, round-robin cursor after the call)``."""
    try:
        result = pick(cluster, config, excluded)
    except RuntimeUnavailableError:
        result = RuntimeUnavailableError
    return result, cluster._rr_next


def assert_routing_matches(cluster, rng):
    n_hosts = len(cluster.hosts)
    excluded_sets = [set()]
    for _ in range(2):
        excluded_sets.append(set(rng.sample(range(n_hosts), rng.randint(1, n_hosts))))
    for config in CONFIGS:
        for excluded in excluded_sets:
            cursor = cluster._rr_next
            expected = outcome(reference_pick, cluster, config, excluded)
            cluster._rr_next = cursor
            got = outcome(ClusterHotC._pick_host, cluster, config, excluded)
            assert got == expected, (config, sorted(excluded))


class Driver:
    """A directly driven cluster whose every step drains the simulator."""

    def __init__(self, n_hosts, placement, health):
        self.sim = Simulator()
        registry = Registry(
            [
                make_base_image("python", "3.6", size_mb=330, language="python"),
                make_base_image("golang", "1.11", size_mb=310, language="go"),
                make_base_image("alpine", "3.8", size_mb=5),
            ]
        )
        engines = make_cluster_engines(self.sim, registry, n_hosts=n_hosts, seed=0)
        self.cluster = ClusterHotC(
            engines,
            # A small cap, so capacity evictions empty keys on a host.
            config=HotCConfig(
                control_interval_ms=0,
                limits=PoolLimits(max_containers=4),
            ),
            placement=placement,
        )
        self.plan = FaultPlan.none()
        self.injectors = self.plan.install(self.sim, engines)
        self.monitor = None
        if health:
            self.monitor = HealthMonitor(self.sim)
            self.cluster.attach_health(self.monitor)
        RecoveryManager(self.cluster)
        self.held = []

    def run(self, *generators):
        """Run the processes side by side; returns the values they made."""
        values = []

        def process(generator):
            try:
                values.append((yield from generator))
            except (ContainerError, HostDownError, RuntimeUnavailableError):
                pass

        for generator in generators:
            self.sim.process(process(generator))
        self.sim.run()
        return values

    def engine(self, host):
        return self.cluster.hosts[host % len(self.cluster.hosts)].engine

    def step(self, op, arg, arg2):
        cluster = self.cluster
        if op == "acquire":
            # Concurrent requests for one key spread over several hosts.
            config = CONFIGS[arg % ACQUIRED_CONFIGS]
            burst = [cluster.acquire(config) for _ in range(1 + arg2 % 3)]
            self.held.extend(container for container, _ in self.run(*burst))
        elif op in ("release", "discard") and self.held:
            container = self.held.pop(arg % len(self.held))
            if op == "release":
                self.run(cluster.release(container))
            else:
                cluster.discard(container)
        elif op == "outage":
            index = arg % len(cluster.hosts)
            engine = cluster.hosts[index].engine
            self.plan._begin_outage(engine, self.injectors[engine.name])
            if arg2 % 2:
                # As a request's HostDownError would; otherwise the next
                # request routed there finds out.
                cluster._note_host_down(index)
        elif op == "partition":
            self.injectors[self.engine(arg).name].partitioned = True
        elif op == "heal":
            injector = self.injectors[self.engine(arg).name]
            injector.down = injector.partitioned = False
        elif op == "crash" and not cluster._crashed:
            cluster.crash_control_plane()
        elif op == "recover" and cluster._crashed:
            cluster.recover_from()
        elif op == "health" and self.monitor is not None:
            state = list(HostState)[arg2 % len(HostState)]
            name = self.engine(arg).name
            self.monitor.hosts[name].transition_to(state, now=self.sim.now)
            if state is HostState.PROBATION:
                self.monitor.hosts[name].probation_progress = arg2 % 4


OPS = st.tuples(
    st.sampled_from(
        # Weighted so pools fill and drain, and faults heal soon.
        ("acquire",) * 6
        + ("release",) * 5
        + ("discard", "outage", "partition", "crash")
        + ("heal", "health") * 2
        + ("recover",) * 3
    ),
    st.integers(0, 63),
    st.integers(0, 15),
)


@settings(max_examples=100, deadline=None)
@given(
    # Small clusters weighted up: hosts contend for keys more often.
    st.one_of(st.integers(1, 4), st.integers(1, 40)),
    st.sampled_from(("reuse-aware", "round-robin")),
    st.booleans(),
    st.lists(OPS, min_size=8, max_size=60),
    st.integers(0, 2**32 - 1),
)
# Two warm hosts, the lower-indexed one busier: the pick must follow load.
@example(2, "reuse-aware", False, [("acquire", 0, 1), ("release", 0, 0),
                                   ("release", 0, 0), ("acquire", 1, 0)], 0)
def test_pick_host_matches_reference_scan(n_hosts, placement, health, ops, seed):
    driver = Driver(n_hosts, placement, health)
    rng = random.Random(seed)
    assert_routing_matches(driver.cluster, rng)
    for op, arg, arg2 in ops:
        driver.step(op, arg, arg2)
        if not driver.cluster._crashed:
            driver.cluster.check_consistency()
        assert_routing_matches(driver.cluster, rng)


@pytest.mark.parametrize("placement", ["reuse-aware", "round-robin"])
def test_reset_and_rebuild_keep_the_holder_index_exact(placement):
    driver = Driver(3, placement, health=False)
    for index in range(ACQUIRED_CONFIGS * 3):
        driver.step("acquire", index, 0)
    while driver.held:
        driver.step("release", 0, 0)
    cluster = driver.cluster
    assert cluster._holders
    cluster.check_consistency()
    cluster.crash_control_plane()
    assert cluster._holders == {}
    cluster.recover_from()
    cluster.check_consistency()
    assert cluster._holders
    assert_routing_matches(cluster, random.Random(0))
