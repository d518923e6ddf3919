"""Cluster routing microbenchmark: holder-index pick vs. the full host scan.

Times one ``ClusterHotC._pick_host`` call, the reuse-aware routing
decision every cluster request makes, at 3, 30 and 300 hosts.  Each
cluster holds 1,000 runtime keys; each key is pooled, idle, on one to
three random hosts (about two on average), a few keys are pooled
nowhere (the cold fallback), and hosts carry random in-flight loads so
the load ranking matters.  Requests draw keys from a Zipf(1.1) mix.

The in-process baseline is the O(hosts) scan kept as an executable
reference in ``tests/core/test_cluster_routing_reference.py``; both
sides route the same request mix, and every pick is asserted equal
before anything is timed.  Rounds of the two sides alternate and each
side's median is reported; the script gates nothing.

Run:
    python benchmarks/bench_cluster_routing.py
    python benchmarks/bench_cluster_routing.py --hosts 3 30 --calls 500 --repeats 1
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (ROOT / "src", ROOT):  # src for repro, the root for tests
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from benchmarks.bench_predictor_tick import paired  # noqa: E402
from repro.containers import Container, ContainerConfig, Registry  # noqa: E402
from repro.core import HotCConfig  # noqa: E402
from repro.core.cluster import ClusterHotC, make_cluster_engines  # noqa: E402
from repro.sim import Simulator  # noqa: E402

HOSTS = (3, 30, 300)
N_KEYS = 1000
#: Keys pooled on no host: requests for them take the cold fallback.
N_COLD_KEYS = 40
ZIPF_S = 1.1


def build_cluster(n_hosts: int, seed: int = 0):
    """A cluster with idle containers registered straight into its pools,
    plus the key configs in popularity order."""
    rng = random.Random(seed)
    sim = Simulator()
    engines = make_cluster_engines(sim, Registry(), n_hosts=n_hosts, seed=seed)
    cluster = ClusterHotC(engines, config=HotCConfig(control_interval_ms=0))
    configs = [
        ContainerConfig(image=f"fn-{index}:1", mem_mb=128.0) for index in range(N_KEYS)
    ]
    serial = 0
    for config in configs[: N_KEYS - N_COLD_KEYS]:
        for index in rng.sample(range(n_hosts), min(n_hosts, rng.randint(1, 3))):
            host = cluster.hosts[index]
            container = Container(
                f"{host.engine.name}/b{serial:07d}", config, created_at=0.0
            )
            serial += 1
            host.pool.register(container, host.key_of(config), now=0.0, available=True)
    for index in range(n_hosts):
        cluster._inflight[index] = rng.randint(0, 8)
    rng.shuffle(configs)
    return cluster, configs


def request_mix(configs, calls: int, seed: int = 1):
    """``calls`` configs drawn Zipf(:data:`ZIPF_S`) over ``configs``."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(configs))]
    return random.Random(seed).choices(configs, weights=weights, k=calls)


def pick_round(pick, cluster, mix) -> float:
    """µs per routing decision over one pass of the request mix."""
    start = time.perf_counter()
    for config in mix:
        pick(cluster, config)
    return (time.perf_counter() - start) / len(mix) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, nargs="+", default=list(HOSTS),
                        help="cluster sizes to time (default 3 30 300)")
    parser.add_argument("--calls", type=int, default=5000,
                        help="timed routing decisions per round (default 5000)")
    parser.add_argument("--repeats", type=int, default=7,
                        help="alternating rounds per side; medians are reported")
    parser.add_argument("--output", type=pathlib.Path,
                        help="also write the numbers as JSON here")
    args = parser.parse_args(argv)

    from tests.core.test_cluster_routing_reference import reference_pick

    results = {}
    for n_hosts in args.hosts:
        cluster, configs = build_cluster(n_hosts)
        mix = request_mix(configs, args.calls)
        warm = 0
        for config in mix:
            got = cluster._pick_host(config)
            assert got == reference_pick(cluster, config), (n_hosts, config)
            warm += got[1]
        row = paired(
            lambda: pick_round(ClusterHotC._pick_host, cluster, mix),
            lambda: pick_round(reference_pick, cluster, mix),
            args.repeats,
        )
        row["warm_share"] = warm / len(mix)
        results[f"pick_us_hosts{n_hosts}"] = row

    print(f"{'metric':20s} {'current':>10s} {'reference':>10s} {'speedup':>8s} {'warm':>6s}")
    for name, row in results.items():
        print(
            f"{name:20s} {row['current']:10.2f} {row['reference']:10.2f} "
            f"{row['speedup']:7.2f}x {row['warm_share']:6.1%}"
        )
    if args.output is not None:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
