"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must not run (README's prediction table).
ABSENT = {
    "zipf-adaptive": "admission, faas, faults, health, obs",
    "zipf-wide": "admission, faas, faults, health, obs, predictor",
    "leaky-overload": "faas, obs",
    "gateway-observed": "admission, cluster, faults, health, tracegen",
}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--scale", str(TINY),
    ])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"  {name} " in out, f"{name} missing from the readable table"
    if trace:
        assert f"absent layers: {ABSENT[workload]}\n" in out


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()
    }
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.fixture(scope="module")
def leaky():
    prepared = workloads.prepare("leaky-overload", seed=5, scale=TINY)
    return prepared, prepared.run()


def test_outcome_check_accepts_a_real_run(leaky):
    prepared, result = leaky
    assert result.shed + result.failed > 0, "tiny leaky run exercises no failure"
    assert run.check_outcomes(prepared.arrivals, result) == []


def test_outcome_check_rejects_a_missing_arrival(leaky):
    prepared, result = leaky
    lost_ok = dataclasses.replace(result, ok=result.ok - 1,
                                  latencies=result.latencies[:-1])
    assert run.check_outcomes(prepared.arrivals, lost_ok)
    lost_shed = dataclasses.replace(result, shed=result.shed - 1)
    assert run.check_outcomes(prepared.arrivals, lost_shed)
    assert run.check_outcomes(prepared.arrivals + 1, result)
    unrecorded = dataclasses.replace(result, latencies=result.latencies[:-1])
    assert run.check_outcomes(prepared.arrivals, unrecorded)


def test_self_time_check_rejects_impossible_totals():
    traced = tracer.Tracer()
    traced.self_s["a.x"] = 0.5
    assert run.check_self_times(traced, traced_wall=1.0) == []
    assert run.check_self_times(traced, traced_wall=0.4)
    traced.self_s["b.y"] = -0.01
    assert run.check_self_times(traced, traced_wall=1.0)


def test_forwarding_generator_passes_values_errors_and_close():
    log = []

    def inner():
        try:
            got = yield "first"
            log.append(got)
            try:
                yield "second"
            except KeyError:
                log.append("caught")
            yield "third"
        finally:
            log.append("closed")
        return "done"

    def leave(_token, _value, _finished):
        log.append("leave")

    wrapped = tracer._forward(inner(), lambda: None, leave)
    assert next(wrapped) == "first"
    assert wrapped.send(42) == "second"
    assert wrapped.throw(KeyError()) == "third"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == "done"
    assert log == ["leave", 42, "leave", "caught", "leave", "closed", "leave"]

    closing = tracer._forward(inner(), lambda: None, leave)
    next(closing)
    closing.close()
    assert log[-1] == "closed"


def test_tracing_restores_every_patched_attribute():
    from repro.core.hotc import HotC
    from repro.sim.engine import Simulator

    before = (HotC.__dict__["acquire"], Simulator.__dict__["run"],
              Simulator.__dict__["process"])
    with tracer.Capture(), tracer.Tracer():
        assert HotC.__dict__["acquire"] is not before[0]
    after = (HotC.__dict__["acquire"], Simulator.__dict__["run"],
             Simulator.__dict__["process"])
    assert after == before


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not Path(tmp_path / "perfbench" / "out").exists()
