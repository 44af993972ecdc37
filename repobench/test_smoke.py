"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest repobench/test_smoke.py -q

Runs every workload for a couple of simulated seconds, untraced and
traced, and checks that every metric BENCHMARK.json names comes out with
its unit, that the output checks pass, and that the tracer attributes a
deliberately injected slowdown to the layer it was injected in.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS

run.import_repro()
BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
TINY_SIM_SECONDS = 2.0


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER
    assert BENCHMARK["paths"] == [run.HERE.name]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(workload, trace):
    result = run.run_benchmark(
        workload, seed=1, seconds=1, trace=trace, sim_seconds=TINY_SIM_SECONDS
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    json.dumps(result)


def test_injected_slowdown_lands_in_its_layer():
    """A busy-wait inside every ``workloads.schedule`` step must show up
    as workloads self time, not as event-loop (``sim``) self time."""
    spec = WORKLOADS["sse-1m"]
    sub_seed = spec.sub_seeds(1, 1)[0]
    delay = 5e-3
    # The first build in a process fills the shared key-lookup tables;
    # run once untraced so both traced passes start equally warm.
    run.run_pass(spec, sub_seed, sim_seconds=0.5)
    plain, slowed = Tracer(), Tracer(delays={"workloads.schedule": delay})
    base = run.run_pass(spec, sub_seed, tracer=plain, sim_seconds=1.0)
    hit = run.run_pass(spec, sub_seed, tracer=slowed, sim_seconds=1.0)
    assert hit.fingerprint == base.fingerprint
    injected = slowed.calls["workloads.schedule"] * delay
    assert injected > 0.1
    grew = {
        layer: slowed.layer_self_s()[layer] - plain.layer_self_s()[layer]
        for layer in ("runtime", "workloads", "sim", "executors")
    }
    assert 0.9 * injected <= grew["workloads"] <= 1.1 * injected, (grew, injected)
    for layer in ("runtime", "sim", "executors"):
        assert abs(grew[layer]) < 0.05 * injected, (layer, grew, injected)


def test_layer_of_maps_source_files_to_packages():
    from tracer import layer_of

    src = pathlib.Path("src") / "repro"
    assert layer_of(str(src / "executors" / "elastic.py")) == "executors"
    assert layer_of(str(src / "workloads" / "zipf.py")) == "workloads"
    assert layer_of(str(src / "protocol.py")) == "other"
