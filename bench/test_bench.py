"""Tests of the benchmark itself: its checks must catch forged outputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _finite_run_trace(index: int = 0):
    doc = workloads.scenario_doc("finite_run", 1, index)
    space, initial, (trace_text,) = workloads.execute("finite_run", *doc)
    return space, initial, trace_text


def test_generator_is_seeded():
    assert workloads.scenario_doc("finite_run", 5, 3) == workloads.scenario_doc("finite_run", 5, 3)
    assert workloads.scenario_doc("finite_run", 5, 3) != workloads.scenario_doc("finite_run", 6, 3)


def test_strata_preserve_sizes():
    name = "continuous_run"
    block = len(workloads.strata(name))
    sizes = set()
    for index in range(block):
        doc = json.loads(workloads.scenario_doc(name, 9, index)[0])
        sizes.add((len(doc["agents"]), doc["space"]["dimension"]))
    assert sizes == set(workloads.strata(name))


def test_honest_trace_passes():
    space, initial, trace_text = _finite_run_trace()
    assert workloads.check("finite_run", space, initial, [trace_text]) == []


@pytest.mark.parametrize("forge", ["movers", "proposal", "potential", "classification"])
def test_forged_trace_step_fails(forge):
    space, initial, trace_text = _finite_run_trace()
    data = json.loads(trace_text)
    step = data["steps"][0]
    if forge == "movers":
        movers = step["movers"][0]
        stranger = next(f"v{i}" for i in range(1, 17) if f"v{i}" not in movers)
        step["movers"][0] = sorted(movers + [stranger])
    elif forge == "proposal":
        step["proposal"] = {"id": "a" if step["proposal"].get("id") != "a" else "b"}
    elif forge == "potential":
        step["potential"] += 2
    else:
        data["classification"] = (
            "unsuccessful" if data["classification"] == "successful" else "successful"
        )
    forged = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert forged != trace_text
    assert workloads.check("finite_run", space, initial, [forged])


def _loop_failures(name: str, pins: list[str]) -> int:
    loop = run.Loop(workloads, name, 1, pins, deadline=float("inf"))
    loop.untraced(0.0, min_samples=len(pins))
    return loop.failed


@pytest.mark.parametrize("name", ["finite_run", "explore_finite"])
def test_pinned_outputs_hold_and_a_changed_pin_fails(name):
    pins = json.loads(run.PINS.read_text())
    assert pins["seed"] == 1
    pinned = pins[name][:4]
    assert _loop_failures(name, pinned) == 0
    changed = list(pinned)
    if name == "explore_finite":
        changed[2] = re.sub(r"edges=(\d+)", lambda m: f"edges={int(m.group(1)) + 1}", changed[2])
    else:
        changed[2] = changed[2][:-1] + ("0" if changed[2][-1] != "0" else "1")
    assert _loop_failures(name, changed) == 1


def test_trace_reports_every_declared_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    loop = run.Loop(workloads, "finite_run", 1, [], deadline=float("inf"))
    loop.untraced(0.0, min_samples=2)
    t = tracer.Tracer()
    wall = loop.traced(t, 2)
    metrics = t.metrics(wall, sum(loop.latencies[:2]))
    assert loop.failed == 0
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["space.approves_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "finite_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
