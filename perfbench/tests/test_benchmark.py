"""The benchmark's contract: names, units, and a micro smoke of every workload."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import REFERENCE_WORK_S, at_reference_speed
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(group):
    return [metric["name"] for metric in SPEC[group]]


def test_benchmark_json_names_are_well_formed_and_unique():
    names = [workload["name"] for workload in SPEC["workloads"]]
    names += _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert sorted(workload["name"] for workload in SPEC["workloads"]) == sorted(WORKLOADS)
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_layer_metrics_are_exactly_the_listed_per_layer_metrics():
    emitted = set(layer_metrics(Tracer())) | {"trace.overhead_s"}
    assert emitted == set(_names("per_layer"))


def test_times_are_scaled_by_the_reference_work_timed_around_them():
    rep = {"setup_s": 0.5, "wall_s": 2.0, "warm_s": 1.0, "reference_s": [REFERENCE_WORK_S] * 3}
    for name in ("setup_s", "wall_s", "warm_s"):
        assert at_reference_speed(rep, name) == pytest.approx(rep[name])
    # A host 1.5 times slower for everything reports the same times.
    slower = {
        "setup_s": 0.75, "wall_s": 3.0, "warm_s": 1.5, "reference_s": [1.5 * REFERENCE_WORK_S] * 3
    }
    for name in ("setup_s", "wall_s", "warm_s"):
        assert at_reference_speed(slower, name) == pytest.approx(rep[name])
    # Each pass is scaled by the samples just before and just after it.
    drifting = {**rep, "reference_s": [REFERENCE_WORK_S * factor for factor in (1, 2, 4)]}
    assert at_reference_speed(drifting, "setup_s") == pytest.approx(0.5)
    assert at_reference_speed(drifting, "wall_s") == pytest.approx(2.0 / 1.5)
    assert at_reference_speed(drifting, "warm_s") == pytest.approx(1.0 / 3.0)
    # A pass with no reference samples after it is reported as measured.
    plain = {**slower, "reference_s": [1.5 * REFERENCE_WORK_S]}
    assert at_reference_speed(plain, "setup_s") == pytest.approx(rep["setup_s"])
    for name in ("wall_s", "warm_s"):
        assert at_reference_speed(plain, name) == slower[name]


def _run(workload, trace, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--scale", "micro"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return completed


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_micro_smoke_passes_its_checks_and_emits_listed_names(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _names(group)
    units = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    for name, value in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert value["unit"] == units[name]
        assert isinstance(value["value"], float)
        # Every metric is printed by name with its unit.
        assert any(line.split()[:1] == [name] and line.split()[-1] == units[name] for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = _run("expander_cover", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
