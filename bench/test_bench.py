"""Self-tests of the benchmark, on tiny instances: ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs ehsched on the path)
from ehsched import PowerSchedule  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def _tiny(workload, trace=False, seed=3):
    return run.measure(workload, seed, 0.0, trace, workloads.TINY)


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_keeps_to_its_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for e in SPEC["end_to_end"]:
        assert set(e) == {"name", "unit", "better", "bound"} and 0 < e["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    assert _units(SPEC["end_to_end"]) == run.END_TO_END


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = _tiny(workload)
    result = json.loads(run.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _units(SPEC["end_to_end"])
    for name, m in metrics.items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    assert record["provenance"]["seed"] == 3 and record["provenance"]["trace"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_its_spans(workload):
    record = _tiny(workload, trace=True)
    metrics = record["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _units(SPEC["per_layer"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    lines = (run.ROOT / record["spans"]).read_text().splitlines()
    header = json.loads(lines[0])
    assert header["provenance"]["trace"] == 1
    first = json.loads(lines[1])
    assert set(first) == {"id", "name", "start", "end", "parent", "op"}
    assert len(lines) - 1 == metrics["trace.spans"]["value"] * record["cycles"]


def test_each_workload_calls_its_layers():
    called = {
        w: {n for n, m in _tiny(w, trace=True)["metrics"].items()
            if n.endswith(".calls") and m["value"] > 0}
        for w in run.WORKLOADS
    }
    assert "leakage.simulate.calls" in called["corridor-ladder"]
    assert "string_solver.optimality_certificate.calls" in called["certify-sweep"]
    assert "oracle.dp_leakage_throughput.calls" in called["certify-sweep"]
    assert {"cli.solve.calls", "cli.verify.calls"} <= called["cli-reports"]
    every = {f"{f}.calls" for f in spans.FUNCTIONS}
    assert set().union(*called.values()) == every


def test_a_wrong_schedule_is_a_failed_op(monkeypatch):
    solve = workloads.taut_string

    def overspend(harvested, minimum=None):
        solution = solve(harvested, minimum)
        end = harvested.horizon
        power = 2.0 * harvested.eval_left(end) / end
        return dataclasses.replace(solution, schedule=PowerSchedule.constant(power, end))

    monkeypatch.setattr(workloads, "taut_string", overspend)
    record = _tiny("corridor-ladder")
    # every family but broadcast and leakage solves through taut_string
    assert record["failed"] == 4 * len(workloads.TINY.ladder)
    assert record["correct"] is False
    assert all(f.startswith("wrong: ") for f in record["failures"])


def test_cli_failures_come_only_from_verify_solar():
    record = _tiny("cli-reports")
    assert record["correct"] is True
    for failure in record["failures"]:
        assert failure.startswith("refused: demo: ehsched verify solar "), failure


def test_counts_repeat_exactly_for_a_seed():
    def counts(record):
        return {
            n: m["value"] for n, m in record["metrics"].items()
            if not n.endswith((".busy_s", ".exponent", "overhead_frac"))
        }

    assert counts(_tiny("certify-sweep", True, 5)) == counts(_tiny("certify-sweep", True, 5))


def test_loglog_slope_recovers_a_power_law():
    points = [(n, 3e-6 * n**1.5) for n in (256, 512, 1024, 2048)]
    assert spans.loglog_slope(points) == pytest.approx(1.5)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "corridor-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
