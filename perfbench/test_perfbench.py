"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import metric_table
from oracle import Oracle, restricted_counts
from workloads import WORKLOADS, make_ops

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.1", "--tiny", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in metric_table().items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_every_metric_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "5")
    doc = result(proc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    for name, unit in run.END_TO_END_UNITS.items():
        assert f"{name} " in proc.stdout and f" {unit}\n" in proc.stdout
    assert "failed_share=0.0000 ratio" in proc.stdout


def test_set_up_child_loads_nothing_of_the_harness_before_the_program():
    # set-up time must be the program's import, so mpmath (speed.py) and
    # the tracer may load only after binpart.cli
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); import worker; "
         "print(sorted(m for m in ('mpmath', 'speed', 'tracing', 'json') if m in sys.modules))"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=60)
    assert proc.stdout.strip() == "[]", proc.stderr


def test_same_seed_same_operations():
    for workload in WORKLOADS:
        assert make_ops(workload, 9) == make_ops(workload, 9)
    assert make_ops("queries", 9) != make_ops("queries", 10)


def test_wrong_oracle_value_counts_as_failed(monkeypatch, capsys):
    class WrongOracle(Oracle):
        def __init__(self, ops):
            super().__init__(ops)
            self.p[0] += 1  # every p(n,k) sum reads p(0)

    monkeypatch.setattr(run, "Oracle", WrongOracle)
    assert run.main(["--workload", "rows-2000", "--seed", "5", "--seconds", "0.1",
                     "--tiny"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    # only `compute pnk` reads p; each pass has four operations
    assert doc["failed"] == doc["attempted"] // 4 >= 1
    assert not doc["correct"]


def test_oracle_rejects_wrong_exit_code_empty_stdout_and_traceback():
    oracle = Oracle([["compute", "p", "10"]])
    good = '{\n  "kind": "p",\n  "args": [\n    10\n  ],\n  "value": "42"\n}\n'
    assert oracle.check(["compute", "p", "10"], 0, good, "") is None
    assert oracle.check(["compute", "p", "10"], 1, good, "") is not None
    assert oracle.check(["compute", "p", "10"], 0, "", "") is not None
    assert oracle.check(["compute", "p", "10"], None, "", "Traceback ...") is not None
    assert oracle.check(["compute", "p", "10"], 0, good.replace("42", "43"), "") is not None


def test_restricted_counts():
    assert restricted_counts(100, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert restricted_counts(3, 10)[10] == 14


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_cover_every_per_layer_metric(workload):
    first, second = (result(bench("--workload", workload, "--seed", "7", "--trace", "1"))
                     for _ in range(2))
    table = metric_table()
    assert {k: m["unit"] for k, m in first["metrics"].items()} == {
        name: unit for name, (unit, _, _) in table.items()}
    counts = [name for name, (unit, _, _) in table.items() if unit in ("count", "ratio")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
