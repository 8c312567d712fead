"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = str(path.relative_to(root))
        h.update(rel.encode() + b"\0" + path.read_bytes().replace(str(root).encode(), b"<root>"))
    return h.hexdigest()


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload, tmp_path):
    generate(workload, tmp_path / "a", 5, smoke=True)
    generate(workload, tmp_path / "b", 5, smoke=True)
    generate(workload, tmp_path / "c", 6, smoke=True)
    digest = {name: _tree_digest(tmp_path / name) for name in "abc"}
    assert digest["a"] == digest["b"]
    assert digest["a"] != digest["c"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--smoke", "--spans-out", str(spans))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = (set(END_TO_END_UNITS) if trace == "0"
                else {name for name, _u, _b, _m in PER_LAYER})
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    report = json.loads(lines[-2])["report"]
    assert report["failed_share"] == 0
    assert report["host"]["sandbox_backend"] == "local"
    if trace == "1":
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(records) == report["spans"] > 0
        assert {"name", "start_ns", "end_ns", "parent", "session"} <= set(records[0])
        assert any(r["name"] == "workspace.snapshot" and r["session"] is not None for r in records)
    assert not (ROOT / ".perfbench_work").exists() or not any((ROOT / ".perfbench_work").iterdir())


def test_oracle_catches_a_wrong_answer(tmp_path):
    inputs = tmp_path / "inputs"
    generate("rules-corpus", inputs, 4, smoke=True)
    plan = json.loads((inputs / "plan.json").read_text())
    key = next(iter(plan["sessions"]))
    plan["sessions"][key]["fix_attempts"] = 7
    (inputs / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ, TMPDIR=str(tmp_path), LC_ALL="C")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
                           "--work", str(tmp_path / "run"), "--seconds", "0"],
                          capture_output=True, text=True, env=env, timeout=300)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["failed"] == 2  # the warm-up and the measured invocation
    assert all(p.startswith(f"{key}: fix_attempts") for p in doc["problems"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "rules-corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
