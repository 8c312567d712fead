"""Run one workload in this (fresh) process and print one JSON object.

Each operation is one ``repobuild bench`` invocation: ``run_benchmark``
(which first scans the store for finished keys) then ``aggregate`` then
``emit_report``, on the local sandbox backend and, for agent methods, the
scripted gateway. One warm-up operation runs first; then operations repeat,
closed loop and one session at a time, until ``--seconds`` have passed.
Every operation is checked against the generator's answer in ``plan.json``.

With ``--trace 1`` operations alternate between untraced and traced, so the
traced ones give the per-layer metrics and the pair gives the overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repobuild import bench  # noqa: E402
from repobuild.cli import load_scenario_file  # noqa: E402
from repobuild.corpus import CorpusManifest, load_manifest  # noqa: E402
from repobuild.gateway import LlmConfig  # noqa: E402
from repobuild.sandbox import SandboxSpec  # noqa: E402

from tracer import Tracer, layer_metrics, spans_as_records  # noqa: E402


def run_config(inputs: Path, plan: dict, only: Optional[List[str]] = None) -> bench.RunConfig:
    """The configuration ``repobuild bench`` would build from these inputs."""
    manifest = load_manifest(inputs / "manifest.jsonl")
    if only:
        manifest = CorpusManifest([r for r in manifest.records if r.id in only], name=manifest.name)
    scenario_path = inputs / "scenario.json"
    if scenario_path.exists():
        llm = LlmConfig(backend="scripted", scenario=load_scenario_file(str(scenario_path)))
    else:
        llm = LlmConfig()
    return bench.RunConfig(
        manifest=manifest,
        method=plan["method"],
        llm=llm,
        sandbox=SandboxSpec(backend="local"),
        max_turns=plan["max_turns"],
        runs=plan["runs"],
        parallelism=1,
    )


def _observed(outcome) -> dict:
    session, verdict = outcome.session, outcome.verdict
    got = {
        "outcome": session["outcome"],
        "fix_attempts": session["fix_attempts"],
        "command_turns": sum(1 for t in session["turns"] if t["kind"] == "command-turn"),
        "completion": verdict.completion,
        "strict": verdict.strict,
        "flexible": verdict.flexible,
        "failure_mode": outcome.failure_mode,
        "executables": sorted(a.file_name for a in verdict.new_binaries
                              if a.classify == "executable"),
    }
    if outcome.dossier is not None:
        got["dossier"] = {k: outcome.dossier[k]
                          for k in ("sufficient", "rounds_used", "fetch_failures")}
    return got


def _same(expected, got) -> bool:
    if isinstance(expected, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and math.isclose(expected, got, abs_tol=1e-9)
    if isinstance(expected, dict):
        return (isinstance(got, dict) and expected.keys() == got.keys()
                and all(_same(expected[k], got[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(got, list) and len(expected) == len(got)
                and all(_same(e, g) for e, g in zip(expected, got)))
    return expected == got


def check(plan: dict, cfg: bench.RunConfig, results, report_text: str) -> List[str]:
    """Every difference between what the harness reported and the plan."""
    ids = {r.id for r in cfg.manifest.records}
    outcomes = {f"{r.run_index}:{repo}": o for r in results for repo, o in r.per_repo.items()}
    problems = []
    for key, expected in plan["sessions"].items():
        if key.split(":", 1)[1] not in ids:
            continue
        if key not in outcomes:
            problems.append(f"{key}: no record in the store")
            continue
        got = _observed(outcomes[key])
        for field, want in expected.items():
            if not _same(want, got.get(field)):
                problems.append(f"{key}: {field} is {got.get(field)!r}, expected {want!r}")
    if plan["report"] is not None and not _same(plan["report"], json.loads(report_text)):
        problems.append(f"report differs from the expected one: {report_text}")
    return problems


class Runner:
    def __init__(self, inputs: Path, work: Path, plan: dict, tracer: Tracer):
        self.plan = plan
        self.tracer = tracer
        self.store = work / "store.jsonl"
        self.sessions_dir = work / "sessions"
        work.mkdir(parents=True, exist_ok=True)
        self.store_size = 0
        if (inputs / "store.jsonl").exists():
            shutil.copyfile(inputs / "store.jsonl", self.store)
            self.store_size = self.store.stat().st_size
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _reset(self) -> None:
        # each invocation sees the generated store (or none) and no sessions
        if self.store_size:
            os.truncate(self.store, self.store_size)
        elif self.store.exists():
            self.store.unlink()
        if self.sessions_dir.exists():
            shutil.rmtree(self.sessions_dir)

    def invoke(self, cfg: bench.RunConfig, traced: bool) -> dict:
        self._reset()
        first = len(self.tracer.sessions)
        ops = 1 if self.plan["report"] is not None else len(cfg.manifest.records) * cfg.runs
        self.tracer.install(detailed=traced)
        try:
            start = time.perf_counter()
            results = bench.run_benchmark(cfg, self.store, self.sessions_dir)
            text = bench.emit_report(bench.aggregate(results), "machine", method=cfg.method)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.attempted += ops
            self.failed += ops
            self.problems.append("invocation raised: " + traceback.format_exc(limit=1))
            return {"traced": traced, "wall_s": None, "sessions_s": []}
        finally:
            self.tracer.uninstall()
        problems = check(self.plan, cfg, results, text)
        self.attempted += ops
        if self.plan["report"] is not None:
            self.failed += int(bool(problems))
        else:
            self.failed += len({p.split(": ", 1)[0] for p in problems})
        self.problems += problems
        sessions = [(end - begin) / 1e9 for begin, end, _ in self.tracer.sessions[first:]]
        return {"traced": traced, "wall_s": wall, "sessions_s": sessions}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    inputs = Path(args.inputs)
    plan = json.loads((inputs / "plan.json").read_text("utf-8"))
    tracer = Tracer()
    runner = Runner(inputs, Path(args.work), plan, tracer)
    cfg = run_config(inputs, plan)

    start = time.perf_counter()
    warm_cfg = run_config(inputs, plan, only=plan["warmup_ids"]) if plan["warmup_ids"] else cfg
    runner.invoke(warm_cfg, traced=False)
    warmup_s = time.perf_counter() - start

    ops = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(runner.invoke(cfg, traced))
        if time.perf_counter() >= deadline and (not args.trace or len(ops) >= 2):
            break
    runner._reset()

    doc = {
        "warmup_s": warmup_s,
        "ops": ops,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "read_counters": tracer.reads_available,
        "per_layer": None,
    }
    if args.trace:
        plain = [s for op in ops if not op["traced"] for s in op["sessions_s"]]
        traced = [s for op in ops if op["traced"] for s in op["sessions_s"]]
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if plain and traced else 0.0
        n_traced = sum(1 for op in ops if op["traced"])
        doc["per_layer"] = layer_metrics(tracer, n_traced, overhead)
        doc["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for rec in spans_as_records(tracer):
                    fh.write(json.dumps(rec) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
