"""Command-line interface. Exit codes: 0 = requested action succeeded,
1 = action ran but the target failed (e.g. the build did not succeed),
2 = usage or configuration error."""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import signal
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from . import bench as bench_mod
from .agent import DEFAULT_MAX_TURNS, VARIANTS
from .corpus import (
    CorpusManifest,
    RepoRecord,
    load_manifest,
    required_sample_size,
    sample_repos,
    save_manifest,
)
from .errors import BOOL, OBJECT, OBJECT_LIST, STR, STR_OR_NULL, check, read_json
from .errors import RepobuildError, UsageError
from .gateway import LlmConfig, ScriptedScenario
from .retrieval import run_retrieval
from .sandbox import SandboxSpec
from .targets import predict_targets
from .validation import discover_new_binaries, function_coverage, judge
from .workspace import Workspace, load_snapshot, save_snapshot, snapshot_files

logger = logging.getLogger(__name__)


_CONFIG_FIELDS = {"llm": OBJECT, "sandbox": OBJECT}
_SCENARIO_FIELDS = {"steps": OBJECT_LIST, "default_reply": STR_OR_NULL}
_STEP_FIELDS = {"match": STR, "reply": STR, "regex": BOOL}


def load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    return check(f"config file {path}", read_json(path, "config"), _CONFIG_FIELDS)


def load_scenario_file(path: Optional[str]) -> Optional[ScriptedScenario]:
    """Deterministic replies for offline runs: a JSON file with `steps`
    ([{match, reply, regex?}]) and an optional `default_reply`."""
    if not path:
        return None
    doc = check(f"scenario file {path}", read_json(path, "scenario"), _SCENARIO_FIELDS)
    steps = []
    for i, step in enumerate(doc.get("steps", [])):
        check(f"scenario file {path}: step {i}", step, _STEP_FIELDS, required=("match", "reply"))
        matcher = step["match"]
        if step.get("regex"):
            try:
                matcher = re.compile(matcher, re.DOTALL)
            except re.error as exc:
                raise UsageError(
                    f"scenario file {path}: step {i} match is not a valid regex: {exc}"
                ) from exc
        steps.append((matcher, step["reply"]))
    return ScriptedScenario(steps=steps, default_reply=doc.get("default_reply"))


def _llm_config(args, config: dict) -> LlmConfig:
    flags = {}
    scenario = load_scenario_file(getattr(args, "scenario", None))
    if scenario is not None:
        flags.update(backend="scripted", scenario=scenario)
    if getattr(args, "model", None):
        flags["model_name"] = args.model
    return _configured(LlmConfig, "llm", args, config, flags)


def _sandbox_spec(args, config: dict) -> SandboxSpec:
    # each sandbox flag stores under the name of the field it sets
    flags = {name: getattr(args, name) for name in SandboxSpec._fields
             if getattr(args, name, None) is not None}
    return _configured(SandboxSpec, "sandbox", args, config, flags)


def _configured(cls, name: str, args, config: dict, flags: dict):
    """``cls`` from the config's ``name`` section and the flags, or a usage error."""
    try:
        return cls(**{**config.get(name, {}), **flags})
    except (TypeError, UsageError) as exc:
        source = f" (config file {args.config} or a flag)" if args.config else ""
        raise UsageError(f"bad {name} configuration{source}: {exc}") from exc


def _workspace_from_path(path: str) -> Workspace:
    # realpath, not Path.resolve, which raises on a symlink loop before 3.13
    root = Path(os.path.realpath(path))
    if not root.is_dir():
        raise UsageError(f"workspace path is not a directory: {path}")
    return Workspace(repo_id=f"local/{root.name}", root_path=root)


def _check_work_dir(work_dir: Path) -> None:
    """Refuse a work dir that a file stands in the way of: the session makes
    the directory, and that file would end it as an infra error."""
    nearest = next(p for p in (work_dir, *work_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"work dir {work_dir} cannot be made: {nearest} is not a directory")


def _expected_list(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [name.strip() for name in raw.split(",") if name.strip()]


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scripted-reply file for offline runs")
    p.add_argument("--model", help="model preset name for the live backend")


def _add_sandbox_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sandbox-backend", dest="backend", choices=["container", "local"])
    p.add_argument("--base-image")
    p.add_argument("--per-command-timeout", type=float)
    p.add_argument("--total-timeout", type=float)
    p.add_argument("--output-cap", dest="output_cap_bytes", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repobuild",
        description="Compile repositories automatically and validate the results.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="run one build session against a repository")
    p_build.add_argument("source", help="clone URL or local path")
    p_build.add_argument("--id", help="repository id as owner/name")
    p_build.add_argument("--commit", help="revision to pin")
    p_build.add_argument(
        "--method", default="rule-based", choices=VARIANTS
    )
    p_build.add_argument("--expected", help="comma-separated expected binary names")
    p_build.add_argument("--max-turns", type=int, default=DEFAULT_MAX_TURNS)
    p_build.add_argument("--work-dir", help="session directory (default: temporary)")
    p_build.add_argument("--require-strict", action="store_true")
    p_build.add_argument("--json", action="store_true")
    _add_llm_flags(p_build)
    _add_sandbox_flags(p_build)

    p_bench = sub.add_parser("bench", help="run a method over a whole manifest")
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument(
        "--method", default="rule-based", choices=VARIANTS
    )
    p_bench.add_argument("--runs", type=int, default=1)
    p_bench.add_argument("--parallelism", type=int, default=1)
    p_bench.add_argument("--max-turns", type=int, default=DEFAULT_MAX_TURNS)
    p_bench.add_argument("--store", required=True, help="append-only result store path")
    p_bench.add_argument("--work-dir", required=True)
    p_bench.add_argument("--json", action="store_true")
    _add_llm_flags(p_bench)
    _add_sandbox_flags(p_bench)

    p_retrieve = sub.add_parser("retrieve", help="distill build instructions for a repo")
    p_retrieve.add_argument("workspace", help="path of a prepared repository")
    p_retrieve.add_argument("--json", action="store_true")
    _add_llm_flags(p_retrieve)

    p_snapshot = sub.add_parser("snapshot", help="save a snapshot of a repository's files")
    p_snapshot.add_argument("workspace", help="path of a prepared repository")
    p_snapshot.add_argument("--out", required=True, help="snapshot file to write")

    p_validate = sub.add_parser("validate", help="judge produced binaries against labels")
    p_validate.add_argument("--workspace", required=True)
    p_validate.add_argument("--before", required=True, help="pre-build snapshot file")
    p_validate.add_argument("--expected", help="comma-separated expected binary names")
    p_validate.add_argument("--require-strict", action="store_true")
    p_validate.add_argument("--json", action="store_true")

    p_predict = sub.add_parser("predict-targets", help="predict executable names from Makefiles")
    p_predict.add_argument("workspace", help="path of a prepared repository")
    p_predict.add_argument("--llm", action="store_true", help="refine with an LLM pass")
    p_predict.add_argument("--json", action="store_true")
    _add_llm_flags(p_predict)

    p_plan = sub.add_parser("plan-sample", help="sample size for a proportion estimate")
    p_plan.add_argument("--z", type=float, required=True)
    p_plan.add_argument("--e", type=float, required=True)
    p_plan.add_argument("--p", type=float, required=True)
    p_plan.add_argument("--population", type=int, required=True)
    p_plan.add_argument("--json", action="store_true")

    p_sample = sub.add_parser("sample", help="draw a seeded random sample of a manifest")
    p_sample.add_argument("--manifest", required=True)
    p_sample.add_argument("--n", type=int, required=True, help="records to draw")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="manifest file to write")

    return parser


def _cmd_build(args, config: dict) -> int:
    repo_id = args.id
    if not repo_id:
        # a local source is named by its resolved path, so `.` is named too
        source = Path(args.source)
        name = (source.resolve() if source.exists() else source).name.removesuffix(".git")
        repo_id = f"local/{name}"
    record = RepoRecord(
        id=repo_id,
        clone_url=args.source,
        commit=args.commit,
        expected_binaries=tuple(_expected_list(args.expected)),
    )
    cfg = bench_mod.RunConfig(
        manifest=CorpusManifest(records=[record], name="adhoc"),
        method=args.method,
        llm=_llm_config(args, config),
        sandbox=_sandbox_spec(args, config),
        max_turns=args.max_turns,
    )
    if args.work_dir:
        _check_work_dir(Path(args.work_dir))
    with tempfile.TemporaryDirectory(prefix="repobuild-") as tmp:
        session_dir = Path(args.work_dir) if args.work_dir else Path(tmp) / "session"
        doc = bench_mod.run_one_repo(record, cfg, session_dir)
    session, verdict = doc["session"], doc["verdict"]
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"repo: {doc['repo']}")
        print(f"outcome: {session['outcome']}")
        print(f"fix_attempts: {session['fix_attempts']}")
        for key in ("completion", "strict", "flexible"):
            print(f"{key}: {verdict[key]}")
        print(f"failure_mode: {doc['failure_mode']}")
        for artifact in verdict["new_binaries"]:
            _print_escaped(f"binary: {artifact['rel_path']}")
    passed = verdict["strict"] if args.require_strict else verdict["completion"]
    return 0 if passed else 1


def _print_escaped(line: str) -> None:
    """Print ``line`` with each character stdout cannot encode as its
    backslash escape, such as the lone surrogate that stands for a byte of a
    file name that is not UTF-8."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def _cmd_bench(args, config: dict) -> int:
    cfg = bench_mod.RunConfig(
        manifest=load_manifest(args.manifest),
        method=args.method,
        llm=_llm_config(args, config),
        sandbox=_sandbox_spec(args, config),
        max_turns=args.max_turns,
        runs=args.runs,
        parallelism=args.parallelism,
    )
    store, work_dir = Path(args.store), Path(args.work_dir)
    if store.is_dir() or not store.parent.is_dir():
        raise UsageError(f"store path names no file in an existing directory: {store}")
    _check_work_dir(work_dir)
    results = bench_mod.run_benchmark(cfg, store, work_dir)
    # a store may also hold other manifests' repos and more runs; the report
    # covers this manifest's repos in the runs asked for
    ids = {record.id for record in cfg.manifest.records}
    kept, left_out, later_runs = [], 0, 0
    for result in results:
        per_repo = {repo: o for repo, o in result.per_repo.items() if repo in ids}
        left_out += len(result.per_repo) - len(per_repo)
        if per_repo and result.run_index >= cfg.runs:
            later_runs += 1
        elif per_repo:
            kept.append(bench_mod.RunResult(result.run_index, per_repo))
    for count, noun, which in ((left_out, "record", "of repos not in the manifest"),
                               (later_runs, "run", f"beyond --runs {cfg.runs}")):
        if count:
            print(f"note: the report leaves out {count} stored {noun}"
                  f"{'' if count == 1 else 's'} {which}", file=sys.stderr)
    report = bench_mod.aggregate(kept)
    print(bench_mod.emit_report(report, "machine" if args.json else "table",
                                method=args.method))
    return 0


def _cmd_retrieve(args, config: dict) -> int:
    ws = _workspace_from_path(args.workspace)
    dossier = run_retrieval(ws, _llm_config(args, config), bench_mod.repo_context(ws))
    if args.json:
        print(json.dumps(bench_mod.dossier_to_dict(dossier), indent=2, sort_keys=True))
    else:
        print(f"sufficient: {dossier.sufficient}")
        print(f"rounds_used: {dossier.rounds_used}")
        for link in dossier.visited:
            print(f"visited: {link.target}")
        print("instructions:")
        print(dossier.instructions)
    return 0


def _cmd_snapshot(args, config: dict) -> int:
    snapshot = snapshot_files(_workspace_from_path(args.workspace))
    try:
        save_snapshot(snapshot, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write snapshot file: {exc}") from exc
    print(f"files: {len(snapshot.entries)}")
    return 0


def _cmd_validate(args, config: dict) -> int:
    ws = _workspace_from_path(args.workspace)
    before = load_snapshot(args.before)
    artifacts = discover_new_binaries(before, ws)
    verdict = judge(artifacts, _expected_list(args.expected))
    coverage = function_coverage(ws, artifacts)
    doc = {
        "completion": verdict.completion,
        "strict": verdict.strict,
        "flexible": verdict.flexible,
        "matched_names": sorted(verdict.matched_names),
        "new_binaries": [
            {"rel_path": a.rel_path, "classify": a.classify} for a in verdict.new_binaries
        ],
        "function_coverage": {
            "coverage_pct": None if coverage.undefined else coverage.coverage_pct,
            "undefined": coverage.undefined,
            "top_uncompiled_dirs": [list(d) for d in coverage.top_uncompiled_dirs],
        },
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"completion: {verdict.completion}")
        print(f"strict: {verdict.strict}")
        print(f"flexible: {verdict.flexible}")
        for a in verdict.new_binaries:
            _print_escaped(f"binary: {a.rel_path} ({a.classify})")
        print("coverage: undefined" if coverage.undefined
              else f"coverage: {coverage.coverage_pct:.1f}%")
    passed = verdict.strict if args.require_strict else verdict.completion
    return 0 if passed else 1


def _cmd_predict_targets(args, config: dict) -> int:
    ws = _workspace_from_path(args.workspace)
    cfg = _llm_config(args, config) if args.llm else None
    prediction = predict_targets(ws, cfg)
    if args.json:
        print(json.dumps({
            "names": list(prediction.names),
            "evidence": {k: list(v) for k, v in prediction.evidence.items()},
        }, indent=2, sort_keys=True))
    else:
        for name in prediction.names:
            print(name)
    return 0


def _cmd_plan_sample(args, config: dict) -> int:
    plan = required_sample_size(args.z, args.e, args.p, args.population)
    if args.json:
        print(json.dumps({
            "n0": plan.n0,
            "n_fpc": plan.n_fpc,
            "required_n": plan.required_n,
        }, indent=2, sort_keys=True))
    else:
        print(f"n0: {plan.n0:.2f}")
        print(f"n_fpc: {plan.n_fpc:.2f}")
        print(f"required_n: {plan.required_n}")
    return 0


def _cmd_sample(args, config: dict) -> int:
    sample = sample_repos(load_manifest(args.manifest), args.n, args.seed)
    try:
        save_manifest(sample, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write manifest file: {exc}") from exc
    for record in sample.records:
        print(record.id)
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "bench": _cmd_bench,
    "retrieve": _cmd_retrieve,
    "snapshot": _cmd_snapshot,
    "validate": _cmd_validate,
    "predict-targets": _cmd_predict_targets,
    "plan-sample": _cmd_plan_sample,
    "sample": _cmd_sample,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config_file(args.config)
        return _COMMANDS[args.subcommand](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RepobuildError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    signal.signal(signal.SIGTERM, lambda *_: (_ for _ in ()).throw(KeyboardInterrupt()))
    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:
        sys.exit(130)
