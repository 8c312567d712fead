"""Command-line interface. Exit codes: 0 = requested action succeeded,
1 = action ran but the target failed (e.g. the build did not succeed),
2 = usage or configuration error."""

from __future__ import annotations

import argparse
import json
import logging
import re
import signal
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from . import bench as bench_mod
from .agent import DEFAULT_MAX_TURNS, VARIANTS
from .corpus import CorpusManifest, RepoRecord, load_manifest, required_sample_size
from .errors import (
    DomainError,
    ManifestParseError,
    ManifestValidationError,
    RepobuildError,
    UsageError,
)
from .gateway import LlmConfig, ScriptedScenario
from .retrieval import run_retrieval
from .sandbox import SandboxSpec
from .targets import predict_targets
from .validation import discover_new_binaries, judge
from .workspace import Workspace, load_snapshot

logger = logging.getLogger(__name__)


def load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a key/value object")
    return data


def load_scenario_file(path: Optional[str]) -> Optional[ScriptedScenario]:
    """Deterministic replies for offline runs: a JSON file with `steps`
    ([{match, reply, regex?}]) and an optional `default_reply`."""
    if not path:
        return None
    p = Path(path)
    if not p.exists():
        raise UsageError(f"scenario file not found: {path}")
    try:
        doc = json.loads(p.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file is not valid: {exc}") from exc
    steps = []
    for step in doc.get("steps", []):
        matcher = step["match"]
        if step.get("regex"):
            matcher = re.compile(matcher, re.DOTALL)
        steps.append((matcher, step["reply"]))
    return ScriptedScenario(steps=steps, default_reply=doc.get("default_reply"))


def _llm_config(args, config: dict) -> LlmConfig:
    section = dict(config.get("llm", {}))
    scenario = load_scenario_file(getattr(args, "scenario", None))
    if scenario is not None:
        section["backend"] = "scripted"
        section["scenario"] = scenario
    if getattr(args, "model", None):
        section["model_name"] = args.model
    try:
        return LlmConfig(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad llm configuration: {exc}") from exc


def _sandbox_spec(args, config: dict) -> SandboxSpec:
    section = dict(config.get("sandbox", {}))
    for flag, key in [
        ("sandbox_backend", "backend"),
        ("base_image", "base_image"),
        ("per_command_timeout", "per_command_timeout"),
        ("total_timeout", "total_timeout"),
        ("output_cap", "output_cap_bytes"),
    ]:
        value = getattr(args, flag, None)
        if value is not None:
            section[key] = value
    try:
        return SandboxSpec(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sandbox configuration: {exc}") from exc


def _workspace_from_path(path: str) -> Workspace:
    root = Path(path).resolve()
    if not root.is_dir():
        raise UsageError(f"workspace path is not a directory: {path}")
    return Workspace(repo_id=f"local/{root.name}", root_path=root, commit="unversioned")


def _expected_list(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [name.strip() for name in raw.split(",") if name.strip()]


def _add_llm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="scripted-reply file for offline runs")
    p.add_argument("--model", help="model preset name for the live backend")


def _add_sandbox_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sandbox-backend", choices=["container", "local"])
    p.add_argument("--base-image")
    p.add_argument("--per-command-timeout", type=float)
    p.add_argument("--total-timeout", type=float)
    p.add_argument("--output-cap", type=int)


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

    p_validate = sub.add_parser("validate", help="judge produced binaries against labels")
    p_validate.add_argument("--workspace", required=True)
    p_validate.add_argument("--before", required=True, help="pre-build snapshot file")
    p_validate.add_argument("--after", help="post-build snapshot file (default: scan now)")
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

    return parser


def _cmd_build(args, config: dict) -> int:
    repo_id = args.id
    if not repo_id:
        name = Path(args.source.rstrip("/")).name.removesuffix(".git")
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
    with tempfile.TemporaryDirectory(prefix="repobuild-") as tmp:
        session_dir = Path(args.work_dir) if args.work_dir else Path(tmp) / "session"
        summary, verdict, failure, _ = bench_mod.run_one_repo(record, cfg, session_dir)
    doc = {
        "repo": record.id,
        "outcome": summary["outcome"],
        "fix_attempts": summary["fix_attempts"],
        "completion": verdict.completion,
        "strict": verdict.strict,
        "flexible": verdict.flexible,
        "new_binaries": [a.rel_path for a in verdict.new_binaries],
        "failure_mode": failure,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key in ("repo", "outcome", "fix_attempts", "completion", "strict",
                    "flexible", "failure_mode"):
            print(f"{key}: {doc[key]}")
        for rel in doc["new_binaries"]:
            print(f"binary: {rel}")
    passed = verdict.strict if args.require_strict else verdict.completion
    return 0 if passed else 1


def _cmd_bench(args, config: dict) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except (ManifestParseError, ManifestValidationError) as exc:
        raise UsageError(str(exc)) from exc
    cfg = bench_mod.RunConfig(
        manifest=manifest,
        method=args.method,
        llm=_llm_config(args, config),
        sandbox=_sandbox_spec(args, config),
        max_turns=args.max_turns,
        runs=args.runs,
        parallelism=args.parallelism,
    )
    results = bench_mod.run_benchmark(cfg, Path(args.store), Path(args.work_dir))
    report = bench_mod.aggregate(results)
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


def _cmd_validate(args, config: dict) -> int:
    ws = _workspace_from_path(args.workspace)
    try:
        before = load_snapshot(args.before)
        after = load_snapshot(args.after) if args.after else None
    except OSError as exc:
        raise UsageError(f"cannot read snapshot file: {exc}") from exc
    artifacts = discover_new_binaries(before, after, ws)
    verdict = judge(artifacts, _expected_list(args.expected))
    doc = {
        "completion": verdict.completion,
        "strict": verdict.strict,
        "flexible": verdict.flexible,
        "matched_names": sorted(verdict.matched_names),
        "new_binaries": [
            {"rel_path": a.rel_path, "classify": a.classify} for a in verdict.new_binaries
        ],
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"completion: {verdict.completion}")
        print(f"strict: {verdict.strict}")
        print(f"flexible: {verdict.flexible}")
        for a in verdict.new_binaries:
            print(f"binary: {a.rel_path} ({a.classify})")
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
    try:
        plan = required_sample_size(args.z, args.e, args.p, args.population)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc
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


_COMMANDS = {
    "build": _cmd_build,
    "bench": _cmd_bench,
    "retrieve": _cmd_retrieve,
    "validate": _cmd_validate,
    "predict-targets": _cmd_predict_targets,
    "plan-sample": _cmd_plan_sample,
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
