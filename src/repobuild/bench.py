"""Benchmark harness: run a build method across a manifest, persist every
session and verdict to an append-only store, and aggregate the metrics."""

from __future__ import annotations

import fcntl
import json
import logging
import os
import re
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .agent import (
    VARIANTS,
    BuildSession,
    PromptContext,
    run_build_loop,
    run_single_turn,
)
from .corpus import CorpusManifest, RepoRecord
from .errors import UsageError
from .gateway import LlmConfig
from .retrieval import InstructionDossier, run_retrieval
from .rules import build_with_rules
from .sandbox import SandboxSpec, base_image_description
from .validation import BinaryArtifact, Verdict, discover_new_binaries, has_binary_magic, judge
from .workspace import Workspace, list_root_entries, prepare_workspace, read_readme, snapshot_files

logger = logging.getLogger(__name__)

FAILURE_MODES = (
    "unresolved-after-max-attempts",
    "dependency-error",
    "retrieval-stage-error",
    "protocol-error",
    "infra-error",
    "timeout",
)

_BUILD_TOOL_RE = re.compile(
    r"\b(make|cmake|configure|meson|ninja|qmake|gcc|g\+\+|cc|clang|cargo|msbuild)\b"
)


@dataclass
class RunConfig:
    manifest: CorpusManifest
    method: str
    llm: LlmConfig
    sandbox: SandboxSpec
    max_turns: int = 12
    runs: int = 1
    parallelism: int = 1

    def __post_init__(self):
        if self.method not in VARIANTS:
            raise UsageError(f"unknown method {self.method!r}")
        if self.runs < 1 or self.parallelism < 1 or self.max_turns < 1:
            raise UsageError("runs, parallelism, and max_turns must be >= 1")


@dataclass
class RepoOutcome:
    session: dict  # serialized session summary
    verdict: Verdict
    failure_mode: Optional[str] = None
    dossier: Optional[dict] = None


@dataclass
class RunResult:
    run_index: int
    per_repo: Dict[str, RepoOutcome] = field(default_factory=dict)


@dataclass
class AggregateReport:
    completion_pct: List[float]
    strict_pct: List[float]
    flexible_pct: List[float]
    mean_fix_attempts: List[float]
    pass_at_k: Dict[int, Tuple[float, float]]
    failure_mode_histogram: Dict[str, int]


# -- persistence --------------------------------------------------------------


def _read_records(path: Path, start: int = 0) -> Tuple[List[dict], int]:
    """Parse the store's records from byte offset ``start``, line by line.

    Returns the records and the offset just past the last newline-terminated
    line. An unterminated tail is parsed if it can be but lies beyond that
    offset, so a later read from it sees the tail again once complete. A
    store now shorter than ``start`` is read again from 0.
    """
    records: List[dict] = []
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return records, 0
    with fh:
        if os.fstat(fh.fileno()).st_size < start:
            start = 0
        fh.seek(start)
        offset = end = start
        for line in fh:
            offset += len(line)
            if line.endswith(b"\n"):
                end = offset
            if line.isspace():
                continue
            # a crash mid-append leaves a torn record, possibly cut inside a
            # UTF-8 sequence; treat it as never written
            try:
                records.append(json.loads(line.decode("utf-8")))
            except ValueError:
                logger.warning("skipping torn record in %s", path)
    return records, end


class ResultStore:
    """Append-only line store, one self-describing record per (run, repo)."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def existing_keys(self) -> set:
        records, _ = _read_records(self.path)
        return {(rec["run"], rec["repo"]) for rec in records}

    def append(self, record: dict) -> None:
        """Append one record; safe across threads and processes, since each
        call takes an exclusive ``flock`` on its own descriptor."""
        data = (json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")
        # read access is for the pread of the last byte
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            # close off a torn tail record so the new line stays parseable
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)  # releases the lock


def _verdict_to_dict(v: Verdict) -> dict:
    return {**asdict(v), "matched_names": sorted(v.matched_names)}


def _verdict_from_dict(d: dict) -> Verdict:
    return Verdict(**{
        **d,
        "matched_names": frozenset(d["matched_names"]),
        "new_binaries": tuple(BinaryArtifact(**a) for a in d["new_binaries"]),
    })


def session_summary(session: BuildSession) -> dict:
    turns = []
    for t in session.turns:
        turns.append(
            {
                "k": t.k,
                "kind": t.kind,
                "agent_reply_raw": t.agent_reply_raw,
                "commands": list(t.script.commands) if t.script else None,
                "per_command": [list(pc) for pc in t.result.per_command] if t.result else None,
                "output": t.result.combined_output if t.result else None,
                "overall_exit": t.result.overall_exit if t.result else None,
                "timed_out": t.result.timed_out if t.result else None,
                "violation_note": t.violation_note,
            }
        )
    return {
        "repo_id": session.repo_id,
        "variant": session.variant,
        "max_turns": session.max_turns,
        "outcome": session.outcome,
        "fix_attempts": session.fix_attempts,
        "error_detail": session.error_detail,
        "turns": turns,
    }


def _dossier_to_dict(dossier: Optional[InstructionDossier]) -> Optional[dict]:
    if dossier is None:
        return None
    return {
        "instructions": dossier.instructions,
        "sufficient": dossier.sufficient,
        "rounds_used": dossier.rounds_used,
        "visited": [
            {"kind": l.kind, "target": l.target, "round": l.discovered_in_round}
            for l in dossier.visited
        ],
        "fetch_failures": [list(f) for f in dossier.fetch_failures],
    }


def _merge_records(by_run: Dict[int, RunResult], records: List[dict]) -> None:
    """Add records in store order; a later record for a (run, repo) wins. The
    outcomes keep the parsed session and dossier dicts rather than copies."""
    for rec in records:
        run = by_run.setdefault(rec["run"], RunResult(run_index=rec["run"]))
        run.per_repo[rec["repo"]] = RepoOutcome(
            session=rec["session"],
            verdict=_verdict_from_dict(rec["verdict"]),
            failure_mode=rec.get("failure_mode"),
            dossier=rec.get("dossier"),
        )


def load_results(store_path: Path) -> List[RunResult]:
    """Rebuild RunResults from the persisted store; the store is the source of
    truth, so recomputing metrics from it reproduces the original report."""
    by_run: Dict[int, RunResult] = {}
    _merge_records(by_run, _read_records(Path(store_path))[0])
    return [by_run[k] for k in sorted(by_run)]


# -- failure tagging ----------------------------------------------------------


def load_failure_signatures() -> List[re.Pattern]:
    raw = (
        resources.files("repobuild.assets")
        .joinpath("failure_signatures.json")
        .read_text("utf-8")
    )
    return [re.compile(p) for p in json.loads(raw)]


_SIGNATURES: Optional[List[re.Pattern]] = None


def tag_failure_mode(
    session: dict, verdict: Verdict, dossier: Optional[dict] = None
) -> Optional[str]:
    """First matching rule wins; succeeded sessions carry no tag."""
    global _SIGNATURES
    if session["outcome"] == "succeeded":
        return None
    if session["outcome"] == "infra-error":
        return "infra-error"
    if session["outcome"] == "protocol-error":
        return "protocol-error"
    command_turns = [t for t in session["turns"] if t["kind"] == "command-turn"]
    final = command_turns[-1] if command_turns else None
    if final and final.get("timed_out"):
        return "timeout"
    if dossier is not None and not dossier.get("sufficient", True) and command_turns:
        first = command_turns[0]
        evidence = " ".join(first.get("commands") or []) + "\n" + (first.get("output") or "")
        if not _BUILD_TOOL_RE.search(evidence):
            return "retrieval-stage-error"
    if final and final.get("output"):
        if _SIGNATURES is None:
            _SIGNATURES = load_failure_signatures()
        for pattern in _SIGNATURES:
            if pattern.search(final["output"]):
                return "dependency-error"
    return "unresolved-after-max-attempts"


# -- orchestration ------------------------------------------------------------


def make_completion_probe(before_snapshot, ws: Workspace):
    """Loop success predicate: did any non-intermediate binary appear?

    Each call reads the header of every file whose stat changed since
    ``before_snapshot`` and hashes only binaries the baseline had hashed.
    """

    def probe(_result, workspace: Workspace) -> bool:
        artifacts = discover_new_binaries(before_snapshot, None, workspace)
        return any(a.classify != "object-file" for a in artifacts)

    return probe


def _build_context(ws: Workspace, instructions: Optional[str]) -> PromptContext:
    readme = read_readme(ws)
    listing = "\n".join(f"{name} ({kind})" for name, kind in list_root_entries(ws))
    return PromptContext(
        repo_full_name=ws.repo_id,
        repo_root_in_sandbox=ws.mount_path,
        readme=readme[0] if readme else "(repository has no README)",
        root_listing=listing or "(empty)",
        preinstalled=base_image_description(),
        instructions=instructions,
    )


def run_one_repo(
    record: RepoRecord,
    cfg: RunConfig,
    session_dir: Path,
) -> Tuple[dict, Verdict, Optional[str], Optional[dict]]:
    """Workspace, optional retrieval, one method session, verdict, failure tag."""
    dossier = None
    try:
        ws = prepare_workspace(record, session_dir)
        # only a file with a binary magic can become a product, and only
        # such a file needs a digest to tell whether it changed
        before = snapshot_files(ws, hash_if=has_binary_magic)
        probe = make_completion_probe(before, ws)

        instructions = None
        if cfg.method == "agent-with-retrieval":
            dossier = run_retrieval(ws, cfg.llm)
            instructions = dossier.instructions

        if cfg.method == "rule-based":
            session = build_with_rules(ws, cfg.sandbox, probe)
        elif cfg.method == "single-turn":
            session = run_single_turn(ws, _build_context(ws, None), cfg.llm, cfg.sandbox, probe)
        else:
            session = run_build_loop(
                ws,
                _build_context(ws, instructions),
                cfg.llm,
                cfg.sandbox,
                probe,
                max_turns=cfg.max_turns,
                variant=cfg.method,
            )
        verdict = judge(discover_new_binaries(before, None, ws), record.expected_binaries)
    except UsageError:
        raise
    except Exception as exc:
        logger.warning("repo %s failed before a session could finish: %s", record.id, exc)
        session = BuildSession(repo_id=record.id, variant=cfg.method, max_turns=cfg.max_turns)
        session.end_on_error(exc)
        verdict = judge([], record.expected_binaries)
    summary = session_summary(session)
    dossier_dict = _dossier_to_dict(dossier)
    failure = tag_failure_mode(summary, verdict, dossier_dict)
    return summary, verdict, failure, dossier_dict


def run_benchmark(
    cfg: RunConfig,
    store_path: Path,
    work_dir: Path,
) -> List[RunResult]:
    """Execute `runs` repetitions over the manifest, resuming past work found
    in the store. Returns what ``load_results`` would rebuild from the store
    at the end, records other writers appended included, so a recomputation
    sees exactly what was persisted."""
    store = ResultStore(store_path)
    # one pass over the store gives both the results so far and what is done
    records, end = _read_records(store.path)
    by_run: Dict[int, RunResult] = {}
    _merge_records(by_run, records)
    done = {(rec["run"], rec["repo"]) for rec in records}
    del records
    work_dir = Path(work_dir)

    for run_idx in range(cfg.runs):
        todo = [r for r in cfg.manifest.records if (run_idx, r.id) not in done]
        if not todo:
            continue

        def run_record(record: RepoRecord, run_idx=run_idx) -> None:
            session_dir = work_dir / f"run{run_idx}" / record.id.replace("/", "__")
            # absent from the store means any leftovers are from a crashed attempt
            if session_dir.exists():
                shutil.rmtree(session_dir)
            summary, verdict, failure, dossier = run_one_repo(record, cfg, session_dir)
            store.append(
                {
                    "run": run_idx,
                    "repo": record.id,
                    "session": summary,
                    "verdict": _verdict_to_dict(verdict),
                    "failure_mode": failure,
                    "dossier": dossier,
                }
            )

        if cfg.parallelism == 1:
            for record in todo:
                run_record(record)
        else:
            with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
                list(pool.map(run_record, todo))

    # parse only what was appended since, by this run or by another writer
    appended, new_end = _read_records(store.path, end)
    if new_end < end:
        # the store shrank, so it was read again whole
        by_run = {}
    _merge_records(by_run, appended)
    return [by_run[k] for k in sorted(by_run)]


# -- metrics ------------------------------------------------------------------


def compute_metrics(result: RunResult, n: int) -> dict:
    """Per-run percentages over the manifest size plus mean fix attempts."""
    if n <= 0:
        raise UsageError("manifest size must be positive")
    outcomes = result.per_repo.values()
    completion = sum(1 for o in outcomes if o.verdict.completion)
    strict = sum(1 for o in outcomes if o.verdict.strict)
    flexible = sum(1 for o in outcomes if o.verdict.flexible)
    attempts = [o.session.get("fix_attempts", 0) for o in outcomes]
    return {
        "run": result.run_index,
        "completion_pct": 100.0 * completion / n,
        "strict_pct": 100.0 * strict / n,
        "flexible_pct": 100.0 * flexible / n,
        "mean_fix_attempts": sum(attempts) / len(attempts) if attempts else 0.0,
    }


def pass_at_k(results: List[RunResult], k: int, criterion: str) -> float:
    """Share of repos meeting the criterion in at least one of the first k
    chronologically ordered runs."""
    if criterion not in ("strict", "flexible"):
        raise UsageError(f"unknown criterion {criterion!r}")
    if not (1 <= k <= len(results)):
        raise UsageError(f"k={k} outside the available {len(results)} runs")
    ordered = sorted(results, key=lambda r: r.run_index)
    repo_ids = set()
    for result in ordered:
        repo_ids.update(result.per_repo)
    n = len(repo_ids)
    if n == 0:
        return 0.0
    hits = 0
    for repo in repo_ids:
        for result in ordered[:k]:
            outcome = result.per_repo.get(repo)
            if outcome is not None and getattr(outcome.verdict, criterion):
                hits += 1
                break
    return 100.0 * hits / n


def aggregate(results: List[RunResult]) -> AggregateReport:
    ordered = sorted(results, key=lambda r: r.run_index)
    n = max((len(r.per_repo) for r in ordered), default=0)
    rows = [compute_metrics(r, n) for r in ordered] if n else []
    histogram = Counter()
    for result in ordered:
        for outcome in result.per_repo.values():
            if outcome.failure_mode:
                histogram[outcome.failure_mode] += 1
    return AggregateReport(
        completion_pct=[r["completion_pct"] for r in rows],
        strict_pct=[r["strict_pct"] for r in rows],
        flexible_pct=[r["flexible_pct"] for r in rows],
        mean_fix_attempts=[r["mean_fix_attempts"] for r in rows],
        pass_at_k={
            k: (pass_at_k(ordered, k, "strict"), pass_at_k(ordered, k, "flexible"))
            for k in range(1, len(ordered) + 1)
        },
        failure_mode_histogram=dict(histogram),
    )


def emit_report(report: AggregateReport, fmt: str = "table", method: str = "") -> str:
    """Render the aggregate as a human table or a stable machine document."""
    if fmt == "machine":
        doc = {
            "method": method,
            "completion_pct": report.completion_pct,
            "strict_pct": report.strict_pct,
            "flexible_pct": report.flexible_pct,
            "mean_fix_attempts": report.mean_fix_attempts,
            "pass_at_k": {
                str(k): {"strict": v[0], "flexible": v[1]}
                for k, v in sorted(report.pass_at_k.items())
            },
            "failure_mode_histogram": dict(sorted(report.failure_mode_histogram.items())),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt != "table":
        raise UsageError(f"unknown report format {fmt!r}")

    lines = []
    header = "| run | completion % | strict % | flexible % | fix attempts |"
    lines.append(header)
    lines.append("|" + "---|" * 5)
    for i in range(len(report.completion_pct)):
        lines.append(
            f"| {i + 1} | {report.completion_pct[i]:.1f} | {report.strict_pct[i]:.1f} "
            f"| {report.flexible_pct[i]:.1f} | {report.mean_fix_attempts[i]:.1f} |"
        )
    if report.pass_at_k:
        lines.append("")
        lines.append("| k | pass@k strict % | pass@k flexible % |")
        lines.append("|" + "---|" * 3)
        for k in sorted(report.pass_at_k):
            s, f = report.pass_at_k[k]
            lines.append(f"| {k} | {s:.1f} | {f:.1f} |")
    if report.failure_mode_histogram:
        lines.append("")
        lines.append("| failure mode | count |")
        lines.append("|" + "---|" * 2)
        for mode, count in sorted(report.failure_mode_histogram.items()):
            lines.append(f"| {mode} | {count} |")
    return "\n".join(lines)
