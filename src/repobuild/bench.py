"""Benchmark harness: run a build method across a manifest, persist every
session and verdict to an append-only store, and aggregate the metrics."""

from __future__ import annotations

import fcntl
import json
import logging
import os
import re
import shutil
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import assets
from .agent import (
    DEFAULT_MAX_TURNS,
    VARIANTS,
    BuildSession,
    PromptContext,
    run_build_loop,
    run_single_turn,
)
from .corpus import CorpusManifest, RepoRecord
from .errors import BOOL, INT, OBJECT, OBJECT_LIST, OBJECT_OR_NULL, STR, STR_LIST, STR_OR_NULL
from .errors import UsageError, check
from .gateway import LlmConfig
from .retrieval import InstructionDossier, run_retrieval
from .rules import build_with_rules
from .sandbox import SandboxSpec, base_image_description
from .validation import BinaryArtifact, Verdict, discover_new_binaries, judge
from .workspace import (
    FileSnapshot,
    Workspace,
    list_root_entries,
    prepare_workspace,
    read_readme,
    snapshot_files,
)

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
    max_turns: int = DEFAULT_MAX_TURNS
    runs: int = 1
    parallelism: int = 1

    def __post_init__(self):
        if self.method not in VARIANTS:
            raise UsageError(f"unknown method {self.method!r}")
        if self.runs < 1 or self.parallelism < 1 or self.max_turns < 1:
            raise UsageError("runs, parallelism, and max_turns must be >= 1")


@dataclass(slots=True)
class RepoOutcome:
    # the session summary and the retrieval dossier as stored; a resume
    # leaves both out (None) of the records that were in the store before it,
    # and their verdicts' lists, so they keep only what the report reads
    session: Optional[dict]
    verdict: Verdict
    fix_attempts: int
    failure_mode: Optional[str] = None
    dossier: Optional[dict] = None


@dataclass
class RunResult:
    run_index: int
    per_repo: Dict[str, RepoOutcome] = field(default_factory=dict)


# -- persistence --------------------------------------------------------------

# where a session's transcript opens and ends in a line ResultStore.append wrote
_TURNS_OPEN = b'"turns": ['
_TURNS_CLOSE = b'], "variant": '


def _read_store(
    path: Path, start: int = 0, resumed: bool = False
) -> Tuple[Dict[int, RunResult], int]:
    """The store's records from byte offset ``start``, each decoded into its
    run's result as its line is parsed, so no list of them is ever held.
    Records come in store order, so a later record for a (run, repo)
    replaces an earlier one.

    Returns the results and the offset just past the last newline-terminated
    line. An unterminated tail is decoded if it parses but lies beyond that
    offset, so a later read from it sees the tail again once complete. A
    store now shorter than ``start`` is read again from 0. A torn line is
    skipped and logged. A line that parses is decoded whatever it holds;
    one that is not a record raises ``UsageError("STORE:LINE: not a stored
    record: reason")``.

    ``resumed`` is a resume's opening pass, whose outcomes hold only what
    the report and the resume read: the verdict's three flags, the failure
    tag and ``fix_attempts``. Once checked, the session, the dossier and the
    verdict's ``matched_names`` and ``new_binaries`` are None.
    A torn unterminated tail is left unlogged, for the read from the
    returned offset that follows. The transcript is never decoded: it is
    cut out of the line's bytes, from the first ``"turns": [`` to the last
    ``], "variant": `` after it, found by searching back from the end of
    the line, and the rest is parsed. Only the session's ``variant`` and the fixed-schema verdict
    follow the transcript, so the backward search crosses those few hundred
    bytes, not the transcript. This is exact because every line is a whole
    record from ``ResultStore.append`` (sorted keys, default separators) or
    a prefix of one that a crash left. Neither marker can occur inside a
    JSON string, and in a whole record the session's close is the only
    ``], "variant": `` after ``"turns": [``: no turn has a ``variant`` key,
    and the verdict's lists (``matched_names``, ``new_binaries``) are
    followed by other keys. A prefix keeps its torn end under the cut, so
    it still fails to parse. A line missing either marker, such as one with
    compact separators or no ``turns``, is parsed whole.

    The file is read through a 256 KiB buffer.
    """
    by_run: Dict[int, RunResult] = {}
    try:
        fh = open(path, "rb", buffering=1 << 18)
    except FileNotFoundError:
        return by_run, 0
    with fh:
        if os.fstat(fh.fileno()).st_size < start:
            start = 0
        fh.seek(start)
        offset = end = start
        for line in fh:
            at = offset
            offset += len(line)
            if line.endswith(b"\n"):
                end = offset
            if line.isspace():
                continue
            if resumed:
                i = line.find(_TURNS_OPEN)
                j = line.rfind(_TURNS_CLOSE, i) if i >= 0 else -1
                if j >= 0:
                    line = line[:i + len(_TURNS_OPEN)] + line[j:]
            # a crash mid-append leaves a torn record, possibly cut inside a
            # UTF-8 sequence; treat it as never written
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                if not resumed or line.endswith(b"\n"):
                    logger.warning("skipping torn record in %s", path)
                continue
            try:
                run, repo, outcome = decode_record(record)
            except UsageError as exc:
                raise UsageError(
                    f"{path}:{_line_number(fh, at)}: not a stored record: {exc}"
                ) from None
            if resumed:
                v = outcome.verdict
                outcome.session = outcome.dossier = None
                outcome.verdict = _flags_only(v.completion, v.strict, v.flexible)
            result = by_run.get(run)
            if result is None:
                result = by_run[run] = RunResult(run_index=run)
            result.per_repo[repo] = outcome
    return by_run, end


@cache
def _flags_only(completion: bool, strict: bool, flexible: bool) -> Verdict:
    """The verdict a resumed record keeps, shared by every record with its flags."""
    return Verdict(completion, strict, flexible, None, None)


def _line_number(fh, offset: int) -> int:
    """The 1-based number of the line that starts at byte ``offset``."""
    fh.seek(0)
    number = 1
    while offset > 0:
        chunk = fh.read(min(offset, 1 << 18))
        if not chunk:
            break
        number += chunk.count(b"\n")
        offset -= len(chunk)
    return number


class ResultStore:
    """Append-only line store, one self-describing record per (run, repo)."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def existing_keys(self) -> set:
        """The (run, repo) keys a resume finds done."""
        by_run, _end = _read_store(self.path, resumed=True)
        return {(run, repo) for run, result in by_run.items() for repo in result.per_repo}

    def append(self, record: dict) -> None:
        """Append one record; safe across threads and processes, since each
        call takes an exclusive ``flock`` on its own descriptor.

        A lone surrogate, which a reply parsed from JSON or a file name that
        is not UTF-8 can hold, has no UTF-8 encoding; it is written as its
        JSON escape (``\\udXXX``), which parses back to the same string. (A
        high surrogate right before a low one reads back as the character
        the pair encodes.)"""
        line = json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
        data = line.encode("utf-8", "backslashreplace")
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


def store_record(
    run_idx: int,
    repo_id: str,
    session: BuildSession,
    verdict: Verdict,
    dossier: Optional[InstructionDossier],
) -> dict:
    """A finished session as the store records it and `repobuild build
    --json` prints it. This is the one place a record is written, as
    ``decode_record`` is the one place it is read back."""
    summary = {
        "repo_id": session.repo_id,
        "variant": session.variant,
        "max_turns": session.max_turns,
        "outcome": session.outcome,
        "fix_attempts": session.fix_attempts,
        "error_detail": session.error_detail,
        "turns": [
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
            for t in session.turns
        ],
    }
    dossier_dict = dossier_to_dict(dossier)
    return {
        "run": run_idx,
        "repo": repo_id,
        "session": summary,
        "verdict": {
            "completion": verdict.completion,
            "strict": verdict.strict,
            "flexible": verdict.flexible,
            "matched_names": sorted(verdict.matched_names),
            "new_binaries": [asdict(a) for a in verdict.new_binaries],
        },
        "failure_mode": tag_failure_mode(summary, dossier_dict),
        "dossier": dossier_dict,
    }


def dossier_to_dict(dossier: Optional[InstructionDossier]) -> Optional[dict]:
    """The dossier as the store records it and `repobuild retrieve --json` prints it."""
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


# the failure tags mapped to the package's own strings
_FAILURE_MODES = dict(zip(FAILURE_MODES, FAILURE_MODES))


_RECORD_FIELDS = {"run": INT, "repo": STR, "session": OBJECT, "failure_mode": STR_OR_NULL,
                  "dossier": OBJECT_OR_NULL, "verdict": OBJECT}
_SESSION_FIELDS = {"fix_attempts": INT}
_VERDICT_FIELDS = {"completion": BOOL, "strict": BOOL, "flexible": BOOL,
                   "matched_names": STR_LIST, "new_binaries": OBJECT_LIST}
_ARTIFACT_FIELDS = {"rel_path": STR, "file_name": STR, "has_debug_info": BOOL}


def decode_record(rec) -> Tuple[int, str, RepoOutcome]:
    """A parsed store line as (run, repo, outcome), or a ``UsageError`` that
    says why it is not a stored record. The outcome holds the session and
    the dossier as parsed, and the session's ``fix_attempts`` (0 when the
    key is missing). The failure tag and each binary's class are the
    package's own strings; every other value is the parsed one."""
    check("record", rec, _RECORD_FIELDS, required=("run", "repo", "session", "verdict"))
    session, v = rec["session"], rec["verdict"]
    check("session", session, _SESSION_FIELDS)
    check("verdict", v, _VERDICT_FIELDS, required=_VERDICT_FIELDS)
    if len(v) != 5:
        # the five keys checked above are there, so the rest are unknown
        raise UsageError(f"verdict has unknown keys {sorted(v.keys() - _VERDICT_FIELDS)}")
    for a in v["new_binaries"]:
        check("new_binaries entry", a, _ARTIFACT_FIELDS)
    try:
        artifacts = tuple(BinaryArtifact(**a) for a in v["new_binaries"])
    except TypeError as exc:
        raise UsageError(str(exc)) from None
    verdict = Verdict(v["completion"], v["strict"], v["flexible"],
                      frozenset(v["matched_names"]), artifacts)
    failure = rec.get("failure_mode")
    failure = _FAILURE_MODES.get(failure, failure)
    return rec["run"], rec["repo"], RepoOutcome(
        session, verdict, session.get("fix_attempts", 0), failure, rec.get("dossier"))


def load_results(store_path: Path) -> List[RunResult]:
    """Rebuild RunResults from the persisted store; the store is the source of
    truth, so recomputing metrics from it reproduces the original report."""
    by_run, _end = _read_store(Path(store_path))
    return [by_run[k] for k in sorted(by_run)]


# -- failure tagging ----------------------------------------------------------


@cache
def load_failure_signatures() -> Tuple[re.Pattern, ...]:
    return tuple(re.compile(p) for p in json.loads(assets.text("failure_signatures.json")))


def tag_failure_mode(session: dict, dossier: Optional[dict] = None) -> Optional[str]:
    """First matching rule wins; succeeded sessions carry no tag."""
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
        for pattern in load_failure_signatures():
            if pattern.search(final["output"]):
                return "dependency-error"
    return "unresolved-after-max-attempts"


# -- orchestration ------------------------------------------------------------


def make_completion_probe(before_snapshot):
    """Loop success predicate: did any non-intermediate binary appear?

    Each call reads the header of every file whose stat changed since
    ``before_snapshot`` and hashes only binaries the baseline had hashed.
    """

    def probe(workspace: Workspace) -> bool:
        artifacts = discover_new_binaries(before_snapshot, workspace)
        return any(a.classify != "object-file" for a in artifacts)

    return probe


def repo_context(ws: Workspace) -> PromptContext:
    """What the session's prompts say about its repository: the README, the
    root listing and the sandbox image, each with its fallback text. Built
    once per session; retrieval and the build prompts share it."""
    readme = read_readme(ws)
    listing = "\n".join(f"{name} ({kind})" for name, kind in list_root_entries(ws))
    return PromptContext(
        repo_full_name=ws.repo_id,
        repo_root_in_sandbox=ws.mount_path,
        readme=readme[0] if readme else "(repository has no README)",
        root_listing=listing or "(empty)",
        preinstalled=base_image_description(),
    )


def _prepare_session(record: RepoRecord, session_dir: Path) -> Tuple[Workspace, FileSnapshot]:
    """The session's workspace and its pre-build baseline snapshot."""
    ws = prepare_workspace(record, session_dir)
    return ws, snapshot_files(ws)


def run_one_repo(
    record: RepoRecord,
    cfg: RunConfig,
    session_dir: Path,
    prepared: Optional[Future] = None,
    run_idx: int = 0,
) -> dict:
    """Workspace, optional retrieval, one method session and its verdict,
    returned as the store record of run ``run_idx``.

    ``prepared`` is a future of the workspace and baseline that the benchmark
    loop prepared ahead in ``session_dir``; without it they are prepared here.
    A failure to prepare them ends the session as an infra error either way,
    but for a usage error such as a session dir that is not empty.
    """
    dossier = None
    try:
        if prepared is None:
            ws, before = _prepare_session(record, session_dir)
        else:
            ws, before = prepared.result()
        probe = make_completion_probe(before)

        if cfg.method == "rule-based":
            session = build_with_rules(ws, cfg.sandbox, probe)
        elif cfg.method == "single-turn":
            session = run_single_turn(ws, repo_context(ws), cfg.llm, cfg.sandbox, probe)
        else:
            ctx = repo_context(ws)
            if cfg.method == "agent-with-retrieval":
                dossier = run_retrieval(ws, cfg.llm, ctx)
                ctx = replace(ctx, instructions=dossier.instructions)
            session = run_build_loop(
                ws, ctx, cfg.llm, cfg.sandbox, probe,
                max_turns=cfg.max_turns, variant=cfg.method,
            )
        verdict = judge(discover_new_binaries(before, ws), record.expected_binaries)
    except UsageError:
        raise
    except Exception as exc:
        logger.warning("repo %s failed before a session could finish: %s", record.id, exc)
        session = BuildSession(repo_id=record.id, variant=cfg.method, max_turns=cfg.max_turns)
        session.end_on_error(exc)
        verdict = judge([], record.expected_binaries)
    return store_record(run_idx, record.id, session, verdict, dossier)


def _materialize(record: RepoRecord, session_dir: Path) -> Tuple[Workspace, FileSnapshot]:
    """Clear ``session_dir`` of leftovers, then prepare the session there."""
    # absent from the store means any leftovers are from a crashed attempt
    if session_dir.exists():
        shutil.rmtree(session_dir)
    return _prepare_session(record, session_dir)


def run_benchmark(
    cfg: RunConfig,
    store_path: Path,
    work_dir: Path,
) -> List[RunResult]:
    """Execute `runs` repetitions over the manifest, resuming past work found
    in the store. Returns what ``load_results`` would rebuild from the store
    at the end, records other writers appended included, so a recomputation
    sees exactly what was persisted; only the records already in the store
    when the call began come back as their verdicts' three flags, failure
    tags and ``fix_attempts``, with no session, no retrieval dossier and no
    verdict lists, which the report does not read. That keeps a resume's
    memory to the record count, not the sessions, and all three stay in the
    store for ``load_results``.

    Sessions start in manifest order, run by run, on ``parallelism``
    threads. When one starts, the workspace of the job ``parallelism`` places
    further on is prepared in the background, so copies and clones overlap
    the sessions before them.
    """
    store = ResultStore(store_path)
    # one pass over the store gives both the results so far and what is done
    by_run, end = _read_store(store.path, resumed=True)
    done = {(result.run_index, repo) for result in by_run.values() for repo in result.per_repo}
    work_dir = Path(work_dir)
    jobs = [
        (run_idx, record, work_dir / f"run{run_idx}" / record.id)
        for run_idx in range(cfg.runs)
        for record in cfg.manifest.records
        if (run_idx, record.id) not in done
    ]
    width = cfg.parallelism

    def run_job(run_idx: int, record: RepoRecord, session_dir: Path, prepared: Future) -> None:
        store.append(run_one_repo(record, cfg, session_dir, prepared, run_idx))

    # leaving the block waits for the running sessions first, and they may
    # still wait on a workspace being prepared
    with ThreadPoolExecutor(width) as preparer, ThreadPoolExecutor(width) as sessions:
        ahead = deque(preparer.submit(_materialize, *job[1:]) for job in jobs[:width])
        running = set()
        try:
            for i, job in enumerate(jobs):
                if len(running) == width:
                    finished, running = wait(running, return_when=FIRST_COMPLETED)
                    for future in finished:
                        future.result()
                prepared = ahead.popleft()
                if i + width < len(jobs):
                    ahead.append(preparer.submit(_materialize, *jobs[i + width][1:]))
                running.add(sessions.submit(run_job, *job, prepared))
            for future in running:
                future.result()
        finally:
            # after an error no further session starts; a workspace already
            # prepared for one is a leftover the next resume removes
            for future in ahead:
                future.cancel()

    # parse only what was appended since, by this run or by another writer,
    # turns included
    appended, new_end = _read_store(store.path, end)
    if new_end < end:
        # the store shrank, so it was read again whole
        by_run = {}
    for run_idx, result in appended.items():
        by_run.setdefault(run_idx, RunResult(run_index=run_idx)).per_repo.update(result.per_repo)
    return [by_run[k] for k in sorted(by_run)]


# -- metrics ------------------------------------------------------------------


def aggregate(results: List[RunResult]) -> dict:
    """The report over ``results``, taken in run order, as the document
    ``repobuild bench --json`` prints less its ``method``:

    - ``completion_pct``, ``strict_pct`` and ``flexible_pct``: one rate per
      run, over the repo count of the largest run, and no rows at all when
      every run is empty;
    - ``mean_fix_attempts``: one mean per run alongside, 0.0 for an empty run;
    - ``pass_at_k``: for each k from ``"1"`` to the run count, the strict and
      flexible shares of every repo seen that met the criterion in one of
      the first k runs (0.0 when no repo was seen);
    - ``failure_mode_histogram``: the count of every outcome's failure tag.
    """
    ordered = sorted(results, key=lambda r: r.run_index)
    n = max((len(r.per_repo) for r in ordered), default=0)
    report = {name: [] for name in
              ("completion_pct", "strict_pct", "flexible_pct", "mean_fix_attempts")}
    histogram = Counter()
    # the repos seen, and those that met each criterion, in the runs so far
    repos, strict_hits, flexible_hits = set(), set(), set()
    hits = []
    for result in ordered:
        outcomes = result.per_repo.values()
        repos.update(result.per_repo)
        strict_hits.update(repo for repo, o in result.per_repo.items() if o.verdict.strict)
        flexible_hits.update(repo for repo, o in result.per_repo.items() if o.verdict.flexible)
        hits.append((len(strict_hits), len(flexible_hits)))
        histogram.update(o.failure_mode for o in outcomes if o.failure_mode)
        if n:
            for name in ("completion", "strict", "flexible"):
                met = sum(getattr(o.verdict, name) for o in outcomes)
                report[f"{name}_pct"].append(100.0 * met / n)
            report["mean_fix_attempts"].append(
                sum(o.fix_attempts for o in outcomes) / len(outcomes) if outcomes else 0.0
            )
    seen = len(repos) or 1  # with no repo seen every hit count is 0
    report["pass_at_k"] = {
        str(k): {"strict": 100.0 * s / seen, "flexible": 100.0 * f / seen}
        for k, (s, f) in enumerate(hits, 1)
    }
    report["failure_mode_histogram"] = dict(histogram)
    return report


def emit_report(report: dict, fmt: str = "table", method: str = "") -> str:
    """Render ``aggregate``'s report: ``machine`` is that document with
    ``method`` added, as JSON with sorted keys; ``table`` is a human table,
    its pass@k rows in numeric k order."""
    if fmt == "machine":
        return json.dumps({**report, "method": method}, indent=2, sort_keys=True)
    if fmt != "table":
        raise UsageError(f"unknown report format {fmt!r}")

    lines = ["| run | completion % | strict % | flexible % | fix attempts |", "|" + "---|" * 5]
    rows = zip(report["completion_pct"], report["strict_pct"], report["flexible_pct"],
               report["mean_fix_attempts"])
    for i, row in enumerate(rows, 1):
        lines.append(f"| {i} | " + " | ".join(f"{v:.1f}" for v in row) + " |")
    if report["pass_at_k"]:
        lines += ["", "| k | pass@k strict % | pass@k flexible % |", "|" + "---|" * 3]
        for k, v in sorted(report["pass_at_k"].items(), key=lambda item: int(item[0])):
            lines.append(f"| {k} | {v['strict']:.1f} | {v['flexible']:.1f} |")
    if report["failure_mode_histogram"]:
        lines += ["", "| failure mode | count |", "|" + "---|" * 2]
        for mode, count in sorted(report["failure_mode_histogram"].items()):
            lines.append(f"| {mode} | {count} |")
    return "\n".join(lines)
