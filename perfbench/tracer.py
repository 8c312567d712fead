"""Spans and counters recorded around the harness's layers, from outside the
package: each public function is wrapped at the module attribute where the
pipeline looks it up, and the original is put back afterwards.

Two levels:

* the session clock (always on): wraps only ``bench.prepare_workspace`` and
  ``ResultStore.append``, so per-session wall time (from workspace
  preparation to the store append) is known in untraced runs as well;
* the full trace: a span around every layer call listed in ``install``, plus
  counters taken at the same boundaries. Spans record name, start, end,
  parent and session; they are kept in memory.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

MIB = float(1 << 20)

# replies to a format reminder are re-asks; both reminders start this way
_REMINDER_PREFIX = "Your previous reply did not follow the required format"
_TRUNCATED_PREFIX = "[... output truncated,"

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("workspace.prepare_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("workspace.snapshot_s", "s/session", "lower", "session_s.p50 on agent-bigtree; no change on rules-corpus"),
    ("workspace.snapshot_calls", "count/session", "lower", "session_s.p50 on agent-bigtree; no change on rules-corpus"),
    ("workspace.snapshot_read_mb", "MiB/session", "lower", "session_s.p50 on agent-bigtree; no change on rules-corpus"),
    ("workspace.changed_ratio", "ratio", "lower", "session_s.p50 on agent-bigtree (share of files an incremental snapshot must re-hash)"),
    ("workspace.inventory_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("validation.discover_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("validation.files_classified", "count/session", "lower", "session_s.p50 on agent-bigtree"),
    ("validation.read_mb", "MiB/session", "lower", "session_s.p50 on agent-bigtree"),
    ("bench.probe_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("bench.probe_calls", "count/session", "lower", "session_s.p50 on agent-bigtree"),
    ("bench.probe_hit_ratio", "ratio", "higher", "session_s.p50 on agent-bigtree"),
    ("bench.store_scan_s", "s/invocation", "lower", "resume_s and peak_rss_mb on store-resume"),
    ("bench.store_load_s", "s/invocation", "lower", "resume_s and peak_rss_mb on store-resume"),
    ("bench.store_read_mb", "MiB/invocation", "lower", "resume_s and peak_rss_mb on store-resume"),
    ("bench.report_s", "s/invocation", "lower", "resume_s on store-resume"),
    ("bench.store_append_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("bench.session_self_s", "s/session", "lower", "session_s.p50 on agent-bigtree and rules-corpus"),
    ("bench.harness_share", "ratio", "lower", "session_s.p50 on agent-bigtree and rules-corpus"),
    ("sandbox.create_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.destroy_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.exec_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.exec_calls", "count/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.command_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.exec_overhead_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("sandbox.output_truncated", "count/session", "lower", "sessions_per_s on rules-corpus"),
    ("gateway.complete_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("gateway.calls", "count/session", "lower", "session_s.p50 on agent-bigtree"),
    ("gateway.prompt_chars", "chars/session", "lower", "session_s.p50 on agent-bigtree (stands in for billed input tokens)"),
    ("gateway.reply_chars", "chars/session", "lower", "session_s.p50 on agent-bigtree (stands in for billed output tokens)"),
    ("gateway.reask_ratio", "ratio", "lower", "session_s.p50 on agent-bigtree"),
    ("agent.prompt_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("agent.parse_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("agent.turns", "count/session", "lower", "session_s.p50 on agent-bigtree"),
    ("retrieval.run_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("retrieval.fetch_s", "s/session", "lower", "session_s.p50 on agent-bigtree"),
    ("retrieval.fetch_calls", "count/session", "lower", "session_s.p50 on agent-bigtree"),
    ("retrieval.fetch_ok_ratio", "ratio", "higher", "session_s.p50 on agent-bigtree"),
    ("retrieval.fetch_read_mb", "MiB/session", "lower", "session_s.p50 and peak_rss_mb on agent-bigtree"),
    ("rules.build_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("rules.self_s", "s/session", "lower", "sessions_per_s on rules-corpus"),
    ("rules.routines_tried", "count/session", "lower", "sessions_per_s on rules-corpus"),
    ("rules.routine_success_ratio", "ratio", "higher", "sessions_per_s on rules-corpus"),
    ("trace.span_coverage", "ratio", "higher", "none: share of session wall time that layer spans cover"),
    ("trace.overhead", "ratio", "lower", "none: traced over untraced session_s.p50, minus one"),
]

READ_COUNTERS = ("workspace.snapshot_read_mb", "validation.read_mb",
                 "bench.store_read_mb", "retrieval.fetch_read_mb")

NOT_MEASURED = {
    "targets": "not on the bench path (predict-targets is its own command)",
    "corpus": "not on the bench path (only load_manifest, called once before timing)",
    "validation.scan_source_functions": "not reachable from the CLI or the bench yet",
    "sandbox container backend": "no reachable Docker daemon is assumed; the local backend is measured",
    "gateway live backend": "no network; the scripted backend has zero model latency",
}


def read_rchar() -> Optional[int]:
    """Bytes this process has read through read-like calls (process-local)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class Tracer:
    def __init__(self):
        self.reads_available = read_rchar() is not None
        # span: [name, start_ns, end_ns, parent index, session index]
        self.spans: List[list] = []
        self.sessions: List[list] = []  # [start_ns, end_ns, traced]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._session: Optional[int] = None
        self._last_entries: Optional[dict] = None
        self._patches: List[tuple] = []
        self._detailed = False

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[4] = self._session
        self._stack.pop()

    def _start_session(self) -> None:
        self._session = len(self.sessions)
        self.sessions.append([time.perf_counter_ns(), 0, self._detailed])
        self._last_entries = None

    def _end_session(self) -> None:
        if self._session is not None:
            self.sessions[self._session][1] = time.perf_counter_ns()
        self._session = None

    # -- patching ---------------------------------------------------------

    def _traced(self, fn, span=None, reads=None, after=None,
                starts_session=False, ends_session=False):
        tracer = self
        if not self.reads_available:
            reads = None

        def wrapper(*args, **kwargs):
            if starts_session:
                tracer._start_session()
            before = read_rchar() if reads else None
            idx = tracer._open(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._close(idx)
                if before is not None:
                    tracer.counts[reads] += (read_rchar() or before) - before
                if ends_session:
                    tracer._end_session()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, span=None, **hooks) -> None:
        self._patch(owner, attr, self._traced(getattr(owner, attr), span, **hooks))

    def install(self, detailed: bool) -> None:
        """Patch the pipeline; ``detailed`` adds every layer span to the
        session clock."""
        from repobuild import agent, bench, retrieval, rules, validation

        self._detailed = detailed
        w = self._wrap
        w(bench, "prepare_workspace", "workspace.prepare" if detailed else None,
          starts_session=True)
        w(bench.ResultStore, "append", "bench.store_append" if detailed else None,
          ends_session=True)
        if not detailed:
            return
        w(bench, "run_one_repo", "bench.run_one_repo")
        w(bench, "snapshot_files", "workspace.snapshot", reads="snapshot.read",
          after=self._after_snapshot)
        w(bench, "discover_new_binaries", "validation.discover", reads="validation.read")
        # the probe is a closure the factory returns; trace the closure
        factory = bench.make_completion_probe
        self._patch(bench, "make_completion_probe", lambda *a, **k: self._traced(
            factory(*a, **k), "bench.probe", after=self._after_probe))
        w(bench, "run_retrieval", "retrieval.run")
        w(bench, "build_with_rules", "rules.build")
        w(bench, "run_build_loop", "agent.loop")
        w(bench, "load_results", "bench.store_load", reads="store.read")
        w(bench, "aggregate", "bench.report")
        w(bench, "emit_report", "bench.report")
        w(bench.ResultStore, "existing_keys", "bench.store_scan", reads="store.read")
        for owner in (bench, retrieval):
            w(owner, "read_readme", "workspace.inventory")
            w(owner, "list_root_entries", "workspace.inventory")
        w(rules, "detect_build_systems", "workspace.inventory")
        w(validation, "classify_file", after=self._after_classify)
        for owner in (agent, rules):
            w(owner, "create_sandbox", "sandbox.create")
            w(owner, "destroy_sandbox", "sandbox.destroy")
        w(agent, "exec_script", "sandbox.exec", after=self._after_exec)
        w(rules, "exec_script", "sandbox.exec", after=self._after_routine)
        w(agent, "assemble_generator_prompt", "agent.prompt", after=self._after_prompt)
        w(agent, "parse_agent_reply", "agent.parse")
        for owner in (agent, retrieval):
            w(owner, "complete", "gateway.complete", after=self._after_complete)
        w(retrieval, "fetch_link", "retrieval.fetch", reads="fetch.read", after=self._after_fetch)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._detailed = False

    # -- counters taken at the boundaries ---------------------------------

    def _after_snapshot(self, args, snapshot) -> None:
        entries = snapshot.entries
        if self._last_entries is not None:
            prev = self._last_entries
            changed = sum(1 for rel, val in entries.items() if prev.get(rel) != val)
            self.counts["snapshot.files"] += len(entries)
            self.counts["snapshot.changed"] += changed
        self._last_entries = entries

    def _after_probe(self, args, hit) -> None:
        self.counts["probe.calls"] += 1
        self.counts["probe.hits"] += int(bool(hit))

    def _after_classify(self, args, result) -> None:
        self.counts["validation.classified"] += 1

    def _after_exec(self, args, result) -> None:
        self.counts["exec.command_ns"] += int(sum(pc[2] for pc in result.per_command) * 1e9)
        if result.combined_output.startswith(_TRUNCATED_PREFIX):
            self.counts["exec.truncated"] += 1

    def _after_routine(self, args, result) -> None:
        self._after_exec(args, result)
        self.counts["rules.routines"] += 1
        self.counts["rules.routines_ok"] += int(result.overall_exit == 0)

    def _after_prompt(self, args, messages) -> None:
        self.counts["agent.turns"] += 1

    def _after_complete(self, args, reply) -> None:
        messages = args[1]
        self.counts["gateway.calls"] += 1
        self.counts["gateway.prompt_chars"] += sum(len(m.content) for m in messages)
        self.counts["gateway.reply_chars"] += len(reply)
        self.counts["gateway.reasks"] += int(messages[-1].content.startswith(_REMINDER_PREFIX))

    def _after_fetch(self, args, outcome) -> None:
        self.counts["fetch.calls"] += 1
        self.counts["fetch.ok"] += int(outcome.ok)


# -- aggregation ----------------------------------------------------------


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, invocations: int, overhead: float) -> Dict[str, float]:
    """Per-layer metrics over the traced invocations, normalised per session
    or per invocation as their unit says."""
    spans = tracer.spans
    traced_sessions = [i for i, s in enumerate(tracer.sessions) if s[2] and s[1]]
    n_sessions = max(1, len(traced_sessions))
    n_inv = max(1, invocations)

    total_ns: Dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    children = defaultdict(list)
    for idx, (name, start, end, parent, _sess) in enumerate(spans):
        total_ns[name] += end - start
        calls[name] += 1
        if parent is not None:
            children[parent].append((start, end))

    def self_ns(span_name: str) -> int:
        out = 0
        for idx, span in enumerate(spans):
            if span[0] == span_name:
                out += (span[2] - span[1]) - _union_ns(children[idx])
        return out

    # coverage and harness share over the traced sessions' wall time
    wall_ns = covered_ns = 0
    by_session = defaultdict(list)
    complete_in_sessions = 0
    for name, start, end, _parent, sess in spans:
        if sess is None:
            continue
        if name == "gateway.complete":
            complete_in_sessions += end - start
        if name != "bench.run_one_repo":
            by_session[sess].append((start, end))
    for sess in traced_sessions:
        s_start, s_end, _ = tracer.sessions[sess]
        wall_ns += s_end - s_start
        clipped = [(max(a, s_start), min(b, s_end)) for a, b in by_session[sess]]
        covered_ns += _union_ns([(a, b) for a, b in clipped if b > a])

    c = tracer.counts
    command_ns = c["exec.command_ns"]
    per_s = lambda name: total_ns[name] / 1e9 / n_sessions  # noqa: E731
    per_n = lambda count: count / n_sessions  # noqa: E731
    out = {
        "workspace.prepare_s": per_s("workspace.prepare"),
        "workspace.snapshot_s": per_s("workspace.snapshot"),
        "workspace.snapshot_calls": per_n(calls["workspace.snapshot"]),
        "workspace.snapshot_read_mb": c["snapshot.read"] / MIB / n_sessions,
        "workspace.changed_ratio": _ratio(c["snapshot.changed"], c["snapshot.files"]),
        "workspace.inventory_s": per_s("workspace.inventory"),
        "validation.discover_s": per_s("validation.discover"),
        "validation.files_classified": per_n(c["validation.classified"]),
        "validation.read_mb": c["validation.read"] / MIB / n_sessions,
        "bench.probe_s": per_s("bench.probe"),
        "bench.probe_calls": per_n(c["probe.calls"]),
        "bench.probe_hit_ratio": _ratio(c["probe.hits"], c["probe.calls"]),
        "bench.store_scan_s": total_ns["bench.store_scan"] / 1e9 / n_inv,
        "bench.store_load_s": total_ns["bench.store_load"] / 1e9 / n_inv,
        "bench.store_read_mb": c["store.read"] / MIB / n_inv,
        "bench.report_s": total_ns["bench.report"] / 1e9 / n_inv,
        "bench.store_append_s": per_s("bench.store_append"),
        "bench.session_self_s": self_ns("bench.run_one_repo") / 1e9 / n_sessions,
        "bench.harness_share": _ratio(wall_ns - command_ns - complete_in_sessions, wall_ns),
        "sandbox.create_s": per_s("sandbox.create"),
        "sandbox.destroy_s": per_s("sandbox.destroy"),
        "sandbox.exec_s": per_s("sandbox.exec"),
        "sandbox.exec_calls": per_n(calls["sandbox.exec"]),
        "sandbox.command_s": command_ns / 1e9 / n_sessions,
        "sandbox.exec_overhead_s": (total_ns["sandbox.exec"] - command_ns) / 1e9 / n_sessions,
        "sandbox.output_truncated": per_n(c["exec.truncated"]),
        "gateway.complete_s": per_s("gateway.complete"),
        "gateway.calls": per_n(c["gateway.calls"]),
        "gateway.prompt_chars": per_n(c["gateway.prompt_chars"]),
        "gateway.reply_chars": per_n(c["gateway.reply_chars"]),
        "gateway.reask_ratio": _ratio(c["gateway.reasks"], c["gateway.calls"]),
        "agent.prompt_s": per_s("agent.prompt"),
        "agent.parse_s": per_s("agent.parse"),
        "agent.turns": per_n(c["agent.turns"]),
        "retrieval.run_s": per_s("retrieval.run"),
        "retrieval.fetch_s": per_s("retrieval.fetch"),
        "retrieval.fetch_calls": per_n(c["fetch.calls"]),
        "retrieval.fetch_ok_ratio": _ratio(c["fetch.ok"], c["fetch.calls"]),
        "retrieval.fetch_read_mb": c["fetch.read"] / MIB / n_sessions,
        "rules.build_s": per_s("rules.build"),
        "rules.self_s": self_ns("rules.build") / 1e9 / n_sessions,
        "rules.routines_tried": per_n(c["rules.routines"]),
        "rules.routine_success_ratio": _ratio(c["rules.routines_ok"], c["rules.routines"]),
        "trace.span_coverage": _ratio(covered_ns, wall_ns),
        "trace.overhead": overhead,
    }
    if not tracer.reads_available:
        for name in READ_COUNTERS:
            out.pop(name)
    return out


def spans_as_records(tracer: Tracer) -> List[dict]:
    """Spans in a form fit for one JSON object per line."""
    return [
        {"id": idx, "name": name, "start_ns": start, "end_ns": end,
         "parent": parent, "session": sess}
        for idx, (name, start, end, parent, sess) in enumerate(tracer.spans)
    ]
