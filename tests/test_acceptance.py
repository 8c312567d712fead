"""End-to-end acceptance checks.

Each test freezes an expected behavior of the released package: sample-size
arithmetic, verdict invariants, agent-loop mechanics, retrieval budgets, the
rule-based builder, coverage measurement, target prediction, and benchmark
durability. Derived numbers are computed by an independent route inside the
test before the package is asked for them.
"""

import json
import math
import random
import re
import shutil
import subprocess
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repobuild import retrieval
from repobuild.agent import PromptContext, parse_agent_reply, run_build_loop
from repobuild.bench import (
    ResultStore,
    RunConfig,
    aggregate,
    decode_record,
    emit_report,
    load_results,
    repo_context,
    run_benchmark,
    run_one_repo,
)
from repobuild.corpus import CorpusManifest, required_sample_size
from repobuild.gateway import ScriptedScenario
from repobuild.retrieval import FetchOutcome, run_retrieval
from repobuild.rules import build_with_rules
from repobuild.targets import MakefileDoc, clean_makefile, extract_targets_rule_based, predict_targets
from repobuild.validation import (
    CLASSES,
    BinaryArtifact,
    discover_new_binaries,
    function_coverage,
    judge,
)
from repobuild.workspace import snapshot_files

from conftest import (
    EXPECTED_BINARIES,
    fixture_record,
    generated_makefile,
    needs_cmake,
    needs_gdb,
    prepare_fixture,
    scripted_config,
    workspace_at,
)


# ---------------------------------------------------------------------------
# sample-size planning


class TestSampleSizePlanning:
    def test_reference_plan_matches_independent_arithmetic(self):
        z, e, p, population = 1.96, 0.05, 0.5, 6_568_809

        # oracle first: the closed-form values, computed right here
        n0_oracle = z * z * p * (1.0 - p) / (e * e)
        fpc_oracle = n0_oracle / (1.0 + (n0_oracle - 1.0) / population)
        required_oracle = math.ceil(fpc_oracle)
        assert abs(n0_oracle - 384.16) <= 0.01
        assert required_oracle == 385

        start = time.perf_counter()
        plan = required_sample_size(z, e, p, population)
        elapsed = time.perf_counter() - start

        assert elapsed < 1.0
        assert plan.n0 == pytest.approx(n0_oracle, abs=1e-12)
        assert abs(plan.n0 - 384.16) <= 0.01
        assert plan.n_fpc == pytest.approx(fpc_oracle, abs=1e-12)
        assert plan.required_n == 385


# ---------------------------------------------------------------------------
# multi-run aggregation over a persisted result set


def _stored_record(run: int, repo: str, strict: bool, flexible: bool) -> dict:
    outcome = "succeeded" if flexible else "turn-budget-exhausted"
    return {
        "run": run,
        "repo": repo,
        "session": {
            "repo_id": repo,
            "variant": "agent-with-retrieval",
            "max_turns": 12,
            "outcome": outcome,
            "fix_attempts": 0,
            "error_detail": None,
            "turns": [],
        },
        "verdict": {
            "completion": flexible,
            "strict": strict,
            "flexible": flexible,
            "matched_names": [],
            "new_binaries": [],
        },
        "failure_mode": None if flexible else "unresolved-after-max-attempts",
        "dossier": None,
    }


class TestRepeatedRunAggregation:
    N_REPOS = 148
    STRICT_COUNTS = (81, 88, 97)
    FLEXIBLE_COUNTS = (88, 95, 104)

    def test_pass_at_k_over_three_stored_runs(self, tmp_path):
        # oracle first: with nested per-run success prefixes the union over
        # the first k runs is just the largest prefix, so pass@k reduces to
        # count/N. Freeze those fractions against the advertised percentages.
        strict_oracle = [100 * Fraction(c, self.N_REPOS) for c in self.STRICT_COUNTS]
        flexible_oracle = [100 * Fraction(c, self.N_REPOS) for c in self.FLEXIBLE_COUNTS]
        for got, want in zip(strict_oracle, (54.7, 59.5, 65.5)):
            assert abs(float(got) - want) <= 0.05
        for got, want in zip(flexible_oracle, (59.5, 64.2, 70.3)):
            assert abs(float(got) - want) <= 0.05

        store = ResultStore(tmp_path / "results.jsonl")
        for run in range(3):
            for idx in range(self.N_REPOS):
                store.append(
                    _stored_record(
                        run,
                        f"corpus/repo{idx:03d}",
                        strict=idx < self.STRICT_COUNTS[run],
                        flexible=idx < self.FLEXIBLE_COUNTS[run],
                    )
                )

        results = load_results(store.path)
        assert [len(r.per_repo) for r in results] == [self.N_REPOS] * 3

        report = aggregate(results)
        pass_at = [report["pass_at_k"][str(k)] for k in (1, 2, 3)]
        for k in (1, 2, 3):
            assert pass_at[k - 1]["strict"] == pytest.approx(
                float(strict_oracle[k - 1]), abs=1e-9)
            assert pass_at[k - 1]["flexible"] == pytest.approx(
                float(flexible_oracle[k - 1]), abs=1e-9)
        assert [round(p["strict"], 1) for p in pass_at] == [54.7, 59.5, 65.5]
        assert [round(p["flexible"], 1) for p in pass_at] == [59.5, 64.2, 70.3]

        # the per-run rates must agree with the prefix construction too
        assert report["strict_pct"] == pytest.approx(
            [100.0 * c / self.N_REPOS for c in self.STRICT_COUNTS]
        )
        assert report["flexible_pct"] == pytest.approx(
            [100.0 * c / self.N_REPOS for c in self.FLEXIBLE_COUNTS]
        )


# ---------------------------------------------------------------------------
# verdict invariants under random inputs


def _random_artifact(rng: random.Random, names) -> BinaryArtifact:
    name = rng.choice(names)
    depth = rng.randint(0, 2)
    rel = "/".join(f"d{rng.randint(0, 3)}" for _ in range(depth))
    return BinaryArtifact(
        rel_path=f"{rel}/{name}" if rel else name,
        file_name=name,
        classify=rng.choice(CLASSES),
        has_debug_info=rng.random() < 0.5,
    )


class TestVerdictInvariants:
    CASES = 10_000

    def test_invariants_hold_on_random_cases(self):
        rng = random.Random(20260816)
        names = ["app", "tool", "libdemo.so", "runner", "a.out", "suite"]
        violations = []

        for case in range(self.CASES):
            artifacts = [
                _random_artifact(rng, names) for _ in range(rng.randint(0, 4))
            ]
            expected = rng.sample(names, rng.randint(0, 3))
            if expected and rng.random() < 0.3:
                expected[0] = "out/" + expected[0]

            v = judge(artifacts, expected)
            countable = [a for a in artifacts if a.classify != "object-file"]

            if v.strict and not v.flexible:
                violations.append((case, "strict without flexible"))
            if v.completion != bool(countable):
                violations.append((case, "completion disagrees with countable set"))
            if not expected and (v.strict or v.flexible):
                violations.append((case, "name match without expected names"))
            if v.flexible and not v.matched_names:
                violations.append((case, "flexible without a matched name"))

            # growing the artifact list may never revoke a verdict
            extra = _random_artifact(rng, names)
            v2 = judge(artifacts + [extra], expected)
            for field in ("completion", "strict", "flexible"):
                if getattr(v, field) and not getattr(v2, field):
                    violations.append((case, f"{field} lost when artifacts grew"))

            # names disjoint from expectations: built something, named nothing
            if countable:
                vd = judge(artifacts, ["zz-absent-a", "zz-absent-b"])
                if not (vd.completion and not vd.flexible and not vd.strict):
                    violations.append((case, "disjoint names broke the verdict split"))

        assert violations == []


# ---------------------------------------------------------------------------
# agent loop mechanics


FIX_HEADER = (
    "```bash\n"
    "cd /app/needs_header\n"
    "mkdir -p vendor\n"
    "cat > vendor/api.h <<'EOF'\n"
    "static inline int api_answer(void) { return 42; }\n"
    "EOF\n"
    "make\n"
    "```"
)

INITIAL_MAKE = "```bash\ncd /app/needs_header\nmake\n```"


def _agent_ctx(ws) -> PromptContext:
    return PromptContext(
        repo_full_name=ws.repo_id,
        repo_root_in_sandbox=ws.mount_path,
        readme="Build with make.",
        root_listing="Makefile (file)\nmain.c (file)",
        preinstalled="FROM ubuntu:22.04",
    )


def _session_signature(session) -> tuple:
    turns = tuple(
        (t.k, t.kind, t.result.overall_exit if t.result else None)
        for t in session.turns
    )
    return (session.outcome, session.fix_attempts, turns)


class TestAgentLoopMechanics:
    REPEATS = 20

    def test_error_feedback_leads_to_one_fix_attempt(self, tmp_path, local_spec):
        scenario = ScriptedScenario(
            steps=[
                ("No such file or directory", FIX_HEADER),
                ("", INITIAL_MAKE),
            ]
        )
        signatures = set()
        for i in range(self.REPEATS):
            ws = prepare_fixture("needs_header", tmp_path / f"round{i}")
            before = snapshot_files(ws)

            def probe(workspace, before=before):
                arts = discover_new_binaries(before, workspace)
                return any(a.classify != "object-file" for a in arts)

            session = run_build_loop(
                ws, _agent_ctx(ws), scripted_config(scenario), local_spec, probe
            )
            assert session.outcome == "succeeded"
            assert session.fix_attempts == 1
            assert [t.kind for t in session.turns] == ["command-turn", "command-turn"]
            assert session.turns[0].result.overall_exit != 0
            assert session.turns[1].result.overall_exit == 0
            assert (ws.root_path / "app").exists()
            signatures.add(_session_signature(session))
        assert len(signatures) == 1

    def test_turn_budget_allows_exactly_one_more_than_max(self, tmp_path, local_spec):
        scenario = ScriptedScenario(default_reply="```bash\nfalse\n```")
        signatures = set()
        for i in range(self.REPEATS):
            ws = prepare_fixture("hello_make", tmp_path / f"round{i}")
            session = run_build_loop(
                ws,
                _agent_ctx(ws),
                scripted_config(scenario),
                local_spec,
                lambda workspace: False,
                max_turns=5,
            )
            assert session.outcome == "turn-budget-exhausted"
            command_turns = [t for t in session.turns if t.kind == "command-turn"]
            assert len(command_turns) == 6
            assert [t.k for t in command_turns] == [0, 1, 2, 3, 4, 5]
            assert all(t.result.overall_exit == 1 for t in command_turns)
            signatures.add(_session_signature(session))
        assert len(signatures) == 1

    def test_reply_classification_is_stable(self):
        outcomes = set()
        for _ in range(self.REPEATS):
            snapshot = []

            p = parse_agent_reply("```bash\nmake\n```")
            assert p.kind == "command"
            assert p.script.commands == ("make",)
            snapshot.append((p.kind, p.script.commands))

            p = parse_agent_reply("Build is done.\n\nTERMINATE")
            assert p.kind == "termination"
            assert "Build is done." in p.reason
            snapshot.append((p.kind, p.reason))

            p = parse_agent_reply("terminate")
            assert p.kind == "termination"
            snapshot.append((p.kind, p.reason))

            p = parse_agent_reply("Everything looks fine to me.")
            assert p.kind == "violation"
            snapshot.append((p.kind, p.violation))

            # a code block outranks the termination word in the same reply
            p = parse_agent_reply("Run this:\n```bash\nmake\n```\nthen terminate")
            assert p.kind == "command"
            assert p.script.commands == ("make",)
            assert p.violation is not None
            snapshot.append((p.kind, p.script.commands, p.violation))

            p = parse_agent_reply("```text\nnotes\n```\n```bash\nmake -j2\n```")
            assert p.kind == "command"
            assert p.script.commands == ("make -j2",)
            snapshot.append((p.kind, p.script.commands))

            p = parse_agent_reply("```bash\ncmake -S . -B build\n```\n```sh\nmake\n```")
            assert p.kind == "command"
            assert p.script.commands == ("make",)
            snapshot.append((p.kind, p.script.commands))

            p = parse_agent_reply("```\nmake\n```")
            assert p.kind == "command"
            assert p.script.commands == ("make",)
            snapshot.append((p.kind, p.script.commands))

            p = parse_agent_reply("```\nls\n```\n```\nmake\n```")
            assert p.kind == "violation"
            snapshot.append((p.kind, p.violation))

            p = parse_agent_reply("```bash\nterminate\n```")
            assert p.kind == "termination"
            snapshot.append((p.kind, p.reason))

            p = parse_agent_reply("```python\nprint('hi')\n```")
            assert p.kind == "violation"
            snapshot.append((p.kind, p.violation))

            outcomes.add(tuple(snapshot))
        assert len(outcomes) == 1


# ---------------------------------------------------------------------------
# retrieval budgets


def _links_reply(note: str, links) -> str:
    body = "\n".join(links) if links else "none"
    return f"INSTRUCTIONS:\n{note}\nSUFFICIENT: no\nLINKS:\n{body}"


class TestRetrievalBudgets:
    def test_rounds_and_fetches_stay_within_budget(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        r1 = _links_reply(
            "Checking the docs site.",
            [f"https://docs.example.com/r1-{c}" for c in "abcde"],
        )
        # round 2 re-offers an old link plus fresh ones
        r2 = _links_reply(
            "Still checking.",
            [
                "https://docs.example.com/r1-a",
                "https://docs.example.com/r2-a",
                "https://docs.example.com/r2-b",
                "https://docs.example.com/r2-c",
            ],
        )
        r3 = _links_reply(
            "One more pass.",
            [f"https://docs.example.com/r3-{c}" for c in "abc"],
        )
        scenario = ScriptedScenario(
            steps=[
                ("## https://docs.example.com/r2-a", r3),
                ("## https://docs.example.com/r1-a", r2),
                ("", r1),
            ]
        )

        fetched = []

        def fetcher(_ws, link):
            fetched.append(link.target)
            return FetchOutcome(True, content=f"notes for {link.target}")

        monkeypatch.setattr(retrieval, "fetch_link", fetcher)
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws))

        assert dossier.rounds_used == 3
        assert len(fetched) <= 9
        # round 1 fetches three of five offered; round 2 drops the repeat and
        # truncates to the per-round cap; round 3 never fetches
        assert fetched == [
            "https://docs.example.com/r1-a",
            "https://docs.example.com/r1-b",
            "https://docs.example.com/r1-c",
            "https://docs.example.com/r2-a",
            "https://docs.example.com/r2-b",
        ]
        assert len(set(fetched)) == len(fetched)
        assert [l.target for l in dossier.visited] == fetched
        assert not any(t.startswith("https://docs.example.com/r3") for t in fetched)

    def test_sufficient_first_round_fetches_nothing(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(
            default_reply="INSTRUCTIONS:\nRun make.\nSUFFICIENT: yes\nLINKS:\nnone"
        )
        fetched = []

        def fetcher(_ws, link):
            fetched.append(link.target)
            return FetchOutcome(True, content="x")

        monkeypatch.setattr(retrieval, "fetch_link", fetcher)
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws))
        assert dossier.rounds_used == 1
        assert dossier.sufficient
        assert fetched == []

    def test_no_fresh_links_ends_the_loop_early(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(default_reply=_links_reply("Nothing to follow.", []))
        monkeypatch.setattr(
            retrieval, "fetch_link", lambda _ws, link: FetchOutcome(True, content="x")
        )
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws))
        assert dossier.rounds_used == 1
        assert dossier.visited == []


# ---------------------------------------------------------------------------
# rule-based building across the fixture corpus


class TestRuleBasedCorpus:
    @needs_cmake
    def test_every_fixture_builds_strictly_within_budget(self, tmp_path, local_spec):
        names = ("hello_make", "hello_cmake", "hello_autotools")
        manifest = CorpusManifest(
            records=[fixture_record(n) for n in names], name="fixture-corpus"
        )
        cfg = RunConfig(
            manifest=manifest,
            method="rule-based",
            llm=scripted_config(ScriptedScenario()),  # any model call would fail loudly
            sandbox=local_spec,
        )

        start = time.monotonic()
        results = run_benchmark(cfg, tmp_path / "results.jsonl", tmp_path / "work")
        elapsed = time.monotonic() - start

        assert elapsed < 300.0
        assert len(results) == 1
        per_repo = results[0].per_repo
        assert sorted(per_repo) == sorted(f"fixture/{n}" for n in names)
        for repo_id, outcome in per_repo.items():
            assert outcome.verdict.strict, f"{repo_id} missed its expected binary"
            assert outcome.session["outcome"] == "succeeded"
            assert outcome.failure_mode is None

        report = aggregate(results)
        assert report["strict_pct"] == [100.0]
        assert report["completion_pct"] == [100.0]


# ---------------------------------------------------------------------------
# scripted agent end to end, with sandbox freshness


class TestScriptedAgentEndToEnd:
    def test_dependency_fix_yields_full_verdict(self, tmp_path, local_spec):
        scenario = ScriptedScenario(
            steps=[
                ("No such file or directory", FIX_HEADER),
                ("", INITIAL_MAKE),
            ]
        )
        cfg = RunConfig(
            manifest=CorpusManifest(records=[fixture_record("needs_header")]),
            method="agent-no-retrieval",
            llm=scripted_config(scenario),
            sandbox=local_spec,
        )
        _run, _repo, outcome = decode_record(run_one_repo(
            fixture_record("needs_header"), cfg, tmp_path / "session"
        ))
        summary, verdict = outcome.session, outcome.verdict
        assert summary["outcome"] == "succeeded"
        assert summary["fix_attempts"] == 1
        assert verdict.completion and verdict.strict and verdict.flexible
        assert verdict.matched_names == frozenset({"app"})
        assert outcome.failure_mode is None
        assert outcome.dossier is None

    def test_second_session_starts_from_a_clean_environment(self, tmp_path, local_spec):
        # session 1 leaves a marker in its home directory
        plant = ScriptedScenario(
            steps=[("", '```bash\ntouch "$HOME/.leftover"\n```')]
        )
        ws1 = prepare_fixture("needs_header", tmp_path / "first")
        session1 = run_build_loop(
            ws1,
            _agent_ctx(ws1),
            scripted_config(plant),
            local_spec,
            lambda workspace: True,
        )
        assert session1.outcome == "succeeded"
        assert session1.turns[0].result.overall_exit == 0

        # session 2 must not see it: the guard command passes only when the
        # marker is absent, and the script stops at the first failure
        guarded_make = (
            "```bash\n"
            '! test -f "$HOME/.leftover"\n'
            "cd /app/needs_header\n"
            "make\n"
            "```"
        )
        rebuild = ScriptedScenario(
            steps=[
                ("No such file or directory", FIX_HEADER),
                ("", guarded_make),
            ]
        )
        ws2 = prepare_fixture("needs_header", tmp_path / "second")
        before = snapshot_files(ws2)

        def probe(workspace):
            arts = discover_new_binaries(before, workspace)
            return any(a.classify != "object-file" for a in arts)

        session2 = run_build_loop(
            ws2, _agent_ctx(ws2), scripted_config(rebuild), local_spec, probe
        )
        assert session2.outcome == "succeeded"
        guard = session2.turns[0].result.per_command[0]
        assert guard[0].startswith("! test -f")
        assert guard[1] == 0

        verdict = judge(discover_new_binaries(before, ws2), ("app",))
        assert verdict.completion and verdict.strict and verdict.flexible


# ---------------------------------------------------------------------------
# function coverage against a debugger-derived oracle


def _gdb_defined_functions(binary: Path) -> set:
    proc = subprocess.run(
        ["gdb", "-batch", "-ex", "info functions", str(binary)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    in_file_section = False
    for line in proc.stdout.splitlines():
        if line.startswith("File "):
            in_file_section = True
            continue
        if line.startswith("Non-debugging symbols"):
            in_file_section = False
            continue
        if in_file_section:
            m = re.match(r"\s*\d+:\s+.*?([A-Za-z_]\w*)\s*\(", line)
            if m:
                names.add(m.group(1))
    return names


# matches the one-line definitions used in the coverage fixture
_SIMPLE_DEF_RE = re.compile(r"^\w[\w \t\*]*\b([A-Za-z_]\w*)\s*\([^;]*\)\s*\{\s*$")


class TestFunctionCoverage:
    @needs_gdb
    def test_coverage_matches_debugger_dump(self, tmp_path, local_spec):
        ws = prepare_fixture("coverage_repo", tmp_path)
        before = snapshot_files(ws)
        proc = subprocess.run(
            ["make"], cwd=ws.root_path, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

        # oracle first: scan the sources with a purpose-built pattern and ask
        # the debugger which of them made it into the binary
        source_names = {}
        for path in sorted(ws.root_path.rglob("*.c")):
            rel = str(path.relative_to(ws.root_path))
            for line in path.read_text("utf-8").splitlines():
                m = _SIMPLE_DEF_RE.match(line)
                if m:
                    source_names[m.group(1)] = rel
        assert set(source_names) == {"main", "helper", "extra_check"}

        compiled_oracle = _gdb_defined_functions(ws.root_path / "covapp")
        covered = set(source_names) & compiled_oracle
        assert covered == {"main", "helper"}
        pct_oracle = 100.0 * len(covered) / len(source_names)
        assert abs(pct_oracle - 66.7) <= 0.1

        artifacts = discover_new_binaries(before, ws)
        assert any(a.file_name == "covapp" and a.has_debug_info for a in artifacts)

        report = function_coverage(ws, artifacts)
        assert report.coverage_pct == pytest.approx(pct_oracle, abs=1e-9)
        assert abs(report.coverage_pct - 66.7) <= 0.1
        assert set(report.compiled_functions) & set(source_names) == compiled_oracle
        assert report.top_uncompiled_dirs == [("tests", 1)]


# ---------------------------------------------------------------------------
# target prediction and makefile cleaning


class TestTargetPrediction:
    def _predict(self, tmp_path, name, makefile_text):
        root = tmp_path / name
        root.mkdir()
        (root / "Makefile").write_text(makefile_text, "utf-8")
        return predict_targets(workspace_at(root, f"fixture/{name}"))

    def test_direct_rule_names_the_binary(self, tmp_path):
        pred = self._predict(
            tmp_path,
            "direct",
            "app: main.o util.o\n\tcc -o app main.o util.o\n",
        )
        assert set(pred.names) == {"app"}

    def test_variable_indirection_resolves(self, tmp_path):
        pred = self._predict(
            tmp_path,
            "indirect",
            "CC = cc\nTARGET = mytool\n\n$(TARGET): main.o\n\t$(CC) -o $(TARGET) main.o\n",
        )
        assert set(pred.names) == {"mytool"}

    def test_phony_targets_are_excluded(self, tmp_path):
        pred = self._predict(
            tmp_path,
            "phony",
            ".PHONY: all clean install\n"
            "all: tool\n\n"
            "tool: main.o\n\tcc -o tool main.o\n\n"
            "clean:\n\trm -f tool *.o\n\n"
            "install: tool\n\tcp tool /usr/local/bin/\n",
        )
        assert set(pred.names) == {"tool"}

    def test_cleaning_shrinks_generated_makefiles_and_is_idempotent(self):
        raw = generated_makefile(400)
        raw_lines = len(raw.splitlines())

        doc = MakefileDoc("Makefile", clean_makefile(raw))
        cleaned = doc.cleaned_text
        cleaned_lines = len(cleaned.splitlines())
        assert cleaned_lines <= raw_lines * 0.10
        assert MakefileDoc("Makefile", clean_makefile(cleaned)).cleaned_text == cleaned

        pred = extract_targets_rule_based([doc])
        assert set(pred.names) == {"bigapp", "helper"}


# ---------------------------------------------------------------------------
# crash resume and metric recomputation


class TestHarnessCrashResume:
    def test_resume_loses_only_the_in_flight_repo(self, tmp_path, local_spec):
        names = ("hello_make", "hello_cmake", "hello_autotools")
        manifest = CorpusManifest(
            records=[fixture_record(n) for n in names], name="fixture-corpus"
        )

        def make_cfg():
            return RunConfig(
                manifest=manifest,
                method="rule-based",
                llm=scripted_config(ScriptedScenario()),
                sandbox=local_spec,
            )

        store1 = tmp_path / "full" / "results.jsonl"
        store1.parent.mkdir()
        results_full = run_benchmark(make_cfg(), store1, tmp_path / "full" / "work")
        report_full = emit_report(aggregate(results_full), fmt="machine", method="rule-based")

        # the store alone must reproduce the report bit for bit
        recomputed = emit_report(
            aggregate(load_results(store1)), fmt="machine", method="rule-based"
        )
        assert recomputed == report_full

        # simulate a crash: the second record is torn mid-write and the
        # third repo never started; its session dir holds partial state
        lines = store1.read_text("utf-8").splitlines()
        assert len(lines) == 3
        store2 = tmp_path / "crashed" / "results.jsonl"
        store2.parent.mkdir()
        store2.write_text(lines[0] + "\n" + lines[1][:40], "utf-8")

        work2 = tmp_path / "crashed" / "work"
        stale = work2 / "run0" / "fixture" / "hello_cmake"
        stale.mkdir(parents=True)
        (stale / "half-cloned.txt").write_text("partial", "utf-8")

        assert ResultStore(store2).existing_keys() == {(0, "fixture/hello_make")}

        results_resumed = run_benchmark(make_cfg(), store2, work2)

        # the completed record survived the crash byte for byte; the torn
        # fragment stays behind as an inert line that loading skips
        resumed_lines = store2.read_text("utf-8").splitlines()
        assert resumed_lines[0] == lines[0]
        assert resumed_lines[1] == lines[1][:40]
        valid = []
        for line in resumed_lines:
            try:
                valid.append(json.loads(line))
            except json.JSONDecodeError:
                pass
        assert len(valid) == 3

        keys = ResultStore(store2).existing_keys()
        assert keys == {(0, f"fixture/{n}") for n in names}

        report_resumed = emit_report(
            aggregate(results_resumed), fmt="machine", method="rule-based"
        )
        report_restored = emit_report(
            aggregate(load_results(store2)), fmt="machine", method="rule-based"
        )
        assert report_resumed == report_full
        assert report_restored == report_full
