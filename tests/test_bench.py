import copy
import json
import logging
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc

import pytest

from repobuild import bench, retrieval
from repobuild.agent import VARIANTS, BuildSession, Turn
from repobuild.bench import (
    FAILURE_MODES,
    ResultStore,
    RunConfig,
    RunResult,
    RepoOutcome,
    aggregate,
    decode_record,
    emit_report,
    load_results,
    make_completion_probe,
    run_benchmark,
    run_one_repo,
    tag_failure_mode,
)
from repobuild.corpus import CorpusManifest, RepoRecord
from repobuild.errors import UsageError
from repobuild.gateway import LlmConfig, ScriptedScenario
from repobuild.retrieval import InstructionDossier, LinkRef
from repobuild.sandbox import CommandScript, ExecutionResult, SandboxSpec, create_sandbox
from repobuild.validation import CLASSES, BinaryArtifact, Verdict
from repobuild.workspace import snapshot_files

from conftest import (
    FIXTURES,
    bytes_read,
    copy_fixture_tree,
    fixture_record,
    prepare_fixture,
    workspace_at,
)


def _llm(default_reply="unused", steps=None):
    return LlmConfig(
        backend="scripted",
        scenario=ScriptedScenario(steps=steps or [], default_reply=default_reply),
    )


def _spec():
    return SandboxSpec(backend="local", per_command_timeout=120.0, total_timeout=240.0)


def _cfg(records, method="rule-based", **kw):
    return RunConfig(
        manifest=CorpusManifest(records=list(records), name="fixtures"),
        method=method,
        llm=kw.pop("llm", _llm()),
        sandbox=_spec(),
        **kw,
    )


def _vd(completion=False, strict=False, flexible=False):
    return Verdict(
        completion=completion,
        strict=strict,
        flexible=flexible,
        matched_names=frozenset(),
        new_binaries=(),
    )


def _outcome(completion=False, strict=False, flexible=False, fix=0, failure=None):
    return RepoOutcome(
        session=None,
        verdict=_vd(completion, strict, flexible),
        fix_attempts=fix,
        failure_mode=failure,
    )


def _session_dict(outcome="turn-budget-exhausted", turns=None):
    return {
        "repo_id": "x/y",
        "variant": "agent-no-retrieval",
        "max_turns": 12,
        "outcome": outcome,
        "fix_attempts": 0,
        "error_detail": None,
        "turns": turns if turns is not None else [],
    }


def _turn_dict(k=0, commands=("make",), output="build failed", timed_out=False):
    return {
        "k": k,
        "kind": "command-turn",
        "agent_reply_raw": "",
        "commands": list(commands),
        "per_command": [],
        "output": output,
        "overall_exit": 1,
        "timed_out": timed_out,
        "violation_note": None,
    }


def _verdict_dict(ok=False):
    return {"completion": ok, "strict": ok, "flexible": ok,
            "matched_names": [], "new_binaries": []}


def _record(run, repo, output="build failed"):
    return {
        "run": run,
        "repo": repo,
        "session": _session_dict(turns=[_turn_dict(output=output)]),
        "verdict": _verdict_dict(),
        "failure_mode": "unresolved-after-max-attempts",
        "dossier": None,
    }


def _finished(run, repo, session=None):
    """The record of a session that built every expected binary."""
    return {
        "run": run,
        "repo": repo,
        "session": session or _session_dict("succeeded"),
        "verdict": _verdict_dict(True),
        "failure_mode": None,
        "dossier": None,
    }


def _decoded(record):
    """A record from ``run_one_repo`` decoded as (session, verdict, failure
    tag, dossier)."""
    _run, _repo, outcome = decode_record(record)
    return outcome.session, outcome.verdict, outcome.failure_mode, outcome.dossier


def _as_resumed(outcome):
    """``outcome`` as a resume's opening pass gives it: no session, no
    dossier, and a verdict without ``matched_names`` and ``new_binaries``."""
    verdict = outcome.verdict._replace(matched_names=None, new_binaries=None)
    return outcome._replace(session=None, dossier=None, verdict=verdict)


def _view(results, stored=frozenset()):
    """What a result holds, per run and repo; the outcomes of the (run, repo)
    keys in ``stored`` as a resume returns them."""

    def fields(o):
        return o.verdict, o.failure_mode, o.fix_attempts, o.session

    return [
        (r.run_index, {repo: fields(_as_resumed(o) if (r.run_index, repo) in stored else o)
                       for repo, o in r.per_repo.items()})
        for r in results
    ]


class TestRunConfig:
    def test_known_methods_accepted(self):
        for method in VARIANTS:
            cfg = _cfg([], method=method)
            assert cfg.method == method

    def test_unknown_method_rejected(self):
        with pytest.raises(UsageError, match="unknown method"):
            _cfg([], method="magic")

    @pytest.mark.parametrize("field", ["runs", "parallelism", "max_turns"])
    def test_positive_counts_required(self, field):
        with pytest.raises(UsageError):
            _cfg([], **{field: 0})


class TestResultStore:
    def test_append_then_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(_record(0, "a/b"))
        store.append(_record(1, "a/b"))
        assert store.existing_keys() == {(0, "a/b"), (1, "a/b")}

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "none.jsonl").existing_keys() == set()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(_record(0, "a/b")) + "\n\n")
        assert ResultStore(path).existing_keys() == {(0, "a/b")}

    def test_torn_trailing_record_ignored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(_record(0, "a/b")) + '\n{"run": 1, "repo"')
        assert ResultStore(path).existing_keys() == {(0, "a/b")}

    def test_append_heals_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(_record(0, "a")) + '\n{"run": 1, "re')
        store = ResultStore(path)
        store.append(_record(1, "a"))
        assert store.existing_keys() == {(0, "a"), (1, "a")}
        assert len(path.read_text().splitlines()) == 3

    def test_records_written_with_sorted_keys(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append({"zeta": 1, "alpha": 2, "run": 0, "repo": "r"})
        line = path.read_text().strip()
        assert line.index('"alpha"') < line.index('"repo"') < line.index('"zeta"')

    def test_line_separators_inside_strings_keep_the_record(self, tmp_path):
        # json.dumps leaves U+0085, U+2028 and U+2029 unescaped; only "\n"
        # ends a record
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(_record(0, "a/b", output="x\x85y\u2028z\u2029"))
        assert store.existing_keys() == {(0, "a/b")}
        [result] = load_results(store.path)
        assert result.per_repo["a/b"].session["turns"][0]["output"] == "x\x85y\u2028z\u2029"

    def test_record_torn_inside_a_utf8_sequence(self, tmp_path):
        path = tmp_path / "store.jsonl"
        line = json.dumps(_record(1, "é/b"), ensure_ascii=False).encode("utf-8")
        first = json.dumps(_record(0, "a/b")).encode("utf-8")
        path.write_bytes(first + b"\n" + line[: line.index(b"\xc3") + 1])
        store = ResultStore(path)
        assert store.existing_keys() == {(0, "a/b")}
        store.append(_record(1, "é/b"))
        assert store.existing_keys() == {(0, "a/b"), (1, "é/b")}

    def test_lone_surrogate_is_stored_as_its_escape_and_reads_back(self, tmp_path):
        # os.walk gives a file name that is not UTF-8 surrogate-escaped
        record = TestTranscriptMarkers._record()
        record["verdict"]["new_binaries"][0]["rel_path"] = "build/\udcff"
        path = tmp_path / "store.jsonl"
        ResultStore(path).append(record)
        data = path.read_bytes()
        assert b'"rel_path": "build/\\udcff"' in data
        assert json.loads(data.decode("utf-8")) == record
        [result] = load_results(path)
        assert result.per_repo["x/y"] == decode_record(record)[2]
        assert result.per_repo["x/y"].verdict.new_binaries[0].rel_path == "build/\udcff"

    def test_line_too_deep_to_parse_is_skipped_as_torn(self, tmp_path):
        # json.loads ends a nesting this deep with RecursionError, not ValueError
        path = tmp_path / "store.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        assert ResultStore(path).existing_keys() == set()

    @pytest.mark.parametrize("value, reason", [
        ([1, 2], "record must be an object, got [1, 2]"),
        ({**_record(0, "a/b"), "run": -1}, "record: run must be an integer >= 0, got -1"),
        *(({**_record(0, "a/b"), "session": {**_session_dict(), "fix_attempts": n}},
           f"session: fix_attempts must be an integer >= 0, got {json.dumps(n)}")
          for n in ("3", True, 1.5, -1)),
    ], ids=["not-an-object", "negative-run", "string-fix-attempts", "bool-fix-attempts",
            "float-fix-attempts", "negative-fix-attempts"])
    def test_line_that_is_not_a_record_is_usage_error(self, tmp_path, value, reason):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(value) + "\n")
        with pytest.raises(UsageError) as exc:
            ResultStore(path).existing_keys()
        assert str(exc.value) == f"{path}:1: not a stored record: {reason}"

    def test_appends_from_four_processes_stay_whole(self, tmp_path):
        path, go = tmp_path / "store.jsonl", tmp_path / "go"
        blob = 70 << 10  # each record is larger than 64 KiB
        writer = (
            "import os, sys, time\n"
            "from repobuild.bench import ResultStore\n"
            "path, go, w = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
            "while not os.path.exists(go):\n"
            "    time.sleep(0.001)\n"
            "store = ResultStore(path)\n"
            "for i in range(50):\n"
            f"    store.append({{'run': w, 'repo': f'w{{w}}/r{{i}}', 'blob': str(w) * {blob}}})\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", writer, str(path), str(go), str(w)], env=env)
            for w in range(4)
        ]
        go.touch()
        assert [p.wait(timeout=120) for p in procs] == [0] * 4
        data = path.read_bytes()
        assert data.endswith(b"\n")
        records = [json.loads(line) for line in data.split(b"\n")[:-1]]
        assert len(records) == 200
        assert {(r["run"], r["repo"]) for r in records} == {
            (w, f"w{w}/r{i}") for w in range(4) for i in range(50)
        }
        assert all(r["blob"] == str(r["run"]) * blob for r in records)


def _outcomes(by_run):
    """What ``bench._read_store`` decoded, per (run, repo)."""
    return {(run, repo): outcome
            for run, result in by_run.items() for repo, outcome in result.per_repo.items()}


def _stripped(by_run):
    """The outcomes of a whole read as a resume's opening pass gives them."""
    return {key: _as_resumed(o) for key, o in _outcomes(by_run).items()}


def _both_reads(path):
    """The opening pass's outcomes and end offset, and the whole read's
    stripped as ``_stripped`` strips them."""
    opening, opening_end = bench._read_store(path, resumed=True)
    whole, end = bench._read_store(path)
    return (_outcomes(opening), opening_end), (_stripped(whole), end)


class TestOpeningPass:
    """A resume's opening pass, ``_read_store(..., resumed=True)``, gives
    the whole read's outcomes without their sessions, dossiers and verdict
    lists."""

    @staticmethod
    def _line(run=0):
        # the output holds a UTF-8 sequence and both transcript markers as text
        record = _record(run, "é/b", output='café "turns": [1], "variant": "x" ]')
        record["session"]["turns"].append(_turn_dict(k=1, output="ünïcode"))
        return json.dumps(record, ensure_ascii=False, sort_keys=True).encode("utf-8")

    def test_every_torn_prefix_reads_as_the_whole_parse(self, tmp_path):
        first, second = self._line(0), self._line(1)
        path = tmp_path / "store.jsonl"
        for k in range(len(first) + 1):
            # a torn record closed by a later append, then an unterminated one
            for data, whole_run, torn_run in (
                (first[:k] + b"\n" + second + b"\n", 1, 0),
                (first + b"\n" + second[:k], 0, 1),
            ):
                path.write_bytes(data)
                opening, whole = _both_reads(path)
                assert opening == whole
                runs = {whole_run, torn_run} if k == len(first) else {whole_run}
                assert {run for run, _repo in opening[0]} == runs

    @pytest.mark.parametrize("dumps", [
        lambda r: json.dumps(r, ensure_ascii=False),
        lambda r: json.dumps(r, ensure_ascii=False, sort_keys=True, separators=(",", ":")),
        lambda r: json.dumps({**r, "session": _session_dict()}, sort_keys=True),
        lambda r: json.dumps({**r, "session": {"outcome": "succeeded"}}, sort_keys=True),
    ], ids=["unsorted-keys", "compact-separators", "empty-turns", "no-turns-key"])
    def test_other_layouts_read_as_the_whole_parse(self, tmp_path, dumps):
        record = json.loads(self._line())
        path = tmp_path / "store.jsonl"
        path.write_text(dumps(record) + "\n" + dumps({**record, "run": 1}) + "\n", "utf-8")
        opening, whole = _both_reads(path)
        assert opening == whole
        assert [run for run, _repo in opening[0]] == [0, 1]

    def test_fixture_store_reads_as_load_results_without_turns(self):
        path = FIXTURES / "bench" / "hello_pair_runs2_store.jsonl"
        lines = path.read_text("utf-8").splitlines()
        opening, whole = _both_reads(path)
        assert opening == whole
        assert len(opening[0]) == len(lines)
        reloaded = load_results(path)
        assert _stripped({r.run_index: r for r in reloaded}) == opening[0]


class TestTranscriptMarkers:
    """The opening pass cuts a transcript at the last ``], "variant": `` of
    its line, so a stored record may hold that marker only where the
    session's transcript ends. A field added to a record after ``session``
    that breaks this fails here."""

    @staticmethod
    def _parts():
        """The session, verdict and dossier the record encodes."""
        script = CommandScript(commands=("cd /app/y", "make"))
        result = ExecutionResult(
            per_command=(("cd /app/y", 0, 0.0), ("make", 2, 0.4)),
            combined_output="make: *** [all] Error 2",
            overall_exit=2,
            timed_out=False,
        )
        session = BuildSession(
            repo_id="x/y",
            variant="agent-with-retrieval",
            max_turns=12,
            turns=[
                Turn(k=0, kind="command-turn", agent_reply_raw="```bash\nmake\n```",
                     script=script, result=result),
                Turn(k=1, kind="protocol-violation", agent_reply_raw="no script",
                     violation_note="reply holds no command block"),
                Turn(k=2, kind="termination-turn", agent_reply_raw="terminate"),
            ],
            outcome="agent-terminated",
        )
        verdict = Verdict(
            completion=True,
            strict=False,
            flexible=True,
            matched_names=frozenset({"app", "libx"}),
            new_binaries=(
                BinaryArtifact("build/app", "app", "executable", True),
                BinaryArtifact("build/libx.a", "libx.a", "static-archive", False),
            ),
        )
        dossier = InstructionDossier(
            instructions="run make",
            sufficient=True,
            visited=[LinkRef("internal-file", "README.md", 0),
                     LinkRef("external-url", "https://example.org/build", 1)],
            rounds_used=2,
            fetch_failures=[("https://example.org/gone", "non-success")],
        )
        return session, verdict, dossier

    @staticmethod
    def _record():
        return bench.store_record(0, "x/y", *TestTranscriptMarkers._parts())

    def test_a_stored_record_closes_its_transcript_once(self, tmp_path):
        path = tmp_path / "store.jsonl"
        record = self._record()
        ResultStore(path).append(record)
        ResultStore(path).append({**record, "run": 1})
        line = path.read_bytes().splitlines()[0]
        assert line.count(bench._TURNS_OPEN) == 1
        assert line.count(bench._TURNS_CLOSE, line.find(bench._TURNS_OPEN)) == 1
        whole, _end = bench._read_store(path)
        assert [len(o.session["turns"]) for o in _outcomes(whole).values()] == [3, 3]
        opening, stripped = _both_reads(path)
        assert opening == stripped


class TestRecordCodec:
    """``store_record`` is the one encoder and ``decode_record`` the one
    decoder of a stored line."""

    # what ResultStore.append writes for TestTranscriptMarkers' record
    _GOLDEN_LINE = (
        b'{"dossier": {"fetch_failures": [["https://example.org/gone", '
        b'"non-success"]], "instructions": "run make", "rounds_used": 2, '
        b'"sufficient": true, "visited": [{"kind": "internal-file", "round": 0, '
        b'"target": "README.md"}, {"kind": "external-url", "round": 1, '
        b'"target": "https://example.org/build"}]}, '
        b'"failure_mode": "unresolved-after-max-attempts", "repo": "x/y", '
        b'"run": 0, "session": {"error_detail": null, "fix_attempts": 0, '
        b'"max_turns": 12, "outcome": "agent-terminated", "repo_id": "x/y", '
        b'"turns": [{"agent_reply_raw": "```bash\\nmake\\n```", '
        b'"commands": ["cd /app/y", "make"], "k": 0, "kind": "command-turn", '
        b'"output": "make: *** [all] Error 2", "overall_exit": 2, '
        b'"per_command": [["cd /app/y", 0, 0.0], ["make", 2, 0.4]], '
        b'"timed_out": false, "violation_note": null}, '
        b'{"agent_reply_raw": "no script", "commands": null, "k": 1, '
        b'"kind": "protocol-violation", "output": null, "overall_exit": null, '
        b'"per_command": null, "timed_out": null, '
        b'"violation_note": "reply holds no command block"}, '
        b'{"agent_reply_raw": "terminate", "commands": null, "k": 2, '
        b'"kind": "termination-turn", "output": null, "overall_exit": null, '
        b'"per_command": null, "timed_out": null, "violation_note": null}], '
        b'"variant": "agent-with-retrieval"}, "verdict": {"completion": true, '
        b'"flexible": true, "matched_names": ["app", "libx"], '
        b'"new_binaries": [{"classify": "executable", "file_name": "app", '
        b'"has_debug_info": true, "rel_path": "build/app"}, '
        b'{"classify": "static-archive", "file_name": "libx.a", '
        b'"has_debug_info": false, "rel_path": "build/libx.a"}], '
        b'"strict": false}}\n'
    )

    def test_append_writes_the_pinned_bytes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore(path).append(TestTranscriptMarkers._record())
        assert path.read_bytes() == self._GOLDEN_LINE

    def test_a_stored_line_decodes_to_what_was_encoded(self, tmp_path):
        session, verdict, dossier = TestTranscriptMarkers._parts()
        path = tmp_path / "store.jsonl"
        ResultStore(path).append(bench.store_record(3, "x/y", session, verdict, dossier))
        run, repo, outcome = decode_record(json.loads(path.read_bytes()))
        assert (run, repo) == (3, "x/y")
        assert outcome.verdict == verdict
        assert outcome.dossier == bench.dossier_to_dict(dossier)
        assert outcome.failure_mode == "unresolved-after-max-attempts"
        assert outcome.fix_attempts == session.fix_attempts
        assert outcome.failure_mode == tag_failure_mode(outcome.session, outcome.dossier)
        stored = outcome.session
        assert (stored["repo_id"], stored["variant"], stored["max_turns"], stored["outcome"],
                stored["fix_attempts"], stored["error_detail"]) == (
            session.repo_id, session.variant, session.max_turns, session.outcome,
            session.fix_attempts, session.error_detail)
        assert len(stored["turns"]) == len(session.turns)
        for got, turn in zip(stored["turns"], session.turns):
            assert (got["k"], got["kind"], got["agent_reply_raw"], got["violation_note"]) == (
                turn.k, turn.kind, turn.agent_reply_raw, turn.violation_note)
            if turn.script is None:
                assert got["commands"] is None
            else:
                assert got["commands"] == list(turn.script.commands)
            if turn.result is None:
                assert (got["per_command"], got["output"], got["overall_exit"],
                        got["timed_out"]) == (None, None, None, None)
            else:
                assert got["per_command"] == [list(pc) for pc in turn.result.per_command]
                assert (got["output"], got["overall_exit"], got["timed_out"]) == (
                    turn.result.combined_output, turn.result.overall_exit,
                    turn.result.timed_out)
        [result] = load_results(path)
        assert result.run_index == 3
        assert result.per_repo == {"x/y": outcome}

    def test_a_verdict_key_that_verdict_lacks_is_not_a_record(self):
        record = json.loads(json.dumps(TestTranscriptMarkers._record()))
        record["verdict"]["score"] = 1
        with pytest.raises(UsageError, match=r"^verdict has unknown keys \['score'\]$"):
            decode_record(record)

    def test_a_binary_key_that_artifacts_lack_is_not_a_record(self):
        record = json.loads(json.dumps(TestTranscriptMarkers._record()))
        record["verdict"]["new_binaries"][0]["size"] = 1
        with pytest.raises(UsageError, match="'size'"):
            decode_record(record)


class TestRecordFootprint:
    """A decoded record's verdict, artifacts and outcome carry no
    per-instance dict, and a resume retains a bounded size per record."""

    @staticmethod
    def _resume_over(tmp_path, monkeypatch, repos, runs=1):
        """``run_benchmark`` over a store that holds TestTranscriptMarkers'
        record for every run and repo, so nothing is left to run."""
        record = TestTranscriptMarkers._record()
        path = tmp_path / "store.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for run in range(runs):
                for repo in repos:
                    fh.write(json.dumps({**record, "run": run, "repo": repo},
                                        ensure_ascii=False, sort_keys=True) + "\n")

        def must_not_run(*args):
            raise AssertionError("every record is already in the store")

        monkeypatch.setattr("repobuild.bench.run_one_repo", must_not_run)
        cfg = _cfg([RepoRecord(id=repo, clone_url="unused") for repo in repos], runs=runs)
        return lambda: run_benchmark(cfg, path, tmp_path / "work"), path

    def test_verdicts_artifacts_and_outcomes_carry_no_instance_dict(self):
        record = json.loads(json.dumps(TestTranscriptMarkers._record()))
        _run, _repo, outcome = decode_record(record)
        objects = [outcome, outcome.verdict, *outcome.verdict.new_binaries]
        assert len(objects) == 4
        for obj in objects:
            assert not hasattr(obj, "__dict__")
            assert pickle.loads(pickle.dumps(obj)) == obj
            assert copy.copy(obj) == obj

    def test_resume_retains_a_bounded_size_per_record(self, tmp_path, monkeypatch):
        repos = [f"many/r{i}" for i in range(1000)]
        resume, _path = self._resume_over(tmp_path, monkeypatch, repos, runs=2)
        tracemalloc.start()
        try:
            results = resume()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(r.per_repo) for r in results] == [1000, 1000]
        # 233 bytes per record on CPython 3.10, 180 on 3.11, 204 on 3.12 and
        # 207 on 3.13; keeping each verdict's matched_names and new_binaries
        # took it to 959-1,036, and each stored session as well to about 1,930
        assert retained / 2000 < 400


def _own(values, value):
    """The package's own string among ``values`` that equals ``value``."""
    return values[values.index(value)]


class TestResumedRecord:
    """A record already in the store comes back from a resume with what the
    report reads: no session, no dossier, no verdict lists, and a failure
    tag that is the package's own string."""

    @staticmethod
    def _resume(tmp_path, monkeypatch, records, run_fresh=None):
        """``run_benchmark`` over a store of ``records`` (all of run 0) and a
        manifest of their repos and ``a/todo``, which ``run_fresh`` runs."""
        path = tmp_path / "store.jsonl"
        for record in records:
            ResultStore(path).append(record)

        def must_not_run(*args):
            raise AssertionError("every record is already in the store")

        repos = [r["repo"] for r in records] + (["a/todo"] if run_fresh else [])
        monkeypatch.setattr("repobuild.bench.run_one_repo", run_fresh or must_not_run)
        cfg = _cfg([RepoRecord(id=repo, clone_url="unused") for repo in repos])
        [result] = run_benchmark(cfg, path, tmp_path / "work")
        return result, path

    def test_a_stored_record_comes_back_without_its_dossier(self, tmp_path, monkeypatch):
        record = TestTranscriptMarkers._record()

        def run_fresh(repo_record, cfg, session_dir, prepared, run_idx):
            return {**record, "run": run_idx, "repo": repo_record.id}

        result, path = self._resume(tmp_path, monkeypatch, [{**record, "repo": "a/done"}],
                                    run_fresh)
        [reloaded] = load_results(path)
        dossier = bench.dossier_to_dict(TestTranscriptMarkers._parts()[2])
        assert record["dossier"] == dossier
        assert result.per_repo["a/done"].dossier is None
        assert reloaded.per_repo["a/done"].dossier == dossier
        done = result.per_repo["a/done"].verdict
        assert (done.matched_names, done.new_binaries) == (None, None)
        # a record appended during the call comes back whole
        todo = result.per_repo["a/todo"]
        assert todo.dossier == dossier
        assert todo.verdict.matched_names == frozenset({"app", "libx"})
        assert len(todo.verdict.new_binaries) == 2
        assert todo == reloaded.per_repo["a/todo"]

    def test_enumerated_values_are_the_packages_own_strings(self, tmp_path, monkeypatch):
        record = TestTranscriptMarkers._record()
        failed = {**record, "repo": "x/b", "failure_mode": "protocol-error",
                  "session": {**record["session"], "outcome": "protocol-error"}}
        result, path = self._resume(tmp_path, monkeypatch, [{**record, "repo": "x/a"}, failed])
        a, b = result.per_repo["x/a"], result.per_repo["x/b"]
        assert (a.failure_mode, b.failure_mode) == ("unresolved-after-max-attempts",
                                                    "protocol-error")
        for outcome in (a, b):
            assert outcome.failure_mode is _own(FAILURE_MODES, outcome.failure_mode)
        # a resumed verdict keeps no binaries, so their classes are checked
        # where a whole read of the same store decodes them
        [reloaded] = load_results(path)
        for outcome in reloaded.per_repo.values():
            classes = [artifact.classify for artifact in outcome.verdict.new_binaries]
            assert classes == ["executable", "static-archive"]
            assert all(c is _own(CLASSES, c) for c in classes)

    def test_values_outside_the_enumerations_come_back_as_parsed(self, tmp_path, monkeypatch):
        record = TestTranscriptMarkers._record()
        record["failure_mode"] = "custom-tag"
        result, path = self._resume(tmp_path, monkeypatch, [record])
        [reloaded] = load_results(path)
        got, want = result.per_repo["x/y"], reloaded.per_repo["x/y"]
        assert got.failure_mode == "custom-tag"
        assert got == _as_resumed(want)


def _summary(session):
    """The session as ``store_record`` encodes it."""
    return bench.store_record(0, session.repo_id, session, _vd(), None)["session"]


class TestSessionSummary:
    def test_command_turn_serialized(self):
        script = CommandScript(commands=("cd /app/x", "make"))
        result = ExecutionResult(
            per_command=(("cd /app/x", 0, 0.0), ("make", 0, 0.3)),
            combined_output="it built",
            overall_exit=0,
            timed_out=False,
        )
        session = BuildSession(
            repo_id="x/y",
            variant="agent-no-retrieval",
            max_turns=12,
            turns=[
                Turn(
                    k=0,
                    kind="command-turn",
                    agent_reply_raw="```bash\nmake\n```",
                    script=script,
                    result=result,
                )
            ],
            outcome="succeeded",
        )
        summary = _summary(session)
        assert summary["repo_id"] == "x/y"
        assert summary["outcome"] == "succeeded"
        assert summary["fix_attempts"] == 0
        turn = summary["turns"][0]
        assert turn["commands"] == ["cd /app/x", "make"]
        assert turn["per_command"] == [["cd /app/x", 0, 0.0], ["make", 0, 0.3]]
        assert turn["output"] == "it built"
        assert turn["overall_exit"] == 0

    def test_termination_turn_has_no_script_fields(self):
        session = BuildSession(
            repo_id="x/y",
            variant="agent-no-retrieval",
            max_turns=12,
            turns=[Turn(k=1, kind="termination-turn", agent_reply_raw="terminate")],
            outcome="agent-terminated",
        )
        turn = _summary(session)["turns"][0]
        assert turn["commands"] is None
        assert turn["output"] is None

    def test_summary_round_trips_through_json(self):
        session = BuildSession(
            repo_id="x/y", variant="rule-based", max_turns=1, outcome="infra-error",
            error_detail="boom",
        )
        text = json.dumps(_summary(session))
        assert json.loads(text)["error_detail"] == "boom"


class TestTagFailureMode:
    def test_success_has_no_tag(self):
        assert tag_failure_mode(_session_dict("succeeded")) is None

    def test_infra_error(self):
        assert tag_failure_mode(_session_dict("infra-error")) == "infra-error"

    def test_protocol_error(self):
        assert tag_failure_mode(_session_dict("protocol-error")) == "protocol-error"

    def test_final_turn_timeout(self):
        turns = [_turn_dict(k=0), _turn_dict(k=1, timed_out=True)]
        assert tag_failure_mode(_session_dict(turns=turns)) == "timeout"

    def test_earlier_timeout_does_not_tag(self):
        turns = [_turn_dict(k=0, timed_out=True), _turn_dict(k=1)]
        tag = tag_failure_mode(_session_dict(turns=turns))
        assert tag == "unresolved-after-max-attempts"

    def test_timeout_wins_over_dependency_signature(self):
        turns = [_turn_dict(output="fatal error: x.h: No such file or directory",
                            timed_out=True)]
        assert tag_failure_mode(_session_dict(turns=turns)) == "timeout"

    def test_retrieval_stage_error(self):
        dossier = {"sufficient": False}
        turns = [_turn_dict(commands=["ls", "cat README"], output="stuff")]
        tag = tag_failure_mode(_session_dict(turns=turns), dossier)
        assert tag == "retrieval-stage-error"

    def test_build_tool_in_commands_clears_retrieval_blame(self):
        dossier = {"sufficient": False}
        turns = [_turn_dict(commands=["make"], output="stuff")]
        tag = tag_failure_mode(_session_dict(turns=turns), dossier)
        assert tag == "unresolved-after-max-attempts"

    def test_build_tool_in_output_clears_retrieval_blame(self):
        dossier = {"sufficient": False}
        turns = [_turn_dict(commands=["./build-it"], output="gcc -c main.c failed")]
        tag = tag_failure_mode(_session_dict(turns=turns), dossier)
        assert tag == "unresolved-after-max-attempts"

    def test_sufficient_dossier_skips_retrieval_rule(self):
        dossier = {"sufficient": True}
        turns = [_turn_dict(commands=["ls"], output="stuff")]
        tag = tag_failure_mode(_session_dict(turns=turns), dossier)
        assert tag == "unresolved-after-max-attempts"

    def test_no_dossier_skips_retrieval_rule(self):
        turns = [_turn_dict(commands=["ls"], output="stuff")]
        tag = tag_failure_mode(_session_dict(turns=turns), None)
        assert tag == "unresolved-after-max-attempts"

    @pytest.mark.parametrize(
        "output",
        [
            "fatal error: png.h: No such file or directory",
            "/usr/bin/ld: cannot find -lssl",
            "configure: error: zlib not found",
            "CMake Error at CMakeLists.txt:4: Could NOT find ZLIB",
            "bash: ninja: command not found",
        ],
    )
    def test_dependency_signatures(self, output):
        turns = [_turn_dict(output=output)]
        assert tag_failure_mode(_session_dict(turns=turns)) == "dependency-error"

    def test_plain_failure_is_unresolved(self):
        turns = [_turn_dict(output="error: expected ';' before '}' token")]
        tag = tag_failure_mode(_session_dict(turns=turns))
        assert tag == "unresolved-after-max-attempts"

    def test_session_without_command_turns(self):
        tag = tag_failure_mode(_session_dict(turns=[]))
        assert tag == "unresolved-after-max-attempts"

    def test_all_tags_belong_to_the_taxonomy(self):
        cases = [
            (_session_dict("infra-error"), None),
            (_session_dict("protocol-error"), None),
            (_session_dict(turns=[_turn_dict(timed_out=True)]), None),
            (_session_dict(turns=[_turn_dict(commands=["ls"], output="x")]),
             {"sufficient": False}),
            (_session_dict(turns=[_turn_dict(output="cannot find -lfoo")]), None),
            (_session_dict(turns=[_turn_dict()]), None),
        ]
        for session, dossier in cases:
            assert tag_failure_mode(session, dossier) in FAILURE_MODES


class TestCompletionProbe:
    def test_object_files_do_not_trip_the_probe(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        ws = workspace_at(tmp_path)
        probe = make_completion_probe(snapshot_files(ws))
        subprocess.run(
            ["gcc", "-c", "-o", "main.o", "main.c"],
            cwd=tmp_path, check=True, capture_output=True,
        )
        assert probe(ws) is False
        subprocess.run(
            ["gcc", "-o", "app", "main.o"],
            cwd=tmp_path, check=True, capture_output=True,
        )
        assert probe(ws) is True


class TestRunOneRepo:
    def test_rule_based_fixture(self, tmp_path):
        record = fixture_record("hello_make")
        cfg = _cfg([record])
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "succeeded"
        assert summary["variant"] == "rule-based"
        assert verdict.strict is True
        assert failure is None
        assert dossier is None

    def test_agent_without_retrieval(self, tmp_path):
        record = fixture_record("hello_make")
        llm = _llm(default_reply="```bash\ncd /app/hello_make\nmake\n```")
        cfg = _cfg([record], method="agent-no-retrieval", llm=llm)
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "succeeded"
        assert summary["variant"] == "agent-no-retrieval"
        assert verdict.strict is True
        assert dossier is None

    def test_agent_verdict_reads_headers_not_the_tree(self, tmp_path, monkeypatch):
        if bytes_read() is None:
            pytest.skip("/proc/self/io is not readable")
        repo = copy_fixture_tree("hello_make", tmp_path / "hello_make")
        (repo / "assets").mkdir()
        (repo / "assets" / "data.bin").write_bytes(b"data" * (2 << 20))
        record = RepoRecord(id="fixture/hello_make", clone_url=str(repo),
                            expected_binaries=("hello",))
        reads = {}

        def measured_snapshot(*args, **kwargs):
            start = bytes_read()
            baseline = snapshot(*args, **kwargs)
            reads["baseline"] = bytes_read() - start
            return baseline

        def loop_then_mark(*args, **kwargs):
            session = loop(*args, **kwargs)
            reads["loop_end"] = bytes_read()
            return session

        def judge_from_mark(artifacts, expected):
            reads["verdict"] = bytes_read() - reads["loop_end"]
            return judge(artifacts, expected)

        snapshot, loop, judge = bench.snapshot_files, bench.run_build_loop, bench.judge
        monkeypatch.setattr(bench, "snapshot_files", measured_snapshot)
        monkeypatch.setattr(bench, "run_build_loop", loop_then_mark)
        monkeypatch.setattr(bench, "judge", judge_from_mark)
        llm = _llm(default_reply="```bash\ncd /app/hello_make\nmake\n```")
        cfg = _cfg([record], method="agent-no-retrieval", llm=llm)
        summary, verdict, failure, _ = _decoded(run_one_repo(record, cfg, tmp_path / "session"))
        assert summary["outcome"] == "succeeded"
        assert verdict.strict is True
        # the 8 MiB data file has no binary magic: neither read is near it
        assert reads["baseline"] < 1 << 20
        assert reads["verdict"] < 1 << 20

    def test_agent_with_retrieval_feeds_dossier_into_prompt(self, tmp_path):
        record = fixture_record("hello_make")
        llm = _llm(
            steps=[
                (
                    "Distill",
                    "INSTRUCTIONS:\nRun make at the repository root.\n"
                    "SUFFICIENT: yes\nLINKS:\nnone",
                ),
                (
                    "Run make at the repository root.",
                    "```bash\ncd /app/hello_make\nmake\n```",
                ),
            ],
            default_reply=None,
        )
        cfg = _cfg([record], method="agent-with-retrieval", llm=llm)
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "succeeded"
        assert verdict.strict is True
        assert dossier["sufficient"] is True
        assert dossier["instructions"] == "Run make at the repository root."
        assert dossier["rounds_used"] == 1

    def test_agent_with_retrieval_reads_the_readme_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(ws):
            calls.append(ws.repo_id)
            return read(ws)

        read = bench.read_readme
        monkeypatch.setattr(bench, "read_readme", counted)
        monkeypatch.setattr(retrieval, "read_readme", counted)
        record = fixture_record("hello_make")
        llm = _llm(
            steps=[("Distill", "INSTRUCTIONS:\nRun make.\nSUFFICIENT: yes\nLINKS:\nnone")],
            default_reply="```bash\ncd /app/hello_make\nmake\n```",
        )
        cfg = _cfg([record], method="agent-with-retrieval", llm=llm)
        summary, _, _, _ = _decoded(run_one_repo(record, cfg, tmp_path / "session"))
        assert summary["outcome"] == "succeeded"
        assert calls == [record.id]

    def test_a_link_line_too_long_for_a_file_name_is_a_missing_fetch(self, tmp_path):
        # a name over 255 bytes makes a file check raise ENAMETOOLONG
        line = "BUILD-NOTES-" * 25
        record = fixture_record("hello_make")
        llm = _llm(
            steps=[
                ("Distill", f"INSTRUCTIONS:\nRun make.\nSUFFICIENT: no\nLINKS:\n{line}"),
                ("[fetch failed: missing]",
                 "INSTRUCTIONS:\nRun make.\nSUFFICIENT: yes\nLINKS:\nnone"),
            ],
            default_reply="```bash\ncd /app/hello_make\nmake\n```",
        )
        cfg = _cfg([record], method="agent-with-retrieval", llm=llm)
        summary, verdict, _, dossier = _decoded(run_one_repo(record, cfg, tmp_path / "session"))
        assert summary["outcome"] == "succeeded"
        assert verdict.strict is True
        assert dossier["fetch_failures"] == [[line, "missing"]]

    def test_single_turn_method(self, tmp_path):
        record = fixture_record("hello_make")
        llm = _llm(default_reply="```bash\ncd /app/hello_make\nmake\n```")
        cfg = _cfg([record], method="single-turn", llm=llm)
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "succeeded"
        assert summary["variant"] == "single-turn"
        assert len(summary["turns"]) == 1
        assert verdict.strict is True

    def test_an_unexpected_error_keeps_the_single_turn_session(self, tmp_path, monkeypatch):
        # an error from the sandbox that is no RepobuildError
        def fail(handle, script):
            raise OSError("no space left on device")

        monkeypatch.setattr("repobuild.agent.exec_script", fail)
        record = fixture_record("hello_make")
        llm = _llm(default_reply="```bash\necho hi\n```")
        cfg = _cfg([record], method="single-turn", llm=llm)
        summary, verdict, failure, _ = _decoded(run_one_repo(record, cfg, tmp_path / "session"))
        assert (summary["outcome"], summary["variant"]) == ("infra-error", "single-turn")
        assert summary["max_turns"] == 1
        assert failure == "infra-error"

    def test_clone_failure_becomes_infra_error(self, tmp_path):
        record = RepoRecord(
            id="ghost/missing",
            clone_url=str(tmp_path / "no-such-repo"),
            expected_binaries=("app",),
        )
        cfg = _cfg([record])
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "infra-error"
        assert summary["error_detail"]
        assert verdict.completion is False
        assert failure == "infra-error"

    def test_scenario_running_out_in_retrieval_is_protocol_error(self, tmp_path):
        record = fixture_record("hello_make")
        cfg = _cfg([record], method="agent-with-retrieval", llm=_llm(default_reply=None))
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "protocol-error"
        assert summary["error_detail"]
        assert verdict.completion is False
        assert failure == "protocol-error"

    @pytest.mark.parametrize("method", ["agent-no-retrieval", "single-turn"])
    def test_oversize_reply_is_protocol_error(self, tmp_path, method):
        record = fixture_record("hello_make")
        llm = LlmConfig(
            backend="scripted",
            max_reply_chars=100,
            scenario=ScriptedScenario(steps=[], default_reply="```bash\nmake\n```" + "#" * 200),
        )
        cfg = _cfg([record], method=method, llm=llm)
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "protocol-error"
        assert "exceeds cap 100" in summary["error_detail"]
        assert failure == "protocol-error"

    def test_dependency_failure_tagged(self, tmp_path):
        record = fixture_record("needs_header")
        cfg = _cfg([record])
        summary, verdict, failure, dossier = _decoded(run_one_repo(
            record, cfg, tmp_path / "session"
        ))
        assert summary["outcome"] == "turn-budget-exhausted"
        assert verdict.strict is False
        assert failure == "dependency-error"


class TestRunBenchmark:
    def test_two_runs_over_fixture_corpus(self, tmp_path):
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        cfg = _cfg(records, runs=2)
        results = run_benchmark(cfg, tmp_path / "store.jsonl", tmp_path / "work")
        assert [r.run_index for r in results] == [0, 1]
        for result in results:
            assert set(result.per_repo) == {"fixture/hello_make", "fixture/hello_autotools"}
            assert all(o.verdict.strict for o in result.per_repo.values())
        report = aggregate(results)
        assert report["strict_pct"] == [100.0, 100.0]
        assert report["pass_at_k"]["1"]["strict"] == 100.0

    def test_session_dirs_laid_out_per_run(self, tmp_path):
        records = [fixture_record("hello_make")]
        cfg = _cfg(records, runs=2)
        run_benchmark(cfg, tmp_path / "store.jsonl", tmp_path / "work")
        assert (tmp_path / "work" / "run0" / "fixture" / "hello_make").is_dir()
        assert (tmp_path / "work" / "run1" / "fixture" / "hello_make").is_dir()

    def test_ids_alike_after_a_slash_swap_get_their_own_session_dirs(self, tmp_path):
        # a/b__c and a__b/c would share run0/a__b__c if "/" became "__"
        records = [fixture_record("hello_make")._replace(id=rid) for rid in ("a/b__c", "a__b/c")]
        results = run_benchmark(_cfg(records), tmp_path / "store.jsonl", tmp_path / "work")
        assert {rid: o.verdict.strict for rid, o in results[0].per_repo.items()} == {
            "a/b__c": True, "a__b/c": True,
        }
        assert aggregate(results)["completion_pct"] == [100.0]
        assert (tmp_path / "work" / "run0" / "a" / "b__c" / "b__c").is_dir()
        assert (tmp_path / "work" / "run0" / "a__b" / "c" / "c").is_dir()

    def test_backslash_in_an_id_does_not_end_its_sessions(self, tmp_path):
        # the session dir run0/fix\1/hello_make reaches every command's /app
        records = [fixture_record("hello_make")._replace(id=rid)
                   for rid in ("fixture/hello_make", "fix\\1/hello_make")]
        results = run_benchmark(_cfg(records), tmp_path / "store.jsonl", tmp_path / "work")
        assert {rid: o.verdict.strict for rid, o in results[0].per_repo.items()} == {
            "fixture/hello_make": True, "fix\\1/hello_make": True,
        }
        assert aggregate(results)["completion_pct"] == [100.0]

    def test_parallel_execution_matches_serial(self, tmp_path):
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        cfg = _cfg(records, runs=1, parallelism=2)
        results = run_benchmark(cfg, tmp_path / "store.jsonl", tmp_path / "work")
        assert len(results) == 1
        assert all(o.verdict.strict for o in results[0].per_repo.values())

        serial = run_benchmark(
            _cfg(records, runs=1, parallelism=1),
            tmp_path / "serial.jsonl",
            tmp_path / "work-serial",
        )
        assert emit_report(aggregate(results), "machine", cfg.method) == emit_report(
            aggregate(serial), "machine", cfg.method
        )

        def _per_repo(run):
            return {
                repo: (o.verdict, o.failure_mode, o.session["outcome"])
                for repo, o in run.per_repo.items()
            }

        assert _per_repo(results[0]) == _per_repo(serial[0])

    def test_resume_skips_completed_repos(self, tmp_path):
        records = [fixture_record("hello_make"), fixture_record("hello_cmake")]
        cfg = _cfg(records, runs=1)
        store_path = tmp_path / "store.jsonl"
        run_benchmark(cfg, store_path, tmp_path / "work")
        lines = store_path.read_text().splitlines()
        assert len(lines) == 2

        # keep only the first record and plant a sentinel proving it survives
        first = json.loads(lines[0])
        first["session"]["fix_attempts"] = 4242
        store2 = tmp_path / "store2.jsonl"
        store2.write_text(json.dumps(first, sort_keys=True) + "\n")
        results = run_benchmark(cfg, store2, tmp_path / "work2")
        assert len(store2.read_text().splitlines()) == 2
        done = results[0].per_repo[first["repo"]]
        assert done.fix_attempts == 4242

    def test_crash_resume_rebuilds_in_flight_repo(self, tmp_path):
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        cfg = _cfg(records, runs=1)
        store_path = tmp_path / "store.jsonl"
        results_full = run_benchmark(cfg, store_path, tmp_path / "work")
        report_full = emit_report(aggregate(results_full), "machine", cfg.method)

        # simulate a crash mid-append: second record torn, session dir left dirty
        lines = store_path.read_text().splitlines()
        store2 = tmp_path / "store2.jsonl"
        store2.write_text(lines[0] + "\n" + lines[1][:40])
        torn_repo = json.loads(lines[1])["repo"]
        leftover = tmp_path / "work2" / "run0" / torn_repo
        leftover.mkdir(parents=True)
        (leftover / "half-cloned.txt").write_text("crashed here\n")

        results = run_benchmark(cfg, store2, tmp_path / "work2")
        assert set(results[0].per_repo) == {r.id for r in records}
        assert all(o.verdict.strict for o in results[0].per_repo.values())
        report_resumed = emit_report(aggregate(results), "machine", cfg.method)
        assert report_resumed == report_full

        # recomputing from the persisted store alone is bit-identical
        recomputed = emit_report(
            aggregate(load_results(store2)), "machine", cfg.method
        )
        assert recomputed == report_resumed

    def test_clearing_a_session_dir_clears_a_jail_never_destroyed(self, tmp_path, local_spec):
        record = fixture_record("hello_make")
        ws, _ = bench._materialize(record, tmp_path / "session")
        # a killed run destroys no sandbox
        jail = create_sandbox(local_spec, ws)._jail
        assert jail.is_dir()
        bench._materialize(record, tmp_path / "session")
        assert not jail.exists()

    def test_return_equals_reload_of_a_damaged_store(self, tmp_path):
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        cfg = _cfg(records, runs=2)
        full = tmp_path / "full.jsonl"
        run_benchmark(cfg, full, tmp_path / "work")
        lines = full.read_text("utf-8").splitlines()
        assert len(lines) == 4

        # blank lines, a torn record in the middle and an unterminated torn tail
        store = tmp_path / "store.jsonl"
        store.write_text(
            "\n" + lines[0] + "\n\n" + lines[1][:30] + "\n" + lines[2] + "\n \n" + lines[3][:50],
            "utf-8",
        )
        stored = {(r.run_index, repo) for r in load_results(store) for repo in r.per_repo}
        results = run_benchmark(cfg, store, tmp_path / "work2")
        reloaded = load_results(store)
        assert [sorted(r.per_repo) for r in results] == [sorted(r.id for r in records)] * 2
        assert _view(results) == _view(reloaded, stored)
        assert emit_report(aggregate(results), "machine", cfg.method) == emit_report(
            aggregate(reloaded), "machine", cfg.method
        )

    def test_records_another_writer_appends_are_returned(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        ResultStore(store_path).append(_record(0, "a/done"))
        other = ResultStore(store_path)

        def run_and_append_elsewhere(record, cfg, session_dir, prepared, run_idx):
            other.append(_record(0, "other/writer", output="from another process"))
            return _finished(run_idx, record.id)

        monkeypatch.setattr("repobuild.bench.run_one_repo", run_and_append_elsewhere)
        cfg = _cfg([RepoRecord(id="a/done", clone_url="unused"),
                    RepoRecord(id="a/todo", clone_url="unused")])
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        assert list(results[0].per_repo) == ["a/done", "other/writer", "a/todo"]
        assert _view(results) == _view(load_results(store_path), {(0, "a/done")})

    def test_store_rewritten_shorter_during_the_run(self, tmp_path, monkeypatch):
        store_path = tmp_path / "store.jsonl"
        for i in range(3):
            ResultStore(store_path).append(_record(0, f"a/done{i}"))

        def compact_then_run(record, cfg, session_dir, prepared, run_idx):
            store_path.write_text(json.dumps(_record(0, "a/done1")) + "\n")
            return _finished(run_idx, record.id)

        monkeypatch.setattr("repobuild.bench.run_one_repo", compact_then_run)
        cfg = _cfg([RepoRecord(id="a/todo", clone_url="unused")])
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        assert list(results[0].per_repo) == ["a/done1", "a/todo"]
        assert _view(results) == _view(load_results(store_path))

    @pytest.mark.parametrize("left", [1, 0], ids=["appends", "nothing-left"])
    def test_unterminated_torn_tail_is_logged_once(self, tmp_path, monkeypatch, caplog, left):
        def run(record, cfg, session_dir, prepared, run_idx):
            return _finished(run_idx, record.id)

        monkeypatch.setattr("repobuild.bench.run_one_repo", run)
        records = [RepoRecord(id=f"a/r{i}", clone_url="unused") for i in range(2 + left)]
        cfg = _cfg(records)
        lines = [json.dumps(_record(0, r.id), sort_keys=True) for r in records[:2]]
        clean, torn = tmp_path / "clean.jsonl", tmp_path / "torn.jsonl"
        clean.write_text("".join(line + "\n" for line in lines))
        torn.write_text(clean.read_text() + lines[0][:60])
        expected = run_benchmark(cfg, clean, tmp_path / "work-clean")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repobuild.bench"):
            results = run_benchmark(cfg, torn, tmp_path / "work-torn")
        assert [r.getMessage() for r in caplog.records] == [f"skipping torn record in {torn}"]
        assert _view(results) == _view(expected)
        assert emit_report(aggregate(results), "machine", cfg.method) == emit_report(
            aggregate(expected), "machine", cfg.method
        )
        assert len(torn.read_text().splitlines()) == 3 + left

    def test_torn_line_inside_the_store_is_logged_once(self, tmp_path, caplog):
        line = json.dumps(_record(0, "a/done"), sort_keys=True)
        store = tmp_path / "store.jsonl"
        store.write_text(line[:60] + "\n" + line + "\n")
        cfg = _cfg([RepoRecord(id="a/done", clone_url="unused")])
        with caplog.at_level(logging.WARNING, logger="repobuild.bench"):
            results = run_benchmark(cfg, store, tmp_path / "work")
        assert [r.getMessage() for r in caplog.records] == [f"skipping torn record in {store}"]
        assert list(results[0].per_repo) == ["a/done"]

    @staticmethod
    def _store_with_nothing_left(tmp_path, monkeypatch):
        """A store of 100 repos x 2 runs with 105 KiB outputs, and a config
        whose every (run, repo) is in it."""
        records = [RepoRecord(id=f"big/r{i}", clone_url="unused") for i in range(100)]
        store_path = tmp_path / "store.jsonl"
        store = ResultStore(store_path)
        for run in range(2):
            for record in records:
                store.append(_record(run, record.id, output="x" * (105 << 10)))
        assert store_path.stat().st_size >= 20 << 20

        def must_not_run(*args):
            raise AssertionError("every record is already in the store")

        monkeypatch.setattr("repobuild.bench.run_one_repo", must_not_run)
        return _cfg(records, runs=2), store_path

    def test_resume_with_nothing_left_reads_the_store_once(self, tmp_path, monkeypatch):
        cfg, store_path = self._store_with_nothing_left(tmp_path, monkeypatch)
        size = store_path.stat().st_size
        before = bytes_read()
        if before is None:
            pytest.skip("/proc/self/io is not readable")
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        read = bytes_read() - before
        assert [len(r.per_repo) for r in results] == [100, 100]
        assert read < 1.2 * size

    def test_resume_holds_no_stored_transcript(self, tmp_path, monkeypatch):
        cfg, store_path = self._store_with_nothing_left(tmp_path, monkeypatch)
        tracemalloc.start()
        try:
            results = run_benchmark(cfg, store_path, tmp_path / "work")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(r.per_repo) for r in results] == [100, 100]
        # holding every output would take over 20 MiB; one at a time, a few
        assert peak < 4 << 20

    def test_resume_decodes_no_stored_transcript(self, tmp_path, monkeypatch):
        cfg, store_path = self._store_with_nothing_left(tmp_path, monkeypatch)
        parsed = []
        loads = json.loads

        def measured_loads(text, *args, **kwargs):
            parsed.append(len(text))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(bench.json, "loads", measured_loads)
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        assert [len(r.per_repo) for r in results] == [100, 100]
        assert len(parsed) == 200
        # each stored line holds a 105 KiB output; without it, under 1 KiB
        assert max(parsed) < 1 << 10

    def test_existing_keys_holds_no_stored_transcript(self, tmp_path, monkeypatch):
        _, store_path = self._store_with_nothing_left(tmp_path, monkeypatch)
        tracemalloc.start()
        try:
            keys = ResultStore(store_path).existing_keys()
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert keys == {(run, f"big/r{i}") for run in range(2) for i in range(100)}
        assert peak < 4 << 20

    def test_stored_records_come_back_without_turns_and_new_ones_whole(
        self, tmp_path, monkeypatch
    ):
        store_path = tmp_path / "store.jsonl"
        ResultStore(store_path).append(_record(0, "a/done", output="stored transcript"))
        fresh = _session_dict("succeeded", turns=[_turn_dict(output="fresh transcript")])

        def run_fresh(record, cfg, session_dir, prepared, run_idx):
            return _finished(run_idx, record.id, fresh)

        monkeypatch.setattr("repobuild.bench.run_one_repo", run_fresh)
        cfg = _cfg([RepoRecord(id="a/done", clone_url="unused"),
                    RepoRecord(id="a/todo", clone_url="unused")])
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        [reloaded] = load_results(store_path)
        done, todo = results[0].per_repo["a/done"], results[0].per_repo["a/todo"]
        assert done.session is None and done.dossier is None
        assert done == _as_resumed(reloaded.per_repo["a/done"])
        assert todo == reloaded.per_repo["a/todo"]
        assert todo.session == fresh


def _masked(record):
    """A store record without the per-command seconds, which vary by run."""
    record = json.loads(json.dumps(record))
    for turn in record["session"]["turns"]:
        if turn["per_command"]:
            turn["per_command"] = [[cmd, code] for cmd, code, _seconds in turn["per_command"]]
    return record


def _store_lines(path):
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()]


class TestLookAhead:
    """Workspaces prepared in the background while earlier sessions run."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_records_and_report_equal_the_one_at_a_time_harness(self, tmp_path, parallelism):
        # written by the harness that prepared each workspace inline
        saved = FIXTURES / "bench"
        expected = [_masked(r) for r in _store_lines(saved / "hello_pair_runs2_store.jsonl")]
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        cfg = _cfg(records, runs=2, parallelism=parallelism)
        store_path = tmp_path / "store.jsonl"
        results = run_benchmark(cfg, store_path, tmp_path / "work")
        got = [_masked(r) for r in _store_lines(store_path)]
        if parallelism == 1:
            assert got == expected
        else:
            key = lambda r: (r["run"], r["repo"])  # noqa: E731
            assert sorted(got, key=key) == sorted(expected, key=key)
        report = emit_report(aggregate(results), "machine", cfg.method)
        assert report == (saved / "hello_pair_runs2_report.json").read_text("utf-8")

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_clone_failure_prepared_ahead_is_the_inline_infra_error(self, tmp_path, parallelism):
        ghost = RepoRecord(id="ghost/missing", clone_url=str(tmp_path / "no-such-repo"),
                           expected_binaries=("app",))
        records = [fixture_record("hello_make"), ghost, fixture_record("hello_autotools")]
        cfg = _cfg(records, parallelism=parallelism)
        store_path = tmp_path / "store.jsonl"
        run_benchmark(cfg, store_path, tmp_path / "work")
        by_repo = {r["repo"]: r for r in _store_lines(store_path)}
        assert set(by_repo) == {r.id for r in records}

        inline = run_one_repo(ghost, cfg, tmp_path / "inline")
        summary = inline["session"]
        assert summary["outcome"] == "infra-error"
        assert "clone of" in summary["error_detail"]
        assert by_repo["ghost/missing"]["session"] == summary
        assert by_repo["ghost/missing"]["verdict"] == inline["verdict"]
        assert by_repo["ghost/missing"]["failure_mode"] == inline["failure_mode"] == "infra-error"
        for neighbour in ("fixture/hello_make", "fixture/hello_autotools"):
            assert by_repo[neighbour]["session"]["outcome"] == "succeeded"
            assert by_repo[neighbour]["verdict"]["strict"] is True

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_at_most_parallelism_workspaces_wait_ahead(self, tmp_path, monkeypatch, parallelism):
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        store_path = tmp_path / "store.jsonl"
        ResultStore(store_path).append(_record(1, "fixture/hello_make"))
        work = tmp_path / "work"
        jobs = [work / f"run{run}" / r.id
                for run in range(3) for r in records if (run, r.id) != (1, "fixture/hello_make")]
        lock = threading.Lock()
        prepared, started, finished, problems = [], [], [], []
        second_prepared = threading.Event()

        def counting_prepare(record, session_dir):
            with lock:
                prepared.append(session_dir)
                # at most `parallelism` sessions run, and as many wait prepared
                if len(prepared) - len(finished) > 2 * parallelism:
                    problems.append(f"{len(prepared)} prepared, {len(finished)} finished")
            if session_dir == jobs[1]:
                second_prepared.set()
            return prepare(record, session_dir)

        def counting_session(record, cfg, session_dir, prepared_ws=None, run_idx=0):
            with lock:
                started.append(session_dir)
                if len(started) - len(finished) > parallelism:
                    problems.append(f"{len(started)} started, {len(finished)} finished")
            if session_dir == jobs[0] and not second_prepared.wait(timeout=30):
                problems.append("the next workspace was not prepared during the first session")
            try:
                return session(record, cfg, session_dir, prepared_ws, run_idx)
            finally:
                with lock:
                    finished.append(session_dir)

        prepare, session = bench.prepare_workspace, bench.run_one_repo
        monkeypatch.setattr(bench, "prepare_workspace", counting_prepare)
        monkeypatch.setattr(bench, "run_one_repo", counting_session)
        results = run_benchmark(_cfg(records, runs=3, parallelism=parallelism),
                                store_path, work)
        assert problems == []
        # each session that ran was prepared once, and nothing already stored
        assert sorted(prepared) == sorted(started) == sorted(jobs)
        assert len(store_path.read_text("utf-8").splitlines()) == 6
        assert [len(r.per_repo) for r in results] == [2, 2, 2]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_usage_error_in_a_session_propagates_and_stops_every_thread(
        self, tmp_path, monkeypatch, parallelism
    ):
        def refuse_autotools(ws, spec, probe):
            if ws.repo_id == "fixture/hello_autotools":
                raise UsageError("refused")
            return build(ws, spec, probe)

        build = bench.build_with_rules
        monkeypatch.setattr(bench, "build_with_rules", refuse_autotools)
        records = [fixture_record("hello_make"), fixture_record("hello_autotools")]
        store_path = tmp_path / "store.jsonl"
        threads = threading.active_count()
        with pytest.raises(UsageError, match="refused"):
            run_benchmark(_cfg(records, runs=2, parallelism=parallelism),
                          store_path, tmp_path / "work")
        assert threading.active_count() == threads
        stored = [(r["run"], r["repo"]) for r in _store_lines(store_path)]
        assert (0, "fixture/hello_autotools") not in stored
        if parallelism == 1:
            # no session starts after the one that raised
            assert stored == [(0, "fixture/hello_make")]


class TestComputeMetrics:
    """The per-run rows of ``aggregate``: rates over the repo count of the
    largest run, and the mean fix attempts of each run."""

    def test_percentages_over_manifest_size(self):
        result = RunResult(
            run_index=0,
            per_repo={
                "a": _outcome(True, True, True, fix=2),
                "b": _outcome(True, False, True, fix=4),
                "c": _outcome(False, False, False, fix=0),
            },
        )
        # a run of four repos sets the denominator
        largest = RunResult(run_index=1, per_repo={r: _outcome() for r in "abcd"})
        report = aggregate([result, largest])
        assert report["completion_pct"][0] == 50.0
        assert report["strict_pct"][0] == 25.0
        assert report["flexible_pct"][0] == 50.0
        assert report["mean_fix_attempts"][0] == 2.0

    def test_empty_run(self):
        largest = RunResult(run_index=1, per_repo={r: _outcome() for r in "abcde"})
        report = aggregate([RunResult(run_index=0), largest])
        assert report["completion_pct"][0] == 0.0
        assert report["mean_fix_attempts"][0] == 0.0


class TestPassAtK:
    """``aggregate``'s pass@k: the share of repos meeting a criterion in at
    least one of the first k runs in run order."""

    def _results(self):
        return [
            RunResult(run_index=0, per_repo={
                "a": _outcome(strict=True, flexible=True),
                "b": _outcome(),
            }),
            RunResult(run_index=1, per_repo={
                "a": _outcome(),
                "b": _outcome(strict=True, flexible=True),
            }),
        ]

    def test_union_over_first_k_runs(self):
        pass_at = aggregate(self._results())["pass_at_k"]
        assert pass_at["1"]["strict"] == 50.0
        assert pass_at["2"]["strict"] == 100.0

    def test_run_order_is_chronological_not_list_order(self):
        results = list(reversed(self._results()))
        assert aggregate(results)["pass_at_k"]["1"]["strict"] == 50.0

    def test_flexible_criterion(self):
        assert aggregate(self._results())["pass_at_k"]["2"]["flexible"] == 100.0

    def test_no_repos_gives_zero(self):
        assert aggregate([RunResult(run_index=0)])["pass_at_k"] == {
            "1": {"strict": 0.0, "flexible": 0.0}
        }


class TestAggregate:
    def test_rows_and_pass_at_k_per_run(self):
        results = [
            RunResult(run_index=0, per_repo={
                "a": _outcome(True, True, True),
                "b": _outcome(failure="timeout"),
            }),
            RunResult(run_index=1, per_repo={
                "a": _outcome(failure="dependency-error"),
                "b": _outcome(True, True, True, fix=3),
            }),
        ]
        report = aggregate(results)
        assert report["strict_pct"] == [50.0, 50.0]
        assert report["mean_fix_attempts"] == [0.0, 1.5]
        assert set(report["pass_at_k"]) == {"1", "2"}
        assert report["pass_at_k"]["2"] == {"strict": 100.0, "flexible": 100.0}
        assert report["failure_mode_histogram"] == {
            "timeout": 1,
            "dependency-error": 1,
        }

    def test_empty_results(self):
        report = aggregate([])
        assert report["completion_pct"] == []
        assert report["pass_at_k"] == {}
        assert report["failure_mode_histogram"] == {}


class TestEmitReport:
    def _report(self):
        return aggregate([
            RunResult(run_index=0, per_repo={
                "a": _outcome(True, True, True),
                "b": _outcome(failure="timeout"),
            }),
        ])

    def test_machine_format_is_stable_json(self):
        text = emit_report(self._report(), "machine", method="rule-based")
        doc = json.loads(text)
        assert doc["method"] == "rule-based"
        assert doc["strict_pct"] == [50.0]
        assert doc["pass_at_k"]["1"]["strict"] == 50.0
        assert doc["failure_mode_histogram"] == {"timeout": 1}
        assert emit_report(self._report(), "machine", method="rule-based") == text

    def test_table_format_sections(self):
        text = emit_report(self._report(), "table")
        assert "| run | completion % | strict % | flexible % | fix attempts |" in text
        assert "| 1 | 50.0 | 50.0 | 50.0 | 0.0 |" in text
        assert "| k | pass@k strict % | pass@k flexible % |" in text
        assert "| timeout | 1 |" in text

    def test_eleven_runs_list_pass_at_k_in_numeric_order(self):
        results = [
            RunResult(run_index=i, per_repo={"a": _outcome(strict=i == 10, flexible=True)})
            for i in range(11)
        ]
        table = emit_report(aggregate(results), "table")
        ks = [line.split(" | ")[0].lstrip("| ") for line in
              table.split("| k | pass@k strict % | pass@k flexible % |\n")[1].splitlines()[1:]]
        assert ks == [str(k) for k in range(1, 12)]
        assert "| 10 | 0.0 | 100.0 |" in table
        assert "| 11 | 100.0 | 100.0 |" in table
        doc = json.loads(emit_report(aggregate(results), "machine"))
        assert sorted(doc["pass_at_k"], key=int) == [str(k) for k in range(1, 12)]
        assert doc["pass_at_k"]["11"] == {"strict": 100.0, "flexible": 100.0}

    def test_two_empty_runs_have_no_rows_and_zero_pass_at_k(self):
        doc = json.loads(emit_report(
            aggregate([RunResult(run_index=0), RunResult(run_index=1)]), "machine"
        ))
        for name in ("completion_pct", "strict_pct", "flexible_pct", "mean_fix_attempts"):
            assert doc[name] == []
        assert doc["pass_at_k"] == {
            "1": {"strict": 0.0, "flexible": 0.0},
            "2": {"strict": 0.0, "flexible": 0.0},
        }
        assert doc["failure_mode_histogram"] == {}

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError, match="format"):
            emit_report(self._report(), "yaml")
