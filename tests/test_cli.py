import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repobuild
from repobuild import cli, errors, workspace
from repobuild.cli import (
    _COMMANDS,
    _sandbox_spec,
    build_parser,
    load_config_file,
    load_scenario_file,
    main,
)
from repobuild.bench import load_results
from repobuild.corpus import load_manifest
from repobuild.errors import RepobuildError, UsageError
from repobuild.workspace import save_snapshot, snapshot_files

from conftest import FIXTURES, REPOS, copy_fixture_tree, workspace_at

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(repobuild.__file__).resolve().parent.parent
SUBCOMMANDS = ["build", "bench", "retrieve", "snapshot", "validate", "predict-targets",
               "plan-sample", "sample"]


def _write_manifest(tmp_path, names_and_expected):
    lines = []
    for name, expected in names_and_expected:
        lines.append(json.dumps({
            "id": f"fixture/{name}",
            "clone_url": str(REPOS / name),
            "expected_binaries": expected,
        }))
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _not_utf8_product_repo(tmp_path):
    """A repository whose Makefile builds a binary named b"h\\xff"."""
    repo = copy_fixture_tree("hello_make", tmp_path / "repo")
    (repo / "Makefile").write_text("all:\n\tcc -o \"$$(printf 'h\\377')\" hello.c\n")
    return repo


def _scenario_file(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParsing:
    def test_top_level_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "repobuild" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert sub in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["plan-sample", "--zz", "1"]) == 2

    def test_unknown_method_rejected_by_parser(self, capsys):
        rc = main(["build", "x", "--method", "psychic"])
        assert rc == 2

    def test_parser_lists_all_subcommands(self):
        text = build_parser().format_help()
        for sub in SUBCOMMANDS:
            assert sub in text

    def test_readme_documents_exactly_the_subcommands(self):
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        mentioned = set(re.findall(r"\brepobuild ([a-z][a-z-]*)", README.read_text("utf-8")))
        assert mentioned == set(subparsers.choices) == set(_COMMANDS)


class TestConfigLoading:
    def test_no_path_is_empty(self):
        assert load_config_file(None) == {}

    def test_valid_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"llm": {"temperature": 0.0}}')
        assert load_config_file(str(path)) == {"llm": {"temperature": 0.0}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_config_file(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(UsageError, match="not valid"):
            load_config_file(str(path))

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(UsageError, match="must be an object, got"):
            load_config_file(str(path))


class TestScenarioLoading:
    def test_none_path(self):
        assert load_scenario_file(None) is None

    def test_steps_and_default(self, tmp_path):
        path = _scenario_file(tmp_path, {
            "steps": [
                {"match": "hello", "reply": "world"},
                {"match": "nu.?mber", "reply": "42", "regex": True},
            ],
            "default_reply": "fallback",
        })
        scenario = load_scenario_file(str(path))
        assert scenario.resolve("say hello there") == "world"
        assert scenario.resolve("the nuXmber is") == "42"
        assert scenario.resolve("anything else") == "fallback"

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="not found"):
            load_scenario_file(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("not json")
        with pytest.raises(UsageError, match="not valid"):
            load_scenario_file(str(path))

    @pytest.mark.parametrize("doc, message", [
        ([{"match": "a", "reply": "b"}], "must be an object, got"),
        ({"steps": {"match": "a", "reply": "b"}}, "steps must be a list"),
        ({"steps": ["hello"]}, 'steps must be a list of objects, got ["hello"]'),
        ({"steps": [{"match": "a", "reply": "b"}, {"reply": "b"}]},
         "step 1: match must be a string, got null"),
        ({"steps": [{"match": "a", "reply": 5}]}, "step 0: reply must be a string, got 5"),
        ({"steps": [{"match": "(", "reply": "b", "regex": True}]}, "step 0 match is not a valid regex"),
        ({"default_reply": 5}, "default_reply must be a string or null"),
        ({"steps": [{"match": "(", "reply": "b", "regex": "false"}]},
         'step 0: regex must be true or false, got "false"'),
    ], ids=["not-an-object", "steps-not-a-list", "step-not-an-object", "no-match",
            "reply-not-a-string", "bad-regex", "default-reply-not-a-string",
            "regex-not-a-bool"])
    def test_malformed_scenario_is_a_usage_error(self, tmp_path, capsys, doc, message):
        ws_dir = copy_fixture_tree("pred_direct", tmp_path / "repo")
        scenario = _scenario_file(tmp_path, doc)
        rc = main(["predict-targets", str(ws_dir), "--llm", "--scenario", str(scenario)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err
        assert message in err


class TestPlanSample:
    def test_documented_population(self, capsys):
        rc = main([
            "plan-sample", "--z", "1.96", "--e", "0.05", "--p", "0.5",
            "--population", "6568809",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n0: 384.16" in out
        assert "required_n: 385" in out

    def test_json_output(self, capsys):
        rc = main([
            "plan-sample", "--z", "1.96", "--e", "0.05", "--p", "0.5",
            "--population", "6568809", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n0"] == pytest.approx(384.16, abs=0.01)
        assert doc["required_n"] == 385

    def test_domain_error_is_usage_error(self, capsys):
        rc = main([
            "plan-sample", "--z", "-1", "--e", "0.05", "--p", "0.5",
            "--population", "100",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--z", "nan"), ("--z", "inf"), ("--z", "1e200"), ("--z", "1e-200"), ("--e", "1e-200"),
    ])
    def test_value_past_the_float_range_is_usage_error(self, capsys, flag, value):
        values = {"--z": "1.96", "--e": "0.05", "--p": "0.5", "--population": "100", flag: value}
        rc = main(["plan-sample", *(arg for pair in values.items() for arg in pair)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: confidence z") and str(float(value)) in err

    @pytest.mark.parametrize("z, e, population, required_n", [
        ("1.96", "0.05", "1" + "0" * 12, 385),
        ("1.96", "0.05", "1" + "0" * 400, 385),
        ("1e-10", "0.05", "1", 1),
        ("0.007", "0.5", "1", 1),
    ], ids=["population-1e12", "population-1e400", "population-1-z-1e-10", "population-1-z-0.007"])
    def test_population_of_any_size_gets_its_answer(self, capsys, z, e, population,
                                                     required_n):
        rc = main(["plan-sample", "--z", z, "--e", e, "--p", "0.5",
                   "--population", population, "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["required_n"] == required_n


class TestBuild:
    def test_rule_based_build_succeeds(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--expected", "hello", "--require-strict",
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcome: succeeded" in out
        assert "strict: True" in out
        assert "binary: hello" in out

    def test_a_binary_name_that_is_not_utf8_is_printed_escaped(self, tmp_path, capsys):
        repo = _not_utf8_product_repo(tmp_path)
        assert main(["build", str(repo), "--sandbox-backend", "local"]) == 0
        assert "binary: h\\udcff" in capsys.readouterr().out.splitlines()

    def test_a_binary_name_that_is_not_utf8_prints_through_a_utf8_stdout(self, tmp_path):
        # a real process, whose stdout encodes strictly as PYTHONIOENCODING says
        repo = _not_utf8_product_repo(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run([sys.executable, "-c", "from repobuild.cli import entry; entry()",
                               "build", str(repo), "--sandbox-backend", "local"],
                              cwd=tmp_path, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert b"binary: h\\udcff" in proc.stdout.splitlines()

    def test_json_build_report(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--expected", "hello", "--json",
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run"] == 0
        assert doc["repo"] == "local/hello_make"
        assert doc["session"]["outcome"] == "succeeded"
        assert doc["verdict"]["strict"] is True
        assert doc["failure_mode"] is None
        assert doc["dossier"] is None
        assert "hello" in [a["rel_path"] for a in doc["verdict"]["new_binaries"]]

    def test_json_build_report_is_the_store_record(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        store = tmp_path / "store.jsonl"
        assert main([
            "bench", "--manifest", str(manifest), "--store", str(store),
            "--work-dir", str(tmp_path / "work"), "--sandbox-backend", "local",
        ]) == 0
        capsys.readouterr()
        assert main([
            "build", str(REPOS / "hello_make"), "--id", "fixture/hello_make",
            "--expected", "hello", "--json", "--sandbox-backend", "local",
        ]) == 0
        built = json.loads(capsys.readouterr().out)
        stored = json.loads(store.read_text("utf-8"))

        def shape(doc):
            # keys all the way down; timings and outputs may differ
            if isinstance(doc, dict):
                return {k: shape(v) for k, v in doc.items()}
            if isinstance(doc, list):
                return [shape(v) for v in doc]
            return type(doc).__name__

        assert shape(built) == shape(stored)
        for key in ("run", "repo", "verdict", "failure_mode", "dossier"):
            assert built[key] == stored[key]

    def test_strict_gate_fails_on_wrong_name(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--expected", "ghost", "--require-strict",
            "--sandbox-backend", "local",
        ])
        assert rc == 1

    def test_completion_gate_passes_despite_wrong_name(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--expected", "ghost",
            "--sandbox-backend", "local",
        ])
        assert rc == 0

    def test_unbuildable_repo_fails(self, capsys):
        rc = main([
            "build", str(REPOS / "needs_header"),
            "--expected", "app",
            "--sandbox-backend", "local",
        ])
        assert rc == 1
        assert "failure_mode: dependency-error" in capsys.readouterr().out

    def test_explicit_id_overrides_default(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"), "--id", "team/renamed",
            "--json", "--sandbox-backend", "local",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["repo"] == "team/renamed"

    def test_local_dot_source_is_named_after_its_directory(self, tmp_path, capsys,
                                                            monkeypatch):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "mine")
        monkeypatch.chdir(ws_dir)
        rc = main(["build", ".", "--expected", "hello", "--require-strict", "--json",
                   "--sandbox-backend", "local"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["repo"] == "local/mine"
        assert doc["session"]["outcome"] == "succeeded"

    def test_id_without_a_slash_is_usage_error(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"), "--id", "noslash",
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_agent_method_with_scenario_file(self, tmp_path, capsys):
        scenario = _scenario_file(tmp_path, {
            "default_reply": "```bash\ncd /app/hello_make\nmake\n```",
        })
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--method", "agent-no-retrieval",
            "--scenario", str(scenario),
            "--expected", "hello", "--require-strict",
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        assert "fix_attempts: 0" in capsys.readouterr().out

    def test_work_dir_keeps_session(self, tmp_path, capsys):
        work = tmp_path / "session"
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--work-dir", str(work),
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        assert (work / "hello_make" / "hello").exists()

    def test_work_dir_naming_a_file_is_usage_error(self, tmp_path, capsys):
        work = tmp_path / "not-a-dir"
        work.write_text("")
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--work-dir", str(work),
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: work dir {work} cannot be made")

    def test_work_dir_that_is_not_empty_is_usage_error(self, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "leftover").write_text("kept\n")
        rc = main(["build", str(REPOS / "hello_make"), "--work-dir", str(work),
                   "--sandbox-backend", "local"])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: session dir {work} is not empty\n")
        assert [(p.name, p.read_text()) for p in work.iterdir()] == [("leftover", "kept\n")]

    def test_bad_sandbox_flags_are_usage_error(self, capsys):
        rc = main([
            "build", str(REPOS / "hello_make"),
            "--sandbox-backend", "local",
            "--per-command-timeout", "100", "--total-timeout", "50",
        ])
        assert rc == 2
        assert "sandbox" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["Infinity", "1e300", "2592000", "NaN"])
    @pytest.mark.parametrize("source", ["config", "flags"])
    def test_timeout_past_a_week_is_usage_error(self, tmp_path, capsys, source, value):
        # a wait past about 24.8 days overflows poll's timeout; Infinity and
        # 1e300 overflow before it, and NaN is in no range
        work, cfg = tmp_path / "work", tmp_path / "cfg.json"
        argv = ["build", str(REPOS / "hello_make"), "--method", "rule-based",
                "--sandbox-backend", "local", "--work-dir", str(work)]
        if source == "flags":
            argv += ["--per-command-timeout", value, "--total-timeout", value]
        else:
            cfg.write_text('{"sandbox": {"per_command_timeout": %s, "total_timeout": %s}}'
                           % (value, value))
            argv = ["--config", str(cfg), *argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "per_command_timeout must be seconds in (0, 604800], got " in err
        assert (str(cfg) in err) == (source == "config")
        assert not work.exists()

    @pytest.mark.parametrize("env", ['{"A": "\\ud800"}', '{"A=B": "x"}', '{"A": "x\\u0000"}'],
                             ids=["lone-surrogate", "equals-in-name", "nul"])
    def test_config_env_the_os_cannot_take_is_usage_error(self, tmp_path, capsys, env):
        work, cfg = tmp_path / "work", tmp_path / "cfg.json"
        cfg.write_text('{"sandbox": {"env": %s}}' % env)
        rc = main(["--config", str(cfg), "build", str(REPOS / "hello_make"),
                   "--sandbox-backend", "local", "--work-dir", str(work)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(cfg) in err and "env must be a map of strings to strings" in err
        assert not work.exists()

    def test_bad_llm_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"llm": {"backend": "psychic"}}')
        rc = main([
            "--config", str(cfg),
            "build", str(REPOS / "hello_make"),
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        assert "llm" in capsys.readouterr().err


class TestBench:
    def test_fixture_manifest_table(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [
            ("hello_make", ["hello"]),
            ("hello_autotools", ["hat"]),
        ])
        rc = main([
            "bench", "--manifest", str(manifest),
            "--store", str(tmp_path / "store.jsonl"),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| run | completion % | strict % | flexible % | fix attempts |" in out
        assert "| 1 | 100.0 | 100.0 | 100.0 | 0.0 |" in out
        assert (tmp_path / "store.jsonl").exists()

    def test_machine_report(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        rc = main([
            "bench", "--manifest", str(manifest),
            "--store", str(tmp_path / "store.jsonl"),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
            "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "rule-based"
        assert doc["strict_pct"] == [100.0]
        assert doc["pass_at_k"]["1"]["strict"] == 100.0

    def test_table_over_the_fixture_store_is_the_saved_one(self, tmp_path, capsys):
        saved = FIXTURES / "bench"
        store = tmp_path / "store.jsonl"
        store.write_bytes((saved / "hello_pair_runs2_store.jsonl").read_bytes())
        manifest = _write_manifest(tmp_path, [
            ("hello_make", ["hello"]),
            ("hello_autotools", ["hat"]),
        ])
        rc = main([
            "bench", "--manifest", str(manifest), "--runs", "2",
            "--store", str(store),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (saved / "hello_pair_runs2_table.txt").read_text("utf-8")
        # the machine report is the saved one, less the newline print adds
        assert main(["bench", "--manifest", str(manifest), "--runs", "2", "--store", str(store),
                     "--work-dir", str(tmp_path / "work"), "--sandbox-backend", "local",
                     "--json"]) == 0
        assert capsys.readouterr().out == (saved / "hello_pair_runs2_report.json").read_text(
            "utf-8") + "\n"
        assert store.read_bytes() == (saved / "hello_pair_runs2_store.jsonl").read_bytes()

    def test_config_env_of_the_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"sandbox": {"env": {"A": 1}}}')
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        store = tmp_path / "store.jsonl"
        rc = main([
            "--config", str(cfg), "bench", "--manifest", str(manifest),
            "--store", str(store), "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and 'env must be a map of strings to strings' in err
        assert not store.exists()

    def test_reply_holding_a_lone_surrogate_is_stored(self, tmp_path, capsys):
        # json.loads accepts the escape of a lone surrogate in a scenario file
        reply = "cannot build \ud800 terminate"
        scenario = _scenario_file(tmp_path, {"default_reply": reply})
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        store = tmp_path / "store.jsonl"
        rc = main([
            "bench", "--manifest", str(manifest), "--method", "single-turn",
            "--scenario", str(scenario), "--store", str(store),
            "--work-dir", str(tmp_path / "work"), "--sandbox-backend", "local",
        ])
        assert rc == 0
        [line] = store.read_bytes().splitlines()
        line.decode("utf-8")
        [result] = load_results(store)
        turns = result.per_repo["fixture/hello_make"].session["turns"]
        assert reply in [turn["agent_reply_raw"] for turn in turns]

    def test_record_id_naming_no_directory_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({
            "id": "own/..", "clone_url": str(REPOS / "hello_make"),
        }) + "\n")
        rc = main([
            "bench", "--manifest", str(manifest),
            "--store", str(tmp_path / "store.jsonl"),
            "--work-dir", str(tmp_path / "w"),
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        assert "own/.." in capsys.readouterr().err
        assert not (tmp_path / "store.jsonl").exists()

    @pytest.mark.parametrize("field, value", [
        ("id", "own/\ud800"), ("clone_url", str(REPOS / "hello_make") + "\0"),
    ], ids=["surrogate-id", "nul-clone-url"])
    def test_record_value_the_os_cannot_take_is_usage_error(self, tmp_path, capsys,
                                                            field, value):
        manifest, store, work = tmp_path / "m.jsonl", tmp_path / "s.jsonl", tmp_path / "w"
        record = {"id": "own/hello", "clone_url": str(REPOS / "hello_make"), field: value}
        manifest.write_text(json.dumps(record) + "\n")
        rc = main(["bench", "--manifest", str(manifest), "--store", str(store),
                   "--work-dir", str(work), "--sandbox-backend", "local"])
        assert rc == 2
        assert f"{manifest}:1: {field} must be a string the OS can take" in capsys.readouterr().err
        assert not store.exists() and not work.exists()

    def test_record_id_holding_a_file_name_byte_is_built(self, tmp_path, capsys):
        # U+DCFF is how Python reads the byte 0xFF of a file name that is not UTF-8
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "own/\udcff", "clone_url": str(REPOS / "hello_make"),
                                        "expected_binaries": ["hello"]}) + "\n")
        rc = main(["bench", "--manifest", str(manifest), "--store", str(tmp_path / "s.jsonl"),
                   "--work-dir", str(tmp_path / "w"), "--sandbox-backend", "local", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["strict_pct"] == [100.0]

    @pytest.mark.parametrize("bad", [
        "[1, 2]",
        '"x"',
        '{"run": 0}',
        {"run": "0"},
        {"run": True},
        {"repo": 7},
        {"session": []},
        {"verdict": None},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "new_binaries": []}},
        {"verdict": {"completion": "yes", "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": []}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [1], "new_binaries": []}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": [{"rel_path": "hello"}]}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": [{
                         "rel_path": "hello", "file_name": "hello",
                         "classify": "no-such-class", "has_debug_info": True}]}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": [{
                         "rel_path": 5, "file_name": "hello",
                         "classify": "executable", "has_debug_info": True}]}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": [{
                         "rel_path": "hello", "file_name": None,
                         "classify": "executable", "has_debug_info": True}]}},
        {"verdict": {"completion": True, "strict": True, "flexible": True,
                     "matched_names": [], "new_binaries": [{
                         "rel_path": "hello", "file_name": "hello",
                         "classify": "executable", "has_debug_info": "yes"}]}},
        {"failure_mode": 3},
        {"dossier": []},
    ], ids=["list", "string", "run-only", "string-run", "bool-run", "int-repo",
            "list-session", "null-verdict", "no-matched-names", "string-completion",
            "int-matched-name", "short-binary", "unknown-binary-class",
            "int-binary-path", "null-binary-name", "string-debug-info",
            "int-failure-mode", "list-dossier"])
    def test_store_line_that_is_not_a_record_is_usage_error(self, tmp_path, capsys, bad):
        # a stored record of the manifest's one repo, then the bad line: a
        # literal one, or that record for run 1 with some fields replaced
        stored = (FIXTURES / "bench" / "hello_pair_runs2_store.jsonl").read_text("utf-8")
        good = json.loads(stored.splitlines()[0])
        if isinstance(bad, dict):
            bad = json.dumps({**good, "run": 1, **bad})
        store = tmp_path / "store.jsonl"
        store.write_text(json.dumps(good) + "\n" + bad + "\n", "utf-8")
        before = store.read_bytes()
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        rc = main([
            "bench", "--manifest", str(manifest), "--runs", "2",
            "--store", str(store),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
        ])
        assert rc == 2
        assert f"{store}:2: not a stored record" in capsys.readouterr().err
        assert store.read_bytes() == before
        assert not (tmp_path / "work").exists()

    def test_report_covers_only_the_manifests_repos(self, tmp_path, capsys):
        # the store holds the manifest's one repo, built, and another repo
        # that failed in run 0 and is the only repo of run 1
        stored = (FIXTURES / "bench" / "hello_pair_runs2_store.jsonl").read_text("utf-8")
        mine, other = (json.loads(line) for line in stored.splitlines()[:2])
        assert (mine["repo"], other["repo"]) == ("fixture/hello_make", "fixture/hello_autotools")
        other["verdict"] = {**other["verdict"], "completion": False, "strict": False,
                            "flexible": False, "matched_names": [], "new_binaries": []}
        store = tmp_path / "store.jsonl"
        store.write_text("".join(json.dumps(r) + "\n" for r in
                                 (mine, other, {**other, "run": 1})), "utf-8")
        manifest = _write_manifest(tmp_path, [("hello_make", ["hello"])])
        rc = main([
            "bench", "--manifest", str(manifest),
            "--store", str(store),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
            "--json",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (doc["completion_pct"], doc["strict_pct"]) == ([100.0], [100.0])
        assert list(doc["pass_at_k"]) == ["1"]
        assert "leaves out 2 stored records of repos not in the manifest" in captured.err
        assert len(store.read_text("utf-8").splitlines()) == 3

    def test_report_covers_only_the_runs_asked_for(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        store.write_bytes((FIXTURES / "bench" / "hello_pair_runs2_store.jsonl").read_bytes())
        before = store.read_bytes()
        manifest = _write_manifest(tmp_path, [
            ("hello_make", ["hello"]),
            ("hello_autotools", ["hat"]),
        ])
        rc = main([
            "bench", "--manifest", str(manifest), "--runs", "1",
            "--store", str(store),
            "--work-dir", str(tmp_path / "work"),
            "--sandbox-backend", "local",
            "--json",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["completion_pct"]) == 1
        assert list(doc["pass_at_k"]) == ["1"]
        assert "leaves out 1 stored run beyond --runs 1" in captured.err
        assert store.read_bytes() == before

    def test_resumes_over_one_store(self, tmp_path, capsys):
        pair = _write_manifest(tmp_path, [("hello_make", ["hello"]), ("hello_autotools", ["hat"])])
        one, store = tmp_path / "one.jsonl", tmp_path / "s.jsonl"
        one.write_text(pair.read_text().splitlines()[0] + "\n")

        def bench(manifest, store, *flags, work="w"):
            rc = main(["bench", "--manifest", str(manifest), "--method", "rule-based",
                       "--sandbox-backend", "local", "--store", str(store),
                       "--work-dir", str(tmp_path / work), "--json", *flags])
            return (rc, *capsys.readouterr())

        # the second bench resumes from the store with nothing left to run
        rc, report, _ = bench(pair, store)
        assert rc == 0 and bench(pair, store)[:2] == (0, report)
        assert store.read_bytes().count(b"\n") == 2
        # a one-repo manifest over the two-repo store reports that repo alone,
        # as a store of its record alone does, and names the record left out
        rc, mine_report, note = bench(one, store)
        assert rc == 0 and "leaves out 1 stored record of repos not in the manifest" in note
        mine = tmp_path / "mine.jsonl"
        mine.write_bytes(b"".join(line for line in store.read_bytes().splitlines(True)
                                  if b'"repo": "fixture/hello_make"' in line))
        assert mine.read_bytes().count(b"\n") == 1
        assert bench(one, mine)[:2] == (0, mine_report)
        # a resume over a torn tail, as a crash mid-append leaves it
        with store.open("ab") as fh:
            fh.write(store.read_bytes()[:300])
        assert bench(pair, store)[:2] == (0, report)
        assert store.read_bytes().count(b"\n") == 2
        # a line that parses but is not a record, after the torn line it ends,
        # and a record whose fix_attempts is not a count are usage errors, as
        # is a work dir a file stands in for; each leaves its store as it was
        good = store.read_bytes()
        (tmp_path / "bad.jsonl").write_bytes(good + b"\n[1, 2]\n")
        fix = re.sub(rb'"fix_attempts": [0-9]*', b'"fix_attempts": "3"', good, count=1)
        assert b'"fix_attempts": "3"' in fix.splitlines()[0]
        (tmp_path / "fix.jsonl").write_bytes(fix)
        (tmp_path / "not-a-dir").touch()
        for name, flags, work, why in (
            ("bad.jsonl", (), "w", "bad.jsonl:4: not a stored record: record must be"),
            ("fix.jsonl", (), "w", 'fix.jsonl:1: not a stored record: session: fix_attempts'),
            ("s.jsonl", ("--runs", "2"), "not-a-dir", "not-a-dir cannot be made"),
        ):
            before = (tmp_path / name).read_bytes()
            rc, _, err = bench(pair, tmp_path / name, *flags, work=work)
            assert rc == 2 and err.startswith("error: ") and why in err
            assert (tmp_path / name).read_bytes() == before

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        rc = main([
            "bench", "--manifest", str(tmp_path / "absent.jsonl"),
            "--store", str(tmp_path / "store.jsonl"),
            "--work-dir", str(tmp_path / "work"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRetrieve:
    def test_prints_dossier(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        scenario = _scenario_file(tmp_path, {
            "default_reply": (
                "INSTRUCTIONS:\nJust run make.\nSUFFICIENT: yes\nLINKS:\nnone"
            ),
        })
        rc = main(["retrieve", str(ws_dir), "--scenario", str(scenario)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sufficient: True" in out
        assert "rounds_used: 1" in out
        assert "Just run make." in out

    def test_json_dossier(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        scenario = _scenario_file(tmp_path, {
            "default_reply": (
                "INSTRUCTIONS:\nJust run make.\nSUFFICIENT: yes\nLINKS:\nnone"
            ),
        })
        rc = main(["retrieve", str(ws_dir), "--scenario", str(scenario), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sufficient"] is True
        assert doc["instructions"] == "Just run make."
        assert doc["visited"] == []

    def test_json_dossier_records_the_round_of_each_link(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        scenario = _scenario_file(tmp_path, {
            "default_reply": (
                "INSTRUCTIONS:\nSee the readme.\nSUFFICIENT: no\nLINKS:\nREADME.md"
            ),
        })
        rc = main(["retrieve", str(ws_dir), "--scenario", str(scenario), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["visited"] == [{"kind": "internal-file", "target": "README.md", "round": 1}]
        assert set(doc) == {"instructions", "sufficient", "rounds_used", "visited",
                            "fetch_failures"}

    @pytest.mark.parametrize("links, field, expected", [
        ("x" * 300, "fetch_failures", [["x" * 300, "missing"]]),
        ("See the wiki for the details\nMakefile", "visited",
         [{"kind": "internal-file", "target": "Makefile", "round": 1}]),
    ], ids=["too-long-for-a-file-name", "prose-beside-a-path"])
    def test_links_line_that_names_no_readable_file(self, tmp_path, capsys, links, field,
                                                    expected):
        scenario = _scenario_file(tmp_path, {
            "default_reply": f"INSTRUCTIONS:\nRun make.\n\nSUFFICIENT: no\n\nLINKS:\n{links}",
        })
        rc = main(["retrieve", str(REPOS / "hello_make"), "--scenario", str(scenario), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)[field] == expected

    def test_nondirectory_workspace_is_usage_error(self, tmp_path, capsys):
        rc = main(["retrieve", str(tmp_path / "nowhere")])
        assert rc == 2


class TestValidate:
    def _prepared(self, tmp_path):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        ws = workspace_at(ws_dir, repo_id="local/repo")
        before_path = tmp_path / "before.json"
        save_snapshot(snapshot_files(ws), before_path)
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        return ws_dir, before_path

    def test_scan_now_against_before(self, tmp_path, capsys):
        ws_dir, before_path = self._prepared(tmp_path)
        rc = main([
            "validate", "--workspace", str(ws_dir),
            "--before", str(before_path),
            "--expected", "hello", "--require-strict",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strict: True" in out
        assert "binary: hello (executable)" in out

    def test_a_binary_name_that_is_not_utf8_is_printed_escaped(self, tmp_path, capsys):
        ws_dir = _not_utf8_product_repo(tmp_path)
        before_path = tmp_path / "before.json"
        save_snapshot(snapshot_files(workspace_at(ws_dir)), before_path)
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        assert main(["validate", "--workspace", str(ws_dir), "--before", str(before_path)]) == 0
        assert "binary: h\\udcff (executable)" in capsys.readouterr().out.splitlines()

    def test_before_saved_by_the_full_hash_version_gives_the_same_json(
        self, tmp_path, capsys
    ):
        # the snapshot and the expected output were both written by the
        # version whose validate hashed the whole tree
        saved = FIXTURES / "validate"
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        os.symlink("hello", ws_dir / "hello.link")
        os.symlink("/bin/true", ws_dir / "outside")
        with open(ws_dir / "README.md", "a") as fh:
            fh.write("more\n")
        argv = [
            "validate", "--workspace", str(ws_dir),
            "--before", str(saved / "hello_make_before.json"),
            "--expected", "hello,hello.link", "--json",
        ]
        assert main(argv) == 0
        live = capsys.readouterr().out
        assert live == (saved / "hello_make_validate.json").read_text("utf-8")

    def test_saved_snapshot_gives_the_json_of_the_one_in_memory(
        self, tmp_path, capsys, monkeypatch
    ):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        shutil.copy2(ws_dir / "hello", ws_dir / "kept")
        shutil.copy2(ws_dir / "hello", ws_dir / "touched")
        # out of the racy window, so the in-memory baseline trusts their stat
        time.sleep(2 * workspace._RACY_MARGIN_NS / 1e9)
        before = snapshot_files(workspace_at(ws_dir))
        before_path = tmp_path / "before.json"
        save_snapshot(before, before_path)
        subprocess.run(["make", "-B", "CFLAGS=-O0"], cwd=ws_dir, check=True,
                       capture_output=True)
        os.utime(ws_dir / "touched")
        os.symlink("hello", ws_dir / "hello.link")
        with open(ws_dir / "README.md", "a") as fh:
            fh.write("more\n")
        argv = ["validate", "--workspace", str(ws_dir), "--before", str(before_path),
                "--expected", "hello,hello.link,kept", "--json"]
        assert main(argv) == 0
        saved = capsys.readouterr().out
        monkeypatch.setattr(cli, "load_snapshot", lambda path: before)
        assert main(argv) == 0
        assert capsys.readouterr().out == saved
        assert json.loads(saved)["matched_names"] == ["hello", "hello.link"]

    def test_snapshot_with_and_without_taken_at_gives_the_same_json(self, tmp_path, capsys):
        # older versions wrote a "taken_at" timestamp beside the entries
        saved = json.loads((FIXTURES / "validate" / "hello_make_before.json").read_text("utf-8"))
        assert "taken_at" in saved
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        printed = []
        for doc in (saved, {"entries": saved["entries"]}):
            before = tmp_path / "before.json"
            before.write_text(json.dumps(doc), "utf-8")
            assert main(["validate", "--workspace", str(ws_dir), "--before", str(before),
                         "--expected", "hello", "--json"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert json.loads(printed[0])["matched_names"] == ["hello"]

    def test_partial_match_fails_strict_gate(self, tmp_path, capsys):
        ws_dir, before_path = self._prepared(tmp_path)
        rc = main([
            "validate", "--workspace", str(ws_dir),
            "--before", str(before_path),
            "--expected", "hello,ghost", "--require-strict", "--json",
        ])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["strict"] is False
        assert doc["flexible"] is True
        assert doc["matched_names"] == ["hello"]

    def test_no_new_binaries_fails(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        before_path = tmp_path / "before.json"
        save_snapshot(snapshot_files(workspace_at(ws_dir)), before_path)
        rc = main([
            "validate", "--workspace", str(ws_dir),
            "--before", str(before_path),
        ])
        assert rc == 1

    def test_coverage_of_a_debug_build(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("coverage_repo", tmp_path / "repo")
        before_path = tmp_path / "before.json"
        assert main(["snapshot", str(ws_dir), "--out", str(before_path)]) == 0
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        argv = ["validate", "--workspace", str(ws_dir), "--before", str(before_path)]
        capsys.readouterr()
        assert main(argv + ["--json"]) == 0
        coverage = json.loads(capsys.readouterr().out)["function_coverage"]
        assert coverage["undefined"] is False
        assert coverage["coverage_pct"] == pytest.approx(100.0 * 2 / 3)
        assert coverage["top_uncompiled_dirs"] == [["tests", 1]]
        assert main(argv) == 0
        assert "coverage: 66.7%" in capsys.readouterr().out.splitlines()

    def test_coverage_undefined_without_debug_info(self, tmp_path, capsys):
        ws_dir, before_path = self._prepared(tmp_path)
        assert main(["validate", "--workspace", str(ws_dir), "--before", str(before_path)]) == 0
        assert "coverage: undefined" in capsys.readouterr().out.splitlines()

    def test_missing_snapshot_is_usage_error(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        rc = main([
            "validate", "--workspace", str(ws_dir),
            "--before", str(tmp_path / "absent.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("entry", [
        [1], "abc", [1, None], [1, None, False, 0], [True, None, False],
        [1.5, None, False], [1, 7, False], [1, None, 0], None,
    ])
    def test_unusable_snapshot_entry_is_usage_error(self, tmp_path, capsys, entry):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        before = tmp_path / "before.json"
        before.write_text(json.dumps({"entries": {"hello.c": entry}, "taken_at": "t"}))
        rc = main(["validate", "--workspace", str(ws_dir), "--before", str(before)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(before) in err and "'hello.c'" in err


class TestSnapshot:
    def test_cli_snapshot_validates_like_the_python_one(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        cli_path, py_path = tmp_path / "cli.json", tmp_path / "py.json"
        assert main(["snapshot", str(ws_dir), "--out", str(cli_path)]) == 0
        assert capsys.readouterr().out == "files: 3\n"
        save_snapshot(snapshot_files(workspace_at(ws_dir)), py_path)
        cli_doc, py_doc = (json.loads(p.read_text("utf-8")) for p in (cli_path, py_path))
        assert cli_doc["entries"] == py_doc["entries"]
        # only a file with a binary magic has a digest, and there is none before make
        assert all(digest is None for _size, digest, _exec in cli_doc["entries"].values())
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        outputs = []
        for before in (cli_path, py_path):
            assert main(["validate", "--workspace", str(ws_dir), "--before", str(before),
                         "--expected", "hello", "--require-strict", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "function_coverage" in json.loads(outputs[0])

    def test_snapshot_hashes_exactly_the_files_with_a_magic(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        subprocess.run(["make"], cwd=ws_dir, check=True, capture_output=True)
        out = tmp_path / "snap.json"
        assert main(["snapshot", str(ws_dir), "--out", str(out)]) == 0
        entries = json.loads(out.read_text("utf-8"))["entries"]
        digests = {rel: digest for rel, (_size, digest, _exec) in entries.items()}
        assert digests["hello"] == hashlib.sha256((ws_dir / "hello").read_bytes()).hexdigest()
        assert digests == {"hello": digests["hello"], "Makefile": None, "README.md": None,
                           "hello.c": None}

    def test_nondirectory_is_usage_error(self, tmp_path, capsys):
        rc = main(["snapshot", str(tmp_path / "nowhere"), "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err



class TestSample:
    MANIFEST = FIXTURES / "corpus" / "manifest.jsonl"

    def _sample(self, tmp_path, n, seed, name="out.jsonl"):
        out = tmp_path / name
        rc = main(["sample", "--manifest", str(self.MANIFEST), "--n", str(n),
                   "--seed", str(seed), "--out", str(out)])
        return rc, out

    def test_writes_a_seeded_sample(self, tmp_path, capsys):
        rc, out = self._sample(tmp_path, 3, 11)
        assert rc == 0
        records = load_manifest(out).records
        assert capsys.readouterr().out.split() == [r.id for r in records]
        assert len(records) == 3
        by_id = {r.id: r for r in load_manifest(self.MANIFEST).records}
        assert all(r == by_id[r.id] for r in records)
        _, again = self._sample(tmp_path, 3, 11, name="again.jsonl")
        assert again.read_bytes() == out.read_bytes()
        _, one = self._sample(tmp_path, 1, 1, name="one.jsonl")
        assert one.read_bytes().count(b"\n") == 1

    @pytest.mark.parametrize("n", [0, 9])
    def test_size_outside_the_manifest_is_usage_error(self, tmp_path, capsys, n):
        rc, out = self._sample(tmp_path, n, 1)
        assert rc == 2
        assert "cannot sample" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_holding_a_lone_surrogate_is_sampled(self, tmp_path, capsys):
        manifest, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        manifest.write_text('{"id": "a/b", "clone_url": "u", "expected_binaries": ["\\ud800"]}\n',
                            "utf-8")
        rc = main(["sample", "--manifest", str(manifest), "--n", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert load_manifest(out).records == load_manifest(manifest).records
        assert load_manifest(out).records[0].expected_binaries == ("\ud800",)

    def test_mistyped_manifest_field_is_usage_error(self, tmp_path, capsys):
        manifest, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        manifest.write_text('{"id": 5, "clone_url": "u"}\n', "utf-8")
        rc = main(["sample", "--manifest", str(manifest), "--n", "1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert f"{manifest}:1: id must be a string" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_usage_error(self, tmp_path, capsys):
        rc = main(["sample", "--manifest", str(tmp_path / "absent.jsonl"), "--n", "1",
                   "--seed", "1", "--out", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert "manifest file not found" in capsys.readouterr().err


class TestPredictTargets:
    def test_rule_based_names(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("pred_direct", tmp_path / "repo")
        rc = main(["predict-targets", str(ws_dir)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "app"
        assert main(["predict-targets", str(REPOS / "pred_direct"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["names"] == ["app"]

    def test_json_with_evidence(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("pred_var", tmp_path / "repo")
        rc = main(["predict-targets", str(ws_dir), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["names"] == ["mytool"]
        assert doc["evidence"]["mytool"][0] == "Makefile"

    def test_llm_refinement(self, tmp_path, capsys):
        ws_dir = copy_fixture_tree("pred_direct", tmp_path / "repo")
        scenario = _scenario_file(tmp_path, {"default_reply": "NAMES:\nextra\napp"})
        rc = main([
            "predict-targets", str(ws_dir), "--llm", "--scenario", str(scenario),
        ])
        assert rc == 0
        assert capsys.readouterr().out.split() == ["extra", "app"]
        # numbered names are cleaned
        _scenario_file(tmp_path, {"default_reply": "NAMES:\n1. app"})
        assert main(["predict-targets", str(ws_dir), "--llm", "--scenario", str(scenario),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["names"] == ["app"]


class TestErrorMapping:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main([
            "--config", str(tmp_path / "absent.json"),
            "plan-sample", "--z", "1.96", "--e", "0.05", "--p", "0.5",
            "--population", "100",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, command", [
        ('"llm": null', ["retrieve", str(REPOS / "hello_make")]),
        ('"llm": "ab"', ["retrieve", str(REPOS / "hello_make")]),
        ('"sandbox": [1, 2]', ["build", str(REPOS / "hello_make")]),
        pytest.param('"llm": {"request_timeout": -1}', ["retrieve", str(REPOS / "hello_make")],
                     id="llm-request-timeout-negative"),
    ])
    def test_config_section_that_is_no_object_is_usage_error(
        self, tmp_path, capsys, section, command
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + section + "}")
        rc = main(["--config", str(cfg), *command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(cfg) in err and section.split(":")[0].strip('"') in err

    @pytest.mark.parametrize("argv", [
        ["snapshot", str(REPOS / "hello_make")],
        ["sample", "--manifest", str(FIXTURES / "corpus" / "manifest.jsonl"),
         "--n", "1", "--seed", "1"],
    ])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, argv):
        rc = main(argv + ["--out", str(tmp_path / "no" / "out.json")])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_repobuild_errors_map_to_one(self, tmp_path, capsys, monkeypatch):
        # a live-backend transport failure is an action failure, not misuse
        monkeypatch.delenv("REPOBUILD_LLM_BASE_URL", raising=False)
        monkeypatch.delenv("REPOBUILD_LLM_API_KEY", raising=False)
        ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"llm": {"backend": "live", "max_retries": 0}}')
        rc = main(["--config", str(cfg), "retrieve", str(ws_dir)])
        assert rc == 1
        assert "failed:" in capsys.readouterr().err


class TestOneDefinition:
    def test_every_error_class_is_importable_from_the_package(self):
        classes = {name: cls for name, cls in vars(errors).items()
                   if isinstance(cls, type) and issubclass(cls, RepobuildError)}
        assert classes.keys() == {"RepobuildError", "UsageError", "ProtocolError"}
        for name, cls in classes.items():
            assert getattr(repobuild, name) is cls

    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--sandbox-backend", "local", "backend", "local"),
        ("--base-image", "img:1", "base_image", "img:1"),
        ("--per-command-timeout", "5", "per_command_timeout", 5.0),
        ("--total-timeout", "5000", "total_timeout", 5000.0),
        ("--output-cap", "77", "output_cap_bytes", 77),
    ])
    def test_each_sandbox_flag_sets_its_spec_field(self, flag, value, field, expected):
        for sub in ("build", "bench"):
            argv = [sub, "src"] if sub == "build" else [
                sub, "--manifest", "m", "--store", "s", "--work-dir", "w"]
            spec = _sandbox_spec(build_parser().parse_args([*argv, flag, value]), {})
            assert getattr(spec, field) == expected


def _loaded_by_cli_import(modules):
    """Which of ``modules`` a fresh interpreter holds after ``import repobuild.cli``."""
    code = (
        "import sys, repobuild.cli\n"
        f"print(' '.join(m for m in {list(modules)!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def _unusable_path(tmp_path, kind):
    path = tmp_path / f"bad-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "in-a-missing-directory":
        path = path / "store.jsonl"
    else:
        path.write_bytes({
            "not-utf8": b'{"x": "caf\xe9"}',
            "not-json": b"not json",
            "entries-not-an-object": b'{"entries": 3}',
            # past the 4,300 digits Python converts to an int
            "number-too-long": b'{"llm": {"max_retries": ' + b"1" * 5000 + b"}}",
            "file": b"",
        }[kind])
    return path


class TestUnusableInputs:
    @pytest.mark.parametrize("flag, kind", [
        ("--config", "directory"),
        ("--config", "not-utf8"),
        ("--scenario", "directory"),
        ("--scenario", "not-utf8"),
        ("--manifest", "directory"),
        ("--manifest", "not-utf8"),
        ("--store", "directory"),
        ("--store", "in-a-missing-directory"),
        ("--work-dir", "file"),
        ("--before", "not-json"),
        ("--before", "entries-not-an-object"),
        ("--config", "number-too-long"),
        ("--scenario", "number-too-long"),
        ("--manifest", "number-too-long"),
        ("--before", "number-too-long"),
    ])
    def test_is_a_usage_error_naming_it_before_any_session(self, tmp_path, capsys,
                                                           flag, kind):
        bad = str(_unusable_path(tmp_path, kind))
        store = tmp_path / "store.jsonl"
        stored = (FIXTURES / "bench" / "hello_pair_runs2_store.jsonl").read_text("utf-8")
        store.write_text(stored.splitlines()[0] + "\n", "utf-8")
        before = store.read_bytes()
        if flag == "--before":
            ws_dir = copy_fixture_tree("hello_make", tmp_path / "repo")
            argv = ["validate", "--workspace", str(ws_dir), "--before", bad]
        else:
            paths = {
                "--manifest": str(_write_manifest(tmp_path, [("hello_make", ["hello"])])),
                "--store": str(store),
                "--work-dir": str(tmp_path / "work"),
            }
            if flag != "--config":
                paths[flag] = bad
            argv = ["bench", "--runs", "2", "--sandbox-backend", "local",
                    *(arg for pair in paths.items() for arg in pair)]
            if flag == "--config":
                argv = [flag, bad, *argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and bad in err
        assert store.read_bytes() == before
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("command", ["snapshot", "retrieve", "predict-targets", "validate"])
    def test_symlink_loop_as_workspace_is_a_usage_error(self, tmp_path, capsys, command):
        loop = tmp_path / "selfloop"
        loop.symlink_to(loop.name)
        argv = {
            "snapshot": ["snapshot", str(loop), "--out", str(tmp_path / "s.json")],
            "retrieve": ["retrieve", str(loop)],
            "predict-targets": ["predict-targets", str(loop)],
            "validate": ["validate", "--workspace", str(loop),
                         "--before", str(tmp_path / "s.json")],
        }[command]
        rc = main(argv)
        assert rc == 2
        assert f"workspace path is not a directory: {loop}" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()


class TestImportFootprint:
    def test_cli_import_loads_no_http_stack(self):
        # HTTP is loaded by the first live model call or URL fetch; a run that
        # makes none (rule-based, scripted, offline) must not carry it
        http_modules = ["requests", "urllib3", "http.client", "urllib.request", "ssl"]
        assert _loaded_by_cli_import(http_modules) == []

    def test_cli_import_loads_no_html_parser_uuid_or_platform(self):
        # the HTML parser is loaded by the first HTML page fetched, and a
        # script's marker comes from os.urandom, not uuid (which loads platform)
        assert _loaded_by_cli_import(["html.parser", "uuid", "platform"]) == []

    def test_cli_import_loads_no_openssl(self):
        # hashlib maps OpenSSL; it is loaded by the first digest, and a run
        # over source trees may take none
        assert _loaded_by_cli_import(["hashlib", "_hashlib"]) == []

    def test_cli_import_loads_no_datetime(self):
        # a snapshot holds no timestamp, and nothing else reads the clock's date
        assert _loaded_by_cli_import(["datetime"]) == []
