"""Seeded fuzz test of the input files: each case puts one mutated value into
a valid config, scenario, snapshot, manifest or store and runs ``cli.main``
in-process. Every case exits 0, 1 or 2 with no exception escaping, and an
exit 2 names the file. A config that loads runs ``true`` through
``exec_script`` on the local backend. A failing case prints its input, so
it can be kept as a plain regression test."""

import json
import random

import pytest

from repobuild import bench
from repobuild.cli import main
from repobuild.corpus import load_manifest
from repobuild.sandbox import CommandScript, create_sandbox, exec_script

from conftest import FIXTURES, REPOS, copy_fixture_tree, workspace_at

CASES = 80  # per input file, so 400 in all
VALUES = [
    None, True, False, -1, 0, 1e308, 10**30, float("inf"), float("-inf"), float("nan"),
    "\ud800", "x" * 5000, "", [], {}, [None], ["\ud800"], {"": 0}, {"a": []},
]
# values only the OS refuses, put into a manifest's id and clone_url after
# the seeded cases: a lone surrogate, which no encoding takes, and a NUL
OS_REFUSED = {"id": ["own/\ud800", "own/x\0"], "clone_url": ["\ud800", "x\0"]}
STORE = FIXTURES / "bench" / "hello_pair_runs2_store.jsonl"

CONFIG = {
    "llm": {"backend": "live", "model_name": "m", "temperature": 0.5,
            "max_reply_chars": 1000, "request_timeout": 5.0, "max_retries": 0},
    "sandbox": {"backend": "local", "base_image": "img", "env": {"A": "b"},
                "per_command_timeout": 10.0, "total_timeout": 20.0, "output_cap_bytes": 4096},
}
SCENARIO = {
    "steps": [{"match": "Makefile", "reply": "NAMES:\napp", "regex": False},
              {"match": "a+", "reply": "NAMES:\nb", "regex": True}],
    "default_reply": "NAMES:\napp",
}
SNAPSHOT = {"taken_at": "t", "entries": {"hello.c": [10, "ab", False], "Makefile": [5, None, True]}}
MANIFEST = [
    {"id": "fixture/hello_make", "clone_url": str(REPOS / "hello_make"), "commit": None,
     "description": "d", "stargazers": 3, "is_fork": False, "expected_binaries": ["hello"],
     "instruction_url": None, "languages": ["C"]},
    {"id": "fixture/hello_autotools", "clone_url": str(REPOS / "hello_autotools")},
]


def _paths(value, path=()):
    """The path of every value inside ``value``, itself included; a
    session's transcript is one value, not a tree."""
    yield path
    if path[-1:] == ("turns",):
        return
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, (*path, key))


def _mutated(doc, rng):
    """A copy of ``doc`` with one value, picked by ``rng``, replaced by one of
    ``VALUES``, and where it went."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice([p for p in _paths(doc) if p])
    value = rng.choice(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc, path, value


def _fake_session(record, cfg, session_dir, prepared=None, run_idx=0):
    """A build session that runs ``true`` in the configured sandbox and
    nothing else, returned as a store record."""
    root = session_dir / "repo"
    root.mkdir(parents=True)
    with create_sandbox(cfg.sandbox, workspace_at(root, record.id)) as box:
        result = exec_script(box, CommandScript(("true",)))
    ok = result.overall_exit == 0
    doc = json.loads(STORE.read_text("utf-8").splitlines()[0])
    doc.update(run=run_idx, repo=record.id)
    doc["verdict"].update(completion=ok, strict=ok, flexible=ok)
    return doc


def _run(capsys, argv, case, name):
    """``main(argv)`` as (exit code, stderr), failing with ``case`` shown when
    an exception escapes, the code is not 0, 1 or 2, or an exit 2 does not
    name the file ``name``."""
    try:
        rc = main(argv)
    except Exception as exc:
        pytest.fail(f"{case!r}: {type(exc).__name__} escaped main: {exc}")
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), f"{case!r}: exit {rc}: {err}"
    assert rc != 2 or name in err, f"{case!r}: exit 2 does not name {name}: {err}"
    return rc, err


def _cases(seed, doc):
    rng = random.Random(seed)
    return [_mutated(doc, rng) for _ in range(CASES)]


@pytest.fixture
def fake_sessions(monkeypatch):
    monkeypatch.setattr(bench, "run_one_repo", _fake_session)


def test_config(tmp_path, capsys, fake_sessions):
    for i, case in enumerate(_cases(1, CONFIG)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(case[0]), "utf-8")
        # the flag keeps a session off the container backend this host may lack
        rc, err = _run(capsys, ["--config", str(cfg), "build", str(REPOS / "hello_make"),
                                "--sandbox-backend", "local", "--work-dir", str(tmp_path / f"w{i}")],
                       case, str(cfg))
        # a config that loads runs `true` without error
        assert rc in (0, 2), f"{case!r}: exit {rc}: {err}"


def test_scenario(tmp_path, capsys):
    ws = copy_fixture_tree("pred_direct", tmp_path / "repo")
    for i, case in enumerate(_cases(2, SCENARIO)):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps(case[0]), "utf-8")
        _run(capsys, ["predict-targets", str(ws), "--llm", "--scenario", str(path)],
             case, str(path))


def test_snapshot(tmp_path, capsys):
    ws = copy_fixture_tree("hello_make", tmp_path / "repo")
    for i, case in enumerate(_cases(3, SNAPSHOT)):
        path = tmp_path / f"before{i}.json"
        path.write_text(json.dumps(case[0]), "utf-8")
        _run(capsys, ["validate", "--workspace", str(ws), "--before", str(path)],
             case, str(path))


def _os_refused_cases():
    for field, values in OS_REFUSED.items():
        for value in values:
            doc = json.loads(json.dumps(MANIFEST))
            doc[0][field] = value
            yield doc, (0, field), value


def test_manifest(tmp_path, capsys):
    for i, case in enumerate([*_cases(4, MANIFEST), *_os_refused_cases()]):
        path, out = tmp_path / f"m{i}.jsonl", tmp_path / f"out{i}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in case[0]), "utf-8")
        rc, err = _run(capsys, ["sample", "--manifest", str(path), "--n", "2", "--seed", "1",
                                "--out", str(out)], case, str(path))
        # the cases after the seeded ones are refused as the manifest loads
        assert rc == 2 or i < CASES, case
        # what loads is written back and reloads to the same records
        if rc == 0:
            assert (sorted(load_manifest(out).records, key=repr)
                    == sorted(load_manifest(path).records, key=repr)), case


def test_store(tmp_path, capsys, fake_sessions):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in MANIFEST), "utf-8")
    records = [json.loads(line) for line in STORE.read_text("utf-8").splitlines()]
    for i, case in enumerate(_cases(5, records)):
        store = tmp_path / f"store{i}.jsonl"
        store.write_text("".join(json.dumps(r) + "\n" for r in case[0]), "utf-8")
        _run(capsys, ["bench", "--manifest", str(manifest), "--runs", "2", "--json",
                      "--sandbox-backend", "local", "--store", str(store),
                      "--work-dir", str(tmp_path / f"w{i}")], case, str(store))
