"""Seeded inputs for the three workloads, and the answer the harness must give.

``generate(workload, out_dir, seed, smoke)`` writes into ``out_dir``:

* ``manifest.jsonl`` - the repositories, as ``repobuild bench --manifest``
  reads them, each pointing at a generated directory under ``repos/``;
* ``scenario.json`` - scripted model replies, in the ``--scenario`` format
  (agent workloads only);
* ``store.jsonl`` - a pre-filled result store (store-resume only);
* ``plan.json`` - the run configuration and the oracle: for every session
  the outcome, verdict, failure tag and fix attempts the harness must report,
  and for store-resume the aggregate report it must print.

The same seed gives byte-identical inputs. Sizes depend only on ``smoke``, so
every seed puts the same load on the harness.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

WORKLOADS = ("agent-bigtree", "rules-corpus", "store-resume")

# rule-based shapes this benchmark builds; CMake, Meson and QMake shapes are
# left out so the corpus needs only gcc, make and a POSIX shell
RULE_SHAPES = ("make-root", "make-subdir", "configure", "build-sh", "dual", "broken-dep", "none")
SHAPES_LEFT_OUT = {"CMake": "cmake", "Meson": "meson", "QMake": "qmake"}

_WORDS = (
    "alder", "basalt", "cobalt", "delta", "ember", "fjord", "garnet", "harbor", "indigo",
    "juniper", "kestrel", "lumen", "marble", "nectar", "onyx", "pylon", "quartz", "raven",
    "sable", "tundra", "umber", "vertex", "willow", "xenon", "yarrow", "zephyr",
)

_REMINDER_MATCH = ("Your previous reply did not follow the required format. "
                   "Reply with exactly one fenced")

_NONE_FAILURE = "unresolved-after-max-attempts"

# agent-bigtree: normal repos succeed on turn 3; one repo needs a fifth turn
# and so exhausts turns 0..4
AGENT_MAX_TURNS = 4


def generate(workload: str, out_dir: Path, seed: int, smoke: bool) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    _GENERATORS[workload](out_dir, rng, smoke)


# -- helpers --------------------------------------------------------------


def _write(path: Path, data, executable: bool = False) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    if executable:
        os.chmod(path, 0o755)


def _names(rng: random.Random, n: int) -> List[str]:
    return [f"{rng.choice(_WORDS)}{rng.randrange(100, 1000)}x{i}" for i in range(n)]


def _write_manifest(out: Path, records: List[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    _write(out / "manifest.jsonl", "\n".join(lines) + "\n")


def _record(owner: str, name: str, out: Path, expected: List[str]) -> dict:
    return {
        "id": f"{owner}/{name}",
        "clone_url": str((out / "repos" / name).resolve()),
        "expected_binaries": expected,
    }


def _c_program(rng: random.Random, name: str, include: Optional[str] = None) -> Dict[str, str]:
    """main.c plus util.c/util.h with seeded function names and constants."""
    fn = f"{rng.choice(_WORDS)}_{rng.randrange(1000)}"
    k = rng.randrange(2, 97)
    extra_include = f'#include "{include}"\n' if include else ""
    return {
        "util.h": f"int {fn}(int x);\n",
        "util.c": f'#include "util.h"\nint {fn}(int x) {{ return x * {k} + {rng.randrange(50)}; }}\n',
        "main.c": (
            f'#include <stdio.h>\n{extra_include}#include "util.h"\n'
            f'int main(void) {{ printf("{name} %d\\n", {fn}({rng.randrange(10)})); return 0; }}\n'
        ),
    }


def _scenario(steps: List[dict]) -> dict:
    return {"steps": steps, "default_reply": None}


def _bash(*commands: str) -> str:
    return "```bash\n" + "\n".join(commands) + "\n```\n"


# -- agent-bigtree --------------------------------------------------------


_AGENT_MAKEFILE = """CC = gcc
CFLAGS = -g -O0
OBJS = {objs}

build/{name}: $(OBJS)
\t$(CC) -g -o $@ $(OBJS)

build/%.o: src/%.c src/config.h | build
\t$(CC) $(CFLAGS) -Isrc -c $< -o $@

build/payload.o: src/payload.S assets/payload.bin | build
\t$(CC) -g -c $< -o $@

build:
\tmkdir -p build
"""

_PAYLOAD_ASM = """    .section .rodata
    .global payload_start
    .global payload_end
payload_start:
    .incbin "assets/payload.bin"
payload_end:
    .section .note.GNU-stack,"",@progbits
"""

_CODEGEN = """import pathlib

root = pathlib.Path(__file__).resolve().parent.parent
(root / "src" / "config.h").write_text('#define APP_NAME "{name}"\\n#define APP_TABLE {table}\\n')
for rel in (root / "tools" / "regen.list").read_text().split():
    path = root / rel
    data = path.read_bytes()
    path.write_bytes(b"regenerated\\n" + data[len(data) // 2:] + data[:len(data) // 2])
"""

_SELFTEST = """i=0
while [ $i -lt {lines} ]; do
  echo "selftest case $i: table entry {name}.$i differs from the reference value"
  i=$((i + 1))
done
exit 1
"""


def _agent_bigtree(out: Path, rng: random.Random, smoke: bool) -> None:
    n_repos = 2 if smoke else 3
    n_files = 60 if smoke else 1000
    avg_file = 4 << 10 if smoke else 64 << 10
    payload_size = 1 << 20 if smoke else 20 << 20
    notes_size = 256 << 10 if smoke else 4 << 20
    pool = rng.randbytes(1 << 20 if smoke else 4 << 20)
    names = _names(rng, n_repos)
    exhausting = rng.randrange(n_repos)
    owner = "bench-agent"

    records, sessions, steps_late, steps_early = [], {}, [], []
    for i, name in enumerate(names):
        repo_id = f"{owner}/{name}"
        root = out / "repos" / name
        exhausts = i == exhausting

        # the large tree the build never reads; codegen rewrites a share of it
        gen_files = []
        for j in range(n_files):
            rel = f"gen/d{j % 16:02d}/t{j:05d}.dat"
            size = rng.randint(avg_file // 2, avg_file * 3 // 2)
            off = rng.randrange(len(pool) - size)
            _write(root / rel, b"%s %d\n" % (name.encode(), j) + pool[off:off + size])
            gen_files.append(rel)
        regen = sorted(rng.sample(gen_files, max(1, n_files * 15 // 100)))
        payload = bytearray()
        while len(payload) < payload_size:
            off = rng.randrange(len(pool) // 2)
            payload += pool[off:off + min(len(pool) // 2, payload_size - len(payload))]
        _write(root / "assets" / "payload.bin", bytes(payload))

        # a small real C program linking the payload into its executable
        prog = _c_program(rng, name, include="config.h")
        for fname, text in prog.items():
            _write(root / "src" / fname, text)
        _write(root / "src" / "io.c", f"int io_{name}(void) {{ return {rng.randrange(99)}; }}\n")
        _write(root / "src" / "extra.c", f"int extra_{name}(void) {{ return {rng.randrange(99)}; }}\n")
        _write(root / "src" / "payload.S", _PAYLOAD_ASM)
        objs = ["build/main.o", "build/util.o", "build/io.o", "build/extra.o", "build/payload.o"]
        if exhausts:
            _write(root / "src" / "legacy.c", "int legacy(void) { return legacy_table_size; }\n")
            objs.insert(4, "build/legacy.o")
        _write(root / "Makefile", _AGENT_MAKEFILE.format(name=name, objs=" ".join(objs)))
        _write(root / "tools" / "codegen.py", _CODEGEN.format(name=name, table=rng.randrange(1, 999)))
        _write(root / "tools" / "regen.list", "\n".join(regen) + "\n")
        _write(root / "tools" / "selftest.sh", _SELFTEST.format(lines=3000, name=name))
        _write(root / "README.md", f"# {name}\n\nTable-driven tool. See docs/BUILD.md.\n")
        _write(root / "docs" / "BUILD.md",
               f"Build notes for {repo_id}\n\nRun tools/codegen.py before make.\n")
        notes, size = [], 0
        while size < notes_size:
            line = (f"- table {rng.choice(_WORDS)}.{rng.randrange(10**6)} is regenerated "
                    f"from gen/ by tools/codegen.py; see section {rng.randrange(100)}\n")
            notes.append(line)
            size += len(line)
        _write(root / "docs" / "notes.md", "".join(notes))

        records.append(_record(owner, name, out, [name]))
        app = f"/app/{name}"
        cc = "gcc -g -O0 -Isrc -c"
        turns = [
            _bash(f"cd {app}", "mkdir -p build", f"{cc} src/util.c -o build/util.o",
                  f"{cc} src/io.c -o build/io.o", f"{cc} src/main.c -o build/main.o"),
            "The header src/config.h comes from the project's code generator, "
            "which has to run before the sources compile.",
            _bash(f"cd {app}", f"{cc} src/extra.c -o build/extra.o", "sh tools/selftest.sh"),
            _bash(f"cd {app}", "make"),
        ]
        if exhausts:
            turns.append(_bash(f"cd {app}", "make"))
        feedback = re.escape(f"The build of **{repo_id}** at")
        for k in range(len(turns) - 1, 0, -1):
            steps_late.append({"match": feedback + rf".*?# commands of turn {k - 1}\n",
                               "regex": True, "reply": turns[k]})
        steps_early += [
            {"match": f"Compile the repository **{repo_id}**, cloned at", "reply": turns[0]},
            {"match": f"Build notes for {repo_id}\n", "reply":
                "INSTRUCTIONS:\nRun tools/codegen.py, then make from the repository root.\n\n"
                "SUFFICIENT: yes\n\nLINKS:\n"},
            {"match": f"compile the repository {repo_id}. Distill", "reply":
                "INSTRUCTIONS:\nBuild with make from the repository root.\n\n"
                "SUFFICIENT: no\n\nLINKS:\ndocs/BUILD.md\ndocs/notes.md\ndocs/PORTING.md\n"},
        ]
        sessions[f"0:{repo_id}"] = {
            "outcome": "turn-budget-exhausted" if exhausts else "succeeded",
            "fix_attempts": len(turns) - 1,
            "command_turns": len(turns),
            "completion": not exhausts,
            "strict": not exhausts,
            "flexible": not exhausts,
            "failure_mode": _NONE_FAILURE if exhausts else None,
            "executables": [] if exhausts else [name],
            "dossier": {"sufficient": True, "rounds_used": 2,
                        "fetch_failures": [["docs/PORTING.md", "missing"]]},
        }

    # any reminder is answered with the code-generation turn
    codegen = _bash("cd /app/*/", "python3 tools/codegen.py")
    steps = steps_late + steps_early + [{"match": _REMINDER_MATCH, "reply": codegen}]
    _write_manifest(out, records)
    _write(out / "scenario.json", json.dumps(_scenario(steps), indent=1))
    first_normal = next(r["id"] for i, r in enumerate(records) if i != exhausting)
    _write_plan(out, method="agent-with-retrieval", max_turns=AGENT_MAX_TURNS, runs=1,
                sessions=sessions, warmup_ids=[first_normal])


# -- rules-corpus ---------------------------------------------------------


_MAKEFILE = """CC = gcc
CFLAGS = -O2

{name}: main.o util.o
\t$(CC) $(CFLAGS) -o $@ main.o util.o

%.o: %.c
\t$(CC) $(CFLAGS) -c $< -o $@
"""

_CONFIGURE = """#!/bin/sh
cflags="-O2"
for arg in "$@"; do
  case "$arg" in CFLAGS=*) cflags="${arg#CFLAGS=}" ;; esac
done
echo "checking for gcc... gcc"
sed "s|@CFLAGS@|$cflags|" Makefile.in > Makefile
echo "configure: creating Makefile"
"""

_BROKEN_CONFIGURE = """#!/bin/sh
echo "checking for frobnicate... no"
echo "configure: error: frobnicate 2.0 is required" >&2
exit 1
"""


def _rules_corpus(out: Path, rng: random.Random, smoke: bool) -> None:
    per_shape = 1 if smoke else 3
    shapes = [s for s in RULE_SHAPES for _ in range(per_shape)]
    rng.shuffle(shapes)
    names = _names(rng, len(shapes))
    owner = "bench-rules"
    records, sessions = [], {}
    for shape, name in zip(shapes, names):
        root = out / "repos" / name
        include = f"{name}_dep.h" if shape == "broken-dep" else None
        prog = _c_program(rng, name, include=include)
        src = root / "src" if shape == "make-subdir" else root
        for fname, text in prog.items():
            _write(src / fname, text)
        _write(root / "README", f"{name}: a small command-line tool ({shape}).\n")
        expected = [name]
        if shape in ("make-root", "make-subdir", "broken-dep", "dual"):
            _write(src / "Makefile", _MAKEFILE.format(name=name))
        if shape == "configure":
            _write(root / "configure", _CONFIGURE, executable=True)
            _write(root / "Makefile.in", _MAKEFILE.format(name=name).replace("-O2", "@CFLAGS@"))
            expected = [name, f"{name}-tool"]  # only the first is built: flexible, not strict
        if shape == "dual":
            _write(root / "configure", _BROKEN_CONFIGURE, executable=True)
        if shape == "build-sh":
            _write(root / "build.sh", f"gcc -g -O0 -o {name} main.c util.c\n")
        records.append(_record(owner, name, out, expected))

        built = shape not in ("broken-dep", "none")
        sessions[f"0:{owner}/{name}"] = {
            "outcome": "succeeded" if built else "turn-budget-exhausted",
            "fix_attempts": 0,
            "command_turns": {"dual": 2, "none": 0}.get(shape, 1),
            "completion": built,
            "strict": built and len(expected) == 1,
            "flexible": built,
            "failure_mode": {"broken-dep": "dependency-error", "none": _NONE_FAILURE}.get(shape),
            "executables": [name] if built else [],
        }
    _write_manifest(out, records)
    _write_plan(out, method="rule-based", max_turns=12, runs=1, sessions=sessions,
                warmup_ids=None)


# -- store-resume ---------------------------------------------------------


_LOG_TEMPLATES = (
    "gcc -g -O0 -Isrc -c src/{w}_{n}.c -o build/{w}_{n}.o",
    "src/{w}_{n}.c:{n}:5: warning: unused variable '{w}' [-Wunused-variable]",
    "checking for {w}.h... yes",
    "make[{d}]: Entering directory '/app/{w}/src'",
    "  CC       lib{w}_la-{w}{n}.lo",
    "/usr/bin/ld: warning: {w}{n}.o: missing .note.GNU-stack section",
    "[{n}%] Building C object CMakeFiles/{w}.dir/src/{w}.c.o",
)


_STORE_OUTPUT_MEAN = 12 << 10


def _log_pool(rng: random.Random, n: int) -> List[str]:
    return [rng.choice(_LOG_TEMPLATES).format(w=rng.choice(_WORDS), n=rng.randrange(1, 999),
                                              d=rng.randrange(1, 4)) for _ in range(n)]


def _output(rng: random.Random, pool: List[str], size: int, cap: int) -> str:
    start = rng.randrange(len(pool))
    lines, total = [], 0
    while total < size:
        line = pool[(start + len(lines)) % len(pool)]
        lines.append(line)
        total += len(line) + 1
    text = "\n".join(lines) + "\n"
    if len(text) > cap:
        text = f"[... output truncated, {len(text) - cap} bytes omitted ...]\n" + text[-cap:]
    return text


def _stored_record(rng: random.Random, pool: List[str], run: int, repo_id: str,
                   sizes: List[int]) -> dict:
    name = repo_id.split("/")[1]
    outcome = rng.choices(
        ["succeeded", "turn-budget-exhausted", "agent-terminated", "protocol-error", "infra-error"],
        weights=[45, 30, 15, 5, 5])[0]
    n_turns = len(sizes)
    turns = []
    for k in range(n_turns):
        last = k == n_turns - 1
        ok = last and outcome == "succeeded"
        turns.append({
            "k": k,
            "kind": "command-turn",
            "agent_reply_raw": f"```bash\ncd /app/{name}\nmake -j2\n```",
            "commands": [f"cd /app/{name}", "make -j2"],
            "per_command": [[f"cd /app/{name}", 0, 0.001],
                            ["make -j2", 0 if ok else 2, round(rng.uniform(0.1, 30), 3)]],
            "output": _output(rng, pool, sizes[k], 65536),
            "overall_exit": 0 if ok else 2,
            "timed_out": False,
            "violation_note": None,
        })
    completion = outcome == "succeeded"
    strict = completion and rng.random() < 0.7
    flexible = strict or (completion and rng.random() < 0.5)
    binaries = [{"rel_path": f"build/{name}", "file_name": name, "classify": "executable",
                 "has_debug_info": True}] if completion else []
    if outcome == "succeeded":
        failure = None
    elif outcome in ("infra-error", "protocol-error"):
        failure = outcome
    else:
        failure = rng.choice(["unresolved-after-max-attempts", "dependency-error",
                              "retrieval-stage-error", "timeout"])
    return {
        "run": run,
        "repo": repo_id,
        "session": {
            "repo_id": repo_id, "variant": "agent-with-retrieval", "max_turns": 12,
            "outcome": outcome, "fix_attempts": n_turns - 1, "error_detail": None,
            "turns": turns,
        },
        "verdict": {"completion": completion, "strict": strict, "flexible": flexible,
                    "matched_names": [name] if flexible else [], "new_binaries": binaries},
        "failure_mode": failure,
        "dossier": {"instructions": "Run make from the repository root.", "sufficient": True,
                    "rounds_used": 1, "visited": [], "fetch_failures": []},
    }


def expected_report(rows: Dict[int, Dict[str, dict]], method: str) -> dict:
    """The machine report ``emit_report`` must print for these per-run rows
    (repo -> completion/strict/flexible/fix_attempts/failure_mode), computed
    from the definitions in the README rather than from the harness."""
    runs = sorted(rows)
    n = max(len(rows[r]) for r in runs)
    repos = set().union(*(rows[r] for r in runs))

    def pct(run, key):
        return 100.0 * sum(1 for v in rows[run].values() if v[key]) / n

    def pass_at(k, key):
        hits = sum(1 for repo in repos if any(rows[r].get(repo, {}).get(key) for r in runs[:k]))
        return 100.0 * hits / len(repos)

    hist = Counter(v["failure_mode"] for r in runs for v in rows[r].values() if v["failure_mode"])
    return {
        "method": method,
        "completion_pct": [pct(r, "completion") for r in runs],
        "strict_pct": [pct(r, "strict") for r in runs],
        "flexible_pct": [pct(r, "flexible") for r in runs],
        "mean_fix_attempts": [sum(v["fix_attempts"] for v in rows[r].values()) / len(rows[r])
                              for r in runs],
        "pass_at_k": {str(k): {"strict": pass_at(k, "strict"), "flexible": pass_at(k, "flexible")}
                      for k in range(1, len(runs) + 1)},
        "failure_mode_histogram": dict(sorted(hist.items())),
    }


def _store_resume(out: Path, rng: random.Random, smoke: bool) -> None:
    n_repos = 12 if smoke else 800
    runs = 2 if smoke else 3
    n_left = 2 if smoke else 4
    owner = "bench-store"
    names = _names(rng, n_repos)
    records = []
    for name in names:
        root = out / "repos" / name
        _write(root / "README.md", f"# {name}\n\nScripts and notes; nothing to compile.\n")
        _write(root / "notes.txt", f"{name} keeps its data tables as plain text.\n")
        records.append(_record(owner, name, out, [name]))
    _write_manifest(out, records)

    # the crashed run stopped short of the last few repos of the last run;
    # the first of them was being appended when it stopped
    left = [f"{owner}/{name}" for name in names[-n_left:]]
    pool = _log_pool(rng, 4000)
    # 1-2 turns per record, outputs log-uniform from 200 bytes to past the
    # 64 KB cap, scaled so the store's size (and so the resume's memory) is
    # the same for every seed
    sizes = [[200 * 410 ** rng.random() for _ in range(rng.randint(1, 2))]
             for _ in range(runs * n_repos)]
    scale = _STORE_OUTPUT_MEAN * sum(map(len, sizes)) / sum(map(sum, sizes))
    sizes = [[int(v * scale) for v in rec] for rec in sizes]
    rows: Dict[int, Dict[str, dict]] = {r: {} for r in range(runs)}
    torn = ""
    with open(out / "store.jsonl", "w", encoding="utf-8") as fh:
        for run in range(runs):
            for i, name in enumerate(names):
                repo_id = f"{owner}/{name}"
                rec = _stored_record(rng, pool, run, repo_id, sizes[run * n_repos + i])
                line = json.dumps(rec, ensure_ascii=False, sort_keys=True)
                if run == runs - 1 and repo_id in left:
                    if repo_id == left[0]:
                        torn = line[: len(line) // 2]
                    continue
                fh.write(line + "\n")
                rows[run][repo_id] = {**rec["verdict"], "failure_mode": rec["failure_mode"],
                                      "fix_attempts": rec["session"]["fix_attempts"]}
        fh.write(torn)  # the torn tail: half a record and no newline

    sessions, steps = {}, []
    for repo_id in left:
        name = repo_id.split("/")[1]
        steps += [
            {"match": f"The build of **{repo_id}** at", "reply":
                "The repository has no Makefile, configure script or build script, "
                "so there is nothing to compile. terminate"},
            {"match": f"Compile the repository **{repo_id}**, cloned at",
             "reply": _bash(f"ls -la /app/{name}/")},
            {"match": f"compile the repository {repo_id}. Distill", "reply":
                "INSTRUCTIONS:\nThe README names no build system.\n\nSUFFICIENT: yes\n\nLINKS:\n"},
        ]
        expect = {"completion": False, "strict": False, "flexible": False,
                  "failure_mode": _NONE_FAILURE, "fix_attempts": 0}
        rows[runs - 1][repo_id] = expect
        sessions[f"{runs - 1}:{repo_id}"] = {
            **expect, "outcome": "agent-terminated", "command_turns": 1, "executables": [],
            "dossier": {"sufficient": True, "rounds_used": 1, "fetch_failures": []},
        }
    _write(out / "scenario.json", json.dumps(_scenario(steps), indent=1))
    _write_plan(out, method="agent-with-retrieval", max_turns=12, runs=runs, sessions=sessions,
                warmup_ids=None, report=expected_report(rows, "agent-with-retrieval"))


def _write_plan(out: Path, method: str, max_turns: int, runs: int, sessions: dict,
                warmup_ids: Optional[List[str]], report: Optional[dict] = None) -> None:
    plan = {
        "method": method,
        "max_turns": max_turns,
        "runs": runs,
        "warmup_ids": warmup_ids,
        "sessions": sessions,
        "report": report,
    }
    _write(out / "plan.json", json.dumps(plan, indent=1, sort_keys=True))


_GENERATORS = {
    "agent-bigtree": _agent_bigtree,
    "rules-corpus": _rules_corpus,
    "store-resume": _store_resume,
}
