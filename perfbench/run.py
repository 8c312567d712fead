"""Offline, seeded benchmark of the repobuild harness.

    python3 perfbench/run.py --workload agent-bigtree --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed`` (several times, timing each),
then runs the workload in a fresh child process (``worker.py``) for
``--seconds`` and checks every result against the generator's answer. The
next-to-last line of standard output is a full report (host record, every
metric with its unit and sample count, anything not measured); the last line
is ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Exits 1 when any result differs from the expected answer, 2 when the
repository sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import NOT_MEASURED, PER_LAYER, READ_COUNTERS  # noqa: E402
from workloads import SHAPES_LEFT_OUT, WORKLOADS, generate  # noqa: E402

SETUPS = 3  # input generations per run; setup_s reports their median
RUN_LIMIT_S = 175.0  # a run, set-up included, must end within 180 s

# end-to-end metrics on the last line (the contract in BENCHMARK.json)
END_TO_END_UNITS = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "resume_s": "s",
    "peak_rss_mb": "MiB",
}
# reported on the report line only: on store-resume the handful of tiny
# sessions per invocation make the per-session median too noisy to bound
REPORT_ONLY_UNITS = {"session_s.p50": "s"}


def _first_line(argv: List[str]) -> Optional[str]:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.splitlines()[0] if proc.returncode == 0 and proc.stdout else None


def docker_daemon() -> str:
    """Whether a Docker daemon answers on its local socket. Remote daemons
    are not contacted."""
    host = os.environ.get("DOCKER_HOST", "unix:///var/run/docker.sock")
    if not host.startswith("unix://"):
        return f"not probed (DOCKER_HOST={host} is not a local socket)"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(2.0)
    try:
        sock.connect(host[len("unix://"):])
        sock.sendall(b"GET /_ping HTTP/1.0\r\n\r\n")
        reply = sock.recv(256)
    except OSError as exc:
        return f"unreachable ({exc.strerror or exc})"
    finally:
        sock.close()
    return "reachable" if b" 200 " in reply else "unreachable (no 200 from /_ping)"


def host_record() -> dict:
    tools = {t: shutil.which(t) is not None for t in ("cmake", "meson", "qmake", "gdb", "readelf")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gcc": _first_line(["gcc", "--version"]),
        "make": _first_line(["make", "--version"]),
        "tools_present": tools,
        "docker_daemon": docker_daemon(),
        "sandbox_backend": "local",
        "gateway_backend": "scripted",
        "rule_shapes_left_out": {
            shape: f"needs {tool}, which this host {'has' if tools[tool] else 'lacks'}; "
                   "left out so every host runs the same corpus"
            for shape, tool in SHAPES_LEFT_OUT.items()
        },
    }


def tail(values: List[float]) -> Optional[dict]:
    """The highest percentile with at least ten samples above it, or None
    where too few samples make it no different from the median."""
    n = len(values)
    if n < 22:
        return None
    ordered = sorted(values)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "n": n}


def end_to_end(setups: List[float], child: dict, ops: List[dict], sessions: List[float]) -> dict:
    return {
        "setup_s": statistics.median(setups) + child["warmup_s"],
        "sessions_per_s": len(sessions) / sum(op["wall_s"] for op in ops),
        "resume_s": statistics.median(op["wall_s"] for op in ops),
        "peak_rss_mb": child["peak_rss_mb"],
        "session_s.p50": statistics.median(sessions),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Offline seeded benchmark of the repobuild harness.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, same checks")
    p.add_argument("--spans-out", help="with --trace 1, write the spans here, one per line")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repobuild" / "__init__.py").is_file():
        print(f"error: repobuild sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setups = []
        for k in range(SETUPS):
            start = time.perf_counter()
            generate(args.workload, work / f"inputs{k}", args.seed, args.smoke)
            setups.append(time.perf_counter() - start)
            if k:
                shutil.rmtree(work / f"inputs{k - 1}")
        inputs = work / f"inputs{SETUPS - 1}"
        (work / "tmp").mkdir()
        env = dict(os.environ, TMPDIR=str(work / "tmp"), LC_ALL="C")
        argv_child = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
                      "--work", str(work / "run"), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
        if args.spans_out:
            argv_child += ["--spans-out", str(Path(args.spans_out).resolve())]
        try:
            proc = subprocess.run(argv_child, stdout=subprocess.PIPE, text=True, env=env,
                                  timeout=max(1.0, started + RUN_LIMIT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: run did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    ops = [op for op in child["ops"] if not op["traced"] and op["wall_s"] is not None]
    sessions = [s for op in ops for s in op["sessions_s"]]
    if not sessions:
        print("error: no invocation finished", file=sys.stderr)
        return 1
    e2e = end_to_end(setups, child, ops, sessions)
    units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_record(),
        "setup_runs_s": setups,
        "warmup_s": child["warmup_s"],
        "invocations": len(ops),
        "sessions": len(sessions),
        "end_to_end": {name: {"value": value, "unit": units[name]}
                       for name, value in e2e.items()},
        "failed_share": child["failed"] / child["attempted"],
        "problems": child["problems"],
        "not_measured": NOT_MEASURED,
    }
    session_tail = tail(sessions)
    if session_tail is None:
        detail["end_to_end"]["session_s.tail"] = {
            "value": None, "unit": "s",
            "note": f"{len(sessions)} sessions are too few for a tail distinct from the median"}
    else:
        detail["end_to_end"]["session_s.tail"] = {**session_tail, "unit": "s"}
    if args.workload != "store-resume":
        detail["end_to_end"]["resume_s"]["note"] = (
            "one whole bench invocation; the store starts empty, so nothing is resumed")
    if not child["read_counters"]:
        detail["read_counters"] = ("/proc/self/io cannot be read here; omitted: "
                                   + ", ".join(READ_COUNTERS))

    if args.trace:
        per_layer = child["per_layer"]
        detail["per_layer"] = {
            name: {"value": per_layer[name], "unit": unit, "should_move": moves}
            for name, unit, _better, moves in PER_LAYER if name in per_layer
        }
        detail["spans"] = child["spans"]
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _better, _moves in PER_LAYER if name in per_layer}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"report": detail}))
    correct = child["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
