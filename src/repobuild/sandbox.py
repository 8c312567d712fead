"""Disposable execution environments for build scripts.

Two backends expose the same handle interface: a container backend driving
the docker CLI, and a local process jail for tests. Both present the
workspace at /app/<repo> with working directory /app, run each script in a
single persistent shell (so `cd` and exports persist across commands within
a script), stop at the first failing command, and cap captured output.
"""

from __future__ import annotations

import logging
import os
import queue
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .errors import SandboxDeadError, SandboxUnavailableError
from .workspace import Workspace

logger = logging.getLogger(__name__)

TIMEOUT_EXIT = 124
DEFAULT_IMAGE_TAG = "repobuild-sandbox:latest"

# matches /app as a path component, not /apple or /app-data
_APP_RE = re.compile(r"/app(?![\w-])")


@dataclass(frozen=True)
class SandboxSpec:
    backend: str = "container"  # container | local
    base_image: str = DEFAULT_IMAGE_TAG
    env: Dict[str, str] = field(default_factory=dict)
    per_command_timeout: float = 900.0
    total_timeout: float = 3600.0
    output_cap_bytes: int = 65536

    def __post_init__(self):
        if self.backend not in ("container", "local"):
            raise ValueError(f"unknown sandbox backend {self.backend!r}")
        if self.per_command_timeout <= 0 or self.total_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.total_timeout < self.per_command_timeout:
            raise ValueError("total_timeout must be >= per_command_timeout")
        if self.output_cap_bytes <= 0:
            raise ValueError("output_cap_bytes must be positive")


@dataclass(frozen=True)
class CommandScript:
    commands: Tuple[str, ...]
    origin_turn: int = 0

    def __post_init__(self):
        if not self.commands:
            raise ValueError("script must contain at least one command")
        for cmd in self.commands:
            if cmd.strip().lower() == "terminate":
                raise ValueError("the bare word 'terminate' is not a command")
        if self.origin_turn < 0:
            raise ValueError("origin_turn must be >= 0")


@dataclass(frozen=True)
class ExecutionResult:
    per_command: Tuple[Tuple[str, int, float], ...]  # (command, exit code, seconds)
    combined_output: str
    overall_exit: int
    timed_out: bool


def base_image_description() -> str:
    """Text of the shipped base-image definition, used verbatim in prompts."""
    return resources.files("repobuild.assets").joinpath("sandbox.Dockerfile").read_text("utf-8")


class _TailBuffer:
    """Byte accumulator that keeps only the newest `cap` bytes."""

    def __init__(self, cap: int):
        self.cap = cap
        self.chunks: List[bytes] = []
        self.size = 0
        self.omitted = 0

    def add(self, data: bytes) -> None:
        self.chunks.append(data)
        self.size += len(data)
        while self.size > self.cap and self.chunks:
            head = self.chunks[0]
            excess = self.size - self.cap
            if len(head) <= excess:
                self.chunks.pop(0)
                self.size -= len(head)
                self.omitted += len(head)
            else:
                self.chunks[0] = head[excess:]
                self.size -= excess
                self.omitted += excess

    def text(self) -> str:
        body = b"".join(self.chunks).decode("utf-8", errors="replace")
        if self.omitted:
            return f"[... output truncated, {self.omitted} bytes omitted ...]\n" + body
        return body


class SandboxHandle:
    """One disposable environment; owned and used by a single session."""

    def __init__(self, spec: SandboxSpec, ws: Workspace):
        self.spec = spec
        self.ws = ws
        self.alive = True
        self._container_id: Optional[str] = None
        self._jail: Optional[Path] = None
        self._map_out: List[Tuple[str, str]] = []

    # -- path illusion (local backend) -------------------------------------

    def map_command(self, text: str) -> str:
        if self.spec.backend == "container" or self._jail is None:
            return text
        return _APP_RE.sub(str(self._jail / "app"), text)

    def map_output(self, text: str) -> str:
        for host, virt in self._map_out:
            text = text.replace(host, virt)
        return text

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SandboxHandle":
        return self

    def __exit__(self, *exc) -> None:
        destroy_sandbox(self)


def create_sandbox(spec: SandboxSpec, ws: Workspace) -> SandboxHandle:
    """Start a fresh environment with the workspace mounted at /app/<repo>."""
    handle = SandboxHandle(spec, ws)
    if spec.backend == "container":
        _start_container(handle)
    else:
        _start_jail(handle)
    return handle


def _start_container(handle: SandboxHandle) -> None:
    spec, ws = handle.spec, handle.ws
    if shutil.which("docker") is None:
        raise SandboxUnavailableError("docker CLI not found on host")
    _ensure_image(spec.base_image)
    mount = f"{ws.root_path}:/app/{ws.repo_name}"
    cmd = ["docker", "run", "-d", "--rm", "-w", "/app", "-v", mount]
    for key, val in spec.env.items():
        cmd += ["-e", f"{key}={val}"]
    cmd += [spec.base_image, "sleep", "infinity"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SandboxUnavailableError(f"container start failed: {proc.stderr.strip()}")
    handle._container_id = proc.stdout.strip()


def _ensure_image(image: str) -> None:
    probe = subprocess.run(
        ["docker", "image", "inspect", image], capture_output=True, text=True, timeout=120
    )
    if probe.returncode == 0:
        return
    # inspect also fails when no daemon answers; building would then only
    # report a misleading "image build failed"
    daemon = subprocess.run(
        ["docker", "version", "--format", "{{.Server.Version}}"],
        capture_output=True, text=True, timeout=120,
    )
    if daemon.returncode != 0:
        raise SandboxUnavailableError(
            f"Docker daemon cannot be reached: {daemon.stderr.strip()}"
        )
    if image == DEFAULT_IMAGE_TAG:
        with tempfile.TemporaryDirectory() as ctx:
            Path(ctx, "Dockerfile").write_text(base_image_description(), "utf-8")
            built = subprocess.run(
                ["docker", "build", "-t", image, ctx], capture_output=True, text=True
            )
            if built.returncode != 0:
                raise SandboxUnavailableError(f"image build failed: {built.stderr[-2000:]}")
    # other tags are left to `docker run` to pull on demand


def _start_jail(handle: SandboxHandle) -> None:
    ws = handle.ws
    jail = Path(tempfile.mkdtemp(prefix="repobuild-jail-"))
    app = jail / "app"
    app.mkdir()
    (jail / "home").mkdir()
    (app / ws.repo_name).symlink_to(ws.root_path)
    handle._jail = jail
    # reverse-map host spellings of the workspace back to the /app illusion,
    # longest prefix first so nested paths rewrite before their parents
    pairs = {
        str(ws.root_path): f"/app/{ws.repo_name}",
        os.path.realpath(ws.root_path): f"/app/{ws.repo_name}",
        str(app): "/app",
        os.path.realpath(app): "/app",
    }
    handle._map_out = sorted(pairs.items(), key=lambda kv: len(kv[0]), reverse=True)


def destroy_sandbox(handle: SandboxHandle) -> None:
    """Release all resources; safe to call twice."""
    if not handle.alive:
        return
    handle.alive = False
    if handle._container_id:
        proc = subprocess.run(
            ["docker", "rm", "-f", handle._container_id],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            logger.warning("container teardown failed: %s", proc.stderr.strip())
        handle._container_id = None
    if handle._jail is not None:
        shutil.rmtree(handle._jail, ignore_errors=True)
        handle._jail = None


def _spawn_shell(handle: SandboxHandle) -> subprocess.Popen:
    spec = handle.spec
    if spec.backend == "container":
        argv = ["docker", "exec", "-i", "-w", "/app", handle._container_id, "bash"]
        env = None
    else:
        argv = ["bash"]
        env = dict(os.environ)
        env.update(spec.env)
        env["HOME"] = str(handle._jail / "home")
    return subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=None if spec.backend == "container" else str(handle._jail / "app"),
        env=env,
        start_new_session=True,
    )


def _kill_shell(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def exec_script(handle: SandboxHandle, script: CommandScript) -> ExecutionResult:
    """Run the script's commands sequentially in one shell, stopping at failure.

    Stdout and stderr are interleaved in arrival order. A command exceeding
    the per-command timeout, or the script exceeding the total timeout, is
    killed and recorded with exit code 124.
    """
    if not handle.alive:
        raise SandboxDeadError("sandbox already destroyed")

    nonce = uuid.uuid4().hex
    marker = f"__RC_{nonce}__:"
    proc = _spawn_shell(handle)
    lines: "queue.Queue[Optional[bytes]]" = queue.Queue()

    def _reader():
        # the reader owns stdout: closing it under a blocked read would hang
        with proc.stdout:
            for raw in proc.stdout:
                lines.put(raw)
        lines.put(None)

    reader = threading.Thread(target=_reader, daemon=True)
    reader.start()

    buf = _TailBuffer(handle.spec.output_cap_bytes)
    per_command: List[Tuple[str, int, float]] = []
    overall_exit = 0
    timed_out = False
    script_deadline = time.monotonic() + handle.spec.total_timeout
    marker_bytes = marker.encode()

    try:
        for command in script.commands:
            mapped = handle.map_command(command)
            try:
                # brace group so multi-line commands stay one unit; stdin from
                # /dev/null so the command cannot eat the sentinel lines
                proc.stdin.write(
                    f"{{ {mapped}\n}} </dev/null\nprintf '{marker}%d\\n' $?\n".encode()
                )
                proc.stdin.flush()
            except (BrokenPipeError, OSError):
                per_command.append((command, 1, 0.0))
                overall_exit = 1
                break

            started = time.monotonic()
            deadline = min(started + handle.spec.per_command_timeout, script_deadline)
            exit_code: Optional[int] = None
            while exit_code is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    _kill_shell(proc)
                    exit_code = TIMEOUT_EXIT
                    timed_out = True
                    break
                try:
                    raw = lines.get(timeout=min(remaining, 0.5))
                except queue.Empty:
                    continue
                if raw is None:
                    # the shell ended before reporting (`exit 3`): once it is
                    # reaped its own code is the command's, if not zero
                    try:
                        exit_code = proc.wait(timeout=max(0.0, remaining)) or 1
                    except subprocess.TimeoutExpired:
                        exit_code = 1
                    break
                if marker_bytes in raw:
                    # output lacking a trailing newline glues itself to the
                    # sentinel; keep the prefix as real output
                    prefix, _, tail = raw.partition(marker_bytes)
                    if prefix:
                        buf.add(prefix + b"\n")
                    exit_code = int(tail.strip() or 1)
                else:
                    buf.add(raw)
            per_command.append((command, exit_code, time.monotonic() - started))
            if exit_code != 0:
                overall_exit = exit_code
                break
    finally:
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            _kill_shell(proc)
        if handle.spec.backend != "container":
            # a job the script left in the background holds stdout open
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        reader.join(timeout=5)

    # drain anything the reader captured after the last marker
    while True:
        try:
            raw = lines.get_nowait()
        except queue.Empty:
            break
        if raw is not None and marker_bytes not in raw:
            buf.add(raw)

    return ExecutionResult(
        per_command=tuple(per_command),
        combined_output=handle.map_output(buf.text()),
        overall_exit=overall_exit,
        timed_out=timed_out,
    )
