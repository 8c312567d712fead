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
import re
import select
import selectors
import shutil
import signal
import subprocess
import tempfile
import time
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import assets
from .errors import ENV, OS_STR, POSITIVE_INT, SECONDS, RepobuildError, UsageError, check
from .workspace import Workspace

logger = logging.getLogger(__name__)

TIMEOUT_EXIT = 124
# after the last command, how long a job left behind may keep the pipe open
DRAIN_SECONDS = 5.0
DEFAULT_IMAGE_TAG = "repobuild-sandbox:latest"

# matches /app as a path component, not /apple or /app-data
_APP_RE = re.compile(r"/app(?![\w-])")
# characters the shell reads in a word instead of taking them as written
_SHELL_SPECIAL_RE = re.compile(r"[\s\\'\"`$|&;()<>*?\[\]{}]")


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
            raise UsageError(f"unknown sandbox backend {self.backend!r}")
        check("SandboxSpec", vars(self), _SANDBOX_FIELDS)
        if self.total_timeout < self.per_command_timeout:
            raise UsageError("total_timeout must be >= per_command_timeout")


_SANDBOX_FIELDS = {"base_image": OS_STR, "env": ENV, "per_command_timeout": SECONDS,
                   "total_timeout": SECONDS, "output_cap_bytes": POSITIVE_INT}


@dataclass(frozen=True)
class CommandScript:
    commands: Tuple[str, ...]


@dataclass(frozen=True)
class ExecutionResult:
    per_command: Tuple[Tuple[str, int, float], ...]  # (command, exit code, seconds)
    combined_output: str
    overall_exit: int
    timed_out: bool


def base_image_description() -> str:
    """Text of the shipped base-image definition, used verbatim in prompts."""
    return assets.text("sandbox.Dockerfile")


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
        if self._jail is None:
            return text
        return _APP_RE.sub(lambda _m: str(self._jail / "app"), text)

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
        raise RepobuildError("docker CLI not found on host")
    _ensure_image(spec.base_image)
    mount = f"{ws.root_path}:{ws.mount_path}"
    cmd = ["docker", "run", "-d", "--rm", "-w", "/app", "-v", mount]
    for key, val in spec.env.items():
        cmd += ["-e", f"{key}={val}"]
    cmd += [spec.base_image, "sleep", "infinity"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RepobuildError(f"container start failed: {proc.stderr.strip()}")
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
        raise RepobuildError(f"Docker daemon cannot be reached: {daemon.stderr.strip()}")
    if image == DEFAULT_IMAGE_TAG:
        with tempfile.TemporaryDirectory() as ctx:
            Path(ctx, "Dockerfile").write_text(base_image_description(), "utf-8")
            built = subprocess.run(
                ["docker", "build", "-t", image, ctx], capture_output=True, text=True
            )
            if built.returncode != 0:
                raise RepobuildError(f"image build failed: {built.stderr[-2000:]}")
    # other tags are left to `docker run` to pull on demand


def _start_jail(handle: SandboxHandle) -> None:
    ws = handle.ws
    # beside the workspace, so clearing the session dir clears a jail that a
    # killed run left behind; in the temp dir if the shell would misread the
    # session dir's path, which every mapped command spells out
    parent = ws.root_path.parent
    jail = Path(tempfile.mkdtemp(prefix="repobuild-jail-",
                                 dir=None if _SHELL_SPECIAL_RE.search(str(parent)) else parent))
    app = jail / "app"
    app.mkdir()
    (jail / "home").mkdir()
    (app / ws.repo_name).symlink_to(ws.root_path)
    handle._jail = jail
    # reverse-map host spellings of the workspace back to the /app illusion,
    # longest prefix first so nested paths rewrite before their parents
    pairs = {
        str(ws.root_path): ws.mount_path,
        os.path.realpath(ws.root_path): ws.mount_path,
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


def _wait_shell(proc: subprocess.Popen, timeout: float) -> Optional[int]:
    """Reap the shell within ``timeout`` seconds and return its exit code, or
    None if it is still running then.

    Where the OS gives a pidfd of the shell, the wait blocks on it until the
    shell exits. Elsewhere it falls back to ``Popen.wait(timeout)``, which
    polls with short sleeps.
    """
    if proc.returncode is not None:
        return proc.returncode
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            return proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        exited = poller.poll(timeout * 1000)
    finally:
        os.close(pidfd)
    return proc.wait() if exited else None


def _end_shell(proc: subprocess.Popen, grace: float) -> None:
    """Wait up to ``grace`` seconds for the shell to exit, then kill its
    process group, with any job a script left in the background, and reap
    the shell. Every script ends here, on either backend: a timed-out one
    with no grace, any other after its last command."""
    _wait_shell(proc, grace)
    with suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)
    _wait_shell(proc, 10)


def _shell_unit(command: str) -> bytes:
    # a brace group keeps a multi-line command one unit, and stdin from
    # /dev/null keeps it off the sentinel lines; encoded as file names are, so
    # U+DC80..U+DCFF reach the shell as bytes and any other lone surrogate
    # raises UnicodeEncodeError
    return f"{{ {command}\n}} </dev/null\n".encode("utf-8", "surrogateescape")


def parses_whole(command: str) -> bool:
    """Whether ``bash -n`` parses ``command`` as the unit ``exec_script``
    sends, with extglob on, as a script's own `shopt -s extglob` may set it."""
    return subprocess.run(["bash", "-n", "-O", "extglob"], input=_shell_unit(command),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def exec_script(handle: SandboxHandle, script: CommandScript) -> ExecutionResult:
    """Run the script's commands sequentially in one shell, stopping at failure.

    Stdout and stderr are interleaved in arrival order. A command exceeding
    the per-command timeout, or the script exceeding the total timeout, is
    killed and recorded with exit code 124. The calling thread reads the
    shell itself and keeps the newest ``output_cap_bytes`` of output.
    """
    if not handle.alive:
        raise RepobuildError("sandbox already destroyed")

    marker = f"__RC_{os.urandom(16).hex()}__:"
    sentinel = marker.encode()
    cap = handle.spec.output_cap_bytes
    tail = bytearray()
    omitted = 0
    pending = bytearray()  # read but not yet searched for the marker

    def keep(data) -> None:
        nonlocal omitted
        tail.extend(data)
        if len(tail) > cap:
            omitted += len(tail) - cap
            del tail[:-cap]

    def take_exit_code() -> Optional[int]:
        """Move pending output to the tail up to the next marker line and
        return its exit code, or None while no whole marker line is pending."""
        at = pending.find(sentinel)
        if at < 0:
            # a marker split across two reads starts in the unsearched rest
            at = max(0, len(pending) - len(sentinel) + 1)
        keep(pending[:at])
        del pending[:at]
        if not pending.startswith(sentinel):
            return None
        if tail and tail[-1] != ord("\n"):
            # output lacking a trailing newline glues itself to the marker
            keep(b"\n")
        end = pending.find(b"\n", len(sentinel))
        if end < 0:
            return None
        code = pending[len(sentinel):end]
        del pending[: end + 1]
        return int(code.strip() or 1)

    per_command: List[Tuple[str, int, float]] = []
    overall_exit = 0
    timed_out = False
    script_deadline = time.monotonic() + handle.spec.total_timeout
    proc = _spawn_shell(handle)
    fd = proc.stdout.fileno()

    with proc.stdout, selectors.DefaultSelector() as ready:
        ready.register(fd, selectors.EVENT_READ)
        try:
            # the marker goes to a copy of stdout saved before any command, so
            # a command's own redirection (`exec > build.log`) cannot move it
            proc.stdin.write(b"exec {__repobuild_rc}>&1\n")
            for command in script.commands:
                mapped = handle.map_command(command)
                try:
                    proc.stdin.write(
                        _shell_unit(mapped)
                        + f"builtin printf '{marker}%d\\n' $? >&$__repobuild_rc\n".encode()
                    )
                    proc.stdin.flush()
                except (BrokenPipeError, OSError):
                    per_command.append((command, 1, 0.0))
                    overall_exit = 1
                    break

                started = time.monotonic()
                deadline = min(started + handle.spec.per_command_timeout, script_deadline)
                exit_code = take_exit_code()
                while exit_code is None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        _end_shell(proc, 0)
                        exit_code = TIMEOUT_EXIT
                        timed_out = True
                    elif ready.select(remaining):
                        chunk = os.read(fd, 1 << 16)
                        if not chunk:
                            # the shell ended before reporting (`exit 3`): once
                            # it is reaped its own code is the command's, if not 0
                            exit_code = _wait_shell(proc, max(0.0, remaining)) or 1
                            break
                        pending.extend(chunk)
                        exit_code = take_exit_code()
                per_command.append((command, exit_code, time.monotonic() - started))
                if exit_code != 0:
                    overall_exit = exit_code
                    break
        finally:
            try:
                proc.stdin.close()
            except OSError:
                pass
            # also kills a job the script left in the background, which
            # would hold stdout open
            _end_shell(proc, 5)
            keep(pending)
            # one bound for the whole drain: a job that left the process group
            # can write forever; closing the pipe then ends it with EPIPE
            drain_deadline = time.monotonic() + DRAIN_SECONDS
            while (left := drain_deadline - time.monotonic()) > 0 and ready.select(left):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                keep(chunk)

    text = tail.decode("utf-8", errors="replace")
    if omitted:
        text = f"[... output truncated, {omitted} bytes omitted ...]\n" + text
    return ExecutionResult(
        per_command=tuple(per_command),
        combined_output=handle.map_output(text),
        overall_exit=overall_exit,
        timed_out=timed_out,
    )
