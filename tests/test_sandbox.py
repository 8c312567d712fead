import gc
import os
import re
import subprocess
import threading
import time
import warnings
from pathlib import Path

import pytest

from repobuild.errors import RepobuildError, UsageError
from repobuild.sandbox import (
    DRAIN_SECONDS,
    CommandScript,
    SandboxSpec,
    base_image_description,
    create_sandbox,
    destroy_sandbox,
    exec_script,
)

from conftest import HAVE_DOCKER_DAEMON, needs_docker_daemon, prepare_fixture


def run(handle, *commands):
    return exec_script(handle, CommandScript(commands=tuple(commands)))


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as dead."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] not in (b"Z", b"X")
    except OSError:
        return True


class TestSpecValidation:
    def test_defaults(self):
        spec = SandboxSpec()
        assert spec.backend == "container"
        assert spec.per_command_timeout == 900.0
        assert spec.total_timeout == 3600.0
        assert spec.output_cap_bytes == 65536

    def test_bad_backend(self):
        with pytest.raises(UsageError, match="unknown sandbox backend 'vm'"):
            SandboxSpec(backend="vm")

    def test_total_must_cover_per_command(self):
        with pytest.raises(UsageError, match="total_timeout must be >= per_command_timeout"):
            SandboxSpec(per_command_timeout=100, total_timeout=50)

    def test_positive_timeouts_and_cap(self):
        with pytest.raises(UsageError, match="per_command_timeout must be seconds"):
            SandboxSpec(per_command_timeout=0)
        with pytest.raises(UsageError, match="output_cap_bytes must be an integer > 0"):
            SandboxSpec(output_cap_bytes=0)

    @pytest.mark.parametrize("field, value", [
        ("output_cap_bytes", 1.5), ("output_cap_bytes", True),
        ("env", {"A": 1}), ("env", ["A"]), ("env", {1: "a"}),
        ("per_command_timeout", True), ("per_command_timeout", float("nan")),
        ("total_timeout", float("nan")), ("base_image", 5),
        ("total_timeout", float("inf")), ("total_timeout", 1e300),
        ("total_timeout", 2592000), ("env", {"A": "\ud800"}),
        ("env", {"A=B": "x"}), ("env", {"A": "x\0"}),
        ("base_image", "\ud800"), ("base_image", "img\0"),
    ])
    def test_value_of_the_wrong_type_rejected(self, field, value):
        with pytest.raises(UsageError, match=field):
            SandboxSpec(**{field: value})

    def test_script_rejects_empty_and_bare_terminate(self):
        with pytest.raises(ValueError):
            CommandScript(commands=())
        with pytest.raises(ValueError):
            CommandScript(commands=("make", "TERMINATE"))

    def test_base_image_description_mentions_toolchain(self):
        text = base_image_description()
        assert "build-essential" in text
        assert "gdb" in text


class TestLocalExecution:
    def test_simple_script_succeeds(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "echo one", "echo two")
        assert result.overall_exit == 0
        assert not result.timed_out
        assert [pc[1] for pc in result.per_command] == [0, 0]
        assert "one" in result.combined_output
        assert "two" in result.combined_output

    def test_stop_at_first_failure(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "echo before", "false", "echo after")
        assert result.overall_exit == 1
        assert len(result.per_command) == 2
        assert result.per_command[1][:2] == ("false", 1)
        assert "after" not in result.combined_output

    def test_command_that_ends_the_shell_keeps_its_exit_code(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            # read too early, the code is lost only when the shell is not yet
            # reaped, so try more than once
            results = [run(handle, "echo hi", "exit 3", "echo after") for _ in range(3)]
            # a script cut short by `exit 0` did not run to its end
            cut_short = run(handle, "exit 0")
        for result in results:
            assert result.overall_exit == 3
            assert [pc[:2] for pc in result.per_command] == [("echo hi", 0), ("exit 3", 3)]
            assert "hi" in result.combined_output
            assert "after" not in result.combined_output
        assert cut_short.overall_exit == 1

    def test_stderr_interleaved(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "echo out; echo err 1>&2")
        assert "out" in result.combined_output
        assert "err" in result.combined_output

    def test_state_persists_within_script(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "X=42", 'echo "X is $X"')
        assert "X is 42" in result.combined_output

    def test_workspace_visible_under_app(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "ls /app/hello_make")
        assert result.overall_exit == 0
        assert "Makefile" in result.combined_output

    def test_output_paths_rewritten_to_mount(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            jail = str(handle._jail)
            result = run(handle, "cd /app/hello_make", "pwd")
        assert "/app/hello_make" in result.combined_output
        assert jail not in result.combined_output

    def test_app_token_mapping_is_word_bounded(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            mapped = handle.map_command("ls /app/x /apple /app-data")
            assert "/apple" in mapped
            assert "/app-data" in mapped
            assert str(handle._jail / "app") + "/x" in mapped

    def test_build_writes_into_workspace(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "cd /app/hello_make && make")
        assert result.overall_exit == 0
        assert (ws.root_path / "hello").exists()

    def test_output_without_trailing_newline_not_lost(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "printf 'no-newline-tail'")
        assert result.overall_exit == 0
        assert "no-newline-tail" in result.combined_output

    def test_output_cap_keeps_tail(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=60,
                           total_timeout=120, output_cap_bytes=200)
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "seq 1 5000")
        assert "output truncated" in result.combined_output
        assert "5000" in result.combined_output  # newest survives
        assert "\n1\n" not in result.combined_output  # oldest dropped
        assert len(result.combined_output) < 400

    def test_per_command_timeout_kills(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=1.0, total_timeout=30)
        started = time.monotonic()
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "sleep 30")
        elapsed = time.monotonic() - started
        assert result.timed_out
        assert result.per_command[0][1] == 124
        assert result.overall_exit == 124
        assert elapsed < 10

    def test_total_timeout_spans_commands(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=2.0, total_timeout=2.0)
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "sleep 1.2", "sleep 1.2", "echo never")
        assert result.timed_out
        assert result.per_command[-1][1] == 124
        assert "never" not in result.combined_output

    def test_shell_death_is_a_failure_not_a_hang(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, "exit 7", "echo unreachable")
        assert result.overall_exit != 0
        assert len(result.per_command) == 1
        assert "unreachable" not in result.combined_output

    def test_background_job_is_killed_and_pipes_closed(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert run(handle, "echo plain").overall_exit == 0
                started = time.monotonic()
                result = run(handle, 'sleep 20 & echo "bg=$!"', "echo started")
                elapsed = time.monotonic() - started
                gc.collect()
        assert result.overall_exit == 0
        assert "started" in result.combined_output
        assert elapsed < 2.0
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
        pid = int(re.search(r"bg=(\d+)", result.combined_output).group(1))
        deadline = time.monotonic() + 2.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)

    def test_heredoc_survives_as_one_command(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        heredoc = "cat > /app/hello_make/note.txt <<EOF\nline a\nline b\nEOF"
        with create_sandbox(local_spec, ws) as handle:
            result = run(handle, heredoc, "cat /app/hello_make/note.txt")
        assert result.overall_exit == 0
        assert "line a" in result.combined_output
        assert "line b" in result.combined_output

    def test_exec_after_destroy_raises(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        handle = create_sandbox(local_spec, ws)
        destroy_sandbox(handle)
        with pytest.raises(RepobuildError, match="sandbox already destroyed"):
            run(handle, "echo hi")

    def test_destroy_is_idempotent_and_cleans_jail(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        handle = create_sandbox(local_spec, ws)
        jail = handle._jail
        assert jail.exists()
        destroy_sandbox(handle)
        destroy_sandbox(handle)
        assert not jail.exists()

    def test_jail_sits_beside_the_workspace(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as handle:
            assert handle._jail.parent == ws.root_path.parent
            assert handle._jail.name.startswith("repobuild-jail-")

    def test_sessions_do_not_share_environment(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        with create_sandbox(local_spec, ws) as first:
            r1 = run(first, "touch $HOME/marker", "ls $HOME")
        assert "marker" in r1.combined_output
        with create_sandbox(local_spec, ws) as second:
            r2 = run(second, "ls $HOME")
        assert "marker" not in r2.combined_output

    def test_env_overrides_applied(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", env={"MY_FLAG": "on"},
                           per_command_timeout=60, total_timeout=120)
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "echo flag=$MY_FLAG")
        assert "flag=on" in result.combined_output


class TestSingleThreadReader:
    def test_sentinel_split_across_reads_is_found(self, tmp_path, monkeypatch):
        # a local pipe never splits the sentinel's one small write, but the
        # container backend's docker client may; cap the reads to split it
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=10, total_timeout=20)
        real_read, cap = os.read, [1]
        monkeypatch.setattr(os, "read", lambda fd, n: real_read(fd, min(n, cap[0])))
        with create_sandbox(spec, ws) as handle:
            for cap[0] in range(1, 60):
                result = run(handle, "printf glued", "echo x")
                assert [pc[1] for pc in result.per_command] == [0, 0], cap
                assert result.combined_output == "glued\nx\n", cap

    def test_output_around_the_read_size_is_intact(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=60,
                           total_timeout=120, output_cap_bytes=1 << 20)
        with create_sandbox(spec, ws) as handle:
            for n in range(65536 - 40, 65536 + 41):
                result = run(handle, f"head -c {n} /dev/zero | tr '\\0' a", "echo x")
                assert [pc[1] for pc in result.per_command] == [0, 0], n
                assert result.combined_output == "a" * n + "\nx\n", n

    def test_long_output_keeps_exact_tail_quickly(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=60, total_timeout=120)
        data = "".join(f"{i}\n" for i in range(1, 1_000_001)).encode()
        with create_sandbox(spec, ws) as handle:
            started = time.monotonic()
            result = run(handle, "seq 1 1000000")
            elapsed = time.monotonic() - started
        assert result.overall_exit == 0
        assert elapsed < 3.0
        kept = data[-spec.output_cap_bytes:]
        omitted = len(data) - len(kept)
        assert result.combined_output == (
            f"[... output truncated, {omitted} bytes omitted ...]\n" + kept.decode()
        )

    def test_escaped_writer_holds_only_the_drain_bound(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        # the command ends only once the writer runs in a session of its own
        escaped = ("setsid sh -c 'touch $HOME/left; "
                   "for i in 1 2 3 4 5 6 7 8 9 10; do echo tick; sleep 1; done' & "
                   'echo "bg=$!"; while [ ! -e $HOME/left ]; do sleep 0.01; done')
        with create_sandbox(local_spec, ws) as handle:
            started = time.monotonic()
            result = run(handle, escaped)
            elapsed = time.monotonic() - started
        assert result.overall_exit == 0
        assert elapsed < DRAIN_SECONDS + 1.0
        assert "tick" in result.combined_output
        pid = int(re.search(r"bg=(\d+)", result.combined_output).group(1))
        # the closed pipe ends the writer at its next echo
        deadline = time.monotonic() + 3.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)

    def test_shell_is_reaped_without_sleeping(self, tmp_path, local_spec, monkeypatch):
        # Popen.wait(timeout) polls with sleeps while the shell exits
        ws = prepare_fixture("hello_make", tmp_path)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with create_sandbox(local_spec, ws) as handle:
            results = [run(handle, "true") for _ in range(5)]
        assert [r.overall_exit for r in results] == [0] * 5
        assert sleeps == []

    def test_timed_out_shell_is_reaped_without_sleeping(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="local", per_command_timeout=0.5, total_timeout=30)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "sleep 5")
        assert result.timed_out
        assert sleeps == []

    def test_without_a_pidfd_the_shell_is_still_reaped(self, tmp_path, local_spec,
                                                       monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        monkeypatch.delattr(os, "pidfd_open", raising=False)
        with create_sandbox(local_spec, ws) as handle:
            assert run(handle, "true").overall_exit == 0
            result = run(handle, "exit 7", "echo unreachable")
        assert [pc[1] for pc in result.per_command] == [7]

    def test_no_thread_is_started(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        counts = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                counts.append(threading.active_count())
                time.sleep(0.02)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            before = threading.active_count()
            with create_sandbox(local_spec, ws) as handle:
                result = run(handle, "sleep 2")
        finally:
            stop.set()
            watcher.join(timeout=5)
        assert not watcher.is_alive()
        assert result.overall_exit == 0
        assert len(counts) > 10
        assert set(counts) == {before}


@needs_docker_daemon
class TestContainerExecution:
    def test_container_round_trip(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        spec = SandboxSpec(backend="container", per_command_timeout=300,
                           total_timeout=600)
        with create_sandbox(spec, ws) as handle:
            result = run(handle, "cd /app/hello_make && make && ./hello")
        assert result.overall_exit == 0
        assert "hello from make" in result.combined_output


class TestContainerUnavailable:
    @pytest.mark.skipif(HAVE_DOCKER_DAEMON, reason="a Docker daemon is reachable")
    def test_missing_docker_is_a_typed_error(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        unavailable = "docker CLI not found|Docker daemon cannot be reached"
        with pytest.raises(RepobuildError, match=unavailable):
            create_sandbox(SandboxSpec(backend="container"), ws)

    @staticmethod
    def _fake_docker(monkeypatch, inspect_rc):
        """A docker CLI whose daemon never answers; records each subcommand."""
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv[1])
            if argv[1] == "version":
                return subprocess.CompletedProcess(
                    argv, 1, "", "Cannot connect to the Docker daemon"
                )
            rc = inspect_rc if argv[1] == "image" else 0
            return subprocess.CompletedProcess(argv, rc, "cid\n", "")

        monkeypatch.setattr("repobuild.sandbox.shutil.which", lambda name: f"/bin/{name}")
        monkeypatch.setattr("repobuild.sandbox.subprocess.run", fake_run)
        return calls

    def test_unreachable_daemon_is_named_and_nothing_built(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        calls = self._fake_docker(monkeypatch, inspect_rc=1)
        with pytest.raises(RepobuildError, match="Docker daemon cannot be reached"):
            create_sandbox(SandboxSpec(backend="container"), ws)
        assert calls == ["image", "version"]

    def test_present_image_needs_no_daemon_check(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        calls = self._fake_docker(monkeypatch, inspect_rc=0)
        destroy_sandbox(create_sandbox(SandboxSpec(backend="container"), ws))
        assert calls == ["image", "run", "rm"]
