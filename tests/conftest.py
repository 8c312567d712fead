import os
import shutil
import tempfile
from pathlib import Path

import pytest

from repobuild.corpus import RepoRecord
from repobuild.gateway import LlmConfig, ScriptedScenario
from repobuild.sandbox import SandboxSpec
from repobuild.workspace import Workspace, prepare_workspace

FIXTURES = Path(__file__).parent / "fixtures"
REPOS = FIXTURES / "repos"

# Host tools that only some tests need; sh, make and cc are assumed everywhere.
HAVE_CMAKE = shutil.which("cmake") is not None
HAVE_GDB = shutil.which("gdb") is not None
# Decided without connecting: the docker CLI alone does not mean a daemon runs.
HAVE_DOCKER_DAEMON = bool(os.environ.get("DOCKER_HOST")) or os.path.exists(
    "/var/run/docker.sock"
)

needs_cmake = pytest.mark.skipif(not HAVE_CMAKE, reason="cmake not found on PATH")
needs_gdb = pytest.mark.skipif(not HAVE_GDB, reason="gdb not found on PATH")
needs_docker_daemon = pytest.mark.skipif(
    not HAVE_DOCKER_DAEMON,
    reason="no Docker daemon: DOCKER_HOST unset and /var/run/docker.sock absent",
)


@pytest.fixture(scope="session", autouse=True)
def no_jail_left_in_the_temp_dir():
    """Fail the run if it leaves a local jail in the temp dir: a jail lives in
    its session dir, or in the temp dir only until its sandbox is destroyed."""
    def jails():
        return set(Path(tempfile.gettempdir()).glob("repobuild-jail-*"))

    before = jails()
    yield
    left = jails() - before
    assert not left, f"jails left behind: {sorted(map(str, left))}"


def bytes_read():
    """Bytes this process has read so far (Linux ``rchar``), or None."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


EXPECTED_BINARIES = {
    "hello_make": ("hello",),
    "hello_cmake": ("hellocm",),
    "hello_autotools": ("hat",),
    "dual_build": ("dualapp",),
    "needs_header": ("app",),
    "coverage_repo": ("covapp",),
}


def fixture_record(name: str, expected=None) -> RepoRecord:
    if expected is None:
        expected = EXPECTED_BINARIES.get(name, ())
    return RepoRecord(
        id=f"fixture/{name}",
        clone_url=str(REPOS / name),
        expected_binaries=tuple(expected),
    )


def prepare_fixture(name: str, tmp_path: Path) -> Workspace:
    return prepare_workspace(fixture_record(name), tmp_path / f"session-{name}")


def workspace_at(root: Path, repo_id: str = "fixture/adhoc") -> Workspace:
    return Workspace(repo_id=repo_id, root_path=root)


def scripted_config(scenario: ScriptedScenario, **overrides) -> LlmConfig:
    return LlmConfig(backend="scripted", scenario=scenario, **overrides)


@pytest.fixture
def local_spec() -> SandboxSpec:
    return SandboxSpec(
        backend="local",
        per_command_timeout=120.0,
        total_timeout=240.0,
    )


def generated_makefile(n_objects: int = 400) -> str:
    """Deterministic machine-generated-style Makefile: lots of object rules,
    comment banners, and dependency lines around two real link rules."""
    lines = [
        "# generated by configure, do not edit",
        "#" * 60,
        "SHELL = /bin/sh",
        "CC = gcc",
        "TARGET = bigapp",
        "",
    ]
    for i in range(n_objects):
        lines.append(f"# object rule {i}")
        lines.append(f"mod_{i}.o: mod_{i}.c common.h")
        lines.append(f"\t$(CC) -c mod_{i}.c")
        lines.append("")
        lines.append(f"mod_{i}.c: mod_{i}.in")
        lines.append("")
    objs = " ".join(f"mod_{i}.o" for i in range(n_objects))
    lines.append("$(TARGET): " + objs + " \\")
    lines.append("\t\textra.o")
    lines.append(f"\t$(CC) -o $(TARGET) {objs} extra.o")
    lines.append("")
    lines.append("helper: helper.o")
    lines.append("\t$(CC) -o helper helper.o")
    lines.append("")
    lines.append(".PHONY: all clean")
    lines.append("all: $(TARGET) helper")
    lines.append("clean:")
    lines.append("\trm -f *.o $(TARGET) helper")
    return "\n".join(lines) + "\n"


def copy_fixture_tree(name: str, dest: Path) -> Path:
    shutil.copytree(REPOS / name, dest)
    return dest
