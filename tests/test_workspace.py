import hashlib
import json
import os
import re
import subprocess
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repobuild import workspace
from repobuild.corpus import RepoRecord
from repobuild.errors import RepobuildError
from repobuild.targets import find_makefiles
from repobuild.validation import discover_new_binaries, function_coverage
from repobuild.workspace import (
    BuildSystemKind,
    FileSnapshot,
    detect_build_systems,
    file_entry,
    list_root_entries,
    load_snapshot,
    prepare_workspace,
    read_readme,
    save_snapshot,
    snapshot_files,
)

from conftest import FIXTURES, REPOS, fixture_record, prepare_fixture, workspace_at


def make_git_repo(path: Path) -> str:
    path.mkdir()
    (path / "Makefile").write_text("app: app.c\n\tcc -o app app.c\n", "utf-8")
    (path / "app.c").write_text("int main(void){return 0;}\n", "utf-8")
    env = dict(os.environ,
               GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
    def git(*args):
        subprocess.run(["git", *args], cwd=path, env=env, check=True,
                       capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "first")
    return head_of(path)


def head_of(path: Path) -> str:
    """The commit the git checkout at ``path`` has checked out."""
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestPrepareWorkspace:
    def test_plain_directory_is_copied(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        assert ws.root_path.is_dir()
        assert (ws.root_path / "Makefile").exists()
        assert ws.repo_name == "hello_make"
        assert ws.mount_path == "/app/hello_make"
        # the checked-in fixture itself must stay untouched
        assert not (REPOS / "hello_make" / "hello").exists()

    def test_local_git_repo_is_cloned_and_pinned(self, tmp_path):
        head = make_git_repo(tmp_path / "origin")
        record = RepoRecord(id="t/origin", clone_url=str(tmp_path / "origin"))
        ws = prepare_workspace(record, tmp_path / "session")
        assert head_of(ws.root_path) == head
        assert (ws.root_path / ".git").exists()

    def test_commit_pinning_checks_out_revision(self, tmp_path):
        repo = tmp_path / "origin"
        first = make_git_repo(repo)
        env = dict(os.environ,
                   GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                   GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
        (repo / "extra.txt").write_text("later\n", "utf-8")
        subprocess.run(["git", "add", "-A"], cwd=repo, env=env, check=True)
        subprocess.run(["git", "commit", "-qm", "second"], cwd=repo, env=env, check=True)
        record = RepoRecord(id="t/origin", clone_url=str(repo), commit=first)
        ws = prepare_workspace(record, tmp_path / "session")
        assert head_of(ws.root_path) == first
        assert not (ws.root_path / "extra.txt").exists()

    def test_missing_revision_raises_typed_error(self, tmp_path):
        make_git_repo(tmp_path / "origin")
        record = RepoRecord(id="t/origin", clone_url=str(tmp_path / "origin"),
                            commit="0" * 40)
        with pytest.raises(RepobuildError, match=f"revision {'0' * 40} not found"):
            prepare_workspace(record, tmp_path / "session")

    def test_revision_of_a_plain_directory_is_not_found(self, tmp_path):
        record = fixture_record("hello_make")._replace(commit="main")
        with pytest.raises(RepobuildError, match=re.escape(
                f"revision main not found in {record.clone_url}")):
            prepare_workspace(record, tmp_path / "session")
        assert not (tmp_path / "session" / "hello_make").exists()

    def test_revision_that_reads_as_an_option_is_not_found(self, tmp_path):
        make_git_repo(tmp_path / "origin")
        record = RepoRecord(id="t/origin", clone_url=str(tmp_path / "origin"),
                            commit="--orphan=evil")
        with pytest.raises(RepobuildError, match="revision --orphan=evil not found in "):
            prepare_workspace(record, tmp_path / "session")

    def test_branch_name_resolves_to_its_commit(self, tmp_path):
        repo = tmp_path / "origin"
        first = make_git_repo(repo)
        env = dict(os.environ,
                   GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                   GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
        default = subprocess.run(["git", "branch", "--show-current"], cwd=repo,
                                 capture_output=True, text=True, check=True).stdout.strip()
        # a second branch, one commit ahead, that a clone holds only as origin/feature
        subprocess.run(["git", "checkout", "-qb", "feature"], cwd=repo, check=True)
        (repo / "extra.txt").write_text("later\n", "utf-8")
        subprocess.run(["git", "add", "-A"], cwd=repo, env=env, check=True)
        subprocess.run(["git", "commit", "-qm", "second"], cwd=repo, env=env, check=True)
        second = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                                capture_output=True, text=True, check=True).stdout.strip()
        subprocess.run(["git", "checkout", "-q", default], cwd=repo, check=True)
        for name, sha in ((default, first), ("feature", second)):
            record = RepoRecord(id="t/origin", clone_url=str(repo), commit=name)
            ws = prepare_workspace(record, tmp_path / f"session-{name}")
            assert head_of(ws.root_path) == sha
            assert (ws.root_path / "extra.txt").exists() == (name == "feature")

    def test_clone_url_that_reads_as_an_option_is_a_failed_clone(self, tmp_path):
        marker = tmp_path / "ran"
        url = f"--upload-pack=touch {marker}"
        record = RepoRecord(id="t/origin", clone_url=url)
        # git reads it as the repository, not as an option
        with pytest.raises(RepobuildError, match=re.escape(
                f"clone of {url} failed: fatal: repository '{url}' does not exist")):
            prepare_workspace(record, tmp_path / "session")
        assert not marker.exists()

    def test_unreachable_source_raises(self, tmp_path):
        record = RepoRecord(id="t/none", clone_url=str(tmp_path / "no-such-dir"))
        with pytest.raises(RepobuildError, match="clone of .* failed"):
            prepare_workspace(record, tmp_path / "session")

    def test_nonempty_session_dir_rejected(self, tmp_path):
        session = tmp_path / "session"
        session.mkdir()
        (session / "leftover").write_text("x", "utf-8")
        with pytest.raises(RepobuildError, match="is not empty"):
            prepare_workspace(fixture_record("hello_make"), session)


class TestSnapshots:
    def test_snapshot_and_diff_capture_new_and_changed(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        before = snapshot_files(ws)
        (ws.root_path / "new.bin").write_bytes(b"\x7fELF")
        (ws.root_path / "hello.c").write_text("int main(void){return 1;}\n", "utf-8")
        after = snapshot_files(ws)
        assert set(after.entries) - set(before.entries) == {"new.bin"}
        assert set(before.entries) <= set(after.entries)
        assert [p for p in before.entries if after.entries[p] != before.entries[p]] == [
            "hello.c"
        ]

    def test_mode_change_is_a_modification(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        before = snapshot_files(ws)
        os.chmod(ws.root_path / "hello.c", 0o755)
        after = snapshot_files(ws)
        assert after.entries["hello.c"] != before.entries["hello.c"]

    def test_symlinks_recorded_by_target(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        os.symlink("hello.c", ws.root_path / "alias")
        snap = snapshot_files(ws)
        assert "alias" in snap.entries
        os.remove(ws.root_path / "alias")
        os.symlink("Makefile", ws.root_path / "alias")
        assert snapshot_files(ws).entries["alias"] != snap.entries["alias"]

    def test_entries_are_sha256_of_content_and_of_link_target(self, tmp_path):
        data = b"int main(void){return 0;}\n" * 5000  # several read chunks
        (tmp_path / "f.c").write_bytes(data)
        os.chmod(tmp_path / "f.c", 0o755)
        os.symlink("f.c", tmp_path / "link")
        full, link = str(tmp_path / "f.c"), str(tmp_path / "link")
        assert file_entry(full, os.lstat(full)) == (
            len(data), hashlib.sha256(data).hexdigest(), True)
        assert file_entry(link, os.lstat(link)) == (
            3, hashlib.sha256(b"f.c").hexdigest(), False)

    def test_dangling_symlink_still_snapshots(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        os.symlink("no-such-file", ws.root_path / "dangle")
        snap = snapshot_files(ws)
        assert "dangle" in snap.entries

    def test_vcs_dirs_ignored(self, tmp_path):
        head = make_git_repo(tmp_path / "origin")
        record = RepoRecord(id="t/origin", clone_url=str(tmp_path / "origin"))
        ws = prepare_workspace(record, tmp_path / "session")
        snap = snapshot_files(ws)
        assert head  # repo exists
        assert not any(p.startswith(".git") for p in snap.entries)

    def test_save_load_round_trip(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        snap = snapshot_files(ws)
        out = tmp_path / "snap.json"
        save_snapshot(snap, out)
        assert set(json.loads(out.read_text("utf-8"))) == {"entries"}
        again = load_snapshot(out)
        assert again.entries == snap.entries
        assert again.stats == {}


class TestIncrementalSnapshot:
    # an mtime set before or after the ctime: the newer of the two decides
    @pytest.mark.parametrize("mtime_shift_s", [-3600, 3600])
    def test_only_stats_older_than_the_racy_margin_are_kept(
        self, tmp_path, monkeypatch, mtime_shift_s
    ):
        path = tmp_path / "a.c"
        path.write_text("int a;\n", "utf-8")
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + mtime_shift_s * 10**9))
        st = os.stat(path)
        newest = max(st.st_mtime_ns, st.st_ctime_ns)
        margin = workspace._RACY_MARGIN_NS
        ws = workspace_at(tmp_path)

        def snapshot_at(clock_ns):
            with monkeypatch.context() as m:
                m.setattr(workspace, "time", SimpleNamespace(time_ns=lambda: clock_ns))
                return snapshot_files(ws)

        # changed within the margin of the read: it may change again unseen
        assert snapshot_at(newest + margin).stats == {}
        # strictly older than the margin: the stat vouches for the content
        assert snapshot_at(newest + margin + 1).stats == {
            "a.c": (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev)
        }

    def test_snapshot_reads_the_clock_once_and_the_verdict_never(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        reads = []
        clock = time.time_ns
        monkeypatch.setattr(time, "time_ns", lambda: reads.append(1) or clock())
        before = snapshot_files(ws)
        assert len(reads) == 1
        assert len(before.entries) > 1
        reads.clear()
        assert discover_new_binaries(before, ws) == []
        assert reads == []

    def test_a_snapshot_equals_its_saved_copy(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        time.sleep(2 * workspace._RACY_MARGIN_NS / 1e9)
        snap = snapshot_files(ws)
        save_snapshot(snap, tmp_path / "snap.json")
        again = load_snapshot(tmp_path / "snap.json")
        assert snap.stats and not again.stats
        assert snap == again and again == snap and not snap != again

    def test_stats_take_no_part_in_equality(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        time.sleep(2 * workspace._RACY_MARGIN_NS / 1e9)
        snap = snapshot_files(ws)
        assert snap.stats
        assert snap == FileSnapshot(entries=snap.entries)


class TestDetection:
    def test_fixture_corpus_matches_hand_labels(self, tmp_path):
        labels = json.loads((FIXTURES / "build_systems.json").read_text("utf-8"))
        for name, expected in labels.items():
            ws = prepare_fixture(name, tmp_path)
            got = [[kind.value, evidence] for kind, evidence in detect_build_systems(ws)]
            assert got == expected, f"{name}: {got} != {expected}"

    def test_no_evidence_yields_none_kind(self, tmp_path):
        root = tmp_path / "bare"
        root.mkdir()
        (root / "notes.txt").write_text("nothing to build", "utf-8")
        ws = workspace_at(root)
        assert detect_build_systems(ws) == [(BuildSystemKind.NONE, ".")]

    def test_shallowest_evidence_wins(self, tmp_path):
        root = tmp_path / "nested"
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "Makefile").write_text("a:\n", "utf-8")
        (root / "Makefile").write_text("b:\n", "utf-8")
        ws = workspace_at(root)
        systems = dict(detect_build_systems(ws))
        assert systems[BuildSystemKind.MAKE] == "Makefile"

    def test_nested_only_evidence_found(self, tmp_path):
        root = tmp_path / "deep"
        (root / "src" / "core").mkdir(parents=True)
        (root / "src" / "core" / "meson.build").write_text("project('x', 'c')\n", "utf-8")
        ws = workspace_at(root)
        systems = dict(detect_build_systems(ws))
        assert systems[BuildSystemKind.MESON] == os.path.join("src", "core", "meson.build")

    def test_custom_script_detected(self, tmp_path):
        root = tmp_path / "scripted"
        root.mkdir()
        (root / "build.sh").write_text("#!/bin/sh\ncc -o app app.c\n", "utf-8")
        ws = workspace_at(root)
        assert dict(detect_build_systems(ws))[BuildSystemKind.CUSTOM_SCRIPT] == "build.sh"


class TestReadmeAndListing:
    def test_readme_found_and_preferred_at_root(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        got = read_readme(ws)
        assert got is not None
        content, rel = got
        assert rel == "README.md"
        assert "make" in content

    def test_no_readme_returns_none(self, tmp_path):
        ws = prepare_fixture("hello_cmake", tmp_path)
        assert read_readme(ws) is None

    def test_root_readme_beats_nested(self, tmp_path):
        root = tmp_path / "r"
        (root / "docs").mkdir(parents=True)
        (root / "docs" / "README.md").write_text("nested", "utf-8")
        (root / "README.rst").write_text("root", "utf-8")
        ws = workspace_at(root)
        content, rel = read_readme(ws)
        assert rel == "README.rst"
        assert content == "root"

    def test_out_of_tree_readme_is_skipped(self, tmp_path):
        secret = tmp_path / "outside" / "secret.txt"
        secret.parent.mkdir()
        secret.write_text("host secret", "utf-8")
        root = tmp_path / "r"
        (root / "docs").mkdir(parents=True)
        (root / "README.md").symlink_to(secret)
        (root / "docs" / "README.md").write_text("nested", "utf-8")
        ws = workspace_at(root)
        assert read_readme(ws) == ("nested", os.path.join("docs", "README.md"))
        (root / "docs" / "README.md").unlink()
        assert read_readme(ws) is None

    def test_list_root_entries(self, tmp_path):
        ws = prepare_fixture("coverage_repo", tmp_path)
        entries = list_root_entries(ws)
        assert ("Makefile", "file") in entries
        assert ("src", "dir") in entries
        assert entries == sorted(entries)


# every scanner's findings as relative paths
_SCANNERS = {
    "detect_build_systems": lambda ws: [rel for _kind, rel in detect_build_systems(ws)],
    "read_readme": lambda ws: [read_readme(ws)[1]],
    "find_makefiles": find_makefiles,
    "function_coverage": lambda ws: sorted(
        rel for _name, rel in function_coverage(ws, []).source_functions
    ),
}


class TestScanPolicy:
    @pytest.mark.parametrize("scanner", sorted(_SCANNERS))
    def test_vcs_dirs_and_symlinked_dirs_are_not_scanned(self, scanner, tmp_path):
        # the hidden copies sit shallower than the real ones, so a scanner
        # that looked into them would prefer them or list them too
        outside = tmp_path / "outside"
        root = tmp_path / "r"
        real = root / "src" / "deep"
        for d in (outside, real, root / ".git", root / ".hg", root / ".svn"):
            d.mkdir(parents=True)
            (d / "Makefile").write_text("all:\n\tcc -o app main.c\n", "utf-8")
            (d / "README").write_text("build with make", "utf-8")
            (d / "main.c").write_text("int main(void) { return 0; }\n", "utf-8")
        (root / "vendor").symlink_to(outside, target_is_directory=True)
        found = _SCANNERS[scanner](workspace_at(root))
        expected = {"read_readme": "README", "function_coverage": "main.c"}.get(
            scanner, "Makefile"
        )
        assert found == [os.path.join("src", "deep", expected)]

    @pytest.mark.parametrize("scanner", ["read_readme", "find_makefiles", "function_coverage"])
    def test_fifos_are_not_opened(self, scanner, tmp_path):
        # opening a FIFO for reading blocks until a writer opens it too, so
        # the scan runs on a thread and a blocked one fails the test
        root = tmp_path / "r"
        real = root / "src" / "deep"
        real.mkdir(parents=True)
        files = {"Makefile": "all:\n\tcc -o app main.c\n", "README": "build with make",
                 "main.c": "int main(void) { return 0; }\n"}
        for name, text in files.items():
            (real / name).write_text(text, "utf-8")
            os.mkfifo(root / name)
        found = []
        scan = threading.Thread(
            target=lambda: found.extend(_SCANNERS[scanner](workspace_at(root))), daemon=True
        )
        scan.start()
        scan.join(10)
        if scan.is_alive():
            # a writer's open and close lets a blocked reader see EOF
            for _ in range(100):
                for name in files:
                    try:
                        os.close(os.open(root / name, os.O_WRONLY | os.O_NONBLOCK))
                    except OSError:  # no reader waits on this one
                        pass
                scan.join(0.05)
            pytest.fail(f"{scanner} blocked on a FIFO")
        expected = {"read_readme": "README", "function_coverage": "main.c"}.get(
            scanner, "Makefile"
        )
        assert found == [os.path.join("src", "deep", expected)]
