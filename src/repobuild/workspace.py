"""Session workspaces: repository materialization, inventory, and file snapshots."""

from __future__ import annotations

import json
import logging
import os
import shutil
import stat
import subprocess
import time
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Tuple

from .corpus import RepoRecord
from .errors import BOOL, INT, OBJECT, STR_OR_NULL, check, read_json, shown
from .errors import RepobuildError, UsageError

logger = logging.getLogger(__name__)

_README_NAMES = ["readme", "readme.md", "readme.rst", "readme.txt"]
FETCH_CAP_BYTES = 64 * 1024  # text kept of the README and of each fetched link

# directories that no walk of the workspace enters
_SCAN_IGNORE = {".git", ".hg", ".svn"}

MACHO_MAGICS = (
    b"\xfe\xed\xfa\xce", b"\xce\xfa\xed\xfe",
    b"\xfe\xed\xfa\xcf", b"\xcf\xfa\xed\xfe",
    b"\xca\xfe\xba\xbe", b"\xbe\xba\xfe\xca",
)
# every file validation.classify_file accepts starts with one of these
_BINARY_MAGICS = (b"\x7fELF", b"!<arch>\n", b"MZ") + MACHO_MAGICS


class BuildSystemKind(Enum):
    MAKE = "Make"
    CMAKE = "CMake"
    AUTOTOOLS = "Autotools"
    QMAKE = "QMake"
    MESON = "Meson"
    CUSTOM_SCRIPT = "CustomScript"
    NONE = "None"


# report order when several kinds coexist, and so the order in which the
# rule-based builder attempts their routines
_KIND_ORDER = [
    BuildSystemKind.CMAKE,
    BuildSystemKind.AUTOTOOLS,
    BuildSystemKind.MAKE,
    BuildSystemKind.MESON,
    BuildSystemKind.QMAKE,
    BuildSystemKind.CUSTOM_SCRIPT,
]


class Workspace(NamedTuple):
    """A materialized repository owned by a single session."""

    repo_id: str
    root_path: Path

    @property
    def repo_name(self) -> str:
        return self.repo_id.split("/", 1)[-1]

    @property
    def mount_path(self) -> str:
        """Fixed path where the sandbox exposes this workspace."""
        return f"/app/{self.repo_name}"


class FileSnapshot(NamedTuple):
    """Inventory of every regular file and symlink under a workspace root,
    with a digest of each symlink and of each file with a binary magic.

    ``stats`` only lets the live verdict skip files whose stat is unchanged;
    it takes no part in equality and is never saved, so a loaded snapshot
    has none and the verdict against it classifies every file.
    """

    entries: dict  # rel path -> (size, sha256 hex or None, executable flag)
    # rel path -> (st_mode, st_size, st_mtime_ns, st_ctime_ns, st_ino, st_dev),
    # kept only for entries whose stat can vouch for their content; read-only
    # when left out, so no two snapshots share a dict
    stats: Mapping[str, tuple] = MappingProxyType({})

    def __eq__(self, other):
        return isinstance(other, FileSnapshot) and self.entries == other.entries

    def __ne__(self, other):
        return not self == other


def _run_git(args: list, cwd: Optional[Path] = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def prepare_workspace(record: RepoRecord, session_dir: str | Path) -> Workspace:
    """Materialize ``record`` under ``session_dir`` and pin the requested revision.

    Remote URLs and local git repositories are cloned; a plain local directory
    (no version control) is copied verbatim so fixtures work without network.
    """
    session_dir = Path(session_dir)
    if session_dir.exists() and any(session_dir.iterdir()):
        raise UsageError(f"session dir {session_dir} is not empty")
    session_dir.mkdir(parents=True, exist_ok=True)
    dest = session_dir / record.name

    src = record.clone_url
    local = Path(src[7:]) if src.startswith("file://") else Path(src)
    if not src.startswith(("http://", "https://", "git://", "ssh://", "git@")) and local.is_dir():
        if not (local / ".git").exists():
            if record.commit:
                # a plain directory has no revision to check out
                raise RepobuildError(f"revision {record.commit} not found in {record.clone_url}")
            shutil.copytree(local, dest, symlinks=True)
            return Workspace(repo_id=record.id, root_path=dest.resolve())
        src = str(local)

    # neither the URL nor the revision may reach git as an option
    proc = _run_git(["clone", "--", src, str(dest)])
    if proc.returncode != 0:
        raise RepobuildError(f"clone of {record.clone_url} failed: {proc.stderr.strip()}")
    if record.commit:
        # a clone has only the default branch under refs/heads, so another
        # branch is looked up among the origin's
        for rev in (record.commit, f"refs/remotes/origin/{record.commit}"):
            proc = _run_git(["rev-parse", "--verify", "-q", "--end-of-options",
                             f"{rev}^{{commit}}"], cwd=dest)
            if proc.returncode == 0:
                # the SHA, as checkout reads --end-of-options as a pathspec
                proc = _run_git(["-c", "advice.detachedHead=false", "checkout",
                                 proc.stdout.strip()], cwd=dest)
                break
        if proc.returncode != 0:
            raise RepobuildError(f"revision {record.commit} not found in {record.clone_url}")
    return Workspace(repo_id=record.id, root_path=dest.resolve())


# Kernel file timestamps come from a coarse clock that can lag time.time_ns()
# by a tick, so "older than the read" keeps this much distance. File systems
# with coarser timestamps (FAT, ext3) or another clock (network mounts) would
# need more than it gives.
_RACY_MARGIN_NS = 50_000_000


def _sha256(data: bytes = b""):
    """A SHA-256 hash object. ``hashlib`` maps OpenSSL, so it is imported on
    the first digest: a run over source trees may take none."""
    import hashlib

    return hashlib.sha256(data)


def _digest_file(path: str) -> str:
    h = _sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def stat_key(st: os.stat_result) -> tuple:
    """The lstat fields that must all be equal for a file to count as unchanged."""
    return (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino, st.st_dev)


def file_entry(full: str, st: os.stat_result) -> tuple:
    """(size, sha256 hex, executable flag) of a regular file, or of a symlink
    by the digest of its target string."""
    if stat.S_ISLNK(st.st_mode):
        target = os.readlink(full)
        digest = _sha256(target.encode("utf-8", "surrogateescape")).hexdigest()
        return (len(target), digest, False)
    return (st.st_size, _digest_file(full), bool(st.st_mode & 0o111))


def walk_paths(ws: Workspace) -> Iterator[Tuple[str, str]]:
    """(rel path, full path) of every non-directory entry under the root, in
    no set order, skipping version-control directories.

    This is the one tree walk every workspace scan filters. It does not
    follow symlinked directories and stats nothing; a scanner that reads a
    file checks it with ``resolves_inside`` first.
    """
    root = str(ws.root_path)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SCAN_IGNORE]
        rel_dir = os.path.relpath(dirpath, root)
        # joined once per directory: the walk runs after every command turn
        prefix = os.path.join(dirpath, "")
        rel_prefix = "" if rel_dir == os.curdir else os.path.join(rel_dir, "")
        for name in filenames:
            yield rel_prefix + name, prefix + name


def walk_files(ws: Workspace) -> Iterator[Tuple[str, str, os.stat_result]]:
    """(rel path, full path, lstat) for every regular file and symlink that
    ``walk_paths`` yields."""
    for rel, full in walk_paths(ws):
        try:
            st = os.lstat(full)
        except (FileNotFoundError, NotADirectoryError):
            continue
        if stat.S_ISLNK(st.st_mode) or stat.S_ISREG(st.st_mode):
            yield rel, full, st


def has_binary_magic(path: str) -> bool:
    """Whether the file starts with a magic of a format
    ``validation.classify_file`` recognises. Reads 8 bytes; a file without
    one is never an artifact."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read(8).startswith(_BINARY_MAGICS)


def snapshot_files(ws: Workspace) -> FileSnapshot:
    """Record (size, digest, executable) for every file under the root.

    Only a regular file with a binary magic can become a product, and only
    such a file needs a digest to tell whether it changed, so every other
    regular file gets digest None. Symlinks are recorded by the digest of
    their target string, so a dangling link is still representable and a
    retargeted link shows up as a change. The lstat tuple is kept only for
    a file whose mtime and ctime are older than the clock read before the
    walk, less ``_RACY_MARGIN_NS``: only then can its stat vouch for its
    content. A file written just before it was read can be rewritten within
    the same clock tick and keep its stat ("racily clean", as git calls it).
    """
    entries, stats = {}, {}
    cutoff = time.time_ns() - _RACY_MARGIN_NS
    for rel, full, st in walk_files(ws):
        if stat.S_ISREG(st.st_mode) and not has_binary_magic(full):
            entries[rel] = (st.st_size, None, bool(st.st_mode & 0o111))
        else:
            entries[rel] = file_entry(full, st)
        if st.st_mtime_ns < cutoff and st.st_ctime_ns < cutoff:
            stats[rel] = stat_key(st)
    return FileSnapshot(entries=entries, stats=stats)


def save_snapshot(snapshot: FileSnapshot, path: str | Path) -> None:
    doc = {"entries": {rel: list(vals) for rel, vals in snapshot.entries.items()}}
    Path(path).write_text(json.dumps(doc, sort_keys=True), "utf-8")


# a file may hold other fields, as the "taken_at" older versions wrote
_SNAPSHOT_FIELDS = {"entries": OBJECT}
_ENTRY_FIELDS = {"size": INT, "digest": STR_OR_NULL, "executable": BOOL}


def load_snapshot(path: str | Path) -> FileSnapshot:
    where = f"snapshot file {path}"
    doc = check(where, read_json(path, "snapshot"), _SNAPSHOT_FIELDS, required=_SNAPSHOT_FIELDS)
    for rel, vals in doc["entries"].items():
        match vals:
            case [_, _, _]:
                check(f"{where}: entry {rel!r}", dict(zip(_ENTRY_FIELDS, vals)), _ENTRY_FIELDS)
            case _:
                raise UsageError(f"{where}: entry {rel!r} must be [size, digest or null, "
                                 f"true/false], got {shown(vals)}")
    return FileSnapshot(entries={rel: tuple(vals) for rel, vals in doc["entries"].items()})


def _evidence_kind(name: str) -> Optional[BuildSystemKind]:
    if name == "CMakeLists.txt":
        return BuildSystemKind.CMAKE
    if name in ("configure.ac", "configure.in", "configure"):
        return BuildSystemKind.AUTOTOOLS
    if name.startswith(("Makefile", "makefile")) or name == "GNUmakefile":
        return BuildSystemKind.MAKE
    if name == "meson.build":
        return BuildSystemKind.MESON
    if name.endswith(".pro"):
        return BuildSystemKind.QMAKE
    if name in ("build.sh", "compile.sh"):
        return BuildSystemKind.CUSTOM_SCRIPT
    return None


def detect_build_systems(ws: Workspace) -> list:
    """All build systems with evidence in the tree, shallowest evidence first.

    Returns (kind, relative evidence path) pairs, one per detected kind, in
    ``_KIND_ORDER``; a repository with no recognizable build files yields
    [(None kind, ".")].
    """
    found = {}  # kind -> (depth, rel path)
    for rel, _full in walk_paths(ws):
        kind = _evidence_kind(os.path.basename(rel))
        if kind is None:
            continue
        depth = rel.count(os.sep)
        best = found.get(kind)
        if best is None or (depth, rel) < best:
            found[kind] = (depth, rel)
    if not found:
        return [(BuildSystemKind.NONE, ".")]
    return [(kind, found[kind][1]) for kind in _KIND_ORDER if kind in found]


def resolves_inside(ws: Workspace, path: str | Path) -> bool:
    """Whether ``path``, with every symlink on it followed, lies in the workspace."""
    # realpath, not Path.resolve, which raises on a symlink loop before 3.13
    return Path(os.path.realpath(path)).is_relative_to(os.path.realpath(ws.root_path))


def read_readme(ws: Workspace) -> Optional[tuple]:
    """Shallowest readme file, preferring bare README over suffixed names.
    A readme that is not a regular file, such as a FIFO, or that resolves
    outside the workspace is skipped.

    Returns (text of its first 64 KiB, rel path), or None if there is none.
    """
    candidates = []  # (depth, name preference, rel path, full path)
    for rel, full in walk_paths(ws):
        name = os.path.basename(rel).lower()
        if name in _README_NAMES:
            candidates.append((rel.count(os.sep), _README_NAMES.index(name), rel, full))
    for _depth, _pref, rel, full in sorted(candidates):
        if os.path.isfile(full) and resolves_inside(ws, full):
            with open(full, "rb") as fh:
                return fh.read(FETCH_CAP_BYTES).decode("utf-8", errors="replace"), rel
    return None


def list_root_entries(ws: Workspace) -> list:
    """Immediate children of the root as (name, "file"|"dir"), sorted by name."""
    out = []
    for child in sorted(ws.root_path.iterdir(), key=lambda p: p.name):
        out.append((child.name, "dir" if child.is_dir() else "file"))
    return out
