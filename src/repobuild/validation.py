"""Build-outcome validation: find newly produced binaries, apply the
completion / strict / flexible criteria, and measure how much of the source
tree made it into the debug information."""

from __future__ import annotations

import logging
import os
import re
import stat
import struct
import subprocess
from collections import Counter
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import RepobuildError, UsageError
from .workspace import (
    MACHO_MAGICS, FileSnapshot, Workspace, file_entry, resolves_inside, stat_key, walk_files,
    walk_paths,
)

logger = logging.getLogger(__name__)

CLASSES = ("executable", "shared-object", "static-archive", "object-file", "other-binary")

_SOURCE_EXTS = (".c", ".cc", ".cpp", ".cxx")
_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do", "else",
    "defined", "alignof", "decltype", "_Static_assert", "static_assert",
}


class _BinaryArtifact(NamedTuple):
    rel_path: str
    file_name: str
    classify: str
    has_debug_info: bool


class BinaryArtifact(_BinaryArtifact):
    __slots__ = ()

    # fields named, not *args: decode_record makes one per binary, twice as fast
    def __new__(cls, rel_path, file_name, classify, has_debug_info):
        if classify not in CLASSES:
            raise UsageError(f"unknown artifact class {classify!r}")
        # the package's own string, shared by every artifact of the class
        return super().__new__(cls, rel_path, file_name, CLASSES[CLASSES.index(classify)],
                               has_debug_info)


class Verdict(NamedTuple):
    completion: bool
    strict: bool
    flexible: bool
    matched_names: frozenset
    new_binaries: Tuple[BinaryArtifact, ...]


class FunctionCoverageReport(NamedTuple):
    source_functions: Set[Tuple[str, str]]
    compiled_functions: Set[str]
    coverage_pct: float = 0.0
    top_uncompiled_dirs: Sequence[Tuple[str, int]] = ()
    undefined: bool = False


# -- binary classification ----------------------------------------------------


def classify_file(path: str | Path) -> Optional[Tuple[str, bool]]:
    """(class, has debug info) for executable-format files, None for the rest.

    Text files and binaries of unrecognized formats (images, databases) are
    not build artifacts and return None.
    """
    try:
        # unbuffered, so that only the bytes asked for are read
        with open(path, "rb", buffering=0) as fh:
            head = fh.read(64)
            if head.startswith(b"\x7fELF"):
                return _classify_elf(fh, head)
    except OSError:
        return None
    if head.startswith(b"!<arch>\n"):
        return ("static-archive", False)
    if head.startswith(b"MZ") or head[:4] in MACHO_MAGICS:
        return ("other-binary", False)
    return None


def _read_at(fh, size: int, off: int, n: int) -> bytes:
    """Up to ``n`` bytes at offset ``off``: fewer at the end of the file and
    none past it, as slicing the whole file would give."""
    if off >= size:
        return b""
    fh.seek(off)
    return fh.read(min(n, size - off))


def _classify_elf(fh, head: bytes) -> Optional[Tuple[str, bool]]:
    """Reads the 64-byte header, the program and section header tables and
    the section name table, never the rest of the file."""
    if len(head) < 64:
        return None
    size = os.fstat(fh.fileno()).st_size
    is64 = head[4] == 2
    endian = "<" if head[5] == 1 else ">"
    e_type = struct.unpack_from(endian + "H", head, 16)[0]
    has_debug = _elf_has_debug_info(fh, size, head, is64, endian)
    if e_type == 1:
        return ("object-file", has_debug)
    if e_type == 2:
        return ("executable", has_debug)
    if e_type == 3:
        kind = "executable" if _elf_has_interp(fh, size, head, is64, endian) else "shared-object"
        return (kind, has_debug)
    return ("other-binary", has_debug)


def _elf_has_interp(fh, size: int, head: bytes, is64: bool, endian: str) -> bool:
    # a PT_INTERP program header marks a dynamically linked executable
    if is64:
        e_phoff = struct.unpack_from(endian + "Q", head, 32)[0]
        e_phentsize, e_phnum = struct.unpack_from(endian + "HH", head, 54)
    else:
        e_phoff = struct.unpack_from(endian + "I", head, 28)[0]
        e_phentsize, e_phnum = struct.unpack_from(endian + "HH", head, 42)
    if not e_phnum:
        return False
    # up to the p_type word of the last entry; a short table ends the scan
    table = _read_at(fh, size, e_phoff, (e_phnum - 1) * e_phentsize + 4)
    for i in range(e_phnum):
        off = i * e_phentsize
        if off + 4 > len(table):
            break
        if struct.unpack_from(endian + "I", table, off)[0] == 3:
            return True
    return False


def _elf_has_debug_info(fh, size: int, head: bytes, is64: bool, endian: str) -> bool:
    # a short read anywhere raises struct.error, which means no debug info
    try:
        if is64:
            e_shoff = struct.unpack_from(endian + "Q", head, 40)[0]
            e_shentsize, e_shnum, e_shstrndx = struct.unpack_from(endian + "HHH", head, 58)
        else:
            e_shoff = struct.unpack_from(endian + "I", head, 32)[0]
            e_shentsize, e_shnum, e_shstrndx = struct.unpack_from(endian + "HHH", head, 46)
        if not e_shoff or e_shstrndx >= e_shnum:
            return False
        str_base = e_shoff + e_shstrndx * e_shentsize
        if is64:
            raw = _read_at(fh, size, str_base + 24, 16)
            str_off, str_size = struct.unpack_from(endian + "QQ", raw)
        else:
            raw = _read_at(fh, size, str_base + 16, 8)
            str_off, str_size = struct.unpack_from(endian + "II", raw)
        table = _read_at(fh, size, str_off, str_size)
        # up to the sh_name word of the last entry
        headers = _read_at(fh, size, e_shoff, (e_shnum - 1) * e_shentsize + 4)
        for i in range(e_shnum):
            name_off = struct.unpack_from(endian + "I", headers, i * e_shentsize)[0]
            end = table.find(b"\x00", name_off)
            if end != -1 and table[name_off:end] == b".debug_info":
                return True
    except struct.error:
        return False
    return False


def discover_new_binaries(before: FileSnapshot, ws: Workspace) -> List[BinaryArtifact]:
    """Classify every file that appeared or changed since ``before``, sorted
    by path.

    The workspace is walked now, header first, and the result equals the
    one two full-hash snapshots would give. A file whose lstat equals the
    one ``before`` trusts is unchanged. Any other file is classified, and a
    regular file is hashed only when it is a binary and ``before`` holds a
    digest for it: a binary whose baseline had no digest lacked a magic
    then, so its content has changed. A symlink counts only when it changed
    and resolves to a file inside the workspace, so ``libfoo.so ->
    libfoo.so.1`` does and ``app -> /bin/true`` does not.
    """
    found = []
    for rel, full, st in walk_files(ws):
        if before.stats.get(rel) == stat_key(st):
            continue
        old = before.entries.get(rel)
        if stat.S_ISLNK(st.st_mode) and (
            old == file_entry(full, st)
            or not (os.path.isfile(full) and resolves_inside(ws, full))
        ):
            continue
        info = classify_file(full)
        if info is None:
            continue
        # a binary that kept its hashed content is no product
        if stat.S_ISREG(st.st_mode) and old and old[1] and old == file_entry(full, st):
            continue
        found.append(BinaryArtifact(rel_path=rel, file_name=os.path.basename(rel),
                                    classify=info[0], has_debug_info=info[1]))
    return sorted(found, key=lambda a: a.rel_path)


# -- success criteria ---------------------------------------------------------


def judge(artifacts: Sequence[BinaryArtifact], expected: Iterable[str]) -> Verdict:
    """Apply the three success criteria to a produced-artifact list.

    Completion needs one non-intermediate binary of any name. Strict needs
    every expected name produced; flexible needs at least one. Names compare
    case-sensitively on the base name; with no expected names, strict and
    flexible are both false.
    """
    expected_set = set(expected)
    countable = [a for a in artifacts if a.classify != "object-file"]
    produced_names = {a.file_name for a in countable}
    matched = frozenset(
        name for name in expected_set if Path(name).name in produced_names
    )
    completion = bool(countable)
    strict = bool(expected_set) and len(matched) == len(expected_set)
    flexible = bool(matched)
    return Verdict(
        completion=completion,
        strict=strict,
        flexible=flexible,
        matched_names=matched,
        new_binaries=tuple(artifacts),
    )


# -- function coverage --------------------------------------------------------


# a // or /* comment, or a string or char literal; one left unterminated
# runs to the end of the text, and a backslash escapes any character
_NOISE_RE = re.compile(
    r"//[^\n]*|/\*(?:.*?\*/|.*)"
    r'|(")[^"\\]*(?:\\.[^"\\]*)*["\\]?'
    r"|(')[^'\\]*(?:\\.[^'\\]*)*['\\]?",
    re.DOTALL,
)
_SCOPE_RE = re.compile(r"[{};=]")
_PREPROC_RE = re.compile(r"^\s*#.*?(?<!\\)$", re.MULTILINE | re.DOTALL)
_FUNC_TAIL_RE = re.compile(
    r"([A-Za-z_~][A-Za-z0-9_:~]*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
    r"\s*(?:const|noexcept|override|final|->\s*[\w:<>,\s\*&]+)?\s*$"
)


def _strip_noise(text: str) -> str:
    """Remove comments, string/char literals, and preprocessor lines."""
    # a literal becomes its empty pair, a comment nothing
    stripped = _NOISE_RE.sub(r"\1\1\2\2", text)
    # joining escaped newlines folds multi-line macros into one droppable line
    stripped = stripped.replace("\\\n", " ")
    return _PREPROC_RE.sub("", stripped)


def scan_source_functions(text: str) -> List[str]:
    """Names of function definitions in one C/C++ source text.

    Syntactic pass: a definition is an identifier with an argument list
    directly followed by an opening brace at file or namespace scope.
    """
    clean = _strip_noise(text)
    names = []
    depth = 0
    chunk_start = 0
    for m in _SCOPE_RE.finditer(clean):
        ch, i = m.group(), m.start()
        if ch == "{":
            if depth == 0:
                head = clean[chunk_start:i]
                tail = _FUNC_TAIL_RE.search(head.strip())
                if tail:
                    name = tail.group(1).split("::")[-1].lstrip("~")
                    if name and name not in _CONTROL_KEYWORDS:
                        names.append(tail.group(1).split("::")[-1])
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                chunk_start = i + 1
        elif depth == 0:
            # `;` ends a declaration; after `=` comes an aggregate initializer,
            # so `int a[] = {...}` is not a definition
            chunk_start = i + 1
    return names


def default_symbol_extractor(path: Path) -> List[str]:
    """Function names in the debug info, parsed from `readelf --debug-dump=info`."""
    proc = subprocess.run(
        ["readelf", "--debug-dump=info", str(path)],
        capture_output=True,
        text=True,
        errors="replace",
        timeout=600,
    )
    if proc.returncode != 0:
        raise RepobuildError(f"readelf failed on {path}: {proc.stderr.strip()[:200]}")
    names = []
    in_subprogram = False
    for line in proc.stdout.splitlines():
        tag = re.search(r"\(DW_TAG_(\w+)\)", line)
        if tag:
            in_subprogram = tag.group(1) == "subprogram"
            continue
        if in_subprogram and "DW_AT_name" in line:
            _, _, value = line.partition("DW_AT_name")
            value = value.split(":", 1)[1] if ":" in value else value
            # indirect-string entries carry an extra "(...): " prefix
            if "):" in value:
                value = value.rsplit("):", 1)[1]
            name = value.strip()
            if name:
                names.append(name)
    return names


def function_coverage(
    ws: Workspace,
    artifacts: Sequence[BinaryArtifact],
) -> FunctionCoverageReport:
    """Fraction of source-defined functions present in the produced binaries'
    debug info, with the directories losing the most functions. Only regular
    source files that resolve inside the workspace are read."""
    source: Set[Tuple[str, str]] = set()
    for rel, full in walk_paths(ws):
        if not (rel.endswith(_SOURCE_EXTS) and os.path.isfile(full)
                and resolves_inside(ws, full)):
            continue
        try:
            text = Path(full).read_text("utf-8", errors="replace")
        except OSError:
            continue
        for name in scan_source_functions(text):
            source.add((name, rel))

    compiled: Set[str] = set()
    for artifact in artifacts:
        if not artifact.has_debug_info:
            continue
        try:
            compiled.update(default_symbol_extractor(ws.root_path / artifact.rel_path))
        except Exception as exc:
            logger.warning("symbol extraction failed for %s: %s", artifact.rel_path, exc)

    if not source or not compiled:
        return FunctionCoverageReport(
            source_functions=source, compiled_functions=compiled, undefined=True
        )

    matched = {(name, rel) for name, rel in source if name in compiled}
    unmatched = source - matched
    by_dir = Counter()
    for name, rel in unmatched:
        parts = Path(rel).parts
        by_dir[parts[0] if len(parts) > 1 else "."] += 1
    top = sorted(by_dir.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return FunctionCoverageReport(
        source_functions=source,
        compiled_functions=compiled,
        coverage_pct=100.0 * len(matched) / len(source),
        top_uncompiled_dirs=top,
    )

