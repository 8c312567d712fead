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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import ProtocolError
from .gateway import ChatMessage, LlmConfig, ask_structured
from .workspace import FileSnapshot, Workspace, file_entry, stat_key, walk_files

logger = logging.getLogger(__name__)

CLASSES = ("executable", "shared-object", "static-archive", "object-file", "other-binary")

_SOURCE_EXTS = (".c", ".cc", ".cpp", ".cxx")
_CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do", "else",
    "defined", "alignof", "decltype", "_Static_assert", "static_assert",
}

_MACHO_MAGICS = (
    b"\xfe\xed\xfa\xce", b"\xce\xfa\xed\xfe",
    b"\xfe\xed\xfa\xcf", b"\xcf\xfa\xed\xfe",
    b"\xca\xfe\xba\xbe", b"\xbe\xba\xfe\xca",
)
# every file classify_file accepts starts with one of these
_BINARY_MAGICS = (b"\x7fELF", b"!<arch>\n", b"MZ") + _MACHO_MAGICS

SymbolExtractor = Callable[[Path], List[str]]


@dataclass(frozen=True)
class BinaryArtifact:
    rel_path: str
    file_name: str
    classify: str
    has_debug_info: bool

    def __post_init__(self):
        if self.classify not in CLASSES:
            raise ValueError(f"unknown artifact class {self.classify!r}")


@dataclass(frozen=True)
class Verdict:
    completion: bool
    strict: bool
    flexible: bool
    matched_names: frozenset
    new_binaries: Tuple[BinaryArtifact, ...]


@dataclass
class FunctionCoverageReport:
    source_functions: Set[Tuple[str, str]] = field(default_factory=set)
    compiled_functions: Set[str] = field(default_factory=set)
    coverage_pct: float = 0.0
    top_uncompiled_dirs: List[Tuple[str, int]] = field(default_factory=list)
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
    if head.startswith(b"MZ") or head[:4] in _MACHO_MAGICS:
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


def has_binary_magic(path: str) -> bool:
    """Whether the file starts with a magic of a format ``classify_file``
    recognises. Reads 8 bytes; a file without one is never an artifact."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read(8).startswith(_BINARY_MAGICS)


def discover_new_binaries(
    before: FileSnapshot, after: Optional[FileSnapshot], ws: Workspace
) -> List[BinaryArtifact]:
    """Classify every file that appeared or changed between the snapshots,
    sorted by path.

    A symlink counts only when it resolves to a file inside the workspace,
    so ``libfoo.so -> libfoo.so.1`` does and ``app -> /bin/true`` does not.

    With ``after`` None the workspace is walked now, header first, and the
    result equals the one a full snapshot taken now would give as ``after``.
    A file whose lstat equals the one ``before`` trusts is unchanged. Any
    other file is classified, and a regular file is hashed only when it is
    a binary and ``before`` holds a digest for it: a binary whose baseline
    had no digest lacked a magic then, so its content has changed.
    """
    if after is None:
        candidates = _changed_binaries_now(before, ws)
    else:
        changed = (p for p in after.entries
                   if p not in before.entries or after.entries[p] != before.entries[p])
        candidates = _classify_changed(changed, ws)
    return sorted(
        (BinaryArtifact(rel_path=rel, file_name=Path(rel).name, classify=info[0],
                        has_debug_info=info[1])
         for rel, info in candidates),
        key=lambda a: a.rel_path,
    )


def _classify_changed(changed: Iterable[str], ws: Workspace):
    root = ws.root_path.resolve()
    for rel in changed:
        full = ws.root_path / rel
        if not full.is_file():
            continue
        if full.is_symlink() and not full.resolve().is_relative_to(root):
            continue
        info = classify_file(full)
        if info is not None:
            yield rel, info


def _changed_binaries_now(before: FileSnapshot, ws: Workspace):
    for rel, full, st, _stable in walk_files(ws):
        if before.stats.get(rel) == stat_key(st):
            continue
        old = before.entries.get(rel)
        if stat.S_ISLNK(st.st_mode):
            if old != file_entry(full, st):
                yield from _classify_changed([rel], ws)
            continue
        info = classify_file(full)
        if info is None:
            continue
        if old is None or old[1] is None or old != file_entry(full, st):
            yield rel, info


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


_PREPROC_RE = re.compile(r"^\s*#.*?(?<!\\)$", re.MULTILINE | re.DOTALL)
_FUNC_TAIL_RE = re.compile(
    r"([A-Za-z_~][A-Za-z0-9_:~]*)\s*\([^()]*(?:\([^()]*\)[^()]*)*\)"
    r"\s*(?:const|noexcept|override|final|->\s*[\w:<>,\s\*&]+)?\s*$"
)


def _strip_noise(text: str) -> str:
    """Remove comments, string/char literals, and preprocessor lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            i = n if j == -1 else j + 2
        elif ch in ("\"", "'"):
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(ch)
            i += 1
    stripped = "".join(out)
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
    i = 0
    n = len(clean)
    while i < n:
        ch = clean[i]
        if ch == "{":
            if depth == 0:
                head = clean[chunk_start:i]
                m = _FUNC_TAIL_RE.search(head.strip())
                if m:
                    name = m.group(1).split("::")[-1].lstrip("~")
                    if name and name not in _CONTROL_KEYWORDS:
                        names.append(m.group(1).split("::")[-1])
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                chunk_start = i + 1
        elif ch == ";" and depth == 0:
            chunk_start = i + 1
        elif ch == "=" and depth == 0:
            # aggregate initializers: `int a[] = {...}` is not a definition
            chunk_start = i + 1
        i += 1
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
        raise RuntimeError(f"readelf failed on {path}: {proc.stderr.strip()[:200]}")
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
    symbol_extractor: Optional[SymbolExtractor] = None,
) -> FunctionCoverageReport:
    """Fraction of source-defined functions present in the produced binaries'
    debug info, with the directories losing the most functions."""
    extractor = symbol_extractor or default_symbol_extractor
    source: Set[Tuple[str, str]] = set()
    for ext in _SOURCE_EXTS:
        for path in sorted(ws.root_path.rglob(f"*{ext}")):
            if ".git" in path.parts:
                continue
            rel = str(path.relative_to(ws.root_path))
            try:
                text = path.read_text("utf-8", errors="replace")
            except OSError:
                continue
            for name in scan_source_functions(text):
                source.add((name, rel))

    compiled: Set[str] = set()
    for artifact in artifacts:
        if not artifact.has_debug_info:
            continue
        try:
            compiled.update(extractor(ws.root_path / artifact.rel_path))
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


# -- LLM verdict --------------------------------------------------------------


_VERDICT_REMINDER = (
    "Reply with exactly:\nVERDICT: yes|no\nRATIONALE: <one or two sentences>"
)


def llm_verdict(
    log: str,
    report: FunctionCoverageReport,
    artifacts: Sequence[BinaryArtifact],
    cfg: LlmConfig,
    log_tail_chars: int = 4000,
) -> Tuple[bool, str]:
    """Render the multi-signal validation prompt and parse a yes/no verdict."""
    executables = [a.file_name for a in artifacts if a.classify == "executable"]
    coverage = "undefined" if report.undefined else f"{report.coverage_pct:.1f}%"
    top = "\n".join(f"{d}: {c} functions missing" for d, c in report.top_uncompiled_dirs)
    prompt = (
        resources.files("repobuild.assets.prompts")
        .joinpath("validation.txt")
        .read_text("utf-8")
        .format(
            log_tail=log[-log_tail_chars:] or "(empty log)",
            executables=", ".join(executables) or "(none)",
            coverage_pct=coverage,
            top_uncompiled=top or "(none)",
        )
    )
    parsed, _, _ = ask_structured(
        cfg, [ChatMessage("user", prompt)], _parse_verdict, _VERDICT_REMINDER
    )
    if parsed is None:
        raise ProtocolError("validation reply is missing the VERDICT label")
    return parsed


def _parse_verdict(raw: str) -> Optional[Tuple[bool, str]]:
    m = re.search(r"^\s*VERDICT:\s*(yes|no)\b", raw, re.IGNORECASE | re.MULTILINE)
    if not m:
        return None
    rat = re.search(r"^\s*RATIONALE:\s*(.+)$", raw, re.IGNORECASE | re.MULTILINE)
    return (m.group(1).lower() == "yes", rat.group(1).strip() if rat else "")
