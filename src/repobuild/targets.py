"""Executable-name prediction from Makefiles: find them, shrink them with an
ordered regex rule set, extract final-link targets, optionally ask an LLM."""

from __future__ import annotations

import json
import logging
import os
import posixpath
import re
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import assets
from .errors import ProtocolError
from .gateway import ChatMessage, LlmConfig, ask_structured, list_items
from .workspace import Workspace, resolves_inside, walk_paths

logger = logging.getLogger(__name__)

_MAKEFILE_NAMES = {"Makefile", "makefile", "GNUmakefile"}
_NON_TARGET_EXTS = {".o", ".obj", ".lo", ".a", ".c", ".cc", ".cpp", ".cxx", ".h", ".hpp", ".s"}
_VAR_REF_RE = re.compile(r"^\$[({](\w+)[)}]$")
# =, :=, ::=, :::=, ?= and +=; not !=, whose value is a shell command
_ASSIGN_RE = re.compile(r"^[ \t]*(\w+)[ \t]*(?::{1,3}|[?+])?=[ \t]*(.*)$")
_OUTPUT_FLAG_RE = re.compile(r"-o[ \t]+(\S+)")
# characters of cleaned Makefiles per prediction prompt: half the
# generator's 200,000-character prompt budget, whatever the reply cap
_CHUNK_CHARS = 100_000
# lines each prompt repeats from the end of the one before
_CHUNK_OVERLAP_LINES = 10

_NAMES_REMINDER = (
    "Reply with exactly:\nNAMES:\n<one executable name per line, or leave empty>"
)


@dataclass(frozen=True)
class MakefileDoc:
    """A Makefile as the units that cleaning keeps of it, each as (kind,
    text, line in the file)."""

    rel_path: str
    units: Tuple[Tuple[str, str, int], ...]

    @property
    def cleaned_text(self) -> str:
        return "".join(unit + "\n" for _, unit, _ in self.units)


@dataclass(frozen=True)
class TargetPrediction:
    names: Tuple[str, ...]
    evidence: Dict[str, Tuple[str, int]]  # name -> (makefile path, rule line)


def find_makefiles(ws: Workspace) -> List[str]:
    """Relative paths of all Makefiles and .mk fragments inside the workspace,
    shallowest first."""
    found = []
    for rel, full in walk_paths(ws):
        name = posixpath.basename(rel)
        if not (name in _MAKEFILE_NAMES or posixpath.splitext(name)[1] == ".mk"):
            continue
        if os.path.isfile(full) and resolves_inside(ws, full):
            found.append((rel.count("/"), rel))
    return [rel for _, rel in sorted(found)]


@cache
def load_cleaning_rules() -> Tuple[Tuple[str, re.Pattern], ...]:
    """The shipped cleaning rules as (action, pattern), in order."""
    return tuple((entry["action"], re.compile(entry["pattern"], re.MULTILINE))
                 for entry in json.loads(assets.text("makefile_cleaning_rules.json")))


def _split_units(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, 1-based line in ``text``) units: 'rule' blocks with their
    recipe lines, or single 'line' units. A line ending in a backslash is
    joined to the next with one space, and the unit keeps its first line."""
    lines, starts = [], []
    for no, line in enumerate(text.split("\n"), 1):
        if lines and lines[-1].endswith("\\"):
            lines[-1] = lines[-1][:-1] + " " + line.lstrip(" \t")
        else:
            lines.append(line)
            starts.append(no)
    units = []
    i = 0
    while i < len(lines):
        line = lines[i]
        start = starts[i]
        if line.startswith("\t"):
            # stray recipe line without a rule; treat as a plain line
            units.append(("line", line, start))
            i += 1
            continue
        if _is_rule_header(line):
            block = [line]
            i += 1
            # make ignores blank and comment lines among recipe lines, so
            # they end the rule only when no recipe line follows them
            for j in range(i, len(lines)):
                if lines[j].startswith("\t"):
                    block.append(lines[j])
                    i = j + 1
                elif lines[j].lstrip()[:1] not in ("", "#"):
                    break
            units.append(("rule", "\n".join(block), start))
        else:
            units.append(("line", line, start))
            i += 1
    return units


def _is_rule_header(line: str) -> bool:
    if line.startswith(("\t", "#")) or not line.strip():
        return False
    colon = -1
    for idx, ch in enumerate(line):
        if ch == "=" and colon == -1:
            return False
        if ch == ":":
            # :=, ::= and :::= introduce assignments, not rules
            if line.startswith(("=", ":=", "::="), idx + 1):
                return False
            colon = idx
            break
    return colon != -1


def clean_makefile(text: str) -> Tuple[Tuple[str, str, int], ...]:
    """Shrink a makefile to the units that matter for naming final binaries:
    the first entry of the ordered rule set that matches a unit decides keep
    or drop, and unmatched units are kept."""
    kept = []
    for kind, unit, line_no in _split_units(text):
        decision = None
        for action, pattern in load_cleaning_rules():
            if action == "drop-rule" and kind != "rule":
                continue
            if action == "drop-line" and kind != "line":
                continue
            if pattern.search(unit):
                decision = "keep" if action == "keep-rule" else "drop"
                break
        if decision != "drop":
            kept.append((kind, unit, line_no))
    return tuple(kept)


def load_makefile_docs(ws: Workspace) -> List[MakefileDoc]:
    docs = []
    for rel in find_makefiles(ws):
        raw = (ws.root_path / rel).read_text("utf-8", errors="replace")
        docs.append(MakefileDoc(rel, clean_makefile(raw)))
    return docs


def _expand(token: str, assignments: Dict[str, str]) -> Optional[str]:
    m = _VAR_REF_RE.match(token)
    if not m:
        return token
    value = assignments.get(m.group(1), "").split()
    return value[0] if value else None


def extract_targets_rule_based(docs: Sequence[MakefileDoc]) -> TargetPrediction:
    """Targets of final-link rules: not phony, named by the recipe's -o flag
    or an output variable, without object or source extensions."""
    names: List[str] = []
    evidence: Dict[str, Tuple[str, int]] = {}
    for doc in docs:
        assignments: Dict[str, str] = {}
        phony: set = set()
        for kind, unit, _ in doc.units:
            if kind == "line":
                m = _ASSIGN_RE.match(unit)
                if m:
                    assignments[m.group(1)] = m.group(2).strip()
            elif unit.split(":")[0].strip() == ".PHONY":
                phony.update(unit.split(":", 1)[1].split())
        for kind, unit, line_no in doc.units:
            if kind != "rule":
                continue
            header, _, recipe = unit.partition("\n")
            target_part = header.split(":", 1)[0]
            if not recipe:
                continue
            for tok in target_part.split():
                resolved = _expand(tok, assignments)
                if not resolved or resolved in phony or tok in phony:
                    continue
                if resolved.startswith(".") or "%" in resolved:
                    continue
                base = posixpath.basename(resolved)
                if posixpath.splitext(base)[1] in _NON_TARGET_EXTS:
                    continue
                if not _recipe_names_target(recipe, tok, resolved, assignments):
                    continue
                if base not in evidence:
                    names.append(base)
                    evidence[base] = (doc.rel_path, line_no)
    return TargetPrediction(names=tuple(names), evidence=evidence)


def _recipe_names_target(
    recipe: str, raw_target: str, resolved: str, assignments: Dict[str, str]
) -> bool:
    for m in _OUTPUT_FLAG_RE.finditer(recipe):
        out = m.group(1)
        if out == "$@":
            return True
        expanded = _expand(out, assignments)
        if expanded and posixpath.basename(expanded) == posixpath.basename(resolved):
            return True
        if out == raw_target:
            return True
    # archive tools name the output as their first non-flag argument
    ar = re.search(r"^\t[^\n]*\bar\b[ \t]+\S+[ \t]+(\S+)", recipe, re.MULTILINE)
    if ar:
        out = _expand(ar.group(1), assignments)
        if out == "$@" or (out and posixpath.basename(out) == posixpath.basename(resolved)):
            return True
    return False


def extract_targets_llm(
    docs: Sequence[MakefileDoc], cfg: LlmConfig
) -> TargetPrediction:
    """Ask the model for executable names over the cleaned docs and merge its
    list (first) with the rule-based extraction (after), deduplicated."""
    rule_based = extract_targets_rule_based(docs)
    template = assets.text("prompts/target_predict.txt")
    rendered = "\n\n".join(
        f"### {doc.rel_path}\n{doc.cleaned_text}" for doc in docs
    ) or "(no makefiles)"
    llm_names: List[str] = []
    for chunk in _chunk(rendered):
        parsed, _, _ = ask_structured(
            cfg, [ChatMessage("user", template.format(makefiles=chunk))],
            _parse_names, _NAMES_REMINDER,
        )
        if parsed is None:
            raise ProtocolError("target prediction reply is missing the NAMES label")
        llm_names.extend(parsed)

    names: List[str] = []
    evidence = dict(rule_based.evidence)
    fallback_doc = docs[0].rel_path if docs else ""
    for name in llm_names:
        if name not in names:
            names.append(name)
            evidence.setdefault(name, (fallback_doc, 0))
    for name in rule_based.names:
        if name not in names:
            names.append(name)
    return TargetPrediction(names=tuple(names), evidence=evidence)


def _parse_names(raw: str) -> Optional[List[str]]:
    m = re.search(r"^\s*NAMES:\s*\n?(.*)\Z", raw, re.DOTALL | re.MULTILINE)
    return list_items(m.group(1)) if m else None


def _chunk(text: str) -> List[str]:
    if len(text) <= _CHUNK_CHARS:
        return [text]
    lines = text.split("\n")
    chunks = []
    start = 0
    while start < len(lines):
        size = 0
        end = start
        while end < len(lines) and size + len(lines[end]) + 1 <= _CHUNK_CHARS:
            size += len(lines[end]) + 1
            end += 1
        end = max(end, start + 1)
        chunks.append("\n".join(lines[start:end]))
        if end >= len(lines):
            break
        start = max(end - _CHUNK_OVERLAP_LINES, start + 1)
    return chunks


def predict_targets(
    ws: Workspace, cfg: Optional[LlmConfig] = None
) -> TargetPrediction:
    """End-to-end prediction for one workspace; pass a config to add the LLM
    refinement on top of the rule-based pass."""
    docs = load_makefile_docs(ws)
    if cfg is None:
        return extract_targets_rule_based(docs)
    return extract_targets_llm(docs, cfg)
