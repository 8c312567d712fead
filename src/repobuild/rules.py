"""Rule-based builder: canonical non-LLM routines keyed to detected build
systems, attempted in detection order until one produces binaries."""

from __future__ import annotations

import json
import posixpath
import shlex
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import assets
from .agent import BuildSession, ParsedReply, SuccessProbe, run_session
from .sandbox import CommandScript, SandboxSpec
# not called here; perfbench/tracer.py patches them by name until ROADMAP item 1
from .sandbox import create_sandbox, destroy_sandbox, exec_script  # noqa: F401
from .workspace import BuildSystemKind, Workspace, detect_build_systems


@dataclass(frozen=True)
class BuildRoutine:
    kind: BuildSystemKind
    steps: Tuple[str, ...]


def load_build_routines() -> Dict[str, List[str]]:
    """Routine step templates by build-system name, from the shipped set."""
    return {k: list(v) for k, v in json.loads(assets.text("build_routines.json")).items()}


def render_routine(
    kind: BuildSystemKind, evidence: str, mount_path: str, templates: Dict[str, List[str]]
) -> Optional[BuildRoutine]:
    steps = templates.get(kind.value)
    if not steps:
        return None
    evidence_dir = posixpath.dirname(evidence) or "."
    directory = mount_path if evidence_dir == "." else posixpath.join(mount_path, evidence_dir)
    rendered = tuple(
        s.format(dir=shlex.quote(directory),
                 evidence_name=shlex.quote(posixpath.basename(evidence))) for s in steps
    )
    return BuildRoutine(kind=kind, steps=rendered)


def build_with_rules(
    ws: Workspace, spec: SandboxSpec, success_probe: SuccessProbe
) -> BuildSession:
    """Try each applicable canonical routine in a fresh sandbox; no retries,
    no LLM involvement. One command turn is recorded per attempted routine."""
    templates = load_build_routines()
    attempts: List[BuildRoutine] = []
    # detection reports kinds in the order their routines are attempted
    for kind, evidence in detect_build_systems(ws):
        routine = render_routine(kind, evidence, ws.mount_path, templates)
        if routine is not None:
            attempts.append(routine)
    session = BuildSession(repo_id=ws.repo_id, variant="rule-based",
                           max_turns=max(1, len(attempts)))
    replies = (
        (f"routine:{r.kind.value}", ParsedReply(kind="command", script=CommandScript(r.steps)))
        for r in attempts
    )
    return run_session(ws, spec, success_probe, session, replies, fresh_sandbox=True)
