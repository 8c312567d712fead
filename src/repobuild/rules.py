"""Rule-based builder: canonical non-LLM routines keyed to detected build
systems, attempted in priority order until one produces binaries."""

from __future__ import annotations

import json
import logging
import posixpath
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .agent import BuildSession, SuccessProbe, Turn
from .errors import RepobuildError
from .sandbox import CommandScript, SandboxSpec, create_sandbox, destroy_sandbox, exec_script
from .workspace import BuildSystemKind, Workspace, detect_build_systems

logger = logging.getLogger(__name__)

# attempt order when a repository shows several build systems
ROUTINE_PRIORITY = [
    BuildSystemKind.CMAKE,
    BuildSystemKind.AUTOTOOLS,
    BuildSystemKind.MAKE,
    BuildSystemKind.MESON,
    BuildSystemKind.QMAKE,
    BuildSystemKind.CUSTOM_SCRIPT,
]


@dataclass(frozen=True)
class BuildRoutine:
    kind: BuildSystemKind
    steps: Tuple[str, ...]


def load_build_routines(path: Optional[Path] = None) -> Dict[str, List[str]]:
    """Routine step templates by build-system name; users may supply their own
    file to extend or override the shipped set."""
    if path is not None:
        raw = Path(path).read_text("utf-8")
    else:
        raw = resources.files("repobuild.assets").joinpath("build_routines.json").read_text("utf-8")
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("routine file must map build-system names to step lists")
    return {k: list(v) for k, v in data.items()}


def render_routine(
    kind: BuildSystemKind, evidence: str, mount_path: str, templates: Dict[str, List[str]]
) -> Optional[BuildRoutine]:
    steps = templates.get(kind.value)
    if not steps:
        return None
    evidence_dir = posixpath.dirname(evidence) or "."
    directory = mount_path if evidence_dir == "." else posixpath.join(mount_path, evidence_dir)
    rendered = tuple(
        s.format(dir=directory, evidence_name=posixpath.basename(evidence)) for s in steps
    )
    return BuildRoutine(kind=kind, steps=rendered)


def build_with_rules(
    ws: Workspace,
    spec: SandboxSpec,
    success_probe: SuccessProbe,
    routines_path: Optional[Path] = None,
) -> BuildSession:
    """Try each applicable canonical routine in a fresh sandbox; no retries,
    no LLM involvement. One command turn is recorded per attempted routine."""
    session = BuildSession(repo_id=ws.repo_id, variant="rule-based", max_turns=1)
    templates = load_build_routines(routines_path)
    detected = dict(detect_build_systems(ws))
    attempts: List[BuildRoutine] = []
    for kind in ROUTINE_PRIORITY:
        if kind in detected:
            routine = render_routine(kind, detected[kind], ws.mount_path, templates)
            if routine is not None:
                attempts.append(routine)
    session.max_turns = max(1, len(attempts))

    try:
        for idx, routine in enumerate(attempts):
            script = CommandScript(commands=routine.steps, origin_turn=idx)
            handle = create_sandbox(spec, ws)
            try:
                result = exec_script(handle, script)
            finally:
                destroy_sandbox(handle)
            session.turns.append(
                Turn(
                    k=idx,
                    kind="command-turn",
                    agent_reply_raw=f"routine:{routine.kind.value}",
                    script=script,
                    result=result,
                )
            )
            if success_probe(result, ws):
                session.outcome = "succeeded"
                return session
        session.outcome = "turn-budget-exhausted"
    except RepobuildError as exc:
        logger.warning("rule-based build of %s ended early: %s", ws.repo_id, exc)
        session.end_on_error(exc)
    return session
