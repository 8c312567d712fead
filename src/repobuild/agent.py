"""Script-generation agent: prompt assembly, reply parsing, and the
generate -> execute -> repair loop, plus the single-shot baseline."""

from __future__ import annotations

import logging
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import assets
from .errors import ProtocolError, RepobuildError, UsageError
from .gateway import ChatMessage, LlmConfig, ask_structured, complete
from .sandbox import (
    CommandScript,
    ExecutionResult,
    SandboxSpec,
    create_sandbox,
    destroy_sandbox,
    exec_script,
)
from .workspace import Workspace

logger = logging.getLogger(__name__)

DEFAULT_MAX_TURNS = 12

VARIANTS = ("agent-with-retrieval", "agent-no-retrieval", "single-turn", "rule-based")

_FENCE_RE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)
_TERMINATE_RE = re.compile(r"\bterminate\b", re.IGNORECASE)
_SHELL_TAGS = {"bash", "sh", "shell"}
_HEREDOC_RE = re.compile(r"<<-?\s*['\"]?(\w+)['\"]?")

ELIDED_MARKER = "[execution output elided to fit the context budget]"
# characters of prompt before old outputs are elided; the reply cap is separate
PROMPT_BUDGET_CHARS = 200_000

SuccessProbe = Callable[[ExecutionResult, Workspace], bool]


@dataclass(frozen=True)
class PromptContext:
    """Everything the prompts need to know about one repository; the
    templates name their fields after it."""

    repo_full_name: str
    repo_root_in_sandbox: str
    readme: str
    root_listing: str
    preinstalled: str
    instructions: Optional[str] = None


@dataclass
class Turn:
    k: int
    kind: str  # command-turn | termination-turn | protocol-violation
    agent_reply_raw: str
    script: Optional[CommandScript] = None
    result: Optional[ExecutionResult] = None
    violation_note: Optional[str] = None

    def __post_init__(self):
        if self.kind == "command-turn" and self.script is None:
            raise ValueError("command turn requires a script")
        if self.kind == "termination-turn" and (self.script or self.result):
            raise ValueError("termination turn carries neither script nor result")


@dataclass
class BuildSession:
    repo_id: str
    variant: str
    max_turns: int
    turns: List[Turn] = field(default_factory=list)
    outcome: str = "infra-error"
    error_detail: Optional[str] = None

    def end_on_error(self, exc: Exception) -> None:
        """Close a session that an error cut short. A fault in the model's
        replies is a protocol error; anything else is the infrastructure's."""
        self.outcome = "protocol-error" if isinstance(exc, ProtocolError) else "infra-error"
        self.error_detail = str(exc)

    @property
    def fix_attempts(self) -> int:
        # rule-based attempts are alternative routines, not feedback-driven fixes
        if self.variant == "rule-based":
            return 0
        return sum(1 for t in self.turns if t.kind == "command-turn" and t.k >= 1)


@dataclass(frozen=True)
class ParsedReply:
    kind: str  # command | termination | violation
    script: Optional[CommandScript] = None
    reason: str = ""
    violation: Optional[str] = None


def _block_to_commands(block: str) -> List[str]:
    """Split a code block into commands, keeping multi-line constructs whole.

    Full-line comments are dropped. A trailing backslash, a trailing
    connective (&& || |), or an open heredoc keeps pulling lines into the
    same command so the shell receives it as one unit.
    """
    commands: List[str] = []
    pending: List[str] = []
    heredoc_end: Optional[str] = None
    for line in block.split("\n"):
        if heredoc_end is not None:
            pending.append(line)
            if line.strip() == heredoc_end:
                heredoc_end = None
                if not _continues(pending[-1]):
                    commands.append("\n".join(pending))
                    pending = []
            continue
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending.append(line)
        m = _HEREDOC_RE.search(line)
        if m:
            heredoc_end = m.group(1)
            continue
        if _continues(line):
            continue
        commands.append("\n".join(pending))
        pending = []
    if pending:
        commands.append("\n".join(pending))
    return [c for c in commands if c.strip()]


def _continues(line: str) -> bool:
    stripped = line.rstrip()
    return stripped.endswith(("\\", "&&", "||", "|"))


def parse_agent_reply(raw: str) -> ParsedReply:
    """Classify one agent reply as a command script, a termination, or a violation.

    The last shell-tagged fenced block wins; an untagged fenced block counts
    only when it is the sole block. A reply that pairs a code block with the
    word "terminate" is treated as a command turn with the violation noted.
    """
    blocks = _FENCE_RE.findall(raw)
    shell_blocks = [body for tag, body in blocks if tag.strip().lower() in _SHELL_TAGS]
    chosen: Optional[str] = None
    if shell_blocks:
        chosen = shell_blocks[-1]
    elif len(blocks) == 1 and not blocks[0][0].strip():
        chosen = blocks[0][1]

    has_terminate = bool(_TERMINATE_RE.search(raw))

    if chosen is not None:
        commands = _block_to_commands(chosen)
        commands = [c for c in commands if c.strip().lower() != "terminate"]
        if commands:
            note = None
            if has_terminate:
                note = "reply mixed a code block with the word 'terminate'"
            return ParsedReply(
                kind="command",
                script=CommandScript(commands=tuple(commands)),
                violation=note,
            )
    if has_terminate:
        reason = _TERMINATE_RE.sub("", raw).strip()
        return ParsedReply(kind="termination", reason=reason)
    return ParsedReply(kind="violation", violation="no code block and no termination word")


def _render_history(turns: Sequence[Turn]) -> str:
    parts = []
    for t in turns:
        if t.script is None:
            continue
        parts.append(f"# commands of turn {t.k}")
        parts.extend(t.script.commands)
    return "\n".join(parts) if parts else "(no commands executed yet)"


def assemble_generator_prompt(
    ctx: PromptContext,
    history: Sequence[Turn],
    budget: int = PROMPT_BUDGET_CHARS,
) -> List[ChatMessage]:
    """Render the conversation sent to the generator at the current turn.

    With no history this is just the system prompt plus the initial request.
    Each later feedback message carries the full command history and the
    newest execution output; when the rendered total exceeds the budget,
    outputs inside the oldest feedback messages are elided first. The system
    prompt, the initial request, and the newest output are never cut.
    """
    system = ChatMessage("system", assets.text("prompts/generator_system.txt"))
    if ctx.instructions:
        section = f"\nBuild instructions gathered from the project documentation:\n{ctx.instructions}\n"
    else:
        section = ""
    fields = asdict(ctx)
    initial = ChatMessage(
        "user",
        assets.text("prompts/generator_user_initial.txt").format(
            **fields, instructions_section=section
        ),
    )
    messages = [system, initial]
    command_turns = [t for t in history if t.kind == "command-turn"]
    feedback_tpl = assets.text("prompts/generator_user_feedback.txt")

    def feedback(i: int, output: str) -> ChatMessage:
        return ChatMessage("user", feedback_tpl.format(
            **fields,
            command_history=_render_history(command_turns[: i + 1]),
            execution_output=output,
        ))

    outputs = []
    for i, turn in enumerate(command_turns):
        messages.append(ChatMessage("assistant", turn.agent_reply_raw))
        output = turn.result.combined_output if turn.result else "(no output captured)"
        outputs.append(output)
        messages.append(feedback(i, output))

    def total() -> int:
        return sum(len(m.content) for m in messages)

    # the feedback of command turn i is message 3 + 2i; the newest one is
    # never elided, and an elided one is rendered again so only its output
    # is cut
    for i in range(len(command_turns) - 1):
        if total() <= budget:
            break
        if outputs[i]:
            messages[3 + 2 * i] = feedback(i, ELIDED_MARKER)
    return messages


def run_session(
    ws: Workspace,
    spec: SandboxSpec,
    probe: SuccessProbe,
    session: BuildSession,
    replies: Iterable[Tuple[str, ParsedReply]],
    fresh_sandbox: bool = False,
) -> BuildSession:
    """The session engine every method runs on: one turn per (raw, parsed)
    reply until the probe succeeds, the agent terminates, a reply violates
    the protocol, or the replies run out (turn budget exhausted).

    Scripts share one sandbox, created for the first of them, unless
    ``fresh_sandbox`` asks for a new one per script. Any error from the
    replies or the sandbox ends the session through ``end_on_error``,
    keeping the turns before it; an interrupt propagates.
    """
    handle = None
    try:
        for k, (raw, parsed) in enumerate(replies):
            if parsed.kind == "violation":
                session.turns.append(
                    Turn(k=k, kind="protocol-violation", agent_reply_raw=raw,
                         violation_note=parsed.violation)
                )
                session.outcome = "protocol-error"
                session.error_detail = parsed.violation
                break
            if parsed.kind == "termination":
                session.turns.append(Turn(k=k, kind="termination-turn", agent_reply_raw=raw))
                session.outcome = "agent-terminated"
                session.error_detail = parsed.reason[:500] or None
                break
            if handle is not None and fresh_sandbox:
                destroy_sandbox(handle)
                handle = None
            if handle is None:
                handle = create_sandbox(spec, ws)
            result = exec_script(handle, parsed.script)
            session.turns.append(
                Turn(
                    k=k,
                    kind="command-turn",
                    agent_reply_raw=raw,
                    script=parsed.script,
                    result=result,
                    violation_note=parsed.violation,
                )
            )
            if probe(result, ws):
                session.outcome = "succeeded"
                break
        else:
            session.outcome = "turn-budget-exhausted"
    except Exception as exc:
        # an error outside the package's own is a defect: keep its traceback
        logger.warning("%s session for %s ended early: %s", session.variant, ws.repo_id, exc,
                       exc_info=not isinstance(exc, RepobuildError))
        session.end_on_error(exc)
    finally:
        if handle is not None:
            destroy_sandbox(handle)
    return session


def run_build_loop(
    ws: Workspace,
    ctx: PromptContext,
    cfg: LlmConfig,
    spec: SandboxSpec,
    success_probe: SuccessProbe,
    max_turns: int = DEFAULT_MAX_TURNS,
    variant: str = "agent-no-retrieval",
) -> BuildSession:
    """Drive generate -> execute -> repair until success, termination, budget
    exhaustion, or two consecutive protocol violations.

    Turn indices run 0..max_turns inclusive, so a session contains at most
    max_turns + 1 command turns. The same sandbox is reused across turns so
    dependencies installed by one script remain available to the next.
    """
    if max_turns < 1:
        raise UsageError("max_turns must be >= 1")
    if variant not in VARIANTS:
        raise UsageError(f"unknown variant {variant!r}")
    session = BuildSession(repo_id=ws.repo_id, variant=variant, max_turns=max_turns)

    def replies():
        for _ in range(max_turns + 1):
            yield _ask_with_retry(cfg, assemble_generator_prompt(ctx, session.turns))

    return run_session(ws, spec, success_probe, session, replies())


def _ask_with_retry(cfg: LlmConfig, messages: List[ChatMessage]) -> Tuple[str, ParsedReply]:
    """One completion, with a single format-reminder re-ask on a violation.

    Two violations in a row surface as a violation result; the caller decides
    the session outcome.
    """

    def parse(raw: str) -> Optional[ParsedReply]:
        parsed = parse_agent_reply(raw)
        return None if parsed.kind == "violation" else parsed

    reminder = assets.text("prompts/format_reminder.txt")
    parsed, raw, sent = ask_structured(cfg, messages, parse, reminder)
    if parsed is None:
        return raw, ParsedReply(kind="violation", violation="two consecutive protocol violations")
    if len(sent) > len(messages) and parsed.kind == "command":
        parsed = replace(parsed, violation="recovered after a format reminder")
    return raw, parsed


def run_single_turn(
    ws: Workspace,
    ctx: PromptContext,
    cfg: LlmConfig,
    spec: SandboxSpec,
    success_probe: SuccessProbe,
) -> BuildSession:
    """Single-shot baseline: one prompt, one script, one execution, no repair."""
    session = BuildSession(repo_id=ws.repo_id, variant="single-turn", max_turns=1)
    prompt = assets.text("prompts/single_turn.txt").format(**asdict(ctx))

    def replies():
        raw = complete(cfg, [ChatMessage("user", prompt)])
        yield raw, parse_agent_reply(raw)

    return run_session(ws, spec, success_probe, session, replies())
