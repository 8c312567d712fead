"""Script-generation agent: prompt assembly, reply parsing, and the
generate -> execute -> repair loop, plus the single-shot baseline."""

from __future__ import annotations

import logging
import re
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import assets
from .errors import ProtocolError, RepobuildError
from .gateway import ChatMessage, LlmConfig, ask_structured, complete
from .sandbox import (
    CommandScript,
    ExecutionResult,
    SandboxSpec,
    create_sandbox,
    destroy_sandbox,
    exec_script,
    parses_whole,
)
from .workspace import Workspace

logger = logging.getLogger(__name__)

DEFAULT_MAX_TURNS = 12

VARIANTS = ("agent-with-retrieval", "agent-no-retrieval", "single-turn", "rule-based")

_FENCE_RE = re.compile(r"```([^\n`]*)\n(.*?)```", re.DOTALL)
_TERMINATE_RE = re.compile(r"\bterminate\b", re.IGNORECASE)
_SHELL_TAGS = {"bash", "sh", "shell"}

ELIDED_MARKER = "[execution output elided to fit the context budget]"
# characters of prompt before old outputs are elided; the reply cap is separate
PROMPT_BUDGET_CHARS = 200_000

SuccessProbe = Callable[[Workspace], bool]


class PromptContext(NamedTuple):
    """Everything the prompts need to know about one repository; the
    templates name their fields after it."""

    repo_full_name: str
    repo_root_in_sandbox: str
    readme: str
    root_listing: str
    preinstalled: str
    instructions: Optional[str] = None


class Turn(NamedTuple):
    k: int
    kind: str  # command-turn | termination-turn | protocol-violation
    agent_reply_raw: str
    script: Optional[CommandScript] = None
    result: Optional[ExecutionResult] = None
    violation_note: Optional[str] = None


class BuildSession(NamedTuple):
    repo_id: str
    variant: str
    max_turns: int
    turns: Sequence[Turn] = ()
    outcome: str = "infra-error"
    error_detail: Optional[str] = None

    def end_on_error(self, exc: Exception) -> "BuildSession":
        """The session as an error closes it. A fault in the model's replies
        is a protocol error; anything else is the infrastructure's."""
        outcome = "protocol-error" if isinstance(exc, ProtocolError) else "infra-error"
        return self._replace(outcome=outcome, error_detail=str(exc))

    @property
    def fix_attempts(self) -> int:
        # rule-based attempts are alternative routines, not feedback-driven fixes
        if self.variant == "rule-based":
            return 0
        return sum(1 for t in self.turns if t.kind == "command-turn" and t.k >= 1)


class ParsedReply(NamedTuple):
    kind: str  # command | termination | violation
    script: Optional[CommandScript] = None
    reason: str = ""
    violation: Optional[str] = None


def _block_to_commands(block: str) -> Tuple[List[str], str]:
    """Split a code block into the commands ``exec_script`` runs one by one,
    and the tail that never parses ("" when there is none).

    A command ends at the first line where the lines so far parse as the
    unit ``exec_script`` sends, so bash decides how far a heredoc, a quoted
    string, a compound command or a trailing connective reaches. Blank and
    full-line comment lines are dropped between commands; inside one, bash
    reads them.
    """
    commands: List[str] = []
    pending = ""
    for line in block.split("\n"):
        if pending:
            pending += "\n" + line
        elif line.strip() and not line.lstrip().startswith("#"):
            pending = line
        else:
            continue
        if parses_whole(pending):
            commands.append(pending)
            pending = ""
    return commands, pending


def parse_agent_reply(raw: str) -> ParsedReply:
    """Classify one agent reply as a command script, a termination, or a violation.

    The last shell-tagged fenced block wins; an untagged fenced block counts
    only when it is the sole block. A reply that pairs a code block with the
    word "terminate" is treated as a command turn with the violation noted.
    A block whose tail never parses is a violation naming its first line.
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
        try:
            commands, tail = _block_to_commands(chosen)
        except UnicodeEncodeError as exc:  # a lone surrogate outside U+DC80..U+DCFF
            note = f"the shell block holds U+{ord(exc.object[exc.start]):04X}, which no shell reads"
            return ParsedReply("violation", violation=note)
        if tail:
            # sent to the shell, the tail would wait for input that never comes
            first = tail.partition("\n")[0]
            note = f"bash cannot parse the shell block from its line {first!r} on"
            return ParsedReply("violation", violation=note)
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
) -> List[ChatMessage]:
    """Render the conversation sent to the generator at the current turn.

    With no history this is just the system prompt plus the initial request.
    Each later feedback message carries the full command history and the
    newest execution output; when the rendered total exceeds
    ``PROMPT_BUDGET_CHARS``, outputs inside the oldest feedback messages are
    elided first. The system prompt, the initial request, and the newest
    output are never cut.
    """
    system = ChatMessage("system", assets.text("prompts/generator_system.txt"))
    if ctx.instructions:
        section = f"\nBuild instructions gathered from the project documentation:\n{ctx.instructions}\n"
    else:
        section = ""
    fields = ctx._asdict()
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
        if total() <= PROMPT_BUDGET_CHARS:
            break
        if outputs[i]:
            messages[3 + 2 * i] = feedback(i, ELIDED_MARKER)
    return messages


def run_session(
    ws: Workspace,
    spec: SandboxSpec,
    probe: SuccessProbe,
    session: BuildSession,
    replies: Callable[[Sequence[Turn]], Iterable[Tuple[str, ParsedReply]]],
    fresh_sandbox: bool = False,
) -> BuildSession:
    """The session engine every method runs on: one turn per (raw, parsed)
    reply until the probe succeeds, the agent terminates, a reply violates
    the protocol, or the replies run out (turn budget exhausted).
    ``replies`` is called once, with the list of turns that the session grows.

    Scripts share one sandbox, created for the first of them, unless
    ``fresh_sandbox`` asks for a new one per script. Any error from the
    replies or the sandbox ends the session through ``end_on_error``,
    keeping the turns before it; an interrupt propagates.
    """
    turns: List[Turn] = list(session.turns)
    outcome, detail = "turn-budget-exhausted", None
    handle = None
    try:
        for k, (raw, parsed) in enumerate(replies(turns)):
            if parsed.kind == "violation":
                turns.append(Turn(k=k, kind="protocol-violation", agent_reply_raw=raw,
                                  violation_note=parsed.violation))
                outcome, detail = "protocol-error", parsed.violation
                break
            if parsed.kind == "termination":
                turns.append(Turn(k=k, kind="termination-turn", agent_reply_raw=raw))
                outcome, detail = "agent-terminated", parsed.reason[:500] or None
                break
            if handle is not None and fresh_sandbox:
                destroy_sandbox(handle)
                handle = None
            if handle is None:
                handle = create_sandbox(spec, ws)
            turns.append(
                Turn(
                    k=k,
                    kind="command-turn",
                    agent_reply_raw=raw,
                    script=parsed.script,
                    result=exec_script(handle, parsed.script),
                    violation_note=parsed.violation,
                )
            )
            if probe(ws):
                outcome = "succeeded"
                break
    except Exception as exc:
        # an error outside the package's own is a defect: keep its traceback
        logger.warning("%s session for %s ended early: %s", session.variant, ws.repo_id, exc,
                       exc_info=not isinstance(exc, RepobuildError))
        return session._replace(turns=turns).end_on_error(exc)
    finally:
        if handle is not None:
            destroy_sandbox(handle)
    return session._replace(turns=turns, outcome=outcome, error_detail=detail)


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
    session = BuildSession(repo_id=ws.repo_id, variant=variant, max_turns=max_turns)

    def replies(turns):
        for _ in range(max_turns + 1):
            yield _ask_with_retry(cfg, assemble_generator_prompt(ctx, turns))

    return run_session(ws, spec, success_probe, session, replies)


def _ask_with_retry(cfg: LlmConfig, messages: List[ChatMessage]) -> Tuple[str, ParsedReply]:
    """One completion, with a single format-reminder re-ask on a violation.

    Two violations in a row surface as a violation result; the caller decides
    the session outcome.
    """

    notes = []  # each reply's violation note, so that no reply is parsed twice

    def parse(raw: str) -> Optional[ParsedReply]:
        parsed = parse_agent_reply(raw)
        notes.append(parsed.violation)
        return None if parsed.kind == "violation" else parsed

    reminder = assets.text("prompts/format_reminder.txt")
    parsed, raw, sent = ask_structured(cfg, messages, parse, reminder)
    if parsed is None:
        note = f"two consecutive protocol violations, the last: {notes[-1]}"
        return raw, ParsedReply(kind="violation", violation=note)
    if len(sent) > len(messages) and parsed.kind == "command":
        parsed = parsed._replace(violation="recovered after a format reminder")
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
    prompt = assets.text("prompts/single_turn.txt").format(**ctx._asdict())

    def replies(_turns):
        raw = complete(cfg, [ChatMessage("user", prompt)])
        yield raw, parse_agent_reply(raw)

    return run_session(ws, spec, success_probe, session, replies)
