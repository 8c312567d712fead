"""Chat-completion gateway.

Two backends behind one `complete()` call: a live HTTP backend speaking the
common chat-completion wire protocol, and a scripted backend that replays a
deterministic scenario for tests. Model identity is pure configuration.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Pattern, Sequence, Tuple, TypeVar, Union

from .errors import INT, NUMBER, POSITIVE_INT, SECONDS, STR, check
from .errors import ProtocolError, RepobuildError, UsageError

logger = logging.getLogger(__name__)

# environment variables consulted by the live backend
ENV_BASE_URL = "REPOBUILD_LLM_BASE_URL"
ENV_API_KEY = "REPOBUILD_LLM_API_KEY"

_RETRYABLE_STATUS = {408, 429, 500, 502, 503, 504}

Matcher = Union[str, Pattern]
T = TypeVar("T")

# every format reminder starts with this; the caller supplies the format line
REMINDER_PREFIX = "Your previous reply did not follow the required format. "


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass
class ScriptedScenario:
    """Ordered (matcher, reply) steps evaluated against the latest user message.

    A string matcher is a substring test; a compiled pattern is searched.
    The first matching step wins; with no match the default reply is used.
    """

    steps: List[Tuple[Matcher, str]] = field(default_factory=list)
    default_reply: Optional[str] = None

    def resolve(self, latest_user: str) -> str:
        for matcher, reply in self.steps:
            if isinstance(matcher, str):
                if matcher in latest_user:
                    return reply
            elif matcher.search(latest_user):
                return reply
        if self.default_reply is not None:
            return self.default_reply
        raise ProtocolError(f"no scripted step matches user message starting {latest_user[:80]!r}")


@dataclass
class LlmConfig:
    backend: str = "live"  # live | scripted
    model_name: str = "default"
    temperature: float = 0.0
    max_reply_chars: int = 200_000
    request_timeout: float = 120.0
    max_retries: int = 3
    scenario: Optional[ScriptedScenario] = None

    def __post_init__(self):
        if self.backend not in ("live", "scripted"):
            raise UsageError(f"unknown backend {self.backend!r}")
        check("LlmConfig", vars(self), _LLM_FIELDS)
        if self.backend == "scripted" and self.scenario is None:
            raise UsageError("scripted backend requires a scenario")


_LLM_FIELDS = {"model_name": STR, "temperature": NUMBER, "max_reply_chars": POSITIVE_INT,
               "request_timeout": SECONDS, "max_retries": INT}


def complete(config: LlmConfig, messages: Sequence[ChatMessage]) -> str:
    """Return the assistant reply for a conversation.

    The last message must be from the user. Replies longer than
    ``max_reply_chars`` raise; live transport failures are retried with
    exponential backoff up to ``max_retries`` times before raising.
    """
    if config.backend == "scripted":
        reply = config.scenario.resolve(messages[-1].content)
    else:
        reply = _live_complete(config, messages)

    if len(reply) > config.max_reply_chars:
        raise ProtocolError(f"reply of {len(reply)} chars exceeds cap {config.max_reply_chars}")
    return reply


def ask_structured(
    config: LlmConfig,
    messages: Sequence[ChatMessage],
    parse: Callable[[str], Optional[T]],
    reminder: str,
) -> Tuple[Optional[T], str, List[ChatMessage]]:
    """Ask, and re-ask once with a format reminder when ``parse`` returns None.

    Returns the parsed value (None when the re-ask was malformed too), the
    last raw reply, and a copy of the conversation that reply answers: after
    a re-ask, ``messages`` plus the malformed reply and the reminder.
    """
    raw = complete(config, messages)
    value = parse(raw)
    if value is not None:
        return value, raw, list(messages)
    messages = [*messages, ChatMessage("assistant", raw),
                ChatMessage("user", REMINDER_PREFIX + reminder)]
    raw = complete(config, messages)
    return parse(raw), raw, messages


def list_items(block: str) -> List[str]:
    """The items of a list block in a reply, one a line: bullets, `1.` or `2)`
    numbering and enclosing `<...>` stripped, blank lines and `none`,
    `(empty)` or `n/a` dropped."""
    items = []
    for line in block.splitlines():
        line = re.sub(r"^\d+[.)]\s*", "", line.strip().lstrip("-*").strip())
        line = line.strip("<>").strip()
        if line and line.lower() not in ("none", "(empty)", "n/a"):
            items.append(line)
    return items


def _live_complete(config: LlmConfig, messages: Sequence[ChatMessage]) -> str:
    # loaded here, so a process that makes no live call carries no HTTP stack
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    base = os.environ.get(ENV_BASE_URL)
    if not base:
        raise RepobuildError(f"{ENV_BASE_URL} is not set; live backend unavailable")
    # no retry can mend a URL that cannot be requested, so it fails at once
    try:
        parts = urllib.parse.urlsplit(base)
        usable = parts.scheme in ("http", "https") and parts.hostname
        parts.port  # raises ValueError unless the port is absent or a valid number
    except ValueError:
        usable = False
    if not usable:
        raise RepobuildError(f"{ENV_BASE_URL} is not a usable http(s) URL: {base!r}")
    url = base.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(ENV_API_KEY)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": config.model_name,
        "temperature": config.temperature,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
    }
    data = json.dumps(payload).encode("utf-8")

    last_err: Optional[str] = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            delay = min(2.0 ** attempt, 30.0)
            logger.info("retrying chat completion in %.1fs (attempt %d)", delay, attempt + 1)
            time.sleep(delay)
        try:
            request = urllib.request.Request(url, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=config.request_timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status, body = exc.code, b""
        except (OSError, ValueError, http.client.HTTPException) as exc:
            last_err = str(exc)
            continue
        if status in _RETRYABLE_STATUS:
            last_err = f"status {status}"
            continue
        if status != 200:
            raise RepobuildError(f"chat completion failed: status {status}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise RepobuildError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):
            raise RepobuildError(
                f"malformed completion response: content is {type(content).__name__}"
            )
        return content
    raise RepobuildError(f"chat completion failed after retries: {last_err}")
