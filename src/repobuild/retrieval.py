"""Build-instruction retrieval: distill the README, follow a bounded number
of documentation links, and consolidate what was learned into a dossier."""

from __future__ import annotations

import logging
import os
import re
from itertools import islice
from typing import List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import urljoin

from . import assets
from .agent import PromptContext
from .errors import ProtocolError
from .gateway import ChatMessage, LlmConfig, ask_structured, list_items
# not called here; perfbench/tracer.py patches them by name until ROADMAP item 1
from .gateway import complete  # noqa: F401
from .workspace import list_root_entries, read_readme  # noqa: F401
from .workspace import FETCH_CAP_BYTES, Workspace, resolves_inside

logger = logging.getLogger(__name__)

MAX_ROUNDS = 3
LINKS_PER_ROUND = 3
RAW_BODY_CEILING = 4 * 1024 * 1024  # refuse to process bodies beyond this
DEFAULT_FETCH_TIMEOUT = 20.0
MAX_REDIRECTS = 5
USER_AGENT = "repobuild/0.1 (build-instruction retrieval)"

_TEXTUAL_TYPES = ("application/json", "application/xml", "application/xhtml+xml")

_FORMAT_REMINDER = (
    "Reply with exactly the three labeled blocks:\n\nINSTRUCTIONS:\n<text>\n\n"
    "SUFFICIENT: yes|no\n\nLINKS:\n<one link per line, or leave empty>"
)


class LinkRef(NamedTuple):
    kind: str  # internal-file | external-url
    target: str
    discovered_in_round: int = 0


class FetchOutcome(NamedTuple):
    ok: bool
    content: str = ""
    failure_kind: str = ""  # timeout | non-success | oversize | non-text | missing | escape
    detail: str = ""


class RetrievalReply(NamedTuple):
    distilled: str
    sufficient: bool
    links: Tuple[str, ...]  # the LINKS items as written


class InstructionDossier(NamedTuple):
    instructions: str
    sufficient: bool
    visited: Sequence[LinkRef] = ()
    rounds_used: int = 1
    fetch_failures: Sequence[Tuple[str, str]] = ()


def html_to_text(html: str) -> str:
    """The visible text of an HTML page, skipping script and style elements."""
    # loaded here, as fetch_link loads the HTTP stack, so a process that
    # fetches no page carries no HTML parser
    from html.parser import HTMLParser

    class TextExtractor(HTMLParser):
        def __init__(self):
            super().__init__()
            self.chunks: List[str] = []
            self._skip_depth = 0

        def handle_starttag(self, tag, attrs):
            if tag in ("script", "style"):
                self._skip_depth += 1
            elif tag in ("p", "br", "li", "tr", "div", "h1", "h2", "h3", "h4", "pre"):
                self.chunks.append("\n")

        def handle_endtag(self, tag):
            if tag in ("script", "style") and self._skip_depth:
                self._skip_depth -= 1

        def handle_data(self, data):
            if not self._skip_depth:
                self.chunks.append(data)

    parser = TextExtractor()
    parser.feed(html)
    text = "".join(parser.chunks)
    lines = [ln.strip() for ln in text.splitlines()]
    return "\n".join(ln for ln in lines if ln)


def fetch_link(ws: Workspace, link: LinkRef) -> FetchOutcome:
    """Fetch one link's text: repository files directly, URLs over HTTP.

    Never raises; failures come back as typed records so the retrieval loop
    can continue past them.
    """
    if link.kind == "internal-file":
        target = ws.root_path / link.target
        if not resolves_inside(ws, target):
            return FetchOutcome(False, failure_kind="escape", detail=link.target)
        # os.path reads an OSError, such as a name too long, as no file
        if not os.path.isfile(target):
            return FetchOutcome(False, failure_kind="missing", detail=link.target)
        with open(target, "rb") as fh:
            data = fh.read(FETCH_CAP_BYTES)
        return FetchOutcome(True, content=data.decode("utf-8", errors="replace"))

    # loaded here, so a process that fetches no URL carries no HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    class LimitedRedirects(urllib.request.HTTPRedirectHandler):
        max_redirections = MAX_REDIRECTS

    opener = urllib.request.build_opener(LimitedRedirects)
    try:
        request = urllib.request.Request(link.target, headers={"User-Agent": USER_AGENT})
        with opener.open(request, timeout=DEFAULT_FETCH_TIMEOUT) as resp:
            # keep at most one byte past the ceiling, whatever Content-Length says
            raw = bytearray()
            while chunk := resp.read(64 * 1024):
                raw += chunk[: RAW_BODY_CEILING + 1 - len(raw)]
                if len(raw) > RAW_BODY_CEILING:
                    return FetchOutcome(
                        False, failure_kind="oversize",
                        detail=f"more than {RAW_BODY_CEILING} bytes",
                    )
            headers = resp.headers
    except urllib.error.HTTPError as exc:
        exc.close()
        return FetchOutcome(False, failure_kind="non-success", detail=f"status {exc.code}")
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # a connect timeout comes wrapped in URLError, a read timeout bare
        if isinstance(exc, TimeoutError) or isinstance(
            getattr(exc, "reason", None), TimeoutError
        ):
            return FetchOutcome(False, failure_kind="timeout", detail=link.target)
        return FetchOutcome(False, failure_kind="non-success", detail=str(exc))
    ctype = (headers.get("Content-Type") or "").split(";")[0].strip().lower()
    if ctype and not ctype.startswith("text/") and ctype not in _TEXTUAL_TYPES:
        return FetchOutcome(False, failure_kind="non-text", detail=ctype)
    try:
        body = raw.decode(headers.get_content_charset() or "utf-8", errors="replace")
    except LookupError:  # a charset Python does not know
        body = raw.decode("utf-8", errors="replace")
    if ctype in ("text/html", "application/xhtml+xml"):
        body = html_to_text(body)
    return FetchOutcome(True, content=body[:FETCH_CAP_BYTES])


def parse_retrieval_reply(raw: str) -> Optional[RetrievalReply]:
    """The labeled three-block reply, with its LINKS items as written; None
    when the INSTRUCTIONS or SUFFICIENT label is missing."""
    m_suf = re.search(r"^\s*SUFFICIENT:\s*(yes|no)\b", raw, re.IGNORECASE | re.MULTILINE)
    m_ins = re.search(
        r"INSTRUCTIONS:\s*\n?(.*?)(?=^\s*SUFFICIENT:)", raw, re.DOTALL | re.MULTILINE
    )
    if not m_suf or not m_ins:
        return None
    m_links = re.search(r"^\s*LINKS:\s*\n?(.*)\Z", raw, re.DOTALL | re.MULTILINE)
    return RetrievalReply(
        distilled=m_ins.group(1).strip(),
        sufficient=m_suf.group(1).lower() == "yes",
        links=tuple(list_items(m_links.group(1))) if m_links else (),
    )


def _link_ref(
    text: str,
    ws: Workspace,
    base_url: Optional[str],
    base_dir: Optional[str],
    round_no: int,
) -> Optional[LinkRef]:
    """What a LINKS item points at, or None when it is prose. ``base_url`` is
    the page fetched last and ``base_dir`` the directory of the repository
    file fetched last."""
    if text.startswith(("http://", "https://")):
        return LinkRef("external-url", text, round_no)
    # os.path reads an OSError, such as a name too long, as no file
    if os.path.exists(ws.root_path / text):
        return LinkRef("internal-file", text, round_no)
    if base_dir:
        joined = os.path.normpath(os.path.join(base_dir, text))
        if not joined.startswith("..") and os.path.exists(ws.root_path / joined):
            return LinkRef("internal-file", joined, round_no)
    if re.search(r"\s", text):
        return None  # a sentence that names no file
    # a mailto:, ftp: or other scheme joins to no page to fetch
    if base_url and (url := urljoin(base_url, text)).startswith(("http://", "https://")):
        return LinkRef("external-url", url, round_no)
    return LinkRef("internal-file", text, round_no)  # fetches as missing


def run_retrieval(
    ws: Workspace,
    cfg: LlmConfig,
    ctx: PromptContext,
) -> InstructionDossier:
    """Distill build instructions, following at most 3 links per round for at
    most 3 rounds. The first prompt shows the README and root listing of
    ``ctx``. Fetch failures never abort the loop; a malformed reply is
    re-asked once and then raises."""
    prompt = assets.text("prompts/retrieval.txt").format(**ctx._asdict())
    messages = [ChatMessage("user", prompt)]

    visited: List[LinkRef] = []
    failures: List[Tuple[str, str]] = []
    instructions = ""
    sufficient = False
    rounds_used = 0
    last_external_base: Optional[str] = None
    last_internal_dir: Optional[str] = None

    for round_no in range(1, MAX_ROUNDS + 1):
        rounds_used = round_no

        reply, raw, messages = ask_structured(
            cfg, messages, parse_retrieval_reply, _FORMAT_REMINDER
        )
        if reply is None:
            raise ProtocolError("reply is missing the INSTRUCTIONS or SUFFICIENT block")
        instructions = reply.distilled
        sufficient = reply.sufficient
        if sufficient or round_no == MAX_ROUNDS:
            break

        # prose takes no slot; the first links fill the round, then repeats go
        refs = (_link_ref(text, ws, last_external_base, last_internal_dir, round_no)
                for text in reply.links)
        slots = list(islice(filter(None, refs), LINKS_PER_ROUND))
        seen = {link.target for link in visited}
        fresh = [link for link in dict.fromkeys(slots) if link.target not in seen]
        if not fresh:
            break
        summaries = []
        for link in fresh:
            visited.append(link)
            outcome = fetch_link(ws, link)
            if outcome.ok:
                summaries.append(f"## {link.target}\n{outcome.content}")
                if link.kind == "external-url":
                    last_external_base = link.target
                else:
                    last_internal_dir = os.path.dirname(link.target)
            else:
                failures.append((link.target, outcome.failure_kind))
                summaries.append(f"## {link.target}\n[fetch failed: {outcome.failure_kind}]")
        messages = messages + [
            ChatMessage("assistant", raw),
            ChatMessage(
                "user",
                assets.text("prompts/retrieval_followup.txt").format(
                    fetched_summaries="\n\n".join(summaries)
                ),
            ),
        ]

    return InstructionDossier(
        instructions=instructions,
        sufficient=sufficient,
        visited=visited,
        rounds_used=rounds_used,
        fetch_failures=failures,
    )
