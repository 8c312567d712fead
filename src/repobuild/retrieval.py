"""Build-instruction retrieval: distill the README, follow a bounded number
of documentation links, and consolidate what was learned into a dossier."""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from importlib import resources
from pathlib import Path
from typing import Callable, List, Optional, Tuple
from urllib.parse import urljoin, urlsplit

import requests

from .errors import ProtocolError
from .gateway import ChatMessage, LlmConfig, ask_structured
# not called here; perfbench/tracer.py patches it by name until ROADMAP item 1
from .gateway import complete  # noqa: F401
from .workspace import Workspace, list_root_entries, read_readme

logger = logging.getLogger(__name__)

MAX_ROUNDS = 3
LINKS_PER_ROUND = 3
FETCH_CAP_BYTES = 64 * 1024  # text kept per fetched link
RAW_BODY_CEILING = 4 * 1024 * 1024  # refuse to process bodies beyond this
DEFAULT_FETCH_TIMEOUT = 20.0
USER_AGENT = "repobuild/0.1 (build-instruction retrieval)"

_TEXTUAL_TYPES = ("application/json", "application/xml", "application/xhtml+xml")

_FORMAT_REMINDER = (
    "Reply with exactly the three labeled blocks:\n\nINSTRUCTIONS:\n<text>\n\n"
    "SUFFICIENT: yes|no\n\nLINKS:\n<one link per line, or leave empty>"
)


@dataclass(frozen=True)
class LinkRef:
    kind: str  # internal-file | external-url
    target: str
    discovered_in_round: int = 0

    def __post_init__(self):
        if self.kind not in ("internal-file", "external-url"):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.kind == "external-url" and not self.target.startswith(("http://", "https://")):
            raise ValueError(f"external link must be an absolute URL: {self.target!r}")
        if self.discovered_in_round < 0:
            raise ValueError("discovered_in_round must be >= 0")


@dataclass(frozen=True)
class FetchOutcome:
    ok: bool
    content: str = ""
    failure_kind: str = ""  # timeout | non-success | oversize | non-text | missing | escape
    detail: str = ""


@dataclass(frozen=True)
class RetrievalReply:
    distilled: str
    sufficient: bool
    candidate_links: Tuple[LinkRef, ...]


@dataclass
class InstructionDossier:
    instructions: str
    sufficient: bool
    visited: List[LinkRef] = field(default_factory=list)
    rounds_used: int = 1
    fetch_failures: List[Tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        if not (1 <= self.rounds_used <= MAX_ROUNDS):
            raise ValueError("rounds_used must be within the round budget")
        targets = [link.target for link in self.visited]
        if len(targets) != len(set(targets)):
            raise ValueError("visited links must be unique")


class _TextExtractor(HTMLParser):
    """Collects visible text, skipping script and style elements."""

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


def html_to_text(html: str) -> str:
    parser = _TextExtractor()
    parser.feed(html)
    text = "".join(parser.chunks)
    lines = [ln.strip() for ln in text.splitlines()]
    return "\n".join(ln for ln in lines if ln)


def fetch_link(
    ws: Workspace, link: LinkRef, timeout: float = DEFAULT_FETCH_TIMEOUT
) -> FetchOutcome:
    """Fetch one link's text: repository files directly, URLs over HTTP.

    Never raises; failures come back as typed records so the retrieval loop
    can continue past them.
    """
    if link.kind == "internal-file":
        root = ws.root_path.resolve()
        target = (root / link.target).resolve()
        if not target.is_relative_to(root):
            return FetchOutcome(False, failure_kind="escape", detail=link.target)
        if not target.is_file():
            return FetchOutcome(False, failure_kind="missing", detail=link.target)
        with open(target, "rb") as fh:
            data = fh.read(FETCH_CAP_BYTES)
        return FetchOutcome(True, content=data.decode("utf-8", errors="replace"))

    try:
        with requests.Session() as session:
            session.max_redirects = 5
            with session.get(
                link.target,
                timeout=timeout,
                headers={"User-Agent": USER_AGENT},
                allow_redirects=True,
                stream=True,
            ) as resp:
                if not resp.ok:
                    return FetchOutcome(
                        False, failure_kind="non-success", detail=f"status {resp.status_code}"
                    )
                # keep at most one byte past the ceiling, whatever Content-Length says
                raw = bytearray()
                for chunk in resp.iter_content(64 * 1024):
                    raw += chunk[: RAW_BODY_CEILING + 1 - len(raw)]
                    if len(raw) > RAW_BODY_CEILING:
                        return FetchOutcome(
                            False, failure_kind="oversize",
                            detail=f"more than {RAW_BODY_CEILING} bytes",
                        )
                headers, encoding = resp.headers, resp.encoding
    except requests.Timeout:
        return FetchOutcome(False, failure_kind="timeout", detail=link.target)
    except requests.RequestException as exc:
        return FetchOutcome(False, failure_kind="non-success", detail=str(exc))
    ctype = (headers.get("Content-Type") or "").split(";")[0].strip().lower()
    if ctype and not ctype.startswith("text/") and ctype not in _TEXTUAL_TYPES:
        return FetchOutcome(False, failure_kind="non-text", detail=ctype)
    body = raw.decode(encoding or "utf-8", errors="replace")
    if ctype in ("text/html", "application/xhtml+xml"):
        body = html_to_text(body)
    return FetchOutcome(True, content=body[:FETCH_CAP_BYTES])


def _parse_links(
    block: str,
    ws_root: Optional[Path],
    base_url: Optional[str],
    round_no: int,
    base_dir: Optional[str] = None,
):
    links: List[LinkRef] = []
    for line in block.splitlines():
        line = line.strip().lstrip("-*").strip()
        line = re.sub(r"^\d+[.)]\s*", "", line).strip("<>").strip()
        if not line or line.lower() in ("none", "(empty)", "n/a"):
            continue
        if line.startswith(("http://", "https://")):
            links.append(LinkRef("external-url", line, round_no))
            continue
        if ws_root is not None and (ws_root / line).exists():
            links.append(LinkRef("internal-file", line, round_no))
            continue
        if base_dir and ws_root is not None:
            # relative link echoed from an internal file: try its directory
            joined = os.path.normpath(os.path.join(base_dir, line))
            if not joined.startswith("..") and (ws_root / joined).exists():
                links.append(LinkRef("internal-file", joined, round_no))
                continue
        if base_url:
            # relative link echoed from an external page: resolve against it
            links.append(LinkRef("external-url", urljoin(base_url, line), round_no))
        else:
            links.append(LinkRef("internal-file", line, round_no))
    return links


def parse_retrieval_reply(
    raw: str,
    round_no: int = 1,
    ws_root: Optional[Path] = None,
    base_url: Optional[str] = None,
    base_dir: Optional[str] = None,
) -> RetrievalReply:
    """Parse the labeled three-block reply; raises ProtocolError when the
    required labels are missing."""
    m_suf = re.search(r"^\s*SUFFICIENT:\s*(yes|no)\b", raw, re.IGNORECASE | re.MULTILINE)
    m_ins = re.search(
        r"INSTRUCTIONS:\s*\n?(.*?)(?=^\s*SUFFICIENT:)", raw, re.DOTALL | re.MULTILINE
    )
    if not m_suf or not m_ins:
        raise ProtocolError("reply is missing the INSTRUCTIONS or SUFFICIENT block")
    m_links = re.search(r"^\s*LINKS:\s*\n?(.*)\Z", raw, re.DOTALL | re.MULTILINE)
    links = (
        _parse_links(m_links.group(1), ws_root, base_url, round_no, base_dir)
        if m_links
        else []
    )
    return RetrievalReply(
        distilled=m_ins.group(1).strip(),
        sufficient=m_suf.group(1).lower() == "yes",
        candidate_links=tuple(links[:LINKS_PER_ROUND]),
    )


def _prompt(name: str) -> str:
    return resources.files("repobuild.assets.prompts").joinpath(name).read_text("utf-8")


def run_retrieval(
    ws: Workspace,
    cfg: LlmConfig,
    fetcher: Optional[Callable[[Workspace, LinkRef], FetchOutcome]] = None,
) -> InstructionDossier:
    """Distill build instructions, following at most 3 links per round for at
    most 3 rounds. Fetch failures never abort the loop; a malformed reply is
    re-asked once and then raises."""
    fetcher = fetcher or fetch_link
    readme = read_readme(ws)
    listing = "\n".join(f"{name} ({kind})" for name, kind in list_root_entries(ws))
    readme_content = readme[0] if readme else "(repository has no README)"
    messages = [
        ChatMessage(
            "user",
            _prompt("retrieval.txt").format(
                repo_full_name=ws.repo_id,
                readme_content=readme_content,
                root_listing=listing or "(empty repository)",
            ),
        )
    ]

    visited: List[LinkRef] = []
    failures: List[Tuple[str, str]] = []
    instructions = ""
    sufficient = False
    rounds_used = 0
    last_external_base: Optional[str] = None
    last_internal_dir: Optional[str] = None

    for round_no in range(1, MAX_ROUNDS + 1):
        rounds_used = round_no

        def parse(raw: str) -> Optional[RetrievalReply]:
            try:
                return parse_retrieval_reply(
                    raw, round_no, ws.root_path, last_external_base, last_internal_dir
                )
            except ProtocolError:
                return None

        reply, raw, messages = ask_structured(cfg, messages, parse, _FORMAT_REMINDER)
        if reply is None:
            raise ProtocolError("reply is missing the INSTRUCTIONS or SUFFICIENT block")
        instructions = reply.distilled
        sufficient = reply.sufficient
        if sufficient or round_no == MAX_ROUNDS:
            break

        seen = {link.target for link in visited}
        fresh = []
        for link in reply.candidate_links:
            if link.target not in seen:
                seen.add(link.target)
                fresh.append(link)
        fresh = fresh[:LINKS_PER_ROUND]
        if not fresh:
            break
        summaries = []
        for link in fresh:
            visited.append(link)
            outcome = fetcher(ws, link)
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
                _prompt("retrieval_followup.txt").format(
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


def normalize_url(url: str) -> Tuple[str, str, str]:
    """Comparison key: case-insensitive host, no scheme, no fragment, no
    trailing slash."""
    if "://" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    path = parts.path.rstrip("/") or "/"
    return (parts.netloc.lower(), path, parts.query)


def score_retrieval(
    dossier: InstructionDossier,
    ground_truth_url: str,
    readme_rel_path: Optional[str] = None,
) -> bool:
    """True when the loop accessed the page holding the real build instructions.

    Ground truth designating the README (the literal word or the README's own
    relative path) scores true automatically: round 1 always consumes it.
    """
    if not ground_truth_url:
        raise ValueError("ground_truth_url must be non-empty")
    truth = ground_truth_url.strip()
    if truth.upper() == "README" or (readme_rel_path and truth == readme_rel_path):
        return True
    # a schemeless truth is a URL when its first segment looks like a host;
    # a leading ./ or ../ marks a repository path, not a domain
    first_segment = truth.split("/")[0]
    looks_like_host = first_segment not in (".", "..") and "." in first_segment
    if truth.startswith(("http://", "https://")) or ("://" not in truth and looks_like_host):
        truth_key = normalize_url(truth)
        for link in dossier.visited:
            if link.kind == "external-url" and normalize_url(link.target) == truth_key:
                return True
        return False
    normalized_truth = str(Path(truth))
    for link in dossier.visited:
        if link.kind == "internal-file" and str(Path(link.target)) == normalized_truth:
            return True
    return False
