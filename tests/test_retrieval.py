import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from repobuild import retrieval
from repobuild.bench import repo_context
from repobuild.errors import ProtocolError
from repobuild.gateway import ScriptedScenario
from repobuild.retrieval import (
    FETCH_CAP_BYTES,
    RAW_BODY_CEILING,
    USER_AGENT,
    FetchOutcome,
    InstructionDossier,
    LinkRef,
    _link_ref,
    fetch_link,
    html_to_text,
    normalize_url,
    parse_retrieval_reply,
    run_retrieval,
    score_retrieval,
)

from conftest import bytes_read, prepare_fixture, scripted_config, workspace_at

GOOD_REPLY = (
    "INSTRUCTIONS:\nRun make in the root.\n\nSUFFICIENT: yes\n\nLINKS:\n"
)


def reply(instructions="do things", sufficient="no", links=()):
    return (
        f"INSTRUCTIONS:\n{instructions}\n\nSUFFICIENT: {sufficient}\n\nLINKS:\n"
        + "\n".join(links)
    )


class TestLinkRef:
    def test_external_requires_absolute_url(self):
        with pytest.raises(ValueError):
            LinkRef("external-url", "docs/build.md")
        LinkRef("external-url", "https://example.com/x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LinkRef("ftp", "ftp://example.com")


class TestParseRetrievalReply:
    def test_three_blocks(self):
        parsed = parse_retrieval_reply(reply("use cmake", "no", ["docs/a.md"]))
        assert parsed.distilled == "use cmake"
        assert parsed.sufficient is False
        assert parsed.links == ("docs/a.md",)

    def test_sufficient_yes(self):
        assert parse_retrieval_reply(reply(sufficient="yes")).sufficient is True

    def test_case_insensitive_sufficient(self):
        raw = "INSTRUCTIONS:\nx\nSUFFICIENT: YES\nLINKS:\n"
        assert parse_retrieval_reply(raw).sufficient is True

    def test_missing_labels_give_none(self):
        assert parse_retrieval_reply("here are some thoughts about the build") is None
        assert parse_retrieval_reply("INSTRUCTIONS:\nstuff but no sufficiency") is None

    def test_bullets_numbers_and_angles_stripped(self):
        parsed = parse_retrieval_reply(
            reply(links=["- docs/a.md", "2) <https://example.com/b>", "* c.md"])
        )
        assert parsed.links == ("docs/a.md", "https://example.com/b", "c.md")

    def test_none_markers_ignored(self):
        parsed = parse_retrieval_reply(reply(links=["none"]))
        assert parsed.links == ()


class TestLinkResolution:
    def _ref(self, text, tmp_path, base_url=None, base_dir=None):
        ws = workspace_at(tmp_path)
        return _link_ref(text, ws, base_url, base_dir, 1)

    def test_url_classified_external(self, tmp_path):
        link = self._ref("http://example.com/docs", tmp_path)
        assert (link.kind, link.target) == ("external-url", "http://example.com/docs")

    def test_existing_path_classified_internal(self, tmp_path):
        (tmp_path / "INSTALL.md").write_text("instructions", "utf-8")
        link = self._ref("INSTALL.md", tmp_path)
        assert (link.kind, link.target) == ("internal-file", "INSTALL.md")

    def test_relative_link_resolved_against_last_external_base(self, tmp_path):
        link = self._ref(
            "guide/building.html", tmp_path,
            base_url="https://docs.example.com/root/index.html",
        )
        assert link.kind == "external-url"
        assert link.target == "https://docs.example.com/root/guide/building.html"

    def test_relative_link_resolved_against_internal_file_dir(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "BUILD.md").write_text("see DEPS.md", "utf-8")
        (tmp_path / "docs" / "DEPS.md").write_text("apt install libfoo", "utf-8")
        link = self._ref("DEPS.md", tmp_path, base_dir="docs")
        assert (link.kind, link.target) == ("internal-file", "docs/DEPS.md")

    def test_unknown_name_is_an_internal_file(self, tmp_path):
        link = self._ref("docs/absent.md", tmp_path)
        assert (link.kind, link.target) == ("internal-file", "docs/absent.md")

    @pytest.mark.parametrize("base_url", [None, "https://example.com/docs/index.html"])
    def test_prose_is_no_link(self, tmp_path, base_url):
        assert self._ref("See the wiki page for details", tmp_path, base_url=base_url) is None

    def test_existing_path_with_a_space_is_a_link(self, tmp_path):
        (tmp_path / "build notes.txt").write_text("make", "utf-8")
        link = self._ref("build notes.txt", tmp_path)
        assert (link.kind, link.target) == ("internal-file", "build notes.txt")


class TestHtmlToText:
    def test_tags_stripped_scripts_dropped(self):
        html = (
            "<html><head><style>p{}</style><script>var x=1;</script></head>"
            "<body><h1>Building</h1><p>Run <code>make</code> now.</p></body></html>"
        )
        text = html_to_text(html)
        assert "Building" in text
        assert "Run" in text and "make" in text
        assert "var x" not in text
        assert "<p>" not in text


class TestFetchLink:
    def test_internal_file(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        outcome = fetch_link(ws, LinkRef("internal-file", "README.md"))
        assert outcome.ok
        assert "make" in outcome.content

    def test_internal_missing(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        outcome = fetch_link(ws, LinkRef("internal-file", "docs/absent.md"))
        assert not outcome.ok
        assert outcome.failure_kind == "missing"

    def test_internal_escape_blocked(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        outcome = fetch_link(ws, LinkRef("internal-file", "../../etc/passwd"))
        assert not outcome.ok
        assert outcome.failure_kind == "escape"

    def test_internal_capped(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        (ws.root_path / "big.txt").write_text("z" * (FETCH_CAP_BYTES + 500), "utf-8")
        outcome = fetch_link(ws, LinkRef("internal-file", "big.txt"))
        assert outcome.ok
        assert len(outcome.content) == FETCH_CAP_BYTES

    def test_external_http_served_locally(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                if self.path == "/build.html":
                    body = b"<html><body><p>cmake then make</p></body></html>"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/html")
                elif self.path == "/blob.bin":
                    body = b"\x00\x01\x02"
                    self.send_response(200)
                    self.send_header("Content-Type", "application/octet-stream")
                else:
                    body = b"gone"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            ok = fetch_link(ws, LinkRef("external-url", f"{base}/build.html"))
            assert ok.ok
            assert "cmake then make" in ok.content
            assert "<p>" not in ok.content

            missing = fetch_link(ws, LinkRef("external-url", f"{base}/nope"))
            assert missing.failure_kind == "non-success"

            binary = fetch_link(ws, LinkRef("external-url", f"{base}/blob.bin"))
            assert binary.failure_kind == "non-text"
        finally:
            server.shutdown()
            server.server_close()

    def test_internal_read_is_bounded(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        with open(ws.root_path / "huge.txt", "wb") as fh:
            fh.truncate(8 << 20)
        before = bytes_read()
        if before is None:
            pytest.skip("/proc/self/io is not readable")
        outcome = fetch_link(ws, LinkRef("internal-file", "huge.txt"))
        assert outcome.ok
        assert len(outcome.content) == FETCH_CAP_BYTES
        assert bytes_read() - before < 1 << 20

    def test_body_past_the_ceiling_without_length_is_oversize(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        accepted = []  # bytes the server's socket took, one entry per request

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.0 and no Content-Length: the body ends when the socket closes
            def do_GET(self):
                size, sent = int(self.path.strip("/")), 0
                self.send_response(200)
                self.send_header("Content-Type", "text/plain")
                self.end_headers()
                try:
                    while sent < size:
                        chunk = min(1 << 20, size - sent)
                        self.wfile.write(b"a" * chunk)
                        sent += chunk
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client stopped reading
                accepted.append(sent)

            def log_message(self, *a):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            over = fetch_link(ws, LinkRef("external-url", f"{base}/{RAW_BODY_CEILING + 1}"))
            assert not over.ok
            assert over.failure_kind == "oversize"

            at = fetch_link(ws, LinkRef("external-url", f"{base}/{RAW_BODY_CEILING}"))
            assert at.ok
            assert at.content == "a" * FETCH_CAP_BYTES

            # the client stops at the ceiling, so a long body is never sent
            # whole: what the server got rid of is the ceiling plus socket buffers
            huge = fetch_link(ws, LinkRef("external-url", f"{base}/{32 << 20}"))
            assert huge.failure_kind == "oversize"
            server.shutdown()  # returns once the last request is handled
            assert len(accepted) == 3
            assert accepted[2] < 24 << 20
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("url", ["http://[::1/x", "http://127.0.0.1:port/x"])
    def test_unusable_url_is_non_success(self, tmp_path, url):
        ws = prepare_fixture("hello_make", tmp_path)
        outcome = fetch_link(ws, LinkRef("external-url", url))
        assert outcome.failure_kind == "non-success"

    def test_connection_refused_is_non_success(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        outcome = fetch_link(ws, LinkRef("external-url", "http://127.0.0.1:1/x"))
        assert not outcome.ok
        assert outcome.failure_kind == "non-success"


class TestFetchOverHttp:
    @pytest.fixture
    def serve(self):
        """Start a local server for ``routes``: path -> (status, headers,
        body); yields a function that returns the server's base URL and
        records each request's path and headers in its ``received``."""
        servers = []

        def start(routes):
            class Handler(BaseHTTPRequestHandler):
                def do_GET(self):
                    start.received.append((self.path, dict(self.headers)))
                    status, headers, body = routes[self.path]
                    self.send_response(status)
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)

                def log_message(self, *a):
                    pass

            server = HTTPServer(("127.0.0.1", 0), Handler)
            thread = threading.Thread(
                target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
            )
            thread.start()
            servers.append((server, thread))
            return f"http://127.0.0.1:{server.server_port}"

        start.received = []
        yield start
        for server, thread in servers:
            server.shutdown()
            server.server_close()
            thread.join()

    @staticmethod
    def redirect_chain(hops):
        """/r0 redirects to /r1 and so on; /r{hops} is the page."""
        routes = {f"/r{i}": (302, {"Location": f"/r{i + 1}"}, b"") for i in range(hops)}
        routes[f"/r{hops}"] = (200, {"Content-Type": "text/plain"}, b"arrived")
        return routes

    def test_five_redirects_are_followed(self, tmp_path, serve):
        ws = prepare_fixture("hello_make", tmp_path)
        base = serve(self.redirect_chain(5))
        outcome = fetch_link(ws, LinkRef("external-url", f"{base}/r0"))
        assert outcome.ok
        assert outcome.content == "arrived"

    def test_a_sixth_redirect_is_non_success(self, tmp_path, serve):
        ws = prepare_fixture("hello_make", tmp_path)
        base = serve(self.redirect_chain(6))
        outcome = fetch_link(ws, LinkRef("external-url", f"{base}/r0"))
        assert not outcome.ok
        assert outcome.failure_kind == "non-success"

    @pytest.mark.parametrize(
        "ctype, body, text",
        [
            ("text/plain; charset=utf-8", "café".encode("utf-8"), "café"),
            ("text/plain; charset=iso-8859-1", "café".encode("latin-1"), "café"),
            # no charset: UTF-8, not ISO-8859-1
            ("text/plain", "café".encode("utf-8"), "café"),
            ("text/html", "<p>café</p>".encode("utf-8"), "café"),
            # a charset Python does not know falls back to UTF-8
            ("text/plain; charset=no-such-charset", "café".encode("utf-8"), "café"),
        ],
    )
    def test_body_decoding(self, tmp_path, serve, ctype, body, text):
        ws = prepare_fixture("hello_make", tmp_path)
        base = serve({"/page": (200, {"Content-Type": ctype}, body)})
        outcome = fetch_link(ws, LinkRef("external-url", f"{base}/page"))
        assert outcome.ok
        assert outcome.content == text

    def test_user_agent_is_sent(self, tmp_path, serve):
        ws = prepare_fixture("hello_make", tmp_path)
        base = serve({"/page": (200, {"Content-Type": "text/plain"}, b"text")})
        assert fetch_link(ws, LinkRef("external-url", f"{base}/page")).ok
        [(path, headers)] = serve.received
        assert path == "/page"
        assert headers["User-Agent"] == USER_AGENT

    def test_server_that_never_answers_is_a_timeout(self, tmp_path, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        monkeypatch.setattr(retrieval, "DEFAULT_FETCH_TIMEOUT", 0.5)
        # the kernel completes the handshake on a listening socket, and
        # nothing ever accepts or answers
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            url = f"http://127.0.0.1:{listener.getsockname()[1]}/slow"
            started = time.monotonic()
            outcome = fetch_link(ws, LinkRef("external-url", url))
            elapsed = time.monotonic() - started
        assert outcome.failure_kind == "timeout"
        assert elapsed < 5


def fake_fetcher(responses):
    """Map target -> FetchOutcome; records fetch order."""
    calls = []

    def fetch(_ws, link):
        calls.append(link.target)
        return responses.get(
            link.target, FetchOutcome(False, failure_kind="missing", detail=link.target)
        )

    fetch.calls = calls
    return fetch


class TestRunRetrieval:
    def test_sufficient_in_round_one(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply=GOOD_REPLY))
        fetch = fake_fetcher({})
        dossier = run_retrieval(ws, cfg, repo_context(ws), fetcher=fetch)
        assert dossier.sufficient is True
        assert dossier.rounds_used == 1
        assert dossier.visited == []
        assert fetch.calls == []
        assert "make" in dossier.instructions.lower()

    def test_two_rounds_with_internal_link(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("content fetched from the links",
             reply("full instructions now", "yes")),
            ("Distill", reply("partial", "no", ["README.md"])),
        ])
        fetch = fake_fetcher({"README.md": FetchOutcome(True, content="make all")})
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws), fetcher=fetch)
        assert dossier.rounds_used == 2
        assert dossier.sufficient is True
        assert [l.target for l in dossier.visited] == ["README.md"]
        assert dossier.instructions == "full instructions now"

    def test_round_and_fetch_caps_under_adversarial_replies(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        # always insufficient; fresh links every round via per-round matchers
        page = "https://example.com/page{}"
        scenario = ScriptedScenario(steps=[
            ("page3", reply("more", "no", [page.format(i) for i in (7, 8, 9, 10, 11)])),
            ("Distill", reply("more", "no", [page.format(i) for i in (1, 2, 3)])),
            ("", reply("more", "no", [page.format(i) for i in (1, 2, 3)])),
        ])
        fetch = fake_fetcher({
            page.format(i): FetchOutcome(True, content=f"page{i}") for i in range(1, 12)
        })
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws), fetcher=fetch)
        assert dossier.rounds_used <= 3
        assert len(dossier.visited) <= 9
        assert len(fetch.calls) <= 9
        assert len(fetch.calls) == len(set(fetch.calls))  # no refetches

    def test_duplicate_links_never_refetched(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        same = ["https://example.com/install", "https://example.com/install",
                "https://example.com/other"]
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply=reply("digging", "no", same),
        ))
        fetch = fake_fetcher({})
        dossier = run_retrieval(ws, cfg, repo_context(ws), fetcher=fetch)
        assert len(fetch.calls) == len(set(fetch.calls))
        assert len({l.target for l in dossier.visited}) == len(dossier.visited)

    def test_repeating_links_stop_the_loop_early(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[],
            default_reply=reply(
                "never enough", "no",
                ["https://example.com/a", "https://example.com/b", "https://example.com/c"],
            ),
        ))
        fetch = fake_fetcher({
            f"https://example.com/{x}": FetchOutcome(True, content=f"page {x}")
            for x in "abc"
        })
        dossier = run_retrieval(ws, cfg, repo_context(ws), fetcher=fetch)
        # round 2 re-offers only visited links: nothing fresh, loop stops
        assert dossier.rounds_used == 2
        assert dossier.sufficient is False
        assert len(dossier.visited) == 3
        assert len(fetch.calls) == 3

    def test_fetch_failures_recorded_but_loop_continues(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("fetch failed", reply("gave up on links", "yes")),
            ("Distill", reply("try the wiki", "no",
                                         ["https://example.com/dead"])),
        ])
        fetch = fake_fetcher({
            "https://example.com/dead": FetchOutcome(False, failure_kind="timeout"),
        })
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws), fetcher=fetch)
        assert dossier.sufficient is True
        assert ("https://example.com/dead", "timeout") in dossier.fetch_failures

    def test_malformed_reply_reasked_once(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("did not follow the required format", GOOD_REPLY),
            ("Distill", "Sure! You should probably run make."),
        ])
        dossier = run_retrieval(
            ws, scripted_config(scenario), repo_context(ws), fetcher=fake_fetcher({})
        )
        assert dossier.sufficient is True

    def test_persistent_malformed_reply_raises(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply="no labels here at all",
        ))
        with pytest.raises(ProtocolError):
            run_retrieval(ws, cfg, repo_context(ws), fetcher=fake_fetcher({}))

    def test_prose_takes_no_fetch_slot(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("content fetched from the links", reply("run make", "yes")),
            ("Distill", reply("partial", "no", [
                "See the wiki page for details.",
                "README.md",
                "The Makefile has the targets.",
                "Makefile",
            ])),
        ])
        fetch = fake_fetcher({})
        dossier = run_retrieval(ws, scripted_config(scenario), repo_context(ws), fetcher=fetch)
        assert fetch.calls == ["README.md", "Makefile"]
        assert [l.target for l in dossier.visited] == ["README.md", "Makefile"]


class TestScoring:
    def test_readme_ground_truth_scores_true(self, tmp_path):
        dossier = InstructionDossier(instructions="x", sufficient=True)
        assert score_retrieval(dossier, "README") is True
        assert score_retrieval(dossier, "README.md", readme_rel_path="README.md") is True

    def test_visited_external_url_matches(self):
        dossier = InstructionDossier(
            instructions="x", sufficient=True,
            visited=[LinkRef("external-url", "https://Example.COM/docs/build/")],
        )
        assert score_retrieval(dossier, "http://example.com/docs/build") is True

    def test_fragment_ignored(self):
        dossier = InstructionDossier(
            instructions="x", sufficient=True,
            visited=[LinkRef("external-url", "https://example.com/docs#install")],
        )
        assert score_retrieval(dossier, "https://example.com/docs") is True

    def test_unvisited_url_scores_false(self):
        dossier = InstructionDossier(instructions="x", sufficient=True)
        assert score_retrieval(dossier, "https://example.com/install") is False

    def test_internal_path_ground_truth(self):
        dossier = InstructionDossier(
            instructions="x", sufficient=True,
            visited=[LinkRef("internal-file", "docs/INSTALL.md")],
        )
        assert score_retrieval(dossier, "docs/INSTALL.md") is True
        assert score_retrieval(dossier, "docs/OTHER.md") is False

    def test_empty_ground_truth_rejected(self):
        dossier = InstructionDossier(instructions="x", sufficient=True)
        with pytest.raises(ValueError):
            score_retrieval(dossier, "")

    @pytest.mark.parametrize("a,b,equal", [
        ("https://example.com/docs", "http://example.com/docs", True),
        ("https://EXAMPLE.com/docs", "https://example.com/docs", True),
        ("https://example.com/docs/", "https://example.com/docs", True),
        ("https://example.com/docs#frag", "https://example.com/docs", True),
        ("https://example.com/docs?v=1", "https://example.com/docs", False),
        ("https://example.com/a", "https://example.com/b", False),
        ("https://example.com/Docs", "https://example.com/docs", False),
    ])
    def test_normalization_pairs(self, a, b, equal):
        assert (normalize_url(a) == normalize_url(b)) is equal


class TestDossierInvariants:
    def test_rounds_used_bounds(self):
        with pytest.raises(ValueError):
            InstructionDossier(instructions="x", sufficient=True, rounds_used=0)
        with pytest.raises(ValueError):
            InstructionDossier(instructions="x", sufficient=True, rounds_used=4)

    def test_visited_must_be_unique(self):
        link = LinkRef("internal-file", "a.md")
        with pytest.raises(ValueError):
            InstructionDossier(instructions="x", sufficient=True, visited=[link, link])
