import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repobuild.errors import ProtocolError, RepobuildError, UsageError
from repobuild import gateway
from repobuild.gateway import (
    REMINDER_PREFIX,
    ChatMessage,
    LlmConfig,
    ScriptedScenario,
    ask_structured,
    complete,
)

from conftest import scripted_config


def user(text):
    return ChatMessage("user", text)


class TestScriptedScenario:
    def test_first_match_wins(self):
        scenario = ScriptedScenario(steps=[
            ("compile", "first"),
            ("compile please", "second"),
        ])
        assert scenario.resolve("compile please") == "first"

    def test_substring_and_pattern_matchers(self):
        scenario = ScriptedScenario(steps=[
            (re.compile(r"error \d+"), "patterned"),
            ("plain", "plain-reply"),
        ])
        assert scenario.resolve("saw error 42 here") == "patterned"
        assert scenario.resolve("just plain text") == "plain-reply"

    def test_default_reply_fallback(self):
        scenario = ScriptedScenario(steps=[("x", "a")], default_reply="dflt")
        assert scenario.resolve("nothing matches") == "dflt"

    def test_exhausted_without_default(self):
        scenario = ScriptedScenario(steps=[("x", "a")])
        with pytest.raises(ProtocolError, match="no scripted step matches"):
            scenario.resolve("nothing matches")

    def test_stateless_resolution(self):
        scenario = ScriptedScenario(steps=[("q", "r")])
        for _ in range(5):
            assert scenario.resolve("q?") == "r"


class TestComplete:
    def test_scripted_reply_verbatim(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[("compile", "```bash\nmake\n```")]
        ))
        out = complete(cfg, [user("please compile this")])
        assert out == "```bash\nmake\n```"

    def test_matches_latest_user_message_only(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[("earlier", "WRONG"), ("now", "ok")]
        ))
        msgs = [user("earlier words"), ChatMessage("assistant", "mid"), user("now")]
        assert complete(cfg, msgs) == "ok"

    def test_determinism(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[("a", "r1"), ("b", "r2")]
        ))
        msgs = [user("a and b")]
        assert {complete(cfg, msgs) for _ in range(20)} == {"r1"}

    def test_oversize_reply_rejected(self):
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply="y" * 100),
            max_reply_chars=10,
        )
        with pytest.raises(ProtocolError, match="reply of 100 chars exceeds cap 10"):
            complete(cfg, [user("hi")])


def replying(*replies):
    """A scripted config that gives ``replies`` in order, and the list of
    the latest user message of every call it answers."""
    seen = []
    scenario = ScriptedScenario()
    queue = list(replies)
    scenario.resolve = lambda latest: seen.append(latest) or queue.pop(0)
    return scripted_config(scenario), seen


def good_only(raw):
    return raw.upper() if raw.startswith("good") else None


class TestAskStructured:
    def test_well_formed_reply_is_not_reasked(self):
        cfg, seen = replying("good")
        asked = [user("question")]
        assert ask_structured(cfg, asked, good_only, "Say good.") == ("GOOD", "good", asked)
        assert seen == ["question"]

    def test_empty_parse_result_counts_as_well_formed(self):
        cfg, seen = replying("NAMES:")
        value, _, _ = ask_structured(cfg, [user("q")], lambda raw: [], "Say good.")
        assert value == []
        assert len(seen) == 1

    def test_malformed_reply_is_reasked_once_with_the_prefix(self):
        cfg, seen = replying("bad", "good again")
        asked = [user("question")]
        value, raw, messages = ask_structured(cfg, asked, good_only, "Say good.")
        assert (value, raw) == ("GOOD AGAIN", "good again")
        assert seen == ["question", REMINDER_PREFIX + "Say good."]
        assert messages == [
            user("question"),
            ChatMessage("assistant", "bad"),
            user("Your previous reply did not follow the required format. Say good."),
        ]
        assert asked == [user("question")]

    def test_second_malformed_reply_gives_none_without_a_third_call(self):
        cfg, seen = replying("bad", "worse", "good")
        value, raw, messages = ask_structured(cfg, [user("question")], good_only, "Say good.")
        assert (value, raw) == (None, "worse")
        assert len(seen) == 2
        assert [m.content for m in messages] == [
            "question", "bad", REMINDER_PREFIX + "Say good."
        ]


class TestConfigValidation:
    def test_scripted_requires_scenario(self):
        with pytest.raises(UsageError, match="scripted backend requires a scenario"):
            LlmConfig(backend="scripted")

    def test_unknown_backend_rejected(self):
        with pytest.raises(UsageError, match="unknown backend 'oracle'"):
            LlmConfig(backend="oracle")

    @pytest.mark.parametrize("field, value", [
        ("request_timeout", -1), ("request_timeout", 0), ("request_timeout", float("nan")),
        ("request_timeout", "soon"), ("request_timeout", True),
        ("max_retries", 1.5), ("max_retries", True), ("max_retries", -1),
        ("model_name", 7),
        ("temperature", True), ("temperature", float("nan")),
        ("max_reply_chars", 1.5), ("max_reply_chars", True),
        ("temperature", float("inf")), ("request_timeout", float("inf")),
        ("request_timeout", 604801),
    ])
    def test_value_of_the_wrong_type_or_range_rejected(self, field, value):
        with pytest.raises(UsageError, match=field):
            LlmConfig(**{field: value})

    def test_live_backend_fails_without_endpoint(self, monkeypatch):
        monkeypatch.delenv("REPOBUILD_LLM_BASE_URL", raising=False)
        monkeypatch.delenv("REPOBUILD_LLM_API_KEY", raising=False)
        cfg = LlmConfig(backend="live", max_retries=0)
        with pytest.raises(RepobuildError, match="REPOBUILD_LLM_BASE_URL is not set"):
            complete(cfg, [user("hi")])


def _completion(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


@pytest.fixture
def chat_server(monkeypatch):
    """A local chat endpoint that answers each POST with the next of
    ``server.replies`` (status, JSON-able body or raw bytes) and records
    ``server.received`` (path, headers, payload); ``server.sleeps`` holds the
    backoff delays, which are not waited out."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            raw = self.rfile.read(int(self.headers["Content-Length"]))
            server.received.append((self.path, dict(self.headers), json.loads(raw)))
            status, body = server.replies.pop(0)
            if not isinstance(body, bytes):
                body = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.replies, server.received, server.sleeps = [], [], []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    monkeypatch.setenv("REPOBUILD_LLM_BASE_URL", f"http://127.0.0.1:{server.server_port}/v1/")
    monkeypatch.delenv("REPOBUILD_LLM_API_KEY", raising=False)
    monkeypatch.setattr(gateway.time, "sleep", server.sleeps.append)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


class TestLiveBackend:
    def test_reply_payload_and_bearer_key(self, chat_server, monkeypatch):
        monkeypatch.setenv("REPOBUILD_LLM_API_KEY", "sk-test")
        chat_server.replies = [(200, _completion("hello back"))]
        cfg = LlmConfig(backend="live", model_name="m-1", temperature=0.5)
        messages = [ChatMessage("system", "be brief"), user("hello")]
        assert complete(cfg, messages) == "hello back"
        [(path, headers, payload)] = chat_server.received
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer sk-test"
        assert headers["Content-Type"] == "application/json"
        assert payload == {
            "model": "m-1",
            "temperature": 0.5,
            "messages": [{"role": "system", "content": "be brief"},
                         {"role": "user", "content": "hello"}],
        }
        assert chat_server.sleeps == []

    def test_no_key_sends_no_authorization(self, chat_server):
        chat_server.replies = [(200, _completion("ok"))]
        assert complete(LlmConfig(backend="live"), [user("hi")]) == "ok"
        [(_, headers, _)] = chat_server.received
        assert "Authorization" not in headers

    def test_retryable_status_is_retried(self, chat_server):
        chat_server.replies = [(429, {"error": "slow down"}), (200, _completion("ok"))]
        assert complete(LlmConfig(backend="live"), [user("hi")]) == "ok"
        assert len(chat_server.received) == 2
        assert chat_server.sleeps == [2.0]

    def test_server_error_on_every_attempt_raises_after_the_retries(self, chat_server):
        chat_server.replies = [(500, {"error": "down"})] * 3
        with pytest.raises(RepobuildError, match="after retries: status 500"):
            complete(LlmConfig(backend="live", max_retries=2), [user("hi")])
        assert len(chat_server.received) == 3
        assert chat_server.sleeps == [2.0, 4.0]

    def test_client_error_is_not_retried(self, chat_server):
        chat_server.replies = [(400, {"error": "bad request"})]
        with pytest.raises(RepobuildError, match="status 400"):
            complete(LlmConfig(backend="live"), [user("hi")])
        assert len(chat_server.received) == 1
        assert chat_server.sleeps == []

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"[]", {"choices": []}, _completion(None), _completion(["a"])],
        ids=["not-json", "not-an-object", "no-choices", "null-content", "list-content"],
    )
    def test_malformed_reply_is_a_transport_error(self, chat_server, body):
        chat_server.replies = [(200, body)]
        with pytest.raises(RepobuildError, match="malformed completion response"):
            complete(LlmConfig(backend="live"), [user("hi")])
        assert len(chat_server.received) == 1

    def test_refused_connection_is_retried_then_raises(self, chat_server, monkeypatch):
        monkeypatch.setenv("REPOBUILD_LLM_BASE_URL", "http://127.0.0.1:1")
        with pytest.raises(RepobuildError, match="after retries"):
            complete(LlmConfig(backend="live", max_retries=2), [user("hi")])
        assert chat_server.sleeps == [2.0, 4.0]
        assert chat_server.received == []

    @pytest.mark.parametrize(
        "base", ["http://[::1", "http://127.0.0.1:port", "127.0.0.1:8080", "localhost/v1"]
    )
    def test_unusable_base_url_is_a_transport_error(self, chat_server, monkeypatch, base):
        monkeypatch.setenv("REPOBUILD_LLM_BASE_URL", base)
        with pytest.raises(RepobuildError, match="REPOBUILD_LLM_BASE_URL is not a usable"):
            complete(LlmConfig(backend="live", max_retries=1), [user("hi")])
        assert chat_server.sleeps == []
        assert chat_server.received == []
