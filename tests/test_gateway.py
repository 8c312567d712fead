import re

import pytest

from repobuild.errors import (
    OversizeReplyError,
    ScenarioExhaustedError,
    TransportError,
)
from repobuild.gateway import (
    REMINDER_PREFIX,
    ChatMessage,
    LlmConfig,
    ScriptedScenario,
    ask_structured,
    complete,
    pattern,
    scripted_config,
    substring,
)


def user(text):
    return ChatMessage("user", text)


class TestChatMessage:
    def test_roles_validated(self):
        for role in ("system", "user", "assistant"):
            assert ChatMessage(role, "x").role == role
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")

    def test_system_and_user_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")
        with pytest.raises(ValueError):
            ChatMessage("system", "")
        # assistant replies may legitimately be empty strings
        assert ChatMessage("assistant", "").content == ""


class TestScriptedScenario:
    def test_first_match_wins(self):
        scenario = ScriptedScenario(steps=[
            (substring("compile"), "first"),
            (substring("compile please"), "second"),
        ])
        assert scenario.resolve("compile please") == "first"

    def test_substring_and_pattern_matchers(self):
        scenario = ScriptedScenario(steps=[
            (pattern(r"error \d+"), "patterned"),
            (substring("plain"), "plain-reply"),
        ])
        assert scenario.resolve("saw error 42 here") == "patterned"
        assert scenario.resolve("just plain text") == "plain-reply"

    def test_default_reply_fallback(self):
        scenario = ScriptedScenario(steps=[(substring("x"), "a")], default_reply="dflt")
        assert scenario.resolve("nothing matches") == "dflt"

    def test_exhausted_without_default(self):
        scenario = ScriptedScenario(steps=[(substring("x"), "a")])
        with pytest.raises(ScenarioExhaustedError):
            scenario.resolve("nothing matches")

    def test_stateless_resolution(self):
        scenario = ScriptedScenario(steps=[(substring("q"), "r")])
        for _ in range(5):
            assert scenario.resolve("q?") == "r"


class TestComplete:
    def test_scripted_reply_verbatim(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[(substring("compile"), "```bash\nmake\n```")]
        ))
        out = complete(cfg, [user("please compile this")])
        assert out == "```bash\nmake\n```"

    def test_matches_latest_user_message_only(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[(substring("earlier"), "WRONG"), (substring("now"), "ok")]
        ))
        msgs = [user("earlier words"), ChatMessage("assistant", "mid"), user("now")]
        assert complete(cfg, msgs) == "ok"

    def test_last_message_must_be_user(self):
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply="x"))
        with pytest.raises(ValueError):
            complete(cfg, [user("hi"), ChatMessage("assistant", "reply")])
        with pytest.raises(ValueError):
            complete(cfg, [])

    def test_determinism(self):
        cfg = scripted_config(ScriptedScenario(
            steps=[(substring("a"), "r1"), (substring("b"), "r2")]
        ))
        msgs = [user("a and b")]
        assert {complete(cfg, msgs) for _ in range(20)} == {"r1"}

    def test_oversize_reply_rejected(self):
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply="y" * 100),
            max_reply_chars=10,
        )
        with pytest.raises(OversizeReplyError):
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
        with pytest.raises(ValueError):
            LlmConfig(backend="scripted")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            LlmConfig(backend="oracle")

    def test_live_backend_fails_without_endpoint(self, monkeypatch):
        monkeypatch.delenv("REPOBUILD_LLM_BASE_URL", raising=False)
        monkeypatch.delenv("REPOBUILD_LLM_API_KEY", raising=False)
        cfg = LlmConfig(backend="live", max_retries=0)
        with pytest.raises(TransportError):
            complete(cfg, [user("hi")])
