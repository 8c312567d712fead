import random

import pytest

from repobuild import agent
from repobuild.agent import (
    ELIDED_MARKER,
    BuildSession,
    PromptContext,
    Turn,
    assemble_generator_prompt,
    parse_agent_reply,
    run_build_loop,
    run_single_turn,
)
from repobuild.gateway import ScriptedScenario
from repobuild.sandbox import (
    CommandScript,
    ExecutionResult,
    create_sandbox,
    exec_script,
    parses_whole,
)

from conftest import prepare_fixture, scripted_config


def ctx(repo="fixture/hello_make", mount="/app/hello_make"):
    return PromptContext(
        repo_full_name=repo,
        repo_root_in_sandbox=mount,
        readme="Build with make.",
        root_listing="Makefile (file)\nhello.c (file)",
        preinstalled="FROM ubuntu:22.04",
    )


def fake_result(output="ok", exit_code=0):
    return ExecutionResult(
        per_command=(("make", exit_code, 0.1),),
        combined_output=output,
        overall_exit=exit_code,
        timed_out=False,
    )


def command_turn(k, commands=("make",), output="ok", raw="```bash\nmake\n```"):
    return Turn(
        k=k,
        kind="command-turn",
        agent_reply_raw=raw,
        script=CommandScript(commands=tuple(commands)),
        result=fake_result(output),
    )


# multi-line commands bash reads as one unit, by what makes them so
COMPOUND = {
    "for": "for f in a b; do\n  echo $f\ndone",
    "if": "if true; then\n  echo yes\nelse\n  echo no\nfi",
    "case": "case x in\n  x) echo x ;;\n  *) echo other ;;\nesac",
    "function": "greet() {\n  echo hi\n}",
    "subshell": "(\n  cd /tmp\n  pwd\n)",
    "quoted-string": 'echo "l1\nl2"',
    "heredoc-then-connective": "cat > f.txt <<EOF &&\nx\nEOF\ntouch after_heredoc",
    "connective-then-comment": "cd . && # enter\ntouch after_comment",
}

# the line kinds the seeded split test builds blocks from
LINE_KINDS = [
    ["echo plain"],
    ["true &&", "echo after_and"],
    ["echo a \\", "  b"],
    ["cat > f.txt <<EOF", "body", "EOF"],
    ["for i in 1 2; do", "  echo $i", "done"],
    ["# comment"],
    [""],
]


class TestParseAgentReply:
    def test_bash_block_is_a_command(self):
        parsed = parse_agent_reply("Sure.\n```bash\ncd /app\nmake\n```\nDone.")
        assert parsed.kind == "command"
        assert parsed.script.commands == ("cd /app", "make")

    @pytest.mark.parametrize("tag", ["bash", "sh", "shell", "BASH", "Sh"])
    def test_shell_tags_accepted(self, tag):
        parsed = parse_agent_reply(f"```{tag}\nmake\n```")
        assert parsed.kind == "command"

    def test_last_shell_block_wins(self):
        raw = "```bash\nfirst\n```\nbetter idea:\n```bash\nsecond\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.script.commands == ("second",)

    def test_sole_untagged_block_accepted(self):
        parsed = parse_agent_reply("```\nmake -j2\n```")
        assert parsed.kind == "command"
        assert parsed.script.commands == ("make -j2",)

    def test_untagged_block_ignored_when_ambiguous(self):
        raw = "```\nnot sure\n```\n```python\nprint('x')\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.kind == "violation"

    def test_non_shell_tag_is_not_a_script(self):
        parsed = parse_agent_reply("```python\nprint('hi')\n```")
        assert parsed.kind == "violation"

    def test_termination_word(self):
        parsed = parse_agent_reply("The dependency cannot be met. terminate")
        assert parsed.kind == "termination"
        assert "dependency" in parsed.reason

    def test_termination_case_insensitive(self):
        assert parse_agent_reply("TERMINATE").kind == "termination"
        assert parse_agent_reply("Terminate.").kind == "termination"

    def test_terminated_is_not_termination(self):
        parsed = parse_agent_reply("the process terminated early")
        assert parsed.kind == "violation"

    def test_code_block_beats_terminate_with_violation_note(self):
        raw = "I might terminate, but try:\n```bash\nmake\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.kind == "command"
        assert parsed.violation is not None
        assert parsed.script.commands == ("make",)

    def test_block_containing_only_terminate_is_termination(self):
        parsed = parse_agent_reply("```bash\nterminate\n```")
        assert parsed.kind == "termination"

    def test_prose_only_is_violation(self):
        parsed = parse_agent_reply("Let me think about this repository first.")
        assert parsed.kind == "violation"
        assert parsed.violation

    def test_empty_block_with_no_terminate_is_violation(self):
        assert parse_agent_reply("```bash\n\n```").kind == "violation"

    def test_comments_and_blanks_dropped(self):
        raw = "```bash\n# set up\n\ncd /app\n# build\nmake\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.script.commands == ("cd /app", "make")

    def test_continuations_kept_together(self):
        raw = "```bash\ncmake -DCMAKE_BUILD_TYPE=Debug \\\n  -DFOO=ON ..\nmake\n```"
        parsed = parse_agent_reply(raw)
        assert len(parsed.script.commands) == 2
        assert "-DFOO=ON" in parsed.script.commands[0]

    def test_connective_lines_kept_together(self):
        raw = "```bash\ncd /app &&\nmake\nls\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.script.commands == ("cd /app &&\nmake", "ls")
        # as in bash, a blank line or a comment after a connective does not
        # end the command, and stays in it; a blank line after a backslash
        # ends it
        for connective in ("&&", "||", "|"):
            raw = f"```bash\ncd /app/ws {connective}\n\n  # then\ntouch built\nls\n```"
            parsed = parse_agent_reply(raw)
            assert parsed.script.commands == (
                f"cd /app/ws {connective}\n\n  # then\ntouch built", "ls")
        parsed = parse_agent_reply("```bash\nmake \\\n\nls\n```")
        assert parsed.script.commands == ("make \\\n", "ls")

    def test_heredoc_kept_whole(self):
        raw = "```bash\ncat > f.txt <<EOF\na\n\nb\nEOF\necho done\n```"
        parsed = parse_agent_reply(raw)
        assert len(parsed.script.commands) == 2
        assert parsed.script.commands[0].endswith("EOF")

    @pytest.mark.parametrize("opener", ["<<EOF", "<<'EOF'", "<<-EOF"])
    def test_quoted_and_dashed_heredocs_kept_whole(self, opener):
        raw = f"```bash\ncat > f.txt {opener}\n$((1 << 4)) <<< x\n\nEOF\necho done\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.script.commands == (
            f"cat > f.txt {opener}\n$((1 << 4)) <<< x\n\nEOF", "echo done")

    # a `<<` in an arithmetic span or a here-string opens no heredoc, and a
    # compound command is one command however many lines it spans
    @pytest.mark.parametrize("line", ["echo $((1 << 4))", "(( x = 1 << 4 ))",
                                      "grep -q x <<< foo", "cat <<<EOF",
                                      *(pytest.param(v, id=k) for k, v in COMPOUND.items())])
    def test_shift_and_here_string_open_no_heredoc(self, line):
        raw = f"```bash\ncd /app/ws\n{line}\nfalse\ntouch ran_after_false\n```"
        parsed = parse_agent_reply(raw)
        assert parsed.script.commands == ("cd /app/ws", line, "false", "touch ran_after_false")

    def test_compound_reply_runs_every_command(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        raw = "```bash\ncd /app/hello_make\n{}\ntouch after_blocks\n```".format(
            "\n".join(COMPOUND.values()))
        with create_sandbox(local_spec, ws) as handle:
            result = exec_script(handle, parse_agent_reply(raw).script)
        codes = [code for _, code, _ in result.per_command]
        assert codes == [0] * (len(COMPOUND) + 2), result.combined_output
        assert (ws.root_path / "after_blocks").exists()

    def test_split_gives_back_the_block(self):
        # seeded blocks of well-formed line kinds, with blank and comment lines
        # anywhere and at times an unclosed quote at the end; every command
        # but a final tail that never parses must parse, and the commands
        # plus the dropped lines must be the block's lines in order (116
        # parses in all)
        rng = random.Random(39)
        for _ in range(12):
            lines = [line for _ in range(4) for line in rng.choice(LINE_KINDS)]
            for _ in range(3):
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  # note"]))
            tail = rng.random() < 0.25
            if tail:
                lines.append('echo "unclosed')
            commands = agent._block_to_commands("\n".join(lines))
            assert all(parses_whole(c) for c in commands[:-1])
            assert tail == (bool(commands) and not parses_whole(commands[-1]))
            expected = [line for c in commands for line in c.split("\n")]
            for line in lines:
                if expected and line == expected[0]:
                    expected.pop(0)
                else:
                    assert not line.strip() or line.lstrip().startswith("#"), line
            assert expected == []

    @pytest.mark.parametrize("run", [run_single_turn, run_build_loop])
    def test_lone_surrogate_is_a_protocol_violation(self, tmp_path, local_spec, run):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply="```bash\necho \ud800\n```"))
        session = run(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "protocol-error"
        assert "U+D800" in session.error_detail
        assert [t.kind for t in session.turns] == ["protocol-violation"]
        # U+DC80..U+DCFF stand for bytes of a file name and reach the shell
        assert parse_agent_reply("```bash\necho \udcff\n```").kind == "command"


class TestPromptAssembly:
    def test_initial_prompt_shape(self):
        messages = assemble_generator_prompt(ctx(), [])
        assert [m.role for m in messages] == ["system", "user"]
        assert "fixture/hello_make" in messages[1].content
        assert "/app/hello_make" in messages[1].content
        assert "Build with make." in messages[1].content

    def test_instructions_section_included_when_present(self):
        with_instr = PromptContext(
            repo_full_name="o/r", repo_root_in_sandbox="/app/r", readme="rd",
            root_listing="ls", preinstalled="img", instructions="./autogen.sh first",
        )
        messages = assemble_generator_prompt(with_instr, [])
        assert "./autogen.sh first" in messages[1].content
        bare = assemble_generator_prompt(ctx(), [])
        assert "autogen" not in bare[1].content

    def test_feedback_carries_history_and_output(self):
        history = [command_turn(0, ("cd /app", "make"), output="error: no rule")]
        messages = assemble_generator_prompt(ctx(), history)
        assert [m.role for m in messages] == ["system", "user", "assistant", "user"]
        feedback = messages[-1].content
        assert "# commands of turn 0" in feedback
        assert "error: no rule" in feedback

    def test_full_history_renders_every_turn(self):
        history = [command_turn(k, (f"step{k}",), output=f"out{k}") for k in range(3)]
        messages = assemble_generator_prompt(ctx(), history)
        final = messages[-1].content
        for k in range(3):
            assert f"step{k}" in final

    def test_elision_drops_oldest_outputs_first(self, monkeypatch):
        big = "X" * 4000
        history = [command_turn(k, (f"s{k}",), output=big + f"-{k}") for k in range(4)]
        monkeypatch.setattr(agent, "PROMPT_BUDGET_CHARS", 12000)
        messages = assemble_generator_prompt(ctx(), history)
        feedbacks = [m.content for m in messages if m.role == "user"][1:]
        assert ELIDED_MARKER in feedbacks[0]
        assert ELIDED_MARKER not in feedbacks[-1]
        assert big + "-3" in feedbacks[-1]

    def test_elision_cuts_only_the_output(self, monkeypatch):
        # the elided output "ok\n" also ends the command "echo ok" in the history
        history = [command_turn(0, ("echo ok",), output="ok\n"),
                   command_turn(1, ("make",), output="Z" * 5000)]
        monkeypatch.setattr(agent, "PROMPT_BUDGET_CHARS", 3000)
        messages = assemble_generator_prompt(ctx(), history)
        elided = messages[3].content
        assert ELIDED_MARKER in elided
        assert "echo ok" in elided
        assert f"echo {ELIDED_MARKER}" not in elided
        monkeypatch.setattr(agent, "PROMPT_BUDGET_CHARS", 10 ** 9)
        full = assemble_generator_prompt(ctx(), history)[3].content
        assert elided == full.replace("output:\nok\n", f"output:\n{ELIDED_MARKER}")

    def test_system_and_initial_never_elided(self, monkeypatch):
        big = "Y" * 8000
        history = [command_turn(k, (f"s{k}",), output=big) for k in range(5)]
        monkeypatch.setattr(agent, "PROMPT_BUDGET_CHARS", 1000)
        messages = assemble_generator_prompt(ctx(), history)
        assert ELIDED_MARKER not in messages[0].content
        assert ELIDED_MARKER not in messages[1].content

    def test_no_elision_when_within_budget(self, monkeypatch):
        history = [command_turn(0, ("make",), output="short")]
        monkeypatch.setattr(agent, "PROMPT_BUDGET_CHARS", 10 ** 9)
        messages = assemble_generator_prompt(ctx(), history)
        assert all(ELIDED_MARKER not in m.content for m in messages)


class TestTurnAndSession:
    def test_fix_attempts_counts_k_ge_1_command_turns(self):
        session = BuildSession(repo_id="o/r", variant="agent-no-retrieval", max_turns=5)
        session.turns = [command_turn(0), command_turn(1), command_turn(2)]
        assert session.fix_attempts == 2

    def test_rule_based_sessions_report_zero_fix_attempts(self):
        session = BuildSession(repo_id="o/r", variant="rule-based", max_turns=2)
        session.turns = [command_turn(0), command_turn(1)]
        assert session.fix_attempts == 0


def make_probe(filename):
    def probe(ws):
        return (ws.root_path / filename).exists()
    return probe


INITIAL_MAKE = "```bash\ncd /app/hello_make\nmake\n```"

FIX_HEADER = (
    "```bash\n"
    "cd /app/needs_header\n"
    "mkdir -p vendor\n"
    "cat > vendor/api.h <<'EOF'\n"
    "static inline int api_answer(void) { return 42; }\n"
    "EOF\n"
    "make\n"
    "```"
)


class TestBuildLoop:
    def test_immediate_success(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply=INITIAL_MAKE))
        session = run_build_loop(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "succeeded"
        assert len(session.turns) == 1
        assert session.fix_attempts == 0
        assert (ws.root_path / "hello").exists()

    def test_missing_dependency_fixed_in_one_attempt(self, tmp_path, local_spec):
        ws = prepare_fixture("needs_header", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("No such file or directory", FIX_HEADER),
            ("", "```bash\ncd /app/needs_header\nmake\n```"),
        ])
        session = run_build_loop(
            ws, ctx("fixture/needs_header", "/app/needs_header"),
            scripted_config(scenario), local_spec, make_probe("app"),
        )
        assert session.outcome == "succeeded"
        assert session.fix_attempts == 1
        assert len(session.turns) == 2
        assert session.turns[0].result.overall_exit != 0
        assert (ws.root_path / "app").exists()

    def test_budget_exhaustion_runs_k_plus_one_turns(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply="```bash\nfalse\n```"
        ))
        session = run_build_loop(ws, ctx(), cfg, local_spec,
                                 make_probe("never"), max_turns=5)
        assert session.outcome == "turn-budget-exhausted"
        command_turns = [t for t in session.turns if t.kind == "command-turn"]
        assert len(command_turns) == 6
        assert [t.k for t in command_turns] == list(range(6))
        assert session.fix_attempts == 5

    def test_agent_termination(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply="The toolchain is missing entirely. terminate"
        ))
        session = run_build_loop(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "agent-terminated"
        assert session.turns[-1].kind == "termination-turn"
        assert session.turns[-1].script is session.turns[-1].result is None
        assert session.fix_attempts == 0

    def test_format_reminder_recovers(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("did not follow the required format", INITIAL_MAKE),
            ("", "Let me look around the repo first."),
        ])
        session = run_build_loop(ws, ctx(), scripted_config(scenario),
                                 local_spec, make_probe("hello"))
        assert session.outcome == "succeeded"
        assert session.turns[0].violation_note == "recovered after a format reminder"

    def test_two_consecutive_violations_end_the_session(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply="I will just describe the build instead."
        ))
        session = run_build_loop(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "protocol-error"
        assert session.turns[-1].kind == "protocol-violation"
        assert "two consecutive" in session.error_detail

    def test_an_unexpected_error_keeps_the_turns_before_it(self, tmp_path, local_spec,
                                                           monkeypatch):
        # the second script meets an error from the sandbox that is no
        # RepobuildError
        scripts = []

        def exec_then_fail(handle, script):
            scripts.append(script)
            if len(scripts) > 1:
                raise OSError("no space left on device")
            return exec_script(handle, script)

        monkeypatch.setattr(agent, "exec_script", exec_then_fail)
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[], default_reply="```bash\nfalse\n```")
        session = run_build_loop(ws, ctx(), scripted_config(scenario),
                                 local_spec, make_probe("hello"))
        assert session.outcome == "infra-error"
        assert "no space left on device" in session.error_detail
        assert [(t.k, t.kind) for t in session.turns] == [(0, "command-turn")]

    def test_sandbox_reused_across_turns(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        scenario = ScriptedScenario(steps=[
            ("stamp-made",
             "```bash\ntest -f $HOME/stamp && cd /app/hello_make && make\n```"),
            ("", "```bash\ntouch $HOME/stamp\necho stamp-made\nfalse\n```"),
        ])
        # turn 0 plants a stamp in the sandbox home and fails; turn 1 only
        # builds if that stamp survived into the same sandbox
        session = run_build_loop(ws, ctx(), scripted_config(scenario),
                                 local_spec, make_probe("hello"), max_turns=3)
        assert session.outcome == "succeeded"
        assert len(session.turns) == 2

    def test_reply_cap_does_not_elide_earlier_outputs(self, tmp_path, local_spec, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)
        prompts = []
        assemble = agent.assemble_generator_prompt
        monkeypatch.setattr(agent, "assemble_generator_prompt",
                            lambda *a, **k: prompts.append(assemble(*a, **k)) or prompts[-1])
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply=(
                "```bash\nhead -c 5000 /dev/zero | tr '\\0' x\necho\nfalse\n```")),
            max_reply_chars=2000,
        )
        session = run_build_loop(ws, ctx(), cfg, local_spec, make_probe("never"), max_turns=2)
        first_output = session.turns[0].result.combined_output
        assert "x" * 5000 in first_output
        # turn 2's prompt: system, initial, then turn 0's reply and feedback
        assert len(prompts) == 3
        assert first_output in prompts[2][3].content
        assert not any(ELIDED_MARKER in m.content for m in prompts[2])


class TestSingleTurn:
    def test_success(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply=INITIAL_MAKE))
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "succeeded"
        assert session.variant == "single-turn"
        assert len(session.turns) == 1
        assert session.fix_attempts == 0

    def test_prose_reply_is_protocol_error_without_retry(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply="First, examine the Makefile."),
        )
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "protocol-error"
        assert len(session.turns) == 1

    def test_prose_reply_records_why_the_session_ended(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply="First, examine the Makefile."),
        )
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.error_detail == "no code block and no termination word"
        assert session.turns[0].violation_note == session.error_detail

    def test_failing_script_not_succeeded_one_turn(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(steps=[], default_reply="```bash\nfalse\n```"))
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome != "succeeded"
        assert len(session.turns) == 1

    def test_termination_reply(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(ScriptedScenario(
            steps=[], default_reply="Cannot proceed. terminate"
        ))
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.outcome == "agent-terminated"

    def test_single_turn_prompt_mentions_task(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        cfg = scripted_config(
            ScriptedScenario(steps=[], default_reply=INITIAL_MAKE),
        )
        session = run_single_turn(ws, ctx(), cfg, local_spec, make_probe("hello"))
        assert session.turns[0].agent_reply_raw  # reply recorded on the session
