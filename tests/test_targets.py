import re

import pytest

from repobuild.errors import ProtocolError
from repobuild.gateway import LlmConfig, ScriptedScenario
from repobuild.targets import (
    MakefileDoc,
    _split_units,
    clean_makefile,
    extract_targets_llm,
    extract_targets_rule_based,
    find_makefiles,
    load_cleaning_rules,
    load_makefile_docs,
    predict_targets,
)

from conftest import generated_makefile, prepare_fixture, workspace_at


def _doc(text, rel="Makefile"):
    return MakefileDoc(rel, clean_makefile(text))


def _cleaned(text):
    return _doc(text).cleaned_text


def _raw_doc(cleaned_text, rel="Makefile"):
    """Doc wrapper that skips cleaning, for extraction-only tests."""
    return MakefileDoc(rel, tuple(_split_units(cleaned_text)))


class TestFindMakefiles:
    def test_canonical_names_and_fragments(self, tmp_path):
        (tmp_path / "Makefile").write_text("all:\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "makefile").write_text("all:\n")
        (sub / "rules.mk").write_text("X = 1\n")
        deep = sub / "deep"
        deep.mkdir()
        (deep / "GNUmakefile").write_text("all:\n")
        (tmp_path / "CMakeLists.txt").write_text("x\n")
        ws = workspace_at(tmp_path)
        assert find_makefiles(ws) == [
            "Makefile",
            "sub/makefile",
            "sub/rules.mk",
            "sub/deep/GNUmakefile",
        ]

    def test_shallowest_first_then_lexicographic(self, tmp_path):
        for d in ("zz", "aa"):
            sub = tmp_path / d
            sub.mkdir()
            (sub / "Makefile").write_text("all:\n")
        (tmp_path / "Makefile").write_text("all:\n")
        ws = workspace_at(tmp_path)
        assert find_makefiles(ws) == ["Makefile", "aa/Makefile", "zz/Makefile"]

    def test_git_directory_skipped(self, tmp_path):
        hidden = tmp_path / ".git" / "hooks"
        hidden.mkdir(parents=True)
        (hidden / "Makefile").write_text("all:\n")
        ws = workspace_at(tmp_path)
        assert find_makefiles(ws) == []

    def test_out_of_tree_makefile_skipped(self, tmp_path):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "Makefile").write_text("secret:\n")
        root = tmp_path / "repo"
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "Makefile").write_text("all:\n")
        (root / "Makefile").symlink_to(outside / "Makefile")
        (root / "local.mk").symlink_to(root / "sub" / "Makefile")
        ws = workspace_at(root)
        assert find_makefiles(ws) == ["local.mk", "sub/Makefile"]


class TestLoadCleaningRules:
    def test_shipped_rules_load(self):
        rules = load_cleaning_rules()
        assert rules
        assert all(action in ("drop-rule", "drop-line", "keep-rule") for action, _ in rules)



class TestCleanMakefile:
    def test_comments_and_blanks_dropped(self):
        out = _cleaned("# banner\n\nTARGET = app\n")
        assert out == "TARGET = app\n"

    def test_object_compile_rules_dropped(self):
        text = "main.o: main.c\n\t$(CC) -c main.c\napp: main.o\n\t$(CC) -o app main.o\n"
        out = _cleaned(text)
        assert "main.o:" not in out
        assert "app: main.o" in out

    def test_dependency_only_rules_dropped(self):
        out = _cleaned("app: main.o util.o\nTARGET = app\n")
        assert "main.o" not in out
        assert "TARGET = app" in out

    def test_link_recipes_kept(self):
        text = "app: main.o\n\tgcc -o app main.o\n"
        assert _cleaned(text) == text

    def test_compile_only_recipes_dropped(self):
        # -c invocations are compilations even when the target looks final
        text = "weird: weird.c\n\tgcc -c weird.c\n"
        assert "weird" not in _cleaned(text)

    def test_phony_declarations_kept(self):
        out = _cleaned(".PHONY: all clean\nall: app\n\t@echo hi\n")
        assert ".PHONY: all clean" in out
        assert "echo hi" not in out

    def test_target_like_assignments_kept(self):
        out = _cleaned("TARGET = app\nPROG_NAME = tool\nRANDOM = 3\nCC = gcc\n")
        assert "TARGET = app" in out
        assert "PROG_NAME = tool" in out
        assert "RANDOM" not in out
        assert "CC = gcc" not in out

    def test_first_matching_rule_wins(self):
        # the drop for .o targets is ordered before the link-recipe keep
        text = "weird.o: x.c\n\t$(CC) -o weird.o x.c\n"
        assert _cleaned(text) == ""

    def test_continuations_collapsed(self):
        text = "app: a.o\\\n     b.o\n\tcc -o app a.o b.o\n"
        out = _cleaned(text)
        assert "app: a.o b.o" in out
        assert "\\" not in out

    def test_generated_makefile_shrinks_by_90_percent(self):
        text = generated_makefile(120)
        out = _cleaned(text)
        raw_n = len(text.split("\n"))
        out_n = len(out.split("\n"))
        assert out_n <= raw_n * 0.10
        assert "-o $(TARGET)" in out
        assert "TARGET = bigapp" in out

    def test_cleaning_is_idempotent(self):
        once = _cleaned(generated_makefile(120))
        assert _cleaned(once) == once

    def test_empty_input(self):
        assert _cleaned("") == ""


class TestMakefileDoc:
    def test_load_docs_counts_lines(self, tmp_path):
        raw = generated_makefile(40)
        (tmp_path / "Makefile").write_text(raw)
        ws = workspace_at(tmp_path)
        docs = load_makefile_docs(ws)
        assert len(docs) == 1
        assert docs[0].rel_path == "Makefile"
        assert len(docs[0].cleaned_text) < len(raw)


class TestRuleBasedExtraction:
    def test_direct_target_fixture(self, tmp_path):
        ws = prepare_fixture("pred_direct", tmp_path)
        pred = extract_targets_rule_based(load_makefile_docs(ws))
        assert set(pred.names) == {"app"}
        path, line = pred.evidence["app"]
        assert path == "Makefile"
        assert line > 0

    def test_evidence_is_the_rule_line_in_the_file(self, tmp_path):
        (tmp_path / "Makefile").write_text(
            "# build the app\n#\n\nCC = cc\n\n# objects\n\nOBJS = main.o\n\n"
            "app: $(OBJS)\n\t$(CC) -o app $(OBJS)\n", "utf-8")
        pred = extract_targets_rule_based(load_makefile_docs(workspace_at(tmp_path)))
        assert pred.evidence == {"app": ("Makefile", 10)}

    def test_evidence_line_counts_continuation_lines(self, tmp_path):
        (tmp_path / "Makefile").write_text(
            "SRCS = main.c \\\n       util.c \\\n       io.c\n\n"
            "tool: $(SRCS) \\\n      extra.c\n\t$(CC) -o tool $(SRCS) \\\n\t  extra.c\n\n"
            "app: main.o\n\tcc -o app main.o\n", "utf-8")
        pred = extract_targets_rule_based(load_makefile_docs(workspace_at(tmp_path)))
        assert pred.evidence == {"tool": ("Makefile", 5), "app": ("Makefile", 10)}

    @pytest.mark.parametrize("between", ["", "  ", "# link it", "  # link it"])
    def test_recipe_goes_on_after_a_blank_or_comment_line(self, tmp_path, between):
        # make ignores such lines among a rule's recipe lines: `make -n app`
        # runs the link command below them
        (tmp_path / "Makefile").write_text(
            f"app: main.o\n\t@echo linking\n{between}\n\tcc -o app main.o\n\n"
            "clean:\n\trm -f app\n", "utf-8")
        pred = extract_targets_rule_based(load_makefile_docs(workspace_at(tmp_path)))
        assert pred.names == ("app",)
        assert pred.evidence == {"app": ("Makefile", 1)}

    def test_blank_line_that_ends_a_rule_is_its_own_unit(self):
        assert _split_units("app: x\n\tcc -o app x\n\n# done\nCC = cc\n") == [
            ("rule", "app: x\n\tcc -o app x", 1),
            ("line", "", 3),
            ("line", "# done", 4),
            ("line", "CC = cc", 5),
            ("line", "", 6),
        ]

    @pytest.mark.parametrize("op", ["=", ":=", "::=", ":::=", "?=", "+="])
    def test_target_named_through_an_assignment(self, tmp_path, op):
        # `make -n` runs `cc -o app main.c` for each operator (`:::=` since GNU make 4.4)
        (tmp_path / "Makefile").write_text(
            f"PROG {op} app\n$(PROG): main.c\n\tcc -o $@ main.c\n", "utf-8")
        pred = extract_targets_rule_based(load_makefile_docs(workspace_at(tmp_path)))
        assert pred.names == ("app",)
        assert pred.evidence == {"app": ("Makefile", 2)}

    def test_shell_assignment_names_no_target(self, tmp_path):
        # the value of != is a shell command, which prediction does not run
        (tmp_path / "Makefile").write_text(
            "PROG != echo app\n$(PROG): main.c\n\tcc -o $@ main.c\n", "utf-8")
        pred = extract_targets_rule_based(load_makefile_docs(workspace_at(tmp_path)))
        assert pred.names == ()

    def test_variable_indirect_target_fixture(self, tmp_path):
        ws = prepare_fixture("pred_var", tmp_path)
        pred = extract_targets_rule_based(load_makefile_docs(ws))
        assert set(pred.names) == {"mytool"}

    def test_phony_targets_excluded(self):
        doc = _raw_doc(
            ".PHONY: install\ninstall: main.c\n\tcc -o install main.c\n"
        )
        assert extract_targets_rule_based([doc]).names == ()

    def test_pattern_rules_excluded(self):
        doc = _raw_doc("%: %.o\n\tcc -o $@ $<\n")
        assert extract_targets_rule_based([doc]).names == ()

    def test_special_dot_targets_excluded(self):
        doc = _raw_doc(".SECONDARY: keepme\n\tcc -o junk x.c\n")
        assert extract_targets_rule_based([doc]).names == ()

    def test_archive_targets_excluded(self):
        doc = _raw_doc("libx.a: a.o b.o\n\tar rcs libx.a a.o b.o\n")
        assert extract_targets_rule_based([doc]).names == ()

    def test_rule_without_output_flag_excluded(self):
        doc = _raw_doc("report: data.txt\n\tsort data.txt > report\n")
        assert extract_targets_rule_based([doc]).names == ()

    def test_automatic_variable_output_covers_multiple_targets(self):
        doc = _raw_doc("app tool: main.o\n\tcc -o $@ main.o\n")
        assert set(extract_targets_rule_based([doc]).names) == {"app", "tool"}

    def test_directory_prefix_stripped_from_name(self):
        doc = _raw_doc("build/app: main.o\n\tcc -o build/app main.o\n")
        pred = extract_targets_rule_based([doc])
        assert pred.names == ("app",)

    def test_duplicates_across_docs_keep_first_evidence(self):
        d1 = _raw_doc("app: a.o\n\tcc -o app a.o\n", rel="Makefile")
        d2 = _raw_doc("app: b.o\n\tcc -o app b.o\n", rel="sub/Makefile")
        pred = extract_targets_rule_based([d1, d2])
        assert pred.names == ("app",)
        assert pred.evidence["app"][0] == "Makefile"

    def test_generated_makefile_targets(self):
        doc = _doc(generated_makefile(60))
        pred = extract_targets_rule_based([doc])
        assert set(pred.names) == {"bigapp", "helper"}

    def test_no_docs_no_names(self):
        pred = extract_targets_rule_based([])
        assert pred.names == ()
        assert pred.evidence == {}


def _cfg(scenario):
    return LlmConfig(backend="scripted", scenario=scenario)


class TestLlmExtraction:
    def test_llm_names_merge_ahead_of_rule_based(self):
        doc = _raw_doc("app: a.o\n\tcc -o app a.o\n")
        scenario = ScriptedScenario(default_reply="NAMES:\nextra_tool\napp")
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert pred.names == ("extra_tool", "app")
        assert pred.evidence["extra_tool"] == ("Makefile", 0)
        assert pred.evidence["app"][1] > 0

    def test_empty_names_block_keeps_rule_based_only(self):
        doc = _raw_doc("app: a.o\n\tcc -o app a.o\n")
        scenario = ScriptedScenario(default_reply="NAMES:\n")
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert pred.names == ("app",)

    def test_none_marker_treated_as_empty(self):
        doc = _raw_doc("app: a.o\n\tcc -o app a.o\n")
        scenario = ScriptedScenario(default_reply="NAMES:\nnone")
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert pred.names == ("app",)

    def test_bullets_stripped(self):
        scenario = ScriptedScenario(default_reply="NAMES:\n- alpha\n* beta")
        pred = extract_targets_llm([], _cfg(scenario))
        assert pred.names == ("alpha", "beta")

    def test_numbers_and_angles_stripped(self):
        doc = _raw_doc("app: a.o\n\tcc -o app a.o\n")
        scenario = ScriptedScenario(default_reply="NAMES:\n1. app\n2) <tool>")
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert pred.names == ("app", "tool")

    def test_malformed_reply_reasked_once(self):
        scenario = ScriptedScenario(
            steps=[("did not follow the required format", "NAMES:\nfixed_tool")],
            default_reply="The build produces some things.",
        )
        pred = extract_targets_llm([], _cfg(scenario))
        assert pred.names == ("fixed_tool",)

    def test_persistent_malformed_reply_raises(self):
        scenario = ScriptedScenario(default_reply="no labels")
        with pytest.raises(ProtocolError, match="NAMES"):
            extract_targets_llm([], _cfg(scenario))

    def test_prompt_shows_cleaned_docs(self):
        doc = _raw_doc("TARGET = mytool\n", rel="sub/Makefile")
        scenario = ScriptedScenario(
            steps=[
                (
                    re.compile(r"### sub/Makefile\nTARGET = mytool"),
                    "NAMES:\nmytool",
                )
            ]
        )
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert pred.names == ("mytool",)

    def test_large_input_split_into_chunks(self):
        # past the 100,000 characters of one prompt's chunk
        early = "BIN_EARLY = alpha\n" + "PROG_PAD = x\n" * 8000
        late = "BIN_LATE = beta\n"
        doc = _raw_doc(early + late)
        scenario = ScriptedScenario(
            steps=[
                ("BIN_LATE", "NAMES:\nbeta"),
                ("BIN_EARLY", "NAMES:\nalpha"),
            ]
        )
        pred = extract_targets_llm([doc], _cfg(scenario))
        assert "alpha" in pred.names
        assert "beta" in pred.names

    def test_reply_cap_does_not_change_the_prompt_count(self):
        docs = [_raw_doc(f"BIN_{i} = tool{i}\n" + "PROG_PAD = x\n" * 700, rel=f"m{i}/Makefile")
                for i in range(3)]
        assert all(len(doc.cleaned_text) > 8192 for doc in docs)

        class CountingScenario(ScriptedScenario):
            calls = 0

            def resolve(self, latest_user):
                self.calls += 1
                return super().resolve(latest_user)

        calls = []
        for cap in (8192, LlmConfig().max_reply_chars):
            scenario = CountingScenario(default_reply="NAMES:\ntool0")
            cfg = LlmConfig(backend="scripted", scenario=scenario, max_reply_chars=cap)
            assert extract_targets_llm(docs, cfg).names == ("tool0",)
            calls.append(scenario.calls)
        assert calls[0] == calls[1]


class TestPredictTargets:
    def test_rule_based_when_no_config(self, tmp_path):
        ws = prepare_fixture("pred_direct", tmp_path)
        pred = predict_targets(ws)
        assert set(pred.names) == {"app"}

    def test_llm_refinement_when_configured(self, tmp_path):
        ws = prepare_fixture("pred_var", tmp_path)
        scenario = ScriptedScenario(default_reply="NAMES:\nmytool\nsidecar")
        pred = predict_targets(ws, _cfg(scenario))
        assert pred.names == ("mytool", "sidecar")
