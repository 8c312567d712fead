from repobuild.errors import RepobuildError
from repobuild.rules import (
    build_with_rules,
    load_build_routines,
    render_routine,
)
from repobuild.validation import discover_new_binaries, judge
from repobuild.workspace import BuildSystemKind, snapshot_files

from conftest import needs_cmake, prepare_fixture, workspace_at


def completion_probe(ws):
    """Probe that reports success once any non-intermediate binary appears."""
    before = snapshot_files(ws)

    def probe(result, ws_):
        after = snapshot_files(ws_)
        return judge(discover_new_binaries(before, after, ws_), []).completion

    return probe, before


def named_probe(ws, expected):
    """Probe that waits for one of the expected binary names."""
    before = snapshot_files(ws)

    def probe(result, ws_):
        after = snapshot_files(ws_)
        return judge(discover_new_binaries(before, after, ws_), expected).flexible

    return probe, before


class TestLoadBuildRoutines:
    def test_shipped_set_covers_all_routine_kinds(self):
        routines = load_build_routines()
        for kind in BuildSystemKind:
            if kind is BuildSystemKind.NONE:
                continue
            assert kind.value in routines
            assert routines[kind.value], kind


class TestRenderRoutine:
    def setup_method(self):
        self.templates = load_build_routines()

    def test_root_evidence_uses_mount_path(self):
        routine = render_routine(
            BuildSystemKind.MAKE, "Makefile", "/app/demo", self.templates
        )
        assert routine.steps[0] == "cd /app/demo"
        assert routine.kind is BuildSystemKind.MAKE

    def test_nested_evidence_appends_directory(self):
        routine = render_routine(
            BuildSystemKind.CMAKE, "lib/CMakeLists.txt", "/app/demo", self.templates
        )
        assert routine.steps[0] == "cd /app/demo/lib"

    def test_custom_script_name_substituted(self):
        routine = render_routine(
            BuildSystemKind.CUSTOM_SCRIPT, "build.sh", "/app/demo", self.templates
        )
        assert routine.steps[-1] == "bash ./build.sh"

    def test_kind_without_template_returns_none(self):
        assert render_routine(
            BuildSystemKind.MAKE, "Makefile", "/app/demo", {"CMake": ["x"]}
        ) is None


class TestBuildWithRules:
    def test_make_repo_builds_with_debug_flags(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        probe, before = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "succeeded"
        assert session.variant == "rule-based"
        assert len(session.turns) == 1
        assert session.turns[0].agent_reply_raw == "routine:Make"
        assert session.fix_attempts == 0
        arts = discover_new_binaries(before, snapshot_files(ws), ws)
        verdict = judge(arts, ["hello"])
        assert verdict.strict is True
        produced = {a.file_name: a for a in arts}
        # the routine overrides CFLAGS, so the binary carries debug info
        assert produced["hello"].has_debug_info is True

    @needs_cmake
    def test_cmake_repo_builds(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_cmake", tmp_path)
        probe, before = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "succeeded"
        assert session.turns[0].agent_reply_raw == "routine:CMake"
        arts = discover_new_binaries(before, snapshot_files(ws), ws)
        assert judge(arts, ["hellocm"]).strict is True

    def test_autotools_repo_prefers_configure_over_makefile_in(
        self, tmp_path, local_spec
    ):
        ws = prepare_fixture("hello_autotools", tmp_path)
        probe, before = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "succeeded"
        assert session.turns[0].agent_reply_raw == "routine:Autotools"
        assert len(session.turns) == 1
        arts = discover_new_binaries(before, snapshot_files(ws), ws)
        assert judge(arts, ["hat"]).strict is True

    def test_falls_through_to_next_routine_on_failure(self, tmp_path, local_spec):
        ws = prepare_fixture("dual_build", tmp_path)
        probe, before = named_probe(ws, ["dualapp"])
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "succeeded"
        assert [t.agent_reply_raw for t in session.turns] == [
            "routine:CMake",
            "routine:Make",
        ]
        assert session.turns[0].result.overall_exit != 0
        assert session.turns[1].result.overall_exit == 0
        assert session.fix_attempts == 0
        arts = discover_new_binaries(before, snapshot_files(ws), ws)
        assert judge(arts, ["dualapp"]).strict is True

    @needs_cmake
    def test_completion_probe_is_fooled_by_configure_leftovers(
        self, tmp_path, local_spec
    ):
        # a failed CMake configure still drops compiler-probe executables, so
        # the un-validated completion criterion stops the routine cascade early
        ws = prepare_fixture("dual_build", tmp_path)
        probe, before = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "succeeded"
        assert [t.agent_reply_raw for t in session.turns] == ["routine:CMake"]
        verdict = judge(discover_new_binaries(before, snapshot_files(ws), ws), ["dualapp"])
        assert verdict.completion is True
        assert verdict.strict is False
        assert verdict.flexible is False

    def test_unfixable_repo_exhausts_routines(self, tmp_path, local_spec):
        ws = prepare_fixture("needs_header", tmp_path)
        probe, _ = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "turn-budget-exhausted"
        assert len(session.turns) == 1
        assert "No such file" in session.turns[0].result.combined_output

    def test_no_build_system_means_no_attempts(self, tmp_path, local_spec):
        (tmp_path / "README.md").write_text("source-free repository\n")
        ws = workspace_at(tmp_path)
        probe, _ = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "turn-budget-exhausted"
        assert session.turns == []

    def test_probe_decides_success_not_exit_code(self, tmp_path, local_spec):
        ws = prepare_fixture("hello_make", tmp_path)
        session = build_with_rules(ws, local_spec, lambda result, ws_: False)
        assert session.outcome == "turn-budget-exhausted"
        assert session.turns[0].result.overall_exit == 0

    def test_sandbox_failure_is_infra_error(self, tmp_path, local_spec, monkeypatch):
        ws = prepare_fixture("hello_make", tmp_path)

        def refuse(spec, ws_):
            raise RepobuildError("no backend available")

        monkeypatch.setattr("repobuild.agent.create_sandbox", refuse)
        probe, _ = completion_probe(ws)
        session = build_with_rules(ws, local_spec, probe)
        assert session.outcome == "infra-error"
        assert "no backend available" in session.error_detail

    def test_max_turns_reflects_attempt_count(self, tmp_path, local_spec):
        ws = prepare_fixture("dual_build", tmp_path)
        session = build_with_rules(ws, local_spec, lambda r, w: False)
        assert session.max_turns == 2
        assert len(session.turns) == 2
