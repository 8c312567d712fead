import os
import random
import shutil
import subprocess
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repobuild.errors import RepobuildError, UsageError
from repobuild.validation import (
    BinaryArtifact,
    classify_file,
    default_symbol_extractor,
    discover_new_binaries,
    function_coverage,
    judge,
    scan_source_functions,
)
from repobuild import validation, workspace
from repobuild.workspace import file_entry, has_binary_magic, snapshot_files, walk_files

from conftest import prepare_fixture, workspace_at


def _cc(args, cwd):
    subprocess.run(["gcc"] + args, cwd=cwd, check=True, capture_output=True)


def _bytes_read():
    """Bytes this process has read so far (Linux), or None."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One directory of real compiled artifacts, shared across the module."""
    root = tmp_path_factory.mktemp("cc")
    (root / "prog.c").write_text(
        "int helper(int x) { return x + 1; }\n"
        "int main(void) { return helper(41); }\n"
    )
    _cc(["-g", "-O0", "-o", "exe_debug", "prog.c"], root)
    _cc(["-s", "-o", "exe_plain", "prog.c"], root)
    _cc(["-no-pie", "-o", "exe_nopie", "prog.c"], root)
    _cc(["-g", "-shared", "-fPIC", "-o", "libdemo.so", "prog.c"], root)
    _cc(["-g", "-c", "-o", "part.o", "prog.c"], root)
    subprocess.run(
        ["ar", "rcs", "libdemo.a", "part.o"], cwd=root, check=True, capture_output=True
    )
    return root


class TestClassifyFile:
    def test_pie_executable_with_debug_info(self, built):
        assert classify_file(built / "exe_debug") == ("executable", True)

    def test_stripped_executable_lacks_debug_info(self, built):
        assert classify_file(built / "exe_plain") == ("executable", False)

    def test_non_pie_executable(self, built):
        kind, _ = classify_file(built / "exe_nopie")
        assert kind == "executable"

    def test_shared_object(self, built):
        assert classify_file(built / "libdemo.so") == ("shared-object", True)

    def test_object_file(self, built):
        assert classify_file(built / "part.o") == ("object-file", True)

    def test_static_archive(self, built):
        assert classify_file(built / "libdemo.a") == ("static-archive", False)

    def test_text_file_is_not_an_artifact(self, tmp_path):
        p = tmp_path / "notes.txt"
        p.write_text("just text\n")
        assert classify_file(p) is None

    def test_unrecognized_binary_is_not_an_artifact(self, tmp_path):
        p = tmp_path / "image.png"
        p.write_bytes(b"\x89PNG\r\n\x1a\n" + b"\x00" * 64)
        assert classify_file(p) is None

    def test_pe_header_is_other_binary(self, tmp_path):
        p = tmp_path / "tool.exe"
        p.write_bytes(b"MZ" + b"\x00" * 128)
        assert classify_file(p) == ("other-binary", False)

    def test_macho_magic_is_other_binary(self, tmp_path):
        p = tmp_path / "tool"
        p.write_bytes(b"\xcf\xfa\xed\xfe" + b"\x00" * 128)
        assert classify_file(p) == ("other-binary", False)

    def test_missing_file_returns_none(self, tmp_path):
        assert classify_file(tmp_path / "absent") is None

    def test_truncated_elf_returns_none(self, tmp_path):
        p = tmp_path / "stub"
        p.write_bytes(b"\x7fELF" + b"\x00" * 10)
        assert classify_file(p) is None

    def test_elf_cut_short_loses_only_what_was_cut(self, built, tmp_path):
        # the program headers sit right after the ELF header and the section
        # headers at the end, so half a file keeps the interpreter entry but
        # loses the section table, the same as a struct.error on it
        data = (built / "exe_debug").read_bytes()
        half = tmp_path / "half"
        half.write_bytes(data[: len(data) // 2])
        assert classify_file(half) == ("executable", False)
        header_only = tmp_path / "header_only"
        header_only.write_bytes((built / "part.o").read_bytes()[:64])
        assert classify_file(header_only) == ("object-file", False)

    def test_large_elf_is_classified_from_its_headers(self, tmp_path):
        (tmp_path / "big.c").write_text(
            "const char payload[8 << 20] = {1};\n"
            "int main(void) { return payload[0]; }\n"
        )
        _cc(["-g", "-o", "big", "big.c"], tmp_path)
        big = tmp_path / "big"
        assert big.stat().st_size > 8 << 20
        before = _bytes_read()
        if before is None:
            pytest.skip("/proc/self/io is not readable")
        assert classify_file(big) == ("executable", True)
        assert _bytes_read() - before < 64 << 10


class TestBinaryArtifact:
    def test_unknown_class_rejected(self):
        with pytest.raises(UsageError, match="unknown artifact class"):
            BinaryArtifact("a", "a", "weird-kind", False)

    def test_known_classes_accepted(self):
        art = BinaryArtifact("bin/app", "app", "executable", True)
        assert art.file_name == "app"


class TestDiscoverNewBinaries:
    def test_new_executable_found_after_build(self, tmp_path):
        ws = prepare_fixture("hello_make", tmp_path)
        before = snapshot_files(ws)
        subprocess.run(
            ["make"], cwd=ws.root_path, check=True, capture_output=True
        )
        arts = discover_new_binaries(before, ws)
        assert [a.file_name for a in arts] == ["hello"]
        assert arts[0].classify == "executable"
        assert arts[0].rel_path == "hello"

    def test_text_outputs_ignored(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        ws = workspace_at(tmp_path)
        before = snapshot_files(ws)
        (tmp_path / "build.log").write_text("gcc ran fine\n")
        _cc(["-c", "-o", "main.o", "main.c"], tmp_path)
        arts = discover_new_binaries(before, ws)
        assert [a.rel_path for a in arts] == ["main.o"]
        assert arts[0].classify == "object-file"

    def test_modified_binary_counts_as_new(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        _cc(["-o", "app", "main.c"], tmp_path)
        ws = workspace_at(tmp_path)
        before = snapshot_files(ws)
        (tmp_path / "main.c").write_text("int main(void){return 7;}\n")
        _cc(["-o", "app", "main.c"], tmp_path)
        assert [a.file_name for a in discover_new_binaries(before, ws)] == ["app"]

    def test_untouched_binary_not_reported(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        _cc(["-o", "app", "main.c"], tmp_path)
        ws = workspace_at(tmp_path)
        before = snapshot_files(ws)
        assert discover_new_binaries(before, ws) == []

    def test_results_sorted_by_path(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        ws = workspace_at(tmp_path)
        before = snapshot_files(ws)
        _cc(["-o", "zeta", "main.c"], tmp_path)
        _cc(["-o", "alpha", "main.c"], tmp_path)
        names = [a.rel_path for a in discover_new_binaries(before, ws)]
        assert names == sorted(names)

    def test_symlink_out_of_the_workspace_is_not_a_product(self, built, tmp_path):
        root = tmp_path / "empty_repo"
        root.mkdir()
        ws = workspace_at(root)
        before = snapshot_files(ws)
        os.symlink(built / "exe_plain", root / "myapp")
        os.symlink("../../" + built.name + "/libdemo.so", root / "libdemo.so")
        assert (root / "libdemo.so").is_file()
        arts = discover_new_binaries(before, ws)
        assert arts == []
        verdict = judge(arts, ["myapp"])
        assert (verdict.completion, verdict.strict, verdict.flexible) == (False, False, False)

    def test_symlink_inside_the_workspace_counts(self, built, tmp_path):
        root = tmp_path / "repo"
        root.mkdir()
        ws = workspace_at(root)
        before = snapshot_files(ws)
        (root / "libfoo.so.1").write_bytes((built / "libdemo.so").read_bytes())
        os.symlink("libfoo.so.1", root / "libfoo.so")
        arts = discover_new_binaries(before, ws)
        assert [(a.file_name, a.classify) for a in arts] == [
            ("libfoo.so", "shared-object"),
            ("libfoo.so.1", "shared-object"),
        ]


class TestHeaderFirstVerdict:
    """Verdicts against a baseline that hashed only the files with a magic."""

    def test_magic_accepts_every_classified_file(self, built, tmp_path):
        for name, data in _binary_pool(built).items():
            path = tmp_path / name
            path.write_bytes(data)
            if classify_file(path) is not None:
                assert has_binary_magic(str(path)), name
        text = tmp_path / "notes.txt"
        text.write_text("a text that mentions MZ\n")
        assert classify_file(text) is None and not has_binary_magic(str(text))

    def test_touched_binary_is_not_a_product(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void){return 0;}\n")
        _cc(["-o", "app", "main.c"], tmp_path)
        ws = workspace_at(tmp_path)
        before = snapshot_files(ws)
        assert before.entries["main.c"][1] is None
        assert before.entries["app"][1] is not None
        app = tmp_path / "app"
        st = os.stat(app)
        os.utime(app, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert discover_new_binaries(before, ws) == []
        # the same bytes under a new inode are not a product either
        shutil.copy2(app, tmp_path / "app.new")
        os.replace(tmp_path / "app.new", app)
        assert discover_new_binaries(before, ws) == []

    def test_rebuilt_binary_and_new_symlink_are_products(self, built, tmp_path):
        root = tmp_path / "repo"
        (root / "lib").mkdir(parents=True)
        (root / "lib" / "libfoo.so.1").write_bytes((built / "libdemo.so").read_bytes())
        ws = workspace_at(root)
        before = snapshot_files(ws)
        (root / "lib" / "libfoo.so.1").write_bytes((built / "exe_plain").read_bytes())
        os.symlink("lib/libfoo.so.1", root / "libfoo.so")
        os.symlink(built / "exe_debug", root / "outside")
        arts = discover_new_binaries(before, ws)
        assert [(a.rel_path, a.classify) for a in arts] == [
            (os.path.join("lib", "libfoo.so.1"), "executable"),
            ("libfoo.so", "executable"),
        ]

    SEQUENCES = 120

    def test_equals_the_full_hash_verdict_on_random_ops(
        self, built, tmp_path, monkeypatch
    ):
        rng = random.Random(20261018)
        pool = _binary_pool(built)
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "tool").write_bytes(pool["elf-exe"])
        env = SimpleNamespace(pool=pool, outside=outside)

        hashed, classified = [], []
        digest = workspace._digest_file
        classify = validation.classify_file
        monkeypatch.setattr(workspace, "_digest_file", lambda p: hashed.append(p) or digest(p))
        monkeypatch.setattr(
            validation, "classify_file", lambda p: classified.append(p) or classify(p)
        )

        trees = [_verdict_tree(rng, tmp_path / f"t{i}", pool) for i in range(self.SEQUENCES)]
        # let the seeded files fall out of the racy window, so that the
        # baseline's stat keys, not the racy rule, decide what is skipped
        time.sleep(2 * workspace._RACY_MARGIN_NS / 1e9)

        mismatches, bad_hashes, walked, live_classified = [], [], 0, 0
        for case, root in enumerate(trees):
            ws = workspace_at(root)
            racy = rng.choice(_binaries(root)) if rng.random() < 0.5 else None
            if racy is not None:
                _flip_after_magic(rng, racy)
                racy_stat = os.stat(racy)
            header = snapshot_files(ws)
            full = _full_hash_entries(ws)
            steps = []
            if racy is not None:
                # a rewrite inside the racy window that keeps size and mtime
                _flip_after_magic(rng, racy)
                os.utime(racy, ns=(racy_stat.st_atime_ns, racy_stat.st_mtime_ns))
                steps.append(None)
            steps += [rng.choice(_VERDICT_OPS) for _ in range(rng.randint(1, 6))]
            for step, op in enumerate(steps):
                if op is not None:
                    op(rng, root, env)
                hashed.clear()
                classified.clear()
                live = discover_new_binaries(header, ws)
                live_classified += len(classified)
                for path in hashed:
                    rel = os.path.relpath(path, root)
                    entry = header.entries.get(rel)
                    if entry is None or entry[1] is None or not has_binary_magic(path):
                        bad_hashes.append((case, rel))
                after = _full_hash_entries(ws)
                walked += len(after)
                reference = _full_hash_verdict(full, after, ws)
                if live != reference:
                    names = [o.__name__ if o else "racy" for o in steps[: step + 1]]
                    mismatches.append((case, names, live, reference))

        assert mismatches == []
        assert bad_hashes == []
        # unchanged files were skipped on their stat, not classified
        assert live_classified < walked / 2


# ---------------------------------------------------------------------------
# header-first verdicts: random operation sequences against a full re-hash


def _binary_pool(built) -> dict:
    """A sample of every format classify_file recognises, and a short ELF
    that it rejects but whose magic still makes it a candidate."""
    pool = {
        "elf-exe": (built / "exe_plain").read_bytes(),
        "elf-obj": (built / "part.o").read_bytes(),
        "elf-short": b"\x7fELF" + bytes(10),
        "archive": (built / "libdemo.a").read_bytes(),
        "pe": b"MZ" + bytes(126),
    }
    for i, magic in enumerate(workspace.MACHO_MAGICS):
        pool[f"macho{i}"] = magic + bytes(124)
    return pool


def _full_hash_entries(ws) -> dict:
    """rel path -> (size, sha256, executable flag) of every file, a symlink
    by its target string: what a snapshot that hashes every file holds."""
    return {rel: file_entry(full, st) for rel, full, st in walk_files(ws)}


def _full_hash_verdict(before: dict, after: dict, ws) -> list:
    """The products two full-hash snapshots give: every path whose entry
    changed and that classifies, a symlink only when it resolves to a file
    inside the tree."""
    root = ws.root_path.resolve()
    products = []
    for rel in sorted(after):
        path = ws.root_path / rel
        if before.get(rel) == after[rel] or not path.is_file():
            continue
        if path.is_symlink() and not path.resolve().is_relative_to(root):
            continue
        info = classify_file(path)
        if info is not None:
            products.append(BinaryArtifact(rel, path.name, *info))
    return products


def _elf(pool: dict) -> list:
    return [pool["elf-exe"], pool["elf-obj"]]


def _text(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choice(b"abcdefgh \n") for _ in range(n))


def _verdict_tree(rng: random.Random, root: Path, pool: dict) -> Path:
    (root / "sub").mkdir(parents=True)
    (root / "bin").mkdir()
    for i in range(4):
        path = (root / "sub" if i % 2 else root) / f"t{i}.txt"
        path.write_bytes(_text(rng, rng.randrange(64, 600)))
    for name, data in pool.items():
        (root / "bin" / name).write_bytes(data)
        os.chmod(root / "bin" / name, 0o755)
    # a shared object without the executable bit, for chmod +x
    (root / "sub" / "libx.so").write_bytes(pool["elf-obj"])
    os.symlink("bin/elf-exe", root / "app")
    os.symlink("../sub/libx.so", root / "bin" / "libx.so.link")
    os.symlink("t0.txt", root / "notes")
    return root


def _files(root: Path) -> list:
    return sorted(p for p in root.rglob("*") if p.is_file() and not p.is_symlink())


def _binaries(root: Path) -> list:
    return [p for p in _files(root) if classify_file(p) is not None] or _files(root)


def _links(root: Path) -> list:
    return sorted(p for p in root.rglob("*") if p.is_symlink())


def _flip_after_magic(rng: random.Random, path: Path) -> None:
    """Rewrite the bytes past the magic, keeping the size."""
    data = path.read_bytes()
    path.write_bytes(data[:8] + bytes((b + 1 + rng.randrange(255)) % 256 for b in data[8:]))


def _op_copy_elf_in(rng, root, env):
    parent = rng.choice([root, root / "sub", root / "bin"])
    dest = rng.choice([parent / f"new{rng.randrange(10**6)}"] + _files(root))
    dest.write_bytes(rng.choice(_elf(env.pool)))


def _op_create_binary(rng, root, env):
    name = rng.choice(sorted(env.pool))
    (root / "sub" / f"{name}.{rng.randrange(10**6)}").write_bytes(env.pool[name])


def _op_text_to_elf_same_size_and_mtime(rng, root, env):
    texts = [p for p in _files(root) if p.suffix == ".txt"]
    if not texts:
        return
    path = rng.choice(texts)
    st = os.stat(path)
    path.write_bytes(rng.choice(_elf(env.pool))[: st.st_size])
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _op_rewrite_binary_keep_mtime(rng, root, env):
    path = rng.choice(_binaries(root))
    st = os.stat(path)
    _flip_after_magic(rng, path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _op_binary_to_text(rng, root, env):
    path = rng.choice(_binaries(root))
    path.write_bytes(_text(rng, rng.choice([os.stat(path).st_size, 100])))


def _op_touch(rng, root, env):
    path = rng.choice(_binaries(root) if rng.random() < 0.8 else _files(root))
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + rng.choice([-1, 1]) * 10**9))


def _op_chmod_so(rng, root, env):
    libs = [p for p in _files(root) if p.suffix == ".so"] or _files(root)
    path = rng.choice(libs)
    os.chmod(path, os.stat(path).st_mode ^ 0o111)


def _op_retarget_link(rng, root, env):
    links = _links(root)
    if not links:
        return
    link = rng.choice(links)
    os.remove(link)
    if rng.random() < 0.5:
        os.symlink(env.outside / "tool", link)
    else:
        os.symlink(os.path.relpath(rng.choice(_files(root)), link.parent), link)


def _op_delete(rng, root, env):
    candidates = _files(root) + _links(root)
    if candidates:
        os.remove(rng.choice(candidates))


_VERDICT_OPS = [
    _op_copy_elf_in, _op_create_binary, _op_text_to_elf_same_size_and_mtime,
    _op_rewrite_binary_keep_mtime, _op_binary_to_text, _op_touch, _op_chmod_so,
    _op_retarget_link, _op_delete,
]


def _art(name, classify="executable", rel=None):
    return BinaryArtifact(rel or name, name, classify, False)


class TestJudge:
    def test_all_criteria_met(self):
        v = judge([_art("app")], ["app"])
        assert (v.completion, v.strict, v.flexible) == (True, True, True)
        assert v.matched_names == frozenset({"app"})

    def test_object_files_alone_do_not_complete(self):
        v = judge([_art("main.o", "object-file")], ["app"])
        assert (v.completion, v.strict, v.flexible) == (False, False, False)

    def test_shared_object_counts_for_completion(self):
        v = judge([_art("libx.so", "shared-object")], ["app"])
        assert v.completion is True
        assert v.strict is False

    def test_partial_match_is_flexible_not_strict(self):
        v = judge([_art("app")], ["app", "tool"])
        assert v.strict is False
        assert v.flexible is True
        assert v.matched_names == frozenset({"app"})

    def test_expected_names_compare_on_base_name(self):
        v = judge([_art("app", rel="build/app")], ["bin/app"])
        assert v.strict is True

    def test_names_are_case_sensitive(self):
        v = judge([_art("App")], ["app"])
        assert v.flexible is False

    def test_no_expected_names_means_no_name_criteria(self):
        v = judge([_art("whatever")], [])
        assert v.completion is True
        assert v.strict is False
        assert v.flexible is False

    def test_no_artifacts_at_all(self):
        v = judge([], ["app"])
        assert (v.completion, v.strict, v.flexible) == (False, False, False)
        assert v.new_binaries == ()

    def test_new_binaries_keeps_object_files(self):
        v = judge([_art("a.o", "object-file"), _art("app")], ["app"])
        assert len(v.new_binaries) == 2


class TestScanSourceFunctions:
    def test_plain_definitions(self):
        text = "int add(int a, int b) {\n return a+b;\n}\nvoid run(void) { }\n"
        assert scan_source_functions(text) == ["add", "run"]

    def test_declarations_not_counted(self):
        assert scan_source_functions("int add(int a, int b);\n") == []

    def test_control_statements_not_functions(self):
        text = (
            "int f(int x) {\n"
            "  if (x) { x--; }\n"
            "  while (x > 0) { x--; }\n"
            "  for (;;) { break; }\n"
            "  switch (x) { default: break; }\n"
            "  return x;\n"
            "}\n"
        )
        assert scan_source_functions(text) == ["f"]

    def test_aggregate_initializer_not_a_definition(self):
        text = "int table[] = {1, 2, 3};\nint go(void) { return table[0]; }\n"
        assert scan_source_functions(text) == ["go"]

    def test_commented_out_code_ignored(self):
        text = "/* int ghost(void) { return 0; } */\nint real(void) { return 1; }\n"
        assert scan_source_functions(text) == ["real"]

    def test_line_comment_ignored(self):
        text = "// int ghost(void) { return 0; }\nint real(void) { return 1; }\n"
        assert scan_source_functions(text) == ["real"]

    def test_string_literal_contents_ignored(self):
        text = 'const char *s = "int fake(void) {";\nint real(void) { return 0; }\n'
        assert scan_source_functions(text) == ["real"]

    def test_unterminated_string_and_comment_run_to_the_end(self):
        real = "int real(void) { return 0; }\n"
        ghost = "int ghost(void) { return 1; }\n"
        assert scan_source_functions(real + 'char *s = "oops;\n' + ghost) == ["real"]
        assert scan_source_functions(real + "/* oops\n" + ghost) == ["real"]

    def test_escaped_quote_does_not_end_a_string(self):
        text = 'char *s = "say \\"int fake(void) {\\" now";\nint real(void) { return 0; }\n'
        assert scan_source_functions(text) == ["real"]

    def test_brace_char_literal_does_not_open_a_scope(self):
        text = "int real(void) { char c = '{'; return c; }\nint next(void) { return 1; }\n"
        assert scan_source_functions(text) == ["real", "next"]

    def test_backslash_newline_inside_a_string(self):
        text = 'char *s = "one \\\nint fake(void) {";\nint real(void) { return 0; }\n'
        assert scan_source_functions(text) == ["real"]

    def test_preprocessor_macros_ignored(self):
        text = (
            "#define HELPER(x) do { (x)++; } while (0)\n"
            "#define LONG_MACRO(a) \\\n    ((a) * 2)\n"
            "int real(void) { return 0; }\n"
        )
        assert scan_source_functions(text) == ["real"]

    def test_cpp_method_definition_uses_short_name(self):
        text = "int Widget::resize(int w) {\n  return w;\n}\n"
        assert scan_source_functions(text) == ["resize"]

    def test_const_method_suffix(self):
        text = "int Widget::size() const {\n  return 4;\n}\n"
        assert scan_source_functions(text) == ["size"]

    def test_nested_blocks_do_not_produce_names(self):
        text = "int outer(void) {\n  { int x = 0; }\n  return 0;\n}\n"
        assert scan_source_functions(text) == ["outer"]

    def test_multiline_parameter_list(self):
        text = "static long compute(int first,\n    int second)\n{\n  return first;\n}\n"
        assert scan_source_functions(text) == ["compute"]


class TestDefaultSymbolExtractor:
    def test_reads_function_names_from_debug_info(self, built):
        names = default_symbol_extractor(built / "exe_debug")
        assert "main" in names
        assert "helper" in names

    def test_binary_without_debug_info_yields_nothing(self, built):
        assert default_symbol_extractor(built / "exe_plain") == []

    def test_unreadable_target_raises(self, tmp_path):
        with pytest.raises(RepobuildError, match="readelf failed"):
            default_symbol_extractor(tmp_path / "absent")


class TestFunctionCoverage:
    def _build_coverage_repo(self, tmp_path):
        ws = prepare_fixture("coverage_repo", tmp_path)
        before = snapshot_files(ws)
        subprocess.run(["make"], cwd=ws.root_path, check=True, capture_output=True)
        return ws, discover_new_binaries(before, ws)

    def test_partial_build_coverage_and_hotspots(self, tmp_path):
        ws, arts = self._build_coverage_repo(tmp_path)
        report = function_coverage(ws, arts)
        assert report.undefined is False
        assert report.coverage_pct == pytest.approx(100.0 * 2 / 3, abs=0.1)
        assert report.top_uncompiled_dirs == [("tests", 1)]
        assert ("extra_check", "tests/unused.c") in report.source_functions
        assert "helper" in report.compiled_functions

    def test_full_coverage_repo(self, tmp_path):
        (tmp_path / "main.c").write_text(
            "int only(void) { return 3; }\nint main(void) { return only(); }\n"
        )
        _cc(["-g", "-O0", "-o", "app", "main.c"], tmp_path)
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("app", "app", "executable", True)]
        report = function_coverage(ws, arts)
        assert report.coverage_pct == pytest.approx(100.0)
        assert report.top_uncompiled_dirs == []

    def test_undefined_without_debug_artifacts(self, tmp_path):
        (tmp_path / "main.c").write_text("int main(void) { return 0; }\n")
        ws = workspace_at(tmp_path)
        report = function_coverage(ws, [])
        assert report.undefined is True
        assert report.coverage_pct == 0.0

    def test_undefined_without_source_files(self, tmp_path, monkeypatch):
        (tmp_path / "README.md").write_text("no code here\n")
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("app", "app", "executable", True)]
        monkeypatch.setattr(validation, "default_symbol_extractor", lambda p: ["main"])
        report = function_coverage(ws, arts)
        assert report.undefined is True

    def test_out_of_tree_source_is_not_read(self, tmp_path, monkeypatch):
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "secret.c").write_text("int secret_fn(void) { return 1; }\n")
        root = tmp_path / "repo"
        root.mkdir()
        (root / "main.c").write_text("int main(void) { return 0; }\n")
        (root / "leak.c").symlink_to(outside / "secret.c")
        ws = workspace_at(root)
        arts = [BinaryArtifact("app", "app", "executable", True)]
        monkeypatch.setattr(validation, "default_symbol_extractor", lambda p: ["main"])
        report = function_coverage(ws, arts)
        assert report.source_functions == {("main", "main.c")}
        assert report.coverage_pct == pytest.approx(100.0)

    def test_injected_extractor_controls_the_numerator(self, tmp_path, monkeypatch):
        (tmp_path / "a.c").write_text(
            "int f1(void){return 1;}\nint f2(void){return 2;}\n"
            "int f3(void){return 3;}\nint f4(void){return 4;}\n"
        )
        (tmp_path / "fake").write_bytes(b"\x00")
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("fake", "fake", "executable", True)]
        monkeypatch.setattr(
            validation, "default_symbol_extractor", lambda p: ["f1", "f2", "f4"]
        )
        report = function_coverage(ws, arts)
        assert report.coverage_pct == pytest.approx(75.0)

    def test_artifacts_without_debug_info_skipped(self, tmp_path, monkeypatch):
        (tmp_path / "a.c").write_text("int f1(void){return 1;}\n")
        ws = workspace_at(tmp_path)
        calls = []

        def spy(path):
            calls.append(path)
            return ["f1"]

        arts = [BinaryArtifact("app", "app", "executable", False)]
        monkeypatch.setattr(validation, "default_symbol_extractor", spy)
        report = function_coverage(ws, arts)
        assert calls == []
        assert report.undefined is True

    def test_extractor_failure_degrades_to_undefined(self, tmp_path, caplog, monkeypatch):
        (tmp_path / "a.c").write_text("int f1(void){return 1;}\n")
        (tmp_path / "app").write_bytes(b"\x00")
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("app", "app", "executable", True)]

        def broken(path):
            raise RepobuildError("boom")

        monkeypatch.setattr(validation, "default_symbol_extractor", broken)
        with caplog.at_level("WARNING"):
            report = function_coverage(ws, arts)
        assert report.undefined is True
        assert any("symbol extraction failed" in r.message for r in caplog.records)

    def test_git_directory_not_scanned(self, tmp_path, monkeypatch):
        (tmp_path / "a.c").write_text("int f1(void){return 1;}\n")
        hidden = tmp_path / ".git" / "junk"
        hidden.mkdir(parents=True)
        (hidden / "hook.c").write_text("int ghost(void){return 0;}\n")
        (tmp_path / "app").write_bytes(b"\x00")
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("app", "app", "executable", True)]
        monkeypatch.setattr(validation, "default_symbol_extractor", lambda p: ["f1"])
        report = function_coverage(ws, arts)
        assert report.coverage_pct == pytest.approx(100.0)

    def test_root_level_sources_grouped_under_dot(self, tmp_path, monkeypatch):
        (tmp_path / "a.c").write_text(
            "int hit(void){return 1;}\nint miss(void){return 2;}\n"
        )
        (tmp_path / "app").write_bytes(b"\x00")
        ws = workspace_at(tmp_path)
        arts = [BinaryArtifact("app", "app", "executable", True)]
        monkeypatch.setattr(validation, "default_symbol_extractor", lambda p: ["hit"])
        report = function_coverage(ws, arts)
        assert report.top_uncompiled_dirs == [(".", 1)]

