import json
import math
import re

import pytest

from repobuild.corpus import (
    _RECORD_FIELDS,
    CorpusManifest,
    RepoRecord,
    load_manifest,
    required_sample_size,
    sample_repos,
    save_manifest,
)
from repobuild.errors import UsageError

from conftest import FIXTURES

MANIFEST = FIXTURES / "corpus" / "manifest.jsonl"


def rec(i, **kw):
    base = dict(id=f"owner/repo{i}", clone_url=f"https://example.com/repo{i}.git")
    base.update(kw)
    return RepoRecord(**base)


class TestRecordValidation:
    def test_id_must_be_owner_slash_name(self):
        with pytest.raises(UsageError, match="id must be 'owner/name'"):
            RepoRecord(id="noslash", clone_url="x")
        with pytest.raises(UsageError, match="id must be 'owner/name'"):
            RepoRecord(id="a/b/c", clone_url="x")
        with pytest.raises(UsageError, match="id must be 'owner/name'"):
            RepoRecord(id="", clone_url="x")

    @pytest.mark.parametrize("repo_id", ["local/", "/name", "own/..", "../name", "own/.", "./name"])
    def test_id_parts_must_name_a_directory(self, repo_id):
        with pytest.raises(UsageError, match="id must be 'owner/name'"):
            RepoRecord(id=repo_id, clone_url="x")

    def test_manifest_with_a_dot_dot_name_fails_to_load(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "own/..", "clone_url": "u"}\n', "utf-8")
        with pytest.raises(UsageError, match="own/"):
            load_manifest(path)

    def test_expected_binaries_reject_separators(self):
        with pytest.raises(UsageError, match="contains a path separator"):
            rec(1, expected_binaries=("bin/app",))
        with pytest.raises(UsageError, match="contains a path separator"):
            rec(1, expected_binaries=("a\\b",))

    def test_expected_binaries_reject_duplicates(self):
        with pytest.raises(UsageError, match="duplicate expected binary 'app'"):
            rec(1, expected_binaries=("app", "app"))

    def test_negative_stars_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a/b", "clone_url": "u", "stargazers": -1}\n', "utf-8")
        with pytest.raises(UsageError, match=re.escape(
                f"{path}:1: stargazers must be an integer >= 0, got -1")):
            load_manifest(path)

    def test_name_property(self):
        assert rec(7).name == "repo7"

    def test_manifest_rejects_duplicate_ids(self):
        with pytest.raises(UsageError, match="duplicate record id 'owner/repo1'"):
            CorpusManifest(records=[rec(1), rec(1)])


class TestManifestIo:
    def test_load_fixture_manifest(self):
        manifest = load_manifest(MANIFEST)
        assert len(manifest.records) == 8
        ids = [r.id for r in manifest.records]
        assert ids[0] == "alice/fastgrep"
        by_id = {r.id: r for r in manifest.records}
        assert by_id["bob/netkit"].expected_binaries == ("netkit", "netkitd")
        assert by_id["erin/jsonlib"].is_fork is True
        assert by_id["grace/tinyhttpd"].instruction_url is not None

    def test_round_trip(self, tmp_path):
        manifest = load_manifest(MANIFEST)
        out = tmp_path / "copy.jsonl"
        save_manifest(manifest, out)
        again = load_manifest(out)
        assert [r.id for r in again.records] == [r.id for r in manifest.records]
        assert again.records[1].expected_binaries == manifest.records[1].expected_binaries

    def test_round_trip_keeps_every_field(self, tmp_path):
        manifest = load_manifest(MANIFEST)
        save_manifest(manifest, tmp_path / "copy.jsonl")
        assert load_manifest(tmp_path / "copy.jsonl").records == manifest.records

    def test_round_trip_keeps_surrogates_and_line_separators(self, tmp_path):
        # json.loads accepts the escape of a lone surrogate, which has no
        # UTF-8 encoding, and U+2028 and U+0085, which splitlines() breaks at
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({"id": "a/b", "clone_url": "u", "description": "x\u2028y\x85z",
                                    "expected_binaries": ["\ud800"], "languages": ["\udcff"]})
                        + "\n", "utf-8")
        manifest = load_manifest(path)
        save_manifest(manifest, tmp_path / "copy.jsonl")
        assert load_manifest(tmp_path / "copy.jsonl").records == manifest.records

    def test_checked_fields_are_the_record_fields(self):
        assert _RECORD_FIELDS.keys() == set(RepoRecord._fields)

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a/b", "clone_url": "u"}\n{not json}\n', "utf-8")
        with pytest.raises(UsageError, match="not a valid record object") as err:
            load_manifest(bad)
        assert "2" in str(err.value)

    def test_unknown_keys_warn_but_load(self, tmp_path, caplog):
        extra = tmp_path / "extra.jsonl"
        extra.write_text(
            '{"id": "a/b", "clone_url": "u", "curator_note": "check me"}\n', "utf-8"
        )
        with caplog.at_level("WARNING"):
            manifest = load_manifest(extra)
        assert len(manifest.records) == 1
        assert any("curator_note" in m for m in caplog.messages)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('\n{"id": "a/b", "clone_url": "u"}\n\n', "utf-8")
        assert len(load_manifest(p).records) == 1

    @pytest.mark.parametrize("field, value", [
        ("id", 5),
        ("clone_url", ["u"]),
        ("description", None),
        ("commit", 7),
        ("instruction_url", False),
        ("stargazers", "10"),
        ("stargazers", True),
        ("is_fork", "yes"),
        ("expected_binaries", "xyz"),
        ("expected_binaries", ["app", 1]),
        ("languages", "C"),
        ("languages", None),
    ])
    def test_mistyped_field_names_line_and_field(self, tmp_path, field, value):
        path = tmp_path / "m.jsonl"
        good = {"id": "a/b", "clone_url": "u"}
        path.write_text(
            json.dumps(good) + "\n" + json.dumps({**good, "id": "a/c", field: value}) + "\n",
            "utf-8",
        )
        with pytest.raises(UsageError, match="^" + re.escape(f"{path}:2: {field} must be ")):
            load_manifest(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(UsageError, match="manifest file not found"):
            load_manifest(tmp_path / "absent.jsonl")


class TestSampleSize:
    def test_documented_population(self):
        plan = required_sample_size(1.96, 0.05, 0.5, 6_568_809)
        assert plan.n0 == pytest.approx(384.16, abs=0.01)
        assert plan.required_n == 385

    def test_fpc_shrinks_small_population(self):
        plan = required_sample_size(1.96, 0.05, 0.5, 1000)
        n0 = (1.96 ** 2) * 0.25 / (0.05 ** 2)
        expected = n0 / (1 + (n0 - 1) / 1000)
        assert plan.n_fpc == pytest.approx(expected)
        assert plan.required_n == math.ceil(expected)

    def test_required_n_never_exceeds_population(self):
        plan = required_sample_size(1.96, 0.05, 0.5, 10)
        assert plan.required_n <= 10

    @pytest.mark.parametrize("z,e,p,n", [
        (0.0, 0.05, 0.5, 100),
        (1.96, 0.0, 0.5, 100),
        (1.96, 0.05, -0.1, 100),
        (1.96, 0.05, 1.1, 100),
        (1.96, 0.05, 0.5, 0),
    ])
    def test_domain_validation(self, z, e, p, n):
        with pytest.raises(UsageError, match=" must be "):
            required_sample_size(z, e, p, n)


class TestSampling:
    def test_deterministic_for_seed(self):
        manifest = load_manifest(MANIFEST)
        a = sample_repos(manifest, 3, seed=11)
        b = sample_repos(manifest, 3, seed=11)
        assert [r.id for r in a.records] == [r.id for r in b.records]

    def test_different_seeds_differ(self):
        manifest = load_manifest(MANIFEST)
        draws = {tuple(r.id for r in sample_repos(manifest, 3, seed=s).records)
                 for s in range(10)}
        assert len(draws) > 1

    def test_sample_is_subset_without_replacement(self):
        manifest = load_manifest(MANIFEST)
        picked = sample_repos(manifest, 5, seed=3)
        ids = [r.id for r in picked.records]
        assert len(set(ids)) == 5
        assert set(ids) <= {r.id for r in manifest.records}

    def test_oversized_request_raises(self):
        manifest = load_manifest(MANIFEST)
        with pytest.raises(UsageError, match="cannot sample"):
            sample_repos(manifest, len(manifest.records) + 1, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_or_negative_request_raises(self, n):
        with pytest.raises(UsageError, match="cannot sample"):
            sample_repos(load_manifest(MANIFEST), n, seed=0)
