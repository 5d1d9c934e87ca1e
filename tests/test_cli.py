from __future__ import annotations

import json
from pathlib import Path

import pytest

from aggrescribe import parse_manifest
from aggrescribe.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main

FIXTURE = Path(__file__).parent / "fixtures" / "synthetic_50.jsonl"


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("frobnicate")
        assert excinfo.value.code == EXIT_USAGE

    def test_missing_required_flag_is_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("split", FIXTURE, "-o", tmp_path / "out.jsonl")
        assert excinfo.value.code == EXIT_USAGE

    def test_validation_failure_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"line_id": "A"}\n', encoding="utf-8")
        assert run("validate", bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line_id 'A'" in err and "image" in err

    def test_io_failure_is_3(self, tmp_path, capsys):
        assert run("stats", tmp_path / "missing.jsonl") == EXIT_IO

    def test_sizes_sum_mismatch_is_usage_error(self, tmp_path, capsys):
        code = run("split", FIXTURE, "-o", tmp_path / "o.jsonl",
                   "--mode", "random", "--sizes", "1,1,1")
        assert code == EXIT_USAGE

    def test_bad_threads_env_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AGGRESCRIBE_THREADS", "many")
        out = tmp_path / "o.jsonl"
        code = run("agree", FIXTURE, "-o", out)
        assert code == EXIT_USAGE
        assert not out.exists()


class TestValidateAndStats:
    def test_validate_ok(self, capsys):
        assert run("validate", FIXTURE) == EXIT_OK
        assert "50 lines" in capsys.readouterr().out

    def test_stats_table(self, capsys):
        assert run("stats", FIXTURE) == EXIT_OK
        out = capsys.readouterr().out
        assert "50" in out
        assert "60.0%" in out

    def test_json_summary_on_stderr(self, capsys):
        assert run("--json", "stats", FIXTURE) == EXIT_OK
        captured = capsys.readouterr()
        summary = json.loads(captured.err)
        assert summary["lines"] == 50
        assert summary["two_human_share"] == 60.0


class TestPipeline:
    def test_full_pipeline_composes(self, tmp_path, capsys):
        rover = tmp_path / "rover.jsonl"
        both = tmp_path / "both.jsonl"
        agreed = tmp_path / "agreed.jsonl"
        split = tmp_path / "split.jsonl"
        filtered = tmp_path / "filtered.jsonl"
        gt = tmp_path / "gt"

        assert run("aggregate", FIXTURE, "-o", rover, "--method", "rover") == EXIT_OK
        assert run("aggregate", rover, "-o", both, "--method", "rasa") == EXIT_OK
        assert run("agree", both, "-o", agreed) == EXIT_OK
        assert run("split", agreed, "-o", split, "--mode", "agreement") == EXIT_OK
        assert run("filter", split, "-o", filtered, "--min-agreement", "90") == EXIT_OK
        assert run("emit", split, "--strategy", "all", "--seed", "3", "--out", gt) == EXIT_OK

        corpus = parse_manifest(split)
        assert all(line.split is not None for line in corpus)
        assert all(line.agreement is not None for line in corpus)
        summary = json.loads((gt / "summary.json").read_text())
        assert summary["strategy"] == "all"
        assert summary["counts"]["test"] == 10
        # every output manifest re-parses: pipelines compose
        for path in (rover, both, agreed, split, filtered):
            parse_manifest(path)

    def test_aggregate_rerun_is_idempotent(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert run("aggregate", FIXTURE, "-o", first, "--method", "rover") == EXIT_OK
        assert run("aggregate", first, "-o", second, "--method", "rover") == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert run("split", FIXTURE, "-o", a, "--mode", "random", "--seed", "9") == EXIT_OK
        assert run("split", FIXTURE, "-o", b, "--mode", "random", "--seed", "9") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_random_split_default_sizes_match_agreement(self, tmp_path, capsys):
        agreement = tmp_path / "agreement.jsonl"
        random = tmp_path / "random.jsonl"
        assert run("split", FIXTURE, "-o", agreement, "--mode", "agreement") == EXIT_OK
        assert run("split", FIXTURE, "-o", random, "--mode", "random", "--seed", "1") == EXIT_OK
        by_split = lambda p: sorted(  # noqa: E731
            (line.split.value for line in parse_manifest(p))
        )
        assert by_split(agreement) == by_split(random)

    def test_emit_without_split_annotation_is_validation_error(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        code = run("emit", FIXTURE, "--strategy", "all-human", "--out", gt)
        assert code == EXIT_VALIDATION

    def test_filter_without_agreement_is_validation_error(self, tmp_path, capsys):
        split = tmp_path / "split.jsonl"
        out = tmp_path / "f.jsonl"
        assert run("split", FIXTURE, "-o", split, "--mode", "agreement") == EXIT_OK
        assert run("filter", split, "-o", out, "--min-agreement", "50") == EXIT_VALIDATION
        assert not out.exists()

    def test_failed_command_leaves_no_output(self, tmp_path):
        out = tmp_path / "out.jsonl"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert run("agree", bad, "-o", out) == EXIT_VALIDATION
        assert not out.exists()


class TestThreads:
    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        single = tmp_path / "single.jsonl"
        multi = tmp_path / "multi.jsonl"
        monkeypatch.setenv("AGGRESCRIBE_THREADS", "1")
        assert run("agree", FIXTURE, "-o", single) == EXIT_OK
        monkeypatch.setenv("AGGRESCRIBE_THREADS", "4")
        assert run("agree", FIXTURE, "-o", multi) == EXIT_OK
        assert single.read_bytes() == multi.read_bytes()


def manifest_line(**fields) -> dict:
    return {
        "line_id": "A",
        "image": "img/a.png",
        "split": "train",
        "transcriptions": [{"text": "bonjour", "source": "human"}],
        **fields,
    }


class TestManifestBoundary:
    @pytest.mark.parametrize(
        "token",
        ["NaN", "Infinity", "-Infinity", "1e999", "-0.5", "100.5", "9" * 400],
        ids=["nan", "infinity", "minus-infinity", "overflowing-float", "below-0",
             "above-100", "400-digit-int"],
    )
    def test_bad_agreement_is_validation_error(self, tmp_path, capsys, token):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(manifest_line(agreement=50))
        bad.write_text(good + "\n" + good.replace('"A"', '"B"').replace("50", token) + "\n",
                       encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run("filter", bad, "-o", out, "--min-agreement", "0") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err and "'agreement'" in err
        assert not out.exists()

    def test_agreement_bounds_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(
            json.dumps(manifest_line(agreement=0)) + "\n"
            + json.dumps(manifest_line(line_id="B", agreement=100)) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.jsonl"
        assert run("filter", path, "-o", out, "--min-agreement", "0") == EXIT_OK
        assert [line.agreement for line in parse_manifest(out)] == [0.0, 100.0]

    def test_invalid_utf8_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(manifest_line()).encode("utf-8")
        bad.write_bytes(good + b"\n" + good.replace(b"bonjour", b"bon\xffjour") + b"\n")
        assert run("validate", bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err and "UTF-8" in err

    def test_tab_in_image_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(manifest_line(image="img\ta.png")) + "\n", encoding="utf-8")
        gt = tmp_path / "gt"
        assert run("emit", bad, "--strategy", "all-human", "--out", gt) == EXIT_VALIDATION
        assert "tab or newline" in capsys.readouterr().err
        assert not (gt / "train.tsv").exists()

    def test_programming_error_is_not_a_manifest_error(self, tmp_path, monkeypatch):
        def broken(line):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr("aggrescribe.cli.agreement_score", broken)
        with pytest.raises(ValueError, match="a bug"):
            run("agree", FIXTURE, "-o", tmp_path / "out.jsonl")
