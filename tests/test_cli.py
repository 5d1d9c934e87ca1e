from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aggrescribe
from aggrescribe import (
    Granularity,
    ManifestError,
    Strategy,
    assemble,
    cli,
    normalize_text,
    parse_manifest,
    rover,
    splits,
)
from aggrescribe.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from conftest import child_env

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
        # The parser checks the line's shape before any field's rule.
        assert "line_id 'A'" in err and "'transcriptions' must be a non-empty list" in err

    def test_io_failure_is_3(self, tmp_path, capsys):
        assert run("stats", tmp_path / "missing.jsonl") == EXIT_IO

    def test_sizes_sum_mismatch_is_usage_error(self, tmp_path, capsys):
        code = run("split", FIXTURE, "-o", tmp_path / "o.jsonl",
                   "--mode", "random", "--sizes", "1,1,1")
        assert code == EXIT_USAGE

    def test_sizes_with_agreement_mode_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        code = run("split", FIXTURE, "-o", out, "--mode", "agreement", "--sizes", "1,2,3")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--sizes" in err and "--mode random" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("split", ["--sizes", "1,2"],
             "argument --sizes: expected three comma-separated counts: TRAIN,VAL,TEST"),
            ("split", ["--sizes", "a,b,c"], "argument --sizes: sizes must be integers, got 'a,b,c'"),
            # With ``=``: argparse reads a bare ``-1,2,3`` as a flag.
            ("split", ["--sizes=-1,2,3"], "argument --sizes: sizes must be non-negative"),
            ("filter", ["--min-agreement", "abc"],
             "argument --min-agreement: threshold must be a number, got 'abc'"),
            ("filter", ["--min-agreement", "101"],
             "argument --min-agreement: threshold must be in [0, 100]"),
            ("filter", ["--min-agreement", "nan"],
             "argument --min-agreement: threshold must be in [0, 100]"),
        ],
    )
    def test_bad_sizes_and_threshold_are_usage_errors(
        self, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "o.jsonl"
        mode = ["--mode", "random"] if command == "split" else []
        with pytest.raises(SystemExit) as excinfo:
            run(command, FIXTURE, "-o", out, *mode, *flags)
        assert excinfo.value.code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == f"aggrescribe {command}: error: {message}"
        assert not out.exists()

    def test_seed_with_agreement_mode_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        code = run("split", FIXTURE, "-o", out, "--mode", "agreement", "--seed", "7")
        assert code == EXIT_USAGE
        assert "--seed applies only to --mode random" in capsys.readouterr().err
        assert not out.exists()

    def test_level_with_rasa_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        code = run("aggregate", FIXTURE, "-o", out, "--method", "rasa", "--level", "word")
        assert code == EXIT_USAGE
        assert "--level applies only to --method rover" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (("split", "--mode", "agreement"), "seed", None),
            (("split", "--mode", "random"), "seed", 0),
            (("aggregate", "--method", "rasa"), "level", None),
            (("aggregate", "--method", "rover"), "level", "char"),
        ],
        ids=["agreement", "random-default", "rasa", "rover-default"],
    )
    def test_summary_reports_the_flag_in_effect(self, argv, key, value, tmp_path, capsys):
        command, *flags = argv
        assert run("--json", command, FIXTURE, "-o", tmp_path / "o.jsonl", *flags) == EXIT_OK
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary[key] == value

    def test_bad_threads_env_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # Reported before the manifest is read, so a malformed one does not
        # turn the usage error into a manifest error.
        monkeypatch.setenv("AGGRESCRIBE_THREADS", "many")
        malformed = tmp_path / "bad.jsonl"
        malformed.write_text('{"line_id": "A"}\n', encoding="utf-8")
        out = tmp_path / "o.jsonl"
        for manifest in (FIXTURE, malformed):
            for command, *flags in (("agree",), ("aggregate", "--method", "rover")):
                code = run(command, manifest, "-o", out, *flags)
                assert code == EXIT_USAGE, (command, manifest)
                err = capsys.readouterr().err
                assert "AGGRESCRIBE_THREADS must be an integer" in err
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


# Every command, each on an output of the ones before it, in a directory of
# its own so that paths printed to stdout are the same in every run.
_CHAIN = [
    ["aggregate", "in.jsonl", "-o", "rover.jsonl", "--method", "rover"],
    ["aggregate", "rover.jsonl", "-o", "both.jsonl", "--method", "rasa"],
    ["agree", "both.jsonl", "-o", "agreed.jsonl"],
    ["split", "agreed.jsonl", "-o", "split.jsonl", "--mode", "agreement"],
    ["split", "agreed.jsonl", "-o", "random.jsonl", "--mode", "random", "--seed", "4"],
    ["filter", "split.jsonl", "-o", "kept.jsonl", "--min-agreement", "90"],
    ["emit", "split.jsonl", "--strategy", "all", "--seed", "7", "--out", "gt"],
    ["validate", "kept.jsonl"],
    ["stats", "kept.jsonl"],
]


def _run_chain(directory, capsys, monkeypatch, *flags):
    """stdout and stderr of each ``_CHAIN`` command, and every file the chain
    leaves in ``directory``."""
    directory.mkdir()
    shutil.copy(FIXTURE, directory / "in.jsonl")
    monkeypatch.chdir(directory)
    outs, errs = [], []
    for argv in _CHAIN:
        assert run(*flags, *argv) == EXIT_OK
        captured = capsys.readouterr()
        outs.append(captured.out)
        errs.append(captured.err)
    files = {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }
    return outs, errs, files


# Each command's ``--json`` summary keys, in order.
_SUMMARY_KEYS = {
    "validate": ["command", "manifest", "lines", "timings"],
    "stats": [
        "command", "lines", "two_human_lines", "two_human_share", "per_source",
        "transcriptions_per_line", "timings",
    ],
    "aggregate": [
        "command", "method", "level", "lines", "fallback_lines", "fallback_line_ids", "output",
        "timings",
    ],
    "agree": ["command", "lines", "mean_agreement", "lines_at_100", "output", "timings"],
    "split": ["command", "mode", "seed", "counts", "output", "timings"],
    "filter": [
        "command", "threshold", "train_before", "train_after", "train_retained_pct",
        "output", "timings",
    ],
    "emit": ["command", "out", "strategy", "seed", "counts", "timings"],
}

# The commands that write a manifest to ``-o``.
_WRITERS = ("aggregate", "agree", "split", "filter")


class TestJsonSummary:
    def test_outputs_identical_with_and_without_json(self, tmp_path, capsys, monkeypatch):
        plain_out, plain_err, plain_files = _run_chain(tmp_path / "plain", capsys, monkeypatch)
        json_out, json_err, json_files = _run_chain(
            tmp_path / "json", capsys, monkeypatch, "--json"
        )
        assert json_out == plain_out
        assert json_files == plain_files
        assert len(plain_files) == 11
        assert plain_err == [""] * len(_CHAIN)
        assert "timings" not in json.loads(plain_files["gt/summary.json"])
        for argv, err in zip(_CHAIN, json_err):
            summary = json.loads(err)
            assert summary["command"] == argv[0]
            assert list(summary) == _SUMMARY_KEYS[argv[0]]
            if argv[0] in _WRITERS:
                assert summary["output"] == argv[argv.index("-o") + 1]
            if argv[0] == "aggregate":  # no line of the fixture votes empty
                assert (summary["fallback_lines"], summary["fallback_line_ids"]) == (0, [])
            timings = summary["timings"]
            assert sorted(timings) == ["compute_s", "lines_per_s", "parse_s", "write_s"]
            assert min(timings.values()) >= 0
            assert timings["parse_s"] > 0 and timings["lines_per_s"] > 0
            if argv[0] not in ("validate", "stats"):
                assert timings["write_s"] > 0
            if argv[0] in ("split", "emit"):
                counts = summary["counts"]
                assert list(counts) == ["train", "val", "test"]
                if argv[0] == "split":  # every line of the input manifest
                    outputs = [argv[1]]
                else:  # every row of the three TSVs
                    outputs = [f"gt/{name}.tsv" for name in counts]
                    assert json.loads(plain_files["gt/summary.json"])["counts"] == counts
                rows = sum(plain_files[name].count(b"\n") for name in outputs)
                assert rows > 0 and sum(counts.values()) == rows

    def test_each_command_parses_and_writes_through_cli(self, tmp_path, capsys, monkeypatch):
        # The benchmark's tracer wraps these two module attributes, so every
        # command must reach them through ``cli`` at call time.
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("parse_manifest", "write_manifest"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        _run_chain(tmp_path / "chain", capsys, monkeypatch)
        expected = []
        for argv in _CHAIN:
            expected += ["parse_manifest", *(["write_manifest"] if argv[0] in _WRITERS else [])]
        assert calls == expected


class TestCollector:
    def test_paused_while_a_command_runs(self, monkeypatch, capsys):
        seen = []

        def spy(path):
            seen.append(gc.isenabled())
            return parse_manifest(path)

        monkeypatch.setattr(cli, "parse_manifest", spy)
        assert gc.isenabled()
        assert run("validate", FIXTURE) == EXIT_OK
        assert seen == [False]
        assert gc.isenabled()

    def test_earlier_state_restored_on_every_exit(self, tmp_path, monkeypatch, capsys):
        assert run("stats", tmp_path / "missing.jsonl") == EXIT_IO
        assert gc.isenabled()

        def broken(path):
            raise RuntimeError("a bug")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "parse_manifest", broken)
            with pytest.raises(RuntimeError):
                run("validate", FIXTURE)
        assert gc.isenabled()
        gc.disable()
        try:
            assert run("validate", FIXTURE) == EXIT_OK
            assert not gc.isenabled()
        finally:
            gc.enable()


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

    def test_random_split_with_sizes(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            argv = ("--json", "split", FIXTURE, "-o", out, "--mode", "random", "--sizes", "30,12,8")
            assert run(*argv, "--seed", "4") == EXIT_OK
            summary = json.loads(capsys.readouterr().err)
            assert (summary["counts"], summary["seed"]) == ({"train": 30, "val": 12, "test": 8}, 4)
        splits_written = [line.split.value for line in parse_manifest(a)]
        assert [splits_written.count(name) for name in ("train", "val", "test")] == [30, 12, 8]
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

    @pytest.mark.parametrize("strategy", ["random-one", "all-human-auto"])
    def test_emit_reports_its_strategy(self, strategy, scored, tmp_path, capsys):
        # stdout, the --json summary and summary.json each name the flag's value.
        gt = tmp_path / "gt"
        assert run("--json", "emit", scored, "--strategy", strategy, "--out", gt) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].split() == ["Strategy", strategy]
        assert json.loads(captured.err)["strategy"] == strategy
        assert json.loads((gt / "summary.json").read_text())["strategy"] == strategy

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

    @pytest.mark.parametrize(
        "threads, cpus, lines, workers",
        [
            (100_000, 2, 1000, 2),
            (100_000, 64, 5, 5),
            (3, 8, 10, 3),
            (4, None, 10, None),
            (4, 1, 10, None),
            (4, 8, 1, None),
            (1, 8, 10, None),
            # a set: the CPUs this process may run on, on a host of 8
            (2, {0}, 10, None),
            (4, {0, 5, 7}, 10, 3),
            (4, set(range(8)), 2, 2),
        ],
        ids=lambda value: repr(value) if isinstance(value, set) else None,
    )
    def test_workers_capped_by_cpus_and_lines(
        self, monkeypatch, threads, cpus, lines, workers
    ):
        """``cpus`` is an ``os.cpu_count()`` on a platform without
        ``os.sched_getaffinity``, or a set that ``sched_getaffinity`` returns."""
        created = []

        def recording_map(fn, items, count):
            """Records its worker count and maps in the calling process."""
            created.append(count)
            return [fn(x) for x in items]

        monkeypatch.setattr(cli, "_forked_map", recording_map)
        if isinstance(cpus, set):
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus, raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        items = list(range(lines))
        assert cli._map_lines(lambda x: x * x, items, threads) == [x * x for x in items]
        # workers None: the lines run in the calling process, with no fork
        assert created == ([] if workers is None else [workers])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _usable_cpus(monkeypatch, count):
    """Let ``_map_lines`` see ``count`` CPUs, so that workers fork even on a
    one-CPU host."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _frames_below(excinfo, name):
    names = [entry.name for entry in excinfo.traceback]
    return names[names.index(name) + 1 :]


def _raised(fn, items, threads):
    """The type, message and traceback frame names below ``_map_lines`` of
    what ``_map_lines`` raises."""
    with pytest.raises(Exception) as excinfo:
        cli._map_lines(fn, items, threads)
    return type(excinfo.value), str(excinfo.value), _frames_below(excinfo, "_map_lines")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedMap:
    @pytest.fixture(autouse=True)
    def _cpus(self, monkeypatch):
        _usable_cpus(monkeypatch, 8)

    def test_uneven_chunks_keep_order(self):
        # 7 lines on 3 workers: chunks of 2, 2 and 3, the last one this process's
        results = cli._map_lines(lambda x: (x * x, os.getpid()), range(7), 3)
        assert [square for square, _ in results] == [x * x for x in range(7)]
        pids = [pid for _, pid in results]
        assert pids[0] == pids[1] != pids[2] == pids[3] != pids[4]
        assert pids[4:] == [os.getpid()] * 3
        assert os.getpid() not in pids[:4]
        _no_child_left()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ({1}, ManifestError),
            ({3}, ManifestError),
            ({5}, ManifestError),
            ({1, 5}, ManifestError),
            ({3, 5}, ManifestError),
            ({4}, TypeError),
        ],
        ids=["{1}", "{3}", "{5}", "{1, 5}", "{3, 5}", "{4}-TypeError-in-a-helper"],
    )
    def test_first_exception_in_chunk_order_as_inline(self, bad, error):
        def helper(x):
            if error is TypeError:
                return len(x)  # a bug: x is an int
            raise ManifestError(f"manifest.jsonl:{x + 1}: bad line {x}")

        def check(x):
            return helper(x) if x in bad else x

        first = min(bad)
        message = {
            ManifestError: f"manifest.jsonl:{first + 1}: bad line {first}",
            TypeError: "object of type 'int' has no len()",
        }[error]
        inline = _raised(check, range(7), 1)
        assert inline[:2] == (error, message)
        assert inline[2][-2:] == ["check", "helper"]
        assert _raised(check, range(7), 3) == inline
        _no_child_left()

    def test_dead_worker_is_reported(self):
        def die_in_first_chunk(x):
            if x == 0:
                os._exit(7)
            return x

        with pytest.raises(ChildProcessError, match="exited with status 7"):
            cli._map_lines(die_in_first_chunk, range(4), 2)
        _no_child_left()

    def test_fork_failure_is_io_error(self, tmp_path, monkeypatch, capsys):
        fork, calls = os.fork, []

        def fork_once():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        def open_fds():
            # Empty where the platform lists no descriptors there.
            return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []

        monkeypatch.setattr(cli.os, "fork", fork_once)
        monkeypatch.setenv("AGGRESCRIBE_THREADS", "3")
        out = tmp_path / "agreed.jsonl"
        before = open_fds()
        assert run("agree", FIXTURE, "-o", out) == EXIT_IO
        assert capsys.readouterr().err == (
            f"aggrescribe: i/o error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
        )
        assert len(calls) == 2 and not out.exists()
        assert open_fds() == before  # both pipes' ends closed
        _no_child_left()

    def test_inline_without_fork(self, monkeypatch):
        monkeypatch.delattr(cli.os, "fork")
        assert cli._map_lines(lambda x: (x, os.getpid()), range(5), 4) == [
            (x, os.getpid()) for x in range(5)
        ]


#: Readings from a small alphabet with spaces, tabs, a composed letter and a
#: combining accent; each is non-blank once normalized, so every line is valid.
_chain_texts = st.text(
    alphabet=st.sampled_from(["a", "b", " ", "\t", "é", "\u0301"]), min_size=1, max_size=10
).filter(normalize_text)


@st.composite
def _valid_manifests(draw):
    """A manifest of 1-8 valid lines, each with 1-2 human and 0-3 automatic
    readings."""
    rows = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        entries = [{"text": t, "source": "human"}
                   for t in draw(st.lists(_chain_texts, min_size=1, max_size=2))]
        for text in draw(st.lists(_chain_texts, max_size=3)):
            entries.append({"text": text, "source": draw(st.sampled_from(["auto:pylaia", "auto:dan"]))})
        record = {"line_id": f"L{i}", "image": f"img/{i}.png", "transcriptions": entries}
        rows.append(json.dumps(record, ensure_ascii=False) + "\n")
    return "".join(rows)


def _whole_chain(level, threshold):
    return [
        ["validate", "in.jsonl"],
        ["aggregate", "in.jsonl", "-o", "rover.jsonl", "--method", "rover", "--level", level],
        ["aggregate", "rover.jsonl", "-o", "both.jsonl", "--method", "rasa"],
        ["agree", "both.jsonl", "-o", "agreed.jsonl"],
        ["split", "agreed.jsonl", "-o", "split.jsonl", "--mode", "agreement"],
        ["split", "agreed.jsonl", "-o", "random.jsonl", "--mode", "random"],
        ["filter", "split.jsonl", "-o", "kept.jsonl", "--min-agreement", threshold],
        *(["emit", "kept.jsonl", "--strategy", s.value, "--out", f"gt-{s.value}"]
          for s in Strategy),
    ]


class TestEveryValidManifest:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        manifest=_valid_manifests(),
        level=st.sampled_from(["char", "word"]),
        threshold=st.floats(min_value=0, max_value=100),
    )
    def test_runs_the_whole_chain_alike_at_one_and_two_workers(
        self, manifest, level, threshold, tmp_path_factory
    ):
        base = tmp_path_factory.mktemp("chain")
        runs = []
        for threads in ("1", "2"):
            directory = base / threads
            directory.mkdir()
            (directory / "in.jsonl").write_text(manifest, encoding="utf-8")
            outs = []
            with pytest.MonkeyPatch.context() as mp:
                _usable_cpus(mp, 2)
                mp.setenv("AGGRESCRIBE_THREADS", threads)
                mp.chdir(directory)
                for argv in _whole_chain(level, repr(threshold)):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = run("--json", *argv)
                    assert code == EXIT_OK, (argv, err.getvalue())
                    assert json.loads(err.getvalue().splitlines()[-1])["command"] == argv[0]
                    outs.append(out.getvalue())
            files = {
                str(path.relative_to(directory)): path.read_bytes()
                for path in sorted(directory.rglob("*"))
                if path.is_file()
            }
            runs.append((outs, files))
        assert runs[0] == runs[1]
        _no_child_left()


_STARTS = pytest.mark.parametrize(
    "code",
    [
        "import aggrescribe.cli",
        # what ``python -m aggrescribe --version`` runs
        "import runpy\n"
        "sys.argv = ['aggrescribe', '--version']\n"
        "try:\n"
        "    runpy.run_module('aggrescribe', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code",
    ],
    ids=["import-cli", "version"],
)


class TestImports:
    @_STARTS
    def test_numpy_not_imported(self, tmp_path, code):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)"],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @_STARTS
    def test_start_up_loads_no_heavy_module(self, tmp_path, code):
        # Each of these costs a start several milliseconds; only modules the
        # start itself loads count. The child runs with -S: ``site`` may import
        # some of them itself (``tempfile``, in some installations), which would
        # hide a start that loads them.
        heavy = [
            "dataclasses", "inspect", "concurrent.futures", "multiprocessing", "pickle",
            "tempfile",
        ]
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                f"import sys\nbefore = set(sys.modules)\n{code}\n"
                f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))",
            ],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_package_import_loads_no_module(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys, aggrescribe\n"
                "print(sorted(m for m in sys.modules if m.startswith('aggrescribe.')))",
            ],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_enum_import_loads_only_corpus(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys\n"
                "from aggrescribe import Strategy, Granularity\n"
                "print(sorted(m for m in sys.modules if m.startswith('aggrescribe.')))",
            ],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "['aggrescribe.corpus']"

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (["--version"], []),
            (["validate", "in.jsonl"], []),
            (["stats", "in.jsonl"], []),
            (["aggregate", "in.jsonl", "-o", "out.jsonl", "--method", "rover"], ["rover"]),
            (["aggregate", "in.jsonl", "-o", "out.jsonl", "--method", "rasa"],
             ["metrics", "rasa"]),
            (["agree", "in.jsonl", "-o", "out.jsonl"], ["metrics", "quality", "rover"]),
            (["split", "in.jsonl", "-o", "out.jsonl", "--mode", "agreement"],
             ["metrics", "splits"]),
            (["split", "in.jsonl", "-o", "out.jsonl", "--mode", "random"],
             ["metrics", "splits"]),
            (["filter", "in.jsonl", "-o", "out.jsonl", "--min-agreement", "90"],
             ["metrics", "splits"]),
            (["emit", "in.jsonl", "--strategy", "all-human", "--out", "gt"],
             ["assemble", "metrics", "splits"]),
        ],
        ids=["version", "validate", "stats", "aggregate-rover", "aggregate-rasa", "agree",
             "split-agreement", "split-random", "filter", "emit"],
    )
    def test_stage_loads_only_its_modules(self, tmp_path, scored, argv, modules):
        # What ``python -m aggrescribe`` runs, under -S so that nothing but
        # the stage loads a module; every stage also loads ``cli`` and ``corpus``.
        shutil.copyfile(scored, tmp_path / "in.jsonl")
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import runpy, sys\n"
                "sys.argv = ['aggrescribe', *sys.argv[1:]]\n"
                "try:\n"
                "    runpy.run_module('aggrescribe', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(sorted(m for m in sys.modules if m.startswith('aggrescribe.')))",
                *argv,
            ],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        expected = sorted(f"aggrescribe.{m}" for m in ["cli", "corpus", *modules])
        assert proc.stdout.splitlines()[-1] == repr(expected)

    def test_lazy_package_names(self):
        for name in aggrescribe.__all__:
            value = getattr(aggrescribe, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert set(aggrescribe.__all__) <= set(dir(aggrescribe))
        # ``corpus`` defines the enums, and the modules that use them still name them.
        assert rover.Granularity is aggrescribe.Granularity
        assert assemble.Strategy is aggrescribe.Strategy
        with pytest.raises(AttributeError, match="no_such_name"):
            aggrescribe.no_such_name

    def test_lazy_cli_names(self):
        assert cli.emit is assemble.emit and cli.filter_by_agreement is splits.filter_by_agreement
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """The fixture with agreement scores and the agreement split: an input
    every command accepts."""
    directory = tmp_path_factory.mktemp("scored")
    agreed, split = directory / "agreed.jsonl", directory / "split.jsonl"
    assert run("agree", FIXTURE, "-o", agreed) == EXIT_OK
    assert run("split", agreed, "-o", split, "--mode", "agreement") == EXIT_OK
    return split


#: The two ways a process enters the CLI: ``python -m aggrescribe`` and the
#: ``aggrescribe`` console script, which calls ``cli.run``.
_ENTRIES = pytest.mark.parametrize(
    "entry",
    [["-m", "aggrescribe"], ["-c", "from aggrescribe.cli import run; run()"]],
    ids=["python-m", "cli-run"],
)


def _piped_env() -> dict[str, str]:
    # Block-buffered standard streams, as a pipe gives them by default, so
    # that an exit which skipped the flush would lose what they hold.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _choices(flag: str, enum) -> str:
    """A pattern for ``flag`` and its choices as help prints them: the values
    of ``enum``'s members, in member order."""
    return "usage: (?s:.*)" + re.escape(f"{flag} {{{','.join(m.value for m in enum)}}}")


_HUMAN = {"text": "a", "source": "human"}

#: Manifests of one line that fails validation, by file name, with the
#: context and reason stderr gives. Three lines hold two faults each, where
#: the order of the checks decides which one is reported.
_INVALID = {
    "three.jsonl": (
        {"line_id": "L1", "image": "l1.png", "transcriptions": [_HUMAN] * 3},
        "(line_id 'L1'): expected 1 or 2 human transcriptions, found 3",
    ),
    "twofault.jsonl": (
        {"line_id": "L1", "image": "a\ud800.png", "transcriptions": [_HUMAN] * 3},
        "(line_id 'L1'): 'image' contains an unpaired surrogate",
    ),
    "idorder.jsonl": (
        {"line_id": "\ud800", "image": "l1.png", "transcriptions": [_HUMAN] * 3},
        "(line_id '\\ud800'): 'line_id' contains an unpaired surrogate",
    ),
    "surrogate.jsonl": (
        {"line_id": "L1", "image": "l1.png", "transcriptions": [{**_HUMAN, "text": "a\ud800b"}]},
        "(line_id 'L1'): 'text' contains an unpaired surrogate",
    ),
    "pageid.jsonl": (
        {"line_id": "L1", "image": "l1.png", "page_id": 5, "transcriptions": [_HUMAN]},
        "(line_id 'L1'): 'page_id' must be a string",
    ),
    "order.jsonl": (
        {"line_id": "L1", "transcriptions": [{"text": "a", "source": "auto:tesseract"}]},
        "(line_id 'L1'): unknown source tag 'auto:tesseract'",
    ),
}


class TestProcessEntry:
    @_ENTRIES
    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["validate", FIXTURE], EXIT_OK, f"ok: 50 lines ({FIXTURE})\n", ""),
            (["--version"], EXIT_OK, "aggrescribe 0.1.0\n", ""),
            (["--help"], EXIT_OK, "usage: aggrescribe ", ""),
            (["frobnicate"], EXIT_USAGE, "", "invalid choice: 'frobnicate'"),
            (["validate", "bad.jsonl"], EXIT_VALIDATION, "", "manifest error: bad.jsonl:1"),
            (["stats", "missing.jsonl"], EXIT_IO, "", "i/o error:"),
            (["emit", "--help"], EXIT_OK, _choices("--strategy", Strategy), ""),
            (["aggregate", "--help"], EXIT_OK, _choices("--level", Granularity), ""),
            (
                ["aggregate", FIXTURE, "-o", "o.jsonl", "--method", "rover", "--level", "bogus"],
                EXIT_USAGE,
                "",
                "argument --level: invalid choice: 'bogus'",
            ),
            *(
                (["validate", name], EXIT_VALIDATION, "", f"manifest error: {name}:1 {reason}\n")
                for name, (_, reason) in _INVALID.items()
            ),
        ],
        ids=[
            "ok", "version", "help", "usage", "validation", "io", "strategy-choices",
            "level-choices", "level-usage", *(name.removesuffix(".jsonl") for name in _INVALID),
        ],
    )
    def test_exit_codes(self, tmp_path, entry, argv, code, out, err):
        # ``out`` is the whole stdout when empty or ending in a newline, and
        # otherwise a pattern its start must match. The manifests are written
        # with ASCII escapes, so a lone surrogate is a \ud800-style escape.
        (tmp_path / "bad.jsonl").write_text('{"line_id": "A"}\n', encoding="utf-8")
        for name, (record, _) in _INVALID.items():
            (tmp_path / name).write_text(json.dumps(record) + "\n", encoding="ascii")
        proc = subprocess.run(
            [sys.executable, *entry, *map(str, argv)],
            cwd=tmp_path,
            env=_piped_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        if not out or out.endswith("\n"):
            assert proc.stdout == out
        else:
            assert re.match(out, proc.stdout) and proc.stdout.endswith("\n")
        assert err in proc.stderr and proc.stderr.endswith("\n" if err else "")

    @_ENTRIES
    def test_streams_arrive_complete_through_a_pipe(self, tmp_path, capsys, entry):
        argv = ["--json", "stats", str(FIXTURE)]
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, *entry, *argv],
            cwd=tmp_path,
            env=_piped_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected.out
        summary, wanted = json.loads(proc.stderr), json.loads(expected.err)
        del summary["timings"], wanted["timings"]
        assert summary == wanted

    @pytest.mark.parametrize(
        "entry",
        [
            "import runpy\nrunpy.run_module('aggrescribe', run_name='__main__', alter_sys=True)",
            "from aggrescribe.cli import run\nrun()",
        ],
        ids=["python-m", "cli-run"],
    )
    def test_atexit_handler_runs(self, tmp_path, entry):
        code = (
            "import atexit, sys\n"
            "atexit.register(print, 'atexit handler ran')\n"
            f"sys.argv[1:] = ['validate', {str(FIXTURE)!r}]\n" + entry
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=_piped_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines() == [f"ok: 50 lines ({FIXTURE})", "atexit handler ran"]

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["--version"], EXIT_OK, ["aggrescribe 0.1.0"]),
            (["frobnicate"], EXIT_USAGE, []),
            (["validate", str(FIXTURE)], EXIT_OK, [f"ok: 50 lines ({FIXTURE})"]),
        ],
        ids=["version", "usage", "command"],
    )
    def test_every_exit_freezes_the_heap_once(self, tmp_path, argv, code, out):
        # argparse leaves through ``SystemExit`` before any command runs; the
        # heap is frozen on that way out too, and atexit handlers still run.
        code_text = (
            "import atexit, gc, sys\n"
            "freezes = []\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: (freezes.append(None), freeze())[1]\n"
            "atexit.register(lambda: print('freezes:', len(freezes)))\n"
            f"sys.argv[1:] = {argv!r}\n"
            "from aggrescribe.cli import run\n"
            "run()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code_text],
            cwd=tmp_path,
            env=_piped_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines() == [*out, "freezes: 1"]


class TestFileModes:
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
    )
    def test_outputs_follow_the_umask(self, tmp_path, umask, mode):
        # The kernel applies the process umask as each output is created; the
        # stages run as child processes, which inherit it.
        previous = os.umask(umask)
        try:
            for argv in (
                ["split", FIXTURE, "-o", tmp_path / "split.jsonl", "--mode", "agreement"],
                ["emit", tmp_path / "split.jsonl", "--strategy", "all-human",
                 "--out", tmp_path / "gt"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "aggrescribe", *map(str, argv)],
                    cwd=tmp_path,
                    env=child_env(),
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
                assert proc.returncode == 0, proc.stderr
        finally:
            os.umask(previous)
        outputs = [tmp_path / "split.jsonl", *sorted((tmp_path / "gt").iterdir())]
        assert [p.name for p in outputs] == [
            "split.jsonl", "summary.json", "test.tsv", "train.tsv", "val.tsv"
        ]
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in outputs} == {
            p.name: mode for p in outputs
        }


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

    def test_negative_zero_threshold_is_zero(self, scored, tmp_path, capsys):
        kept = []
        for threshold in ("-0", "0"):
            out = tmp_path / f"kept{threshold}.jsonl"
            argv = ["--json", "filter", scored, "-o", out, "--min-agreement", threshold]
            assert run(*argv) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.out.splitlines()[0].split() == ["Threshold", "0%"]
            assert '"threshold": 0.0,' in captured.err.splitlines()[-1]
            kept.append(out.read_bytes())
        assert kept[0] == kept[1]

    def test_invalid_utf8_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(manifest_line()).encode("utf-8")
        bad.write_bytes(good + b"\n" + good.replace(b"bonjour", b"bon\xffjour") + b"\n")
        assert run("validate", bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err and "UTF-8" in err

    def test_upper_case_lone_surrogate_escape_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(manifest_line())
        bad.write_text(
            good + "\n" + good.replace('"A"', '"B"').replace("bonjour", "bon\\uDC00jour") + "\n",
            encoding="ascii",
        )
        assert run("validate", bad) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "aggrescribe: manifest error: bad.jsonl:2 (line_id 'B'): "
            "'text' contains an unpaired surrogate\n"
        )

    def test_tab_in_image_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(manifest_line(image="img\ta.png")) + "\n", encoding="utf-8")
        gt = tmp_path / "gt"
        assert run("emit", bad, "--strategy", "all-human", "--out", gt) == EXIT_VALIDATION
        assert "tab or newline" in capsys.readouterr().err
        assert not (gt / "train.tsv").exists()

    def test_carriage_return_in_image_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(manifest_line()) + "\n"
            + json.dumps(manifest_line(line_id="B", image="img\r1.png")) + "\n",
            encoding="utf-8",
        )
        gt = tmp_path / "gt"
        assert run("emit", bad, "--strategy", "all-human", "--out", gt) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "tab or newline" in err and "'img\\r1.png'" in err
        assert not (gt / "train.tsv").exists()

    @pytest.mark.parametrize("image", ["img\r1.png", "img\t1.png"], ids=["cr", "tab"])
    def test_row_break_in_image_fails_validate(self, tmp_path, capsys, image):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(manifest_line()) + "\n"
            + json.dumps(manifest_line(line_id="B", image=image)) + "\n",
            encoding="utf-8",
        )
        assert run("validate", bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad.jsonl:2 (line_id 'B')" in err and repr(image) in err

    @pytest.mark.parametrize("space", ["\x0c", "\u3000", "\x85"], ids=repr)
    def test_line_of_non_json_whitespace_fails_validate(self, tmp_path, capsys, space):
        bad = tmp_path / "bad.jsonl"
        good = json.dumps(manifest_line())
        bad.write_text(good + "\n" + space + "\n" + good.replace('"A"', '"B"') + "\n",
                       encoding="utf-8")
        assert run("validate", bad) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "aggrescribe: manifest error: bad.jsonl:2: malformed JSON (Expecting value)\n"
        )

    def test_list_as_source_tag_is_validation_error(self, tmp_path, capsys):
        rec = manifest_line(line_id="B")
        rec["transcriptions"][0]["source"] = ["human"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            json.dumps(manifest_line()) + "\n" + json.dumps(rec) + "\n", encoding="utf-8"
        )
        assert run("validate", bad) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "aggrescribe: manifest error: bad.jsonl:2 (line_id 'B'): " \
            "unknown source tag ['human']\n"

    @pytest.mark.parametrize(
        "name, argv, threads",
        [
            ("agreement_score", ["agree", FIXTURE, "-o", "out.jsonl"], "1"),
            ("agreement_score", ["agree", FIXTURE, "-o", "out.jsonl"], "2"),
            ("filter_by_agreement",
             ["filter", FIXTURE, "-o", "out.jsonl", "--min-agreement", "50"], "1"),
            ("emit", ["emit", FIXTURE, "--strategy", "all-human", "--out", "gt"], "1"),
        ],
        ids=["agree", "agree-on-2-workers", "filter", "emit"],
    )
    def test_programming_error_is_not_a_manifest_error(
        self, tmp_path, monkeypatch, name, argv, threads
    ):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, name, broken)
        monkeypatch.chdir(tmp_path)
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setenv("AGGRESCRIBE_THREADS", threads)
        with pytest.raises(ValueError, match="a bug") as excinfo:
            run(*argv)
        assert not isinstance(excinfo.value, ManifestError)
        # the bug's own frame, whatever the worker count
        assert _frames_below(excinfo, "main")[-1] == "broken"
        assert list(tmp_path.iterdir()) == []
        if hasattr(os, "fork"):
            _no_child_left()

    @pytest.mark.parametrize(
        "order",
        [["bad"], ["good", "bad"], ["bad", "good"]],
        ids=["alone", "second-of-two-on-2-workers", "first-of-two-on-2-workers"],
    )
    def test_empty_consensus_is_validation_error(self, tmp_path, capsys, monkeypatch, order):
        # Named for the exit 2 this line gave before the fallback. Two human
        # and three automatic readings: a valid line whose word-level
        # consensus votes every slot empty, so its aggregate is its first
        # reading, flagged uncertain, at any worker count.
        readings = [("a ab b", "human"), ("ab", "human"), ("a", "auto:pylaia"),
                    ("bbab", "auto:dan"), ("bbb", "auto:pylaia")]
        records = {
            "good": manifest_line(line_id="L0"),
            "bad": manifest_line(
                line_id="L1",
                transcriptions=[{"text": text, "source": source} for text, source in readings],
            ),
        }
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(records[k]) + "\n" for k in order), encoding="utf-8")
        _usable_cpus(monkeypatch, 2)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("AGGRESCRIBE_THREADS", threads)
            out = tmp_path / f"out.{threads}.jsonl"
            argv = ("aggregate", path, "-o", out, "--method", "rover", "--level", "word")
            assert run("--json", *argv) == EXIT_OK
            summary = json.loads(capsys.readouterr().err)
            assert (summary["fallback_lines"], summary["fallback_line_ids"]) == (1, ["L1"])
            outputs.append(out.read_bytes())
            if hasattr(os, "fork"):
                _no_child_left()
        assert outputs[1] == outputs[0]
        aggregates = {
            rec["line_id"]: rec["transcriptions"][-1]
            for rec in map(json.loads, outputs[0].splitlines())
        }
        flagged = {"text": "a ab b", "source": "aggregate:rover", "uncertain": True}
        assert aggregates["L1"] == flagged
        if "good" in order:
            assert aggregates["L0"] == {"text": "bonjour", "source": "aggregate:rover"}
