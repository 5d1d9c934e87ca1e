"""Tests of the benchmark's own parts: generator, tracing, metric names and
the environment its stage processes get."""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for _path in (BENCH, BENCH.parent / "tests", BENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from aggrescribe import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _corpus_bytes(tmp_path: Path, workload: str, seed: int) -> bytes:
    path = tmp_path / f"{workload}-{seed}.jsonl"
    workloads.write(workloads.generate(workload, seed, 40), path)
    return path.read_bytes()


@pytest.mark.parametrize("workload", sorted(workloads.SHAPES))
def test_generator_bytes_follow_the_seed(tmp_path, workload):
    first = _corpus_bytes(tmp_path, workload, 3)
    assert _corpus_bytes(tmp_path, workload, 3) == first
    assert _corpus_bytes(tmp_path, workload, 4) != first


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}
    names = [*declared["end_to_end"], *declared["per_layer"], *run.END_TO_END_UNITS]
    assert all(NAME.match(name) for name in names)
    assert set(declared["end_to_end"]) <= set(run.END_TO_END_UNITS)
    assert set(declared["per_layer"]) == set(run.PER_LAYER_UNITS)
    derived = set(spans.layer_metrics([])) | {"cli.import_s", "trace.overhead_s"}
    assert derived == set(run.PER_LAYER_UNITS)


def test_stage_processes_get_an_absolute_src(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "src")
    env = run.stage_env(2)
    first = env["PYTHONPATH"].split(os.pathsep)[0]
    assert os.path.isabs(first)
    assert Path(first, "aggrescribe", "__init__.py").is_file()
    assert env["AGGRESCRIBE_THREADS"] == "2"


def _patched() -> dict:
    attrs = {(module, attr): getattr(module, attr) for module, attr, *_ in spans.BOUNDARIES}
    attrs[(cli, "_map_lines")] = cli._map_lines
    return attrs


def test_tracing_restores_attributes_and_keeps_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("AGGRESCRIBE_THREADS", "2")
    workload = run.Workload(
        lines=12, threads=2, steps=run.WORKLOADS["belfort-char"].steps, oracle_sample=2
    )
    workloads.write(workloads.generate("belfort-char", 5, workload.lines), tmp_path / run.CORPUS)
    before = _patched()

    plain = run.chain_inprocess(workload, tmp_path)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert all(_patched()[key] is not fn for key, fn in before.items())
        traced = run.chain_inprocess(workload, tmp_path, tracer)

    assert _patched() == before
    assert not plain.failures and not traced.failures
    assert traced.digests == plain.digests
    layers = spans.layer_metrics(tracer.spans)
    assert layers["metrics.sym_char_distance.calls"] > 0
    assert layers["rover.tokens_in"] > 0
    assert layers["cli.map_lines.cores_used"] > 0
    assert {s.stage for s in tracer.spans} == {stage for stage, _ in workload.steps}

    with pytest.raises(RuntimeError), spans.traced(spans.Tracer()):
        raise RuntimeError("boom")
    assert _patched() == before


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span(id=1, name="p", parent=None, stage=None, line_id=None, start=0.0, end=10.0)
    kids = [
        spans.Span(id=2, name="c", parent=1, stage=None, line_id=None, start=1.0, end=4.0),
        spans.Span(id=3, name="c", parent=1, stage=None, line_id=None, start=3.0, end=6.0),
    ]
    assert spans.self_time(parent, kids) == pytest.approx(5.0)


def test_refuses_a_directory_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "belfort-char", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
