"""In-memory spans around the library's module boundaries.

``traced(tracer)`` swaps each boundary function for a wrapper on the module
attribute its callers look up at call time (``cli.parse_manifest``,
``rover.build_lattice``, ``rasa.sym_char_distance``, ...), and restores every
original on exit. Wrappers are safe under the CLI's thread pool: each thread
keeps its own span stack, and spans opened by a pool thread hang under the
per-line map that started them.

``layer_metrics`` derives the per-layer numbers from one traced pass.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

from aggrescribe import assemble, cli, corpus, quality, rasa, rover, splits

STAGES = ("aggregate", "agree", "split", "filter", "emit")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    stage: str | None
    line_id: str | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "stage": self.stage,
            "line_id": self.line_id,
            "start": self.start,
            "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Collects spans from any thread; nothing is written until the caller
    asks for the records."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stage: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # Parent for spans opened on a thread with an empty stack, i.e. the
        # per-line work the CLI hands to its pool.
        self._fallback: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else self._fallback

    def open(self, name: str, line_id: str | None = None) -> Span:
        parent = self.current()
        if line_id is None and parent is not None:
            line_id = parent.line_id
        with self._lock:
            span = Span(
                id=next(self._ids),
                name=name,
                parent=parent.id if parent else None,
                stage=self.stage,
                line_id=line_id,
                start=time.perf_counter(),
            )
            self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def fan_out(self, span: Span):
        """Make ``span`` the parent of spans that pool threads open."""
        self._fallback = span
        try:
            yield
        finally:
            self._fallback = None


def _wrap(tracer: Tracer, fn: Callable, name: str, observe=None, per_line=False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, args[0].line_id if per_line else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(span, tracer.current(), args, result)
        return result

    return wrapper


def _map_lines(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(per_line, lines, threads):
        span = tracer.open("cli.map_lines")
        cpu = time.process_time()
        try:
            with tracer.fan_out(span):
                return fn(per_line, lines, threads)
        finally:
            span.cpu = time.process_time() - cpu
            tracer.close(span)

    return wrapper


def _records(span, parent, args, result):
    span.attrs["records"] = len(result)


def _read(span, parent, args, result):
    span.attrs["lines"] = len(result)
    span.attrs["bytes"] = os.path.getsize(args[0])


def _written_lines(span, parent, args, result):
    span.attrs["lines"] = len(args[0])


def _bytes(span, parent, args, result):
    span.attrs["bytes"] = len(args[1].encode("utf-8"))


def _cells(span, parent, args, result):
    span.attrs["cells"] = len(args[0]) * len(args[1])


def _lattice(span, parent, args, result):
    span.attrs["tokens"] = sum(len(seq) for seq in args[0])
    span.attrs["slots"] = len(result.slots)


def _vote(span, parent, args, result):
    span.attrs["slots"] = len(result.per_slot_winner)
    span.attrs["null_wins"] = sum(1 for w in result.per_slot_winner if w is rover.NULL)


def _consensus(span, parent, args, result):
    if parent is not None and parent.name == "quality.agreement_score":
        parent.attrs["consensus"] = result.text


def _agreement(span, parent, args, result):
    line = args[0]
    carried = [t.text for t in line.transcriptions if t.source.kind.value == "aggregate:rover"]
    span.attrs["reused"] = bool(carried) and carried[0] == span.attrs.pop("consensus", None)


def _rasa(span, parent, args, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = result.converged


# (module, attribute the callers look up, span name, observer, per-line)
BOUNDARIES = (
    (cli, "parse_manifest", "corpus.parse_manifest", _read, False),
    (cli, "write_manifest", "corpus.write_manifest", _written_lines, False),
    (corpus, "atomic_write_text", "corpus.atomic_write_text", _bytes, False),
    (cli, "consensus_transcription", "rover.consensus_transcription", None, True),
    (rover, "rover_consensus", "rover.rover_consensus", None, False),
    (rover, "build_lattice", "rover.build_lattice", _lattice, False),
    (rover, "vote", "rover.vote", _vote, False),
    (cli, "selected_transcription", "rasa.selected_transcription", None, True),
    (rasa, "rasa_select", "rasa.rasa_select", _rasa, False),
    (rasa, "distance_matrix", "rasa.distance_matrix", None, False),
    (rasa, "sym_char_distance", "metrics.sym_char_distance", _cells, False),
    (cli, "agreement_score", "quality.agreement_score", _agreement, True),
    (quality, "rover_consensus", "rover.rover_consensus", _consensus, False),
    (quality, "sym_char_distance", "metrics.sym_char_distance", _cells, False),
    (cli, "filter_by_agreement", "quality.filter_by_agreement", None, False),
    (cli, "agreement_split", "splits.agreement_split", None, False),
    (cli, "random_split", "splits.random_split", None, False),
    (cli, "apply_split", "splits.apply_split", None, False),
    (splits, "sym_char_distance", "metrics.sym_char_distance", _cells, False),
    (cli, "emit", "assemble.emit", _records, False),
    (cli, "write_ground_truth", "assemble.write_ground_truth", None, False),
    (assemble, "atomic_write_text", "assemble.atomic_write_text", _bytes, False),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in BOUNDARIES]
    saved.append((cli, "_map_lines", cli._map_lines))
    try:
        for module, attr, name, observe, per_line in BOUNDARIES:
            original = getattr(module, attr)
            setattr(module, attr, _wrap(tracer, original, name, observe, per_line))
        cli._map_lines = _map_lines(tracer, cli._map_lines)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover; children
    on pool threads may overlap, so their union is subtracted."""
    covered, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there is nothing to rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced pass over a stage chain."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def attr(name: str, key: str) -> list:
        return [s.attrs[key] for s in named(name) if key in s.attrs]

    def self_total(name: str) -> float:
        return sum(self_time(s, children.get(s.id, [])) for s in named(name))

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    distances = named("metrics.sym_char_distance")
    cells = sum(s.attrs["cells"] for s in distances)
    lattices = [s.duration * 1e3 for s in named("rover.build_lattice")]
    scores = [s.duration * 1e3 for s in named("quality.agreement_score")]
    iterations = attr("rasa.rasa_select", "iterations")
    maps = named("cli.map_lines")
    metrics = {
        "corpus.parse_manifest.us_per_line": per(
            total("corpus.parse_manifest") * 1e6, sum(attr("corpus.parse_manifest", "lines"))
        ),
        "corpus.write_manifest.us_per_line": per(
            total("corpus.write_manifest") * 1e6, sum(attr("corpus.write_manifest", "lines"))
        ),
        "corpus.bytes_read": sum(attr("corpus.parse_manifest", "bytes")),
        "corpus.bytes_written": sum(attr("corpus.atomic_write_text", "bytes")),
        "metrics.sym_char_distance.calls": len(distances),
        "metrics.sym_char_distance.us_p50": _pct([s.duration * 1e6 for s in distances], 0.5),
        "metrics.sym_char_distance.us_p99": _pct([s.duration * 1e6 for s in distances], 0.99),
        "metrics.sym_char_distance.demanded_cells": cells,
        "metrics.sym_char_distance.ns_per_cell": per(
            sum(s.duration for s in distances) * 1e9, cells
        ),
        "rover.build_lattice.ms_p50": _pct(lattices, 0.5),
        "rover.build_lattice.ms_p99": _pct(lattices, 0.99),
        "rover.tokens_in": sum(attr("rover.build_lattice", "tokens")),
        "rover.slots_out": sum(attr("rover.build_lattice", "slots")),
        "rover.vote.s": total("rover.vote"),
        "rover.null_win_share": per(
            sum(attr("rover.vote", "null_wins")), sum(attr("rover.vote", "slots"))
        ),
        "rasa.distance_matrix.s": total("rasa.distance_matrix"),
        "rasa.rasa_select.self_s": self_total("rasa.rasa_select"),
        "rasa.iterations.mean": fmean(iterations) if iterations else 0.0,
        "rasa.iterations.p99": float(_pct(iterations, 0.99)),
        "rasa.nonconverged_share": per(
            sum(not c for c in attr("rasa.rasa_select", "converged")), len(iterations)
        ),
        "quality.agreement_score.ms_p50": _pct(scores, 0.5),
        "quality.agreement_score.ms_p99": _pct(scores, 0.99),
        "quality.agreement_score.self_s": self_total("quality.agreement_score"),
        "quality.consensus_reuse_share": per(
            sum(attr("quality.agreement_score", "reused")), len(scores)
        ),
        "splits.agreement_split.s": total("splits.agreement_split"),
        "splits.random_split.s": total("splits.random_split"),
        "splits.agreement_split.calls": len(named("splits.agreement_split")),
        "assemble.emit.s": total("assemble.emit"),
        "assemble.emit.records": sum(attr("assemble.emit", "records")),
        "assemble.write_ground_truth.s": total("assemble.write_ground_truth"),
        "assemble.bytes_written": sum(attr("assemble.atomic_write_text", "bytes")),
        "cli.map_lines.cores_used": per(sum(s.cpu for s in maps), total("cli.map_lines")),
    }
    for stage in STAGES:
        metrics[f"cli.{stage}.self_s"] = self_total(f"cli.{stage}")
    return metrics
