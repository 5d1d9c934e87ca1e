"""Acceptance gate.

Criteria 1-4 need the real Belfort manifest and are skipped unless
AGGRESCRIBE_BELFORT_MANIFEST points at an ingested NDJSON manifest. Criteria
5-10 are dataset-independent property suites and always run. Each criterion
prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them live).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from aggrescribe import (
    Corpus,
    Granularity,
    SourceKind,
    Split,
    Strategy,
    agreement_score,
    agreement_split,
    annotate_agreement,
    apply_split,
    corpus_stats,
    emit,
    filter_by_agreement,
    parse_manifest,
    random_split,
    rasa_select,
    rover_consensus,
    split_counts,
    tokenize,
    write_manifest,
)
from aggrescribe.metrics import _distance
from aggrescribe.rover import NULL
from conftest import build_line, child_env
from oracles import brute_edit_distance, positional_consensus

FIXTURE = Path(__file__).parent / "fixtures" / "synthetic_50.jsonl"
BELFORT_ENV = "AGGRESCRIBE_BELFORT_MANIFEST"

needs_belfort = pytest.mark.skipif(
    not os.environ.get(BELFORT_ENV),
    reason=f"set {BELFORT_ENV} to the ingested Belfort manifest to run",
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def belfort():
    return parse_manifest(os.environ[BELFORT_ENV])


@needs_belfort
def test_criterion_1_stats(belfort):
    started = time.perf_counter()
    stats = corpus_stats(belfort)
    elapsed = time.perf_counter() - started
    ok = (
        stats.total_lines == 24105
        and abs(stats.two_human_share - 37.0) <= 1.0
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"stats: {stats.total_lines} lines, two-human {stats.two_human_share:.1f}% "
        f"({elapsed:.1f}s)",
    )


@needs_belfort
def test_criterion_2_agreement_split(belfort):
    started = time.perf_counter()
    counts = split_counts(agreement_split(belfort))
    elapsed = time.perf_counter() - started
    expected = {Split.TRAIN: 19013, Split.VALIDATION: 2262, Split.TEST: 2830}
    ok = elapsed < 60.0 and all(
        abs(counts[s] - expected[s]) <= 0.02 * expected[s] for s in expected
    )
    report(
        2,
        ok,
        "agreement split train/val/test = "
        f"{counts[Split.TRAIN]}/{counts[Split.VALIDATION]}/{counts[Split.TEST]} "
        f"(expected 19013/2262/2830 +-2%, {elapsed:.0f}s)",
    )


@needs_belfort
def test_criterion_3_filter_retention(belfort):
    started = time.perf_counter()
    annotated = annotate_agreement(apply_split(belfort, agreement_split(belfort)))
    train_total = split_counts(line.split for line in annotated)[Split.TRAIN]
    expected = {90.0: 75.7, 97.0: 50.3, 99.0: 29.3}
    shares = {}
    for threshold in expected:
        filtered = filter_by_agreement(annotated, threshold)
        kept_train = sum(1 for line in filtered if line.split is Split.TRAIN)
        shares[threshold] = 100.0 * kept_train / train_total
    elapsed = time.perf_counter() - started
    ok = elapsed < 600.0 and all(
        abs(shares[t] - expected[t]) <= 3.0 for t in expected
    )
    report(
        3,
        ok,
        "train retention at 90/97/99 = "
        f"{shares[90.0]:.1f}/{shares[97.0]:.1f}/{shares[99.0]:.1f}% "
        f"(expected 75.7/50.3/29.3 +-3, {elapsed:.0f}s)",
    )


@needs_belfort
def test_criterion_4_emit_all(belfort, tmp_path):
    from aggrescribe.rasa import selected_transcription
    from aggrescribe.rover import consensus_transcription

    augmented = apply_split(belfort, agreement_split(belfort)).map_lines(
        lambda line: line.with_aggregate(consensus_transcription(line)).with_aggregate(
            selected_transcription(line)
        )
    )
    records = emit(augmented, Strategy.ALL_WITH_AGGREGATES)
    per_image = Counter(
        r.image_ref for r in records if r.split is Split.TRAIN
    )
    counts_ok = all(n in (5, 6) for n in per_image.values())
    test_records = [r for r in records if r.split is Split.TEST]
    test_ok = len(test_records) == 2830 and all(
        r.source.kind is SourceKind.HUMAN for r in test_records
    )
    report(
        4,
        counts_ok and test_ok,
        f"emit all: train records per line in {{5,6}}: {counts_ok}; "
        f"test records = {len(test_records)} single-human: {test_ok}",
    )


def test_criterion_5_metric_axioms():
    rng = random.Random(52_000)
    alphabet = "abcde "
    cases = 10_000
    checked_pairs = 0
    for _ in range(cases):
        a, b, c = (
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            for _ in range(3)
        )
        d_ab = _distance(a, b)
        d_ba = _distance(b, a)
        d_ac = _distance(a, c)
        d_bc = _distance(b, c)
        assert _distance(a, a) == 0
        assert d_ab == d_ba == brute_edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d_ab <= max(len(a), len(b))
        assert d_ac <= d_ab + d_bc
        checked_pairs += 3
    report(5, True, f"metric axioms on {checked_pairs} pairs vs recursive oracle, 0 violations")


def test_criterion_6_rover_properties():
    rng = random.Random(67_000)
    alphabet = "ab c"
    cases = 5_000
    for case in range(cases):
        n = rng.randint(1, 5)
        if case % 2 == 0:
            length = rng.randint(0, 10)
            texts = [
                "".join(rng.choice(alphabet) for _ in range(length)) for _ in range(n)
            ]
        else:
            texts = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
                for _ in range(n)
            ]
        sequences = [tokenize(t, Granularity.CHARACTER) for t in texts]
        result = rover_consensus(texts, Granularity.CHARACTER)
        lattice = result.lattice

        for slot in lattice.slots:
            assert sum(slot.values()) == n  # multiplicity law
        token_counts = Counter()
        for slot in lattice.slots:
            for token, count in slot.items():
                if token is not NULL:
                    token_counts[token] += count
        assert token_counts == Counter(chain.from_iterable(sequences))  # provenance
        for winner, slot in zip(result.per_slot_winner, lattice.slots):
            if winner is not NULL:
                assert slot[winner] >= 1

        if len(set(texts)) == 1:
            assert result.text == texts[0]  # unanimity
        if case % 2 == 0 and n > 1:
            assert len(lattice.slots) == len(texts[0])  # equal-length positional
            assert result.text == positional_consensus(texts)
        consensus = result.text
        assert rover_consensus([consensus] * 3, Granularity.CHARACTER).text == consensus
    report(6, True, f"rover unanimity/provenance/positional/idempotence on {cases} cases")


def test_criterion_7_rasa_properties():
    rng = random.Random(71_000)
    alphabet = "abc "
    cases = 5_000
    converged_within_cap = 0
    for case in range(cases):
        n = rng.randint(1, 6)
        texts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
            for _ in range(n)
        ]
        if case % 3 == 0 and n >= 3:
            majority = texts[0]
            for i in range(1, n // 2 + 1):
                texts[i] = majority
        pick = rasa_select(texts)
        assert 0 <= pick.index < len(texts)  # membership: pick is an input
        assert pick.iterations <= 50
        converged_within_cap += 1
        assert all(w >= 0 for w in pick.weights)
        assert abs(sum(pick.weights) - 1.0) < 1e-9
        counts = Counter(texts)
        top_text, top_count = counts.most_common(1)[0]
        if top_count * 2 > len(texts):
            assert texts[pick.index] == top_text  # majority dominance
    report(
        7,
        converged_within_cap == cases,
        f"rasa membership/dominance on {cases} cases; "
        f"{converged_within_cap}/{cases} terminated within 50 iterations",
    )


def test_criterion_8_agreement_properties():
    rng = random.Random(83_000)
    alphabet = "ab "
    for _ in range(400):
        n_human = rng.randint(1, 2)
        n_auto = rng.randint(0, 2)
        texts = []
        base = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))).strip() or "a"
        for _ in range(n_human + n_auto):
            if rng.random() < 0.4:
                texts.append(base)
            else:
                texts.append(
                    "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))).strip() or "b"
                )
        line = build_line("L", humans=tuple(texts[:n_human]), autos=tuple(texts[n_human:]))
        score = agreement_score(line)
        assert 0.0 <= score <= 100.0
        if len(set(texts)) == 1:
            assert score == 100.0
        else:
            assert score < 100.0

    # filter monotonicity on randomized corpora
    for _ in range(30):
        size = rng.randint(1, 200)
        scores = [rng.uniform(0, 100) for _ in range(size)]
        splits = [rng.choice(list(Split)) for _ in range(size)]
        corpus = Corpus(
            tuple(
                build_line(f"L{i}", split=split, agreement=score)
                for i, (score, split) in enumerate(zip(scores, splits))
            )
        )
        previous = None
        for threshold in (0, 25, 50, 75, 90, 97, 99, 100):
            kept = {line.line_id for line in filter_by_agreement(corpus, threshold)}
            non_train = {
                line.line_id for line in corpus if line.split is not Split.TRAIN
            }
            assert non_train <= kept  # val/test never removed
            if previous is not None:
                assert kept <= previous
            previous = kept
    report(8, True, "agreement range/unanimity + filter monotonicity on randomized corpora")


def test_criterion_9_split_properties(tmp_path):
    rng = random.Random(91_000)
    # agreement rule: partition + soundness
    for _ in range(50):
        size = rng.randint(1, 60)
        lines = []
        for i in range(size):
            base = "".join(rng.choice("abcdef ") for _ in range(rng.randint(1, 30))).strip() or "x"
            if rng.random() < 0.5:
                humans = (base,)
            elif rng.random() < 0.5:
                humans = (base, base)
            else:
                chars = list(base)
                chars[rng.randrange(len(chars))] = rng.choice("abcdef")
                humans = (base, "".join(chars).strip() or "y")
            lines.append(build_line(f"L{i}", humans=humans))
        corpus = Corpus(tuple(lines))
        splits = agreement_split(corpus)
        assert len(splits) == len(corpus)  # partition
        for line, split in zip(corpus, splits):
            if split is Split.TEST:
                h = line.human_transcriptions
                assert len(h) == 2 and h[0].text == h[1].text  # soundness

    # random rule: partition, cardinality, byte-identical determinism
    corpus = parse_manifest(FIXTURE)
    sizes = (30, 12, 8)
    first = random_split(corpus, sizes, seed=1234)
    second = random_split(corpus, sizes, seed=1234)
    assert first == second
    assert split_counts(first) == {
        Split.TRAIN: 30,
        Split.VALIDATION: 12,
        Split.TEST: 8,
    }
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    write_manifest(apply_split(corpus, first), path_a)
    write_manifest(apply_split(corpus, random_split(corpus, sizes, seed=1234)), path_b)
    byte_identical = path_a.read_bytes() == path_b.read_bytes()
    report(9, byte_identical, "split partition/soundness laws; seeded split byte-identical")


def _run_pipeline(workdir: Path, threads: int) -> dict[str, bytes]:
    env = child_env(AGGRESCRIBE_THREADS=str(threads))
    workdir.mkdir()
    steps = [
        ["aggregate", str(FIXTURE), "-o", "rover.jsonl", "--method", "rover", "--level", "char"],
        ["aggregate", "rover.jsonl", "-o", "both.jsonl", "--method", "rasa"],
        ["agree", "both.jsonl", "-o", "agreed.jsonl"],
        ["split", "agreed.jsonl", "-o", "split.jsonl", "--mode", "agreement"],
        ["filter", "split.jsonl", "-o", "filtered.jsonl", "--min-agreement", "90"],
        ["emit", "split.jsonl", "--strategy", "all", "--seed", "17", "--out", "gt"],
    ]
    for step in steps:
        proc = subprocess.run(
            [sys.executable, "-m", "aggrescribe", *step],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{step}: {proc.stderr}"
    outputs = {}
    for name in ("rover.jsonl", "both.jsonl", "agreed.jsonl", "split.jsonl", "filtered.jsonl"):
        outputs[name] = (workdir / name).read_bytes()
    for name in ("train.tsv", "val.tsv", "test.tsv", "summary.json"):
        outputs[f"gt/{name}"] = (workdir / "gt" / name).read_bytes()
    return outputs


def test_criterion_10_end_to_end_determinism(tmp_path):
    single = _run_pipeline(tmp_path / "threads1", threads=1)
    multi = _run_pipeline(tmp_path / "threads4", threads=4)
    same = {name for name in single if single[name] == multi[name]}
    ok = same == set(single)
    report(
        10,
        ok,
        f"pipeline on the 50-line fixture: {len(same)}/{len(single)} outputs "
        "byte-identical across 1-thread and 4-thread runs",
    )
