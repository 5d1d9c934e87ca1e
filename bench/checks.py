"""Output checks for one benchmark pass.

The checks read the pipeline's outputs as plain JSON and TSV, without the
library's parser, and compare a seeded sample against the independent
reference implementations in ``tests/oracles.py``. Each check is a
``(name, ok, detail)`` triple; a failed one counts in the benchmark's
error rate.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from statistics import fmean

from oracles import brute_edit_distance, positional_consensus
from workloads import SplitMix64

from aggrescribe.metrics import sym_char_distance

VALIDATION_BAND = 0.05
ONE_OF = {"random-one", "rasa-one", "rover-one"}


def read_manifest(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(raw) for raw in handle if raw.strip()]


def texts(record: dict, source: str) -> list[str]:
    return [t["text"] for t in record["transcriptions"] if t["source"] == source]


def canonical(record: dict) -> list[str]:
    """Voting inputs in the library's fold order: humans, pylaia, dan."""
    return texts(record, "human") + texts(record, "auto:pylaia") + texts(record, "auto:dan")


def oracle_distance(a: str, b: str) -> float:
    return brute_edit_distance(a, b) / max(len(a), len(b), 1)


def sample(records: list, count: int, seed: int) -> list:
    """A seeded sample, in corpus order, of at most ``count`` records."""
    rng = SplitMix64(seed ^ 0x5EED)
    order = list(range(len(records)))
    rng.shuffle(order)
    return [records[i] for i in sorted(order[:count])]


def _equal_length(record: dict) -> bool:
    return len({len(t) for t in canonical(record)}) == 1


def check_distances(corpus: list[dict], seed: int, count: int) -> tuple:
    pairs = []
    for c in map(canonical, sample(corpus, count, seed)):
        pairs += [(c[0], c[-1]), (c[1], c[2])]
    bad = [(a, b) for a, b in pairs if sym_char_distance(a, b) != oracle_distance(a, b)]
    return ("oracle.distance", not bad, f"{len(pairs) - len(bad)}/{len(pairs)} pairs match")


def check_rover(records: list[dict], char_level: bool, seed: int, count: int) -> list[tuple]:
    out = [
        (
            "invariant.rover_once",
            all(len(texts(r, "aggregate:rover")) == 1 for r in records),
            "every line carries one aggregate:rover",
        )
    ]
    # The positional oracle needs equal-length inputs; a workload without
    # such lines gets no consensus check rather than a vacuous one.
    chosen = sample([r for r in records if _equal_length(r)], count, seed)
    if char_level and chosen:
        good = sum(
            texts(r, "aggregate:rover")[0]
            == " ".join(positional_consensus(canonical(r)).split())
            for r in chosen
        )
        out.append(
            (
                "oracle.consensus",
                good == len(chosen),
                f"{good}/{len(chosen)} equal-length lines match the positional oracle",
            )
        )
    return out


def check_rasa(records: list[dict]) -> tuple:
    ok = all(texts(r, "aggregate:rasa") in ([t] for t in canonical(r)) for r in records)
    return ("invariant.rasa_extractive", ok, "every aggregate:rasa is one of the line's inputs")


def check_agreement(records: list[dict], seed: int, count: int) -> list[tuple]:
    in_range = all(0.0 <= r["agreement"] <= 100.0 for r in records)
    unanimous = all(
        (r["agreement"] == 100.0) == (len(set(canonical(r))) == 1) for r in records
    )
    found = [
        ("invariant.agreement_range", in_range, "agreement in [0, 100]"),
        ("invariant.agreement_100", unanimous, "agreement is 100 iff all inputs are identical"),
    ]
    chosen = sample([r for r in records if _equal_length(r)], count, seed)
    good = 0
    for r in chosen:
        consensus = positional_consensus(canonical(r))
        mean = fmean(oracle_distance(t, consensus) for t in canonical(r))
        good += r["agreement"] == 100.0 * (1.0 - min(1.0, mean))
    if chosen:
        found.append(
            (
                "oracle.agreement",
                good == len(chosen),
                f"{good}/{len(chosen)} equal-length lines match the oracle score",
            )
        )
    return found


def _oracle_split(record: dict) -> str:
    humans = texts(record, "human")
    if len(humans) == 1:
        return "train"
    distance = oracle_distance(*humans)
    if distance == 0.0:
        return "test"
    return "val" if distance < VALIDATION_BAND else "train"


def check_split(records: list[dict], total: int, seed: int, count: int) -> list[tuple]:
    counts = Counter(r.get("split") for r in records)
    two_human = [r for r in records if len(texts(r, "human")) == 2]
    chosen = sample(two_human, count, seed)
    good = sum(r["split"] == _oracle_split(r) for r in chosen)
    return [
        (
            "invariant.split_total",
            sum(counts[s] for s in ("train", "val", "test")) == total == len(records),
            f"train/val/test {counts['train']}/{counts['val']}/{counts['test']} of {total}",
        ),
        (
            "oracle.split",
            good == len(chosen),
            f"{good}/{len(chosen)} two-human lines split as the oracle distance says",
        ),
    ]


def check_random_split(records: list[dict], agreement: list[dict]) -> tuple:
    got = Counter(r.get("split") for r in records)
    want = Counter(r["split"] for r in agreement)
    return ("invariant.random_sizes", got == want, "random split keeps the agreement sizes")


def check_filter(records: list[dict], source: list[dict], threshold: float) -> tuple:
    want = [
        r["line_id"] for r in source if r["split"] != "train" or r["agreement"] >= threshold
    ]
    ok = [r["line_id"] for r in records] == want
    return (f"invariant.filter_{threshold:g}", ok, f"{len(records)} of {len(source)} lines kept")


def _per_line(record: dict, strategy: str) -> int:
    if strategy in ONE_OF:
        return 1
    if strategy == "all-human":
        return len(texts(record, "human"))
    if strategy == "all-human-auto":
        return len(canonical(record))
    return len(canonical(record)) + 2


def check_emit(directory: Path, source: list[dict], strategy: str) -> list[tuple]:
    rows = {}
    for split in ("train", "val", "test"):
        with open(directory / f"{split}.tsv", encoding="utf-8", newline="") as handle:
            rows[split] = [line.rstrip("\n").split("\t") for line in handle]
    test_want = [[r["image"], texts(r, "human")[0]] for r in source if r["split"] == "test"]
    sizes_ok = all(
        len(rows[split]) == sum(_per_line(r, strategy) for r in source if r["split"] == split)
        for split in ("train", "val")
    )
    summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
    summary_ok = summary["counts"] == {split: len(rows[split]) for split in rows}
    return [
        (
            f"invariant.emit_{strategy}_test",
            rows["test"] == test_want,
            "test rows are single-human",
        ),
        (
            f"invariant.emit_{strategy}_sizes",
            sizes_ok and summary_ok,
            f"{sum(len(v) for v in rows.values())} rows; summary counts agree",
        ),
    ]
