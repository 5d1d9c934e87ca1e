"""Seeded corpus generator for the benchmark workloads.

Every random choice flows from a splitmix64 stream of this file's own, so a
(workload, seed, size) triple gives the same manifest bytes on every platform
and whatever the library's own RNG does. Line categories are drawn by fixed
quotas (then shuffled), so corpora of one size differ between seeds in their
text only, not in their mix: that keeps seed-to-seed work steady.

    python3 bench/workloads.py --workload belfort-char --seed 1 --lines 300 --out corpus.jsonl

prints the corpus shape next to the Belfort targets of the acceptance tests.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

_MASK64 = (1 << 64) - 1

# Belfort targets (tests/test_acceptance.py, criteria 1-3).
BELFORT_LINES = 24105
BELFORT_SPLIT = {"train": 19013, "val": 2262, "test": 2830}
TWO_HUMAN_SHARE = 0.37
RETENTION_TARGETS = {90.0: 0.757, 97.0: 0.503, 99.0: 0.293}

VOCABULARY = (
    "séance conseil municipal belfort maire déclare ouverte lecture procès-verbal "
    "dernière approuve comptes commune délibération budget exercice demande subvention "
    "écoles communales travaux réparation pont savoureuse nomination membres commission "
    "finances adjudication voirie faubourg receveur présente rapport annuel préfet arrêté "
    "vote unanimité crédit supplémentaire hospice civil bureau bienfaisance octroi taxe "
    "chemins vicinaux entretien éclairage public gaz fontaines eaux caserne garnison "
    "instituteur traitement indemnité logement pompiers compagnie marché halle foire "
    "bestiaux cimetière église presbytère curé fabrique legs donation acceptation vente "
    "terrain acquisition immeuble mairie secrétaire adjoint conseiller absent excusé "
    "présents messieurs monsieur renvoi examen proposition rejetée adoptée sous réserve "
    "approbation autorité supérieure francs centimes somme montant article chapitre "
    "le la les de du des au aux et en pour par sur avec dans"
).split()

ALPHABET = "abcdefghijlmnopqrstuvéèàç"


class SplitMix64:
    """splitmix64: a 64-bit stream that is identical on every platform."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def between(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class Shape:
    """What a workload's lines look like."""

    words: tuple[int, int]  # words per line, inclusive range
    auto_edits: tuple[int, int]  # character edits per automatic transcription
    indel_share: float  # share of those edits that insert or delete
    pre_aggregated: bool  # write aggregates and agreement up front


SHAPES = {
    "belfort-char": Shape(
        words=(4, 12), auto_edits=(0, 3), indel_share=0.15, pre_aggregated=False
    ),
    "long-word-threads": Shape(
        words=(25, 40), auto_edits=(4, 14), indel_share=0.7, pre_aggregated=False
    ),
    "downstream-sweep": Shape(
        words=(4, 12), auto_edits=(0, 3), indel_share=0.15, pre_aggregated=True
    ),
}

# Line categories, in the agreement-split proportions of the Belfort corpus:
# identical humans go to test, near-identical ones to validation, the other
# two-human lines and every single-human line train.
_TWO_HUMAN = round(TWO_HUMAN_SHARE * BELFORT_LINES)
_CATEGORY_SHARES = {
    "test": BELFORT_SPLIT["test"] / BELFORT_LINES,
    "val": BELFORT_SPLIT["val"] / BELFORT_LINES,
    "two-human-train": (_TWO_HUMAN - BELFORT_SPLIT["test"] - BELFORT_SPLIT["val"]) / BELFORT_LINES,
}


def quotas(total: int, shares: dict[str, float], rest: str) -> dict[str, int]:
    """Largest-remainder apportionment of ``total`` by ``shares``; what is
    left goes to ``rest``."""
    exact = {name: total * share for name, share in shares.items()}
    counts = {name: math.floor(value) for name, value in exact.items()}
    spare = round(total * sum(shares.values())) - sum(counts.values())
    for name in sorted(exact, key=lambda n: exact[n] - counts[n], reverse=True)[:spare]:
        counts[name] += 1
    counts[rest] = total - sum(counts.values())
    return counts


def corrupt(rng: SplitMix64, text: str, edits: int, indel_share: float) -> str:
    chars = list(text)
    for _ in range(edits):
        pos = rng.below(len(chars))
        if rng.uniform() >= indel_share:
            chars[pos] = _other_letter(rng, chars[pos])
        elif rng.below(2) and len(chars) > 2:
            del chars[pos]
        else:
            chars.insert(pos, rng.choice(ALPHABET))
    return " ".join("".join(chars).split()) or text


def _other_letter(rng: SplitMix64, current: str) -> str:
    while True:
        letter = rng.choice(ALPHABET)
        if letter != current:
            return letter


def _spread(n: int, lo: int, hi: int) -> list[int]:
    """n integers covering [lo, hi] as evenly as n allows, ascending."""
    return [lo + (i * (hi - lo + 1)) // n for i in range(n)]


def _deal(counts: dict[str, int]) -> list[str]:
    """The categories in an order that keeps each one's running count in
    step with its share, so that paired with ascending lengths every
    category spans the whole length range. Which lines carry two humans,
    and so how much work each stage does, then varies little between
    seeds."""
    total = sum(counts.values())
    dealt = dict.fromkeys(counts, 0)
    order = []
    for i in range(1, total + 1):
        name = max(counts, key=lambda c: counts[c] * i / total - dealt[c])
        dealt[name] += 1
        order.append(name)
    return order


def _agreements(rng: SplitMix64, n_train: int) -> list[float]:
    """Train-line agreement values whose retention at 90/97/99 follows the
    paper (75.7/50.3/29.3 %)."""
    bands = [(99.0, 100.0), (97.0, 99.0), (90.0, 97.0), (40.0, 90.0)]
    cuts = [RETENTION_TARGETS[99.0], RETENTION_TARGETS[97.0], RETENTION_TARGETS[90.0], 1.0]
    values, taken = [], 0
    for (lo, hi), cut in zip(bands, cuts):
        count = round(cut * n_train) - taken
        taken += count
        values += [round(lo + (hi - lo) * rng.uniform(), 6) for _ in range(count)]
    rng.shuffle(values)
    return values


def generate(workload: str, seed: int, lines: int) -> list[dict]:
    """Manifest records for one workload; same arguments, same records."""
    shape = SHAPES[workload]
    rng = SplitMix64(seed)
    counts = quotas(lines, _CATEGORY_SHARES, rest="single-human")
    pairs = list(zip(_deal(counts), _spread(lines, *shape.words)))
    rng.shuffle(pairs)
    train_agreement = iter(
        _agreements(rng, counts["two-human-train"] + counts["single-human"])
    )

    records = []
    for i, (category, n_words) in enumerate(pairs):
        base = " ".join(rng.choice(VOCABULARY) for _ in range(n_words))
        while category == "val" and len(base) <= 20:
            base += " " + rng.choice(VOCABULARY)
        humans = [base]
        if category == "test":
            humans.append(base)
        elif category == "val":
            # One substitution: distance 1/len < 0.05 since len > 20.
            pos = rng.below(len(base))
            humans.append(base[:pos] + _other_letter(rng, base[pos]) + base[pos + 1 :])
        elif category == "two-human-train":
            edits = math.ceil(0.06 * len(base)) + rng.below(4)
            humans.append(corrupt(rng, base, edits, indel_share=0.3))
        autos = [
            corrupt(rng, base, rng.between(*shape.auto_edits), shape.indel_share)
            for _ in range(2)
        ]
        transcriptions = [{"text": t, "source": "human"} for t in humans]
        transcriptions += [
            {"text": autos[0], "source": "auto:pylaia"},
            {"text": autos[1], "source": "auto:dan"},
        ]
        record = {
            "line_id": f"L{i:06d}",
            "image": f"images/P{i // 30:04d}/L{i:06d}.png",
            "page_id": f"P{i // 30:04d}",
        }
        if shape.pre_aggregated:
            record["agreement"] = (
                next(train_agreement)
                if category in ("two-human-train", "single-human")
                else round(95.0 + 5.0 * rng.uniform(), 6)
            )
            transcriptions += [
                {"text": base, "source": "aggregate:rover"},
                {"text": humans[-1], "source": "aggregate:rasa"},
            ]
        record["transcriptions"] = transcriptions
        records.append(record)
    return records


def write(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def shape_report(workload: str, records: list[dict]) -> list[str]:
    """The corpus shape by construction, next to the Belfort targets."""
    humans = [[t["text"] for t in r["transcriptions"] if t["source"] == "human"] for r in records]
    n = len(records)
    two = [h for h in humans if len(h) == 2]
    test = sum(1 for h in two if h[0] == h[1])
    val = sum(1 for h in two if _is_val(h))
    target = "/".join(f"{100 * v / BELFORT_LINES:.1f}" for v in BELFORT_SPLIT.values())
    rows = [
        f"shape {workload}: {n} lines",
        f"  two-human share      {100 * len(two) / n:6.1f} %   "
        f"(target {100 * TWO_HUMAN_SHARE:.1f} %)",
        "  train/val/test share "
        f"{100 * (n - val - test) / n:5.1f}/{100 * val / n:.1f}/{100 * test / n:.1f} %   "
        f"(target {target} %, i.e. 19013/2262/2830)",
        f"  mean line length     {sum(len(h[0]) for h in humans) / n:6.1f} chars",
    ]
    if SHAPES[workload].pre_aggregated:
        train = [
            r["agreement"]
            for r, h in zip(records, humans)
            if len(h) == 1 or (h[0] != h[1] and not _is_val(h))
        ]
        kept = [100 * sum(a >= t for a in train) / len(train) for t in RETENTION_TARGETS]
        rows.append(
            "  train kept at 90/97/99 "
            + "/".join(f"{k:.1f}" for k in kept)
            + " %   (target 75.7/50.3/29.3 %)"
        )
    return rows


def _is_val(pair: list[str]) -> bool:
    # A single substitution is how the generator makes a validation pair;
    # train pairs carry several edits.
    a, b = pair
    return len(a) == len(b) and sum(x != y for x, y in zip(a, b)) == 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--lines", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    records = generate(args.workload, args.seed, args.lines)
    write(records, args.out)
    print("\n".join(shape_report(args.workload, records)))


if __name__ == "__main__":
    main()
