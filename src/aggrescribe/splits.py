"""Train/validation/test assignment, by annotator agreement or at random.

The agreement rule follows the two-annotator distance: identical human
transcriptions go to test, near matches (distance strictly between 0 and 5%)
to validation, everything else to train. The random rule shuffles line
indices with a seeded, platform-stable generator and cuts the requested
sizes, so a given seed always reproduces the same manifest byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Mapping, MutableSequence

from .corpus import Corpus, Split
from .metrics import sym_char_distance

#: Two human transcriptions closer than this (but not identical) validate.
VALIDATION_BAND = 0.05

_MASK64 = (1 << 64) - 1


class SeededRng:
    """splitmix64 stream; identical output on every platform for a seed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def randbelow(self, n: int) -> int:
        # Modulo reduction: the bias is < 2**-45 for any realistic corpus
        # size and buys bit-reproducibility across implementations.
        if n <= 0:
            raise ValueError("randbelow requires a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def agreement_split(corpus: Corpus) -> dict[str, Split]:
    """Assign each line by the two-annotator agreement rule.

    Lines with a single human transcription train; with two, the symmetric
    character distance decides: 0 tests, (0, 0.05) validates, anything else
    (the 5% boundary included) trains.

    Raises:
        ValueError: if a line has no human transcription.
    """
    assignments: dict[str, Split] = {}
    for line in corpus.lines:
        humans = line.human_transcriptions
        if not humans:
            raise ValueError(f"line {line.line_id!r} has no human transcription")
        if len(humans) == 2:
            distance = sym_char_distance(humans[0].text, humans[1].text)
            if distance == 0.0:
                split = Split.TEST
            elif distance < VALIDATION_BAND:
                split = Split.VALIDATION
            else:
                split = Split.TRAIN
        else:
            split = Split.TRAIN
        assignments[line.line_id] = split
    return assignments


def random_split(
    corpus: Corpus, sizes: tuple[int, int, int], seed: int
) -> dict[str, Split]:
    """Seeded random partition with exact cardinalities.

    ``sizes`` is (train, validation, test) and must sum to the corpus size.

    Raises:
        ValueError: on negative sizes or a size/corpus mismatch.
    """
    train, validation, test = sizes
    if min(train, validation, test) < 0:
        raise ValueError(f"split sizes must be non-negative, got {sizes}")
    if train + validation + test != len(corpus.lines):
        raise ValueError(
            f"split sizes {sizes} sum to {train + validation + test}, "
            f"but the corpus has {len(corpus.lines)} lines"
        )
    order = list(range(len(corpus.lines)))
    SeededRng(seed).shuffle(order)
    assignments: dict[str, Split] = {}
    for position, index in enumerate(order):
        if position < train:
            split = Split.TRAIN
        elif position < train + validation:
            split = Split.VALIDATION
        else:
            split = Split.TEST
        assignments[corpus.lines[index].line_id] = split
    return assignments


def split_counts(splits: Iterable[Split]) -> dict[Split, int]:
    counts = {split: 0 for split in Split}
    for split in splits:
        counts[split] += 1
    return counts


def apply_split(corpus: Corpus, assignments: Mapping[str, Split]) -> Corpus:
    """Annotate every line with its assigned split.

    Raises:
        ValueError: if a line is missing from the assignment map.
    """

    def _annotate(line):
        split = assignments.get(line.line_id)
        if split is None:
            raise ValueError(f"line {line.line_id!r} is missing from the split map")
        return line.with_split(split)

    return corpus.map_lines(_annotate)
