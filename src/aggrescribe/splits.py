"""Train/validation/test assignment, by annotator agreement or at random, and
agreement-threshold filtering of the training split.

The agreement rule follows the two-annotator distance: identical human
transcriptions go to test, near matches (distance strictly between 0 and 5%)
to validation, everything else to train. The random rule shuffles line
indices with a seeded, platform-stable generator and cuts the requested
sizes, so a given seed always reproduces the same manifest byte for byte.
Both rules return one split per line, in the corpus's line order, and
``apply_split`` writes such a list onto the lines.
"""

from __future__ import annotations

from collections.abc import Iterable, MutableSequence, Sequence

from .corpus import Corpus, ManifestError, Split
from .metrics import sym_char_distance

#: Two human transcriptions closer than this (but not identical) validate.
VALIDATION_BAND = 0.05

_MASK64 = (1 << 64) - 1

_TRAIN, _VALIDATION, _TEST = Split  # bound once: an enum class attribute costs a lookup per use


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


def agreement_split(corpus: Corpus) -> list[Split]:
    """Each line's split by the two-annotator agreement rule, in line order.

    Lines with a single human transcription train; with two, the symmetric
    character distance decides: 0 tests, (0, 0.05) validates, anything else
    (the 5% boundary included) trains.
    """
    splits = []
    for line in corpus.lines:
        humans = line.human_transcriptions
        split = _TRAIN
        if len(humans) == 2:
            distance = sym_char_distance(humans[0].text, humans[1].text)
            if distance == 0.0:
                split = _TEST
            elif distance < VALIDATION_BAND:
                split = _VALIDATION
        splits.append(split)
    return splits


def random_split(corpus: Corpus, sizes: tuple[int, int, int], seed: int) -> list[Split]:
    """Seeded random partition with exact cardinalities: each line's split,
    in line order.

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
    splits = [_TEST] * len(order)
    for position, index in enumerate(order[: train + validation]):
        splits[index] = _TRAIN if position < train else _VALIDATION
    return splits


def split_counts(splits: Iterable[Split]) -> dict[Split, int]:
    # ``list.count`` compares members by identity in C; a dict keyed by
    # member would call ``Enum.__hash__``, a Python function, per item.
    splits = list(splits)
    return {split: splits.count(split) for split in Split}


def apply_split(corpus: Corpus, splits: Sequence[Split]) -> Corpus:
    """Annotate each line with the split at its position in ``splits``.

    Raises:
        ValueError: if ``splits`` and the corpus differ in length.
    """
    return Corpus(tuple(line.with_split(s) for line, s in zip(corpus.lines, splits, strict=True)))


def filter_by_agreement(corpus: Corpus, threshold: float) -> Corpus:
    """Drop train lines whose agreement scores strictly below the threshold.

    Each line's split and score are read from the line itself. Validation and
    test lines pass through untouched; a line scoring exactly the threshold
    is retained.

    Raises:
        ValueError: on a threshold outside [0, 100].
        ManifestError: on a line without a split, or a train line without an
            agreement score.
    """
    if not 0.0 <= threshold <= 100.0:
        raise ValueError(f"threshold must be in [0, 100], got {threshold}")
    kept = []
    for line in corpus.lines:
        if line.split is None:
            raise ManifestError(f"line {line.line_id!r} has no split annotation")
        if line.split is not _TRAIN:
            kept.append(line)
            continue
        if line.agreement is None:
            raise ManifestError(f"train line {line.line_id!r} has no agreement score")
        if line.agreement >= threshold:
            kept.append(line)
    return Corpus(tuple(kept))
