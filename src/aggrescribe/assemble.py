"""Training-manifest emission under the six transcription-selection strategies.

One-of strategies emit exactly one record per train/validation line; retention
strategies duplicate the image once per kept transcription. Test lines always
emit a single human transcription regardless of strategy, so evaluation stays
on human ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from pathlib import Path

from .corpus import (
    _ROW_BREAK,
    _breaks_row,
    _refuse_lone_surrogate,
    ManifestError,
    Record,
    SourceKind,
    Split,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    Corpus,
    _set,
    atomic_write_text,
    canonical_transcriptions,
)
from .splits import SeededRng


class Strategy(Enum):
    RANDOM_ONE = "random-one"
    RASA_ONE = "rasa-one"
    ROVER_ONE = "rover-one"
    ALL_HUMAN = "all-human"
    ALL_HUMAN_AUTO = "all-human-auto"
    ALL_WITH_AGGREGATES = "all"


class EmissionRecord(Record):
    """One ``image<TAB>text`` TSV row. The constructor refuses a field with a tab,
    a line break or an unpaired surrogate (``ValueError``), so any can be written."""

    __slots__ = ("image_ref", "text", "split", "source")

    def __init__(
        self, image_ref: str, text: str, split: Split, source: TranscriptionSource
    ) -> None:
        if not (image_ref.isprintable() and text.isprintable()):
            for label, value in (("image_ref", image_ref), ("text", text)):
                if _breaks_row(value):
                    raise ValueError(_ROW_BREAK.format(label, value))
                _refuse_lone_surrogate(label, value)
        _set(self, "image_ref", image_ref)
        _set(self, "text", text)
        _set(self, "split", split)
        _set(self, "source", source)


_FILENAMES = {Split.TRAIN: "train.tsv", Split.VALIDATION: "val.tsv", Split.TEST: "test.tsv"}

# Members bound once, in definition order: an enum class attribute costs a
# lookup per use.
_RANDOM_ONE, _RASA_ONE, _ROVER_ONE, _ALL_HUMAN, _ALL_HUMAN_AUTO, _ = Strategy
_RASA, _ROVER, _TEST = SourceKind.AGGREGATE_RASA, SourceKind.AGGREGATE_ROVER, Split.TEST


def _aggregate(line: TranscribedLine, kind: SourceKind) -> Transcription:
    for t in line.transcriptions:
        if t.source.kind is kind:
            return t
    raise ManifestError(
        f"line {line.line_id!r} has no {kind.value} transcription; run the "
        "matching aggregation step first"
    )


def _select(line: TranscribedLine, strategy: Strategy, rng: SeededRng) -> list[Transcription]:
    humans = list(line.human_transcriptions)
    if strategy is _RANDOM_ONE:
        return [humans[rng.randbelow(len(humans))]]
    if strategy is _RASA_ONE:
        return [_aggregate(line, _RASA)]
    if strategy is _ROVER_ONE:
        return [_aggregate(line, _ROVER)]
    if strategy is _ALL_HUMAN:
        return humans
    if strategy is _ALL_HUMAN_AUTO:
        return list(canonical_transcriptions(line))
    # ALL_WITH_AGGREGATES: 1-2 human + autos + both aggregates, duplicates kept
    return list(canonical_transcriptions(line)) + [
        _aggregate(line, _RASA),
        _aggregate(line, _ROVER),
    ]


def emit(corpus: Corpus, strategy: Strategy | str, seed: int = 0) -> list[EmissionRecord]:
    """Expand the corpus into training records under a strategy, given as a
    member or as its value (``"random-one"``).

    Each line's split is read from the line itself. Train and validation
    lines expand per the strategy; test lines always yield one human record.
    The random-one draw consumes a single seeded stream over train/validation
    lines in corpus order, so a given (corpus, seed) pair always reproduces
    the same records.

    Raises:
        ValueError: if ``strategy`` is neither a member nor a member's value.
        ManifestError: if a line has no split, or lacks the aggregate
            transcription the strategy needs.
    """
    strategy = Strategy(strategy)
    rng = SeededRng(seed)
    records: list[EmissionRecord] = []
    for line in corpus.lines:
        if line.split is None:
            raise ManifestError(f"line {line.line_id!r} has no split annotation")
        if line.split is _TEST:
            chosen: Sequence[Transcription] = line.human_transcriptions[:1]
        else:
            chosen = _select(line, strategy, rng)
        image, split = line.image_ref, line.split
        records.extend([EmissionRecord(image, t.text, split, t.source) for t in chosen])
    return records


def write_ground_truth(records: Sequence[EmissionRecord], directory: str | Path) -> None:
    """Write ``train.tsv``, ``val.tsv`` and ``test.tsv`` (one
    ``image<TAB>text`` row per record, record order preserved).

    All three files are written even when empty. Every ``EmissionRecord``
    fits its row, so nothing is checked here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Keyed by member value, which hashes in C, not by member (``Enum.__hash__``).
    buckets: dict[str, list[str]] = {split.value: [] for split in Split}
    for record in records:
        buckets[record.split._value_].append(f"{record.image_ref}\t{record.text}\n")
    for split, filename in _FILENAMES.items():
        atomic_write_text(directory / filename, "".join(buckets[split.value]))
