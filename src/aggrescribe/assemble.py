"""Training-manifest emission under the six transcription-selection strategies.

One-of strategies emit exactly one record per train/validation line; retention
strategies duplicate the image once per kept transcription. Test lines always
emit a single human transcription regardless of strategy, so evaluation stays
on human ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from .corpus import (
    _ALL_HUMAN,
    _ALL_HUMAN_AUTO,
    _RANDOM_ONE,
    _RASA,
    _RASA_ONE,
    _ROVER,
    _ROVER_ONE,
    _SPLIT_BY_NAME,
    _TEST,
    _check_text,
    _member,
    ManifestError,
    Record,
    SourceKind,
    Split,
    Strategy,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    Corpus,
    _set,
    atomic_write_text,
    canonical_transcriptions,
)
from .splits import SeededRng


class EmissionRecord(Record):
    """One ``image<TAB>text`` TSV row, whose two fields fit the row, with its
    ``Split`` (or a member's value) and ``TranscriptionSource``."""

    __slots__ = ("image_ref", "text", "split", "source")

    def __init__(
        self, image_ref: str, text: str, split: Split | str, source: TranscriptionSource
    ) -> None:
        # Most rows are two printable strings, which need no other check.
        if not (image_ref.__class__ is str and text.__class__ is str
                and image_ref.isprintable() and text.isprintable()):
            _check_text("image_ref", image_ref, row=True)
            _check_text("text", text, row=True)
        if split.__class__ is not Split:
            split = _member(_SPLIT_BY_NAME, split, "unknown split")
        if source.__class__ is not TranscriptionSource:
            raise ValueError("'source' must be a TranscriptionSource")
        _set(self, "image_ref", image_ref)
        _set(self, "text", text)
        _set(self, "split", split)
        _set(self, "source", source)


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


def write_ground_truth(records: Sequence[EmissionRecord], directory: str | Path) -> dict[str, int]:
    """Write ``<value>.tsv`` for each ``Split`` value, in member order
    (``train.tsv``, ``val.tsv``, ``test.tsv``): one ``image<TAB>text`` row per
    record, record order preserved. Return the rows written per split value.

    Every file is written, even when empty. Every ``EmissionRecord`` fits
    its row, so nothing is checked here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # Keyed by member value, which hashes in C, not by member (``Enum.__hash__``).
    buckets: dict[str, list[str]] = {split.value: [] for split in Split}
    for record in records:
        buckets[record.split._value_].append(f"{record.image_ref}\t{record.text}\n")
    for value, rows in buckets.items():
        atomic_write_text(directory / f"{value}.tsv", "".join(rows))
    return {value: len(rows) for value, rows in buckets.items()}
