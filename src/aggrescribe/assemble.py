"""Training-manifest emission under the six transcription-selection strategies.

One-of strategies emit exactly one record per train/validation line; retention
strategies duplicate the image once per kept transcription. Test lines always
emit a single human transcription regardless of strategy, so evaluation stays
on human ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .corpus import (
    SourceKind,
    Split,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    Corpus,
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


@dataclass(frozen=True)
class EmissionRecord:
    image_ref: str
    text: str
    split: Split
    source: TranscriptionSource


_FILENAMES = {Split.TRAIN: "train.tsv", Split.VALIDATION: "val.tsv", Split.TEST: "test.tsv"}


def _aggregate(line: TranscribedLine, kind: SourceKind) -> Transcription:
    for t in line.transcriptions:
        if t.source.kind is kind:
            return t
    raise ValueError(
        f"line {line.line_id!r} has no {kind.value} transcription; run the "
        "matching aggregation step first"
    )


def _select(line: TranscribedLine, strategy: Strategy, rng: SeededRng) -> list[Transcription]:
    humans = list(line.human_transcriptions)
    if strategy is Strategy.RANDOM_ONE:
        if not humans:
            raise ValueError(f"line {line.line_id!r} has no human transcription")
        return [humans[rng.randbelow(len(humans))]]
    if strategy is Strategy.RASA_ONE:
        return [_aggregate(line, SourceKind.AGGREGATE_RASA)]
    if strategy is Strategy.ROVER_ONE:
        return [_aggregate(line, SourceKind.AGGREGATE_ROVER)]
    if strategy is Strategy.ALL_HUMAN:
        return humans
    if strategy is Strategy.ALL_HUMAN_AUTO:
        return list(canonical_transcriptions(line))
    # ALL_WITH_AGGREGATES: 1-2 human + autos + both aggregates, duplicates kept
    return list(canonical_transcriptions(line)) + [
        _aggregate(line, SourceKind.AGGREGATE_RASA),
        _aggregate(line, SourceKind.AGGREGATE_ROVER),
    ]


def emit(corpus: Corpus, strategy: Strategy, seed: int = 0) -> list[EmissionRecord]:
    """Expand the corpus into training records under a strategy.

    Each line's split is read from the line itself. Train and validation
    lines expand per the strategy; test lines always yield one human record.
    The random-one draw consumes a single seeded stream over train/validation
    lines in corpus order, so a given (corpus, seed) pair always reproduces
    the same records.

    Raises:
        ValueError: if a line has no split, or the strategy needs an
            aggregate transcription the line does not carry.
    """
    rng = SeededRng(seed)
    records: list[EmissionRecord] = []
    for line in corpus.lines:
        if line.split is None:
            raise ValueError(f"line {line.line_id!r} has no split annotation")
        if line.split is Split.TEST:
            humans = line.human_transcriptions
            if not humans:
                raise ValueError(f"test line {line.line_id!r} has no human transcription")
            chosen: Sequence[Transcription] = (humans[0],)
        else:
            chosen = _select(line, strategy, rng)
        records.extend(
            EmissionRecord(
                image_ref=line.image_ref,
                text=t.text,
                split=line.split,
                source=t.source,
            )
            for t in chosen
        )
    return records


def write_ground_truth(records: Sequence[EmissionRecord], directory: str | Path) -> None:
    """Write ``train.tsv``, ``val.tsv`` and ``test.tsv`` (one
    ``image<TAB>text`` row per record, record order preserved).

    All three files are written even when empty.

    Raises:
        ValueError: if an image reference or text contains a tab or newline,
            which would corrupt the row format.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buckets: dict[Split, list[str]] = {split: [] for split in Split}
    for record in records:
        for label, value in (("image_ref", record.image_ref), ("text", record.text)):
            if "\t" in value or "\n" in value:
                raise ValueError(
                    f"{label} {value!r} contains a tab or newline and cannot be "
                    "written as a TSV row"
                )
        buckets[record.split].append(f"{record.image_ref}\t{record.text}\n")
    for split, filename in _FILENAMES.items():
        atomic_write_text(directory / filename, "".join(buckets[split]))
