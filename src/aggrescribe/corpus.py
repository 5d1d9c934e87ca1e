"""Data model and newline-delimited-JSON manifest I/O for transcribed lines.

A manifest holds one JSON object per line::

    {"line_id": "...", "image": "...", "page_id": "...",
     "split": "train"|"val"|"test", "agreement": 97.5,
     "transcriptions": [{"text": "...", "source": "human",
                         "annotator": "...", "uncertain": false}]}

``page_id``, ``split``, ``agreement``, ``annotator`` and ``uncertain`` are
optional. All text is NFC-normalized with whitespace trimmed and collapsed at
construction time, so accent-encoding and spacing differences never show up
as character edits downstream.
"""

from __future__ import annotations

import json
import os
import tempfile
import unicodedata
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator


class ManifestError(ValueError):
    """A manifest file or record violates the schema."""


class SourceKind(Enum):
    HUMAN = "human"
    AUTO_PYLAIA = "auto:pylaia"
    AUTO_DAN = "auto:dan"
    AGGREGATE_ROVER = "aggregate:rover"
    AGGREGATE_RASA = "aggregate:rasa"


class Split(Enum):
    TRAIN = "train"
    VALIDATION = "val"
    TEST = "test"


AGGREGATE_KINDS = frozenset({SourceKind.AGGREGATE_ROVER, SourceKind.AGGREGATE_RASA})

# Fold order for consensus voting: humans in manifest order, then the two
# automatic sources. Aggregates never vote.
_CANONICAL_ORDER = (SourceKind.HUMAN, SourceKind.AUTO_PYLAIA, SourceKind.AUTO_DAN)


def normalize_text(text: str) -> str:
    """NFC-normalize, trim, and collapse internal whitespace runs."""
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class TranscriptionSource:
    kind: SourceKind
    annotator_id: str | None = None

    def __post_init__(self) -> None:
        if self.annotator_id is not None and self.kind is not SourceKind.HUMAN:
            raise ValueError("annotator_id is only allowed on human transcriptions")


@dataclass(frozen=True)
class Transcription:
    """One candidate text for a line. The text is normalized on construction
    and must be non-empty afterwards."""

    text: str
    source: TranscriptionSource
    uncertain: bool = False

    def __post_init__(self) -> None:
        cleaned = normalize_text(self.text)
        if not cleaned:
            raise ValueError("transcription text is empty after normalization")
        object.__setattr__(self, "text", cleaned)


@dataclass(frozen=True)
class TranscribedLine:
    """One text-line image with its set of candidate transcriptions."""

    line_id: str
    image_ref: str
    transcriptions: tuple[Transcription, ...]
    page_id: str | None = None
    split: Split | None = None
    agreement: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "transcriptions", tuple(self.transcriptions))
        if not self.line_id:
            raise ValueError("line_id must be non-empty")
        if not self.transcriptions:
            raise ValueError(f"line {self.line_id!r} has no transcriptions")

    def of_kind(self, kind: SourceKind) -> tuple[Transcription, ...]:
        return tuple(t for t in self.transcriptions if t.source.kind is kind)

    @property
    def human_transcriptions(self) -> tuple[Transcription, ...]:
        return self.of_kind(SourceKind.HUMAN)

    def with_aggregate(self, transcription: Transcription) -> "TranscribedLine":
        """Append an aggregate transcription, replacing any existing one of
        the same kind so re-running an aggregation step stays idempotent."""
        kind = transcription.source.kind
        if kind not in AGGREGATE_KINDS:
            raise ValueError(f"{kind.value} is not an aggregate source")
        kept = tuple(t for t in self.transcriptions if t.source.kind is not kind)
        return replace(self, transcriptions=kept + (transcription,))

    def with_split(self, split: Split) -> "TranscribedLine":
        return replace(self, split=split)

    def with_agreement(self, value: float) -> "TranscribedLine":
        return replace(self, agreement=value)


@dataclass(frozen=True)
class Corpus:
    """Immutable ordered collection of lines with distinct line_ids."""

    lines: tuple[TranscribedLine, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))
        seen: set[str] = set()
        for line in self.lines:
            if line.line_id in seen:
                raise ValueError(f"duplicate line_id {line.line_id!r}")
            seen.add(line.line_id)

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[TranscribedLine]:
        return iter(self.lines)

    def map_lines(self, fn) -> "Corpus":
        return Corpus(tuple(fn(line) for line in self.lines))


def canonical_transcriptions(line: TranscribedLine) -> tuple[Transcription, ...]:
    """Transcriptions that participate in voting, in the canonical fold
    order: human (manifest order), then auto:pylaia, then auto:dan."""
    out: list[Transcription] = []
    for kind in _CANONICAL_ORDER:
        out.extend(t for t in line.transcriptions if t.source.kind is kind)
    return tuple(out)


def _parse_transcription(entry: object, context: str) -> Transcription:
    if not isinstance(entry, dict):
        raise ManifestError(f"{context}: transcription entry must be an object")
    text = entry.get("text")
    if not isinstance(text, str):
        raise ManifestError(f"{context}: transcription is missing a string 'text'")
    tag = entry.get("source")
    try:
        kind = SourceKind(tag)
    except ValueError:
        raise ManifestError(f"{context}: unknown source tag {tag!r}") from None
    annotator = entry.get("annotator")
    if annotator is not None and not isinstance(annotator, str):
        raise ManifestError(f"{context}: 'annotator' must be a string")
    uncertain = entry.get("uncertain", False)
    if not isinstance(uncertain, bool):
        raise ManifestError(f"{context}: 'uncertain' must be a boolean")
    try:
        return Transcription(
            text=text,
            source=TranscriptionSource(kind=kind, annotator_id=annotator),
            uncertain=uncertain,
        )
    except ValueError as exc:
        raise ManifestError(f"{context}: {exc}") from exc


def _parse_line(record: object, context: str) -> TranscribedLine:
    if not isinstance(record, dict):
        raise ManifestError(f"{context}: record must be a JSON object")
    line_id = record.get("line_id")
    if not isinstance(line_id, str) or not line_id:
        raise ManifestError(f"{context}: missing or empty 'line_id'")
    context = f"{context} (line_id {line_id!r})"
    image = record.get("image")
    if not isinstance(image, str) or not image:
        raise ManifestError(f"{context}: missing or empty 'image'")
    page_id = record.get("page_id")
    if page_id is not None and not isinstance(page_id, str):
        raise ManifestError(f"{context}: 'page_id' must be a string")

    split = None
    if "split" in record:
        try:
            split = Split(record["split"])
        except ValueError:
            raise ManifestError(f"{context}: unknown split {record['split']!r}") from None
    agreement = record.get("agreement")
    if agreement is not None:
        if isinstance(agreement, bool) or not isinstance(agreement, (int, float)):
            raise ManifestError(f"{context}: 'agreement' must be a number")
        try:
            agreement = float(agreement)
        except OverflowError:
            raise ManifestError(f"{context}: 'agreement' is too large for a float") from None
        # Also rejects NaN, which compares false with everything.
        if not 0.0 <= agreement <= 100.0:
            raise ManifestError(f"{context}: 'agreement' must be in [0, 100], got {agreement}")

    entries = record.get("transcriptions")
    if not isinstance(entries, list) or not entries:
        raise ManifestError(f"{context}: 'transcriptions' must be a non-empty list")
    transcriptions = tuple(_parse_transcription(e, context) for e in entries)
    human_count = sum(1 for t in transcriptions if t.source.kind is SourceKind.HUMAN)
    if human_count not in (1, 2):
        raise ManifestError(
            f"{context}: expected 1 or 2 human transcriptions, found {human_count}"
        )
    return TranscribedLine(
        line_id=line_id,
        image_ref=image,
        transcriptions=transcriptions,
        page_id=page_id,
        split=split,
        agreement=agreement,
    )


def _require_utf8(line: TranscribedLine, context: str) -> None:
    # A \ud800-style JSON escape parses to a lone surrogate, which can never
    # be written back as UTF-8.
    fields = [("line_id", line.line_id), ("image", line.image_ref), ("page_id", line.page_id)]
    for t in line.transcriptions:
        fields += [("text", t.text), ("annotator", t.source.annotator_id)]
    for name, value in fields:
        if value is None:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ManifestError(f"{context}: '{name}' contains an unpaired surrogate") from None


def parse_manifest(path: str | Path) -> Corpus:
    """Read a newline-delimited JSON manifest, preserving record order.

    Raises:
        ManifestError: on invalid UTF-8 or malformed JSON (with the offending
            line number), duplicate line_ids, empty transcription lists,
            unknown source tags, or any other schema violation.
    """
    path = Path(path)
    lines: list[TranscribedLine] = []
    seen: set[str] = set()
    # Binary mode, so that a decoding error names its line.
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            context = f"{path.name}:{lineno}"
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ManifestError(
                    f"{context}: invalid UTF-8 at byte {exc.start} ({exc.reason})"
                ) from exc
            if not text.strip():
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{context}: malformed JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:
                # An integer past the interpreter's digit limit, or nesting
                # deeper than the decoder's recursion limit.
                raise ManifestError(f"{context}: unreadable JSON ({exc})") from exc
            line = _parse_line(record, context)
            # Only a \u escape can yield a lone surrogate, so lines without
            # one skip the check.
            if "\\u" in text:
                _require_utf8(line, context)
            if line.line_id in seen:
                raise ManifestError(f"{context}: duplicate line_id {line.line_id!r}")
            seen.add(line.line_id)
            lines.append(line)
    return Corpus(tuple(lines))


def _transcription_record(t: Transcription) -> dict:
    entry: dict = {"text": t.text, "source": t.source.kind.value}
    if t.source.annotator_id is not None:
        entry["annotator"] = t.source.annotator_id
    if t.uncertain:
        entry["uncertain"] = True
    return entry


def _line_record(line: TranscribedLine) -> dict:
    record: dict = {"line_id": line.line_id, "image": line.image_ref}
    if line.page_id is not None:
        record["page_id"] = line.page_id
    if line.split is not None:
        record["split"] = line.split.value
    if line.agreement is not None:
        record["agreement"] = line.agreement
    record["transcriptions"] = [_transcription_record(t) for t in line.transcriptions]
    return record


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write a file via a temp file + rename so readers never see a partial
    write and failures leave any previous file intact."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_manifest(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as newline-delimited JSON, preserving line order.

    ``parse_manifest(write_manifest(c))`` reproduces ``c`` line for line, and
    rewriting an unchanged corpus is byte-identical.
    """
    body = "".join(
        json.dumps(_line_record(line), ensure_ascii=False, allow_nan=False) + "\n"
        for line in corpus.lines
    )
    atomic_write_text(path, body)


@dataclass(frozen=True)
class StatsReport:
    total_lines: int
    two_human_lines: int
    per_source: dict[str, int]
    transcriptions_per_line: dict[int, int]

    @property
    def two_human_share(self) -> float:
        """Percentage of lines transcribed by exactly two human annotators."""
        if self.total_lines == 0:
            return 0.0
        return 100.0 * self.two_human_lines / self.total_lines

    @property
    def total_transcriptions(self) -> int:
        return sum(self.per_source.values())


def corpus_stats(corpus: Corpus) -> StatsReport:
    per_source: Counter[str] = Counter()
    per_line: Counter[int] = Counter()
    two_human = 0
    for line in corpus.lines:
        per_line[len(line.transcriptions)] += 1
        humans = 0
        for t in line.transcriptions:
            per_source[t.source.kind.value] += 1
            if t.source.kind is SourceKind.HUMAN:
                humans += 1
        if humans == 2:
            two_human += 1
    return StatsReport(
        total_lines=len(corpus.lines),
        two_human_lines=two_human,
        per_source=dict(sorted(per_source.items())),
        transcriptions_per_line=dict(sorted(per_line.items())),
    )
