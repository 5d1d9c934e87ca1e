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

The record constructors are the schema: each checks its fields' types and
values and raises ``ValueError`` with the message a manifest line gets, so
the parser checks JSON shape only and passes each raw field on. Each
constructor checks its fields in signature order, every string through
``_check_text``, so a line that breaks several rules is reported at its
JSON shape, then at each reading's source tag, annotator, text or
``uncertain``, then at its ``line_id``, ``image``, human count,
``page_id``, ``split`` or ``agreement``, whichever fails first.

This module also defines the package's four enums: ``SourceKind`` and
``Split``, which a manifest stores, and ``Granularity`` and ``Strategy``,
ROVER's voting unit and the readings ``emit`` turns into rows. The other
modules, and the CLI's ``--level`` and ``--strategy`` choices, take them
from here. A record's constructor takes a member or its value and keeps
the member; any other value raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import json
import os
import unicodedata
from collections import Counter
from collections.abc import Iterator
from enum import Enum
from json.encoder import encode_basestring as _quote
from pathlib import Path


class ManifestError(ValueError):
    """A manifest violates the schema, or holds a line that a step cannot use."""


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


class Granularity(Enum):
    CHARACTER = "char"
    WORD = "word"


class Strategy(Enum):
    RANDOM_ONE = "random-one"
    RASA_ONE = "rasa-one"
    ROVER_ONE = "rover-one"
    ALL_HUMAN = "all-human"
    ALL_HUMAN_AUTO = "all-human-auto"
    ALL_WITH_AGGREGATES = "all"


#: Manifest strings to members, for the constructors, through ``_member``.
_KIND_BY_TAG = {kind.value: kind for kind in SourceKind}
_SPLIT_BY_NAME = {split.value: split for split in Split}

# Members bound once, in definition order, for this package's modules to
# import: an enum class attribute costs a lookup per use.
_HUMAN, _PYLAIA, _DAN, _ROVER, _RASA = SourceKind
_TRAIN, _VALIDATION, _TEST = Split
_CHARACTER, _WORD = Granularity
_RANDOM_ONE, _RASA_ONE, _ROVER_ONE, _ALL_HUMAN, _ALL_HUMAN_AUTO, _ALL = Strategy


def _member(table: dict, value: object, refusal: str) -> Enum:
    """The member ``table`` maps ``value`` to, or ``ValueError`` naming the value."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: a list or dict, which cannot be a key
        raise ValueError(f"{refusal} {value!r}") from None


def _check_text(field: str, value: object, row: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a string with no unpaired
    surrogate and, with ``row``, no tab or character ``str.splitlines`` ends
    a line at, which would split or shift a TSV row; a row break is reported
    first. None of them is printable, so a printable string returns at once."""
    if not isinstance(value, str):
        raise ValueError(f"'{field}' must be a string")
    if value.isprintable():
        return
    if row and ("\t" in value or "".join(value.splitlines()) != value):
        raise ValueError(
            f"'{field}' {value!r} contains a tab or newline and cannot be written as a TSV row"
        )
    # A \ud800-style JSON escape parses to a lone surrogate, which no UTF-8
    # file can hold.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"'{field}' contains an unpaired surrogate") from None


def _items(value: object, refusal: str) -> tuple:
    """``value``'s items as a tuple, or ``ValueError(refusal)`` if it does
    not iterate. An error raised while iterating propagates as it is."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(refusal) from None
    return tuple(items)


def _normalize(text: str) -> tuple[str, bool]:
    """``normalize_text``'s result, and whether it is known to be printable."""
    text = unicodedata.normalize("NFC", text)
    # Space is the only printable character ``str.split`` splits at, so a
    # printable text without a doubled, leading or trailing space is already
    # what splitting and joining it would give.
    if text.isprintable() and "  " not in text and text.strip(" ") == text:
        return text, True
    return " ".join(text.split()), False


def normalize_text(text: str) -> str:
    """NFC-normalize, trim, and collapse internal whitespace runs."""
    return _normalize(text)[0]


class Record:
    """Base of the package's immutable value types.

    Records are final; each declares all its fields in its own
    ``__slots__``, in order: ``__init_subclass__`` refuses a class that
    extends another record or declares no ``__slots__``, and compiles one
    function that sets each field. A record without value rules declares
    nothing more and gets it as its ``__init__``; a record with rules writes
    an ``__init__`` that checks its fields and ends with one
    ``self._set_fields(...)`` call, in slot order.
    Records compare equal only to records of the same class whose fields are
    equal, hash and print by their fields, and refuse assignment with
    ``AttributeError``. Unlike a ``NamedTuple`` a record is not a tuple: it
    neither iterates nor equals one. ``_replace(**changes)``, and so every ``with_*`` method, builds a
    copy with some fields changed through ``__init__``: the checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        for base in cls.__bases__:
            if base is not Record and issubclass(base, Record):
                raise TypeError(f"{cls.__qualname__} extends {base.__qualname__}, a final record")
        if "__slots__" not in cls.__dict__:  # its instances would get a __dict__
            raise TypeError(f"{cls.__qualname__} must declare its fields in __slots__")
        fields = cls.__slots__
        if isinstance(fields, str):  # one slot to Python, but iterated as letters here
            raise TypeError(f"{cls.__qualname__}.__slots__ must be a tuple of names, not a str")
        # Compiled as ``namedtuple`` compiles ``__new__``: straight-line calls
        # of each slot descriptor's ``__set__``, past ``Record.__setattr__``.
        name = "__init__" if cls.__init__ is object.__init__ else "_set_fields"
        scope = {f"_set_{field}": getattr(cls, field).__set__ for field in fields}
        scope["__name__"] = cls.__module__
        sets = "".join(f"\n    _set_{field}(self, {field})" for field in fields) or " pass"
        exec(f"def {name}(self, {', '.join(fields)}):{sets}", scope)
        setter = scope[name]
        setter.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, setter)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _replace(self, **changes) -> "Record":
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return self.__class__(**fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Copies and unpickled records go through __init__ like any other.
        return self.__class__, self._values()


class TranscriptionSource(Record):
    """Who or what made a reading: a ``SourceKind`` or its value, and on a
    human reading only, an ``annotator_id`` string."""

    __slots__ = ("kind", "annotator_id")

    def __init__(self, kind: SourceKind | str, annotator_id: str | None = None) -> None:
        if kind.__class__ is not SourceKind:
            kind = _member(_KIND_BY_TAG, kind, "unknown source tag")
        if annotator_id is not None:
            _check_text("annotator", annotator_id)
            if kind is not _HUMAN:
                raise ValueError("annotator_id is only allowed on human transcriptions")
        self._set_fields(kind, annotator_id)


class Transcription(Record):
    """One candidate text for a line, normalized on construction and
    non-empty afterwards, with its ``TranscriptionSource`` and a bool
    ``uncertain``."""

    __slots__ = ("text", "source", "uncertain")

    def __init__(self, text: str, source: TranscriptionSource, uncertain: bool = False) -> None:
        if not isinstance(text, str):
            raise ValueError("transcription is missing a string 'text'")
        cleaned, printable = _normalize(text)
        if not cleaned:
            raise ValueError("transcription text is empty after normalization")
        if not printable:
            _check_text("text", cleaned)
        if source.__class__ is not TranscriptionSource:
            raise ValueError("'source' must be a TranscriptionSource")
        if uncertain.__class__ is not bool:
            raise ValueError("'uncertain' must be a boolean")
        self._set_fields(cleaned, source, uncertain)


class TranscribedLine(Record):
    """One text-line image with one or two human transcriptions among its
    candidates, an optional ``page_id`` and ``split`` (kept as the member),
    and an optional ``agreement`` in [0, 100] (kept as a float). Its
    ``image_ref`` fits a TSV field, so any line can be written, read back
    and emitted, and no step checks for a missing human reading again.
    """

    __slots__ = ("line_id", "image_ref", "transcriptions", "page_id", "split", "agreement")

    def __init__(
        self,
        line_id: str,
        image_ref: str,
        transcriptions: tuple[Transcription, ...],
        page_id: str | None = None,
        split: Split | str | None = None,
        agreement: float | None = None,
    ) -> None:
        if not (isinstance(line_id, str) and line_id):
            raise ValueError("missing or empty 'line_id'")
        _check_text("line_id", line_id)
        if not (isinstance(image_ref, str) and image_ref):
            raise ValueError("missing or empty 'image'")
        _check_text("image", image_ref, row=True)
        refusal = "'transcriptions' must hold only Transcription records"
        transcriptions = _items(transcriptions, refusal)
        humans = 0
        for t in transcriptions:
            if t.__class__ is not Transcription:
                raise ValueError(refusal)
            if t.source.kind is _HUMAN:
                humans += 1
        if humans != 1 and humans != 2:
            raise ValueError(f"expected 1 or 2 human transcriptions, found {humans}")
        if page_id is not None:
            _check_text("page_id", page_id)
        if split.__class__ is not Split and split is not None:
            split = _member(_SPLIT_BY_NAME, split, "unknown split")
        if agreement.__class__ is not float and agreement is not None:
            if isinstance(agreement, bool) or not isinstance(agreement, (int, float)):
                raise ValueError("'agreement' must be a number")
            try:
                agreement = float(agreement)
            except OverflowError:
                raise ValueError("'agreement' is too large for a float") from None
        if agreement is not None and not 0.0 <= agreement <= 100.0:  # NaN too
            raise ValueError(f"'agreement' must be in [0, 100], got {agreement}")
        self._set_fields(line_id, image_ref, transcriptions, page_id, split, agreement)

    def of_kind(self, kind: SourceKind) -> tuple[Transcription, ...]:
        # A list, not a generator: ``tuple`` of a generator resumes it per item.
        return tuple([t for t in self.transcriptions if t.source.kind is kind])

    @property
    def human_transcriptions(self) -> tuple[Transcription, ...]:
        return self.of_kind(_HUMAN)

    def with_aggregate(self, transcription: Transcription) -> "TranscribedLine":
        """Append an aggregate transcription, replacing any existing one of
        the same kind so re-running an aggregation step stays idempotent."""
        kind = transcription.source.kind
        if kind is not _ROVER and kind is not _RASA:
            raise ValueError(f"{kind.value} is not an aggregate source")
        kept = [t for t in self.transcriptions if t.source.kind is not kind]
        return self._replace(transcriptions=(*kept, transcription))

    def with_split(self, split: Split | str | None) -> "TranscribedLine":
        return self._replace(split=split)

    def with_agreement(self, value: float) -> "TranscribedLine":
        return self._replace(agreement=value)


class Corpus(Record):
    """Immutable ordered collection of ``TranscribedLine`` records with
    distinct line_ids."""

    __slots__ = ("lines",)

    def __init__(self, lines: tuple[TranscribedLine, ...]) -> None:
        refusal = "'lines' must hold only TranscribedLine records"
        lines = _items(lines, refusal)
        seen: set[str] = set()
        for line in lines:
            if line.__class__ is not TranscribedLine:
                raise ValueError(refusal)
            if line.line_id in seen:
                raise ValueError(f"duplicate line_id {line.line_id!r}")
            seen.add(line.line_id)
        self._set_fields(lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[TranscribedLine]:
        return iter(self.lines)


def canonical_transcriptions(line: TranscribedLine) -> tuple[Transcription, ...]:
    """Transcriptions that participate in voting, in the canonical fold
    order: human (manifest order), then auto:pylaia, then auto:dan.
    Aggregates never vote."""
    return line.of_kind(_HUMAN) + line.of_kind(_PYLAIA) + line.of_kind(_DAN)


#: The characters JSON counts as whitespace. A manifest line made of these
#: alone is blank and skipped; other Unicode whitespace makes it malformed.
_JSON_WHITESPACE = " \t\r\n"


def _parse_line(record: object, sources: dict) -> TranscribedLine:
    """Check one decoded manifest record's JSON shape and build its line,
    passing each raw field to the records' constructors.

    The record must be an object whose ``transcriptions`` is a non-empty
    list of objects, and a ``split`` that is present must not be null;
    every rule on a field's type or value is its constructor's. Raises
    ``ManifestError``, or a constructor's ``ValueError``, with the bare
    reason; ``parse_manifest`` adds the ``file:line (line_id ...)`` context.
    ``sources`` holds one ``TranscriptionSource`` per ``(tag, annotator)`` met.
    """
    if not isinstance(record, dict):
        raise ManifestError("record must be a JSON object")
    get = record.get
    entries = get("transcriptions")
    if not isinstance(entries, list) or not entries:
        raise ManifestError("'transcriptions' must be a non-empty list")
    split = get("split")
    if split is None and "split" in record:
        raise ManifestError("unknown split None")
    transcriptions = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ManifestError("transcription entry must be an object")
        pair = entry.get("source"), entry.get("annotator")
        try:
            source = sources[pair]
        except (KeyError, TypeError):  # a new pair, or an unhashable value in it
            source = sources[pair] = TranscriptionSource(*pair)
        uncertain = entry.get("uncertain", False)
        transcriptions.append(Transcription(entry.get("text"), source, uncertain))
    return TranscribedLine(
        get("line_id"), get("image"), transcriptions, get("page_id"), split, get("agreement")
    )


def parse_manifest(path: str | Path) -> Corpus:
    """Read a newline-delimited JSON manifest, preserving record order.

    Each line must be UTF-8 and hold one JSON object (a line of JSON
    whitespace alone is skipped) with a non-empty list of transcription
    objects, no null ``split`` and a ``line_id`` no earlier line used. The
    records' constructors check every field's type and value, and their
    ``ValueError`` gets the same context. One ``TranscriptionSource`` is
    shared per ``(source, annotator)`` pair.

    Raises:
        ManifestError: naming ``file:line`` (and the ``line_id``, once the
            line has a valid one) for the first line that breaks a rule.
    """
    path = Path(path)
    # By line_id, in file order.
    lines: dict[str, TranscribedLine] = {}
    sources: dict = {}
    # Binary mode, so that a decoding error names its line.
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ManifestError(
                    f"{path.name}:{lineno}: invalid UTF-8 at byte {exc.start} ({exc.reason})"
                ) from exc
            if not text.strip(_JSON_WHITESPACE):
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path.name}:{lineno}: malformed JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:
                # An integer past the interpreter's digit limit, or nesting
                # deeper than the decoder's recursion limit.
                raise ManifestError(f"{path.name}:{lineno}: unreadable JSON ({exc})") from exc
            try:
                line = _parse_line(record, sources)
            except ValueError as exc:  # a ManifestError, or a constructor's rule
                line_id = record.get("line_id") if isinstance(record, dict) else None
                named = f" (line_id {line_id!r})" if isinstance(line_id, str) and line_id else ""
                raise ManifestError(f"{path.name}:{lineno}{named}: {exc}") from None
            if line.line_id in lines:
                raise ManifestError(f"{path.name}:{lineno}: duplicate line_id {line.line_id!r}")
            lines[line.line_id] = line
    return Corpus(tuple(lines.values()))


#: Numbers this process's temp files, so that a name is unique per process.
_TEMP_NUMBERS = itertools.count()

#: A new file only (``O_EXCL`` fails on any existing name, a symlink
#: included), with no newline translation where the platform has ``O_BINARY``.
_CREATE_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write_text(path: str | Path, content: str) -> None:
    """Write a file via a temp file + rename so readers never see a partial
    write and failures leave any previous file intact. The file gets the
    mode a plain ``open`` would give it under the umask."""
    path = Path(path)
    while True:
        tmp = path.parent / f".{path.name}.{os.getpid()}.{next(_TEMP_NUMBERS)}.tmp"
        try:
            # The kernel applies the umask to 0o666, as it does for ``open``.
            fd = os.open(tmp, _CREATE_NEW, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Fields by member value: ``member._value_`` is a plain attribute and a str
#: key hashes in C, where a member key calls ``Enum.__hash__`` per lookup.
_SPLIT_FIELD = {split.value: f', "split": "{split.value}"' for split in Split}
_SOURCE_FIELD = {kind.value: f', "source": "{kind.value}"' for kind in SourceKind}


def write_manifest(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as newline-delimited JSON, preserving line order.

    Each line is the text ``json.dumps(record, ensure_ascii=False,
    allow_nan=False)`` gives for the record dict, in the key order
    ``line_id``, ``image``, ``page_id``, ``split``, ``agreement``,
    ``transcriptions`` and, per transcription, ``text``, ``source``,
    ``annotator``, ``uncertain``. ``page_id``, ``split``, ``agreement``
    and ``annotator`` are left out when ``None``, ``uncertain`` when false.
    Items are separated by ``", "`` and keys from values by ``": "``;
    strings are quoted by ``json.encoder.encode_basestring``, which keeps
    non-ASCII text as is; the agreement is written by ``float.__repr__``.
    The text is built here directly rather than through a dict and the
    encoder, with no check: the constructors accept only writable lines.

    ``parse_manifest(write_manifest(c))`` reproduces ``c`` line for line, and
    rewriting an unchanged corpus is byte-identical.
    """
    quote = _quote
    out: list[str] = []
    add = out.append
    for line in corpus.lines:
        add('{"line_id": ')
        add(quote(line.line_id))
        add(', "image": ')
        add(quote(line.image_ref))
        if line.page_id is not None:
            add(', "page_id": ')
            add(quote(line.page_id))
        if line.split is not None:
            add(_SPLIT_FIELD[line.split._value_])
        if line.agreement is not None:
            add(', "agreement": ')
            add(float.__repr__(line.agreement))
        opening = ', "transcriptions": [{"text": '
        for t in line.transcriptions:
            source = t.source
            add(opening)
            add(quote(t.text))
            add(_SOURCE_FIELD[source.kind._value_])
            if source.annotator_id is not None:
                add(', "annotator": ')
                add(quote(source.annotator_id))
            if t.uncertain:
                add(', "uncertain": true')
            opening = '}, {"text": '
        add("}]}\n")
    atomic_write_text(path, "".join(out))


class StatsReport(Record):
    """Counts: ``total_lines`` and ``two_human_lines`` (ints), and the dicts
    ``per_source`` (tag to readings) and ``transcriptions_per_line`` (readings to lines)."""

    __slots__ = ("total_lines", "two_human_lines", "per_source", "transcriptions_per_line")

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
            per_source[t.source.kind._value_] += 1
            if t.source.kind is _HUMAN:
                humans += 1
        if humans == 2:
            two_human += 1
    return StatsReport(
        total_lines=len(corpus.lines),
        two_human_lines=two_human,
        per_source=dict(sorted(per_source.items())),
        transcriptions_per_line=dict(sorted(per_line.items())),
    )
