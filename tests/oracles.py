"""Independent reference implementations used to check the library.

These deliberately avoid the library's fast code paths: the edit distance
is a memoized top-down recursion, and the consensus oracle is a direct
per-position count. Expected values frozen in the test modules were computed
with these. The other references are the code the library ran before its
faster replacements: the numpy RASA iteration, the plain-float RASA
iteration with its per-round ``_scores`` helper, the two-row edit-distance DP,
the full-table lattice merge, the manifest parser, manifest writer and
emission code that ran before the one-pass parser and the direct JSON writer,
and the split rules as they were when they returned ``line_id`` → ``Split``
maps instead of line-ordered lists.
"""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from aggrescribe.assemble import EmissionRecord, Strategy
from aggrescribe.corpus import (
    Corpus,
    ManifestError,
    SourceKind,
    Split,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    atomic_write_text,
    canonical_transcriptions,
)
from aggrescribe.metrics import sym_char_distance
from aggrescribe.rasa import (
    EPSILON,
    MAX_ITERATIONS,
    TIE_TOLERANCE,
    TOLERANCE,
    RasaSelection,
    distance_matrix,
)
from aggrescribe.rover import NULL
from aggrescribe.splits import VALIDATION_BAND, SeededRng


def brute_edit_distance(a, b) -> int:
    """Recursive minimum edit distance, all three branches explored."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j + 1) + (a[i] != b[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


def dp_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Two-row Wagner-Fischer: the rate helpers' distance before the
    bit-parallel kernel replaced it."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ai in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, bj in enumerate(b, start=1):
            cur[j] = min(prev[j - 1] + (ai != bj), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


def positional_consensus(texts) -> str:
    """Per-position plurality over equal-length texts, ties to the smallest
    character. Valid only when all texts have the same length."""
    lengths = {len(t) for t in texts}
    assert len(lengths) == 1, "positional oracle needs equal-length inputs"
    out = []
    for chars in zip(*texts):
        counts = Counter(chars)
        top = max(counts.values())
        out.append(min(c for c, k in counts.items() if k == top))
    return "".join(out)


def numpy_rasa_select(texts) -> tuple[RasaSelection, list[float]]:
    """RASA on numpy arrays: ``matrix @ weights`` scores, ``np.argmin`` pick.

    Returns the selection and the final scores. The pick is argmin's, so an
    exact tie that BLAS rounding splits may go to a higher index; callers
    apply the tie rule to the returned scores themselves.
    """
    n = len(texts)
    if n == 1:
        return RasaSelection(index=0, weights=(1.0,), iterations=0, converged=True), [0.0]
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = sym_char_distance(texts[i], texts[j])
    weights = np.full(n, 1.0 / n)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        scores = matrix @ weights
        updated = 1.0 / (EPSILON + scores)
        updated /= updated.sum()
        delta = float(np.max(np.abs(updated - weights)))
        weights = updated
        if delta < TOLERANCE:
            converged = True
            break
    final_scores = matrix @ weights
    selection = RasaSelection(
        index=int(np.argmin(final_scores)),
        weights=tuple(float(w) for w in weights),
        iterations=iterations,
        converged=converged,
    )
    return selection, final_scores.tolist()


def _scores(matrix: list[list[float]], weights: list[float]) -> list[float]:
    # Each candidate's weighted sum of distances to the others.
    return [sum(d * w for d, w in zip(row, weights)) for row in matrix]


def reference_rasa_select(texts: Sequence[str]) -> RasaSelection:
    """The plain-float RASA loop as it was before the scores were computed
    in one place: ``_scores`` builds them at the top of every round and
    once more for the pick."""
    if not texts:
        raise ValueError("rasa_select requires at least one text")
    n = len(texts)
    if n == 1:
        return RasaSelection(index=0, weights=(1.0,), iterations=0, converged=True)

    matrix = distance_matrix(texts)
    weights = [1.0 / n] * n
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        inverse = [1.0 / (EPSILON + score) for score in _scores(matrix, weights)]
        total = sum(inverse)
        updated = [v / total for v in inverse]
        delta = max(abs(u - w) for u, w in zip(updated, weights))
        weights = updated
        if delta < TOLERANCE:
            converged = True
            break

    scores = _scores(matrix, weights)
    best = min(scores)
    index = next(i for i, score in enumerate(scores) if score - best <= TIE_TOLERANCE)
    return RasaSelection(
        index=index,
        weights=tuple(weights),
        iterations=iterations,
        converged=converged,
    )


def full_table_merge(slots: list[Counter], merged: int, seq: Sequence[str]) -> list[Counter]:
    """The full-table reference that ``rover._merge``, which aligns in gap
    coordinates, must match slot for slot.

    Costs are encoded as ``indels * base + substitutions`` with ``base``
    larger than any possible substitution count, which orders paths by
    (indels, substitutions) lexicographically.
    """
    m, n = len(slots), len(seq)
    base = min(m, n) + 1
    indel = base
    cost = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        cost[i][0] = i * indel
    for j in range(1, n + 1):
        cost[0][j] = j * indel
    for i in range(1, m + 1):
        row, prev = cost[i], cost[i - 1]
        slot = slots[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                prev[j - 1] + (seq[j - 1] not in slot),
                prev[j] + indel,
                row[j - 1] + indel,
            )

    # Traceback, preferring joins over slot skips over new slots.
    out: list[Counter] = []
    i, j = m, n
    while i > 0 or j > 0:
        d = cost[i][j]
        if i > 0 and j > 0 and cost[i - 1][j - 1] + (seq[j - 1] not in slots[i - 1]) == d:
            slot = slots[i - 1].copy()
            slot[seq[j - 1]] += 1
            out.append(slot)
            i, j = i - 1, j - 1
        elif i > 0 and cost[i - 1][j] + indel == d:
            slot = slots[i - 1].copy()
            slot[NULL] += 1
            out.append(slot)
            i -= 1
        else:
            out.append(Counter({seq[j - 1]: 1, NULL: merged}))
            j -= 1
    out.reverse()
    return out


def full_table_lattice(sequences) -> list[Counter]:
    """The slots of ``build_lattice(sequences)``, folded through
    ``full_table_merge``."""
    slots = [Counter({token: 1}) for token in sequences[0]]
    for merged, seq in enumerate(sequences[1:], start=1):
        slots = full_table_merge(slots, merged, seq)
    return slots


_KIND_BY_TAG = {kind.value: kind for kind in SourceKind}
_SPLIT_BY_NAME = {split.value: split for split in Split}


def reference_normalize_text(text: str) -> str:
    """``corpus.normalize_text`` before its fast path for texts that are
    already trimmed and collapsed."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def reference_breaks_row(value: str) -> bool:
    """The row-break half of ``corpus._check_tsv_field``, without its fast
    path for printable values: whether ``value`` holds a tab or a character
    ``str.splitlines`` ends a line at."""
    return "\t" in value or "".join(value.splitlines()) != value


def _parse_transcription(entry: object, context: str, sources: dict) -> Transcription:
    # The reading's rules in the order the constructors check them: its
    # source's, then its text's and ``uncertain``'s.
    if not isinstance(entry, dict):
        raise ManifestError(f"{context}: transcription entry must be an object")
    tag = entry.get("source")
    try:
        kind = _KIND_BY_TAG[tag]
    except (KeyError, TypeError):  # TypeError: a list or object as the tag
        raise ManifestError(f"{context}: unknown source tag {tag!r}") from None
    annotator = entry.get("annotator")
    if annotator is not None:
        if not isinstance(annotator, str):
            raise ManifestError(f"{context}: 'annotator' must be a string")
        if kind is not SourceKind.HUMAN:
            raise ManifestError(
                f"{context}: annotator_id is only allowed on human transcriptions"
            )
        _require_utf8("annotator", annotator, context)
    text = entry.get("text")
    if not isinstance(text, str):
        raise ManifestError(f"{context}: transcription is missing a string 'text'")
    cleaned = reference_normalize_text(text)
    if not cleaned:
        raise ManifestError(f"{context}: transcription text is empty after normalization")
    _require_utf8("text", cleaned, context)
    uncertain = entry.get("uncertain", False)
    if not isinstance(uncertain, bool):
        raise ManifestError(f"{context}: 'uncertain' must be a boolean")
    source = sources.get((tag, annotator))
    if source is None:
        source = sources[tag, annotator] = TranscriptionSource(kind, annotator)
    return Transcription(text, source, uncertain)


def _parse_line(record: object, context: str, sources: dict) -> TranscribedLine:
    # The line's JSON shape first, then each reading's rules, then the
    # line's own, in the order ``TranscribedLine`` checks them.
    if not isinstance(record, dict):
        raise ManifestError(f"{context}: record must be a JSON object")
    line_id = record.get("line_id")
    if isinstance(line_id, str) and line_id:
        context = f"{context} (line_id {line_id!r})"
    entries = record.get("transcriptions")
    if not isinstance(entries, list) or not entries:
        raise ManifestError(f"{context}: 'transcriptions' must be a non-empty list")
    if "split" in record and record["split"] is None:
        raise ManifestError(f"{context}: unknown split None")
    transcriptions = []
    human_count = 0
    for entry in entries:
        t = _parse_transcription(entry, context, sources)
        human_count += t.source.kind is SourceKind.HUMAN
        transcriptions.append(t)

    if not isinstance(line_id, str) or not line_id:
        raise ManifestError(f"{context}: missing or empty 'line_id'")
    image = record.get("image")
    if not isinstance(image, str) or not image:
        raise ManifestError(f"{context}: missing or empty 'image'")
    page_id = record.get("page_id")
    if page_id is not None and not isinstance(page_id, str):
        raise ManifestError(f"{context}: 'page_id' must be a string")
    # The image must fit a TSV field: no row break, then no unpaired surrogate.
    if reference_breaks_row(image):
        raise ManifestError(
            f"{context}: 'image' {image!r} contains a tab or newline and cannot be "
            "written as a TSV row"
        )
    _require_utf8("image", image, context)
    split = None
    if "split" in record:
        try:
            split = _SPLIT_BY_NAME[record["split"]]
        except (KeyError, TypeError):
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
    if human_count not in (1, 2):
        raise ManifestError(
            f"{context}: expected 1 or 2 human transcriptions, found {human_count}"
        )
    for name, value in (("line_id", line_id), ("page_id", page_id)):
        if value is not None:
            _require_utf8(name, value, context)
    return TranscribedLine(line_id, image, tuple(transcriptions), page_id, split, agreement)


def _require_utf8(name: str, value: str, context: str) -> None:
    # A \ud800-style JSON escape parses to a lone surrogate, which can never
    # be written back as UTF-8.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ManifestError(f"{context}: '{name}' contains an unpaired surrogate") from None


def reference_parse_manifest(path) -> Corpus:
    """``corpus.parse_manifest`` before the one-pass parser: each line goes
    through ``_parse_line`` and ``_parse_transcription`` with an eagerly
    built ``file:line (line_id ...)`` context, and every record through its
    public constructor. Blank lines were those ``str.strip`` empties. Every
    rule's check and message is its own, in the constructors' order: the
    line's JSON shape, then each reading's source, text and ``uncertain``,
    then the line's fields, so a faulty transcription is reported before a
    missing image. The context names a valid ``line_id`` whatever fault is
    reported."""
    path = Path(path)
    name = path.name
    lines: list[TranscribedLine] = []
    seen: set[str] = set()
    sources: dict = {}
    with path.open("rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            context = f"{name}:{lineno}"
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
                raise ManifestError(f"{context}: unreadable JSON ({exc})") from exc
            line = _parse_line(record, context, sources)
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


_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def reference_write_manifest(corpus: Corpus, path) -> None:
    """``corpus.write_manifest`` before it built JSON text itself: one dict
    per line, encoded by a ``JSONEncoder(ensure_ascii=False,
    allow_nan=False)``."""
    body = "".join(_ENCODER.encode(_line_record(line)) + "\n" for line in corpus.lines)
    atomic_write_text(path, body)


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
    if strategy is Strategy.RANDOM_ONE:
        if not humans:
            raise ManifestError(f"line {line.line_id!r} has no human transcription")
        return [humans[rng.randbelow(len(humans))]]
    if strategy is Strategy.RASA_ONE:
        return [_aggregate(line, SourceKind.AGGREGATE_RASA)]
    if strategy is Strategy.ROVER_ONE:
        return [_aggregate(line, SourceKind.AGGREGATE_ROVER)]
    if strategy is Strategy.ALL_HUMAN:
        return humans
    if strategy is Strategy.ALL_HUMAN_AUTO:
        return list(canonical_transcriptions(line))
    return list(canonical_transcriptions(line)) + [
        _aggregate(line, SourceKind.AGGREGATE_RASA),
        _aggregate(line, SourceKind.AGGREGATE_ROVER),
    ]


def reference_emit(corpus: Corpus, strategy: Strategy, seed: int = 0) -> list[EmissionRecord]:
    """``assemble.emit`` before positional records: each ``EmissionRecord``
    built by keyword."""
    rng = SeededRng(seed)
    records: list[EmissionRecord] = []
    for line in corpus.lines:
        if line.split is None:
            raise ManifestError(f"line {line.line_id!r} has no split annotation")
        if line.split is Split.TEST:
            humans = line.human_transcriptions
            if not humans:
                raise ManifestError(f"test line {line.line_id!r} has no human transcription")
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


_FILENAMES = {Split.TRAIN: "train.tsv", Split.VALIDATION: "val.tsv", Split.TEST: "test.tsv"}


def reference_write_ground_truth(records: Sequence[EmissionRecord], directory) -> dict[str, int]:
    """``assemble.write_ground_truth`` before it checked each image once per
    run of records sharing it: both fields of every record are checked for a
    row break, in record order. Returns the rows written per split value."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buckets: dict[Split, list[str]] = {split: [] for split in Split}
    for record in records:
        for label, value in (("image_ref", record.image_ref), ("text", record.text)):
            if reference_breaks_row(value):
                raise ValueError(
                    f"{label} {value!r} contains a tab or newline and cannot be "
                    "written as a TSV row"
                )
        buckets[record.split].append(f"{record.image_ref}\t{record.text}\n")
    for split, filename in _FILENAMES.items():
        atomic_write_text(directory / filename, "".join(buckets[split]))
    return {split.value: len(rows) for split, rows in buckets.items()}


def reference_agreement_split(corpus: Corpus) -> dict[str, Split]:
    """Assign each line by the two-annotator agreement rule.

    Lines with a single human transcription train; with two, the symmetric
    character distance decides: 0 tests, (0, 0.05) validates, anything else
    (the 5% boundary included) trains.

    Raises:
        ManifestError: if a line has no human transcription.
    """
    assignments: dict[str, Split] = {}
    for line in corpus.lines:
        humans = line.human_transcriptions
        if not humans:
            raise ManifestError(f"line {line.line_id!r} has no human transcription")
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


def reference_random_split(
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
