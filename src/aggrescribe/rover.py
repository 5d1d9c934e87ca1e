"""Multi-sequence consensus through a token lattice with per-slot voting.

The lattice (a word-transition network) grows by folding the input sequences
one at a time: the current slot spine is aligned against the next sequence by
dynamic programming, aligned tokens join existing slots, and unmatched tokens
open new slots padded with a null marker for the sequences merged earlier.
Slots are plain ``token -> count`` dicts; the spine is private to the fold,
so each merge counts its tokens into the existing slots in place.

Alignment minimizes ``(indels, substitutions)`` lexicographically, so a slot
skip or a new slot is introduced only when a length difference forces one.
Equal-length inputs therefore always align position by position, which keeps
character-level voting an honest per-position majority.

The same order makes a banded DP exact (Ukkonen 1985). Aligning ``m`` slots
with ``n`` tokens takes at least ``|m - n|`` indels, and some path takes
exactly that many, so every optimal path does, all of one kind; its diagonal
``j - i`` then moves monotonically from 0 to ``n - m``. The merge fills only
those ``|m - n| + 1`` diagonals, and each cell there holds the full table's
value, because the optimal paths into it stay on the band as well. When the
lengths are equal the band is the main diagonal alone, so the merge joins
slot and token position by position and fills no table.

Voting picks the highest-multiplicity entry of each slot. The null marker is
eligible and wins only on strict plurality; among tied tokens the
lexicographically smallest wins, so the consensus is deterministic and does
not depend on slot-internal ordering.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .corpus import (
    ManifestError,
    Record,
    SourceKind,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    _set,
    canonical_transcriptions,
)

#: Marker for "this input contributes nothing at this slot".
NULL = None


class Granularity(Enum):
    CHARACTER = "char"
    WORD = "word"


class TokenLattice(Record):
    """Ordered slots of competing tokens.

    Each slot is a plain ``token -> count`` dict holding only the entries
    that occur, so looking up an absent token raises ``KeyError`` rather
    than giving 0. Every slot's total multiplicity equals ``num_inputs``,
    counting the null marker."""

    __slots__ = ("slots", "num_inputs")

    def __init__(self, slots: tuple[dict[str | None, int], ...], num_inputs: int) -> None:
        _set(self, "slots", slots)
        _set(self, "num_inputs", num_inputs)


class ConsensusResult(Record):
    __slots__ = ("text", "lattice", "per_slot_winner")

    def __init__(
        self, text: str, lattice: TokenLattice, per_slot_winner: tuple[str | None, ...]
    ) -> None:
        _set(self, "text", text)
        _set(self, "lattice", lattice)
        _set(self, "per_slot_winner", per_slot_winner)


def tokenize(text: str, level: Granularity) -> list[str]:
    """Character level yields Unicode scalars (spaces included); word level
    yields maximal non-whitespace runs."""
    if level is Granularity.CHARACTER:
        return list(text)
    return text.split()


def _merge(slots: list[dict], merged: int, seq: Sequence[str]) -> list[dict]:
    """Align one new token sequence against the slot spine and fold it in.

    The spine belongs to ``build_lattice``, so joined and skipped slots are
    counted up in place and reused in the returned spine. Equal lengths
    join position by position: the band is then the main diagonal alone.

    Otherwise costs are encoded as ``indels * base + substitutions`` with
    ``base`` larger than any possible substitution count, which orders paths
    by (indels, substitutions) lexicographically. Only the diagonals
    ``j - i`` in ``[min(0, n - m), max(0, n - m)]`` are filled; see the module
    docstring for why that is exact.
    """
    m, n = len(slots), len(seq)
    if m == n:
        for slot, token in zip(slots, seq):
            slot[token] = slot.get(token, 0) + 1
        return slots
    base = min(m, n) + 1
    indel = base
    lo, hi = min(0, n - m), max(0, n - m)
    # Off-band cells hold a cost above any path's, so neither the fill nor
    # the traceback ever picks one.
    unreachable = (m + n + 1) * indel
    cost = [[unreachable] * (n + 1) for _ in range(m + 1)]
    for j in range(hi + 1):
        cost[0][j] = j * indel
    for i in range(1, m + 1):
        row, prev = cost[i], cost[i - 1]
        slot = slots[i - 1]
        if i + lo <= 0:
            row[0] = i * indel
        for j in range(max(1, i + lo), min(n, i + hi) + 1):
            row[j] = min(
                prev[j - 1] + (seq[j - 1] not in slot),
                prev[j] + indel,
                row[j - 1] + indel,
            )

    # Traceback, preferring joins over slot skips over new slots. Each old
    # slot is visited once, after its last membership test.
    out: list[dict] = []
    i, j = m, n
    while i > 0 or j > 0:
        d = cost[i][j]
        if i > 0 and j > 0 and cost[i - 1][j - 1] + (seq[j - 1] not in slots[i - 1]) == d:
            slot = slots[i - 1]
            token = seq[j - 1]
            slot[token] = slot.get(token, 0) + 1
            out.append(slot)
            i, j = i - 1, j - 1
        elif i > 0 and cost[i - 1][j] + indel == d:
            slot = slots[i - 1]
            slot[NULL] = slot.get(NULL, 0) + 1
            out.append(slot)
            i -= 1
        else:
            out.append({seq[j - 1]: 1, NULL: merged})
            j -= 1
    out.reverse()
    return out


def build_lattice(sequences: Sequence[Sequence[str]]) -> TokenLattice:
    """Fold token sequences into a lattice, in list order.

    Raises:
        ValueError: if no sequence is given.
    """
    if not sequences:
        raise ValueError("build_lattice requires at least one token sequence")
    slots = [{token: 1} for token in sequences[0]]
    merged = 1
    for seq in sequences[1:]:
        slots = _merge(slots, merged, seq)
        merged += 1
    return TokenLattice(slots=tuple(slots), num_inputs=merged)


def vote(lattice: TokenLattice, level: Granularity = Granularity.CHARACTER) -> ConsensusResult:
    """Pick each slot's plurality entry and join the non-null winners."""
    winners: list[str | None] = []
    for slot in lattice.slots:
        if len(slot) == 1:
            winners.append(next(iter(slot)))
            continue
        top = max(slot.values())
        tied = [t for t, count in slot.items() if count == top and t is not NULL]
        winners.append(min(tied) if tied else NULL)
    emitted = [w for w in winners if w is not NULL]
    joiner = "" if level is Granularity.CHARACTER else " "
    return ConsensusResult(
        text=joiner.join(emitted),
        lattice=lattice,
        per_slot_winner=tuple(winners),
    )


def rover_consensus(
    texts: Sequence[str], level: Granularity = Granularity.CHARACTER
) -> ConsensusResult:
    """Consensus text for a list of transcriptions.

    A single input is returned verbatim. The fold is order-sensitive, so
    corpus-level callers should pass texts in the canonical order.

    Raises:
        ValueError: if the list is empty.
    """
    if not texts:
        raise ValueError("rover_consensus requires at least one text")
    lattice = build_lattice([tokenize(t, level) for t in texts])
    result = vote(lattice, level)
    if len(texts) == 1:
        return ConsensusResult(
            text=texts[0], lattice=lattice, per_slot_winner=result.per_slot_winner
        )
    return result


def consensus_transcription(
    line: TranscribedLine, level: Granularity = Granularity.CHARACTER
) -> Transcription:
    """Consensus over a line's human and automatic transcriptions, tagged as
    an aggregate source."""
    texts = [t.text for t in canonical_transcriptions(line)]
    text = rover_consensus(texts, level).text
    try:
        return Transcription(text=text, source=TranscriptionSource(SourceKind.AGGREGATE_ROVER))
    except ValueError:
        raise ManifestError(f"consensus for line {line.line_id!r} is empty") from None
