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

Every optimal alignment of ``m`` slots with ``n`` tokens therefore leaves
exactly ``gaps = |m - n|`` items of the longer side unmatched, all of one
kind: new slots when the sequence is longer, skipped slots when the spine is.
Leaving an item of the shorter side unmatched too would take two more indels.
So the merge needs two moves, a join or a gap, and counts substitutions
alone; equal lengths leave no gap and fill no table.

Voting picks the highest-multiplicity entry of each slot. The null marker is
eligible and wins only on strict plurality; among tied tokens the
lexicographically smallest wins, so the consensus is deterministic and does
not depend on slot-internal ordering. A line whose vote leaves every slot
empty keeps its first human reading, marked ``uncertain``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .corpus import (
    _CHARACTER,
    _ROVER,
    Granularity,
    Record,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    _set,
    canonical_transcriptions,
)

#: Marker for "this input contributes nothing at this slot".
NULL = None

#: The source of every consensus transcription, built once.
_SOURCE = TranscriptionSource(_ROVER)


class TokenLattice(Record):
    """Ordered slots of competing tokens.

    Each slot is a plain ``token -> count`` dict holding only the entries
    that occur, so looking up an absent token raises ``KeyError`` rather
    than giving 0. Every slot's total multiplicity, the null marker
    included, equals the number of sequences folded into the lattice."""

    __slots__ = ("slots",)

    def __init__(self, slots: tuple[dict[str | None, int], ...]) -> None:
        _set(self, "slots", slots)


class ConsensusResult(Record):
    __slots__ = ("text", "lattice", "per_slot_winner")

    def __init__(
        self, text: str, lattice: TokenLattice, per_slot_winner: tuple[str | None, ...]
    ) -> None:
        _set(self, "text", text)
        _set(self, "lattice", lattice)
        _set(self, "per_slot_winner", per_slot_winner)


def tokenize(text: str, level: Granularity | str) -> list[str]:
    """Character level yields Unicode scalars (spaces included); word level
    yields maximal non-whitespace runs.

    ``level``, here and in ``vote`` and ``rover_consensus``, is a member or
    its value (``"char"``). A member costs one class identity test; a value
    goes through ``Granularity`` once.

    Raises:
        ValueError: if ``level`` is neither a member nor a member's value.
    """
    if level.__class__ is not Granularity:
        level = Granularity(level)
    if level is _CHARACTER:
        return list(text)
    return text.split()


def _merge(slots: list[dict], merged: int, seq: Sequence[str]) -> list[dict]:
    """Align one new token sequence against the slot spine and fold it in.

    The spine belongs to ``build_lattice``, so joined and skipped slots are
    counted up in place and reused in the returned spine.

    ``cost[r][k]`` is the fewest substitutions over ``r`` joins and ``k``
    gaps (see the module docstring). It ends at slot ``i`` and token ``j``,
    ``(i, j) = (r, r + k)`` when the sequence is longer, else ``(r + k, r)``.
    """
    m, n = len(slots), len(seq)
    if m == n:
        for slot, token in zip(slots, seq):
            slot[token] = slot.get(token, 0) + 1
        return slots
    grow = n > m
    gaps = abs(n - m)
    cost = [[0] * (gaps + 1)]
    for r in range(1, min(m, n) + 1):
        # A cell is the better of a join from the row above and a gap from
        # the cell to its left; ``left`` starts at r, which no cell exceeds.
        row = []
        left = r
        if grow:
            slot = slots[r - 1]
            for up, token in zip(cost[-1], seq[r - 1 : r + gaps]):
                join = up + (token not in slot)
                if join < left:
                    left = join
                row.append(left)
        else:
            token = seq[r - 1]
            for up, slot in zip(cost[-1], slots[r - 1 : r + gaps]):
                join = up + (token not in slot)
                if join < left:
                    left = join
                row.append(left)
        cost.append(row)

    # Traceback, preferring joins over gaps. Each old slot is visited once,
    # after its last membership test.
    out: list[dict] = []
    r, k = min(m, n), gaps
    while r or k:
        i, j = (r, r + k) if grow else (r + k, r)
        if r and cost[r - 1][k] + (seq[j - 1] not in slots[i - 1]) == cost[r][k]:
            token = seq[j - 1]
            r -= 1
        elif grow:
            out.append({seq[j - 1]: 1, NULL: merged})
            k -= 1
            continue
        else:
            token = NULL
            k -= 1
        slot = slots[i - 1]
        slot[token] = slot.get(token, 0) + 1
        out.append(slot)
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
    for merged, seq in enumerate(sequences[1:], start=1):
        slots = _merge(slots, merged, seq)
    return TokenLattice(slots=tuple(slots))


def vote(lattice: TokenLattice, level: Granularity | str = _CHARACTER) -> ConsensusResult:
    """Pick each slot's plurality entry and join the non-null winners.

    Raises:
        ValueError: if ``level`` is neither a member nor a member's value.
    """
    if level.__class__ is not Granularity:
        level = Granularity(level)
    winners: list[str | None] = []
    for slot in lattice.slots:
        if len(slot) == 1:
            winners.append(next(iter(slot)))
            continue
        top = max(slot.values())
        tied = [t for t, count in slot.items() if count == top and t is not NULL]
        winners.append(min(tied) if tied else NULL)
    emitted = [w for w in winners if w is not NULL]
    joiner = "" if level is _CHARACTER else " "
    return ConsensusResult(
        text=joiner.join(emitted),
        lattice=lattice,
        per_slot_winner=tuple(winners),
    )


def rover_consensus(
    texts: Sequence[str], level: Granularity | str = _CHARACTER
) -> ConsensusResult:
    """Consensus text for a list of transcriptions.

    A single input is returned verbatim. The fold is order-sensitive, so
    corpus-level callers should pass texts in the canonical order.

    Raises:
        ValueError: if the list is empty, or ``level`` is not a granularity.
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
    line: TranscribedLine, level: Granularity | str = _CHARACTER
) -> Transcription:
    """Consensus over a line's canonical readings, as an aggregate source;
    an empty vote gives the first reading, marked ``uncertain``.

    Raises:
        ValueError: if ``level`` is not a granularity.
    """
    texts = [t.text for t in canonical_transcriptions(line)]
    voted = rover_consensus(texts, level).text
    try:
        return Transcription(text=voted, source=_SOURCE)
    except ValueError:  # the vote is empty
        return Transcription(text=texts[0], source=_SOURCE, uncertain=True)
