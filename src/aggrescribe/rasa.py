"""Extractive transcription selection: the reliability-weighted medoid.

Each candidate gets a reliability weight; a candidate's score is its
weight-averaged distance to all others, and weights are refreshed as inverse
scores until they settle or an iteration cap is hit. The returned pick is
always one of the inputs (never a synthesized text): the candidate closest to
the weighted aggregate.

Distances come from the normalized symmetric character rate, so the whole
computation is deterministic and works without annotator identities. A line
has only a handful of candidates, so the iteration runs on plain Python floats.
Each round turns the scores into normalized inverse weights, then computes
every score once, as a left-to-right sum over its distance row; the last
round's scores make the final pick.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul, sub

from .metrics import sym_char_distance
from .corpus import (
    _RASA,
    Record,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    canonical_transcriptions,
)

#: Guards the inverse-score update when a candidate sits exactly on the
#: aggregate; far below any meaningful distance, so it never changes a pick.
EPSILON = 1e-6

MAX_ITERATIONS = 50
TOLERANCE = 1e-6

#: Final scores this close to the minimum count as tied, so the lowest index
#: among them wins. Exactly tied candidates (say, with permuted distance rows)
#: can come out a few ulps apart after summation, while scores that really
#: differ are, on lines of practical length, far further apart.
TIE_TOLERANCE = 1e-9

#: The source of every selected transcription, built once.
_SOURCE = TranscriptionSource(_RASA)


class RasaSelection(Record):
    """The chosen input's ``index`` (an int), the final per-candidate
    reliability ``weights`` (a tuple of floats), the update steps taken
    (``iterations``, an int) and whether the weight change dropped below
    tolerance before the iteration cap (``converged``, a bool).
    Near-degenerate inputs may run to the cap; the selection is still valid."""

    __slots__ = ("index", "weights", "iterations", "converged")


def distance_matrix(texts: Sequence[str]) -> list[list[float]]:
    """Symmetric matrix of normalized character distances, zero diagonal.

    Raises:
        ValueError: if the list is empty.
    """
    if not texts:
        raise ValueError("distance_matrix requires at least one text")
    n = len(texts)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = sym_char_distance(texts[i], texts[j])
    return matrix


def rasa_select(texts: Sequence[str]) -> RasaSelection:
    """Pick the input closest to the reliability-weighted aggregate.

    Weights start uniform; each round scores every candidate by its weighted
    mean distance to the others and resets weights to normalized inverse
    scores. Ties on the final score (within ``TIE_TOLERANCE``) go to the
    lowest index.

    Raises:
        ValueError: if the list is empty.
    """
    if not texts:
        raise ValueError("rasa_select requires at least one text")
    n = len(texts)
    if n == 1:
        return RasaSelection(index=0, weights=(1.0,), iterations=0, converged=True)

    matrix = distance_matrix(texts)
    weights = [1.0 / n] * n
    scores = [sum(map(mul, row, weights)) for row in matrix]
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        inverse = [1.0 / (EPSILON + score) for score in scores]
        total = sum(inverse)
        updated = [v / total for v in inverse]
        delta = max(map(abs, map(sub, updated, weights)))
        weights = updated
        scores = [sum(map(mul, row, weights)) for row in matrix]
        if delta < TOLERANCE:
            converged = True
            break

    best = min(scores)
    index = next(i for i, score in enumerate(scores) if score - best <= TIE_TOLERANCE)
    return RasaSelection(
        index=index,
        weights=tuple(weights),
        iterations=iterations,
        converged=converged,
    )


def selected_transcription(line: TranscribedLine) -> Transcription:
    """Pick among a line's human and automatic transcriptions, tagged as an
    aggregate source."""
    texts = [t.text for t in canonical_transcriptions(line)]
    pick = rasa_select(texts)
    return Transcription(text=texts[pick.index], source=_SOURCE)
