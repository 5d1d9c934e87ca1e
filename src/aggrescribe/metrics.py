"""Edit distance and the CER/WER/symmetric rates built on it.

All functions work on plain Python sequences: character-level callers pass
strings directly (a ``str`` is a sequence of Unicode scalars), word-level
callers pass the lists produced by ``str.split()``.

The rates, and through them RASA, the agreement score and the agreement
split, all count edits with one kernel: Myers' bit-vector algorithm in
Hyyrö's formulation (Myers 1999; Hyyrö 2003). It first trims the prefix and
suffix the two inputs share, which leaves the distance unchanged, then
computes the distance of the middles a column at a time, with one Python int
per bit vector, in one big-int step per token of the longer middle.
Near-identical readings thus cost a few steps, not one per character.
"""

from __future__ import annotations

from collections.abc import Sequence


def _distance(a: Sequence[str], b: Sequence[str]) -> int:
    # Shared ends never change a Levenshtein distance, so they are trimmed
    # first, the suffix bounded by what the prefix left of the shorter side.
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    start = 0
    while start < m and a[start] == b[start]:
        start += 1
    end = 0
    while end < m - start and a[m - 1 - end] == b[n - 1 - end]:
        end += 1
    a, b = a[start : m - end], b[start : n - end]
    # Bit-parallel Levenshtein distance (Hyyrö 2003). Bit i of the vectors
    # stands for row i of the DP column over the shorter sequence, the
    # pattern; pv/mv mark the rows whose vertical delta is +1/-1. ``score``
    # follows the last row, which ends at the distance.
    m = len(a)
    if not m:
        return len(b)
    peq: dict = {}
    for i, token in enumerate(a):
        peq[token] = peq.get(token, 0) | 1 << i
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = mask, 0, m
    for token in b:
        eq = peq.get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of a global alignment grows by one per column.
        ph = ph << 1 | 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def cer(hypothesis: str, reference: str) -> float:
    """Character error rate: edit distance divided by the reference length.

    May exceed 1.0 when the hypothesis is much longer than the reference.

    Raises:
        ValueError: if the reference is empty (the rate is undefined; use
            sym_char_distance when either side may be empty).
    """
    if not reference:
        raise ValueError("cer is undefined for an empty reference; use sym_char_distance")
    return _distance(hypothesis, reference) / len(reference)


def wer(hypothesis: str, reference: str) -> float:
    """Word error rate over whitespace-delimited tokens.

    Raises:
        ValueError: if the reference contains no word token.
    """
    ref_words = reference.split()
    if not ref_words:
        raise ValueError("wer is undefined for a reference with no word tokens")
    return _distance(hypothesis.split(), ref_words) / len(ref_words)


def sym_char_distance(a: str, b: str) -> float:
    """Symmetric character distance, normalized into [0, 1].

    Edit distance divided by the length of the longer string; 0.0 when both
    strings are empty. Equals 0 iff the strings are identical.
    """
    return _distance(a, b) / max(len(a), len(b), 1)
