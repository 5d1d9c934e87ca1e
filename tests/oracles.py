"""Independent reference implementations used to check the library.

These deliberately avoid the library's fast code paths: the edit distance
is a memoized top-down recursion, and the consensus oracle is a direct
per-position count. Expected values frozen in the test modules were computed
with these. The other references are the code the library ran before its
faster replacements: the numpy RASA iteration, the two-row edit-distance DP
and the full-table lattice merge.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

import numpy as np

from aggrescribe.metrics import sym_char_distance
from aggrescribe.rasa import EPSILON, MAX_ITERATIONS, TOLERANCE, RasaSelection
from aggrescribe.rover import NULL


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


def check_alignment(ops, source, target, distance) -> None:
    """Assert that ops is a complete monotone alignment of source onto
    target: every index is consumed in order, matches really match, and the
    non-match step count equals the distance. Replaying such an alignment on
    the source necessarily yields the target."""
    i_cursor = 0
    j_cursor = 0
    non_match = 0
    for kind, i, j in ops:
        if kind == "match":
            assert i == i_cursor and j == j_cursor
            assert source[i] == target[j]
            i_cursor += 1
            j_cursor += 1
        elif kind == "substitute":
            assert i == i_cursor and j == j_cursor
            assert source[i] != target[j]
            i_cursor += 1
            j_cursor += 1
            non_match += 1
        elif kind == "delete":
            assert i == i_cursor and j is None
            i_cursor += 1
            non_match += 1
        elif kind == "insert":
            assert i is None and j == j_cursor
            j_cursor += 1
            non_match += 1
        else:
            raise AssertionError(f"unknown op kind {kind!r}")
    assert i_cursor == len(source) and j_cursor == len(target)
    assert non_match == distance


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


def full_table_merge(slots: list[Counter], merged: int, seq: Sequence[str]) -> list[Counter]:
    """``rover._merge`` before banding: fills the whole cost table.

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
