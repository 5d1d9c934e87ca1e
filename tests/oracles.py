"""Independent reference implementations used to check the library.

These deliberately avoid the library's iterative DP code paths: the edit
distance is a memoized top-down recursion, and the consensus oracle is a
direct per-position count. Expected values frozen in the test modules were
computed with these. The RASA reference is the numpy iteration the library
ran before it moved to plain floats.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from aggrescribe.metrics import sym_char_distance
from aggrescribe.rasa import EPSILON, MAX_ITERATIONS, TOLERANCE, RasaSelection


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
