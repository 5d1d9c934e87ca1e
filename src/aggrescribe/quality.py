"""Per-line agreement scoring and threshold-based training-set filtering.

The agreement score of a line is ``100 * (1 - mean normalized character
distance)`` between each of its human/automatic transcriptions and their
character-level consensus. 100 means every transcription is identical; the
mean distance is clamped at 1 so the score never goes negative.
"""

from __future__ import annotations

import math

from .corpus import Corpus, ManifestError, Split, TranscribedLine, canonical_transcriptions
from .metrics import sym_char_distance
from .rover import Granularity, rover_consensus


def agreement_score(line: TranscribedLine) -> float:
    """Score in [0, 100]; exactly 100 iff all transcriptions are identical.

    Only human and automatic transcriptions are scored; appended aggregates
    never influence the score.
    """
    texts = [t.text for t in canonical_transcriptions(line)]
    if not texts:
        raise ManifestError(f"line {line.line_id!r} has no votable transcriptions")
    consensus = rover_consensus(texts, Granularity.CHARACTER).text
    mean_distance = math.fsum(sym_char_distance(text, consensus) for text in texts) / len(texts)
    return 100.0 * (1.0 - min(1.0, mean_distance))


def annotate_agreement(corpus: Corpus) -> Corpus:
    """Attach each line's agreement score to the line."""
    return corpus.map_lines(lambda line: line.with_agreement(agreement_score(line)))


def filter_by_agreement(corpus: Corpus, threshold: float) -> Corpus:
    """Drop train lines whose agreement scores strictly below the threshold.

    Each line's split and score are read from the line itself. Validation and
    test lines pass through untouched; a line scoring exactly the threshold
    is retained.

    Raises:
        ValueError: on a threshold outside [0, 100].
        ManifestError: on a line without a split, or a train line without an
            agreement score.
    """
    if not 0.0 <= threshold <= 100.0:
        raise ValueError(f"threshold must be in [0, 100], got {threshold}")
    kept = []
    for line in corpus.lines:
        if line.split is None:
            raise ManifestError(f"line {line.line_id!r} has no split annotation")
        if line.split is not Split.TRAIN:
            kept.append(line)
            continue
        if line.agreement is None:
            raise ManifestError(f"train line {line.line_id!r} has no agreement score")
        if line.agreement >= threshold:
            kept.append(line)
    return Corpus(tuple(kept))
