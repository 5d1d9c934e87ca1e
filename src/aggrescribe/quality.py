"""Per-line agreement scoring.

The agreement score of a line is ``100 * (1 - mean normalized character
distance)`` between each of its human/automatic transcriptions and their
character-level consensus. 100 means every transcription is identical; each
normalized distance is at most 1, so the score never goes negative.
``splits.filter_by_agreement`` filters a training set by these scores.
"""

from __future__ import annotations

import math

from .corpus import TranscribedLine, canonical_transcriptions
from .metrics import sym_char_distance
from .rover import _CHARACTER, rover_consensus


def agreement_score(line: TranscribedLine) -> float:
    """Score in [0, 100]; exactly 100 iff all transcriptions are identical.

    Only human and automatic transcriptions are scored; appended aggregates
    never influence the score.
    """
    texts = [t.text for t in canonical_transcriptions(line)]
    consensus = rover_consensus(texts, _CHARACTER).text
    mean_distance = math.fsum(sym_char_distance(text, consensus) for text in texts) / len(texts)
    return 100.0 * (1.0 - mean_distance)
