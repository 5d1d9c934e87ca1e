"""Aggregate noisy transcriptions of handwritten text lines.

Consensus voting over a token lattice, extractive weighted-medoid selection,
inter-annotation agreement scoring, agreement-based or seeded-random corpus
splitting, quality filtering, and training-manifest emission.
"""

from .corpus import (
    Corpus,
    ManifestError,
    SourceKind,
    Split,
    StatsReport,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    canonical_transcriptions,
    corpus_stats,
    normalize_text,
    parse_manifest,
    write_manifest,
)
from .metrics import EditAlignment, cer, edit_distance, sym_char_distance, wer
from .rover import (
    ConsensusResult,
    Granularity,
    TokenLattice,
    build_lattice,
    consensus_transcription,
    rover_consensus,
    tokenize,
    vote,
)
from .rasa import RasaSelection, distance_matrix, rasa_select, selected_transcription
from .quality import agreement_score, annotate_agreement, filter_by_agreement
from .splits import (
    SeededRng,
    agreement_split,
    apply_split,
    random_split,
    split_counts,
)
from .assemble import EmissionRecord, Strategy, emit, write_ground_truth

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "ManifestError",
    "SourceKind",
    "Split",
    "StatsReport",
    "TranscribedLine",
    "Transcription",
    "TranscriptionSource",
    "canonical_transcriptions",
    "corpus_stats",
    "normalize_text",
    "parse_manifest",
    "write_manifest",
    "EditAlignment",
    "cer",
    "edit_distance",
    "sym_char_distance",
    "wer",
    "ConsensusResult",
    "Granularity",
    "TokenLattice",
    "build_lattice",
    "consensus_transcription",
    "rover_consensus",
    "tokenize",
    "vote",
    "RasaSelection",
    "distance_matrix",
    "rasa_select",
    "selected_transcription",
    "agreement_score",
    "annotate_agreement",
    "filter_by_agreement",
    "SeededRng",
    "agreement_split",
    "apply_split",
    "random_split",
    "split_counts",
    "EmissionRecord",
    "Strategy",
    "emit",
    "write_ground_truth",
]
