"""Aggregate noisy transcriptions of handwritten text lines.

Consensus voting over a token lattice, extractive weighted-medoid selection,
inter-annotation agreement scoring, agreement-based or seeded-random corpus
splitting, quality filtering, and training-manifest emission.

The names below are re-exported from their modules on first access
(PEP 562), so importing the package, as every ``python -m aggrescribe``
process does, loads none of them.
"""

__version__ = "0.1.0"

#: Each re-exported name and the module that defines it.
_HOMES = {
    "Corpus": "corpus",
    "ManifestError": "corpus",
    "SourceKind": "corpus",
    "Split": "corpus",
    "StatsReport": "corpus",
    "TranscribedLine": "corpus",
    "Transcription": "corpus",
    "TranscriptionSource": "corpus",
    "canonical_transcriptions": "corpus",
    "corpus_stats": "corpus",
    "normalize_text": "corpus",
    "parse_manifest": "corpus",
    "write_manifest": "corpus",
    "cer": "metrics",
    "sym_char_distance": "metrics",
    "wer": "metrics",
    "ConsensusResult": "rover",
    "Granularity": "rover",
    "TokenLattice": "rover",
    "build_lattice": "rover",
    "consensus_transcription": "rover",
    "rover_consensus": "rover",
    "tokenize": "rover",
    "vote": "rover",
    "RasaSelection": "rasa",
    "distance_matrix": "rasa",
    "rasa_select": "rasa",
    "selected_transcription": "rasa",
    "agreement_score": "quality",
    "filter_by_agreement": "splits",
    "SeededRng": "splits",
    "agreement_split": "splits",
    "apply_split": "splits",
    "random_split": "splits",
    "split_counts": "splits",
    "EmissionRecord": "assemble",
    "Strategy": "assemble",
    "emit": "assemble",
    "write_ground_truth": "assemble",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        # Also how ``from aggrescribe import cli`` learns to import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
