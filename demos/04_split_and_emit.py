"""From a raw manifest to trainer-ready ground truth, end to end.

Parses the bundled 50-line synthetic manifest, appends both aggregate
transcriptions, splits by annotator agreement, and writes per-split TSVs
under each emission strategy.
"""

import tempfile
from pathlib import Path

from aggrescribe import (
    Corpus,
    Split,
    Strategy,
    agreement_split,
    apply_split,
    emit,
    parse_manifest,
    split_counts,
    write_ground_truth,
)
from aggrescribe.rasa import selected_transcription
from aggrescribe.rover import consensus_transcription

manifest = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "synthetic_50.jsonl"
corpus = parse_manifest(manifest)
print(f"Parsed {len(corpus)} lines from {manifest.name}")

# Append the two aggregate transcriptions every retention strategy needs.
corpus = Corpus(
    tuple(
        line.with_aggregate(consensus_transcription(line)).with_aggregate(
            selected_transcription(line)
        )
        for line in corpus.lines
    )
)

# Identical human readings go to test, near-identical to validation.
corpus = apply_split(corpus, agreement_split(corpus))
counts = split_counts(line.split for line in corpus)
total = len(corpus)
print("\nAgreement-based split:")
for split in (Split.TRAIN, Split.VALIDATION, Split.TEST):
    print(f"  {split.value:<5} {counts[split]:>3}  ({100 * counts[split] / total:.1f}%)")

# Each strategy expands train/validation lines differently; test lines always
# emit exactly one human transcription.
print("\nRecords emitted per strategy:")
workdir = Path(tempfile.mkdtemp(prefix="aggrescribe_demo_"))
for strategy in Strategy:
    records = emit(corpus, strategy, seed=42)
    out = workdir / strategy.value
    write_ground_truth(records, out)
    by_split = {
        s.value: sum(1 for r in records if r.split is s) for s in Split
    }
    print(f"  {strategy.value:<15} {by_split}")

sample = (workdir / "all" / "train.tsv").read_text(encoding="utf-8").splitlines()[:6]
print(f"\nFirst rows of {workdir / 'all' / 'train.tsv'}:")
for row in sample:
    print(f"  {row}")
