"""Score inter-annotation agreement and filter a training set with it.

Each line's score is 100 * (1 - mean normalized character distance) between
its transcriptions and their character-level consensus: 100 means perfect
agreement, lower means the readings disagree. Filtering drops low-agreement
train lines while never touching validation or test.
"""

from aggrescribe import (
    Corpus,
    SourceKind,
    Split,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    agreement_score,
    filter_by_agreement,
)

HUMAN = TranscriptionSource(SourceKind.HUMAN)
PYLAIA = TranscriptionSource(SourceKind.AUTO_PYLAIA)
DAN = TranscriptionSource(SourceKind.AUTO_DAN)


def line(line_id, split, *texts):
    sources = [HUMAN, HUMAN, PYLAIA, DAN][: len(texts)]
    return TranscribedLine(
        line_id=line_id,
        image_ref=f"images/{line_id}.png",
        transcriptions=tuple(Transcription(t, s) for t, s in zip(texts, sources)),
        split=split,
    )


corpus = Corpus(
    (
        line("clean", Split.TEST, "nomination des membres", "nomination des membres",
             "nomination des membres", "nomination des membres"),
        line("typo", Split.TRAIN, "le receveur présente son rapport",
             "le receveur présente son rapport", "le receveur presente son rapport",
             "le receveur présente son raport"),
        line("messy", Split.TRAIN, "adjudication des travaux", "les travaux de voirie",
             "adjudication travaux", "adjudmication des travaur"),
    )
)

print("Agreement scores:")
for entry in corpus:
    print(f"  {entry.line_id:<6} {agreement_score(entry):6.2f}")

# The filter reads each line's split and score from the line itself, so
# annotate the scores first. Retention shrinks monotonically with the
# threshold and only train lines are ever dropped.
corpus = Corpus(tuple(entry.with_agreement(agreement_score(entry)) for entry in corpus.lines))

print("\nThreshold sweep (train lines retained):")
for threshold in (0, 90, 97, 99):
    kept = filter_by_agreement(corpus, threshold)
    train_kept = [l.line_id for l in kept if l.split is Split.TRAIN]
    print(f"  >= {threshold:>3}%: {train_kept} (+ test line 'clean' always kept)")
