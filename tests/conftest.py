from __future__ import annotations

import os
from pathlib import Path

import pytest

import aggrescribe
from aggrescribe import (
    Corpus,
    SourceKind,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
)

_AUTO_KINDS = (SourceKind.AUTO_PYLAIA, SourceKind.AUTO_DAN)


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child Python that must import this same package.

    A child may run in another directory, where a relative PYTHONPATH entry
    would miss the package, so the directory it was imported from goes first.
    """
    src = str(Path(aggrescribe.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def build_line(
    line_id: str,
    humans=("bonjour",),
    autos=(),
    rover: str | None = None,
    rasa: str | None = None,
    image: str | None = None,
    page_id: str | None = None,
    split=None,
    agreement=None,
) -> TranscribedLine:
    transcriptions = [Transcription(t, TranscriptionSource(SourceKind.HUMAN)) for t in humans]
    transcriptions += [
        Transcription(t, TranscriptionSource(_AUTO_KINDS[i])) for i, t in enumerate(autos)
    ]
    if rasa is not None:
        transcriptions.append(
            Transcription(rasa, TranscriptionSource(SourceKind.AGGREGATE_RASA))
        )
    if rover is not None:
        transcriptions.append(
            Transcription(rover, TranscriptionSource(SourceKind.AGGREGATE_ROVER))
        )
    return TranscribedLine(
        line_id=line_id,
        image_ref=image or f"images/{line_id}.png",
        transcriptions=tuple(transcriptions),
        page_id=page_id,
        split=split,
        agreement=agreement,
    )


@pytest.fixture
def make_line():
    return build_line


@pytest.fixture
def make_corpus():
    def _make(*lines) -> Corpus:
        return Corpus(tuple(lines))

    return _make
