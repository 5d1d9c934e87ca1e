"""The value types are slot records: equal by class and fields, hashable when
their fields are, immutable, printed by field, and rebuilt by ``_replace``."""

from __future__ import annotations

import copy
import pickle

import pytest

from aggrescribe import (
    ConsensusResult,
    Corpus,
    EmissionRecord,
    RasaSelection,
    SourceKind,
    Split,
    StatsReport,
    TokenLattice,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
)
from aggrescribe.corpus import Record

HUMAN = TranscriptionSource(SourceKind.HUMAN, "u1")
LINE = TranscribedLine("L1", "img/L1.png", (Transcription("bonjour", HUMAN),))
LATTICE = TokenLattice(({"a": 2}, {"b": 1, None: 1}), 2)


def samples():
    """Per class: a factory giving fresh equal instances, and a different
    instance of the same class."""
    return {
        TranscriptionSource: (
            lambda: TranscriptionSource(SourceKind.HUMAN, "u1"),
            TranscriptionSource(SourceKind.HUMAN, "u2"),
        ),
        Transcription: (
            lambda: Transcription("bonjour", HUMAN, True),
            Transcription("bonjour", HUMAN, False),
        ),
        TranscribedLine: (
            lambda: TranscribedLine(
                "L1", "img/L1.png", (Transcription("bonjour", HUMAN),), "P1", Split.TRAIN, 97.5
            ),
            TranscribedLine(
                "L1", "img/L1.png", (Transcription("bonjour", HUMAN),), "P1", Split.TEST, 97.5
            ),
        ),
        Corpus: (lambda: Corpus((LINE,)), Corpus(())),
        StatsReport: (
            lambda: StatsReport(3, 1, {"human": 4}, {1: 2, 2: 1}),
            StatsReport(3, 2, {"human": 4}, {1: 2, 2: 1}),
        ),
        TokenLattice: (
            lambda: TokenLattice(({"a": 2}, {"b": 1, None: 1}), 2),
            TokenLattice(({"a": 2},), 2),
        ),
        ConsensusResult: (
            lambda: ConsensusResult("ab", LATTICE, ("a", "b")),
            ConsensusResult("a", LATTICE, ("a", None)),
        ),
        RasaSelection: (
            lambda: RasaSelection(1, (0.25, 0.75), 4, True),
            RasaSelection(0, (0.25, 0.75), 4, True),
        ),
        EmissionRecord: (
            lambda: EmissionRecord("img/L1.png", "bonjour", Split.TRAIN, HUMAN),
            EmissionRecord("img/L1.png", "bonjour", Split.VALIDATION, HUMAN),
        ),
    }


CLASSES = list(samples())
# Dicts inside a field make a record unhashable, as they made the frozen
# dataclasses before.
UNHASHABLE = {StatsReport, TokenLattice, ConsensusResult}


def make(cls):
    return samples()[cls][0]()


def other(cls):
    return samples()[cls][1]


def twin_class(cls):
    """A record class with the same fields as ``cls`` but another identity."""

    class Twin(Record):
        __slots__ = cls.__slots__

        def __init__(self, *values):
            for name, value in zip(self.__slots__, values):
                object.__setattr__(self, name, value)

    return Twin


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_equal_fields_equal_records(self, cls):
        a, b = make(cls), make(cls)
        assert a is not b
        assert a == b and not a != b
        assert a != other(cls)

    def test_hash(self, cls):
        a, b = make(cls), make(cls)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b, other(cls)}) == 2

    def test_other_class_with_same_values_is_not_equal(self, cls):
        a = make(cls)
        twin = twin_class(cls)(*a._values())
        assert twin._values() == a._values()
        assert a != twin and twin != a
        assert a != a._values()

    def test_not_a_tuple(self, cls):
        a = make(cls)
        assert not isinstance(a, tuple)
        if cls is Corpus:  # iterates its lines, by its own __iter__
            assert list(a) == list(a.lines)
            return
        with pytest.raises(TypeError):
            iter(a)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        a = make(cls)
        name = cls.__slots__[0]
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert getattr(a, name) is before

    def test_repr_names_the_fields(self, cls):
        a = make(cls)
        text = repr(a)
        assert text.startswith(f"{cls.__name__}(")
        for name in cls.__slots__:
            assert f"{name}={getattr(a, name)!r}" in text

    def test_keyword_construction_equals_positional(self, cls):
        a = make(cls)
        assert cls(**dict(zip(cls.__slots__, a._values()))) == a

    def test_replace_builds_a_new_record(self, cls):
        a = make(cls)
        assert a._replace() == a and a._replace() is not a
        name = cls.__slots__[-1]
        changed = a._replace(**{name: getattr(other(cls), name)})
        assert getattr(changed, name) == getattr(other(cls), name)
        assert a == make(cls)
        with pytest.raises(TypeError):
            a._replace(no_such_field=1)

    def test_copy_and_pickle(self, cls):
        a = make(cls)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a


class TestDefaultsAndChecks:
    def test_defaults(self):
        assert TranscriptionSource(SourceKind.AUTO_DAN).annotator_id is None
        source = TranscriptionSource(SourceKind.HUMAN)
        assert source.annotator_id is None
        assert Transcription("a", source).uncertain is False
        line = TranscribedLine("L1", "i.png", [Transcription("a", source)])
        assert (line.page_id, line.split, line.agreement) == (None, None, None)
        assert isinstance(line.transcriptions, tuple)

    def test_missing_or_extra_arguments(self):
        with pytest.raises(TypeError):
            RasaSelection(0, (1.0,), 1)
        with pytest.raises(TypeError):
            TranscriptionSource(SourceKind.HUMAN, None, "extra")

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="only allowed on human"):
            HUMAN._replace(kind=SourceKind.AUTO_DAN)
        with pytest.raises(ValueError, match="empty"):
            Transcription("a", HUMAN)._replace(text="  ")
        assert Transcription("a", HUMAN)._replace(text=" b  c ").text == "b c"

    def test_corpus_rejects_duplicate_line_ids(self):
        with pytest.raises(ValueError, match="duplicate line_id 'L1'"):
            Corpus((LINE, LINE))
        with pytest.raises(ValueError, match="duplicate line_id 'L1'"):
            Corpus((LINE,))._replace(lines=[LINE, LINE])


class TestLineUpdates:
    def test_with_aggregate_returns_a_new_line(self):
        rover = Transcription("bonjour", TranscriptionSource(SourceKind.AGGREGATE_ROVER))
        updated = LINE.with_aggregate(rover)
        assert updated is not LINE
        assert updated.transcriptions == LINE.transcriptions + (rover,)
        assert len(LINE.transcriptions) == 1

    def test_with_split_returns_a_new_line(self):
        updated = LINE.with_split(Split.VALIDATION)
        assert updated.split is Split.VALIDATION
        assert LINE.split is None
        assert updated._replace(split=None) == LINE

    def test_with_agreement_returns_a_new_line(self):
        updated = LINE.with_agreement(88.0)
        assert updated.agreement == 88.0
        assert LINE.agreement is None
        assert updated._replace(agreement=None) == LINE
