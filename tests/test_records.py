"""The value types are slot records: equal by class and fields, hashable when
their fields are, immutable, printed by field, and rebuilt by ``_replace``.
Any record their constructors accept can be written, read back and emitted."""

from __future__ import annotations

import copy
import inspect
import itertools
import json
import pickle
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aggrescribe import (
    ConsensusResult,
    Corpus,
    EmissionRecord,
    ManifestError,
    RasaSelection,
    SourceKind,
    Split,
    StatsReport,
    Strategy,
    TokenLattice,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    canonical_transcriptions,
    filter_by_agreement,
    parse_manifest,
    write_ground_truth,
    write_manifest,
)
from aggrescribe.corpus import Record

HUMAN = TranscriptionSource(SourceKind.HUMAN, "u1")
LINE = TranscribedLine("L1", "img/L1.png", (Transcription("bonjour", HUMAN),))
LATTICE = TokenLattice(({"a": 2}, {"b": 1, None: 1}))


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
            lambda: TokenLattice(({"a": 2}, {"b": 1, None: 1})),
            TokenLattice(({"a": 2},)),
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
# The records that hold no value rule, and so declare only their fields.
RULELESS = [StatsReport, TokenLattice, ConsensusResult, RasaSelection]
# The records that write an ``__init__`` and so get a ``_set_fields``.
RULED = [cls for cls in CLASSES if cls not in RULELESS]


def make(cls):
    return samples()[cls][0]()


def other(cls):
    return samples()[cls][1]


def twin_class(cls):
    """A record class with the same fields as ``cls`` but another identity."""

    class Twin(Record):
        __slots__ = cls.__slots__

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

    def test_signature_is_the_slots(self, cls):
        # A record with rules passes its arguments to ``_set_fields`` in this order.
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__

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
            TranscriptionSource(SourceKind.HUMAN, None, "extra")
        # A record without value rules gets the constructor a ``def`` would
        # be: its fields, in order, and Python's own argument errors.
        for cls in RULELESS:
            assert cls.__init__.__code__.co_filename == "<string>"  # compiled, not written
            assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
            values, first, last = make(cls)._values(), cls.__slots__[0], cls.__slots__[-1]
            missing = f"{cls.__name__}.__init__() missing 1 required positional argument: '{last}'"
            with pytest.raises(TypeError, match=f"^{re.escape(missing)}$"):
                cls(*values[:-1])
            with pytest.raises(TypeError, match=f"^{cls.__name__}.__init__.* were given$"):
                cls(*values, "extra")
            with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
                cls(*values, **{first: values[0]})
            with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
                cls(*values, extra=1)

    def test_records_with_rules_get_a_compiled_setter(self):
        assert [cls for cls in CLASSES if hasattr(cls, "_set_fields")] == RULED
        for cls in RULED:
            a = make(cls)
            values, n = a._values(), len(cls.__slots__)
            with pytest.raises(TypeError, match=f"^{cls.__name__}._set_fields\\(\\) missing 1 "):
                a._set_fields(*values[:-1])
            given = f"takes {n + 1} positional arguments but {n + 2} were given$"
            with pytest.raises(TypeError, match=f"^{cls.__name__}._set_fields\\(\\) {given}"):
                a._set_fields(*values, "extra")
            assert a == make(cls)

    def test_record_without_fields(self):
        class Marker(Record):
            __slots__ = ()

        assert Marker() == Marker() and repr(Marker()).endswith(".Marker()")
        with pytest.raises(TypeError):
            Marker(1)

    def test_str_slots_refused(self):
        # One slot to Python, which the record would take for one per letter.
        refusal = r"\.Named\.__slots__ must be a tuple of names, not a str$"
        with pytest.raises(TypeError, match=refusal):
            class Named(Record):
                __slots__ = "name"

    def test_records_are_final(self):
        # A subclass would inherit a setter, and a field list, that miss
        # the fields it adds, and every record-typed field refuses it.
        bodies = ({}, {"__slots__": ()}, {"__slots__": ("extra",)})
        for cls, body in itertools.product(CLASSES, bodies):
            with pytest.raises(TypeError, match=f"^Sub extends {cls.__name__}, a final record$"):
                type("Sub", (cls,), body)
        with pytest.raises(TypeError, match=r"\.Bare must declare its fields in __slots__$"):
            class Bare(Record):
                pass

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


def _two_readings(kind, split):
    """A line scoring 50 with a human reading and one of ``kind``."""
    readings = [Transcription("bonjour", HUMAN)]
    readings.append(Transcription("bonsoir", TranscriptionSource(kind)))
    return TranscribedLine("L1", "img/L1.png", readings, split=split, agreement=50.0)


class TestValuesActAsMembers:
    """A record given an enum member's value holds the member, so it filters,
    writes and emits as the record built from the member; any other value is
    refused with ``ValueError``."""

    @pytest.mark.parametrize(
        "kind, split",
        list(zip(SourceKind, itertools.cycle(Split))),
        ids=lambda member: member.value,
    )
    def test_value_builds_the_member_record(self, kind, split, tmp_path):
        member = _two_readings(kind, split)
        from_value = _two_readings(kind.value, split.value)
        assert from_value == member
        assert (from_value.split, from_value.transcriptions[1].source.kind) == (split, kind)
        assert _two_readings(kind.value, None).with_split(split.value) == member
        write_manifest(Corpus((from_value,)), tmp_path / "value.jsonl")
        write_manifest(Corpus((member,)), tmp_path / "member.jsonl")
        assert (tmp_path / "value.jsonl").read_bytes() == (tmp_path / "member.jsonl").read_bytes()
        assert parse_manifest(tmp_path / "value.jsonl") == Corpus((member,))

        row = EmissionRecord("img/L1.png", "bonsoir", split.value, TranscriptionSource(kind.value))
        assert row == EmissionRecord("img/L1.png", "bonsoir", split, TranscriptionSource(kind))
        counts = write_ground_truth([row], tmp_path / "gt")
        assert counts == {s.value: int(s is split) for s in Split}

    def test_split_value_is_filtered_as_its_member(self):
        line = _two_readings(SourceKind.AUTO_DAN, "train")
        assert filter_by_agreement(Corpus((line,)), 90) == Corpus(())
        assert filter_by_agreement(Corpus((line.with_split("val"),)), 90).lines == (
            line.with_split(Split.VALIDATION),
        )

    def test_kind_value_votes_as_its_member(self):
        line = _two_readings("auto:pylaia", None)
        assert [t.text for t in canonical_transcriptions(line)] == ["bonjour", "bonsoir"]

    @pytest.mark.parametrize(
        "value", ["bogus", "TRAIN", "Human", Strategy.ALL_HUMAN, 1, ["train"], 2.5, True, {}]
    )
    def test_other_values_refused(self, value):
        for build, refusal in [
            (lambda: _two_readings(SourceKind.AUTO_DAN, value), "unknown split"),
            (lambda: LINE.with_split(value), "unknown split"),
            (lambda: EmissionRecord("img/L1.png", "bonjour", value, HUMAN), "unknown split"),
            (lambda: TranscriptionSource(value), "unknown source tag"),
        ]:
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == f"{refusal} {value!r}"

    def test_emission_record_refuses_no_split(self):
        with pytest.raises(ValueError):
            EmissionRecord("img/L1.png", "bonjour", None, HUMAN)

    @pytest.mark.parametrize("uncertain", ["no", "", 0, 1, None])
    def test_uncertain_must_be_a_bool(self, uncertain):
        with pytest.raises(ValueError, match="'uncertain' must be a boolean"):
            Transcription("bonjour", HUMAN, uncertain)


#: A value of each JSON type but string and null, which no string field takes.
_WRONG_TYPES = [5, 2.5, True, ["a"], {"a": 1}]

#: Per record field, its manifest key and the manifest's message for a value
#: of the wrong type; ``None`` is included where the field is required.
_TYPE_RULES = [
    ("kind", "source", [*_WRONG_TYPES, None], "unknown source tag {!r}"),
    ("annotator_id", "annotator", _WRONG_TYPES, "'annotator' must be a string"),
    ("text", "text", [*_WRONG_TYPES, None], "transcription is missing a string 'text'"),
    ("uncertain", "uncertain", [5, 2.5, ["a"], {"a": 1}, None], "'uncertain' must be a boolean"),
    ("line_id", "line_id", [*_WRONG_TYPES, None], "missing or empty 'line_id'"),
    ("image_ref", "image", [*_WRONG_TYPES, None], "missing or empty 'image'"),
    ("page_id", "page_id", _WRONG_TYPES, "'page_id' must be a string"),
    ("split", "split", _WRONG_TYPES, "unknown split {!r}"),
    ("agreement", "agreement", [True, "50", ["a"], {"a": 1}], "'agreement' must be a number"),
]


def _build_with(field, value):
    """One line built through the three constructors, with ``field`` set to
    ``value``."""
    fields = dict(kind="human", annotator_id="u1", text="bonjour", uncertain=False,
                  line_id="L1", image_ref="img/L1.png", page_id="P1", split="train",
                  agreement=50.0)
    fields[field] = value
    source = TranscriptionSource(fields.pop("kind"), fields.pop("annotator_id"))
    reading = Transcription(fields.pop("text"), source, fields.pop("uncertain"))
    return TranscribedLine(transcriptions=[reading], **fields)


class TestWrongTypes:
    """A wrongly typed field makes its constructor raise ``ValueError`` with
    the message a manifest line gets for the same value."""

    @pytest.mark.parametrize(
        "field, key, value, message",
        [pytest.param(field, key, value, message.format(value), id=f"{field}={value!r}")
         for field, key, values, message in _TYPE_RULES
         for value in values],
    )
    def test_refused_with_the_manifest_message(self, field, key, value, message, tmp_path):
        with pytest.raises(ValueError) as excinfo:
            _build_with(field, value)
        assert excinfo.type is ValueError
        assert str(excinfo.value) == message
        rec = {"line_id": "L1", "image": "img/L1.png", "page_id": "P1", "split": "train",
               "agreement": 50.0, "transcriptions": [{"text": "bonjour", "source": "human",
                                                      "annotator": "u1", "uncertain": False}]}
        owner = rec if key in rec else rec["transcriptions"][0]
        owner[key] = value
        path = tmp_path / "typed.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value).endswith(f": {message}")

    @pytest.mark.parametrize("value", [5, 2.5, True, ["a"], {}, None])
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda v: EmissionRecord(v, "bonjour", Split.TRAIN, HUMAN),
             "'image_ref' must be a string"),
            (lambda v: EmissionRecord("img/L1.png", v, Split.TRAIN, HUMAN),
             "'text' must be a string"),
            (lambda v: EmissionRecord("img/L1.png", "bonjour", Split.TRAIN, v),
             "'source' must be a TranscriptionSource"),
            (lambda v: Transcription("bonjour", v), "'source' must be a TranscriptionSource"),
            (lambda v: TranscribedLine("L1", "img/L1.png", [v]),
             "'transcriptions' must hold only Transcription records"),
        ],
        ids=["emission-image_ref", "emission-text", "emission-source", "transcription-source",
             "line-transcriptions-item"],
    )
    def test_library_only_fields_refused(self, build, message, value):
        # Fields a manifest cannot hold a wrong type in, since the parser
        # builds them, or which only ``emit`` builds.
        with pytest.raises(ValueError) as excinfo:
            build(value)
        assert excinfo.type is ValueError
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: TranscribedLine("L1", "img/L1.png", 5),
             "'transcriptions' must hold only Transcription records"),
            (lambda: TranscribedLine("L1", "img/L1.png", None),
             "'transcriptions' must hold only Transcription records"),
            (lambda: Corpus(["a"]), "'lines' must hold only TranscribedLine records"),
            (lambda: Corpus(5), "'lines' must hold only TranscribedLine records"),
        ],
        ids=["line-transcriptions-int", "line-transcriptions-none", "corpus-item", "corpus-int"],
    )
    def test_collection_refused(self, build, message):
        # A collection that does not iterate, or holds another kind of item.
        with pytest.raises(ValueError) as excinfo:
            build()
        assert excinfo.type is ValueError
        assert str(excinfo.value) == message


#: Strings a constructor must keep or refuse: each odd character alone, and
#: mixes of tabs, line breaks, lone surrogates, spaces, quotes, controls and
#: non-ASCII letters.
_ODD_CHARACTERS = ["é", "\U0001d11e", " ", '"', "\\", "\t", "\n", "\r", "\x0c", "\x85",
                   "\u2028", "\x00", "\ud800", "\udfff"]
_tricky_strings = st.sampled_from([f"a{c}b" for c in _ODD_CHARACTERS]) | st.text(
    alphabet=st.sampled_from(["a", *_ODD_CHARACTERS]), max_size=4
)
_tricky_agreements = (
    st.none()
    | st.sampled_from(
        [97, 0, 100, -1, 101, 100.5, -0.0, 5e-324, 10**400, True, "50",
         float("nan"), float("inf"), -float("inf")]
    )
    | st.floats()
    | st.integers()
)


def _fields(annotator=None, text="bonjour", **changes):
    """Keyword arguments for a ``TranscribedLine`` with one human reading,
    given as ``[kind, annotator, text, uncertain]``."""
    fields = dict(line_id="L1", image_ref="img/a.png", page_id=None, split=None, agreement=None)
    return {**fields, "transcriptions": [[SourceKind.HUMAN, annotator, text, False]], **changes}


@st.composite
def _line_fields(draw):
    """``_fields`` with any readings, id and split, and then one to three
    values, of the line or of a reading, replaced by tricky ones."""
    kinds = [SourceKind.HUMAN, *draw(st.lists(st.sampled_from(list(SourceKind)), max_size=3))]
    kinds = draw(st.permutations(kinds))
    readings = [[kind, None, "bonjour", draw(st.booleans())] for kind in kinds]
    fields = _fields(
        line_id=draw(st.sampled_from(["L1", "L2"])),
        transcriptions=readings,
        split=draw(st.none() | st.sampled_from([*Split, *(split.value for split in Split)])),
    )
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        name = draw(
            st.sampled_from(["line_id", "image_ref", "page_id", "split", "agreement", 1, 2])
        )
        if name == "agreement":
            fields[name] = draw(_tricky_agreements)
        elif name in (1, 2):  # a reading's annotator or text
            draw(st.sampled_from(readings))[name] = draw(_tricky_strings)
        else:
            fields[name] = draw(_tricky_strings)
    return fields


def _build_line(fields):
    readings = [
        Transcription(text, TranscriptionSource(kind, annotator), uncertain)
        for kind, annotator, text, uncertain in fields["transcriptions"]
    ]
    return TranscribedLine(**{**fields, "transcriptions": readings})


class TestAcceptedRecordsAreWritable:
    """Each drawn record is refused by a constructor with a ``ValueError``,
    or can be written, read back and written again to the same bytes, and
    emitted as TSV rows."""

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(lines=st.lists(_line_fields(), min_size=1, max_size=3))
    @example(lines=[_fields(agreement=97)])
    @example(lines=[_fields(agreement=float("nan"))])
    @example(lines=[_fields(image_ref="img\ta.png")])
    @example(lines=[_fields(line_id="L\ud800")])
    @example(lines=[_fields(page_id="P\udfff")])
    @example(lines=[_fields(annotator="u\ud800")])
    @example(lines=[_fields(text="a\ud800b")])
    def test_corpus_refused_or_round_trips(self, lines, tmp_path_factory):
        try:
            corpus = Corpus(_build_line(fields) for fields in lines)
        except ValueError:
            return
        base = tmp_path_factory.mktemp("accepted")
        write_manifest(corpus, base / "a.jsonl")
        reparsed = parse_manifest(base / "a.jsonl")
        assert reparsed == corpus
        assert repr(reparsed) == repr(corpus)  # also tells 97 from 97.0
        write_manifest(reparsed, base / "b.jsonl")
        assert (base / "b.jsonl").read_bytes() == (base / "a.jsonl").read_bytes()
        rows = [
            EmissionRecord(line.image_ref, t.text, Split.TRAIN, t.source)
            for line in corpus
            for t in line.transcriptions
        ]
        write_ground_truth(rows, base / "gt")

    @given(
        rows=st.lists(
            st.tuples(
                st.just("img/a.png") | _tricky_strings,
                st.just("bonjour") | _tricky_strings,
                st.sampled_from(list(Split)),
            ),
            max_size=4,
        )
    )
    @example(rows=[("img\ta.png", "x", Split.TRAIN)])
    @example(rows=[("img/a.png", "a\ud800b", Split.TEST)])
    def test_emission_records_refused_or_written(self, rows, tmp_path_factory):
        try:
            records = [EmissionRecord(image, text, split, HUMAN) for image, text, split in rows]
        except ValueError:
            return
        directory = tmp_path_factory.mktemp("accepted")
        write_ground_truth(records, directory)
        for split, name in [(Split.TRAIN, "train.tsv"), (Split.VALIDATION, "val.tsv"),
                            (Split.TEST, "test.tsv")]:
            rows_read = (directory / name).read_bytes().decode("utf-8").splitlines()
            assert [row.split("\t") for row in rows_read] == [
                [r.image_ref, r.text] for r in records if r.split is split
            ]
