from __future__ import annotations

import copy
import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    ManifestError,
    SourceKind,
    Split,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    canonical_transcriptions,
    corpus_stats,
    normalize_text,
    parse_manifest,
    write_manifest,
)
from aggrescribe.corpus import _check_text, atomic_write_text
from oracles import (
    reference_breaks_row,
    reference_normalize_text,
    reference_parse_manifest,
    reference_write_manifest,
)


def write_records(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def record(line_id="L1", n_human=1, autos=("abc def",), text="bonjour", **extra):
    transcriptions = [{"text": text, "source": "human"} for _ in range(n_human)]
    kinds = ["auto:pylaia", "auto:dan"]
    transcriptions += [{"text": t, "source": kinds[i]} for i, t in enumerate(autos)]
    return {"line_id": line_id, "image": f"img/{line_id}.png", "transcriptions": transcriptions, **extra}


#: Every character ``str.split`` splits at or ``str.splitlines`` ends a line
#: at, with printable, combining and invisible ones to mix them with.
_SPACES_AND_MORE = st.sampled_from(
    sorted({c for c in map(chr, range(0x3001)) if c.isspace() or len(("a" + c).splitlines()) > 1})
    + ["a", "é", "\u0301", "\u200b", "\U0001d11e", "\ud800"]
)


class TestNormalization:
    def test_trims_and_collapses_whitespace(self):
        assert normalize_text("  le \t chat\n noir ") == "le chat noir"

    def test_nfc_composition(self):
        decomposed = "séance"  # e + combining acute
        assert normalize_text(decomposed) == "séance"

    def test_transcription_normalizes_on_construction(self):
        t = Transcription("  a   b ", TranscriptionSource(SourceKind.HUMAN))
        assert t.text == "a b"

    def test_blank_text_rejected(self):
        with pytest.raises(ValueError):
            Transcription("   \t ", TranscriptionSource(SourceKind.HUMAN))

    @given(text=st.text(alphabet=_SPACES_AND_MORE, max_size=12) | st.text(max_size=12))
    @example("a  b")
    @example(" a")
    @example("a ")
    @example("a\u3000b")
    @example("e\u0301 ")
    def test_matches_reference(self, text):
        assert normalize_text(text) == reference_normalize_text(text)

    @given(
        value=st.text(alphabet=_SPACES_AND_MORE, max_size=12) | st.text(max_size=12),
        row=st.booleans(),
    )
    @example("a\ud800", True)
    @example("\t\ud800", True)
    @example("\t\ud800", False)
    @example("a\nb", False)
    def test_row_break_check_matches_reference(self, value, row):
        # With ``row``, a row break is reported first; then, row or not, an
        # unpaired surrogate, which no UTF-8 file can hold. Any other string
        # passes.
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            encodable = False
        else:
            encodable = True
        if row and reference_breaks_row(value):
            expected = (
                f"'image' {value!r} contains a tab or newline and cannot be written as a TSV row"
            )
        elif not encodable:
            expected = "'image' contains an unpaired surrogate"
        else:
            expected = None
        try:
            _check_text("image", value, row=row)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @pytest.mark.parametrize("row", [False, True])
    @pytest.mark.parametrize("value", [5, 2.5, True, b"a", ["a"], {}, None])
    def test_text_check_refuses_a_non_string(self, value, row):
        with pytest.raises(ValueError) as excinfo:
            _check_text("page_id", value, row=row)
        assert excinfo.type is ValueError
        assert str(excinfo.value) == "'page_id' must be a string"


class TestDomainTypes:
    def test_annotator_only_on_human(self):
        TranscriptionSource(SourceKind.HUMAN, annotator_id="u7")
        with pytest.raises(ValueError):
            TranscriptionSource(SourceKind.AUTO_PYLAIA, annotator_id="u7")

    def test_line_requires_transcriptions(self):
        # One or two human readings, whatever else the line holds.
        def line(*kinds):
            texts = (Transcription("x", TranscriptionSource(kind)) for kind in kinds)
            return TranscribedLine("L1", "img.png", tuple(texts))

        human, pylaia, dan = SourceKind.HUMAN, SourceKind.AUTO_PYLAIA, SourceKind.AUTO_DAN
        rover, rasa = SourceKind.AGGREGATE_ROVER, SourceKind.AGGREGATE_RASA
        for kinds in [(), (pylaia, dan), (rover, rasa), (human, human, human)]:
            with pytest.raises(ValueError) as excinfo:
                line(*kinds)
            assert not isinstance(excinfo.value, ManifestError)
            found = kinds.count(human)
            assert str(excinfo.value) == (
                f"expected 1 or 2 human transcriptions, found {found}"
            )
        for kinds in [(human,), (human, human), (pylaia, human, dan, human, rover, rasa)]:
            assert len(line(*kinds).human_transcriptions) == kinds.count(human)
        updated = line(human).with_aggregate(
            Transcription("y", TranscriptionSource(SourceKind.AGGREGATE_RASA))
        )
        assert [t.source.kind for t in updated.transcriptions] == [human, rasa]

    def test_corpus_rejects_duplicate_ids(self, make_line):
        with pytest.raises(ValueError, match="duplicate"):
            Corpus((make_line("A"), make_line("A")))

    def test_with_aggregate_replaces_same_kind(self, make_line):
        line = make_line("A", humans=("x y",), rover="old text")
        updated = line.with_aggregate(
            Transcription("new text", TranscriptionSource(SourceKind.AGGREGATE_ROVER))
        )
        rovers = updated.of_kind(SourceKind.AGGREGATE_ROVER)
        assert [t.text for t in rovers] == ["new text"]
        with pytest.raises(ValueError):
            line.with_aggregate(Transcription("h", TranscriptionSource(SourceKind.HUMAN)))

    def test_canonical_order(self, make_line):
        line = make_line("A", humans=("h1", "h2"), autos=("p", "d"), rover="r", rasa="s")
        assert [t.text for t in canonical_transcriptions(line)] == ["h1", "h2", "p", "d"]


class TestParse:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(parse_manifest(path)) == 0

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_records(path, [record(n_human=2, autos=("a", "b"))])
        corpus = parse_manifest(path)
        assert len(corpus) == 1
        assert len(corpus.lines[0].transcriptions) == 4

    def test_preserves_order(self, tmp_path):
        path = tmp_path / "many.jsonl"
        write_records(path, [record(f"L{i}") for i in range(10)])
        assert [line.line_id for line in parse_manifest(path)] == [f"L{i}" for i in range(10)]

    def test_malformed_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(record("L1")) + "\n{not json\n", encoding="utf-8"
        )
        with pytest.raises(ManifestError, match=":2"):
            parse_manifest(path)

    def test_duplicate_line_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_records(path, [record("L1"), record("L1")])
        with pytest.raises(ManifestError, match="duplicate"):
            parse_manifest(path)

    def test_empty_transcription_list(self, tmp_path):
        path = tmp_path / "none.jsonl"
        write_records(path, [{"line_id": "L1", "image": "x.png", "transcriptions": []}])
        with pytest.raises(ManifestError, match="non-empty"):
            parse_manifest(path)

    def test_unknown_source_tag(self, tmp_path):
        path = tmp_path / "tag.jsonl"
        write_records(
            path,
            [{"line_id": "L1", "image": "x.png",
              "transcriptions": [{"text": "a", "source": "auto:tesseract"}]}],
        )
        with pytest.raises(ManifestError, match="unknown source tag"):
            parse_manifest(path)

    def test_blank_transcription_rejected_not_dropped(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        write_records(path, [record("L1", text="   ")])
        with pytest.raises(ManifestError, match="empty"):
            parse_manifest(path)

    @pytest.mark.parametrize("n_human", [0, 3])
    def test_human_count_must_be_one_or_two(self, tmp_path, n_human):
        path = tmp_path / "humans.jsonl"
        write_records(path, [record("L1", n_human=n_human)])
        with pytest.raises(ManifestError, match="human"):
            parse_manifest(path)

    def test_annotator_on_auto_rejected(self, tmp_path):
        path = tmp_path / "annot.jsonl"
        rec = record("L1")
        rec["transcriptions"][1]["annotator"] = "u1"
        write_records(path, [rec])
        with pytest.raises(ManifestError, match="annotator"):
            parse_manifest(path)

    def test_optional_fields_roundtrip(self, tmp_path):
        path = tmp_path / "full.jsonl"
        rec = record("L1", n_human=2, page_id="P9", split="val", agreement=92.5)
        rec["transcriptions"][0]["annotator"] = "u1"
        rec["transcriptions"][0]["uncertain"] = True
        write_records(path, [rec])
        line = parse_manifest(path).lines[0]
        assert line.page_id == "P9"
        assert line.split is Split.VALIDATION
        assert line.agreement == 92.5
        assert line.transcriptions[0].source.annotator_id == "u1"
        assert line.transcriptions[0].uncertain is True
        assert line.transcriptions[1].uncertain is False

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "split.jsonl"
        write_records(path, [record("L1", split="dev")])
        with pytest.raises(ManifestError, match="unknown split"):
            parse_manifest(path)

    @pytest.mark.parametrize(
        "value",
        [["human"], {"human": 1}, True, 3, 2.5],
        ids=["list", "dict", "bool", "int", "float"],
    )
    @pytest.mark.parametrize(
        "field, message",
        [
            ("source", "unknown source tag {value!r}"),
            ("split", "unknown split {value!r}"),
            ("annotator", "'annotator' must be a string"),
        ],
    )
    def test_odd_typed_value_rejected(self, tmp_path, field, message, value):
        rec = record("L1")
        if field == "split":
            rec["split"] = value
        else:
            rec["transcriptions"][0][field] = value
        path = tmp_path / "odd.jsonl"
        write_records(path, [record("L0"), rec])
        expected = "odd.jsonl:2 (line_id 'L1'): " + message.format(value=value)
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value) == expected

    def test_annotator_on_auto_rejected_after_same_annotator_on_human(self, tmp_path):
        # Sources are shared per (tag, annotator) pair; a human source for
        # "u1" must not let "u1" through on an automatic one.
        first, second = record("L1"), record("L2")
        first["transcriptions"][0]["annotator"] = "u1"
        second["transcriptions"][1]["annotator"] = "u1"
        path = tmp_path / "annot.jsonl"
        write_records(path, [first, second])
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value) == (
            "annot.jsonl:2 (line_id 'L2'): annotator_id is only allowed on human transcriptions"
        )

    def test_sources_shared_within_a_parse_only(self, tmp_path):
        recs = [record(f"L{i}", n_human=2) for i in range(3)]
        recs[0]["transcriptions"][0]["annotator"] = "u1"
        recs[2]["transcriptions"][1]["annotator"] = "u1"
        path = tmp_path / "shared.jsonl"
        write_records(path, recs)
        corpus = parse_manifest(path)
        by_pair = {}
        for line in corpus:
            for t in line.transcriptions:
                key = (t.source.kind, t.source.annotator_id)
                assert by_pair.setdefault(key, t.source) is t.source
        assert len(by_pair) == 3
        again = parse_manifest(path)
        assert again == corpus
        assert again.lines[0].transcriptions[0].source is not by_pair[SourceKind.HUMAN, "u1"]

    @pytest.mark.parametrize(
        "body",
        ["[" * 100_000 + "]" * 100_000, '{"line_id": ' + "9" * 5000 + "}"],
        ids=["deep-nesting", "5000-digit-int"],
    )
    def test_unreadable_json_reports_line_number(self, tmp_path, body):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record("L1")) + "\n" + body + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="bad.jsonl:2: unreadable JSON"):
            parse_manifest(path)

    @pytest.mark.parametrize("blank", [" ", "\t", "\r", " \t \r", ""], ids=repr)
    def test_lines_of_json_whitespace_skipped(self, tmp_path, blank):
        path = tmp_path / "blank.jsonl"
        path.write_text(
            json.dumps(record("L1")) + "\n" + blank + "\n" + json.dumps(record("L2")) + "\n",
            encoding="utf-8",
        )
        assert [line.line_id for line in parse_manifest(path)] == ["L1", "L2"]

    @pytest.mark.parametrize("space", ["\x0c", "\x0b", "\u3000", "\x85", " \xa0 ", "\u2028"], ids=repr)
    def test_line_of_other_whitespace_is_malformed(self, tmp_path, space):
        # str.strip removes these, but JSON does not count them as whitespace.
        path = tmp_path / "space.jsonl"
        path.write_text(
            json.dumps(record("L1")) + "\n" + space + "\n" + json.dumps(record("L2")) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value) == "space.jsonl:2: malformed JSON (Expecting value)"

    @pytest.mark.parametrize("field", ["line_id", "image", "page_id", "text", "annotator"])
    def test_unpaired_surrogate_rejected(self, tmp_path, field):
        rec = record("L1", page_id="P1")
        rec["transcriptions"][0]["annotator"] = "u1"
        owner = rec["transcriptions"][0] if field in ("text", "annotator") else rec
        owner[field] = "a\ud800b"
        path = tmp_path / "surrogate.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="ascii")  # as a \ud800 escape
        with pytest.raises(ManifestError, match=f"'{field}' contains an unpaired surrogate"):
            parse_manifest(path)

    def test_image_rule_reported_before_human_count(self, tmp_path):
        # The image's surrogate is checked with its row breaks, as one TSV
        # field rule, before the line's readings are counted.
        rec = record("L1", n_human=3, autos=())
        rec["image"] = "a\ud800.png"
        path = tmp_path / "twofault.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="ascii")  # as a \ud800 escape
        message = "twofault.jsonl:1 (line_id 'L1'): 'image' contains an unpaired surrogate"
        for parse in (parse_manifest, reference_parse_manifest):
            with pytest.raises(ManifestError) as excinfo:
                parse(path)
            assert str(excinfo.value) == message

    def test_ascii_escaped_manifest_parses_as_its_utf8_twin(self, tmp_path):
        # ``json.dumps``'s default ``ensure_ascii=True`` writes every letter
        # past ASCII as a \u escape, or two for one past the BMP.
        records = [
            record("L1", n_human=2, text="séance à Belfort", page_id="Pé"),
            record("L2", autos=("Ærø 𝄞 ﬁn", "naïve"), text="ÉTAT ‘civil’"),
        ]
        records[0]["transcriptions"][0]["annotator"] = "Zoë"
        escaped, raw = tmp_path / "escaped.jsonl", tmp_path / "raw.jsonl"
        escaped.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        write_records(raw, records)
        assert "\\u00e9" in escaped.read_text(encoding="ascii")
        assert "\\ud834\\udd1e" in escaped.read_text(encoding="ascii")
        assert parse_manifest(escaped) == parse_manifest(raw)

    @pytest.mark.parametrize("escape", ["\\uDC00", "\\uD800", "\\udC00"])
    def test_upper_case_surrogate_escape_rejected(self, tmp_path, escape):
        line = json.dumps(record("L2", text="a@b")).replace("@", escape)
        path = tmp_path / "upper.jsonl"
        path.write_text(json.dumps(record("L1")) + "\n" + line + "\n", encoding="ascii")
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value) == (
            "upper.jsonl:2 (line_id 'L2'): 'text' contains an unpaired surrogate"
        )


corpus_text = st.text(
    alphabet="abcdefé à-',. 0123456789́", min_size=1, max_size=30
).filter(lambda s: normalize_text(s) != "")


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    lines = []
    for i in range(n):
        n_human = draw(st.integers(min_value=1, max_value=2))
        n_auto = draw(st.integers(min_value=0, max_value=2))
        transcriptions = [
            Transcription(
                draw(corpus_text),
                TranscriptionSource(
                    SourceKind.HUMAN, annotator_id=draw(st.none() | st.just(f"u{i}"))
                ),
                uncertain=draw(st.booleans()),
            )
            for _ in range(n_human)
        ]
        kinds = [SourceKind.AUTO_PYLAIA, SourceKind.AUTO_DAN]
        transcriptions += [
            Transcription(draw(corpus_text), TranscriptionSource(kinds[k]))
            for k in range(n_auto)
        ]
        lines.append(
            TranscribedLine(
                line_id=f"L{i:03d}",
                image_ref=f"images/{i:03d}.png",
                transcriptions=tuple(transcriptions),
                page_id=draw(st.none() | st.just(f"P{i % 3}")),
                split=draw(st.none() | st.sampled_from(list(Split))),
                agreement=draw(st.none() | st.floats(min_value=0, max_value=100)),
            )
        )
    return Corpus(tuple(lines))


class TestWrite:
    def test_empty_corpus_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_manifest(Corpus(()), path)
        assert path.read_bytes() == b""

    def test_single_line_single_json_row(self, tmp_path, make_line):
        path = tmp_path / "out.jsonl"
        write_manifest(Corpus((make_line("A"),)), path)
        rows = path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1
        assert json.loads(rows[0])["line_id"] == "A"

    @given(corpus=corpora())
    def test_roundtrip_identity(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "corpus.jsonl"
        write_manifest(corpus, path)
        reparsed = parse_manifest(path)
        assert reparsed == corpus

    def test_non_finite_agreement_not_written(self, make_line):
        # Refused when the line is built, so no corpus to write can hold one.
        for value in (float("nan"), float("inf"), -float("inf")):
            message = rf"'agreement' must be in \[0, 100\], got {value}$"
            with pytest.raises(ValueError, match=message):
                make_line("A", agreement=value)
            with pytest.raises(ValueError, match="must be in"):
                make_line("A").with_agreement(value)

    @given(corpus=corpora())
    def test_rewrite_is_byte_identical(self, corpus, tmp_path_factory):
        base = tmp_path_factory.mktemp("bytes")
        write_manifest(corpus, base / "a.jsonl")
        write_manifest(parse_manifest(base / "a.jsonl"), base / "b.jsonl")
        assert (base / "a.jsonl").read_bytes() == (base / "b.jsonl").read_bytes()

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "a\ud800")
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_taken_temp_name_is_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setattr("aggrescribe.corpus._TEMP_NUMBERS", itertools.count())
        stale = tmp_path / f".out.txt.{os.getpid()}.0.tmp"
        stale.write_text("stale\n", encoding="utf-8")
        atomic_write_text(tmp_path / "out.txt", "new\n")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "new\n"
        assert stale.read_text(encoding="utf-8") == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.txt"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Lone surrogates included: json.dumps writes them as \udXXX escapes.
_any_text = st.text(max_size=6) | st.sampled_from(["\ud800", "x\udfff"])


def _or_junk(strategy):
    return strategy | _json_values


_transcription_records = st.fixed_dictionaries(
    {},
    optional={
        "text": _or_junk(_any_text),
        "source": _or_junk(st.sampled_from([kind.value for kind in SourceKind])),
        "annotator": _or_junk(_any_text),
        "uncertain": _or_junk(st.booleans()),
    },
)
_line_records = st.fixed_dictionaries(
    {},
    optional={
        "line_id": _or_junk(st.sampled_from(["L1", "L2", ""])),
        "image": _or_junk(_any_text),
        "page_id": _or_junk(_any_text),
        "split": _or_junk(st.sampled_from([split.value for split in Split])),
        "agreement": _or_junk(st.floats() | st.integers()),
        "transcriptions": _or_junk(st.lists(_or_junk(_transcription_records), max_size=3)),
    },
)


def assert_parses_or_rejects(path):
    """A manifest either parses to a corpus that writes back and reparses
    unchanged, or raises ManifestError; nothing else escapes."""
    try:
        corpus = parse_manifest(path)
    except ManifestError:
        return
    rewritten = path.with_name("rewritten.jsonl")
    write_manifest(corpus, rewritten)
    assert parse_manifest(rewritten) == corpus


class TestParseFuzz:
    @given(data=st.binary(max_size=300))
    def test_arbitrary_bytes(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "manifest.jsonl"
        path.write_bytes(data)
        assert_parses_or_rejects(path)

    # The first st.text() draw in a process builds hypothesis's unicode tables,
    # which can trip the generation-speed check; the parser is not what is slow.
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(_line_records, max_size=3))
    def test_json_shaped_records(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "manifest.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        assert_parses_or_rejects(path)


def _reference_view(path):
    """A copy of ``path``, under the same name in a subdirectory, that the
    reference parser must read as ``parse_manifest`` reads ``path``: each
    line of whitespace that JSON does not count as such, which the reference
    skipped, becomes a malformed line."""
    view = path.parent / "reference" / path.name
    view.parent.mkdir(exist_ok=True)
    rows = []
    for raw in path.read_bytes().split(b"\n"):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        rows.append(b"?" if text is not None and not text.strip() and text.strip(" \t\r") else raw)
    view.write_bytes(b"\n".join(rows))
    return view


def assert_parses_as_reference(path):
    """``parse_manifest`` gives the reference parser's corpus, or raises a
    ``ManifestError`` with the same message."""
    try:
        expected = reference_parse_manifest(_reference_view(path))
    except ManifestError as exc:
        with pytest.raises(ManifestError) as excinfo:
            parse_manifest(path)
        assert str(excinfo.value) == str(exc)
        return
    corpus = parse_manifest(path)
    assert corpus == expected
    assert repr(corpus) == repr(expected)  # also tells 97 from 97.0


#: The fields of a line (owner ``None``) and of its human (``0``) and
#: automatic (``1``) transcription.
_FIELDS = {
    None: ["line_id", "image", "page_id", "split", "agreement", "transcriptions"],
    0: ["text", "source", "annotator", "uncertain"],
    1: ["text", "source", "annotator", "uncertain"],
}
_DROPPED = object()
_ODD_VALUES = [
    1, "u1", ["human"], "   ", True, None, "", "human", "auto:dan", "dev", "x\ud800", "\x0c",
    "a\tb", "img\r1.png", "a\u2028b", "train", -0.0, -1, 100.5, 1e400, -1e400, 10**400,
    float("nan"), 0, 100, [], {}, {"a": 1},
]


@st.composite
def _records_with_bad_fields(draw):
    """A record, valid but for its number of human readings, with one to
    three fields, of the line or of its transcriptions, dropped or replaced
    by an odd value."""
    rec = record(
        draw(st.sampled_from(["L1", "L2"])),
        n_human=draw(st.integers(min_value=0, max_value=3)),
        autos=draw(st.sampled_from([(), ("abc",), ("abc", "d e")])),
        page_id="P1",
        split="train",
        agreement=50.0,
    )
    owners = [rec, *rec["transcriptions"]]
    if len(owners) > 1:
        owners[1]["annotator"] = "u1"
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        owner = draw(st.sampled_from(owners))
        field = draw(st.sampled_from(_FIELDS[None if owner is rec else 0]))
        if draw(st.booleans()):
            owner.pop(field, None)
        else:
            owner[field] = draw(st.sampled_from(_ODD_VALUES) | _json_values | _any_text)
    return rec


class TestParseMatchesReference:
    @given(data=st.binary(max_size=300))
    def test_arbitrary_bytes(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "manifest.jsonl"
        path.write_bytes(data)
        assert_parses_as_reference(path)

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(_line_records, max_size=3))
    def test_json_shaped_records(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "manifest.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="ascii")
        assert_parses_as_reference(path)

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.lists(
            _records_with_bad_fields().map(json.dumps)
            | st.sampled_from(
                ["", " \t", "\x0c", "\u3000", "\x85", "[]", "{}", "1 2", "\ufeff{}", " \ufeff{}"]
            ),
            max_size=4,
        )
    )
    def test_records_with_bad_fields(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "manifest.jsonl"
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        assert_parses_as_reference(path)

    def test_each_field_dropped_or_replaced(self, tmp_path):
        # One fault anywhere in a line, or two in one transcription, where
        # the order of the checks decides which is reported.
        cases = [[(owner, field, value)]
                 for owner, fields in _FIELDS.items()
                 for field in fields
                 for value in (_DROPPED, *_ODD_VALUES)]
        cases += [[(1, a, value_a), (1, b, value_b)]
                  for a, b in itertools.combinations(_FIELDS[1], 2)
                  for value_a in (_DROPPED, *_ODD_VALUES[:8])
                  for value_b in (_DROPPED, *_ODD_VALUES[:8])]
        cases += [[(None, "humans", n)] for n in (0, 3)]
        for n, faults in enumerate(cases):
            rec = record("L2", n_human=1, autos=("abc",), page_id="P1", split="train",
                         agreement=50.0)
            rec["transcriptions"][0]["annotator"] = "u1"
            for owner, field, value in faults:
                if field == "humans":
                    rec = record("L2", n_human=value)
                    continue
                target = rec if owner is None else rec["transcriptions"][owner]
                if value is _DROPPED:
                    target.pop(field, None)
                else:
                    target[field] = copy.deepcopy(value)
            directory = tmp_path / str(n)
            directory.mkdir()
            path = directory / "manifest.jsonl"
            # ASCII, so that a lone surrogate is written as a \u escape
            path.write_text(json.dumps(record("L1")) + "\n" + json.dumps(rec) + "\n",
                            encoding="ascii")
            assert_parses_as_reference(path)

    @pytest.mark.parametrize(
        "row",
        ["", " \t\r", "\x0c", "\u3000", "\x85", "\ufeff{}", " \ufeff{}", "[]", "{}", "1 2",
         "{} x", "nul", '"\\ud800"', "\x00"],
        ids=repr,
    )
    def test_odd_row(self, tmp_path, row):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(record("L1")) + "\n" + row + "\n" + json.dumps(record("L2")),
                        encoding="utf-8")
        assert_parses_as_reference(path)

    def test_valid_manifest(self, tmp_path):
        recs = [record(f"L{i}", n_human=1 + i % 2, page_id=f"P{i % 3}", agreement=i * 7.5)
                for i in range(12)]
        recs[3]["transcriptions"][0].update(annotator="u1", uncertain=True)
        recs[5]["split"] = "test"
        path = tmp_path / "valid.jsonl"
        write_records(path, recs)
        assert_parses_as_reference(path)


_tricky_text = st.text(
    alphabet=st.characters()
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800"]),
    max_size=8,
)
_agreements = (
    st.none()
    | st.sampled_from(
        [0.0, 100.0, 5e-324, 97, -0.0, 0.1, 1e16, 1e-7, True, float("nan"), float("inf")]
    )
    | st.floats()
    | st.integers()
)


_NON_HUMAN_KINDS = [kind for kind in SourceKind if kind is not SourceKind.HUMAN]


def _built(cls, *args):
    """``cls(*args)``, or ``None`` where the constructor refuses the values."""
    try:
        return cls(*args)
    except ValueError:
        return None


@st.composite
def _any_corpora(draw):
    """Corpora of lines with tricky values. A record whose constructor
    refuses its values (a tab or line break in the image, a lone surrogate,
    an agreement that is not a number in [0, 100]) is left out, so the
    writers see only what the constructors accept."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True))
    lines = []
    for line_id in ids:
        # One or two human readings and up to two others, in any order.
        kinds = [SourceKind.HUMAN] * draw(st.integers(min_value=1, max_value=2))
        kinds += draw(st.lists(st.sampled_from(_NON_HUMAN_KINDS), max_size=2))
        transcriptions = []
        for kind in draw(st.permutations(kinds)):
            annotator = draw(st.none() | _tricky_text) if kind is SourceKind.HUMAN else None
            text = draw(_tricky_text.filter(normalize_text))
            source = _built(TranscriptionSource, kind, annotator)
            uncertain = draw(st.booleans())
            transcriptions.append(source and _built(Transcription, text, source, uncertain))
        line = _built(
            TranscribedLine,
            line_id,
            draw(_tricky_text),
            tuple(t for t in transcriptions if t is not None),
            draw(st.none() | _tricky_text),
            draw(st.none() | st.sampled_from(list(Split))),
            draw(_agreements),
        )
        if line is not None:
            lines.append(line)
    return Corpus(tuple(lines))


class TestWriteMatchesReference:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=_any_corpora())
    def test_same_bytes_or_same_error(self, corpus, tmp_path_factory):
        base = tmp_path_factory.mktemp("write")
        outcomes = []
        for write, name in ((reference_write_manifest, "ref.jsonl"), (write_manifest, "new.jsonl")):
            try:
                write(corpus, base / name)
            except ValueError as exc:  # none expected: the constructors refuse such values
                outcomes.append((type(exc), str(exc)))
                assert not (base / name).exists()
            else:
                outcomes.append((base / name).read_bytes())
        assert outcomes[0] == outcomes[1]


class TestStats:
    def test_empty(self):
        report = corpus_stats(Corpus(()))
        assert report.total_lines == 0
        assert report.two_human_share == 0.0
        assert report.per_source == {}

    def test_two_human_share(self, make_line, make_corpus):
        corpus = make_corpus(
            make_line("A", humans=("x", "y")),
            make_line("B", humans=("x", "y")),
            make_line("C", humans=("x",)),
            make_line("D", humans=("x",), autos=("a", "b")),
        )
        report = corpus_stats(corpus)
        assert report.total_lines == 4
        assert report.two_human_lines == 2
        assert report.two_human_share == 50.0
        assert report.per_source == {"auto:dan": 1, "auto:pylaia": 1, "human": 6}
        assert report.transcriptions_per_line == {1: 1, 2: 2, 3: 1}

    def test_per_source_counts_sum_to_total(self, make_line, make_corpus):
        corpus = make_corpus(
            make_line("A", humans=("x", "y"), autos=("a",)),
            make_line("B", humans=("x",), autos=("a", "b"), rover="r"),
        )
        report = corpus_stats(corpus)
        assert report.total_transcriptions == sum(
            len(line.transcriptions) for line in corpus
        )
