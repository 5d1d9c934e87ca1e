from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
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


def write_records(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def record(line_id="L1", n_human=1, autos=("abc def",), text="bonjour", **extra):
    transcriptions = [{"text": text, "source": "human"} for _ in range(n_human)]
    kinds = ["auto:pylaia", "auto:dan"]
    transcriptions += [{"text": t, "source": kinds[i]} for i, t in enumerate(autos)]
    return {"line_id": line_id, "image": f"img/{line_id}.png", "transcriptions": transcriptions, **extra}


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


class TestDomainTypes:
    def test_annotator_only_on_human(self):
        TranscriptionSource(SourceKind.HUMAN, annotator_id="u7")
        with pytest.raises(ValueError):
            TranscriptionSource(SourceKind.AUTO_PYLAIA, annotator_id="u7")

    def test_line_requires_transcriptions(self):
        with pytest.raises(ValueError):
            TranscribedLine("L1", "img.png", ())

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

    def test_non_finite_agreement_not_written(self, tmp_path, make_line):
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_manifest(Corpus((make_line("A", agreement=float("nan")),)), path)
        assert not path.exists()

    @given(corpus=corpora())
    def test_rewrite_is_byte_identical(self, corpus, tmp_path_factory):
        base = tmp_path_factory.mktemp("bytes")
        write_manifest(corpus, base / "a.jsonl")
        write_manifest(parse_manifest(base / "a.jsonl"), base / "b.jsonl")
        assert (base / "a.jsonl").read_bytes() == (base / "b.jsonl").read_bytes()


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
