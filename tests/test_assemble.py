from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    EmissionRecord,
    Granularity,
    ManifestError,
    SourceKind,
    Split,
    Strategy,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    apply_split,
    consensus_transcription,
    emit,
    filter_by_agreement,
    random_split,
    rover_consensus,
    write_ground_truth,
)
from conftest import build_line
from oracles import reference_breaks_row, reference_emit, reference_write_ground_truth


def full_line(
    line_id, humans=("h one", "h two"), autos=("p text", "d text"), split=Split.TRAIN
):
    return build_line(
        line_id, humans=humans, autos=autos, rover="rover text", rasa="rasa text", split=split
    )


class TestEmitCounts:
    @pytest.mark.parametrize(
        "strategy,expected",
        [
            (Strategy.RANDOM_ONE, 1),
            (Strategy.RASA_ONE, 1),
            (Strategy.ROVER_ONE, 1),
            (Strategy.ALL_HUMAN, 2),
            (Strategy.ALL_HUMAN_AUTO, 4),
            (Strategy.ALL_WITH_AGGREGATES, 6),
        ],
    )
    def test_record_count_law_two_humans(self, strategy, expected):
        corpus = Corpus((full_line("A"),))
        records = emit(corpus, strategy)
        assert len(records) == expected

    @pytest.mark.parametrize(
        "strategy,expected",
        [(Strategy.ALL_HUMAN, 1), (Strategy.ALL_HUMAN_AUTO, 3), (Strategy.ALL_WITH_AGGREGATES, 5)],
    )
    def test_record_count_law_one_human(self, strategy, expected):
        corpus = Corpus((full_line("A", humans=("only one",)),))
        records = emit(corpus, strategy)
        assert len(records) == expected

    def test_rover_one_source_tag(self):
        corpus = Corpus((full_line("A"),))
        (record,) = emit(corpus, Strategy.ROVER_ONE)
        assert record.source.kind is SourceKind.AGGREGATE_ROVER
        assert record.text == "rover text"

    def test_validation_lines_expand_like_train(self):
        corpus = Corpus((full_line("A", split=Split.VALIDATION),))
        records = emit(corpus, Strategy.ALL_WITH_AGGREGATES)
        assert len(records) == 6
        assert all(r.split is Split.VALIDATION for r in records)

    def test_test_lines_emit_one_human_regardless(self):
        corpus = Corpus((full_line("A", split=Split.TEST),))
        for strategy in Strategy:
            records = emit(corpus, strategy)
            assert len(records) == 1
            assert records[0].source.kind is SourceKind.HUMAN
            assert records[0].text == "h one"

    def test_missing_aggregate_rejected(self, make_line):
        corpus = Corpus((make_line("A", humans=("x",), split=Split.TRAIN),))
        with pytest.raises(ValueError, match="aggregate:rover"):
            emit(corpus, Strategy.ROVER_ONE)

    def test_missing_split_rejected(self):
        corpus = Corpus((full_line("A", split=None),))
        with pytest.raises(ValueError, match="no split annotation"):
            emit(corpus, Strategy.ALL_HUMAN)

    def test_duplicate_texts_still_emitted_per_slot(self, make_line):
        # rasa pick equal to a human text still occupies its own slot
        line = build_line("A", humans=("same",), autos=("same", "same"),
                          rover="same", rasa="same", split=Split.TRAIN)
        corpus = Corpus((line,))
        records = emit(corpus, Strategy.ALL_WITH_AGGREGATES)
        assert len(records) == 5
        assert [r.text for r in records] == ["same"] * 5

    def test_random_one_draws_from_humans_only(self):
        lines = tuple(full_line(f"L{i}") for i in range(40))
        corpus = Corpus(lines)
        records = emit(corpus, Strategy.RANDOM_ONE, seed=11)
        assert all(r.source.kind is SourceKind.HUMAN for r in records)
        texts = {r.text for r in records}
        assert texts == {"h one", "h two"}  # both picked somewhere over 40 draws

    def test_random_one_deterministic_per_seed(self):
        corpus = Corpus(tuple(full_line(f"L{i}") for i in range(25)))
        first = emit(corpus, Strategy.RANDOM_ONE, seed=5)
        second = emit(corpus, Strategy.RANDOM_ONE, seed=5)
        assert first == second

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda strategy: strategy.value)
    def test_value_acts_as_member(self, strategy):
        corpus = Corpus(tuple(full_line(f"L{i}") for i in range(25)))
        assert emit(corpus, strategy.value, seed=5) == emit(corpus, strategy, seed=5)

    @pytest.mark.parametrize("strategy", ["bogus", "RANDOM_ONE", None])
    def test_unknown_strategy_rejected(self, strategy):
        with pytest.raises(ValueError):
            emit(Corpus((full_line("A"),)), strategy)

    @given(st.integers(min_value=0, max_value=2**32))
    def test_text_provenance(self, seed):
        corpus = Corpus(tuple(full_line(f"L{i}") for i in range(5)))
        for strategy in Strategy:
            for record in emit(corpus, strategy, seed=seed):
                line = next(l for l in corpus if l.image_ref == record.image_ref)
                assert record.text in {t.text for t in line.transcriptions}


class TestWriteGroundTruth:
    def test_zero_records_three_empty_files(self, tmp_path):
        write_ground_truth([], tmp_path)
        for name in ("train.tsv", "val.tsv", "test.tsv"):
            assert (tmp_path / name).read_bytes() == b""

    def test_single_train_record(self, tmp_path):
        record = EmissionRecord(
            "img/a.png", "du texte", Split.TRAIN, TranscriptionSource(SourceKind.HUMAN)
        )
        write_ground_truth([record], tmp_path)
        assert (tmp_path / "train.tsv").read_text(encoding="utf-8") == "img/a.png\tdu texte\n"
        assert (tmp_path / "val.tsv").read_bytes() == b""
        assert (tmp_path / "test.tsv").read_bytes() == b""

    def test_order_preserved_and_duplicates_kept(self, tmp_path):
        human = TranscriptionSource(SourceKind.HUMAN)
        records = [
            EmissionRecord("img/a.png", "un", Split.TRAIN, human),
            EmissionRecord("img/a.png", "deux", Split.TRAIN, human),
            EmissionRecord("img/b.png", "trois", Split.VALIDATION, human),
        ]
        write_ground_truth(records, tmp_path)
        assert (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines() == [
            "img/a.png\tun",
            "img/a.png\tdeux",
        ]
        assert (tmp_path / "val.tsv").read_text(encoding="utf-8").splitlines() == [
            "img/b.png\ttrois"
        ]

    def test_tab_in_image_ref_rejected(self):
        message = r"image_ref 'img\\tbad\.png' contains a tab or newline"
        with pytest.raises(ValueError, match=message):
            EmissionRecord(
                "img\tbad.png", "texte", Split.TRAIN, TranscriptionSource(SourceKind.HUMAN)
            )

    @pytest.mark.parametrize(
        "boundary",
        ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=repr,
    )
    @pytest.mark.parametrize("field", ["image", "text"])
    def test_line_boundary_rejected(self, boundary, field):
        assert len(f"a{boundary}b".splitlines()) == 2
        image, text = "img/a.png", "texte"
        if field == "image":
            image = f"img{boundary}a.png"
        else:
            text = f"tex{boundary}te"
        label = "image_ref" if field == "image" else "text"
        with pytest.raises(ValueError, match=f"^{label} .* contains a tab or newline"):
            EmissionRecord(image, text, Split.TRAIN, TranscriptionSource(SourceKind.HUMAN))

    def test_other_control_characters_kept_on_one_row(self, tmp_path):
        others = "".join(
            chr(c) for c in [*range(0x20), *range(0x7F, 0xA0)]
            if len(f"a{chr(c)}b".splitlines()) == 1 and chr(c) != "\t"
        )
        record = EmissionRecord(
            f"img{others}.png", others, Split.TRAIN, TranscriptionSource(SourceKind.HUMAN)
        )
        write_ground_truth([record], tmp_path)
        rows = (tmp_path / "train.tsv").read_text(encoding="utf-8").splitlines()
        assert rows == [f"img{others}.png\t{others}"]

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "nested" / "gt"
        write_ground_truth([], target)
        assert (target / "train.tsv").exists()


_field_text = st.text(
    alphabet=st.sampled_from(["a", "b", " ", "é", "\t", "\n", "\r", "\x85", "\u2028", "\x0b"]),
    max_size=5,
)
_images = st.sampled_from(["img/a.png", "img/b.png"]) | _field_text


@st.composite
def _emittable_corpora(draw):
    """Lines of every shape ``emit`` meets: 1-2 human readings, 0-2
    automatic ones, either aggregate or none, any split or none, and
    images that may share a name. An image that breaks a row is refused
    when its line is built, and that line is left out."""
    words = st.sampled_from(["un", "deux", "trois", "é è"])
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        humans = draw(st.lists(words, min_size=1, max_size=2))
        autos = draw(st.lists(words, max_size=2))
        rover, rasa = draw(st.none() | words), draw(st.none() | words)
        fields = dict(
            humans=tuple(humans),
            autos=tuple(autos),
            rover=rover,
            rasa=rasa,
            image=draw(_images),
            split=draw(st.sampled_from([*Split, *Split, None])),
        )
        if reference_breaks_row(fields["image"]):
            with pytest.raises(ValueError, match="'image' .* contains a tab or newline"):
                build_line(f"L{i}", **fields)
        else:
            lines.append(build_line(f"L{i}", **fields))
    return Corpus(tuple(lines))


def _outcome(step):
    try:
        return step()
    except ValueError as exc:  # ManifestError, or a row break
        return type(exc), str(exc)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestEmissionMatchesReference:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=_emittable_corpora(), seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_records_and_files_under_every_strategy(self, corpus, seed, tmp_path_factory):
        base = tmp_path_factory.mktemp("emit")
        for strategy in Strategy:
            expected = _outcome(lambda: reference_emit(corpus, strategy, seed))
            assert _outcome(lambda: emit(corpus, strategy, seed)) == expected
            if not isinstance(expected, list):
                continue
            ref, new = base / f"{strategy.value}-ref", base / f"{strategy.value}-new"
            written = _outcome(lambda: reference_write_ground_truth(expected, ref))
            assert _outcome(lambda: write_ground_truth(expected, new)) == written
            assert _files(new) == _files(ref)

    @given(
        rows=st.lists(
            st.tuples(_images, _field_text, st.sampled_from(list(Split))), max_size=6
        )
    )
    def test_written_records_built_in_code(self, rows, tmp_path_factory):
        base = tmp_path_factory.mktemp("gt")
        human = TranscriptionSource(SourceKind.HUMAN)
        if any(reference_breaks_row(value) for image, text, _ in rows for value in (image, text)):
            with pytest.raises(ValueError, match="contains a tab or newline"):
                [EmissionRecord(image, text, split, human) for image, text, split in rows]
            return
        records = [EmissionRecord(image, text, split, human) for image, text, split in rows]
        written = _outcome(lambda: reference_write_ground_truth(records, base / "ref"))
        assert _outcome(lambda: write_ground_truth(records, base / "new")) == written
        assert _files(base / "new") == _files(base / "ref")


def _one(line):
    return Corpus((line,))


# Two human and three automatic readings whose word-level consensus is empty.
_EMPTY_CONSENSUS = TranscribedLine(
    "A",
    "images/A.png",
    tuple(
        Transcription(text, TranscriptionSource(kind))
        for text, kind in [
            ("a ab b", SourceKind.HUMAN),
            ("ab", SourceKind.HUMAN),
            ("a", SourceKind.AUTO_PYLAIA),
            ("bbab", SourceKind.AUTO_DAN),
            ("bbb", SourceKind.AUTO_PYLAIA),
        ]
    ),
)


class TestErrorKinds:
    """A line a step cannot use raises ``ManifestError``, which the CLI reports
    as exit 2; a bad argument from the caller stays a plain ``ValueError``."""

    @pytest.mark.parametrize(
        "step, message",
        [
            (lambda: filter_by_agreement(_one(build_line("A", agreement=90.0)), 50.0),
             "line 'A' has no split annotation"),
            (lambda: filter_by_agreement(_one(build_line("A", split=Split.TRAIN)), 50.0),
             "train line 'A' has no agreement score"),
            (lambda: emit(_one(build_line("A")), Strategy.ALL_HUMAN),
             "line 'A' has no split annotation"),
            (lambda: emit(_one(build_line("A", split=Split.TRAIN)), Strategy.ROVER_ONE),
             "line 'A' has no aggregate:rover transcription"),
            (lambda: emit(_one(build_line("A", split=Split.TRAIN)), Strategy.ALL_WITH_AGGREGATES),
             "line 'A' has no aggregate:rasa transcription"),
            (lambda: consensus_transcription(_EMPTY_CONSENSUS, Granularity.WORD),
             "consensus for line 'A' is empty"),
        ],
        ids=[
            "filter-no-split", "filter-no-agreement", "emit-no-split", "emit-no-rover",
            "emit-no-rasa", "rover-empty-consensus",
        ],
    )
    def test_unusable_line_is_a_manifest_error(self, step, message):
        with pytest.raises(ManifestError) as excinfo:
            step()
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize(
        "step",
        [
            lambda: filter_by_agreement(Corpus(()), 100.5),
            lambda: random_split(_one(build_line("A")), (2, 0, 0), seed=0),
            lambda: apply_split(_one(build_line("A")), []),
            lambda: apply_split(_one(build_line("A")), [Split.TRAIN, Split.TRAIN]),
            lambda: rover_consensus([]),
            lambda: build_line("A").with_aggregate(
                Transcription("x", TranscriptionSource(SourceKind.HUMAN))
            ),
            lambda: EmissionRecord(
                "a\tb", "x", Split.TRAIN, TranscriptionSource(SourceKind.HUMAN)
            ),
        ],
        ids=["threshold", "split-sizes", "split-map", "split-extra", "empty-texts",
             "aggregate-kind", "row-break"],
    )
    def test_bad_argument_is_a_plain_value_error(self, step):
        with pytest.raises(ValueError) as excinfo:
            step()
        assert not isinstance(excinfo.value, ManifestError)
