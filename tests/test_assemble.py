from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    EmissionRecord,
    SourceKind,
    Split,
    Strategy,
    TranscriptionSource,
    emit,
    write_ground_truth,
)
from conftest import build_line


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

    def test_tab_in_image_ref_rejected(self, tmp_path):
        record = EmissionRecord(
            "img\tbad.png", "texte", Split.TRAIN, TranscriptionSource(SourceKind.HUMAN)
        )
        with pytest.raises(ValueError, match="tab or newline"):
            write_ground_truth([record], tmp_path)

    def test_creates_missing_directory(self, tmp_path):
        target = tmp_path / "nested" / "gt"
        write_ground_truth([], target)
        assert (target / "train.tsv").exists()
