from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    Split,
    agreement_score,
    filter_by_agreement,
)
from conftest import build_line


class TestAgreementScore:
    def test_identical_pair_scores_100(self, make_line):
        assert agreement_score(make_line("A", humans=("cat", "cat"))) == 100.0

    def test_three_against_one(self, make_line):
        # consensus "abc"; distances 0, 0, 0, 1; mean 0.25
        line = make_line("A", humans=("abc", "abc"), autos=("abc", "xyz"))
        assert agreement_score(line) == 75.0

    def test_cat_cot(self, make_line):
        # consensus "cat" (tie a < o); distances 0 and 1/3
        line = make_line("A", humans=("cat", "cot"))
        assert agreement_score(line) == pytest.approx(100 * (1 - 1 / 6))

    def test_aggregates_never_score(self, make_line):
        base = make_line("A", humans=("cat", "cot"))
        with_aggregates = make_line("A", humans=("cat", "cot"), rover="zzz", rasa="zzz")
        assert agreement_score(base) == agreement_score(with_aggregates)

    def test_single_transcription_scores_100(self, make_line):
        assert agreement_score(make_line("A", humans=("whatever",))) == 100.0

    @given(
        st.lists(st.text(alphabet="ab ", min_size=1, max_size=8).filter(str.strip),
                 min_size=1, max_size=2),
        st.lists(st.text(alphabet="ab ", min_size=1, max_size=8).filter(str.strip),
                 min_size=0, max_size=2),
    )
    def test_range_and_unanimity(self, humans, autos):
        line = build_line("A", humans=tuple(humans), autos=tuple(autos))
        score = agreement_score(line)
        assert 0.0 <= score <= 100.0
        votable = [t.text for t in line.transcriptions]
        if len(set(votable)) == 1:
            assert score == 100.0
        else:
            assert score < 100.0

    def test_scores_attach_line_by_line(self, make_corpus, make_line):
        corpus = make_corpus(
            make_line("A", humans=("x y", "x y")), make_line("B", humans=("cat", "cot"))
        )
        annotated = Corpus(
            tuple(line.with_agreement(agreement_score(line)) for line in corpus.lines)
        )
        assert [line.line_id for line in annotated] == ["A", "B"]
        assert [line.agreement for line in annotated] == [
            100.0,
            pytest.approx(100 * (1 - 1 / 6)),
        ]


class TestFilter:
    def test_drops_low_train_lines_only(self, make_corpus, make_line):
        corpus = make_corpus(
            make_line("A", split=Split.TRAIN, agreement=10.0),
            make_line("B", split=Split.VALIDATION, agreement=10.0),
            make_line("C", split=Split.TEST, agreement=10.0),
        )
        filtered = filter_by_agreement(corpus, 90.0)
        assert [line.line_id for line in filtered] == ["B", "C"]

    def test_exact_threshold_retained(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", split=Split.TRAIN, agreement=90.0))
        assert len(filter_by_agreement(corpus, 90.0)) == 1

    def test_threshold_zero_retains_all(self, make_corpus, make_line):
        corpus = make_corpus(
            make_line("A", split=Split.TRAIN, agreement=0.0),
            make_line("B", split=Split.TRAIN, agreement=55.0),
        )
        assert len(filter_by_agreement(corpus, 0.0)) == 2

    def test_missing_train_score_rejected(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", split=Split.TRAIN))
        with pytest.raises(ValueError, match="no agreement score"):
            filter_by_agreement(corpus, 50.0)

    def test_missing_split_rejected(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", agreement=90.0))
        with pytest.raises(ValueError, match="no split annotation"):
            filter_by_agreement(corpus, 50.0)

    def test_val_test_survive_without_scores(self, make_corpus, make_line):
        corpus = make_corpus(
            make_line("A", split=Split.VALIDATION), make_line("B", split=Split.TEST)
        )
        assert len(filter_by_agreement(corpus, 99.0)) == 2

    def test_bad_threshold_rejected(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", split=Split.TRAIN, agreement=50.0))
        for bad in (-1.0, 100.5):
            with pytest.raises(ValueError):
                filter_by_agreement(corpus, bad)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=0, max_size=40))
    def test_monotone_over_nested_thresholds(self, values):
        corpus = Corpus(
            tuple(
                build_line(f"L{i}", split=Split.TRAIN, agreement=v)
                for i, v in enumerate(values)
            )
        )
        previous = None
        for threshold in (0.0, 25.0, 50.0, 90.0, 97.0, 99.0, 100.0):
            retained = {line.line_id for line in filter_by_agreement(corpus, threshold)}
            if previous is not None:
                assert retained <= previous
            previous = retained
