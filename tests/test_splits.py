from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    SeededRng,
    Split,
    Strategy,
    agreement_split,
    apply_split,
    emit,
    filter_by_agreement,
    random_split,
    split_counts,
    sym_char_distance,
)
from conftest import build_line


class TestSeededRng:
    def test_splitmix64_reference_vector(self):
        # published outputs of the reference splitmix64 for seed 0
        rng = SeededRng(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_shuffle(self):
        a = list(range(100))
        b = list(range(100))
        SeededRng(99).shuffle(a)
        SeededRng(99).shuffle(b)
        assert a == b

    def test_different_seeds_differ(self):
        a = list(range(100))
        b = list(range(100))
        SeededRng(1).shuffle(a)
        SeededRng(2).shuffle(b)
        assert a != b

    def test_randbelow_bounds(self):
        rng = SeededRng(7)
        assert all(0 <= rng.randbelow(13) < 13 for _ in range(1000))
        with pytest.raises(ValueError):
            rng.randbelow(0)


class TestAgreementSplit:
    def test_exact_agreement_goes_to_test(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", humans=("séance du 3 mai", "séance du 3 mai")))
        assert agreement_split(corpus)["A"] is Split.TEST

    def test_near_agreement_goes_to_validation(self, make_corpus, make_line):
        h1 = "bonjour monsieur le maire de belfort"
        h2 = h1.replace("maire", "mairx")
        assert 0 < sym_char_distance(h1, h2) < 0.05
        corpus = make_corpus(make_line("A", humans=(h1, h2)))
        assert agreement_split(corpus)["A"] is Split.VALIDATION

    def test_disagreement_goes_to_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", humans=("chat", "cheval")))
        assert agreement_split(corpus)["A"] is Split.TRAIN

    def test_boundary_distance_goes_to_train(self, make_corpus, make_line):
        # exactly one edit over twenty characters: d = 0.05, not < 0.05
        h1 = "a" * 20
        h2 = "b" + "a" * 19
        assert sym_char_distance(h1, h2) == 0.05
        corpus = make_corpus(make_line("A", humans=(h1, h2)))
        assert agreement_split(corpus)["A"] is Split.TRAIN

    def test_single_human_goes_to_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", humans=("seul",), autos=("seul", "seul")))
        assert agreement_split(corpus)["A"] is Split.TRAIN

    def test_no_human_rejected(self, make_corpus):
        line = build_line("A", humans=(), autos=("x", "y"))
        with pytest.raises(ValueError, match="no human"):
            agreement_split(Corpus((line,)))

    @given(st.lists(st.tuples(st.text(alphabet="ab", min_size=1, max_size=6),
                              st.text(alphabet="ab", min_size=1, max_size=6)),
                    min_size=1, max_size=20))
    def test_partition_and_soundness(self, pairs):
        lines = tuple(
            build_line(f"L{i}", humans=(h1, h2)) for i, (h1, h2) in enumerate(pairs)
        )
        corpus = Corpus(lines)
        assignments = agreement_split(corpus)
        assert set(assignments) == {line.line_id for line in corpus}
        for line in corpus:
            split = assignments[line.line_id]
            h1, h2 = (t.text for t in line.human_transcriptions)
            d = sym_char_distance(h1, h2)
            if split is Split.TEST:
                assert h1 == h2
            elif split is Split.VALIDATION:
                assert 0 < d < 0.05
            else:
                assert d >= 0.05


class TestRandomSplit:
    def test_single_line_always_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"))
        for seed in (0, 1, 2, 12345):
            assert random_split(corpus, (1, 0, 0), seed)["A"] is Split.TRAIN

    def test_exact_cardinalities(self, make_corpus):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(20)))
        counts = split_counts(random_split(corpus, (12, 5, 3), 7).values())
        assert counts == {Split.TRAIN: 12, Split.VALIDATION: 5, Split.TEST: 3}

    def test_determinism_per_seed(self, make_corpus):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(50)))
        assert random_split(corpus, (30, 10, 10), 42) == random_split(corpus, (30, 10, 10), 42)

    def test_seeds_generally_differ(self):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(50)))
        a = random_split(corpus, (30, 10, 10), 1)
        b = random_split(corpus, (30, 10, 10), 2)
        assert any(a[k] != b[k] for k in a)

    def test_size_mismatch_rejected(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"), make_line("B"))
        with pytest.raises(ValueError, match="sum"):
            random_split(corpus, (2, 1, 0), 0)
        with pytest.raises(ValueError, match="non-negative"):
            random_split(corpus, (3, -1, 0), 0)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=30))
    def test_partition_for_any_seed(self, seed, n):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(n)))
        train = n // 2
        val = n // 4
        assignments = random_split(corpus, (train, val, n - train - val), seed)
        assert set(assignments) == {line.line_id for line in corpus}
        counts = split_counts(assignments.values())
        assert counts[Split.TRAIN] == train and counts[Split.VALIDATION] == val


class TestApplyAndRecover:
    def test_apply_then_recover(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"), make_line("B"))
        assignments = random_split(corpus, (1, 1, 0), 3)
        annotated = apply_split(corpus, assignments)
        assert {line.line_id: line.split for line in annotated} == assignments

    def test_apply_missing_line_rejected(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"))
        with pytest.raises(ValueError, match="split map"):
            apply_split(corpus, {})

    def test_recover_requires_annotations(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", split=Split.TEST), make_line("B"))
        with pytest.raises(ValueError, match="'B' has no split annotation"):
            filter_by_agreement(corpus, 50.0)
        with pytest.raises(ValueError, match="'B' has no split annotation"):
            emit(corpus, Strategy.ALL_HUMAN)
