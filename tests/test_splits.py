from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import (
    Corpus,
    ManifestError,
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
from oracles import reference_agreement_split, reference_random_split

_TEXT = st.text(alphabet="abc", min_size=1, max_size=40)


@st.composite
def _humans(draw):
    """One or two human texts: identical, near (< 5%), at the 5% boundary, or
    drawn independently and so mostly far apart."""
    kind = draw(st.sampled_from(("single", "identical", "near", "boundary", "far")))
    if kind == "single":
        return (draw(_TEXT),)
    if kind == "identical":
        text = draw(_TEXT)
        return (text, text)
    if kind == "far":
        return (draw(_TEXT), draw(_TEXT))
    # Substituting one or two characters of an equal-length string is an edit
    # distance of exactly that many: 1 over 21+ characters is near, 1 over 20
    # or 2 over 40 is the boundary.
    edits = 1 if kind == "near" else draw(st.integers(min_value=1, max_value=2))
    size = draw(st.integers(min_value=21, max_value=60)) if kind == "near" else 20 * edits
    text = draw(st.text(alphabet="abc", min_size=size, max_size=size))
    chars = list(text)
    positions = st.lists(st.integers(0, size - 1), min_size=edits, max_size=edits, unique=True)
    for index in draw(positions):
        chars[index] = "d"
    return (text, "".join(chars))


@st.composite
def _sized_corpus(draw):
    """A corpus of 0 to 30 lines and (train, validation, test) sizes summing to it."""
    n = draw(st.integers(min_value=0, max_value=30))
    train = draw(st.integers(min_value=0, max_value=n))
    validation = draw(st.integers(min_value=0, max_value=n - train))
    corpus = Corpus(tuple(build_line(f"L{i}") for i in range(n)))
    return corpus, (train, validation, n - train - validation)


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
        assert agreement_split(corpus) == [Split.TEST]

    def test_near_agreement_goes_to_validation(self, make_corpus, make_line):
        h1 = "bonjour monsieur le maire de belfort"
        h2 = h1.replace("maire", "mairx")
        assert 0 < sym_char_distance(h1, h2) < 0.05
        corpus = make_corpus(make_line("A", humans=(h1, h2)))
        assert agreement_split(corpus) == [Split.VALIDATION]

    def test_disagreement_goes_to_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", humans=("chat", "cheval")))
        assert agreement_split(corpus) == [Split.TRAIN]

    def test_boundary_distance_goes_to_train(self, make_corpus, make_line):
        # exactly one edit over twenty characters: d = 0.05, not < 0.05
        h1 = "a" * 20
        h2 = "b" + "a" * 19
        assert sym_char_distance(h1, h2) == 0.05
        corpus = make_corpus(make_line("A", humans=(h1, h2)))
        assert agreement_split(corpus) == [Split.TRAIN]

    def test_single_human_goes_to_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", humans=("seul",), autos=("seul", "seul")))
        assert agreement_split(corpus) == [Split.TRAIN]

    def test_no_human_rejected(self):
        # A line without a human reading cannot be built, so no split sees one.
        with pytest.raises(ValueError, match="expected 1 or 2 human transcriptions, found 0") as e:
            build_line("A", humans=(), autos=("x", "y"))
        assert not isinstance(e.value, ManifestError)

    @given(st.lists(st.tuples(st.text(alphabet="ab", min_size=1, max_size=6),
                              st.text(alphabet="ab", min_size=1, max_size=6)),
                    min_size=1, max_size=20))
    def test_partition_and_soundness(self, pairs):
        lines = tuple(
            build_line(f"L{i}", humans=(h1, h2)) for i, (h1, h2) in enumerate(pairs)
        )
        corpus = Corpus(lines)
        splits = agreement_split(corpus)
        assert len(splits) == len(corpus)
        for line, split in zip(corpus, splits):
            h1, h2 = (t.text for t in line.human_transcriptions)
            d = sym_char_distance(h1, h2)
            if split is Split.TEST:
                assert h1 == h2
            elif split is Split.VALIDATION:
                assert 0 < d < 0.05
            else:
                assert d >= 0.05

    @given(st.lists(_humans(), max_size=20))
    def test_matches_the_line_id_map_reference(self, humans):
        corpus = Corpus(tuple(build_line(f"L{i}", humans=h) for i, h in enumerate(humans)))
        reference = reference_agreement_split(corpus)
        assert agreement_split(corpus) == [reference[line.line_id] for line in corpus.lines]


class TestRandomSplit:
    def test_single_line_always_train(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"))
        for seed in (0, 1, 2, 12345):
            assert random_split(corpus, (1, 0, 0), seed) == [Split.TRAIN]

    def test_exact_cardinalities(self, make_corpus):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(20)))
        counts = split_counts(random_split(corpus, (12, 5, 3), 7))
        assert counts == {Split.TRAIN: 12, Split.VALIDATION: 5, Split.TEST: 3}

    def test_determinism_per_seed(self, make_corpus):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(50)))
        assert random_split(corpus, (30, 10, 10), 42) == random_split(corpus, (30, 10, 10), 42)

    def test_seeds_generally_differ(self):
        corpus = Corpus(tuple(build_line(f"L{i}") for i in range(50)))
        a = random_split(corpus, (30, 10, 10), 1)
        b = random_split(corpus, (30, 10, 10), 2)
        assert a != b

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
        splits = random_split(corpus, (train, val, n - train - val), seed)
        assert len(splits) == n
        counts = split_counts(splits)
        assert counts[Split.TRAIN] == train and counts[Split.VALIDATION] == val

    @given(st.integers(min_value=0, max_value=2**64 - 1), _sized_corpus())
    def test_matches_the_line_id_map_reference(self, seed, sized):
        corpus, sizes = sized
        reference = reference_random_split(corpus, sizes, seed)
        assert random_split(corpus, sizes, seed) == [
            reference[line.line_id] for line in corpus.lines
        ]


class TestSplitCounts:
    def test_members_and_values_count_alike(self):
        # A value counts as its member, as every record and apply_split take it.
        assert split_counts(["train"]) == {Split.TRAIN: 1, Split.VALIDATION: 0, Split.TEST: 0}
        mixed = [Split.TEST, "val", "train", Split.TRAIN, "test", "test"]
        assert split_counts(mixed) == {Split.TRAIN: 2, Split.VALIDATION: 1, Split.TEST: 3}
        assert split_counts(iter(mixed)) == split_counts(Split(s) for s in mixed)
        assert split_counts([]) == {Split.TRAIN: 0, Split.VALIDATION: 0, Split.TEST: 0}

    @pytest.mark.parametrize(
        "item, shown",
        [(None, "None"), ("TRAIN", "'TRAIN'"), ("bogus", "'bogus'"), (0, "0"), ([], "[]")],
        ids=["none", "member-name", "unknown", "int", "unhashable"],
    )
    def test_anything_else_is_refused(self, item, shown):
        # Never dropped: an item that is neither a member nor a value raises,
        # wherever it stands among members.
        with pytest.raises(ValueError, match=f"^unknown split {re.escape(shown)}$"):
            split_counts([item])
        with pytest.raises(ValueError, match=f"^unknown split {re.escape(shown)}$"):
            split_counts([Split.TRAIN, "val", item, Split.TEST])


class TestApplyAndRecover:
    def test_apply_then_recover(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A"), make_line("B"))
        splits = random_split(corpus, (1, 1, 0), 3)
        annotated = apply_split(corpus, splits)
        assert [line.split for line in annotated] == splits

    def test_apply_missing_line_rejected(self, make_corpus, make_line):
        # One split fewer, or one more, than lines.
        corpus = make_corpus(make_line("A"), make_line("B"))
        with pytest.raises(ValueError, match="shorter"):
            apply_split(corpus, [Split.TRAIN])
        with pytest.raises(ValueError, match="longer"):
            apply_split(corpus, [Split.TRAIN, Split.TEST, Split.VALIDATION])

    def test_recover_requires_annotations(self, make_corpus, make_line):
        corpus = make_corpus(make_line("A", split=Split.TEST), make_line("B"))
        with pytest.raises(ValueError, match="'B' has no split annotation"):
            filter_by_agreement(corpus, 50.0)
        with pytest.raises(ValueError, match="'B' has no split annotation"):
            emit(corpus, Strategy.ALL_HUMAN)
