from __future__ import annotations

from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aggrescribe import (
    Granularity,
    SourceKind,
    TranscribedLine,
    Transcription,
    TranscriptionSource,
    build_lattice,
    canonical_transcriptions,
    normalize_text,
    rover_consensus,
    tokenize,
    vote,
)
from aggrescribe.rover import NULL, TokenLattice, consensus_transcription
from oracles import full_table_lattice, positional_consensus

CHAR = Granularity.CHARACTER
WORD = Granularity.WORD

texts = st.lists(st.text(alphabet="abc ", max_size=8), min_size=1, max_size=5)


@st.composite
def equal_length_texts(draw):
    length = draw(st.integers(min_value=0, max_value=8))
    return draw(
        st.lists(
            st.text(alphabet="ab c", min_size=length, max_size=length),
            min_size=1,
            max_size=5,
        )
    )


@st.composite
def gapped_folds(draw):
    """A base text, then readings of it made 1 to 8 characters longer or
    shorter; the alphabet "a" gives runs of one repeated token."""
    alphabet = draw(st.sampled_from(["a", "ab", "abc "]))
    base = draw(st.text(alphabet=alphabet, min_size=8, max_size=16))
    readings = [base]
    for _ in range(draw(st.integers(1, 4))):
        chars = list(base)
        longer = draw(st.booleans())
        for _ in range(draw(st.integers(1, 8))):
            if longer:
                chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(alphabet)))
            else:
                del chars[draw(st.integers(0, len(chars) - 1))]
        readings.append("".join(chars))
    return readings


_VOCABULARY = ("a", "ab", "b", "ba", "bb", "bbab")


@st.composite
def voting_lines(draw):
    """A line of 3 to 6 readings, one or two of them human, each of 1 to 4
    words from a six-word vocabulary: a few such lines vote empty at word
    level."""
    humans = draw(st.integers(1, 2))
    total = draw(st.integers(3, 6))
    kinds = [SourceKind.HUMAN] * humans + draw(
        st.lists(
            st.sampled_from([SourceKind.AUTO_PYLAIA, SourceKind.AUTO_DAN]),
            min_size=total - humans,
            max_size=total - humans,
        )
    )
    words = st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=4)
    return TranscribedLine(
        "L",
        "images/L.png",
        tuple(Transcription(" ".join(draw(words)), TranscriptionSource(k)) for k in kinds),
    )


# Two human and three automatic readings whose word-level vote is empty.
_EMPTY_VOTE = TranscribedLine(
    "L",
    "images/L.png",
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


class TestTokenize:
    def test_character_keeps_spaces(self):
        assert tokenize("ab c", CHAR) == ["a", "b", " ", "c"]

    def test_word_splits_runs(self):
        assert tokenize("le  chat ", WORD) == ["le", "chat"]

    def test_empty(self):
        assert tokenize("", WORD) == []
        assert tokenize("", CHAR) == []


class TestLevelValues:
    """A level given by its value acts as its member; any other value raises."""

    def test_char_value_is_character_level(self):
        assert tokenize("ab c", "char") == ["a", "b", " ", "c"]
        assert rover_consensus(["abc", "abd", "xbd"], "char").text == "abd"

    @pytest.mark.parametrize("level", list(Granularity), ids=lambda level: level.value)
    def test_value_acts_as_member(self, level):
        texts = ["ab c", "abd c", "xbd"]
        assert tokenize(texts[0], level.value) == tokenize(texts[0], level)
        lattice = build_lattice([tokenize(t, level) for t in texts])
        assert vote(lattice, level.value) == vote(lattice, level)
        assert rover_consensus(texts, level.value) == rover_consensus(texts, level)

    @pytest.mark.parametrize("level", ["bogus", "CHARACTER", "Char", None])
    def test_unknown_level_rejected(self, level, make_line):
        lattice = build_lattice([["a"], ["b"]])
        line = make_line("A", humans=("ab", "ac"))
        for step in (
            lambda: tokenize("ab c", level),
            lambda: vote(lattice, level),
            lambda: rover_consensus(["ab", "ac"], level),
            # Not the empty vote's fallback to the first reading.
            lambda: consensus_transcription(line, level),
        ):
            with pytest.raises(ValueError):
                step()


class TestBuildLattice:
    def test_single_sequence(self):
        lattice = build_lattice([["c", "a", "t"]])
        assert [dict(slot) for slot in lattice.slots] == [{"c": 1}, {"a": 1}, {"t": 1}]

    def test_shorter_sequence_pads_null(self):
        lattice = build_lattice([["a", "b"], ["a", "b"], ["b"]])
        assert [dict(slot) for slot in lattice.slots] == [
            {"a": 2, NULL: 1},
            {"b": 3},
        ]

    def test_identical_sequences_stack(self):
        lattice = build_lattice([list("chat")] * 4)
        assert len(lattice.slots) == 4
        for token, slot in zip("chat", lattice.slots):
            assert dict(slot) == {token: 4}

    def test_empty_input_list_rejected(self):
        with pytest.raises(ValueError):
            build_lattice([])

    def test_longer_sequence_opens_slots(self):
        lattice = build_lattice([["b"], ["a", "b"]])
        assert [dict(slot) for slot in lattice.slots] == [
            {"a": 1, NULL: 1},
            {"b": 2},
        ]

    @given(texts)
    def test_multiplicity_equals_input_count(self, inputs):
        lattice = build_lattice([tokenize(t, CHAR) for t in inputs])
        for slot in lattice.slots:
            assert sum(slot.values()) == len(inputs)

    @given(texts)
    def test_token_conservation(self, inputs):
        # every input token lands in exactly one slot
        sequences = [tokenize(t, CHAR) for t in inputs]
        lattice = build_lattice(sequences)
        in_slots = Counter()
        for slot in lattice.slots:
            for token, count in slot.items():
                if token is not NULL:
                    in_slots[token] += count
        assert in_slots == Counter(chain.from_iterable(sequences))


    @given(
        st.tuples(
            st.lists(st.text(alphabet="ab c", max_size=30), min_size=1, max_size=5),
            st.sampled_from([CHAR, WORD]),
        )
        | st.tuples(gapped_folds(), st.just(CHAR))
    )
    @example((["aaaa", "aaaaaaa"], CHAR))
    @example((["aaaaaaa", "aaaa"], CHAR))
    def test_matches_full_table_merge(self, case):
        inputs, level = case
        sequences = [tokenize(t, level) for t in inputs]
        expected = full_table_lattice(sequences)
        lattice = build_lattice(sequences)
        assert [dict(slot) for slot in lattice.slots] == [dict(slot) for slot in expected]
        text = vote(TokenLattice(tuple(expected)), level).text
        assert rover_consensus(inputs, level).text == (inputs[0] if len(inputs) == 1 else text)

    @given(
        equal_length_texts().map(lambda inputs: [tokenize(t, CHAR) for t in inputs])
        | st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(["le", "la", "chat"]), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_equal_lengths_match_full_table_merge(self, sequences):
        lattice = build_lattice(sequences)
        assert len(lattice.slots) == len(sequences[0])
        assert [dict(slot) for slot in lattice.slots] == [
            dict(slot) for slot in full_table_lattice(sequences)
        ]

    @given(texts)
    def test_builds_share_no_state(self, inputs):
        sequences = [tokenize(t, CHAR) for t in inputs]
        first = build_lattice(sequences)
        snapshot = [dict(slot) for slot in first.slots]
        second = build_lattice(sequences)
        assert [dict(slot) for slot in second.slots] == snapshot
        assert [dict(slot) for slot in first.slots] == snapshot
        assert all(a is not b for a, b in zip(first.slots, second.slots))
        # Every slot of one lattice is its own dict.
        assert len({id(slot) for slot in first.slots}) == len(first.slots)

    def test_slots_are_plain_dicts(self):
        slot = build_lattice([list("ab"), list("ac")]).slots[1]
        assert type(slot) is dict
        assert slot == {"b": 1, "c": 1}
        with pytest.raises(KeyError):
            slot[NULL]


class TestVote:
    def test_unanimous(self):
        assert vote(build_lattice([list("cat")] * 3), CHAR).text == "cat"

    def test_majority_per_slot(self):
        result = rover_consensus(["cat", "cat", "cot"], CHAR)
        assert result.text == "cat"
        assert [dict(s) for s in result.lattice.slots] == [
            {"c": 3},
            {"a": 2, "o": 1},
            {"t": 3},
        ]

    def test_null_loses_ties_to_tokens(self):
        result = rover_consensus(["ab", "ab", "b"], CHAR)
        assert result.text == "ab"
        assert result.per_slot_winner == ("a", "b")

    def test_null_wins_strict_plurality(self):
        result = rover_consensus(["ab", "b", "b"], CHAR)
        assert result.text == "b"
        assert result.per_slot_winner == (NULL, "b")

    def test_token_ties_break_lexicographically(self):
        assert rover_consensus(["cat", "cot"], CHAR).text == "cat"

    def test_tie_goes_to_smallest_real_token_whatever_the_slot_order(self):
        slots = ({"o": 1, "a": 1, "e": 1, NULL: 1}, {"z": 2, "y": 2, NULL: 2}, {NULL: 1})
        result = vote(TokenLattice(slots), CHAR)
        assert result.per_slot_winner == ("a", "y", NULL)
        assert result.text == "ay"

    @given(texts)
    def test_winner_is_smallest_of_the_tied_real_tokens(self, inputs):
        lattice = build_lattice([tokenize(t, CHAR) for t in inputs])
        for winner, slot in zip(vote(lattice, CHAR).per_slot_winner, lattice.slots):
            top = max(slot.values())
            tied = sorted(t for t, count in slot.items() if count == top and t is not NULL)
            assert winner == (tied[0] if tied else NULL)


class TestRoverConsensus:
    def test_single_input_verbatim(self):
        assert rover_consensus(["bonjour"], CHAR).text == "bonjour"
        assert rover_consensus(["le  chat"], WORD).text == "le  chat"

    def test_word_level(self):
        assert rover_consensus(["le chat", "le chat", "la chat"], WORD).text == "le chat"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            rover_consensus([], CHAR)

    def test_shifted_equal_length_stays_positional(self):
        # a unit-cost aligner would shift "baba" one step for cost 2; the
        # lattice must keep the four positional slots instead
        result = rover_consensus(["abab", "baba"], CHAR)
        assert len(result.lattice.slots) == 4
        assert result.text == positional_consensus(["abab", "baba"])

    @given(st.text(alphabet="ab c", max_size=8), st.integers(min_value=1, max_value=5))
    def test_unanimity(self, text, n):
        assert rover_consensus([text] * n, CHAR).text == text

    @given(texts)
    def test_idempotence(self, inputs):
        consensus = rover_consensus(inputs, CHAR).text
        assert rover_consensus([consensus] * 3, CHAR).text == consensus

    @given(texts)
    def test_determinism(self, inputs):
        first = rover_consensus(inputs, CHAR)
        second = rover_consensus(inputs, CHAR)
        assert first.text == second.text
        assert first.per_slot_winner == second.per_slot_winner

    @given(equal_length_texts())
    def test_equal_length_positional_majority(self, inputs):
        result = rover_consensus(inputs, CHAR)
        if len(inputs) == 1:
            assert result.text == inputs[0]
            return
        assert len(result.lattice.slots) == len(inputs[0])
        assert result.text == positional_consensus(inputs)

    @given(texts)
    def test_provenance(self, inputs):
        # every winner is a member of its slot, and slots only hold input tokens
        result = rover_consensus(inputs, CHAR)
        input_tokens = set(chain.from_iterable(inputs))
        for winner, slot in zip(result.per_slot_winner, result.lattice.slots):
            if winner is not NULL:
                assert slot[winner] >= 1
            assert set(slot) - {NULL} <= input_tokens


class TestLineConsensus:
    def test_votes_in_canonical_order_and_tags_source(self, make_line):
        line = make_line("A", humans=("cat", "cat"), autos=("cot", "cow"))
        t = consensus_transcription(line)
        assert t.text == "cat"
        assert t.source.kind is SourceKind.AGGREGATE_ROVER

    def test_existing_aggregates_do_not_vote(self, make_line):
        line = make_line("A", humans=("cat",), rover="dog", rasa="dog")
        assert consensus_transcription(line).text == "cat"

    @given(line=voting_lines(), level=st.sampled_from([CHAR, WORD, "char", "word"]))
    @example(line=_EMPTY_VOTE, level=WORD)
    @example(line=_EMPTY_VOTE, level="word")
    def test_never_raises_and_flags_only_the_fallback(self, line, level):
        # A member or its value: uncertain exactly when the normalized vote
        # is empty, and otherwise carrying that vote.
        texts = [t.text for t in canonical_transcriptions(line)]
        voted = normalize_text(rover_consensus(texts, level).text)
        t = consensus_transcription(line, level)
        assert t.source.kind is SourceKind.AGGREGATE_ROVER
        if voted:
            assert (t.text, t.uncertain) == (voted, False)
        else:
            assert (t.text, t.uncertain) == (texts[0], True)
