from __future__ import annotations

from collections import Counter
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import SourceKind, Granularity, build_lattice, rover_consensus, tokenize, vote
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


class TestTokenize:
    def test_character_keeps_spaces(self):
        assert tokenize("ab c", CHAR) == ["a", "b", " ", "c"]

    def test_word_splits_runs(self):
        assert tokenize("le  chat ", WORD) == ["le", "chat"]

    def test_empty(self):
        assert tokenize("", WORD) == []
        assert tokenize("", CHAR) == []


class TestBuildLattice:
    def test_single_sequence(self):
        lattice = build_lattice([["c", "a", "t"]])
        assert lattice.num_inputs == 1
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
        assert lattice.num_inputs == len(inputs)
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
        st.lists(st.text(alphabet="ab c", max_size=30), min_size=1, max_size=5),
        st.sampled_from([CHAR, WORD]),
    )
    def test_matches_full_table_merge(self, inputs, level):
        sequences = [tokenize(t, level) for t in inputs]
        expected = full_table_lattice(sequences)
        lattice = build_lattice(sequences)
        assert [dict(slot) for slot in lattice.slots] == [dict(slot) for slot in expected]
        text = vote(TokenLattice(tuple(expected), len(inputs)), level).text
        assert rover_consensus(inputs, level).text == (inputs[0] if len(inputs) == 1 else text)


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
