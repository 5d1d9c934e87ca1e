from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aggrescribe import SourceKind, distance_matrix, rasa_select
from aggrescribe.rasa import MAX_ITERATIONS, selected_transcription
from oracles import numpy_rasa_select

texts = st.lists(st.text(alphabet="abc ", max_size=8), min_size=1, max_size=6)


class TestDistanceMatrix:
    def test_single(self):
        assert distance_matrix(["a"]) == [[0.0]]

    def test_identical_pair(self):
        assert distance_matrix(["abc", "abc"]) == [[0.0, 0.0], [0.0, 0.0]]

    def test_off_diagonal(self):
        matrix = distance_matrix(["abcd", "abed"])
        assert matrix[0][1] == matrix[1][0] == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_matrix([])

    @given(texts)
    def test_symmetric_zero_diagonal(self, inputs):
        matrix = distance_matrix(inputs)
        assert matrix == [list(column) for column in zip(*matrix)]
        assert all(matrix[i][i] == 0.0 for i in range(len(matrix)))


class TestRasaSelect:
    def test_single_input(self):
        pick = rasa_select(["bonjour"])
        assert pick.index == 0
        assert pick.weights == (1.0,)
        assert pick.converged

    def test_duplicate_majority_lowest_index(self):
        pick = rasa_select(["cat", "cat", "dog"])
        assert pick.index == 0

    def test_symmetric_tie_lowest_index(self):
        assert rasa_select(["aaaa", "bbbb", "cccc"]).index == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rasa_select([])

    def test_permuted_distance_rows_tie_to_lowest_index(self):
        # rows 1 and 2 of the distance matrix are permutations of
        # [5/18, 0, 1/6], so their scores tie exactly; summation order may
        # still leave them a few ulps apart
        inputs = ["cbdddééba.a. céacd", "dbdddédbéaaé céacd", "dbdddéébéaé céa.d"]
        assert rasa_select(inputs).index == 1

    def test_near_tie_goes_to_lowest_index(self):
        # a line of the seed-58 belfort-char benchmark corpus: candidates 0 and
        # 2 tie exactly, and summed in plain floats candidate 2 comes out a few
        # ulps lower, so a bare argmin would pick it
        inputs = [
            "legs public excusé receveur foire demande taxe garnison",
            "legs puçlic excusé receveur foire demande taxe garnison",
            "legs public excugé receveur foire demande taxe garnison",
            "legs public excugéereceveur foire demande taxe garnison",
        ]
        assert rasa_select(inputs).index == 0

    @given(texts)
    def test_matches_numpy_reference(self, inputs):
        pick = rasa_select(inputs)
        reference, scores = numpy_rasa_select(inputs)
        assert (pick.iterations, pick.converged) == (reference.iterations, reference.converged)
        assert pick.weights == pytest.approx(reference.weights, rel=0, abs=1e-12)
        lowest_tied = next(i for i, s in enumerate(scores) if s <= min(scores) + 1e-9)
        assert pick.index == lowest_tied

    @given(texts)
    def test_membership_and_weight_simplex(self, inputs):
        pick = rasa_select(inputs)
        assert 0 <= pick.index < len(inputs)
        assert all(w >= 0 for w in pick.weights)
        assert sum(pick.weights) == pytest.approx(1.0, abs=1e-9)
        assert pick.iterations <= MAX_ITERATIONS

    @given(texts, st.text(alphabet="abc ", min_size=1, max_size=8))
    def test_majority_dominance(self, others, s):
        # strictly more copies of s than everything else combined
        inputs = others + [s] * (len(others) + 1)
        pick = rasa_select(inputs)
        assert inputs[pick.index] == s

    def test_permutation_keeps_unique_winner(self):
        # "cot" is the strict medoid here, whatever the input order
        inputs = ["cat", "cot", "dog"]
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            permuted = [inputs[i] for i in order]
            assert permuted[rasa_select(permuted).index] == "cot"

    @given(texts, st.randoms(use_true_random=False))
    def test_permutation_equivariance_modulo_ties(self, inputs, rnd):
        # exact score ties break by input position, so permuting the list may
        # swap which tied text wins; the pick must stay inside the tie set
        order = list(range(len(inputs)))
        rnd.shuffle(order)
        base = rasa_select(inputs)
        scores = [
            sum(d * w for d, w in zip(row, base.weights)) for row in distance_matrix(inputs)
        ]
        tied = {inputs[i] for i in range(len(inputs)) if scores[i] <= min(scores) + 1e-9}
        permuted = rasa_select([inputs[i] for i in order])
        assert [inputs[i] for i in order][permuted.index] in tied


class TestLineSelection:
    def test_tags_aggregate_source(self, make_line):
        line = make_line("A", humans=("cat", "cat"), autos=("dog",))
        t = selected_transcription(line)
        assert t.text == "cat"
        assert t.source.kind is SourceKind.AGGREGATE_RASA

    def test_existing_aggregates_excluded(self, make_line):
        line = make_line("A", humans=("cat",), rover="dog", rasa="dog")
        assert selected_transcription(line).text == "cat"
