from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrescribe import metrics
from aggrescribe.metrics import cer, sym_char_distance, wer
from oracles import brute_edit_distance, dp_distance

short_text = st.text(alphabet="abc ", max_size=12)
# Repeated tokens, an accented BMP letter and characters outside the BMP.
wide_text = st.text(alphabet="aab \u00e9\U0001F600\U00010348", max_size=12)
# Lengths on both sides of the 64-bit word edge, up to a long line, so the
# bit vectors are ints of several internal digits.
limb_lengths = st.sampled_from([0, 1, 63, 64, 65, 250]) | st.integers(0, 260)


@st.composite
def long_pairs(draw):
    alphabet = draw(st.sampled_from(["a", "ab", "abc ", "a\u00e9\U0001F600 "]))
    a = draw(st.text(alphabet=alphabet, min_size=(n := draw(limb_lengths)), max_size=n))
    if draw(st.booleans()):
        b = draw(st.text(alphabet=alphabet, min_size=(n := draw(limb_lengths)), max_size=n))
    else:
        # A few edits away from a, so long runs of matches carry through
        # the vectors.
        b = list(a)
        for _ in range(draw(st.integers(0, 8))):
            at = draw(st.integers(0, len(b)))
            token = draw(st.sampled_from(alphabet))
            op = draw(st.sampled_from(["insert", "delete", "substitute"]))
            if op == "insert" or at == len(b):
                b.insert(at, token)
            elif op == "delete":
                del b[at]
            else:
                b[at] = token
        b = "".join(b)
    return a, b


words = st.lists(st.sampled_from(["le", "chat", "noir", "le", "\U0001F600"]), max_size=80)


@st.composite
def shared_end_pairs(draw, tokens):
    """Two sequences built as one prefix + two random middles + one suffix,
    so the kernel's trim of shared ends has work to do. Small alphabets make
    the middles overlap the ends."""
    prefix, middle_a, middle_b, suffix = (draw(tokens) for _ in range(4))
    return prefix + middle_a + suffix, prefix + middle_b + suffix


class TestEditDistance:
    def test_both_empty(self):
        assert metrics._distance("", "") == 0

    def test_identity(self):
        assert metrics._distance("chat", "chat") == 0

    def test_kitten_sitting(self):
        # frozen from the recursive oracle
        assert brute_edit_distance("kitten", "sitting") == 3
        assert metrics._distance("kitten", "sitting") == 3

    def test_word_tokens(self):
        assert metrics._distance(["le", "chat"], ["le", "chien"]) == 1

    @given(short_text, short_text)
    def test_matches_recursive_oracle(self, a, b):
        assert metrics._distance(a, b) == brute_edit_distance(a, b)

    @given(short_text, short_text)
    def test_symmetry_and_bounds(self, a, b):
        d = metrics._distance(a, b)
        assert d == metrics._distance(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        dist = metrics._distance
        assert dist(a, c) <= dist(a, b) + dist(b, c)


class TestRates:
    def test_cer_identity(self):
        assert cer("abc", "abc") == 0.0

    def test_cer_single_substitution(self):
        # frozen: 1 edit over 3 reference chars
        assert brute_edit_distance("axc", "abc") == 1
        assert cer("axc", "abc") == pytest.approx(1 / 3)

    def test_cer_empty_hypothesis(self):
        assert cer("", "abc") == 1.0

    def test_cer_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            cer("abc", "")

    def test_cer_can_exceed_one(self):
        assert cer("aaaa", "b") == 4.0

    def test_wer_identity(self):
        assert wer("le chat noir", "le chat noir") == 0.0

    def test_wer_substitution(self):
        assert wer("le chien noir", "le chat noir") == pytest.approx(1 / 3)

    def test_wer_deletions(self):
        assert wer("chat", "le chat noir") == pytest.approx(2 / 3)

    def test_wer_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer("chat", "   ")

    def test_sym_both_empty(self):
        assert sym_char_distance("", "") == 0.0

    def test_sym_identity(self):
        assert sym_char_distance("abc", "abc") == 0.0

    def test_sym_quarter(self):
        assert brute_edit_distance("abcd", "abed") == 1
        assert sym_char_distance("abcd", "abed") == 0.25

    @given(short_text, short_text)
    def test_sym_range_symmetry_and_zero_iff_equal(self, a, b):
        d = sym_char_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == sym_char_distance(b, a)
        assert (d == 0.0) == (a == b)

    @given(short_text.filter(bool), short_text)
    def test_cer_zero_iff_equal(self, reference, hypothesis):
        assert (cer(hypothesis, reference) == 0.0) == (hypothesis == reference)


class TestBitParallelKernel:
    @pytest.mark.parametrize("a, b", [("", ""), ("", "abc"), ("abc", ""), ([], ["le"])])
    def test_empty_sides(self, a, b):
        assert metrics._distance(a, b) == max(len(a), len(b))

    @given(wide_text, wide_text)
    def test_matches_recursive_oracle(self, a, b):
        expected = brute_edit_distance(a, b)
        assert metrics._distance(a, b) == expected

    @settings(deadline=None)
    @given(long_pairs())
    def test_matches_dp_on_long_inputs(self, pair):
        a, b = pair
        assert metrics._distance(a, b) == dp_distance(a, b)
        assert metrics._distance(b, a) == dp_distance(a, b)

    @settings(deadline=None)
    @given(words, words)
    def test_word_lists(self, hypothesis, reference):
        assert metrics._distance(hypothesis, reference) == dp_distance(hypothesis, reference)
        if reference:
            expected = dp_distance(hypothesis, reference) / len(reference)
            assert wer(" ".join(hypothesis), " ".join(reference)) == expected


class TestSharedEndTrim:
    @settings(deadline=None)
    @given(shared_end_pairs(st.text(alphabet="ab\u00e9", max_size=70)))
    def test_matches_dp_with_shared_ends(self, pair):
        a, b = pair
        assert metrics._distance(a, b) == dp_distance(a, b)
        assert metrics._distance(b, a) == dp_distance(a, b)

    @given(wide_text)
    def test_identical_inputs(self, a):
        assert metrics._distance(a, a) == 0
        assert metrics._distance(list(a), list(a)) == 0

    @given(wide_text, wide_text)
    def test_one_input_is_a_prefix_or_suffix(self, a, extra):
        assert metrics._distance(a, a + extra) == len(extra)
        assert metrics._distance(extra + a, a) == len(extra)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("aaa", "aa", 1),
            ("ab", "aab", 1),
            ("aba", "abba", 1),
            ("abab", "ab", 2),
            ("aXa", "aYYa", 2),
            ("abcabc", "abc", 3),
        ],
    )
    def test_repeated_characters_overlapping_ends(self, a, b, expected):
        # Prefix and suffix scans may both match the same characters; the
        # trim must stop where they would meet.
        assert metrics._distance(a, b) == expected == brute_edit_distance(a, b)
        assert metrics._distance(b, a) == expected

    @settings(deadline=None)
    @given(shared_end_pairs(words))
    def test_word_lists_through_wer(self, pair):
        hypothesis, reference = pair
        assert metrics._distance(hypothesis, reference) == dp_distance(hypothesis, reference)
        if reference:
            expected = dp_distance(hypothesis, reference) / len(reference)
            assert wer(" ".join(hypothesis), " ".join(reference)) == expected
