"""Free graded algebra layer: words, polynomials, signatures, orders."""

import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

from pathalg import algebra
from pathalg.algebra import (
    AlphabetError,
    GradingError,
    ONE,
    ZERO,
    defining_relations,
    leading_word,
    order_key,
    poly,
    poly_mul,
    reverse_poly,
    signature,
    unshifted_degree,
    word_degree,
    word_level,
    word_weight,
)


def words_strategy(n: int):
    letters = sorted(signature(n).alphabet)
    return st.text(alphabet=letters, min_size=0, max_size=8)


class TestSignature:
    def test_alphabets_by_parity(self):
        assert signature(3).alphabet == ("H", "S", "Y")
        assert signature(2).alphabet == ("H", "T", "Y")

    def test_degrees(self):
        sig = signature(3)
        assert sig.degree["H"] == -1
        assert sig.degree["S"] == 1
        assert sig.degree["Y"] == 3
        assert signature(4).degree["T"] == 0

    def test_parity_classes(self):
        assert signature(1).parity_class == signature(5).parity_class
        assert signature(3).parity_class == signature(7).parity_class
        assert signature(1).parity_class != signature(3).parity_class
        assert signature(2).parity_class == signature(4).parity_class

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            signature(0)

    def test_rejects_a_zero_weight(self):
        # under a weightless letter infinitely many words stay within
        # a weight bound, so no walk to a weight is finite
        with pytest.raises(ValueError, match="weights must be positive"):
            dataclasses.replace(signature(2), weight={"H": 1, "T": 0, "Y": 1})

    def test_shared_gradings_are_read_only(self):
        # signature is cached: a write would reach every later caller
        sig = signature(5)
        for grading in (sig.degree, sig.weight):
            with pytest.raises(TypeError):
                grading["S"] = 1
        assert signature(5).weight["S"] == 6
        assert signature(3) == signature(3)

    def test_word_degree_additive(self):
        sig = signature(2)
        assert word_degree("HHT", sig) == -2
        assert word_degree("Y", sig) == 2
        assert unshifted_degree("", sig) == 2
        assert unshifted_degree("HH", sig) == 0

    def test_word_level_counts_positive_letters(self):
        assert word_level("HHH") == 0
        assert word_level("HTYH") == 2
        assert word_level("SYS") == 3

    def test_rejects_unknown_letter(self):
        with pytest.raises(AlphabetError):
            word_degree("HX", signature(2))
        with pytest.raises(AlphabetError):
            word_degree("T", signature(3))


class TestPolynomials:
    def test_poly_zero_and_one(self):
        assert poly() == ZERO
        assert poly("") == ONE

    def test_multiplication_concatenates(self):
        assert poly_mul(poly("H"), poly("S")) == poly("HS")
        assert poly_mul(poly("H", "S"), poly("Y")) == poly("HY", "SY")
        assert poly_mul(ZERO, ONE) == ZERO
        assert poly_mul(ONE, poly("Y")) == poly("Y")

    def test_multiplication_cancels_in_characteristic_two(self):
        # (H + S)(H + S) = HH + HS + SH + SS keeps the cross terms
        sq = poly_mul(poly("H", "S"), poly("H", "S"))
        assert sq == poly("HH", "HS", "SH", "SS")
        # (H + H) = 0 annihilates any product
        assert poly_mul(poly("H") ^ poly("H"), poly("Y")) == ZERO

    def test_reverse_word(self):
        assert reverse_poly(poly("HS", "Y")) == poly("SH", "Y")


@given(words_strategy(2), words_strategy(2))
def test_degree_is_additive_under_product(u, v):
    sig = signature(2)
    assert word_degree(u + v, sig) == word_degree(u, sig) + word_degree(v, sig)
    assert word_level(u + v) == word_level(u) + word_level(v)


@given(words_strategy(5), words_strategy(5), words_strategy(5))
def test_order_is_compatible_with_concatenation(u, v, w):
    sig = signature(5)
    if order_key(u, sig) < order_key(v, sig):
        assert order_key(w + u, sig) < order_key(w + v, sig)
        assert order_key(u + w, sig) < order_key(v + w, sig)


@given(words_strategy(1), words_strategy(1))
def test_order_is_total_and_antisymmetric(u, v):
    sig = signature(1)
    assert (u == v) == (order_key(u, sig) == order_key(v, sig))


class TestOrder:
    def test_weight_dominates_rank(self):
        sig = signature(2)
        assert order_key("Y", sig) < order_key("HH", sig)
        assert order_key("HT", sig) < order_key("TH", sig)

    def test_heavy_s_for_the_exceptional_parity(self):
        # w(S) = n + 1 exactly when n = 1 mod 4
        assert word_weight("S", signature(1)) == 2
        assert word_weight("S", signature(5)) == 6
        assert word_weight("S", signature(3)) == 1

        sig = signature(5)
        # the exceptional defining relation needs YS above the longer word
        assert order_key("HHHHYY", sig) < order_key("YS", sig)

    def test_max_word(self):
        sig = signature(2)
        assert leading_word(poly("HT", "TH"), sig) == "TH"
        with pytest.raises(ValueError):
            leading_word(ZERO, sig)


class TestDefiningRelations:
    def test_relation_count(self):
        assert len(defining_relations(1)) == 5
        assert len(defining_relations(2)) == 5
        assert len(defining_relations(3)) == 5

    def test_even_shape(self):
        rels = {r.lhs: r.rhs for r in defining_relations(2)}
        assert rels["TH"] == poly("HT", "H")
        assert rels["TT"] == poly("T")
        assert rels["YH"] == poly("HY")
        assert rels["YT"] == poly("TY", "Y")
        assert rels["HHH"] == ZERO

    def test_odd_shape(self):
        rels = {r.lhs: r.rhs for r in defining_relations(3)}
        assert rels["SH"] == poly("HS", "")
        assert rels["SS"] == ZERO
        assert rels["YS"] == poly("SY")
        assert rels["HHHH"] == ZERO

    def test_exceptional_odd_shape(self):
        rels = {r.lhs: r.rhs for r in defining_relations(5)}
        assert rels["YS"] == poly("SY", "HHHHYY")
        assert {r.lhs: r.rhs for r in defining_relations(1)}["YS"] == \
            poly("SY", "YY")

    def test_a_mixed_degree_relation_is_a_typed_error(self, monkeypatch):
        # a T of degree 1 puts TH and HT + H in different degrees; the
        # cached relations are bypassed, so the check runs again
        real = algebra.signature
        monkeypatch.setattr(algebra, "signature", lambda n: dataclasses.replace(
            real(n), degree={"H": -1, "T": 1, "Y": n}))
        with pytest.raises(GradingError,
                           match="^relation TH not degree-homogeneous$"):
            defining_relations.__wrapped__(2)

    def test_relations_are_homogeneous(self):
        for n in range(1, 8):
            sig = signature(n)
            for rel in defining_relations(n):
                d = word_degree(rel.lhs, sig)
                for w in rel.rhs:
                    assert word_degree(w, sig) == d


@pytest.mark.parametrize("call, error, message", [
    (lambda: word_level("HQ"), AlphabetError,
     "letter 'Q' is not a known generator"),
    (lambda: word_degree("HX", signature(2)), AlphabetError,
     "letter 'X' not in alphabet ('H', 'T', 'Y')"),
    # the order's keys and leading words refuse a foreign letter as
    # word_degree does, not with a bare KeyError
    (lambda: order_key("Q", signature(3)), AlphabetError,
     "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda: word_weight("HT", signature(3)), AlphabetError,
     "letter 'T' not in alphabet ('H', 'S', 'Y')"),
    (lambda: leading_word(frozenset({"Q", "H"}), signature(3)),
     AlphabetError, "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda: leading_word(ZERO, signature(2)), ValueError,
     "empty polynomial has no leading word"),
    (lambda: signature(0), ValueError,
     "ambient dimension must be >= 1, got 0"),
])
def test_refusals_keep_their_types_and_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
