"""Graded words and F2 polynomials in the path-space product algebras.

Generators are single letters.  For odd ambient dimension n the alphabet
is (H, S, Y); for even n it is (H, T, Y).  A word is a plain string over
the alphabet, a polynomial is the frozenset of its monomials, and
addition is symmetric difference (coefficients live in F2, so a term is
either present or absent).

>>> sig = signature(3)
>>> word_degree("HHY", sig)
1
>>> unshifted_degree("HHY", sig)
4
>>> sorted(poly_mul(poly("H", "S"), poly("H", "S")))
['HH', 'HS', 'SH', 'SS']
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

Word = str
Polynomial = frozenset

ZERO: Polynomial = frozenset()
ONE: Polynomial = frozenset({""})

ODD1 = "odd1"  # n = 1 mod 4
ODD3 = "odd3"  # n = 3 mod 4
EVEN = "even"

# Fixed rank order used by the lexicographic tie-break of order_key.
_LETTER_RANK = {"H": 0, "T": 1, "S": 2, "Y": 3}

# Level counts the letters that each carry one half-turn of the norm
# filtration; H is a constant-path class and carries none.
_LETTER_LEVEL = {"H": 0, "S": 1, "T": 1, "Y": 1}


class AlphabetError(ValueError):
    """A word uses a letter outside the relevant alphabet."""


@dataclass(frozen=True)
class Signature:
    """Generator data of one presented algebra: alphabet plus gradings.
    The weight grading orders the words (see order_key)."""

    n: int
    parity_class: str
    alphabet: tuple[str, ...]
    degree: Mapping[str, int]
    weight: Mapping[str, int]

    def __post_init__(self) -> None:
        if any(w <= 0 for w in self.weight.values()):
            raise ValueError("weights must be positive")


@lru_cache(maxsize=None)
def signature(n: int) -> Signature:
    """Build the signature for ambient dimension n >= 1."""
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if n % 2 == 1:
        parity = ODD1 if n % 4 == 1 else ODD3
        alphabet = ("H", "S", "Y")
        degree = {"H": -1, "S": 1, "Y": n}
    else:
        parity = EVEN
        alphabet = ("H", "T", "Y")
        degree = {"H": -1, "T": 0, "Y": n}
    # unit weights, except w(S) = n + 1 when n = 1 mod 4 so that the
    # correction term H^(n-1)Y^2 stays below YS
    weight = {c: 1 for c in alphabet}
    if parity is ODD1:
        weight["S"] = n + 1
    return Signature(n=n, parity_class=parity, alphabet=alphabet,
                     degree=degree, weight=weight)


def word_degree(w: Word, sig: Signature) -> int:
    """Sum of letter degrees (H: -1, S: 1, T: 0, Y: n)."""
    total = 0
    for c in w:
        if c not in sig.degree:
            raise AlphabetError(f"letter {c!r} not in alphabet {sig.alphabet}")
        total += sig.degree[c]
    return total


def unshifted_degree(w: Word, sig: Signature) -> int:
    """Degree in the unshifted grading, i.e. word_degree + n."""
    return word_degree(w, sig) + sig.n


def word_level(w: Word) -> int:
    """Number of S, T and Y letters in the word."""
    total = 0
    for c in w:
        if c not in _LETTER_LEVEL:
            raise AlphabetError(f"letter {c!r} is not a known generator")
        total += _LETTER_LEVEL[c]
    return total


def word_weight(w: Word, sig: Signature) -> int:
    """Sum of letter weights."""
    return sum(sig.weight[c] for c in w)


def order_key(w: Word, sig: Signature):
    """Sort key of the monomial order: weight, then a left-to-right
    lexicographic tie-break on the fixed letter ranking H < T < S < Y.
    Positive weights make this a well-order compatible with
    concatenation on both sides."""
    return (word_weight(w, sig), tuple(_LETTER_RANK[c] for c in w))


def leading_word(p: Polynomial, sig: Signature) -> Word:
    """The largest word of p under order_key."""
    if not p:
        raise ValueError("empty polynomial has no leading word")
    return max(p, key=lambda w: order_key(w, sig))


def poly(*words: Word) -> Polynomial:
    p: frozenset = frozenset()
    for w in words:
        p = p ^ {w}
    return p


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out: set = set()
    for u in p:
        for v in q:
            out ^= {u + v}
    return frozenset(out)


def reverse_poly(p: Polynomial) -> Polynomial:
    """Letter-order reversal, an involutive anti-automorphism fixing
    every generator."""
    return frozenset(w[::-1] for w in p)


@dataclass(frozen=True)
class RewriteRule:
    """A rule lhs -> rhs.  A defining relation is one too: lhs = rhs
    with its designated leading word on the left (Bergman 1978)."""

    lhs: Word
    rhs: Polynomial

    def as_polynomial(self) -> Polynomial:
        return frozenset({self.lhs}) ^ self.rhs

    def render(self) -> str:
        if not self.rhs:
            rhs = "0"
        else:
            rhs = " + ".join(w if w else "1" for w in sorted(self.rhs))
        return f"{self.lhs} -> {rhs}"


@lru_cache(maxsize=None)
def defining_relations(n: int) -> tuple[RewriteRule, ...]:
    """The defining relations of the presented algebra for dimension n,
    each a rule from its designated leading word.

    Odd n:  SH = HS + 1, YH = HY, YS = SY (+ H^(n-1)Y^2 when n = 1 mod 4),
            S^2 = 0, H^(n+1) = 0.
    Even n: TH = HT + H, YH = HY, YT = TY + Y, T^2 = T, H^(n+1) = 0.
    """
    sig = signature(n)
    top = "H" * (n + 1)
    if sig.parity_class is EVEN:
        rels = (
            RewriteRule("TH", poly("HT", "H")),
            RewriteRule("YH", poly("HY")),
            RewriteRule("YT", poly("TY", "Y")),
            RewriteRule("TT", poly("T")),
            RewriteRule(top, ZERO),
        )
    else:
        ys_rhs = poly("SY")
        if sig.parity_class is ODD1:
            ys_rhs = ys_rhs ^ {"H" * (n - 1) + "YY"}
        rels = (
            RewriteRule("SH", poly("HS", "")),
            RewriteRule("YH", poly("HY")),
            RewriteRule("YS", ys_rhs),
            RewriteRule("SS", ZERO),
            RewriteRule(top, ZERO),
        )
    for rel in rels:
        degs = {word_degree(w, sig) for w in {rel.lhs, *rel.rhs}}
        assert len(degs) == 1, f"relation {rel.lhs} not degree-homogeneous"
    return rels
