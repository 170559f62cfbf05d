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
from types import MappingProxyType
from typing import Mapping

Word = str
Polynomial = frozenset

ZERO: Polynomial = frozenset()
ONE: Polynomial = frozenset({""})

ODD1 = "odd1"  # n = 1 mod 4
ODD3 = "odd3"  # n = 3 mod 4
EVEN = "even"

# Level counts the letters that each carry one half-turn of the norm
# filtration; H is a constant-path class and carries none.
_LETTER_LEVEL = {"H": 0, "S": 1, "T": 1, "Y": 1}


class AlphabetError(ValueError):
    """A word uses a letter outside the relevant alphabet."""


class GradingError(RuntimeError):
    """A rule breaks a grading it must keep: a defining relation mixes
    degrees, or a completed rule has a right-hand word heavier than its
    left side.  Raised, not asserted, so that python -O keeps it."""


@dataclass(frozen=True)
class Signature:
    """Generator data of one presented algebra: alphabet plus gradings.
    The weight grading orders the words (see order_key).  degree and
    weight are read-only views of copies of the mappings passed in,
    since signature() hands one object to every caller."""

    n: int
    parity_class: str
    alphabet: tuple[str, ...]
    degree: Mapping[str, int]
    weight: Mapping[str, int]

    def __post_init__(self) -> None:
        for name in ("degree", "weight"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))
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


def _letter_sum(w: Word, values: Mapping[str, int], refusal: str,
                alphabet=None) -> int:
    """Sum of the values of w's letters, one str.count per letter of
    values, so a long H-run costs what a short word does.  A letter
    without a value raises AlphabetError, refusal.format(c, alphabet) of
    the first one, c, in w: the counts then fall short of len(w)."""
    total = count = 0
    for c, k in values.items():
        m = w.count(c)
        total, count = total + k * m, count + m
    if count != len(w):
        bad = next(c for c in w if c not in values)
        raise AlphabetError(refusal.format(bad, alphabet))
    return total


def word_degree(w: Word, sig: Signature) -> int:
    """Sum of letter degrees (H: -1, S: 1, T: 0, Y: n)."""
    return _letter_sum(w, sig.degree, "letter {!r} not in alphabet {}",
                       sig.alphabet)


def unshifted_degree(w: Word, sig: Signature) -> int:
    """Degree in the unshifted grading, i.e. word_degree + n."""
    return word_degree(w, sig) + sig.n


def word_level(w: Word) -> int:
    """Number of S, T and Y letters in the word."""
    return _letter_sum(w, _LETTER_LEVEL,
                       "letter {!r} is not a known generator")


def word_weight(w: Word, sig: Signature) -> int:
    """Sum of letter weights.  A letter outside sig's alphabet raises
    AlphabetError."""
    return _letter_sum(w, sig.weight, "letter {!r} not in alphabet {}",
                       sig.alphabet)


def order_key(w: Word, sig: Signature):
    """Sort key of the monomial order: weight, then a left-to-right
    lexicographic tie-break that ranks H lowest and Y highest.  The word
    itself is the tie-break: in each alphabet, (H, S, Y) or (H, T, Y),
    the letters' code order is that ranking, so str comparison orders
    two words as a tuple of letter ranks would, with no tuple built.
    Positive weights make this a well-order compatible with
    concatenation on both sides.  A letter outside sig's alphabet
    raises AlphabetError (word_weight)."""
    return word_weight(w, sig), w


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
        if len({word_degree(w, sig) for w in {rel.lhs, *rel.rhs}}) != 1:
            raise GradingError(f"relation {rel.lhs} not degree-homogeneous")
    return rels
