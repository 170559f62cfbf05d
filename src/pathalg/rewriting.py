"""Rewriting systems for the presented algebras: orientation, completion,
normal forms, bigraded Hilbert series and counts, and the verification
suites built on them (filtration, reversal stability, inclusion
transport, dimension comparison, repair search).

The well-order is weight-lex (see algebra.order_key).  Every rule
keeps the weight of each right-hand word at or below the weight of its
left-hand word, so no reduction ever increases word weight.  Completion
resolves every critical pair, in every weight; by the diamond lemma the
completed system is confluent, so irreducible words form a basis of the
presented algebra in every degree.  It works through one queue of
equations, smallest first: each is reduced, oriented into a rule, and
followed on the queue by the rules it dismantles and by its critical
pairs with the live rules (complete).

Irreducible words are read off exponent triples, not built letter by
letter: every one has the shape H^a X^e Y^b (a <= n, e <= 1), and the
rules bound b for each pair (a, e) (_exponent_bounds).  hilbert_series
sums them in every degree as a numerator over 1 - x^n y, hilbert
expands it up to a degree bound, and _degree_words lists the words of
one degree.  _differing_runs walks only the classes where two such
series differ.  compare cuts its runs at a degree bound, so its cost
grows with the differing cells below it; the repair search reads each
run's first cell, so its cost does not depend on any bound.
Reduction (_reduce) finds the leftmost left side in a word with one
bounded str.find per rule, so the H-runs of up to n + 1 letters are
found at C speed, and a commutation rule (SH, TH or YH) then carries its
letter across the whole H-run in one step, X H^m -> H^m X + m q H^(m-1)
mod 2: a base completion pops at most 47 words at every n, and the
repair search n + 68, one for each overlap of H^(n+1) with H^nT.  Rules
are scanned as an _index of (left side, length, right side, run)
tuples, built once per RewriteSystem and, inside complete, once per new
rule.  Completion skips the superpositions of two rules to 0, as each
such critical pair is 0 = 0: the n self-overlaps of H^(n+1), for one.
The repair search completes each candidate by resuming from the
completed base system: only the candidate rule and what it forces go
through the queue (complete's extra rules).

>>> rs = complete(orient(signature(3)))
>>> sorted(normal_form("SH", rs))
['', 'HS']
>>> normal_form("SS", rs) == ZERO
True
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .tables import BigradedSeries, BigradedTable, CheckItem, CheckReport
from .algebra import (
    EVEN,
    ZERO,
    GradingError,
    Polynomial,
    RewriteRule,
    Signature,
    Word,
    defining_relations,
    leading_word,
    order_key,
    poly,
    reverse_poly,
    signature,
    word_degree,
    word_level,
    word_weight,
)

INCOMPLETE = "incomplete"
COMPLETE = "complete"

# guards against runaway rewriting: reduction steps of one _reduce
# call (a run step counts once), and rules in one completion
_STEP_LIMIT = 10 ** 6
_RULE_LIMIT = 400
# cap on the repair search: rules chosen along one search path.  It is
# not reached for even n from 2 to 20 (the search adds one rule); a
# search that would pass it raises SearchCapError instead of dropping
# the rest.
_DEPTH_CAP = 8


class OrderRejectedError(ValueError):
    """The monomial order does not make the designated left side of a
    relation its strict maximum."""

    def __init__(self, relation: RewriteRule, message: str):
        self.relation = relation
        super().__init__(f"relation with left side {relation.lhs!r}: {message}")


class CompletionError(RuntimeError):
    """An equation of the completion reduced to the unit: the relations
    force 1 = 0, so no orientable rule exists for it.  origin is the
    word the equation came from: an input left side, a superposition or
    a dismantled left side."""

    def __init__(self, origin: Word):
        self.origin = origin
        super().__init__(
            f"equation from {origin!r} reduces to the unit; "
            f"the presented algebra collapses")


class StepLimitError(RuntimeError):
    """A reduction took more steps than _STEP_LIMIT."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"reduction exceeded the step limit "
                         f"_STEP_LIMIT = {limit}")


class RuleLimitError(RuntimeError):
    """A completion produced more rules than _RULE_LIMIT."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"completion generated more rules than "
                         f"_RULE_LIMIT = {limit}")


class RepairError(RuntimeError):
    """No augmentation reconciles the presentation with the target series."""


class SearchCapError(RuntimeError):
    """The repair search would pass its cap, so it cannot claim
    to have tried every augmentation.  Not a mathematical answer, so
    not a RepairError: the CLI reports it as a runtime error (exit 2)."""

    def __init__(self, cap: str, limit: int, cell: tuple[int, int]):
        self.cap = cap
        self.limit = limit
        self.cell = cell
        super().__init__(
            f"repair search would pass {cap} = {limit} at cell "
            f"(degree {cell[0]}, level {cell[1]}); raise the cap to "
            f"search exhaustively")


@dataclass(frozen=True)
class RewriteSystem:
    sig: Signature
    rules: tuple[RewriteRule, ...]
    completion_status: str = INCOMPLETE
    # the rules' _index, made once per system for normal_form and for
    # completion resumed from it
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", _index(self.rules))


def orient(sig: Signature) -> RewriteSystem:
    """The defining relations as the rules of a system, sorted by
    order_key of their left sides.

    Raises OrderRejectedError unless the designated left side of every
    relation is the strict maximum of the relation under the order of
    sig's weights.
    """
    rules = defining_relations(sig.n)
    for rel in rules:
        for w in rel.rhs:
            if not order_key(w, sig) < order_key(rel.lhs, sig):
                raise OrderRejectedError(
                    rel, f"right-hand word {w!r} is not below the left side")
    return RewriteSystem(sig=sig, rules=tuple(
        sorted(rules, key=lambda r: order_key(r.lhs, sig))))


def _entry(lhs: Word, rhs: Polynomial) -> tuple:
    """One rule as _reduce scans it: (left side, length, right side,
    run).  run is q for a commutation rule XH -> HX + q, X != H and q a
    sum of H-powers (SH, TH and YH in every base system), else None."""
    q = rhs - {lhs[::-1]}
    run = (lhs[1:] == "H" != lhs[:1] and len(q) < len(rhs)
           and not "".join(q).strip("H"))
    return lhs, len(lhs), rhs, tuple(q) if run else None


def _index(rules: Iterable[RewriteRule]) -> tuple:
    return tuple(_entry(r.lhs, r.rhs) for r in rules)


def _reduce(p: Iterable[Word], index: tuple) -> Polynomial:
    """Full reduction of a polynomial by the rules of an _index.  Each
    word takes the leftmost position where a left side occurs, and the
    first such rule in the index's order there; except that a
    commutation rule XH -> HX + q (_entry) crosses X's whole H-run in
    one step, X H^m -> H^m X + m q H^(m-1), taken mod 2, since q
    commutes with H.  A run step is m single steps, so on a completed
    system the result is the normal form.  On any other it is a
    reduction, one irreducible representative of p modulo the rules,
    which is all completion needs: its output is unique whatever valid
    steps it takes (Bergman 1978).

    Each left side is looked for once per word, by str.find, and only
    where it would start before the best position so far, so an H-run
    is crossed at C speed, not letter by letter; a run step counts as
    one step toward _STEP_LIMIT.  F2 linearity lets each word
    occurrence reduce independently, with the results combined by
    symmetric difference."""
    acc: set = set()
    stack = list(p)
    steps = 0
    while stack:
        w = stack.pop()
        steps += 1
        if steps > _STEP_LIMIT:
            raise StepLimitError(_STEP_LIMIT)
        best, hit = len(w), None
        for lhs, k, rhs, q in index:
            if not best:
                break
            i = w.find(lhs, 0, best + k - 1)
            if i >= 0:
                best, cut, hit, run = i, i + k, rhs, q
        if hit is None:
            acc ^= {w}
            continue
        head, tail = w[:best], w[cut:]
        if run is not None:  # X H^m -> H^m X + m q H^(m-1)
            tail = tail.lstrip("H")
            m = len(w) - best - 1 - len(tail)
            hit = ["H" * m + w[best], *[r + "H" * (m - 1) for r in run
                                        if m % 2]]
        for r in hit:
            stack.append(head + r + tail)
    return frozenset(acc)


def normal_form(p, rs: RewriteSystem) -> Polynomial:
    """Reduce a word or polynomial under rs by _reduce (leftmost match,
    except that a commutation rule crosses its whole H-run), with the
    index rs built once.  For a completed system this is the normal
    form, which does not depend on the order in which rules are applied.
    A letter outside rs's alphabet raises AlphabetError (word_degree),
    as no rule would ever match it."""
    if isinstance(p, str):
        p = frozenset({p})
    for w in p:
        word_degree(w, rs.sig)
    return _reduce(p, rs._index)


def _overlap_words(l1: Word, l2: Word) -> Iterator[tuple[Word, int]]:
    """Superposition words where a proper suffix of l1 is a proper
    prefix of l2, together with the offset of l2 in the superposition.
    Containments do not occur between inter-reduced rules."""
    for k in range(1, min(len(l1), len(l2))):
        if l1.endswith(l2[:k]):
            yield l1 + l2[k:], len(l1) - k


def complete(rs: RewriteSystem,
             extra: tuple[RewriteRule, ...] = ()) -> RewriteSystem:
    """Knuth-Bendix completion over every superposition, as one loop
    over a queue of equations, each keyed by order_key of the word it
    came from.  The smallest equation is reduced by the live rules and,
    unless it vanishes, oriented by its leading word; live rules whose
    left side contains that word go back on the queue, and the new
    rule's critical pairs with every live rule go on it reduced, each
    pair's two sides built as words and equal words cancelled first.
    Reductions are _reduce's, run steps included: they need not be
    leftmost-only, since for a fixed order an ideal has one reduced
    convergent system, reached by any valid reduction steps.  It
    ends when the queue is empty, so every critical pair resolves and
    the output is confluent in every weight; RuleLimitError and
    StepLimitError stop a completion that does not end.  Output is
    inter-reduced and sorted, hence canonical regardless of the order
    of the input rules, and a fixed point of complete.

    With extra rules, rs must be complete's own output, and completion
    resumes from it: its rules start live, since their critical pairs
    already resolve, and only the extra rules go on the queue.  For a
    fixed order a theory has one reduced convergent system, so this
    gives the rules of completing rs.rules and extra together."""
    sig = rs.sig
    if extra and rs.completion_status != COMPLETE:
        raise ValueError("complete resumes only from a completed system")
    # smallest first: an equation is oriented only after every smaller
    # one, so the rules that could reduce it are already live and few
    # rules are dismantled; last-in-first-out orients large equations
    # before the small ones that reduce them, and runs past _RULE_LIMIT
    # on the base systems for n = 1 mod 4
    queue: list = []
    seq = itertools.count()

    def push(origin: Word, p: Polynomial) -> None:
        heapq.heappush(queue, (order_key(origin, sig), next(seq), origin, p))

    # left side -> _entry of each live rule
    live = {e[0]: e for e in rs._index} if extra else {}
    for r in extra or rs.rules:
        push(r.lhs, r.as_polynomial())
    index = rs._index if extra else ()
    while queue:
        *_, origin, eq = heapq.heappop(queue)
        eq = _reduce(eq, index)
        if not eq:
            continue
        top = leading_word(eq, sig)
        if top == "":
            raise CompletionError(origin)
        for lhs in [l for l in live if top in l]:
            push(lhs, live.pop(lhs)[2] ^ {lhs})
        new = live[top] = _entry(top, eq ^ {top})
        if len(live) > _RULE_LIMIT:
            raise RuleLimitError(_RULE_LIMIT)
        # the index, rebuilt only when the live rules change, longest
        # left sides first.  Live left sides are inter-reduced, so at
        # most one matches at a position and the scan order is free:
        # this one ends the scan of a word opening with H^(n+1) at its
        # first str.find
        index = tuple(sorted(live.values(), key=lambda e: -e[1]))
        for other in index:
            if not (new[2] or other[2]):
                continue  # each superposition of two rules to 0 is 0 = 0
            for (l1, k1, rhs1, _), (l2, k2, rhs2, _) in dict.fromkeys(
                    [(new, other), (other, new)]):
                for sup, off in _overlap_words(l1, l2):
                    # both sides of the pair as words, equal ones cancelled
                    diff = _reduce({r + sup[k1:] for r in rhs1}
                                   ^ {sup[:off] + r + sup[off + k2:]
                                      for r in rhs2}, index)
                    if diff:
                        push(sup, diff)
    out = sorted((RewriteRule(lhs, _reduce(rhs, index))
                  for lhs, _, rhs, _ in index),
                 key=lambda r: order_key(r.lhs, sig))
    for r in out:
        lw = word_weight(r.lhs, sig)
        if any(word_weight(w, sig) > lw for w in r.rhs):
            raise GradingError(f"rule {r.render()} has a right-hand word "
                               f"heavier than its left side")
    return RewriteSystem(sig=sig, rules=tuple(out),
                         completion_status=COMPLETE)


# ---------------------------------------------------------------------------
# Hilbert counts


def _exponent_bounds(rs: RewriteSystem
                     ) -> list[tuple[int, int, int, float]]:
    """One row (a, e, d0, B) for each of the 2(n + 1) pairs a <= n,
    e <= 1: the irreducible words of rs are exactly the words
    H^a X^e Y^b with b < B, X the middle letter (S or T), and d0 is the
    unshifted degree of H^a X^e; each letter Y adds n.  math.inf stands
    for no bound.  Refuses a system that leaves a defining left side
    irreducible, since the proof needs each one reduced; a system whose
    ideal contains rs's reduces them too.

    Proof.  Each of the five defining left sides XH, YH, YX, XX and
    H^(n+1) contains a left side of rs, so an irreducible word avoids
    all five as factors: it is H^a X^e Y^b with a <= n and e <= 1.  A
    factor of such a word has the same shape, so only a left side
    H^a' X^e' Y^b' can be one; the others are skipped.  It is a factor
    of H^a X^e Y^b exactly when a >= a', b >= b' and: e = 1 if e' = 1,
    and e = 0 if e' = 0 with a' > 0 and b' > 0 (the H-run must meet the
    Y-run directly).  So the word is irreducible exactly when b is below
    the least b' of the left sides that fit (a, e) this way."""
    n, x = rs.sig.n, rs.sig.alphabet[1]
    if not all(any(r.lhs in rel.lhs for r in rs.rules)
               for rel in defining_relations(n)):
        raise ValueError("irreducible words are known only in a system "
                         "that reduces the defining left sides")
    bound = {(a, e): math.inf for a in range(n + 1) for e in (0, 1)}
    for r in rs.rules:
        rest = r.lhs.lstrip("H")
        a0, e0 = len(r.lhs) - len(rest), int(rest[:1] == x)
        b0 = len(rest) - e0
        if rest[e0:] != "Y" * b0:
            continue
        es = (1,) if e0 else (0,) if a0 and b0 else (0, 1)
        for a in range(a0, n + 1):
            for e in es:
                bound[a, e] = min(bound[a, e], b0)
    return [(a, e, n - a + e * rs.sig.degree[x], b)
            for (a, e), b in bound.items()]


def hilbert_series(rs: RewriteSystem) -> BigradedSeries:
    """Bigraded Hilbert series of rs's irreducible words, by (unshifted
    degree, level), in every degree: row (a, e, d0, B) of
    _exponent_bounds adds x^d0 y^e (1 - (x^n y)^B) / (1 - x^n y) for its
    words with b < B, and just x^d0 y^e / (1 - x^n y) when B is
    unbounded (the finite-leading-words case of Ufnarovski 1982 and
    Anick 1986).  Refuses a system that complete did not return, then
    one that leaves a defining left side irreducible."""
    if rs.completion_status != COMPLETE:
        raise ValueError("hilbert requires a completed system")
    n, terms = rs.sig.n, []
    for _, e, d0, bound in _exponent_bounds(rs):
        terms.append(((d0, e), 1))
        if bound < math.inf:
            terms.append(((d0 + n * bound, e + bound), -1))
    return BigradedSeries.from_terms(terms, n)


def hilbert(rs: RewriteSystem, degree_bound: int) -> BigradedTable:
    """Count irreducible words per (unshifted degree, level) for degrees
    0..degree_bound: the expansion of hilbert_series, with its
    refusals, and a negative degree_bound refused as
    path_space_homology refuses it.  Nothing in src/ calls it: it stays
    for the rewriting.hilbert span that bench/tests/test_bench.py
    asserts, the README example and the tests in tests/test_rewriting.py
    and tests/test_cli.py that read it (ROADMAP item 17)."""
    return hilbert_series(rs).expand(degree_bound)


# ---------------------------------------------------------------------------
# Verification suites


def filtration_check(rs: RewriteSystem) -> CheckReport:
    """Every rule must not raise the level: level(rhs word) <= level(lhs).

    This is the algebraic shadow of subadditivity of critical levels
    under the product."""
    items = []
    for r in rs.rules:
        lv = word_level(r.lhs)
        bad = sorted(w for w in r.rhs if word_level(w) > lv)
        items.append(CheckItem(
            name=r.render(),
            passed=not bad,
            detail=f"level raised by {bad}" if bad else ""))
    return CheckReport(title=f"filtration (n={rs.sig.n})", items=tuple(items))


def _zero_item(name: str, p: Polynomial, rs: RewriteSystem) -> CheckItem:
    """Passes when p reduces to zero in rs; otherwise names the residue."""
    residue = normal_form(p, rs)
    detail = f"residue {sorted(residue)}" if residue != ZERO else ""
    return CheckItem(name=name, passed=residue == ZERO, detail=detail)


def anti_automorphism_check(rs: RewriteSystem) -> CheckReport:
    """Letter-order reversal fixes the generators and reverses products,
    so the reversal of every defining relation must reduce to zero."""
    n = rs.sig.n
    items = tuple(_zero_item(f"reverse of ({rel.lhs} = rhs)",
                             reverse_poly(rel.as_polynomial()), rs)
                  for rel in defining_relations(n))
    return CheckReport(title=f"reversal stability (n={n})", items=items)


def heredity_check(rs: RewriteSystem) -> CheckReport:
    """Transport of classes under the dimension-raising inclusion from
    n - 1 into n = rs.sig.n, as normal-form identities in the completed
    system rs for n.

    Even n (odd target): H^2 S Y H = H^3 S Y + H^2 Y and
    H Y H^2 S = H^3 S Y; when the target picks up a correction term in
    its commutation rule, that term exceeds the nilpotence degree of H
    and dies, so the identities are parity-uniform.
    Odd n (even target): the transported square relation TH + HT + H
    reduces to zero.
    """
    if rs.completion_status != COMPLETE:
        raise ValueError("heredity_check requires a completed system")
    n = rs.sig.n - 1
    if n < 1:
        raise ValueError("heredity needs presentations for n and n+1")
    if rs.sig.parity_class is EVEN:
        identities = (("TH + HT + H = 0", ("TH", "HT", "H")),)
    else:
        identities = (("H^2SYH = H^3SY + H^2Y", ("HHSYH", "HHHSY", "HHY")),
                      ("HYH^2S = H^3SY", ("HYHHS", "HHHSY")))
    items = tuple(_zero_item(name, poly(*words), rs)
                  for name, words in identities)
    return CheckReport(title=f"inclusion transport (n={n} into n={n + 1})",
                       items=items)


@dataclass(frozen=True)
class ComparisonReport:
    degree_bound: int
    cell_mismatches: tuple[tuple[int, int, int, int], ...]
    total_mismatches: tuple[tuple[int, int, int], ...]

    @property
    def is_match(self) -> bool:
        return not self.cell_mismatches and not self.total_mismatches

    def lines(self) -> list[str]:
        if self.is_match:
            return [f"dimension tables agree up to degree {self.degree_bound}"]
        out = [f"dimension tables disagree (bound {self.degree_bound}):"]
        for d, a, h in self.total_mismatches:
            out.append(f"  degree {d}: presentation {a} vs homology {h}")
        for d, l, a, h in self.cell_mismatches:
            out.append(f"  cell (degree {d}, level {l}): {a} vs {h}")
        return out


def _differing_runs(alg: BigradedSeries, hom: BigradedSeries
                    ) -> Iterator[tuple[int, int, int | None, int, int]]:
    """Where two series differ, in every degree, as runs (class c, first
    level, end level or None, a, h): alg has a and hom h != a at each
    cell (c + n*k, k), first <= k < end (no end: every k >= first).
    Cell (d, l) sums the terms (d0, l0) of its class d0 - n*l0 = d - n*l
    with l0 <= l, so each side changes along a class only at its terms'
    levels; only the classes where the numerators differ are walked."""
    n = alg.period
    if hom.period != n:
        raise ValueError(f"periods differ: {n} vs {hom.period}")
    if alg.numerator == hom.numerator:
        return
    classes: dict[int, tuple[dict, dict]] = {}
    for side, series in enumerate((alg, hom)):
        for (d, l), v in series.numerator:
            classes.setdefault(d - n * l, ({}, {}))[side][l] = v
    for c, (ta, th) in classes.items():
        if ta == th:
            continue
        levels = sorted(ta.keys() | th.keys())
        a = h = 0
        for l, end in zip(levels, levels[1:] + [None]):
            a, h = a + ta.get(l, 0), h + th.get(l, 0)
            if a != h:
                yield c, l, end, a, h


def compare(alg: BigradedSeries, hom: BigradedSeries,
            degree_bound: int) -> ComparisonReport:
    """Cell-by-cell and per-degree comparison of two series' expansions
    up to degree_bound, in O(numerator terms + differing cells): the
    runs of _differing_runs, cut at degree_bound.  A degree total
    differs only where a cell does, and hom's total at d sums its terms
    of degree d0 <= d with d0 = d (mod n)."""
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    n = alg.period
    cells = []
    for c, first, end, a, h in _differing_runs(alg, hom):
        top = (degree_bound - c) // n + 1  # levels below top fit the bound
        cells.extend((c + n * k, k, a, h) for k in
                     range(first, top if end is None else min(end, top)))
    cells.sort()
    delta: dict[int, int] = {}
    for d, _, a, h in cells:
        delta[d] = delta.get(d, 0) + a - h
    # per residue mod n: hom's term degrees, and its totals up to each
    runs: dict[int, tuple[list, list]] = {}
    for (d, _), v in hom.numerator:
        ds, sums = runs.setdefault(d % n, ([], [0]))
        ds.append(d)
        sums.append(sums[-1] + v)
    totals = []
    for d, v in delta.items():
        if v:
            ds, sums = runs.get(d % n, ((), (0,)))
            t = sums[bisect.bisect_right(ds, d)]
            totals.append((d, t + v, t))
    return ComparisonReport(degree_bound=degree_bound,
                            cell_mismatches=tuple(cells),
                            total_mismatches=tuple(totals))


# ---------------------------------------------------------------------------
# Repair search


@dataclass(frozen=True)
class Augmentation:
    rules: tuple[RewriteRule, ...]
    system: RewriteSystem = field(compare=False)

    def render(self) -> str:
        return "{" + ", ".join(r.render() for r in self.rules) + "}"


def _degree_words(rs: RewriteSystem, degree: int) -> list[tuple[Word, int]]:
    """(word, level) for every irreducible word of one unshifted degree,
    in the order of rs.sig: at most one word H^a X^e Y^b per row
    (a, e, d0, B) of _exponent_bounds, with its refusal.

    At most four words: for fixed e the degree n - a + e*deg(X) + n*b
    fixes a modulo n, a = n + e*deg(X) - degree (mod n), and 0 <= a <= n
    leaves at most two values of a, each fixing b.  So a repair pool,
    the words listed before a left side, holds at most three."""
    sig = rs.sig
    x, out = sig.alphabet[1], []
    for a, e, d0, bound in _exponent_bounds(rs):
        b, r = divmod(degree - d0, sig.n)
        if r == 0 and 0 <= b < bound:
            out.append(("H" * a + x * e + "Y" * b, e + b))
    return sorted(out, key=lambda wl: order_key(wl[0], sig))


def repair_search(base: RewriteSystem,
                  target: BigradedSeries) -> tuple[Augmentation, ...]:
    """Search for rule augmentations that reconcile the completed
    presentation base with the target series, in every degree.

    Each system reached, base included, is judged by its hilbert_series
    against target (_differing_runs): equal series match, a cell short
    of target is a dead end, and otherwise the first surplus cell in
    (degree, level) order is attacked.  For each candidate left side in
    it every F2 combination of equal-degree, level-compatible, smaller
    irreducible words is tried as a right side.  Completion then
    resumes from the current system with that rule, and any derived
    rules it is forced to add become part of the candidate
    augmentation.  A candidate survives only if

      (i)   the base rules plus the candidate set are complete: they are
            complete's own output, so completing them again changes
            nothing,
      (ii)  the level filtration is preserved, and
      (iii) the dimension table matches the target in every degree.

    Distinct search paths reaching the same rule set are reported once.
    RepairError is raised when no candidate survives, naming the first
    dead-end degree, or else the matches the filtration rejected.  Only
    a CompletionError rejects a candidate; any other error propagates.
    The search is exhaustive: where it would need more than _DEPTH_CAP
    rules on one search path, it raises SearchCapError instead of
    leaving candidates untried.
    """
    if base.completion_status != COMPLETE:
        raise ValueError("repair_search requires a completed system")
    n, base_set = base.sig.n, set(base.rules)

    # each rule set reached, once: its augmentation, or None where the
    # filtration fails; and the matches that lost a base rule
    found: dict[frozenset, Augmentation | None] = {}
    dropped: set[frozenset] = set()
    dead_degrees: list[int] = []

    def search(current: RewriteSystem, depth: int) -> None:
        # the first cell of each run where current and target differ
        surplus, deficit = [], []
        for c, first, _, a, h in _differing_runs(hilbert_series(current),
                                                 target):
            (surplus if a > h else deficit).append((c + n * first, first))
        if deficit:
            dead_degrees.append(min(deficit)[0])
            return
        if not surplus:
            if current is base:
                raise ValueError(
                    "presentation already matches; nothing to repair")
            if not base_set <= set(current.rules):
                dropped.add(frozenset(current.rules))
                return
            candidate = tuple(r for r in current.rules if r not in base_set)
            key = frozenset(candidate)
            if key not in found:
                found[key] = (Augmentation(rules=candidate, system=current)
                              if filtration_check(current).passed else None)
            return
        degree, level = min(surplus)
        if depth >= _DEPTH_CAP:
            raise SearchCapError("_DEPTH_CAP", _DEPTH_CAP, (degree, level))
        progressed = False
        words = _degree_words(current, degree)
        for i, (lhs, lv) in enumerate(words):
            if lv != level:
                continue
            # equal degree, level at most the cell's, below lhs in order
            pool = [w for w, l in words[:i] if l <= level]
            for size in range(len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    rule = RewriteRule(lhs, frozenset(combo))
                    try:
                        nxt = complete(current, (rule,))
                    except CompletionError:
                        continue
                    progressed = True
                    search(nxt, depth + 1)
        if not progressed:
            dead_degrees.append(degree)

    search(base, 0)
    survivors = sorted((a for a in found.values() if a is not None),
                       key=lambda a: tuple(r.render() for r in a.rules))
    if survivors:
        return tuple(survivors)
    # with no dead end, every search path ended in a dropped match
    reason = (f"first unrepairable degree: {min(dead_degrees)}"
              if dead_degrees else
              f"the filtration rejected {len(found)} matching "
              f"augmentation(s); {len(dropped)} more lost a base rule")
    raise RepairError("no confluent, filtration-compatible augmentation "
                      f"matches the table; {reason}")
