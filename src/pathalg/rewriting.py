"""Rewriting systems for the presented algebras: orientation, completion,
normal forms, bigraded Hilbert counts, and the verification suites built
on them (filtration, reversal stability, inclusion transport, dimension
comparison, repair search).

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
rules bound b for each pair (a, e) (_exponent_bounds).  hilbert counts
them, and _degree_words lists those of one degree.
Reduction finds the leftmost left side with one bounded str.find per
rule (_leftmost_match), so the H-runs of up to n + 1 letters are crossed
at C speed.  The repair search completes each candidate by resuming
from the completed base system: only the candidate rule and what it
forces go through the queue (complete's extra rules).

>>> rs = complete(orient(signature(3)))
>>> sorted(normal_form("SH", rs))
['', 'HS']
>>> normal_form("SS", rs) == ZERO
True
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .tables import BigradedTable, CheckItem, CheckReport
from .algebra import (
    EVEN,
    ZERO,
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
    word_level,
    word_weight,
)

INCOMPLETE = "incomplete"
COMPLETE = "complete"

# guards against runaway rewriting: reduction steps of one _poly_nf
# call, and rules in one completion
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
    """No augmentation reconciles the presentation with the target table."""


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


def apply_rule(word: Word, rule: RewriteRule, pos: int) -> Polynomial:
    """One replacement of rule.lhs inside word at the given position."""
    if not word.startswith(rule.lhs, pos):
        raise ValueError(f"{rule.lhs!r} does not occur in {word!r} at {pos}")
    head, tail = word[:pos], word[pos + len(rule.lhs):]
    return frozenset(head + r + tail for r in rule.rhs)


def _leftmost_match(word: Word, rules: tuple[RewriteRule, ...]):
    """The leftmost position where a left side of rules occurs in word,
    and the first such rule in their order there.  Each left side is
    looked for once, by str.find, and only where it would start before
    the best position so far, so an H-run is crossed at C speed, not
    letter by letter."""
    best, found = len(word), None
    for rule in rules:
        if not best:
            break
        i = word.find(rule.lhs, 0, best + len(rule.lhs) - 1)
        if i >= 0:
            best, found = i, rule
    return None if found is None else (best, found)


def _poly_nf(p: Iterable[Word], rules: tuple[RewriteRule, ...]) -> Polynomial:
    """Full reduction of a polynomial by rules; leftmost strategy per
    word.

    F2 linearity lets each word occurrence reduce independently, with
    the results combined by symmetric difference.
    """
    acc: set = set()
    stack = list(p)
    steps = 0
    while stack:
        w = stack.pop()
        steps += 1
        if steps > _STEP_LIMIT:
            raise StepLimitError(_STEP_LIMIT)
        m = _leftmost_match(w, rules)
        if m is None:
            acc ^= {w}
        else:
            i, rule = m
            head, tail = w[:i], w[i + len(rule.lhs):]
            stack.extend(head + r + tail for r in rule.rhs)
    return frozenset(acc)


def normal_form(p, rs: RewriteSystem) -> Polynomial:
    """Reduce a word or polynomial to its normal form under rs.  For a
    completed system the normal form does not depend on the order in
    which rules are applied."""
    if isinstance(p, str):
        p = frozenset({p})
    return _poly_nf(p, rs.rules)


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
    rule's critical pairs with every live rule go on it reduced.  It
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

    live = {r.lhs: r for r in rs.rules} if extra else {}
    for r in extra or rs.rules:
        push(r.lhs, r.as_polynomial())
    rules = tuple(live.values())
    while queue:
        *_, origin, eq = heapq.heappop(queue)
        eq = _poly_nf(eq, rules)
        if not eq:
            continue
        top = leading_word(eq, sig)
        if top == "":
            raise CompletionError(origin)
        for lhs in [l for l in live if top in l]:
            push(lhs, live.pop(lhs).as_polynomial())
        new = live[top] = RewriteRule(top, eq ^ {top})
        if len(live) > _RULE_LIMIT:
            raise RuleLimitError(_RULE_LIMIT)
        rules = tuple(live.values())
        for other in rules:
            for r1, r2 in dict.fromkeys([(new, other), (other, new)]):
                for sup, off in _overlap_words(r1.lhs, r2.lhs):
                    diff = _poly_nf(apply_rule(sup, r1, 0)
                                    ^ apply_rule(sup, r2, off), rules)
                    if diff:
                        push(sup, diff)
    out = sorted((RewriteRule(r.lhs, _poly_nf(r.rhs, rules))
                  for r in rules),
                 key=lambda r: order_key(r.lhs, sig))
    for r in out:
        lw = word_weight(r.lhs, sig)
        assert all(word_weight(w, sig) <= lw for w in r.rhs)
    return RewriteSystem(sig=sig, rules=tuple(out),
                         completion_status=COMPLETE)


# ---------------------------------------------------------------------------
# Hilbert counts


def _check_normal_shape(rs: RewriteSystem) -> RewriteSystem:
    """rs, if it reduces every defining left side, as _exponent_bounds's
    proof needs; so does each system whose ideal contains rs's."""
    if any(_leftmost_match(rel.lhs, rs.rules) is None
           for rel in defining_relations(rs.sig.n)):
        raise ValueError("irreducible words are known only in a system "
                         "that reduces the defining left sides")
    return rs


def _exponent_bounds(rs: RewriteSystem) -> dict[tuple[int, int], float]:
    """B(a, e) for each of the 2(n + 1) pairs a <= n, e <= 1: the
    irreducible words of rs are exactly the words H^a X^e Y^b with
    b < B(a, e), X the middle letter (S or T).  math.inf stands for no
    bound.  Holds for a system that passes _check_normal_shape.

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
    return bound


def _pair_cells(sig: Signature, a: int, e: int, lo, hi,
                degree_bound: int) -> Iterator[tuple[int, int]]:
    """(degree n - a + e*deg(X) + n*b, level e + b) of each word
    H^a X^e Y^b with lo <= b < hi (hi may be math.inf), up to degree
    degree_bound: one arithmetic progression."""
    n = sig.n
    d0 = n - a + e * sig.degree[sig.alphabet[1]]
    hi = min(hi, (degree_bound - d0) // n + 1)
    return zip(range(d0 + n * lo, d0 + n * hi, n), range(e + lo, e + hi))


def hilbert(rs: RewriteSystem, degree_bound: int) -> BigradedTable:
    """Count irreducible words per (unshifted degree, level) for degrees
    0..degree_bound, one progression of cells per pair (a, e)
    (_pair_cells).  Refuses a negative degree_bound, as
    path_space_homology does, a system that complete did not return,
    and one that leaves a defining left side irreducible."""
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if rs.completion_status != COMPLETE:
        raise ValueError("hilbert requires a completed system")
    counts: Counter[tuple[int, int]] = Counter()
    for (a, e), bound in _exponent_bounds(_check_normal_shape(rs)).items():
        counts.update(_pair_cells(rs.sig, a, e, 0, bound, degree_bound))
    return BigradedTable.from_dict(counts, degree_bound)


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


def compare(alg: BigradedTable, hom: BigradedTable) -> ComparisonReport:
    """Cell-by-cell and per-degree comparison of two dimension tables.
    Past one scan of the cell maps, work grows with the differing cells:
    a degree total differs only where a cell does (hom's plus those)."""
    if alg.degree_bound != hom.degree_bound:
        raise ValueError(
            f"degree bounds differ: {alg.degree_bound} vs {hom.degree_bound}")
    if alg.entries == hom.entries:
        return ComparisonReport(alg.degree_bound, (), ())
    ca, ch = alg.cells, hom.cells
    keys = sorted([k for k, v in ca.items() if ch.get(k, 0) != v]
                  + [k for k in ch if k not in ca])
    cells = [(d, l, ca.get((d, l), 0), ch.get((d, l), 0)) for d, l in keys]
    delta: dict[int, int] = {}
    for d, _, a, h in cells:
        delta[d] = delta.get(d, 0) + a - h
    th = hom.degree_totals
    totals = [(d, th[d] + v, th[d]) for d, v in delta.items() if v]
    return ComparisonReport(degree_bound=alg.degree_bound,
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


def _degree_words(rs: RewriteSystem, degree: int,
                  bounds: dict | None = None) -> list[tuple[Word, int]]:
    """(word, level) for every irreducible word of one unshifted degree,
    in the order of rs.sig: at most one word H^a X^e Y^b per pair
    (a, e), read off bounds, else off rs's checked _exponent_bounds.

    At most four words: for fixed e the degree n - a + e*deg(X) + n*b
    fixes a modulo n, a = n + e*deg(X) - degree (mod n), and 0 <= a <= n
    leaves at most two values of a, each fixing b.  So a repair pool,
    the words listed before a left side, holds at most three."""
    sig = rs.sig
    n, x = sig.n, sig.alphabet[1]
    out = []
    bounds = bounds or _exponent_bounds(_check_normal_shape(rs))
    for (a, e), bound in bounds.items():
        b, r = divmod(degree - (n - a + e * sig.degree[x]), n)
        if r == 0 and 0 <= b < bound:
            out.append(("H" * a + x * e + "Y" * b, e + b))
    return sorted(out, key=lambda wl: order_key(wl[0], sig))


def _bound_excess(base_excess: dict, base_bounds: dict, bounds: dict,
                  sig: Signature, degree_bound: int) -> dict:
    """presentation - target on each differing cell up to degree_bound
    of a completed system whose ideal contains base's: more leading
    words leave fewer irreducible words (a basis, Bergman 1978), so its
    exponent bounds are at most base's (else ValueError), and base's
    excess loses the words H^a X^e Y^b with bounds <= b < base_bounds."""
    diff = dict(base_excess)
    for pair, lo in bounds.items():
        hi = base_bounds[pair]
        if lo > hi:
            raise ValueError(f"bound {lo} of pair {pair} above base's {hi}")
        if lo < hi:
            for cell in _pair_cells(sig, *pair, lo, hi, degree_bound):
                v = diff.pop(cell, 0) - 1
                if v:
                    diff[cell] = v
    return diff


def repair_search(base: RewriteSystem,
                  comparison: ComparisonReport) -> tuple[Augmentation, ...]:
    """Search for rule augmentations that reconcile the completed
    presentation base with the target table that comparison compares
    base's hilbert table to, up to comparison.degree_bound.

    Surplus cells are attacked in increasing (degree, level) order; for
    each candidate left side in the first surplus cell every F2
    combination of equal-degree, level-compatible, smaller irreducible
    words is tried as a right side.  Completion then resumes from the
    current system with that rule, and any derived rules it is forced
    to add become part of the candidate augmentation.  A candidate
    survives only if

      (i)   the base rules plus the candidate set are complete: they are
            complete's own output, so completing them again changes
            nothing,
      (ii)  the level filtration is preserved, and
      (iii) the dimension table matches the target exactly up to the
            degree bound.

    Distinct search paths reaching the same rule set are reported once.
    No table is counted: comparison holds base's cells, and every other
    system reached extends base, so _bound_excess reads its excess.
    RepairError is raised when no candidate survives.  Only a
    CompletionError rejects a candidate; any other error propagates.
    The search is exhaustive: where it would need more than _DEPTH_CAP
    rules on one search path, it raises SearchCapError instead of
    leaving candidates untried.
    """
    if base.completion_status != COMPLETE:
        raise ValueError("repair_search requires a completed system")
    base_excess = {(d, l): a - h for d, l, a, h in comparison.cell_mismatches}
    if not base_excess:
        raise ValueError("presentation already matches; nothing to repair")
    base_set = set(base.rules)
    base_bounds = _exponent_bounds(_check_normal_shape(base))

    # each rule set reached, once: its augmentation, or None where the
    # filtration fails
    found: dict[frozenset, Augmentation | None] = {}
    dead_degrees: list[int] = []

    def search(current: RewriteSystem, depth: int) -> None:
        bounds = base_bounds if current is base else _exponent_bounds(current)
        diff = _bound_excess(base_excess, base_bounds, bounds, base.sig,
                             comparison.degree_bound)
        deficit = [d for (d, _), v in diff.items() if v < 0]
        if deficit:
            dead_degrees.append(min(deficit))
            return
        if not diff:
            if not base_set <= set(current.rules):
                return
            candidate = tuple(r for r in current.rules if r not in base_set)
            key = frozenset(candidate)
            if key not in found:
                found[key] = (Augmentation(rules=candidate, system=current)
                              if filtration_check(current).passed else None)
            return
        # no deficit, so every cell left is a surplus
        degree, level = min(diff)
        if depth >= _DEPTH_CAP:
            raise SearchCapError("_DEPTH_CAP", _DEPTH_CAP, (degree, level))
        progressed = False
        words = _degree_words(current, degree, bounds)
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
    if not survivors:
        first = min(dead_degrees) if dead_degrees else 0
        raise RepairError(
            f"no confluent, filtration-compatible augmentation matches the "
            f"table; first unrepairable degree: {first}")
    return tuple(survivors)
