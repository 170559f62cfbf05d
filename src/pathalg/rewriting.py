"""Rewriting systems for the presented algebras: orientation, completion,
normal forms, bigraded Hilbert counts, and the verification suites built
on them (filtration, reversal stability, inclusion transport, dimension
comparison, repair search).

The well-order is weight-lex (see algebra.MonomialOrder).  Every rule
keeps the weight of each right-hand word at or below the weight of its
left-hand word, so no reduction ever increases word weight.  Completion
resolves every critical pair, in every weight; by the diamond lemma the
completed system is confluent, so irreducible words form a basis of the
presented algebra in every degree.

>>> rs = complete(orient(signature(3)))
>>> sorted(normal_form("SH", rs))
['', 'HS']
>>> normal_form("SS", rs) == ZERO
True
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .tables import BigradedTable, CheckItem, CheckReport
from .algebra import (
    EVEN,
    ZERO,
    MonomialOrder,
    Polynomial,
    Relation,
    Signature,
    Word,
    default_order,
    defining_relations,
    poly,
    reverse_poly,
    signature,
    word_level,
)

INCOMPLETE = "incomplete"
COMPLETE = "complete"

# guards against runaway rewriting: reduction steps of one _poly_nf
# call, and rules in one completion
_STEP_LIMIT = 10 ** 6
_RULE_LIMIT = 400
# caps on the repair search: words whose combinations are tried as
# right sides of one left side, and rules chosen along one search path.
# Neither is reached for even n from 2 to 20 (the pool never holds more
# than one word); a search that would pass one raises SearchCapError
# instead of dropping the rest.
_POOL_CAP = 10
_DEPTH_CAP = 8


class OrderRejectedError(ValueError):
    """The monomial order does not make the designated left side of a
    relation its strict maximum."""

    def __init__(self, relation: Relation, message: str):
        self.relation = relation
        super().__init__(f"relation with left side {relation.lhs!r}: {message}")


class CompletionError(RuntimeError):
    """A critical pair reduced to the unit: the relations force 1 = 0,
    so no orientable rule exists for the pair."""

    def __init__(self, superposition: Word):
        self.superposition = superposition
        super().__init__(
            f"critical pair at {superposition!r} reduces to the unit; "
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
    """The repair search would pass one of its caps, so it cannot claim
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
class RewriteRule:
    lhs: Word
    rhs: Polynomial

    def render(self) -> str:
        if not self.rhs:
            rhs = "0"
        else:
            rhs = " + ".join(w if w else "1" for w in sorted(self.rhs))
        return f"{self.lhs} -> {rhs}"


@dataclass(frozen=True)
class RewriteSystem:
    sig: Signature
    order: MonomialOrder
    rules: tuple[RewriteRule, ...]
    completion_status: str = INCOMPLETE

    def max_lhs_len(self) -> int:
        return max((len(r.lhs) for r in self.rules), default=0)


def orient(sig: Signature, order: Optional[MonomialOrder] = None) -> RewriteSystem:
    """Turn the defining relations into rules lhs -> rhs.

    Raises OrderRejectedError unless the designated left side of every
    relation is the strict maximum of the relation under the order.
    """
    order = order if order is not None else default_order(sig)
    rules = []
    for rel in defining_relations(sig.n):
        for w in rel.rhs:
            if not order.less(w, rel.lhs):
                raise OrderRejectedError(
                    rel, f"right-hand word {w!r} is not below the left side")
        rules.append(RewriteRule(rel.lhs, rel.rhs))
    rules.sort(key=lambda r: order.sort_key(r.lhs))
    return RewriteSystem(sig=sig, order=order, rules=tuple(rules))


def apply_rule(word: Word, rule: RewriteRule, pos: int) -> Polynomial:
    """One replacement of rule.lhs inside word at the given position."""
    if not word.startswith(rule.lhs, pos):
        raise ValueError(f"{rule.lhs!r} does not occur in {word!r} at {pos}")
    head, tail = word[:pos], word[pos + len(rule.lhs):]
    return frozenset(head + r + tail for r in rule.rhs)


def _leftmost_match(word: Word, rules: tuple[RewriteRule, ...]):
    for i in range(len(word)):
        for rule in rules:
            if word.startswith(rule.lhs, i):
                return i, rule
    return None


def _poly_nf(p: Iterable[Word], rules: tuple[RewriteRule, ...]) -> Polynomial:
    """Full reduction of a polynomial; leftmost strategy per word.

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


def _interreduce(rule_map: dict[Word, Polynomial], order: MonomialOrder
                 ) -> dict[Word, Polynomial]:
    """Make every lhs irreducible by the other rules and every rhs fully
    reduced.  Dismantled rules re-enter as equations."""
    changed = True
    while changed:
        changed = False
        for lhs in sorted(rule_map, key=order.sort_key):
            rhs = rule_map[lhs]
            others = tuple(RewriteRule(l, r) for l, r in rule_map.items()
                           if l != lhs)
            if _leftmost_match(lhs, others) is not None:
                del rule_map[lhs]
                eq = _poly_nf(frozenset({lhs}) ^ rhs, others)
                if eq:
                    top = order.max_word(eq)
                    if top == "":
                        raise CompletionError(lhs)
                    rule_map[top] = eq ^ {top}
                changed = True
                break
            new_rhs = _poly_nf(rhs, others)
            if new_rhs != rhs:
                rule_map[lhs] = new_rhs
                changed = True
    return rule_map


def _overlap_words(l1: Word, l2: Word) -> Iterator[tuple[Word, int]]:
    """Superposition words where a proper suffix of l1 is a proper
    prefix of l2, together with the offset of l2 in the superposition.
    Containments do not occur between inter-reduced rules."""
    for k in range(1, min(len(l1), len(l2))):
        if l1.endswith(l2[:k]):
            yield l1 + l2[k:], len(l1) - k


def complete(rs: RewriteSystem) -> RewriteSystem:
    """Knuth-Bendix completion over every superposition.  It ends when
    every critical pair resolves, so the output is confluent in every
    weight; RuleLimitError and StepLimitError stop a completion that
    does not end.  Output is inter-reduced and sorted, hence canonical
    regardless of processing order, and a fixed point of complete."""
    order = rs.order
    rule_map = {r.lhs: r.rhs for r in rs.rules}
    while True:
        if len(rule_map) > _RULE_LIMIT:
            raise RuleLimitError(_RULE_LIMIT)
        rule_map = _interreduce(rule_map, order)
        rules = tuple(RewriteRule(l, r) for l, r in
                      sorted(rule_map.items(), key=lambda kv: order.sort_key(kv[0])))
        pending = []
        for r1, r2 in itertools.product(rules, repeat=2):
            for sup, off in _overlap_words(r1.lhs, r2.lhs):
                p1 = _poly_nf(apply_rule(sup, r1, 0), rules)
                p2 = _poly_nf(apply_rule(sup, r2, off), rules)
                diff = p1 ^ p2
                if diff:
                    pending.append((sup, diff))
        if not pending:
            break
        pending.sort(key=lambda sd: order.sort_key(sd[0]))
        for sup, diff in pending:
            diff = _poly_nf(diff, tuple(RewriteRule(l, r)
                                        for l, r in rule_map.items()))
            if not diff:
                continue
            top = order.max_word(diff)
            if top == "":
                raise CompletionError(sup)
            rule_map[top] = diff ^ {top}
    rules = tuple(RewriteRule(l, r) for l, r in
                  sorted(rule_map.items(), key=lambda kv: order.sort_key(kv[0])))
    for r in rules:
        lw = order.weight(r.lhs)
        assert all(order.weight(w) <= lw for w in r.rhs)
    return RewriteSystem(sig=rs.sig, order=order, rules=rules,
                         completion_status=COMPLETE)


# ---------------------------------------------------------------------------
# Hilbert counts


def required_weight_bound(sig: Signature, degree_bound: int) -> int:
    """Walk weight covering degree degree_bound: every irreducible word
    of unshifted degree at most degree_bound has at most this weight.
    It leaves room for the H block, one S/T letter at its maximal
    weight, the Y block, and a safety margin."""
    n = sig.n
    return (n + 1) + (n + 1) + math.ceil((degree_bound + n) / n) + 4


def _graded_walk(rs: RewriteSystem, max_weight: int
                 ) -> Iterator[tuple[Word, int, int]]:
    """(word, unshifted degree, level) for every word of weight <=
    max_weight avoiding every rule lhs as a factor.  Depth-first on an
    explicit stack: a word comes before its extensions, which come in
    alphabet order.  Gradings are summed letter by letter as words grow."""
    lhs = tuple(r.lhs for r in rs.rules)
    maxlen = rs.max_lhs_len()
    weights = rs.order.weight_map
    sig = rs.sig
    letters = [(c, weights[c], sig.degree[c], sig.level[c])
               for c in reversed(sig.alphabet)]
    stack = [("", 0, sig.n, 0)]
    while stack:
        word, weight, degree, level = stack.pop()
        yield word, degree, level
        for c, wc, dc, lc in letters:
            if weight + wc > max_weight:
                continue
            new = word + c
            if new[-maxlen:].endswith(lhs):
                continue
            stack.append((new, weight + wc, degree + dc, level + lc))


def irreducible_words(rs: RewriteSystem, max_weight: int) -> Iterator[Word]:
    """All words of weight <= max_weight avoiding every rule lhs as a
    factor, depth-first and iterative (no recursion, so no depth limit)."""
    for w, *_ in _graded_walk(rs, max_weight):
        yield w


def hilbert(rs: RewriteSystem, degree_bound: int) -> BigradedTable:
    """Count irreducible words per (unshifted degree, level) for degrees
    0..degree_bound, walking to the weight required_weight_bound gives
    for degree_bound.  Refuses a system that complete did not return."""
    if rs.completion_status != COMPLETE:
        raise ValueError("hilbert requires a completed system")
    walk = _graded_walk(rs, required_weight_bound(rs.sig, degree_bound))
    counts: dict[tuple[int, int], int] = {}
    for _, d, level in walk:
        if 0 <= d <= degree_bound:
            counts[d, level] = counts.get((d, level), 0) + 1
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

    @property
    def first_total_mismatch(self) -> Optional[tuple[int, int, int]]:
        return self.total_mismatches[0] if self.total_mismatches else None

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
    """Cell-by-cell and per-degree comparison of two dimension tables."""
    if alg.degree_bound != hom.degree_bound:
        raise ValueError(
            f"degree bounds differ: {alg.degree_bound} vs {hom.degree_bound}")
    # a cell differs where an entry (cell, value) is in one table only
    ea, eh = set(alg.entries), set(hom.entries)
    a, h = dict(ea - eh), dict(eh - ea)
    cells = sorted((d, l, a.get((d, l), 0), h.get((d, l), 0))
                   for d, l in a.keys() | h.keys())
    totals = []
    if cells:  # tables equal in every cell have equal degree totals
        ta, th = alg.degree_totals, hom.degree_totals
        totals = [(d, ta[d], th[d]) for d in range(alg.degree_bound + 1)
                  if ta[d] != th[d]]
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


def _degree_words(rs: RewriteSystem, degree: int) -> list[tuple[Word, int]]:
    """(word, level) for every irreducible word of one unshifted degree,
    in the order of rs.  The walk stops at the weight that covers the
    degree, as in hilbert; a word below another in the order has at most
    its weight, so the words before any listed word are all listed."""
    walk = _graded_walk(rs, required_weight_bound(rs.sig, degree))
    out = [(w, l) for w, d, l in walk if d == degree]
    return sorted(out, key=lambda wl: rs.order.sort_key(wl[0]))


def repair_search(base: RewriteSystem, alg: BigradedTable,
                  hom: BigradedTable) -> tuple[Augmentation, ...]:
    """Search for rule augmentations that reconcile the completed
    presentation base, whose hilbert table is alg, with the target
    dimension table hom, up to their common degree bound.

    Surplus cells are attacked in increasing (degree, level) order; for
    each candidate left side in the first surplus cell every F2
    combination of equal-degree, level-compatible, smaller irreducible
    words is tried as a right side.  Completion then runs on the
    enlarged system, and any derived rules it is forced to add become
    part of the candidate augmentation.  A candidate survives only if

      (i)   the base rules plus the candidate set are complete: they are
            complete's own output, so completing them again changes
            nothing,
      (ii)  the level filtration is preserved, and
      (iii) the dimension table matches the target exactly up to the
            degree bound.

    Distinct search paths reaching the same rule set are reported once.
    base is never counted again (its table is alg); every other system
    the search reaches is counted by hilbert once per visit.
    RepairError is raised when no candidate survives.  Only a
    CompletionError rejects a candidate; any other error propagates.
    The search is exhaustive: where it would need more than _POOL_CAP
    right-side words, or more than _DEPTH_CAP rules on one search path,
    it raises SearchCapError instead of leaving candidates untried.
    """
    if base.completion_status != COMPLETE:
        raise ValueError("repair_search requires a completed system")
    if alg.degree_bound != hom.degree_bound:
        raise ValueError("alg and hom have different degree bounds")

    def excess(table: BigradedTable) -> dict[tuple[int, int], int]:
        """table - hom on every cell where the two differ."""
        return {(d, l): a - h
                for d, l, a, h in compare(table, hom).cell_mismatches}

    base_excess = excess(alg)
    if not base_excess:
        raise ValueError("presentation already matches; nothing to repair")
    base_set = set(base.rules)

    survivors: list[Augmentation] = []
    seen: set = set()
    dead_degrees: list[int] = []

    def search(current: RewriteSystem, depth: int) -> None:
        diff = (base_excess if current is base
                else excess(hilbert(current, hom.degree_bound)))
        deficit = [k for k, v in diff.items() if v < 0]
        surplus = sorted(k for k, v in diff.items() if v > 0)
        if deficit:
            dead_degrees.append(min(d for d, _ in deficit))
            return
        if not surplus:
            if not base_set <= set(current.rules):
                return
            candidate = tuple(r for r in current.rules if r not in base_set)
            key = frozenset(candidate)
            if key in seen:
                return
            seen.add(key)
            if filtration_check(current).passed:
                survivors.append(Augmentation(rules=candidate, system=current))
            return
        if depth >= _DEPTH_CAP:
            raise SearchCapError("_DEPTH_CAP", _DEPTH_CAP, surplus[0])
        degree, level = surplus[0]
        progressed = False
        words = _degree_words(current, degree)
        for i, (lhs, lv) in enumerate(words):
            if lv != level:
                continue
            # equal degree, level at most the cell's, below lhs in order
            pool = [w for w, l in words[:i] if l <= level]
            if len(pool) > _POOL_CAP:
                raise SearchCapError("_POOL_CAP", _POOL_CAP, (degree, level))
            for size in range(len(pool) + 1):
                for combo in itertools.combinations(pool, size):
                    rule = RewriteRule(lhs, frozenset(combo))
                    enlarged = RewriteSystem(
                        sig=current.sig, order=current.order,
                        rules=current.rules + (rule,))
                    try:
                        nxt = complete(enlarged)
                    except CompletionError:
                        continue
                    progressed = True
                    search(nxt, depth + 1)
        if not progressed:
            dead_degrees.append(degree)

    search(base, 0)
    if not survivors:
        first = min(dead_degrees) if dead_degrees else 0
        raise RepairError(
            f"no confluent, filtration-compatible augmentation matches the "
            f"table; first unrepairable degree: {first}")
    survivors.sort(key=lambda a: tuple(r.render() for r in a.rules))
    return tuple(survivors)
