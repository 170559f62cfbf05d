"""Rewriting engine: orientation, completion, normal forms, comparison,
repair search.  The expected rule tables below were derived by hand from
the defining relations and are frozen as oracles."""

import dataclasses
import functools
import heapq
import itertools
import math
import random
import re
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from pathalg import rewriting
from pathalg.algebra import (
    AlphabetError,
    GradingError,
    ONE,
    ZERO,
    defining_relations,
    order_key,
    poly,
    poly_mul,
    signature,
    unshifted_degree,
    word_level,
    word_weight,
)
from pathalg.rewriting import (
    ComparisonReport,
    CompletionError,
    OrderRejectedError,
    RepairError,
    RewriteRule,
    RewriteSystem,
    RuleLimitError,
    SearchCapError,
    StepLimitError,
    anti_automorphism_check,
    compare,
    complete,
    filtration_check,
    heredity_check,
    hilbert,
    hilbert_series,
    normal_form,
    orient,
    repair_search,
)
from pathalg.homology import COEFF_F2, path_space_homology, path_space_series
from pathalg.tables import (
    BigradedSeries, BigradedTable, CheckItem, CheckReport)


def completed(n: int) -> RewriteSystem:
    return complete(orient(signature(n)))


def target_report(rs: RewriteSystem, degree_bound: int) -> ComparisonReport:
    """verify's comparison of the completed rs with the mod-2 target."""
    return compare(hilbert_series(rs), path_space_series(rs.sig.n),
                   degree_bound)


def repairs(n: int):
    """repair_search for n against the mod-2 target series, as verify
    runs it."""
    return repair_search(completed(n), path_space_series(n))


@functools.lru_cache(maxsize=None)
def repaired(n: int) -> tuple[RewriteSystem, ...]:
    """The completed system for n, then for even n both repairs."""
    found = repairs(n) if n % 2 == 0 else ()
    return (completed(n), *(a.system for a in found))


def recursive_irreducible_words(rs: RewriteSystem, max_weight: int):
    """Reference enumerator: irreducible words of weight <= max_weight,
    by depth-first extension with letters.  It recurses once per letter,
    so it only serves small weight bounds."""
    lhs_set = {r.lhs for r in rs.rules}
    maxlen = max((len(r.lhs) for r in rs.rules), default=0)
    weights = rs.sig.weight
    alphabet = rs.sig.alphabet

    def extend(word, weight):
        yield word
        for c in alphabet:
            w2 = weight + weights[c]
            if w2 > max_weight:
                continue
            new = word + c
            tail = new[-maxlen:] if maxlen else new
            if any(tail.endswith(l) for l in lhs_set):
                continue
            yield from extend(new, w2)

    yield from extend("", 0)


def weight_bound(sig, degree_bound: int) -> int:
    """Walk weight covering degree degree_bound in a system that reduces
    the defining left sides: its irreducible words are H^a X^e Y^b with
    a <= n and e <= 1, of unshifted degree n - a + e*deg(X) + n*b >= n*b,
    so degree <= degree_bound forces b <= degree_bound // n."""
    n, w = sig.n, sig.weight
    return n * w["H"] + w[sig.alphabet[1]] + (degree_bound // n) * w["Y"]


def graded_reference_walk(rs: RewriteSystem, max_weight: int):
    """(word, unshifted degree, level) along the reference walk, every
    grading recomputed from the word's letters."""
    for w in recursive_irreducible_words(rs, max_weight):
        yield w, unshifted_degree(w, rs.sig), word_level(w)


def reference_hilbert(rs: RewriteSystem, degree_bound: int,
                      extra: int = 0) -> BigradedTable:
    """Hilbert counts of the reference walk to weight_bound plus extra."""
    counts = defaultdict(int)
    walk = weight_bound(rs.sig, degree_bound) + extra
    for _, d, l in graded_reference_walk(rs, walk):
        if 0 <= d <= degree_bound:
            counts[d, l] += 1
    return BigradedTable.from_dict(counts, degree_bound)


def target_table(n: int, degree_bound: int) -> BigradedTable:
    """The mod-2 path-space cells up to degree_bound, as a table."""
    return BigradedTable(
        tuple(path_space_homology(n, COEFF_F2, degree_bound)), degree_bound)


def degree_totals(table: BigradedTable) -> defaultdict:
    """Sum of the cells over levels, per degree."""
    totals = defaultdict(int)
    for (d, _), v in table.entries:
        totals[d] += v
    return totals


def reference_compare(alg: BigradedTable,
                      hom: BigradedTable) -> ComparisonReport:
    """compare by sets of every entry of both tables and every degree
    total up to the bound."""
    ea, eh = set(alg.entries), set(hom.entries)
    a, h = dict(ea - eh), dict(eh - ea)
    cells = sorted((d, l, a.get((d, l), 0), h.get((d, l), 0))
                   for d, l in a.keys() | h.keys())
    ta, th = degree_totals(alg), degree_totals(hom)
    totals = [(d, ta[d], th[d]) for d in range(alg.degree_bound + 1)
              if ta[d] != th[d]]
    return ComparisonReport(alg.degree_bound, tuple(cells), tuple(totals))


def apply_rule(word, rule, pos):
    """One replacement of rule.lhs inside word at pos."""
    assert word.startswith(rule.lhs, pos), (word, rule.lhs, pos)
    return frozenset(word[:pos] + r + word[pos + len(rule.lhs):]
                     for r in rule.rhs)


def assert_confluent(rs: RewriteSystem) -> None:
    """Both one-step reductions of every overlap or inclusion of two
    left sides have one normal form."""
    for r1, r2 in itertools.product(rs.rules, repeat=2):
        l1, l2 = r1.lhs, r2.lhs
        words = [(l1 + l2[k:], len(l1) - k)
                 for k in range(1, min(len(l1), len(l2)))
                 if l1.endswith(l2[:k])]
        if r1 is not r2:
            words += [(l1, i) for i in range(len(l1) - len(l2) + 1)
                      if l1.startswith(l2, i)]
        for word, off in words:
            assert normal_form(apply_rule(word, r1, 0), rs) == \
                normal_form(apply_rule(word, r2, off), rs), (r1, r2, word)


def completion_outcome(sig, rules):
    """complete's rules for the given input rules, or CompletionError."""
    try:
        return complete(RewriteSystem(sig=sig, rules=tuple(rules))).rules
    except CompletionError:
        return CompletionError


def resumed_outcome(base, extra):
    """complete's rules resumed from base with extra, or CompletionError."""
    try:
        return complete(base, extra).rules
    except CompletionError:
        return CompletionError


def assert_order_free(sig, orders):
    """Every order of the input rules completes alike, and a system
    that completes is confluent; returns the common outcome."""
    outcomes = {completion_outcome(sig, rules) for rules in orders}
    assert len(outcomes) == 1, outcomes
    (outcome,) = outcomes
    if outcome is not CompletionError:
        assert_confluent(RewriteSystem(sig=sig, rules=outcome))
    return outcome


# frozen completed rule tables; completion adds nothing to the oriented
# defining relations for these n
EXPECTED_RULES = {
    1: ["HH -> 0", "YH -> HY", "SH -> 1 + HS", "YS -> SY + YY", "SS -> 0"],
    2: ["TH -> H + HT", "TT -> T", "YH -> HY", "YT -> TY + Y", "HHH -> 0"],
    3: ["SH -> 1 + HS", "SS -> 0", "YH -> HY", "YS -> SY", "HHHH -> 0"],
    5: ["YH -> HY", "HHHHHH -> 0", "SH -> 1 + HS",
        "YS -> HHHHYY + SY", "SS -> 0"],
}


class TestOrientation:
    def test_orients_all_defining_relations(self):
        for n in (1, 2, 3, 4, 5, 6):
            rs = orient(signature(n))
            assert len(rs.rules) == 5
            for rule in rs.rules:
                for w in rule.rhs:
                    assert order_key(w, rs.sig) < order_key(rule.lhs, rs.sig)

    def test_unit_weights_reject_the_exceptional_relation(self):
        # without the heavy middle letter the extra right-hand word of
        # the n = 1 mod 4 relation outweighs its left side
        flat = dataclasses.replace(signature(5),
                                   weight={"H": 1, "S": 1, "Y": 1})
        with pytest.raises(OrderRejectedError):
            orient(flat)

    def test_rules_are_the_defining_relations(self):
        # a defining relation is already a rule; orient only sorts them
        for n in (1, 2, 3, 5):
            sig = signature(n)
            assert orient(sig).rules == tuple(sorted(
                defining_relations(n), key=lambda r: order_key(r.lhs, sig)))
        flat = dataclasses.replace(signature(5),
                                   weight={"H": 1, "S": 1, "Y": 1})
        with pytest.raises(OrderRejectedError) as info:
            orient(flat)
        assert info.value.relation in defining_relations(5)
        assert info.value.relation.lhs == "YS"

    def test_render(self):
        assert RewriteRule("SH", poly("", "HS")).render() == "SH -> 1 + HS"
        assert RewriteRule("SS", ZERO).render() == "SS -> 0"


class TestCompletion:
    @pytest.mark.parametrize("n", sorted(EXPECTED_RULES))
    def test_base_systems_are_already_confluent(self, n):
        rs = completed(n)
        assert [r.render() for r in rs.rules] == EXPECTED_RULES[n]
        assert rs.completion_status == "complete"

    def test_completion_is_idempotent(self):
        rs = completed(3)
        assert complete(rs).rules == rs.rules

    @pytest.mark.parametrize("n", range(1, 42))
    def test_oriented_relations_are_already_complete(self, n):
        # every critical pair of the oriented relations resolves, in
        # every weight, so by the diamond lemma the irreducible words
        # are a basis of the presented algebra in every degree
        rs = orient(signature(n))
        assert complete(rs).rules == rs.rules

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_repaired_systems_are_fixed_points(self, n):
        found = repairs(n)
        assert len(found) == 2
        for aug in found:
            assert complete(aug.system).rules == aug.system.rules

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_repair_candidates_resume_as_from_scratch(self, monkeypatch, n):
        # the repair search resumes from the base for every candidate
        # rule of the first surplus cell; completing the base rules and
        # the candidate from scratch must give the same rules
        base = completed(n)
        real = rewriting.complete
        candidates = []

        def recording(rs, extra=()):
            candidates.append((rs, tuple(extra)))
            return real(rs, extra)

        monkeypatch.setattr(rewriting, "complete", recording)
        repair_search(base, path_space_series(n))
        assert candidates
        for rs, extra in candidates:
            assert rs == base and len(extra) == 1
            assert resumed_outcome(base, extra) == \
                completion_outcome(base.sig, base.rules + extra)

    def test_resuming_needs_a_completed_system(self):
        rs = orient(signature(2))
        with pytest.raises(ValueError, match="completed system"):
            complete(rs, (RewriteRule("HHT", ZERO),))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_order_of_the_base_rules_completes_alike(self, n):
        rs = orient(signature(n))
        assert assert_order_free(
            rs.sig, itertools.permutations(rs.rules)) == rs.rules

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_every_rotation_of_a_repair_completes_alike(self, n):
        base, *found = repaired(n)
        assert len(found) == 2
        for rs in found:
            rules = base.rules + tuple(r for r in rs.rules
                                       if r not in base.rules)
            orders = [rules[k:] + rules[:k] for k in range(len(rules))]
            orders += [order[::-1] for order in orders]
            assert assert_order_free(rs.sig, orders) == rs.rules

    @pytest.mark.parametrize("extra_first", [False, True])
    def test_repeated_left_sides_collapse_in_either_order(self, extra_first):
        # SH -> HS beside SH -> 1 + HS forces 1 = 0; keeping only the
        # first rule for a left side would give a "complete" system that
        # depends on the input order
        rs = orient(signature(1))
        extra = (RewriteRule("SH", poly("HS")),)
        rules = extra + rs.rules if extra_first else rs.rules + extra
        with pytest.raises(CompletionError):
            complete(RewriteSystem(sig=rs.sig, rules=rules))

    def test_collapse_is_detected(self):
        # inverting the degree-raising middle letter forces 1 = 0
        sig = signature(1)
        rs = orient(sig)
        poisoned = RewriteSystem(
            sig=sig, rules=rs.rules + (RewriteRule("S", ONE),))
        with pytest.raises(CompletionError):
            complete(poisoned)

    def test_step_limit_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(rewriting, "_STEP_LIMIT", 3)
        with pytest.raises(StepLimitError, match="_STEP_LIMIT = 3") as info:
            complete(orient(signature(2)))
        assert info.value.limit == 3
        assert isinstance(info.value, RuntimeError)

    def test_rule_limit_is_a_typed_error(self, monkeypatch):
        # the completed n = 2 system has 5 rules
        monkeypatch.setattr(rewriting, "_RULE_LIMIT", 4)
        with pytest.raises(RuleLimitError, match="_RULE_LIMIT = 4") as info:
            complete(orient(signature(2)))
        assert info.value.limit == 4
        assert isinstance(info.value, RuntimeError)

    def test_a_rule_heavier_on_the_right_is_a_typed_error(self, monkeypatch):
        # with the smallest word as leading word, TTT = H orients to
        # H -> TTT, and nothing reduces TTT
        monkeypatch.setattr(rewriting, "leading_word", lambda p, sig: min(
            p, key=lambda w: order_key(w, sig)))
        rs = RewriteSystem(sig=signature(2),
                           rules=(RewriteRule("TTT", poly("H")),))
        message = "rule H -> TTT has a right-hand word heavier than its left side"
        with pytest.raises(GradingError, match=f"^{re.escape(message)}$"):
            complete(rs)

    def test_rules_respect_weights(self):
        for n in (1, 2, 3, 4, 5, 6, 7):
            rs = completed(n)
            for rule in rs.rules:
                top = word_weight(rule.lhs, rs.sig)
                assert all(word_weight(w, rs.sig) <= top for w in rule.rhs)


class TestNormalForm:
    def test_examples(self):
        rs = completed(3)
        assert normal_form("SH", rs) == poly("", "HS")
        assert normal_form("SS", rs) == ZERO
        assert normal_form("YSH", rs) == poly("Y", "HSY")
        assert normal_form("HHHH", rs) == ZERO
        assert normal_form(poly("SH", "HS"), rs) == ONE

    def test_product_identities_odd_targets(self):
        # the two bracket identities that pin down the even-to-odd
        # transport of the tangent-level generator
        for n in (3, 5):
            rs = completed(n)
            lhs1 = normal_form("HHSYH", rs)
            rhs1 = normal_form(poly("HHHSY", "HHY"), rs)
            assert lhs1 == rhs1
            lhs2 = normal_form("HYHHS", rs)
            rhs2 = normal_form("HHHSY", rs)
            assert lhs2 == rhs2

    def test_even_transport_identity(self):
        rs = completed(2)
        assert normal_form(poly("TH", "HT", "H"), rs) == ZERO

    def test_irreducible_words_match_brute_force(self):
        rs = completed(2)
        lhss = [r.lhs for r in rs.rules]
        letters = rs.sig.alphabet

        def free(word):
            return not any(l in word for l in lhss)

        brute = set()
        stack = [""]
        while stack:
            w = stack.pop()
            if len(w) <= 4 and free(w):
                brute.add(w)
                for a in letters:
                    stack.append(w + a)
        # a free word of at most four letters H^a T^e Y^b has unshifted
        # degree 2 - a + 2b <= 10
        listed = {w for d in range(11)
                  for w, _ in rewriting._degree_words(rs, d) if len(w) <= 4}
        assert listed == brute


class TestIrreducibleWords:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hilbert_matches_the_recursive_reference(self, n):
        rs = completed(n)
        assert hilbert(rs, 60) == reference_hilbert(rs, 60)

    @pytest.mark.parametrize("n", [2, 4])
    def test_hilbert_matches_the_reference_on_repaired_systems(self, n):
        found = repairs(n)
        assert len(found) == 2
        for rs in (a.system for a in found):
            assert hilbert(rs, 20) == reference_hilbert(rs, 20)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cell_lists_match_the_full_walk(self, n):
        # every degree up to D, empty ones included, must list exactly
        # the reference walk's words of that degree, the walk going 10
        # heaviest letters past the weight that covers D
        D = 120
        extra = 10 * max(signature(n).weight.values())
        for rs in repaired(n):
            degrees = defaultdict(list)
            for w, d, l in graded_reference_walk(
                    rs, weight_bound(rs.sig, D) + extra):
                degrees[d].append((w, l))
            for d in range(D + 1):
                assert rewriting._degree_words(rs, d) == sorted(
                    degrees[d], key=lambda wl: order_key(wl[0], rs.sig)), d

    @pytest.mark.parametrize("n", range(1, 13))
    def test_the_walk_bound_suffices(self, n):
        # walking 10 heaviest letters past the reference's weight bound
        # finds no more words of degree at most D, for the base system
        # and both repairs
        extra = 10 * max(signature(n).weight.values())
        for rs in repaired(n):
            for D in sorted({0, 1, n, 40}):
                assert hilbert(rs, D) == reference_hilbert(rs, D, extra), (n, D)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_tables_equal_the_reference(self, n):
        for rs in repaired(n):
            for D in sorted({0, 1, n, 40, 840}):
                assert hilbert(rs, D) == reference_hilbert(rs, D), D

    def test_degree_bound_far_past_the_recursion_limit(self):
        # the recursive enumerator overflowed the interpreter stack at
        # D = 1000 for n = 1; counting by exponents has no depth limit
        rs = completed(1)
        assert hilbert(rs, 10_000) == target_table(1, 10_000)

    @pytest.mark.parametrize("lhss", [("HH", "HSH"), ("SHS", "HSY", "SY"),
                                      ("YY", "YHY", "HYH")])
    def test_overlapping_left_sides_without_the_premise_are_refused(self, lhss):
        # uncompleted systems whose left sides overlap themselves or
        # share prefixes; each leaves a defining left side irreducible,
        # so the normal shape does not hold and nothing is listed
        rs = RewriteSystem(sig=signature(3),
                           rules=tuple(RewriteRule(l, ZERO) for l in lhss))
        with pytest.raises(ValueError, match="reduces the defining left"):
            rewriting._degree_words(rs, 3)

    def test_no_rules_is_refused(self):
        rs = RewriteSystem(sig=signature(3), rules=())
        with pytest.raises(ValueError, match="reduces the defining left"):
            rewriting._degree_words(rs, 3)

    def test_negative_degree_bound_is_refused(self):
        # as path_space_homology refuses it, so both routes agree
        with pytest.raises(ValueError, match="degree bound must be nonnegative"):
            hilbert(completed(2), -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("extras", [(), ("HHY",), ("HX",), ("XYYY",),
                                    ("HHY", "XYYY"), ("HHY", "HX", "XYYY")])
def test_exponent_bounds_match_a_factor_search(n, extras):
    # hand-built systems in the normal shape's premise: the defining
    # left sides plus left sides H^2Y, HX and XY^3 (X = S or T); H^2Y
    # is a factor of H^a X^e Y^b only for e = 0, which no base or
    # repaired system exercises
    sig = signature(n)
    x = sig.alphabet[1]
    lhss = [r.lhs for r in orient(sig).rules] + \
        [l.replace("X", x) for l in extras]
    rs = RewriteSystem(sig=sig, rules=tuple(RewriteRule(l, ZERO) for l in lhss))
    longest = max(map(len, lhss))

    def first_reducible(a, e):
        for b in range(longest + 1):
            word = "H" * a + x * e + "Y" * b
            if any(l in word for l in lhss):
                return b
        return math.inf

    rows = rewriting._exponent_bounds(rs)
    assert {(a, e): bound for a, e, _, bound in rows} == {
        (a, e): first_reducible(a, e) for a in range(n + 1) for e in (0, 1)}
    assert all(d0 == unshifted_degree("H" * a + x * e, sig)
               for a, e, d0, _ in rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 200))
def test_triple_count_is_the_reference_count(n, D):
    for rs in repaired(n):
        assert hilbert(rs, D) == reference_hilbert(rs, D)


@st.composite
def extra_rules(draw, max_n=6):
    """A base system for n <= max_n and one or two extra rules, each
    with an irreducible word of some degree as left side and a subset
    of the smaller words of that degree as right side; a degree without
    words gives no rule."""
    base = completed(draw(st.integers(1, max_n)))
    extra = []
    for _ in range(draw(st.integers(1, 2))):
        words = [w for w, _ in rewriting._degree_words(
            base, draw(st.integers(0, 4 * base.sig.n + 4)))]
        if words:
            i = draw(st.integers(0, len(words) - 1))
            rhs = draw(st.sets(st.sampled_from(words[:i]))) if i else ()
            extra.append(RewriteRule(words[i], frozenset(rhs)))
    return base, tuple(extra)


@st.composite
def base_with_extra_rules(draw):
    """A base system for n <= 6 and its extra rules (extra_rules), in a
    drawn order."""
    base, extra = draw(extra_rules())
    rules = base.rules + extra
    return base.sig, rules, draw(st.permutations(rules))


@settings(max_examples=60, deadline=None)
@given(base_with_extra_rules())
def test_extra_rules_complete_alike_in_any_order(drawn):
    sig, rules, order = drawn
    assert_order_free(sig, [rules, order, order[::-1]])


@settings(max_examples=100, deadline=None)
@given(extra_rules(max_n=8))
def test_resumed_completion_is_completion_from_scratch(drawn):
    # one reduced convergent system per theory and order, however it
    # was reached; collapses must agree too
    base, extra = drawn
    assert resumed_outcome(base, extra) == \
        completion_outcome(base.sig, base.rules + extra)


@settings(max_examples=60, deadline=None)
@given(extra_rules(), st.integers(0, 60))
def test_series_of_an_extension_of_an_extension(drawn, D):
    # the repair search judges any completed extension by its series,
    # finite bounds included: base plus the first rule, then plus both;
    # cut at D, that judgement is the one the full tables give
    base, extra = drawn
    try:
        mid = complete(base, extra[:1])
        rs = complete(base, extra)
    except CompletionError:
        return
    n = base.sig.n
    hom = target_table(n, D)
    for system in (mid, rs):
        assert compare(hilbert_series(system), path_space_series(n), D) \
            == reference_compare(hilbert(system, D), hom)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="HSY", min_size=0, max_size=6),
       st.text(alphabet="HSY", min_size=0, max_size=6))
def test_normal_form_is_a_congruence(u, v):
    rs = completed(3)
    lhs = normal_form(u + v, rs)
    rhs = normal_form(poly_mul(normal_form(u, rs), normal_form(v, rs)), rs)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="HTY", min_size=0, max_size=6), max_size=4))
def test_normal_form_is_idempotent(words):
    rs = completed(2)
    p = poly(*words)
    once = normal_form(p, rs)
    assert normal_form(once, rs) == once


# ---------------------------------------------------------------------------
# Reference kernels: the order by letter-rank tuples, the reduction with
# one leftmost-match scan per word, and the completion that resolves
# every critical pair, 0 = 0 ones included.  The library's kernels must
# give what these give.

LETTER_RANK = {"H": 0, "T": 1, "S": 2, "Y": 3}


def reference_order_key(w, sig):
    """Weight by a sum over the letters, then the letter-rank tuple."""
    return (sum(sig.weight[c] for c in w), tuple(LETTER_RANK[c] for c in w))


def linear_leftmost_match(word, rules):
    """Reference: every rule tried at every position, in tuple order."""
    for i in range(len(word)):
        for rule in rules:
            if word.startswith(rule.lhs, i):
                return i, rule
    return None


def reference_poly_nf(p, rules):
    """Full reduction, leftmost match first, one word at a time."""
    acc, stack, steps = set(), list(p), 0
    while stack:
        w = stack.pop()
        steps += 1
        if steps > rewriting._STEP_LIMIT:
            raise StepLimitError(rewriting._STEP_LIMIT)
        m = linear_leftmost_match(w, rules)
        if m is None:
            acc ^= {w}
        else:
            i, rule = m
            stack.extend(w[:i] + r + w[i + len(rule.lhs):] for r in rule.rhs)
    return frozenset(acc)


def reduce_by(p, rules):
    """rewriting's reduction kernel by an index of rules."""
    return rewriting._reduce(p, rewriting._index(rules))


def reference_complete(rs, extra=()):
    """complete with the reference order and reduction, every pair of
    live rules superposed."""
    sig = rs.sig
    key = functools.partial(reference_order_key, sig=sig)
    queue, seq = [], itertools.count()

    def push(origin, p):
        heapq.heappush(queue, (key(origin), next(seq), origin, p))

    live = {r.lhs: r for r in rs.rules} if extra else {}
    for r in extra or rs.rules:
        push(r.lhs, r.as_polynomial())
    rules = tuple(live.values())
    while queue:
        *_, origin, eq = heapq.heappop(queue)
        eq = reference_poly_nf(eq, rules)
        if not eq:
            continue
        top = max(eq, key=key)
        if top == "":
            raise CompletionError(origin)
        for lhs in [l for l in live if top in l]:
            push(lhs, live.pop(lhs).as_polynomial())
        new = live[top] = RewriteRule(top, eq ^ {top})
        if len(live) > rewriting._RULE_LIMIT:
            raise RuleLimitError(rewriting._RULE_LIMIT)
        rules = tuple(live.values())
        for other in rules:
            for r1, r2 in dict.fromkeys([(new, other), (other, new)]):
                for sup, off in rewriting._overlap_words(r1.lhs, r2.lhs):
                    diff = reference_poly_nf(apply_rule(sup, r1, 0)
                                             ^ apply_rule(sup, r2, off), rules)
                    if diff:
                        push(sup, diff)
    return tuple(sorted((RewriteRule(r.lhs, reference_poly_nf(r.rhs, rules))
                         for r in rules), key=lambda r: key(r.lhs)))


def kernel_outcome(call):
    """What call returns, or the type and message of its error."""
    try:
        return call()
    except (CompletionError, RuleLimitError, StepLimitError) as exc:
        return type(exc), str(exc)


def runs(letters, max_run):
    """Words of at most 60 letters made of runs of up to max_run equal
    letters, so long H-runs are common."""
    return st.lists(st.tuples(st.sampled_from(letters),
                              st.integers(1, max_run)), max_size=12).map(
        lambda rs: "".join(c * k for c, k in rs)[:60])


# left sides H^k and H^kT (k <= 20) and words of at most two letters,
# the empty one among them; two of them often match at one position
# (H^j and H^k, or H and HT)
left_sides = st.one_of(st.integers(1, 20).map(lambda k: "H" * k),
                       st.integers(0, 20).map(lambda k: "H" * k + "T"),
                       st.text(alphabet="HTY", max_size=2))


def words_of(alphabet, shortest: int, longest: int) -> list:
    """Every word over alphabet of shortest..longest letters."""
    return ["".join(t) for k in range(shortest, longest + 1)
            for t in itertools.product(alphabet, repeat=k)]


def commutation_rules(rs: RewriteSystem) -> list:
    """rs's rules XH -> HX + q, X != H and q a sum of H-powers."""
    return [r for r in rs.rules
            if len(r.lhs) == 2 and r.lhs[0] != "H" == r.lhs[1]
            and "H" + r.lhs[0] in r.rhs
            and all(set(w) <= {"H"} for w in r.rhs - {"H" + r.lhs[0]})]


def shortening_rule(lhs: str, choice: int) -> RewriteRule:
    """lhs -> 0, or to lhs less its first or its last letter: each step
    shortens a word, so a reduction ends within its length."""
    rhs = (ZERO, poly(lhs[1:]), poly(lhs[:-1]))[choice if lhs else 0]
    return RewriteRule(lhs, rhs)


class TestReferenceKernels:
    @pytest.mark.parametrize("n", range(1, 42))
    def test_base_completion_is_the_reference(self, n):
        rs = orient(signature(n))
        assert complete(rs).rules == reference_complete(rs)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_repair_completions_are_the_reference(self, n):
        # the search resumes from the base with its first rule; the
        # augmentation is that rule and what it forces
        base, found = completed(n), repairs(n)
        assert len(found) == 2
        for aug in found:
            for extra in (aug.rules[:1], aug.rules):
                assert complete(base, extra).rules == \
                    reference_complete(base, extra) == aug.system.rules

    def test_mutant_completions_are_the_reference(self):
        outcomes = []
        for n in range(1, 17):
            for rels, _ in one_word_mutants(n):
                rs = RewriteSystem(sig=signature(n), rules=rels)
                got = kernel_outcome(lambda: complete(rs).rules)
                assert got == kernel_outcome(lambda: reference_complete(rs)), \
                    rels
                outcomes.append(got)
        assert len(outcomes) == 107
        # the 8 odd-n mutants SH -> 1 collapse; each message names SH
        assert outcomes.count(
            (CompletionError, "equation from 'SH' reduces to the unit; "
             "the presented algebra collapses")) == 8

    @settings(max_examples=300, deadline=None)
    @given(st.lists(runs("HTY", 25), min_size=1, max_size=3),
           st.lists(st.tuples(left_sides, st.integers(0, 2)),
                    min_size=1, max_size=6))
    def test_reduction_is_the_reference_on_long_runs(self, words, drawn):
        # the left sides are not inter-reduced: one may be a prefix or a
        # factor of another, so two can match at the same position
        rules = tuple(shortening_rule(*d) for d in drawn)
        p = poly(*words)
        assert reduce_by(p, rules) == reference_poly_nf(p, rules)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="HSY", min_size=0, max_size=8),
           st.sampled_from([("HS", "HSY"), ("HSY", "HS"), ("SY", "Y", "HSYH"),
                            ("YS", "S", "", "SH")]),
           st.integers(0, 2))
    def test_reduction_is_the_reference_on_nested_left_sides(self, word, lhss,
                                                             choice):
        rules = tuple(shortening_rule(l, choice) for l in lhss)
        assert reduce_by([word], rules) == \
            reference_poly_nf([word], rules)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_reduction_is_the_reference_in_the_repaired_systems(self, n, data):
        # words of at most 10 letters: moving S past H doubles a word
        for rs in repaired(n):
            w = data.draw(st.text(alphabet=rs.sig.alphabet, max_size=10))
            assert reduce_by([w], rs.rules) == \
                reference_poly_nf([w], rs.rules)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_run_step_is_the_reference(self, n):
        # u X H^m v with XH a commutation rule: X crosses its H-run in one
        # step, and the term q H^(m-1) stays for odd m only; m runs past
        # n + 1, where H^m dies.  Every u and v of at most one letter,
        # and two drawn pairs of 2 or 3 letters, at each m
        rng = random.Random(n)
        for rs in repaired(n):
            rules = commutation_rules(rs)
            assert [e[0] for e in rs._index if e[3] is not None] == \
                [r.lhs for r in rules] and len(rules) == 2
            short = words_of(rs.sig.alphabet, 0, 1)
            longer = words_of(rs.sig.alphabet, 2, 3)
            for rule, m in itertools.product(rules, range(2 * n + 3)):
                pairs = [*itertools.product(short, short),
                         *((rng.choice(longer), rng.choice(longer))
                           for _ in range(2))]
                for u, v in pairs:
                    w = u + rule.lhs[0] + "H" * m + v
                    assert reduce_by([w], rs.rules) == \
                        reference_poly_nf([w], rs.rules), w

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_reduction_is_the_reference_across_long_h_runs(self, n, data):
        # H-runs of up to 2n + 2 letters between up to three other
        # letters, so runs reach and pass H^(n+1) for every n
        for rs in repaired(n):
            run = st.integers(0, 2 * n + 2).map(lambda m: "H" * m)
            w = data.draw(run) + "".join(data.draw(st.lists(
                st.tuples(st.sampled_from(rs.sig.alphabet[1:]), run).map(
                    "".join), max_size=3)))
            assert reduce_by([w], rs.rules) == \
                reference_poly_nf([w], rs.rules)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from("ST"), st.integers(1, 2),
           st.sets(st.sampled_from(["", "H", "HH", "Y", "HY", "YH"])),
           st.integers(0, 12), st.text(alphabet="HSTY", max_size=4))
    def test_only_a_commutation_rule_crosses_a_run(self, x, k, q, m, v):
        # X H^k -> H^k X + q: one step crosses the run only for k = 1 and
        # q a sum of H-powers; with a Y in q, or k = 2, it takes the
        # leftmost single steps, which the reference takes too
        rules = (RewriteRule(x + "H" * k, frozenset({"H" * k + x}) ^ q),)
        w = x + "H" * m + v
        assert reduce_by([w], rules) == reference_poly_nf([w], rules)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_reduction_before_completion_is_a_reduction(self, n):
        # the base rules and one candidate, not completed: the run step
        # and the leftmost reference may reach different irreducible
        # polynomials, but both are reductions, so they agree modulo the
        # ideal: their sum vanishes in the completion
        base = completed(n)
        for aug in repairs(n):
            rule = aug.rules[0]
            rules, done = base.rules + (rule,), complete(base, (rule,))
            for w in words_of(base.sig.alphabet, 1, 7):
                got = reduce_by([w], rules)
                assert not any(r.lhs in u for r in rules for u in got), w
                assert normal_form(got ^ reference_poly_nf([w], rules),
                                   done) == ZERO, w

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_order_key_ranks_as_the_rank_tuples(self, n, data):
        sig = signature(n)
        u, v = (data.draw(runs(sig.alphabet, 4)) for _ in range(2))
        assert (order_key(u, sig) < order_key(v, sig)) == \
            (reference_order_key(u, sig) < reference_order_key(v, sig))
        assert (order_key(u, sig) == order_key(v, sig)) == (u == v)
        assert word_weight(u, sig) == reference_order_key(u, sig)[0]

    @pytest.mark.parametrize("n, word, letter", [
        (3, "HSQ", "Q"), (3, "HTY", "T"), (2, "YSH", "S"), (5, "QT", "Q")])
    def test_order_key_refuses_a_foreign_letter(self, n, word, letter):
        # the first letter outside the alphabet, as the weight sum named it
        sig = signature(n)
        message = f"letter {letter!r} not in alphabet {sig.alphabet}"
        with pytest.raises(AlphabetError, match=f"^{re.escape(message)}$"):
            order_key(word, sig)


class TestChecks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_filtration_and_reversal(self, n):
        rs = completed(n)
        assert filtration_check(rs).passed
        assert anti_automorphism_check(rs).passed

    def test_filtration_flags_level_raising_rules(self):
        bad = RewriteSystem(sig=signature(2),
                            rules=(RewriteRule("HH", poly("Y")),))
        report = filtration_check(bad)
        assert not report.passed
        assert any(not item.passed for item in report.items)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_heredity(self, n):
        report = heredity_check(completed(n + 1))
        assert report.passed, "\n".join(report.lines())
        assert report.title == f"inclusion transport (n={n} into n={n + 1})"

    def test_heredity_refuses_bad_targets(self):
        with pytest.raises(ValueError, match="requires a completed system"):
            heredity_check(orient(signature(2)))
        with pytest.raises(ValueError, match="presentations for n and n"):
            heredity_check(completed(1))


class TestHilbertAndCompare:
    def test_odd_case_matches_homology(self):
        for n in (1, 3):
            report = target_report(completed(n), 40)
            assert report.is_match, "\n".join(report.lines())

    def test_even_case_first_discrepancies(self):
        report = target_report(completed(2), 40)
        assert not report.is_match
        assert report.total_mismatches[0] == (0, 2, 1)
        assert report.cell_mismatches[:4] == (
            (0, 1, 1, 0), (2, 1, 2, 1), (2, 2, 1, 0), (4, 2, 2, 1))

    def test_uncompleted_system_is_refused(self):
        with pytest.raises(ValueError, match="requires a completed system"):
            hilbert(orient(signature(3)), 40)

    def test_system_missing_a_defining_left_side_is_refused(self):
        # the normal shape is proved for systems that reduce every
        # defining left side; this completed system leaves TH
        # irreducible, and every word count refuses it alike
        rs = complete(RewriteSystem(sig=signature(2),
                                    rules=(RewriteRule("HH", ZERO),)))
        for count in (lambda: hilbert(rs, 10),
                      lambda: rewriting._degree_words(rs, 0)):
            with pytest.raises(ValueError, match="reduces the defining left"):
                count()

    @pytest.mark.parametrize("n, weight", [
        (3, {"H": 1, "S": 1, "Y": 3}),
        (2, {"H": 2, "T": 1, "Y": 5}),
        (5, {"H": 1, "S": 7, "Y": 2}),
        (1, {"H": 3, "S": 5, "Y": 1})])
    def test_other_weights_count_what_the_default_counts(self, n, weight):
        # the irreducible words, hence the table, do not depend on the
        # weights
        sig = dataclasses.replace(signature(n), weight=weight)
        assert hilbert(complete(orient(sig)), 60) == hilbert(completed(n), 60)

    def test_compare_rejects_mixed_periods(self):
        # the one degree bound is compare's argument; series of two
        # periods have no common class walk
        a = BigradedSeries.from_terms([((0, 0), 1)], 2)
        b = BigradedSeries.from_terms([((0, 0), 1)], 3)
        with pytest.raises(ValueError, match="periods differ: 2 vs 3"):
            compare(a, b, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           st.integers(-2, 3), max_size=12),
           st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           st.integers(-2, 3), max_size=12),
           st.sampled_from(["drawn", "equal", "one value changed"]),
           st.integers(1, 4), st.integers(0, 14))
    @example({(0, 0): 1, (2, 1): 2}, {(0, 0): 1, (3, 2): 1}, "drawn", 2, 6)
    @example({(0, 0): 1, (2, 1): 2}, {(0, 0): 2, (2, 1): 2}, "drawn", 2, 6)
    # numerators that differ only past the bound
    @example({(0, 0): 1}, {(0, 0): 1, (5, 0): 1}, "drawn", 1, 4)
    # a difference that cancels further along its class
    @example({(0, 0): 1, (2, 1): -1}, {}, "drawn", 2, 6)
    def test_compare_is_the_set_based_reference(self, a, b, how, period, D):
        # cells in one expansion only, differing values, cancelling
        # terms, and equal series
        if how == "equal":
            b = dict(a)
        elif how == "one value changed" and a:
            b = dict(a)
            key = min(a)
            b[key] = a[key] % 3 + 1
        alg = BigradedSeries.from_terms(a.items(), period)
        hom = BigradedSeries.from_terms(b.items(), period)
        report = compare(alg, hom, D)
        assert report == reference_compare(alg.expand(D), hom.expand(D))

    def test_hilbert_level_zero_column(self):
        rs = completed(4)
        table = hilbert(rs, 12)
        # level 0 is spanned by the powers of the degree-lowering letter
        assert [table.get(d, 0) for d in range(5)] == [1, 1, 1, 1, 1]
        assert table.get(5, 0) == 0


# degree bounds at which the series comparison must give the table
# comparison's report: small ones, the default, multiples of n around
# the period, and the bench's deep bounds
def series_bounds(n: int) -> list[int]:
    return sorted({0, 1, 2, 3, 5, 8, 13, 40, n, 2 * n, 3 * n + 1, 560, 840})


def table_report(rs: RewriteSystem, degree_bound: int) -> ComparisonReport:
    """reference_compare of rs's table with the mod-2 target table."""
    n = rs.sig.n
    return reference_compare(hilbert(rs, degree_bound),
                             target_table(n, degree_bound))


class TestSeries:
    @pytest.mark.parametrize("n", range(1, 42))
    def test_compare_is_the_table_comparison(self, n):
        rs = completed(n)
        for D in series_bounds(n):
            report, want = target_report(rs, D), table_report(rs, D)
            assert report == want, (n, D)
            assert report.lines() == want.lines()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 200))
    def test_compare_is_the_table_comparison_on_repaired_systems(self, n, D):
        for rs in repaired(n):
            assert target_report(rs, D) == table_report(rs, D)

    @pytest.mark.parametrize("n, D", [*((n, 40) for n in range(1, 13)),
                                      *((n, 840) for n in range(1, 7))])
    def test_expansion_is_the_word_count(self, n, D):
        # the base system and, for even n, both repairs
        for rs in repaired(n):
            assert hilbert_series(rs).expand(D) == reference_hilbert(rs, D)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_even_difference_is_one_term(self, n):
        # alg - hom = y (1 + x^n) / (1 - x^n y): the classes H^nT Y^b
        # and H^nY^(b+1), and no other
        diff = dict(hilbert_series(completed(n)).numerator)
        for cell, c in path_space_series(n).numerator:
            diff[cell] = diff.get(cell, 0) - c
        assert {cell: c for cell, c in diff.items() if c} == \
            {(0, 1): 1, (n, 1): 1}

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_each_repair_removes_the_difference(self, n):
        found, h = repairs(n), "H" * n
        assert [a.render() for a in found] == [
            f"{{{h}T -> 0, {h}Y -> 0}}", f"{{{h}T -> {h}, {h}Y -> 0}}"]
        for aug in found:
            assert hilbert_series(aug.system) == path_space_series(n)

    def test_odd_series_agree_in_every_degree(self):
        for n in range(1, 42, 2):
            assert hilbert_series(completed(n)) == path_space_series(n)
        assert target_report(completed(3), 10 ** 9).is_match

    def test_a_walk_is_bounded_by_degree_only(self):
        # H^nT sits at cell (0, 1), above level D = 0
        report = target_report(completed(2), 0)
        assert report.cell_mismatches == ((0, 1, 1, 0),)
        assert report.total_mismatches == ((0, 2, 1),)

    def test_refusals(self):
        with pytest.raises(ValueError, match="requires a completed system"):
            hilbert_series(orient(signature(3)))
        # a completed system that leaves TH irreducible
        rs = complete(RewriteSystem(sig=signature(2),
                                    rules=(RewriteRule("HH", ZERO),)))
        with pytest.raises(ValueError, match="reduces the defining left"):
            hilbert_series(rs)
        series = hilbert_series(completed(2))
        for call in (lambda: series.expand(-1),
                     lambda: compare(series, path_space_series(2), -1)):
            with pytest.raises(ValueError,
                               match="degree bound must be nonnegative"):
                call()


def change_a_base_rule(monkeypatch):
    """Make each resumed completion return TT -> 0 for n = 2's base rule
    TT -> T: the Hilbert series reads left sides only, so a match stays
    a match but no longer holds every base rule."""
    real = rewriting.complete

    def changing(rs, extra=()):
        out = real(rs, extra)
        if not extra:
            return out
        rules = tuple(RewriteRule("TT", ZERO) if r.lhs == "TT" else r
                      for r in out.rules)
        return dataclasses.replace(out, rules=rules)

    monkeypatch.setattr(rewriting, "complete", changing)


def collapse_candidates(monkeypatch, which):
    """Make each resumed completion whose candidate rule passes which
    raise CompletionError; returns the renders of those rules."""
    real, tried = rewriting.complete, []

    def collapsing(rs, extra=()):
        if extra and which(extra[0]):
            tried.append(extra[0].render())
            raise CompletionError(extra[0].lhs)
        return real(rs, extra)

    monkeypatch.setattr(rewriting, "complete", collapsing)
    return tried


@pytest.mark.parametrize("call, error, message", [
    # no rule matches a letter outside the alphabet, so a normal form
    # would return the word unchanged
    (lambda mp: normal_form("SQ", completed(3)), AlphabetError,
     "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda mp: normal_form("HHTY", completed(3)), AlphabetError,
     "letter 'T' not in alphabet ('H', 'S', 'Y')"),
    (lambda mp: normal_form(poly("HS", "SQ"), completed(3)), AlphabetError,
     "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda mp: complete(completed(3), (RewriteRule("QH", ZERO),)),
     AlphabetError, "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda mp: complete(completed(3), (RewriteRule("HS", poly("Q")),)),
     AlphabetError, "letter 'Q' not in alphabet ('H', 'S', 'Y')"),
    (lambda mp: (collapse_candidates(mp, lambda rule: True),
                 repairs(2)), RepairError,
     "no confluent, filtration-compatible augmentation matches the table; "
     "first unrepairable degree: 0"),
    # every search path ends in a match, so no degree is unrepairable
    (lambda mp: (mp.setattr(rewriting, "filtration_check",
                            lambda rs: CheckReport("doctored", (
                                CheckItem("every rule", False),))),
                 repairs(2)), RepairError,
     "no confluent, filtration-compatible augmentation matches the table; "
     "the filtration rejected 2 matching augmentation(s); 0 more lost a "
     "base rule"),
    (lambda mp: (change_a_base_rule(mp), repairs(2)), RepairError,
     "no confluent, filtration-compatible augmentation matches the table; "
     "the filtration rejected 0 matching augmentation(s); 2 more lost a "
     "base rule"),
])
def test_refusals_keep_their_types_and_messages(monkeypatch, call, error,
                                                message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(monkeypatch)
    assert type(info.value) is error


class TestRepairSearch:
    def test_even_candidates(self):
        found = repairs(2)
        renders = sorted(a.render() for a in found)
        assert renders == ["{HHT -> 0, HHY -> 0}", "{HHT -> HH, HHY -> 0}"]
        for aug in found:
            assert target_report(aug.system, 20).is_match
            assert filtration_check(aug.system).passed

    def test_repaired_systems_extend_to_the_full_bound(self):
        found = repairs(2)
        for aug in found:
            assert hilbert_series(aug.system) == path_space_series(2)
            assert target_report(aug.system, 10 ** 9).is_match

    def test_search_needs_a_completed_base(self):
        with pytest.raises(ValueError, match="requires a completed system"):
            repair_search(orient(signature(2)), path_space_series(2))

    def test_a_candidate_that_collapses_is_skipped(self, monkeypatch):
        tried = collapse_candidates(monkeypatch, lambda rule: not rule.rhs)
        found = repairs(2)
        assert tried == ["HHT -> 0"]
        assert [a.render() for a in found] == ["{HHT -> HH, HHY -> 0}"]

    def test_matching_presentation_is_rejected(self):
        with pytest.raises(ValueError, match="already matches"):
            repairs(3)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pools_are_the_smaller_words_of_the_cell(self, n):
        # repair_search takes a left side's right-side pool from the
        # words listed before it; that must be every irreducible word of
        # equal degree, level at most the left side's and strictly below
        # it, as an independent walk to the left side's weight finds
        base = completed(n)
        surplus = [(d, l) for d, l, a, h in
                   target_report(base, 40).cell_mismatches if a > h]
        assert surplus
        for rs in (base, *(a.system for a in repairs(n))):
            def key(w):
                return order_key(w, rs.sig)
            for degree, level in surplus:
                words = rewriting._degree_words(rs, degree)
                for i, (lhs, lv) in enumerate(words):
                    if lv != level:
                        continue
                    pool = [w for w, l in words[:i] if l <= level]
                    want = [w for w, d, l in graded_reference_walk(
                                rs, word_weight(lhs, rs.sig))
                            if d == degree and l <= word_level(lhs)
                            and w != lhs and key(w) < key(lhs)]
                    assert pool == sorted(want, key=key), lhs

    @pytest.mark.parametrize("n", range(1, 21))
    def test_a_degree_has_at_most_four_words(self, n):
        # so a repair pool holds at most three words (see _degree_words)
        for rs in repaired(n):
            assert max(len(rewriting._degree_words(rs, d))
                       for d in range(200)) <= 4

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_one_bound_reading_per_surplus_degree(self, monkeypatch, n):
        # the exponent bounds are read once for each system's series,
        # base and the two repaired systems, and once more for base,
        # whose surplus degree lists the left sides and pools
        base = completed(n)
        real = rewriting._exponent_bounds
        calls = []

        def counting(rs):
            calls.append(rs)
            return real(rs)

        monkeypatch.setattr(rewriting, "_exponent_bounds", counting)
        assert len(repair_search(base, path_space_series(n))) == 2
        assert len(calls) == 4
        assert calls[:2] == [base, base]

    @pytest.mark.parametrize("n, D", [
        *((n, 40) for n in range(2, 21, 2)),
        *((n, D) for n in (2, 4, 6)
          for D in (0, 1, 2, 3, 5, 8, 13, 560, 840)),
        (2, 10_000)])
    def test_reached_series_compare_as_their_tables(self, monkeypatch, n,
                                                    D):
        # the search judges every system it reaches by its series; cut
        # at D, that comparison is the one its full table gives
        hom = target_table(n, D)
        base, target = completed(n), path_space_series(n)
        real = rewriting.complete
        reached = []

        def recording(rs, extra=()):
            reached.append(real(rs, extra))
            return reached[-1]

        monkeypatch.setattr(rewriting, "complete", recording)
        assert repair_search(base, target)
        assert reached
        for rs in (base, *reached):
            assert compare(hilbert_series(rs), target, D) == \
                reference_compare(hilbert(rs, D), hom)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_reached_systems_keep_the_normal_shape(self, monkeypatch, n):
        # each system the search reaches is checked for its series, base
        # twice (its surplus degree's words too); each extends base, so
        # it reduces every defining left side and the check never refuses
        base = completed(n)
        real, check = rewriting.complete, rewriting._exponent_bounds
        reached, checked = [], []

        def recording(rs, extra=()):
            reached.append(real(rs, extra))
            return reached[-1]

        def counting(rs):
            checked.append(rs)
            return check(rs)

        monkeypatch.setattr(rewriting, "complete", recording)
        monkeypatch.setattr(rewriting, "_exponent_bounds", counting)
        assert repair_search(base, path_space_series(n))
        assert reached
        assert checked == [base, base, *reached]
        for rs in reached:
            assert len(check(rs)) == 2 * (n + 1)

    def test_unexpected_completion_failures_propagate(self, monkeypatch):
        # only CompletionError means "candidate rejected"; any other
        # failure of a completion inside the search must surface
        base, target = completed(2), path_space_series(2)
        real = rewriting.complete
        calls = []

        def counting(rs, extra=()):
            calls.append(rs)
            return real(rs, extra)

        monkeypatch.setattr(rewriting, "complete", counting)
        repair_search(base, target)
        assert len(calls) == 2  # one per candidate rule
        for k in range(len(calls)):
            seen = []

            def failing(rs, extra=()):
                seen.append(rs)
                if len(seen) == k + 1:
                    raise RuntimeError("injected")
                return real(rs, extra)

            monkeypatch.setattr(rewriting, "complete", failing)
            with pytest.raises(RuntimeError, match="injected"):
                repair_search(base, target)

    @pytest.mark.parametrize("cap", ["_DEPTH_CAP"])
    def test_caps_raise_instead_of_truncating(self, monkeypatch, cap):
        # at n = 2 the search adds one rule, so a cap of 0 is the first
        # value that would cut work
        monkeypatch.setattr(rewriting, cap, 0)
        with pytest.raises(SearchCapError) as info:
            repairs(2)
        assert (info.value.cap, info.value.limit) == (cap, 0)
        assert info.value.cell == (0, 1)
        assert isinstance(info.value, RuntimeError)
        assert not isinstance(info.value, RepairError)
        monkeypatch.setattr(rewriting, cap, 1)
        assert len(repairs(2)) == 2

    def test_unreachable_target_raises(self, monkeypatch):
        # seven more words at (0, 3) than base holds there: a shortfall
        # no added rule can fill, so base is a dead end and no candidate
        # is tried
        target = BigradedSeries.from_terms(
            [*path_space_series(2).numerator, ((0, 3), 7)], 2)
        base, calls = completed(2), []
        monkeypatch.setattr(rewriting, "complete",
                            lambda *args: calls.append(args))
        with pytest.raises(RepairError, match="unrepairable degree: 0$"):
            repair_search(base, target)
        assert calls == []


# ---------------------------------------------------------------------------
# What verify can tell apart


def verify_parts(n: int):
    """What verify reports for the presentation of n, part by part: None
    when completion fails, else the failing items of each check, the
    D = 40 comparison lines and, for even n with a mismatch, the
    renders of the repairs (or "none")."""
    try:
        rs = completed(n)
    except CompletionError:
        return None
    checks = {"filtration": filtration_check(rs),
              "reversal": anti_automorphism_check(rs)}
    if n >= 2:
        checks["heredity"] = heredity_check(rs)
    parts = {name: [item.name for item in report.items if not item.passed]
             for name, report in checks.items()}
    comparison = target_report(rs, 40)
    parts["table"] = comparison.lines()
    parts["repairs"] = None
    if not comparison.is_match and n % 2 == 0:
        try:
            parts["repairs"] = [a.render() for a in
                                repair_search(rs, path_space_series(n))]
        except RepairError:
            parts["repairs"] = "none"
    return parts


def one_word_mutants(n: int):
    """(relations, mutated rule): the defining relations of n with one
    word toggled in one right side, for every irreducible word of the
    base system of that relation's degree below its left side."""
    sig, rels, base = signature(n), defining_relations(n), completed(n)
    for i, rel in enumerate(rels):
        for w, _ in rewriting._degree_words(
                base, unshifted_degree(rel.lhs, sig)):
            if order_key(w, sig) < order_key(rel.lhs, sig):
                rule = RewriteRule(rel.lhs, rel.rhs ^ {w})
                yield rels[:i] + (rule,) + rels[i + 1:], rule


def at(ns, rule) -> set:
    """The labels "n=<n> <rule>" at each n of ns; rule may be a
    function of n."""
    return {f"n={n} {rule(n) if callable(rule) else rule}" for n in ns}


ODD, EVEN = range(1, 17, 2), range(2, 17, 2)
ONE_MOD_4 = (1, 5, 9, 13)  # YS = SY + H^(n-1)YY there


def h(k: int) -> str:
    return "H" * k


# every one-word mutant for n = 1..16, by what verify makes of it: the
# parts of its output that differ from the presentation's.  The blind
# ones verify cannot tell from the presentation; no mutant changes the
# filtration check, since no word of a left side's degree below it has
# a higher level
VERIFY_MUTANTS = {
    "completion fails": at(ODD, "SH -> 1"),
    "blind": ({"n=1 SH -> HS", "n=1 YH -> 1 + HY", "n=1 SS -> YY"}
              | at(ONE_MOD_4, "YS -> SY") | at(EVEN, "YT -> TY")),
    ("reversal",): at(EVEN, "YH -> 0"),
    ("heredity",): at(EVEN, "TH -> HT") | at(range(3, 17, 2), "SH -> HS"),
    ("table",): ({"n=1 SH -> 1 + HS + HY", "n=1 SS -> HYYY"}
                 | at(ODD, "YH -> 0") | at(range(3, 17, 4), "YS -> 0")
                 | at(ONE_MOD_4, lambda n: f"YS -> {h(n - 1)}YY")
                 | at(ONE_MOD_4, lambda n: f"SS -> {h(n - 1)}SY")
                 | at((3, 5, 9, 13), lambda n: f"SS -> {h(n - 2)}Y")
                 | at((5, 9, 13), lambda n: f"SH -> 1 + {h(n)}Y + HS")),
    ("repairs",): at(EVEN, "TT -> 1 + T"),
    ("table", "repairs"): at(EVEN, "TT -> 0"),
    ("reversal", "table", "repairs"): at(EVEN, "YT -> Y"),
    ("reversal", "heredity", "table", "repairs"): at(EVEN, "TH -> H"),
}


def test_verify_tells_apart_all_but_the_blind_mutants(monkeypatch):
    outcomes = defaultdict(set)
    for n in range(1, 17):
        want = verify_parts(n)
        for rels, rule in one_word_mutants(n):
            with monkeypatch.context() as m:
                m.setattr(rewriting, "defining_relations", lambda _: rels)
                got = verify_parts(n)
            caught = ("completion fails" if got is None else
                      tuple(p for p in want if got[p] != want[p]) or "blind")
            outcomes[caught].add(f"n={n} {rule.render()}")
    assert dict(outcomes) == VERIFY_MUTANTS
    assert sum(map(len, VERIFY_MUTANTS.values())) == 107
    assert len(VERIFY_MUTANTS["blind"]) == 15
