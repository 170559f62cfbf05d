"""Rewriting engine: orientation, completion, normal forms, comparison,
repair search.  The expected rule tables below were derived by hand from
the defining relations and are frozen as oracles."""

import dataclasses
import functools
import itertools
import math
import re
from collections import defaultdict

import pytest
from hypothesis import example, given, settings, strategies as st

from pathalg import rewriting
from pathalg.algebra import (
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
    apply_rule,
    compare,
    complete,
    filtration_check,
    heredity_check,
    hilbert,
    normal_form,
    orient,
    repair_search,
)
from pathalg.homology import COEFF_F2, path_space_homology
from pathalg.tables import BigradedTable


def completed(n: int) -> RewriteSystem:
    return complete(orient(signature(n)))


def repairs(n: int, degree_bound: int):
    """repair_search for n against the mod-2 target up to degree_bound."""
    return search(completed(n), path_space_homology(n, COEFF_F2, degree_bound))


def search(rs: RewriteSystem, hom: BigradedTable):
    """repair_search for the completed rs against hom, given rs's table."""
    return repair_search(rs, compare(hilbert(rs, hom.degree_bound), hom))


@functools.lru_cache(maxsize=None)
def repaired(n: int) -> tuple[RewriteSystem, ...]:
    """The completed system for n, then for even n both repairs."""
    found = repairs(n, 40) if n % 2 == 0 else ()
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


def reference_compare(alg: BigradedTable,
                      hom: BigradedTable) -> ComparisonReport:
    """compare by sets of every entry of both tables and every degree
    total up to the bound."""
    ea, eh = set(alg.entries), set(hom.entries)
    a, h = dict(ea - eh), dict(eh - ea)
    cells = sorted((d, l, a.get((d, l), 0), h.get((d, l), 0))
                   for d, l in a.keys() | h.keys())
    ta, th = alg.degree_totals, hom.degree_totals
    totals = [(d, ta[d], th[d]) for d in range(alg.degree_bound + 1)
              if ta[d] != th[d]]
    return ComparisonReport(alg.degree_bound, tuple(cells), tuple(totals))


def reference_excess(rs: RewriteSystem, hom: BigradedTable) -> dict:
    """presentation - hom on every differing cell, from rs's full
    table."""
    report = reference_compare(hilbert(rs, hom.degree_bound), hom)
    return {(d, l): a - h for d, l, a, h in report.cell_mismatches}


def bound_excess(rs: RewriteSystem, base: RewriteSystem,
                 hom: BigradedTable) -> dict:
    """repair_search's excess of rs, read off its exponent bounds
    against base's and base's reference excess."""
    return rewriting._bound_excess(
        reference_excess(base, hom), rewriting._exponent_bounds(base),
        rewriting._exponent_bounds(rs), base.sig, hom.degree_bound)


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
        found = repairs(n, 40)
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
        search(base, path_space_homology(n, COEFF_F2, 40))
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
    def test_walk_matches_the_recursive_reference(self, n):
        rs = completed(n)
        assert hilbert(rs, 60) == reference_hilbert(rs, 60)

    @pytest.mark.parametrize("n", [2, 4])
    def test_walk_matches_the_reference_on_repaired_systems(self, n):
        found = repairs(n, 20)
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
        table = hilbert(rs, 10_000)
        hom = path_space_homology(1, COEFF_F2, 10_000)
        assert compare(table, hom).is_match

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

    assert rewriting._exponent_bounds(rs) == {
        (a, e): first_reducible(a, e) for a in range(n + 1) for e in (0, 1)}


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
def test_bound_excess_of_an_extension_of_an_extension(drawn, D):
    # the excess moves from any completed system to any that extends
    # it, finite bounds included: base plus the first rule, then plus
    # both
    base, extra = drawn
    try:
        mid = complete(base, extra[:1])
        rs = complete(base, extra)
    except CompletionError:
        return
    hom = path_space_homology(base.sig.n, COEFF_F2, D)
    assert bound_excess(rs, mid, hom) == reference_excess(rs, hom)


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


def linear_leftmost_match(word, rules):
    """Reference: every rule tried at every position, in tuple order."""
    for i in range(len(word)):
        for rule in rules:
            if word.startswith(rule.lhs, i):
                return i, rule
    return None


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="HSY", min_size=0, max_size=8),
       st.sampled_from([("HS", "HSY"), ("HSY", "HS"), ("SY", "Y", "HSYH"),
                        ("YS", "S", "", "SH")]))
def test_bucketed_match_is_the_linear_scan(word, lhss):
    # the tuples are not inter-reduced: one left side may be a prefix or
    # a factor of another, so two can match at the same position
    rules = tuple(RewriteRule(l, ZERO) for l in lhss)
    assert rewriting._leftmost_match(word, rules) == \
        linear_leftmost_match(word, rules)


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


@settings(max_examples=300, deadline=None)
@given(runs("HTY", 25), st.lists(left_sides, min_size=1, max_size=6))
def test_find_match_is_the_linear_scan_on_long_runs(word, lhss):
    rules = tuple(RewriteRule(l, ZERO) for l in lhss)
    assert rewriting._leftmost_match(word, rules) == \
        linear_leftmost_match(word, rules)


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
            rs = completed(n)
            alg = hilbert(rs, 40)
            hom = path_space_homology(n, COEFF_F2, 40)
            report = compare(alg, hom)
            assert report.is_match, "\n".join(report.lines())

    def test_even_case_first_discrepancies(self):
        rs = completed(2)
        report = compare(hilbert(rs, 40), path_space_homology(2, COEFF_F2, 40))
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

    def test_compare_rejects_mixed_bounds(self):
        a = BigradedTable.from_dict({(0, 0): 1}, 5)
        b = BigradedTable.from_dict({(0, 0): 1}, 6)
        with pytest.raises(ValueError):
            compare(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           st.integers(0, 3), max_size=12),
           st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                           st.integers(0, 3), max_size=12),
           st.sampled_from(["drawn", "equal", "one value changed"]))
    @example({(0, 0): 1, (2, 1): 2}, {(0, 0): 1, (3, 2): 1}, "drawn")
    @example({(0, 0): 1, (2, 1): 2}, {(0, 0): 2, (2, 1): 2}, "drawn")
    def test_compare_is_the_set_based_reference(self, a, b, how):
        # cells in one table only, differing values, and equal tables
        if how == "equal":
            b = dict(a)
        elif how == "one value changed" and a:
            b = dict(a)
            key = min(a)
            b[key] = a[key] % 3 + 1
        alg, hom = BigradedTable.from_dict(a, 6), BigradedTable.from_dict(b, 6)
        assert compare(alg, hom) == reference_compare(alg, hom)

    def test_hilbert_level_zero_column(self):
        rs = completed(4)
        table = hilbert(rs, 12)
        # level 0 is spanned by the powers of the degree-lowering letter
        assert [table.get(d, 0) for d in range(5)] == [1, 1, 1, 1, 1]
        assert table.get(5, 0) == 0


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
    (lambda mp: apply_rule("HSH", RewriteRule("SH", ONE), 0), ValueError,
     "'SH' does not occur in 'HSH' at 0"),
    (lambda mp: apply_rule("SH", RewriteRule("SH", ONE), 1), ValueError,
     "'SH' does not occur in 'SH' at 1"),
    (lambda mp: (collapse_candidates(mp, lambda rule: True),
                 repairs(2, 40)), RepairError,
     "no confluent, filtration-compatible augmentation matches the table; "
     "first unrepairable degree: 0"),
])
def test_refusals_keep_their_types_and_messages(monkeypatch, call, error,
                                                message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(monkeypatch)
    assert type(info.value) is error


class TestRepairSearch:
    def test_even_candidates(self):
        hom = path_space_homology(2, COEFF_F2, 20)
        found = search(completed(2), hom)
        renders = sorted(a.render() for a in found)
        assert renders == ["{HHT -> 0, HHY -> 0}", "{HHT -> HH, HHY -> 0}"]
        for aug in found:
            assert compare(hilbert(aug.system, 20), hom).is_match
            assert filtration_check(aug.system).passed

    def test_repaired_systems_extend_to_the_full_bound(self):
        found = repairs(2, 40)
        assert {a.render() for a in found} == {
            "{HHT -> 0, HHY -> 0}", "{HHT -> HH, HHY -> 0}"}

    def test_search_needs_a_completed_base(self):
        rs = completed(2)
        hom = path_space_homology(2, COEFF_F2, 20)
        with pytest.raises(ValueError, match="requires a completed system"):
            repair_search(orient(signature(2)), compare(hilbert(rs, 20), hom))

    def test_a_candidate_that_collapses_is_skipped(self, monkeypatch):
        tried = collapse_candidates(monkeypatch, lambda rule: not rule.rhs)
        found = repairs(2, 40)
        assert tried == ["HHT -> 0"]
        assert [a.render() for a in found] == ["{HHT -> HH, HHY -> 0}"]

    def test_matching_presentation_is_rejected(self):
        hom = path_space_homology(3, COEFF_F2, 20)
        with pytest.raises(ValueError):
            search(completed(3), hom)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_pools_are_the_smaller_words_of_the_cell(self, n):
        # repair_search takes a left side's right-side pool from the
        # words listed before it; that must be every irreducible word of
        # equal degree, level at most the left side's and strictly below
        # it, as an independent walk to the left side's weight finds
        D = 40
        hom = path_space_homology(n, COEFF_F2, D)
        base = completed(n)
        surplus = [(d, l) for d, l, a, h in
                   compare(hilbert(base, D), hom).cell_mismatches if a > h]
        assert surplus
        for rs in (base, *(a.system for a in search(base, hom))):
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
        # the exponent bounds are read once for base, which also lists
        # the surplus degree's left sides and pools, and once for each
        # of the two repaired systems, whose excess they give
        hom = path_space_homology(n, COEFF_F2, 40)
        base = completed(n)
        alg = hilbert(base, 40)
        real = rewriting._exponent_bounds
        calls = []

        def counting(rs):
            calls.append(rs)
            return real(rs)

        monkeypatch.setattr(rewriting, "_exponent_bounds", counting)
        assert len(repair_search(base, compare(alg, hom))) == 2
        assert len(calls) == 3

    @pytest.mark.parametrize("n, D", [
        *((n, 40) for n in range(2, 21, 2)),
        *((n, D) for n in (2, 4, 6)
          for D in (0, 1, 2, 3, 5, 8, 13, 560, 840)),
        (2, 10_000)])
    def test_bound_excess_is_the_counted_excess(self, monkeypatch, n, D):
        # every system the search reaches extends base, and its excess
        # read off the exponent bounds is the one its full table gives
        hom = path_space_homology(n, COEFF_F2, D)
        base = completed(n)
        real = rewriting.complete
        reached = []

        def recording(rs, extra=()):
            reached.append(real(rs, extra))
            return reached[-1]

        monkeypatch.setattr(rewriting, "complete", recording)
        assert search(base, hom)
        assert reached
        for rs in reached:
            assert bound_excess(rs, base, hom) == reference_excess(rs, hom)

    @pytest.mark.parametrize("n, D", [
        *((n, 40) for n in range(2, 21, 2)), *((n, 840) for n in (2, 4, 6))])
    def test_reached_systems_keep_the_normal_shape(self, monkeypatch, n, D):
        # the search checks base only: each system it reaches reduces
        # every defining left side too, so checking it would never refuse
        hom = path_space_homology(n, COEFF_F2, D)
        base = completed(n)
        comparison = compare(hilbert(base, D), hom)
        real, check = rewriting.complete, rewriting._check_normal_shape
        reached, checked = [], []

        def recording(rs, extra=()):
            reached.append(real(rs, extra))
            return reached[-1]

        def counting(rs):
            checked.append(rs)
            return check(rs)

        monkeypatch.setattr(rewriting, "complete", recording)
        monkeypatch.setattr(rewriting, "_check_normal_shape", counting)
        assert repair_search(base, comparison)
        assert checked == [base]
        assert reached
        for rs in reached:
            assert check(rs) is rs

    def test_a_bound_above_the_base_is_refused(self, monkeypatch):
        # a doctored reading of base lowers one bound, so every system
        # the search reaches seems to lift it: refused, naming the pair
        hom = path_space_homology(2, COEFF_F2, 20)
        base = completed(2)
        comparison = compare(hilbert(base, 20), hom)
        real = rewriting._exponent_bounds

        def doctored(rs):
            bounds = real(rs)
            if rs is base:
                bounds[0, 0] = 0
            return bounds

        monkeypatch.setattr(rewriting, "_exponent_bounds", doctored)
        with pytest.raises(ValueError, match=r"pair \(0, 0\) above"):
            repair_search(base, comparison)

    def test_unexpected_completion_failures_propagate(self, monkeypatch):
        # only CompletionError means "candidate rejected"; any other
        # failure of a completion inside the search must surface
        hom = path_space_homology(2, COEFF_F2, 20)
        base = completed(2)
        real = rewriting.complete
        calls = []

        def counting(rs, extra=()):
            calls.append(rs)
            return real(rs, extra)

        monkeypatch.setattr(rewriting, "complete", counting)
        search(base, hom)
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
                search(base, hom)

    @pytest.mark.parametrize("cap", ["_DEPTH_CAP"])
    def test_caps_raise_instead_of_truncating(self, monkeypatch, cap):
        # at n = 2 the search adds one rule, so a cap of 0 is the first
        # value that would cut work
        hom = path_space_homology(2, COEFF_F2, 20)
        monkeypatch.setattr(rewriting, cap, 0)
        with pytest.raises(SearchCapError) as info:
            search(completed(2), hom)
        assert (info.value.cap, info.value.limit) == (cap, 0)
        assert info.value.cell == (0, 1)
        assert isinstance(info.value, RuntimeError)
        assert not isinstance(info.value, RepairError)
        monkeypatch.setattr(rewriting, cap, 1)
        assert len(search(completed(2), hom)) == 2

    def test_unreachable_target_raises(self):
        hom = path_space_homology(2, COEFF_F2, 12)
        cells = dict(hom.cells)
        cells[(0, 3)] = 7
        target = BigradedTable.from_dict(cells, 12)
        with pytest.raises(RepairError):
            search(completed(2), target)
