"""Rewriting engine: orientation, completion, normal forms, comparison,
repair search.  The expected rule tables below were derived by hand from
the defining relations and are frozen as oracles."""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from pathalg import rewriting
from pathalg.algebra import (
    MonomialOrder,
    ONE,
    ZERO,
    default_order,
    poly,
    poly_mul,
    signature,
    unshifted_degree,
    word_level,
)
from pathalg.rewriting import (
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
    irreducible_words,
    normal_form,
    orient,
    repair_search,
    required_weight_bound,
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
    return repair_search(rs, hilbert(rs, hom.degree_bound), hom)


def recursive_irreducible_words(rs: RewriteSystem, max_weight: int):
    """Reference enumerator: the recursive depth-first extension that
    irreducible_words used before it became an iterative walk.  It
    recurses once per letter, so it only serves small weight bounds."""
    lhs_set = {r.lhs for r in rs.rules}
    maxlen = rs.max_lhs_len()
    weights = rs.order.weight_map
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


def reference_hilbert(rs: RewriteSystem, degree_bound: int) -> BigradedTable:
    """Hilbert counts with every word's gradings recomputed from its
    letters."""
    counts = {}
    walk = required_weight_bound(rs.sig, degree_bound)
    for w in recursive_irreducible_words(rs, walk):
        d = unshifted_degree(w, rs.sig)
        if 0 <= d <= degree_bound:
            key = (d, word_level(w))
            counts[key] = counts.get(key, 0) + 1
    return BigradedTable.from_dict(counts, degree_bound)


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
            order = rs.order
            for rule in rs.rules:
                for w in rule.rhs:
                    assert order.less(w, rule.lhs)

    def test_unit_weights_reject_the_exceptional_relation(self):
        # without the heavy middle letter the extra right-hand word of
        # the n = 1 mod 4 relation outweighs its left side
        flat = MonomialOrder(
            weights=(("H", 1), ("T", 1), ("S", 1), ("Y", 1)))
        with pytest.raises(OrderRejectedError):
            orient(signature(5), flat)

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

    def test_collapse_is_detected(self):
        # inverting the degree-raising middle letter forces 1 = 0
        sig = signature(1)
        rs = orient(sig)
        poisoned = RewriteSystem(
            sig=sig, order=rs.order,
            rules=rs.rules + (RewriteRule("S", ONE),))
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
            wt = rs.order.weight
            for rule in rs.rules:
                assert all(wt(w) <= wt(rule.lhs) for w in rule.rhs)


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
        assert set(irreducible_words(rs, 4)) == brute


class TestIrreducibleWords:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_walk_matches_the_recursive_reference(self, n):
        rs = completed(n)
        walk = required_weight_bound(rs.sig, 60)
        assert list(irreducible_words(rs, walk)) == \
            list(recursive_irreducible_words(rs, walk))
        assert hilbert(rs, 60) == reference_hilbert(rs, 60)

    @pytest.mark.parametrize("n", [2, 4])
    def test_walk_matches_the_reference_on_repaired_systems(self, n):
        found = repairs(n, 20)
        assert len(found) == 2
        for rs in (a.system for a in found):
            walk = required_weight_bound(rs.sig, 20)
            assert list(irreducible_words(rs, walk)) == \
                list(recursive_irreducible_words(rs, walk))
            assert hilbert(rs, 20) == reference_hilbert(rs, 20)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cell_lists_match_the_full_walk(self, n):
        # _degree_words walks only to the weight hilbert certifies for
        # the degree; every degree up to D, empty ones included, must
        # list exactly the full walk's words of that degree
        D = 120
        found = repairs(n, D)
        walk = required_weight_bound(signature(n), D)
        for rs in (completed(n), *(a.system for a in found)):
            degrees = defaultdict(list)
            for w, d, l in rewriting._graded_walk(rs, walk):
                degrees[d].append((w, l))
            for d in range(D + 1):
                assert rewriting._degree_words(rs, d) == sorted(
                    degrees[d], key=lambda wl: rs.order.sort_key(wl[0])), d

    def test_degree_bound_far_past_the_recursion_limit(self):
        # the recursive enumerator overflowed the interpreter stack at
        # D = 1000 for n = 1; the walk has no depth limit
        rs = completed(1)
        table = hilbert(rs, 10_000)
        hom = path_space_homology(1, COEFF_F2, 10_000)
        assert compare(table, hom).is_match


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


class TestChecks:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_filtration_and_reversal(self, n):
        rs = completed(n)
        assert filtration_check(rs).passed
        assert anti_automorphism_check(rs).passed

    def test_filtration_flags_level_raising_rules(self):
        sig = signature(2)
        order = default_order(sig)
        bad = RewriteSystem(sig=sig, order=order,
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
        assert report.first_total_mismatch == (0, 2, 1)
        assert report.cell_mismatches[:4] == (
            (0, 1, 1, 0), (2, 1, 2, 1), (2, 2, 1, 0), (4, 2, 2, 1))

    def test_uncompleted_system_is_refused(self):
        with pytest.raises(ValueError, match="requires a completed system"):
            hilbert(orient(signature(3)), 40)

    def test_compare_rejects_mixed_bounds(self):
        a = BigradedTable.from_dict({(0, 0): 1}, 5)
        b = BigradedTable.from_dict({(0, 0): 1}, 6)
        with pytest.raises(ValueError):
            compare(a, b)

    def test_hilbert_level_zero_column(self):
        rs = completed(4)
        table = hilbert(rs, 12)
        # level 0 is spanned by the powers of the degree-lowering letter
        assert [table.get(d, 0) for d in range(5)] == [1, 1, 1, 1, 1]
        assert table.get(5, 0) == 0


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

    def test_base_table_must_fit_the_target(self):
        rs = completed(2)
        hom = path_space_homology(2, COEFF_F2, 20)
        with pytest.raises(ValueError, match="different degree bounds"):
            repair_search(rs, hilbert(rs, 12), hom)
        with pytest.raises(ValueError, match="requires a completed system"):
            repair_search(orient(signature(2)), hilbert(rs, 20), hom)

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
            order = rs.order
            for degree, level in surplus:
                words = rewriting._degree_words(rs, degree)
                for i, (lhs, lv) in enumerate(words):
                    if lv != level:
                        continue
                    pool = [w for w, l in words[:i] if l <= level]
                    want = [w for w, d, l in rewriting._graded_walk(
                                rs, order.weight(lhs))
                            if d == degree and l <= word_level(lhs)
                            and w != lhs and order.less(w, lhs)]
                    assert pool == sorted(want, key=order.sort_key), lhs

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_one_walk_per_surplus_degree(self, monkeypatch, n):
        # one walk lists the surplus degree's left sides and pools, and
        # one hilbert count checks each of the two repaired systems
        hom = path_space_homology(n, COEFF_F2, 40)
        base = completed(n)
        alg = hilbert(base, 40)
        real = rewriting._graded_walk
        calls = []

        def counting(rs, max_weight):
            calls.append(max_weight)
            return real(rs, max_weight)

        monkeypatch.setattr(rewriting, "_graded_walk", counting)
        assert len(repair_search(base, alg, hom)) == 2
        assert len(calls) == 3

    def test_unexpected_completion_failures_propagate(self, monkeypatch):
        # only CompletionError means "candidate rejected"; any other
        # failure of a completion inside the search must surface
        hom = path_space_homology(2, COEFF_F2, 20)
        base = completed(2)
        real = rewriting.complete
        calls = []

        def counting(rs):
            calls.append(rs)
            return real(rs)

        monkeypatch.setattr(rewriting, "complete", counting)
        search(base, hom)
        assert len(calls) == 2  # one per candidate rule
        for k in range(len(calls)):
            seen = []

            def failing(rs):
                seen.append(rs)
                if len(seen) == k + 1:
                    raise RuntimeError("injected")
                return real(rs)

            monkeypatch.setattr(rewriting, "complete", failing)
            with pytest.raises(RuntimeError, match="injected"):
                search(base, hom)

    @pytest.mark.parametrize("cap", ["_POOL_CAP", "_DEPTH_CAP"])
    def test_caps_raise_instead_of_truncating(self, monkeypatch, cap):
        # at n = 2 the pool holds one word and the search adds one rule,
        # so a cap of 0 is the first value that would cut work
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
        cells = hom.as_dict()
        cells[(0, 3)] = 7
        target = BigradedTable.from_dict(cells, 12)
        with pytest.raises(RepairError):
            search(completed(2), target)
