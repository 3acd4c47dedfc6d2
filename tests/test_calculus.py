import itertools
import random
from dataclasses import replace

import pytest

from meetlogic import calculus
from meetlogic.calculus import (
    BuilderError,
    Calculus,
    Clft,
    Derivation,
    Fx,
    Hyp,
    Lft,
    Line,
    Rule,
    RuleApp,
    SearchBounds,
    _arg_key,
    _bucket_instances,
    _candidate_pool,
    _index,
    _instance_text,
    _join,
    _reconstruct,
    assemble_meet_calculus,
    bounded_proof_search,
    build_both_admissible_derivation,
    build_vacuous_side_derivation,
    check_derivation,
    embed_rule_application,
    freeze_subst,
    inherit_rule,
)
from meetlogic.combination import CombinedSignature, combine_signatures, embed, proj_embedded, project
from meetlogic.formats import serialize_derivation
from meetlogic.presets import godel_chain, harrop_rule, load_preset
from meetlogic.semantics import check_rule_soundness, entails, product_matrix
from meetlogic.syntax import (
    App,
    Var,
    apply_substitution,
    match_formula,
    max_schema_index,
    parse_formula,
    print_formula,
    variables_of,
)

from strategies import random_formula

CPL = load_preset("CPL")
CPL2 = load_preset("CPL")
CS = combine_signatures(CPL.signature, CPL2.signature)
MEET = assemble_meet_calculus(CPL.calculus, CPL2.calculus, CS)


def P(s):
    return parse_formula(s, CPL.signature)


def PM(s):
    return parse_formula(s, CS)


class TestChecker:
    def test_single_hyp_accept(self):
        d = Derivation((Line(P("xi1"), Hyp()),))
        assert check_derivation(d, CPL.calculus, hyps=[P("xi1")])

    def test_hyp_not_listed_rejected(self):
        d = Derivation((Line(P("xi1"), Hyp()),))
        v = check_derivation(d, CPL.calculus)
        assert not v and v.line == 1

    def test_lft_accept(self):
        psi = PM("<and.CPL1|or.CPL2>(xi1, xi2)")
        d = Derivation((
            Line(proj_embedded(psi, 1, CS), Hyp()),
            Line(proj_embedded(psi, 2, CS), Hyp()),
            Line(psi, Lft((1, 2))),
        ))
        hyps = [proj_embedded(psi, k, CS) for k in (1, 2)]
        assert check_derivation(d, MEET, hyps=hyps)

    def test_lft_wrong_citations_rejected(self):
        psi = PM("<and.CPL1|or.CPL2>(xi1, xi2)")
        d = Derivation((
            Line(proj_embedded(psi, 1, CS), Hyp()),
            Line(proj_embedded(psi, 1, CS), Hyp()),
            Line(psi, Lft((1, 2))),
        ))
        v = check_derivation(d, MEET, hyps=[proj_embedded(psi, 1, CS)])
        assert not v and v.line == 3

    def test_rule_app_with_witness(self):
        d = Derivation((
            Line(P("xi1"), Hyp()),
            Line(P("xi1 -> xi2"), Hyp()),
            Line(P("xi2"), RuleApp("mp", (1, 2), freeze_subst({1: Var(1), 2: Var(2)}))),
        ))
        assert check_derivation(d, CPL.calculus, hyps=[P("xi1"), P("xi1 -> xi2")])

    def test_wrong_witness_rejected(self):
        d = Derivation((
            Line(P("xi1"), Hyp()),
            Line(P("xi1 -> xi2"), Hyp()),
            Line(P("xi2"), RuleApp("mp", (1, 2), freeze_subst({1: Var(1), 2: Var(3)}))),
        ))
        v = check_derivation(d, CPL.calculus, hyps=[P("xi1"), P("xi1 -> xi2")])
        assert not v and v.line == 3

    def test_forward_citation_rejected(self):
        d = Derivation((
            Line(PM("<top.CPL1|top.CPL2>"), Clft(1, 1)),
        ))
        v = check_derivation(d, MEET)
        assert not v and v.line == 1

    def test_fx_both_directions(self):
        b1, b2 = CS.falsum(1), CS.falsum(2)
        for src, dst in ((b1, b2), (b2, b1)):
            d = Derivation((Line(src, Hyp()), Line(dst, Fx(1))))
            assert check_derivation(d, MEET, hyps=[src])

    def test_fx_wrong_direction_rejected(self):
        d = Derivation((Line(CS.falsum(1), Hyp()), Line(CS.top, Fx(1))))
        v = check_derivation(d, MEET, hyps=[CS.falsum(1)])
        assert not v and v.line == 2

    def test_schematic_families_disabled_outside_combined(self):
        d = Derivation((Line(P("xi1"), Hyp()), Line(P("xi1"), Clft(1, 1))))
        v = check_derivation(d, CPL.calculus, hyps=[P("xi1")])
        assert not v and v.line == 2


class TestAssemble:
    def test_liberal_rules_tagged_per_component_constructor(self):
        mp1 = [r for r in MEET.rules if r.name.startswith("mp@1#")]
        count1 = sum(len(CPL.signature.by_arity[n]) for n in CPL.signature.arities())
        assert len(mp1) == count1
        assert all(not r.liberal for r in MEET.rules)

    def test_non_liberal_axiom_inherited_whole(self):
        a1 = next(r for r in MEET.rules if r.name == "a1@1")
        assert a1.conclusion == embed(P("xi1 -> (xi2 -> xi1)"), 1, CS)

    def test_signature_mismatch_rejected(self):
        other = load_preset("G3")
        with pytest.raises(BuilderError):
            assemble_meet_calculus(CPL.calculus, other.calculus, CS)

    def test_every_meet_rule_sound_on_product(self):
        prod = product_matrix(CPL.characteristic, CPL2.characteristic, CS)
        for r in MEET.rules:
            assert entails([prod], r.premises, r.conclusion), r.name


class TestEmbedRuleApplication:
    def test_non_liberal(self):
        a1 = CPL.calculus.rule_named("a1")
        name, subst = embed_rule_application(a1, {1: P("xi1"), 2: P("bot")}, 2, CS)
        assert name == "a1@2"
        assert subst[2] == embed(P("bot"), 2, CS)

    def test_liberal_selects_tagged_variant(self):
        mp = CPL.calculus.rule_named("mp")
        name, subst = embed_rule_application(mp, {1: P("xi1"), 2: P("xi1 and xi2")}, 1, CS)
        assert name == "mp@1#<and.CPL1|topn.2.CPL2>"
        assert subst[3] == Var(1) and subst[4] == Var(2)

    def test_bare_variable_conclusion_rejected(self):
        mp = CPL.calculus.rule_named("mp")
        with pytest.raises(BuilderError):
            embed_rule_application(mp, {1: P("xi1"), 2: Var(2)}, 1, CS)

    def test_every_component_application_is_a_meet_rule_instance(self):
        # Every component rule, and for a liberal rule every head constructor
        # of its component, in all ordered preset pairs. Each variable is
        # renamed, and the witness carries an extra entry at the first fresh
        # index, so a fresh variable bound from that entry gives a wrong instance.
        logics = ("CPL", "G3", "IPL", "S43", "GL")
        bundles = {name: load_preset(name, max_worlds=1) for name in logics}
        applications = 0
        for n1, n2 in itertools.product(logics, repeat=2):
            b1, b2 = bundles[n1], bundles[n2]
            cs = combine_signatures(b1.signature, b2.signature)
            meet = {r.name: r for r in assemble_meet_calculus(b1.calculus, b2.calculus, cs).rules}
            for k, b in ((1, b1), (2, b2)):
                for rule in b.calculus.rules:
                    j = max_schema_index(rule)
                    base = {v: Var(v + 20) for v in range(1, j + 1)}
                    base[j + 1] = b.signature.bot
                    for c in b.signature.all_ctors() if rule.liberal else [None]:
                        subst = dict(base)
                        if c is not None:
                            subst[rule.conclusion.index] = App(c, tuple(Var(40 + i) for i in range(c.arity)))
                        name, witness = embed_rule_application(rule, subst, k, cs)
                        got = meet[name]
                        for p, q in zip(got.premises + (got.conclusion,), rule.premises + (rule.conclusion,)):
                            assert apply_substitution(witness, p) == embed(apply_substitution(subst, q), k, cs), name
                        applications += 1
        assert applications > 1000


class TestSearch:
    def test_goal_in_hyps(self):
        d = bounded_proof_search(CPL.calculus, (), [P("xi1")], P("xi1"))
        assert d is not None and len(d) == 1

    def test_mp_within_depth(self):
        d = bounded_proof_search(CPL.calculus, (), [P("xi1"), P("xi1 -> xi2")], P("xi2"),
                                 SearchBounds(depth=2))
        assert d is not None
        assert check_derivation(d, CPL.calculus, hyps=[P("xi1"), P("xi1 -> xi2")])

    def test_falsum_not_provable(self):
        assert bounded_proof_search(CPL.calculus, (), [], P("bot")) is None

    def test_results_always_check(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(25):
            goal = random_formula(rng, CPL.signature, 2, max_var=2)
            hyps = [random_formula(rng, CPL.signature, 2, max_var=2)]
            d = bounded_proof_search(CPL.calculus, (), hyps, goal, SearchBounds(depth=3))
            if d is not None:
                hits += 1
                assert check_derivation(d, CPL.calculus, hyps=hyps)
        assert hits > 0

    def test_deterministic(self):
        args = (CPL.calculus, (), [P("xi1 and xi2")], P("xi2 and xi1"), SearchBounds(depth=4))
        d1 = bounded_proof_search(*args)
        d2 = bounded_proof_search(*args)
        assert d1 is not None and d1 == d2


def _component_search(bundle, hyps, goal, depth=4):
    d = bounded_proof_search(bundle.calculus, (), hyps, goal, SearchBounds(depth=depth))
    assert d is not None, f"no component derivation for {print_formula(goal)}"
    return d


class TestTemplates:
    def test_degenerate_identity(self):
        alpha = PM("<and.CPL1|or.CPL2>(xi1, xi2)")
        d1 = _component_search(CPL, [project(alpha, 1)], project(alpha, 1), 1)
        d2 = _component_search(CPL2, [project(alpha, 2)], project(alpha, 2), 1)
        d = build_both_admissible_derivation([alpha], alpha, d1, d2, MEET, CPL, CPL2)
        assert check_derivation(d, MEET, hyps=[alpha])

    def test_disjunction_introduction_rule(self):
        alpha = PM("<neg.CPL1|neg.CPL2>(xi1)")
        beta = PM("<or.CPL1|or.CPL2>(%s, %s)" % (print_formula(alpha), print_formula(alpha)))
        d1 = _component_search(CPL, [project(alpha, 1)], project(beta, 1))
        d2 = _component_search(CPL2, [project(alpha, 2)], project(beta, 2))
        d = build_both_admissible_derivation([alpha], beta, d1, d2, MEET, CPL, CPL2)
        assert check_derivation(d, MEET, hyps=[alpha])

    def test_wrong_endpoint_rejected(self):
        alpha = PM("<neg.CPL1|neg.CPL2>(xi1)")
        d1 = _component_search(CPL, [project(alpha, 1)], project(alpha, 1), 1)
        with pytest.raises(BuilderError):
            build_both_admissible_derivation([alpha], CS.top, d1, d1, MEET, CPL, CPL2)

    def test_vacuous_with_falsum_premise(self):
        beta = PM("<and.CPL1|and.CPL2>(xi1, xi1)")
        bot1 = CS.falsum(1)
        dfalsum = _component_search(CPL, [P("bot")], P("bot"), 1)
        dsame = _component_search(CPL, [P("bot")], project(beta, 1))
        dother = _component_search(CPL2, [parse_formula("bot", CPL2.signature)], project(beta, 2))
        d = build_vacuous_side_derivation([bot1], beta, 1, dfalsum, dsame, dother, MEET, CPL, CPL2)
        assert check_derivation(d, MEET, hyps=[bot1])

    def test_vacuous_fx_direction_checked(self):
        beta = PM("<and.CPL1|and.CPL2>(xi1, xi1)")
        bot2 = CS.falsum(2)
        dfalsum = _component_search(CPL2, [parse_formula("bot", CPL2.signature)],
                                    parse_formula("bot", CPL2.signature), 1)
        dsame = _component_search(CPL2, [parse_formula("bot", CPL2.signature)], project(beta, 2))
        dother = _component_search(CPL, [P("bot")], project(beta, 1))
        d = build_vacuous_side_derivation([bot2], beta, 2, dfalsum, dsame, dother, MEET, CPL, CPL2)
        assert check_derivation(d, MEET, hyps=[bot2])

    def test_witness_entry_outside_the_rule_is_not_spliced_over_a_fresh_variable(self):
        # The mp line's witness also names xi3, which is not a variable of mp
        # but is the first fresh variable of its tagged variants.
        alpha = PM("xi1")
        imp = PM("<->.CPL1|->.CPL2>(xi1, <neg.CPL1|neg.CPL2>(xi5))")
        beta = PM("<neg.CPL1|neg.CPL2>(xi5)")
        ds = []
        for b in (CPL, CPL2):
            def Pk(s):
                return parse_formula(s, b.signature)
            witness = freeze_subst({1: Pk("xi1"), 2: Pk("neg xi5"), 3: Pk("xi7")})
            d = Derivation((Line(Pk("xi1"), Hyp()), Line(Pk("xi1 -> neg xi5"), Hyp()),
                            Line(Pk("neg xi5"), RuleApp("mp", (1, 2), witness))))
            assert check_derivation(d, b.calculus, hyps=[Pk("xi1"), Pk("xi1 -> neg xi5")])
            ds.append(d)
        d = build_both_admissible_derivation([alpha, imp], beta, ds[0], ds[1], MEET, CPL, CPL2)
        assert check_derivation(d, MEET, hyps=[alpha, imp])


class TestConsistencyGuard:
    def test_no_falsum_or_bare_variable_from_empty(self):
        # The product model refutes these goals before round 0; the copy
        # without models shows that the rounds do not derive them either.
        for calc in (MEET, replace(MEET, matrices=(), components=())):
            for goal in (CS.falsum(1), CS.falsum(2), Var(1)):
                assert bounded_proof_search(calc, (), [], goal, SearchBounds(depth=4)) is None

    def test_hypothesis_free_derivations_project_to_validities(self):
        # combined theorems found by search have valid component projections
        bool2 = CPL.characteristic
        goals = [embed(P("xi1 -> xi1"), 1, CS), CS.top,
                 PM("<->.CPL1|->.CPL2>(xi1, xi1)")]
        for goal in goals:
            d = bounded_proof_search(MEET, (), [], goal, SearchBounds(depth=4))
            if d is None:
                continue
            assert check_derivation(d, MEET)
            for k in (1, 2):
                assert entails([bool2], [], project(goal, k))


# ---------------------------------------------------------------------------
# differential test of the search against the naive round loop

def _reference_matches(rule, facts_order, by_head, facts_set):
    idxs = sorted(range(len(rule.premises)), key=lambda i: -rule.premises[i].size)

    def candidates(premise, subst):
        if isinstance(premise, Var):
            bound = subst.get(premise.index)
            if bound is not None:
                return [bound] if bound in facts_set else []
            return facts_order
        return by_head.get(premise.ctor, ())

    def rec(pos, subst, chosen):
        if pos == len(idxs):
            yield dict(subst), tuple(chosen[i] for i in range(len(rule.premises)))
            return
        i = idxs[pos]
        for fact in candidates(rule.premises[i], subst):
            nxt = match_formula(rule.premises[i], fact, subst)
            if nxt is not None:
                chosen[i] = fact
                yield from rec(pos + 1, nxt, chosen)
        chosen.pop(i, None)

    yield from rec(0, {}, {})


# The semi-naive join as it was before `Rule.plan`: each premise in turn,
# a bound bare-variable premise looked up after the premise binding it was
# matched. `_join` must yield the same matches in the same order.
def _match_all_premises(rule, every, new):
    """Yield (substitution, cited facts per premise) for the joint premise
    matches that cite at least one new fact, in the order of the full join.

    `every` and `new` are (facts in order, facts by head constructor, facts
    by argument key, fact set) for all facts and for the new ones, which are
    a suffix of each list of `every`. Candidate facts are narrowed by the
    premise's head constructor, or by its `_arg_key` when it has one: a fact
    matches only if its argument at that position has that constructor too,
    and both lists are in fact order. A premise that is an already-bound
    variable only needs a membership check. Only the last premise position,
    when no earlier one chose a new fact, is cut to the new facts, so the
    matches kept come out in the same relative order as in the full join.
    """
    idxs = sorted(
        range(len(rule.premises)),
        key=lambda i: -rule.premises[i].size,
    )
    last = len(idxs) - 1
    new_set = new[3]
    keys = [_arg_key(p) for p in rule.premises]

    def candidates(i, subst, facts):
        order, by_head, by_arg, fact_set = facts
        premise = rule.premises[i]
        if isinstance(premise, Var):
            bound = subst.get(premise.index)
            if bound is not None:
                return [bound] if bound in fact_set else []
            return order
        if keys[i] is not None:
            return by_arg.get(keys[i], ())
        return by_head.get(premise.ctor, ())

    def rec(pos, subst, chosen, cites_new):
        if pos == len(idxs):
            yield dict(subst), tuple(chosen[i] for i in range(len(rule.premises)))
            return
        i = idxs[pos]
        for fact in candidates(i, subst, every if cites_new or pos < last else new):
            nxt = match_formula(rule.premises[i], fact, subst)
            if nxt is not None:
                chosen[i] = fact
                yield from rec(pos + 1, nxt, chosen, cites_new or fact in new_set)
        chosen.pop(i, None)

    yield from rec(0, {}, {}, False)
    del rec  # it refers to itself; see bounded_proof_search


def _reference_search(calc, hyps, goal, bounds, extra=()):
    """The naive round loop: every round joins all facts against every rule,
    rounds go on after the fact cap is reached, and embedded projections are
    built as `embed(project(f, k))`."""
    hyps = list(dict.fromkeys(hyps))
    rules = list(calc.rules) + list(extra)
    cs = calc.signature if isinstance(calc.signature, CombinedSignature) else None
    candidates = _candidate_pool(calc, hyps, goal, bounds)
    facts: dict = {}
    order: list = []

    def pe(f, k):
        return f if isinstance(f, Var) else embed(project(f, k), k, cs)

    def add(f, record):
        if f in facts or f.size > bounds.max_size or len(facts) >= bounds.max_facts:
            return False
        facts[f] = record
        order.append(f)
        if cs is not None:
            for k in (1, 2):
                add(pe(f, k), ("clft", f, k))
        if cs is not None:
            for k in (1, 2):
                if f == cs.falsum(k):
                    add(cs.falsum(3 - k), ("fx", f))
        return True

    for h in hyps:
        add(h, ("hyp",))

    def instances(rule, subst, cited, out):
        unbound = sorted(variables_of(rule.conclusion) - set(subst))
        for values in itertools.product(candidates, repeat=len(unbound)):
            full = dict(subst)
            full.update(zip(unbound, values))
            concl = apply_substitution(full, rule.conclusion)
            if concl not in facts and concl.size <= bounds.max_size:
                out.append((concl, ("rule", rule, full, cited)))

    for _round in range(bounds.depth):
        if goal in facts:
            break
        snapshot = list(order)
        by_head: dict = {}
        for f in snapshot:
            if isinstance(f, App):
                by_head.setdefault(f.ctor, []).append(f)
        additions: list = []
        if _round == 0:
            for rule in rules:
                if not rule.premises:
                    instances(rule, {}, (), additions)
        for rule in rules:
            if rule.premises:
                for subst, cited in _reference_matches(rule, snapshot, by_head, facts):
                    instances(rule, subst, cited, additions)
        if cs is not None:
            for target in [goal] + candidates:
                if target in facts or isinstance(target, Var):
                    continue
                p1, p2 = pe(target, 1), pe(target, 2)
                if p1 in facts and p2 in facts:
                    additions.append((target, ("lft", p1, p2)))
        additions.sort(key=lambda item: (item[0].size, print_formula(item[0])))
        progressed = False
        for f, record in additions:
            if add(f, record):
                progressed = True
        if goal in facts or not progressed:
            break
    return _reconstruct(goal, facts) if goal in facts else None


# Besides the default bounds: fact caps reached in the middle of a round,
# and a size filter that drops most instances.
DIFF_BOUNDS = (SearchBounds(max_facts=200), SearchBounds(max_facts=700), SearchBounds(max_size=8))


def _component_queries(logic):
    b = load_preset(logic)
    sig = b.signature
    for depth in (1, 2, 3, 4):
        rng = random.Random(f"reference:{logic}:{depth}")
        a, c = random_formula(rng, sig, 2, 2), random_formula(rng, sig, 1, 2)
        for hyps, goal in (([a], App(sig.resolve("or", None, 2), (a, a))),
                           ([], App(sig.resolve("->", None, 2), (a, a))),
                           ([a, c], App(sig.resolve("and", None, 2), (a, c)))):
            for bounds in (SearchBounds(),) + DIFF_BOUNDS:
                yield b.calculus, hyps, goal, replace(bounds, depth=depth)


def _meet_calculus(l1, l2):
    b1, b2 = load_preset(l1), load_preset(l2, max_worlds=2)
    cs = combine_signatures(b1.signature, b2.signature)
    return cs, assemble_meet_calculus(b1.calculus, b2.calculus, cs)


MEET_PAIRS = (("CPL", "CPL"), ("CPL", "G3"), ("IPL", "S43"))


def _meet_queries(l1, l2):
    cs, calc = _meet_calculus(l1, l2)
    t1, t2 = cs.tag1, cs.tag2
    for text in (f"<->.{t1}|->.{t2}>(xi1, xi1)", f"xi1 ->.{t2} (xi2 ->.{t2} xi1)"):
        for bounds in (SearchBounds(),) + DIFF_BOUNDS:
            yield calc, [], parse_formula(text, cs), bounds


# CPL x G3 goals whose search stops inside round 0. The second is an axiom
# instance (`a1@1`), the 215th fact; the first is only reached as its cLFT
# projection, the 216th. So 215 and 216 are the least fact caps that find
# them, and both are of size 5, the last size bucket a round adds at
# max_size 5.
STOP_GOALS = ("<topn.2.CPL|topn.2.G3>(xi1, <topn.2.CPL|topn.2.G3>(xi2, xi1))",
              "xi1 ->.CPL (xi2 ->.CPL xi1)")
STOP_BOUNDS = tuple(SearchBounds(max_facts=n) for n in (20, 200, 215, 216, 700, 3000)) \
    + (SearchBounds(max_size=5),)


def _stop_queries():
    cs, calc = _meet_calculus("CPL", "G3")
    for text in STOP_GOALS:
        for bounds in STOP_BOUNDS:
            yield calc, [], parse_formula(text, cs), bounds


def _basis_queries(logic):
    """Searches with the logic's basis rules as `extra`, as
    `derivable_with_basis` and `search --with-basis` run them: each basis
    rule's conclusion from its premises, and a hypothesis-free goal."""
    b = load_preset(logic)
    imp = b.signature.resolve("->", None, 2)
    goals = [(list(r.premises), r.conclusion) for r in b.basis.rules] + [([], App(imp, (Var(1), Var(1))))]
    for hyps, goal in goals:
        for bounds in (SearchBounds(),) + DIFF_BOUNDS:
            yield b.calculus, hyps, goal, bounds


def _text(d):
    return None if d is None else serialize_derivation(d)


def _assert_same_as_reference(queries, extra=()):
    found = 0
    for calc, hyps, goal, bounds in queries:
        got = bounded_proof_search(calc, extra, hyps, goal, bounds)
        want = _reference_search(calc, hyps, goal, bounds, extra)
        found += got is not None
        assert _text(got) == _text(want), \
            f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
    assert found


class TestSearchMatchesReference:
    """Semi-naive rounds, the stop at the goal or the fact cap, the order by
    size then text, conclusions sized from their substitution and built only
    in the sizes a round reaches, the argument-key candidate lists and
    incrementally built embedded projections change no search result."""

    @pytest.mark.parametrize("logic", ["CPL", "G3", "IPL"])
    def test_component(self, logic):
        _assert_same_as_reference(_component_queries(logic))

    @pytest.mark.parametrize("pair", MEET_PAIRS, ids="x".join)
    def test_meet(self, pair):
        _assert_same_as_reference(_meet_queries(*pair))

    @pytest.mark.parametrize("logic", ["IPL", "GL"])
    def test_basis_rules(self, logic):
        """Basis rules given as `extra` join, size and order like the
        calculus's own rules."""
        _assert_same_as_reference(_basis_queries(logic), load_preset(logic).basis.rules)

    def test_stop_at_goal_or_cap(self):
        """A round stops adding at the goal, at the fact cap, or past the
        size bound."""
        _assert_same_as_reference(_stop_queries())
        got = [bounded_proof_search(calc, (), hyps, goal, bounds)
               for calc, hyps, goal, bounds in _stop_queries()]
        assert [d is not None for d in got] == [False, False, False, True, True, True, True] \
            + [False, False, True, True, True, True, True]
        projected = got[STOP_BOUNDS.index(SearchBounds(max_facts=700))]
        assert len(projected) == 2 and isinstance(projected.lines[-1].just, Clft)

    def test_instance_sizes_predicted_from_substitution(self):
        """`_bucket_instances` files the same instances, in the same order,
        as building every conclusion and keeping those within `max_size`,
        each under the size of the node `apply_substitution` builds, and
        `_instance_text` prints each without building it."""
        bounds = SearchBounds(max_candidates=4, max_size=10)
        calcs = [load_preset(logic).calculus for logic in ("CPL", "G3", "IPL", "S43", "GL")] \
            + [_meet_calculus(*pair)[1] for pair in MEET_PAIRS]
        kept = dropped = 0
        for calc in calcs:
            sig = calc.signature
            rng = random.Random(f"sizes:{calc.name}")
            candidates = _candidate_pool(calc, [], random_formula(rng, sig, 3, 2), bounds)
            for rule in calc.rules:
                rule_vars = sorted(variables_of(rule.conclusion).union(*map(variables_of, rule.premises)))
                for _ in range(3):
                    # a search binds the premises' variables; any subset shows the sizing
                    subst = {v: random_formula(rng, sig, 2, 3) for v in rule_vars if rng.random() < 0.5}
                    buckets: dict = {}
                    _bucket_instances(rule, subst, (), candidates, bounds.max_size, buckets)
                    want: dict = {}
                    unbound = sorted(variables_of(rule.conclusion) - set(subst))
                    for values in itertools.product(candidates, repeat=len(unbound)):
                        full = {**subst, **dict(zip(unbound, values))}
                        concl = apply_substitution(full, rule.conclusion)
                        if concl.size <= bounds.max_size:
                            want.setdefault(concl.size, []).append((concl, full))
                        else:
                            dropped += 1
                    got = {size: [(apply_substitution(record[2], rule.conclusion), record[2])
                                   for _, record in entries] for size, entries in buckets.items()}
                    assert all(_instance_text(rule, s, {}) == print_formula(c)
                               for entries in got.values() for c, s in entries), rule
                    assert got.keys() == want.keys(), rule
                    for size, entries in got.items():
                        assert [(c.size, s) for c, s in entries] == [(size, s) for _, s in want[size]], rule
                        assert all(c is w for (c, _), (w, _) in zip(entries, want[size])), rule
                        kept += len(entries)
        assert kept > 1000 and dropped > 1000

    def test_embedded_projection_keeps_size(self):
        """The per-size build order relies on this: a fact's cLFT images have
        the fact's size, so they land in the size a round is adding."""
        for pair in MEET_PAIRS:
            cs, _ = _meet_calculus(*pair)
            rng = random.Random(f"projection-size:{cs.tag1}:{cs.tag2}")
            for _ in range(300):
                f = random_formula(rng, cs, 4)
                assert all(proj_embedded(f, k, cs).size == f.size for k in (1, 2)), print_formula(f)

    def test_no_unreached_size_is_built(self, monkeypatch):
        """A round stopping at the goal or the fact cap builds no conclusion
        larger than the size it stopped in, the size of the last fact added
        (every added fact passes through `proj_embedded` for its cLFT
        images)."""
        built: list = []
        added: list = []

        def build(s, f):
            g = apply_substitution(s, f)
            built.append(g.size)
            return g

        def pe(f, k, cs):
            added.append(f.size)
            return proj_embedded(f, k, cs)

        monkeypatch.setattr(calculus, "apply_substitution", build)
        monkeypatch.setattr(calculus, "proj_embedded", pe)
        cases = 0
        for calc, hyps, goal, bounds in _stop_queries():
            if bounds.max_facts in (215, 216, 700) or bounds.max_size == 5:
                built.clear()
                added.clear()
                bounded_proof_search(calc, (), hyps, goal, bounds)
                assert max(built) == added[-1] == 5, (print_formula(goal), bounds)
                cases += 1
        assert cases == 8

    def test_goal_over_max_size_builds_nothing(self, monkeypatch):
        """A goal larger than `max_size` can never be a fact, so the search
        returns before round 0, with basis rules in `extra` too."""
        built: list = []

        def build(s, f):
            built.append(f)
            return apply_substitution(s, f)

        monkeypatch.setattr(calculus, "apply_substitution", build)
        ipl = load_preset("IPL")
        for rule in ipl.basis.rules[1:]:  # visser2 and visser3: 41 and 71 nodes
            assert rule.conclusion.size > SearchBounds().max_size
            assert bounded_proof_search(ipl.calculus, ipl.basis.rules, rule.premises, rule.conclusion) is None
        assert built == []

    def test_one_match_per_joint_match(self, monkeypatch):
        """Bound premises are tested on the candidate fact before it is
        matched, so on the meet calculi every `match_formula` call of a
        search is a joint premise match: one that `_bucket_instances` gets."""
        calls = {"match": 0, "joint": 0}

        def match(*args):
            calls["match"] += 1
            return match_formula(*args)

        def bucket(rule, *args):
            calls["joint"] += bool(rule.premises)
            return _bucket_instances(rule, *args)

        monkeypatch.setattr(calculus, "match_formula", match)
        monkeypatch.setattr(calculus, "_bucket_instances", bucket)
        queries = itertools.chain(*(_meet_queries(*pair) for pair in MEET_PAIRS), _stop_queries())
        for calc, hyps, goal, bounds in queries:
            bounded_proof_search(calc, (), hyps, goal, bounds)
        assert calls["joint"] > 1000 and calls["match"] == calls["joint"]

    def test_rule_instance_kept_over_lft_of_the_same_formula(self):
        """A goal that is both a rule conclusion and an LFT target in one
        size keeps the rule instance, which was made first."""
        cs, calc = _meet_calculus("CPL", "G3")
        goal = parse_formula("<->.CPL|->.G3>(xi1, xi1)", cs)
        halves = tuple(proj_embedded(goal, k, cs) for k in (1, 2))
        calc = Calculus(calc.name, cs, calc.rules + (Rule("join", halves, goal),))
        query = (calc, list(halves), goal, SearchBounds(max_facts=700))
        _assert_same_as_reference([query])
        d = bounded_proof_search(calc, (), *query[1:])
        assert d.lines[-1].just == RuleApp("join", (1, 2), ((1, Var(1)),))


# ---------------------------------------------------------------------------
# the test in the calculus's sound matrices before round 0

def _models_free(calc):
    """The same calculus with no models: the search without the matrix test."""
    return replace(calc, matrices=(), components=())


def _refutation_queries():
    """Seeded goals with and without hypotheses over the component presets
    and the meet pairs, and on the meets the consistency-guard goals."""
    calcs = [load_preset(logic, max_worlds=2).calculus for logic in ("CPL", "G3", "IPL", "S43", "GL")] \
        + [_meet_calculus(*pair)[1] for pair in MEET_PAIRS]
    for calc in calcs:
        sig = calc.signature
        meet = isinstance(sig, CombinedSignature)
        imp = sig.resolve_pair("->", sig.tag1, "->", sig.tag2) if meet else sig.resolve("->", None, 2)
        rng = random.Random(f"refutation:{calc.name}")
        goals = []
        for _ in range(2):
            a, c = random_formula(rng, sig, 2, 2), random_formula(rng, sig, 1, 2)
            goals += [([a], c), ([], App(imp, (a, c))), ([], App(imp, (a, a)))]
        if meet:
            goals += [([], sig.falsum(1)), ([], sig.falsum(2)), ([], Var(1))]
        for hyps, goal in goals:
            for bounds in (SearchBounds(),) + DIFF_BOUNDS:
                yield calc, hyps, goal, bounds


class TestRefutationLosesNothing:
    """A goal that the hypotheses do not entail in a model of the calculus
    is not derivable, so returning None for it changes no search result."""

    def test_same_results_as_without_models(self):
        refuted = found = 0
        for calc, hyps, goal, bounds in _refutation_queries():
            assert calc.models
            got = bounded_proof_search(calc, (), hyps, goal, bounds)
            want = bounded_proof_search(_models_free(calc), (), hyps, goal, bounds)
            assert _text(got) == _text(want), \
                f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
            refuted += not entails(calc.models, hyps, goal)
            if got is not None:
                found += 1
                assert entails(calc.models, hyps, got.conclusion)
        assert refuted > 50 and found > 10

    def test_wide_goals_skip_large_models(self, monkeypatch):
        """A model is tried only while a column over the goal's variables
        stays short: IPL's five-element chain not on six variables, and no
        model on thirteen."""
        tried: list = []

        def spy(ms, hyps, goal):
            tried.append([len(m.carrier) for m in ms])
            return True

        monkeypatch.setattr(calculus, "entails", spy)
        ipl = load_preset("IPL")
        for n in (6, 13):
            goal = parse_formula(" or ".join(f"xi{i}" for i in range(1, n + 1)), ipl.signature)
            bounded_proof_search(ipl.calculus, (), [], goal, SearchBounds(depth=0))
        assert tried == [[2, 3, 4]]

    def test_rules_unsound_in_a_matrix_drop_it(self):
        """`dne` is unsound in the three-element chain, so CPL's rules with
        that chain as their only matrix have no model, and the search still
        finds `dne`'s instance, which the chain refutes."""
        chain3 = godel_chain(CPL.signature, 3)
        calc = Calculus("CPL", CPL.signature, CPL.calculus.rules, matrices=(chain3,))
        goal = P("(neg (neg xi1)) -> xi1")
        assert not entails([chain3], [], goal)
        assert calc.models == ()
        assert bounded_proof_search(calc, (), [], goal) is not None

    def test_meet_needs_designated_verum_family(self):
        """A factor whose verum family takes an undesignated value gives the
        meet no product model, even when every inherited rule is sound in
        the product: cLFT is not. Models are not worked out at assembly."""
        sig = CPL.signature
        bool2 = CPL.characteristic
        odd = replace(bool2, name="odd", tables={**bool2.tables, sig.verum_at(1): [0, 0]})
        identity = (Rule("id", (Var(1),), Var(1)),)
        c1, c2 = Calculus("A", sig, identity, matrices=(bool2,)), Calculus("B", sig, identity, matrices=(odd,))
        calc = assemble_meet_calculus(c1, c2, CS)
        assert "models" not in calc.__dict__
        assert c2.models == (odd,) and calc.models == ()
        hyp = PM("<neg.CPL1|neg.CPL2>(xi1)")
        goal = proj_embedded(hyp, 1, CS)
        product = product_matrix(bool2, odd, CS)
        assert all(check_rule_soundness([product], r) for r in calc.rules)
        assert bounded_proof_search(calc, (), [hyp], goal, SearchBounds(depth=1)) is not None
        assert not entails([product], [hyp], goal)


# ---------------------------------------------------------------------------
# the planned join against the join before it

def _plan_test_rules():
    """Rules whose plans are not those of `mp`: a check whose path leaves
    the argument key, two checks on one step, a check bound by an earlier
    step, and two scans followed by a constant."""
    P = lambda text: parse_formula(text, CPL.signature)
    return (Rule("deep", (P("(xi1 -> xi2) and (xi3 -> xi4)"), P("xi4"), P("xi1")), P("xi2 or xi3")),
            Rule("chain", (P("xi1 -> xi2"), P("xi2 -> xi3"), P("xi1"), P("xi3")), P("xi1 -> xi3")),
            Rule("scans", (P("xi1"), P("xi2"), P("top")), P("xi1 and xi2")))


def _join_rule_sets():
    for logic in ("CPL", "G3", "IPL", "S43", "GL"):
        b = load_preset(logic)
        yield b.signature, b.calculus.rules
    for pair in MEET_PAIRS:
        cs, calc = _meet_calculus(*pair)
        yield cs, calc.rules
    ipl, gl = load_preset("IPL"), load_preset("GL")
    yield ipl.signature, ipl.basis.rules + (harrop_rule(ipl.signature),)
    yield gl.signature, gl.basis.rules
    yield CPL.signature, _plan_test_rules()


def _join_facts(rule, sig, rng):
    """Distinct facts in a shuffled order: formulas at random, and instances
    of the rule's premises under substitutions at random, each premise
    instance and each substitution image kept at random, so that a bound
    premise is sometimes a fact and sometimes not."""
    facts = [random_formula(rng, sig, 2, 2) for _ in range(8)]
    rule_vars = sorted(set().union(*map(variables_of, rule.premises)))
    for _ in range(10):
        s = {v: random_formula(rng, sig, 2, 2) for v in rule_vars}
        facts += [apply_substitution(s, p) for p in rule.premises if rng.random() < 0.7]
        facts += [f for f in s.values() if rng.random() < 0.3]
    facts = list(dict.fromkeys(facts))
    rng.shuffle(facts)
    return facts


class TestJoinMatchesReference:
    """`_join` yields the matches of the join before `Rule.plan`, with the
    same substitutions and citations, in the same order."""

    def test_same_matches_in_same_order(self):
        rules = matches = passed = failed = 0
        for sig, rule_set in _join_rule_sets():
            for rule in rule_set:
                if not rule.premises:
                    continue
                rules += 1
                rng = random.Random(f"join:{rule.name}")
                facts = _join_facts(rule, sig, rng)
                keys = {_arg_key(p) for p in rule.premises}
                for cut in (0, len(facts) // 3, 2 * len(facts) // 3):
                    every = (facts, {}, {}, set(facts))
                    _index(facts[:cut], keys, every)
                    new = _index(facts[cut:], keys, every)
                    want = list(_match_all_premises(rule, every, new))
                    assert list(_join(rule, every, new)) == want, (rule, cut)
                    matches += len(want)
                for _, premise, _, _, checks in rule.plan:
                    for f in facts:
                        s = match_formula(premise, f)
                        for _, v, path, _ in checks:
                            if s is not None and path is not None:
                                passed += s[v] in facts
                                failed += s[v] not in facts
        assert rules > 70 and matches > 2000 and passed > 300 and failed > 50

    def test_plan_of_mp(self):
        """`mp` visits its implication, and reads its minor premise off the
        implication's first argument."""
        mp = CPL.calculus.rule_named("mp")
        imp = CPL.signature.resolve("->", None, 2)
        (step,) = mp.plan
        assert step == (1, mp.premises[1], None, False, ((0, 1, ((imp, 0),), True),))

    def test_plans_of_the_test_rules(self):
        deep, chain, scans = _plan_test_rules()
        imp = CPL.signature.resolve("->", None, 2)
        conj = CPL.signature.resolve("and", None, 2)
        assert [step[0] for step in deep.plan] == [0]
        assert deep.plan[0][4] == ((1, 4, ((conj, 1), (imp, 1)), False), (2, 1, ((conj, 0), (imp, 0)), True))
        assert [step[0] for step in chain.plan] == [0, 1]
        assert chain.plan[1][4] == ((2, 1, None, False), (3, 3, ((imp, 1),), True))
        assert [(step[0], step[3], step[4]) for step in scans.plan] == [(0, False, ()), (1, False, ()), (2, True, ())]
