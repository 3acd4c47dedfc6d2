import gc
import itertools
import random
import sys
import time
from bisect import bisect_right
from collections import Counter
from operator import attrgetter

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
    _candidate_pool,
    _index,
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
from meetlogic.presets import combine_bundles, gl_basis_rule, godel_chain, harrop_rule, load_preset, visser_rule
from meetlogic.semantics import Matrix, check_rule_soundness, entails, product_matrix
from meetlogic.syntax import (
    App,
    Var,
    apply_substitution,
    match_formula,
    max_schema_index,
    parse_formula,
    print_formula,
    variables_of,
    verum_family_name,
)

import golden
from ref_syntax import ref_apply_substitution
from strategies import random_formula

CPL = load_preset("CPL")
CPL2 = load_preset("CPL")
CS = combine_signatures(CPL.signature, CPL2.signature)
MEET = assemble_meet_calculus(CPL.calculus, CPL2.calculus, CS)


def P(s):
    return parse_formula(s, CPL.signature)


def PM(s):
    return parse_formula(s, CS)


def rule_named(calc, name):
    return next(r for r in calc.rules if r.name == name)


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
            Line(proj_embedded(psi, 1, CS, {}), Hyp()),
            Line(proj_embedded(psi, 2, CS, {}), Hyp()),
            Line(psi, Lft((1, 2))),
        ))
        hyps = [proj_embedded(psi, k, CS, {}) for k in (1, 2)]
        assert check_derivation(d, MEET, hyps=hyps)

    def test_lft_wrong_citations_rejected(self):
        psi = PM("<and.CPL1|or.CPL2>(xi1, xi2)")
        d = Derivation((
            Line(proj_embedded(psi, 1, CS, {}), Hyp()),
            Line(proj_embedded(psi, 1, CS, {}), Hyp()),
            Line(psi, Lft((1, 2))),
        ))
        v = check_derivation(d, MEET, hyps=[proj_embedded(psi, 1, CS, {})])
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
            Line(PM("<top.CPL1|top.CPL2>"), Clft((1,), 1)),
        ))
        v = check_derivation(d, MEET)
        assert not v and v.line == 1

    def test_fx_both_directions(self):
        b1, b2 = CS.falsum(1), CS.falsum(2)
        for src, dst in ((b1, b2), (b2, b1)):
            d = Derivation((Line(src, Hyp()), Line(dst, Fx((1,)))))
            assert check_derivation(d, MEET, hyps=[src])

    def test_fx_wrong_direction_rejected(self):
        d = Derivation((Line(CS.falsum(1), Hyp()), Line(CS.top, Fx((1,)))))
        v = check_derivation(d, MEET, hyps=[CS.falsum(1)])
        assert not v and v.line == 2

    def test_schematic_families_disabled_outside_combined(self):
        d = Derivation((Line(P("xi1"), Hyp()), Line(P("xi1"), Clft((1,), 1))))
        v = check_derivation(d, CPL.calculus, hyps=[P("xi1")])
        assert not v and v.line == 2

    @pytest.mark.parametrize("just", [Lft((1,)), Lft((1, 2, 2)), Clft((), 1), Fx((1, 2))], ids=repr)
    def test_wrong_citation_count_rejected(self, just):
        """Each schematic family cites a fixed number of lines: LFT 2, cLFT
        and FX 1. Any other count is a rejection at that line, not a crash."""
        psi = PM("<and.CPL1|or.CPL2>(xi1, xi2)")
        d = Derivation((
            Line(proj_embedded(psi, 1, CS, {}), Hyp()),
            Line(proj_embedded(psi, 2, CS, {}), Hyp()),
            Line(psi, just),
        ))
        v = check_derivation(d, MEET, hyps=[proj_embedded(psi, k, CS, {}) for k in (1, 2)])
        assert not v and v.line == 3 and "must cite" in v.reason


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
        a1 = rule_named(CPL.calculus, "a1")
        name, subst = embed_rule_application(a1, {1: P("xi1"), 2: P("bot")}, 2, CS)
        assert name == "a1@2"
        assert subst[2] == embed(P("bot"), 2, CS)

    def test_liberal_selects_tagged_variant(self):
        mp = rule_named(CPL.calculus, "mp")
        name, subst = embed_rule_application(mp, {1: P("xi1"), 2: P("xi1 and xi2")}, 1, CS)
        assert name == "mp@1#<and.CPL1|topn.2.CPL2>"
        assert subst[3] == Var(1) and subst[4] == Var(2)

    def test_bare_variable_conclusion_rejected(self):
        mp = rule_named(CPL.calculus, "mp")
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


@pytest.fixture
def collector():
    """Leaves the cyclic garbage collector as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


class TestSearchPausesCollector:
    """A search runs with the cyclic garbage collector paused and leaves it
    as it found it; the pause is safe because a search makes no cycles."""

    # A meet goal that no rule and not only LFT concludes, so the lifted
    # phase leaves it to the rounds, which add it in round 2: `_index` runs
    # once per round, and the meet's cLFT and FX closure runs on every fact.
    QUERY = (MEET, (), [], "xi1 ->.CPL1 xi1", SearchBounds(max_size=16))

    def search(self):
        calc, extra, hyps, goal, bounds = self.QUERY
        return bounded_proof_search(calc, extra, hyps, PM(goal), bounds)

    def spy(self, monkeypatch):
        """The collector's state at each `_index` call, and the calculi the
        rounds ran in."""
        states: list = []
        calcs: list = []
        real, real_rounds = calculus._index, calculus._rounds

        def index(*args):
            states.append(gc.isenabled())
            return real(*args)

        def rounds(calc, *args):
            calcs.append(calc)
            return real_rounds(calc, *args)

        monkeypatch.setattr(calculus, "_index", index)
        monkeypatch.setattr(calculus, "_rounds", rounds)
        return states, calcs

    def test_paused_during_search_and_enabled_after(self, monkeypatch, collector):
        states, calcs = self.spy(monkeypatch)
        gc.enable()
        assert len(self.search()) == 9
        assert calcs == [MEET] and len(states) == 3 and not any(states)
        assert gc.isenabled()

    def test_left_disabled_when_it_was(self, monkeypatch, collector):
        states, calcs = self.spy(monkeypatch)
        gc.disable()
        self.search()
        assert calcs == [MEET] and len(states) == 3 and not any(states)
        assert not gc.isenabled()

    def test_restored_when_the_search_raises(self, monkeypatch, collector):
        def index(*args):
            raise RuntimeError("index")

        monkeypatch.setattr(calculus, "_index", index)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(RuntimeError):
                self.search()
            assert gc.isenabled() is enabled

    def test_search_makes_no_cyclic_garbage(self, collector):
        comp = (CPL.calculus, (), [P("xi1 and xi2")], P("xi2 and xi1"), SearchBounds(depth=4))
        gc.disable()
        gc.collect()
        assert self.search() is not None
        assert bounded_proof_search(*comp) is not None
        assert gc.collect() == 0


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
        for calc in (MEET, _models_free(MEET)):
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

_size = attrgetter("size")


def _bucket_instances(rule, subst, cited, candidates, max_size, buckets):
    """The product-order reference of the search's instance enumerator
    (`calculus._images`): append the record `("rule", cited, rule, images,
    subst)` to `buckets[size]` for each instance of the conclusion within
    `max_size`, sized by `Rule.shape`, not built. `images` are the images of
    the conclusion's variables in `shape` order. The variables that `subst`
    leaves unbound range over `candidates`, which are in size order: each
    over the prefix of them whose sizes still fit when the others take the
    smallest, so the instances come in the order of the product over all
    candidates."""
    size, counts, _ = rule.shape
    images = [subst.get(v) for v, _ in counts]
    size += sum([n * g.size for (_, n), g in zip(counts, images) if g is not None])
    free = [k for k, g in enumerate(images) if g is None]
    if not free:
        if size <= max_size:
            buckets.setdefault(size, []).append(("rule", cited, rule, tuple(images), subst))
        return
    weights = [counts[k][1] for k in free]
    least = candidates[0].size if candidates else 0
    spare = max_size - size - least * sum(weights)
    prefixes = [candidates[:bisect_right(candidates, least + spare // n, key=_size)] for n in weights]
    for values in itertools.product(*prefixes):
        total = size + sum([n * f.size for n, f in zip(weights, values)])
        if total <= max_size:
            if len(free) < len(images):
                for k, g in zip(free, values):
                    images[k] = g
                values = tuple(images)
            buckets.setdefault(total, []).append(("rule", cited, rule, values, subst))


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
                add(pe(f, k), ("clft", (f,), k))
        if cs is not None:
            for k in (1, 2):
                if f == cs.falsum(k):
                    add(cs.falsum(3 - k), ("fx", (f,)))
        return True

    for h in hyps:
        add(h, ("hyp", ()))

    def instances(rule, subst, cited, out):
        unbound = sorted(variables_of(rule.conclusion) - set(subst))
        for values in itertools.product(candidates, repeat=len(unbound)):
            full = dict(subst)
            full.update(zip(unbound, values))
            concl = apply_substitution(full, rule.conclusion)
            if concl not in facts and concl.size <= bounds.max_size:
                images = tuple(full[v] for v in sorted(variables_of(rule.conclusion)))
                out.append((concl, ("rule", cited, rule, images, full)))

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
                    additions.append((target, ("lft", (p1, p2))))
        additions.sort(key=lambda item: (item[0].size, print_formula(item[0])))
        progressed = False
        for f, record in additions:
            if add(f, record):
                progressed = True
        if goal in facts or not progressed:
            break
    return _reconstruct(goal, facts) if goal in facts else None


def hook_instantiators(monkeypatch, built: list):
    """Make every rule's instantiator, for the rest of the test, append the
    size of each instance it builds to `built`."""
    made = Rule.instantiator.func

    def spied(rule):
        build, text = made(rule)

        def spy(*images):
            g = build(*images)
            built.append(g.size)
            return g

        return spy, text

    monkeypatch.setattr(Rule, "instantiator", property(spied))


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
                yield b.calculus, hyps, goal, SearchBounds(depth, bounds.max_size, bounds.max_facts,
                                                           bounds.max_candidates)


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
# projection, the 216th. So 215 and 216 are the least fact caps under which
# the rounds find them (the axiom lookup finds the second under any cap),
# and both are of size 5, the last size bucket a round adds at max_size 5.
STOP_GOALS = ("<topn.2.CPL|topn.2.G3>(xi1, <topn.2.CPL|topn.2.G3>(xi2, xi1))",
              "xi1 ->.CPL (xi2 ->.CPL xi1)")
STOP_BOUNDS = tuple(SearchBounds(max_facts=n) for n in (20, 200, 215, 216, 700, 3000)) \
    + (SearchBounds(max_size=5),)


def _stop_queries():
    cs, calc = _meet_calculus("CPL", "G3")
    for text in STOP_GOALS:
        for bounds in STOP_BOUNDS:
            yield calc, [], parse_formula(text, cs), bounds


def _hypothesis_goal_queries():
    """Meet goals that are hypotheses: `a`, then its cLFT images and their
    verum image, each listed after `a`, and the two falsa."""
    for pair in MEET_PAIRS:
        cs, calc = _meet_calculus(*pair)
        a = random_formula(random.Random(f"hypothesis-goals:{cs.tag1}:{cs.tag2}"), cs, 2, 2)
        p1 = proj_embedded(a, 1, cs, {})
        hyps = [a, p1, proj_embedded(a, 2, cs, {}), proj_embedded(p1, 2, cs, {}), cs.falsum(1), cs.falsum(2)]
        for goal in hyps:
            yield calc, hyps, goal, SearchBounds()


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


def _lft_only(calc, hyps, goal):
    """Whether only LFT can conclude the goal in the meet `calc`: it is not
    a hypothesis, its head pairs two constructors outside the verum family,
    and no rule concludes that head or a bare variable."""
    return bool(calc.components) and isinstance(goal, App) and goal not in hyps \
        and verum_family_name(goal.ctor.arity) not in (goal.ctor.c1.name, goal.ctor.c2.name) \
        and not any(isinstance(r.conclusion, Var) or r.conclusion.ctor is goal.ctor for r in calc.rules)


def _unlifted(calc, extra, hyps, goal, bounds):
    """The search with the lifted phase patched out: `yield from` an empty
    iterator gives None."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(calculus, "_lifted", lambda *args: iter(()))
        return bounded_proof_search(calc, extra, hyps, goal, bounds)


def _assert_public_keeps(calc, hyps, goal, bounds, forward):
    """The public search finds every goal that the search without the
    lifted phase (`forward`) finds, with the same derivation unless only
    LFT can conclude the goal; what it finds passes the checker. Returns
    its derivation."""
    got = bounded_proof_search(calc, (), hyps, goal, bounds)
    where = f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
    if not _lft_only(calc, hyps, goal):
        assert _text(got) == _text(forward), where
    elif forward is not None:
        assert got is not None, where
    assert got is None or check_derivation(got, calc, hyps=hyps), where
    return got


def _uncapped(bounds):
    """The same bounds with the fact cap lifted."""
    return SearchBounds(bounds.depth, bounds.max_size, 10**7, bounds.max_candidates)


def _assert_same_as_reference(queries, extra=()):
    """The search without the lifted phase against the naive loop: under
    the same bounds where the loop finds the goal, as the cap never changes
    a derivation, else with the cap lifted where the search finds it; what
    it finds passes the checker with `extra`. Without `extra`, the public
    search against it. Returns the number found."""
    found = 0
    for calc, hyps, goal, bounds in queries:
        got = _unlifted(calc, extra, hyps, goal, bounds)
        found += got is not None
        want = _reference_search(calc, hyps, goal, bounds, extra)
        if want is None and got is not None:
            want = _reference_search(calc, hyps, goal, _uncapped(bounds), extra)
        where = f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
        assert _text(got) == _text(want), where
        assert got is None or check_derivation(got, calc, extra, hyps), where
        if not extra:
            _assert_public_keeps(calc, hyps, goal, bounds, got)
    assert found
    return found


class TestSearchMatchesReference:
    """Semi-naive rounds, the stop at the goal or the fact cap, the order by
    size then text, conclusions sized from their substitution and built only
    in the sizes a round reaches, the argument-key candidate lists and
    incrementally built embedded projections change no search result. A
    goal that the goal-directed pass or the axiom lookup finds beyond the
    fact cap is the naive loop's without the cap. The floors are the finds
    of the search that answers whenever the pass finds the goal."""

    @pytest.mark.parametrize("logic", ["CPL", "G3", "IPL"])
    def test_component(self, logic):
        assert _assert_same_as_reference(_component_queries(logic)) >= {"CPL": 20, "G3": 30, "IPL": 24}[logic]

    @pytest.mark.parametrize("pair", MEET_PAIRS, ids="x".join)
    def test_meet(self, pair):
        assert _assert_same_as_reference(_meet_queries(*pair)) >= 4

    @pytest.mark.parametrize("logic", ["IPL", "S43", "GL"])
    def test_basis_rules(self, logic):
        """Basis rules given as `extra` join, size and order like the
        calculus's own rules."""
        _assert_same_as_reference(_basis_queries(logic), load_preset(logic).basis.rules)

    def test_hypothesis_goals(self):
        """The rounds add a hypothesis goal first as the cLFT or FX image of
        an earlier hypothesis when it is one, so its derivation is then
        longer than its HYP line."""
        queries = list(_hypothesis_goal_queries())
        _assert_same_as_reference(queries)
        lengths = [len(bounded_proof_search(calc, (), hyps, goal, bounds)) for calc, hyps, goal, bounds in queries]
        assert lengths == [1, 2, 2, 3, 1, 2] * 2 + [1, 1, 1, 1, 1, 2], lengths

    def test_stop_at_goal_or_cap(self):
        """A round stops adding at the goal, at the fact cap, or past the
        size bound. The axiom goal is looked up under every cap, as round 0
        adds it without the cap."""
        _assert_same_as_reference(_stop_queries())
        got = [bounded_proof_search(calc, (), hyps, goal, bounds)
               for calc, hyps, goal, bounds in _stop_queries()]
        assert [d is not None for d in got] == [False, False, False, True, True, True, True] + [True] * 7
        projected = got[STOP_BOUNDS.index(SearchBounds(max_facts=700))]
        assert len(projected) == 2 and isinstance(projected.lines[-1].just, Clft)

    def test_instance_sizes_predicted_from_substitution(self):
        """`_file` files the same instances per size as building every
        conclusion and keeping those within `max_size`, each under the size
        of the node `apply_substitution` builds, and the rule's instantiator
        builds and prints each from its images. Within a size the order may
        differ: each instance of one enumeration has its own conclusion, so
        the search's first record for a conclusion does not depend on it."""
        bounds = SearchBounds(max_candidates=4, max_size=10)
        calcs = [load_preset(logic).calculus for logic in ("CPL", "G3", "IPL", "S43", "GL")] \
            + [_meet_calculus(*pair)[1] for pair in MEET_PAIRS]
        kept = dropped = 0
        for calc in calcs:
            sig = calc.signature
            rng = random.Random(f"sizes:{calc.name}")
            candidates = _candidate_pool(calc, [], random_formula(rng, sig, 3, 2), bounds)
            groups = calculus._by_size(candidates)
            for rule in calc.rules:
                rule_vars = sorted(variables_of(rule.conclusion).union(*map(variables_of, rule.premises)))
                conclusion_vars = sorted(variables_of(rule.conclusion))
                build, text = rule.instantiator
                for _ in range(3):
                    # a search binds the premises' variables; any subset shows the sizing
                    subst = {v: random_formula(rng, sig, 2, 3) for v in rule_vars if rng.random() < 0.5}
                    buckets: dict = {}
                    calculus._file(rule, subst, (), groups, bounds.max_size, buckets)
                    want: dict = {}
                    unbound = sorted(variables_of(rule.conclusion) - set(subst))
                    for values in itertools.product(candidates, repeat=len(unbound)):
                        full = {**subst, **dict(zip(unbound, values))}
                        concl = apply_substitution(full, rule.conclusion)
                        if concl.size <= bounds.max_size:
                            want.setdefault(concl.size, []).append((concl, full))
                        else:
                            dropped += 1
                    got: dict = {}
                    for size, records in buckets.items():
                        for _, _, r, images, shared in records:
                            assert r is rule and shared is subst, rule
                            full = {**subst, **dict(zip(conclusion_vars, images))}
                            concl = build(*images)
                            assert text(*map(print_formula, images)) == print_formula(concl), rule
                            got.setdefault(size, []).append((concl, full))
                    assert got.keys() == want.keys(), rule
                    for size, entries in got.items():
                        entries.sort(key=lambda e: print_formula(e[0]))
                        want[size].sort(key=lambda e: print_formula(e[0]))
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
                assert all(proj_embedded(f, k, cs, {}).size == f.size for k in (1, 2)), print_formula(f)

    def test_no_unreached_size_is_built(self, monkeypatch):
        """A round stopping at the goal or the fact cap builds no conclusion
        larger than the size it stopped in, the size of the last fact added
        (every added fact passes through `proj_embedded` for its cLFT
        images). The rounds run directly, as the meet's axiom lookup answers
        the axiom goal under some of these bounds without a round."""
        built: list = []
        added: list = []
        hook_instantiators(monkeypatch, built)

        def pe(f, k, cs, memo):
            added.append(f.size)
            return proj_embedded(f, k, cs, memo)

        monkeypatch.setattr(calculus, "proj_embedded", pe)
        cases = 0
        for calc, hyps, goal, bounds in _stop_queries():
            if bounds.max_facts in (215, 216, 700) or bounds.max_size == 5:
                built.clear()
                added.clear()
                calculus._rounds(calc, (), hyps, goal, _candidate_pool(calc, hyps, goal, bounds), bounds)
                assert built, (print_formula(goal), bounds)
                assert max(built) == added[-1] == 5, (print_formula(goal), bounds)
                cases += 1
        assert cases == 8

    def test_goal_over_max_size_builds_nothing(self, monkeypatch):
        """A goal larger than `max_size` can never be a fact, so the search
        returns before round 0, with basis rules in `extra` too."""
        built: list = []
        hook_instantiators(monkeypatch, built)
        ipl = load_preset("IPL")
        for rule in ipl.basis.rules[1:]:  # visser2 and visser3: 41 and 71 nodes
            assert rule.conclusion.size > SearchBounds().max_size
            assert bounded_proof_search(ipl.calculus, ipl.basis.rules, rule.premises, rule.conclusion) is None
        assert built == []
        # the hook sees the builds of a search that starts
        first = ipl.basis.rules[0]
        bounded_proof_search(ipl.calculus, ipl.basis.rules, first.premises, first.conclusion)
        assert built

    def test_one_match_per_joint_match(self, monkeypatch):
        """Bound premises are tested on the candidate fact before it is
        matched, so on the meet calculi every `match_formula` call of a
        search is a joint premise match: one that `_file` gets."""
        calls = {"match": 0, "joint": 0}

        def match(*args):
            calls["match"] += 1
            return match_formula(*args)

        real = calculus._file

        def file(rule, *args):
            calls["joint"] += bool(rule.premises)
            return real(rule, *args)

        monkeypatch.setattr(calculus, "match_formula", match)
        monkeypatch.setattr(calculus, "_file", file)
        queries = itertools.chain(*(_meet_queries(*pair) for pair in MEET_PAIRS), _stop_queries())
        for calc, hyps, goal, bounds in queries:
            _unlifted(calc, (), hyps, goal, bounds)
        assert calls["joint"] > 1000 and calls["match"] == calls["joint"]

    def test_rule_instance_kept_over_lft_of_the_same_formula(self):
        """A goal that is both a rule conclusion and an LFT target in one
        size keeps the rule instance, which was made first."""
        cs, calc = _meet_calculus("CPL", "G3")
        goal = parse_formula("<->.CPL|->.G3>(xi1, xi1)", cs)
        halves = tuple(proj_embedded(goal, k, cs, {}) for k in (1, 2))
        calc = Calculus(calc.name, cs, calc.rules + (Rule("join", halves, goal),))
        query = (calc, list(halves), goal, SearchBounds(max_facts=700))
        _assert_same_as_reference([query])
        d = bounded_proof_search(calc, (), *query[1:])
        assert d.lines[-1].just == RuleApp("join", (1, 2), ((1, Var(1)),))


# ---------------------------------------------------------------------------
# the test in the calculus's sound matrices before round 0

def _models_free(calc):
    """The same calculus with no models: the search without the matrix test."""
    return Calculus(calc.name, calc.signature, calc.rules)


def _refutation_queries():
    """Seeded goals with and without hypotheses over the component presets
    and the meet pairs, and on the meets the consistency-guard goals."""
    calcs = [load_preset(logic, max_worlds=2).calculus for logic in ("CPL", "G3", "IPL", "S43", "GL")] \
        + [_meet_calculus(*pair)[1] for pair in MEET_PAIRS]
    for calc in calcs:
        sig = calc.signature
        meet = isinstance(sig, CombinedSignature)
        imp = sig.resolve_pair("->", sig.tag1, "->", sig.tag2, 2) if meet else sig.resolve("->", None, 2)
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

    def test_same_results_as_without_models(self, monkeypatch):
        """The models test itself answers only meet searches here, as the
        goal-directed pass answers every component one first."""
        refuted = found = lifted = answered = 0
        tests: list = []  # the models test's answers in one search
        real = calculus._refuted
        monkeypatch.setattr(calculus, "_refuted", lambda *args: tests.append(real(*args)) or tests[-1])
        for calc, hyps, goal, bounds in _refutation_queries():
            assert calc.models
            tests.clear()
            got = _unlifted(calc, (), hyps, goal, bounds)
            if True in tests:
                assert calc.components and got is None
                answered += 1
            want = _unlifted(_models_free(calc), (), hyps, goal, bounds)
            assert _text(got) == _text(want), \
                f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
            refuted += not entails(calc.models, hyps, goal)
            if got is not None:
                found += 1
                assert entails(calc.models, hyps, got.conclusion)
            if _lft_only(calc, hyps, goal):  # any other goal's search is the forward search
                public = _assert_public_keeps(calc, hyps, goal, bounds, got)
                lifted += public is not None and got is None
                assert public is None or entails(calc.models, hyps, public.conclusion)
        assert refuted > 50 and found > 10 and lifted >= 12 and answered >= 60, (refuted, found, lifted, answered)

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
        odd = Matrix("odd", sig, bool2.carrier, bool2.designated, {**bool2.tables, sig.verum_at(1): [0, 0]})
        identity = (Rule("id", (Var(1),), Var(1)),)
        c1, c2 = Calculus("A", sig, identity, matrices=(bool2,)), Calculus("B", sig, identity, matrices=(odd,))
        calc = assemble_meet_calculus(c1, c2, CS)
        assert "models" not in calc.__dict__
        assert c2.models == (odd,) and calc.models == ()
        hyp = PM("<neg.CPL1|neg.CPL2>(xi1)")
        goal = proj_embedded(hyp, 1, CS, {})
        product = product_matrix(bool2, odd, CS)
        assert all(check_rule_soundness([product], r) for r in calc.rules)
        assert bounded_proof_search(calc, (), [hyp], goal, SearchBounds(depth=1)) is not None
        assert not entails([product], [hyp], goal)


MODAL_MEETS = (("IPL", "S43"), ("IPL", "GL"), ("S43", "GL"))


class TestMeetModels:
    """A meet's model is the product of each side's first sound matrix,
    found without checking the side's later matrices."""

    @pytest.mark.parametrize("pair", MODAL_MEETS, ids="x".join)
    def test_product_same_at_2_and_5_worlds(self, pair):
        products = [combine_bundles(*(load_preset(logic, max_worlds=n) for logic in pair)).calculus.models
                    for n in (2, 5)]
        assert len(products[0]) == 1 and products[0] == products[1]
        assert products[0][0].factors == products[1][0].factors

    def test_5_worlds_under_a_tenth_of_a_second(self):
        """Best of three fresh meets per pair. Each side's `models` is
        dropped first, so that no earlier check of every matrix is read."""
        for pair in MODAL_MEETS:
            bundles = [load_preset(logic, max_worlds=5) for logic in pair]
            times = []
            for _ in range(3):
                for b in bundles:
                    b.calculus.__dict__.pop("models", None)
                start = time.perf_counter()
                assert len(combine_bundles.__wrapped__(*bundles).calculus.models) == 1
                times.append(time.perf_counter() - start)
            assert min(times) < 0.1, (pair, times)


# ---------------------------------------------------------------------------
# the lifted phase against the forward search

PRESETS = ("CPL", "G3", "IPL", "S43", "GL")
LIFTED_BOUNDS = SearchBounds(depth=3, max_size=8, max_facts=3000, max_candidates=3)


def _lifted_queries():
    """Seeded meet goals with 0-2 hypotheses over all 25 ordered preset
    pairs: four shapes whose head pairs two constructors outside the verum
    family, and two that only look alike, an embedded goal and a goal that
    is a hypothesis."""
    for l1, l2 in itertools.product(PRESETS, repeat=2):
        calc = combine_bundles(load_preset(l1), load_preset(l2)).calculus
        cs = calc.signature
        imp, conj, disj = (cs.resolve_pair(n, cs.tag1, n, cs.tag2, 2) for n in ("->", "and", "or"))
        rng = random.Random(f"lifted:{l1}:{l2}")
        for k in (1, 2):
            a, c = random_formula(rng, cs, 1, 2), random_formula(rng, cs, 1, 2)
            for hyps, goal in (([], App(imp, (a, a))), ([a], App(disj, (a, c))), ([a, c], App(conj, (a, c))),
                               ([a, App(imp, (a, c))], App(disj, (c, c))),
                               ([], proj_embedded(App(imp, (a, a)), k, cs, {})),
                               ([App(conj, (a, c))], App(conj, (a, c)))):
                yield calc, hyps, goal


class TestLiftedPhaseLosesNothing:
    """Searching a goal that only LFT can conclude projection first loses
    no goal that the forward search finds, returns only derivations that
    pass the checker and that the meet's models bear out, and changes no
    other goal's result."""

    def test_all_preset_pairs(self):
        lifted = kept = other = 0
        for calc, hyps, goal in _lifted_queries():
            forward = _unlifted(calc, (), hyps, goal, LIFTED_BOUNDS)
            got = _assert_public_keeps(calc, hyps, goal, LIFTED_BOUNDS, forward)
            if got is not None and calc.models:
                assert entails(calc.models, hyps, got.conclusion)
            if _lft_only(calc, hyps, goal):
                lifted += got is not None and forward is None
                kept += forward is not None
            else:
                other += 1
        assert lifted >= 8 and kept >= 12 and other == 100

    def test_lifted_heads(self):
        """CPL x CPL: the pairs of `bot`, `neg` and the four binary
        connectives, also where no rule concludes a pair with a verum-family
        side (no rule is liberal in `k`); a rule concluding a pair takes it
        out, and a calculus without components, or with a rule concluding a
        bare variable, has none."""
        heads = MEET.lifted_heads
        assert len(heads) == 1 + 1 + 4 * 4
        k = Calculus("K", CPL.signature, (rule_named(CPL.calculus, "a1"),))
        assert assemble_meet_calculus(k, k, CS).lifted_heads == heads
        assert CS.bot.ctor in heads and PM("<->.CPL1|and.CPL2>(xi1, xi1)").ctor in heads
        assert CS.top.ctor not in heads and PM("xi1 ->.CPL1 xi1").ctor not in heads
        goal = PM("<->.CPL1|->.CPL2>(xi1, xi1)")
        halves = tuple(proj_embedded(goal, k, CS, {}) for k in (1, 2))
        joined = Calculus("J", CS, MEET.rules + (Rule("join", halves, goal),), components=MEET.components)
        assert joined.lifted_heads == heads - {goal.ctor}
        liberal = Calculus("L", CS, MEET.rules + (Rule("id", (Var(1),), Var(1)),), components=MEET.components)
        assert CPL.calculus.lifted_heads == _models_free(MEET).lifted_heads == liberal.lifted_heads == frozenset()

    def test_falls_back_when_a_line_cannot_be_inherited(self, monkeypatch):
        """Each side's search reaches `xi1 or xi1` first through `xi1`, a
        bare variable that no meet rule concludes, so the template raises
        `BuilderError`; the rounds then find the goal through `join`."""
        lifted: list = []
        real = calculus._lifted

        def spy(*args):
            lifted.append((yield from real(*args)))
            return lifted[-1]

        monkeypatch.setattr(calculus, "_lifted", spy)
        rules = (Rule("proj", (P("xi1 and xi2"),), P("xi1")), Rule("intro", (P("xi1"),), P("xi1 or xi1")),
                 Rule("pair", (P("xi1 and xi2"),), P("xi1 and xi1")), Rule("join", (P("xi1 and xi1"),), P("xi1 or xi1")))
        comp = Calculus("C", CPL.signature, rules)
        calc = assemble_meet_calculus(comp, comp, CS)
        hyps, goal = [PM("<and.CPL1|and.CPL2>(xi1, xi2)")], PM("<or.CPL1|or.CPL2>(xi1, xi1)")
        bounds = SearchBounds(depth=3)
        sides = [bounded_proof_search(comp, (), [project(hyps[0], k)], project(goal, k), bounds) for k in (1, 2)]
        assert all(d.lines[1] == Line(P("xi1"), RuleApp("proj", (1,), ((1, Var(1)), (2, Var(2))))) for d in sides)
        with pytest.raises(BuilderError):
            build_both_admissible_derivation(hyps, goal, *sides, calc, CPL, CPL2)
        d = bounded_proof_search(calc, (), hyps, goal, bounds)
        assert lifted == [None]
        assert d == _unlifted(calc, (), hyps, goal, bounds)
        assert check_derivation(d, calc, hyps=hyps) and isinstance(d.lines[-1].just, Lft)


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
        mp = rule_named(CPL.calculus, "mp")
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


# ---------------------------------------------------------------------------
# each rule's compiled instantiator against the reference substitution

def _instantiator_rule_sets():
    """(signature, rules): the preset calculi, the meet calculi, the Visser
    and GL bases, and the Harrop rule."""
    for logic in ("CPL", "G3", "IPL", "S43", "GL"):
        b = load_preset(logic)
        yield b.signature, b.calculus.rules
    for pair in MEET_PAIRS:
        cs, calc = _meet_calculus(*pair)
        yield cs, calc.rules
    ipl, gl = load_preset("IPL").signature, load_preset("GL").signature
    yield ipl, tuple(visser_rule(ipl, n) for n in (1, 2, 3)) + (harrop_rule(ipl),)
    yield gl, tuple(gl_basis_rule(gl, n) for n in (1, 2, 3))


def _deep_rule(sig, depth):
    """A made-up axiom whose conclusion is `depth` levels deep: a chain of
    the signature's constructors over `xi1`. Each other argument is a
    constant or a variable-free formula, and every 1,000th is `xi2` or `xi3`."""
    rng = random.Random(f"deep-rule:{sig.tag}")
    ctors = [c for c in sig.all_ctors() if c.arity]
    ground = [sig.top, sig.bot] + [App(c, (sig.bot,) * c.arity) for c in ctors]
    f = Var(1)
    for level in range(1, depth + 1):
        c = rng.choice(ctors)
        args = [Var(2 + level // 1000 % 2) if level % 1000 == 0 else rng.choice(ground) for _ in range(c.arity)]
        args[rng.randrange(c.arity)] = f
        f = App(c, tuple(args))
    return Rule("deep", (), f)


def _deep_image(sig, depth):
    unary = next(c for c in sig.all_ctors() if c.arity == 1)
    f = sig.bot
    for _ in range(depth):
        f = App(unary, (f,))
    return f


class TestInstantiatorMatchesReference:
    """A rule's `build` returns the very node that the reference
    substitution makes of its conclusion, and its `text` that node's text.
    The images are seeded: variables, constants, formulas at random and, in
    one tuple per rule, a formula 10,000 levels deep."""

    def _check(self, rule, sig, rng, tuples, deep):
        build, text = rule.instantiator
        variables = sorted(variables_of(rule.conclusion))
        nullary = [App(c) for c in sig.all_ctors() if not c.arity]
        draws = (lambda: Var(rng.randint(1, 4)), lambda: rng.choice(nullary), lambda: random_formula(rng, sig, 3))
        for k in range(tuples):
            images = [rng.choice(draws)() for _ in variables]
            if k == 0 and images:
                images[rng.randrange(len(images))] = deep
            want = ref_apply_substitution(dict(zip(variables, images)), rule.conclusion)
            assert build(*images) is want, rule.name
            assert text(*map(print_formula, images)) == print_formula(want), rule.name

    def test_rules_of_calculi_and_bases(self):
        rules = 0
        for sig, rule_set in _instantiator_rule_sets():
            deep = _deep_image(sig, 10_000)
            for rule in rule_set:
                self._check(rule, sig, random.Random(f"instantiator:{rule.name}"), 8, deep)
                rules += 1
        assert rules > 250

    def test_conclusion_5000_levels_deep(self):
        sig = CPL.signature
        rule = _deep_rule(sig, 5000)
        assert variables_of(rule.conclusion) == {1, 2, 3}
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 6000)  # the reference recurses once per level
        try:
            self._check(rule, sig, random.Random("instantiator:deep"), 4, _deep_image(sig, 10_000))
        finally:
            sys.setrecursionlimit(limit)


class TestLongDerivations:
    def test_1200_step_mp_chain(self):
        """The search rebuilds a derivation of any length: 1,200 `mp` steps,
        one per round."""
        n = 1200
        hyps = [P("xi1")] + [P(f"xi{i} -> xi{i + 1}") for i in range(1, n)]
        d = bounded_proof_search(CPL.calculus, (), hyps, P(f"xi{n}"),
                                 SearchBounds(depth=n + 5, max_facts=200_000, max_candidates=0))
        assert d is not None and len(d) == 2 * n - 1
        assert check_derivation(d, CPL.calculus, hyps=hyps)
        assert [ln.just for ln in d.lines[:3]] == [Hyp(), Hyp(), RuleApp("mp", (1, 2), ((1, Var(1)), (2, Var(2))))]


# ---------------------------------------------------------------------------
# the checker's instance comparison against building the instance

def _old_instance_is(s, pattern, f):
    """The checker's comparison before the walk: build, then compare."""
    return apply_substitution(s, pattern) == f


def _draw(rng, sig):
    nullary = [App(c) for c in sig.all_ctors() if not c.arity]
    return rng.choice((lambda: Var(rng.randint(1, 4)), lambda: rng.choice(nullary),
                       lambda: random_formula(rng, sig, 3)))()


def _mutants(rng, sig, s, pattern, f):
    """Formulas near f: a formula at random, the instance under one image
    changed, the instance with an unbound variable bound, the pattern
    itself, and f with one argument of a node replaced."""
    yield random_formula(rng, sig, 3)
    variables = sorted(variables_of(pattern))
    for v in variables:
        yield apply_substitution({**s, v: _draw(rng, sig)}, pattern)
        if v not in s:
            yield apply_substitution({**s, v: Var(v + 1)}, pattern)
    yield pattern
    if f.__class__ is App and f.args:
        args = list(f.args)
        args[rng.randrange(len(args))] = _draw(rng, sig)
        yield App(f.ctor, tuple(args))


class TestInstanceComparisonMatchesApply:
    """`check_derivation` compares a rule's premises and conclusion with the
    cited lines by walking them side by side; the walk says what comparing
    with `apply_substitution`'s instance said, an unbound variable standing
    for itself."""

    def test_seeded_rule_substitution_formula_triples(self):
        same = differ = 0
        for sig, rule_set in _instantiator_rule_sets():
            for rule in rule_set:
                rng = random.Random(f"instance-is:{rule.name}")
                for pattern in rule.premises + (rule.conclusion,):
                    for _ in range(3):
                        s = {v: _draw(rng, sig) for v in variables_of(pattern) if rng.random() < 0.8}
                        f = apply_substitution(s, pattern)
                        for g in (f, *_mutants(rng, sig, s, pattern, f)):
                            want = _old_instance_is(s, pattern, g)
                            assert calculus._instance_is(s, pattern, g) == want, (rule.name, s, print_formula(g))
                            same += want
                            differ += not want
        assert same > 1000 and differ > 3000

    def test_10000_levels_deep_and_shared(self):
        sig = CPL.signature
        deep = _deep_rule(sig, 10_000).conclusion
        rng = random.Random("instance-is:deep")
        s = {1: _deep_image(sig, 10_000), 2: P("xi2 -> xi1")}  # xi3 stays unbound
        f = apply_substitution(s, deep)
        assert calculus._instance_is(s, deep, f)
        for g in _mutants(rng, sig, s, deep, f):
            assert calculus._instance_is(s, deep, g) == (apply_substitution(s, deep) == g)
        conj = CPL.signature.resolve("and", None, 2)
        tower = Var(1)
        for _ in range(64):  # 2**65 - 1 occurrences, 65 distinct nodes
            tower = App(conj, (tower, tower))
        image = apply_substitution({1: P("bot")}, tower)
        assert calculus._instance_is({1: P("bot")}, tower, image)
        assert not calculus._instance_is({1: P("top")}, tower, image)

    def test_verdicts_unchanged(self, monkeypatch):
        """Verdicts, failing lines and reasons on searched derivations and
        on their mutants: a line's formula or a witness image swapped."""
        verdicts = rejected = 0
        queries = itertools.chain(*map(_component_queries, ("CPL", "G3", "IPL")))
        for calc, hyps, goal, bounds in queries:
            d = bounded_proof_search(calc, (), hyps, goal, bounds)
            if d is None:
                continue
            rng = random.Random(f"verdicts:{print_formula(goal)}:{bounds}")
            sig = calc.signature
            lines = list(d.lines)
            variants = [d]
            for _ in range(4):
                k = rng.randrange(len(lines))
                ln = lines[k]
                mutated = Line(_draw(rng, sig), ln.just)
                if isinstance(ln.just, RuleApp) and ln.just.subst and rng.random() < 0.5:
                    (v, _), *rest = ln.just.subst
                    mutated = Line(ln.formula, RuleApp(ln.just.rule, ln.just.cites,
                                                       freeze_subst({v: _draw(rng, sig), **dict(rest)})))
                variants.append(Derivation(tuple(lines[:k] + [mutated] + lines[k + 1:])))
            for v in variants:
                got = check_derivation(v, calc, hyps=hyps)
                with monkeypatch.context() as m:
                    m.setattr(calculus, "_instance_is", _old_instance_is)
                    want = check_derivation(v, calc, hyps=hyps)
                assert (got.ok, got.line, got.reason) == (want.ok, want.line, want.reason)
                verdicts += 1
                rejected += not got.ok
        assert verdicts > 100 and rejected > 50


# ---------------------------------------------------------------------------
# goal-directed round one against the forward search and the naive loop

def _cap_bound(calc, hyps, goal, bounds):
    """F0 times one plus the number of proper rules, with F0 the admitted
    hypotheses and the records round 0 makes, counted by making them: a cap
    under which the rounds may stop before round 1 ends."""
    candidates = _candidate_pool(calc, hyps, goal, bounds)
    hyps = [h for h in dict.fromkeys(hyps) if h.size <= bounds.max_size]
    proper = [r for r in calc.rules if r.premises]
    buckets: dict = {}
    for rule in calc.rules:
        if not rule.premises:
            _bucket_instances(rule, {}, (), candidates, bounds.max_size, buckets)
    every = (hyps, {}, {}, set(hyps))
    new = _index(hyps, {_arg_key(p) for r in proper for p in r.premises}, every)
    for rule in proper:
        for subst, cited in _join(rule, every, new):
            _bucket_instances(rule, subst, cited, candidates, bounds.max_size, buckets)
    return (len(hyps) + sum(map(len, buckets.values()))) * (1 + len(proper))


def _round_one_queries():
    """Seeded component searches over the five presets: `a or c` from `a`,
    ex falso from `bot`, `c` from `a` and `a -> c`, an axiom instance `k` from
    `a` and `a -> k` (two goals that round 0 reaches), `box a` from `a` (through
    `nec`), and goals at random, at depths 1 to 4, at two size and pool
    bounds (the golden queries have the default ones), under caps on both
    sides of `_cap_bound` and a low one."""
    for logic in ("CPL", "G3", "IPL", "S43", "GL"):
        b = load_preset(logic, max_worlds=2)
        sig = b.signature
        imp, disj = sig.resolve("->", None, 2), sig.resolve("or", None, 2)
        rng = random.Random(f"round-one:{logic}")
        for depth in (1, 2, 3, 4):
            a, c = random_formula(rng, sig, 1, 2), random_formula(rng, sig, 1, 2)
            k = App(imp, (a, App(imp, (c, a))))  # an instance of the axiom K, which round 0 adds
            shapes = [([a], App(disj, (a, c))), ([sig.bot], c), ([a, App(imp, (a, c))], c), ([a, App(imp, (a, k))], k),
                      ([], random_formula(rng, sig, 2, 2)), ([a], random_formula(rng, sig, 2, 2))]
            if sig.has("box", 1):
                shapes.append(([a], App(sig.resolve("box", None, 1), (a,))))
            for hyps, goal in shapes:
                for bounds in (SearchBounds(depth, 12, 3000, 10), SearchBounds(depth, 10, 3000, 6))[:depth]:
                    cap = _cap_bound(b.calculus, hyps, goal, bounds)
                    for max_facts in (cap, cap + 1, 50)[:3 if bounds.max_size == 12 else 2]:
                        yield b.calculus, hyps, goal, SearchBounds(depth, bounds.max_size, max_facts,
                                                                   bounds.max_candidates)


def _three_ways(monkeypatch, calc, hyps, goal, bounds, seconds=None):
    """The search without the lifted phase, the same with the pass switched
    off by its one-step test, and the naive loop, as texts; and the pass's
    answers during the search. When `seconds` is a list, `_round_two`'s
    answers are appended to it. See `_assert_pass_keeps` for how the three
    compare."""
    answers: list = []
    real, real_two = calculus._round_one, calculus._round_two
    with monkeypatch.context() as m:
        m.setattr(calculus, "_round_one", lambda *args: answers.append(real(*args)) or answers[-1])
        if seconds is not None:
            m.setattr(calculus, "_round_two", lambda *args: seconds.append(real_two(*args)) or seconds[-1])
        got = _unlifted(calc, (), hyps, goal, bounds)
    with monkeypatch.context() as m:
        m.setattr(calculus, "_one_step", lambda rules: False)
        forward = _unlifted(calc, (), hyps, goal, bounds)
    want = _reference_search(calc, hyps, goal, bounds)
    return (_text(got), _text(forward), _text(want)), answers


def _assert_pass_keeps(texts, calc, hyps, goal, bounds):
    """`_three_ways`' texts compare so: the rounds equal the naive loop, and
    the search with the pass equals them where they find the goal, else
    finds nothing or the naive loop's derivation without the fact cap."""
    where = f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
    assert texts[1] == texts[2], where
    if texts[0] != texts[1]:
        assert texts[1] is None and texts[0] == _text(_reference_search(calc, hyps, goal, _uncapped(bounds))), where


class TestRoundOneMatchesForward:
    """The goal-directed pass answers when the forward search without the
    fact cap adds the goal in round 0, 1 or 2, with the derivation that
    search returns, and None when it does not."""

    def _assert_same(self, monkeypatch, queries) -> Counter:
        """Counts of the searches, of those the pass answered, of those it
        answered in round 2, of those it answered None, and of the goals
        found."""
        n = Counter()
        for calc, hyps, goal, bounds in queries:
            seconds: list = []
            texts, answers = _three_ways(monkeypatch, calc, hyps, goal, bounds, seconds)
            _assert_pass_keeps(texts, calc, hyps, goal, bounds)
            n.update(searched=1, answered=bool(answers), second=bool(seconds), absent=any(a is None for a in answers),
                     found=texts[0] is not None)
        return n

    def test_golden_queries(self, monkeypatch):
        """Round 2 adds the goals `a -> a`, and `a and c` from `a` and `c`."""
        n = self._assert_same(monkeypatch, golden.queries())
        assert n["searched"] == 77 and n["answered"] >= 20 and n["second"] >= 40

    def test_seeded_searches(self, monkeypatch):
        """The floors are the counts measured with the pass answering at
        every `depth` from 1, goals that round 0 adds included: it answers
        every search but those of the 4 goals over `max_size`."""
        n = self._assert_same(monkeypatch, _round_one_queries())
        assert n["searched"] == 576 and n["found"] >= 369 and n["answered"] >= 572 and n["absent"] >= 203, n

    def test_runs_on_components_at_depth_1_and_with_extra(self, monkeypatch):
        """The pass answers a component search at `depth` 1, and one with
        rules in `extra`, which it matches like the calculus's own; it does
        not run on a meet, nor at `depth` 0."""
        calls: list = []
        real = calculus._round_one
        monkeypatch.setattr(calculus, "_round_one", lambda *args: calls.append(real(*args)) or calls[-1])
        a, goal = P("xi1"), P("xi1 or xi2")
        assert bounded_proof_search(CPL.calculus, (), [a], goal, SearchBounds(depth=2)) is not None
        assert bounded_proof_search(CPL.calculus, (), [a], goal, SearchBounds(depth=1)) is None
        assert bounded_proof_search(CPL.calculus, (Rule("id", (P("xi1"),), P("xi1")),), [a], goal) is not None
        assert isinstance(calls[0], Derivation) and calls[1] is None and isinstance(calls[2], Derivation)
        calls.clear()
        bounded_proof_search(CPL.calculus, (), [a], goal, SearchBounds(depth=0))
        bounded_proof_search(MEET, (), [PM("xi1")], PM("xi1 ->.CPL1 (xi2 ->.CPL1 xi1)"))
        assert calls == []

    def test_leaves_multi_step_rules_to_the_rounds(self, monkeypatch):
        """`andi`'s plan has two steps, as neither premise holds the other's
        variable, so the pass does not run, and the rounds answer as the
        naive loop does."""
        calc = _hand_calculus("two-step", [("andi", ["xi1", "xi2"], "xi1 and xi2"), ("t", [], "top")])
        calls: list = []
        real = calculus._rounds
        monkeypatch.setattr(calculus, "_round_one", lambda *args: calls.append("pass"))
        monkeypatch.setattr(calculus, "_rounds", lambda *args: calls.append("rounds") or real(*args))
        hyps, bounds = [P("xi1"), P("xi2")], SearchBounds(depth=2)
        for goal in ("xi1 and xi2", "xi2 and (top and xi1)", "xi1 and xi1"):
            calls.clear()
            d = bounded_proof_search(calc, (), hyps, P(goal), bounds)
            assert calls == ["rounds"] and _text(d) == _text(_reference_search(calc, hyps, P(goal), bounds)), goal
            assert d is None or check_derivation(d, calc, hyps=hyps)

    def test_answers_on_both_sides_of_the_cap_bound(self):
        """Under a fact cap at `_cap_bound` and one over it, the pass answers
        with one derivation: the cap never changes what it finds."""
        a, goal = P("xi1"), P("xi1 or xi2")
        for bounds in (SearchBounds(depth=2), SearchBounds(depth=3, max_size=10, max_candidates=6)):
            cap = _cap_bound(CPL.calculus, [a], goal, bounds)
            candidates = _candidate_pool(CPL.calculus, [a], goal, bounds)
            got = [calculus._round_one(CPL.calculus.rules, [a], goal, candidates,
                                       SearchBounds(bounds.depth, bounds.max_size, n, bounds.max_candidates))
                   for n in (cap, cap + 1)]
            assert got[0] is not None and _text(got[0]) == _text(got[1])

    def test_answers_none_when_no_round_adds_the_goal(self, monkeypatch):
        """Round 0 adds the axiom instance `xi1 -> (xi1 -> xi1)`, which the
        pass answers at `depth` 1 with round 0's record; round 1 adds `xi1 or
        xi2`. At `depth` 1 the lookup decides round 0, and at `depth` 2 the
        backward match decides round 1, so a goal neither finds is answered
        None, with no models test and no round."""
        tried: list = []
        monkeypatch.setattr(calculus, "_refuted", lambda *args: tried.append(args) or False)
        monkeypatch.setattr(calculus, "_rounds", lambda *args: tried.append(args))
        a = P("xi1")
        for depth, goal, answer in ((1, "xi2", False), (1, "xi1 -> (xi1 -> xi1)", True), (1, "xi1 or xi2", False),
                                    (2, "xi2", False), (2, "xi1 -> (xi1 -> xi1)", True), (2, "xi1 or xi2", True)):
            goal, bounds = P(goal), SearchBounds(depth=depth)
            got = calculus._round_one(CPL.calculus.rules, [a], goal, _candidate_pool(CPL.calculus, [a], goal, bounds),
                                      bounds)
            assert isinstance(got, Derivation) if answer else got is None, (depth, print_formula(goal))
            assert _text(bounded_proof_search(CPL.calculus, (), [a], goal, bounds)) == _text(got)
        assert tried == []


def _hand_calculus(name, rules):
    """A calculus over CPL's signature with the rules given as
    (name, premise texts, conclusion text)."""
    return Calculus(name, CPL.signature, tuple(Rule(n, tuple(map(P, ps)), P(c)) for n, ps, c in rules))


# `r` has a one-step plan. At size 3 the pass finds two matches of its
# premise `xi1 or xi2` under the goal `xi2 := xi1`, made top first but
# printed `or(bot, xi1)` first; `wide` makes a third match at size 5.
LEAST_TEXT = _hand_calculus("least-text", [
    ("r", ["xi1 or xi2"], "xi2"), ("top-or", [], "top or xi1"), ("bot-or", [], "bot or xi1"),
    ("wide", [], "(top and top) or xi1")])
# `mp`'s premise `xi1 -> xi2` matches `bot -> xi1` at size 3, but `bot` is no
# fact; the only joint match is `(top and top) -> xi1` at size 5.
LARGER_SIZE = _hand_calculus("larger-size", [
    ("mp", ["xi1", "xi1 -> xi2"], "xi2"), ("bot-imp", [], "bot -> xi1"),
    ("top2-imp", [], "(top and top) -> xi1"), ("top2", [], "top and top")])


class TestRoundOneBySize:
    """The pass builds round 0's additions one size at a time and answers
    from the least text at the first size with a joint match."""

    @pytest.mark.parametrize("calc, first", [(LEAST_TEXT, "bot or xi1"), (LARGER_SIZE, "top and top")])
    def test_same_as_forward_and_naive(self, monkeypatch, calc, first):
        texts, answers = _three_ways(monkeypatch, calc, [], P("xi1"), SearchBounds(depth=3))
        assert texts[0] == texts[1] == texts[2]
        assert [a is not None for a in answers] == [True]
        assert texts[0].startswith(f"1. {print_formula(P(first))} ;")

    @pytest.mark.parametrize("calc, printed", [
        (LEAST_TEXT, {"or(bot, xi1)", "or(top, xi1)"}), (LARGER_SIZE, {"->(and(top, top), xi1)"})])
    def test_prints_only_the_matches_of_the_answering_size(self, monkeypatch, calc, printed):
        goal, bounds = P("xi1"), SearchBounds(depth=3)
        candidates = _candidate_pool(calc, [], goal, bounds)
        texts: list = []
        monkeypatch.setattr(calculus, "print_formula", lambda f: texts.append(print_formula(f)) or texts[-1])
        assert calculus._round_one(calc.rules, [], goal, candidates, bounds) is not None
        assert sorted(texts) == sorted(printed)


# ---------------------------------------------------------------------------
# goal-directed round two against the forward search and the naive loop

def _round_two_reference(calc, hyps, goal, bounds):
    """(count, round) from rounds 0 to 2 made with `_join` and no fact cap,
    and from round 3 when `depth` is 4 and no earlier round adds the goal.
    The count is the admitted hypotheses, the records of each round but the
    last made, and the last one's records no larger than the goal (a record
    per match, as every step holds its rule's conclusion's variables): a
    fact cap under which the rounds may stop before they add the goal.
    The round is the one that first holds the goal as a fact (0 for a
    hypothesis), or None when no round made adds it."""
    candidates = _candidate_pool(calc, hyps, goal, bounds)
    hyps = [h for h in dict.fromkeys(hyps) if h.size <= bounds.max_size]
    proper = [r for r in calc.rules if r.premises]
    order, facts = list(hyps), set(hyps)
    every = (order, {}, {}, facts)
    keys = {_arg_key(p) for r in proper for p in r.premises}
    new = _index(hyps, keys, every)
    count, added = len(hyps), 0 if goal in facts else None
    for n in range(bounds.depth):
        buckets: dict = {}
        for rule in calc.rules if n == 0 else ():
            if not rule.premises:
                _bucket_instances(rule, {}, (), candidates, bounds.max_size, buckets)
        for rule in proper:
            for subst, cited in _join(rule, every, new):
                _bucket_instances(rule, subst, cited, candidates, bounds.max_size, buckets)
        records = [record for records in buckets.values() for record in records]
        fresh = [f for f in dict.fromkeys(r[2].instantiator[0](*r[3]) for r in records) if f not in facts]
        if added is None and goal in fresh:
            added = n
        last = n == bounds.depth - 1 or n >= 2 and added is not None
        count += sum([len(rs) for size, rs in buckets.items() if not last or size <= goal.size])
        if last:
            break
        new = _index(fresh, keys, every)
        order += fresh
        facts.update(fresh)
    return count, added


def _round_two_queries():
    """Seeded component searches over the five presets: `a -> a` from
    nothing, as the benchmark's identity searches, `a and c` from `a` and
    `c`, and `c` from `a` and `a -> (a -> (a -> c))`, through round 0's
    join; at depth 3, the least the pass takes, under two size and pool
    bounds, and at the benchmark's depth 4 under the larger, where also
    `c` from `a` and `a -> (a -> (a -> (a -> c)))`, which round 3 adds
    first when the cap allows. Each runs at
    caps on both sides of that count, and comes with the count and the
    round that first adds the goal."""
    for logic in ("CPL", "G3", "IPL", "S43", "GL"):
        b = load_preset(logic, max_worlds=2)
        sig = b.signature
        imp, conj = sig.resolve("->", None, 2), sig.resolve("and", None, 2)
        rng = random.Random(f"round-two:{logic}")
        for depth in (3, 4):
            a, c = random_formula(rng, sig, 1, 2), random_formula(rng, sig, 1, 2)
            chain = App(imp, (a, App(imp, (a, App(imp, (a, c))))))
            longer = [([a, App(imp, (a, chain))], c)] if depth == 4 else []
            for hyps, goal in [([], App(imp, (a, a))), ([a, c], App(conj, (a, c))), ([a, chain], c)] + longer:
                for bounds in (SearchBounds(depth, 30, 3000, 8), SearchBounds(depth, 16, 3000, 6))[:5 - depth]:
                    count, added = _round_two_reference(b.calculus, hyps, goal, bounds)
                    for max_facts in (count, count + 1):
                        yield (b.calculus, hyps, goal,
                               SearchBounds(depth, bounds.max_size, max_facts, bounds.max_candidates), count, added)


MP = ("mp", ["xi1", "xi1 -> xi2"], "xi2")
# The goal `xi1` has two round-2 matches of size 3, both of round-1 steps:
# `top -> xi1`, from `kt`, the first axiom, and `bot -> xi1`, which prints
# first. `bot -> xi1` has two round-1 matches of size 5: `kt2`'s, from the
# earlier axiom, and `kb`'s, whose step prints first.
TIE_TEXT = _hand_calculus("tie-text", [
    MP, ("t", [], "top"), ("b", [], "bot"), ("kt", [], "top -> (top -> xi1)"),
    ("kt2", [], "top -> (bot -> xi1)"), ("kb", [], "bot -> (bot -> xi1)")])
# As TIE_TEXT, and `back` adds a round-0 step `(bot -> xi1) -> xi1` whose
# check is round 1's `bot -> xi1`: larger than the round-1 steps, but round
# 0's facts come first in the search's fact order.
ROUND_ZERO_FIRST = _hand_calculus("round-zero-first", [
    MP, ("t", [], "top"), ("b", [], "bot"), ("kt", [], "top -> (top -> xi1)"),
    ("kb", [], "bot -> (bot -> xi1)"), ("back", [], "(bot -> xi1) -> xi1")])
# `kt` concludes `top -> top` in round 1, which `id` made in round 0; the
# goal's round-2 match cites it, with `id`'s record.
CONCLUDED_BEFORE = _hand_calculus("concluded-before", [
    MP, ("t", [], "top"), ("id", [], "xi1 -> xi1"), ("kt", [], "top -> (xi1 -> xi1)"),
    ("kk", [], "top -> ((top -> top) -> xi1)")])
# `mp2` has two checks, and makes `(top -> top) -> xi1` in round 1. `nmp`'s
# step `(xi1 -> xi1) -> xi2` meets the conclusions of `k` and `kv` only at
# a variable, so their instances are built and matched: from the pool
# element `top -> top`, `kv` makes `(top -> top) -> top`, which matches.
CHECKS = _hand_calculus("checks", [
    ("mp2", ["xi1", "xi2", "xi1 -> (xi2 -> xi3)"], "xi3"), ("nmp", ["xi1", "(xi1 -> xi1) -> xi2"], "xi2"),
    ("t", [], "top"), ("k", [], "xi1 -> (xi2 -> xi1)"), ("kv", [], "xi1 -> top"),
    ("kt", [], "top -> (top -> ((top -> top) -> xi1))")])
# `r`'s premise has a variable that neither its check nor its conclusion
# holds. Round 2 concludes the goal `xi1` from round 1's `top or xi1`, which
# `kt` makes first, and from `bot or xi1`, which prints first: the rounds
# take the latter, so the pass keys each match by its step fact too.
UNCHECKED = _hand_calculus("unchecked", [
    MP, ("r", ["xi1 or xi2"], "xi2"), ("t", [], "top"), ("kt", [], "top -> (top or xi1)"),
    ("kb", [], "top -> (bot or xi1)")])
# As UNCHECKED, with the steps of the loose rule `l` axiom instances of round
# 0: round 1 concludes `xi1 -> xi1` from `a1`'s `top or xi1` and `a2`'s `bot
# or xi1`, and round 2 the goal `xi1 and xi1` from it.
LOOSE_AXIOM = _hand_calculus("loose-axiom", [
    ("l", ["xi1 or xi2"], "xi2 -> xi2"), ("w", ["xi1 -> xi1"], "xi1 and xi1"), ("a1", [], "top or xi1"),
    ("a2", [], "bot or xi1")])


class TestRoundTwoMatchesForward:
    """The goal-directed pass answers a goal that the rounds without the
    fact cap first add in round 2 or later with the derivation they return,
    line for line; it answers None, a definite "not found", when no round
    below `depth` adds the goal."""

    def test_seeded_searches(self, monkeypatch):
        """Each goal that a round from 2 on adds is answered at the cap
        `_round_two_reference` counts and at one more, with one derivation."""
        found = absent = at_cap = third = hits = 0
        by_logic = Counter()
        derivations: dict = {}  # a goal a round from 2 on adds -> the pass's texts under each cap
        for calc, hyps, goal, bounds, count, added in _round_two_queries():
            seconds: list = []
            texts, _ = _three_ways(monkeypatch, calc, hyps, goal, bounds, seconds)
            _assert_pass_keeps(texts, calc, hyps, goal, bounds)
            got = any(a is not None for a in seconds)  # a derivation
            none = any(a is None for a in seconds)
            if none:
                assert texts[1] is None and added is None, f"{calc.name}: {print_formula(goal)} at {bounds}"
            elif added in (2, 3) and seconds:
                assert got, f"{calc.name}: {print_formula(goal)} at {bounds}"
                key = calc.name, tuple(hyps), goal, bounds.depth, bounds.max_size, bounds.max_candidates
                derivations.setdefault(key, []).append(texts[0])
                at_cap += bounds.max_facts == count
                third += added == 3
            found += got
            absent += none
            by_logic[calc.name] += got
            hits += texts[0] is not None
        assert all(len(ts) == 2 and ts[0] == ts[1] for ts in derivations.values())
        assert hits >= 96 and found >= 84 and third >= 6 and absent >= 4 and at_cap >= 42, \
            (hits, found, third, absent, at_cap)
        assert min(by_logic.values()) >= 7, by_logic

    @pytest.mark.parametrize("calc, hyps, lines", [
        (TIE_TEXT, [], ["bot", "->(bot, ->(bot, xi1))", "->(bot, xi1)", "xi1"]),
        (ROUND_ZERO_FIRST, [], ["bot", "->(bot, ->(bot, xi1))", "->(bot, xi1)", "->(->(bot, xi1), xi1)", "xi1"]),
        (CONCLUDED_BEFORE, [], ["->(top, top)", "top", "->(top, ->(->(top, top), xi1))", "->(->(top, top), xi1)",
                                "xi1"]),
        (CHECKS, ["top -> top"], ["top", "->(top, ->(top, ->(->(top, top), xi1)))", "->(->(top, top), xi1)", "xi1"]),
    ])
    def test_hand_calculi(self, monkeypatch, calc, hyps, lines):
        hyps, bounds = [P(h) for h in hyps], SearchBounds(depth=3)
        seconds: list = []
        texts, answers = _three_ways(monkeypatch, calc, hyps, P("xi1"), bounds, seconds)
        assert texts[0] == texts[1] == texts[2]
        assert [a is not None for a in answers] == [True] and [a is not None for a in seconds] == [True]
        d = bounded_proof_search(calc, (), hyps, P("xi1"), bounds)
        assert [print_formula(ln.formula) for ln in d.lines] == lines
        assert check_derivation(d, calc, hyps=hyps)

    def test_round_three_takes_the_older_step(self, monkeypatch):
        """`xi5` has two round-3 matches: the step `xi4 -> xi5`, made in
        round 1 and kept by its check `xi4` until round 2 makes it, and the
        step `xi1 -> xi5` of round 2, which prints first. The rounds take
        the older step, as each fact's place follows its round."""
        hyps = [P(h) for h in ("xi1", "xi1 -> xi2", "xi2 -> xi3", "xi3 -> xi4", "xi2 -> (xi4 -> xi5)",
                               "xi3 -> (xi1 -> xi5)")]
        seconds: list = []
        texts, answers = _three_ways(monkeypatch, _hand_calculus("chain", [MP]), hyps, P("xi5"),
                                     SearchBounds(depth=4), seconds)
        assert texts[0] == texts[1] == texts[2]
        assert answers == seconds and isinstance(seconds[0], Derivation)
        assert texts[0].splitlines()[-1] == "10. xi5 ; RULE mp s={xi1:=xi4; xi2:=xi5} lines=7,9"

    def test_not_found_once_the_facts_reach_the_cap(self, monkeypatch):
        """From `iff(and(top, xi1), and(top, top))`, round 1 alone makes
        more than 200 facts, so under a cap of 200 the search stops without
        `iff(bot, xi2)`: the pass answers None before round 2, and builds
        as much at depth 7 as at depth 3."""
        hyps, goal = [P("iff(and(top, xi1), and(top, top))")], P("iff(bot, xi2)")
        seconds: list = []
        texts, _ = _three_ways(monkeypatch, CPL.calculus, hyps, goal, SearchBounds(depth=7, max_facts=200), seconds)
        assert texts == (None, None, None) and seconds == [None]
        built: list = []
        hook_instantiators(monkeypatch, built)
        counts = []
        for depth in (3, 7):
            built.clear()
            assert bounded_proof_search(CPL.calculus, (), hyps, goal, SearchBounds(depth, max_facts=200)) is None
            counts.append(len(built))
        assert counts[0] == counts[1] > 0, counts

    @pytest.mark.parametrize("calc, goal, lines", [
        (UNCHECKED, "xi1", ["top", "->(top, or(bot, xi1))", "or(bot, xi1)", "xi1"]),
        (LOOSE_AXIOM, "xi1 and xi1", ["or(bot, xi1)", "->(xi1, xi1)", "and(xi1, xi1)"]),
    ], ids=["unchecked", "loose-axiom"])
    def test_answers_when_a_premise_variable_is_unchecked(self, monkeypatch, calc, goal, lines):
        """The pass answers with the rounds' derivation, whose step is the
        `or` fact that prints first."""
        seconds: list = []
        texts, answers = _three_ways(monkeypatch, calc, [], P(goal), SearchBounds(depth=3), seconds)
        assert texts[0] == texts[1] == texts[2]
        assert answers == seconds and isinstance(seconds[0], Derivation)
        assert [print_formula(ln.formula) for ln in seconds[0].lines] == lines


class TestComponentSearchIsThePass:
    """At `depth` 1 or more, the goal-directed pass answers every seeded and
    golden search in a preset's component calculus, also with the preset's
    basis rules as `extra`: neither the models test nor the rounds run. This
    holds for S43's basis too, whose rule `s43b`, `dia xi1 and dia neg xi1 /
    bot`, has a premise variable that its conclusion lacks."""

    @pytest.mark.parametrize("with_basis", [False, True], ids=["calculus", "basis"])
    def test_no_models_test_and_no_rounds(self, monkeypatch, with_basis):
        queries = itertools.chain(*map(_component_queries, ("CPL", "G3", "IPL")), _round_one_queries(),
                                  [q[:4] for q in _round_two_queries()],
                                  [q for q in golden.queries() if not q[0].components])
        reached: list = []
        real_refuted, real_rounds = calculus._refuted, calculus._rounds
        monkeypatch.setattr(calculus, "_refuted", lambda *args: reached.append("models") or real_refuted(*args))
        monkeypatch.setattr(calculus, "_rounds", lambda *args: reached.append("rounds") or real_rounds(*args))
        searched = with_extra = 0
        for calc, hyps, goal, bounds in queries:
            assert bounds.depth >= 1 and not calc.components
            basis = load_preset(calc.name).basis
            extra = basis.rules if with_basis and basis else ()
            reached.clear()
            d = bounded_proof_search(calc, extra, hyps, goal, bounds)
            where = f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
            assert d is None or check_derivation(d, calc, extra, hyps), where
            assert reached == [], where
            searched += 1
            with_extra += bool(extra)
        assert searched == 144 + 576 + 100 + 72 and with_extra == (492 if with_basis else 0), with_extra

    def test_s43_basis_same_as_rounds(self):
        """The 90 seeded S43 searches at `depth` 3 and 4, with S43's basis:
        each answer is the rounds' derivation under the same bounds where
        they find the goal, else theirs without the fact cap, and passes the
        checker with the basis."""
        extra = load_preset("S43").basis.rules
        queries = [q for q in itertools.chain(_round_one_queries(), [q[:4] for q in _round_two_queries()])
                   if q[0].name == "S43" and q[3].depth >= 3]
        found = 0
        for calc, hyps, goal, bounds in queries:
            got = bounded_proof_search(calc, extra, hyps, goal, bounds)
            hyps, pool = list(dict.fromkeys(hyps)), _candidate_pool(calc, hyps, goal, bounds)
            want = calculus._rounds(calc, extra, hyps, goal, pool, bounds) or \
                calculus._rounds(calc, extra, hyps, goal, pool, _uncapped(bounds))
            where = f"{[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
            assert _text(got) == _text(want), where
            assert got is None or check_derivation(got, calc, extra, hyps), where
            found += got is not None
        assert len(queries) == 90 and found >= 70, (len(queries), found)


def _axiom_goal_queries():
    """Seeded meet goals that embed an instance of a component axiom, over
    all 25 ordered preset pairs: images drawn from variables and a small
    formula, and top-like ones (`top`, `bot`, a verum-family application);
    the same goal's verum image; without and with a hypothesis; in round 0
    under a size bound at the goal's size, with a fact cap that often lets
    it reach the goal and one that stops it first (only the latter with a
    hypothesis, where no lookup runs)."""
    for l1, l2 in itertools.product(PRESETS, repeat=2):
        calc = combine_bundles(load_preset(l1), load_preset(l2)).calculus
        cs = calc.signature
        rng = random.Random(f"axiom-goals:{l1}:{l2}")
        for k, comp in ((1, calc.components[0]), (2, calc.components[1])):
            sig = comp.signature
            top_like = [sig.top, sig.bot, App(sig.verum_at(2), (Var(1), Var(2)))]
            axioms = [r for r in comp.rules if not r.premises]
            for axiom in rng.sample(axioms, min(2, len(axioms))):
                for pool in ([Var(1), Var(2), random_formula(rng, sig, 1, 2)], top_like):
                    s = {v: rng.choice(pool) for v in variables_of(axiom.conclusion)}
                    goal = embed(apply_substitution(s, axiom.conclusion), k, cs)
                    for g, hyps in ((goal, []), (goal, [embed(rng.choice(pool), k, cs)]),
                                    (proj_embedded(goal, 3 - k, cs, {}), [])):
                        for max_facts in (1000, 60)[bool(hyps):]:
                            yield calc, hyps, g, SearchBounds(depth=1, max_size=g.size, max_facts=max_facts)


class TestAxiomLookupMatchesRounds:
    """A meet goal that round 0 adds as an axiom instance, searched without
    hypotheses, is looked up: the derivation is the one the rounds return
    without the fact cap, and the lookup declines where another fact's
    closure could change it, on a falsum and on a variable."""

    def test_seeded_goals(self, monkeypatch):
        """A looked-up goal equals the rounds' derivation under the cap when
        they find it, else theirs without the cap. The floors are the counts
        measured with the lookup answering under any cap; it declines by
        closure, falsum or variable."""
        answers: list = []
        rounds: list = []  # the rounds' answers within the search: each query runs them once
        real_line, real_rounds = calculus._axiom_line, calculus._rounds
        monkeypatch.setattr(calculus, "_axiom_line", lambda *args: answers.append(real_line(*args)) or answers[-1])
        monkeypatch.setattr(calculus, "_rounds", lambda *args: rounds.append(real_rounds(*args)) or rounds[-1])
        looked_up = declined = found = 0
        for calc, hyps, goal, bounds in _axiom_goal_queries():
            answers.clear()
            rounds.clear()
            got = bounded_proof_search(calc, (), hyps, goal, bounds)
            where = f"{calc.name}: {[print_formula(h) for h in hyps]} / {print_formula(goal)} at {bounds}"
            if rounds:
                want = rounds[0]
            else:
                pool = _candidate_pool(calc, hyps, goal, bounds)
                want = real_rounds(calc, (), hyps, goal, pool, bounds)
                if want is None:
                    want = real_rounds(calc, (), hyps, goal, pool, _uncapped(bounds))
            assert _text(got) == _text(want), where
            assert answers == [] if hyps else len(answers) == 1, where
            if answers and answers[0] is not None:
                assert len(got) == 1 and isinstance(got.lines[0].just, RuleApp), where
                looked_up += 1
            declined += bool(answers) and answers[0] is None and want is not None and len(want) == 1
            found += got is not None
        assert found >= 406 and looked_up >= 142 and declined >= 38, (found, looked_up, declined)

    def test_closure_of_an_earlier_instance_declines(self):
        """`bot` in the pool makes `K(bot, xi2)`, printed before the goal
        `K(falsum1, xi2)`, whose cLFT image the goal is: the rounds add the
        goal as that image, not as its own instance."""
        cs, calc = _meet_calculus("CPL", "G3")
        goal = parse_formula("<bot.CPL|top.G3> ->.CPL (xi2 ->.CPL <bot.CPL|top.G3>)", cs)
        bounds = SearchBounds(depth=1)
        candidates = _candidate_pool(calc, [], goal, bounds)
        assert calculus._axiom_line(calc, goal, candidates, bounds) is None
        d = bounded_proof_search(calc, (), [], goal, bounds)
        assert isinstance(d.lines[-1].just, Clft)
        plain = parse_formula("xi1 ->.CPL (xi2 ->.CPL xi1)", cs)
        assert calculus._axiom_line(calc, plain, _candidate_pool(calc, [], plain, bounds), bounds) is not None

    @pytest.mark.parametrize("pool", [0, 14])
    def test_falsum_declines(self, pool):
        """With the unsound axiom `bot` on both sides, round 0 adds the
        falsum printed first as an axiom instance and the other by FX from
        it: the lookup declines both falsa. In a pool of 14, `<bot|bot>`,
        whose cLFT images the falsa are, would decline them too; an empty
        pool leaves the falsum test alone."""
        bundles = CPL, load_preset("G3")
        sides = [Calculus(f"bot{k}", b.signature, (Rule("b", (), b.signature.bot),))
                 for k, b in enumerate(bundles, 1)]
        cs = combine_signatures(*[b.signature for b in bundles])
        calc, bounds = assemble_meet_calculus(*sides, cs), SearchBounds(depth=1, max_candidates=pool)
        for k in (1, 2):
            goal = cs.falsum(k)
            assert calculus._axiom_line(calc, goal, _candidate_pool(calc, [], goal, bounds), bounds) is None
        assert [type(ln.just) for ln in bounded_proof_search(calc, (), [], cs.falsum(2), bounds).lines] \
            == [RuleApp, Fx]


class TestRuleCodeShared:
    """Rules of one shape share their compiled builder and matcher code."""

    def test_same_shape_rules_share_code(self):
        """The builder and matcher of a rule shape are compiled once per
        process; each rule's function still reads its own constructors."""
        cs, meet = _meet_calculus("CPL", "G3")
        own, embedded = rule_named(CPL.calculus, "a1"), rule_named(meet, "a1@1")
        assert own.conclusion.ctor is not embedded.conclusion.ctor
        assert own.instantiator[0].__code__ is embedded.instantiator[0].__code__
        assert own.matcher.__code__ is embedded.matcher.__code__
        xs = (Var(1), Var(2))
        for rule in (own, embedded):
            assert rule.instantiator[0](*xs) is rule.conclusion
            assert rule.matcher(rule.conclusion) == xs
        assert own.matcher(embedded.conclusion) is None and embedded.matcher(own.conclusion) is None


class TestRoundTwoParts:
    """The compiled matchers and the tuple builders the pass reads agree
    with the kernel's matcher and substitution."""

    def test_matcher_matches_match_formula(self):
        checked = matched = 0
        for k, (sig, rule_set) in enumerate(_join_rule_sets()):
            rng = random.Random(f"matcher:{k}")
            for rule in rule_set:
                pattern, variables = rule.conclusion, [v for v, _ in rule.shape[1]]
                for _ in range(8):
                    s = {v: random_formula(rng, sig, 2, 3) for v in variables}
                    others = (random_formula(rng, sig, 3, 3), rng.choice(rule_set).conclusion)
                    for f in (apply_substitution(s, pattern),) + others:
                        want = match_formula(pattern, f)
                        got = rule.matcher(f)
                        assert got == (None if want is None else tuple(want[v] for v in variables))
                        checked += 1
                        matched += got is not None
        assert checked > 6000 and matched > 2000

    def test_tuple_builder_matches_substitution(self):
        for k, (sig, rule_set) in enumerate(_join_rule_sets()):
            rng = random.Random(f"tuple-builder:{k}")
            for rule in rule_set:
                fs = tuple(rule.premises) + (rule.conclusion,)
                variables = sorted(set().union(*map(variables_of, fs)))
                build = calculus._compile_build(fs, variables)
                for _ in range(5):
                    s = {v: random_formula(rng, sig, 2, 3) for v in variables}
                    assert build(*[s[v] for v in variables]) == tuple(apply_substitution(s, f) for f in fs)


class TestImagesMatchProductOrder:
    """`_images`, the search's one enumerator of rule instances, makes at
    each instance size the image tuples that the product over the whole
    pool (`_bucket_instances`, the reference) files there, each once: with
    no, some and all of the rule's variables bound, over empty and small
    pools, at `max_size` at and next to each instance size, on component
    and meet calculi."""

    def test_size_by_size(self):
        cases = at_bound = empty_bound = tuples = 0
        for k, (sig, rule_set) in enumerate(_join_rule_sets()):
            rng = random.Random(f"images:{k}")
            for rule in rule_set:
                rule_vars = sorted(variables_of(rule.conclusion).union(*map(variables_of, rule.premises)))
                for n in (0, rng.randint(1, 6)):
                    pool = sorted({random_formula(rng, sig, 2, 3) for _ in range(n)},
                                  key=lambda f: (f.size, print_formula(f)))
                    groups = calculus._by_size(pool)
                    for share in (0, 0.5, 1):
                        subst = {v: random_formula(rng, sig, 2, 2) for v in rule_vars if rng.random() < share}
                        wide: dict = {}
                        _bucket_instances(rule, subst, (), pool, 40, wide)
                        for max_size in sorted({1, 40}.union(*({s - 1, s, s + 1} for s in wide))):
                            buckets: dict = {}
                            _bucket_instances(rule, subst, (), pool, max_size, buckets)
                            got = calculus._images(rule, subst, groups, max_size)
                            where = (rule.name, n, sorted(subst), max_size)
                            assert got.keys() == buckets.keys(), where
                            for size, images in got.items():
                                assert Counter(images) == Counter(r[3] for r in buckets[size]), where
                                tuples += len(images)
                            cases += 1
                            at_bound += max_size in got
                            empty_bound += not pool and bool(got)
        assert cases > 4000 and tuples > 20_000 and at_bound > 1000 and empty_bound > 500, \
            (cases, tuples, at_bound, empty_bound)
