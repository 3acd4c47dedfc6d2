import itertools
import random
from functools import partial

import pytest

import meetlogic.presets
import meetlogic.syntax
from meetlogic.admissibility import (
    AdmissibilityVerdict,
    Basis,
    BruteForceBounds,
    brute_force_admissible,
    bundle_oracle,
    check_structural_completeness_sample,
    combined_basis,
    decide_admissible_meet,
    derivable_with_basis,
    oracle_from_table,
    semantic_oracle,
    stub_oracle,
    _ground_values,
)
from meetlogic.calculus import Rule, SearchBounds, check_derivation
from meetlogic.combination import combine_signatures, embed
from meetlogic.formats import parse_matrix_file
from meetlogic.presets import LogicBundle, combine_bundles, harrop_rule, ipl_theorem, load_preset
from meetlogic.semantics import _column, entails, holds
from meetlogic.syntax import (App, Ctor, Var, apply_substitution, make_signature, parse_formula, print_formula,
                              subformulas, variables_of)
from strategies import random_formula

CPL = load_preset("CPL")
G3 = load_preset("G3")
IPL = load_preset("IPL")
S43 = load_preset("S43", max_worlds=2)


def P(s):
    return parse_formula(s, CPL.signature)


def counted(oracle):
    """The oracle, with a list that records each of its answers."""
    answers = []

    def wrapped(premises, beta):
        answers.append(oracle(premises, beta))
        return answers[-1]

    wrapped.answers = answers
    return wrapped


class TestMeetDecider:
    """All oracle answer combinations, with call counts and exactness."""

    def query(self, o1, o2):
        sig1, sig2 = CPL.signature, CPL.signature
        cs = combine_signatures(sig1, sig2)
        beta = parse_formula("<or.CPL1|or.CPL2>(xi1, xi2)", cs)
        return decide_admissible_meet(o1, o2, [embed(P("xi1"), 1, cs)], beta)

    def test_both_yes(self):
        d = self.query(stub_oracle(True), stub_oracle(True))
        assert d.admissible and d.exact and d.calls == 2
        assert d.trace == ("a1=1", "a2=1")

    def test_both_no(self):
        d = self.query(stub_oracle(False), stub_oracle(False))
        assert not d.admissible and d.calls == 2

    @pytest.mark.parametrize("falsum_answer", [False, True])
    def test_split_yes_no_consults_side_one(self, falsum_answer):
        o1 = counted(stub_oracle(True, falsum_answer=falsum_answer))
        o2 = counted(stub_oracle(False))
        d = self.query(o1, o2)
        assert d.admissible == falsum_answer
        assert d.calls == 3 and len(o1.answers) == 2 and len(o2.answers) == 1
        assert d.trace[-1] == f"fallback o1(bot)={int(falsum_answer)}"

    @pytest.mark.parametrize("falsum_answer", [False, True])
    def test_split_no_yes_consults_side_two(self, falsum_answer):
        o1 = counted(stub_oracle(False))
        o2 = counted(stub_oracle(True, falsum_answer=falsum_answer))
        d = self.query(o1, o2)
        assert d.admissible == falsum_answer
        assert d.calls == 3 and len(o1.answers) == 1 and len(o2.answers) == 2

    def test_never_more_than_three_calls(self):
        for m1, f1, m2, f2 in itertools.product((False, True), repeat=4):
            o1 = stub_oracle(m1, falsum_answer=f1)
            o2 = stub_oracle(m2, falsum_answer=f2)
            d = self.query(o1, o2)
            assert d.calls <= 3

    def test_inexact_component_taints_verdict(self):
        d = self.query(stub_oracle(True, exact=False), stub_oracle(True))
        assert d.admissible and not d.exact

    def test_semantic_oracles_mirror_product_entailment(self):
        from meetlogic.semantics import product_matrix

        cs = combine_signatures(CPL.signature, CPL.signature)
        prod = product_matrix(CPL.characteristic, CPL.characteristic, cs)
        rng = random.Random(41)
        for _ in range(120):
            prem = [random_formula(rng, cs, 2, max_var=2)]
            beta = random_formula(rng, cs, 2, max_var=2)
            o1, o2 = semantic_oracle(CPL), semantic_oracle(CPL)
            d = decide_admissible_meet(o1, o2, prem, beta)
            assert d.exact
            assert d.admissible == entails([prod], prem, beta)


class TestBruteForce:
    def test_disjunction_rule_refuted_with_witness(self):
        v = brute_force_admissible(CPL, [P("xi1 or xi2")], P("xi1"))
        assert v.status == "not-admissible" and v.witness is not None
        subst = dict(v.witness)
        assert CPL.theorem(apply_substitution(subst, P("xi1 or xi2")))
        assert not CPL.theorem(apply_substitution(subst, P("xi1")))

    def test_modus_ponens_admissible_exact(self):
        v = brute_force_admissible(CPL, [P("xi1"), P("xi1 -> xi2")], P("xi2"))
        assert v.status == "admissible" and v.exact

    def test_ipl_harrop_no_closed_counterexample(self):
        h = harrop_rule(IPL.signature)
        v = brute_force_admissible(IPL, list(h.premises), h.conclusion)
        # admissible in the logic, so the witness sweep finds nothing; without
        # structural completeness the verdict stays inconclusive
        assert v.status == "inconclusive" and not v.exact

    def test_ipl_refutes_bare_variable_rule(self):
        v = brute_force_admissible(IPL, [], Var(1))
        assert v.status == "not-admissible"
        assert dict(v.witness)[1] == IPL.signature.bot

    def test_ipl_closed_excluded_middle_instances_all_provable(self):
        # every closed propositional formula is equivalent to top or bot, so
        # the witness sweep finds nothing and the verdict stays bounded
        f = parse_formula("xi1 or (neg xi1)", IPL.signature)
        v = brute_force_admissible(IPL, [], f)
        assert v.status == "inconclusive"

    def test_s43_inconclusive_without_theorem_procedure(self):
        for b in (S43, load_preset("GL"), combine_bundles(IPL, S43), combine_bundles(CPL, G3)):
            assert b.ground is None, b.name
        r = S43.fixtures["non-admissible"]
        v = brute_force_admissible(S43, list(r.premises), r.conclusion)
        assert v.status == "inconclusive" and not v.exact
        assert v.calls == 0

    def test_harrop_tries_one_instance_per_key_tuple(self):
        # IPL has 2 ground values, those of bot and top, and the rule has 3
        # variables: 2^3 value tuples
        h = harrop_rule(IPL.signature)
        v = brute_force_admissible(IPL, list(h.premises), h.conclusion)
        assert v.calls == 8

    @pytest.mark.parametrize("bounds", [BruteForceBounds(3, 200), BruteForceBounds(2, 400)],
                             ids=["depth3", "depth2"])
    def test_ipl_closed_candidates_are_decided_by_the_two_element_chain(self, bounds):
        """IPL's ground matrix, the two-element chain, decides closed
        formulas: G4ip proves c exactly when it holds there, and neg c exactly
        when it does not."""
        chain2 = IPL.ground
        assert chain2 is IPL.matrices[0] and len(chain2.carrier) == 2
        candidates = reference_closed_candidates(IPL, bounds)
        assert len(candidates) == bounds.max_candidates
        neg = Ctor("neg", 1)
        for c in candidates:
            assert ipl_theorem(c) == holds(chain2, c), c
            assert ipl_theorem(App(neg, (c,))) != holds(chain2, c), c

    def test_tried_counts_up_to_the_counterexample(self):
        v = brute_force_admissible(IPL, [], Var(1))
        assert v.calls == 1


# The tiny three-valued Lukasiewicz logic below is given as a matrix file, with
# a constant for the middle value so that the ground values are all three
# values. Its matrix is its ground matrix, and it is not given as
# characteristic, so its verdicts come from the sweep alone. The sweep reads
# only the ground and characteristic fields; the bundle has no calculus,
# completion profile or basis, and its theorem procedure serves
# `reference_sweep`.
L3_SIG = make_signature("L3", [("and", 2), ("->", 2), ("neg", 1), ("half", 0)])
L3_MATRIX = parse_matrix_file("""
carrier 3
designated 2
op top 2
op bot 0
op half 1
op neg 2 1 0
op and 0 0 0 0 1 1 0 1 2
op -> 2 2 2 1 2 2 0 1 2
""", L3_SIG, name="L3-matrix")
L3 = LogicBundle(
    name="L3", signature=L3_SIG, calculus=None, matrices=(L3_MATRIX,),
    characteristic=None, ground=L3_MATRIX, theorem=partial(holds, L3_MATRIX),
    identity_profiles={}, completion_profile=None, basis=None,
)


def reference_sweep(bundle, premises, beta, bounds=BruteForceBounds()):
    """The sweep as specified: build every substitution instance over the full
    candidate product, in order, and ask the theoremhood procedure about it."""
    thm = bundle.theorem
    variables = sorted(set().union(variables_of(beta), *(variables_of(p) for p in premises)))
    candidates = reference_closed_candidates(bundle, bounds)
    for values in itertools.product(candidates, repeat=len(variables)):
        subst = dict(zip(variables, values))
        if all(thm(apply_substitution(subst, p)) for p in premises):
            if not thm(apply_substitution(subst, beta)):
                return AdmissibilityVerdict("not-admissible", True, tuple(sorted(subst.items())))
    if bundle.characteristic is not None:
        return AdmissibilityVerdict(
            "admissible" if entails([bundle.characteristic], premises, beta) else "not-admissible", True)
    return AdmissibilityVerdict("inconclusive", False)


def reference_closed_candidates(bundle, bounds):
    """Variable-free formulas of bounded depth over the bundle's signature,
    smallest first: candidate layers built by nested loops, each with its own
    exit at the cap."""
    signature = bundle.signature
    layers = [sorted(
        (App(c) for c in signature.by_arity.get(0, {}).values()),
        key=print_formula,
    )]
    for _ in range(bounds.depth):
        pool = [f for layer in layers for f in layer]
        new = []
        for n in sorted(signature.arities()):
            if n == 0:
                continue
            for c in sorted(signature.by_arity[n].values(), key=lambda c: c.name):
                for args in itertools.product(pool, repeat=n):
                    g = App(c, args)
                    if all(g not in layer for layer in layers) and g not in new:
                        new.append(g)
                    if len(new) >= bounds.max_candidates:
                        break
                if len(new) >= bounds.max_candidates:
                    break
            if len(new) >= bounds.max_candidates:
                break
        layers.append(new)
    flat = [f for layer in layers for f in layer]
    flat.sort(key=lambda f: (f.size, print_formula(f)))
    return tuple(flat[: bounds.max_candidates])


def seeded_rules(bundle, seed, count, max_var=3, depth=2):
    """Rules with 0-2 premises and 1 to max_var variables."""
    rng = random.Random(seed)
    sig = bundle.signature
    rules = []
    while len(rules) < count:
        premises = tuple(random_formula(rng, sig, rng.randint(1, depth), max_var)
                         for _ in range(rng.randint(0, 2)))
        beta = random_formula(rng, sig, rng.randint(1, depth), max_var)
        if 1 <= len(set().union(variables_of(beta), *map(variables_of, premises))) <= max_var:
            rules.append((premises, beta))
    return rules


class TestSweepAgainstReference:
    """The ground sweep against `reference_sweep` over bounded candidates:
    equal status, exactness and witness on every rule."""

    def check(self, bundle, rules, bounds=BruteForceBounds()):
        verdicts = []
        for premises, beta in rules:
            got = brute_force_admissible(bundle, premises, beta)
            want = reference_sweep(bundle, premises, beta, bounds)
            assert got == want, (premises, beta)
            verdicts.append(got)
        return verdicts

    def test_ipl_seeded_rules(self):
        verdicts = self.check(IPL, seeded_rules(IPL, 5, 300))
        assert {v.status for v in verdicts} == {"not-admissible", "inconclusive"}

    def test_ipl_smaller_bounds(self):
        self.check(IPL, seeded_rules(IPL, 6, 60), BruteForceBounds(depth=1, max_candidates=5))

    def test_harrop(self):
        h = harrop_rule(IPL.signature)
        self.check(IPL, [(h.premises, h.conclusion)])

    def test_ipl_larger_bounds(self):
        """At this bound the candidates include ones headed by iff, neg and
        the verum family, which the reference decides by G4ip on the built
        instances."""
        bounds = BruteForceBounds(depth=3, max_candidates=20)
        heads = {c.ctor.name for c in reference_closed_candidates(IPL, bounds)}
        assert {"iff", "neg", "topn.1"} <= heads
        verdicts = self.check(IPL, seeded_rules(IPL, 10, 60), bounds)
        assert {v.status for v in verdicts} == {"not-admissible", "inconclusive"}

    @pytest.mark.parametrize("bundle", [CPL, G3], ids=["CPL", "G3"])
    def test_characteristic_matrix_presets(self, bundle):
        verdicts = self.check(bundle, seeded_rules(bundle, 8, 120))
        assert {v.status for v in verdicts} == {"admissible", "not-admissible"}

    def test_matrix_file_logic_definition(self):
        verdicts = self.check(L3, seeded_rules(L3, 9, 150))
        assert {v.status for v in verdicts} == {"not-admissible", "inconclusive"}
        # some witness uses the middle value, so the sweep really has three values
        assert any(value_of(L3_MATRIX, f) == 1 for v in verdicts if v.witness for _, f in v.witness)

    def test_sweep_builds_no_instances(self, monkeypatch):
        """No instance is built by substitution, and IPL's sweep runs on the
        two-element chain: it asks G4ip nothing, not even for a normal form."""
        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} called by the sweep")
            return refused

        monkeypatch.setattr(meetlogic.syntax, "apply_substitution", refuse("apply_substitution"))
        monkeypatch.setattr(meetlogic.presets, "_ipl_norm", refuse("_ipl_norm"))
        monkeypatch.setattr(meetlogic.presets, "_g4ip", refuse("_g4ip"))
        h = harrop_rule(IPL.signature)
        v = brute_force_admissible(IPL, list(h.premises), h.conclusion)
        assert v.calls == 8


def value_of(m, closed):
    """The carrier index of a closed formula's value in m."""
    return _column(m, subformulas(closed), {}, 1)[0]


class TestGroundValues:
    @pytest.mark.parametrize("bundle, least", [
        (CPL, ["bot", "top"]), (G3, ["bot", "top"]), (IPL, ["bot", "top"]), (L3, ["bot", "half", "top"]),
    ], ids=["CPL", "G3", "IPL", "L3"])
    def test_least_formulas_of_a_closed_subalgebra(self, bundle, least):
        """The ground values are closed under every operation of the ground
        matrix, and each comes with its least closed formula by (size, text)
        among bounded candidates, in that order."""
        m = bundle.ground
        ground = _ground_values(bundle)
        assert [print_formula(f) for _, f in ground] == least
        values = {v for v, _ in ground}
        for ctor in m.tables:
            for args in itertools.product([f for _, f in ground], repeat=ctor.arity):
                assert value_of(m, App(ctor, args)) in values, (ctor, args)
        candidates = reference_closed_candidates(bundle, BruteForceBounds(3, 200))
        for v, f in ground:
            assert value_of(m, f) == v
            assert f == min((c for c in candidates if value_of(m, c) == v),
                            key=lambda c: (c.size, print_formula(c)))


class TestDerivableWithBasis:
    def test_premise_is_one_line(self):
        d = derivable_with_basis([P("xi1")], P("xi1"), Basis("x", ()), CPL)
        assert d is not None and len(d) == 1

    def test_s43_basis_step(self):
        sig = S43.signature
        prem = parse_formula("(dia xi1) and (dia (neg xi1))", sig)
        d = derivable_with_basis([prem], sig.bot, S43.basis, S43, SearchBounds(depth=2))
        assert d is not None
        assert check_derivation(d, S43.calculus, extra=S43.basis.rules, hyps=[prem])

    def test_empty_basis_misses_basis_only_step(self):
        sig = S43.signature
        prem = parse_formula("(dia xi1) and (dia (neg xi1))", sig)
        d = derivable_with_basis([prem], sig.bot, Basis("empty", ()), S43, SearchBounds(depth=2))
        assert d is None

    def test_visser_basis_closes_its_own_premise(self):
        from meetlogic.presets import visser_rule

        v1 = visser_rule(IPL.signature, 1)
        d = derivable_with_basis(list(v1.premises), v1.conclusion, IPL.basis, IPL,
                                 SearchBounds(depth=2))
        assert d is not None
        assert check_derivation(d, IPL.calculus, extra=IPL.basis.rules, hyps=list(v1.premises))


class TestCombinedBasis:
    def test_ipl_s43_combined_basis(self):
        cs = combine_signatures(IPL.signature, S43.signature)
        cb = combined_basis(IPL.basis, S43.basis, cs)
        names = [r.name for r in cb.rules]
        assert names == ["visser1@1", "visser2@1", "visser3@1", "s43b@2"]
        assert cb.provenance == "meet(IPL,S43)"
        # every component basis rule here is non-liberal, so none is tagged
        assert all("#" not in n for n in names)

    def test_combined_rules_over_combined_signature(self):
        cs = combine_signatures(IPL.signature, S43.signature)
        cb = combined_basis(IPL.basis, S43.basis, cs)
        r = cb.rules[-1]
        assert r.conclusion == embed(S43.signature.bot, 2, cs)


class TestCompletenessSampling:
    def test_cpl_random_rules_zero_confirmed_counterexamples(self):
        rng = random.Random(7)
        rules = [
            Rule(f"r{i}",
                 (random_formula(rng, CPL.signature, 2, max_var=2),),
                 random_formula(rng, CPL.signature, 2, max_var=2))
            for i in range(25)
        ]
        rep = check_structural_completeness_sample(CPL, rules, SearchBounds(depth=4))
        assert rep.checked == 25
        assert rep.agreements + rep.not_admissible + rep.inconclusive + len(rep.flagged) == 25

    def test_ipl_harrop_flagged_not_asserted(self):
        h = harrop_rule(IPL.signature)
        always_yes = lambda prem, concl: AdmissibilityVerdict("admissible", True)
        rep = check_structural_completeness_sample(
            IPL, [h], SearchBounds(depth=3), oracle=always_yes)
        assert rep.flagged == (h,)


class TestOracleConstructors:
    def test_semantic_oracle_requires_structural_completeness(self):
        with pytest.raises(ValueError):
            semantic_oracle(IPL)

    def test_oracle_from_table(self):
        o = oracle_from_table({((P("xi1"),), P("xi1 or xi2")): True}, default=False)
        assert o((P("xi1"),), P("xi1 or xi2")).admissible is True
        assert o((P("xi2"),), P("xi1")).admissible is False

    def test_bundle_oracle_kinds(self):
        assert bundle_oracle(CPL)((P("xi1"),), P("xi1")).exact
        assert not bundle_oracle(S43)((P("xi1"),), P("xi1")).exact

    def test_bundle_oracle_answers(self):
        o = bundle_oracle(CPL)
        assert o([P("xi1"), P("xi1 -> xi2")], P("xi2"))
        assert not o([P("xi1 or xi2")], P("xi1"))
