import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetlogic.calculus import Rule, assemble_meet_calculus
from meetlogic.combination import combine_signatures, embed, project
from meetlogic.formats import parse_matrix_file
from meetlogic.presets import KripkeFrame, generate_frames, godel_chain, kripke_matrix, load_preset
from meetlogic.semantics import (
    Matrix,
    SemanticsError,
    check_rule_soundness,
    entails,
    holds,
    product_matrix,
)
from meetlogic.syntax import App, Var, make_signature, parse_formula, variables_of

from ref_semantics import eval_formula, project_assignment
from strategies import formula_strategy, random_formula

SIG = make_signature("CPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])
SIG2 = make_signature("G3", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])
BOOL = godel_chain(SIG, 2, "bool2")
G3M = godel_chain(SIG2, 3, "g3")
CS = combine_signatures(SIG, SIG2)
PROD = product_matrix(BOOL, G3M, CS)


def P(s):
    return parse_formula(s, SIG)


def PM(s):
    return parse_formula(s, CS)


class TestEval:
    def test_excluded_middle_pointwise(self):
        assert eval_formula(BOOL, {1: 1}, P("xi1 or (neg xi1)")) == 1

    def test_verum_family_constant(self):
        for a in BOOL.carrier:
            assert eval_formula(BOOL, {1: a}, P("topn.1(xi1)")) == 1

    def test_g3_negation_of_middle(self):
        assert eval_formula(G3M, {1: 1}, parse_formula("neg xi1", SIG2)) == 0

    def test_missing_binding(self):
        with pytest.raises(SemanticsError):
            eval_formula(BOOL, {}, Var(1))


class TestHoldsEntails:
    def test_identity_law(self):
        assert holds(BOOL, P("xi1 -> xi1"))

    def test_falsum_never_holds(self):
        assert not holds(BOOL, SIG.bot)
        assert not holds(G3M, SIG2.bot)
        assert not holds(PROD, CS.bot)

    def test_g3_refutes_excluded_middle(self):
        assert not holds(G3M, parse_formula("xi1 or (neg xi1)", SIG2))

    def test_entails_examples(self):
        assert entails([BOOL], [Var(1)], Var(1))
        assert entails([BOOL], [P("xi1"), P("xi1 -> xi2")], P("xi2"))
        assert not entails([BOOL], [P("xi1 or xi2")], P("xi1"))


class TestProduct:
    def test_cardinalities(self):
        assert len(PROD.carrier) == len(BOOL.carrier) * len(G3M.carrier)
        assert len(PROD.designated) == len(BOOL.designated) * len(G3M.designated)

    def test_componentwise_law_seeded(self):
        rng = random.Random(11)
        for _ in range(250):
            f = random_formula(rng, CS, 4, max_var=2)
            variables = sorted(variables_of(f)) or [1]
            for values in itertools.product(PROD.carrier, repeat=len(variables)):
                asg = dict(zip(variables, values))
                want = (
                    eval_formula(BOOL, project_assignment(asg, 1), project(f, 1)),
                    eval_formula(G3M, project_assignment(asg, 2), project(f, 2)),
                )
                assert eval_formula(PROD, asg, f) == want
                if len(variables) > 2:
                    break  # keep the exhaustive sweep to small variable counts

    def test_embedded_holds_iff_component_holds(self):
        for text in ("xi1 -> xi1", "xi1 or (neg xi1)", "neg (xi1 and (neg xi1))"):
            f = parse_formula(text, SIG)
            assert holds(PROD, embed(f, 1, CS)) == holds(BOOL, f)
            g = parse_formula(text, SIG2)
            assert holds(PROD, embed(g, 2, CS)) == holds(G3M, g)


class TestRuleSoundness:
    def test_mp_sound(self):
        mp = Rule("mp", (P("xi1"), P("xi1 -> xi2")), P("xi2"))
        assert check_rule_soundness([BOOL], mp)

    def test_untagged_one_sided_mp_unsound_in_product(self):
        cs = combine_signatures(SIG, make_signature("CPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)]))
        prod = product_matrix(BOOL, BOOL, cs)
        mp1 = Rule("mp@1", (Var(1), parse_formula("xi1 ->.CPL1 xi2", cs)), Var(2))
        assert not check_rule_soundness([prod], mp1)

    def test_lft_instances_sound(self):
        rng = random.Random(3)
        from meetlogic.combination import proj_embedded

        for _ in range(40):
            phi = random_formula(rng, CS, 3, max_var=2)
            rule = Rule("lft", (proj_embedded(phi, 1, CS), proj_embedded(phi, 2, CS)), phi)
            assert check_rule_soundness([PROD], rule)

    def test_fx_vacuously_sound(self):
        b1 = embed(SIG.bot, 1, CS)
        b2 = embed(SIG2.bot, 2, CS)
        assert check_rule_soundness([PROD], Rule("fx12", (b1,), b2))
        assert check_rule_soundness([PROD], Rule("fx21", (b2,), b1))


# ---------------------------------------------------------------------------
# column-wise holds/entails against per-assignment evaluation

def pointwise_entails(matrices, gamma, f):
    """Reference: every assignment, one eval_formula per formula."""
    variables = sorted(set(variables_of(f)).union(*map(variables_of, gamma)))
    for m in matrices:
        for values in itertools.product(m.carrier, repeat=len(variables)):
            asg = dict(zip(variables, values))
            if all(eval_formula(m, asg, g) in m.designated for g in gamma):
                if eval_formula(m, asg, f) not in m.designated:
                    return False
    return True


def outcome(fn, *args):
    try:
        return fn(*args)
    except SemanticsError:
        return SemanticsError


LP_TEXT = """
# three values (false, both, true), two of them designated
carrier 3
designated 1 2
op top 2
op bot 0
op neg 2 1 0
op and 0 0 0 0 1 1 0 1 2
op or 0 1 2 1 1 2 2 2 2
op -> 2 2 2 1 1 2 0 1 2
op iff 2 1 0 1 1 1 0 1 2
"""


def _families():
    """The matrix families of the column-wise test, and for each product its
    two component matrices and its meet calculus."""
    b = {n: load_preset(n, max_worlds=2) for n in ("CPL", "G3", "IPL", "S43")}
    gl_sig = load_preset("GL", max_worlds=1).signature
    chain2w = kripke_matrix(KripkeFrame((0, 1), frozenset({(0, 0), (0, 1), (1, 1)}), "s43"),
                            b["S43"].signature)
    products, meets = {}, {}
    for key, (b1, b2, m1, m2) in {
        "product6": (b["CPL"], b["G3"], b["CPL"].characteristic, b["G3"].characteristic),
        "product9": (b["G3"], load_preset("G3"), b["G3"].characteristic, b["G3"].characteristic),
        "product20": (b["IPL"], b["S43"], b["IPL"].matrices[-1], chain2w),
    }.items():
        cs = combine_signatures(b1.signature, b2.signature)
        products[key] = (cs, [product_matrix(m1, m2, cs)])
        meets[key] = (m1, m2, assemble_meet_calculus(b1.calculus, b2.calculus, cs))
    chains = [godel_chain(SIG, k) for k in range(2, 6)]
    families = {
        "chains": (SIG, chains),
        "chains, modal formulas": (b["S43"].signature, chains),
        "s43 frames": (b["S43"].signature,
                       [kripke_matrix(fr, b["S43"].signature) for fr in generate_frames("s43", 3)]),
        "gl frames": (gl_sig, [kripke_matrix(fr, gl_sig) for fr in generate_frames("gl", 3)]),
        **products,
        "matrix file": (SIG, [parse_matrix_file(LP_TEXT, SIG, name="lp")]),
    }
    return families, meets


FAMILIES, MEETS = _families()


class TestColumnwiseAgainstPointwise:
    @pytest.mark.parametrize("family", list(FAMILIES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_agrees_with_pointwise(self, family, data):
        sig, matrices = FAMILIES[family]
        formulas = formula_strategy(sig, max_depth=3, max_var=2)
        gamma = tuple(data.draw(st.lists(formulas, max_size=2)))
        f = data.draw(formulas)
        for m in matrices:
            assert outcome(holds, m, f) == outcome(pointwise_entails, [m], (), f)
        want = outcome(pointwise_entails, matrices, gamma, f)
        assert outcome(entails, matrices, gamma, f) == want
        assert outcome(check_rule_soundness, matrices, Rule("r", gamma, f)) == want

    def test_missing_constructor_raises_on_both_paths(self):
        f = parse_formula("box xi1", FAMILIES["s43 frames"][0])
        with pytest.raises(SemanticsError):
            eval_formula(BOOL, {1: 1}, f)
        with pytest.raises(SemanticsError):
            holds(BOOL, f)
        with pytest.raises(SemanticsError):
            entails([BOOL], [P("xi1")], f)

    def test_op_value_outside_carrier_rejected(self):
        tables = dict(BOOL.tables)
        tables[SIG.resolve("neg", None, 1)] = [1, 7]
        with pytest.raises(SemanticsError, match="outside the carrier"):
            Matrix("bad", SIG, BOOL.carrier, BOOL.designated, tables)

    def test_deep_formula_evaluates(self):
        neg = SIG.resolve("neg", None, 1)
        f = P("xi1 or (neg xi1)")
        for _ in range(5000):
            f = App(neg, (f,))
        assert holds(BOOL, f)
        assert not entails([BOOL], [f], App(neg, (f,)))


# ---------------------------------------------------------------------------
# products evaluated through their factors

def flat(prod):
    """The same product without factors: it evaluates its own tables."""
    return Matrix(prod.name, prod.signature, prod.carrier, prod.designated, prod.tables)


class TestProductFactors:
    """`holds`/`entails` answer a product from its two factors. References:
    the same product without factors, and the pointwise evaluator."""

    @staticmethod
    def check(prod, gamma, f, pointwise=True):
        want = entails([flat(prod)], gamma, f)
        if pointwise:
            assert pointwise_entails([prod], gamma, f) == want
        assert entails([prod], gamma, f) == want
        assert check_rule_soundness([prod], Rule("r", tuple(gamma), f)) == want
        if not gamma:
            assert holds(prod, f) == want
        return want

    @pytest.mark.parametrize("key", sorted(MEETS))
    def test_factors_are_the_components_read_over_the_meet(self, key):
        m1, m2, _ = MEETS[key]
        prod = FAMILIES[key][1][0]
        assert prod == flat(prod)
        for m, factor, side in ((m1, prod.factors[0], "c1"), (m2, prod.factors[1], "c2")):
            assert (factor.carrier, factor.designated, factor.signature) == (m.carrier, m.designated, prod.signature)
            assert set(factor.tables) == set(prod.tables)
            assert all(t is m.tables[getattr(c, side)] for c, t in factor.tables.items())
            assert factor.factors == ()

    @pytest.mark.parametrize("key", sorted(MEETS))
    @pytest.mark.parametrize("k", (1, 2))
    def test_hypotheses_unsatisfiable_in_one_factor(self, key, k):
        """Factor k never designates the hypotheses, so the product entails
        every goal, though the other factor alone refutes it."""
        cs, (prod,) = FAMILIES[key]
        falsum = cs.falsum(k)
        conj = embed(parse_formula("xi1 and bot", cs.component(k)), k, cs)
        for gamma in ([falsum], [conj], [Var(1), falsum], [conj, Var(1)]):
            for goal in (Var(2), cs.falsum(3 - k), cs.bot, embed(parse_formula("neg xi1", cs.component(3 - k)), 3 - k, cs)):
                assert not entails([prod.factors[2 - k]], gamma, goal)
                assert self.check(prod, gamma, goal)

    @pytest.mark.parametrize("key", sorted(MEETS))
    @pytest.mark.parametrize("k", (1, 2))
    def test_one_factor_entails_and_the_other_not(self, key, k):
        cs, (prod,) = FAMILIES[key]
        goal = embed(parse_formula("xi1 -> xi2", cs.component(k)), k, cs)
        for gamma in ([], [Var(1)], [embed(parse_formula("neg xi2", cs.component(3 - k)), 3 - k, cs)]):
            assert entails([prod.factors[2 - k]], gamma, goal)
            assert not entails([prod.factors[k - 1]], gamma, goal)
            assert not self.check(prod, gamma, goal)

    @pytest.mark.parametrize("key", sorted(MEETS))
    def test_closed_formulas(self, key):
        cs, (prod,) = FAMILIES[key]
        closed = [cs.top, cs.bot, cs.falsum(1), cs.falsum(2)]
        closed += [embed(parse_formula(t, cs.component(k)), k, cs)
                   for k in (1, 2) for t in ("top -> bot", "neg bot", "bot or top")]
        for f in closed:
            self.check(prod, [], f)
            for g in closed:
                self.check(prod, [g], f)

    @pytest.mark.parametrize("key", sorted(MEETS))
    def test_meet_calculus_rules(self, key):
        """Every rule of the meet calculus; pointwise only up to 1000
        assignments (the 8000 of three variables on the 20-element product
        take seconds per rule)."""
        prod = FAMILIES[key][1][0]
        calculus = MEETS[key][2]
        for rule in calculus.rules:
            n_vars = len(set().union(*map(variables_of, rule.premises + (rule.conclusion,))))
            self.check(prod, rule.premises, rule.conclusion, len(prod.carrier) ** n_vars <= 1000)

    @pytest.mark.parametrize("key", sorted(MEETS))
    def test_errors_name_the_product(self, key):
        cs, (prod,) = FAMILIES[key]
        f = parse_formula("xi1 -> xi2", cs.sig1)
        for call in (lambda: holds(prod, f), lambda: entails([prod], [Var(1)], f),
                     lambda: check_rule_soundness([prod], Rule("r", (), f))):
            with pytest.raises(SemanticsError, match=f"^matrix {prod.name}: no operation for ->"):
                call()
