import random

import pytest
from hypothesis import given, settings

from meetlogic.calculus import Rule
from meetlogic.combination import (
    combine_signatures,
    embed,
    proj_embedded,
    project,
    tag_rule,
)
from meetlogic.syntax import (
    App,
    SignatureError,
    Var,
    apply_substitution,
    make_signature,
    parse_formula,
    print_formula,
)

from strategies import formula_strategy, random_formula, random_substitution

IPL = make_signature("IPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])
GL = make_signature("GL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1), ("box", 1), ("dia", 1)])
CS = combine_signatures(IPL, GL)


def P1(s):
    return parse_formula(s, IPL)


def P2(s):
    return parse_formula(s, GL)


def PM(s):
    return parse_formula(s, CS)


class TestCombinedSignature:
    def test_product_cardinality(self):
        for n in CS.arities():
            assert len(list(CS.ctors_at(n))) == len(IPL.by_arity[n]) * len(GL.by_arity[n])

    def test_unary_variants(self):
        names = {c.display for c in CS.ctors_at(1)}
        assert "<neg.IPL|neg.GL>" in names
        assert "<neg.IPL|topn.1.GL>" in names
        assert "<topn.1.IPL|box.GL>" in names

    def test_top_bot_pairs_present(self):
        assert CS.top.ctor.display == "<top.IPL|top.GL>"
        assert CS.bot.ctor.display == "<bot.IPL|bot.GL>"

    def test_self_combination_square(self):
        sq = combine_signatures(IPL, make_signature("IPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)]))
        for n in sq.arities():
            assert len(list(sq.ctors_at(n))) == len(IPL.by_arity[n]) ** 2

    def test_self_combination_tags_disambiguated(self):
        sq = combine_signatures(IPL, make_signature("IPL", [("neg", 1)]))
        assert (sq.tag1, sq.tag2) == ("IPL1", "IPL2")


class TestEmbedProject:
    def test_embed_pads_with_verum(self):
        f = embed(P1("neg xi1"), 1, CS)
        assert print_formula(f) == "<neg.IPL|topn.1.GL>(xi1)"

    def test_embed_fixes_variables(self):
        assert embed(Var(1), 1, CS) == Var(1)

    def test_project_examples(self):
        f = PM("<neg.IPL|neg.GL>(xi1)")
        assert project(f, 2) == P2("neg xi1")
        assert project(Var(1), 1) == Var(1)
        g = embed(P2("box xi1"), 2, CS)
        assert print_formula(project(g, 1)) == "topn.1(xi1)"

    @settings(max_examples=300)
    @given(formula_strategy(IPL))
    def test_project_embed_identity_side1(self, f):
        assert project(embed(f, 1, CS), 1) == f

    @settings(max_examples=300)
    @given(formula_strategy(GL))
    def test_project_embed_identity_side2(self, f):
        assert project(embed(f, 2, CS), 2) == f

    def test_proj_embedded_is_embed_of_projection(self):
        f = PM("<and.IPL|or.GL>(xi1, <topn.1.IPL|box.GL>(xi2))")
        assert proj_embedded(f, 2, CS) == embed(project(f, 2), 2, CS)

    def test_substitution_projection_commutes(self):
        # seeded sweep of the substitution/projection commutation law
        rng = random.Random(7)
        for _ in range(300):
            psi = random_formula(rng, CS, 4)
            rho = random_substitution(rng, CS, range(1, 4), depth=2)
            for k in (1, 2):
                rho_k = {v: project(g, k) for v, g in rho.items()}
                assert apply_substitution(rho_k, project(psi, k)) == project(apply_substitution(rho, psi), k)

    def test_parser_abbreviation_expands(self):
        assert PM("neg.IPL xi1") == embed(P1("neg xi1"), 1, CS)
        assert PM("box.GL xi1") == embed(P2("box xi1"), 2, CS)

    def test_untagged_name_rejected_over_combined(self):
        with pytest.raises(Exception):
            PM("xi1 and xi2")


class TestTagging:
    def mp(self, sig):
        P = lambda s: parse_formula(s, sig)
        return Rule("mp", (P("xi1"), P("xi1 -> xi2")), P("xi2"))

    def test_tagged_mp_shape(self):
        tagged = tag_rule(self.mp(IPL), IPL)
        by_name = {r.name: r for r in tagged}
        r = by_name["mp#and"]
        assert r.conclusion == P1("and(xi3, xi4)")
        assert r.premises == (P1("xi1"), P1("xi1 -> and(xi3, xi4)"))

    def test_tag_count_is_constructor_count(self):
        tagged = tag_rule(self.mp(IPL), IPL)
        assert len(tagged) == sum(len(IPL.by_arity[n]) for n in IPL.arities())

    def test_non_liberal_kept_whole(self):
        r = Rule("s43b", (P2("(dia xi1) and (dia (neg xi1))"),), P2("bot"))
        tagged = tag_rule(r, GL)
        assert tuple(tagged) == (r,)

    def test_conclusion_variable_replaced_in_premises(self):
        # a liberal rule whose conclusion variable also occurs in a premise
        r = Rule("id", (Var(1),), Var(1))
        tagged = tag_rule(r, IPL)
        by_name = {t.name: t for t in tagged}
        neg = by_name["id#neg"]
        assert neg.conclusion == P1("neg xi2")
        assert neg.premises == (P1("neg xi2"),)

    def test_no_tagged_rule_is_liberal(self):
        for r in tag_rule(self.mp(IPL), CS):
            assert not r.liberal

    def test_fresh_variables_start_past_rule_maximum(self):
        r = Rule("wide", (P1("xi7"),), Var(1))
        tagged = {t.name: t for t in tag_rule(r, IPL)}
        assert tagged["wide#and"].conclusion == P1("and(xi8, xi9)")
