import random

import pytest
from hypothesis import given, settings

from meetlogic.presets import load_preset
from meetlogic.semantics import holds
from meetlogic.syntax import App, Var, parse_formula, print_formula
from meetlogic.treetools import (
    IdentityProfile,
    TreeError,
    completion_formula,
    decomposition_tree,
    equalize_pair,
    transliterate_shape,
    tree_embeds,
    trees_equiv,
)

from strategies import formula_strategy, random_formula

IPL = load_preset("IPL")
CPL = load_preset("CPL")
S43 = load_preset("S43", max_worlds=1)
GL = load_preset("GL", max_worlds=1)


def P(s):
    return parse_formula(s, IPL.signature)


def T(s):
    return decomposition_tree(P(s))


def base_formula(rng, sig, depth, max_var=3):
    """Sample a formula avoiding verum-family padding constructors."""
    while True:
        f = random_formula(rng, sig, depth, max_var)
        if "topn." not in print_formula(f):
            return f


def shape_hash(f):
    """Canonical unordered-shape form (test oracle for the embedding search)."""
    if isinstance(f, Var) or not f.args:
        return ()
    return tuple(sorted(shape_hash(a) for a in f.args))


class TestDecompositionTree:
    def test_single_vertex(self):
        t = decomposition_tree(Var(1))
        assert len(t) == 1 and not t.edges()

    def test_occurrences_distinct(self):
        t = T("xi1 and xi1")
        assert len(t) == 3 and len(t.edges()) == 2

    def test_outdegrees_of_worked_example(self):
        t = T("xi1 -> (neg xi2)")
        outs = [v.outdegree for v in t.vertices()]
        assert sorted(outs, reverse=True) == [2, 1, 0, 0]


class TestTreesEquiv:
    def test_reflexive(self):
        t = T("(xi1 or xi2) -> (neg xi1)")
        assert trees_equiv(t, t)

    def test_worked_example(self):
        assert trees_equiv(T("top or (neg bot)"), T("xi1 -> (neg xi2)"))

    def test_vertex_count_blocks_embedding(self):
        assert not trees_equiv(decomposition_tree(Var(1)), T("xi1 and xi2"))

    def test_strict_subtree_embeds_one_way(self):
        small, big = T("neg xi1"), T("(neg xi1) and xi2")
        assert tree_embeds(small, big) and not tree_embeds(big, small)

    def test_unordered_children(self):
        assert trees_equiv(T("(neg xi1) and xi2"), T("xi2 and (neg xi1)"))

    def test_outdegree_respected(self):
        assert not trees_equiv(T("neg xi1"), T("xi1 and xi2"))

    def test_matches_shape_hash_oracle(self):
        rng = random.Random(17)
        agree = 0
        for _ in range(1000):
            f = random_formula(rng, IPL.signature, 3, max_var=2)
            g = random_formula(rng, IPL.signature, 3, max_var=2)
            got = trees_equiv(decomposition_tree(f), decomposition_tree(g))
            want = shape_hash(f) == shape_hash(g)
            assert got == want, (print_formula(f), print_formula(g))
            agree += 1
        assert agree == 1000

    @settings(max_examples=100)
    @given(formula_strategy(IPL.signature, max_depth=3))
    def test_symmetric(self, f):
        t = decomposition_tree(f)
        u = T("xi1 -> (neg xi2)")
        assert trees_equiv(t, u) == trees_equiv(u, t)


class TestCompletion:
    def test_base_cases(self):
        prof = IPL.completion_profile
        assert completion_formula(Var(1), "bot", prof) == P("bot")
        assert completion_formula(Var(1), "top", prof) == P("top")

    def test_negation_case(self):
        prof = IPL.completion_profile
        assert completion_formula(P("neg xi1"), "bot", prof) == P("neg top")

    def test_worked_example_with_head_hint(self):
        prof = IPL.completion_profile
        delta = completion_formula(P("xi1 -> (neg xi2)"), "top", prof, root_head="or")
        assert delta == P("top or (neg bot)")
        assert IPL.theorem(P("top iff (top or (neg bot))"))

    def test_default_route_uses_own_head(self):
        prof = IPL.completion_profile
        delta = completion_formula(P("xi1 -> (neg xi2)"), "top", prof)
        assert delta == P("top -> (neg bot)")

    def test_shape_always_exact(self):
        rng = random.Random(23)
        prof = IPL.completion_profile
        for _ in range(150):
            psi = base_formula(rng, IPL.signature, 4, max_var=3)
            for target in ("top", "bot"):
                delta = completion_formula(psi, target, prof)
                assert trees_equiv(decomposition_tree(delta), decomposition_tree(psi))

    def test_equivalences_verified_by_prover(self):
        rng = random.Random(29)
        prof = IPL.completion_profile
        for _ in range(60):
            psi = base_formula(rng, IPL.signature, 3, max_var=3)
            for target in ("top", "bot"):
                delta = completion_formula(psi, target, prof)
                law = parse_formula(f"{target} iff ({print_formula(delta)})", IPL.signature)
                assert IPL.theorem(law)

    def test_modal_profiles_refutation_checked(self):
        rng = random.Random(31)
        for bundle in (S43, GL):
            prof = bundle.completion_profile
            for _ in range(40):
                psi = base_formula(rng, bundle.signature, 3, max_var=2)
                for target in ("top", "bot"):
                    delta = completion_formula(psi, target, prof)
                    assert trees_equiv(decomposition_tree(delta), decomposition_tree(psi))
                    law = parse_formula(f"{target} iff ({print_formula(delta)})", bundle.signature)
                    # necessary condition: no small frame matrix refutes the law
                    assert all(holds(m, law) for m in bundle.matrices)

    def test_unknown_constructor_rejected(self):
        prof = CPL.completion_profile
        with pytest.raises(TreeError):
            completion_formula(parse_formula("box xi1", S43.signature), "top", prof)


class TestIdentityProfiles:
    def test_identity_laws_hold(self):
        for bundle in (CPL, IPL, S43, GL):
            sigtop = "top"
            and_law = parse_formula("(xi1 and top) iff xi1", bundle.signature)
            imp_law = parse_formula("(top -> xi1) iff xi1", bundle.signature)
            if bundle.theorem is not None:
                assert bundle.theorem(and_law) and bundle.theorem(imp_law)
            else:
                assert all(holds(m, and_law) for m in bundle.matrices)
                assert all(holds(m, imp_law) for m in bundle.matrices)

    def test_position_bounds_checked(self):
        with pytest.raises(TreeError):
            IdentityProfile("and", 2, 3, ("top",))
        with pytest.raises(TreeError):
            IdentityProfile("and", 2, 1, ("top", "top"))


class TestTransliterate:
    def test_unary_relabel(self):
        f = parse_formula("neg xi1", CPL.signature)
        g = transliterate_shape(f, GL.signature)
        assert trees_equiv(decomposition_tree(f), decomposition_tree(g))

    def test_variable_fixed(self):
        assert transliterate_shape(Var(3), GL.signature) == Var(3)

    def test_missing_arity_rejected(self):
        from meetlogic.syntax import make_signature

        ternary = make_signature("T3", [("tri", 3)])
        f = parse_formula("tri(xi1, xi2, xi3)", ternary)
        with pytest.raises(TreeError):
            transliterate_shape(f, CPL.signature)


class TestEqualizePair:
    def p1(self):
        return CPL.identity_profiles["and"]

    def p2(self):
        return CPL.identity_profiles["->"]

    def test_two_variables(self):
        f1p, f2p = equalize_pair(Var(1), Var(2), self.p1(), self.p2(),
                                 CPL.signature, CPL.signature,
                                 CPL.completion_profile, CPL.completion_profile)
        assert trees_equiv(decomposition_tree(f1p), decomposition_tree(f2p))

    def test_spec_pair_with_truth_tables(self):
        from meetlogic.semantics import holds

        f1 = parse_formula("xi1", CPL.signature)
        f2 = parse_formula("xi2 and xi2", CPL.signature)
        f1p, f2p = equalize_pair(f1, f2, self.p1(), self.p2(),
                                 CPL.signature, CPL.signature,
                                 CPL.completion_profile, CPL.completion_profile)
        assert trees_equiv(decomposition_tree(f1p), decomposition_tree(f2p))
        for orig, new in ((f1, f1p), (f2, f2p)):
            law = parse_formula(f"({print_formula(orig)}) iff ({print_formula(new)})", CPL.signature)
            assert holds(CPL.characteristic, law)

    def test_equal_identity_positions_rejected(self):
        with pytest.raises(TreeError):
            equalize_pair(Var(1), Var(2), self.p1(), self.p1(),
                          CPL.signature, CPL.signature,
                          CPL.completion_profile, CPL.completion_profile)
