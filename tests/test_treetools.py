import random

import pytest
from hypothesis import given, settings

import ref_trees
from meetlogic.presets import load_preset
from meetlogic.semantics import holds
from meetlogic.syntax import App, SignatureError, Var, make_signature, parse_formula, print_formula, subformulas
from meetlogic.treetools import (
    IdentityProfile,
    TreeError,
    completion_formula,
    decomposition_tree,
    equalize_pair,
    transliterate_shape,
    trees_equiv,
)

from strategies import formula_strategy, random_formula

IPL = load_preset("IPL")
CPL = load_preset("CPL")
S43 = load_preset("S43", max_worlds=1)
GL = load_preset("GL", max_worlds=1)


def P(s):
    return parse_formula(s, IPL.signature)


def outdegree(g):
    return 0 if isinstance(g, Var) else len(g.args)


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
    """A formula is its own decomposition tree: the vertices are its
    subformula occurrences, and the edges lead from a node to its arguments."""

    def test_single_vertex(self):
        f = Var(1)
        assert decomposition_tree(f) is f
        assert f.size == 1 and list(subformulas(f)) == [f] and outdegree(f) == 0

    def test_occurrences_distinct(self):
        f = P("xi1 and xi1")
        assert decomposition_tree(f) is f
        assert f.size == len(list(subformulas(f))) == 3
        assert sum(outdegree(g) for g in subformulas(f)) == 2

    def test_outdegrees_of_worked_example(self):
        outs = [outdegree(g) for g in subformulas(P("xi1 -> (neg xi2)"))]
        assert sorted(outs, reverse=True) == [2, 1, 0, 0]


class TestTreesEquiv:
    def test_reflexive(self):
        t = P("(xi1 or xi2) -> (neg xi1)")
        assert trees_equiv(t, t)

    def test_worked_example(self):
        assert trees_equiv(P("top or (neg bot)"), P("xi1 -> (neg xi2)"))

    def test_vertex_count_blocks_embedding(self):
        assert not trees_equiv(Var(1), P("xi1 and xi2"))

    def test_strict_subtree_not_equivalent(self):
        small, big = P("neg xi1"), P("(neg xi1) and xi2")
        assert not trees_equiv(small, big) and not trees_equiv(big, small)

    def test_leaves_share_one_shape(self):
        assert trees_equiv(P("xi1 and top"), P("bot or xi2"))
        assert trees_equiv(P("neg (xi1 and top)"), P("neg (bot or bot)"))

    def test_unordered_children(self):
        assert trees_equiv(P("(neg xi1) and xi2"), P("xi2 and (neg xi1)"))

    def test_outdegree_respected(self):
        assert not trees_equiv(P("neg xi1"), P("xi1 and xi2"))

    def test_matches_shape_hash_oracle(self):
        rng = random.Random(17)
        agree = 0
        for _ in range(1000):
            f = random_formula(rng, IPL.signature, 3, max_var=2)
            g = random_formula(rng, IPL.signature, 3, max_var=2)
            got = trees_equiv(f, g)
            want = shape_hash(f) == shape_hash(g)
            assert got == want, (print_formula(f), print_formula(g))
            agree += 1
        assert agree == 1000

    @settings(max_examples=100)
    @given(formula_strategy(IPL.signature, max_depth=3))
    def test_symmetric(self, f):
        u = P("xi1 -> (neg xi2)")
        assert trees_equiv(f, u) == trees_equiv(u, f)


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
                assert trees_equiv(delta, psi)

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
                    assert trees_equiv(delta, psi)
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
        assert trees_equiv(f, g)

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
        assert trees_equiv(f1p, f2p)

    def test_spec_pair_with_truth_tables(self):
        from meetlogic.semantics import holds

        f1 = parse_formula("xi1", CPL.signature)
        f2 = parse_formula("xi2 and xi2", CPL.signature)
        f1p, f2p = equalize_pair(f1, f2, self.p1(), self.p2(),
                                 CPL.signature, CPL.signature,
                                 CPL.completion_profile, CPL.completion_profile)
        assert trees_equiv(f1p, f2p)
        for orig, new in ((f1, f1p), (f2, f2p)):
            law = parse_formula(f"({print_formula(orig)}) iff ({print_formula(new)})", CPL.signature)
            assert holds(CPL.characteristic, law)

    def test_equal_identity_positions_rejected(self):
        with pytest.raises(TreeError):
            equalize_pair(Var(1), Var(2), self.p1(), self.p1(),
                          CPL.signature, CPL.signature,
                          CPL.completion_profile, CPL.completion_profile)


# ---------------------------------------------------------------------------
# differential tests against the recursive reference in ref_trees.py

TRI = make_signature("TRI", [("tri", 3), ("and", 2), ("neg", 1)])


def reshape(rng, f, sig):
    """A formula of f's unordered shape over sig: children permuted, heads
    replaced by same-arity constructors, leaves redrawn as variables or
    constants."""
    if isinstance(f, Var) or not f.args:
        if rng.random() < 0.5:
            return Var(rng.randint(1, 3))
        return App(rng.choice(list(sig.by_arity[0].values())))
    args = [reshape(rng, a, sig) for a in f.args]
    rng.shuffle(args)
    return App(rng.choice(list(sig.by_arity[len(args)].values())), tuple(args))


def ref_equiv(f, g):
    return ref_trees.trees_equiv(ref_trees.decomposition_tree(f), ref_trees.decomposition_tree(g))


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (TreeError, SignatureError) as e:
        return type(e).__name__, str(e)


def equiv_pairs(seed):
    """Seeded pairs: reshaped copies (equivalent), independent draws, draws
    of equal size, and equalize_pair outputs, matched and crossed."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(700):
        f = random_formula(rng, IPL.signature, rng.randint(1, 4), max_var=2)
        pairs.append((f, reshape(rng, f, rng.choice((IPL.signature, S43.signature)))))
    for _ in range(500):
        sig = rng.choice((IPL.signature, S43.signature))
        pairs.append((random_formula(rng, sig, rng.randint(0, 4)), random_formula(rng, sig, rng.randint(0, 4))))
    by_size = {}
    for _ in range(600):
        f = random_formula(rng, S43.signature, rng.randint(2, 4), max_var=2)
        by_size.setdefault(f.size, []).append(f)
    same = [(f, g) for group in by_size.values() for f, g in zip(group, group[1:])]
    pairs.extend(rng.sample(same, min(len(same), 400)))
    G3 = load_preset("G3")
    outs = []
    for _ in range(150):
        f1 = random_formula(rng, CPL.signature, rng.randint(0, 3), max_var=2)
        f2 = random_formula(rng, G3.signature, rng.randint(0, 3), max_var=2)
        outs.append(equalize_pair(f1, f2, CPL.identity_profiles["and"], G3.identity_profiles["->"],
                                  CPL.signature, G3.signature,
                                  CPL.completion_profile, G3.completion_profile))
    pairs.extend(outs)
    pairs.extend((a[0], b[1]) for a, b in zip(outs, outs[1:]))
    pairs.extend((a, reshape(rng, b, CPL.signature)) for a, b in outs)
    return pairs


class TestAgainstReference:
    def test_trees_equiv_is_mutual_embedding(self):
        pairs = equiv_pairs(41)
        assert len(pairs) >= 2000
        equivalent = 0
        for f, g in pairs:
            want = ref_equiv(f, g)
            assert trees_equiv(f, g) == want, (print_formula(f), print_formula(g))
            equivalent += want
        assert equivalent * 3 >= len(pairs)
        assert len(pairs) - equivalent >= 500

    def test_completion_matches_reference(self):
        rng = random.Random(43)
        errors = set()
        for bundle in (IPL, S43, GL):
            heads = [c.name for c in bundle.signature.all_ctors() if c.arity] + ["bogus"]
            for _ in range(120):
                psi = random_formula(rng, bundle.signature, rng.randint(0, 4), max_var=2)
                for owner in (IPL, S43, GL, CPL):
                    prof = owner.completion_profile
                    for target in ("top", "bot"):
                        head = rng.choice([None, None, *heads])
                        want = outcome(ref_trees.completion_formula, psi, target, prof, root_head=head)
                        got = outcome(completion_formula, psi, target, prof, root_head=head)
                        assert got == want, (print_formula(psi), target, owner.name, head)
                        if want[0] != "ok":
                            errors.add(want[1])
        assert len(errors) >= 8, errors

    def test_completion_matches_reference_at_every_root_head(self):
        """The same node, or the same error, as the recursive builder, for
        both targets and every root head: none, each constructor name of the
        formulas' signatures, and a name no table has."""
        rng = random.Random(44)
        heads = sorted({c.name for b in (IPL, S43, CPL) for c in b.signature.all_ctors()}) + ["bogus"]
        outcomes = set()
        for bundle in (IPL, S43):
            for _ in range(60):
                psi = random_formula(rng, bundle.signature, rng.randint(0, 4), max_var=2)
                for owner in (IPL, S43, CPL):
                    prof = owner.completion_profile
                    for target in ("top", "bot"):
                        for head in (None, *heads):
                            want = outcome(ref_trees.completion_formula, psi, target, prof, root_head=head)
                            got = outcome(completion_formula, psi, target, prof, root_head=head)
                            assert got == want, (print_formula(psi), target, owner.name, head)
                            outcomes.add(want[0])
        assert outcomes == {"ok", "TreeError"}

    def test_transliterate_matches_reference(self):
        rng = random.Random(53)
        targets = (CPL.signature, GL.signature, make_signature("B2", [("and", 2)]),
                   make_signature("U1", [("box", 1)]), TRI)
        errors = set()
        for source in (IPL.signature, S43.signature, GL.signature, TRI):
            for _ in range(150):
                f = random_formula(rng, source, rng.randint(0, 4), max_var=2)
                for sig_b in targets:
                    want = outcome(ref_trees.transliterate_shape, f, sig_b)
                    assert outcome(transliterate_shape, f, sig_b) == want, (print_formula(f), sig_b.tag)
                    if want[0] != "ok":
                        errors.add(want[1])
        assert len(errors) == 3, errors


# ---------------------------------------------------------------------------
# deep and shared input: no walk recurses, and each distinct node is visited once

DEPTH = 10_000


def chain(sig, name, depth, leaf):
    ctor = sig.resolve(name, None, 1)
    for _ in range(depth):
        leaf = App(ctor, (leaf,))
    return leaf


class TestDeepInput:
    def test_trees_equiv(self):
        assert trees_equiv(chain(IPL.signature, "neg", DEPTH, Var(1)),
                           chain(S43.signature, "box", DEPTH, S43.signature.top))
        pair = P("xi1 and xi2")
        inner = chain(IPL.signature, "neg", DEPTH, pair)
        outer = App(pair.ctor, (chain(IPL.signature, "neg", DEPTH, Var(1)), Var(2)))
        assert inner.size == outer.size
        assert not trees_equiv(inner, outer) and trees_equiv(inner, inner)

    def test_completion_formula(self):
        for target, leaf in (("top", "top"), ("bot", "bot")):
            got = completion_formula(chain(IPL.signature, "neg", DEPTH, Var(1)), target,
                                     IPL.completion_profile)
            assert got is chain(IPL.signature, "neg", DEPTH, P(leaf))
        deep_box = chain(S43.signature, "neg", DEPTH, parse_formula("box xi1", S43.signature))
        with pytest.raises(TreeError, match="no unary completion table for 'box'"):
            completion_formula(deep_box, "top", IPL.completion_profile)

    def test_transliterate_shape(self):
        f = chain(S43.signature, "box", DEPTH, Var(1))
        assert transliterate_shape(f, CPL.signature) is chain(CPL.signature, "neg", DEPTH, Var(1))

    def test_shared_subformulas_are_not_unfolded(self):
        # 2**61 - 1 occurrences, 61 distinct nodes
        f = g = Var(1)
        conj, disj = IPL.signature.resolve("and", None, 2), IPL.signature.resolve("or", None, 2)
        for _ in range(60):
            f, g = App(conj, (f, f)), App(disj, (g, g))
        assert trees_equiv(f, g)
        assert completion_formula(f, "bot", IPL.completion_profile).size == f.size
        assert transliterate_shape(g, CPL.signature) is f
