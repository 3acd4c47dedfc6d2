import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetlogic import syntax
from meetlogic.syntax import (
    App,
    Ctor,
    ParseError,
    Signature,
    SignatureError,
    Var,
    apply_substitution,
    make_signature,
    match_formula,
    max_schema_index,
    parse_formula,
    postorder,
    print_formula,
    variables_of,
)
from meetlogic.calculus import Rule, _Texts
from meetlogic.combination import CombinedSignature, PairCtor, combine_signatures

from ref_parser import ref_parse_formula
from ref_syntax import ref_apply_substitution, ref_postorder, ref_tokenize
from strategies import CAB, K, formula_strategy, mutate_text, random_formula, random_surface

SIG = make_signature("IPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])


def P(s):
    return parse_formula(s, SIG)


def compose_substitutions(s2, s1):
    """Substitution s with apply(s, f) = apply(s2, apply(s1, f))."""
    out = {k: apply_substitution(s2, v) for k, v in s1.items()}
    for k, v in s2.items():
        out.setdefault(k, v)
    return out


class TestSignature:
    def test_top_bot_always_present(self):
        assert SIG.has("top", 0) and SIG.has("bot", 0)

    def test_verum_family_per_inhabited_arity(self):
        assert SIG.has("topn.1", 1) and SIG.has("topn.2", 2)

    def test_duplicate_constructor_rejected(self):
        with pytest.raises(SignatureError):
            make_signature("X", [("c", 1), ("c", 1)])

    def test_arity_mismatch_on_app(self):
        with pytest.raises(SignatureError):
            App(Ctor("neg", 1), ())


class TestParser:
    def test_infix_arrow(self):
        f = P("(xi1 ->. xi2)")  # stray trailing dot after a name is tolerated
        assert f == App(SIG.by_arity[2]["->"], (Var(1), Var(2)))

    def test_application_form(self):
        assert P("and(xi1, xi2)") == P("xi1 and xi2")

    def test_variable_application_rejected(self):
        with pytest.raises(ParseError):
            P("xi1(xi2)")

    def test_unknown_constructor(self):
        with pytest.raises(ParseError):
            P("zap(xi1)")

    def test_position_reported(self):
        with pytest.raises(ParseError) as e:
            P("xi1 and ((")
        assert e.value.pos >= 9

    def test_precedence(self):
        assert P("xi1 and xi2 or xi3") == P("(xi1 and xi2) or xi3")
        assert P("xi1 -> xi2 -> xi3") == P("xi1 -> (xi2 -> xi3)")
        assert P("neg xi1 and xi2") == P("(neg xi1) and xi2")

    def test_long_variable_index(self):
        """An index too long for `int` (Python's limit on decimal digits,
        where there is one) is a ParseError at the index, not a ValueError."""
        digits = "9" * 5000
        for text, pos in (("xi" + digits, 2), ("neg xi" + digits, 6), ("xi1 and (xi" + digits + ")", 11)):
            try:
                index = int(digits)
            except ValueError:
                with pytest.raises(ParseError, match="variable index of 5000 digits is too long") as e:
                    P(text)
                assert e.value.pos == pos
            else:
                assert index in variables_of(P(text))

    def test_verum_family_literal(self):
        f = P("topn.2(xi1, xi2)")
        assert f.ctor.name == "topn.2" and f.ctor.arity == 2

    def test_print_examples(self):
        assert print_formula(Var(1)) == "xi1"
        assert print_formula(SIG.bot) == "bot"

    @settings(max_examples=200)
    @given(formula_strategy(SIG))
    def test_roundtrip(self, f):
        assert parse_formula(print_formula(f), SIG) == f

    def test_memoised_print_matches_plain(self):
        """The text a proof search orders an instance by, made in one step
        from its rule's template and the images' texts in a table that many
        seeded instances share, is the instance's plain text; braces in a
        constructor's name are not template fields."""
        braces = make_signature("BR", [("{0}", 2), ("}", 1)])
        texts = _Texts()
        for sig in (SIG, CAB, braces):
            for i in range(300):
                rng = random.Random(f"memo:{i}")
                rule = Rule("r", (), random_formula(rng, sig, 3))
                subst = {v: random_formula(rng, sig, 3) for v in variables_of(rule.conclusion)}
                images = [subst[v] for v in sorted(subst)]
                text = rule.instantiator[1](*[texts[g] for g in images])
                assert text == print_formula(apply_substitution(subst, rule.conclusion))
        assert len(texts) > 600
        assert all(text == print_formula(g) for g, text in texts.items())


def parse_outcome(parse, text, sig):
    try:
        return ("ok", parse(text, sig))
    except ParseError as e:
        return ("ParseError", str(e), e.pos)


class TestParserAgainstReference:
    """The iterative parser against the recursive-descent one it replaced
    (tests/ref_parser.py): the same node, or the same error at the same place."""

    def test_seeded_texts(self):
        rng = random.Random("parser-differential")
        counts = {"ok": 0, "ParseError": 0}
        for i in range(6000):
            sig = K if i % 2 == 0 else CAB
            text = random_surface(rng, sig, rng.randint(0, 5))
            if rng.random() < 0.5:
                text = mutate_text(rng, text)
            ref = parse_outcome(ref_parse_formula, text, sig)
            new = parse_outcome(parse_formula, text, sig)
            counts[ref[0]] += 1
            if ref[0] == "ok":
                assert new[0] == "ok" and new[1] is ref[1], text
            else:
                assert new == ref, text
        # both outcomes are well represented
        assert min(counts.values()) > 2000

    @pytest.mark.parametrize("text", [
        "xi1 -> xi2 -> xi3 and xi1 or xi2 iff xi3",
        "xi1 iff xi2 iff xi3 -> neg neg xi1",
        "neg box dia xi1 and f(xi1, g(xi2) or c, neg (xi3))",
        "(xi1 and (xi2 or", "f(xi1, xi2)", "xi1 (", "g(xi1,)", "neg", "and xi1", "xi1 neg xi2",
        # edge cases of the name lexer: a lone trailing dot, a tagged
        # variable name, verum suffixes (str.isdigit accepts '²', which no
        # [0-9] does), whitespace inside and around combined constructors
        "xi1.", "xi2.A", "topn.2.A(xi1, xi2)", "topn.(xi1)", "topn.²(xi1)", "xi1 and xi2",
        "<-> .A|->.B>(xi1, xi1)", "<and.A|or>(xi1, xi2)", "<and.A|or.B",
        # outside ASCII: what str.isdigit and str.isspace accept
        "topn.2é(xi1)", "topn.½(xi1)", "<topn.2é.A|and.B>(xi1, xi2)", "<and.A|topn.²>", "xi1\u00a0and\u2003xi2 ",
        "é", "xi1 and\u00a0",
    ])
    def test_fixed_texts(self, text):
        for sig in (K, CAB):
            assert parse_outcome(parse_formula, text, sig) == parse_outcome(ref_parse_formula, text, sig)


class TestMemoisedTokenizer:
    """`_tokenize` classifies each distinct token text once per process;
    the token lists and errors are those of the grouped tokenizer it
    replaced (tests/ref_syntax.py)."""

    @staticmethod
    def outcome(tokenize, text):
        try:
            return tokenize(text)
        except ParseError as e:
            return ("ParseError", str(e), e.pos)

    def texts(self):
        """The texts `TestParserAgainstReference.test_seeded_texts` draws."""
        rng = random.Random("parser-differential")
        for i in range(6000):
            text = random_surface(rng, K if i % 2 == 0 else CAB, rng.randint(0, 5))
            yield mutate_text(rng, text) if rng.random() < 0.5 else text

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_same_tokens_as_reference(self, memo):
        errors = 0
        for text in self.texts():
            if memo == "cold":
                syntax._MEMO.clear()
            want = self.outcome(ref_tokenize, text)
            assert self.outcome(syntax._tokenize, text) == want, text
            errors += want[0] == "ParseError"
        assert 1000 < errors < 3000

    def test_memo_stays_within_its_bound(self):
        syntax._MEMO.clear()
        for i in range(10_000):
            assert syntax._tokenize(f"xi{i} and xi{i + 1}")[2] == ("var", i + 1, None)
        long_name = "a" * 50_000
        assert syntax._tokenize(long_name + ".A") == [("name", (long_name, "A"), long_name), ("end", None, None)]
        assert 0 < len(syntax._MEMO) <= syntax._MEMO_SIZE
        assert max(map(len, syntax._MEMO)) <= syntax._MEMO_LEN
        assert P("xi1 and neg xi2") == App(SIG.resolve("and", None, 2), (Var(1), App(SIG.resolve("neg", None, 1), (Var(2),))))


def fresh(sig):
    """A new signature object with the same constructors and nothing resolved yet."""
    if isinstance(sig, CombinedSignature):
        return combine_signatures(fresh(sig.sig1), fresh(sig.sig2))
    return Signature(sig.tag, sig.by_arity)


class TestResolutionMemo:
    """The parser keeps the constructors it resolved on the signature object;
    that changes no outcome."""

    def test_cold_and_warm_parses_agree(self):
        rng = random.Random("resolution-memo")
        for template in (K, CAB):
            texts = [random_surface(rng, template, rng.randint(0, 4)) for _ in range(1500)]
            texts = [mutate_text(rng, t) if rng.random() < 0.5 else t for t in texts]
            warm = fresh(template)
            first = [parse_outcome(parse_formula, t, warm) for t in texts]
            kinds = {outcome[0] for outcome in first}
            assert kinds == {"ok", "ParseError"}
            for text, outcome in zip(texts, first):
                assert parse_outcome(parse_formula, text, fresh(template)) == outcome, text
                assert parse_outcome(parse_formula, text, warm) == outcome, text
            assert warm._resolved
            assert all(isinstance(c, (Ctor, PairCtor)) for c in warm._resolved.values())


class TestDeepInput:
    """Text 10,000 levels deep parses, and the formula prints and reads back
    to the same node."""

    N = 10_000
    SHAPES = {
        "prefix": ("neg " * N + "xi1", lambda f: App(SIG.resolve("neg", None, 1), (f,))),
        "application": ("iff(xi2, " * N + "xi1" + ")" * N,
                        lambda f: App(SIG.resolve("iff", None, 2), (Var(2), f))),
        "parentheses": ("(" * N + "xi1" + ")" * N, lambda f: f),
        "arrow-chain": ("xi2 -> " * N + "xi1", lambda f: App(SIG.resolve("->", None, 2), (Var(2), f))),
        "and-chain": ("xi1" + " and xi2" * N, lambda f: App(SIG.resolve("and", None, 2), (f, Var(2)))),
        "pair-application": ("<and.A|->.B>(xi2, " * N + "xi1" + ")" * N,
                             lambda f: App(CAB.resolve_pair("and", "A", "->", "B", 2), (Var(2), f))),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_roundtrip(self, shape):
        text, build = self.SHAPES[shape]
        sig = CAB if shape.startswith("pair") else SIG
        f = Var(1)
        for _ in range(self.N):
            f = build(f)
        assert parse_formula(text, sig) is f
        assert parse_formula(print_formula(f), sig) is f


class TestSubstitution:
    def test_simple(self):
        assert apply_substitution({1: SIG.top}, P("xi1 and xi2")) == P("top and xi2")

    def test_identity(self):
        f = P("xi1 -> (neg xi2)")
        assert apply_substitution({}, f) == f

    def test_swap(self):
        assert apply_substitution({1: Var(2), 2: Var(1)}, P("xi1 -> xi2")) == P("xi2 -> xi1")

    @settings(max_examples=150)
    @given(formula_strategy(SIG), st.data())
    def test_composition_law(self, f, data):
        sub = formula_strategy(SIG, max_depth=2)
        s1 = {i: data.draw(sub) for i in range(1, 4)}
        s2 = {i: data.draw(sub) for i in range(1, 4)}
        lhs = apply_substitution(s2, apply_substitution(s1, f))
        rhs = apply_substitution(compose_substitutions(s2, s1), f)
        assert lhs == rhs

    def test_same_node_as_reference(self):
        """The iterative substitution returns the very node that the
        recursive one it replaced returns, on seeded formulas over a
        component and a combined signature, with images that are variables,
        constants or formulas, and sometimes no image at all."""
        for name, sig in (("component", SIG), ("combined", CAB)):
            rng = random.Random(f"substitution:{name}")
            for _ in range(400):
                f = random_formula(rng, sig, rng.randint(0, 6), 4)
                s = {v: random_formula(rng, sig, rng.randint(0, 3), 4) for v in range(1, 5) if rng.random() < 0.7}
                assert apply_substitution(s, f) is ref_apply_substitution(s, f), print_formula(f)

    def test_deep_formula(self):
        """A formula 10,000 levels deep substitutes, at every level."""
        neg, conj = SIG.resolve("neg", None, 1), SIG.resolve("and", None, 2)
        f, want = Var(1), P("xi2 -> xi3")
        for _ in range(10_000):
            f, want = App(conj, (App(neg, (f,)), Var(2))), App(conj, (App(neg, (want,)), SIG.top))
        assert apply_substitution({1: P("xi2 -> xi3"), 2: SIG.top}, f) is want


def shared_formula(rng, sig, steps):
    """A seeded formula DAG: each step applies a constructor to earlier
    results, so subterms are shared, and the pool starts with variables and
    every nullary constant."""
    pool = [Var(1), Var(2)] + [App(c) for c in sig.all_ctors() if not c.arity]
    ctors = [c for c in sig.all_ctors() if c.arity]
    for _ in range(steps):
        c = rng.choice(ctors)
        pool.append(App(c, tuple(rng.choice(pool[-8:] if rng.random() < 0.7 else pool) for _ in range(c.arity))))
    return pool[-1]


class TestPostorder:
    def _walk(self, walk, f, accepted):
        asked = []

        def done(g):
            asked.append(g)
            return id(g) in accepted

        return walk(f, done), asked

    def test_matches_reference(self):
        """The same nodes in the same order as the recursive reference, and
        the same questions to `done` in the same order, on seeded formulas
        with shared subterms and constants, with `done` accepting nothing, a
        random set of nodes, or everything."""
        rng = random.Random("postorder")
        for _ in range(300):
            f = shared_formula(rng, SIG, rng.randint(0, 40)) if rng.random() < 0.8 else random_formula(rng, SIG, 5)
            want = ref_postorder(f)
            assert [id(g) for g in postorder(f)] == [id(g) for g in want], print_formula(f)
            for accepted in (set(), {id(g) for g in want if rng.random() < 0.3}, {id(g) for g in want}):
                got, asked = self._walk(postorder, f, accepted)
                ref_got, ref_asked = self._walk(ref_postorder, f, accepted)
                assert [id(g) for g in got] == [id(g) for g in ref_got], print_formula(f)
                assert [id(g) for g in asked] == [id(g) for g in ref_asked], print_formula(f)

    def test_done_contract(self):
        """`done` is asked once about each distinct application, parents
        first; an accepted node is left out with exactly what lies only
        below it; every listed node comes after its listed arguments."""
        rng = random.Random("postorder:done")
        for _ in range(200):
            f = shared_formula(rng, SIG, rng.randint(1, 40))
            accepted = {id(g) for g in postorder(f) if g is not f and rng.random() < 0.25}
            got, asked = self._walk(postorder, f, accepted)
            ids = [id(g) for g in asked]
            assert len(set(ids)) == len(ids) and ids[0] == id(f)
            reached, todo = set(), [f]  # the applications reachable without passing an accepted node
            while todo:
                g = todo.pop()
                if g.__class__ is App and id(g) not in reached:
                    reached.add(id(g))
                    if id(g) not in accepted:
                        todo.extend(g.args)
            assert set(ids) == reached
            for k, g in enumerate(asked[1:], 1):  # each reached through an earlier asked, unaccepted parent
                assert any(g in p.args for p in asked[:k] if id(p) not in accepted)
            assert {id(g) for g in got} == reached - accepted
            position = {id(g): k for k, g in enumerate(got)}
            for k, g in enumerate(got):
                assert all(position[id(a)] < k for a in g.args if id(a) in position)

    def test_leaves(self):
        asked = []
        assert postorder(Var(1), asked.append) == [] and asked == []
        assert postorder(SIG.top) == [SIG.top]
        assert postorder(SIG.top, lambda g: True) == []
        f = P("top and (xi1 or top)")
        assert postorder(f) == [SIG.top, P("xi1 or top"), f]

    def test_deep_chain(self):
        """A chain 10,000 levels deep, with a constant beside every link."""
        neg, conj = SIG.resolve("neg", None, 1), SIG.resolve("and", None, 2)
        f, want = Var(1), []
        for level in range(10_000):
            f = App(conj, (f, SIG.bot)) if level % 2 else App(neg, (f,))
            want.append(f)
        want.insert(1, SIG.bot)
        assert [id(g) for g in postorder(f)] == [id(g) for g in want]


class TestMatch:
    def test_repeated_variable(self):
        t = P("(xi3 and xi4) -> (xi3 and xi4)")
        assert match_formula(P("xi1 -> xi1"), t) == {1: P("xi3 and xi4")}

    def test_inconsistent(self):
        assert match_formula(P("xi1 -> xi1"), P("xi2 -> xi3")) is None

    def test_variable_pattern(self):
        f = P("neg (xi1 or xi2)")
        assert match_formula(Var(1), f) == {1: f}

    def test_seeded_binding_extended_not_modified(self):
        seed = {1: P("xi3")}
        assert match_formula(P("xi1 -> xi2"), P("xi3 -> (xi1 and xi3)"), seed) == \
            {1: P("xi3"), 2: P("xi1 and xi3")}
        assert match_formula(P("xi1 -> xi2"), P("xi4 -> xi3"), seed) is None
        assert seed == {1: P("xi3")}

    @settings(max_examples=150)
    @given(formula_strategy(SIG, max_depth=3), st.data())
    def test_match_apply_adjunction(self, p, data):
        s = {i: data.draw(formula_strategy(SIG, max_depth=2)) for i in range(1, 4)}
        t = apply_substitution(s, p)
        m = match_formula(p, t)
        assert m is not None
        assert apply_substitution(m, p) == t


class TestMaxIndex:
    def test_formula(self):
        assert max_schema_index(P("xi3 or xi1")) == 3

    def test_no_variables(self):
        assert max_schema_index(SIG.top) == 0

    def test_rule(self):
        mp = Rule("mp", (P("xi1"), P("xi1 -> xi2")), P("xi2"))
        assert max_schema_index(mp) == 2
