import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetlogic.syntax import (
    App,
    Ctor,
    ParseError,
    Signature,
    SignatureError,
    Var,
    apply_substitution,
    compose_substitutions,
    make_signature,
    match_formula,
    max_schema_index,
    parse_formula,
    print_formula,
    variables_of,
)
from meetlogic.calculus import Rule, _instance_text
from meetlogic.combination import CombinedSignature, PairCtor, combine_signatures

from ref_parser import ref_parse_formula
from strategies import formula_strategy, random_formula

SIG = make_signature("IPL", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])


def P(s):
    return parse_formula(s, SIG)


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
        texts: dict = {}
        for sig in (SIG, CAB, braces):
            for i in range(300):
                rng = random.Random(f"memo:{i}")
                rule = Rule("r", (), random_formula(rng, sig, 3))
                subst = {v: random_formula(rng, sig, 3) for v in variables_of(rule.conclusion)}
                text = _instance_text(rule, subst, texts)
                assert text == print_formula(apply_substitution(subst, rule.conclusion))
        assert len(texts) > 600
        assert all(text == print_formula(g) for g, text in texts.items())


# Surface syntax for the differential test: one component signature, and
# a combined one whose sides differ, so that tags and pairs can fail to resolve.
K = make_signature("K", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1),
                         ("box", 1), ("dia", 1), ("f", 3), ("g", 1), ("c", 0)])
CA = make_signature("A", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])
CB = make_signature("B", [("and", 2), ("or", 2), ("->", 2), ("neg", 1), ("box", 1), ("dia", 1), ("c", 0)])
CAB = combine_signatures(CA, CB)
INFIX, PREFIX = ["and", "or", "->", "iff"], ["neg", "box", "dia"]
SNIPPETS = ["(", ")", ",", "<", ">", "|", ".", " ", "xi", "and", "neg", "->", "-", "A", "1", ".A", "box "]


def random_surface(rng, sig, depth):
    """Seeded text over `sig` with infix, prefix, applications and parentheses;
    about one name in twenty is picked regardless of the signature."""
    def name(arity, only=None):
        def pick(side):
            names = [n for n in side.by_arity.get(arity, ()) if only is None or n in only]
            if not names or rng.random() < 0.05:
                names = INFIX + PREFIX + ["f", "top", "topn.1"]
            return rng.choice(names)
        if sig is not CAB:
            return pick(sig)
        if rng.random() < 0.5:
            k = rng.choice((1, 2))
            return f"{pick(CA if k == 1 else CB)}.{'AB'[k - 1]}"
        return f"<{pick(CA)}.A|{pick(CB)}.B>"

    r = rng.random()
    if depth == 0 or r < 0.2:
        return f"xi{rng.randint(1, 3)}" if rng.random() < 0.6 else name(0)
    sub = lambda: random_surface(rng, sig, depth - 1)
    if r < 0.4:
        return name(1, PREFIX) + rng.choice([" ", "  ", ""]) + sub()
    if r < 0.7:
        return sub() + rng.choice([" ", " ", "\t"]) + name(2, INFIX) + " " + sub()
    if r < 0.85:
        n = rng.choice([1, 1, 2, 2, 3])
        return f"{name(n)}({', '.join(sub() for _ in range(n))})"
    return f"({sub()})"


def mutate_text(rng, text):
    """One to three edits: insert a snippet, delete or duplicate a few characters."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.4:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif op < 0.7:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            j = min(len(text), i + rng.randint(1, 6))
            text = text[:j] + text[i:j] + text[j:]
    return text


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
                             lambda f: App(CAB.resolve_pair("and", "A", "->", "B"), (Var(2), f))),
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
