import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetlogic.syntax import (
    App,
    Ctor,
    ParseError,
    SignatureError,
    Var,
    apply_substitution,
    compose_substitutions,
    make_signature,
    match_formula,
    max_schema_index,
    parse_formula,
    print_formula,
)
from meetlogic.calculus import Rule

from strategies import formula_strategy

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
