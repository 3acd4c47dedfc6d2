import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meetlogic.calculus import (
    Clft,
    Derivation,
    Fx,
    Hyp,
    Lft,
    Line,
    RuleApp,
    check_derivation,
    freeze_subst,
)
from meetlogic.combination import combine_signatures
from meetlogic.formats import (
    FormatError,
    parse_derivation_file,
    parse_matrix_file,
    parse_oracle_table,
    parse_rule_file,
    parse_rule_line,
    rule_key,
    rule_line,
    serialize_derivation,
    serialize_matrix_file,
    serialize_rule_file,
)
from meetlogic.presets import load_preset
from meetlogic.semantics import holds, product_matrix
from meetlogic.syntax import ParseError, SignatureError, Var, parse_formula, print_formula

from ref_semantics import eval_formula

CPL = load_preset("CPL")


def P(s):
    return parse_formula(s, CPL.signature)


class TestRuleFiles:
    def test_roundtrip(self):
        text = "xi1\nxi1 -> xi2\n---\nxi2\n"
        r = parse_rule_file(text, CPL.signature, name="mp")
        assert r.name == "mp" and len(r.premises) == 2
        r2 = parse_rule_file(serialize_rule_file(r), CPL.signature, name="mp")
        assert r2 == r

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\nxi1\n\n---\nxi1 or xi2  # trailing\n"
        r = parse_rule_file(text, CPL.signature)
        assert r.conclusion == P("xi1 or xi2")

    def test_missing_separator(self):
        with pytest.raises(FormatError):
            parse_rule_file("xi1\nxi2\n", CPL.signature)

    def test_two_conclusions_rejected(self):
        with pytest.raises(FormatError):
            parse_rule_file("xi1\n---\nxi2\nxi3\n", CPL.signature)

    def test_rule_line_roundtrip(self):
        r = parse_rule_file("xi1\nxi1 -> xi2\n---\nxi2\n", CPL.signature, name="mp")
        assert parse_rule_line(rule_line(r), CPL.signature) == r

    def test_rule_line_empty_premises(self):
        r = parse_rule_line("ax: / xi1 -> xi1", CPL.signature)
        assert r.premises == () and r.conclusion == P("xi1 -> xi1")

    def test_rule_line_errors(self):
        with pytest.raises(FormatError):
            parse_rule_line("no separator here", CPL.signature)
        with pytest.raises(FormatError):
            parse_rule_line("name: xi1 ; xi2", CPL.signature)


class TestDerivationFiles:
    def sample(self):
        return Derivation((
            Line(P("xi1"), Hyp()),
            Line(P("xi1 -> xi2"), Hyp()),
            Line(P("xi2"), RuleApp("mp", (1, 2), freeze_subst({1: Var(1), 2: Var(2)}))),
        ))

    def test_roundtrip(self):
        d = self.sample()
        assert parse_derivation_file(serialize_derivation(d), CPL.signature) == d

    def test_roundtrip_checks(self):
        d = parse_derivation_file(serialize_derivation(self.sample()), CPL.signature)
        assert check_derivation(d, CPL.calculus, hyps=[P("xi1"), P("xi1 -> xi2")])

    def test_combined_justifications_roundtrip(self):
        from meetlogic.combination import combine_signatures, proj_embedded

        cs = combine_signatures(CPL.signature, load_preset("CPL").signature)
        psi = parse_formula("<and.CPL1|or.CPL2>(xi1, xi2)", cs)
        d = Derivation((
            Line(psi, Hyp()),
            Line(proj_embedded(psi, 1, cs, {}), Clft((1,), 1)),
            Line(proj_embedded(psi, 2, cs, {}), Clft((1,), 2)),
            Line(psi, Lft((2, 3))),
            Line(cs.falsum(1), Hyp()),
            Line(cs.falsum(2), Fx((5,))),
        ))
        assert parse_derivation_file(serialize_derivation(d), cs) == d

    def test_tagged_rule_names_roundtrip(self):
        # inherited liberal rules are named `rule@k#<pair ctor>`; the `#`
        # there does not start a comment
        from meetlogic.calculus import (SearchBounds, assemble_meet_calculus, bounded_proof_search,
                                        build_both_admissible_derivation)
        from meetlogic.combination import combine_signatures, project

        cpl, g3 = CPL, load_preset("G3")
        cs = combine_signatures(cpl.signature, g3.signature)
        meet = assemble_meet_calculus(cpl.calculus, g3.calculus, cs)
        hyps = [parse_formula("xi1", cs), parse_formula("<->.CPL|->.G3>(xi1, <neg.CPL|neg.G3>(xi1))", cs)]
        goal = parse_formula("<neg.CPL|neg.G3>(xi1)", cs)
        search = bounded_proof_search(meet, (), hyps, parse_formula("neg.CPL xi1", cs), SearchBounds(depth=2))
        ds = [bounded_proof_search(b.calculus, (), [project(h, k) for h in hyps], project(goal, k),
                                   SearchBounds(depth=2)) for k, b in ((1, cpl), (2, g3))]
        template = build_both_admissible_derivation(hyps, goal, *ds, meet, cpl, g3)
        for d in (search, template):
            text = serialize_derivation(d)
            assert "#<" in text
            assert parse_derivation_file(text, cs) == d
            assert parse_derivation_file(text.replace("\n", "  # a comment\n"), cs) == d

    def test_repeated_texts_read_back(self):
        """Each distinct formula text is parsed once per file; a text that
        lines and witnesses repeat reads back as the same formula, texts
        that differ only in their last variable stay apart, a text read
        over one signature is read again over another, and a malformed
        text fails where it first occurs, as a single one does."""
        a, b, c = P("xi1 -> xi1"), P("(xi1 -> xi1) -> (xi1 -> xi1)"), P("xi1 -> xi2")
        d = Derivation((
            Line(a, Hyp()),
            Line(b, Hyp()),
            Line(a, RuleApp("mp", (1, 2), freeze_subst({1: a, 2: a}))),
            Line(b, RuleApp("mp", (1, 2), freeze_subst({1: a, 2: a}))),
            Line(c, Hyp()),
        ))
        text = serialize_derivation(d)
        assert text.count(print_formula(a)) >= 6
        back = parse_derivation_file(text, CPL.signature)
        assert back == d and back.lines[2].formula is back.lines[0].formula
        boxed = "1. box(xi1) ; HYP\n"
        assert parse_derivation_file(boxed, load_preset("S43", max_worlds=2).signature).conclusion.ctor.name == "box"
        with pytest.raises(ParseError, match="unknown constructor 'box'"):
            parse_derivation_file(boxed, CPL.signature)
        bad = "xi1 -> (xi2"
        with pytest.raises(ParseError) as once:
            parse_formula(bad, CPL.signature)
        for body in (f"1. {bad} ; HYP\n2. {bad} ; HYP\n",
                     f"1. xi1 ; HYP\n2. xi1 ; RULE r s={{xi1:={bad}; xi2:={bad}}} lines=1\n"):
            with pytest.raises(ParseError) as err:
                parse_derivation_file(body, CPL.signature)
            assert str(err.value) == str(once.value)

    def test_bad_indices_rejected(self):
        with pytest.raises(FormatError):
            parse_derivation_file("2. xi1 ; HYP\n", CPL.signature)
        with pytest.raises(FormatError):
            parse_derivation_file("1. xi1 ; HYP\n3. xi2 ; HYP\n", CPL.signature)

    def test_unknown_justification_rejected(self):
        with pytest.raises(FormatError):
            parse_derivation_file("1. xi1 ; GUESS\n", CPL.signature)

    def test_empty_file_rejected(self):
        with pytest.raises(FormatError):
            parse_derivation_file("# nothing\n", CPL.signature)

    @pytest.mark.parametrize("just", [
        "CLFT line=x", "CLFT line=1", "LFT lines=1", "LFT lines=a,b", "FX line=",
        "RULE r s={xi1} lines=",
    ])
    def test_malformed_justification_rejected(self, just):
        with pytest.raises(FormatError, match="line 2"):
            parse_derivation_file(f"1. xi1 ; HYP\n2. xi1 ; {just}\n", CPL.signature)


class TestMatrixFiles:
    BOOL_TEXT = """
carrier 2
designated 1
op top 1
op bot 0
op neg 1 0
op and 0 0 0 1
op or 0 1 1 1
op -> 1 1 0 1
op iff 1 0 0 1
"""

    def test_parse_boolean(self):
        m = parse_matrix_file(self.BOOL_TEXT, CPL.signature)
        assert holds(m, P("xi1 or (neg xi1)"))
        assert eval_formula(m, {1: 0, 2: 1}, P("xi1 -> xi2")) == 1

    def test_verum_family_defaults_to_top(self):
        m = parse_matrix_file(self.BOOL_TEXT, CPL.signature)
        assert eval_formula(m, {1: 0}, P("topn.1(xi1)")) == 1

    def test_roundtrip(self):
        m = parse_matrix_file(self.BOOL_TEXT, CPL.signature)
        m2 = parse_matrix_file(serialize_matrix_file(m), CPL.signature)
        for text in ("xi1 or (neg xi1)", "xi1 -> (xi2 -> xi1)", "neg (xi1 iff xi1)"):
            f = P(text)
            assert holds(m, f) == holds(m2, f)

    def test_wrong_table_length_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix_file("carrier 2\ndesignated 1\nop neg 1\n", CPL.signature)

    def test_missing_headers_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix_file("op neg 1 0\n", CPL.signature)

    def test_missing_op_rejected(self):
        with pytest.raises(FormatError):
            parse_matrix_file("carrier 2\ndesignated 1\nop top 1\n", CPL.signature)

    @pytest.mark.parametrize("old, new, names", [
        ("op neg 1 0", "op neg 1 7", "op neg"),
        ("op neg 1 0", "op neg 1 -1", "op neg"),
        ("op neg 1 0", "op neg 1 x", "op neg"),
        ("designated 1", "designated 1 9", "designated"),
        ("designated 1", "designated one", "designated"),
        ("carrier 2", "carrier x", "carrier"),
        ("carrier 2", "carrier", "carrier"),
        ("carrier 2", "carrier 0", "carrier"),
        ("op neg 1 0", "op neg 1 0\nop box 1 0", "op box"),
        ("op top 1", "op top 0", "top must be designated"),
        ("op bot 0", "op bot 1", "bot must not be designated"),
    ])
    def test_bad_values_rejected(self, old, new, names):
        text = self.BOOL_TEXT.replace(old, new)
        with pytest.raises(FormatError, match=names):
            parse_matrix_file(text, CPL.signature)

    @pytest.mark.parametrize("pair", [("CPL", "G3"), ("CPL", "CPL"), ("IPL", "S43")], ids="x".join)
    def test_product_roundtrip(self, pair):
        """A product over a combined signature writes an `op` row per pair
        constructor, by its display, and reads back to the same tables."""
        b1, b2 = load_preset(pair[0]), load_preset(pair[1], max_worlds=2)
        cs = combine_signatures(b1.signature, b2.signature)
        m = product_matrix(b1.matrices[0], b2.matrices[0], cs)
        m2 = parse_matrix_file(serialize_matrix_file(m), cs)
        assert m2.tables == m.tables
        assert m2.designated_flags == m.designated_flags


class TestOracleTables:
    def test_parse(self):
        table, default = parse_oracle_table(
            "default 1\n0 xi1 / xi2\n1 xi1 / xi1\n# comment\n")
        assert default is True
        assert table == {"xi1 / xi2": False, "xi1 / xi1": True}

    def test_empty(self):
        table, default = parse_oracle_table("")
        assert table == {} and default is False

    @pytest.mark.parametrize("text, line", [
        ("x xi1 / xi1\n", 1),
        ("1 xi1 / xi1\n2 a\n", 2),
        ("# comment\n-1 xi1 / xi1\n", 1),
        ("default yes\n", 1),
        ("0 a\ndefault 2\n", 2),
        ("default\n", 1),
    ])
    def test_bad_verdict_rejected(self, text, line):
        with pytest.raises(FormatError, match=f"line {line}: expected a verdict 0 or 1"):
            parse_oracle_table(text)

    @pytest.mark.parametrize("text, line", [("1\n", 1), ("0 xi1 / xi1\n0   \n", 2)])
    def test_verdict_without_rule_key_rejected(self, text, line):
        with pytest.raises(FormatError, match=f"line {line}: verdict [01] has no rule key"):
            parse_oracle_table(text)

    def test_premise_free_keys_match_rule_key(self):
        goal = P("xi1 -> xi1")
        table, _ = parse_oracle_table(f"1 {rule_key((), goal)}\n0  / xi1\n")
        assert table == {rule_key((), goal): True, rule_key((), P("xi1")): False}


# Token soup for the readers: formula tokens over both signatures, the
# formats' keywords, small integers (a `carrier N` line makes each
# verum-family table N**arity long), comment marks and newlines.
CPL_G3 = combine_signatures(CPL.signature, load_preset("G3").signature)
TOKENS = (
    "xi1", "xi2", "(", ")", ",", "->", "and", "or", "iff", "neg", "top", "bot", "topn.1", "topn.2",
    "<->.CPL|->.G3>", "<top.CPL|top.G3>", "<bot.CPL|top.G3>", "<neg.CPL|topn.1.G3>", "->.CPL", "neg.G3",
    "---", "/", ";", ":", ".", "=", "HYP", "RULE", "s={", "}", ":=", "lines=", "line=", "k=", "LFT", "CLFT",
    "FX", "carrier", "designated", "op", "default", "#", "\n",
)
# A variable index too long for `int` on Python 3.11+, in a rule file, a
# rule line and a derivation line.
LONG_VAR = "xi" + "9" * 5000
SOUP = st.lists(st.tuples(st.sampled_from(TOKENS) | st.integers(0, 99).map(str), st.sampled_from(["", " "])),
                max_size=40).map(lambda parts: "".join(t + sep for t, sep in parts))


class TestFuzzReaders:
    @pytest.mark.parametrize("sig", [CPL.signature, CPL_G3], ids=["CPL", "CPLxG3"])
    @settings(max_examples=300, deadline=None)
    @given(text=SOUP)
    @example(text=f"{LONG_VAR}\n---\nxi1")
    @example(text=f"r: xi1 ; {LONG_VAR} / xi1")
    @example(text=f"1. {LONG_VAR} ; HYP")
    def test_token_soup_raises_only_format_errors(self, sig, text):
        for read in (parse_rule_file, parse_rule_line, parse_derivation_file, parse_matrix_file):
            try:
                read(text, sig)
            except (FormatError, ParseError, SignatureError):
                pass
        try:
            parse_oracle_table(text)
        except FormatError:
            pass
