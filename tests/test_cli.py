import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meetlogic import cli, formats, presets, semantics
from meetlogic.calculus import Calculus, Rule, SearchBounds
from meetlogic.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_NO, EXIT_USAGE, EXIT_YES, main
from meetlogic.combination import combine_signatures, project
from meetlogic.semantics import check_rule_soundness
from meetlogic.syntax import parse_formula, print_formula

from golden_decide import GOLDEN as GOLDEN_DECIDE
from golden_decide import calls as golden_decide_calls
from golden_decide import replay as golden_decide_replay
from strategies import CA, CAB, mutate_text, random_formula, random_surface


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_verb(self, capsys):
        code, _, _ = run(capsys, )
        assert code == EXIT_USAGE

    def test_unknown_verb(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "combine", "--l1", "CPL", "--l2", "K4")
        assert code == EXIT_USAGE and "error" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "--logic", "CPL", "xi1 and and")
        assert code == EXIT_USAGE and "error" in err

    def test_missing_logic_selection(self, capsys):
        code, _, err = run(capsys, "eval", "xi1")
        assert code == EXIT_USAGE


class TestCombineProjectEmbed:
    def test_combine_text(self, capsys):
        code, out, _ = run(capsys, "combine", "--l1", "CPL", "--l2", "G3")
        assert code == EXIT_YES
        assert "<and.CPL|and.G3>" in out

    def test_combine_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "combine", "--l1", "CPL", "--l2", "G3", "--format", "json")
        code2, out2, _ = run(capsys, "combine", "--l1", "CPL", "--l2", "G3", "--format", "json")
        assert code1 == code2 == EXIT_YES and out1 == out2
        payload = json.loads(out1)
        assert payload["schematic"] == ["LFT", "cLFT", "FX"]

    def test_embed_then_project_identity(self, capsys):
        code, out, _ = run(capsys, "embed", "--l1", "CPL", "--l2", "G3", "-k", "1",
                           "neg xi1")
        assert code == EXIT_YES
        embedded = out.strip()
        code, out, _ = run(capsys, "project", "--l1", "CPL", "--l2", "G3", "-k", "1",
                           embedded)
        assert code == EXIT_YES and out.strip() == "neg(xi1)"

    def test_deep_project_reads_back(self, capsys):
        code, out, _ = run(capsys, "project", "--l1", "CPL", "--l2", "G3", "-k", "2",
                           "<neg.CPL|neg.G3> " * 3000 + "xi1")
        assert code == EXIT_YES
        g3 = presets.load_preset("G3").signature
        assert parse_formula(out, g3) is parse_formula("neg " * 3000 + "xi1", g3)

    def test_deep_embed_reads_back(self, capsys):
        code, out, _ = run(capsys, "embed", "--l1", "CPL", "--l2", "G3", "-k", "1",
                           "xi1 -> " * 3000 + "xi1")
        assert code == EXIT_YES
        cpl, g3 = presets.load_preset("CPL").signature, presets.load_preset("G3").signature
        f = parse_formula(out, combine_signatures(cpl, g3))
        assert print_formula(f) == out.strip()
        assert project(f, 1) is parse_formula("xi1 -> " * 3000 + "xi1", cpl)


class TestTagVerb:
    def test_component_rule_tagged(self, tmp_path, capsys):
        rule = tmp_path / "mp.rule"
        rule.write_text("xi1\nxi1 -> xi2\n---\nxi2\n")
        code, out, _ = run(capsys, "tag", "--l1", "CPL", "--l2", "G3", "--side", "1",
                           "--rule", str(rule), "--name", "mp")
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        # one variant per constructor of the first component signature
        assert all(l.startswith("mp@1#") for l in lines)
        assert any("<and.CPL|" in l for l in lines)

    def test_non_liberal_untouched(self, tmp_path, capsys):
        rule = tmp_path / "ax.rule"
        rule.write_text("---\nxi1 -> (xi2 -> xi1)\n")
        code, out, _ = run(capsys, "tag", "--l1", "CPL", "--l2", "G3", "--side", "2",
                           "--rule", str(rule), "--name", "ax")
        assert code == EXIT_YES
        lines = out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ax@2:")


    def test_deep_liberal_rule_reads_back(self, tmp_path, capsys):
        """A liberal rule whose premise is 3,000 levels deep is tagged: the
        conclusion variable is replaced at the bottom of the premise."""
        rule = tmp_path / "r.rule"
        rule.write_text("neg " * 3000 + "xi1\n---\nxi1\n")
        code, out, _ = run(capsys, "tag", "--l1", "CPL", "--l2", "G3", "--side", "1", "--rule", str(rule))
        assert code == EXIT_YES
        cpl, g3 = presets.load_preset("CPL").signature, presets.load_preset("G3").signature
        cs = combine_signatures(cpl, g3)
        lines = out.strip().splitlines()
        assert len(lines) == len(list(cs.side_ctors(1)))
        for line in lines:
            r = formats.parse_rule_line(line, cs)
            assert formats.rule_line(r) == line
            (premise,) = r.premises
            assert premise.size == 3000 + r.conclusion.size
            assert project(premise, 1) is parse_formula("neg " * 3000 + print_formula(project(r.conclusion, 1)), cpl)


class TestSearchAndCheck:
    def test_search_component_theorem(self, capsys):
        code, out, _ = run(capsys, "search", "--logic", "CPL",
                           "--goal", "xi1 -> xi1", "--depth", "4")
        assert code == EXIT_YES and "HYP" not in out

    def test_search_inconclusive(self, capsys):
        code, out, _ = run(capsys, "search", "--logic", "CPL", "--goal", "bot",
                           "--depth", "3")
        assert code == EXIT_INCONCLUSIVE and "not found" in out

    def test_search_output_rechecks(self, tmp_path, capsys):
        code, out, _ = run(capsys, "search", "--logic", "CPL",
                           "--goal", "xi2", "--hyps", "xi1 ; xi1 -> xi2",
                           "--depth", "3")
        assert code == EXIT_YES
        deriv = tmp_path / "d.txt"
        deriv.write_text(out)
        code, out2, _ = run(capsys, "check-derivation", "--logic", "CPL",
                            "--derivation", str(deriv), "--hyps", "xi1 ; xi1 -> xi2")
        assert code == EXIT_YES and out2.strip() == "accepted"

    def test_search_with_basis_keeps_the_lifted_derivation(self, tmp_path, capsys):
        """Basis rules lose no derivation: the meet goal that only LFT
        concludes is found with the basis too, and the checker accepts the
        derivation with the meet basis as extra rules."""
        meet = ("--l1", "IPL", "--l2", "S43")
        code, out, _ = run(capsys, "search", *meet, "--goal", "<->.IPL|->.S43>(xi1, xi1)", "--with-basis")
        assert code == EXIT_YES
        deriv, basis = tmp_path / "d.txt", tmp_path / "basis.txt"
        deriv.write_text(out)
        code, out, _ = run(capsys, "basis", *meet)
        assert code == EXIT_YES
        basis.write_text(out)
        code, out, _ = run(capsys, "check-derivation", *meet, "--derivation", str(deriv), "--extra", str(basis))
        assert code == EXIT_YES and out.strip() == "accepted"

    def test_check_rejects_corrupt_derivation(self, tmp_path, capsys):
        deriv = tmp_path / "bad.txt"
        deriv.write_text("1. xi1 ; HYP\n2. xi2 ; LFT lines=1,1\n")
        code, out, _ = run(capsys, "check-derivation", "--logic", "CPL",
                           "--derivation", str(deriv), "--hyps", "xi1")
        assert code == EXIT_NO and "rejected at line 2" in out

    def test_meet_check_with_clft(self, tmp_path, capsys):
        deriv = tmp_path / "m.txt"
        deriv.write_text(
            "1. <and.CPL1|or.CPL2>(xi1, xi2) ; HYP\n"
            "2. <and.CPL1|topn.2.CPL2>(xi1, xi2) ; CLFT line=1 k=1\n"
        )
        code, out, _ = run(capsys, "check-derivation", "--l1", "CPL", "--l2", "CPL",
                           "--derivation", str(deriv),
                           "--hyps", "<and.CPL1|or.CPL2>(xi1, xi2)")
        assert code == EXIT_YES


class TestDecideAdmissible:
    def write_rule(self, tmp_path, text):
        p = tmp_path / "r.rule"
        p.write_text(text)
        return str(p)

    def test_derivable_rule_affirmative(self, tmp_path, capsys):
        rule = self.write_rule(
            tmp_path,
            "xi1\n<->.CPL1|->.CPL2>(xi1, xi2)\n---\nxi2\n",
        )
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "CPL",
                           "--rule", rule)
        assert code == EXIT_YES
        assert out.strip() == "a1=1 a2=1 -> 1"

    def test_disjunction_projection_negative(self, tmp_path, capsys):
        rule = self.write_rule(tmp_path, "<or.CPL1|or.CPL2>(xi1, xi2)\n---\nxi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "CPL",
                           "--rule", rule)
        assert code == EXIT_NO
        assert out.strip() == "a1=0 a2=0 -> 0"

    def test_stub_split_uses_fallback(self, tmp_path, capsys):
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3",
                           "--rule", rule, "--oracle1", "stub:1:1", "--oracle2", "stub:0")
        assert code == EXIT_YES
        assert "fallback o1(bot)=1" in out

    def test_table_oracle(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("default 0\n1 xi1 / xi1\n")
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "CPL",
                           "--rule", rule,
                           "--oracle1", f"table:{table}", "--oracle2", f"table:{table}")
        assert code == EXIT_YES and "(inexact oracles)" in out

    def test_table_oracle_answers_a_premise_free_rule(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        table.write_text("1 / ->(xi1, xi1)\ndefault 0\n")
        rule = self.write_rule(tmp_path, "---\nxi1 ->.CPL xi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3",
                           "--rule", rule, "--oracle1", f"table:{table}", "--oracle2", "stub:1")
        assert code == EXIT_YES
        assert out.startswith("a1=1 a2=1 -> 1")

    @pytest.mark.parametrize("key", ["/ xi1 -> xi1", "/ (xi1 -> xi1)", "  /   ->(xi1,xi1)"])
    def test_table_keys_in_any_parsed_form(self, tmp_path, capsys, key):
        """A key is read as a rule over the component's signature, so it
        answers the rule whatever form it is written in."""
        table = tmp_path / "t.txt"
        table.write_text(f"1 {key}\ndefault 0\n")
        rule = self.write_rule(tmp_path, "---\nxi1 ->.CPL xi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3",
                           "--rule", rule, "--oracle1", f"table:{table}", "--oracle2", "stub:1")
        assert code == EXIT_YES
        assert out.startswith("a1=1 a2=1 -> 1")

    @pytest.mark.parametrize("key", ["/ xi1 ->", "xi1 -> xi1", "/ box xi1"])
    def test_table_key_that_does_not_parse_is_a_usage_error(self, tmp_path, capsys, key):
        table = tmp_path / "t.txt"
        table.write_text(f"1 {key}\n")
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, _, err = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3",
                           "--rule", rule, "--oracle1", f"table:{table}", "--oracle2", "stub:1")
        assert code == EXIT_USAGE and f"oracle table key {key!r}" in err

    @pytest.mark.parametrize("suffix, expected", [("", EXIT_NO), (":0", EXIT_NO), (":1", EXIT_YES)])
    def test_table_path_may_contain_colons(self, tmp_path, capsys, suffix, expected):
        """Only a trailing `:0` or `:1` is a default; the rest is the path."""
        folder = tmp_path / "a:b"
        folder.mkdir()
        (folder / "t:1.txt").write_text("1 xi2 / xi2\n")
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3", "--rule", rule,
                           "--oracle1", f"table:{folder / 't:1.txt'}{suffix}", "--oracle2", "stub:1")
        assert code == expected, out

    def test_bad_oracle_spec(self, tmp_path, capsys):
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, _, err = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "CPL",
                           "--rule", rule, "--oracle1", "magic")
        assert code == EXIT_USAGE and "oracle spec" in err

    def test_name_option_is_gone(self, tmp_path, capsys):
        """The rule's name showed in no output, so the verb takes no `--name`."""
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, out, _ = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3", "--rule", rule,
                           "--name", "r")
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize("spec", ["stub:", "stub:2", "stub:1:5", "stub:1:0:junk", "stub:1:"])
    def test_stub_takes_one_or_two_answers_each_0_or_1(self, tmp_path, capsys, spec):
        """Anything else is a usage error, not an answer: `stub:2` would read
        as yes, `stub:1:5` answer the falsum query yes, and `stub:1:0:junk`
        drop a field."""
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, _, err = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "G3",
                           "--rule", rule, "--oracle1", spec, "--oracle2", "stub:0")
        assert code == EXIT_USAGE and "oracle spec" in err


class TestGoldenDecide:
    def test_calls_match_recorded(self, tmp_path):
        """Every recorded `decide-admissible` call gives its recorded exit
        code and standard output, byte for byte."""
        want = json.loads(GOLDEN_DECIDE.read_text())
        calls = golden_decide_calls()
        assert len(want) == len(calls) and all(w.items() >= c.items() for w, c in zip(want, calls))
        for w in want:
            got = golden_decide_replay(w, tmp_path)
            assert got == {"exit": w["exit"], "stdout": w["stdout"]}, (w["l1"], w["l2"], w["oracle1"], w["rule"])


class TestBasisVerb:
    def test_ipl_s43_combined(self, capsys):
        code, out, _ = run(capsys, "basis", "--l1", "IPL", "--l2", "S43",
                           "--max-worlds", "1")
        assert code == EXIT_YES
        names = [l.split(":")[0] for l in out.strip().splitlines()]
        assert names == ["visser1@1", "visser2@1", "visser3@1", "s43b@2"]


class TestSemanticsVerbs:
    def test_eval_theorem(self, capsys):
        code, _, _ = run(capsys, "eval", "--logic", "CPL", "xi1 or (neg xi1)")
        assert code == EXIT_YES

    def test_eval_non_theorem(self, capsys):
        code, _, _ = run(capsys, "eval", "--logic", "G3", "xi1 or (neg xi1)")
        assert code == EXIT_NO

    def test_eval_product(self, capsys):
        code, _, _ = run(capsys, "eval", "--l1", "CPL", "--l2", "G3",
                         "<->.CPL|->.G3>(xi1, xi1)")
        assert code == EXIT_YES

    @pytest.mark.parametrize("logic, text, code", [
        ("IPL", "xi1 -> xi1", EXIT_YES), ("IPL", "xi1 or (neg xi1)", EXIT_NO), ("S43", "(box xi1) -> xi1", EXIT_YES),
        ("GL", "xi1 or (neg xi1)", EXIT_YES)])
    def test_eval_lists_the_formula_once(self, capsys, monkeypatch, logic, text, code):
        """`eval` lists the formula's occurrences once, not once per matrix."""
        calls = []
        real = semantics.subformulas
        monkeypatch.setattr(semantics, "subformulas", lambda f: calls.append(f) or real(f))
        assert run(capsys, "eval", "--logic", logic, text)[0] == code
        assert len(calls) == 1

    def test_entails(self, capsys):
        code, _, _ = run(capsys, "entails", "--logic", "CPL",
                         "--hyps", "xi1 ; xi1 -> xi2", "--goal", "xi2")
        assert code == EXIT_YES
        code, _, _ = run(capsys, "entails", "--logic", "CPL",
                         "--hyps", "xi1 or xi2", "--goal", "xi1")
        assert code == EXIT_NO


class TestTreeVerbs:
    def test_trees_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "trees", "top or (neg bot)", "xi1 -> (neg xi2)")
        assert code == EXIT_YES and "True" in out

    def test_trees_distinct_pair(self, capsys):
        code, _, _ = run(capsys, "trees", "xi1", "xi1 and xi2")
        assert code == EXIT_NO

    def test_complete_with_root_head(self, capsys):
        code, out, _ = run(capsys, "complete", "--target", "top", "--root-head", "or",
                           "xi1 -> (neg xi2)")
        assert code == EXIT_YES
        assert out.strip().startswith("or(top, neg(bot))")
        assert "verified: True" in out

    def test_complete_with_an_implication_root_head(self, capsys):
        """argparse reads a value that begins with `-` as an option, so `->`
        is given as `--root-head=->`, as the README's example does."""
        code, out, _ = run(capsys, "complete", "--logic", "CPL", "--target", "top", "--root-head=->", "xi1 and xi2")
        assert code == EXIT_YES and out == "->(top, top)  # equivalence verified: True\n"
        code, out, err = run(capsys, "complete", "--logic", "CPL", "--target", "top", "--root-head", "->",
                             "xi1 and xi2")
        assert code == EXIT_USAGE and out == "" and "argument --root-head: expected one argument" in err

    @pytest.mark.parametrize("logic", ["IPL", "CPL"])
    def test_complete_verifies_the_law_it_prints(self, capsys, logic):
        """`verified` is the answer on `target iff (completion)`, read back
        from the printed completion, of a decider other than the bundle's
        ground matrix: G4ip on IPL, the characteristic matrix on CPL."""
        bundle = presets.load_preset(logic)
        thm = presets.ipl_theorem if logic == "IPL" else (lambda f: semantics.holds(bundle.characteristic, f))
        rng = random.Random(f"complete:{logic}")
        seen = set()
        for i in range(40):
            text = print_formula(random_formula(rng, bundle.signature, 3))
            target = ("top", "bot")[i % 2]
            code, out, _ = run(capsys, "complete", "--logic", logic, "--target", target, "--format", "json", text)
            if code == EXIT_USAGE:  # no completion table for a constructor of the formula
                continue
            payload = json.loads(out)
            law = parse_formula(f"{target} iff ({payload['completion']})", bundle.signature)
            assert payload["verified"] == thm(law)
            assert code == (EXIT_YES if payload["verified"] else EXIT_NO)
            seen.add(target)
        assert seen == {"top", "bot"}

    @pytest.mark.parametrize("logic", ["S43", "GL"])
    def test_complete_without_a_ground_matrix_exits_0_unverified(self, capsys, logic):
        """S43 and GL have no ground matrix, so the completion is printed
        unverified: `verified` is null, the text names no verdict, and the
        exit code is 0, as for a construction, not a yes/no answer."""
        code, out, _ = run(capsys, "complete", "--logic", logic, "--target", "top", "--format", "json",
                           "xi1 -> (neg xi2)")
        assert code == EXIT_YES and json.loads(out) == {"completion": "->(top, neg(bot))", "verified": None}
        code, out, _ = run(capsys, "complete", "--logic", logic, "--target", "bot", "box xi1 and xi2")
        assert code == EXIT_YES and out == "and(box(top), bot)\n"

    def test_equalize(self, capsys):
        code, out, _ = run(capsys, "equalize", "--l1", "CPL", "--l2", "CPL",
                           "--f1", "xi1", "--f2", "xi2 and xi2")
        assert code == EXIT_YES and "trees equivalent: True" in out

    @pytest.mark.parametrize("argv, message", [
        (["--target", "top", "topn.1(xi1)"], "no unary completion table for 'topn.1'"),
        (["--target", "top", "--root-head", "neg", "xi1 and xi2"], "no binary completion table for 'neg'"),
        (["--target", "top", "--root-head", "bogus", "xi1 and xi2"], "no binary completion table for 'bogus'"),
    ], ids=["verum-family", "root-head-arity", "root-head-unknown"])
    def test_complete_without_a_table_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "complete", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"


DEEP = 3000


class TestDeepTreeVerbs:
    """The tree tools keep their own stacks, so deep input gets an answer."""

    def test_trees(self, capsys):
        neg = "neg " * DEEP + "xi1"
        code, out, _ = run(capsys, "trees", "--logic", "IPL", neg, "neg(" * DEEP + "top" + ")" * DEEP)
        assert code == EXIT_YES and out == "trees equivalent: True\n"
        code, out, _ = run(capsys, "trees", "--logic", "IPL", neg, "xi1")
        assert code == EXIT_NO and out == "trees equivalent: False\n"
        code, out, _ = run(capsys, "trees", "--logic", "IPL", neg, "neg " * (DEEP - 2) + "(xi1 and xi2)")
        assert code == EXIT_NO and out == "trees equivalent: False\n"

    def test_equalize(self, capsys):
        cpl = presets.load_preset("CPL").signature
        f1 = "neg " * DEEP + "xi1"
        code, out, _ = run(capsys, "equalize", "--l1", "CPL", "--l2", "CPL", "--f1", f1, "--f2", "xi2")
        assert code == EXIT_YES
        s1, s2, verdict = out.splitlines()
        assert verdict == "trees equivalent: True"
        g1, g2 = parse_formula(s1, cpl), parse_formula(s2, cpl)
        assert g1 is parse_formula(f"({f1}) and top", cpl)
        assert g2 is parse_formula("(" + "neg " * DEEP + "top) -> xi2", cpl)

    def test_complete(self, capsys):
        code, out, _ = run(capsys, "complete", "--logic", "CPL", "--target", "top", "neg " * DEEP + "xi1")
        assert code == EXIT_YES
        assert out == "neg(" * DEEP + "top" + ")" * DEEP + "  # equivalence verified: True\n"


class TestSoundnessAudit:
    def test_component(self, capsys):
        code, out, _ = run(capsys, "soundness-audit", "--logic", "CPL")
        assert code == EXIT_YES and "all rules sound" in out

    def test_meet(self, capsys):
        code, out, _ = run(capsys, "soundness-audit", "--l1", "CPL", "--l2", "G3")
        assert code == EXIT_YES and "all rules sound" in out

    @staticmethod
    def _every_matrix(bundle, fmt):
        """The audit's output when every rule is checked on every matrix."""
        failures = [r.name for r in bundle.calculus.rules if not check_rule_soundness(bundle.matrices, r)]
        if fmt == "json":
            return json.dumps({"sound": not failures, "failures": failures}, sort_keys=True) + "\n"
        return ("unsound rules: " + ", ".join(failures) if failures else "all rules sound") + "\n"

    @pytest.mark.parametrize("selection", [["--logic", n] for n in presets.PRESET_NAMES]
                             + [["--l1", a, "--l2", b] for a in presets.PRESET_NAMES for b in presets.PRESET_NAMES])
    def test_same_output_as_a_check_on_every_matrix(self, capsys, selection):
        bundle = cli._logic(cli.build_parser().parse_args(["soundness-audit", *selection]))
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "soundness-audit", *selection, "--format", fmt)
            assert code == EXIT_YES and out == self._every_matrix(bundle, fmt)

    def test_unsound_rule_outside_the_models(self, capsys, monkeypatch):
        """A rule unsound in some matrices keeps those out of the models, so
        the audit still checks and reports it."""
        ipl = presets.load_preset("IPL")
        P = lambda s: parse_formula(s, ipl.signature)
        calc = Calculus("IPL+dne", ipl.signature, ipl.calculus.rules + (Rule("dne", (P("neg neg xi1"),), P("xi1")),),
                        matrices=ipl.matrices)
        bundle = presets.LogicBundle(calculus=calc, identity_profiles={}, completion_profile=ipl.completion_profile,
                                     basis=None)
        monkeypatch.setattr(cli, "_logic", lambda args: bundle)
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "soundness-audit", "--logic", "IPL", "--format", fmt)
            assert code == EXIT_NO and out == self._every_matrix(bundle, fmt)
        assert len(calc.models) == 1 and out == '{"failures": ["dne"], "sound": false}\n'


class TestJsonOutput:
    def test_json_everywhere_sorted(self, capsys):
        code, out, _ = run(capsys, "eval", "--logic", "CPL", "xi1 -> xi1",
                           "--format", "json")
        assert code == EXIT_YES
        payload = json.loads(out)
        assert payload["holds"] is True


# One well-formed call of every verb; rule and derivation paths are never
# opened, because each verb loads its presets first.
VERB_ARGV = {
    "combine": ["--l1", "CPL", "--l2", "G3"],
    "project": ["--l1", "CPL", "--l2", "G3", "-k", "1", "xi1"],
    "embed": ["--l1", "CPL", "--l2", "G3", "-k", "1", "xi1"],
    "tag": ["--logic", "CPL", "--rule", "r.rule"],
    "check-derivation": ["--logic", "CPL", "--derivation", "d.txt"],
    "search": ["--logic", "CPL", "--goal", "xi1 -> xi1"],
    "decide-admissible": ["--l1", "CPL", "--l2", "G3", "--rule", "r.rule"],
    "basis": ["--l1", "IPL", "--l2", "S43"],
    "eval": ["--logic", "CPL", "xi1"],
    "entails": ["--logic", "CPL", "--goal", "xi1"],
    "trees": ["xi1", "xi2"],
    "complete": ["--target", "top", "xi1"],
    "equalize": ["--l1", "CPL", "--l2", "CPL", "--f1", "xi1", "--f2", "xi2"],
    "soundness-audit": ["--logic", "CPL"],
}

# The verbs that read the meet bundle's matrices or basis, on a meet.
MEET_ARGV = {
    "eval": ["--l1", "IPL", "--l2", "GL", "<->.IPL|->.GL>(xi1, xi1)"],
    "entails": ["--l1", "S43", "--l2", "G3", "--hyps", "<and.S43|or.G3>(xi1, xi2)", "--goal", "xi1"],
    "soundness-audit": ["--l1", "GL", "--l2", "IPL"],
    "basis": ["--l1", "GL", "--l2", "IPL", "--schema-bound", "2"],
}


# Calls for the parse-once check: each verb in both formats, argparse's
# errors, help, abbreviations and separators, and the calls that go through
# the top-level parser (no verb first, or arguments left over).
PARSE_CORPUS = [
    *([verb, *VERB_ARGV[verb], "--format", fmt] for verb in sorted(VERB_ARGV) for fmt in ("text", "json")),
    ["search", "--logic", "CPL"],
    ["project", "--l1", "CPL", "--l2", "G3", "-k", "3", "xi1"],
    ["search", "--logic", "CPL", "--goal", "xi1", "--depth", "x"],
    ["eval", "--logic", "CPL", "--bogus", "xi1"],
    ["eval", "--logic", "CPL", "xi1", "xi2"],
    *([verb, flag] for verb in sorted(VERB_ARGV) for flag in ("-h", "--help")),
    ["eval", "--logic", "CPL", "--form", "json", "xi1"],
    ["combine", "--l1=CPL", "--l2", "G3"],
    ["project", "--l1", "CPL", "--l2", "G3", "-k1", "xi1"],
    ["eval", "--logic", "CPL", "--", "xi1"],
    ["trees", "--", "-xi1", "xi2"],
    ["--", "eval", "--logic", "CPL", "xi1"],
    [],
    ["frobnicate"],
    ["--format", "json", "trees", "xi1", "xi1"],
    ["-h"],
    ["eval"],
]


class TestParseOnce:
    """`main` parses a call once (`cli._parse`): the verb's own parser reads
    it, and only a call without a verb first, or with arguments left over,
    goes through the top-level parser. The top-level parser's `parse_args`
    is the reference."""

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as e:
                result = ("exit", e.code)
        return result, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_same_namespace_or_same_failure(self, argv):
        assert self.outcome(cli._parse, argv) == self.outcome(cli.build_parser().parse_args, argv)

    def test_a_verb_call_skips_the_top_level_parser(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(cli._Parser, "parse_args", refuse)
        assert run(capsys, "eval", "--logic", "CPL", "xi1") == (EXIT_NO, "holds on 1 matrices: False\n", "")


class TestErrorContract:
    """Exit code 1 only ever means "no": an exception the CLI does not expect
    is an internal error, exit 4."""

    def test_every_verb_listed(self):
        verbs = cli.build_parser()._subparsers._group_actions[0].choices
        assert set(verbs) == set(VERB_ARGV)

    @pytest.mark.parametrize("verb", sorted(VERB_ARGV))
    @pytest.mark.parametrize("exc", [RuntimeError, RecursionError, KeyError, ZeroDivisionError, ValueError])
    def test_no_verb_exits_one_on_an_exception(self, monkeypatch, capsys, verb, exc):
        def fail(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(presets, "load_preset", fail)
        code, _, err = run(capsys, verb, *VERB_ARGV[verb])
        # ValueError is a usage error by contract; anything else is internal
        assert code == (EXIT_USAGE if exc is ValueError else EXIT_INTERNAL)
        assert err.startswith("error: internal: " if code == EXIT_INTERNAL else "error: ")

    def test_verb_raising_runtime_error_exits_internal(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_eval", boom)
        code, out, err = run(capsys, "eval", "--logic", "CPL", "xi1")
        assert code == EXIT_INTERNAL and out == ""
        assert err == "error: internal: RuntimeError: boom\n"

    @pytest.mark.parametrize("argv", [
        ["tag", "--logic", "CPL", "--rule", "DIR"],
        ["check-derivation", "--logic", "CPL", "--derivation", "DIR"],
        ["check-derivation", "--logic", "CPL", "--derivation", "d.txt", "--extra", "DIR"],
        ["decide-admissible", "--l1", "CPL", "--l2", "G3", "--rule", "DIR"],
        ["decide-admissible", "--l1", "CPL", "--l2", "G3", "--rule", "r.rule", "--oracle1", "table:DIR"],
    ], ids=lambda argv: argv[0] + " " + argv[-2])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "r.rule").write_text("xi1\n---\nxi1\n")
        (tmp_path / "d.txt").write_text("1. xi1 ; HYP\n")
        (tmp_path / "DIR").mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot read DIR: ")

    @pytest.mark.parametrize("text", ["neg " * 3000 + "top", "neg(" * 3000 + "top" + ")" * 3000],
                             ids=["prefix", "application"])
    def test_deep_input_evaluates(self, capsys, text):
        # the parser reads any depth, so deep input gets an answer
        code, out, _ = run(capsys, "eval", "--logic", "CPL", text)
        assert code == EXIT_YES and out == "holds on 1 matrices: True\n"

    def test_internal_error_process_exit_code(self):
        # no verb recurses any more, so a verb is patched to raise; the
        # process exit code of an internal error is 4, never 1
        src = Path(__file__).resolve().parent.parent / "src"
        script = ("import sys\n"
                  "from meetlogic import cli\n"
                  "def boom(args):\n"
                  "    raise RecursionError('injected')\n"
                  "cli.cmd_complete = boom\n"
                  "sys.exit(cli.main())\n")
        proc = subprocess.run([sys.executable, "-c", script, "complete", "--logic", "IPL", "--target", "top", "xi1"],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INTERNAL and proc.stdout == ""
        assert proc.stderr == "error: internal: RecursionError: injected\n"

    @pytest.mark.parametrize("depth", [350, 600, 3000])
    def test_deep_ipl_completion_is_verified(self, capsys, depth):
        # the law is checked on IPL's ground matrix, which has no recursion
        # limit; G4ip ran out of stack from about 350 levels
        argv = ["complete", "--logic", "IPL", "--target", "top", "--format", "json", "neg " * depth + "xi1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_YES and json.loads(out)["verified"] is True
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "meetlogic.cli", *argv], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


class TestBounds:
    @pytest.mark.parametrize("argv", [
        ["eval", "--logic", "S43", "--max-worlds", "0", "box xi1 -> xi1"],
        ["eval", "--logic", "S43", "--max-worlds", "-1", "box xi1 -> xi1"],
        ["basis", "--l1", "IPL", "--l2", "GL", "--schema-bound", "0"],
        ["search", "--logic", "IPL", "--with-basis", "--schema-bound", "-1", "--goal", "xi1"],
    ])
    def test_bound_below_one_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "at least 1" in err

    @pytest.mark.parametrize("logic", ["S43", "GL"])
    def test_max_worlds_above_the_limit_on_a_modal_preset_is_a_usage_error(self, logic):
        # six worlds would take over a second to load; a hang fails on the timeout
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "meetlogic.cli", "eval", "--logic", logic,
                               "--max-worlds", "6", "xi1"], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert proc.stderr == "error: max worlds must be at most 5 on Kripke frames, got 6\n"

    @pytest.mark.parametrize("logic, formula, frames", [
        ("S43", "(box xi1) -> xi1", 31), ("GL", "box ((box xi1) -> xi1) -> box xi1", 25)], ids=["S43", "GL"])
    def test_max_worlds_at_the_limit_answers_in_time(self, logic, formula, frames):
        # every rooted frame of up to five worlds, one per isomorphism class
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "meetlogic.cli", "eval", "--logic", logic,
                               "--max-worlds", "5", formula], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_YES, f"holds on {frames} matrices: True\n", "")

    def test_max_worlds_is_ignored_without_kripke_frames(self, capsys):
        code, out, _ = run(capsys, "eval", "--logic", "CPL", "--max-worlds", "9", "xi1")
        assert code == EXIT_NO and out == "holds on 1 matrices: False\n"

    @pytest.mark.parametrize("argv, field", [
        (["search", "--logic", "CPL", "--goal", "top", "--depth", "-3"], "depth"),
        (["search", "--logic", "CPL", "--goal", "top", "--max-size", "0"], "max_size"),
        (["search", "--l1", "CPL", "--l2", "G3", "--goal", "xi1", "--max-size", "-1"], "max_size"),
    ])
    def test_impossible_search_bound_is_a_usage_error(self, capsys, argv, field):
        # no search can run, so the answer is an error, not "inconclusive"
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: search bound {field} must be at least ")

    @pytest.mark.parametrize("field, value", [
        ("depth", -1), ("max_size", 0), ("max_facts", 0), ("max_candidates", -1)])
    def test_search_bounds_reject_impossible_values(self, field, value):
        with pytest.raises(ValueError, match=f"search bound {field} "):
            SearchBounds(**{field: value})

    def test_depth_zero_answers_from_the_hypotheses(self, capsys):
        code, out, _ = run(capsys, "search", "--logic", "CPL", "--hyps", "xi1", "--goal", "xi1",
                           "--depth", "0")
        assert code == EXIT_YES and out == "1. xi1 ; HYP\n"


class TestReuse:
    """In-process calls share the parser, the bundles and the meet bundles,
    and still answer exactly as a fresh process does."""

    def test_max_worlds_respected_in_one_process(self, capsys):
        counts = []
        for n in ("1", "2"):
            code, out, _ = run(capsys, "eval", "--logic", "S43", "--max-worlds", n,
                               "--format", "json", "box xi1 -> xi1")
            assert code == EXIT_YES
            counts.append(json.loads(out)["matrices"])
        assert counts[0] < counts[1]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("verb", sorted(VERB_ARGV) + [f"{v}-meet" for v in sorted(MEET_ARGV)])
    def test_fresh_process_and_repeated_calls_agree(self, tmp_path, monkeypatch, capsys, verb, fmt):
        (tmp_path / "r.rule").write_text("xi1\n---\nxi1\n")
        (tmp_path / "d.txt").write_text("1. xi1 ; HYP\n")
        verb, meet, _ = verb.partition("-meet")
        argv = [verb, *(MEET_ARGV if meet else VERB_ARGV)[verb], "--format", fmt]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "meetlogic.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        monkeypatch.chdir(tmp_path)
        cold = (proc.returncode, proc.stdout, proc.stderr)
        assert run(capsys, *argv) == cold
        assert run(capsys, *argv) == cold


class TestArgumentFuzz:
    """Formula arguments drawn like the parser's differential test draws its
    texts (seeded surface text, half of it mutated, over a component
    signature with CPL's constructor names and over a combined signature
    whose tags A and B are read as CPL and G3) go through `main` in-process
    to every verb that reads a formula. No call may end in exit 4.

    In one example in 10, every text is wrapped in nested prefix
    constructors, `neg` or a pair of `neg`s, as `cli-batch`'s deep stratum
    nests: a third of them 200-260 levels deep, the others 600-3000."""

    VERBS = ("project", "embed", "eval", "entails", "trees", "complete", "equalize", "search")

    @staticmethod
    def argv(rng, verb):
        deep = rng.random() < 0.1

        def text(combined=False):
            t = random_surface(rng, CAB if combined else CA, rng.randint(0, 5))
            if rng.random() < 0.5:
                t = mutate_text(rng, t)
            if deep:
                levels = rng.randint(200, 260) if rng.random() < 1 / 3 else rng.randint(600, 3000)
                t = ("<neg.A|neg.B> " if combined else "neg ") * levels + f"({t})"
            return re.sub(r"\.([AB])\b", lambda m: ".CPL" if m[1] == "A" else ".G3", t)

        meet = rng.random() < 0.5
        logic = ["--l1", "CPL", "--l2", "G3"] if meet else ["--logic", "CPL"]
        if verb in ("project", "embed"):
            return [verb, "--l1", "CPL", "--l2", "G3", "-k", rng.choice("12"), text(verb == "project")]
        if verb == "eval":
            return [verb, *logic, text(meet)]
        if verb in ("entails", "search"):
            hyps = " ; ".join(text(meet) for _ in range(rng.randint(0, 2)))
            extra = ["--depth", "1"] if verb == "search" else []
            return [verb, *logic, "--goal", text(meet), *(["--hyps", hyps] if hyps else []), *extra]
        if verb == "trees":
            return [verb, text(), text()]
        if verb == "complete":
            head = ["--root-head", rng.choice(["neg", "and", "->", "or", "box"])] if rng.random() < 0.3 else []
            return [verb, "--target", rng.choice(["top", "bot"]), *head, text()]
        return [verb, "--l1", "CPL", "--l2", "G3", "--f1", text(), "--f2", text()]

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), verb=st.sampled_from(VERBS))
    def test_no_argument_exits_internal(self, seed, verb):
        argv = self.argv(random.Random(seed), verb)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_YES, EXIT_NO, EXIT_INCONCLUSIVE, EXIT_USAGE), (argv, err.getvalue())
