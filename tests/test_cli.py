import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meetlogic import cli, formats, presets
from meetlogic.calculus import Calculus, Rule, SearchBounds
from meetlogic.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_NO, EXIT_USAGE, EXIT_YES, main
from meetlogic.combination import combine_signatures, project
from meetlogic.semantics import check_rule_soundness
from meetlogic.syntax import parse_formula, print_formula


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

    def test_bad_oracle_spec(self, tmp_path, capsys):
        rule = self.write_rule(tmp_path, "xi1\n---\nxi1\n")
        code, _, err = run(capsys, "decide-admissible", "--l1", "CPL", "--l2", "CPL",
                           "--rule", rule, "--oracle1", "magic")
        assert code == EXIT_USAGE and "oracle spec" in err


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
        bundle = presets.LogicBundle("IPL+dne", ipl.signature, calc, ipl.matrices, None, False, None, {},
                                     ipl.completion_profile, None)
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

    @pytest.mark.parametrize("text", ["neg " * 3000 + "top", "neg(" * 3000 + "top" + ")" * 3000],
                             ids=["prefix", "application"])
    def test_deep_input_evaluates(self, capsys, text):
        # the parser reads any depth, so deep input gets an answer
        code, out, _ = run(capsys, "eval", "--logic", "CPL", text)
        assert code == EXIT_YES and out == "holds on 1 matrices: True\n"

    def test_deep_input_process_exit_code(self):
        # the G4ip prover that verifies an IPL completion still recurses, so a
        # deep `complete` query is an internal error, and the process exit
        # code is 4, never 1
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "meetlogic.cli", "complete", "--logic", "IPL", "--target", "top",
             "neg " * 3000 + "xi1"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INTERNAL
        assert proc.stderr.startswith("error: internal: RecursionError")


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
