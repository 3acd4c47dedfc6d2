"""End-to-end acceptance checks, one test per criterion.

Each test prints exactly one `[criterion NN] PASS|FAIL` line with capture
disabled before asserting, so a plain `pytest -v` run shows a verdict line
per criterion.
"""
import itertools
import random
from dataclasses import replace

from meetlogic.admissibility import (
    decide_admissible_meet,
    semantic_oracle,
    stub_oracle,
)
from meetlogic.calculus import (
    Rule,
    SearchBounds,
    assemble_meet_calculus,
    bounded_proof_search,
    build_both_admissible_derivation,
    build_vacuous_side_derivation,
    check_derivation,
    inherit_rule,
)
from meetlogic.combination import combine_signatures, embed, project, tag_rule
from meetlogic.presets import ipl_theorem, load_preset
from meetlogic.semantics import (
    check_rule_soundness,
    entails,
    holds,
    product_matrix,
)
from meetlogic.syntax import (
    App,
    Var,
    apply_substitution,
    make_signature,
    parse_formula,
    print_formula,
    variables_of,
)
from meetlogic.treetools import completion_formula, decomposition_tree, equalize_pair, trees_equiv
from meetlogic.formats import parse_matrix_file

from ref_semantics import eval_formula, project_assignment
from strategies import random_formula, random_substitution

CPL = load_preset("CPL")
CPL2 = load_preset("CPL")
CS = combine_signatures(CPL.signature, CPL2.signature)


def _report(capsys, num, desc, failures):
    ok = not failures
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    with capsys.disabled():
        print(line)
    assert ok, f"{desc}: {failures[:5]}"


def test_criterion_01_projection_commutes_with_substitution(capsys):
    """1000 random (substitution, formula) pairs: projecting a substitution
    instance equals instantiating the projection with the projected
    substitution, on both sides."""
    rng = random.Random(101)
    failures = []
    for i in range(1000):
        psi = random_formula(rng, CS, rng.randint(1, 6), max_var=3)
        rho = random_substitution(rng, CS, sorted(variables_of(psi)) or [1], depth=2)
        inst = apply_substitution(rho, psi)
        for k in (1, 2):
            rho_k = {v: project(f, k) for v, f in rho.items()}
            if project(inst, k) != apply_substitution(rho_k, project(psi, k)):
                failures.append((i, k, print_formula(psi)))
    _report(capsys, 1, "projection commutes with substitution (1000 pairs, both sides)", failures)


_M2_TEXT = """
carrier 2
designated 1
op top 1
op bot 0
op neg 1 0
op box 0 1
op and 0 0 0 1
op or 0 1 1 1
"""

_M3_TEXT = """
carrier 3
designated 2
op top 2
op bot 0
op neg 2 0 0
op box 0 1 2
op and 0 0 0 0 1 1 0 1 2
op or 0 1 2 1 1 2 2 2 2
"""


def test_criterion_02_product_evaluation_law(capsys):
    """Componentwise evaluation identity, exhaustively for every formula of
    depth <= 2 over a two-constructor-per-arity combined signature with atoms
    {xi1, verum pair, falsum pair}, plus 400 sampled depth-3 formulas in two
    variables. Component matrices have sizes 2 and 3."""
    sig_a = make_signature("A", [("and", 2), ("or", 2), ("neg", 1), ("box", 1)])
    sig_b = make_signature("B", [("and", 2), ("or", 2), ("neg", 1), ("box", 1)])
    cs = combine_signatures(sig_a, sig_b)
    m1 = parse_matrix_file(_M2_TEXT, sig_a, "m2")
    m2 = parse_matrix_file(_M3_TEXT, sig_b, "m3")
    prod = product_matrix(m1, m2, cs)

    positive = [c for c in cs.all_ctors() if c.arity > 0]
    layers = [[Var(1), cs.top, cs.bot]]
    for _ in range(2):
        pool = [f for layer in layers for f in layer]
        layers.append([App(c, args)
                       for c in positive
                       for args in itertools.product(pool, repeat=c.arity)])
    corpus = [(f, [1]) for layer in layers for f in layer]

    rng = random.Random(202)
    corpus += [(random_formula(rng, cs, 3, max_var=2), [1, 2]) for _ in range(400)]

    failures = []
    for f, variables in corpus:
        for values in itertools.product(prod.carrier, repeat=len(variables)):
            asg = dict(zip(variables, values))
            want = (
                eval_formula(m1, project_assignment(asg, 1), project(f, 1)),
                eval_formula(m2, project_assignment(asg, 2), project(f, 2)),
            )
            if eval_formula(prod, asg, f) != want:
                failures.append(print_formula(f))
                break
    _report(capsys, 2, f"product evaluation is componentwise ({len(corpus)} formulas, "
               "exhaustive to depth 2)", failures)


def test_criterion_03_decision_case_table(capsys):
    """All stub-oracle answer combinations reproduce the case table of the
    two-oracle decision procedure, with at most three oracle calls."""
    beta = parse_formula("<or.CPL1|or.CPL2>(xi1, xi2)", CS)
    premises = [embed(parse_formula("xi1", CPL.signature), 1, CS)]
    failures = []
    for a1, a2, f1, f2 in itertools.product((False, True), repeat=4):
        o1 = stub_oracle("L1", a1, falsum_answer=f1)
        o2 = stub_oracle("L2", a2, falsum_answer=f2)
        d = decide_admissible_meet(o1, o2, premises, beta)
        if a1 and a2:
            expected, calls = True, 2
        elif not a1 and not a2:
            expected, calls = False, 2
        elif a1:
            expected, calls = f1, 3
        else:
            expected, calls = f2, 3
        if d.admissible != expected or d.calls != calls or d.calls > 3:
            failures.append((a1, a2, f1, f2, d))
    _report(capsys, 3, "two-oracle case table exact on all 16 stub combinations, <=3 calls", failures)


def test_criterion_04_decider_agrees_with_product_entailment(capsys):
    """Enumerated corpus of rules with <=2 premises over a combined classical
    signature: the three-call decider agrees with product-matrix entailment on
    every rule (both components structurally complete)."""
    pool_texts = [
        "xi1", "xi2",
        "<top.CPL1|top.CPL2>", "<bot.CPL1|bot.CPL2>",
        "<top.CPL1|bot.CPL2>", "<bot.CPL1|top.CPL2>",
        "<neg.CPL1|neg.CPL2>(xi1)",
        "<neg.CPL1|topn.1.CPL2>(xi1)",
        "<and.CPL1|and.CPL2>(xi1, xi2)",
        "<and.CPL1|topn.2.CPL2>(xi1, xi2)",
        "<or.CPL1|or.CPL2>(xi1, xi2)",
        "<->.CPL1|->.CPL2>(xi1, xi2)",
        "<->.CPL1|topn.2.CPL2>(xi1, xi2)",
        "<iff.CPL1|iff.CPL2>(xi1, xi2)",
    ]
    pool = [parse_formula(t, CS) for t in pool_texts]
    prod = product_matrix(CPL.characteristic, CPL2.characteristic, CS)
    rules = [((), beta) for beta in pool]
    rules += [((p,), beta) for p in pool for beta in pool]
    rules += [((p, q), beta)
              for p, q in itertools.combinations(pool, 2) for beta in pool]
    failures = []
    for premises, beta in rules:
        o1, o2 = semantic_oracle(CPL), semantic_oracle(CPL2)
        d = decide_admissible_meet(o1, o2, premises, beta)
        if d.admissible != entails([prod], premises, beta) or not d.exact:
            failures.append((premises, beta))
    _report(capsys, 4, f"decider = product entailment on {len(rules)} enumerated rules", failures)


def _marker():
    b = "<bot.CPL1|bot.CPL2>"
    return parse_formula(f"<iff.CPL1|iff.CPL2>({b}, {b})", CS)


def _pair_app(name, args):
    inner = ", ".join(print_formula(a) for a in args)
    return parse_formula(f"<{name}.CPL1|{name}.CPL2>({inner})", CS)


def _corrupt(d, idx, marker):
    from meetlogic.calculus import Derivation, Line

    lines = list(d.lines)
    lines[idx] = Line(marker, lines[idx].just)
    return Derivation(tuple(lines))


def test_criterion_05_template_instances_check_and_mutants_fail(capsys):
    """50 instances per derivation template, every emitted derivation passes
    the checker and every one-line corruption is rejected at that line."""
    meet = assemble_meet_calculus(CPL.calculus, CPL2.calculus, CS)
    rng = random.Random(55)
    marker = _marker()
    failures = []
    built = []

    def component(bundle, hyps, goal, depth=4):
        return bounded_proof_search(bundle.calculus, (), hyps, goal, SearchBounds(depth=depth))

    for i in range(50):
        alpha = random_formula(rng, CS, 2, max_var=2)
        if alpha in (CS.top, marker):
            alpha = parse_formula("<neg.CPL1|neg.CPL2>(xi1)", CS)
        beta = _pair_app("or", (alpha, alpha))
        d1 = component(CPL, [project(alpha, 1)], project(beta, 1))
        d2 = component(CPL2, [project(alpha, 2)], project(beta, 2))
        if d1 is None or d2 is None:
            failures.append(("component search", i))
            continue
        d = build_both_admissible_derivation([alpha], beta, d1, d2, meet, CPL, CPL2)
        built.append((d, [alpha]))

    for i in range(50):
        alpha = random_formula(rng, CS, 2, max_var=2)
        if alpha in (CS.top, marker):
            alpha = parse_formula("<neg.CPL1|neg.CPL2>(xi1)", CS)
        beta = _pair_app("and", (alpha, alpha))
        k = 1 + (i % 2)
        same, other = (CPL, CPL2) if k == 1 else (CPL2, CPL)
        bot_same = parse_formula("bot", same.signature)
        bot_other = parse_formula("bot", other.signature)
        dfalsum = component(same, [bot_same], bot_same, 1)
        dsame = component(same, [bot_same], project(beta, k))
        dother = component(other, [bot_other], project(beta, 3 - k))
        if None in (dfalsum, dsame, dother):
            failures.append(("vacuous component search", i))
            continue
        d = build_vacuous_side_derivation([CS.falsum(k)], beta, k, dfalsum, dsame,
                                          dother, meet, CPL, CPL2)
        built.append((d, [CS.falsum(k)]))

    for n, (d, hyps) in enumerate(built):
        v = check_derivation(d, meet, hyps=hyps)
        if not v:
            failures.append(("accept", n, v.line, v.reason))
            continue
        idx = rng.randrange(len(d.lines))
        mv = check_derivation(_corrupt(d, idx, marker), meet, hyps=hyps)
        if mv.ok or mv.line != idx + 1:
            failures.append(("mutant", n, idx + 1, mv))
    if len(built) != 100:
        failures.append(("instance count", len(built)))
    _report(capsys, 5, "100 template instances accepted; all single-line mutants "
               "rejected at the corrupted line", failures)


def test_criterion_06_tagging_arithmetic_and_soundness(capsys):
    """Tagging a liberal detachment rule over the full combined signature
    yields one rule per combined constructor with the expected conclusion
    shape; the untagged one-sided rule is unsound on a Boolean product while
    every variant inherited from the component is sound."""
    failures = []
    sig = CPL.signature
    P = lambda s: parse_formula(s, sig)
    mp = CPL.calculus.rule_named("mp")

    mc_ctors = list(CS.all_ctors())
    tagged_mc = list(tag_rule(Rule("mp", tuple(embed(p, 1, CS) for p in mp.premises), Var(2)), CS))
    if len(tagged_mc) != len(mc_ctors):
        failures.append(("count", len(tagged_mc), len(mc_ctors)))
    for r, c in zip(tagged_mc, mc_ctors):
        want = App(c, tuple(Var(3 + j) for j in range(c.arity)))
        if r.conclusion != want:
            failures.append(("shape", r.name))

    prod = product_matrix(CPL.characteristic, CPL2.characteristic, CS)
    untagged = Rule("mp@1", (Var(1), embed(P("xi1 -> xi2"), 1, CS)), Var(2))
    if check_rule_soundness([prod], untagged):
        failures.append("untagged one-sided detachment unexpectedly sound")
    for r in inherit_rule(mp, 1, CS):
        if not check_rule_soundness([prod], r):
            failures.append(("tagged variant unsound", r.name))
    _report(capsys, 6, f"tagging yields {len(mc_ctors)} rules with the c(xi3..) conclusion; "
               "untagged unsound, all inherited variants sound", failures)


def test_criterion_07_shape_preserving_completion(capsys):
    """200 random intuitionistic formulas, both targets: the completion has an
    equivalent decomposition tree and the target-equivalence is an
    intuitionistic theorem; plus the worked verum/disjunction instance."""
    ipl = load_preset("IPL")
    rng = random.Random(77)
    failures = []
    checked = 0
    while checked < 200:
        psi = random_formula(rng, ipl.signature, 5, max_var=3)
        if "topn." in print_formula(psi):
            continue
        checked += 1
        for target in ("top", "bot"):
            delta = completion_formula(psi, target, ipl.completion_profile)
            if not trees_equiv(decomposition_tree(delta), decomposition_tree(psi)):
                failures.append(("shape", print_formula(psi), target))
                continue
            law = parse_formula(f"{target} iff ({print_formula(delta)})", ipl.signature)
            if not ipl_theorem(law):
                failures.append(("equivalence", print_formula(psi), target))

    worked = completion_formula(parse_formula("xi1 -> (neg xi2)", ipl.signature),
                                "top", ipl.completion_profile, root_head="or")
    if worked != parse_formula("top or (neg bot)", ipl.signature):
        failures.append(("worked instance", print_formula(worked)))
    if not trees_equiv(decomposition_tree(worked),
                       decomposition_tree(parse_formula("xi1 -> (neg xi2)", ipl.signature))):
        failures.append("worked instance shape")
    if not ipl_theorem(parse_formula("top iff (top or (neg bot))", ipl.signature)):
        failures.append("worked instance equivalence")
    _report(capsys, 7, "completion preserves tree shape and target equivalence "
               "(200 formulas, both targets) incl. worked instance", failures)


def test_criterion_08_pairwise_equalization(capsys):
    """100 random classical formula pairs equalized through complementary
    identity profiles: outputs have equivalent trees and each output is
    truth-table equivalent to its input."""
    rng = random.Random(88)
    failures = []
    checked = 0
    while checked < 100:
        f1 = random_formula(rng, CPL.signature, 3, max_var=2)
        f2 = random_formula(rng, CPL2.signature, 3, max_var=2)
        if "topn." in print_formula(f1) or "topn." in print_formula(f2):
            continue
        checked += 1
        g1, g2 = equalize_pair(
            f1, f2,
            CPL.identity_profiles["and"], CPL2.identity_profiles["->"],
            CPL.signature, CPL2.signature,
            CPL.completion_profile, CPL2.completion_profile,
        )
        if not trees_equiv(decomposition_tree(g1), decomposition_tree(g2)):
            failures.append(("trees", print_formula(f1), print_formula(f2)))
            continue
        for bundle, orig, new in ((CPL, f1, g1), (CPL2, f2, g2)):
            law = parse_formula(
                f"({print_formula(orig)}) iff ({print_formula(new)})", bundle.signature)
            if not holds(bundle.characteristic, law):
                failures.append(("equivalence", print_formula(orig)))
    _report(capsys, 8, "pairwise equalization: equivalent trees and truth-table "
               "equivalences on 100 random pairs", failures)


def test_criterion_09_combined_basis_listing(capsys):
    """The basis verb for the intuitionistic/linear-modal pair emits the three
    bounded disjunction-splitting instances plus the single modal rule, all
    untagged because none is liberal."""
    from meetlogic.cli import EXIT_YES, main

    code = main(["basis", "--l1", "IPL", "--l2", "S43", "--max-worlds", "1"])
    out = capsys.readouterr().out
    failures = []
    names = [l.split(":")[0] for l in out.strip().splitlines()]
    if code != EXIT_YES:
        failures.append(("exit", code))
    if names != ["visser1@1", "visser2@1", "visser3@1", "s43b@2"]:
        failures.append(("names", names))
    if any("#" in n for n in names):
        failures.append("a non-liberal rule was tagged")
    _report(capsys, 9, "combined basis lists 3 + 1 rules, modal singleton untagged", failures)


def test_criterion_10_consistency_guard(capsys):
    """Bounded search from no hypotheses in two assembled meet calculi never
    produces either falsum or a bare schema variable, and each embedded falsum
    fails to hold on the generated product matrices."""
    ipl = load_preset("IPL")
    s43 = load_preset("S43", max_worlds=2)
    cs2 = combine_signatures(ipl.signature, s43.signature)
    meets = [
        (assemble_meet_calculus(CPL.calculus, CPL2.calculus, CS), CS),
        (assemble_meet_calculus(ipl.calculus, s43.calculus, cs2), cs2),
    ]
    failures = []
    for calc, cs in meets:
        # The product model refutes these goals before round 0; the copy
        # without models runs the rounds.
        for searched in (calc, replace(calc, matrices=(), components=())):
            for goal in (cs.falsum(1), cs.falsum(2), Var(1)):
                d = bounded_proof_search(searched, (), [], goal, SearchBounds(depth=6))
                if d is not None:
                    failures.append((calc.name, print_formula(goal)))

    products = [product_matrix(CPL.characteristic, CPL2.characteristic, CS)]
    products += [product_matrix(m1, m2, cs2)
                 for m1 in ipl.matrices[:2] for m2 in s43.matrices[:3]]
    for prod, cs in [(products[0], CS)] + [(p, cs2) for p in products[1:]]:
        for k in (1, 2):
            if holds(prod, cs.falsum(k)):
                failures.append((prod.name, k))
    _report(capsys, 10, "no falsum or bare variable derivable from empty hypotheses "
                "(depth 6, two meet calculi); embedded falsums fail on products", failures)
