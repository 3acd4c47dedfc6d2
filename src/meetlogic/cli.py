"""Batch command-line front end.

Exit codes: 0 affirmative/accept, 1 negative/reject, 2 inconclusive,
3 usage or parse error, 4 internal error (any other exception).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import admissibility, calculus, combination, formats, presets, semantics, treetools
from .syntax import App, ParseError, SignatureError, parse_formula, print_formula

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _exit(answer) -> int:
    """The exit code of a yes/no answer: True 0, False 1, None (unknown) 2."""
    return EXIT_INCONCLUSIVE if answer is None else EXIT_YES if answer else EXIT_NO


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _bundle(name, args):
    return presets.load_preset(name, schema_bound=args.schema_bound,
                               max_worlds=args.max_worlds)


def _logic(args):
    """The `--logic` bundle, or the meet bundle of `--l1` and `--l2`."""
    if getattr(args, "logic", None):
        return _bundle(args.logic, args)
    return presets.combine_bundles(_bundle(args.l1, args), _bundle(args.l2, args))


def _read(path):
    """The text of a file argument. A file that cannot be read (missing, a
    directory, a device that fails) is a usage error, not an internal one."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise formats.FormatError(f"cannot read {path}: {e.strerror or e}") from None


def _split_formulas(text, sig):
    return [parse_formula(p.strip(), sig) for p in text.split(";") if p.strip()]


def _oracle(spec, bundle):
    if spec == "auto":
        return admissibility.bundle_oracle(bundle)
    if spec.startswith("stub:"):
        answers = spec[len("stub:"):].split(":")
        if len(answers) > 2 or not all(a in ("0", "1") for a in answers):
            raise formats.FormatError(f"oracle spec {spec!r}: stub:A[:F] takes one or two answers, each 0 or 1")
        return admissibility.stub_oracle(answers[0] == "1", answers[1:] == ["1"])
    if spec.startswith("table:"):
        path = spec[len("table:"):]  # a default only from a trailing :0 or :1
        path, d = (path[:-2], path[-1]) if path[-2:] in (":0", ":1") else (path, None)
        table, default = formats.parse_oracle_table(_read(path))
        keys = {}  # a key may be in any form the parser reads; the oracle compares rules
        for key, verdict in table.items():
            try:
                rule = formats.parse_rule_line(f"key: {key}", bundle.signature)
            except (ParseError, SignatureError, formats.FormatError) as e:
                raise formats.FormatError(f"oracle table key {key!r} does not parse: {e}") from None
            keys[rule.premises, rule.conclusion] = verdict
        return admissibility.oracle_from_table(keys, default if d is None else d == "1")
    raise formats.FormatError(f"unknown oracle spec {spec!r} (auto, stub:A[:F], table:PATH[:D])")


# ---------------------------------------------------------------------------
# verbs

def cmd_combine(args):
    meet = _logic(args)
    ctors = [c.display for c in meet.signature.all_ctors()]
    rules = [r.name for r in meet.calculus.rules]
    text = "\n".join([
        f"combined signature {args.l1}|{args.l2}: {len(ctors)} constructors",
        *(f"  {c}" for c in ctors),
        f"calculus: {len(rules)} inherited rules plus LFT/cLFT/FX",
        *(f"  {r}" for r in rules),
    ])
    _emit(args, {"constructors": ctors, "rules": rules,
                 "schematic": ["LFT", "cLFT", "FX"]}, text)
    return EXIT_YES


def cmd_project(args):
    f = parse_formula(args.formula, _logic(args).signature)
    out = print_formula(combination.project(f, args.k))
    _emit(args, {"projection": out}, out)
    return EXIT_YES


def cmd_embed(args):
    cs = _logic(args).signature
    f = parse_formula(args.formula, cs.component(args.k))
    out = print_formula(combination.embed(f, args.k, cs))
    _emit(args, {"embedding": out}, out)
    return EXIT_YES


def cmd_tag(args):
    sig = _logic(args).signature
    if args.logic or args.side == "mc":
        rule = formats.parse_rule_file(_read(args.rule), sig, name=args.name)
        tagged = calculus.tag_rule(rule, sig.all_ctors())
    else:
        k = int(args.side)
        rule = formats.parse_rule_file(_read(args.rule), sig.component(k), name=args.name)
        tagged = calculus.inherit_rule(rule, k, sig)
    lines = [formats.rule_line(r) for r in tagged]
    _emit(args, {"rules": lines}, "\n".join(lines))
    return EXIT_YES


def cmd_check_derivation(args):
    bundle = _logic(args)
    calc, sig = bundle.calculus, bundle.signature
    d = formats.parse_derivation_file(_read(args.derivation), sig)
    hyps = _split_formulas(args.hyps, sig) if args.hyps else []
    extra = ()
    if args.extra:
        extra = tuple(formats.parse_rule_line(l, sig)
                      for l in formats._content_lines(_read(args.extra)))
    verdict = calculus.check_derivation(d, calc, extra, hyps)
    if verdict.ok:
        _emit(args, {"accepted": True}, "accepted")
    else:
        text = f"rejected at line {verdict.line}: {verdict.reason}"
        _emit(args, {"accepted": False, "line": verdict.line, "reason": verdict.reason}, text)
    return _exit(verdict.ok)


def cmd_search(args):
    bundle = _logic(args)
    calc, sig = bundle.calculus, bundle.signature
    extra = bundle.basis.rules if args.with_basis and bundle.basis else ()
    goal = parse_formula(args.goal, sig)
    hyps = _split_formulas(args.hyps, sig) if args.hyps else []
    bounds = calculus.SearchBounds(depth=args.depth, max_size=args.max_size)
    d = calculus.bounded_proof_search(calc, extra, hyps, goal, bounds)
    if d is None:
        _emit(args, {"found": False}, "not found within bounds")
        return _exit(None)
    text = formats.serialize_derivation(d).rstrip("\n")
    _emit(args, {"found": True, "derivation": text.splitlines()}, text)
    return _exit(True)


def cmd_decide_admissible(args):
    cs = _logic(args).signature
    rule = formats.parse_rule_file(_read(args.rule), cs)
    o1 = _oracle(args.oracle1, _bundle(args.l1, args))
    o2 = _oracle(args.oracle2, _bundle(args.l2, args))
    decision = admissibility.decide_admissible_meet(o1, o2, rule.premises, rule.conclusion)
    text = " ".join(decision.trace) + f" -> {int(decision.admissible)}" \
        + ("" if decision.exact else " (inexact oracles)")
    _emit(args, {"admissible": decision.admissible, "exact": decision.exact,
                 "calls": decision.calls, "trace": list(decision.trace)}, text)
    return _exit(decision.admissible)


def cmd_basis(args):
    combined = _logic(args).basis
    lines = [formats.rule_line(r) for r in combined.rules]
    _emit(args, {"provenance": combined.provenance, "rules": lines}, "\n".join(lines))
    return EXIT_YES


def cmd_eval(args):
    bundle = _logic(args)
    f = parse_formula(args.formula, bundle.signature)
    ok = semantics.entails(bundle.matrices, (), f)
    _emit(args, {"holds": ok, "matrices": len(bundle.matrices)},
          f"holds on {len(bundle.matrices)} matrices: {ok}")
    return _exit(ok)


def cmd_entails(args):
    bundle = _logic(args)
    goal = parse_formula(args.goal, bundle.signature)
    hyps = _split_formulas(args.hyps, bundle.signature) if args.hyps else []
    ok = semantics.entails(bundle.matrices, hyps, goal)
    _emit(args, {"entails": ok}, f"entails: {ok}")
    return _exit(ok)


def cmd_trees(args):
    bundle = _bundle(args.logic, args)
    ok = treetools.trees_equiv(parse_formula(args.f1, bundle.signature),
                               parse_formula(args.f2, bundle.signature))
    _emit(args, {"equivalent": ok}, f"trees equivalent: {ok}")
    return _exit(ok)


def cmd_complete(args):
    bundle = _bundle(args.logic, args)
    sig = bundle.signature
    psi = parse_formula(args.formula, sig)
    delta = treetools.completion_formula(psi, args.target, bundle.completion_profile,
                                         root_head=args.root_head)
    out = print_formula(delta)
    verified = None
    if bundle.ground is not None:
        law = App(sig.resolve("iff", None, 2), (App(sig.resolve(args.target, None, 0)), delta))
        verified = semantics.holds(bundle.ground, law)
    _emit(args, {"completion": out, "verified": verified},
          out + ("" if verified is None else f"  # equivalence verified: {verified}"))
    return _exit(verified is not False)


def cmd_equalize(args):
    b1 = _bundle(args.l1, args)
    b2 = _bundle(args.l2, args)
    f1 = parse_formula(args.f1, b1.signature)
    f2 = parse_formula(args.f2, b2.signature)
    out1, out2 = treetools.equalize_pair(
        f1, f2,
        b1.identity_profiles["and"], b2.identity_profiles["->"],
        b1.signature, b2.signature,
        b1.completion_profile, b2.completion_profile,
    )
    ok = treetools.trees_equiv(out1, out2)
    s1, s2 = print_formula(out1), print_formula(out2)
    _emit(args, {"f1": s1, "f2": s2, "trees_equivalent": ok},
          f"{s1}\n{s2}\ntrees equivalent: {ok}")
    return _exit(ok)


def cmd_soundness_audit(args):
    bundle = _logic(args)
    # every rule is sound in the calculus's models, so only the others are checked
    models = bundle.calculus.models
    rest = [m for m in bundle.matrices if not any(m is x for x in models)]
    failures = [r.name for r in bundle.calculus.rules if not semantics.check_rule_soundness(rest, r)]
    ok = not failures
    text = "all rules sound" if ok else "unsound rules: " + ", ".join(failures)
    _emit(args, {"sound": ok, "failures": failures}, text)
    return _exit(ok)


# ---------------------------------------------------------------------------

def _add_schema_bound(p):
    p.add_argument("--schema-bound", type=int, default=presets.DEFAULT_SCHEMA_BOUND)


def _add_meet(p):
    p.add_argument("--l1", required=True, help="first component preset")
    p.add_argument("--l2", required=True, help="second component preset")


def _add_either(p):
    p.add_argument("--logic", help="single-logic preset")
    p.add_argument("--l1")
    p.add_argument("--l2")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process. It holds no verb
    functions: `main` looks up `cmd_<verb>` at each call."""
    top = _Parser(prog="meetlogic", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)
    top.verbs = sub.choices  # verb name -> its parser, for `_parse`

    def verb(name, setup):
        p = sub.add_parser(name)
        setup(p)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-worlds", type=int, default=presets.DEFAULT_MAX_WORLDS)
        p.set_defaults(schema_bound=presets.DEFAULT_SCHEMA_BOUND)
        return p

    verb("combine", _add_meet)
    verb("project", lambda p: (_add_meet(p), p.add_argument("-k", type=int, choices=(1, 2), required=True), p.add_argument("formula")))
    verb("embed", lambda p: (_add_meet(p), p.add_argument("-k", type=int, choices=(1, 2), required=True), p.add_argument("formula")))
    verb("tag", lambda p: (_add_either(p), p.add_argument("--rule", required=True), p.add_argument("--side", choices=("1", "2", "mc"), default="mc"), p.add_argument("--name", default="rule")))
    verb("check-derivation", lambda p: (_add_either(p), p.add_argument("--derivation", required=True), p.add_argument("--hyps"), p.add_argument("--extra")))
    verb("search", lambda p: (
        _add_either(p), p.add_argument("--goal", required=True), p.add_argument("--hyps"),
        p.add_argument("--with-basis", action="store_true"), _add_schema_bound(p),
        p.add_argument("--depth", type=int, default=6), p.add_argument("--max-size", type=int, default=30)))
    verb("decide-admissible", lambda p: (_add_meet(p), p.add_argument("--rule", required=True), p.add_argument("--oracle1", default="auto"), p.add_argument("--oracle2", default="auto")))
    verb("basis", lambda p: (_add_meet(p), _add_schema_bound(p)))
    verb("eval", lambda p: (_add_either(p), p.add_argument("formula")))
    verb("entails", lambda p: (_add_either(p), p.add_argument("--hyps"), p.add_argument("--goal", required=True)))
    verb("trees", lambda p: (p.add_argument("--logic", default="IPL"), p.add_argument("f1"), p.add_argument("f2")))
    verb("complete", lambda p: (p.add_argument("--logic", default="IPL"), p.add_argument("--target", choices=("top", "bot"), required=True), p.add_argument("--root-head"), p.add_argument("formula")))
    verb("equalize", lambda p: (_add_meet(p), p.add_argument("--f1", required=True), p.add_argument("--f2", required=True)))
    verb("soundness-audit", _add_either)
    return top


def _parse(argv):
    """`build_parser().parse_args(argv)`, parsed once. A call that names a
    verb first is read by that verb's own parser alone, as the top-level
    parser would hand it on. Any other call, and one that leaves arguments
    over, goes through the top-level parser for its usage and error text."""
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    # only the verbs that take `--logic` or `--l1/--l2` have both attributes
    if hasattr(args, "logic") and hasattr(args, "l1") and not (args.logic or args.l1 and args.l2):
        print("error: give --logic NAME or both --l1 and --l2", file=sys.stderr)
        return EXIT_USAGE
    try:
        return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except (ParseError, SignatureError, formats.FormatError, presets.PresetError,
            calculus.BuilderError, treetools.TreeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # 1 means "no", so a failure must never end with Python's exit code 1
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
