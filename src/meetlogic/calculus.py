"""Hilbert calculi, line-justified derivations, the derivation checker,
rule tagging, meet-calculus assembly, bounded proof search, and derivation-template builders.
"""
from __future__ import annotations

import gc
import itertools
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .combination import (
    CombinedSignature,
    embed,
    proj_embedded,
    project,
)
from .semantics import check_rule_soundness, entails, product_matrix
from .syntax import (
    App,
    Formula,
    Record,
    Var,
    apply_substitution,
    match_formula,
    max_schema_index,
    postorder,
    print_formula,
    subformulas,
    variables_of,
    verum_family_name,
)


class BuilderError(Exception):
    pass


class Rule(Record):
    __slots__ = ("name", "premises", "conclusion", "__dict__")

    @property
    def liberal(self) -> bool:
        return isinstance(self.conclusion, Var)

    @cached_property
    def shape(self) -> tuple:
        """(constructor nodes, ((variable index, occurrences), ...), text template
        with the variables' texts as fields, in index order) of the conclusion."""
        nodes = subformulas(self.conclusion)
        counts = Counter(g.index for g in nodes if g.__class__ is Var)
        texts = {Var(v): f"{{{k}}}" for k, v in enumerate(sorted(counts))}
        for g in reversed(nodes):  # arguments before their applications
            if g not in texts:
                d = g.ctor.display.replace("{", "{{").replace("}", "}}")
                texts[g] = f"{d}({', '.join([texts[a] for a in g.args])})" if g.args else d
        return len(nodes) - sum(counts.values()), tuple(sorted(counts.items())), texts[self.conclusion]

    @cached_property
    def plan(self) -> tuple:
        """How `_join` matches the premises: one step per pattern premise, in
        the visit order (largest premise first). A step is (premise index,
        premise, its `_arg_key`, whether it is visited last, checks). Its
        checks are the bare-variable premises visited after it and before
        the next step whose variable an earlier premise binds: (premise
        index, variable index, path, whether it is visited last). The path
        leads, as (constructor, argument position) pairs, to an occurrence
        of the variable in the step's premise; it is None when an earlier
        step binds the variable."""
        visit = sorted(range(len(self.premises)), key=lambda i: -self.premises[i].size)
        steps: list = []
        bound: set = set()
        for pos, i in enumerate(visit):
            p, last = self.premises[i], pos == len(visit) - 1
            if p.__class__ is Var and p.index in bound:
                _, step, _, _, checks = steps[-1]
                checks.append((i, p.index, None if p.index in before else _path_to(step, p.index), last))
                continue
            before = set(bound)
            bound.update(variables_of(p))
            steps.append((i, p, _arg_key(p), last, []))
        return tuple((i, p, key, last, tuple(checks)) for i, p, key, last, checks in steps)

    @cached_property
    def instantiator(self) -> tuple:
        """(build, text), made on the rule's first search. `build` takes the
        images of the conclusion's variables in `shape` order and returns the
        conclusion's instance; `text` takes the images' texts and returns the
        instance's text, filling `shape`'s template."""
        return _compile_build(self.conclusion, [v for v, _ in self.shape[1]]), self.shape[2].format

    @cached_property
    def matcher(self):
        """A function of a formula that returns the images of the
        conclusion's variables in `shape` order under which the conclusion's
        instance is that formula, or None; made on first use."""
        return _compile_match(self.conclusion, [v for v, _ in self.shape[1]])

    def __repr__(self):
        ps = "; ".join(print_formula(p) for p in self.premises)
        return f"{self.name}: {ps} / {print_formula(self.conclusion)}"


def _compile_build(f: Formula, variables: list):
    """A function of the images of `variables`, in order, that returns f's
    instance under them. Its code is straight-line: one `App` statement per
    distinct node of f that has a variable below it, in `postorder`, so f may
    be of any depth. Constructors and variable-free nodes (each a node of f)
    reach it as globals; no name or text of f is part of the source. f may
    also be a tuple of formulas: the function then returns the tuple of
    their instances, and builds a node they share once."""
    names = {Var(v): f"x{k}" for k, v in enumerate(variables)}  # node -> its name in the code
    env: dict = {"App": App, "new": App.__new__}  # new(App, ...) skips type.__call__
    ctors: dict = {}  # constructor -> its global's name
    lines: list = []
    roots = f if f.__class__ is tuple else (f,)
    for root in roots:
        for g in postorder(root, names.__contains__):  # the nodes no earlier root named
            args = [names[a] for a in g.args]
            if all(a in env for a in args):  # variable-free: the node itself
                names[g] = f"k{len(env)}"
                env[names[g]] = g
                continue
            c = ctors.setdefault(g.ctor, f"c{len(env)}")
            env[c] = g.ctor
            names[g] = f"t{len(lines)}"
            lines.append(f"    {names[g]} = new(App, {c}, ({', '.join(args)},))")
    result = names[f] if roots is not f else f"({''.join(names[r] + ', ' for r in roots)})"
    lines.append(f"    return {result}")
    source = f"def build({', '.join(names[Var(v)] for v in variables)}):\n" + "\n".join(lines)
    exec(_code(source), env)
    return env["build"]


def _compile_match(f: Formula, variables: list):
    """A function of a formula g that returns the images of `variables`, in
    order, under which f's instance is g, or None when there are none, as
    `match_formula(f, g)` would tell. Its code is straight-line: per node of
    f in preorder, a test of g's subterm there (its constructor, or its
    identity with the image a variable already took) and the unpacking of
    its arguments. Constructors reach it as globals."""
    env: dict = {"App": App}
    bound: dict = {}  # variable index -> the name of its image
    lines: list = []
    todo = [(f, "g")]
    while todo:
        p, name = todo.pop()
        if p.__class__ is Var:
            if p.index in bound:
                lines.append(f"    if {name} is not {bound[p.index]}: return None")
            bound.setdefault(p.index, name)
            continue
        c = f"c{len(env)}"
        env[c] = p.ctor
        lines.append(f"    if {name}.__class__ is not App or {name}.ctor is not {c}: return None")
        if p.args:
            args = [f"{name}_{j}" for j in range(len(p.args))]
            lines.append(f"    {''.join(a + ', ' for a in args)}= {name}.args")
            todo.extend(reversed(list(zip(p.args, args))))
    lines.append(f"    return ({''.join(bound[v] + ', ' for v in variables)})")
    exec(_code("def match(g):\n" + "\n".join(lines)), env)
    return env["match"]


@lru_cache(maxsize=1024)
def _code(source: str):
    """The compiled `source` of a builder or matcher. The source names no
    constructor and no formula, so rules of one shape share it across
    logics; each `exec` of the code in a rule's own globals makes that
    rule's function."""
    return compile(source, "<rule function>", "exec")


class Calculus(Record):
    """A named finite rule set over a signature.

    A calculus over a `CombinedSignature` is a meet calculus: it also has the
    schematic LFT/cLFT/FX families, which the checker and the search apply
    to arbitrary formulas.

    `matrices` are the matrices the calculus is meant to be sound in, and a
    meet calculus keeps its two component calculi as `components`. Neither
    takes part in equality; `models` and `lifted_heads` are read from them.
    """

    __slots__ = ("name", "signature", "rules", "matrices", "components", "__dict__")
    _defaults = {"matrices": (), "components": ()}
    _compare = ("name", "signature", "rules")

    @cached_property
    def models(self) -> tuple:
        """The matrices in which every rule is sound, worked out on first use.

        A component calculus tries its `matrices`. A meet tries the product
        of its components' first models, each found by trying the
        component's matrices in order up to the first sound one, and only
        when each factor gives every verum-family constructor designated
        values: LFT and cLFT are sound in the product only then, while FX
        always is, as no factor designates `bot`.
        """
        return tuple(self._sound())

    def _sound(self):
        """`models` in order, each checked when it is reached."""
        tried = self.matrices
        if self.components:
            firsts = [next(c._sound(), None) for c in self.components]
            if any(m is None for m in firsts) or not all(map(_verum_designated, firsts)):
                return
            tried = (product_matrix(*firsts, self.signature),)
        yield from (m for m in tried if all(check_rule_soundness((m,), r) for r in self.rules))

    @cached_property
    def lifted_heads(self) -> frozenset:
        """The pair constructors that head a formula only LFT concludes,
        worked out on first use: in a meet, the pairs of two constructors
        outside the verum family that no rule concludes; none when a rule
        concludes a bare variable. cLFT and FX conclude only pairs with a
        verum-family side."""
        if not self.components or any(r.liberal for r in self.rules):
            return frozenset()
        concluded = {r.conclusion.ctor for r in self.rules}
        return frozenset(p for p in self.signature.all_ctors() if p not in concluded
                         and verum_family_name(p.arity) not in (p.c1.name, p.c2.name))

    @cached_property
    def axiom_closures(self) -> list:
        """What a meet's axiom lookup (`_axiom_line`) reads of the axioms,
        worked out on first use: per map of a fact's closure (`_closure`:
        the identity, cLFT to side 1, to side 2, the verum image), the
        constructors it makes of those it moves in the axioms' conclusions."""
        cs, memo = self.signature, {}
        nodes = {g for r in self.rules if not r.premises for g in subformulas(r.conclusion) if g.__class__ is App}
        return [{m.ctor for g in nodes if (m := _closure(g, cs, memo)[k]).ctor is not g.ctor} for k in range(4)]


def _verum_designated(m) -> bool:
    """Whether every verum-family constructor of m's signature takes only
    designated values."""
    flags = m.designated_flags
    return all(flags[x] for c in m.signature.all_ctors() if c.name == verum_family_name(c.arity)
               for x in m.tables[c])


# ---------------------------------------------------------------------------
# derivations

# Every justification cites through `cites`, a tuple of 1-based earlier
# line indices: none for HYP, one per premise for a rule, the lines of
# phi|1 and phi|2 for LFT, and the line projected or taken to the other
# falsum for cLFT and FX.

class Hyp(Record):
    __slots__ = ()
    cites = ()


class RuleApp(Record):
    """`subst` is the sorted ((var index, Formula), ...) witness."""

    __slots__ = ("rule", "cites", "subst")

    def subst_dict(self) -> dict:
        return dict(self.subst)


class Lft(Record):
    __slots__ = ("cites",)


class Clft(Record):
    __slots__ = ("cites", "side")


class Fx(Record):
    __slots__ = ("cites",)


# the number of lines each justification cites; a rule's premises decide
_CITE_COUNTS = {Hyp: 0, RuleApp: None, Lft: 2, Clft: 1, Fx: 1}


class Line(Record):
    __slots__ = ("formula", "just")


class Derivation(Record):
    __slots__ = ("lines",)

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula

    def __len__(self):
        return len(self.lines)


def freeze_subst(s: dict) -> tuple:
    return tuple(sorted(s.items()))


class Verdict(Record):
    __slots__ = ("ok", "line", "reason")
    _defaults = {"line": None, "reason": None}

    def __bool__(self):
        return self.ok


def _instance_is(s: dict, pattern: Formula, f: Formula) -> bool:
    """Whether `apply_substitution(s, pattern)` is f, without building it:
    the walk goes over (pattern, formula) node pairs, where a variable that
    s leaves unbound stands for itself. Each pair of nodes is compared
    once, so shared subterms cost their distinct pairs, and the walk keeps
    an explicit stack."""
    seen = set()  # packed ids of the pairs: one int is cheaper to hash than a tuple of two nodes
    todo = [(pattern, f)]
    while todo:
        p, g = todo.pop()
        if p.__class__ is Var:
            if s.get(p.index, p) is not g:
                return False
        elif g.__class__ is not App or p.ctor is not g.ctor:
            return False
        elif (pair := id(p) << 64 | id(g)) not in seen:
            seen.add(pair)
            todo.extend(zip(p.args, g.args))
    return True


def check_derivation(d: Derivation, calc: Calculus, extra: Sequence[Rule] = (),
                     hyps: Iterable[Formula] = ()) -> Verdict:
    """Accept iff every line is justified from hyps and the rules of calc and extra.

    Rejection carries the first failing line and a reason; it is a value,
    not an error.
    """
    hyps = frozenset(hyps)
    rules = {r.name: r for r in list(calc.rules) + list(extra)}
    cs = calc.signature if isinstance(calc.signature, CombinedSignature) else None
    projected: dict = {}  # proj_embedded's memo

    def fail(i, reason):
        return Verdict(False, i, reason)

    for i, line in enumerate(d.lines, start=1):
        just = line.just
        if just.__class__ not in _CITE_COUNTS:
            return fail(i, f"unknown justification {type(just).__name__}")
        cites, count = just.cites, _CITE_COUNTS[just.__class__]
        if count is not None and len(cites) != count:
            return fail(i, f"{type(just).__name__} must cite {count} line(s), not {len(cites)}")
        for c in cites:
            if not (1 <= c < i):
                return fail(i, f"cited line {c} is not strictly earlier")

        if isinstance(just, Hyp):
            if line.formula not in hyps:
                return fail(i, "HYP line is not among the hypotheses")
        elif isinstance(just, RuleApp):
            rule = rules.get(just.rule)
            if rule is None:
                return fail(i, f"unknown rule {just.rule!r}")
            if len(cites) != len(rule.premises):
                return fail(i, f"rule {rule.name} expects {len(rule.premises)} cited lines")
            s = just.subst_dict()
            for c, prem in zip(cites, rule.premises):
                if not _instance_is(s, prem, d.lines[c - 1].formula):
                    return fail(i, f"cited line {c} is not the matching instance of a premise of {rule.name}")
            if not _instance_is(s, rule.conclusion, line.formula):
                return fail(i, f"line is not the witnessed instance of the conclusion of {rule.name}")
        elif isinstance(just, Lft):
            if cs is None:
                return fail(i, "LFT is not available in this calculus")
            l1, l2 = cites
            if d.lines[l1 - 1].formula != proj_embedded(line.formula, 1, cs, projected):
                return fail(i, "first LFT citation is not the component-1 projection")
            if d.lines[l2 - 1].formula != proj_embedded(line.formula, 2, cs, projected):
                return fail(i, "second LFT citation is not the component-2 projection")
        elif isinstance(just, Clft):
            if cs is None:
                return fail(i, "cLFT is not available in this calculus")
            if just.side not in (1, 2):
                return fail(i, "cLFT side must be 1 or 2")
            src = d.lines[cites[0] - 1].formula
            if line.formula != proj_embedded(src, just.side, cs, projected):
                return fail(i, "cLFT line is not the projection of the cited line")
        elif isinstance(just, Fx):
            if cs is None:
                return fail(i, "FX is not available in this calculus")
            src = d.lines[cites[0] - 1].formula
            matched = False
            for k in (1, 2):
                if src == cs.falsum(k) and line.formula == cs.falsum(3 - k):
                    matched = True
            if not matched:
                return fail(i, "FX line must take one component falsum to the other")
    return Verdict(True)


# ---------------------------------------------------------------------------
# meet-calculus assembly

def _embed_rule(rule: Rule, k: int, cs: CombinedSignature) -> Rule:
    return Rule(f"{rule.name}@{k}", tuple(embed(p, k, cs) for p in rule.premises), embed(rule.conclusion, k, cs))


def tag_rule(rule: Rule, ctors: Iterable) -> tuple:
    """Tag one rule over a family of constructors.

    A non-liberal rule is kept whole. A liberal rule (conclusion a schema
    variable) yields one rule per constructor c, named `rule#c`: the
    conclusion variable is replaced, everywhere it occurs, by c applied to
    fresh variables starting just past the rule's maximum index.
    """
    if not rule.liberal:
        return (rule,)
    j = max_schema_index(rule)
    out = []
    for c in ctors:
        fresh = App(c, tuple(Var(j + i) for i in range(1, c.arity + 1)))
        rho = {rule.conclusion.index: fresh}
        out.append(Rule(
            name=f"{rule.name}#{c.display}",
            premises=tuple(apply_substitution(rho, p) for p in rule.premises),
            conclusion=fresh,
        ))
    return tuple(out)


def inherit_rule(rule: Rule, k: int, cs: CombinedSignature) -> tuple:
    """Embed a component-k rule into the combined language and tag it.

    Liberal rules are tagged over the embedded image of the component's own
    constructors (pairs padded with the other side's verum family), which is
    the tagging of the rule over its component read through the embedding.
    """
    return tag_rule(_embed_rule(rule, k, cs), cs.side_ctors(k))


def inherit_rules(rules1, rules2, cs: CombinedSignature) -> tuple:
    """The inherited rules of both components, component 1 first, in rule order."""
    return tuple(t for k, rules in ((1, rules1), (2, rules2))
                 for r in rules for t in inherit_rule(r, k, cs))


def assemble_meet_calculus(c1: Calculus, c2: Calculus, cs: CombinedSignature) -> Calculus:
    """The meet calculus: the inherited tagged rules over the combined
    signature, which brings the LFT/cLFT/FX families."""
    if c1.signature is not cs.sig1 and c1.signature != cs.sig1:
        raise BuilderError("component-1 calculus does not match the combined signature")
    if c2.signature is not cs.sig2 and c2.signature != cs.sig2:
        raise BuilderError("component-2 calculus does not match the combined signature")
    return Calculus(f"meet({c1.name},{c2.name})", cs, inherit_rules(c1.rules, c2.rules, cs),
                    components=(c1, c2))


def embed_rule_application(rule: Rule, subst: dict, k: int, cs: CombinedSignature):
    """Re-justify a component rule application inside the combined calculus.

    Returns (combined rule name, witness substitution). For a liberal rule the
    applicable tagged variant is the one for the head of the embedded
    conclusion, and its fresh variables are bound by matching its conclusion
    against that formula; they take precedence over any other witness entry
    of the same index. An application concluding a bare schema variable has
    no tagged counterpart and is a builder error.
    """
    witness = {v: embed(f, k, cs) for v, f in subst.items()}
    embedded = _embed_rule(rule, k, cs)
    if not rule.liberal:
        return embedded.name, witness
    concrete = witness.pop(rule.conclusion.index, None)
    if concrete is None or isinstance(concrete, Var):
        raise BuilderError(
            f"application of liberal rule {rule.name} concluding a bare variable cannot be inherited"
        )
    (tagged,) = tag_rule(embedded, (concrete.ctor,))
    witness.update(match_formula(tagged.conclusion, concrete))
    return tagged.name, witness


# ---------------------------------------------------------------------------
# bounded proof search

class SearchBounds(Record):
    """Rounds of rule application (0 answers from the hypotheses alone), the
    largest fact size, the fact cap, and the candidate-pool size."""

    __slots__ = ("depth", "max_size", "max_facts", "max_candidates")

    def __init__(self, depth: int = 6, max_size: int = 30, max_facts: int = 3000, max_candidates: int = 14):
        Record.__init__(self, depth, max_size, max_facts, max_candidates)
        for name, least in (("depth", 0), ("max_size", 1), ("max_facts", 1), ("max_candidates", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"search bound {name} must be at least {least}, got {getattr(self, name)}")


def _candidate_pool(calc, hyps, goal, bounds):
    pool = set()
    for f in list(hyps) + [goal]:
        pool.update(subformulas(f))
    sig = calc.signature
    if isinstance(sig, CombinedSignature):
        pool.update({sig.top, sig.bot, sig.falsum(1), sig.falsum(2)})
    else:
        pool.update({sig.top, sig.bot})
    ordered = sorted(pool, key=lambda f: (f.size, print_formula(f)))
    return ordered[: bounds.max_candidates]


def _arg_key(premise):
    """(constructor, argument position, argument constructor) of an `App`
    premise's first argument that is not a variable, or None."""
    if premise.__class__ is App:
        for j, a in enumerate(premise.args):
            if a.__class__ is App:
                return premise.ctor, j, a.ctor
    return None


def _path_to(f, v):
    """The shortest path of (constructor, argument position) pairs from `f`
    to an occurrence of the variable of index `v`."""
    todo = [(f, ())]
    for g, path in todo:  # breadth first: the loop reads what it appends
        if g.__class__ is Var:
            if g.index == v:
                return path
        else:
            todo.extend((a, path + ((g.ctor, j),)) for j, a in enumerate(g.args))


def _at(f, path):
    """The subterm of `f` at `path`, or None when `f` leaves the path's
    constructors, and so cannot match the premise the path was read from."""
    for ctor, j in path:
        if f.__class__ is not App or f.ctor is not ctor:
            return None
        f = f.args[j]
    return f


def _candidates(step, facts):
    order, by_head, by_arg, _ = facts
    premise, key = step[1], step[2]
    if premise.__class__ is Var:
        return order
    if key is not None:
        return by_arg.get(key, ())
    return by_head.get(premise.ctor, ())


def _join(rule, every, new):
    """Yield (substitution, cited facts per premise) for the joint premise
    matches that cite at least one new fact, in the order of the full join.

    `every` and `new` are (facts in order, facts by head constructor, facts
    by argument key, fact set) for all facts and for the new ones, which are
    a suffix of each list of `every`. The join follows `Rule.plan` and walks
    its steps with an explicit stack. A step's candidate facts are narrowed
    by the premise's head constructor, or by its `_arg_key` when it has one:
    a fact matches only if its argument at that position has that
    constructor too, and both lists are in fact order. A bare-variable
    premise that no earlier premise binds scans all facts.

    Before a candidate is matched, the image of each of the step's checks is
    read off the candidate (or the substitution) and must be a fact. Only
    the last premise visited, when no earlier one cited a new fact, is cut
    to the new facts, so the matches kept come out in the same relative
    order as in the full join. The substitution yielded is the one that
    `match_formula` made for the joint match.
    """
    steps = rule.plan
    match = match_formula
    facts, new_set = every[3], new[3]
    chosen = [None] * len(rule.premises)
    frames = [(iter(_candidates(steps[0], new if steps[0][3] else every)), {}, False)]
    while frames:
        it, subst, cites = frames[-1]
        i, premise, _, _, checks = steps[len(frames) - 1]
        for fact in it:
            now = cites or fact in new_set
            for j, v, path, last in checks:
                g = subst[v] if path is None else _at(fact, path)
                if g not in (new_set if last and not now else facts):
                    break
                chosen[j] = g
                now = now or g in new_set
            else:  # every check passed
                nxt = match(premise, fact, subst)
                if nxt is None:
                    continue
                chosen[i] = fact
                if len(frames) == len(steps):
                    yield nxt, tuple(chosen)
                    continue
                step = steps[len(frames)]
                frames.append((iter(_candidates(step, new if step[3] and not now else every)), nxt, now))
                break  # this frame's candidates resume once the new frame is done
        else:
            frames.pop()


def _index(fresh, keys, every):
    """Index the new facts by head constructor and by the argument keys in
    `keys`, append them to the indexes in `every`, and return the new facts
    as the `new` argument of `_join`."""
    by_head: dict = {}
    by_arg: dict = {}
    for f in fresh:
        if f.__class__ is App:
            c = f.ctor
            by_head.setdefault(c, []).append(f)
            for j, a in enumerate(f.args):
                if a.__class__ is App and (c, j, a.ctor) in keys:
                    by_arg.setdefault((c, j, a.ctor), []).append(f)
    for index, part in ((every[1], by_head), (every[2], by_arg)):
        for key, fs in part.items():
            index.setdefault(key, []).extend(fs)
    return fresh, by_head, by_arg, set(fresh)


class _Texts(dict):
    """Printed formulas; a formula is printed on its first lookup."""

    __slots__ = ()

    def __missing__(self, f):
        text = self[f] = print_formula(f)
        return text


def _by_size(candidates) -> dict:
    """The candidates, which are in size order, as size -> the candidates of
    that size."""
    groups: dict = {}
    for g in candidates:
        groups.setdefault(g.size, []).append(g)
    return groups


def _images(rule, subst, groups, max_size) -> dict:
    """Instance size -> the images of the conclusion's variables, in
    `Rule.shape` order, of each instance of the conclusion within
    `max_size` under `subst`: sized by `Rule.shape`, not built. The
    variables that `subst` leaves unbound range over the candidate `groups`
    (size -> candidates), one product per tuple of candidate sizes that
    fits. Every such variable occurs in the conclusion, so each image tuple
    is another instance."""
    size, counts, _ = rule.shape
    images = [subst.get(v) for v, _ in counts]
    size += sum([n * g.size for (_, n), g in zip(counts, images) if g is not None])
    free = [(k, n) for k, ((_, n), g) in enumerate(zip(counts, images)) if g is None]
    if not free:  # one tuple: most joint premise matches bind every variable
        return {size: [tuple(images)]} if size <= max_size else {}
    choices = [(g,) for g in images]
    out: dict = {}
    for sizes in itertools.product(groups, repeat=len(free)):
        total = size + sum([n * m for (_, n), m in zip(free, sizes)])
        if total <= max_size:
            for (k, _), m in zip(free, sizes):
                choices[k] = groups[m]
            out.setdefault(total, []).extend(itertools.product(*choices))
    return out


def _file(rule, subst, cited, groups, max_size, buckets):
    """Append the record `("rule", cited, rule, images, subst)` of each of
    `_images`' tuples to `buckets[size]`; `subst` is shared, not copied."""
    for size, images in _images(rule, subst, groups, max_size).items():
        bucket = buckets.setdefault(size, [])
        for t in images:
            bucket.append(("rule", cited, rule, t, subst))


# The search tries a model only while its columns stay this short: `entails`
# holds n**k values per column for k variables on an n-element carrier (on
# each factor of a product), so a wide goal would cost far more than the
# search it saves.
_MAX_COLUMN = 1 << 12


def _refuted(calc: Calculus, hyps: list, goal: Formula) -> bool:
    """Whether some model of the calculus, of those small enough to try,
    designates every hypothesis but not the goal under some assignment."""
    k = len(set().union(variables_of(goal), *map(variables_of, hyps)))
    tried = [m for m in calc.models if max(len(f.carrier) for f in m.factors or (m,)) ** k <= _MAX_COLUMN]
    return bool(tried) and not entails(tried, hyps, goal)


def bounded_proof_search(calc: Calculus, extra: Sequence[Rule], hyps: Iterable[Formula],
                         goal: Formula, bounds: SearchBounds = SearchBounds()) -> Optional[Derivation]:
    """Bounded proof search; a returned derivation always passes the checker.

    None is inconclusive, never a non-derivability claim. Exploration order
    is fixed, so results are deterministic for fixed bounds. These phases
    run in order, and the first that answers ends the search:

    1. A goal over `max_size` is never a fact: None.
    2. In a component calculus at `depth` 1 or more, the goal-directed pass
       (`_round_one`) over `calc.rules` and `extra`, when each proper rule's
       plan is one step whose premise holds its conclusion's variables
       (`_one_step`), as in every preset and basis; a hypothesis goal gets
       its HYP line. In a meet without hypotheses and without `extra`,
       which may hold a premise-free rule, the axiom lookup (`_axiom_line`).
    3. Without `extra`, None for a goal that the hypotheses do not entail
       in one of `calc.models`, where every rule is sound. Basis rules in
       `extra` are admissible and need not be. Besides the axiom lookup,
       whose answer the rounds return too, `extra` skips only this phase.
    4. A meet goal, not a hypothesis, whose head only LFT concludes
       (`calc.lifted_heads`): each projection is searched through these
       phases in its component calculus from the projected hypotheses,
       without `extra`, as a component derivation is one with basis rules
       too, and the both-sides template joins the two by LFT (`_lifted`).
       The rounds conclude such a goal only by LFT from the same
       projections, so this loses no goal and changes only such goals'
       derivations. When a search gives up or a component line cannot be
       inherited, the rounds run.
    5. The forward rounds (`_rounds`). In a meet they may add a hypothesis
       goal first as an earlier hypothesis's cLFT or FX image.

    Phase 2 answers with the derivation the rounds return, line for line,
    without the fact cap `max_facts`, or the pass with None when no round
    below `depth` adds the goal. The rounds stop adding at the cap, so it
    never changes a derivation, only removes one.

    Rounds are semi-naive: a round makes only the premise matches that cite
    a fact added by the round before. A match of older facts was made in an
    earlier round, which added all its conclusions unless the fact cap
    refused them, and no round starts once the cap is reached.

    A round adds its new conclusions smallest first, and those of one size
    in the order of their printed texts (of equal ones the first made, rules
    before LFT). It stops once the goal is a fact or the fact cap is reached,
    so it builds a size's instances only on reaching it; they meet that size's
    facts of the round's start, as `proj_embedded` and FX keep size.

    The cyclic garbage collector is paused for the search, and left off if
    it was off. A search makes no reference cycles, as formula nodes are
    immutable DAGs and its facts, records and memos refer only downwards.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        return _search(calc, extra, hyps, goal, bounds)
    finally:
        if was:
            gc.enable()


def _search(calc, extra, hyps, goal, bounds):
    """`bounded_proof_search` without the collector pause. The lifted
    phase's component searches run their `_phases` on an explicit stack,
    so no function of the search calls back into it."""
    stack, answer = [_phases(calc, extra, hyps, goal, bounds)], None
    while stack:
        try:
            stack.append(_phases(*stack[-1].send(answer), bounds))
            answer = None
        except StopIteration as stop:
            stack.pop()
            answer = stop.value
    return answer


def _phases(calc, extra, hyps, goal, bounds):
    """The phases of `bounded_proof_search`, as a generator that returns
    the answer. The lifted phase yields each component search as
    (calculus, extra, hypotheses, goal) and is sent its answer."""
    hyps = list(dict.fromkeys(hyps))
    if goal.size > bounds.max_size:
        return None
    candidates = _candidate_pool(calc, hyps, goal, bounds)
    if not isinstance(calc.signature, CombinedSignature):
        rules = list(calc.rules) + list(extra)
        if bounds.depth and _one_step(rules):
            return _round_one(rules, hyps, goal, candidates, bounds)
    elif bounds.depth and not hyps and not extra and (found := _axiom_line(calc, goal, candidates, bounds)):
        return found
    if not extra and _refuted(calc, hyps, goal):
        return None
    if goal.__class__ is App and goal.ctor in calc.lifted_heads and goal not in hyps:
        found = yield from _lifted(calc, hyps, goal)
        if found is not None:
            return found
    return _rounds(calc, extra, hyps, goal, candidates, bounds)


def _lifted(calc, hyps, goal):
    """The derivation of a meet goal by LFT from its two projections, each
    searched in its component calculus from the projected hypotheses, and
    joined with the both-sides template; None when either search gives up
    or the template cannot inherit a component line. A generator: it
    yields each component search to `_search`, which sends its answer."""
    ds = []
    for k, comp in enumerate(calc.components, start=1):
        d = yield comp, (), [project(h, k) for h in hyps], project(goal, k)
        if d is None:
            return None
        ds.append(d)
    try:
        return _both_sides(hyps, goal, ds[0], ds[1], calc, *calc.components)
    except BuilderError:
        return None


def _rounds(calc, extra, hyps, goal, candidates, bounds):
    """The forward rounds from the hypotheses over `candidates`."""
    cs = calc.signature if isinstance(calc.signature, CombinedSignature) else None
    rules = list(calc.rules) + list(extra)

    facts: dict = {}
    order: list = []
    texts = _Texts((c, print_formula(c)) for c in candidates)  # texts of substitution images

    def finished() -> bool:
        return goal in facts or len(facts) >= bounds.max_facts

    falsa = (cs.falsum(1), cs.falsum(2)) if cs is not None else ()
    projected: dict = {}  # proj_embedded's memo, for facts and LFT targets

    def add(f, record) -> bool:
        """Add f, and in a meet its closure under cLFT and FX, depth first:
        each fact's cLFT images, side 1 first, then its FX image. Whether f
        itself was added."""
        before = len(order)
        todo = [(f, record)]
        while todo:
            f, record = todo.pop()
            if f in facts or f.size > bounds.max_size or len(facts) >= bounds.max_facts:
                continue
            facts[f] = record
            order.append(f)
            if cs is not None:  # pushed in reverse, as the last pushed is added first
                cited = (f,)
                if f is falsa[0] or f is falsa[1]:
                    todo.append((falsa[1] if f is falsa[0] else falsa[0], ("fx", cited)))
                todo.append((proj_embedded(f, 2, cs, projected), ("clft", cited, 2)))
                todo.append((proj_embedded(f, 1, cs, projected), ("clft", cited, 1)))
        return len(order) > before

    for h in hyps:
        add(h, ("hyp", ()))

    axioms = [r for r in rules if not r.premises]
    proper = [r for r in rules if r.premises]
    arg_keys = {_arg_key(p) for r in proper for p in r.premises}
    every = (order, {}, {}, facts)  # facts by head constructor and by argument key
    groups = _by_size(candidates)
    seen = 0  # facts before order[seen] were matched in an earlier round
    for _round in range(bounds.depth):
        if finished():
            break
        fresh = order[seen:]
        seen = len(order)
        new = _index(fresh, arg_keys, every)
        buckets: dict = {}  # size -> rule instance records, in the order made
        lfts: dict = {}  # size -> (LFT target, record), made after every rule instance
        if _round == 0:
            for rule in axioms:
                _file(rule, {}, (), groups, bounds.max_size, buckets)
        for rule in proper:
            for subst, cited in _join(rule, every, new):
                _file(rule, subst, cited, groups, bounds.max_size, buckets)
        if cs is not None:
            for target in [goal] + candidates:
                if target in facts or isinstance(target, Var):
                    continue
                p1 = proj_embedded(target, 1, cs, projected)
                p2 = proj_embedded(target, 2, cs, projected)
                if p1 in facts and p2 in facts:  # so target.size <= bounds.max_size
                    lfts.setdefault(target.size, []).append((target, ("lft", (p1, p2))))
        before = len(facts)
        for size in sorted(buckets.keys() | lfts.keys()):
            if finished():
                break
            built: dict = {}  # conclusion -> (its text, record of its first instance)
            for record in buckets.get(size, ()):
                build, text = record[2].instantiator
                images = record[3]
                f = build(*images)
                if f not in facts and f not in built:
                    built[f] = text(*[texts[g] for g in images]), record
            for f, record in lfts.get(size, ()):
                if f not in facts and f not in built:
                    built[f] = print_formula(f), record
            for f in sorted(built, key=lambda f: built[f][0]):
                if add(f, built[f][1]) and finished():
                    break
        if goal in facts or len(facts) == before:
            break

    if goal not in facts:
        return None
    return _reconstruct(goal, facts)


# ---------------------------------------------------------------------------
# goal-directed rounds one and two

def _fits(pattern, key) -> bool:
    """Whether a formula whose head key is `key` may be an instance of
    `pattern`, as far as its head and its arguments' heads tell. The head
    key is None for a variable; else the formula's constructor and, per
    argument, the argument's constructor or None for a variable."""
    if pattern.__class__ is Var:
        return True
    return key is not None and pattern.ctor is key[0] and \
        all([a.__class__ is Var or a.ctor is c for a, c in zip(pattern.args, key[1])])


@lru_cache(maxsize=256)
def _fitting(axioms: tuple) -> dict:
    """The memo of `_RoundZero`'s lookups over `axioms`: head key -> the
    axioms that `_fits` it, in rule order; kept across searches."""
    return {}


class _RoundZero(dict):
    """The facts after a search's round 0, each with the record round 0
    makes first for it, worked out on lookup instead of made. A formula is
    such a fact when it is a hypothesis, which the dict starts with, an
    axiom instance over the pool within `max_size`, or a conclusion of round
    0's join over the hypotheses (`derived`); an axiom's record comes before
    a join's, as round 0 makes axiom instances first. Any other formula maps
    to None, and `in` asks whether a formula is a fact. A lookup tries, with
    their `Rule.matcher`, only the axioms that `_fits` its head key."""

    __slots__ = ("derived", "axioms", "fitting", "pool", "max_size")

    def __init__(self, hyps, derived, axioms, pool, max_size):
        dict.__init__(self, dict.fromkeys(hyps, ("hyp", ())))
        self.derived, self.axioms, self.pool, self.max_size = derived, axioms, pool, max_size
        self.fitting = _fitting(tuple(axioms))

    def __missing__(self, f):
        record = self.derived.get(f)
        if f.size <= self.max_size:
            key = None if f.__class__ is not App else \
                (f.ctor, tuple([a.ctor if a.__class__ is App else None for a in f.args]))
            axioms = self.fitting.get(key)
            if axioms is None:
                axioms = self.fitting[key] = [r for r in self.axioms if _fits(r.conclusion, key)]
            for rule in axioms:
                images = rule.matcher(f)
                if images is not None and self.pool.issuperset(images):
                    record = ("rule", (), rule, images, {})
                    break
        self[f] = record
        return record

    def __contains__(self, f):
        return self[f] is not None


def _axiom_line(calc, goal, candidates, bounds) -> Optional[Derivation]:
    """The one-line derivation the rounds return for a meet goal, searched
    without hypotheses, that round 0 adds as an axiom instance: its first
    axiom record, looked up as `_RoundZero` does; None when the goal is no
    such instance, or when this cannot tell.

    Without hypotheses round 0 makes only axiom records, and each adds at
    most its closure: itself, its images under cLFT to either side and
    their verum image, and FX's other falsum. Each of these maps replaces
    every constructor by one constructor. Round 0 makes the goal's axiom
    records in rule order, and adds the first of them unless a fact of the
    goal's size that comes before it has the goal in its closure: an axiom
    instance F over the pool other than the goal, and the goal its image
    under one of the maps, so its own image too. Either the map moves a
    constructor of F's axiom, and the goal has a node with that
    constructor's image, or it keeps the axiom and moves one of F's images,
    a pool formula whose image is a subformula of the goal. The lookup
    declines in both cases, on a falsum, which FX may add, and on a
    variable, which only a liberal axiom concludes."""
    cs = calc.signature
    if goal.__class__ is not App or goal in (cs.falsum(1), cs.falsum(2)):
        return None
    record = _RoundZero((), {}, [r for r in calc.rules if not r.premises], set(candidates), bounds.max_size)[goal]
    if record is None:
        return None
    memo: dict = {}
    kept = [m for m, g in enumerate(_closure(goal, cs, memo)) if g is goal and m]  # maps the goal is an image of
    if kept:
        moved, nodes = calc.axiom_closures, set(subformulas(goal))
        images = [_closure(c, cs, memo) for c in candidates]
        if any([g.__class__ is App and g.ctor in moved[m] for g in nodes for m in kept]) \
                or any([i[m] is not i[0] and i[m] in nodes for i in images for m in kept]):
            return None
    return _reconstruct(goal, {goal: record})


def _closure(f, cs, memo) -> tuple:
    """f and its images under the maps of a fact's closure: cLFT to side 1,
    to side 2, and the verum image; `memo` is `proj_embedded`'s."""
    if f.__class__ is Var:
        return f, f, f, f
    proj_embedded(f, 1, cs, memo)
    return (f,) + memo[f]


def _premise_unifier(rule, premise, beta, pool) -> Optional[dict]:
    """One-way unification of the axiom `rule`'s conclusion with `premise`
    under `beta`: the substitution that the premise's bound variables force,
    or None when they clash or force an image outside `pool`."""
    theta: Optional[dict] = {}
    todo = [(rule.conclusion, premise)]
    while todo:
        c, p = todo.pop()
        if p.__class__ is Var:
            if p.index in beta:
                theta = match_formula(c, beta[p.index], theta)
                if theta is None:
                    return None
        elif c.__class__ is App:
            if c.ctor is not p.ctor:
                return None
            todo.extend(zip(c.args, p.args))
    return theta if pool.issuperset(theta.values()) else None


def _matches(rule, beta, facts, known) -> dict:
    """The one-step `rule`'s joint matches under `beta` over those of `facts`
    that its premise matches, keyed by the fact each cites, in `_join`'s
    order. All count as new: round 1's semi-naive rule drops only matches
    that round 0 made, and the pass answers a goal that round 0 adds
    before it matches."""
    i, premise, key, _, _ = rule.plan[0]
    facts = [f for f in facts if match_formula(premise, f, beta) is not None]
    view = (facts, {getattr(premise, "ctor", None): facts}, {key: facts}, known)
    return {cited[i]: (subst, cited) for subst, cited in _join(rule, view, view)}


def _one_step(rules) -> bool:
    """Whether each proper rule's plan has one step whose premise holds the
    conclusion's variables: the rules the goal-directed pass takes."""
    return all([len(r.plan) == 1 and variables_of(r.conclusion) <= variables_of(r.plan[0][1])
                for r in rules if r.premises])


def _round_one(rules, hyps, goal, candidates, bounds):
    """The derivation the forward search returns when it adds the goal in
    round 0, with the record `_RoundZero` holds for it, in round 1, found by
    matching backwards from the goal without making round 0, or in a later
    round (`_round_two`); None when no round below `depth` adds it. The
    rules are `_one_step`, so a fact starts at most one match, and round 1
    makes at most one record per rule and fact.

    For each proper rule, in rule order, whose conclusion matches the goal,
    the real `_join` runs over the hypotheses, then over round 0's additions
    grouped by size, unbuilt, and built one size at a time, smallest first.
    A fact starts at most one match, so the first hypothesis that does, or
    else the least text at the first size with a match, starts the record
    round 1 makes first for the goal; only that size's matches are printed.

    The backward match decides round 1 exactly. When it does not add the
    goal, the answer is None at `depth` 2; at 3 or more `_round_two`
    decides whether a later round adds it, reading round 0's join and
    lookups made here."""
    max_size = bounds.max_size
    axioms = [r for r in rules if not r.premises]
    proper = [r for r in rules if r.premises]
    hyps = [h for h in hyps if h.size <= max_size]
    groups = _by_size(candidates)
    every = (hyps, {}, {}, set(hyps))
    new = _index(hyps, {_arg_key(p) for r in proper for p in r.premises}, every)
    buckets: dict = {}
    for rule in proper:
        for subst, cited in _join(rule, every, new):
            _file(rule, subst, cited, groups, max_size, buckets)
    derived: dict = {}  # round 0's proper conclusions -> their first records
    for record in itertools.chain(*buckets.values()):
        derived.setdefault(record[2].instantiator[0](*record[3]), record)
    known = _RoundZero(hyps, derived, axioms, set(candidates), max_size)
    if goal in known:
        return _reconstruct(goal, known)
    if bounds.depth < 2:
        return None
    for rule in proper:
        beta = match_formula(rule.conclusion, goal)
        if beta is None:
            continue
        found = _matches(rule, beta, hyps, known)
        first = next(iter(found), None)
        if first is None:
            additions = {size: list(records) for size, records in buckets.items()}  # round 0's, by size
            for axiom in axioms:
                theta = _premise_unifier(axiom, rule.plan[0][1], beta, known.pool)
                if theta is not None:
                    _file(axiom, theta, (), groups, max_size, additions)
            for size in sorted(additions):
                found = _matches(rule, beta, {r[2].instantiator[0](*r[3]) for r in additions[size]} - every[3], known)
                if found:
                    first = min(found, key=print_formula)
                    break
        if first is not None:
            subst, cited = found[first]
            known[goal] = ("rule", cited, rule, tuple([subst[v] for v, _ in rule.shape[1]]), subst)
            return _reconstruct(goal, known)
    if bounds.depth < 3:
        return None
    return _round_two(proper, axioms, hyps, derived, known, goal, groups, bounds)


@lru_cache(maxsize=4096)
def _composition(axiom, rule):
    """How the premise of `rule`'s one step matches the instances of
    `axiom`: None when none does, as their heads differ; (None, None) when
    that depends on the images; else (checks, conclusion), compiled
    functions of the axiom's images in `shape` order. They are made when
    `match_formula` matches the premise to the axiom's conclusion, so that
    every instance matches alike: `checks` builds the images of the step's
    check variables, as a tuple in check order, and `conclusion` builds the
    instance of `rule`'s conclusion."""
    premise, c = rule.plan[0][1], axiom.conclusion
    if premise.__class__ is App and c.__class__ is App and premise.ctor is not c.ctor:
        return None
    sigma = match_formula(premise, c)
    if sigma is None:
        return None, None
    variables = [v for v, _ in axiom.shape[1]]
    return (_compile_build(tuple([sigma[v] for _, v, _, _ in rule.plan[0][4]]), variables),
            _compile_build(apply_substitution(sigma, rule.conclusion), variables))


def _round_two(proper, axioms, hyps, derived, known, goal, groups, bounds):
    """The derivation the forward search returns when it adds the goal in
    round 2 or later, found without making round 0; None when no round
    below `depth` adds it. A match is known by its rule, check images and
    conclusion, whatever record its step fact came from, and by its step
    fact too when the step premise has a variable outside its checks and
    its conclusion (a loose rule, as S43's `dia xi1 and dia neg xi1 / bot`).

    Round 1 is made from round 0's records (`known` is round 0's facts).
    Each proper rule's step premise meets each of them: the hypotheses and
    round 0's proper conclusions, which are built, and the axiom records,
    which are not. For an axiom whose conclusion the premise matches, only
    the images of the step's check variables are built (`_composition`),
    and the step's fact and the conclusion only once every check is a
    round-0 fact; the instances of any other axiom, and of every axiom for
    a loose rule, are built and matched.
    A match that cites no fact round 0 added was made in round 0. Round 1's
    facts are the conclusions within `max_size` that round 0 lacks, and
    `_round_one` has found that the goal is none of them.

    Rounds 2 to `depth - 1` are semi-naive, as the search's are: round n's
    matches cite a fact of round n - 1, each check a fact. A step whose
    check is no fact yet waits, kept by the first such check, until a
    round adds it; its step fact is then an older one. Round n's facts are
    its conclusions within `max_size` that no earlier round holds, made
    only up to the goal's size in the last round and before the goal is
    seen. This is the search without the fact cap, which only ever removes
    facts: when no round adds the goal, or a round adds nothing, the
    search does not find it (None). When round n adds it, the pass
    answers with the derivation the rounds return without the cap. Once the
    hypotheses and the facts of rounds 1 to n - 1 number `max_facts`, the
    search has reached the cap by the end of round n - 1 without the goal,
    so the pass answers None before round n; past round 0 it makes no
    more than a round's facts beyond `max_facts`.

    Each fact's record is the first of its matches that the rounds make:
    the least by rule order, then by the step fact's place in the search's
    fact order (hypotheses in order, then each round's facts by size and
    text); only the candidates for the goal's derivation are printed."""
    max_size = bounds.max_size
    steps = [(rule, rule.plan[0][1], [v for _, v, _, _ in rule.plan[0][4]]) for rule in proper]
    loose = [not variables_of(premise) <= variables_of(r.conclusion).union(checks) for r, premise, checks in steps]
    hypset = set(hyps)
    # per axiom, the images of its round-0 records
    instances = [list(itertools.chain(*_images(axiom, {}, groups, max_size).values())) for axiom in axioms]
    seen = [set() for _ in proper]  # per rule, `key` of each match taken
    later: dict = {}  # the facts of rounds 1 and on -> (their round, their matches)
    pending: dict = {}  # a check image that is no fact yet -> the steps whose first such it is
    # A match is (rule index, check images, step fact or None, the axiom
    # and its images when None, else the step premise's substitution, and
    # the conclusion's builder for an axiom's step, else None).

    def conclude(match):
        k, _, _, _, images, build = match
        if build is not None:
            return build(*images)
        rule = steps[k][0]
        return rule.instantiator[0](*[images[v] for v, _ in rule.shape[1]])

    def step(match):
        _, _, f, axiom, images, _ = match
        return f if f is not None else axiom.instantiator[0](*images)

    def waits(match) -> bool:
        """Whether a check of the match is no fact yet; it is then kept by the first such."""
        g = next((g for g in match[1] if g not in later and known[g] is None), None)  # `in` would add a call
        if g is not None:
            pending.setdefault(g, []).append(match)
        return g is not None

    def key(match, c):
        """(check images, conclusion) of a match, and for a loose rule its step fact."""
        return (match[1], c, match[2]) if loose[match[0]] else (match[1], c)

    def take(match, c, into):
        """File a match whose every check is a fact under its conclusion c in
        `into`, unless it was taken before."""
        if (k := key(match, c)) not in seen[match[0]]:
            seen[match[0]].add(k)
            into.setdefault(c, []).append(match)

    ones: dict = {}  # round 1's facts -> their matches
    for k, (rule, premise, checks) in enumerate(steps):
        built = hyps + [f for f in derived if f not in hypset]
        static = []
        for axiom, records in zip(axioms, instances):
            comp = _composition(axiom, rule)
            if comp is None:
                continue
            if comp[0] is None or loose[k]:  # a loose rule's match needs its step fact
                make = axiom.instantiator[0]
                built += [make(*images) for images in records]
            else:
                static.append((axiom, records) + comp)
        scan = [(k, tuple([s[v] for v in checks]), f, None, s, None) for f in built
                if (s := match_formula(premise, f)) is not None]
        scan += [(k, reach(*images), None, axiom, images, build)
                 for axiom, records, reach, build in static for images in records]
        for match in scan:  # `waits` and `take` inlined: round 1 has a match per round-0 record
            for g in match[1]:
                if known[g] is None:
                    pending.setdefault(g, []).append(match)
                    break
            else:
                if hyps and hypset.issuperset(match[1]) and step(match) in hypset:
                    continue  # a match of round 0, citing only hypotheses
                c = conclude(match)
                if c.size <= max_size and (kept := key(match, c)) not in seen[k]:
                    seen[k].add(kept)
                    if known[c] is None:
                        ones.setdefault(c, []).append(match)
    later.update((c, (1, ms)) for c, ms in ones.items())

    fresh, last = ones, bounds.depth - 1
    for n in range(2, bounds.depth):
        if len(hyps) + len(later) >= bounds.max_facts:  # the search stops at the cap by now
            return None
        ready = [m for g in fresh for m in pending.pop(g, ()) if not waits(m)]
        for f in fresh:
            for k, (_, premise, checks) in enumerate(steps):
                s = match_formula(premise, f)
                if s is not None and not waits(m := (k, tuple([s[v] for v in checks]), f, None, s, None)):
                    ready.append(m)
        small, large = [], []  # (match, its conclusion or None if unbuilt): no larger than the goal; larger
        for m in ready:
            c = None
            if m[5] is None:  # sized before it is built
                nodes, counts, _ = steps[m[0]][0].shape
                size = nodes + sum([times * m[4][v].size for v, times in counts])
            else:
                size = (c := conclude(m)).size
            if size <= goal.size:
                small.append((m, c))
            elif size <= max_size and n < last:
                large.append((m, c))
        fresh = {}
        for m, c in small:
            take(m, conclude(m) if c is None else c, fresh)
        if goal in fresh:
            break
        for m, c in large:
            take(m, conclude(m) if c is None else c, fresh)
        fresh = {c: ms for c, ms in fresh.items() if c not in later and known[c] is None}  # the new facts
        if not fresh:
            return None
        later.update((c, (n, ms)) for c, ms in fresh.items())
    else:
        return None

    places = {h: n for n, h in enumerate(hyps)}

    def place(k, f):
        """Where the rounds meet the match of rule k with step fact f."""
        if f in places:
            return k, 0, places[f], ""
        return k, later[f][0] + 1 if f in later else 1, f.size, print_formula(f)

    def first(matches):
        """The record of the match the rounds make first of `matches`."""
        k, f = min([(m[0], step(m)) for m in matches], key=lambda m: place(*m))
        rule, premise, _ = steps[k]
        i, s = rule.plan[0][0], match_formula(premise, f)
        cited = [None] * len(rule.premises)
        cited[i] = f
        for j, v, _, _ in rule.plan[0][4]:
            cited[j] = s[v]
        return "rule", tuple(cited), rule, tuple([s[v] for v, _ in rule.shape[1]]), s

    known[goal] = first(fresh[goal])
    todo = [goal]
    while todo:
        for c in known[todo.pop()][1]:
            if c in later and known.get(c) is None:
                known[c] = first(later[c][1])
                todo.append(c)
    return _reconstruct(goal, known)


def _reconstruct(goal, facts) -> Derivation:
    """The derivation of `goal` from the search's records, each of them
    (kind, the facts it cites in citation order, ...): each fact's line
    comes after the lines of the facts it cites, which come in citation
    order, and each fact has one line. The walk keeps an explicit stack, so
    derivations of any length rebuild."""
    lines: list = []
    index: dict = {}  # fact -> its line number
    todo = [goal]
    while todo:
        f = todo[-1]
        if f in index:
            todo.pop()
            continue
        record = facts[f]
        cited = record[1]
        pending = [c for c in reversed(cited) if c not in index]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        cites = tuple([index[c] for c in cited])
        kind = record[0]
        if kind == "hyp":
            just = Hyp()
        elif kind == "rule":
            _, _, rule, images, subst = record
            witness = dict(subst)
            witness.update(zip([v for v, _ in rule.shape[1]], images))
            just = RuleApp(rule.name, cites, freeze_subst(witness))
        elif kind == "clft":
            just = Clft(cites, record[2])
        elif kind == "fx":
            just = Fx(cites)
        elif kind == "lft":
            just = Lft(cites)
        else:  # pragma: no cover
            raise AssertionError(kind)
        lines.append(Line(f, just))
        index[f] = len(lines)
    return Derivation(tuple(lines))


# ---------------------------------------------------------------------------
# derivation templates

def _check_component_derivation(d, premises_proj, endpoint, what):
    if d.conclusion != endpoint:
        raise BuilderError(f"{what}: endpoint {print_formula(d.conclusion)} differs from {print_formula(endpoint)}")
    for ln in d.lines:
        if isinstance(ln.just, Hyp) and ln.formula not in premises_proj:
            raise BuilderError(f"{what}: hypothesis {print_formula(ln.formula)} is not a projected premise")
        if not isinstance(ln.just, (Hyp, RuleApp)):
            raise BuilderError(f"{what}: component derivations may use only HYP and rule lines")


def _splice(d, k, cs, component_calc, lines, hyp_line_of) -> int:
    """Append the embedded image of a component derivation; returns the endpoint line."""
    rules = {r.name: r for r in component_calc.rules}
    local: dict = {}
    for j, ln in enumerate(d.lines, start=1):
        if isinstance(ln.just, Hyp):
            local[j] = hyp_line_of[ln.formula]
            continue
        rule = rules.get(ln.just.rule)
        if rule is None:
            raise BuilderError(f"component rule {ln.just.rule!r} unknown while splicing")
        name, witness = embed_rule_application(rule, ln.just.subst_dict(), k, cs)
        cites = tuple(local[c] for c in ln.just.cites)
        lines.append(Line(embed(ln.formula, k, cs), RuleApp(name, cites, freeze_subst(witness))))
        local[j] = len(lines)
    return local[len(d.lines)]


def _template_prologue(premises, calc, sides):
    """The start both templates share: a HYP line per premise, then for each
    of `sides` a cLFT line per premise. Returns the combined signature, the
    lines, and per side the line of each projected premise."""
    cs = calc.signature
    if not isinstance(cs, CombinedSignature):
        raise BuilderError("template requires a combined calculus")
    premises = tuple(premises)
    lines = [Line(a, Hyp()) for a in premises]
    hyp_line_of = {}
    projected: dict = {}  # proj_embedded's memo
    for k in sides:
        hyp_line_of[k] = {}
        for i, a in enumerate(premises, start=1):
            lines.append(Line(proj_embedded(a, k, cs, projected), Clft((i,), k)))
            hyp_line_of[k].setdefault(project(a, k), len(lines))
    return cs, lines, hyp_line_of


def build_both_admissible_derivation(premises, conclusion, d1, d2, calc: Calculus, b1, b2) -> Derivation:
    """Both-sides template: hypotheses, cLFT to each side, spliced component
    derivations of the projected conclusion, final LFT.

    d1 derives conclusion|1 from the projected premises in component 1, the
    calculus of bundle b1; d2 symmetrically.
    """
    return _both_sides(premises, conclusion, d1, d2, calc, b1.calculus, b2.calculus)


def _both_sides(premises, conclusion, d1, d2, calc, c1, c2) -> Derivation:
    """The both-sides template over the component calculi c1 and c2."""
    cs, lines, hyp_line_of = _template_prologue(premises, calc, (1, 2))
    sides = ((1, d1, c1), (2, d2, c2))
    for k, d, _ in sides:
        _check_component_derivation(d, hyp_line_of[k], project(conclusion, k), f"component-{k} derivation")
    endpoints = tuple(_splice(d, k, cs, c, lines, hyp_line_of[k]) for k, d, c in sides)
    lines.append(Line(conclusion, Lft(endpoints)))
    return Derivation(tuple(lines))


def build_vacuous_side_derivation(premises, conclusion, falsum_side: int, dfalsum,
                                  dexfalso_same, dexfalso_other, calc: Calculus, b1, b2) -> Derivation:
    """Vacuous-side template: derive the falsum of one component from its projected
    premises, continue to the projected conclusion, propagate falsum with FX,
    continue on the other side, and lift.
    """
    fs = falsum_side
    other = 3 - fs
    cs, lines, hyp_line_of = _template_prologue(premises, calc, (fs,))
    comp = {1: b1.calculus, 2: b2.calculus}
    bot_same = comp[fs].signature.bot
    bot_other = comp[other].signature.bot
    _check_component_derivation(dfalsum, hyp_line_of[fs], bot_same, "falsum derivation")
    _check_component_derivation(dexfalso_same, {bot_same}, project(conclusion, fs), "same-side continuation")
    _check_component_derivation(dexfalso_other, {bot_other}, project(conclusion, other), "other-side continuation")

    falsum_line = _splice(dfalsum, fs, cs, comp[fs], lines, hyp_line_of[fs])
    end_same = _splice(dexfalso_same, fs, cs, comp[fs], lines, {bot_same: falsum_line})
    lines.append(Line(cs.falsum(other), Fx((falsum_line,))))
    end_other = _splice(dexfalso_other, other, cs, comp[other], lines, {bot_other: len(lines)})
    cites = (end_same, end_other) if fs == 1 else (end_other, end_same)
    lines.append(Line(conclusion, Lft(cites)))
    return Derivation(tuple(lines))
