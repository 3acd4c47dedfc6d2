"""Hilbert calculi, line-justified derivations, the derivation checker,
meet-calculus assembly, bounded proof search, and derivation-template builders.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .combination import (
    CombinedSignature,
    embed,
    proj_embedded,
    project,
    tag_rule,
)
from .semantics import check_rule_soundness, entails, product_matrix
from .syntax import (
    App,
    Formula,
    Var,
    apply_substitution,
    match_formula,
    print_formula,
    subformulas,
    variables_of,
    verum_family_name,
)


class BuilderError(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple
    conclusion: Formula

    @property
    def liberal(self) -> bool:
        return isinstance(self.conclusion, Var)

    @cached_property
    def shape(self) -> tuple:
        """(constructor nodes, ((variable index, occurrences), ...), text template
        with the variables' texts as fields, in index order) of the conclusion."""
        nodes = list(subformulas(self.conclusion))
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

    def __repr__(self):
        ps = "; ".join(print_formula(p) for p in self.premises)
        return f"{self.name}: {ps} / {print_formula(self.conclusion)}"


@dataclass(frozen=True)
class Calculus:
    """A named finite rule set over a signature.

    A calculus over a `CombinedSignature` is a meet calculus: it also has the
    schematic LFT/cLFT/FX families, which the checker and the search apply
    to arbitrary formulas.

    `matrices` are the matrices the calculus is meant to be sound in, and a
    meet calculus keeps its two component calculi as `components`. Neither
    takes part in equality; `models` is read from them.
    """

    name: str
    signature: object
    rules: tuple
    matrices: tuple = field(default=(), compare=False, repr=False)
    components: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def models(self) -> tuple:
        """The matrices in which every rule is sound, worked out on first use.

        A component calculus tries its `matrices`. A meet tries the product
        of its components' first models, and only when each factor gives
        every verum-family constructor designated values: LFT and cLFT are
        sound in the product only then, while FX always is, as no factor
        designates `bot`.
        """
        if self.components:
            firsts = [c.models[0] for c in self.components if c.models]
            if len(firsts) < 2 or not all(map(_verum_designated, firsts)):
                return ()
            tried = (product_matrix(*firsts, self.signature),)
        else:
            tried = self.matrices
        return tuple(m for m in tried if all(check_rule_soundness((m,), r) for r in self.rules))

    def rule_named(self, name: str) -> Optional[Rule]:
        for r in self.rules:
            if r.name == name:
                return r
        return None


def _verum_designated(m) -> bool:
    """Whether every verum-family constructor of m's signature takes only
    designated values."""
    flags = m.designated_flags
    return all(flags[x] for c in m.signature.all_ctors() if c.name == verum_family_name(c.arity)
               for x in m.tables[c])


# ---------------------------------------------------------------------------
# derivations

@dataclass(frozen=True)
class Hyp:
    pass


@dataclass(frozen=True)
class RuleApp:
    rule: str
    cites: tuple  # 1-based earlier line indices, one per premise
    subst: tuple  # sorted ((var index, Formula), ...) witness

    def subst_dict(self) -> dict:
        return dict(self.subst)


@dataclass(frozen=True)
class Lft:
    cites: tuple  # (line of phi|1, line of phi|2)


@dataclass(frozen=True)
class Clft:
    cite: int
    side: int


@dataclass(frozen=True)
class Fx:
    cite: int


@dataclass(frozen=True)
class Line:
    formula: Formula
    just: object


@dataclass(frozen=True)
class Derivation:
    lines: tuple

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula

    def __len__(self):
        return len(self.lines)


def freeze_subst(s: dict) -> tuple:
    return tuple(sorted(s.items()))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    line: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def check_derivation(d: Derivation, calc: Calculus, extra: Sequence[Rule] = (),
                     hyps: Iterable[Formula] = ()) -> Verdict:
    """Accept iff every line is justified from hyps and the rules of calc and extra.

    Rejection carries the first failing line and a reason; it is a value,
    not an error.
    """
    hyps = frozenset(hyps)
    rules = {r.name: r for r in list(calc.rules) + list(extra)}
    cs = calc.signature if isinstance(calc.signature, CombinedSignature) else None

    def fail(i, reason):
        return Verdict(False, i, reason)

    for i, line in enumerate(d.lines, start=1):
        just = line.just
        cited = []
        if isinstance(just, RuleApp):
            cited = list(just.cites)
        elif isinstance(just, Lft):
            cited = list(just.cites)
        elif isinstance(just, (Clft, Fx)):
            cited = [just.cite]
        for c in cited:
            if not (1 <= c < i):
                return fail(i, f"cited line {c} is not strictly earlier")

        if isinstance(just, Hyp):
            if line.formula not in hyps:
                return fail(i, "HYP line is not among the hypotheses")
        elif isinstance(just, RuleApp):
            rule = rules.get(just.rule)
            if rule is None:
                return fail(i, f"unknown rule {just.rule!r}")
            if len(just.cites) != len(rule.premises):
                return fail(i, f"rule {rule.name} expects {len(rule.premises)} cited lines")
            s = just.subst_dict()
            for c, prem in zip(just.cites, rule.premises):
                if apply_substitution(s, prem) != d.lines[c - 1].formula:
                    return fail(i, f"cited line {c} is not the matching instance of a premise of {rule.name}")
            if apply_substitution(s, rule.conclusion) != line.formula:
                return fail(i, f"line is not the witnessed instance of the conclusion of {rule.name}")
        elif isinstance(just, Lft):
            if cs is None:
                return fail(i, "LFT is not available in this calculus")
            l1, l2 = just.cites
            if d.lines[l1 - 1].formula != proj_embedded(line.formula, 1, cs):
                return fail(i, "first LFT citation is not the component-1 projection")
            if d.lines[l2 - 1].formula != proj_embedded(line.formula, 2, cs):
                return fail(i, "second LFT citation is not the component-2 projection")
        elif isinstance(just, Clft):
            if cs is None:
                return fail(i, "cLFT is not available in this calculus")
            if just.side not in (1, 2):
                return fail(i, "cLFT side must be 1 or 2")
            src = d.lines[just.cite - 1].formula
            if line.formula != proj_embedded(src, just.side, cs):
                return fail(i, "cLFT line is not the projection of the cited line")
        elif isinstance(just, Fx):
            if cs is None:
                return fail(i, "FX is not available in this calculus")
            src = d.lines[just.cite - 1].formula
            matched = False
            for k in (1, 2):
                if src == cs.falsum(k) and line.formula == cs.falsum(3 - k):
                    matched = True
            if not matched:
                return fail(i, "FX line must take one component falsum to the other")
        else:
            return fail(i, f"unknown justification {type(just).__name__}")
    return Verdict(True)


# ---------------------------------------------------------------------------
# meet-calculus assembly

def _embed_rule(rule: Rule, k: int, cs: CombinedSignature) -> Rule:
    return Rule(f"{rule.name}@{k}", tuple(embed(p, k, cs) for p in rule.premises), embed(rule.conclusion, k, cs))


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

@dataclass(frozen=True)
class SearchBounds:
    """Rounds of rule application (0 answers from the hypotheses alone), the
    largest fact size, the fact cap, and the candidate-pool size."""

    depth: int = 6
    max_size: int = 30
    max_facts: int = 3000
    max_candidates: int = 14

    def __post_init__(self):
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


def _instance_text(rule, subst, texts: dict) -> str:
    """The text of the rule's conclusion under `subst`, made in one step from
    `Rule.shape`'s template and the images' texts, which `texts` keeps."""
    _, counts, template = rule.shape
    images = [subst[v] for v, _ in counts]
    return template.format(*[texts.get(g) or texts.setdefault(g, print_formula(g)) for g in images])


def _bucket_instances(rule, subst, cited, candidates, max_size, buckets):
    """Append `(None, ("rule", rule, substitution, cited))` to `buckets[size]` for each
    instance of the conclusion within `max_size`, sized by `Rule.shape`, not built;
    the variables that `subst` leaves unbound range over `candidates`. When it
    leaves none, the instance keeps `subst` itself."""
    size, counts, _ = rule.shape
    size += sum([n * subst[v].size for v, n in counts if v in subst])
    unbound = [v for v, _ in counts if v not in subst]
    weights = [n for v, n in counts if v not in subst]
    for values in itertools.product(candidates, repeat=len(unbound)):
        total = size + sum([n * f.size for n, f in zip(weights, values)])
        if total <= max_size:
            full = dict(subst) if unbound else subst
            full.update(zip(unbound, values))
            buckets.setdefault(total, []).append((None, ("rule", rule, full, cited)))


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
    """Iterative forward search; a returned derivation always passes the checker.

    None is inconclusive, never a non-derivability claim: the search gave up
    at its bounds, or it never started because no fact could be the goal.
    Exploration order is fixed, so results are deterministic for fixed bounds.

    Two tests return None before round 0, and neither loses a derivation
    the rounds would find. A goal over `max_size` is never added as a fact,
    not even as a hypothesis. Without `extra`, a goal that the hypotheses do
    not entail in one of `calc.models` is not derivable, as every rule is
    sound there. Rules in `extra` (basis rules) are admissible, not
    derivable, and need not be sound in those models, so with `extra` the
    models are not read.

    Rounds are semi-naive: a round makes only the premise matches that cite
    a fact added by the round before. A match of older facts was made in an
    earlier round, which added all its conclusions unless the fact cap
    refused them, and no round starts once the cap is reached.

    A round adds its new conclusions smallest first, and those of one size
    in the order of their printed texts (of equal ones the first made, rules
    before LFT). It stops once the goal is a fact or the fact cap is reached,
    so it builds a size's instances only on reaching it; they meet that size's
    facts of the round's start, as `proj_embedded` and FX keep size.
    """
    hyps = list(dict.fromkeys(hyps))
    if goal.size > bounds.max_size or not extra and _refuted(calc, hyps, goal):
        return None
    rules = list(calc.rules) + list(extra)
    cs = calc.signature if isinstance(calc.signature, CombinedSignature) else None
    candidates = _candidate_pool(calc, hyps, goal, bounds)

    facts: dict = {}
    order: list = []
    texts: dict = {}  # texts of substitution images

    def finished() -> bool:
        return goal in facts or len(facts) >= bounds.max_facts

    def add(f, record) -> bool:
        if f in facts or f.size > bounds.max_size or len(facts) >= bounds.max_facts:
            return False
        facts[f] = record
        order.append(f)
        _close(f)
        return True

    falsa = (cs.falsum(1), cs.falsum(2)) if cs is not None else ()

    def _close(f):
        if cs is None:
            return
        for k in (1, 2):
            add(proj_embedded(f, k, cs), ("clft", f, k))
        for k in (1, 2):
            if f is falsa[k - 1]:
                add(falsa[2 - k], ("fx", f))

    for h in hyps:
        add(h, ("hyp",))

    axioms = [r for r in rules if not r.premises]
    proper = [r for r in rules if r.premises]
    arg_keys = {_arg_key(p) for r in proper for p in r.premises}
    every = (order, {}, {}, facts)  # facts by head constructor and by argument key
    seen = 0  # facts before order[seen] were matched in an earlier round
    for _round in range(bounds.depth):
        if finished():
            break
        fresh = order[seen:]
        seen = len(order)
        new = _index(fresh, arg_keys, every)
        buckets: dict = {}  # size -> (conclusion or None, record), in the order made
        if _round == 0:
            for rule in axioms:
                _bucket_instances(rule, {}, (), candidates, bounds.max_size, buckets)
        for rule in proper:
            for subst, cited in _join(rule, every, new):
                _bucket_instances(rule, subst, cited, candidates, bounds.max_size, buckets)
        if cs is not None:
            for target in [goal] + candidates:
                if target in facts or isinstance(target, Var):
                    continue
                p1 = proj_embedded(target, 1, cs)
                p2 = proj_embedded(target, 2, cs)
                if p1 in facts and p2 in facts:  # so target.size <= bounds.max_size
                    buckets.setdefault(target.size, []).append((target, ("lft", p1, p2)))
        before = len(facts)
        for size in sorted(buckets):
            if finished():
                break
            built: dict = {}  # conclusion -> (its text, record of its first instance)
            for f, record in buckets[size]:
                if f is None:
                    f = apply_substitution(record[2], record[1].conclusion)
                if f not in facts and f not in built:
                    text = print_formula(f) if record[0] == "lft" else _instance_text(record[1], record[2], texts)
                    built[f] = text, record
            for f in sorted(built, key=lambda f: built[f][0]):
                if add(f, built[f][1]) and finished():
                    break
        if goal in facts or len(facts) == before:
            break

    # add and _close refer to each other. Unlinking them frees the facts
    # when the search returns, not at the next cyclic collection, which
    # keeps the intern table from filling with finished searches.
    del add, _close
    if goal not in facts:
        return None
    return _reconstruct(goal, facts)


def _reconstruct(goal, facts) -> Derivation:
    lines: list = []
    index: dict = {}

    def build(f) -> int:
        if f in index:
            return index[f]
        record = facts[f]
        kind = record[0]
        if kind == "hyp":
            just = Hyp()
        elif kind == "rule":
            _, rule, subst, cited = record
            cites = tuple(build(c) for c in cited)
            just = RuleApp(rule.name, cites, freeze_subst(subst))
        elif kind == "clft":
            _, src, side = record
            just = Clft(build(src), side)
        elif kind == "fx":
            just = Fx(build(record[1]))
        elif kind == "lft":
            _, p1, p2 = record
            just = Lft((build(p1), build(p2)))
        else:  # pragma: no cover
            raise AssertionError(kind)
        lines.append(Line(f, just))
        index[f] = len(lines)
        return index[f]

    build(goal)
    del build  # it refers to itself; see bounded_proof_search
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


def _splice(d, k, cs, component_calc, component_extra, lines, hyp_line_of) -> int:
    """Append the embedded image of a component derivation; returns the endpoint line."""
    rules = {r.name: r for r in list(component_calc.rules) + list(component_extra)}
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


def _template_prologue(premises, calc, b1, b2, sides):
    """The start both templates share: a HYP line per premise, then for each
    of `sides` a cLFT line per premise. Returns the combined signature, the
    component calculi of bundles b1 and b2 by side, the lines, and per side
    the line of each projected premise."""
    cs = calc.signature
    if not isinstance(cs, CombinedSignature):
        raise BuilderError("template requires a combined calculus")
    premises = tuple(premises)
    comp = {1: b1.calculus, 2: b2.calculus}
    lines = [Line(a, Hyp()) for a in premises]
    hyp_line_of = {}
    for k in sides:
        hyp_line_of[k] = {}
        for i, a in enumerate(premises, start=1):
            lines.append(Line(proj_embedded(a, k, cs), Clft(i, k)))
            hyp_line_of[k].setdefault(project(a, k), len(lines))
    return cs, comp, lines, hyp_line_of


def build_both_admissible_derivation(premises, conclusion, d1, d2, calc: Calculus,
                                     b1, b2, extra1=(), extra2=()) -> Derivation:
    """Both-sides template: hypotheses, cLFT to each side, spliced component
    derivations of the projected conclusion, final LFT.

    d1 derives conclusion|1 from the projected premises in component 1 (with
    basis rules in extra1 for the basis-mode layout); d2 symmetrically.
    """
    cs, comp, lines, hyp_line_of = _template_prologue(premises, calc, b1, b2, (1, 2))
    sides = ((1, d1, extra1), (2, d2, extra2))
    for k, d, _ in sides:
        _check_component_derivation(d, hyp_line_of[k], project(conclusion, k), f"component-{k} derivation")
    endpoints = tuple(_splice(d, k, cs, comp[k], extra, lines, hyp_line_of[k]) for k, d, extra in sides)
    lines.append(Line(conclusion, Lft(endpoints)))
    return Derivation(tuple(lines))


def build_vacuous_side_derivation(premises, conclusion, falsum_side: int, dfalsum,
                                  dexfalso_same, dexfalso_other, calc: Calculus,
                                  b1, b2, extra_same=(), extra_other=()) -> Derivation:
    """Vacuous-side template: derive the falsum of one component from its projected
    premises, continue to the projected conclusion, propagate falsum with FX,
    continue on the other side, and lift.
    """
    fs = falsum_side
    other = 3 - fs
    cs, comp, lines, hyp_line_of = _template_prologue(premises, calc, b1, b2, (fs,))
    bot_same = comp[fs].signature.bot
    bot_other = comp[other].signature.bot
    _check_component_derivation(dfalsum, hyp_line_of[fs], bot_same, "falsum derivation")
    _check_component_derivation(dexfalso_same, {bot_same}, project(conclusion, fs), "same-side continuation")
    _check_component_derivation(dexfalso_other, {bot_other}, project(conclusion, other), "other-side continuation")

    falsum_line = _splice(dfalsum, fs, cs, comp[fs], extra_same, lines, hyp_line_of[fs])
    end_same = _splice(dexfalso_same, fs, cs, comp[fs], extra_same, lines, {bot_same: falsum_line})
    lines.append(Line(cs.falsum(other), Fx(falsum_line)))
    end_other = _splice(dexfalso_other, other, cs, comp[other], extra_other, lines, {bot_other: len(lines)})
    cites = (end_same, end_other) if fs == 1 else (end_other, end_same)
    lines.append(Line(conclusion, Lft(cites)))
    return Derivation(tuple(lines))
