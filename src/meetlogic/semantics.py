"""Finite matrix semantics: evaluation, designation, entailment, products, rule soundness."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .combination import CombinedSignature
from .syntax import App, Formula, Var


class SemanticsError(Exception):
    pass


@dataclass(frozen=True)
class Matrix:
    """Finite algebra with a nonempty designated subset.

    `carrier` lists the elements (labels); position i is index i. `tables`
    maps every constructor of the signature to its operation over carrier
    indices, as a flat row-major list (the layout of matrix files).
    `designated` is a set of labels. The constructor checks all of this;
    `index` (label -> position) and `designated_flags` (per position) are
    derived from it. A product keeps its two `factors` (see `product_matrix`),
    through which `holds` and `entails` evaluate it.
    """

    name: str
    signature: object  # Signature or CombinedSignature
    carrier: tuple
    designated: frozenset
    tables: Mapping  # ctor -> list of carrier indices, n^arity long
    factors: tuple = field(default=(), repr=False, compare=False)
    index: dict = field(init=False, repr=False, compare=False)
    designated_flags: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.carrier)
        index = {v: i for i, v in enumerate(self.carrier)}
        if not self.designated:
            raise SemanticsError(f"matrix {self.name}: empty designated set")
        for v in self.designated:
            if v not in index:
                raise SemanticsError(f"matrix {self.name}: designated value {v!r} is not in the carrier")
        ctors = set(self.signature.all_ctors())
        missing = sorted(c.display for c in ctors.difference(self.tables))
        if missing:
            raise SemanticsError(f"matrix {self.name}: no operation for {missing[0]}")
        extra = sorted(c.display for c in set(self.tables).difference(ctors))
        if extra:
            raise SemanticsError(f"matrix {self.name}: op {extra[0]} is not in the signature")
        for ctor, t in self.tables.items():
            if len(t) != n ** ctor.arity:
                raise SemanticsError(
                    f"matrix {self.name}: op {ctor.display}: expected {n ** ctor.arity} values, got {len(t)}")
            bad = [v for v in (min(t), max(t)) if not 0 <= v < n]
            if bad:
                raise SemanticsError(
                    f"matrix {self.name}: op {ctor.display} yields {bad[0]}, outside the carrier 0..{n - 1}")
        flags = tuple(v in self.designated for v in self.carrier)
        if not flags[self.tables[self.signature.top.ctor][0]]:
            raise SemanticsError(f"matrix {self.name}: top must be designated")
        if flags[self.tables[self.signature.bot.ctor][0]]:
            raise SemanticsError(f"matrix {self.name}: bot must not be designated")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "designated_flags", flags)


def _table(m: Matrix, ctor) -> list:
    try:
        return m.tables[ctor]
    except KeyError:
        raise SemanticsError(f"matrix {m.name}: no operation for {ctor.display}") from None


# Column-wise evaluation. The assignments of carrier elements to k variables
# (sorted by index) are numbered 0..n^k-1 in `itertools.product` order; a
# column holds one carrier index per assignment. Formulas are walked with an
# explicit stack, so deep formulas do not hit the recursion limit.

def _postorder(f: Formula) -> list:
    """The node occurrences of f, arguments before their parent."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        out.append(g)
        if isinstance(g, App):
            todo.extend(g.args)
    out.reverse()
    return out


def _variable_columns(n: int, variables) -> dict:
    k = len(variables)
    return {v: [i for i in range(n) for _ in range(n ** (k - 1 - j))] * n ** j
            for j, v in enumerate(variables)}


def _column(m: Matrix, nodes: list, env: dict, size: int) -> list:
    """Column of the formula whose postorder is `nodes`; `env` maps each
    variable to its column, all of length `size`."""
    n = len(m.carrier)
    tables = m.tables
    stack = []
    for g in nodes:
        if g.__class__ is Var:
            stack.append(env[g.index])
            continue
        t = tables.get(g.ctor) or _table(m, g.ctor)
        arity = len(g.args)
        if arity == 0:
            stack.append([t[0]] * size)
        elif arity == 1:
            stack.append([t[x] for x in stack.pop()])
        elif arity == 2:
            y = stack.pop()
            stack.append([t[a * n + b] for a, b in zip(stack.pop(), y)])
        else:
            cols = stack[-arity:]
            del stack[-arity:]
            idx = cols[0]
            for c in cols[1:]:
                idx = [a * n + b for a, b in zip(idx, c)]
            stack.append([t[i] for i in idx])
    return stack.pop()


def _variables(node_lists) -> list:
    return sorted({g.index for nodes in node_lists for g in nodes if isinstance(g, Var)})


def _entails_in(m: Matrix, hyps: list, goal: list, variables: list) -> tuple:
    """`entails` in one matrix, for formulas given as postorders, as the pair
    (some assignment designates every hypothesis, the goal is designated
    wherever they all are). Each hypothesis is evaluated on the assignments
    that designate the ones before it; the goal only on those that designate
    them all."""
    flags = m.designated_flags
    size = len(m.carrier) ** len(variables)
    env = _variable_columns(len(m.carrier), variables)
    for nodes in hyps:
        kept = [a for a, x in enumerate(_column(m, nodes, env, size)) if flags[x]]
        if not kept:
            return False, True
        if len(kept) < size:
            size = len(kept)
            env = {v: [col[a] for a in kept] for v, col in env.items()}
    return True, all(map(flags.__getitem__, _column(m, goal, env, size)))


def _entails(m: Matrix, hyps: list, goal: list, variables: list) -> bool:
    """`_entails_in`'s answer; a product is answered from its factors.

    A product assignment is a pair of factor assignments, and it designates
    a formula iff both do. So when some factor never designates all the
    hypotheses, neither does the product, and it entails vacuously;
    otherwise it entails iff both factors do.
    """
    if not m.factors:
        return _entails_in(m, hyps, goal, variables)[1]
    (sat1, ok1), (sat2, ok2) = (_entails_in(f, hyps, goal, variables) for f in m.factors)
    return not (sat1 and sat2) or (ok1 and ok2)


def holds(m: Matrix, f: Formula) -> bool:
    """True iff f denotes a designated value under every assignment."""
    nodes = _postorder(f)
    return _entails(m, [], nodes, _variables([nodes]))


def entails(matrices: Iterable[Matrix], gamma: Iterable[Formula], f: Formula) -> bool:
    """True iff, in every matrix, every assignment designating all of gamma
    designates f."""
    hyps = [_postorder(g) for g in gamma]
    goal = _postorder(f)
    variables = _variables(hyps + [goal])
    return all(_entails(m, hyps, goal, variables) for m in matrices)


@dataclass(frozen=True)
class MatrixTheorem:
    """Theoremhood in a characteristic matrix: a formula is a theorem iff it
    holds there.

    For the substitution sweep of `brute_force_admissible`, the key of a
    closed formula is the carrier index of its value, and an instance of a
    pattern is a theorem iff the pattern's value at those indices is
    designated.
    """

    matrix: Matrix

    def __call__(self, f: Formula) -> bool:
        return holds(self.matrix, f)

    def key(self, closed: Formula) -> int:
        return _column(self.matrix, _postorder(closed), {}, 1)[0]

    def instances(self, pattern: Formula):
        m, nodes = self.matrix, _postorder(pattern)
        flags = m.designated_flags
        return lambda keys: flags[_column(m, nodes, {v: [i] for v, i in keys.items()}, 1)[0]]


def product_matrix(m1: Matrix, m2: Matrix, cs: CombinedSignature) -> Matrix:
    """Componentwise product over the combined signature. The pair (a, b) of
    component indices is product index a * n2 + b.

    The product also keeps its factors: each component matrix read over
    `cs` through its projection, with the component's carrier and
    designated set and, for each pair constructor, the component's own table
    of that side (the same list, not a copy). They carry the product's name,
    so an error found in a factor names the product.
    """
    n1, n2 = len(m1.carrier), len(m2.carrier)
    # per arity: the component indices of every product argument tuple, in
    # row-major order over the product carrier
    rows = {0: ([0], [0])}
    for k in range(1, max(cs.arities()) + 1):
        i1, i2 = rows[k - 1]
        rows[k] = ([a * n1 + i for a in i1 for i in range(n1) for _ in range(n2)],
                   [b * n2 + j for b in i2 for _ in range(n1) for j in range(n2)])
    tables = {}
    for ctor in cs.all_ctors():
        t1, t2 = _table(m1, ctor.c1), _table(m2, ctor.c2)
        i1, i2 = rows[ctor.arity]
        tables[ctor] = [t1[a] * n2 + t2[b] for a, b in zip(i1, i2)]
    name = f"{m1.name}x{m2.name}"
    factors = (Matrix(name, cs, m1.carrier, m1.designated, {c: m1.tables[c.c1] for c in tables}),
               Matrix(name, cs, m2.carrier, m2.designated, {c: m2.tables[c.c2] for c in tables}))
    carrier = tuple(itertools.product(m1.carrier, m2.carrier))
    designated = frozenset(itertools.product(m1.designated, m2.designated))
    return Matrix(name, cs, carrier, designated, tables, factors)


def check_rule_soundness(matrices: Iterable[Matrix], rule) -> bool:
    """True iff the rule's premises entail its conclusion over the matrices."""
    return entails(matrices, rule.premises, rule.conclusion)
