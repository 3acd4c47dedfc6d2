"""Finite matrix semantics: evaluation, designation, entailment, products, rule soundness."""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .combination import CombinedSignature
from .syntax import Formula, Record, Var, subformulas


class SemanticsError(Exception):
    pass


class Matrix(Record):
    """Finite algebra with a nonempty designated subset.

    `signature` is a Signature or CombinedSignature. `carrier` lists the
    elements (labels); position i is index i. `tables` maps every
    constructor of the signature to its operation over carrier indices, as a
    flat row-major list, n^arity long (the layout of matrix files).
    `designated` is a frozenset of labels. The constructor checks all of
    this; `index` (label -> position) and `designated_flags` (per position)
    are derived from it. A product keeps its two `factors` (see
    `product_matrix`), through which `holds` and `entails` evaluate it.
    """

    __slots__ = ("name", "signature", "carrier", "designated", "tables", "factors", "index", "designated_flags")
    _fields = ("name", "signature", "carrier", "designated", "tables", "factors")
    _compare = _fields[:5]

    def __init__(self, name: str, signature, carrier: tuple, designated: frozenset, tables: Mapping,
                 factors: tuple = ()):
        n = len(carrier)
        index = {v: i for i, v in enumerate(carrier)}
        if not designated:
            raise SemanticsError(f"matrix {name}: empty designated set")
        for v in designated:
            if v not in index:
                raise SemanticsError(f"matrix {name}: designated value {v!r} is not in the carrier")
        ctors = set(signature.all_ctors())
        missing = sorted(c.display for c in ctors.difference(tables))
        if missing:
            raise SemanticsError(f"matrix {name}: no operation for {missing[0]}")
        extra = sorted(c.display for c in set(tables).difference(ctors))
        if extra:
            raise SemanticsError(f"matrix {name}: op {extra[0]} is not in the signature")
        for ctor, t in tables.items():
            if len(t) != n ** ctor.arity:
                raise SemanticsError(
                    f"matrix {name}: op {ctor.display}: expected {n ** ctor.arity} values, got {len(t)}")
            bad = [v for v in (min(t), max(t)) if not 0 <= v < n]
            if bad:
                raise SemanticsError(
                    f"matrix {name}: op {ctor.display} yields {bad[0]}, outside the carrier 0..{n - 1}")
        flags = tuple(v in designated for v in carrier)
        if not flags[tables[signature.top.ctor][0]]:
            raise SemanticsError(f"matrix {name}: top must be designated")
        if flags[tables[signature.bot.ctor][0]]:
            raise SemanticsError(f"matrix {name}: bot must not be designated")
        Record.__init__(self, name, signature, carrier, designated, tables, factors)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "designated_flags", flags)


def _table(m: Matrix, ctor) -> list:
    try:
        return m.tables[ctor]
    except KeyError:
        raise SemanticsError(f"matrix {m.name}: no operation for {ctor.display}") from None


# Column-wise evaluation. The assignments of carrier elements to k variables
# (sorted by index) are numbered 0..n^k-1 in `itertools.product` order; a
# column holds one carrier index per assignment. A formula is given as the
# list of its node occurrences, `syntax.subformulas` order, and `_column`
# runs it backwards as a stack machine, so deep formulas do not hit the
# recursion limit, and each column, n^k values long, is freed once its
# parent has used it; a table over `syntax.postorder`'s distinct nodes would
# keep every column alive to the end.


def _variable_columns(n: int, variables) -> dict:
    k = len(variables)
    return {v: [i for i in range(n) for _ in range(n ** (k - 1 - j))] * n ** j
            for j, v in enumerate(variables)}


def _column(m: Matrix, nodes: list, env: dict, size: int) -> list:
    """Column of the formula whose occurrences are `nodes`; `env` maps each
    variable to its column, all of length `size`. Run backwards, the
    occurrences come right argument first, so a parent pops its first
    argument's column first."""
    n = len(m.carrier)
    tables = m.tables
    stack = []
    for g in reversed(nodes):
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
            x = stack.pop()
            stack.append([t[a * n + b] for a, b in zip(x, stack.pop())])
        else:
            cols = stack[-arity:]
            del stack[-arity:]
            cols.reverse()
            idx = cols[0]
            for c in cols[1:]:
                idx = [a * n + b for a, b in zip(idx, c)]
            stack.append([t[i] for i in idx])
    return stack.pop()


def _variables(node_lists) -> list:
    return sorted({g.index for nodes in node_lists for g in nodes if isinstance(g, Var)})


def _entails_in(m: Matrix, hyps: list, goal: list, variables: list) -> tuple:
    """`entails` in one matrix, for formulas given as occurrence lists, as
    the pair (some assignment designates every hypothesis, the goal is
    designated wherever they all are). Each hypothesis is evaluated on the assignments
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
    nodes = subformulas(f)
    return _entails(m, [], nodes, _variables([nodes]))


def entails(matrices: Iterable[Matrix], gamma: Iterable[Formula], f: Formula) -> bool:
    """True iff, in every matrix, every assignment designating all of gamma
    designates f."""
    hyps = [subformulas(g) for g in gamma]
    goal = subformulas(f)
    variables = _variables(hyps + [goal])
    return all(_entails(m, hyps, goal, variables) for m in matrices)


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
