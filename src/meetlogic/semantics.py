"""Finite matrix semantics: evaluation, designation, entailment, products, rule soundness."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .combination import CombinedSignature, PairCtor
from .syntax import App, FALSUM, Formula, VERUM, Var


class SemanticsError(Exception):
    pass


@dataclass
class Matrix:
    """Finite algebra with a nonempty designated subset.

    Operations map argument tuples of carrier elements to a carrier element;
    they are stored as callables taking one tuple argument.

    `holds` and `entails` evaluate on an integer form of the matrix, built on
    first use and cached on it: `index`, `designated_flags` and one `table`
    per constructor. A matrix must not be mutated after its first evaluation.
    """

    name: str
    signature: object  # Signature or CombinedSignature
    carrier: tuple
    designated: frozenset
    ops: Mapping  # ctor -> Callable[[tuple], element]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.designated:
            raise SemanticsError(f"matrix {self.name}: empty designated set")
        top = self.constant(VERUM)
        bot = self.constant(FALSUM)
        if top not in self.designated:
            raise SemanticsError(f"matrix {self.name}: top must be designated")
        if bot in self.designated:
            raise SemanticsError(f"matrix {self.name}: bot must not be designated")

    def constant(self, name: str):
        for ctor, op in self.ops.items():
            if ctor.arity == 0 and getattr(ctor, "name", None) == name:
                return op(())
        # combined matrices: the pairing of the two constants
        for ctor, op in self.ops.items():
            if ctor.arity == 0 and isinstance(ctor, PairCtor):
                if ctor.c1.name == name and ctor.c2.name == name:
                    return op(())
        raise SemanticsError(f"matrix {self.name}: no nullary constructor {name}")

    def op(self, ctor) -> Callable:
        try:
            return self.ops[ctor]
        except KeyError:
            raise SemanticsError(f"matrix {self.name}: no operation for {ctor.display}") from None

    @cached_property
    def index(self) -> dict:
        """Carrier element -> its position in `carrier`."""
        return {v: i for i, v in enumerate(self.carrier)}

    @cached_property
    def designated_flags(self) -> list:
        """Per carrier index: whether that element is designated."""
        return [v in self.designated for v in self.carrier]

    def table(self, ctor) -> list:
        """The operation of `ctor` over carrier indices, as a flat row-major
        list (the layout of matrix files); tabulated on first use."""
        t = self._tables.get(ctor)
        if t is None:
            op, index = self.op(ctor), self.index
            try:
                t = [index[op(args)] for args in itertools.product(self.carrier, repeat=ctor.arity)]
            except KeyError:
                raise SemanticsError(
                    f"matrix {self.name}: {ctor.display} yields a value outside the carrier") from None
            self._tables[ctor] = t
        return t


def eval_formula(m: Matrix, assignment: Mapping, f: Formula):
    """Homomorphic evaluation; the assignment must cover the formula's variables."""
    if isinstance(f, Var):
        try:
            return assignment[f.index]
        except KeyError:
            raise SemanticsError(f"no binding for xi{f.index}") from None
    return m.op(f.ctor)(tuple(eval_formula(m, assignment, a) for a in f.args))


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
    stack = []
    for g in nodes:
        if isinstance(g, Var):
            stack.append(env[g.index])
            continue
        t = m.table(g.ctor)
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


def _entails_in(m: Matrix, hyps: list, goal: list, variables: list) -> bool:
    """`entails` in one matrix, for formulas given as postorders. Each
    hypothesis is evaluated on the assignments that designate the ones before
    it; the goal only on those that designate them all."""
    flags = m.designated_flags
    size = len(m.carrier) ** len(variables)
    env = _variable_columns(len(m.carrier), variables)
    for nodes in hyps:
        kept = [a for a, x in enumerate(_column(m, nodes, env, size)) if flags[x]]
        if not kept:
            return True
        if len(kept) < size:
            size = len(kept)
            env = {v: [col[a] for a in kept] for v, col in env.items()}
    return all(map(flags.__getitem__, _column(m, goal, env, size)))


def holds(m: Matrix, f: Formula) -> bool:
    """True iff f denotes a designated value under every assignment."""
    nodes = _postorder(f)
    return _entails_in(m, [], nodes, _variables([nodes]))


def entails(matrices: Iterable[Matrix], gamma: Iterable[Formula], f: Formula) -> bool:
    """True iff, in every matrix, every assignment designating all of gamma
    designates f."""
    hyps = [_postorder(g) for g in gamma]
    goal = _postorder(f)
    variables = _variables(hyps + [goal])
    return all(_entails_in(m, hyps, goal, variables) for m in matrices)


def product_matrix(m1: Matrix, m2: Matrix, cs: CombinedSignature) -> Matrix:
    """Componentwise product over the combined signature."""
    ops = {}
    for ctor in cs.all_ctors():
        op1 = m1.op(ctor.c1)
        op2 = m2.op(ctor.c2)
        ops[ctor] = (lambda o1, o2: (
            lambda args: (o1(tuple(a[0] for a in args)), o2(tuple(a[1] for a in args)))
        ))(op1, op2)
    carrier = tuple(itertools.product(m1.carrier, m2.carrier))
    designated = frozenset(itertools.product(m1.designated, m2.designated))
    return Matrix(f"{m1.name}x{m2.name}", cs, carrier, designated, ops)


def project_assignment(assignment: Mapping, k: int) -> dict:
    """Componentwise projection of a pair-valued assignment."""
    return {v: pair[k - 1] for v, pair in assignment.items()}


def check_rule_soundness(matrices: Iterable[Matrix], rule) -> bool:
    """True iff the rule's premises entail its conclusion over the matrices."""
    return entails(matrices, rule.premises, rule.conclusion)
