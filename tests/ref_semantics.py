"""Reference pointwise evaluator for the semantics tests.

`holds` and `entails` in `meetlogic.semantics` evaluate a formula column by
column over all assignments at once; these are the per-assignment
evaluator and the componentwise projection of a pair-valued assignment,
against which the column-wise code and the product evaluation law are
checked. `eval_formula` recurses once per nesting level, so it only reads
shallow input.
"""
from __future__ import annotations

from typing import Mapping

from meetlogic.semantics import Matrix, SemanticsError, _table
from meetlogic.syntax import Formula, Var


def eval_formula(m: Matrix, assignment: Mapping, f: Formula):
    """Homomorphic evaluation; the assignment must cover the formula's variables."""
    if isinstance(f, Var):
        try:
            return assignment[f.index]
        except KeyError:
            raise SemanticsError(f"no binding for xi{f.index}") from None
    t = _table(m, f.ctor)
    i = 0
    for a in f.args:
        v = eval_formula(m, assignment, a)
        try:
            i = i * len(m.carrier) + m.index[v]
        except KeyError:
            raise SemanticsError(f"matrix {m.name}: {v!r} is not in the carrier") from None
    return m.carrier[t[i]]


def project_assignment(assignment: Mapping, k: int) -> dict:
    """Componentwise projection of a pair-valued assignment."""
    return {v: pair[k - 1] for v, pair in assignment.items()}
