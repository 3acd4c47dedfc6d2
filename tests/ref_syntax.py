"""Reference substitution for the differential tests in test_syntax.py and
test_calculus.py.

This is the recursive `apply_substitution` that `meetlogic.syntax` replaced,
kept unchanged: the iterative one and each rule's compiled instantiator must
return the very node it returns. It recurses once per level of the formula
it substitutes into, so it only reads formulas shallower than the recursion
limit; the images it puts in are never walked.
"""
from __future__ import annotations

from meetlogic.syntax import App, Formula, Substitution, Var


def ref_apply_substitution(s: Substitution, f: Formula) -> Formula:
    if f.__class__ is Var:
        return s.get(f.index, f)
    args = f.args
    if len(args) == 2:
        return App(f.ctor, (ref_apply_substitution(s, args[0]), ref_apply_substitution(s, args[1])))
    if len(args) == 1:
        return App(f.ctor, (ref_apply_substitution(s, args[0]),))
    if not args:
        return f
    return App(f.ctor, tuple([ref_apply_substitution(s, a) for a in args]))
