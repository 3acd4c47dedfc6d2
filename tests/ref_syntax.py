"""Reference walks for the differential tests in test_syntax.py and
test_calculus.py.

`ref_apply_substitution` is the recursive `apply_substitution` that
`meetlogic.syntax` replaced, kept unchanged: the iterative one and each
rule's compiled instantiator must return the very node it returns. It
recurses once per level of the formula it substitutes into, so it only reads
formulas shallower than the recursion limit; the images it puts in are never
walked.

`ref_postorder` is the recursive statement of `syntax.postorder`'s contract,
with the same recursion depth limit.
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


def ref_postorder(f: Formula, done=None) -> list:
    """The distinct applications of f, each after its arguments, arguments
    left to right. `done` is asked about each distinct application when the
    walk first reaches it; an accepted node is left out, and its arguments
    are not walked from it."""
    out: list = []
    seen: set = set()

    def walk(g):
        if g.__class__ is not App or id(g) in seen:
            return
        seen.add(id(g))
        if done is not None and done(g):
            return
        for a in g.args:
            walk(a)
        out.append(g)

    walk(f)
    return out
