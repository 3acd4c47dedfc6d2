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

`ref_tokenize` is the tokenizer that the memoised `syntax._tokenize`
replaced, kept unchanged: it reads every token's groups from `_TOKEN`, so
the memoised one must give the same token list, or the same error.
"""
from __future__ import annotations

from meetlogic.syntax import _INFIX, _PREFIX, _TOKEN, App, Formula, Substitution, Var, _lex_check


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


def ref_tokenize(text: str) -> list:
    toks = []
    for punct, var, n1, t1, n2, t2, name, tag, bad in _TOKEN.findall(text):
        if punct:
            toks.append((punct, None, None))
        elif var:
            toks.append(("var", int(var), None))
        elif name:
            toks.append(("name", (name, tag or None), name))
        elif n1:
            same = (n1 in _INFIX) == (n2 in _INFIX) and (n1 in _PREFIX) == (n2 in _PREFIX)
            toks.append(("pair", (n1, t1, n2, t2), n1 if same else None))
        elif bad:  # a character that starts no token
            _lex_check(text)
    if not text.isascii():
        _lex_check(text)
    toks.append(("end", None, None))
    return toks
