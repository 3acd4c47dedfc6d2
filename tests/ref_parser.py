"""Reference parser for the differential test in test_syntax.py.

This is the recursive-descent parser that `meetlogic.syntax.parse_formula`
replaced, kept unchanged: its results and its `ParseError` messages and
positions are what the iterative parser must reproduce. It recurses once
per nesting level, so it only reads shallow input. It keeps its own copy of
the operator tables, so a change to the library's grammar shows up as a
difference. Its name lexer is the library's former one, copied verbatim,
so the reference does not share the lexer under test.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from meetlogic.syntax import App, Formula, ParseError, SignatureError, Var

_INFIX = {"iff": 1, "->": 2, "or": 3, "and": 4}
_RIGHT_ASSOC = {"->"}
_PREFIX = {"neg", "box", "dia"}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")


def _lex_name(text: str, i: int):
    """Lex a constructor name with optional .TAG suffix, starting at i."""
    n = len(text)
    if text.startswith("->", i):
        name, j = "->", i + 2
    elif i < n and text[i] in _IDENT_START:
        j = i
        while j < n and text[j] in _IDENT_CHARS:
            j += 1
        name = text[i:j]
        # absorb a numeric suffix of the verum family: topn.2
        if name == "topn" and j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
            k = j + 1
            while k < n and text[k].isdigit():
                k += 1
            name, j = text[i:k], k
    else:
        raise ParseError(f"expected a constructor name, found {text[i:i+1]!r}", i)
    tag = None
    if j < n and text[j] == ".":
        k = j + 1
        if k < n and text[k] in _IDENT_START:
            m = k
            while m < n and text[m] in _IDENT_CHARS:
                m += 1
            tag, j = text[k:m], m
        else:
            j = k  # lone trailing dot: tolerated, no tag
    return name, tag, j


@dataclass
class _Tok:
    kind: str  # 'name' | 'pair' | 'var' | '(' | ')' | ',' | 'end'
    pos: int
    name: Optional[str] = None
    tag: Optional[str] = None
    pair: Optional[tuple] = None  # (n1, t1, n2, t2)
    index: int = 0


def _tokenize(text: str) -> list:
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            toks.append(_Tok(ch, i))
            i += 1
            continue
        if ch == "<":
            start = i
            n1, t1, i = _lex_name(text, i + 1)
            if i >= n or text[i] != "|":
                raise ParseError("expected '|' in combined constructor", i)
            n2, t2, i = _lex_name(text, i + 1)
            if i >= n or text[i] != ">":
                raise ParseError("expected '>' closing combined constructor", i)
            if t1 is None or t2 is None:
                raise ParseError("combined constructor components need .TAG suffixes", start)
            toks.append(_Tok("pair", start, pair=(n1, t1, n2, t2)))
            i += 1
            continue
        name, tag, j = _lex_name(text, i)
        if tag is None and name.startswith("xi") and name[2:].isdigit():
            toks.append(_Tok("var", i, index=int(name[2:])))
        else:
            toks.append(_Tok("name", i, name=name, tag=tag))
        i = j
    toks.append(_Tok("end", n))
    return toks


class _Parser:
    def __init__(self, toks, sig):
        self.toks = toks
        self.sig = sig
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.kind!r}", t.pos)
        return t

    def resolve(self, tok: _Tok, arity=None):
        try:
            if tok.kind == "pair":
                n1, t1, n2, t2 = tok.pair
                return self.sig.resolve_pair(n1, t1, n2, t2, arity)
            return self.sig.resolve(tok.name, tok.tag, arity)
        except SignatureError as exc:
            raise ParseError(str(exc), tok.pos) from exc

    def _base_names(self, tok: _Tok):
        if tok.kind == "pair":
            return (tok.pair[0], tok.pair[2])
        return (tok.name,)

    def parse(self, min_prec=0) -> Formula:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok.kind not in ("name", "pair"):
                return left
            names = self._base_names(tok)
            if not all(nm in _INFIX for nm in names):
                return left
            prec = _INFIX[names[0]]
            if prec < min_prec:
                return left
            self.next()
            ctor = self.resolve(tok, arity=2)
            nxt = prec if names[0] in _RIGHT_ASSOC else prec + 1
            right = self.parse(nxt)
            left = App(ctor, (left, right))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            f = self.parse(0)
            self.expect(")")
            return f
        if tok.kind == "var":
            self.next()
            if self.peek().kind == "(":
                raise ParseError("schema variables are nullary", self.peek().pos)
            return Var(tok.index)
        if tok.kind in ("name", "pair"):
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = [self.parse(0)]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.parse(0))
                self.expect(")")
                ctor = self.resolve(tok, arity=len(args))
                return App(ctor, tuple(args))
            names = self._base_names(tok)
            if all(nm in _PREFIX for nm in names):
                ctor = self.resolve(tok, arity=1)
                return App(ctor, (self.unary(),))
            ctor = self.resolve(tok, arity=0)
            return App(ctor)
        raise ParseError(f"unexpected {tok.kind!r}", tok.pos)


def ref_parse_formula(text: str, sig) -> Formula:
    """The recursive-descent parse of `text`; deep input raises RecursionError."""
    parser = _Parser(_tokenize(text), sig)
    f = parser.parse(0)
    end = parser.next()
    if end.kind != "end":
        raise ParseError(f"trailing input starting with {end.kind!r}", end.pos)
    return f
