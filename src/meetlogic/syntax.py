"""Formula kernel: signatures, formulas, substitution, matching, parser and printer.

Schema variables are globally indexed (xi1, xi2, ...). Constructors are
identified by name and arity; signatures are finite per arity with finitely
many inhabited arities. The verum family topn.<n> is a real constructor of
every inhabited arity n >= 1, next to the nullary top and bot.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

VERUM = "top"
FALSUM = "bot"


def verum_family_name(n: int) -> str:
    return VERUM if n == 0 else f"topn.{n}"


class SignatureError(Exception):
    pass


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Ctor:
    name: str
    arity: int

    @property
    def display(self) -> str:
        return self.name


@dataclass(frozen=True)
class Var:
    """Schema variable xi_<index>."""

    index: int

    def __repr__(self):
        return f"xi{self.index}"


@dataclass(frozen=True)
class App:
    ctor: object  # Ctor or combination.PairCtor
    args: tuple = ()

    def __post_init__(self):
        if len(self.args) != self.ctor.arity:
            raise SignatureError(
                f"{self.ctor.display} expects {self.ctor.arity} arguments, got {len(self.args)}"
            )

    def __repr__(self):
        return print_formula(self)


Formula = Union[Var, App]
Substitution = dict  # int -> Formula


@dataclass
class Signature:
    """Per-arity constructor sets of one component logic."""

    tag: str
    by_arity: dict  # int -> dict name -> Ctor

    def __post_init__(self):
        nullary = self.by_arity.get(0, {})
        if VERUM not in nullary or FALSUM not in nullary:
            raise SignatureError(f"signature {self.tag}: top and bot must be nullary constructors")
        for n, ctors in self.by_arity.items():
            if n >= 1 and ctors and verum_family_name(n) not in ctors:
                raise SignatureError(f"signature {self.tag}: missing {verum_family_name(n)} at arity {n}")

    def arities(self) -> list:
        return sorted(n for n, cs in self.by_arity.items() if cs)

    def all_ctors(self) -> Iterator[Ctor]:
        for n in self.arities():
            for name in sorted(self.by_arity[n]):
                yield self.by_arity[n][name]

    def has(self, name: str, arity: int) -> bool:
        return name in self.by_arity.get(arity, {})

    def verum_at(self, n: int) -> Ctor:
        name = verum_family_name(n)
        if not self.has(name, n):
            raise SignatureError(f"signature {self.tag}: no verum-family constructor at arity {n}")
        return self.by_arity[n][name]

    @property
    def top(self) -> Formula:
        return App(self.by_arity[0][VERUM])

    @property
    def bot(self) -> Formula:
        return App(self.by_arity[0][FALSUM])

    def resolve(self, name: str, tag: Optional[str], arity: Optional[int] = None) -> Ctor:
        if tag is not None and tag != self.tag:
            raise SignatureError(f"unknown component tag {tag!r} for signature {self.tag}")
        if arity is not None:
            ctor = self.by_arity.get(arity, {}).get(name)
            if ctor is None:
                raise SignatureError(f"unknown constructor {name!r} of arity {arity} in {self.tag}")
            return ctor
        found = [cs[name] for cs in self.by_arity.values() if name in cs]
        if not found:
            raise SignatureError(f"unknown constructor {name!r} in {self.tag}")
        if len(found) > 1:
            raise SignatureError(f"constructor {name!r} is ambiguous in {self.tag}; give arguments")
        return found[0]

    def resolve_pair(self, n1, t1, n2, t2, arity=None):
        raise SignatureError(f"combined constructor <{n1}.{t1}|{n2}.{t2}> over component signature {self.tag}")


def make_signature(tag: str, ctors: Iterable) -> Signature:
    """Build a signature from (name, arity) pairs, adding top/bot and the verum family."""
    by_arity: dict = {0: {}}
    for name, arity in ctors:
        slot = by_arity.setdefault(arity, {})
        if name in slot:
            raise SignatureError(f"duplicate constructor {name!r} at arity {arity}")
        slot[name] = Ctor(name, arity)
    for name in (VERUM, FALSUM):
        by_arity[0].setdefault(name, Ctor(name, 0))
    for n, slot in by_arity.items():
        if n >= 1 and slot:
            vf = verum_family_name(n)
            slot.setdefault(vf, Ctor(vf, n))
    return Signature(tag, by_arity)


# ---------------------------------------------------------------------------
# structural helpers


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformula occurrences, root first."""
    yield f
    if isinstance(f, App):
        for a in f.args:
            yield from subformulas(a)


def formula_size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


def variables_of(f: Formula) -> set:
    return {g.index for g in subformulas(f) if isinstance(g, Var)}


def max_schema_index(obj) -> int:
    """Maximum schema-variable index in a formula or a rule; 0 when there is none."""
    if isinstance(obj, (Var, App)):
        forms = [obj]
    else:  # a rule-like object
        forms = list(obj.premises) + [obj.conclusion]
    indices = [i for f in forms for i in variables_of(f)]
    return max(indices, default=0)


# ---------------------------------------------------------------------------
# substitution and matching


def apply_substitution(s: Substitution, f: Formula) -> Formula:
    if isinstance(f, Var):
        return s.get(f.index, f)
    if not f.args:
        return f
    return App(f.ctor, tuple(apply_substitution(s, a) for a in f.args))


def compose_substitutions(s2: Substitution, s1: Substitution) -> Substitution:
    """Substitution s with apply(s, f) = apply(s2, apply(s1, f))."""
    out = {k: apply_substitution(s2, v) for k, v in s1.items()}
    for k, v in s2.items():
        out.setdefault(k, v)
    return out


def match_formula(pattern: Formula, target: Formula) -> Optional[Substitution]:
    """Least substitution s with apply(s, pattern) == target, or None."""
    binding: Substitution = {}

    def go(p, t):
        if isinstance(p, Var):
            bound = binding.get(p.index)
            if bound is None:
                binding[p.index] = t
                return True
            return bound == t
        if isinstance(t, Var) or p.ctor != t.ctor:
            return False
        return all(go(pa, ta) for pa, ta in zip(p.args, t.args))

    return binding if go(pattern, target) else None


# ---------------------------------------------------------------------------
# printer

def print_formula(f: Formula) -> str:
    if isinstance(f, Var):
        return f"xi{f.index}"
    if not f.args:
        return f.ctor.display
    return f"{f.ctor.display}({', '.join(print_formula(a) for a in f.args)})"


# ---------------------------------------------------------------------------
# parser
#
# Grammar (ASCII): variables xi<digits>; nullary constructors bare names;
# application name(arg1, arg2); combined constructors <name1.TAG1|name2.TAG2>;
# component abbreviation name.TAG; infix for ->, and, or, iff and prefix for
# neg, box, dia with a fixed precedence table; whitespace insignificant
# outside names.

_INFIX = {"iff": 1, "->": 2, "or": 3, "and": 4}
_RIGHT_ASSOC = {"->"}
_PREFIX = {"neg", "box", "dia"}
_PREFIX_PREC = 9

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")


@dataclass
class _Tok:
    kind: str  # 'name' | 'pair' | 'var' | '(' | ')' | ',' | 'end'
    pos: int
    name: Optional[str] = None
    tag: Optional[str] = None
    pair: Optional[tuple] = None  # (n1, t1, n2, t2)
    index: int = 0


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


def parse_formula(text: str, sig) -> Formula:
    """Parse a formula over a component or combined signature."""
    parser = _Parser(_tokenize(text), sig)
    f = parser.parse(0)
    end = parser.next()
    if end.kind != "end":
        raise ParseError(f"trailing input starting with {end.kind!r}", end.pos)
    return f
