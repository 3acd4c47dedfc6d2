"""Formula kernel: signatures, formulas, substitution, matching, parser and printer.

Schema variables are globally indexed (xi1, xi2, ...). Constructors are
identified by name and arity; signatures are finite per arity with finitely
many inhabited arities. The verum family topn.<n> is a real constructor of
every inhabited arity n >= 1, next to the nullary top and bot.
"""
from __future__ import annotations

import itertools
import re
import threading
import weakref
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


# ---------------------------------------------------------------------------
# hash-consed nodes
#
# Constructors, variables and applications are interned: each value has one
# live object, so equality is identity, and a node hashes by identity too
# (`object.__hash__`, computed in C). Size is computed once, at construction,
# from the children's sizes. Hashes are addresses, so the iteration order of
# a set of nodes differs between processes, and no output may depend on it:
# a set of nodes is only probed, or read out sorted or through its least
# printed text.


class Interned:
    """Base of the immutable interned node types; a copy is the node itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


_init = object.__setattr__


class Record:
    """Base of the immutable value types: plain classes whose constructor,
    equality, hash and repr come from their field lists, and which refuse
    assignment like `Interned` nodes.

    A subclass names its fields in `__slots__` (with "__dict__" where a
    `cached_property` needs one). They are the constructor's parameters, by
    position or keyword, unless the class names fewer in `_fields` and sets
    the others in its own `__init__`; `_defaults` maps parameters to their
    defaults. Equality, hash and repr use the fields named in `_compare`, by
    default all the parameters.
    """

    __slots__ = ()
    _defaults: dict = {}
    __setattr__ = Interned.__setattr__
    __delattr__ = Interned.__delattr__

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} arguments, got {len(args)}")
        for name, value in zip(fields, args):
            _init(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                _init(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _init(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got an unexpected argument {next(iter(kwargs))!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join([f'{f}={getattr(self, f)!r}' for f in self._compare])})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


_ctors: dict = {}  # (name, arity) -> Ctor; constructors are never freed


class Ctor(Interned):
    __slots__ = ("name", "arity", "display")

    def __new__(cls, name: str, arity: int):
        c = _ctors.get((name, arity))
        if c is None:
            c = object.__new__(cls)
            _init(c, "name", name)
            _init(c, "arity", arity)
            _init(c, "display", name)
            c = _ctors.setdefault((name, arity), c)
        return c

    def __reduce__(self):
        return Ctor, (self.name, self.arity)

    def __repr__(self):
        return f"Ctor({self.name!r}, {self.arity})"


_vars: dict = {}  # index -> Var


class Var(Interned):
    """Schema variable xi_<index>."""

    __slots__ = ("index", "size")

    def __new__(cls, index: int):
        v = _vars.get(index)
        if v is None:
            v = object.__new__(cls)
            _init(v, "index", index)
            _init(v, "size", 1)
            v = _vars.setdefault(index, v)
        return v

    def __reduce__(self):
        return Var, (self.index,)

    def __repr__(self):
        return f"xi{self.index}"


# The application table maps the ids of the ctor and the arguments, packed
# into one int at 64 bits each (ids are addresses below 2**64), to a weak
# reference to the node. A live node keeps its ctor and arguments alive, so a
# live entry's ids name exactly those objects. The key holds ids, not the
# objects, since those would keep a dead node's arguments alive until the
# next sweep. An entry whose node has died stays until its key is built
# again or until the next sweep; sweeps run whenever the table has grown by
# a quarter. Entries are only ever added by `setdefault`, and replaced or
# deleted under the lock, so two threads never intern two nodes for one
# value. The lock is reentrant because a collection triggered inside it may
# run finalizers that build formulas.
_apps: dict = {}
_SWEEP_MIN = 1 << 12
_sweep_at = _SWEEP_MIN
_apps_lock = threading.RLock()
_lock, _unlock = _apps_lock.acquire, _apps_lock.release
_new = object.__new__
_weakref = weakref.ref


def _sweep():
    global _sweep_at
    _lock()
    try:
        for key, ref in _apps.copy().items():
            if ref() is None and _apps.get(key) is ref:
                del _apps[key]
        _sweep_at = len(_apps) + max(_SWEEP_MIN, len(_apps) // 4)
    finally:
        _unlock()


class _AppSlots:
    __slots__ = ("ctor", "args", "size", "__weakref__")


class App(_AppSlots, Interned):
    """Constructor application; `size` counts node occurrences. Nothing is
    written on a node once it is built: walks keep their memos themselves.

    A node is filled in as a `_AppSlots`, which has no immutability guard,
    and then given its class: plain stores cost a fraction of
    `object.__setattr__`, and construction is the kernel's hot path.
    """

    __slots__ = ()

    def __new__(cls, ctor, args: tuple = ()):
        n = len(args)
        key = id(ctor)
        if n == 1:
            key = key << 64 | id(args[0])
        elif n == 2:
            key = (key << 64 | id(args[0])) << 64 | id(args[1])
        else:
            for a in args:
                key = key << 64 | id(a)
        dead = _apps.get(key)
        if dead is not None:
            node = dead()
            if node is not None:
                return node
        if n != ctor.arity:
            raise SignatureError(f"{ctor.display} expects {ctor.arity} arguments, got {n}")
        if n == 2:
            size = 1 + args[0].size + args[1].size
        elif n == 1:
            size = 1 + args[0].size
        else:
            size = 1 + sum([a.size for a in args])
        node = _new(_AppSlots)
        node.ctor = ctor
        node.args = args if args.__class__ is tuple else tuple(args)
        node.size = size
        node.__class__ = cls
        ref = _weakref(node)
        if dead is None:
            found = _apps.setdefault(key, ref)
            if found is ref:
                if len(_apps) > _sweep_at:
                    _sweep()
                return node
            other = found()
            if other is not None:
                return other
        _lock()
        try:
            found = _apps.setdefault(key, ref)
            if found is not ref:
                other = found()
                if other is not None:
                    return other
                _apps[key] = ref
        finally:
            _unlock()
        return node

    def __reduce__(self):
        return App, (self.ctor, self.args)

    def __repr__(self):
        return print_formula(self)


Formula = Union[Var, App]
Substitution = dict  # int -> Formula


class Signature(Record):
    """Per-arity constructor sets of one component logic: `tag`, and
    `by_arity`, int -> dict name -> Ctor. `_resolved` is the parser's cache."""

    __slots__ = ("tag", "by_arity", "_resolved")
    _fields = ("tag", "by_arity")

    def __init__(self, tag: str, by_arity: dict):
        nullary = by_arity.get(0, {})
        if VERUM not in nullary or FALSUM not in nullary:
            raise SignatureError(f"signature {tag}: top and bot must be nullary constructors")
        for n, ctors in by_arity.items():
            if n >= 1 and ctors and verum_family_name(n) not in ctors:
                raise SignatureError(f"signature {tag}: missing {verum_family_name(n)} at arity {n}")
        Record.__init__(self, tag, by_arity)
        _init(self, "_resolved", {})

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

    def resolve(self, name: str, tag: Optional[str], arity: int) -> Ctor:
        if tag is not None and tag != self.tag:
            raise SignatureError(f"unknown component tag {tag!r} for signature {self.tag}")
        ctor = self.by_arity.get(arity, {}).get(name)
        if ctor is None:
            raise SignatureError(f"unknown constructor {name!r} of arity {arity} in {self.tag}")
        return ctor

    def resolve_pair(self, n1, t1, n2, t2, arity):
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


def subformulas(f: Formula) -> list:
    """The list of all subformula occurrences, root first, arguments left to
    right: a shared subterm once per occurrence, which is what counts need."""
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        out.append(g)
        if g.__class__ is App:
            todo.extend(g.args[::-1])
    return out


def postorder(f: Formula, done=None) -> list:
    """The distinct `App` nodes of f, each after its arguments, arguments
    left to right; variables are not listed. This is the kernel's one walk
    over the distinct nodes of a formula DAG.

    `done`, when given, is asked once about each distinct application, when
    the walk first reaches it, so parents before children; a node it accepts
    is left out, with everything that lies only below it.

    Frames on an explicit stack hold a node and an iterator over its
    arguments, so f may be of any depth. The visited set is only probed, so
    the order depends only on f.
    """
    if f.__class__ is not App or done is not None and done(f):
        return []
    out = []
    seen = {f}
    stack = [(f, iter(f.args))]
    while stack:
        g, args = stack[-1]
        for a in args:
            if a.__class__ is App and a not in seen:
                seen.add(a)
                if done is None or not done(a):
                    stack.append((a, iter(a.args)))
                    break
        else:
            stack.pop()
            out.append(g)
    return out


def variables_of(f: Formula) -> set:
    if f.__class__ is Var:
        return {f.index}
    return {a.index for g in postorder(f) for a in g.args if a.__class__ is Var}


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
    """The image of f under s, built over `postorder`: one `App` per distinct
    node of f, so formulas of any depth substitute and a shared subterm is
    rebuilt once."""
    if f.__class__ is Var:
        return s.get(f.index, f)
    image = {}  # node of f -> its image
    for g in postorder(f):
        image[g] = App(g.ctor, tuple([s.get(a.index, a) if a.__class__ is Var else image[a] for a in g.args]))
    return image[f]


def match_formula(pattern: Formula, target: Formula, binding: Optional[Substitution] = None) -> Optional[Substitution]:
    """Least extension s of `binding` with apply(s, pattern) == target, or None.

    The target may itself contain schema variables; the pattern is never
    instantiated with the binding first. `binding` is not modified.
    """
    out: Substitution = {} if binding is None else dict(binding)
    todo = [(pattern, target)]
    while todo:
        p, t = todo.pop()
        if p.__class__ is Var:
            bound = out.get(p.index)
            if bound is None:
                out[p.index] = t
            elif bound is not t:
                return None
        elif t.__class__ is Var or p.ctor is not t.ctor:
            return None
        else:
            todo.extend(zip(reversed(p.args), reversed(t.args)))
    return out


# ---------------------------------------------------------------------------
# printer

def print_formula(f: Formula) -> str:
    """The text of f. Text is written once per occurrence, so the walk goes
    over occurrences, not over `postorder`'s distinct nodes."""
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if g.__class__ is str:
            out.append(g)
        elif g.__class__ is Var:
            out.append(f"xi{g.index}")
        elif not g.args:
            out.append(g.ctor.display)
        else:
            out.append(f"{g.ctor.display}(")
            todo.append(")")
            args = g.args
            for a in args[:0:-1]:
                todo.append(a)
                todo.append(", ")
            todo.append(args[0])
    return "".join(out)


# ---------------------------------------------------------------------------
# parser
#
# Grammar (ASCII): variables xi<digits>; nullary constructors bare names;
# application name(arg1, arg2); combined constructors <name1.TAG1|name2.TAG2>;
# component abbreviation name.TAG; infix for ->, and, or, iff and prefix for
# neg, box, dia with a fixed precedence table (prefix binds tightest, ->
# groups to the right); whitespace insignificant outside names.

_INFIX = {"iff": 1, "->": 2, "or": 3, "and": 4}
_RIGHT_ASSOC = {"->"}
_PREFIX = {"neg", "box", "dia"}

# One regular expression reads the tokens. A name is '->', an identifier, or
# the verum family's topn.<digits>, with an optional .TAG or a lone trailing
# dot; a name without a tag that reads xi<digits> is a variable; a combined
# constructor is <name.TAG|name.TAG>, with no space inside. The empty match
# at the end takes trailing whitespace in one step, where a failed match
# would rescan it from every position. The verum suffix is what str.isdigit
# accepts, which outside ASCII includes characters such as '²' that no
# character class can tell from letters; the regex takes both there, and
# `_lex_check` reads them apart. The regex has two forms, built from one
# source in which '(%' opens a group: `_TOKEN`'s groups capture punctuation,
# variable index, pair (n1, t1, n2, t2), name, tag, and a character that
# starts no token; `_SPLIT`'s one group captures each token's text, '' at
# the end.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME = rf"(%->|topn\.[^\W_a-zA-Z]+|{_IDENT})"
_TAG = rf"(?:\.(%{_IDENT})?)?"
_ALTERNATIVES = rf"""
    (%[(),])
  | xi(%[0-9]+)(?![A-Za-z0-9_]|\.[A-Za-z_])\.?
  | <{_NAME}\.(%{_IDENT})\|{_NAME}\.(%{_IDENT})>
  | {_NAME}{_TAG}
  | (%\S)"""
_TOKEN = re.compile(rf"\s*(?:{_ALTERNATIVES.replace('(%', '(')}|\Z)", re.VERBOSE)
_SPLIT = re.compile(rf"\s*(?:({_ALTERNATIVES.replace('(%', '(?:')})|\Z)", re.VERBOSE)
_NAME_TAG = re.compile((_NAME + _TAG).replace("(%", "("))

# Token text -> token, for the texts of at most `_MEMO_LEN` characters seen;
# emptied when it reaches `_MEMO_SIZE` entries (threads that race past the
# test may each add one more).
_MEMO_SIZE = 1 << 12
_MEMO_LEN = 64
_MEMO: dict = {}


def _tokenize(text: str) -> list:
    """Tokens as (kind, value, op) triples. The kinds are 'name' with value
    (name, tag), 'pair' with value (n1, t1, n2, t2), 'var' with the index,
    and '(', ')', ',' and 'end' with None. `op` is the name the infix and
    prefix tables are read by: a name's own, or a pair's first name if its
    two names are both infix, both prefix or both neither, else None.
    Tokens carry no position: an error finds it with `_token_pos`."""
    texts = _SPLIT.findall(text)
    if len(texts) > 1 and not texts[-2]:  # trailing whitespace, then an empty match
        texts.pop()
    try:
        toks = list(map(_MEMO.__getitem__, texts))
    except KeyError:
        toks = _classify(text, texts)
    if not text.isascii():
        _lex_check(text)
    return toks


def _classify(text: str, texts: list) -> list:
    """The tokens of `texts`, the token texts of `text`, classifying and
    keeping those the memo lacks. A token text alone matches `_TOKEN` with
    the groups it had in `text`: the one lookahead, after a variable's
    digits, fails only on characters that then belong to the token. A
    variable index too long for `int` is a ParseError at the index."""
    toks = []
    for k, t in enumerate(texts):
        tok = _MEMO.get(t)
        if tok is None:
            punct, var, n1, t1, n2, t2, name, tag, bad = _TOKEN.match(t).groups()
            if punct:
                tok = (punct, None, None)
            elif var:
                try:
                    tok = ("var", int(var), None)
                except ValueError:
                    raise ParseError(f"variable index of {len(var)} digits is too long",
                                     _token_pos(text, k) + 2) from None
            elif name:
                tok = ("name", (name, tag or None), name)
            elif n1:
                same = (n1 in _INFIX) == (n2 in _INFIX) and (n1 in _PREFIX) == (n2 in _PREFIX)
                tok = ("pair", (n1, t1, n2, t2), n1 if same else None)
            elif bad:
                _lex_check(text)
                continue
            else:
                tok = ("end", None, None)
            if len(t) <= _MEMO_LEN:
                if len(_MEMO) >= _MEMO_SIZE:
                    _MEMO.clear()
                _MEMO[t] = tok
        toks.append(tok)
    return toks


def _lex_check(text: str) -> None:
    """Raise the ParseError of the first token that `_TOKEN` misread: a
    character that starts no token, a malformed combined constructor, or a
    verum suffix with a character that str.isdigit rejects, where the name
    ends. Return if there is none."""
    for m in _TOKEN.finditer(text):
        token = m[0].lstrip()
        if m[9] or not token.isascii():
            i = m.end() - len(token)
            if text[i] != "<":
                j = _name_end(text, i)[0]
                if j < m.end():
                    raise ParseError(f"expected a constructor name, found {text[j]!r}", j)
                continue
            j, tag1 = _name_end(text, i + 1)
            if text[j:j + 1] != "|":
                raise ParseError("expected '|' in combined constructor", j)
            j, tag2 = _name_end(text, j + 1)
            if text[j:j + 1] != ">":
                raise ParseError("expected '>' closing combined constructor", j)
            if not (tag1 and tag2):
                raise ParseError("combined constructor components need .TAG suffixes", i)


def _name_end(text: str, i: int) -> tuple:
    """Where the name at i ends, after its tag or lone dot, and whether it
    has a tag. A verum suffix ends where str.isdigit stops, and a name cut
    short there has no tag."""
    m = _NAME_TAG.match(text, i)
    if m is None:
        raise ParseError(f"expected a constructor name, found {text[i:i + 1]!r}", i)
    digits = m[1][5:]
    if m[1].startswith("topn.") and not digits.isdigit():
        return i + 5 + next(k for k, c in enumerate(digits) if not c.isdigit()), False
    return m.end(), m[2] is not None


def _token_pos(text: str, k: int) -> int:
    """Where token k of `text` starts."""
    m = next(itertools.islice(_TOKEN.finditer(text), k, None), None)
    return len(text) if m is None else m.end() - len(m[0].lstrip())


def _resolve(sig, text: str, toks: list, k: int, arity: int):
    """The constructor that token k names at `arity`, kept in the signature's
    `_resolved` by token value and arity, where the parser looks first; a
    failure is not kept."""
    kind, value, _ = toks[k]
    try:
        ctor = sig.resolve_pair(*value, arity) if kind == "pair" else sig.resolve(*value, arity)
    except SignatureError as exc:
        raise ParseError(str(exc), _token_pos(text, k)) from exc
    sig._resolved[value, arity] = ctor
    return ctor


def parse_formula(text: str, sig) -> Formula:
    """Parse a formula over a component or combined signature.

    One loop over the tokens, without recursion, so input of any depth
    reads. `out` holds finished operands; `pending` holds what waits for
    operands: an open group or application ('(' with the operand count at
    its start and the index of the applied token, None for a group), a
    prefix constructor, or an infix constructor with the least precedence
    its right operand may hold. Prefix and infix constructors are resolved
    when they are read, an application's when its ')' is.
    """
    toks = _tokenize(text)
    memo = sig._resolved
    out: list = []
    pending: list = []
    i = 0
    while True:
        kind, value, op = toks[i]
        i += 1
        if kind == "(":
            pending.append(("(", len(out), None))
            continue
        if kind == "var":
            if toks[i][0] == "(":
                raise ParseError("schema variables are nullary", _token_pos(text, i))
            out.append(Var(value))
        elif kind == "name" or kind == "pair":
            if toks[i][0] == "(":
                pending.append(("(", len(out), i - 1))
                i += 1
                continue
            if op in _PREFIX:
                pending.append(("prefix", memo.get((value, 1)) or _resolve(sig, text, toks, i - 1, 1), 0))
                continue
            out.append(App(memo.get((value, 0)) or _resolve(sig, text, toks, i - 1, 0)))
        else:
            raise ParseError(f"unexpected {kind!r}", _token_pos(text, i - 1))
        # An operand is finished: apply the prefix constructors waiting for
        # it, then read an infix constructor, or a ',' or ')' that closes the
        # innermost group or application, or the end.
        while True:
            while pending and pending[-1][0] == "prefix":
                out[-1] = App(pending.pop()[1], (out[-1],))
            kind, value, op = toks[i]
            i += 1
            prec = _INFIX.get(op, 0)
            while pending and pending[-1][0] == "infix" and prec < pending[-1][2]:
                right = out.pop()
                out[-1] = App(pending.pop()[1], (out[-1], right))
            if prec:
                least = prec if op in _RIGHT_ASSOC else prec + 1
                pending.append(("infix", memo.get((value, 2)) or _resolve(sig, text, toks, i - 1, 2), least))
                break
            if not pending:
                if kind != "end":
                    raise ParseError(f"trailing input starting with {kind!r}", _token_pos(text, i - 1))
                return out[0]
            _, start, head = pending[-1]
            if kind == "," and head is not None:
                break
            if kind != ")":
                raise ParseError(f"expected ')', found {kind!r}", _token_pos(text, i - 1))
            pending.pop()
            if head is not None:
                args = tuple(out[start:])
                del out[start:]
                out.append(App(memo.get((toks[head][1], len(args))) or _resolve(sig, text, toks, head, len(args)),
                               args))
