"""Meet-combination of signatures: paired constructors, embeddings, projection."""
from __future__ import annotations

from typing import Iterator, Optional

from .syntax import (
    App,
    Ctor,
    Formula,
    Interned,
    Record,
    Signature,
    SignatureError,
    Var,
    postorder,
    verum_family_name,
)

_app = App.__new__  # App(ctor, args) without type.__call__, for the walk in proj_embedded


_pairs: dict = {}  # (c1, c2, tag1, tag2) -> PairCtor; ctors are never freed


class PairCtor(Interned):
    """Combined constructor <c1.tag1|c2.tag2>, interned like every kernel node."""

    __slots__ = ("c1", "c2", "tag1", "tag2", "arity", "display")

    def __new__(cls, c1: Ctor, c2: Ctor, tag1: str, tag2: str):
        key = (c1, c2, tag1, tag2)
        p = _pairs.get(key)
        if p is None:
            if c1.arity != c2.arity:
                raise SignatureError(f"arity mismatch in pair {c1.name}/{c2.name}")
            p = object.__new__(cls)
            init = object.__setattr__
            init(p, "c1", c1)
            init(p, "c2", c2)
            init(p, "tag1", tag1)
            init(p, "tag2", tag2)
            init(p, "arity", c1.arity)
            init(p, "display", f"<{c1.name}.{tag1}|{c2.name}.{tag2}>")
            p = _pairs.setdefault(key, p)
        return p

    def __reduce__(self):
        return PairCtor, (self.c1, self.c2, self.tag1, self.tag2)

    def __repr__(self):
        return f"PairCtor({self.display})"


class CombinedSignature(Record):
    """Arity-wise Cartesian product of two component signatures.

    When the component tags coincide (self-combination) they are
    disambiguated by appending the side number. `_resolved` is the parser's
    cache.
    """

    __slots__ = ("sig1", "sig2", "tag1", "tag2", "_resolved", "_embedded", "_sides")
    _fields = ("sig1", "sig2")

    def __init__(self, sig1: Signature, sig2: Signature):
        Record.__init__(self, sig1, sig2)
        init = object.__setattr__
        same = sig1.tag == sig2.tag
        init(self, "tag1", f"{sig1.tag}1" if same else sig1.tag)
        init(self, "tag2", f"{sig2.tag}2" if same else sig2.tag)
        init(self, "_resolved", {})
        init(self, "_embedded", {k: {c: self._pad(c, k) for n in self.arities()
                                     for c in self.component(k).by_arity[n].values()} for k in (1, 2)})
        # for proj_embedded: each pair constructor's two embedded side
        # constructors, and the verum-family pair of its arity
        verum = {n: self.pair(self.sig1.verum_at(n), self.sig2.verum_at(n)) for n in self.arities()}
        init(self, "_sides", {p: (self._embedded[1][p.c1], self._embedded[2][p.c2], verum[p.arity])
                              for p in self.all_ctors()})

    def component(self, k: int) -> Signature:
        return self.sig1 if k == 1 else self.sig2

    def side_of(self, tag: str) -> int:
        if tag == self.tag1:
            return 1
        if tag == self.tag2:
            return 2
        raise SignatureError(f"unknown component tag {tag!r} (expected {self.tag1} or {self.tag2})")

    def pair(self, c1: Ctor, c2: Ctor) -> PairCtor:
        return PairCtor(c1, c2, self.tag1, self.tag2)

    def arities(self) -> list:
        return sorted(set(self.sig1.arities()) & set(self.sig2.arities()))

    def ctors_at(self, n: int) -> Iterator[PairCtor]:
        s1 = self.sig1.by_arity.get(n, {})
        s2 = self.sig2.by_arity.get(n, {})
        for n1 in sorted(s1):
            for n2 in sorted(s2):
                yield self.pair(s1[n1], s2[n2])

    def all_ctors(self) -> Iterator[PairCtor]:
        for n in self.arities():
            yield from self.ctors_at(n)

    def side_ctors(self, k: int) -> Iterator[PairCtor]:
        """The embedded image of component k: pairs <c top^n> resp. <top^n c>."""
        for n in self.arities():
            for c in sorted(self.component(k).by_arity.get(n, {})):
                yield self.embed_ctor(self.component(k).by_arity[n][c], k)

    def embed_ctor(self, c: Ctor, k: int) -> PairCtor:
        pair = self._embedded[k].get(c)
        return self._pad(c, k) if pair is None else pair

    def _pad(self, c: Ctor, k: int) -> PairCtor:
        other = self.component(3 - k)
        pad = other.by_arity[0][verum_family_name(0)] if c.arity == 0 else other.verum_at(c.arity)
        return self.pair(c, pad) if k == 1 else self.pair(pad, c)

    @property
    def top(self) -> Formula:
        return App(self.pair(self.sig1.by_arity[0]["top"], self.sig2.by_arity[0]["top"]))

    @property
    def bot(self) -> Formula:
        return App(self.pair(self.sig1.by_arity[0]["bot"], self.sig2.by_arity[0]["bot"]))

    def falsum(self, k: int) -> Formula:
        """The embedded component falsum: <bot top> or <top bot>."""
        return embed(self.component(k).bot, k, self)

    # parser hooks -----------------------------------------------------------

    def resolve(self, name: str, tag: Optional[str], arity: int) -> PairCtor:
        if tag is None:
            raise SignatureError(
                f"constructor {name!r} over a combined signature needs a component tag or pair form"
            )
        k = self.side_of(tag)
        return self.embed_ctor(self.component(k).resolve(name, None, arity), k)

    def resolve_pair(self, n1, t1, n2, t2, arity: int) -> PairCtor:
        if self.side_of(t1) != 1 or self.side_of(t2) != 2:
            raise SignatureError(f"component tags <{t1}|{t2}> do not match ({self.tag1}, {self.tag2})")
        return self.pair(self.sig1.resolve(n1, None, arity), self.sig2.resolve(n2, None, arity))


def combine_signatures(s1: Signature, s2: Signature) -> CombinedSignature:
    return CombinedSignature(s1, s2)


def embed(f: Formula, k: int, cs: CombinedSignature) -> Formula:
    """The embedding of a component-k formula, padding with the verum family."""
    if f.__class__ is Var:
        return f
    image = {}  # node of f -> its embedding
    for g in postorder(f):
        image[g] = App(cs.embed_ctor(g.ctor, k), tuple([a if a.__class__ is Var else image[a] for a in g.args]))
    return image[f]


def project(f: Formula, k: int) -> Formula:
    """Replace every combined constructor by its k-th component."""
    if f.__class__ is Var:
        return f
    image = {}  # node of f -> its projection
    for g in postorder(f):
        ctor = g.ctor.c1 if k == 1 else g.ctor.c2
        image[g] = App(ctor, tuple([a if a.__class__ is Var else image[a] for a in g.args]))
    return image[f]


def proj_embedded(f: Formula, k: int, cs: CombinedSignature, memo: dict) -> Formula:
    """Projection read back into the combined language via the embedding.

    The image of c(args) is the embedded k-th component of c applied to the
    images of args, so both sides are built from the children's images.
    `memo` maps each node already read to its two images and its verum
    image, its shape over the combined verum family (`<topn.n|topn.n>`,
    `<top|top>` at arity 0); the caller owns it and keeps one per `cs`, for
    a search or a check. A walk also fills it for the three images it
    builds, as side 1's image projects to itself and the verum image, side
    2's symmetrically, and the verum image to itself: so the cLFT closure
    of a fact walks only the fact.

    This is the meet search's per-fact step, so it keeps its own explicit
    stack: on `syntax.postorder`, a pass with an empty memo over the 3,004
    facts of a CPL/G3 meet search took about 45 % longer.
    """
    if f.__class__ is Var:
        return f
    images = memo.get(f)
    if images is None:
        sides = cs._sides
        todo = [f]
        while todo:
            g = todo[-1]
            if g in memo:
                todo.pop()
                continue
            args = g.args
            waiting = False
            for a in args:
                if a.__class__ is App and a not in memo:
                    todo.append(a)
                    waiting = True
            if waiting:
                continue
            todo.pop()
            c1, c2, cv = sides.get(g.ctor) or (cs.embed_ctor(g.ctor.c1, 1), cs.embed_ctor(g.ctor.c2, 2),
                                               cs.embed_ctor(cs.sig1.verum_at(len(args)), 1))
            if len(args) == 2:
                a, b = args
                a1, a2, av = (a, a, a) if a.__class__ is Var else memo[a]
                b1, b2, bv = (b, b, b) if b.__class__ is Var else memo[b]
                g1, g2, v = _app(App, c1, (a1, b1)), _app(App, c2, (a2, b2)), _app(App, cv, (av, bv))
            elif len(args) == 1:
                a = args[0]
                a1, a2, av = (a, a, a) if a.__class__ is Var else memo[a]
                g1, g2, v = _app(App, c1, (a1,)), _app(App, c2, (a2,)), _app(App, cv, (av,))
            else:
                below = [(a, a, a) if a.__class__ is Var else memo[a] for a in args]
                g1, g2, v = [_app(App, c, tuple([x[j] for x in below])) for j, c in enumerate((c1, c2, cv))]
            memo[g] = (g1, g2, v)
            memo.setdefault(g1, (g1, v, v))
            memo.setdefault(g2, (v, g2, v))
            memo.setdefault(v, (v, v, v))
        images = memo[f]
    return images[0] if k == 1 else images[1]
