"""Meet-combination of signatures: paired constructors, embeddings, projection, tagging."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .syntax import (
    App,
    Ctor,
    Formula,
    Interned,
    Signature,
    SignatureError,
    Var,
    apply_substitution,
    max_schema_index,
    name_hash,
    verum_family_name,
)


_pairs: dict = {}  # (id(c1), id(c2), tag1, tag2) -> PairCtor; ctors are never freed


class PairCtor(Interned):
    """Combined constructor <c1.tag1|c2.tag2>, interned like every kernel node."""

    __slots__ = ("c1", "c2", "tag1", "tag2", "arity", "display", "_hash")

    def __new__(cls, c1: Ctor, c2: Ctor, tag1: str, tag2: str):
        key = (id(c1), id(c2), tag1, tag2)
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
            init(p, "_hash", hash((c1._hash, c2._hash, name_hash(tag1), name_hash(tag2))))
            p = _pairs.setdefault(key, p)
        return p

    def __reduce__(self):
        return PairCtor, (self.c1, self.c2, self.tag1, self.tag2)

    def __repr__(self):
        return f"PairCtor({self.display})"


@dataclass
class CombinedSignature:
    """Arity-wise Cartesian product of two component signatures.

    When the component tags coincide (self-combination) they are
    disambiguated by appending the side number.
    """

    sig1: Signature
    sig2: Signature
    _resolved: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # for the parser

    def __post_init__(self):
        if self.sig1.tag == self.sig2.tag:
            self.tag1 = f"{self.sig1.tag}1"
            self.tag2 = f"{self.sig2.tag}2"
        else:
            self.tag1, self.tag2 = self.sig1.tag, self.sig2.tag
        self._embedded = {k: {c: self._pad(c, k) for n in self.arities()
                              for c in self.component(k).by_arity[n].values()} for k in (1, 2)}
        # each pair constructor's embedded side constructors, for proj_embedded
        self._sides = {p: (self._embedded[1][p.c1], self._embedded[2][p.c2]) for p in self.all_ctors()}

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

    def resolve(self, name: str, tag: Optional[str], arity: Optional[int] = None) -> PairCtor:
        if tag is None:
            raise SignatureError(
                f"constructor {name!r} over a combined signature needs a component tag or pair form"
            )
        k = self.side_of(tag)
        return self.embed_ctor(self.component(k).resolve(name, None, arity), k)

    def resolve_pair(self, n1, t1, n2, t2, arity=None) -> PairCtor:
        if self.side_of(t1) != 1 or self.side_of(t2) != 2:
            raise SignatureError(f"component tags <{t1}|{t2}> do not match ({self.tag1}, {self.tag2})")
        c1 = self.sig1.resolve(n1, None, arity)
        c2 = self.sig2.resolve(n2, None, c1.arity if arity is None else arity)
        if c1.arity != c2.arity:
            raise SignatureError(f"arity mismatch in <{n1}.{t1}|{n2}.{t2}>")
        return self.pair(c1, c2)


def combine_signatures(s1: Signature, s2: Signature) -> CombinedSignature:
    return CombinedSignature(s1, s2)


def embed(f: Formula, k: int, cs: CombinedSignature) -> Formula:
    """The embedding of a component-k formula, padding with the verum family.

    Nodes are visited without recursion, each shared node once.
    """
    if f.__class__ is Var:
        return f
    image = {}
    todo = [f]
    while todo:
        g = todo[-1]
        if g in image:
            todo.pop()
            continue
        waiting = [a for a in g.args if a.__class__ is App and a not in image]
        if waiting:
            todo.extend(waiting)
            continue
        todo.pop()
        image[g] = App(cs.embed_ctor(g.ctor, k), tuple(a if a.__class__ is Var else image[a] for a in g.args))
    return image[f]


def project(f: Formula, k: int) -> Formula:
    """Replace every combined constructor by its k-th component.

    Both projections are memoised on every node; nodes are visited without
    recursion.
    """
    if f.__class__ is Var:
        return f
    if f._proj is None:
        todo = [f]
        while todo:
            g = todo[-1]
            if g._proj is not None:
                todo.pop()
                continue
            waiting = [a for a in g.args if a.__class__ is App and a._proj is None]
            if waiting:
                todo.extend(waiting)
                continue
            todo.pop()
            args1 = tuple(a if a.__class__ is Var else a._proj[0] for a in g.args)
            args2 = tuple(a if a.__class__ is Var else a._proj[1] for a in g.args)
            object.__setattr__(g, "_proj", (App(g.ctor.c1, args1), App(g.ctor.c2, args2)))
    return f._proj[0] if k == 1 else f._proj[1]


def proj_embedded(f: Formula, k: int, cs: CombinedSignature) -> Formula:
    """Projection read back into the combined language via the embedding.

    The image of c(args) is the embedded k-th component of c applied to the
    images of args, so both sides are built from the children's images and
    memoised on every node for the last `cs` asked; nodes are visited
    without recursion. An image that is the node itself is stored as None: a
    node that referred to itself would form a reference cycle that only the
    cyclic collector frees.
    """
    if f.__class__ is Var:
        return f
    memo = f._pe
    if memo is None or memo[0] is not cs:
        sides = cs._sides
        todo = [f]
        while todo:
            g = todo[-1]
            if g._pe is not None and g._pe[0] is cs:
                todo.pop()
                continue
            args = g.args
            waiting = False
            for a in args:
                if a.__class__ is App and (a._pe is None or a._pe[0] is not cs):
                    todo.append(a)
                    waiting = True
            if waiting:
                continue
            todo.pop()
            pair = sides.get(g.ctor)
            c1, c2 = pair if pair is not None else (cs.embed_ctor(g.ctor.c1, 1), cs.embed_ctor(g.ctor.c2, 2))
            if len(args) == 2:
                a, b = args
                a1, a2 = (a, a) if a.__class__ is Var else (a._pe[1] or a, a._pe[2] or a)
                b1, b2 = (b, b) if b.__class__ is Var else (b._pe[1] or b, b._pe[2] or b)
                args1, args2 = (a1, b1), (a2, b2)
            elif len(args) == 1:
                a = args[0]
                args1, args2 = (args, args) if a.__class__ is Var else ((a._pe[1] or a,), (a._pe[2] or a,))
            else:
                args1 = tuple([a if a.__class__ is Var else a._pe[1] or a for a in args])
                args2 = tuple([a if a.__class__ is Var else a._pe[2] or a for a in args])
            g1, g2 = App(c1, args1), App(c2, args2)
            object.__setattr__(g, "_pe", (cs, None if g1 is g else g1, None if g2 is g else g2))
        memo = f._pe
    g = memo[1] if k == 1 else memo[2]
    return f if g is None else g


def tag_rule(rule, sig) -> tuple:
    """Tag one rule over a signature (or an explicit constructor family).

    A non-liberal rule is kept whole. A liberal rule (conclusion a schema
    variable) yields one rule per constructor c, named `rule#c`: the
    conclusion variable is replaced, everywhere it occurs, by c applied to
    fresh variables starting just past the rule's maximum index.
    """
    from .calculus import Rule

    if not rule.liberal:
        return (rule,)
    j = max_schema_index(rule)
    out = []
    for c in sig.all_ctors() if hasattr(sig, "all_ctors") else sig:
        fresh = App(c, tuple(Var(j + i) for i in range(1, c.arity + 1)))
        rho = {rule.conclusion.index: fresh}
        out.append(Rule(
            name=f"{rule.name}#{c.display}",
            premises=tuple(apply_substitution(rho, p) for p in rule.premises),
            conclusion=fresh,
        ))
    return tuple(out)
