"""Formulas as their own decomposition trees, their equivalence as equality
of unordered shapes, identity-position metadata, pairwise formula completion,
and equalization of a formula pair up to equivalence with matching tree shapes.

Every walk here keeps its own stack, so formulas of any depth are handled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .syntax import App, FALSUM, Formula, VERUM, Var


class TreeError(Exception):
    pass


def decomposition_tree(f: Formula) -> Formula:
    """The decomposition tree of f, which is f itself: its vertices are the
    subformula occurrences and a node's children are its arguments."""
    return f


def trees_equiv(t1: Formula, t2: Formula) -> bool:
    """Mutual embeddability of two decomposition trees.

    An embedding maps t1 onto a pruned rooted subtree of t2, keeping each
    source's outdegree and ignoring child order; a leaf can sit anywhere.
    Two mutual embeddings force equal sizes, so each sends root to root and
    prunes nothing: mutual embeddability is equality of unordered shapes.
    Shapes are numbered bottom-up, once per distinct node of either formula:
    every leaf, variable or constant, has shape 0, and an inner node's shape
    is the number given to the sorted tuple of its arguments' shapes.
    """
    if t1.size != t2.size:
        return False
    numbers = {(): 0}  # sorted tuple of argument shapes -> shape
    shape = {}  # id of a node (nodes are interned) -> shape
    todo = [t1, t2]
    while todo:
        g = todo[-1]
        if id(g) in shape:
            todo.pop()
            continue
        args = () if g.__class__ is Var else g.args
        pending = [a for a in args if id(a) not in shape]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        key = tuple(sorted([shape[id(a)] for a in args]))
        shape[id(g)] = numbers.setdefault(key, len(numbers))
    return shape[id(t1)] == shape[id(t2)]


# ---------------------------------------------------------------------------
# identity positions and completion

@dataclass(frozen=True)
class IdentityProfile:
    """An n-ary constructor with an identity argument position.

    Filling every other position with the recorded nullary fillers leaves the
    identity-position argument equivalent to the whole: c(o.., phi, o..) <=> phi.
    The fillers tuple lists the n-1 filler names in position order.
    """

    ctor: str
    arity: int
    position: int
    fillers: tuple

    def __post_init__(self):
        if not (1 <= self.position <= self.arity):
            raise TreeError(f"identity position {self.position} out of range for arity {self.arity}")
        if len(self.fillers) != self.arity - 1:
            raise TreeError(f"{self.ctor}: expected {self.arity - 1} fillers")

    def filler_at(self, pos: int) -> str:
        """The filler name for a non-identity position."""
        if pos == self.position or not (1 <= pos <= self.arity):
            raise TreeError(f"position {pos} is not a filler position")
        return self.fillers[pos - 1 if pos < self.position else pos - 2]


@dataclass
class CompletionProfile:
    """Inductive tables producing, for a formula psi and a target constant, a
    formula delta with the same decomposition-tree shape as psi such that
    target <=> delta holds in the profile's logic.

    Tables map a head name and target name to the output head and the child
    targets. The builder is purely syntactic: callers certify the recorded
    laws with the logic's theoremhood or matrix check.
    """

    signature: object
    unary: Mapping  # name -> {target name -> (out name, child target)}
    binary: Mapping  # name -> {target name -> (out name, (left target, right target))}

    def constant(self, target: str) -> Formula:
        return App(self.signature.resolve(target, None, 0))


def completion_formula(psi: Formula, target: str, profile: CompletionProfile,
                       root_head: Optional[str] = None) -> Formula:
    """Structural induction over psi; root_head optionally picks a different
    same-arity head's table at the root (tree shape only fixes arities, not
    constructor names).

    Each distinct (node, target) pair is completed once. A node's table is
    checked before its arguments are visited, left to right, so a failure is
    reported at the first failing node in preorder.
    """
    if target not in (VERUM, FALSUM):
        raise TreeError(f"completion target must be {VERUM} or {FALSUM}")
    resolve = profile.signature.resolve
    done = {}  # (id of a node of psi, target) -> completion
    todo = [(psi, target, root_head)]  # the third slot of a finished node holds its plan
    while todo:
        g, tgt, head = todo.pop()
        if head.__class__ is tuple:
            ctor, kids = head
            done[id(g), tgt] = App(ctor, tuple([done[id(a), t] for a, t in zip(g.args, kids)]))
            continue
        if (id(g), tgt) in done:
            continue
        if g.__class__ is Var or g.ctor.arity == 0:
            done[id(g), tgt] = profile.constant(tgt)
            continue
        n = g.ctor.arity
        if n > 2:
            raise TreeError(f"no completion table for arity {n}")
        name = head or g.ctor.name
        table = (profile.unary if n == 1 else profile.binary).get(name)
        if table is None:
            raise TreeError(f"no {'unary' if n == 1 else 'binary'} completion table for {name!r}")
        out, kids = table[tgt]
        if n == 1:
            kids = (kids,)
        todo.append((g, tgt, (resolve(out, None, n), kids)))
        todo.extend((a, t, None) for a, t in zip(reversed(g.args), reversed(kids)))
    return done[id(psi), target]


# ---------------------------------------------------------------------------
# shape transfer and pair equalization

_PREFERRED = {1: ("neg", "box"), 2: ("and", "->", "or")}


def _representative(sig, n: int):
    names = sig.by_arity.get(n, {})
    if not names:
        raise TreeError(f"target signature has no constructor of arity {n}")
    for cand in _PREFERRED.get(n, ()):
        if cand in names:
            return names[cand]
    return names[sorted(names)[0]]


def transliterate_shape(f: Formula, sig_b) -> Formula:
    """Rebuild f over sig_b with a fixed same-arity representative per head;
    the result's decomposition tree has exactly f's shape.

    Each distinct node is rebuilt once, and each arity's representative is
    looked up at the first node in preorder that needs it.
    """
    reps = {}  # arity -> representative constructor of sig_b
    done = {}  # id of a node of f -> its image
    todo = [f]
    while todo:
        g = todo[-1]
        if id(g) in done:
            todo.pop()
            continue
        if g.__class__ is Var:
            done[id(g)] = g
            continue
        n = g.ctor.arity
        if n == 0:
            done[id(g)] = App(sig_b.resolve(VERUM, None, 0))
            continue
        rep = reps.get(n)
        if rep is None:
            rep = reps[n] = _representative(sig_b, n)
        pending = [a for a in reversed(g.args) if id(a) not in done]
        if pending:
            todo.extend(pending)
            continue
        todo.pop()
        done[id(g)] = App(rep, tuple([done[id(a)] for a in g.args]))
    return done[id(f)]


def _wrap(f, shape_delta, profile: IdentityProfile, sig) -> Formula:
    """c(.., f at the identity position, .., delta at the first filler slot, ..)."""
    ctor = sig.resolve(profile.ctor, None, profile.arity)
    args, used_delta = [], False
    for pos in range(1, profile.arity + 1):
        if pos == profile.position:
            args.append(f)
        elif not used_delta:
            args.append(shape_delta)
            used_delta = True
        else:
            args.append(App(sig.resolve(profile.filler_at(pos), None, 0)))
    return App(ctor, tuple(args))


def equalize_pair(f1: Formula, f2: Formula, p1: IdentityProfile, p2: IdentityProfile,
                  sig1, sig2, comp1: CompletionProfile, comp2: CompletionProfile):
    """Return (f1', f2') with f_k <=> f_k' in logic k and matching tree shapes.

    Each side is wrapped in its identity constructor, with the filler slot
    carrying a completion of the filler constant shaped like the other side's
    formula. The identity positions must differ so the two wrapped shapes line
    up under unordered embedding.
    """
    if p1.position == p2.position:
        raise TreeError("profiles must have distinct identity positions")
    shape2 = transliterate_shape(f2, sig1)
    shape1 = transliterate_shape(f1, sig2)
    slot1 = min(p for p in range(1, p1.arity + 1) if p != p1.position)
    slot2 = min(p for p in range(1, p2.arity + 1) if p != p2.position)
    delta1 = completion_formula(shape2, p1.filler_at(slot1), comp1)
    delta2 = completion_formula(shape1, p2.filler_at(slot2), comp2)
    out1 = _wrap(f1, delta1, p1, sig1)
    out2 = _wrap(f2, delta2, p2, sig2)
    return out1, out2
