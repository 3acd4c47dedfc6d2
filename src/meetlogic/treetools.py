"""Decomposition trees of formulas, tree embeddings and mutual embeddability,
identity-position metadata, pairwise formula completion, and equalization of a
formula pair up to equivalence with matching tree shapes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .syntax import App, FALSUM, Formula, VERUM, Var


class TreeError(Exception):
    pass


@dataclass(eq=False)
class TreeNode:
    """One subformula occurrence; duplicates elsewhere in the formula stay distinct."""

    formula: Formula
    children: tuple

    @property
    def outdegree(self) -> int:
        return len(self.children)


@dataclass
class DecompTree:
    root: TreeNode

    def vertices(self) -> list:
        out = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(v.children))
        return out

    def edges(self) -> list:
        """(source, target, child position) triples, positions 1-based."""
        out = []
        for v in self.vertices():
            for i, c in enumerate(v.children, start=1):
                out.append((v, c, i))
        return out

    def __len__(self):
        return len(self.vertices())


def decomposition_tree(f: Formula) -> DecompTree:
    def build(g) -> TreeNode:
        if isinstance(g, Var):
            return TreeNode(g, ())
        return TreeNode(g, tuple(build(a) for a in g.args))

    return DecompTree(build(f))


def _rooted_embeds(u: TreeNode, w: TreeNode) -> bool:
    """Whether the subtree at u maps onto the subtree at w.

    Every edge of u's subtree must land on an edge, preserving endpoints and
    the outdegree of sources; a leaf can sit anywhere. Child order need not be
    preserved, so the identity arrangement is tried before a full matching.
    """
    if u.outdegree == 0:
        return True
    if u.outdegree != w.outdegree:
        return False
    if all(_rooted_embeds(a, b) for a, b in zip(u.children, w.children)):
        return True
    return _perfect_matching(u.children, w.children)


def _perfect_matching(us, ws) -> bool:
    n = len(us)
    ok = [[_rooted_embeds(u, w) for w in ws] for u in us]
    assigned = [None] * n

    def augment(i, seen):
        for j in range(n):
            if ok[i][j] and j not in seen:
                seen.add(j)
                if assigned[j] is None or augment(assigned[j], seen):
                    assigned[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(n))


def tree_embeds(t1: DecompTree, t2: DecompTree) -> bool:
    """Whether t1 embeds into t2 (root may land on any vertex of t2)."""
    if len(t1) > len(t2):
        return False
    return any(_rooted_embeds(t1.root, w) for w in t2.vertices())


def trees_equiv(t1: DecompTree, t2: DecompTree) -> bool:
    """Mutual embeddability."""
    return tree_embeds(t1, t2) and tree_embeds(t2, t1)


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
    targets. The verify callable (theoremhood or matrix check) is used by
    callers to certify the recorded laws; the builder itself is purely
    syntactic.
    """

    signature: object
    unary: Mapping  # name -> {target name -> (out name, child target)}
    binary: Mapping  # name -> {target name -> (out name, (left target, right target))}
    verify: Optional[Callable] = None

    def constant(self, target: str) -> Formula:
        return App(self.signature.resolve(target, None, 0))


def completion_formula(psi: Formula, target: str, profile: CompletionProfile,
                       root_head: Optional[str] = None) -> Formula:
    """Structural induction over psi; root_head optionally picks a different
    same-arity head's table at the root (tree shape only fixes arities, not
    constructor names).
    """
    if target not in (VERUM, FALSUM):
        raise TreeError(f"completion target must be {VERUM} or {FALSUM}")
    sig = profile.signature

    def build(f, tgt, override=None) -> Formula:
        if isinstance(f, Var) or f.ctor.arity == 0:
            return profile.constant(tgt)
        name = override or f.ctor.name
        if f.ctor.arity == 1:
            table = profile.unary.get(name)
            if table is None:
                raise TreeError(f"no unary completion table for {name!r}")
            out, child_t = table[tgt]
            return App(sig.resolve(out, None, 1), (build(f.args[0], child_t),))
        if f.ctor.arity == 2:
            table = profile.binary.get(name)
            if table is None:
                raise TreeError(f"no binary completion table for {name!r}")
            out, (lt, rt) = table[tgt]
            return App(sig.resolve(out, None, 2), (build(f.args[0], lt), build(f.args[1], rt)))
        raise TreeError(f"no completion table for arity {f.ctor.arity}")

    return build(psi, target, root_head)


# ---------------------------------------------------------------------------
# shape transfer and pair equalization

def transliterate_shape(f: Formula, sig_b) -> Formula:
    """Rebuild f over sig_b with a fixed same-arity representative per head;
    the result's decomposition tree has exactly f's shape.
    """
    preferred = {1: ("neg", "box"), 2: ("and", "->", "or")}

    def representative(n: int):
        names = sig_b.by_arity.get(n, {})
        if not names:
            raise TreeError(f"target signature has no constructor of arity {n}")
        for cand in preferred.get(n, ()):
            if cand in names:
                return names[cand]
        return names[sorted(names)[0]]

    def walk(g) -> Formula:
        if isinstance(g, Var):
            return g
        if g.ctor.arity == 0:
            return App(sig_b.resolve(VERUM, None, 0))
        return App(representative(g.ctor.arity), tuple(walk(a) for a in g.args))

    return walk(f)


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
