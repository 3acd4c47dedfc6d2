"""Reference tree tools for the differential tests in test_treetools.py.

These are the recursive decomposition trees, the embedding search and the
recursive completion and transliteration that `meetlogic.treetools`
replaced, kept unchanged: mutual embedding of the trees is what
`trees_equiv` must decide, and the outputs and `TreeError` messages are what
the explicit-stack builders must reproduce. They recurse once per nesting
level, so they only handle shallow input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from meetlogic.syntax import App, FALSUM, Formula, VERUM, Var
from meetlogic.treetools import CompletionProfile, TreeError


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
