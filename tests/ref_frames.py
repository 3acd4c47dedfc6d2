"""Reference Kripke frame enumeration for the frame tests.

`meetlogic.presets.generate_frames` grows rooted frames a world at a time
and keeps one per isomorphism class. `all_frames` is the enumeration it
replaced: it tries every relation, 2^(n*n) on n worlds, and keeps every
labelled frame that satisfies the constraint, copies and frames that are not
rooted included. `rooted` and `isomorphic` decide their properties by
brute force, independently of the generator.
"""
from __future__ import annotations

import itertools

from meetlogic.presets import KripkeFrame, _frame_checks


def all_frames(constraint: str, max_worlds: int) -> list:
    """Every frame on 1..max_worlds worlds that satisfies the constraint,
    in the order of the relations' bit patterns."""
    checks = _frame_checks(constraint)
    out = []
    for n in range(1, max_worlds + 1):
        worlds = tuple(range(n))
        pairs = list(itertools.product(worlds, repeat=2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            rel = frozenset(p for p, b in zip(pairs, bits) if b)
            if all(fn(worlds, rel) for fn, _ in checks):
                out.append(KripkeFrame(worlds, rel, constraint))
    return out


def rooted(frame: KripkeFrame) -> bool:
    """Whether some world reaches every world in one or more steps, or is it."""
    for r in frame.worlds:
        seen, todo = {r}, [r]
        while todo:
            w = todo.pop()
            for a, b in frame.relation:
                if a == w and b not in seen:
                    seen.add(b)
                    todo.append(b)
        if len(seen) == len(frame.worlds):
            return True
    return False


def isomorphic(f1: KripkeFrame, f2: KripkeFrame) -> bool:
    """Whether a bijection of the worlds maps one relation onto the other."""
    if len(f1.worlds) != len(f2.worlds) or len(f1.relation) != len(f2.relation):
        return False
    for image in itertools.permutations(f2.worlds):
        m = dict(zip(f1.worlds, image))
        if {(m[a], m[b]) for a, b in f1.relation} == f2.relation:
            return True
    return False
