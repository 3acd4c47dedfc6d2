"""Independent reference semantics for Goedel chains and their products.

A chain of size n has carrier 0..n-1, top n-1 designated, min/max for
and/or, and a -> b = top if a <= b else b (CPL is the 2-chain, G3 the
3-chain, the IPL matrices the 2- to 5-chains). A formula is evaluated as a
column over every assignment at once, iteratively, so deep formulas are fine.
A product of two chains is reduced to its components: a formula holds on it
iff both projections hold, and entailment holds iff one side has no assignment
designating every hypothesis or both sides entail.
"""
from __future__ import annotations

import itertools
import re

import gen

CHAIN = {"CPL": 2, "G3": 3}
IPL_CHAINS = (2, 3, 4, 5)


def _ops(n: int) -> dict:
    top = n - 1

    def imp(a, b):
        return top if a <= b else b

    return {
        "and": min, "or": max, "->": imp,
        "iff": lambda a, b: min(imp(a, b), imp(b, a)),
        "neg": lambda a: top if a == 0 else 0,
        "top": lambda: top, "bot": lambda: 0,
    }


_OPS = {n: _ops(n) for n in range(2, 6)}


def _column(f, n: int, var_pos: dict, rows: list) -> list:
    ops = _OPS[n]
    top = n - 1
    memo: dict = {}
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if id(g) in memo:
            continue
        if isinstance(g, int):
            p = var_pos[g]
            memo[id(g)] = [r[p] for r in rows]
            continue
        head, args = g
        if not ready:
            stack.append((g, True))
            stack.extend((a, False) for a in args)
            continue
        if head.startswith("topn.") or not args:
            value = top if head.startswith("topn.") else ops[head]()
            memo[id(g)] = [value] * len(rows)
        else:
            fn = ops[head]
            memo[id(g)] = list(map(fn, *(memo[id(a)] for a in args)))
    return memo[id(f)]


def _side(hyps, goal, n: int):
    """(some assignment designates every hypothesis, goal designated on all of them)."""
    vs = sorted(set().union(gen.variables(goal), *(gen.variables(h) for h in hyps)))
    pos = {v: j for j, v in enumerate(vs)}
    rows = list(itertools.product(range(n), repeat=len(vs)))
    keep = [True] * len(rows)
    for h in hyps:
        keep = [k and v == n - 1 for k, v in zip(keep, _column(h, n, pos, rows))]
    g = _column(goal, n, pos, rows)
    return any(keep), all(v == n - 1 for k, v in zip(keep, g) if k)


def holds(f, n: int) -> bool:
    return _side((), f, n)[1]


def entails(hyps, goal, n: int) -> bool:
    return _side(hyps, goal, n)[1]


def holds_product(f, n1: int, n2: int) -> bool:
    return holds(gen.project(f, 1), n1) and holds(gen.project(f, 2), n2)


def entails_product(hyps, goal, n1: int, n2: int) -> bool:
    some1, ok1 = _side([gen.project(h, 1) for h in hyps], gen.project(goal, 1), n1)
    some2, ok2 = _side([gen.project(h, 2) for h in hyps], gen.project(goal, 2), n2)
    return not some1 or not some2 or (ok1 and ok2)


def holds_ipl_chains(f) -> bool:
    return all(holds(f, n) for n in IPL_CHAINS)


# ---------------------------------------------------------------------------
# reading meetlogic's printed form (prefix call syntax) back into trees

_NAME = re.compile(r"->|topn\.\d+|[A-Za-z_][A-Za-z0-9_]*")
_TAG = re.compile(r"\.[A-Za-z_][A-Za-z0-9_]*")


def parse_printed(s: str):
    """Parse ``print_formula`` output such as ``->(xi1, or(xi1, xi2))`` or
    ``<and.CPL|topn.2.G3>(xi1, xi2)``; combined heads lose their tags."""
    pos = 0

    def name():
        nonlocal pos
        m = _NAME.match(s, pos)
        if m is None:
            raise ValueError(f"cannot read {s!r} at {pos}")
        pos = m.end()
        return m.group()

    def tag():
        nonlocal pos
        m = _TAG.match(s, pos)
        if m is None:
            raise ValueError(f"missing tag in {s!r} at {pos}")
        pos = m.end()

    def expect(ch):
        nonlocal pos
        if not s.startswith(ch, pos):
            raise ValueError(f"expected {ch!r} in {s!r} at {pos}")
        pos += len(ch)

    def node():
        nonlocal pos
        if s.startswith("<", pos):
            pos += 1
            n1 = name()
            tag()
            expect("|")
            n2 = name()
            tag()
            expect(">")
            head = (n1, n2)
        else:
            head = name()
            if head.startswith("xi") and head[2:].isdigit():
                return int(head[2:])
        args = []
        if s.startswith("(", pos):
            pos += 1
            args.append(node())
            while s.startswith(", ", pos):
                pos += 2
                args.append(node())
            expect(")")
        return (head, tuple(args))

    f = node()
    if pos != len(s):
        raise ValueError(f"trailing text in {s!r}")
    return f
