"""Seeded, stdlib-only input generator.

Formulas are plain trees: an int ``i`` is the schema variable ``xi<i>``; a
tuple ``(head, args)`` is an application, where ``head`` is a constructor name
of one component logic or a ``(name1, name2)`` pair naming a combined
constructor. Text is emitted in meetlogic's surface syntax without importing
meetlogic, so a seed gives byte-identical inputs on every commit.

Every query kind has a virtual pool: item ``i`` of kind ``k`` is generated
from ``random.Random("k:i")`` alone. A run draws a seeded permutation of each
pool, so warm-up and timed queries are disjoint, and answers that only the
seed commit can give are recorded once per pool item.
"""
from __future__ import annotations

import random

BINARY = ("and", "or", "->", "iff")
UNARY = {"prop": ("neg",), "modal": ("neg", "box", "dia")}
NULLARY = ("top", "bot")
KIND_OF = {"CPL": "prop", "G3": "prop", "IPL": "prop", "S43": "modal"}


def item_rng(kind: str, i: int) -> random.Random:
    return random.Random(f"{kind}:{i}")


class Draw:
    """Seeded draws without replacement from one pool, split into strata.

    Item ``i`` belongs to stratum ``i % strata``; the caller picks the
    stratum (in rotation), so every run has the same mix of item shapes and
    only their content depends on the seed. A stratum restarts with a fresh
    permutation only if a run uses all of it up."""

    def __init__(self, seed: int, kind: str, size: int, strata: int):
        self.rng = random.Random(f"draw:{seed}:{kind}")
        self.size, self.strata = size, strata
        self.orders: dict = {}
        self.wraps = 0

    def next(self, stratum: int) -> int:
        order = self.orders.get(stratum)
        if not order:
            if order is not None:
                self.wraps += 1
            order = list(range(stratum, self.size, self.strata))
            self.rng.shuffle(order)
            self.orders[stratum] = order
        return order.pop()


# ---------------------------------------------------------------------------
# formula trees

def formula(rng, depth: int, nvars: int, logic: str = "CPL", exact: bool = True):
    """A component formula of depth at most ``depth`` (exactly, along one
    spine, when ``exact``) over the variables xi1..xi<nvars>."""
    unary = UNARY[KIND_OF[logic]]
    if depth == 0 or (not exact and rng.random() < 0.3):
        if rng.random() < 0.85:
            return rng.randint(1, nvars)
        return (rng.choice(NULLARY), ())
    if rng.random() < 0.25:
        return (rng.choice(unary), (formula(rng, depth - 1, nvars, logic, exact),))
    spine = rng.randrange(2)
    args = tuple(formula(rng, depth - 1, nvars, logic, exact and j == spine) for j in range(2))
    return (rng.choice(BINARY), args)


def pair_formula(rng, depth: int, nvars: int, logics=("CPL", "CPL"), exact: bool = True):
    """A combined formula; each node pairs two same-arity constructors, and
    about one node in five is an embedded one, padded with the verum family."""
    if depth == 0 or (not exact and rng.random() < 0.3):
        if rng.random() < 0.85:
            return rng.randint(1, nvars)
        return ((rng.choice(NULLARY), rng.choice(NULLARY)), ())
    if rng.random() < 0.25:
        heads = [rng.choice(UNARY[KIND_OF[lg]]) for lg in logics]
        arity = 1
    else:
        heads = [rng.choice(BINARY) for _ in logics]
        arity = 2
    r = rng.random()
    if r < 0.1:
        heads[1] = f"topn.{arity}"
    elif r < 0.2:
        heads[0] = f"topn.{arity}"
    spine = rng.randrange(arity)
    args = tuple(pair_formula(rng, depth - 1, nvars, logics, exact and j == spine)
                 for j in range(arity))
    return (tuple(heads), args)


def shaped(rng, shape: int, logics=None, logic="CPL"):
    """One of three small shapes over xi1 and xi2 with seeded constructors:
    b(x, y), b(c(x), y) or b(b(x, y), x). Combined (``logics`` a pair) heads
    pair two constructors, one in five padded with the verum family."""
    def head(arity):
        if logics is None:
            return rng.choice(UNARY[KIND_OF[logic]] if arity == 1 else BINARY)
        heads = [rng.choice(UNARY[KIND_OF[lg]] if arity == 1 else BINARY) for lg in logics]
        r = rng.random()
        if r < 0.2:
            heads[r < 0.1] = f"topn.{arity}"
        return tuple(heads)

    if shape == 0:
        return (head(2), (1, 2))
    if shape == 1:
        return (head(2), ((head(1), (1,)), 2))
    return (head(2), ((head(2), (1, 2)), 1))


def project(f, k: int):
    if isinstance(f, int):
        return f
    head, args = f
    return (head[k - 1], tuple(project(a, k) for a in args))


def embed(f, k: int):
    if isinstance(f, int):
        return f
    head, args = f
    pad = f"topn.{len(args)}" if args else "top"
    return ((head, pad) if k == 1 else (pad, head), tuple(embed(a, k) for a in args))


def neg_chain(levels: int):
    """``neg`` applied ``levels`` times to xi1, built without recursion."""
    f = 1
    for _ in range(levels):
        f = ("neg", (f,))
    return f


def variables(f) -> set:
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if isinstance(g, int):
            out.add(g)
        else:
            stack.extend(g[1])
    return out


def size(f) -> int:
    n, stack = 0, [f]
    while stack:
        g = stack.pop()
        n += 1
        if not isinstance(g, int):
            stack.extend(g[1])
    return n


# ---------------------------------------------------------------------------
# surface syntax

def text(f, tags=None) -> str:
    """Component syntax (infix, fully parenthesised) when ``tags`` is None,
    combined call syntax ``<n1.T1|n2.T2>(a, b)`` otherwise. Iterative, so
    thousands of levels are fine."""
    out: list = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, int):
            out.append(f"xi{g}")
        else:
            head, args = g
            if tags is not None:
                out.append(f"<{head[0]}.{tags[0]}|{head[1]}.{tags[1]}>")
                if args:
                    parts = ["("]
                    for j, a in enumerate(args):
                        parts += [", "] * (j > 0) + [a]
                    parts.append(")")
                    stack.extend(reversed(parts))
            elif not args:
                out.append(head)
            elif head.startswith("topn."):
                stack.extend(reversed([f"{head}(", args[0], ", ", args[1], ")"] if len(args) == 2
                                      else [f"{head}(", args[0], ")"]))
            elif len(args) == 1:
                stack.extend(reversed([f"{head} (", args[0], ")"]))
            else:
                stack.extend(reversed(["(", args[0], f" {head} ", args[1], ")"]))
    return "".join(out)


# ---------------------------------------------------------------------------
# valid-by-construction schemas, so evaluators run over every assignment

def valid_schema(rng, a, b, imp, conj, disj, neg):
    """One of five schemas valid on every Goedel chain (hence on chain
    products); the connective arguments are heads of the right language."""
    pick = rng.randrange(5)
    if pick == 0:
        return (imp, (a, a))
    if pick == 1:
        return (imp, ((conj, (a, b)), a))
    if pick == 2:
        return (imp, (a, (imp, (b, a))))
    if pick == 3:
        return (neg, ((neg, ((disj, (a, (neg, (a,)))),)),))
    return (disj, ((imp, (a, b)), (imp, (b, a))))


def component_query_formula(rng, logic, nvars, depth, valid):
    """Depth ``depth`` (2-5) over ``nvars`` variables; valid by construction
    when ``valid``."""
    if not valid:
        return formula(rng, depth, nvars, logic)
    a = formula(rng, depth - 1, nvars, logic)
    b = formula(rng, depth - 2, nvars, logic, exact=False)
    return valid_schema(rng, a, b, "->", "and", "or", "neg")


def pair_query_formula(rng, logics, nvars, depth, valid):
    if not valid:
        return pair_formula(rng, depth, nvars, logics)
    a = pair_formula(rng, depth - 1, nvars, logics)
    b = pair_formula(rng, depth - 2, nvars, logics, exact=False)
    return valid_schema(rng, a, b, ("->", "->"), ("and", "and"), ("or", "or"), ("neg", "neg"))


def entailment(rng, make, pair: bool, pattern: int):
    """(hyps, goal): modus ponens (0), disjunction introduction (1), or a
    random pair (2)."""
    a, b = make(rng), make(rng)
    imp, disj = (("->", "->"), ("or", "or")) if pair else ("->", "or")
    if pattern == 0:
        return [a, (imp, (a, b))], b
    if pattern == 1:
        return [a], (disj, (b, a))
    return [a], b
