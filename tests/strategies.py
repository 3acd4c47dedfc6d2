"""Formula generators shared by the test modules: hypothesis strategies,
seeded deterministic samplers (for fixed-size corpora), and seeded surface
text with mutants for the reader.
"""
from __future__ import annotations

import random

from hypothesis import strategies as st

from meetlogic.combination import combine_signatures
from meetlogic.syntax import App, Var, make_signature


def ctor_inventory(sig):
    return list(sig.all_ctors())


def formula_strategy(sig, max_depth=4, max_var=3):
    """Hypothesis strategy for formulas over a plain or combined signature."""
    ctors = ctor_inventory(sig)
    nullary = [c for c in ctors if c.arity == 0]
    positive = [c for c in ctors if c.arity > 0]
    leaves = st.one_of(
        st.integers(min_value=1, max_value=max_var).map(Var),
        st.sampled_from(nullary).map(lambda c: App(c)),
    )

    def extend(children):
        return st.sampled_from(positive).flatmap(
            lambda c: st.tuples(*([children] * c.arity)).map(lambda args: App(c, args))
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


def random_formula(rng: random.Random, sig, depth: int, max_var: int = 3):
    """Seeded sampler; at depth 0 returns a leaf, else usually applies a constructor."""
    ctors = ctor_inventory(sig)
    nullary = [c for c in ctors if c.arity == 0]
    positive = [c for c in ctors if c.arity > 0]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(rng.randint(1, max_var))
        return App(rng.choice(nullary))
    c = rng.choice(positive)
    return App(c, tuple(random_formula(rng, sig, depth - 1, max_var) for _ in range(c.arity)))


def random_substitution(rng: random.Random, sig, variables, depth: int = 2, max_var: int = 3):
    return {v: random_formula(rng, sig, depth, max_var) for v in variables}


# Surface syntax for the parser's differential tests and the CLI fuzz test:
# one component signature, and a combined one whose sides differ, so that
# tags and pairs can fail to resolve.
K = make_signature("K", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1),
                         ("box", 1), ("dia", 1), ("f", 3), ("g", 1), ("c", 0)])
CA = make_signature("A", [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)])
CB = make_signature("B", [("and", 2), ("or", 2), ("->", 2), ("neg", 1), ("box", 1), ("dia", 1), ("c", 0)])
CAB = combine_signatures(CA, CB)
INFIX, PREFIX = ["and", "or", "->", "iff"], ["neg", "box", "dia"]
SNIPPETS = ["(", ")", ",", "<", ">", "|", ".", " ", "xi", "and", "neg", "->", "-", "A", "1", ".A", "box "]


def random_surface(rng, sig, depth):
    """Seeded text over `sig` with infix, prefix, applications and parentheses;
    about one name in twenty is picked regardless of the signature."""
    def name(arity, only=None):
        def pick(side):
            names = [n for n in side.by_arity.get(arity, ()) if only is None or n in only]
            if not names or rng.random() < 0.05:
                names = INFIX + PREFIX + ["f", "top", "topn.1"]
            return rng.choice(names)
        if sig is not CAB:
            return pick(sig)
        if rng.random() < 0.5:
            k = rng.choice((1, 2))
            return f"{pick(CA if k == 1 else CB)}.{'AB'[k - 1]}"
        return f"<{pick(CA)}.A|{pick(CB)}.B>"

    r = rng.random()
    if depth == 0 or r < 0.2:
        return f"xi{rng.randint(1, 3)}" if rng.random() < 0.6 else name(0)
    sub = lambda: random_surface(rng, sig, depth - 1)
    if r < 0.4:
        return name(1, PREFIX) + rng.choice([" ", "  ", ""]) + sub()
    if r < 0.7:
        return sub() + rng.choice([" ", " ", "\t"]) + name(2, INFIX) + " " + sub()
    if r < 0.85:
        n = rng.choice([1, 1, 2, 2, 3])
        return f"{name(n)}({', '.join(sub() for _ in range(n))})"
    return f"({sub()})"


def mutate_text(rng, text):
    """One to three edits: insert a snippet, delete or duplicate a few characters."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.4:
            text = text[:i] + rng.choice(SNIPPETS) + text[i:]
        elif op < 0.7:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            j = min(len(text), i + rng.randint(1, 6))
            text = text[:j] + text[i:j] + text[j:]
    return text
