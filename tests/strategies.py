"""Formula generators shared by the test modules: hypothesis strategies and
seeded deterministic samplers (for fixed-size corpora).
"""
from __future__ import annotations

import random

from hypothesis import strategies as st

from meetlogic.syntax import App, Var


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
