"""Admissibility oracles, the combined two-oracle decision algorithm,
basis-augmented derivability, combined bases, and structural-completeness sampling.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Mapping, Optional, Protocol, Sequence

from .calculus import Derivation, Rule, SearchBounds, bounded_proof_search, inherit_rules
from .combination import CombinedSignature, project
from .semantics import entails
from .syntax import App, Ctor, FALSUM, Formula, Record, print_formula, variables_of

# The component falsum the fallback call asks about, on either side.
_COMPONENT_FALSUM = App(Ctor(FALSUM, 0))


class AdmissibilityOracle(Record):
    """An injected component decision procedure `fn` with declared exactness.

    exact=False marks a bounded/heuristic procedure whose caveat must be
    propagated to any verdict built on top of it. Calls are counted for
    instrumentation, so an oracle is mutable and unhashable.
    """

    __slots__ = ("logic", "exact", "fn", "calls")
    _defaults = {"calls": 0}
    __setattr__ = object.__setattr__
    __hash__ = None

    def __call__(self, premises: Sequence[Formula], beta: Formula) -> bool:
        self.calls += 1
        return bool(self.fn(tuple(premises), beta))


class MeetDecision(Record):
    __slots__ = ("admissible", "exact", "calls", "trace")

    def __bool__(self):
        return self.admissible


def decide_admissible_meet(o1: AdmissibilityOracle, o2: AdmissibilityOracle,
                           premises: Sequence[Formula], beta: Formula) -> MeetDecision:
    """Decide admissibility in the combined logic with at most three oracle calls.

    Ask each component about the projected rule; agreement is the answer.
    On disagreement the admitting side is asked whether its projected premises
    already yield falsum (vacuous admissibility).
    """
    premises = tuple(premises)
    start = o1.calls + o2.calls
    proj = {k: [project(a, k) for a in premises] for k in (1, 2)}
    a1 = o1(proj[1], project(beta, 1))
    a2 = o2(proj[2], project(beta, 2))
    trace = [f"a1={int(a1)}", f"a2={int(a2)}"]
    consulted = [o1, o2]
    if a1 and a2:
        result = True
    elif not a1 and not a2:
        result = False
    elif a1:
        result = o1(proj[1], _COMPONENT_FALSUM)
        trace.append(f"fallback o1(bot)={int(result)}")
    else:
        result = o2(proj[2], _COMPONENT_FALSUM)
        trace.append(f"fallback o2(bot)={int(result)}")
    calls = o1.calls + o2.calls - start
    exact = all(o.exact for o in consulted)
    return MeetDecision(result, exact, calls, tuple(trace))


class TheoremProcedure(Protocol):
    """Exact theoremhood, with the instance form `brute_force_admissible`
    sweeps: `key(c)` for a closed candidate c, and `instances(p)`, a test of
    the substitution instance of p given by {variable index: key}."""

    def __call__(self, f: Formula) -> bool: ...

    def key(self, closed: Formula) -> Hashable: ...

    def instances(self, pattern: Formula) -> Callable[[Mapping[int, Hashable]], bool]: ...


class AdmissibilityVerdict(Record):
    """`status` is "admissible", "not-admissible" or "inconclusive";
    `witness` is the frozen substitution for not-admissible, and `tried`
    counts the distinct key tuples the sweep checked."""

    __slots__ = ("status", "exact", "witness", "tried")
    _defaults = {"witness": None, "tried": 0}
    _compare = ("status", "exact", "witness")

    def __bool__(self):
        return self.status == "admissible"


class BruteForceBounds(Record):
    __slots__ = ("depth", "max_candidates")
    _defaults = {"depth": 2, "max_candidates": 8}


@lru_cache(maxsize=32)
def _closed_candidates(bundle, bounds: BruteForceBounds) -> tuple:
    """Variable-free formulas of bounded depth over the bundle's signature,
    smallest first, deterministic; built once per bundle and bounds."""
    signature = bundle.signature
    layers = [sorted(
        (App(c) for c in signature.by_arity.get(0, {}).values()),
        key=print_formula,
    )]
    for _ in range(bounds.depth):
        pool = [f for layer in layers for f in layer]
        new = []
        for n in sorted(signature.arities()):
            if n == 0:
                continue
            for c in sorted(signature.by_arity[n].values(), key=lambda c: c.name):
                for args in itertools.product(pool, repeat=n):
                    g = App(c, args)
                    if all(g not in layer for layer in layers) and g not in new:
                        new.append(g)
                    if len(new) >= bounds.max_candidates:
                        break
                if len(new) >= bounds.max_candidates:
                    break
            if len(new) >= bounds.max_candidates:
                break
        layers.append(new)
    flat = [f for layer in layers for f in layer]
    flat.sort(key=lambda f: (f.size, print_formula(f)))
    return tuple(flat[: bounds.max_candidates])


def brute_force_admissible(bundle, premises: Sequence[Formula], beta: Formula,
                           bounds: BruteForceBounds = BruteForceBounds()) -> AdmissibilityVerdict:
    """Decide or bound admissibility of premises/beta in a concrete logic.

    With an exact theoremhood procedure, closed substitutions up to the bound
    are swept for a counterexample. A structurally complete bundle with a
    characteristic matrix additionally gets exact positive answers via
    entailment. Everything else is inconclusive, never an error.

    The sweep builds no formula. The procedure gives each closed candidate a
    key (`thm.key(c)`), and `thm.instances(p)` decides, from a map of the
    pattern p's variable indices to keys, whether that substitution instance
    of p is a theorem. So the verdict on a substitution depends only on its
    tuple of keys, and each distinct tuple is decided once, by the tuple of
    the first candidates with those keys. Those tuples come in the order of
    the full candidate product, and the first counterexample of the full
    product has one, so the witness is the one the full sweep would find.
    """
    premises = tuple(premises)
    thm = bundle.theorem
    tried = 0
    if thm is not None:
        variables = sorted(set().union(variables_of(beta), *(variables_of(p) for p in premises)))
        representative = {}
        for c in _closed_candidates(bundle, bounds):
            representative.setdefault(thm.key(c), c)
        premise_tests = [thm.instances(p) for p in premises]
        goal_test = thm.instances(beta)
        for keys in itertools.product(representative, repeat=len(variables)):
            tried += 1
            env = dict(zip(variables, keys))
            if all(t(env) for t in premise_tests) and not goal_test(env):
                witness = tuple(zip(variables, map(representative.__getitem__, keys)))
                return AdmissibilityVerdict("not-admissible", True, witness, tried)
    char = bundle.characteristic
    if bundle.structurally_complete and char is not None:
        if entails([char], premises, beta):
            return AdmissibilityVerdict("admissible", True, tried=tried)
        # entailment says non-admissible; report it exactly even if the
        # bounded witness sweep missed a concrete substitution
        return AdmissibilityVerdict("not-admissible", True, tried=tried)
    return AdmissibilityVerdict("inconclusive", False, tried=tried)


# ---------------------------------------------------------------------------
# bases

class Basis(Record):
    __slots__ = ("provenance", "rules")


def derivable_with_basis(premises, goal, basis: Basis, bundle,
                         bounds: SearchBounds = SearchBounds()) -> Optional[Derivation]:
    """Bounded search in the bundle's calculus extended with the basis rules.

    None means not found within bounds, never underivability.
    """
    return bounded_proof_search(bundle.calculus, tuple(basis.rules), premises, goal, bounds)


def combined_basis(b1: Basis, b2: Basis, cs: CombinedSignature) -> Basis:
    """Union of the component bases, each embedded and tagged like calculus rules."""
    return Basis(f"meet({b1.provenance},{b2.provenance})", inherit_rules(b1.rules, b2.rules, cs))


# ---------------------------------------------------------------------------
# structural completeness sampling

class CompletenessReport(Record):
    """`flagged` holds the rules admissible (per oracle) but not found derivable."""

    __slots__ = ("checked", "agreements", "not_admissible", "inconclusive", "flagged")


def check_structural_completeness_sample(bundle, rules: Iterable[Rule],
                                         search_bounds: SearchBounds = SearchBounds(),
                                         oracle: Optional[Callable] = None,
                                         bf_bounds: BruteForceBounds = BruteForceBounds()) -> CompletenessReport:
    """Compare an admissibility verdict with plain derivability, rule by rule.

    A rule admissible per the oracle but not derivable within bounds is only
    flagged (derivability search is incomplete); nothing is ever asserted as a
    counterexample.
    """
    empty = Basis("empty", ())
    checked = agreements = nonadm = inconclusive = 0
    flagged = []
    for rule in rules:
        checked += 1
        if oracle is not None:
            verdict = oracle(rule.premises, rule.conclusion)
            status = "admissible" if verdict else "not-admissible"
        else:
            status = brute_force_admissible(bundle, rule.premises, rule.conclusion, bf_bounds).status
        if status == "inconclusive":
            inconclusive += 1
            continue
        if status == "not-admissible":
            nonadm += 1
            continue
        found = derivable_with_basis(rule.premises, rule.conclusion, empty, bundle, search_bounds)
        if found is not None:
            agreements += 1
        else:
            flagged.append(rule)
    return CompletenessReport(checked, agreements, nonadm, inconclusive, tuple(flagged))


# ---------------------------------------------------------------------------
# oracle constructors

def semantic_oracle(bundle) -> AdmissibilityOracle:
    """Exact oracle for a structurally complete bundle with a characteristic matrix."""
    char = bundle.characteristic
    if char is None or not bundle.structurally_complete:
        raise ValueError(f"{bundle.name}: semantic oracle needs structural completeness and a characteristic matrix")
    return AdmissibilityOracle(
        logic=bundle.name,
        exact=True,
        fn=lambda premises, beta: entails([char], premises, beta),
    )


def stub_oracle(logic: str, main: bool, falsum_answer: bool = False,
                exact: bool = True) -> AdmissibilityOracle:
    """Fixed-answer oracle for case-table exercises: main answer for ordinary
    queries, falsum_answer when the query conclusion is the falsum constant.
    """
    def fn(premises, beta):
        if isinstance(beta, App) and beta.ctor.arity == 0 and beta.ctor.name == FALSUM:
            return falsum_answer
        return main

    return AdmissibilityOracle(logic=logic, exact=exact, fn=fn)


def oracle_from_table(logic: str, table: Mapping, default: bool = False,
                      exact: bool = False) -> AdmissibilityOracle:
    """Oracle answering from a table keyed by rule, as (premise tuple,
    conclusion); rules not in the table get the default answer.
    """
    def fn(premises, beta):
        return bool(table.get((tuple(premises), beta), default))

    return AdmissibilityOracle(logic=logic, exact=exact, fn=fn)


def bundle_oracle(bundle, bounds: BruteForceBounds = BruteForceBounds()) -> AdmissibilityOracle:
    """Best available oracle for a preset: exact when the bundle supports it,
    otherwise a bounded procedure marked inexact (inconclusive counts as a
    negative answer, which is why the caveat must travel with the verdict).
    """
    if bundle.structurally_complete and bundle.characteristic is not None:
        return semantic_oracle(bundle)

    def fn(premises, beta):
        return brute_force_admissible(bundle, premises, beta, bounds).status == "admissible"

    return AdmissibilityOracle(logic=bundle.name, exact=False, fn=fn)
