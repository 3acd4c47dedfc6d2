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


class AdmissibilityVerdict(Record):
    """One admissibility answer. `status` is "admissible", "not-admissible"
    or "inconclusive"; `exact` is False when a bounded procedure or a guess
    stands behind it; `witness` is the frozen substitution of a refutation.
    `calls` counts what the answer cost: the substitution key tuples of the
    sweep, or the oracle answers of the meet decider, whose steps `trace`
    holds; these two take no part in equality."""

    __slots__ = ("status", "exact", "witness", "calls", "trace")
    _defaults = {"witness": None, "calls": 0, "trace": ()}
    _compare = ("status", "exact", "witness")

    @property
    def admissible(self) -> bool:
        return self.status == "admissible"

    def __bool__(self):
        return self.admissible


# An oracle answers a rule, given as its premise tuple and its conclusion.
Oracle = Callable[[tuple, Formula], AdmissibilityVerdict]


def _answer(yes: bool, exact: bool, **costs) -> AdmissibilityVerdict:
    return AdmissibilityVerdict("admissible" if yes else "not-admissible", exact, **costs)


def decide_admissible_meet(o1: Oracle, o2: Oracle, premises: Sequence[Formula],
                           beta: Formula) -> AdmissibilityVerdict:
    """Decide admissibility in the combined logic with at most three oracle calls.

    Ask each component about the projected rule; agreement is the answer.
    On disagreement the admitting side is asked whether its projected premises
    already yield falsum (vacuous admissibility). The decision is exact when
    every answer it used is.
    """
    proj = {k: tuple([project(a, k) for a in premises]) for k in (1, 2)}
    answers = [o1(proj[1], project(beta, 1)), o2(proj[2], project(beta, 2))]
    a1, a2 = answers[0].admissible, answers[1].admissible
    trace = [f"a1={int(a1)}", f"a2={int(a2)}"]
    result = a1
    if a1 != a2:
        k, oracle = (1, o1) if a1 else (2, o2)
        answers.append(oracle(proj[k], _COMPONENT_FALSUM))
        result = answers[-1].admissible
        trace.append(f"fallback o{k}(bot)={int(result)}")
    exact = all(a.exact for a in answers)
    return _answer(result, exact, calls=len(answers), trace=tuple(trace))


class TheoremProcedure(Protocol):
    """Exact theoremhood, with the instance form `brute_force_admissible`
    sweeps: `key(c)` for a closed candidate c, and `instances(p)`, a test of
    the substitution instance of p given by {variable index: key}."""

    def __call__(self, f: Formula) -> bool: ...

    def key(self, closed: Formula) -> Hashable: ...

    def instances(self, pattern: Formula) -> Callable[[Mapping[int, Hashable]], bool]: ...


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
    ctors = [c for n in sorted(signature.arities()) if n
             for c in sorted(signature.by_arity[n].values(), key=lambda c: c.name)]
    for _ in range(bounds.depth):
        pool = [f for layer in layers for f in layer]
        new = []
        for g in (App(c, args) for c in ctors for args in itertools.product(pool, repeat=c.arity)):
            if len(new) >= bounds.max_candidates:
                break
            if all(g not in layer for layer in layers) and g not in new:
                new.append(g)
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
    calls = 0
    if thm is not None:
        variables = sorted(set().union(variables_of(beta), *(variables_of(p) for p in premises)))
        representative = {}
        for c in _closed_candidates(bundle, bounds):
            representative.setdefault(thm.key(c), c)
        premise_tests = [thm.instances(p) for p in premises]
        goal_test = thm.instances(beta)
        for keys in itertools.product(representative, repeat=len(variables)):
            calls += 1
            env = dict(zip(variables, keys))
            if all(t(env) for t in premise_tests) and not goal_test(env):
                witness = tuple(zip(variables, map(representative.__getitem__, keys)))
                return AdmissibilityVerdict("not-admissible", True, witness, calls)
    char = bundle.characteristic
    if bundle.structurally_complete and char is not None:
        # entailment decides exactly, even where the bounded sweep found no witness
        return _answer(entails([char], premises, beta), True, calls=calls)
    return AdmissibilityVerdict("inconclusive", False, calls=calls)


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
                                         oracle: Optional[Oracle] = None,
                                         bf_bounds: BruteForceBounds = BruteForceBounds()) -> CompletenessReport:
    """Compare an admissibility verdict with plain derivability, rule by rule.

    A rule admissible per the oracle but not derivable within bounds is only
    flagged (derivability search is incomplete); nothing is ever asserted as a
    counterexample.
    """
    if oracle is None:
        oracle = lambda premises, beta: brute_force_admissible(bundle, premises, beta, bf_bounds)
    empty = Basis("empty", ())
    checked = agreements = nonadm = inconclusive = 0
    flagged = []
    for rule in rules:
        checked += 1
        status = oracle(rule.premises, rule.conclusion).status
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

def semantic_oracle(bundle) -> Oracle:
    """Exact oracle for a structurally complete bundle with a characteristic matrix."""
    char = bundle.characteristic
    if char is None or not bundle.structurally_complete:
        raise ValueError(f"{bundle.name}: semantic oracle needs structural completeness and a characteristic matrix")
    return lambda premises, beta: _answer(entails([char], premises, beta), True)


def stub_oracle(main: bool, falsum_answer: bool = False, exact: bool = True) -> Oracle:
    """Fixed-answer oracle for case-table exercises: main answer for ordinary
    queries, falsum_answer when the query conclusion is the falsum constant.
    """
    def oracle(premises, beta):
        falsum = isinstance(beta, App) and beta.ctor.arity == 0 and beta.ctor.name == FALSUM
        return _answer(falsum_answer if falsum else main, exact)

    return oracle


def oracle_from_table(table: Mapping, default: bool = False) -> Oracle:
    """Inexact oracle answering from a table keyed by rule, as (premise
    tuple, conclusion); rules not in the table get the default answer.
    """
    return lambda premises, beta: _answer(bool(table.get((premises, beta), default)), False)


def bundle_oracle(bundle, bounds: BruteForceBounds = BruteForceBounds()) -> Oracle:
    """Best available oracle for a preset: exact when the bundle supports it,
    otherwise the bounded sweep, whose answers are all marked inexact and
    whose "inconclusive" counts as a negative answer (ROADMAP item 2), which
    is why the caveat must travel with the verdict.
    """
    if bundle.structurally_complete and bundle.characteristic is not None:
        return semantic_oracle(bundle)

    def oracle(premises, beta):
        v = brute_force_admissible(bundle, premises, beta, bounds)
        return _answer(v.admissible, False, witness=v.witness, calls=v.calls)

    return oracle
