"""Admissibility oracles, the combined two-oracle decision algorithm,
basis-augmented derivability, combined bases, and structural-completeness sampling.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .calculus import Derivation, Rule, SearchBounds, bounded_proof_search, inherit_rules
from .combination import CombinedSignature, project
from .semantics import _column, _variable_columns, entails
from .syntax import App, Ctor, FALSUM, Formula, Record, print_formula, subformulas, variables_of

# The component falsum the fallback call asks about, on either side.
_COMPONENT_FALSUM = App(Ctor(FALSUM, 0))


class AdmissibilityVerdict(Record):
    """One admissibility answer. `status` is "admissible", "not-admissible"
    or "inconclusive"; `exact` is False when a bounded procedure or a guess
    stands behind it; `witness` is the frozen substitution of a refutation.
    `calls` counts what the answer cost: the ground value tuples of the
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


class BruteForceBounds(Record):
    """Bounds of a closed-candidate sweep, which `brute_force_admissible` no
    longer makes: it sweeps the ground values, which no bound would change.
    Nothing in the package reads it. It stays exported because the traced
    `decide` runs of `perfbench` compute their `substitution_bound` counter
    from `BruteForceBounds().max_candidates` (ROADMAP item 8)."""

    __slots__ = ("depth", "max_candidates")
    _defaults = {"depth": 2, "max_candidates": 8}


@lru_cache(maxsize=32)
def _ground_values(bundle) -> tuple:
    """The subalgebra of `bundle.ground` that the constants generate, as
    (carrier index, least closed formula with that value) pairs in the order
    of those formulas by (size, printed text); built once per bundle.

    Each round applies every operation to the formulas kept so far, and keeps
    per value the least formula built, until a round changes nothing. The
    least size is exact, since a least formula's arguments may be swapped for
    kept ones of no greater size; ties in size are broken among the formulas
    built from kept ones.
    """
    m = bundle.ground
    least = lambda f: (f.size, print_formula(f))
    best = {}
    while True:
        kept = list(best.values())
        for ctor in m.tables:
            for args in itertools.product(kept, repeat=ctor.arity):
                f = App(ctor, args)
                v = _column(m, subformulas(f), {}, 1)[0]
                best[v] = min(best.get(v, f), f, key=least)
        if list(best.values()) == kept:
            return tuple(sorted(best.items(), key=lambda item: least(item[1])))


def brute_force_admissible(bundle, premises: Sequence[Formula], beta: Formula) -> AdmissibilityVerdict:
    """Decide or bound admissibility of premises/beta in a concrete logic.

    A bundle's `ground` matrix decides theoremhood of closed formulas by
    their value, so a closed substitution instance of a formula is a theorem
    iff the formula is designated at the values substituted. Those values
    are the ground values (`_ground_values`). The sweep evaluates the
    premises and beta column-wise at every tuple of ground values, in the
    order of their least formulas, and answers with the first tuple that
    designates every premise but not beta, witnessed by those formulas.
    `calls` counts the tuples up to it, or all of them.

    Without a counterexample, a bundle with a characteristic matrix (which
    makes it structurally complete) gets an exact answer via entailment.
    Everything else is inconclusive, never an error.
    """
    premises = tuple(premises)
    m = bundle.ground
    calls = 0
    if m is not None:
        ground = _ground_values(bundle)
        variables = sorted(set().union(variables_of(beta), *(variables_of(p) for p in premises)))
        # per variable, the position in `ground` of its value at each tuple
        picks = _variable_columns(len(ground), variables)
        calls = len(ground) ** len(variables)
        env = {v: [ground[i][0] for i in col] for v, col in picks.items()}
        flags = m.designated_flags
        goal, *hyps = ([flags[x] for x in _column(m, subformulas(f), env, calls)] for f in (beta, *premises))
        for a, row in enumerate(zip(goal, *hyps)):
            if not row[0] and all(row[1:]):
                witness = tuple((v, ground[col[a]][1]) for v, col in picks.items())
                return AdmissibilityVerdict("not-admissible", True, witness, a + 1)
    char = bundle.characteristic
    if char is not None:
        # entailment decides exactly, even where the sweep found no witness
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
                                         oracle: Optional[Oracle] = None) -> CompletenessReport:
    """Compare an admissibility verdict with plain derivability, rule by rule.

    A rule admissible per the oracle but not derivable within bounds is only
    flagged (derivability search is incomplete); nothing is ever asserted as a
    counterexample.
    """
    if oracle is None:
        oracle = lambda premises, beta: brute_force_admissible(bundle, premises, beta)
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
    """Exact oracle for a bundle with a characteristic matrix, which makes
    a preset structurally complete."""
    char = bundle.characteristic
    if char is None:
        raise ValueError(f"{bundle.name}: semantic oracle needs a characteristic matrix")
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


def bundle_oracle(bundle) -> Oracle:
    """Best available oracle for a preset: exact when the bundle supports it,
    otherwise the ground sweep, whose answers are all marked inexact and
    whose "inconclusive" counts as a negative answer (ROADMAP item 2), which
    is why the caveat must travel with the verdict.
    """
    if bundle.characteristic is not None:
        return semantic_oracle(bundle)

    def oracle(premises, beta):
        v = brute_force_admissible(bundle, premises, beta)
        return _answer(v.admissible, False, witness=v.witness, calls=v.calls)

    return oracle
