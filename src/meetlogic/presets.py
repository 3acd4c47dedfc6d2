"""Built-in logic bundles: classical, three-valued Goedel, intuitionistic,
S4.3 and GL — signatures, calculi, matrices, identity/completion profiles,
bases, and an intuitionistic theoremhood procedure.
"""
from __future__ import annotations

import itertools
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Optional

from .admissibility import Basis, combined_basis
from .calculus import Calculus, Rule, assemble_meet_calculus
from .combination import CombinedSignature
from .semantics import Matrix, holds
from .syntax import (
    FALSUM,
    Formula,
    Record,
    Signature,
    VERUM,
    Var,
    make_signature,
    parse_formula,
    verum_family_name,
)
from .treetools import CompletionProfile, IdentityProfile


class PresetError(Exception):
    pass


class LogicBundle(Record):
    """Everything the rest of the library needs to know about one logic.

    `load_preset` and `combine_bundles` hand the same bundle to every caller
    that passes equal arguments, so a bundle is frozen and compares and
    hashes by identity, and no caller writes to its dict fields
    (`identity_profiles`, `fixtures` and the completion profile's tables).
    """

    __slots__ = (
        "name",
        "signature",  # a CombinedSignature in a meet bundle
        "calculus",
        "matrices",  # finite soundness filters
        "characteristic",  # sound & complete finite matrix, if any
        "ground",  # a matrix whose values decide theoremhood of closed formulas, if any
        "theorem",  # exact theoremhood, a function of a formula, if decidable here
        "identity_profiles",  # ctor name -> IdentityProfile
        "completion_profile",
        "basis",  # a Basis or None
        "fixtures",  # name -> Rule
    )
    _defaults = {"fixtures": MappingProxyType({})}
    __eq__ = object.__eq__
    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# signatures

_PROP_CTORS = [("and", 2), ("or", 2), ("->", 2), ("iff", 2), ("neg", 1)]
_MODAL_CTORS = _PROP_CTORS + [("box", 1), ("dia", 1)]


def _tabulate(name, sig, size, designated, fns) -> Matrix:
    """Matrix on carrier 0..size-1 whose tables tabulate per-name python
    functions once; the verum family is the constant top."""
    top = fns[VERUM]()
    tables = {}
    for ctor in sig.all_ctors():
        cells = itertools.product(range(size), repeat=ctor.arity)
        if ctor.name in fns:
            tables[ctor] = [fns[ctor.name](*args) for args in cells]
        elif ctor.name == verum_family_name(ctor.arity):
            tables[ctor] = [top] * size ** ctor.arity
        else:
            raise PresetError(f"{name}: no operation for {ctor.name}")
    return Matrix(name, sig, tuple(range(size)), frozenset(designated), tables)


def godel_chain(sig: Signature, size: int, name: Optional[str] = None) -> Matrix:
    """Linear Heyting algebra on 0..size-1 with top designated."""
    top = size - 1

    def imp(a, b):
        return top if a <= b else b

    fns = {
        VERUM: lambda: top,
        FALSUM: lambda: 0,
        "and": min,
        "or": max,
        "->": imp,
        "neg": lambda a: imp(a, 0),
        "iff": lambda a, b: min(imp(a, b), imp(b, a)),
    }
    return _tabulate(name or f"chain{size}", sig, size, {top}, fns)


# ---------------------------------------------------------------------------
# Kripke frames and induced matrices

def _transitive(worlds, rel):
    return all((a, c) in rel for a, b in rel for b2, c in rel if b == b2)


def _reflexive(worlds, rel):
    return all((w, w) in rel for w in worlds)


def _irreflexive(worlds, rel):
    return all((w, w) not in rel for w in worlds)


def _weakly_connected(worlds, rel):
    for w in worlds:
        succ = [u for u in worlds if (w, u) in rel]
        for u, v in itertools.product(succ, repeat=2):
            if u != v and (u, v) not in rel and (v, u) not in rel:
                return False
    return True


_FRAME_CONSTRAINTS = {
    "s43": ((_reflexive, "reflexive"), (_transitive, "transitive"), (_weakly_connected, "weakly connected")),
    "gl": ((_transitive, "transitive"), (_irreflexive, "irreflexive")),
}


def _frame_checks(constraint: str) -> tuple:
    checks = _FRAME_CONSTRAINTS.get(constraint)
    if checks is None:
        raise PresetError(f"unknown frame constraint {constraint!r}")
    return checks


class KripkeFrame(Record):
    """`relation` is a frozenset of (w, u) pairs; `constraint` is "s43" or "gl"."""

    __slots__ = ("worlds", "relation", "constraint")

    def __init__(self, worlds: tuple, relation: frozenset, constraint: str):
        for fn, label in _frame_checks(constraint):
            if not fn(worlds, relation):
                raise PresetError(f"frame is not {label}")
        Record.__init__(self, worlds, relation, constraint)


def kripke_matrix(frame: KripkeFrame, sig: Signature) -> Matrix:
    """Powerset algebra of the frame with only the full set designated. A set
    of worlds is the bitmask with bit i set for the i-th world of the frame."""
    bit = {w: 1 << i for i, w in enumerate(frame.worlds)}
    w_all = (1 << len(frame.worlds)) - 1
    succ = {w: 0 for w in frame.worlds}
    for y, x in frame.relation:
        succ[y] |= bit[x]

    def box(u):
        return sum(bit[w] for w in frame.worlds if succ[w] & ~u == 0)

    def imp(a, b):
        return (w_all ^ a) | b

    fns = {
        VERUM: lambda: w_all,
        FALSUM: lambda: 0,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "->": imp,
        "neg": lambda a: w_all ^ a,
        "iff": lambda a, b: imp(a, b) & imp(b, a),
        "box": box,
        "dia": lambda a: w_all ^ box(w_all ^ a),
    }
    return _tabulate(f"frame{len(frame.worlds)}w", sig, w_all + 1, {w_all}, fns)


# The frames are found by trying every relation, 2^(n*n) on n worlds: 2^16
# on 4 worlds take about 0.3 s, and 2^25 on 5 would take minutes.
MAX_FRAME_WORLDS = 4


def generate_frames(constraint: str, max_worlds: int) -> list:
    """All frames on 1..max_worlds worlds satisfying the constraint, in a
    fixed order. `max_worlds` is at most `MAX_FRAME_WORLDS`."""
    checks = _frame_checks(constraint)
    if max_worlds > MAX_FRAME_WORLDS:
        raise PresetError(f"max worlds must be at most {MAX_FRAME_WORLDS} on Kripke frames, got {max_worlds}")
    out = []
    for n in range(1, max_worlds + 1):
        worlds = tuple(range(n))
        pairs = list(itertools.product(worlds, repeat=2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            rel = frozenset(p for p, b in zip(pairs, bits) if b)
            if all(fn(worlds, rel) for fn, _ in checks):
                out.append(KripkeFrame(worlds, rel, constraint))
    return out


# ---------------------------------------------------------------------------
# intuitionistic theoremhood (terminating contraction-free sequent search)

# Normal-form tags are ints, not strings: int hashes do not depend on
# PYTHONHASHSEED, so the prover explores sequents in the same order in
# every process.
_ATOM, _AND, _OR, _IMP = 0, 1, 2, 3
_TOP = (4,)
_BOT = (5,)
_TAGS = {"and": _AND, "or": _OR, "->": _IMP}


# `_ipl_norm` and `_g4ip` recurse (the allowlist of
# tests/test_recursion.py) until ROADMAP item 4 rewrites the prover. Ported
# onto `syntax.postorder`, `_ipl_norm` took 2.7 times as long on seeded
# depth 2-5 formulas.
def _ipl_norm(f: Formula):
    if isinstance(f, Var):
        return (_ATOM, f.index)
    name, n = f.ctor.name, f.ctor.arity
    if n == 0:
        return _BOT if name == FALSUM else _TOP
    if name == verum_family_name(n):
        return _TOP
    args = tuple(_ipl_norm(a) for a in f.args)
    if name == "neg":
        return (_IMP, args[0], _BOT)
    if name == "iff":
        return (_AND, (_IMP, args[0], args[1]), (_IMP, args[1], args[0]))
    if name in _TAGS:
        return (_TAGS[name], *args)
    raise PresetError(f"constructor {name!r} is outside the intuitionistic language")


@lru_cache(maxsize=200000)
def _g4ip(gamma: frozenset, goal) -> bool:
    if goal == _TOP or _BOT in gamma or goal in gamma:
        return True
    for h in gamma:
        rest = gamma - {h}
        tag = h[0]
        if h == _TOP:
            return _g4ip(rest, goal)
        if tag == _AND:
            return _g4ip(rest | {h[1], h[2]}, goal)
        if tag == _OR:
            return _g4ip(rest | {h[1]}, goal) and _g4ip(rest | {h[2]}, goal)
        if tag == _IMP:
            a, b = h[1], h[2]
            if a == _TOP:
                return _g4ip(rest | {b}, goal)
            if a == _BOT:
                return _g4ip(rest, goal)
            if a[0] == _ATOM and a in gamma:
                return _g4ip(rest | {b}, goal)
            if a[0] == _AND:
                return _g4ip(rest | {(_IMP, a[1], (_IMP, a[2], b))}, goal)
            if a[0] == _OR:
                return _g4ip(rest | {(_IMP, a[1], b), (_IMP, a[2], b)}, goal)
    if goal[0] == _AND:
        return _g4ip(gamma, goal[1]) and _g4ip(gamma, goal[2])
    if goal[0] == _IMP:
        return _g4ip(gamma | {goal[1]}, goal[2])
    # non-invertible choices
    if goal[0] == _OR and (_g4ip(gamma, goal[1]) or _g4ip(gamma, goal[2])):
        return True
    for h in gamma:
        if h[0] == _IMP and h[1][0] == _IMP:
            rest = gamma - {h}
            c, d, b = h[1][1], h[1][2], h[2]
            if _g4ip(rest | {(_IMP, d, b)}, (_IMP, c, d)) and _g4ip(rest | {b}, goal):
                return True
    return False


def ipl_theorem(f: Formula) -> bool:
    """Exact intuitionistic theoremhood."""
    return _g4ip(frozenset(), _ipl_norm(f))


def ipl_consequence(hyps, f: Formula) -> bool:
    return _g4ip(frozenset(_ipl_norm(h) for h in hyps), _ipl_norm(f))


# ---------------------------------------------------------------------------
# calculi

def _rules(sig, specs) -> tuple:
    P = lambda s: parse_formula(s, sig)
    out = []
    for name, premises, conclusion in specs:
        out.append(Rule(name, tuple(P(p) for p in premises), P(conclusion)))
    return tuple(out)


_INT_CORE = [
    ("mp", ("xi1", "xi1 -> xi2"), "xi2"),
    ("a1", (), "xi1 -> (xi2 -> xi1)"),
    ("a2", (), "(xi1 -> (xi2 -> xi3)) -> ((xi1 -> xi2) -> (xi1 -> xi3))"),
    ("a3", (), "(xi1 and xi2) -> xi1"),
    ("a4", (), "(xi1 and xi2) -> xi2"),
    ("a5", (), "xi1 -> (xi2 -> (xi1 and xi2))"),
    ("a6", (), "xi1 -> (xi1 or xi2)"),
    ("a7", (), "xi2 -> (xi1 or xi2)"),
    ("a8", (), "(xi1 -> xi3) -> ((xi2 -> xi3) -> ((xi1 or xi2) -> xi3))"),
    ("efq", (), "bot -> xi1"),
    ("neg-intro", (), "(xi1 -> xi2) -> ((xi1 -> neg xi2) -> neg xi1)"),
    ("neg-elim", (), "(neg xi1) -> (xi1 -> xi2)"),
    ("iff-elim1", (), "(xi1 iff xi2) -> (xi1 -> xi2)"),
    ("iff-elim2", (), "(xi1 iff xi2) -> (xi2 -> xi1)"),
    ("iff-intro", (), "(xi1 -> xi2) -> ((xi2 -> xi1) -> (xi1 iff xi2))"),
    ("truth", (), "top"),
]

_DNE = [("dne", (), "(neg (neg xi1)) -> xi1")]
_LIN = [("lin", (), "(xi1 -> xi2) or (xi2 -> xi1)")]
_MODAL_S43 = [
    ("k", (), "box (xi1 -> xi2) -> (box xi1 -> box xi2)"),
    ("t", (), "box xi1 -> xi1"),
    ("four", (), "box xi1 -> box (box xi1)"),
    ("conn", (), "box ((box xi1) -> xi2) or box ((box xi2) -> xi1)"),
    ("dia-def", (), "(dia xi1) iff (neg (box (neg xi1)))"),
    ("nec", ("xi1",), "box xi1"),
]
_MODAL_GL = [
    ("k", (), "box (xi1 -> xi2) -> (box xi1 -> box xi2)"),
    ("loeb", (), "box ((box xi1) -> xi1) -> box xi1"),
    ("four", (), "box xi1 -> box (box xi1)"),
    ("dia-def", (), "(dia xi1) iff (neg (box (neg xi1)))"),
    ("nec", ("xi1",), "box xi1"),
]


# ---------------------------------------------------------------------------
# profiles

_PROP_UNARY = {
    "neg": {VERUM: ("neg", FALSUM), FALSUM: ("neg", VERUM)},
}
_PROP_BINARY = {
    "and": {VERUM: ("and", (VERUM, VERUM)), FALSUM: ("and", (VERUM, FALSUM))},
    "or": {VERUM: ("or", (VERUM, VERUM)), FALSUM: ("or", (FALSUM, FALSUM))},
    "->": {VERUM: ("->", (VERUM, VERUM)), FALSUM: ("->", (VERUM, FALSUM))},
    "iff": {VERUM: ("iff", (VERUM, VERUM)), FALSUM: ("iff", (VERUM, FALSUM))},
}

_S43_UNARY = dict(_PROP_UNARY)
_S43_UNARY.update({
    "box": {VERUM: ("box", VERUM), FALSUM: ("box", FALSUM)},
    "dia": {VERUM: ("dia", VERUM), FALSUM: ("dia", FALSUM)},
})
# Provability logic proves neither box-falsum nor its negation, so the falsum
# route for box (and both routes for dia) go through negation instead.
_GL_UNARY = dict(_PROP_UNARY)
_GL_UNARY.update({
    "box": {VERUM: ("box", VERUM), FALSUM: ("neg", VERUM)},
    "dia": {VERUM: ("neg", FALSUM), FALSUM: ("neg", VERUM)},
})


# ---------------------------------------------------------------------------
# bases

def visser_rule(sig: Signature, n: int) -> Rule:
    """The n-th rule of the intuitionistic basis family.

    Variables: xi_1..xi_n and xi_{n+2+i} form the implications, xi_{n+1} and
    xi_{n+2} the disjunctive consequent, xi_{2n+3} the side disjunct.
    """
    P = lambda s: parse_formula(s, sig)
    imps = [f"(xi{i} -> xi{n + 2 + i})" for i in range(1, n + 1)]
    ante = " and ".join(imps) if len(imps) > 1 else imps[0]
    side = f"xi{2 * n + 3}"
    premise = f"(({ante}) -> (xi{n + 1} or xi{n + 2})) or {side}"
    disjuncts = [f"(({ante}) -> xi{j})" for j in range(1, n + 3)]
    conclusion = "(" + " or ".join(disjuncts) + f") or {side}"
    return Rule(f"visser{n}", (P(premise),), P(conclusion))


def gl_basis_rule(sig: Signature, n: int) -> Rule:
    """The n-th rule of the provability-logic basis family.

    Variables: xi_1..xi_n, with xi_{n+1} the boxed pivot and xi_{n+2} the side
    disjunct.
    """
    P = lambda s: parse_formula(s, sig)
    piv = f"xi{n + 1}"
    side = f"xi{n + 2}"
    boxes = " or ".join(f"box xi{i}" for i in range(1, n + 1))
    premise = f"box ((box {piv}) -> ({boxes})) or (box {side})"
    disjuncts = " or ".join(f"box (({piv} and (box {piv})) -> xi{i})" for i in range(1, n + 1))
    conclusion = f"({disjuncts}) or {side}"
    return Rule(f"glb{n}", (P(premise),), P(conclusion))


def harrop_rule(sig: Signature) -> Rule:
    P = lambda s: parse_formula(s, sig)
    return Rule(
        "harrop",
        (P("(neg xi1) -> (xi2 or xi3)"),),
        P("((neg xi1) -> xi2) or ((neg xi1) -> xi3)"),
    )


# ---------------------------------------------------------------------------
# bundle assembly

DEFAULT_SCHEMA_BOUND = 3
DEFAULT_MAX_WORLDS = 2
PRESET_NAMES = ("CPL", "G3", "IPL", "S43", "GL")


def load_preset(name: str, schema_bound: int = DEFAULT_SCHEMA_BOUND,
                max_worlds: int = DEFAULT_MAX_WORLDS) -> LogicBundle:
    """The bundle of a built-in logic. Basis families run to `schema_bound`
    and Kripke frames to `max_worlds` worlds; both must be at least 1, and
    S43 and GL take at most `MAX_FRAME_WORLDS` worlds.

    A bundle is built once per process for each `(name, schema_bound,
    max_worlds)`: equal arguments return the same shared, frozen bundle.
    Errors are raised again on every call, never cached.
    """
    if schema_bound < 1:
        raise PresetError(f"schema bound must be at least 1, got {schema_bound}")
    if max_worlds < 1:
        raise PresetError(f"max worlds must be at least 1, got {max_worlds}")
    return _load(name, schema_bound, max_worlds)


def _bundle(sig: Signature, axioms: list, matrices: tuple, characteristic: Optional[Matrix] = None,
            theorem=None, unary: dict = _PROP_UNARY, basis=(),
            fixtures=MappingProxyType({})) -> LogicBundle:
    """A preset's bundle, named by its signature's tag. A preset is
    structurally complete exactly when it has a characteristic matrix, which
    then decides its theorems. A preset that decides its theorems has its
    first matrix as ground matrix: the characteristic one, or IPL's
    two-element chain, since every closed formula is intuitionistically
    equivalent to top or bot and its value there says which. Every preset
    shares the identity profiles and the binary completion tables; `unary`
    gives its unary ones."""
    name = sig.tag
    if characteristic is not None:
        theorem = partial(holds, characteristic)
    return LogicBundle(
        name=name, signature=sig, calculus=Calculus(name, sig, _rules(sig, axioms), matrices=matrices),
        matrices=matrices, characteristic=characteristic, ground=matrices[0] if theorem else None,
        theorem=theorem,
        identity_profiles={
            "and": IdentityProfile("and", 2, 1, (VERUM,)),
            "->": IdentityProfile("->", 2, 2, (VERUM,)),
        },
        completion_profile=CompletionProfile(sig, dict(unary), dict(_PROP_BINARY)),
        basis=Basis(name, tuple(basis)), fixtures=fixtures,
    )


@lru_cache(maxsize=32)
def _load(name: str, schema_bound: int, max_worlds: int) -> LogicBundle:
    if name not in PRESET_NAMES:
        raise PresetError(f"unknown preset {name!r} (expected CPL, G3, IPL, S43 or GL)")
    sig = make_signature(name, _MODAL_CTORS if name in ("S43", "GL") else _PROP_CTORS)
    if name == "CPL":
        char = godel_chain(sig, 2, "bool2")
        return _bundle(sig, _INT_CORE + _DNE, (char,), characteristic=char)
    if name == "G3":
        char = godel_chain(sig, 3, "g3")
        return _bundle(sig, _INT_CORE + _LIN, (char,), characteristic=char)
    if name == "IPL":
        chains = tuple(godel_chain(sig, k) for k in range(2, 6))
        return _bundle(sig, _INT_CORE, chains, theorem=ipl_theorem,
                       basis=[visser_rule(sig, n) for n in range(1, schema_bound + 1)],
                       fixtures={"harrop": harrop_rule(sig)})
    matrices = tuple(kripke_matrix(fr, sig) for fr in generate_frames(name.lower(), max_worlds))
    if name == "S43":
        P = lambda s: parse_formula(s, sig)
        return _bundle(sig, _INT_CORE + _DNE + _MODAL_S43, matrices, unary=_S43_UNARY,
                       basis=[Rule("s43b", (P("(dia xi1) and (dia (neg xi1))"),), P("bot"))],
                       fixtures={"non-admissible": Rule("t-collapse", (P("(box xi1) -> xi1"),), P("xi1"))})
    return _bundle(sig, _INT_CORE + _DNE + _MODAL_GL, matrices, unary=_GL_UNARY,
                   basis=[gl_basis_rule(sig, n) for n in range(1, schema_bound + 1)])


@lru_cache(maxsize=64)
def combine_bundles(b1: LogicBundle, b2: LogicBundle) -> LogicBundle:
    """The meet of two bundles, itself a bundle, built once per pair. Its one
    matrix is its calculus's model (`Calculus.models`): the product of each
    side's first matrix in which that side's rules are sound. A meet without
    a model has no matrix. It has no characteristic or ground matrix and no
    theorem procedure."""
    for b in (b1, b2):
        if isinstance(b.signature, CombinedSignature):
            raise PresetError(f"nested meets are not supported yet: {b.name} is itself a meet")
    cs = CombinedSignature(b1.signature, b2.signature)
    calc = assemble_meet_calculus(b1.calculus, b2.calculus, cs)
    return LogicBundle(
        name=f"meet({b1.name},{b2.name})", signature=cs, calculus=calc, matrices=calc.models,
        characteristic=None, ground=None, theorem=None,
        identity_profiles={}, completion_profile=CompletionProfile(cs, {}, {}),
        basis=combined_basis(b1.basis, b2.basis, cs),
    )
