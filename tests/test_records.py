"""The value types are plain immutable records: what importing the package
loads, and the construction, equality, hashing and immutability of every
record class."""
import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meetlogic.admissibility import (
    AdmissibilityVerdict,
    Basis,
    BruteForceBounds,
    CompletenessReport,
    _ground_values,
    brute_force_admissible,
)
from meetlogic.calculus import (
    Calculus,
    Clft,
    Derivation,
    Fx,
    Hyp,
    Lft,
    Line,
    Rule,
    RuleApp,
    SearchBounds,
    Verdict,
)
from meetlogic.combination import CombinedSignature
from meetlogic.presets import _PROP_CTORS, KripkeFrame, LogicBundle, godel_chain, load_preset
from meetlogic.semantics import Matrix
from meetlogic.syntax import Signature, Var, make_signature, parse_formula
from meetlogic.treetools import CompletionProfile, IdentityProfile

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_inspect():
    """A fresh interpreter with what a CLI process has loaded before it
    (typing, argparse, json, re) imports the package without `dataclasses`
    or `inspect`."""
    code = ("import sys, typing, argparse, json, re\n"
            "import meetlogic, meetlogic.cli, meetlogic.formats\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


CPL = load_preset("CPL")
SIG = CPL.signature


def P(s):
    return parse_formula(s, SIG)


def _sig():
    return make_signature("CPL", _PROP_CTORS)


def _bool2():
    return godel_chain(SIG, 2, "bool2")


def _rule():
    return Rule("mp", (P("xi1"), P("xi1 -> xi2")), P("xi2"))


# (class, fresh keyword arguments in parameter order, whether hashable,
# {parameter equality ignores: another value}, (a compared parameter, another value))
RECORDS = [
    (Signature, lambda: {"tag": "CPL", "by_arity": _sig().by_arity}, False, {}, ("tag", "CPL2")),
    (CombinedSignature, lambda: {"sig1": _sig(), "sig2": make_signature("G3", _PROP_CTORS)}, False, {},
     ("sig1", make_signature("IPL", _PROP_CTORS))),
    (Matrix, lambda: {"name": "bool2", "signature": SIG, "carrier": (0, 1), "designated": frozenset({1}),
                      "tables": dict(CPL.characteristic.tables), "factors": ()},
     False, {"factors": (CPL.characteristic,)}, ("name", "other")),
    (Rule, lambda: {"name": "mp", "premises": (P("xi1"), P("xi1 -> xi2")), "conclusion": P("xi2")}, True, {},
     ("conclusion", P("xi1"))),
    (Calculus, lambda: {"name": "C", "signature": SIG, "rules": (_rule(),), "matrices": (), "components": ()},
     False, {"matrices": (CPL.characteristic,), "components": (CPL.calculus, CPL.calculus)}, ("rules", ())),
    (Hyp, lambda: {}, True, {}, None),
    (RuleApp, lambda: {"rule": "mp", "cites": (1, 2), "subst": ((1, Var(1)),)}, True, {}, ("cites", (2, 1))),
    (Lft, lambda: {"cites": (1, 2)}, True, {}, ("cites", (2, 1))),
    (Clft, lambda: {"cites": (1,), "side": 2}, True, {}, ("side", 1)),
    (Fx, lambda: {"cites": (3,)}, True, {}, ("cites", (2,))),
    (Line, lambda: {"formula": P("xi1"), "just": Hyp()}, True, {}, ("just", Fx((1,)))),
    (Derivation, lambda: {"lines": (Line(P("xi1"), Hyp()),)}, True, {}, ("lines", ())),
    (Verdict, lambda: {"ok": False, "line": 2, "reason": "bad"}, True, {}, ("line", 3)),
    (SearchBounds, lambda: {"depth": 3, "max_size": 20, "max_facts": 100, "max_candidates": 5}, True, {},
     ("max_facts", 99)),
    (AdmissibilityVerdict, lambda: {"status": "not-admissible", "exact": True, "witness": ((1, P("top")),),
                                    "calls": 3, "trace": ()}, True, {"calls": 7, "trace": ("a1=1",)},
     ("witness", None)),
    (BruteForceBounds, lambda: {"depth": 1, "max_candidates": 4}, True, {}, ("depth", 2)),
    (Basis, lambda: {"provenance": "CPL", "rules": (_rule(),)}, True, {}, ("rules", ())),
    (CompletenessReport, lambda: {"checked": 3, "agreements": 1, "not_admissible": 1, "inconclusive": 1,
                                  "flagged": (_rule(),)}, True, {}, ("inconclusive", 0)),
    (IdentityProfile, lambda: {"ctor": "and", "arity": 2, "position": 1, "fillers": ("top",)}, True, {},
     ("position", 2)),
    (CompletionProfile, lambda: {"signature": SIG, "unary": {"neg": {}}, "binary": {}}, False, {},
     ("unary", {})),
    (KripkeFrame, lambda: {"worlds": (0, 1), "relation": frozenset({(0, 0), (0, 1), (1, 1)}),
                           "constraint": "s43"}, True, {}, ("worlds", (1, 0))),
]


@pytest.mark.parametrize("cls, make, hashable, ignored, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecordSemantics:
    def test_keyword_and_positional_construction_agree(self, cls, make, hashable, ignored, other):
        kwargs = make()
        a, b = cls(**kwargs), cls(*make().values())
        assert a == b and not a != b
        for name, value in kwargs.items():
            assert getattr(a, name) is value

    def test_equal_values_hash_equal(self, cls, make, hashable, ignored, other):
        a, b = cls(**make()), cls(**make())
        assert a == b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_ignored_fields_change_neither(self, cls, make, hashable, ignored, other):
        a = cls(**make())
        for name, value in ignored.items():
            b = cls(**{**make(), name: value})
            assert getattr(b, name) is value and a == b
            if hashable:
                assert hash(a) == hash(b)

    def test_compared_fields_change_equality(self, cls, make, hashable, ignored, other):
        a = cls(**make())
        assert a != object()
        if other is not None:
            name, value = other
            assert a != cls(**{**make(), name: value})

    def test_assignment_raises(self, cls, make, hashable, ignored, other):
        a = cls(**make())
        name = next(iter(make()), "anything")
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)

    def test_copy_is_equal(self, cls, make, hashable, ignored, other):
        a = cls(**make())
        assert copy.copy(a) == a


def test_excluded_parser_cache_changes_nothing():
    a, b = _sig(), _sig()
    parse_formula("xi1 and xi2", a)
    assert a._resolved and not b._resolved and a == b
    cs1 = CombinedSignature(_sig(), make_signature("G3", _PROP_CTORS))
    cs2 = CombinedSignature(_sig(), make_signature("G3", _PROP_CTORS))
    parse_formula("<and.CPL|or.G3>(xi1, xi2)", cs1)
    assert cs1._resolved and not cs2._resolved and cs1 == cs2


def test_derived_matrix_fields_take_no_part():
    m, n = _bool2(), _bool2()
    assert m.index == {0: 0, 1: 1} and m.designated_flags == (False, True)
    assert m == n and m.index is not n.index
    assert "index" not in repr(m) and "factors" not in repr(m)


def test_defaults():
    assert SearchBounds() == SearchBounds(6, 30, 3000, 14) == SearchBounds(depth=6)
    assert SearchBounds(depth=4).max_facts == 3000
    assert BruteForceBounds() == BruteForceBounds(2, 8)
    assert Verdict(True) == Verdict(True, None, None) and Verdict(False, line=3).reason is None
    v = AdmissibilityVerdict("admissible", True)
    assert v.witness is None and v.calls == 0 and v.trace == () and bool(v)
    c = Calculus("C", SIG, ())
    assert c.matrices == () and c.components == ()
    assert Matrix("m", SIG, (0, 1), frozenset({1}), CPL.characteristic.tables).factors == ()
    assert load_preset("G3").fixtures == {}


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Line(P("xi1"))
    with pytest.raises(TypeError):
        Line(P("xi1"), Hyp(), None)
    with pytest.raises(TypeError):
        BruteForceBounds(depth=1, width=2)


def test_validation_keeps_its_messages():
    with pytest.raises(ValueError, match="search bound max_facts must be at least 1, got 0"):
        SearchBounds(max_facts=0)
    with pytest.raises(ValueError, match="search bound depth must be at least 0, got -1"):
        SearchBounds(-1)
    from meetlogic.semantics import SemanticsError
    with pytest.raises(SemanticsError, match="matrix m: empty designated set"):
        Matrix("m", SIG, (0, 1), frozenset(), CPL.characteristic.tables)
    with pytest.raises(SemanticsError, match="matrix m: top must be designated"):
        Matrix("m", SIG, (0, 1), frozenset({0}), CPL.characteristic.tables)


def test_bundles_compare_by_identity():
    b = load_preset("IPL")
    twin = LogicBundle(*[getattr(b, f) for f in (
        "name", "signature", "calculus", "matrices", "characteristic", "ground", "theorem",
        "identity_profiles", "completion_profile", "basis", "fixtures")])
    assert twin != b and b == b and hash(b) == object.__hash__(b)
    assert twin.fixtures is b.fixtures
    with pytest.raises(AttributeError):
        b.name = "x"


def test_ground_values_cache_hits_on_the_same_bundle():
    ipl = load_preset("IPL")
    rule = ipl.fixtures["harrop"]
    brute_force_admissible(ipl, rule.premises, rule.conclusion)
    hits = _ground_values.cache_info().hits
    brute_force_admissible(ipl, rule.premises, rule.conclusion)
    assert _ground_values.cache_info().hits == hits + 1
