"""The hash-consed formula kernel: one node per value, cached size, hash by
identity, recursion-free deep formulas, and search results pinned at the
dataclass kernel it replaced."""
import copy
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import meetlogic
from meetlogic import presets, syntax
from meetlogic.combination import combine_signatures, embed, proj_embedded, project
from meetlogic.presets import load_preset
from meetlogic.syntax import (
    App,
    Ctor,
    Var,
    apply_substitution,
    make_signature,
    max_schema_index,
    parse_formula,
    print_formula,
    subformulas,
    variables_of,
)
from meetlogic.treetools import transliterate_shape, trees_equiv

from golden import GOLDEN, queries, results
from strategies import random_formula


def _live_nodes() -> int:
    return sum(1 for ref in syntax._apps.copy().values() if ref() is not None)


class TestInterning:
    def test_same_value_same_object_across_presets(self):
        s1, s2 = load_preset("CPL").signature, make_signature("CPL", presets._PROP_CTORS)
        assert s1 is not s2
        text = "(xi1 -> neg xi2) or (top and bot)"
        assert parse_formula(text, s1) is parse_formula(text, s2)
        assert s1.resolve("->", None, 2) is s2.resolve("->", None, 2) is Ctor("->", 2)

    def test_same_value_same_object_across_combined_signatures(self):
        cs1 = combine_signatures(load_preset("CPL").signature, load_preset("G3").signature)
        cs2 = combine_signatures(load_preset("CPL").signature, load_preset("G3").signature)
        text = "<->.CPL|->.G3>(xi1, neg.G3 xi2) ->.CPL xi1"
        f1, f2 = parse_formula(text, cs1), parse_formula(text, cs2)
        assert f1 is f2 and f1.ctor is cs2.embed_ctor(Ctor("->", 2), 1)
        assert cs1.falsum(1) is cs2.falsum(1) and cs1.top is cs2.top

    def test_copy_and_pickle_return_the_node(self):
        cs = combine_signatures(load_preset("CPL").signature, load_preset("G3").signature)
        f = parse_formula("<and.CPL|or.G3>(xi1, neg.CPL bot.G3)", cs)
        for x in (f, f.ctor, f.ctor.c1, Var(7), project(f, 2)):
            assert copy.copy(x) is x
            assert copy.deepcopy(x) is x
            assert pickle.loads(pickle.dumps(x)) is x
        assert copy.deepcopy([f, (f, 1)])[1][0] is f

    def test_nodes_are_immutable(self):
        f = parse_formula("xi1 and xi2", load_preset("CPL").signature)
        for obj, attr in ((f, "args"), (f, "size"), (f.ctor, "name"), (Var(1), "index")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
            with pytest.raises(AttributeError):
                delattr(obj, attr)

    def test_size_cached_and_hash_by_identity(self):
        sig = load_preset("IPL").signature
        f = parse_formula("(xi1 -> xi2) or neg (xi1 and top)", sig)
        assert f.size == 8
        assert hash(f) == hash(App(f.ctor, f.args))
        assert hash(f) != hash(parse_formula("(xi1 -> xi2) or neg (xi2 and top)", sig))
        cs = combine_signatures(sig, load_preset("G3").signature)
        for x in (f, Var(1), f.ctor, cs.top.ctor):
            assert hash(x) == object.__hash__(x)

    def test_memos_make_no_reference_cycles(self):
        # nodes read through a proj_embedded memo, inner nodes and the
        # component nodes they point to included, are freed by reference
        # counting alone, without the cyclic collector, once the caller's
        # memo is dropped
        cs = combine_signatures(load_preset("CPL").signature, load_preset("G3").signature)
        gc.disable()
        try:
            f = parse_formula("<and.CPL|or.G3>(xi11, neg.CPL xi12) ->.G3 <or.CPL|and.G3>(xi13, xi11)", cs)
            memo: dict = {}
            images = [proj_embedded(f, k, cs, memo) for k in (1, 2)]
            for g in [f] + images:
                for k in (1, 2):
                    proj_embedded(g, k, cs, memo)
                    project(g, k)
            combined = {g for h in [f] + images for g in subformulas(h) if g.__class__ is App}
            component = {c for g in combined for k in (1, 2) for c in subformulas(project(g, k))
                         if c.__class__ is App}
            refs = [weakref.ref(g) for g in combined | component]
            del f, images, g, combined, component, memo
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_proj_embedded_built_from_children_is_embed_of_projection(self):
        # seeded formulas share subformulas, so with one memo per combined
        # signature, shared by every formula and both sides as a search
        # shares it, most images are built from images an earlier formula
        # left; a fresh memo per call builds every image anew. A second
        # combination of the same signatures has a memo of its own.
        rng = random.Random(11)
        for l1, l2 in (("CPL", "G3"), ("CPL", "CPL"), ("IPL", "S43")):
            sig1, sig2 = load_preset(l1).signature, load_preset(l2, max_worlds=2).signature
            css = (combine_signatures(sig1, sig2), combine_signatures(sig1, sig2))
            memos = ({}, {})
            for _ in range(60):
                f = random_formula(rng, css[0], 4)
                for cs, memo in zip(css + css[:1], memos + memos[:1]):
                    for k in (2, 1):
                        want = embed(project(f, k), k, cs)
                        assert proj_embedded(f, k, cs, memo) is want
                        assert proj_embedded(f, k, cs, {}) is want

    def test_threads_intern_one_node_per_value(self, monkeypatch):
        # Each round, four threads build the same formulas at once, whose
        # nodes from the round before have died, while the table is swept
        # often; a racing replacement, insertion or sweep of a table entry
        # would hand two threads two nodes for one value.
        monkeypatch.setattr(syntax, "_SWEEP_MIN", 64)
        monkeypatch.setattr(syntax, "_sweep_at", 0)
        sig = load_preset("CPL").signature
        conj, neg = sig.resolve("and", None, 2), sig.resolve("neg", None, 1)
        threads, rounds = 4, 30
        barrier = threading.Barrier(threads, timeout=30)
        built = [[None] * threads for _ in range(rounds)]

        def work(t):
            for r in range(rounds):
                fs = []
                for v in range(10):
                    f = Var(1 + v % 3)
                    for j in range(20):
                        f = App(conj, (f, App(neg, (Var(1 + (v + j) % 4),))))
                    fs.append(f)
                built[r][t] = [id(f) for f in fs]
                barrier.wait()  # every thread holds its nodes here
                del f, fs
                barrier.wait()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        for r in range(rounds):
            assert all(ids == built[r][0] for ids in built[r]), f"round {r}"

    def test_table_shrinks_after_throwaway_formulas(self, monkeypatch):
        sig = load_preset("CPL").signature
        conj, neg = sig.resolve("and", None, 2), sig.resolve("neg", None, 1)
        gc.collect()
        sweep = syntax._sweep
        sweep()
        swept = [len(syntax._apps)]  # table sizes right after each sweep: the nodes alive then
        monkeypatch.setattr(syntax, "_sweep", lambda: (sweep(), swept.append(len(syntax._apps))))
        live_before = swept[0]
        for i in range(1000):
            f = Var(1 + i % 5)
            for j in range(100):
                f = App(conj, (f, App(neg, (Var(1 + (i + j) % 97),)))) if j % 2 else App(neg, (f,))
            assert f.size > 100
        del f
        gc.collect()
        live_after = _live_nodes()
        assert live_after <= live_before + 10
        # a sweep also keeps the formula under construction, at most 150 nodes
        assert swept[-1] <= live_before + 150
        # dead entries are swept once the table has grown by a quarter
        assert len(syntax._apps) <= swept[-1] + max(syntax._SWEEP_MIN, swept[-1] // 4) + 1

    def test_sweep_threshold_counts_the_nodes_alive_at_the_sweep(self):
        # Nodes alive at a sweep count toward the next threshold even when
        # they die right after it. Every node here has a variable of its own
        # as argument, and variables live forever, so no two nodes share a key
        # and no entry is replaced, whatever addresses are reused.
        neg = Ctor("neg", 1)
        fresh = iter(range(10**6, 2 * 10**6))
        quarter = lambda n: max(syntax._SWEEP_MIN, n // 4)
        gc.disable()
        try:
            gc.collect()
            syntax._sweep()
            live = len(syntax._apps)
            held = [App(neg, (Var(next(fresh)),)) for _ in range(500)]
            syntax._sweep()
            assert syntax._sweep_at == live + 500 + quarter(live + 500)
            del held
            while len(syntax._apps) < syntax._sweep_at:
                App(neg, (Var(next(fresh)),))
            assert _live_nodes() == live
            # the table now holds more than a quarter over the nodes alive
            assert len(syntax._apps) == live + 500 + quarter(live + 500) > live + quarter(live) + 1
            App(neg, (Var(next(fresh)),))  # swept while it is being built
            assert len(syntax._apps) == live + 1 and _live_nodes() == live
        finally:
            gc.enable()


class TestDeepFormulas:
    DEPTH = 10_000

    def chain(self, sig):
        f = Var(1)
        neg = sig.resolve("neg", None, 1)
        for _ in range(self.DEPTH):
            f = App(neg, (f,))
        return f

    def test_hash_compare_print(self):
        sig = load_preset("CPL").signature
        f, g = self.chain(sig), self.chain(sig)
        assert f is g and f == g and hash(f) == hash(g)
        assert f.size == self.DEPTH + 1
        assert {f: 1}[g] == 1
        assert print_formula(f) == "neg(" * self.DEPTH + "xi1" + ")" * self.DEPTH
        assert repr(f) == print_formula(f)

    def test_project_and_embed(self):
        cpl, g3 = load_preset("CPL").signature, load_preset("G3").signature
        cs = combine_signatures(cpl, g3)
        f = self.chain(cpl)
        e = embed(f, 1, cs)
        assert e.size == self.DEPTH + 1 and e.ctor is cs.embed_ctor(f.ctor, 1)
        assert project(e, 1) is f
        assert project(e, 2).ctor.name == "topn.1" and project(e, 2).size == self.DEPTH + 1
        assert proj_embedded(e, 1, cs, {}) is e
        assert print_formula(e) == "<neg.CPL|topn.1.G3>(" * self.DEPTH + "xi1" + ")" * self.DEPTH

    def test_shared_subterms_cost_their_distinct_nodes(self):
        """A 64-level tower t = and(t, t) has 65 distinct nodes and 2**65 - 1
        occurrences: every walk must visit the distinct nodes only, and each
        returns the tower built directly over its target."""
        cpl, g3 = load_preset("CPL").signature, load_preset("G3").signature
        cs = combine_signatures(cpl, g3)

        def tower(ctor, leaf, levels=64):
            for _ in range(levels):
                leaf = App(ctor, (leaf,) * ctor.arity)
            return leaf

        conj = cpl.resolve("and", None, 2)
        t = tower(conj, Var(1))
        assert t.size == 2 ** 65 - 1
        image = parse_formula("neg xi2 -> xi3", cpl)
        assert apply_substitution({1: image}, t) is tower(conj, image)
        assert variables_of(t) == {1} and max_schema_index(t) == 1
        e = embed(t, 1, cs)
        assert e is tower(cs.embed_ctor(conj, 1), Var(1))
        assert project(e, 1) is t and project(e, 2) is tower(g3.verum_at(2), Var(1))
        assert proj_embedded(e, 1, cs, {}) is e
        assert proj_embedded(e, 2, cs, {}) is tower(cs.embed_ctor(g3.verum_at(2), 2), Var(1))
        assert trees_equiv(t, tower(cpl.resolve("or", None, 2), Var(2)))
        neg = cpl.resolve("neg", None, 1)
        assert not trees_equiv(t, tower(conj, App(neg, (App(neg, (Var(1),)),)), 63))
        assert transliterate_shape(t, g3) is tower(g3.resolve("and", None, 2), Var(1))


class TestGoldenSearch:
    def test_derivations_match_recorded(self):
        want = json.loads(GOLDEN.read_text())
        got = results(queries())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, f"{w['calculus']}: {w['hyps']} / {w['goal']}"

    def test_outputs_independent_of_hash_seed_and_node_addresses(self):
        """Nodes hash by address, so each process first holds a different
        number of throwaway objects and formulas: its nodes then land at
        other addresses, and a set of them iterates in another order. The
        last search answers in round one from five matches of one size,
        which the pass holds in a set."""
        script = (
            "import json, random, sys\n"
            "from golden import MEET_GOALS, queries, results\n"
            "from strategies import random_formula\n"
            "from meetlogic import (Calculus, Rule, SearchBounds, brute_force_admissible, bounded_proof_search,\n"
            "                       load_preset, parse_formula, print_formula)\n"
            "from meetlogic.formats import serialize_derivation\n"
            "n = int(sys.argv[1])\n"
            "ipl = load_preset('IPL')\n"
            "rng = random.Random(n)\n"
            "held = [object() for _ in range(997 * n)]\n"
            "held += [random_formula(rng, ipl.signature, 3) for _ in range(301 * n)]\n"
            "print(json.dumps(results(queries(6, MEET_GOALS[:2]))))\n"
            "h = ipl.fixtures['harrop']\n"
            "v = brute_force_admissible(ipl, h.premises, h.conclusion)\n"
            "witness = v.witness and [(i, print_formula(f)) for i, f in v.witness]\n"
            "print(json.dumps([v.status, v.exact, v.calls, witness]))\n"
            "P = lambda text: parse_formula(text, ipl.signature)\n"
            "rules = (Rule('r', (P('xi1 or xi2'),), P('xi2')), Rule('any-or', (), P('xi3 or xi1')))\n"
            "d = bounded_proof_search(Calculus('c', ipl.signature, rules), (), [], P('xi1 and (xi2 and xi3)'),\n"
            "                         SearchBounds(depth=3))\n"
            "print(json.dumps(serialize_derivation(d)))\n"
        )
        path = os.pathsep.join([str(Path(meetlogic.__file__).parent.parent), str(Path(__file__).parent)])
        outs = [
            subprocess.run([sys.executable, "-c", script, seed], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] == outs[1] != ""
        searches, harrop, round_one = outs[0].splitlines()
        assert any(r["derivation"] for r in json.loads(searches)[-2:])
        assert json.loads(harrop) == ["inconclusive", False, 8, None]
        assert json.loads(round_one).startswith("1. or(bot, and(xi1, and(xi2, xi3))) ; RULE any-or")
