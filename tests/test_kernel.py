"""The hash-consed formula kernel: one node per value, cached size and hash,
recursion-free deep formulas, and search results pinned at the dataclass
kernel it replaced."""
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
from meetlogic.syntax import App, Ctor, Var, make_signature, parse_formula, print_formula, subformulas

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

    def test_size_and_hash_cached_and_structural(self):
        sig = load_preset("IPL").signature
        f = parse_formula("(xi1 -> xi2) or neg (xi1 and top)", sig)
        assert f.size == 8
        assert hash(f) == hash(App(f.ctor, f.args))
        assert hash(f) != hash(parse_formula("(xi1 -> xi2) or neg (xi2 and top)", sig))

    def test_memos_make_no_reference_cycles(self):
        # nodes with filled project/proj_embedded memos, inner nodes and the
        # component nodes they point to included, are freed by reference
        # counting alone, without the cyclic collector
        cs = combine_signatures(load_preset("CPL").signature, load_preset("G3").signature)
        gc.disable()
        try:
            f = parse_formula("<and.CPL|or.G3>(xi11, neg.CPL xi12) ->.G3 <or.CPL|and.G3>(xi13, xi11)", cs)
            images = [proj_embedded(f, k, cs) for k in (1, 2)]
            for g in [f] + images:
                for k in (1, 2):
                    proj_embedded(g, k, cs)
                    project(g, k)
            combined = {g for h in [f] + images for g in subformulas(h) if g.__class__ is App}
            assert all(g._pe[0] is cs for g in combined)
            component = {c for g in combined for k in (1, 2) for c in subformulas(project(g, k))
                         if c.__class__ is App}
            refs = [weakref.ref(g) for g in combined | component]
            del f, images, g, combined, component
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_proj_embedded_built_from_children_is_embed_of_projection(self):
        # seeded formulas share subformulas, so most images are built from
        # memos filled by earlier formulas; a second combination of the same
        # signatures makes every memo be rebuilt for it and then again
        rng = random.Random(11)
        for l1, l2 in (("CPL", "G3"), ("CPL", "CPL"), ("IPL", "S43")):
            sig1, sig2 = load_preset(l1).signature, load_preset(l2, max_worlds=2).signature
            css = (combine_signatures(sig1, sig2), combine_signatures(sig1, sig2))
            for _ in range(60):
                f = random_formula(rng, css[0], 4)
                for cs in css + css[:1]:
                    for k in (2, 1):
                        assert proj_embedded(f, k, cs) is embed(project(f, k), k, cs)

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

    def test_table_shrinks_after_throwaway_formulas(self):
        sig = load_preset("CPL").signature
        conj, neg = sig.resolve("and", None, 2), sig.resolve("neg", None, 1)
        gc.collect()
        live_before = _live_nodes()
        for i in range(1000):
            f = Var(1 + i % 5)
            for j in range(100):
                f = App(conj, (f, App(neg, (Var(1 + (i + j) % 97),)))) if j % 2 else App(neg, (f,))
            assert f.size > 100
        del f
        gc.collect()
        live_after = _live_nodes()
        assert live_after <= live_before + 10
        # dead entries are swept once the table has grown by a quarter
        assert len(syntax._apps) <= live_after + max(syntax._SWEEP_MIN, live_after // 4) + 1


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
        assert proj_embedded(e, 1, cs) is e
        assert print_formula(e) == "<neg.CPL|topn.1.G3>(" * self.DEPTH + "xi1" + ")" * self.DEPTH


class TestGoldenSearch:
    def test_derivations_match_recorded(self):
        want = json.loads(GOLDEN.read_text())
        got = results(queries())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w, f"{w['calculus']}: {w['hyps']} / {w['goal']}"

    def test_hashes_and_derivations_independent_of_hash_seed(self):
        script = (
            "import json\n"
            "from golden import MEET_GOALS, queries, results\n"
            "qs = queries(6, MEET_GOALS[:2])\n"
            "print(json.dumps([hash(goal) for _, _, goal, _ in qs]))\n"
            "print(json.dumps(results(qs)))\n"
        )
        path = os.pathsep.join([str(Path(meetlogic.__file__).parent.parent), str(Path(__file__).parent)])
        outs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")
        ]
        assert outs[0] == outs[1] != ""
        assert any(r["derivation"] for r in json.loads(outs[0].splitlines()[1])[-2:])
