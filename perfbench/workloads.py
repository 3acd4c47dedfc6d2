"""The three workloads: ``search``, ``decide`` and ``cli-batch``.

A workload names its query kinds in the fixed order of one cycle, sets up what
its queries need, generates a query from a pool item, runs it through
meetlogic's public functions (inside spans), and checks the result against the
correctness gate afterwards. Everything timed is meetlogic's work: input text
is generated and written before a query starts, and reference checks run after
the timed loop.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter

import gen
import ref

SEARCH_MEETS = (("CPL", "CPL"), ("CPL", "G3"), ("IPL", "S43"))
CHAIN_MEETS = (("CPL", "CPL"), ("CPL", "G3"))


class Outcome:
    """What one query produced. ``decided``: a checked derivation or an exact
    verdict. ``error``: why the query failed, or None. ``answer``: the verdict
    compared with the answers recorded at the seed commit. ``data``: what the
    gate needs."""

    __slots__ = ("decided", "error", "answer", "data")

    def __init__(self, decided=False, error=None, answer=None, data=None):
        self.decided, self.error, self.answer, self.data = decided, error, answer, data


def _meet_key(pair):
    return f"{pair[0]}x{pair[1]}"


class Workload:
    name = ""
    cycle: tuple = ()
    pool_size = 0  # items per kind
    strata: dict = {}  # kind -> number of item shapes, drawn in rotation
    recorded: frozenset = frozenset()
    warmup_cycles = 1
    rate = 1.0  # cycles per second at the seed commit and reference speed; sizes a run

    def __init__(self):
        self.counts = Counter()

    def setup(self, tr):
        raise NotImplementedError

    def item(self, kind, i):
        """Query ``i`` of a kind's pool; its shape is fixed by ``i % strata``."""
        raise NotImplementedError

    def run(self, kind, spec, tr):
        raise NotImplementedError

    def gate(self, kind, spec, out):
        """Wrong verdicts of one finished query, as messages."""
        return []

    def prepare(self, spec):
        """Untimed work before a query starts, such as writing its input files."""

    def account(self, kind, spec):
        """Counts computed from a query's inputs, in traced runs only."""

    def instrument(self, tr):
        return contextlib.nullcontext()

    def _parse(self, tr, tree, sig, tags=None):
        """Emit a generated tree as text and parse it with meetlogic."""
        from meetlogic import parse_formula

        if tr.on:
            self.counts["parse_nodes"] += gen.size(tree)
        with tr.span("syntax.parse"):
            return parse_formula(gen.text(tree, tags), sig)


# ---------------------------------------------------------------------------
# search

class Search(Workload):
    """Proof search in components and meet calculi, template builders, and the
    checker, mutant and file round trip every derivation goes through."""

    name = "search"
    cycle = ("comp_or", "comp_imp", "comp_proj", "template", "meet")
    pool_size = 6000
    strata = {"comp_or": 9, "comp_imp": 9, "comp_proj": 12, "template": 12, "meet": 12}
    warmup_cycles = 1
    rate = 0.64
    MEET_GOALS = ("readme", "consistency", "axiom", "identity")
    GUARDS = ("falsum1", "falsum2", "var")

    def setup(self, tr):
        from meetlogic import (assemble_meet_calculus, combine_signatures, load_preset)

        with tr.span("presets.load"):
            self.bundles = {n: load_preset(n) for n in ("CPL", "G3", "IPL")}
            self.bundles["S43"] = load_preset("S43", max_worlds=2)
            self.bundles["CPL2"] = load_preset("CPL")
        self.meets = {}
        for l1, l2 in SEARCH_MEETS:
            b1 = self.bundles[l1]
            b2 = self.bundles["CPL2" if (l1, l2) == ("CPL", "CPL") else l2]
            cs = combine_signatures(b1.signature, b2.signature)
            with tr.span("calculus.assemble"):
                calc = assemble_meet_calculus(b1.calculus, b2.calculus, cs)
            self.meets[_meet_key((l1, l2))] = (b1, b2, cs, calc, (cs.tag1, cs.tag2), (l1, l2))
        self.markers: dict = {}

    def item(self, kind, i):
        rng = gen.item_rng(f"search.{kind}", i)
        s = i % self.strata[kind]
        mut = rng.randrange(1 << 30)
        if kind in ("comp_or", "comp_imp"):
            logic = ("CPL", "G3", "IPL")[s % 3]
            return {"logic": logic, "mut": mut, "alpha": gen.shaped(rng, s // 3, logic=logic)}
        if kind in ("comp_proj", "template"):
            pair = CHAIN_MEETS[s % 2]
            spec = {"meet": pair, "k": 1 + (s // 2) % 2, "mut": mut,
                    "alpha": gen.shaped(rng, s // 4, logics=pair)}
            if kind == "template":
                spec["mode"] = ("both", "vacuous")[rng.randrange(2)]
            return spec
        pair = SEARCH_MEETS[s % 3]
        goal_kind = self.MEET_GOALS[s // 3]
        small = [rng.randint(1, 2), ("neg", (rng.randint(1, 2),))]
        a, b = (rng.choice(small) for _ in range(2))
        k = rng.randint(1, 2)
        spec = {"meet": pair, "goal_kind": goal_kind, "mut": mut}
        if goal_kind == "readme":
            spec["goal"] = (("->", "->"), (1, 1))
        elif goal_kind == "identity":
            spec["goal"] = (("->", "->"), (gen.embed(a, k),) * 2)
        elif goal_kind == "axiom":
            spec.update(comp=("->", (a, ("->", (b, a)))), k=k)
            spec["goal"] = gen.embed(spec["comp"], k)
        return spec

    # -- helpers ---------------------------------------------------------

    def _search(self, tr, calc, hyps, goal, depth, span):
        from meetlogic import SearchBounds, bounded_proof_search

        with tr.span(span):
            d = bounded_proof_search(calc, (), hyps, goal, SearchBounds(depth=depth) if depth else SearchBounds())
        self.counts["search_found" if d is not None else "search_inconclusive"] += 1
        return d

    def _marker(self, sig, tags, avoid):
        """A formula no derivation line can be justified as: iff(bot, bot),
        or and(bot, bot) where the line already is the first."""
        from meetlogic import parse_formula

        if tags not in self.markers:
            texts = [f"{name}(bot, bot)" if tags is None else
                     f"<{name}.{tags[0]}|{name}.{tags[1]}>(<bot.{tags[0]}|bot.{tags[1]}>, "
                     f"<bot.{tags[0]}|bot.{tags[1]}>)" for name in ("iff", "and")]
            self.markers[tags] = [parse_formula(t, sig) for t in texts]
        first, second = self.markers[tags]
        return second if first == avoid else first

    def _through_checks(self, tr, d, calc, hyps, sig, tags, mut, data):
        """Checker, one-line mutant, and serialize -> parse round trip."""
        from meetlogic import check_derivation, print_formula
        from meetlogic.calculus import Derivation, Line
        from meetlogic.formats import parse_derivation_file, serialize_derivation

        with tr.span("calculus.check"):
            verdict = check_derivation(d, calc, hyps=hyps)
        idx = mut % len(d)
        lines = list(d.lines)
        lines[idx] = Line(self._marker(sig, tags, lines[idx].formula), lines[idx].just)
        with tr.span("calculus.check"):
            mv = check_derivation(Derivation(tuple(lines)), calc, hyps=hyps)
        self.counts["derivation_lines"] += len(d)
        self.counts["checked_lines"] += 2 * len(d)
        mutant_ok = not mv.ok and mv.line == idx + 1
        self.counts["mutants_rejected"] += mutant_ok
        data.update(checked=verdict.ok, reason=verdict.reason, mutant_ok=mutant_ok,
                    mutant_line=idx + 1, mutant_verdict=(mv.ok, mv.line))
        with tr.span("syntax.print"):
            data["conclusion"] = print_formula(d.conclusion)
        with tr.span("formats.serialize"):
            text = serialize_derivation(d)
        error = None
        try:
            with tr.span("formats.parse"):
                back = parse_derivation_file(text, sig)
            if back != d:
                error = "round trip: derivation read back differs"
        except Exception as exc:  # the program's own output must read back
            error = f"round trip: {type(exc).__name__}: {exc}"
        if error:
            self.counts["roundtrip_failures"] += 1
        return Outcome(decided=verdict.ok, error=error, data=data)

    # -- queries -----------------------------------------------------------

    def run(self, kind, spec, tr):
        if kind in ("comp_or", "comp_imp"):
            b = self.bundles[spec["logic"]]
            alpha = spec["alpha"]
            if kind == "comp_or":
                hyps_t, goal_t = [alpha], ("or", (alpha, alpha))
            else:
                hyps_t, goal_t = [], ("->", (alpha, alpha))
            hyps = [self._parse(tr, h, b.signature) for h in hyps_t]
            goal = self._parse(tr, goal_t, b.signature)
            return self._component(tr, b, hyps, goal, spec, {"logic": spec["logic"], "hyps": hyps_t, "goal": goal_t})
        if kind == "comp_proj":
            from meetlogic import project

            b1, b2, cs, calc, tags, _ = self.meets[_meet_key(spec["meet"])]
            alpha, k = spec["alpha"], spec["k"]
            beta = (("or", "or"), (alpha, alpha))
            a, g = self._parse(tr, alpha, cs, tags), self._parse(tr, beta, cs, tags)
            with tr.span("combination.project"):
                ak, gk = project(a, k), project(g, k)
            b = (b1, b2)[k - 1]
            return self._component(tr, b, [ak], gk, spec, {"logic": spec["meet"][k - 1],
                                                           "hyps": [gen.project(alpha, k)],
                                                           "goal": gen.project(beta, k)})
        if kind == "template":
            return self._template(tr, spec)
        return self._meet(tr, spec)

    def _component(self, tr, b, hyps, goal, spec, data):
        d = self._search(tr, b.calculus, hyps, goal, 4, "calculus.search_component")
        if d is None:
            return Outcome(data=data)
        return self._through_checks(tr, d, b.calculus, hyps, b.signature, None, spec["mut"], data)

    def _template(self, tr, spec):
        from meetlogic import build_both_admissible_derivation, build_vacuous_side_derivation, project

        b1, b2, cs, calc, tags, logics = self.meets[_meet_key(spec["meet"])]
        alpha = spec["alpha"]
        comps = {1: b1, 2: b2}
        if spec["mode"] == "both":
            beta_t = (("or", "or"), (alpha, alpha))
            a, beta = self._parse(tr, alpha, cs, tags), self._parse(tr, beta_t, cs, tags)
            ds = []
            for k in (1, 2):
                with tr.span("combination.project"):
                    ak, bk = project(a, k), project(beta, k)
                ds.append(self._search(tr, comps[k].calculus, [ak], bk, 4, "calculus.search_component"))
            if None in ds:
                return Outcome(data={"meet": logics})
            with tr.span("calculus.template"):
                d = build_both_admissible_derivation([a], beta, ds[0], ds[1], calc, b1, b2)
            hyps, hyps_t = [a], [alpha]
        else:
            k = spec["k"]
            other = 3 - k
            beta_t = (("and", "and"), (alpha, alpha))
            beta = self._parse(tr, beta_t, cs, tags)
            bot_same, bot_other = comps[k].signature.bot, comps[other].signature.bot
            with tr.span("combination.project"):
                bk, bo = project(beta, k), project(beta, other)
            dfalsum = self._search(tr, comps[k].calculus, [bot_same], bot_same, 1, "calculus.search_component")
            dsame = self._search(tr, comps[k].calculus, [bot_same], bk, 4, "calculus.search_component")
            dother = self._search(tr, comps[other].calculus, [bot_other], bo, 4, "calculus.search_component")
            if None in (dfalsum, dsame, dother):
                return Outcome(data={"meet": logics})
            with tr.span("calculus.template"):
                d = build_vacuous_side_derivation([cs.falsum(k)], beta, k, dfalsum, dsame, dother,
                                                  calc, b1, b2)
            hyps, hyps_t = [cs.falsum(k)], [gen.embed(("bot", ()), k)]
        data = {"meet": logics, "hyps": hyps_t, "goal": beta_t}
        return self._through_checks(tr, d, calc, hyps, cs, tags, spec["mut"], data)

    def _meet(self, tr, spec):
        from meetlogic import embed

        b1, b2, cs, calc, tags, logics = self.meets[_meet_key(spec["meet"])]
        if spec["goal_kind"] == "consistency":
            # The consistency guard: neither embedded falsum nor a bare
            # variable may be derivable from nothing.
            found = [g for g, goal in zip(self.GUARDS, (cs.falsum(1), cs.falsum(2), self._parse(tr, 1, cs)))
                     if self._search(tr, calc, [], goal, None, "calculus.search_meet") is not None]
            return Outcome(data={"meet": logics, "guards_found": found})
        if "comp" in spec:
            comp = self._parse(tr, spec["comp"], (b1, b2)[spec["k"] - 1].signature)
            with tr.span("combination.embed"):
                goal = embed(comp, spec["k"], cs)
        else:
            goal = self._parse(tr, spec["goal"], cs, tags)
        d = self._search(tr, calc, [], goal, None, "calculus.search_meet")
        data = {"meet": logics, "hyps": [], "goal": spec["goal"]}
        if d is None:
            return Outcome(data=data)
        return self._through_checks(tr, d, calc, [], cs, tags, spec["mut"], data)

    def gate(self, kind, spec, out):
        wrong = []
        data = out.data or {}
        if data.get("guards_found"):
            wrong.append(f"consistency-guard goals derived: {data['guards_found']}")
        if "checked" not in data:
            return wrong
        if not data["checked"]:
            wrong.append(f"derivation failed the checker: {data['reason']}")
        if not data["mutant_ok"]:
            wrong.append(f"mutant of line {data['mutant_line']} not rejected there: {data['mutant_verdict']}")
        hyps, goal = data["hyps"], data["goal"]
        if "logic" in data:
            n = ref.CHAIN.get(data["logic"])
            if not all(ref.entails(hyps, goal, m) for m in ((n,) if n else ref.IPL_CHAINS)):
                wrong.append("derived conclusion is not entailed by its hypotheses")
        else:
            n1, n2 = (ref.CHAIN.get(lg) for lg in data["meet"])
            if n1 and n2 and not ref.entails_product(hyps, goal, n1, n2):
                wrong.append("derived conclusion is not entailed on the characteristic product")
        return wrong


# ---------------------------------------------------------------------------
# decide

DECIDE_PRODUCTS = {"6": ("CPL", "G3"), "9": ("G3", "G3"), "20": ("IPL", "S43")}


class Decide(Workload):
    """Matrix semantics, admissibility and the G4ip prover; no proof search."""

    name = "decide"
    cycle = ("holds6", "holds9", "holds20", "entails6", "entails9", "entails20",
             "sound6", "sound20", "decide_meet", "bruteforce", "theorem", "trees", "equalize")
    pool_size = 2880
    strata = {"holds6": 24, "holds9": 24, "holds20": 24, "entails6": 36, "entails9": 36, "entails20": 36,
              "sound6": 6, "sound20": 6, "decide_meet": 6, "bruteforce": 4, "theorem": 24, "trees": 12,
              "equalize": 9}
    recorded = frozenset({"holds20", "entails20", "sound20", "bruteforce", "theorem", "trees", "equalize"})
    warmup_cycles = 4
    rate = 11.0

    def setup(self, tr):
        from meetlogic import (KripkeFrame, assemble_meet_calculus, combine_signatures,
                               kripke_matrix, load_preset, product_matrix)
        from meetlogic.admissibility import semantic_oracle

        with tr.span("presets.load"):
            b = {n: load_preset(n) for n in ("CPL", "G3", "IPL")}
            b["G3b"] = load_preset("G3")
            b["S43"] = load_preset("S43", max_worlds=2)
        self.bundles = b
        frame = KripkeFrame((0, 1), frozenset({(0, 0), (0, 1), (1, 1)}), "s43")
        with tr.span("semantics.product_build"):
            chain2w = kripke_matrix(frame, b["S43"].signature)
        pairs = {"6": (b["CPL"], b["G3"], b["CPL"].characteristic, b["G3"].characteristic),
                 "9": (b["G3"], b["G3b"], b["G3"].characteristic, b["G3b"].characteristic),
                 "20": (b["IPL"], b["S43"], b["IPL"].matrices[-1], chain2w)}
        self.products = {}
        for key, (b1, b2, m1, m2) in pairs.items():
            cs = combine_signatures(b1.signature, b2.signature)
            with tr.span("semantics.product_build"):
                prod = product_matrix(m1, m2, cs)
            with tr.span("calculus.assemble"):
                calc = assemble_meet_calculus(b1.calculus, b2.calculus, cs)
            self.products[key] = (cs, prod, calc, (cs.tag1, cs.tag2))
        self.oracles = {"6": (semantic_oracle(b["CPL"]), semantic_oracle(b["G3"])),
                        "9": (semantic_oracle(b["G3"]), semantic_oracle(b["G3b"]))}
        self._rule_trees: dict = {}

    def item(self, kind, i):
        rng = gen.item_rng(f"decide.{kind}", i)
        s = i % self.strata[kind]
        if kind.startswith(("holds", "entails", "sound", "decide_meet")):
            key = "".join(ch for ch in kind if ch.isdigit()) or ("6", "9")[s % 2]
            logics = DECIDE_PRODUCTS[key]
            # 1-3 variables; 1-2 on the 20-element product, where three
            # variables (8000 assignments) take seconds per query.
            nvars, depth = 1 + s % (2 if key == "20" else 3), 2 + (s // 3) % 4
            if kind == "decide_meet":
                make = lambda r: gen.pair_formula(r, 1 + (s // 2) % 3, nvars, logics)
            else:
                make = lambda r: gen.pair_query_formula(r, logics, nvars, depth, r.random() < 0.5)
            if kind.startswith("holds"):
                return {"p": key, "f": gen.pair_query_formula(rng, logics, nvars, depth, s >= 12)}
            if kind.startswith("sound") and s % 2 == 0:
                return {"p": key, "rule": rng.randrange(1 << 30)}
            pattern = (s // 12) % 3 if kind.startswith("entails") else rng.randrange(3)
            hyps, goal = gen.entailment(rng, make, True, pattern)
            return {"p": key, "hyps": hyps, "goal": goal}
        if kind == "bruteforce":
            if s == 0:
                return {"harrop": True}
            make = lambda r: gen.formula(r, r.randint(1, 3), s, "IPL", exact=False)
            hyps, goal = gen.entailment(rng, make, False, rng.randrange(3))
            return {"hyps": hyps[:1], "goal": goal}
        if kind == "theorem":
            # depth 2-4: at depth 5 one formula in a few hundred makes G4ip
            # cache ~10^4 sequents, so peak memory would follow the seed
            return {"f": gen.component_query_formula(rng, "IPL", 1 + (s // 2) % 3, 2 + s // 8, s % 2 == 0)}
        if kind == "trees":
            f1 = gen.formula(rng, 2 + (s // 2) % 3, 1 + s % 2 + (s // 6), "IPL", exact=False)
            f2 = _reshape(rng, f1) if s % 2 == 0 else gen.formula(rng, 2 + (s // 2) % 3, 2, "IPL", exact=False)
            return {"f1": f1, "f2": f2}
        return {"f1": gen.formula(rng, 1 + s % 3, 1 + (s // 3) % 3, "CPL", exact=False),
                "f2": gen.formula(rng, 1 + (s // 3) % 3, 1 + s % 3, "G3", exact=False)}

    def _calc_rule(self, key, index):
        return self.products[key][2].rules[index % len(self.products[key][2].rules)]

    def run(self, kind, spec, tr):
        import meetlogic as ml

        if kind.startswith(("holds", "entails", "sound", "decide_meet")):
            cs, prod, _, tags = self.products[spec["p"]]
            if "rule" in spec:
                rule = self._calc_rule(spec["p"], spec["rule"])
            else:
                hyps = [self._parse(tr, h, cs, tags) for h in spec.get("hyps", ())]
                goal = self._parse(tr, spec.get("goal", spec.get("f")), cs, tags)
            if kind.startswith("holds"):
                with tr.span("semantics.holds"):
                    v = ml.holds(prod, goal)
            elif kind.startswith("entails"):
                with tr.span("semantics.entails"):
                    v = ml.entails([prod], hyps, goal)
            elif kind.startswith("sound"):
                if "rule" not in spec:
                    rule = ml.Rule("seeded", tuple(hyps), goal)
                with tr.span("semantics.soundness"):
                    v = ml.check_rule_soundness([prod], rule)
            else:
                o1, o2 = self.oracles[spec["p"]]
                with tr.span("admissibility.decide_meet"):
                    dec = ml.decide_admissible_meet(o1, o2, hyps, goal)
                self.counts["oracle_calls"] += dec.calls
                return Outcome(decided=dec.exact, answer="01"[dec.admissible], data={"exact": dec.exact})
            return Outcome(decided=True, answer="01"[v])
        if kind == "bruteforce":
            ipl = self.bundles["IPL"]
            if spec.get("harrop"):
                rule = ipl.fixtures["harrop"]
                prem, concl = rule.premises, rule.conclusion
            else:
                prem = tuple(self._parse(tr, h, ipl.signature) for h in spec["hyps"])
                concl = self._parse(tr, spec["goal"], ipl.signature)
            with tr.span("admissibility.bruteforce"):
                v = ml.brute_force_admissible(ipl, prem, concl)
            return Outcome(decided=v.exact and v.status != "inconclusive", answer=v.status[0],
                           data={"witness": v.witness, "prem": prem, "concl": concl})
        if kind == "theorem":
            f = self._parse(tr, spec["f"], self.bundles["IPL"].signature)
            with tr.span("presets.theorem"):
                v = ml.ipl_theorem(f)
            return Outcome(decided=True, answer="01"[v])
        if kind == "trees":
            sig = self.bundles["IPL"].signature
            f1, f2 = self._parse(tr, spec["f1"], sig), self._parse(tr, spec["f2"], sig)
            with tr.span("treetools.tree_build"):
                t1, t2 = ml.decomposition_tree(f1), ml.decomposition_tree(f2)
            with tr.span("treetools.equiv"):
                v = ml.trees_equiv(t1, t2)
            return Outcome(decided=True, answer="01"[v])
        b1, b2 = self.bundles["CPL"], self.bundles["G3"]
        f1, f2 = self._parse(tr, spec["f1"], b1.signature), self._parse(tr, spec["f2"], b2.signature)
        with tr.span("treetools.equalize"):
            out1, out2 = ml.equalize_pair(f1, f2, b1.identity_profiles["and"], b2.identity_profiles["->"],
                                          b1.signature, b2.signature,
                                          b1.completion_profile, b2.completion_profile)
        with tr.span("treetools.tree_build"):
            t1, t2 = ml.decomposition_tree(out1), ml.decomposition_tree(out2)
        with tr.span("treetools.equiv"):
            v = ml.trees_equiv(t1, t2)
        with tr.span("syntax.print"):
            printed = (ml.print_formula(out1), ml.print_formula(out2))
        return Outcome(decided=True, answer="01"[v], data={"printed": printed})

    def account(self, kind, spec):
        """Assignments, node evaluations and substitutions, computed from the inputs."""
        if kind.startswith(("holds", "entails", "sound")):
            trees = self._trees(spec)
            vs = set().union(*(gen.variables(t) for t in trees))
            n = len(self.products[spec["p"]][1].carrier) ** len(vs)
            self.counts["assignments"] += n
            self.counts["node_evals"] += n * sum(gen.size(t) for t in trees)
        elif kind == "bruteforce":
            from meetlogic import BruteForceBounds

            if spec.get("harrop"):
                nv = 3
            else:
                nv = len(set().union(*(gen.variables(t) for t in spec["hyps"] + [spec["goal"]])))
            self.counts["substitution_bound"] += BruteForceBounds().max_candidates ** nv

    def _trees(self, spec):
        if "rule" not in spec:
            return list(spec.get("hyps", ())) + [spec.get("goal", spec.get("f"))]
        key = (spec["p"], spec["rule"] % len(self.products[spec["p"]][2].rules))
        if key not in self._rule_trees:
            from meetlogic import print_formula

            rule = self._calc_rule(*key)
            self._rule_trees[key] = [ref.parse_printed(print_formula(f))
                                     for f in rule.premises + (rule.conclusion,)]
        return self._rule_trees[key]

    def gate(self, kind, spec, out):
        from meetlogic import apply_substitution, ipl_theorem, print_formula

        wrong = []
        if kind in ("holds6", "holds9", "entails6", "entails9", "sound6", "decide_meet"):
            n1, n2 = (ref.CHAIN[lg] for lg in DECIDE_PRODUCTS[spec["p"]])
            trees = self._trees(spec)
            if kind.startswith("holds"):
                want = ref.holds_product(trees[0], n1, n2)
            else:
                want = ref.entails_product(trees[:-1], trees[-1], n1, n2)
            if out.answer != "01"[want]:
                wrong.append(f"{kind}: got {out.answer}, reference says {int(want)}")
            if kind == "decide_meet" and not out.data["exact"]:
                wrong.append("decide_meet: semantic oracles gave an inexact decision")
        if kind == "theorem" and out.answer == "1" and not ref.holds_ipl_chains(spec["f"]):
            wrong.append("theorem: ipl_theorem accepts a formula that fails on a chain")
        if kind == "bruteforce" and out.answer == "n" and out.data["witness"] is not None:
            s = dict(out.data["witness"])
            prem = [apply_substitution(s, p) for p in out.data["prem"]]
            concl = apply_substitution(s, out.data["concl"])
            if not all(ipl_theorem(p) for p in prem) or ipl_theorem(concl):
                wrong.append("bruteforce: witness does not refute the rule")
            elif not all(ref.holds_ipl_chains(ref.parse_printed(print_formula(p))) for p in prem):
                wrong.append("bruteforce: witnessed premise instance fails on a chain")
        if kind == "equalize":
            f1, f2 = (ref.parse_printed(p) for p in out.data["printed"])
            for n, orig, new in ((2, spec["f1"], f1), (3, spec["f2"], f2)):
                if not ref.holds(("iff", (orig, new)), n):
                    wrong.append("equalize: output is not equivalent to its input")
        return wrong


def _reshape(rng, f):
    """Same decomposition-tree shape, other constructors and child order."""
    if isinstance(f, int):
        return rng.randint(1, 3)
    head, args = f
    args = tuple(_reshape(rng, a) for a in args)
    if len(args) == 2:
        return (rng.choice(gen.BINARY), args[::-1] if rng.random() < 0.5 else args)
    if len(args) == 1:
        return ("neg", args)
    return (rng.choice(gen.NULLARY), ())


# ---------------------------------------------------------------------------
# cli-batch

VERBS = ("combine", "project", "embed", "tag", "check-derivation", "search", "decide-admissible",
         "basis", "eval", "entails", "trees", "complete", "equalize", "soundness-audit")
EXIT_CONTRACT = (0, 1, 2, 3)


def _printed(f) -> str:
    """meetlogic's printed form of a component tree (used for oracle-table keys)."""
    if isinstance(f, int):
        return f"xi{f}"
    head, args = f
    return head if not args else f"{head}({', '.join(_printed(a) for a in args)})"


class CliBatch(Workload):
    """Many small queries through ``meetlogic.cli.main(argv)`` in-process."""

    name = "cli-batch"
    cycle = VERBS
    pool_size = 3000
    strata = {k: 40 for k in VERBS}
    recorded = frozenset({"trees", "complete", "equalize"})
    warmup_cycles = 3
    rate = 6.5

    def __init__(self, workdir):
        super().__init__()
        self.workdir = workdir
        self.nfile = 0
        self.sigs: dict = {}

    def setup(self, tr):
        from meetlogic import cli

        with tr.span("cli.build_parser"):
            cli.build_parser()
        self.cli = cli

    # -- inputs ------------------------------------------------------------

    def _file(self, text):
        self.nfile += 1
        path = os.path.join(self.workdir, f"in{self.nfile % 64}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def item(self, kind, i):
        """One item in 20 is malformed; for the verbs that take a formula
        argument, three in 40 nest hundreds to thousands of levels deep:
        one 200-260 levels, two 600-3000. The two ranges keep clear of the
        depths (350-500 at the seed commit) where the recursive code paths
        give out, so how many deep queries fail is fixed by the plan, not
        by the seed."""
        rng = gen.item_rng(f"cli.{kind}", i)
        s = i % self.strata[kind]
        spec = {"verb": kind, "json": rng.random() < 0.3, "malformed": s % 20 == 0,
                "deep": s in (1, 11, 21) and kind in ("project", "embed", "eval", "entails")}
        if spec["deep"]:
            spec["levels"] = rng.randint(200, 260) if s == 11 else rng.randint(600, 3000)
        logic = rng.choice(("CPL", "G3", "IPL"))
        pair = rng.choice((("CPL", "G3"), ("CPL", "CPL"), ("G3", "G3")))
        small = lambda: gen.formula(rng, rng.randint(1, 3), rng.randint(1, 3), logic, exact=False)
        if kind in ("combine", "basis"):
            spec["pair"] = rng.choice((("CPL", "G3"), ("CPL", "CPL"), ("IPL", "S43"), ("G3", "IPL"), ("CPL", "GL")))
        elif kind in ("project", "embed"):
            spec.update(pair=pair, k=rng.randint(1, 2))
            spec["f"] = (gen.pair_formula(rng, rng.randint(1, 4), rng.randint(1, 3), pair) if kind == "project"
                         else gen.formula(rng, rng.randint(1, 4), rng.randint(1, 3), pair[0]))
        elif kind == "tag":
            spec.update(pair=pair, side=rng.choice(("1", "2", "mc")))
            mk = (lambda: gen.pair_formula(rng, rng.randint(1, 2), 2, pair, exact=False)) \
                if spec["side"] == "mc" else (lambda: gen.formula(rng, rng.randint(1, 2), 2, "CPL", exact=False))
            spec["prem"] = [mk() for _ in range(rng.randint(0, 2))]
            spec["concl"] = rng.randint(1, 3) if rng.random() < 0.5 else mk()
        elif kind == "check-derivation":
            spec.update(logic=logic, a=small(), b=small(), corrupt=rng.random() < 0.3)
        elif kind == "search":
            spec.update(logic=logic, a=gen.formula(rng, rng.randint(0, 1), rng.randint(1, 2), logic, exact=False))
        elif kind == "decide-admissible":
            spec["pair"] = pair
            make = lambda r: gen.pair_formula(r, r.randint(1, 2), r.randint(1, 2), pair)
            spec["hyps"], spec["goal"] = gen.entailment(rng, make, True, rng.randrange(3))
            spec["oracles"] = [rng.choice(("auto", "auto", "stub", "table")) for _ in range(2)]
            spec["answers"] = [rng.randint(0, 1) for _ in range(4)]
        elif kind in ("eval", "entails"):
            # deep formulas are component negation chains
            spec["target"] = rng.choice(("CPL", "G3", "IPL") if spec["deep"] else ("CPL", "G3", "IPL", pair))
            lg = spec["target"]
            shape = (rng.randint(1, 3), rng.randint(2, 4), rng.random() < 0.5)
            make = (lambda r: gen.pair_query_formula(r, lg, *shape)) if isinstance(lg, tuple) else \
                (lambda r: gen.component_query_formula(r, lg, *shape))
            if kind == "eval":
                spec["f"] = make(rng)
            else:
                spec["hyps"], spec["goal"] = gen.entailment(rng, make, isinstance(lg, tuple), rng.randrange(3))
        elif kind == "trees":
            spec["f1"] = gen.formula(rng, rng.randint(1, 3), 2, "IPL", exact=False)
            spec["f2"] = _reshape(rng, spec["f1"]) if rng.random() < 0.5 else \
                gen.formula(rng, rng.randint(1, 3), 2, "IPL", exact=False)
        elif kind == "complete":
            f = gen.formula(rng, rng.randint(1, 3), 2, "IPL", exact=False)
            binary = not isinstance(f, int) and len(f[1]) == 2
            spec.update(target=rng.choice(("top", "bot")), f=f,
                        root=rng.choice((None, "or", "and", "->")) if binary else None)
        elif kind == "equalize":
            spec.update(pair=pair, f1=gen.formula(rng, rng.randint(0, 2), 2, "CPL", exact=False),
                        f2=gen.formula(rng, rng.randint(0, 2), 2, "CPL", exact=False))
        else:
            spec["target"] = rng.choice(("CPL", "G3", "IPL", ("CPL", "G3"), ("CPL", "CPL"), ("G3", "G3")))
        return spec

    def argv(self, spec):
        """The command line of a query; writes its input files first."""
        v = spec["verb"]
        bad = spec["malformed"]
        deep = spec.get("levels")
        tags = None
        if "pair" in spec:
            p = spec["pair"]
            tags = (p[0] + "1", p[1] + "2") if p[0] == p[1] else p
        argv = [v]
        meet = lambda p: ["--l1", p[0], "--l2", p[1]]
        either = lambda t: meet(t) if isinstance(t, (tuple, list)) else ["--logic", t]
        if v in ("combine", "basis"):
            argv += meet(("CPX", spec["pair"][1]) if bad else spec["pair"])
        elif v == "project":
            if deep:
                t1, t2 = tags
                text = f"<neg.{t1}|neg.{t2}>(" * deep + "xi1" + ")" * deep
            else:
                text = gen.text(spec["f"], tags)
            argv += meet(spec["pair"]) + ["-k", str(spec["k"]), text[:-1] if bad else text]
        elif v == "embed":
            text = "neg " * deep + "xi1" if deep else gen.text(spec["f"])
            argv += meet(spec["pair"]) + ["-k", str(spec["k"]), "(" + text if bad else text]
        elif v == "tag":
            t = None if spec["side"] != "mc" else tags
            body = [gen.text(f, t) for f in spec["prem"]] + ["---", gen.text(spec["concl"], t)]
            if bad:
                body.remove("---")
            argv += meet(spec["pair"]) + ["--side", spec["side"], "--rule", self._file("\n".join(body) + "\n"),
                                          "--name", "r"]
        elif v == "check-derivation":
            a, b = gen.text(spec["a"]), gen.text(spec["b"])
            ba = f"({b} -> {a})"
            last = f"({a} and {b})" if spec["corrupt"] else ba
            text = (f"1. {a} ; HYP\n2. ({a} -> {ba}) ; RULE a1 s={{xi1:={a}; xi2:={b}}} lines=\n"
                    f"3. {last} ; RULE mp s={{xi1:={a}; xi2:={ba}}} lines=1,2\n")
            if bad:
                text = text.replace("3.", "x.")
            argv += ["--logic", spec["logic"], "--derivation", self._file(text), "--hyps", a]
        elif v == "search":
            a = gen.text(spec["a"])
            argv += ["--logic", spec["logic"], "--depth", "4", "--hyps", a,
                     "--goal", f"({a}) or" if bad else f"({a}) or ({a})"]
        elif v == "decide-admissible":
            body = [gen.text(h, tags) for h in spec["hyps"]] + ["---", gen.text(spec["goal"], tags)]
            argv += meet(spec["pair"]) + ["--rule", self._file("\n".join(body) + "\n")]
            for k, kind in enumerate(spec["oracles"], start=1):
                argv += [f"--oracle{k}", self._oracle_spec(spec, k, kind)]
            if bad:
                argv[-1] = "magic"
        elif v in ("eval", "entails"):
            t = spec["target"]
            tt = tags_of(t)
            if v == "eval":
                text = "neg " * deep + "xi1" if deep and tt is None else gen.text(spec["f"], tt)
                argv += either(t) + [text + ")" if bad else text]
            else:
                goal = "neg " * deep + "xi1" if deep and tt is None else gen.text(spec["goal"], tt)
                argv += either(t) + ["--hyps", " ; ".join(gen.text(h, tt) for h in spec["hyps"]),
                                     "--goal", goal + " and" if bad else goal]
        elif v == "trees":
            argv += [gen.text(spec["f1"]), gen.text(spec["f2"]) + (" xi1" if bad else "")]
        elif v == "complete":
            argv += ["--target", spec["target"]] + ([f"--root-head={spec['root']}"] if spec["root"] else []) \
                + [gen.text(spec["f"]) + ("(" if bad else "")]
        elif v == "equalize":
            argv += meet(spec["pair"]) + ["--f1", gen.text(spec["f1"]), "--f2", gen.text(spec["f2"]) + (")" if bad else "")]
        else:
            argv += either(spec["target"]) if not bad else ["--logic", "XPL"]
        if spec["json"]:
            argv += ["--format", "json"]
        return argv

    def _oracle_spec(self, spec, k, kind):
        a = spec["answers"]
        if kind == "auto":
            return "auto"
        if kind == "stub":
            return f"stub:{a[2 * k - 2]}:{a[2 * k - 1]}"
        lines = [f"{a[2 * k - 2]} {self._key(spec, k, False)}",
                 f"{a[2 * k - 1]} {self._key(spec, k, True)}", "default 0"]
        return f"table:{self._file(chr(10).join(lines) + chr(10))}"

    def _key(self, spec, k, falsum):
        ps = " ; ".join(_printed(gen.project(h, k)) for h in spec["hyps"])
        return f"{ps} / {'bot' if falsum else _printed(gen.project(spec['goal'], k))}"

    def expected(self, spec):
        """The exit code the contract demands, or None when only the seed
        commit's recorded answer can tell (trees, complete, equalize)."""
        if spec["malformed"]:
            return 3
        v = spec["verb"]
        if v in ("combine", "basis", "project", "embed", "tag", "soundness-audit"):
            return 0
        if v in self.recorded:
            return None
        if v == "check-derivation":
            return 1 if spec["corrupt"] else 0
        if v == "search":
            return (0, 2)
        if v == "decide-admissible":
            n1, n2 = (ref.CHAIN[lg] for lg in spec["pair"])
            answers = []
            for k, kind in enumerate(spec["oracles"], start=1):
                n = (n1, n2)[k - 1]
                ph = [gen.project(h, k) for h in spec["hyps"]]
                if kind == "auto":
                    answers.append((ref.entails(ph, gen.project(spec["goal"], k), n), ref.entails(ph, ("bot", ()), n)))
                else:
                    a = spec["answers"]
                    falsum = bool(a[2 * k - 1])
                    goal_is_bot = gen.project(spec["goal"], k) == ("bot", ())
                    answers.append((falsum if goal_is_bot else bool(a[2 * k - 2]), falsum))
            (m1, f1), (m2, f2) = answers
            admissible = m1 if m1 == m2 else (f1 if m1 else f2)
            return 0 if admissible else 1
        t = spec["target"]
        pair = isinstance(t, (tuple, list))
        if v == "eval":
            f = gen.neg_chain(spec["levels"]) if spec["deep"] and not pair else spec["f"]
            ok = ref.holds_product(f, *(ref.CHAIN[x] for x in t)) if pair else \
                (ref.holds(f, ref.CHAIN[t]) if t in ref.CHAIN else ref.holds_ipl_chains(f))
            return 0 if ok else 1
        if v == "entails":
            goal = gen.neg_chain(spec["levels"]) if spec["deep"] and not pair else spec["goal"]
            if pair:
                ok = ref.entails_product(spec["hyps"], goal, *(ref.CHAIN[x] for x in t))
            else:
                ok = all(ref.entails(spec["hyps"], goal, n)
                         for n in ((ref.CHAIN[t],) if t in ref.CHAIN else ref.IPL_CHAINS))
            return 0 if ok else 1

    # -- running -------------------------------------------------------------

    def prepare(self, spec):
        spec["argv"] = self.argv(spec)

    def run(self, kind, spec, tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span(f"cli.{kind}"):
                code = self.cli.main(spec["argv"])
        return Outcome(answer=str(code), data={"stdout": out.getvalue()})

    def judge(self, spec, out, expected_code):
        """Decided / error classification of a finished CLI query."""
        code = int(out.answer)
        want = expected_code
        ok_codes = want if isinstance(want, tuple) else (want,)
        if code not in EXIT_CONTRACT:
            out.error = f"exit code {code} outside the contract"
        elif code not in ok_codes:
            out.error = f"exit code {code}, expected {want}"
            self.counts["exit_mismatch"] += 1
        else:
            out.error = self._read_back(spec, code, out.data["stdout"])
        out.decided = out.error is None and code in (0, 1)

    def gate(self, kind, spec, out):
        """A derivation printed by ``search`` must pass the checker."""
        from meetlogic import check_derivation, load_preset, parse_formula
        from meetlogic.formats import parse_derivation_file

        if kind != "search" or out.answer != "0" or out.error:
            return []
        text = out.data["stdout"]
        if spec["json"]:
            text = "\n".join(json.loads(text)["derivation"])
        b = load_preset(spec["logic"])
        verdict = check_derivation(parse_derivation_file(text, b.signature), b.calculus,
                                   hyps=[parse_formula(gen.text(spec["a"]), b.signature)])
        return [] if verdict.ok else [f"printed derivation rejected: {verdict.reason}"]

    def _read_back(self, spec, code, stdout):
        """The program must be able to read its own output back."""
        from meetlogic import load_preset, parse_formula
        from meetlogic.formats import parse_derivation_file, parse_rule_line

        if code == 3:
            return None
        try:
            if spec["json"]:
                json.loads(stdout)
                return None
            v = spec["verb"]
            if v in ("project", "embed", "complete", "equalize"):
                sig = self._read_sig(spec)
                lines = stdout.splitlines()
                if v == "complete":
                    lines = [lines[0].split("  #", 1)[0]]
                elif v == "equalize":
                    lines = lines[:2]
                for k, line in enumerate(lines):
                    parse_formula(line, sig[k] if isinstance(sig, list) else sig)
            elif v in ("tag", "basis"):
                sig = self._read_sig(spec)
                for line in filter(None, stdout.splitlines()):
                    parse_rule_line(line, sig)
            elif v == "search" and code == 0:
                parse_derivation_file(stdout, load_preset(spec["logic"]).signature)
        except Exception as exc:
            return f"output does not read back: {type(exc).__name__}: {exc}"
        return None

    def _read_sig(self, spec):
        from meetlogic import combine_signatures, load_preset

        v = spec["verb"]
        pair = ("IPL",) if v == "complete" else tuple(spec["pair"])
        if pair not in self.sigs:
            sigs = [load_preset(x).signature for x in pair]
            self.sigs[pair] = (sigs, combine_signatures(*sigs) if len(sigs) == 2 else None)
        sigs, cs = self.sigs[pair]
        if v in ("complete", "equalize"):
            return sigs[0] if v == "complete" else sigs
        return sigs[spec["k"] - 1] if v == "project" else cs

    def instrument(self, tr):
        """Spans at the boundaries cli.main crosses into the other layers;
        installed for the traced pass only and always removed afterwards."""
        import meetlogic.admissibility as adm
        import meetlogic.calculus as calc
        import meetlogic.cli as cli
        import meetlogic.formats as fmt
        import meetlogic.presets as pre
        import meetlogic.semantics as sem
        import meetlogic.treetools as tt

        targets = [(pre, "load_preset", "presets.load"), (calc, "assemble_meet_calculus", "calculus.assemble"),
                   (sem, "product_matrix", "semantics.product_build"), (sem, "holds", "semantics.holds"),
                   (sem, "entails", "semantics.entails"), (sem, "check_rule_soundness", "semantics.soundness"),
                   (cli, "parse_formula", "syntax.parse"), (cli, "print_formula", "syntax.print"),
                   (calc, "bounded_proof_search", "calculus.search_component"),
                   (calc, "check_derivation", "calculus.check"),
                   (fmt, "serialize_derivation", "formats.serialize"),
                   (fmt, "parse_derivation_file", "formats.parse"), (fmt, "parse_rule_file", "formats.parse"),
                   (adm, "decide_admissible_meet", "admissibility.decide_meet"),
                   (tt, "decomposition_tree", "treetools.tree_build"), (tt, "trees_equiv", "treetools.equiv"),
                   (tt, "equalize_pair", "treetools.equalize")]
        return _Patched(tr, [t for t in targets if hasattr(t[0], t[1])])


def tags_of(target):
    if isinstance(target, (tuple, list)):
        return (target[0] + "1", target[1] + "2") if target[0] == target[1] else tuple(target)
    return None


class _Patched:
    def __init__(self, tr, targets):
        self.tr, self.targets, self.saved = tr, targets, []

    def __enter__(self):
        for module, attr, span in self.targets:
            orig = getattr(module, attr)
            self.saved.append((module, attr, orig))
            setattr(module, attr, _wrap(self.tr, span, orig))
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self.saved):
            setattr(module, attr, orig)
        self.saved.clear()
        return False


def _wrap(tr, span, fn):
    def wrapped(*args, **kwargs):
        with tr.span(span):
            return fn(*args, **kwargs)
    return wrapped


def make(name, workdir):
    if name == "search":
        return Search()
    if name == "decide":
        return Decide()
    if name == "cli-batch":
        return CliBatch(workdir)
    raise KeyError(name)


WORKLOADS = ("search", "decide", "cli-batch")
