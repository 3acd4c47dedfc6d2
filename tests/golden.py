"""Fixed, seeded proof searches whose derivations are pinned in
`golden_search.json`: component searches in CPL, G3 and IPL at depth 3 and
meet searches in CPL x G3 at default bounds.

    python tests/golden.py    # re-record golden_search.json from src/

Re-record only on a commit whose search is trusted; the file pins the
derivations a faster kernel must reproduce byte for byte.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

from meetlogic import (
    App,
    SearchBounds,
    assemble_meet_calculus,
    bounded_proof_search,
    combine_signatures,
    load_preset,
    parse_formula,
    print_formula,
)
from meetlogic.formats import serialize_derivation

from strategies import random_formula

GOLDEN = Path(__file__).with_name("golden_search.json")
PER_LOGIC = 24
MEET_GOALS = (
    "<->.CPL|->.G3>(xi1, xi1)",
    "xi1 ->.CPL (xi2 ->.CPL xi1)",
    "xi1 ->.G3 (xi2 ->.G3 xi1)",
    "<and.CPL|or.G3>(xi1, xi1) ->.CPL xi1",
    "<or.CPL|and.G3>(xi1, xi2) ->.G3 <or.CPL|or.G3>(xi2, xi1)",
)


def queries(per_logic: int = PER_LOGIC, meet_goals=MEET_GOALS) -> list:
    """(calculus, hypotheses, goal, bounds) for every golden search."""
    out = []
    for logic in ("CPL", "G3", "IPL"):
        b = load_preset(logic)
        sig = b.signature
        for i in range(per_logic):
            rng = random.Random(f"golden:{logic}:{i}")
            a = random_formula(rng, sig, 2, 2)
            if i % 3 == 0:
                hyps, goal = [a], App(sig.resolve("or", None, 2), (a, a))
            elif i % 3 == 1:
                hyps, goal = [], App(sig.resolve("->", None, 2), (a, a))
            else:
                c = random_formula(rng, sig, 1, 2)
                hyps, goal = [a, c], App(sig.resolve("and", None, 2), (a, c))
            out.append((b.calculus, hyps, goal, SearchBounds(depth=3)))
    cpl, g3 = load_preset("CPL"), load_preset("G3")
    cs = combine_signatures(cpl.signature, g3.signature)
    calc = assemble_meet_calculus(cpl.calculus, g3.calculus, cs)
    for text in meet_goals:
        out.append((calc, [], parse_formula(text, cs), SearchBounds()))
    return out


def results(qs) -> list:
    """One record per search: the query as text and the serialized derivation
    (None when the search is inconclusive)."""
    out = []
    for calc, hyps, goal, bounds in qs:
        d = bounded_proof_search(calc, (), hyps, goal, bounds)
        out.append({
            "calculus": calc.name,
            "hyps": [print_formula(h) for h in hyps],
            "goal": print_formula(goal),
            "derivation": None if d is None else serialize_derivation(d),
        })
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(results(queries()), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
