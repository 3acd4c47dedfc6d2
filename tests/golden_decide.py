"""Fixed, seeded `decide-admissible` calls whose exit codes and standard
output are pinned in `golden_decide.json`.

For each of the 25 ordered pairs of presets, a few seeded rules over the
combined signature run under the oracle pairs `auto/auto`, `stub:1:0/auto`
and `table:T/auto`, in text and in JSON, through the in-process `cli.main`.
The table T answers yes to the first component's projection of every other
rule, and, for every third rule, to its projected premises with `bot` as
the conclusion (the fallback call).

    python tests/golden_decide.py    # re-record golden_decide.json from src/

Re-record only on a commit whose answers are trusted; the file pins every
answer, exit code, `exact` flag and printed line of the verb.
"""
from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from meetlogic import cli, combine_signatures, load_preset, project
from meetlogic.calculus import Rule
from meetlogic.formats import rule_key, serialize_rule_file
from meetlogic.presets import PRESET_NAMES

from strategies import random_formula

GOLDEN = Path(__file__).with_name("golden_decide.json")
RULES_PER_PAIR = 3
ORACLES = (("auto", "auto"), ("stub:1:0", "auto"), ("table:{table}", "auto"))


def calls() -> list:
    """One record per call: the pair, the rule and table file texts, the
    oracle specs and the output format."""
    out = []
    for l1 in PRESET_NAMES:
        for l2 in PRESET_NAMES:
            b1 = load_preset(l1)
            cs = combine_signatures(b1.signature, load_preset(l2).signature)
            for i in range(RULES_PER_PAIR):
                rng = random.Random(f"golden-decide:{l1}:{l2}:{i}")
                premises = tuple(random_formula(rng, cs, 2, 2) for _ in range(rng.randint(0, 2)))
                rule = Rule("r", premises, random_formula(rng, cs, 2, 2))
                proj = tuple(project(p, 1) for p in premises)
                lines = ["default 0"]
                if i % 2 == 0:
                    lines.append(f"1 {rule_key(proj, project(rule.conclusion, 1))}")
                if i % 3 == 0:
                    lines.append(f"1 {rule_key(proj, b1.signature.bot)}")
                for o1, o2 in ORACLES:
                    for fmt in ("text", "json"):
                        out.append({"l1": l1, "l2": l2, "rule": serialize_rule_file(rule),
                                    "table": "\n".join(lines) + "\n",
                                    "oracle1": o1, "oracle2": o2, "format": fmt})
    return out


def replay(call: dict, workdir: Path) -> dict:
    """Run one call through `cli.main` with its files in `workdir`; its exit
    code and standard output."""
    rule, table = workdir / "rule.txt", workdir / "table.txt"
    rule.write_text(call["rule"])
    table.write_text(call["table"])
    argv = ["decide-admissible", "--l1", call["l1"], "--l2", call["l2"], "--rule", str(rule),
            "--oracle1", call["oracle1"].format(table=table),
            "--oracle2", call["oracle2"].format(table=table), "--format", call["format"]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def results(cs: list, workdir: Path) -> list:
    return [{**c, **replay(c, workdir)} for c in cs]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(results(calls(), Path(tmp)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
