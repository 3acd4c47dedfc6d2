"""Plain-text file formats: rules, derivations, matrices and oracle stub
tables.
"""
from __future__ import annotations

from .admissibility import rule_key
from .calculus import (
    Clft,
    Derivation,
    Fx,
    Hyp,
    Lft,
    Line,
    Rule,
    RuleApp,
    freeze_subst,
)
from .semantics import Matrix, SemanticsError
from .syntax import (
    Signature,
    VERUM,
    parse_formula,
    print_formula,
    verum_family_name,
)


class FormatError(Exception):
    pass


def _content_lines(text):
    """Non-blank lines without comments. A comment starts at a `#` that
    begins a line or follows whitespace; other `#`s belong to the text, as in
    tagged rule names such as `mp@1#<->.CPL|topn.2.G3>`."""
    for raw in text.splitlines():
        cut = raw.find("#")
        while cut > 0 and not raw[cut - 1].isspace():
            cut = raw.find("#", cut + 1)
        line = (raw if cut < 0 else raw[:cut]).strip()
        if line:
            yield line


# ---------------------------------------------------------------------------
# rule files: premises one per line, ---, conclusion

def parse_rule_file(text: str, sig, name: str = "rule") -> Rule:
    lines = list(_content_lines(text))
    if "---" not in lines:
        raise FormatError("rule file needs a --- separator before the conclusion")
    split = lines.index("---")
    tail = lines[split + 1:]
    if len(tail) != 1:
        raise FormatError("rule file needs exactly one conclusion line after ---")
    premises = tuple(parse_formula(s, sig) for s in lines[:split])
    return Rule(name, premises, parse_formula(tail[0], sig))


def serialize_rule_file(rule: Rule) -> str:
    out = [print_formula(p) for p in rule.premises]
    out.append("---")
    out.append(print_formula(rule.conclusion))
    return "\n".join(out) + "\n"


def rule_line(rule: Rule) -> str:
    return f"{rule.name}: {rule_key(rule.premises, rule.conclusion)}"


def parse_rule_line(line: str, sig) -> Rule:
    """`name: premise ; premise / conclusion` with an optionally empty premise list."""
    if ":" not in line:
        raise FormatError(f"rule line needs a name: {line!r}")
    name, body = line.split(":", 1)
    if "/" not in body:
        raise FormatError(f"rule line needs a / before the conclusion: {line!r}")
    front, concl = body.rsplit("/", 1)
    premises = tuple(
        parse_formula(p.strip(), sig) for p in front.split(";") if p.strip()
    )
    return Rule(name.strip(), premises, parse_formula(concl.strip(), sig))


# ---------------------------------------------------------------------------
# derivation files: `index. formula ; JUST[args]`

def serialize_derivation(d: Derivation) -> str:
    out = []
    for i, line in enumerate(d.lines, start=1):
        out.append(f"{i}. {print_formula(line.formula)} ; {_just_text(line.just)}")
    return "\n".join(out) + "\n"


def _just_text(just) -> str:
    if isinstance(just, Hyp):
        return "HYP"
    if isinstance(just, RuleApp):
        entries = "; ".join(f"xi{v}:={print_formula(f)}" for v, f in just.subst)
        lines = ",".join(str(c) for c in just.cites)
        return f"RULE {just.rule} s={{{entries}}} lines={lines}"
    if isinstance(just, Lft):
        return f"LFT lines={just.cites[0]},{just.cites[1]}"
    if isinstance(just, Clft):
        return f"CLFT line={just.cite} k={just.side}"
    if isinstance(just, Fx):
        return f"FX line={just.cite}"
    raise FormatError(f"unknown justification {type(just).__name__}")


def parse_derivation_file(text: str, sig) -> Derivation:
    lines = []
    for n, raw in enumerate(_content_lines(text), start=1):
        head, _, rest = raw.partition(".")
        try:
            idx = int(head.strip())
        except ValueError:
            raise FormatError(f"line {n}: missing index") from None
        if idx != len(lines) + 1:
            raise FormatError(f"line {n}: indices must count up from 1")
        if ";" not in rest:
            raise FormatError(f"line {n}: missing `; JUST` part")
        ftext, jtext = rest.split(";", 1)
        formula = parse_formula(ftext.strip(), sig)
        try:
            just = _parse_just(jtext.strip(), sig, n)
        except ValueError:
            raise FormatError(f"line {n}: malformed justification {jtext.strip()!r}") from None
        lines.append(Line(formula, just))
    if not lines:
        raise FormatError("empty derivation file")
    return Derivation(tuple(lines))


def _parse_just(text: str, sig, n: int):
    if text == "HYP":
        return Hyp()
    if text.startswith("RULE "):
        name, rest = text[5:].split(" s={", 1)
        entries, rest = rest.rsplit("}", 1)
        lines_part = rest.strip()
        if not lines_part.startswith("lines="):
            raise ValueError
        cited = tuple(int(x) for x in lines_part[6:].split(",") if x)
        subst = {}
        for entry in entries.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            var, ftext = entry.split(":=", 1)
            if not var.startswith("xi"):
                raise FormatError(f"line {n}: bad substitution variable {var!r}")
            subst[int(var[2:])] = parse_formula(ftext.strip(), sig)
        return RuleApp(name.strip(), cited, freeze_subst(subst))
    if text.startswith("LFT lines="):
        i, j = text[len("LFT lines="):].split(",")
        return Lft((int(i), int(j)))
    if text.startswith("CLFT line="):
        body = text[len("CLFT line="):]
        cite, k = body.split("k=")
        return Clft(int(cite.strip()), int(k))
    if text.startswith("FX line="):
        return Fx(int(text[len("FX line="):]))
    raise FormatError(f"line {n}: unknown justification {text!r}")


# ---------------------------------------------------------------------------
# matrix files

def parse_matrix_file(text: str, sig: Signature, name: str = "matrix") -> Matrix:
    """Header `carrier N` and `designated i j ...`; then one `op <name> v...`
    per constructor of the signature, values row-major over carrier indices
    0..N-1. Verum-family tables default to the `top` value.
    """
    size = None
    designated = None
    rows = {}
    names = {c.name for c in sig.all_ctors()}
    for raw in _content_lines(text):
        parts = raw.split()
        if parts[0] == "carrier":
            values = _integers("carrier", parts[1:])
            if len(values) != 1 or values[0] < 1:
                raise FormatError(f"carrier: expected one positive integer, got {raw!r}")
            size = values[0]
        elif parts[0] == "designated":
            designated = _integers("designated", parts[1:])
        elif parts[0] == "op":
            if len(parts) < 2:
                raise FormatError("op: missing constructor name")
            if parts[1] not in names:
                raise FormatError(f"op {parts[1]}: no such constructor in signature {sig.tag}")
            rows[parts[1]] = _integers(f"op {parts[1]}", parts[2:])
        else:
            raise FormatError(f"unknown matrix directive {parts[0]!r}")
    if size is None or designated is None:
        raise FormatError("matrix file needs carrier and designated headers")
    tables = {}
    for ctor in sig.all_ctors():
        if ctor.name in rows:
            tables[ctor] = rows[ctor.name]
        elif ctor.name == verum_family_name(ctor.arity) and VERUM in rows:
            tables[ctor] = rows[VERUM][:1] * size ** ctor.arity
    try:
        return Matrix(name, sig, tuple(range(size)), frozenset(designated), tables)
    except SemanticsError as e:
        raise FormatError(str(e)) from None


def _integers(what: str, words) -> list:
    try:
        return [int(w) for w in words]
    except ValueError:
        raise FormatError(f"{what}: expected integers, got {' '.join(words)!r}") from None


def serialize_matrix_file(m: Matrix) -> str:
    out = [f"carrier {len(m.carrier)}",
           "designated " + " ".join(str(i) for i, d in enumerate(m.designated_flags) if d)]
    for ctor, table in m.tables.items():
        out.append(f"op {ctor.display} {' '.join(map(str, table))}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# oracle stub tables: `0|1 <rule key>` lines plus optional `default 0|1`

def parse_oracle_table(text: str):
    table = {}
    default = False
    for n, raw in enumerate(_content_lines(text), start=1):
        head, _, rest = raw.partition(" ")
        if head == "default":
            default = _verdict(rest.strip(), n)
            continue
        verdict, key = _verdict(head, n), rest.strip()
        if not key:
            raise FormatError(f"line {n}: verdict {head} has no rule key")
        table[key] = verdict
    return table, default


def _verdict(word: str, n: int) -> bool:
    if word not in ("0", "1"):
        raise FormatError(f"line {n}: expected a verdict 0 or 1, got {word!r}")
    return word == "1"

