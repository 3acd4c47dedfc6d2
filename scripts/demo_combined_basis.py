#!/usr/bin/env python3
"""Walk through combining the intuitionistic and linear-modal presets:
print the combined signature summary, the assembled calculus rule names,
the combined admissibility basis, and a worked basis-step derivation.
"""
import sys

from meetlogic.admissibility import derivable_with_basis
from meetlogic.calculus import SearchBounds, check_derivation
from meetlogic.formats import rule_line, serialize_derivation
from meetlogic.presets import combine_bundles, load_preset
from meetlogic.syntax import parse_formula


def main():
    ipl = load_preset("IPL")
    s43 = load_preset("S43", max_worlds=1)
    meet = combine_bundles(ipl, s43)
    cs = meet.signature

    print(f"combined signature {ipl.name}|{s43.name}")
    for n in sorted(cs.arities()):
        print(f"  arity {n}: {len(list(cs.ctors_at(n)))} constructors")

    calc = meet.calculus
    print(f"\nmeet calculus {calc.name}: {len(calc.rules)} inherited rules "
          "plus the lifting, co-lifting and falsum-propagation families")

    basis = meet.basis
    print(f"\ncombined basis ({basis.provenance}):")
    for r in basis.rules:
        print(f"  {rule_line(r)}")

    # the modal basis rule closes its own premise in one step
    prem = parse_formula("(dia xi1) and (dia (neg xi1))", s43.signature)
    d = derivable_with_basis([prem], s43.signature.bot, s43.basis, s43,
                             SearchBounds(depth=2))
    if d is None:
        print("\nexpected basis-step derivation not found", file=sys.stderr)
        return 1
    verdict = check_derivation(d, s43.calculus, extra=s43.basis.rules, hyps=[prem])
    print("\nmodal basis step (component derivation, checker verdict "
          f"{'accepted' if verdict else 'rejected'}):")
    print(serialize_derivation(d).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
