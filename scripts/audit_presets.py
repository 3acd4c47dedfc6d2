#!/usr/bin/env python3
"""Soundness audit over every preset: check each calculus rule against the
preset's finite matrices, and each pairwise meet calculus against the meet
bundle's product matrix. Exits nonzero on any unsound rule.
"""
import itertools
import sys

from meetlogic.presets import PRESET_NAMES, combine_bundles, load_preset
from meetlogic.semantics import check_rule_soundness


def main():
    failures = []
    bundles = {name: load_preset(name, max_worlds=2) for name in PRESET_NAMES}

    for name, b in bundles.items():
        bad = [r.name for r in b.calculus.rules
               if not check_rule_soundness(list(b.matrices), r)]
        print(f"{name}: {len(b.calculus.rules)} rules on {len(b.matrices)} matrices"
              + ("" if not bad else f"  UNSOUND: {', '.join(bad)}"))
        failures += [(name, r) for r in bad]

    for n1, n2 in itertools.combinations_with_replacement(PRESET_NAMES, 2):
        meet = combine_bundles(bundles[n1], bundles[n2])
        bad = [r.name for r in meet.calculus.rules if not check_rule_soundness(meet.matrices, r)]
        print(f"meet({n1},{n2}): {len(meet.calculus.rules)} rules"
              + ("" if not bad else f"  UNSOUND: {', '.join(bad)}"))
        failures += [(f"meet({n1},{n2})", r) for r in bad]

    if failures:
        print(f"\n{len(failures)} unsound rules", file=sys.stderr)
        return 1
    print("\nall rules sound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
