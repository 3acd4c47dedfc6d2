#!/usr/bin/env python3
"""Soundness audit over every preset: check each calculus rule against the
preset's finite matrices (S43 and GL on every rooted frame of up to
`MAX_FRAME_WORLDS` worlds), and each pairwise meet calculus against the
product of its components' first models. Exits nonzero on any unsound rule,
or on a meet with no such product.
"""
import itertools
import sys

from meetlogic.presets import MAX_FRAME_WORLDS, PRESET_NAMES, combine_bundles, load_preset
from meetlogic.semantics import check_rule_soundness, product_matrix


def main():
    failures = []
    bundles = {name: load_preset(name, max_worlds=MAX_FRAME_WORLDS) for name in PRESET_NAMES}

    for name, b in bundles.items():
        bad = [r.name for r in b.calculus.rules
               if not check_rule_soundness(list(b.matrices), r)]
        print(f"{name}: {len(b.calculus.rules)} rules on {len(b.matrices)} matrices"
              + ("" if not bad else f"  UNSOUND: {', '.join(bad)}"))
        failures += [(name, r) for r in bad]

    # Each meet is checked against the product its calculus tries as a
    # model, not against `meet.matrices`: those keep the product only when
    # every rule is already sound in it, and no matrix at all passes any rule.
    # The product reads only each side's first model, the one-world frame at
    # any number of worlds, so the meets are built from the default bundles,
    # whose models are found without the 32-element matrices.
    for n1, n2 in itertools.combinations_with_replacement(PRESET_NAMES, 2):
        meet = combine_bundles(load_preset(n1), load_preset(n2))
        name = f"meet({n1},{n2})"
        firsts = [c.models[0] for c in meet.calculus.components if c.models]
        if len(firsts) < 2:
            print(f"{name}: {len(meet.calculus.rules)} rules  NO PRODUCT: a component has no model")
            failures.append((name, None))
            continue
        product = product_matrix(*firsts, meet.signature)
        bad = [r.name for r in meet.calculus.rules if not check_rule_soundness((product,), r)]
        print(f"{name}: {len(meet.calculus.rules)} rules"
              + ("" if not bad else f"  UNSOUND: {', '.join(bad)}"))
        failures += [(name, r) for r in bad]

    if failures:
        print(f"\n{len(failures)} failures: unsound rules or meets without a product", file=sys.stderr)
        return 1
    print("\nall rules sound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
