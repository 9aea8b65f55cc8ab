#!/usr/bin/env python3
"""Randomized sweep over the standalone identities.

Usage:  python3 scripts/identity_sweep.py [--cases N] [--seed S] [--order K]

Draws random inputs and checks, case by case:
  * Lagrange inversion: compose(f, inverse(f)) == omega exactly,
  * the Bell exponential identity for random unit-constant polynomials,
  * the potential roundtrip for random mirror exponents and multipliers.

Exits nonzero on the first failure, printing the offending input so the case
can be replayed.
"""

import argparse
import sys
from random import Random

from mirrorpair import MirrorChange, bell_identity_check, inversion_roundtrip, potential_roundtrip
from mirrorpair.inversion import random_exponent, random_simple_pole, random_unit_tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--order", type=int, default=10, help="inversion comparison depth")
    args = ap.parse_args(argv)

    rng = Random(args.seed)
    failures = 0

    for case in range(args.cases):
        f = random_simple_pole(rng)
        ok, residual = inversion_roundtrip(f, args.order)
        if not ok:
            print(f"lagrange case {case}: FAIL  f={f.as_dict()}  residual={residual}")
            failures += 1

    for case in range(args.cases):
        tail = random_unit_tail(rng)
        report = bell_identity_check(tail, 12)
        if not report.ok:
            print(f"bell case {case}: FAIL  tail={tail}  mismatches={report.mismatches}")
            failures += 1

    for case in range(args.cases):
        m = rng.choice((1, 2, 3, 4))
        g = random_exponent(rng, 5)
        report = potential_roundtrip(MirrorChange((m,), g))
        if not report.ok:
            print(f"roundtrip case {case}: FAIL  m={m}  g={g}  {report.mismatches}")
            failures += 1

    total = 3 * args.cases
    if failures:
        print(f"{failures}/{total} checks FAILED (seed {args.seed})")
        return 1
    print(f"all {total} randomized checks passed (seed {args.seed}, order {args.order})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
