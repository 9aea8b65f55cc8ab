#!/usr/bin/env python3
"""Run the whole pipeline over the builtin catalog and print a readable digest.

Usage:  python3 scripts/catalog_report.py [--order N]

For each geometry: the mirror exponent, the flat-coordinate exponent, the
potential weights, the period comparison (when one-point data exists), the
scaling identities, and the potential roundtrip.  One pipeline run per
geometry feeds all of it, at the truncation order `verify` would use.
"""

import argparse
import sys
import time

from mirrorpair import (
    MissingDataError,
    builtin_geometry,
    compare_periods,
    euler_scaling_check,
    require_quantum_source,
    roundtrip_for_geometry,
    shared_potential,
)

CATALOG = ("p2_cubic", "p3_quartic", "blp3_k3")


def _fmt_series(series, names):
    bits = []
    for exps, v in sorted(series.terms.items()):
        mono = "·".join(
            f"{n}^{e}" for n, e in zip(names, exps) if e
        ) or "1"
        bits.append(f"{v}·{mono}")
    return "  +  ".join(bits) if bits else "0"


def report(name: str, order: int | None) -> None:
    geom = builtin_geometry(name)
    t_order = order or (3 * max(abs(m) for m in geom.m_vector))
    try:
        require_quantum_source(geom)
        skipped = None
    except MissingDataError as exc:
        skipped = exc

    t0 = time.perf_counter()
    pot = shared_potential(geom, None if skipped else t_order)
    print(f"\n=== {name} ===")
    print(f"m-vector {geom.m_vector}, Novikov variables {geom.novikov_names}, "
          f"truncation order {pot.geometry.policy.max_total}")
    print(f"mirror exponent g:   {_fmt_series(pot.change.g, geom.novikov_names)}")
    print(f"flat exponent G:     {_fmt_series(pot.change.composed, geom.novikov_names)}")
    print("potential weights:   "
          + ", ".join(f"w{list(b)}={c}" for b, c in pot.terms))

    if skipped:
        print(f"period comparison:   skipped ({skipped})")
    else:
        cmp = compare_periods(pot, t_order)
        print(f"period comparison through t^{t_order}:")
        for d, cl, reg, ok in cmp.rows:
            if cl or reg:
                flag = "ok" if ok else "MISMATCH"
                print(f"    t^{d:<3} classical {str(cl):>12}  regularized {str(reg):>12}  {flag}")
        print(f"period theorem:      {'pass' if cmp.passed else 'FAIL'}")

    scaling = euler_scaling_check(pot)
    print(f"scaling identities:  {'pass' if scaling.all_ok else 'FAIL: ' + scaling.details}")
    rt = roundtrip_for_geometry(pot)
    print(f"potential roundtrip: {'pass' if rt.ok else f'FAIL {rt.mismatches}'}")
    print(f"({time.perf_counter() - t0:.2f}s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=None,
                    help="t-order for the period comparison (default: 3·max|m|)")
    args = ap.parse_args(argv)
    for name in CATALOG:
        report(name, args.order)
    return 0


if __name__ == "__main__":
    sys.exit(main())
