#!/usr/bin/env python3
"""One sha256 over the command line's output on a fixed grid of runs.

Usage:  python3 scripts/output_digest.py

Runs `mirrorpair.cli.run` in this process, importing the package from the
`src/` of the checkout the script sits in, over a fixed grid of 411 runs:

  * i-function, tau-d, mirror-map, quantum-period, regularized-period,
    proper-potential, classical-period and verify on every builtin geometry,
    at the default order and at --order 4, 8 and 12 (288 runs);
  * identities --seed 3 --cases 4, verify --geometry p2_cubic
    --negative-control, and the refusals i-function --order 1 and
    i-function --geometry nope (12 runs);
  * tau-d and the refused i-function on blp3_k3 with tau_d_source = table
    and two d_point rows, and quantum-period and verify on blp3_k3 with a
    --table of two x_point rows, one value of each a fraction (12 runs);
  * the eight geometry subcommands on p2_cubic with j_source =
    invariant_table and its one-point invariants through t^9 as x_point
    rows, at the default order and at --order 4, 8 and 12, and verify
    --negative-control on it (99 runs);

each in json, csv and pretty.  The configs and table of the last two groups
are written to a temporary directory, whose path becomes the token <tmp> in
the argv and standard error that are hashed.  Every run contributes the sha256
of its argv, exit code, standard output and standard error; the script
prints the sha256 over those, one line.  A change that promises unchanged
output prints the same digest as its parent: copy this script into both
checkouts and compare.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorpair.cli import run  # noqa: E402
from mirrorpair.geometry import BUILTIN_CONFIGS  # noqa: E402

COMMANDS = ("i-function", "tau-d", "mirror-map", "quantum-period", "regularized-period",
            "proper-potential", "classical-period", "verify")
EXTRA = (
    ("identities", "--seed", "3", "--cases", "4"),
    ("verify", "--geometry", "p2_cubic", "--negative-control"),
    ("i-function", "--order", "1"),
    ("i-function", "--geometry", "nope"),
)
TMP = "<tmp>"
FILES = {
    "tau_d.ini": BUILTIN_CONFIGS["blp3_k3"].replace(
        "tau_d_source = zero\n",
        "tau_d_source = table\ninvariants =\n    d_point 3,0 1 pt 5\n    d_point 2,0 0 pt 3/7\n",
    ),
    "x.table": "x_point 0,2 0 pt 5\nx_point 0,3 1 pt 7/3\n",
    "p2_table.ini": BUILTIN_CONFIGS["p2_cubic"].replace(
        "j_source = closed_form_projective",
        "j_source = invariant_table\ninvariants =\n    x_point 1 1 pt 1\n"
        "    x_point 2 4 pt 1/8\n    x_point 3 7 pt 1/216",
    ),
}
TABLE_RUNS = (
    ("tau-d", "--geometry", f"{TMP}/tau_d.ini"),
    ("i-function", "--geometry", f"{TMP}/tau_d.ini"),
    ("quantum-period", "--geometry", "blp3_k3", "--table", f"{TMP}/x.table"),
    ("verify", "--geometry", "blp3_k3", "--table", f"{TMP}/x.table"),
)


ORDERS = ((), ("--order", "4"), ("--order", "8"), ("--order", "12"))


def grid():
    for command in COMMANDS:
        for name in sorted(BUILTIN_CONFIGS):
            for order in ORDERS:
                yield (command, "--geometry", name, *order)
    yield from EXTRA
    yield from TABLE_RUNS
    for command in COMMANDS:
        for order in ORDERS:
            yield (command, "--geometry", f"{TMP}/p2_table.ini", *order)
    yield ("verify", "--geometry", f"{TMP}/p2_table.ini", "--negative-control")


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for argv in grid():
            for fmt in ("json", "csv", "pretty"):
                args = [*argv, "--format", fmt]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run([a.replace(TMP, tmp) for a in args], stream=out)
                one = hashlib.sha256()
                for part in (" ".join(args), str(code), out.getvalue(),
                             err.getvalue().replace(tmp, TMP)):
                    one.update(part.encode() + b"\0")
                total.update(one.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
