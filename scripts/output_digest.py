#!/usr/bin/env python3
"""One sha256 over the command line's output on a fixed grid of runs.

Usage:  python3 scripts/output_digest.py

Runs `mirrorpair.cli.run` in this process, importing the package from the
`src/` of the checkout the script sits in, over a fixed grid of 469 runs:

  * i-function, tau-d, mirror-map, quantum-period, regularized-period,
    proper-potential, classical-period and verify on every builtin geometry,
    at the default order and at --order 4, 8 and 12 (288 runs);
  * identities --seed 3 --cases 4, verify --geometry p2_cubic
    --negative-control, the refusals i-function --order 1 and
    i-function --geometry nope, i-function --geometry blp3_k3
    --order 16, verify on p2_cubic and p3_quartic at --order 48,
    where each substitution through the mirror change sums 16 and 12
    groups of one class, mirror-map --geometry blp3_k3 --order 20,
    whose change of m = (-1, 1) reads e^G, G and both inverse coordinates
    off one power walk, and mirror-map --geometry p2_cubic --order 48,
    whose change of m = (3,) takes its one-sign exps and log at depth
    (27 runs);
  * tau-d and the refused i-function on blp3_k3 with tau_d_source = table
    and two d_point rows, and quantum-period and verify on blp3_k3 with a
    --table of two x_point rows, one value of each a fraction (12 runs);
  * the refused i-function and mirror-map at --order 6 on p2_cubic as an
    invariant_table pair (its [toric] section dropped) with a psi^0 row for a
    class of D.beta = 6, which puts content at z^4 (6 runs);
  * the eight geometry subcommands on p2_cubic as an invariant_table pair
    with its one-point invariants through t^9 as x_point rows, at the
    default order and at --order 4, 8 and 12, and verify
    --negative-control on it (99 runs);
  * verify --order 9, with and without --negative-control, on the same
    pair with a zero row at t^3, the lowest read row, which the control
    perturbs (6 runs);
  * quantum-period on p2_cubic and blp3_k3 and tau-d on blp3_k3 with
    tau_d_source = table, each with a --table of one row: rows the table
    gate refuses (a closed-form contradiction, an x_point or d_point row
    at a psi power never read, a d_point row on a zero divisor mirror map)
    and zero rows it accepts (27 runs);
  * the refused mirror-map at --order 4 on two pairs whose ring has a
    degenerate pairing: P^2's ring without H*H = H2 under a toric template,
    and p2_cubic with a divisor class q that pairs to 0 with every class
    (6 runs);

each in json, csv and pretty.  The configs and tables of the last six groups
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
    ("i-function", "--geometry", "blp3_k3", "--order", "16"),
    ("verify", "--geometry", "p2_cubic", "--order", "48"),
    ("verify", "--geometry", "p3_quartic", "--order", "48"),
    ("mirror-map", "--geometry", "blp3_k3", "--order", "20"),
    ("mirror-map", "--geometry", "p2_cubic", "--order", "48"),
)
TMP = "<tmp>"


def p2_table(rows: str) -> str:
    """p2_cubic as an invariant_table pair with these x_point rows, [toric] dropped."""
    return (
        BUILTIN_CONFIGS["p2_cubic"]
        .replace("novikov = y\n", "novikov = y\ninvariants =\n" + rows + "\n")
        .replace("[toric]\ndenominators = H; H; H\n\n", "")
    )


FILES = {
    "tau_d.ini": BUILTIN_CONFIGS["blp3_k3"].replace(
        "tau_d_source = zero\n",
        "tau_d_source = table\ninvariants =\n    d_point 3,0 1 pt 5\n    d_point 2,0 0 pt 3/7\n",
    ),
    "x.table": "x_point 0,2 0 pt 5\nx_point 0,3 1 pt 7/3\n",
    "p2_table.ini": p2_table(
        "    x_point 1 1 pt 1\n    x_point 2 4 pt 1/8\n    x_point 3 7 pt 1/216"),
    "above_z1.ini": p2_table("    x_point 1 1 pt 1\n    x_point 2 0 pt 1"),
    "p2_zero.ini": p2_table(
        "    x_point 1 1 pt 0\n    x_point 2 4 pt 1/8\n    x_point 3 7 pt 1/216"),
    "degenerate_ambient.ini": BUILTIN_CONFIGS["p2_cubic"]
    .replace("products =\n    H H H2 1\n", "").replace("    H p 3\n", ""),
    "degenerate_divisor.ini": BUILTIN_CONFIGS["p2_cubic"].replace(
        "basis = one p\ndegrees = 0 1\n", "basis = one p q\ndegrees = 0 1 1\n"),
}
# (command, geometry, the one row of its --table)
GATE_ROWS = (
    ("quantum-period", "p2_cubic", "x_point 1 1 pt 5"),
    ("quantum-period", "p2_cubic", "x_point 2 0 pt 1"),
    ("quantum-period", "p2_cubic", "d_point 1 1 pt 3"),
    ("quantum-period", "blp3_k3", "x_point 1,0 0 pt 7"),
    ("quantum-period", "blp3_k3", "x_point 0,2 3 pt 7"),
    ("quantum-period", "blp3_k3", "x_point 1,0 0 pt 0"),
    ("tau-d", f"{TMP}/tau_d.ini", "d_point 2,0 3 pt 9"),
    ("tau-d", f"{TMP}/tau_d.ini", "d_point 1,0 0 pt 2"),
    ("tau-d", f"{TMP}/tau_d.ini", "d_point 1,0 0 pt 0"),
)
FILES.update({f"gate{i}.table": f"{row}\n" for i, (*_, row) in enumerate(GATE_ROWS)})
TABLE_RUNS = (
    ("tau-d", "--geometry", f"{TMP}/tau_d.ini"),
    ("i-function", "--geometry", f"{TMP}/tau_d.ini"),
    ("quantum-period", "--geometry", "blp3_k3", "--table", f"{TMP}/x.table"),
    ("verify", "--geometry", "blp3_k3", "--table", f"{TMP}/x.table"),
    ("i-function", "--geometry", f"{TMP}/above_z1.ini", "--order", "6"),
    ("mirror-map", "--geometry", f"{TMP}/above_z1.ini", "--order", "6"),
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
    for control in ((), ("--negative-control",)):
        yield ("verify", "--geometry", f"{TMP}/p2_zero.ini", "--order", "9", *control)
    for i, (command, geometry, _) in enumerate(GATE_ROWS):
        yield (command, "--geometry", geometry, "--table", f"{TMP}/gate{i}.table")
    for ring in ("ambient", "divisor"):
        yield ("mirror-map", "--geometry", f"{TMP}/degenerate_{ring}.ini", "--order", "4")


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
