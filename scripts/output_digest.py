#!/usr/bin/env python3
"""One sha256 over the command line's output on a fixed grid of runs.

Usage:  python3 scripts/output_digest.py

Runs `mirrorpair.cli.run` in this process, importing the package from the
`src/` of the checkout the script sits in, over a fixed grid of 300 runs:

  * i-function, tau-d, mirror-map, quantum-period, regularized-period,
    proper-potential, classical-period and verify on every builtin geometry,
    at the default order and at --order 4, 8 and 12 (288 runs);
  * identities --seed 3 --cases 4, verify --geometry p2_cubic
    --negative-control, and the refusals i-function --order 1 and
    i-function --geometry nope (12 runs);

each in json, csv and pretty.  Every run contributes the sha256 of its argv,
exit code, standard output and standard error; the script prints the sha256
over those, one line.  A change that promises unchanged output prints the
same digest as its parent: copy this script into both checkouts and compare.
"""

import contextlib
import hashlib
import io
import sys
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


def grid():
    for command in COMMANDS:
        for name in sorted(BUILTIN_CONFIGS):
            for order in ((), ("--order", "4"), ("--order", "8"), ("--order", "12")):
                yield (command, "--geometry", name, *order)
    yield from EXTRA


def main() -> int:
    total = hashlib.sha256()
    for argv in grid():
        for fmt in ("json", "csv", "pretty"):
            args = [*argv, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(args, stream=out)
            one = hashlib.sha256()
            for part in (" ".join(args), str(code), out.getvalue(), err.getvalue()):
                one.update(part.encode() + b"\0")
            total.update(one.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
