"""A bounded fuzz of the config boundary.

Each example takes a builtin config without its comment lines, replaces one
or two of its whitespace-separated tokens, and runs a series command at
order 3 on the edited file through `mirrorpair.cli.run`, in-process.
Whatever the edit, the run must end in exit 0 (the edit was harmless) or in
exit 2 with a message that starts `error: `: malformed input is a user
error, never a verification failure (1), a broken pipeline invariant (3) or
an escaped exception.

A second fuzz draws one to three invariant rows (either kind, classes of one
or two components, psi powers 0 to 4, zero and nonzero values) and attaches
them to a builtin once through `--table` and once through the `invariants`
key of a copy of its config.  Both routes meet one gate, so they end in the
same exit code and, after the file's path prefix, the same message.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorpair import BUILTIN_CONFIGS
from mirrorpair.geometry import TABLE_KINDS
from mirrorpair.cli import run

NAMES = sorted(BUILTIN_CONFIGS)
# token lists with the whitespace kept between them; comment lines left out
SPLIT = {
    name: re.split(r"(\s+)", "".join(
        line for line in BUILTIN_CONFIGS[name].splitlines(True) if not line.startswith("#")))
    for name in NAMES
}
# what an edited token becomes: tokens of any builtin, odd numbers and stray syntax
POOL = sorted({t for parts in SPLIT.values() for t in parts[::2] if t}) + [
    "", "0", "-1", "-3", "2", "7", "1/0", "3/2", "-", "*", "+", "=", ";", "x",
    "nan", "1e3", "99999999999", "H+H", "-h", "2*h", "[pair]", "[toric]",
]
COMMANDS = ("i-function", "mirror-map", "proper-potential")


@st.composite
def edited_configs(draw):
    name = draw(st.sampled_from(NAMES))
    parts = list(SPLIT[name])
    positions = range(0, len(parts), 2)
    for _ in range(draw(st.integers(1, 2))):
        parts[draw(st.sampled_from(positions))] = draw(st.sampled_from(POOL))
    return "".join(parts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=edited_configs(), command=st.sampled_from(COMMANDS))
def test_edited_configs_end_in_a_pointed_error_or_a_result(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "edited.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([command, "--geometry", str(path), "--order", "3", "--format", "json"],
                   stream=out)
    assert code in (0, 2), (code, err.getvalue())
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: ")
        assert "Traceback" not in message


ROWS = st.lists(
    st.builds(
        "{} {} {} pt {}".format,
        st.sampled_from(TABLE_KINDS),
        st.lists(st.integers(0, 3), min_size=1, max_size=2).map(lambda b: ",".join(map(str, b))),
        st.integers(0, 4),
        st.sampled_from(["0", "1", "5", "1/8", "-1/2"]),
    ),
    min_size=1,
    max_size=3,
)


def _run(argv, path):
    """Exit code, stdout and stderr of one in-process run, the path prefix taken off."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, stream=out)
    message = err.getvalue()
    assert code in (0, 2), (argv, code, message)
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert "Traceback" not in message
    return code, out.getvalue(), message.replace(f"error: {path}: ", "error: ")


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(NAMES), rows=ROWS,
       command=st.sampled_from(("quantum-period", "tau-d", "i-function")))
def test_table_rows_meet_one_gate_from_either_route(tmp_path_factory, name, rows, command):
    base = tmp_path_factory.getbasetemp()
    table = base / "rows.tsv"
    table.write_text("".join(f"{r}\n" for r in rows))
    cfg = base / "with_rows.cfg"
    cfg.write_text(BUILTIN_CONFIGS[name].replace(
        "tau_d_source = zero\n",
        "tau_d_source = zero\ninvariants =\n" + "".join(f"    {r}\n" for r in rows)))
    argv = [command, "--order", "3", "--format", "json"]
    from_table = _run([*argv, "--geometry", name, "--table", str(table)], table)
    from_key = _run([*argv, "--geometry", str(cfg)], cfg)
    assert from_table == from_key
