"""Command-line surface: formats, exit codes, metadata conventions."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorpair import BUILTIN_CONFIGS, builtin_geometry, cli, load_geometry
from mirrorpair.cli import COMMANDS, build_parser, run


def _run(*argv):
    out = io.StringIO()
    code = run(list(argv), stream=out)
    return code, out.getvalue()


def test_command_roster():
    assert COMMANDS == (
        "i-function",
        "tau-d",
        "mirror-map",
        "quantum-period",
        "regularized-period",
        "proper-potential",
        "classical-period",
        "verify",
        "identities",
    )
    parser = build_parser()
    assert parser.prog == "mirrorpair"
    for name in COMMANDS:
        assert parser.parse_args([name]).command == name


@pytest.mark.parametrize(
    "argv",
    [
        ("i-function", "--geometry", "p2_cubic", "--order", "3"),
        ("tau-d", "--geometry", "p3_quartic"),
        ("mirror-map", "--geometry", "blp3_k3", "--order", "4"),
        ("quantum-period", "--geometry", "p2_cubic", "--order", "6"),
        ("regularized-period", "--geometry", "p2_cubic", "--order", "6"),
        ("proper-potential", "--geometry", "p2_cubic", "--order", "6"),
        ("classical-period", "--geometry", "p3_quartic", "--order", "8"),
        ("identities", "--seed", "1", "--cases", "2"),
    ],
)
def test_subcommands_run_clean(argv):
    code, text = _run(*argv)
    assert code == 0
    assert text.strip()


# ---------------------------------------------------------------------------
# formats


def test_json_format_structure():
    code, text = _run("mirror-map", "--geometry", "p2_cubic", "--order", "4",
                      "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"metadata", "records"}
    md = doc["metadata"]
    assert md["geometry"] == "p2_cubic"
    assert md["value_format"] == "exact rationals as p/q strings"
    assert "product_rule" in md and "pushforward" in md["product_rule"]
    assert "contact_one_convention" in md
    rows = {(r["series"], r["selector"]): r["value"] for r in doc["records"]}
    assert rows[("mirror_exponent", "y^1")] == "2"
    assert rows[("mirror_exponent", "y^3")] == "560/3"


def test_json_records_carry_structured_fields():
    _, text = _run("i-function", "--geometry", "p2_cubic", "--order", "2",
                   "--format", "json")
    doc = json.loads(text)
    first = doc["records"][0]
    for key in ("series", "selector", "value", "beta", "contact", "z", "log", "class"):
        assert key in first
    # every value parses back to an exact rational
    from fractions import Fraction

    for r in doc["records"]:
        Fraction(r["value"])


EVERY_COMMAND = [
    *[(command, "--geometry", name) for command in COMMANDS if command != "identities"
      for name in sorted(BUILTIN_CONFIGS)],
    ("identities", "--cases", "3"),
]


def _dict_view(record):
    series, selector, value, fields = record
    return {"series": series, "selector": selector, "value": value, **dict(fields)}


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_json_output_is_the_stdlib_indented_document(monkeypatch, argv):
    # the stdlib encoder is the oracle: json.dumps(doc, indent=2) of the very
    # metadata and records `_emit` was handed, each record as its dict view
    handed = []
    real = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda fmt, md, recs, stream:
                        handed.append((md, recs)) or real(fmt, md, recs, stream))
    code, text = _run(*argv, "--format", "json")
    assert len(handed) == (code != 2)
    for md, recs in handed:
        for series, selector, value, fields in recs:
            assert type(series) is type(selector) is type(value) is str
            assert all(type(v) is not list for _, v in fields)
        doc = {"metadata": md, "records": [_dict_view(r) for r in recs]}
        assert text == json.dumps(doc, indent=2) + "\n"


json_scalars = st.one_of(st.text(), st.integers(), st.booleans(), st.none())
json_values = st.one_of(json_scalars, st.lists(json_scalars), st.lists(json_scalars).map(tuple))
json_record = st.tuples(
    st.text(), st.text(), st.text(),
    st.dictionaries(st.text().filter(lambda k: k not in ("series", "selector", "value")),
                    json_values).map(lambda d: tuple(d.items())),
)


@given(metadata=st.dictionaries(st.text(), json_values), records=st.lists(json_record, max_size=4))
@example(metadata={}, records=[])
@example(metadata={"\u00e9\u2603\U0001f600": "\"\\\n\x00\x1f\x7f\ud800"},
         records=[("", "", "", ()),
                  ("s", "t", "v", (("n", (-(10 ** 40), 0, 10 ** 40, True, None, "")), ("e", [])))])
# equal fields of other types share no text: 1 and True, (1,) and (True,), () and []
@example(metadata={"n": 1, "b": True}, records=[
    ("s", "a", "1", (("n", 1), ("t", (1,)), ("e", ()), ("z", 0))),
    ("s", "a", "1", (("n", True), ("t", (True,)), ("e", []), ("z", False))),
    ("s", "a", "1", (("n", 1), ("t", (1, True)), ("e", ()), ("z", 0))),
    ("s", "a", "1", (("n", True), ("t", (True, 1)), ("e", ()), ("z", False))),
])
@settings(max_examples=150, deadline=None)
def test_json_writer_matches_the_stdlib_on_flat_documents(metadata, records):
    out = io.StringIO()
    cli._emit("json", metadata, records, out)
    assert out.getvalue() == json.dumps(
        {"metadata": metadata, "records": [_dict_view(r) for r in records]}, indent=2) + "\n"


@pytest.mark.parametrize("value", [0.5, {"nested": "1"}, [["1"]], [1.0], 1.0, ((1,),), (1.0,)])
def test_json_writer_refuses_values_it_cannot_write(value):
    # the records before the refused one hold equal values the writer can write
    written = [("x", "s", "v", (("weight", 1),)), ("x", "s", "v", (("weight", (1,)),))]
    for metadata, records in (({"weight": value}, []),
                              ({}, [*written, ("x", "s", "v", (("weight", value),))])):
        with pytest.raises(TypeError, match="'weight'"):
            cli._emit("json", metadata, records, io.StringIO())


def _json_run(argv):
    code, text = _run(*argv, "--format", "json")
    if code == 2:
        return code, None, None
    doc = json.loads(text)
    return code, doc["metadata"], [(r["series"], r["selector"], r["value"]) for r in doc["records"]]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_csv_output_is_the_stdlib_csv_writer(argv):
    # the oracle: the metadata as "# key: value" lines, then csv.writer rows of
    # the (series, selector, value) triples the JSON run printed
    code, md, triples = _json_run(argv)
    want = io.StringIO()
    for key, value in (md or {}).items():
        want.write(f"# {key}: {value}\n")
    if md is not None:
        csv.writer(want).writerows([("series", "selector", "value"), *triples])
    assert _run(*argv, "--format", "csv") == (code, want.getvalue())


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_pretty_output_is_aligned_text(argv):
    # the oracle: "key: value" lines, a blank line, then the triples in columns
    # padded to the widest series and selector, two spaces apart
    code, md, triples = _json_run(argv)
    lines = [f"{key}: {value}" for key, value in (md or {}).items()]
    if triples:
        w1 = max(len(s) for s, _, _ in triples)
        w2 = max(len(sel) for _, sel, _ in triples)
        lines += ["", *[s.ljust(w1) + "  " + sel.ljust(w2) + "  " + v for s, sel, v in triples]]
    assert _run(*argv, "--format", "pretty") == (code, "".join(ln + "\n" for ln in lines))


def test_csv_format():
    code, text = _run("proper-potential", "--geometry", "p2_cubic", "--order", "9",
                      "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# geometry: p2_cubic") for ln in comments)
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at].startswith("series,selector,value")
    body = "\n".join(lines[header_at:])
    assert "t^3 x^-2,2" in body
    assert "t^9 x^-8,32" in body


def test_pretty_format_has_metadata_preamble():
    _, text = _run("quantum-period", "--geometry", "p2_cubic", "--order", "6")
    assert text.startswith("geometry: p2_cubic")
    assert "truncation_weights:" in text
    assert "t^3" in text


# ---------------------------------------------------------------------------
# command content spot checks


def test_tau_d_reports_zero_for_projective_pairs():
    code, text = _run("tau-d", "--geometry", "p2_cubic")
    assert code == 0
    assert "zero" in text


def test_mirror_map_emits_inverse_coordinates():
    _, text = _run("mirror-map", "--geometry", "p2_cubic", "--order", "4",
                   "--format", "json")
    rows = {(r["series"], r["selector"]): r["value"] for r in json.loads(text)["records"]}
    assert rows[("inverse_coordinate", "y: q^2")] == "-6"
    assert rows[("inverse_coordinate", "y: q^3")] == "9"
    assert rows[("composed_exponent", "q^2")] == "3"


def test_proper_potential_lists_per_class_rows_for_several_variables():
    _, text = _run("proper-potential", "--geometry", "blp3_k3", "--order", "4",
                   "--format", "json")
    doc = json.loads(text)
    kinds = {r["series"] for r in doc["records"]}
    assert "proper_potential_term" in kinds  # multi-variable: per-class rows


def test_mixed_sign_potential_prints_only_order_stable_records(tmp_path):
    """With m = (-1, 1) only the per-class terms are exact; the collapsed view is refused.

    The quantum side reads two x_point rows at D.beta = 2, whose t-sum 1 + 7
    would be a fact about the table, not about the pair.
    """
    table = tmp_path / "points.tsv"
    table.write_text("x_point 0,2 0 pt 1\nx_point 3,5 0 pt 7\n")
    reasons = set()

    def records(command, series, order):
        code, text = _run(command, "--geometry", "blp3_k3", "--order", str(order),
                          "--table", str(table), "--format", "json")
        assert code == 0
        doc = json.loads(text)
        reason = doc["metadata"]["collapsed_view"]
        assert reason.startswith("refused: ") and "both signs" in reason
        reasons.add(reason)
        assert {r["series"] for r in doc["records"]} == {series}
        return {(r["selector"], r["value"]) for r in doc["records"]}

    for command, series, known in (
        ("proper-potential", "proper_potential_term", ("q^0:2 t^2 x^-1", "1/2")),
        ("classical-period", "classical_period_term", ("q^1:3 t^2", "704")),
        ("quantum-period", "quantum_period_term", ("q^3:5 t^2", "7")),
        ("regularized-period", "regularized_period_term", ("q^3:5 t^2", "14")),
    ):
        low = records(command, series, 4)
        assert known in low
        assert low <= records(command, series, 6) <= records(command, series, 8)
    assert len(reasons) == 1  # one refusal, word for word, on all four commands
    quantum = records("quantum-period", "quantum_period_term", 8)
    assert quantum == {("q^0:2 t^2", "1"), ("q^3:5 t^2", "7")}
    assert records("regularized-period", "regularized_period_term", 8) == {
        (selector, str(int(value) * 2)) for selector, value in quantum  # 2! at D.beta = 2
    }


def test_regularized_matches_quantum_times_factorial():
    import math
    from fractions import Fraction

    _, qtext = _run("quantum-period", "--geometry", "p3_quartic", "--order", "8",
                    "--format", "json")
    _, rtext = _run("regularized-period", "--geometry", "p3_quartic", "--order", "8",
                    "--format", "json")
    q = {r["t_deg"]: Fraction(r["value"]) for r in json.loads(qtext)["records"]}
    r = {r["t_deg"]: Fraction(r["value"]) for r in json.loads(rtext)["records"]}
    for d, v in q.items():
        assert r[d] == v * math.factorial(d)


def test_identities_deterministic_under_seed():
    a = _run("identities", "--seed", "11", "--cases", "3")
    b = _run("identities", "--seed", "11", "--cases", "3")
    assert a == b
    c = _run("identities", "--seed", "12", "--cases", "3")
    assert c[0] == 0  # different draws, still passing


def test_identities_reports_a_planted_inversion_fault(monkeypatch):
    """Negative control: a wrong inverse fails every Lagrange case, not the Bell ones."""
    from mirrorpair import inversion

    original = inversion.lagrange_inverse

    def bumped(f, order):
        g = original(f, order)
        g[2] = g.get(2, 0) + 1
        return g

    monkeypatch.setattr(inversion, "lagrange_inverse", bumped)
    code, text = _run("identities", "--cases", "3", "--format", "json")
    assert code == 1
    doc = json.loads(text)
    assert doc["metadata"]["result"] == "fail (3 cases)"
    status = {}
    for r in doc["records"]:
        status.setdefault(r["series"], []).append(r["value"])
    assert status == {"lagrange_roundtrip": ["fail"] * 3, "bell_identity": ["pass"] * 3}


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_catalog():
    code, text = _run("verify", "--geometry", "p2_cubic", "--order", "6")
    assert code == 0
    assert "result: pass" in text
    assert "period_theorem        pass" in text


def test_verify_negative_control():
    code, text = _run("verify", "--geometry", "p2_cubic", "--order", "6",
                      "--negative-control")
    assert code == 0
    assert "pass (mismatch caught at t^3)" in text
    assert "MISMATCH" in text


def test_verify_skips_period_check_without_data():
    code, text = _run("verify", "--geometry", "blp3_k3", "--order", "4")
    assert code == 0
    assert "skipped" in text
    assert "euler_scaling" in text


@pytest.mark.parametrize(
    "argv, order, skipped",
    [
        (("--geometry", "p2_cubic", "--order", "27"), 9, False),
        (("--geometry", "blp3_k3", "--order", "18"), 5, True),
    ],
)
def test_verify_reports_the_order_it_ran_at(argv, order, skipped):
    code, text = _run("verify", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["truncation_order"] == order
    checks = {r["selector"]: r for r in doc["records"] if r["series"] == "check"}
    assert sorted(checks) == ["euler_scaling", "period_theorem", "potential_roundtrip"]
    assert all(r["order"] == order for r in checks.values())
    assert checks["period_theorem"]["value"].startswith("skipped") == skipped


@pytest.mark.parametrize(
    "argv, order",
    [
        (("classical-period", "--geometry", "p2_cubic", "--order", "48"), 16),
        (("proper-potential", "--geometry", "p2_cubic", "--order", "12"), 4),
        (("proper-potential", "--geometry", "blp3_k3", "--order", "4"), 4),
    ],
)
def test_potential_commands_report_the_order_they_ran_at(argv, order):
    code, text = _run(*argv, "--format", "json")
    assert code == 0
    assert json.loads(text)["metadata"]["truncation_order"] == order


STABLE_COMMANDS = ("i-function", "tau-d", "mirror-map", "quantum-period",
                   "regularized-period", "proper-potential", "classical-period")


@pytest.mark.parametrize("geometry", sorted(BUILTIN_CONFIGS))
def test_records_are_stable_under_a_higher_order(geometry):
    """A record printed at --order 4 prints unchanged at --order 6, or both runs refuse."""
    outcomes = {}
    for command in STABLE_COMMANDS:
        runs = []
        for order in ("4", "6"):
            out = io.StringIO()
            code = run([command, "--geometry", geometry, "--order", order, "--format", "json"],
                       stream=out)
            records = json.loads(out.getvalue())["records"] if code == 0 else []
            runs.append((code, {(r["series"], r["selector"]): r["value"] for r in records}))
        (low_code, low), (high_code, high) = runs
        outcomes[command] = low_code
        if low_code == 2:
            assert high_code == 2, command
            continue
        assert (low_code, high_code) == (0, 0), command
        assert low and low.items() <= high.items(), command
    refused = sorted(c for c, code in outcomes.items() if code == 2)
    expect = ["quantum-period", "regularized-period"]
    assert refused == (expect if geometry == "blp3_k3" else [])


def _count_calls(monkeypatch, name):
    """Count calls of an ifunctions function through every mirrorpair name bound to it."""
    from mirrorpair import ifunctions

    original = getattr(ifunctions, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "mirrorpair" or key.startswith("mirrorpair.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_builds(monkeypatch, attr):
    """Count builds of a cached MirrorChange property: e^G (`exp_composed`) or G (`composed`)."""
    from functools import cached_property

    from mirrorpair import MirrorChange

    build = MirrorChange.__dict__[attr].func
    builds = []

    def counted(change):
        builds.append(attr)
        return build(change)

    prop = cached_property(counted)
    prop.__set_name__(MirrorChange, attr)
    monkeypatch.setattr(MirrorChange, attr, prop)
    return builds


@pytest.mark.parametrize(
    "argv, want",  # want: I-function runs, e^G builds, G builds
    [
        (("verify", "--geometry", "p2_cubic", "--order", "9", "--negative-control"), (1, 1, 1)),
        (("verify", "--geometry", "blp3_k3", "--order", "4"), (1, 1, 1)),
        (("mirror-map", "--geometry", "p2_cubic", "--order", "4"), (1, 1, 1)),
        (("classical-period", "--geometry", "p2_cubic", "--order", "9"), (1, 0, 0)),
        (("proper-potential", "--geometry", "p2_cubic", "--order", "9"), (1, 1, 0)),
    ],
)
def test_one_pipeline_run_per_command(monkeypatch, argv, want):
    """One I-function per command; e^G and G are built at most once, and only where read."""
    runs = _count_calls(monkeypatch, "relative_i_function")
    exp_builds = _count_builds(monkeypatch, "exp_composed")
    log_builds = _count_builds(monkeypatch, "composed")
    code, _ = _run(*argv)
    assert code == 0
    assert (len(runs), len(exp_builds), len(log_builds)) == want


@pytest.mark.parametrize("argv", [
    ("mirror-map", "--geometry", "blp3_k3", "--order", "6"),
    ("proper-potential", "--geometry", "blp3_k3", "--order", "6"),
    ("classical-period", "--geometry", "p2_cubic", "--order", "9"),
    ("verify", "--geometry", "p3_quartic", "--order", "8"),
])
def test_pipeline_builds_no_slice_below_z0(monkeypatch, argv):
    """The mirror map and the potential read z¹ and z⁰ only: the I-function they
    normalize is built from z⁰ up and says so."""
    from mirrorpair import cli, ifunctions, periods

    seen = []

    def spy(series):
        seen.append(series)
        return ifunctions.normalize_i(series)

    monkeypatch.setattr(cli, "normalize_i", spy)
    monkeypatch.setattr(periods, "normalize_i", spy)
    code, _ = _run(*argv)
    assert code == 0 and len(seen) == 1
    (series,) = seen
    assert series.lowest_z == 0 and series.terms
    assert min(z for _, _, z, _ in series.terms) >= 0


def test_i_function_prints_the_whole_series():
    code, text = _run("i-function", "--geometry", "blp3_k3", "--order", "8", "--format", "json")
    records = json.loads(text)["records"]
    assert code == 0 and len(records) == 574
    assert sum(r["z"] < 0 for r in records) == 451 and min(r["z"] for r in records) == -3


def test_verify_negative_control_needs_period_data(capsys):
    code = run(["verify", "--geometry", "blp3_k3", "--order", "4",
                "--negative-control"], stream=io.StringIO())
    assert code == 2


def test_negative_control_perturbs_only_rows_inside_the_window(tmp_path, capsys):
    # the plane's one-point invariants as x_point rows, the first at t³: at t-order 2
    # no row lies in the compared window, whichever source the rows come from
    table_pair = tmp_path / "p2_table.ini"
    table_pair.write_text(BUILTIN_CONFIGS["p2_cubic"].replace(
        "j_source = closed_form_projective",
        "j_source = invariant_table\ninvariants =\n    x_point 1 1 pt 1\n"
        "    x_point 2 4 pt 1/8\n    x_point 3 7 pt 1/216"))
    refusals = []
    for geometry in (str(table_pair), "p2_cubic"):
        code = run(["verify", "--geometry", geometry, "--order", "2", "--negative-control"],
                   stream=io.StringIO())
        refusals.append((code, capsys.readouterr().err))
    assert refusals == [(2, "error: p2_cubic: no quantum-side entries to perturb "
                            "for the control run\n")] * 2
    # at t-order 3 both catch the planted mismatch at t³
    for geometry in (str(table_pair), "p2_cubic"):
        code, text = _run("verify", "--geometry", geometry, "--order", "3",
                          "--negative-control", "--format", "json")
        assert code == 0 and json.loads(text)["metadata"]["result"] == "pass"


# ---------------------------------------------------------------------------
# error handling


def test_unknown_geometry(capsys):
    code = run(["tau-d", "--geometry", "p9_nonic"], stream=io.StringIO())
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_order_must_be_at_least_two(capsys):
    for command in COMMANDS:
        code = run([command, "--order", "1"], stream=io.StringIO())
        assert code == 2, command
        assert "--order must be at least 2" in capsys.readouterr().err, command


@pytest.mark.parametrize("order", ["0", "1", "-1"])
def test_identities_order_must_be_at_least_two(capsys, order):
    code = run(["identities", "--cases", "1", "--order", order], stream=io.StringIO())
    assert code == 2
    assert "--order must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("order", [sys.maxsize, 10**20])
def test_order_too_large_to_enumerate_is_refused(capsys, order):
    # the first order whose class ranges cannot be indexed by a machine-size integer
    assert run(["i-function", "--order", str(order)], stream=io.StringIO()) == 2
    assert capsys.readouterr().err == f"error: --order must be below {sys.maxsize}, got {order}\n"


def test_identities_runs_at_order_two():
    code, text = _run("identities", "--cases", "1", "--order", "2")
    assert code == 0
    assert "lagrange_order: 2" in text


def test_quantum_period_without_data(capsys):
    code = run(["quantum-period", "--geometry", "blp3_k3", "--order", "4"],
               stream=io.StringIO())
    assert code == 2
    assert "x_point" in capsys.readouterr().err


def test_missing_subcommand_and_bad_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    assert run([], stream=io.StringIO()) == 2
    assert run(["i-function", "--no-such-flag"], stream=io.StringIO()) == 2


def test_table_flag_reads_a_file(tmp_path):
    table = tmp_path / "points.tsv"
    table.write_text("x_point 1 1 pt 1\nx_point 2 4 pt 1/8\nx_point 3 7 pt 1/216\n")
    code, text = _run("quantum-period", "--geometry", "p2_cubic", "--order", "9",
                      "--table", str(table), "--format", "json")
    assert code == 0
    doc = json.loads(text)
    values = {r["t_deg"]: r["value"] for r in doc["records"]}
    assert values[9] == "1/216"


@pytest.mark.parametrize("row", ["x_point 1 1 pt 5", "x_point 1 0 pt 5"])
@pytest.mark.parametrize("command", ["quantum-period", "verify"])
def test_table_flag_refuses_rows_against_the_closed_form(tmp_path, capsys, row, command):
    # p2_cubic computes ⟨[pt] ψ^{D·β−2}⟩ = 1/(d!)^3 in closed form and 0 at any
    # other ψ power; a table row saying otherwise must not be silently ignored.
    table = tmp_path / "points.tsv"
    table.write_text(row + "\n")
    code = run([command, "--geometry", "p2_cubic", "--order", "6",
                "--table", str(table)], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert "class 1 psi^" + row.split()[2] in err and "closed form" in err


@pytest.mark.parametrize("command", ["tau-d", "verify"])
def test_table_flag_refuses_d_point_rows_on_a_zero_divisor_map(tmp_path, capsys, command):
    # p2_cubic declares tau_D = 0 (tau_d_reason = elliptic_curve) and never reads
    # d_point rows; a table carrying one must not be silently ignored.
    table = tmp_path / "points.tsv"
    table.write_text("d_point 1 1 pt 3\n")
    code = run([command, "--geometry", "p2_cubic", "--order", "6",
                "--table", str(table)], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert "d_point class 1 psi^1" in err and "tau_d_reason = elliptic_curve" in err


def test_table_flag_enables_quantum_side(tmp_path):
    # blp3_k3 has no builtin x_point source; attaching one must light it up,
    # exactly as the MissingDataError message promises.
    table = tmp_path / "points.tsv"
    table.write_text("x_point 0,2 0 pt 5\nx_point 0,3 1 pt 7\nx_point 1,3 0 pt 0\n")
    # m = (-1, 1) has both signs, so the t-sum is refused and the nonzero rows print per class
    code, text = _run("quantum-period", "--geometry", "blp3_k3", "--order", "3",
                      "--table", str(table), "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["collapsed_view"].startswith("refused: ")
    values = {(r["series"], r["selector"]): r["value"] for r in doc["records"]}
    assert values == {("quantum_period_term", "q^0:2 t^2"): "5",
                      ("quantum_period_term", "q^0:3 t^3"): "7"}


@pytest.mark.parametrize("command", ["i-function", "mirror-map", "proper-potential"])
def test_table_flag_never_changes_the_i_function(tmp_path, command):
    # the table feeds the quantum side only; blp3_k3's I-function stays toric
    table = tmp_path / "points.tsv"
    table.write_text("x_point 0,2 0 pt 5\nx_point 0,3 1 pt 7\n")
    argv = (command, "--geometry", "blp3_k3", "--order", "4", "--format", "json")
    plain = _run(*argv)
    with_table = _run(*argv, "--table", str(table))
    assert plain[0] == with_table[0] == 0
    assert json.loads(with_table[1])["records"] == json.loads(plain[1])["records"]


def test_table_flag_rejects_wrong_class_shape(tmp_path, capsys):
    table = tmp_path / "points.tsv"
    table.write_text("x_point 1 0 pt 5\n")
    code = run(["quantum-period", "--geometry", "blp3_k3", "--order", "3",
                "--table", str(table)], stream=io.StringIO())
    assert code == 2
    assert "components" in capsys.readouterr().err


def test_table_errors_name_the_file(tmp_path, capsys):
    table = tmp_path / "bad.tsv"
    table.write_text("x_point 1 1 pt\n")
    code = run(["quantum-period", "--geometry", "p2_cubic", "--table", str(table)],
               stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {table}: invariant table line 1: need 5 columns, got 4\n"


def _two_routes(tmp_path, capsys, name, rows):
    """Run quantum-period (tau-d on synthetic_negative, whose quantum side is
    refused) with the rows once in a copy of the config's invariants key and
    once through --table on the config itself; return, per route, the exit
    code, stdout and stderr with the file's path prefix taken off.  An error
    must name the file it comes from."""
    from conftest import SYNTHETIC_NEGATIVE

    listed = "".join(f"    {r}\n" for r in rows)
    if name == "synthetic_negative":
        text, command = SYNTHETIC_NEGATIVE, "tau-d"
        geometry = tmp_path / "plain.ini"
        geometry.write_text(text)
        with_rows = text.replace("invariants =\n", "invariants =\n" + listed)
    else:
        text, command, geometry = BUILTIN_CONFIGS[name], "quantum-period", name
        with_rows = text.replace("tau_d_source = zero\n",
                                 "tau_d_source = zero\ninvariants =\n" + listed)
    cfg = tmp_path / "pair.ini"
    cfg.write_text(with_rows)
    table = tmp_path / "rows.tsv"
    table.write_text("".join(f"{r}\n" for r in rows))
    results = []
    for path, argv in ((cfg, ["--geometry", str(cfg)]),
                       (table, ["--geometry", str(geometry), "--table", str(table)])):
        code, out = _run(command, "--order", "3", *argv)
        err = capsys.readouterr().err
        assert not err or err.startswith(f"error: {path}: "), err
        err = err.replace(f"error: {path}: ", "error: ")
        results.append((code, out, err))
    return results


@pytest.mark.parametrize(
    "name, rows, fragment",
    [
        ("p2_cubic", ["x_point 1 1 pt 5"], "x_point class 1 psi^1 = 5 contradicts the closed form"),
        ("p2_cubic", ["x_point 1,1 0 pt 1"], "table class (1, 1) has 2 components"),
        ("p2_cubic", ["d_point 1 1 pt 3"], "d_point class 1 psi^1 contradicts"),
        ("blp3_k3", ["x_point 1,0 0 pt 7"], "x_point class 1,0 psi^0 = 7 is never read"),
        ("blp3_k3", ["x_point 0,2 0 pt 5", "x_point 0,2 3 pt 7"],
         "x_point class 0,2 psi^3 = 7 is never read"),
        ("p2_cubic", ["x_point 1 1 pt 1", "x_point 1 1 pt 2"], "line 2: duplicate key"),
        ("synthetic_negative", ["d_point 1 3 pt 9"], "d_point class 1 psi^3 = 9 is never read"),
        ("synthetic_negative", ["d_point 2 0 pt 4"], "d_point class 2 psi^0 = 4 is never read"),
        ("p2_cubic", ["x_point 1 1 pt 1/0"], "line 1, column 5: '1/0' is not an exact rational"),
        ("p2_cubic", ["x_point 1,a 1 pt 1"], "line 1, column 2: 'a' is not an integer"),
    ],
)
def test_a_refused_row_is_refused_the_same_from_both_routes(tmp_path, capsys, name, rows,
                                                             fragment):
    from_key, from_table = _two_routes(tmp_path, capsys, name, rows)
    assert from_key == from_table
    code, out, err = from_key
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


@pytest.mark.parametrize(
    "name, rows",
    [
        ("p2_cubic", ["x_point 1 1 pt 1", "x_point 1 1 pt 1"]),   # a matching duplicate
        ("blp3_k3", ["x_point 0,2 0 pt 5", "x_point 1,0 0 pt 0"]),  # a zero row never read
        ("synthetic_negative", ["d_point 2 0 pt 0", "d_point 2 2 pt 3"]),  # likewise for d_point
    ],
)
def test_an_accepted_row_is_accepted_the_same_from_both_routes(tmp_path, capsys, name, rows):
    from_key, from_table = _two_routes(tmp_path, capsys, name, rows)
    assert from_key == from_table
    assert from_key[0] == 0 and from_key[2] == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--geometry", "", "--geometry '' names no file"),
        ("--table", "", "--table '' names no file"),
        ("--geometry", "{tmp}", "--geometry {tmp}: cannot read it: Is a directory"),
        ("--table", "{tmp}/absent.tsv", "--table {tmp}/absent.tsv: cannot read it: No such file"),
        ("--table", "{tmp}/binary.tsv", "--table {tmp}/binary.tsv: cannot read it: not UTF-8 text"),
    ],
)
def test_unreadable_input_names_its_flag(tmp_path, capsys, flag, value, message):
    (tmp_path / "binary.tsv").write_bytes(b"\xff\xfe\n")
    value, message = value.format(tmp=tmp_path), message.format(tmp=tmp_path)
    code = run(["quantum-period", flag, value], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_geometry_flag_reads_a_config_file(tmp_path, capsys):
    from conftest import SYNTHETIC_NEGATIVE

    cfg = tmp_path / "pair.ini"
    cfg.write_text(SYNTHETIC_NEGATIVE)
    code, text = _run("tau-d", "--geometry", str(cfg))
    assert code == 0
    assert "2" in text


def test_tau_d_prints_only_classes_within_the_order(tmp_path):
    from conftest import SYNTHETIC_NEGATIVE

    cfg = tmp_path / "pair.ini"
    cfg.write_text(SYNTHETIC_NEGATIVE.replace(
        "    d_point 1 0 pt 1\n", "    d_point 1 0 pt 1\n    d_point 2 2 pt 3\n    d_point 3 4 pt 5\n"))
    runs = {}
    for order in ("2", "4"):
        code, text = _run("tau-d", "--geometry", str(cfg), "--order", order, "--format", "json")
        assert code == 0
        runs[order] = {r["selector"]: r["value"] for r in json.loads(text)["records"]}
    assert runs["2"] == {"beta=1 z=0 class=[H]": "2", "beta=2 z=0 class=[H]": "36"}
    assert runs["2"].items() < runs["4"].items()
    assert runs["4"]["beta=3 z=0 class=[H]"] == "1200"


def test_a_tau_d_row_above_the_order_leaves_the_i_function_alone(tmp_path, capsys):
    # τ_D's only nonzero term has weight 3, so it cannot reach an I-function
    # cut at weight 2: the refusal at nonzero τ_D starts at --order 3.
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count("tau_d_source = zero\n") == 1
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text.replace(
        "tau_d_source = zero\n", "tau_d_source = table\ninvariants =\n    d_point 3,0 1 pt 5\n"))
    assert _run("i-function", "--geometry", str(cfg), "--order", "2", "--format", "json") == \
        _run("i-function", "--geometry", "blp3_k3", "--order", "2", "--format", "json")
    assert _run("i-function", "--geometry", str(cfg), "--order", "3") == (2, "")
    assert "at nonzero divisor mirror map" in capsys.readouterr().err


def test_missing_data_in_a_config_file_names_the_file(tmp_path, capsys):
    from conftest import SYNTHETIC_NEGATIVE

    cfg = tmp_path / "syn.cfg"
    cfg.write_text(SYNTHETIC_NEGATIVE.replace("    x_point 1 0 pt 1\n", ""))
    code = run(["tau-d", "--geometry", str(cfg)], stream=io.StringIO())
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: synthetic_negative: j_source=invariant_table "
        "but no x_point rows supplied\n"
    )


P2_CUBIC = BUILTIN_CONFIGS["p2_cubic"]


@pytest.mark.parametrize(
    "old, new, section",
    [
        ("    H H H2 1\n", "    H H H2 1/0\n", "algebra.ambient"),
        ("point = H2\n", "point = H2\nintegration = H2 1/0\n", "algebra.ambient"),
        ("point = H2\n", "point = H2junk\n", "algebra.ambient"),
        ("point = H2\n", "point = H2\nintegration = H2junk 1\n", "algebra.ambient"),
        ("    H p 3\n", "    H p 1/0\n", "restriction"),
        ("    H p 3\n", "    H q 3\n", "restriction"),
        ("divisor_class = 3*H\n", "divisor_class = 1/0*H\n", "pair"),
        ("picard = H\n", "picard = Q\n", "pair"),
        ("order = 8\n", "order = eight\n", "truncation"),
        ("[algebra.ambient]\n", "[DEFAULT]\nname = sneaky\n[algebra.ambient]\n", "DEFAULT"),
        ("[algebra.ambient]\n", "[DEFAULT]\n[algebra.ambient]\n", "DEFAULT"),
        # keys and sections that nothing reads
        ("[truncation]\n", "[toric]\ndenominators = H; H\nbundles = 2*H\n[truncation]\n", "toric"),
        ("picard = H\n", "picard = H\nbogus = 1\n", "pair"),
        # a source that the rest of the config cannot feed
        ("j_source = closed_form_projective\n", "j_source = toric_hypergeometric\n", "pair"),
        ("tau_d_source = zero\n", "tau_d_source = table\n", "pair"),
        # more keys and sections that nothing reads
        ("tau_d_source = zero\n", "tau_d_source = zero\n[extra]\n", "extra"),
        ("point = H2\n", "point = H2\nsize = 3\n", "algebra.ambient"),
        ("point = p\n", "point = p\nsize = 2\n", "algebra.divisor"),
        ("map =\n", "maps = one one 1\nmap =\n", "restriction"),
    ],
)
def test_config_faults_name_their_section(tmp_path, capsys, old, new, section):
    assert P2_CUBIC.count(old) == 1
    cfg = tmp_path / "pair.ini"
    cfg.write_text(P2_CUBIC.replace(old, new))
    code = run(["mirror-map", "--geometry", str(cfg)], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"[{section}]" in err


@pytest.mark.parametrize(
    "old, new, bad",
    [
        ("[algebra.ambient]\n", "stray\n[algebra.ambient]\n", "stray"),
        ("picard = H\n", "picard = H\nno value here\n", "no value here"),
        ("picard = H\n", "picard = H\npicard = H\n", "picard = H"),
        ("[truncation]\n", "[truncation]\n[truncation]\n", "[truncation]"),
    ],
)
def test_config_parse_errors_name_the_file_and_line(tmp_path, capsys, old, new, bad):
    assert P2_CUBIC.count(old) == 1
    lines = P2_CUBIC.replace(old, new).splitlines()
    lineno = len(lines) - lines[::-1].index(bad)  # the last occurrence is the fault
    cfg = tmp_path / "pair.ini"
    cfg.write_text("\n".join(lines) + "\n")
    code = run(["mirror-map", "--geometry", str(cfg)], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert f"line {lineno}:" in err and "<string>" not in err


def test_non_associative_product_is_refused(tmp_path, capsys):
    # h·h = 2·Hh makes (h·h)·H = 2·H2h but h·(h·H) = H2h, while every
    # product stays commutative and in the right degree
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count("    h h Hh 1\n") == 1
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text.replace("    h h Hh 1\n", "    h h Hh 2\n"))
    code = run(["mirror-map", "--geometry", str(cfg)], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: [algebra.ambient] invalid ring: ")
    assert "associativity fails" in err


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"identities"}))
def test_non_anticanonical_projective_pair_is_refused(tmp_path, capsys, command):
    # D = 4H on P^2 is not anticanonical: the closed form does not apply to it
    cfg = tmp_path / "pair.ini"
    cfg.write_text(P2_CUBIC.replace("divisor_class = 3*H", "divisor_class = 4*H"))
    code = run([command, "--geometry", str(cfg), "--order", "4"], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[pair]" in err and "anticanonical" in err


@pytest.mark.parametrize("old, new", [
    # P^2 blown up at a point: a second degree-1 class a with a^2 = -H2
    ("basis = one H H2\ndegrees = 0 1 2\nunit = one\npoint = H2\nproducts =\n    H H H2 1\n",
     "basis = one H a H2\ndegrees = 0 1 1 2\nunit = one\npoint = H2\nproducts =\n"
     "    H H H2 1\n    a a H2 -1\n"),
    # Q[H]/H^3 with the integral of H^2 equal to 2
    ("    H H H2 1\n", "    H H H2 2\n"),
], ids=["blown_up_plane", "integral_two"])
def test_closed_form_needs_the_ring_of_projective_space(tmp_path, capsys, old, new):
    # D = 3H is anticanonical on the one picard class H, but P^2's closed form
    # would print 1, 6, 90 for a ring that is not Q[H]/H^3 with the integral of H^2 = 1
    text = P2_CUBIC.replace(old, new)
    assert text != P2_CUBIC
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text)
    code = run(["classical-period", "--geometry", str(cfg), "--order", "6"], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[pair] j_source = closed_form_projective" in err


@pytest.mark.parametrize("command", ["mirror-map", "proper-potential", "classical-period",
                                     "i-function"])
def test_content_above_z1_is_refused_on_every_route(tmp_path, capsys, command):
    """A row at psi^0 for a class of D.beta = 6 puts its template at z^4: the floored
    pipeline refuses it as the whole series does, naming the class."""
    cfg = tmp_path / "pair.ini"
    cfg.write_text(P2_CUBIC.replace(
        "j_source = closed_form_projective",
        "j_source = invariant_table\ninvariants =\n    x_point 1 1 pt 1\n    x_point 2 0 pt 1",
    ))
    code = run([command, "--geometry", str(cfg), "--order", "6"], stream=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "class (2,) has content at z^4, above z^1" in err


def test_table_geometry_records_do_not_depend_on_the_order(tmp_path):
    # a high psi power puts class 1 far below z^0; every term of it prints at any order
    cfg = tmp_path / "pair.ini"
    cfg.write_text(P2_CUBIC.replace(
        "j_source = closed_form_projective",
        "j_source = invariant_table\ninvariants =\n    x_point 1 12 pt 1",
    ))

    def class_one(order):
        code, text = _run("i-function", "--geometry", str(cfg), "--order", order,
                          "--format", "json")
        assert code == 0
        return [r for r in json.loads(text)["records"] if r["beta"] == [1]]

    assert class_one("4") == class_one("8") != []


def test_classical_period_covers_weighted_classes(tmp_path):
    """A truncation weight of 2 raises the covering order instead of dropping classes."""
    assert P2_CUBIC.count("weights = 1\n") == 1
    cfg = tmp_path / "pair.ini"
    cfg.write_text(P2_CUBIC.replace("weights = 1\n", "weights = 2\n"))

    def records(geometry):
        code, text = _run("classical-period", "--geometry", geometry, "--order", "9",
                          "--format", "json")
        assert code == 0
        return json.loads(text)["records"]

    assert records(str(cfg)) == records("p2_cubic")


def _plant_high_z(monkeypatch):
    from mirrorpair.ifunctions import RelativeSeries

    monkeypatch.setattr(RelativeSeries, "top_z", lambda self: 2)


def _plant_bad_reciprocal(monkeypatch):
    from mirrorpair.ifunctions import StateSeries

    original = StateSeries.reciprocal
    monkeypatch.setattr(StateSeries, "reciprocal", lambda self: original(self).scale(2))


def _plant_endless_reciprocal(monkeypatch):
    from mirrorpair.ifunctions import StateSeries

    monkeypatch.setattr(StateSeries, "is_zero", lambda self: False)


def _plant_short_mirror_exponent(monkeypatch):
    from mirrorpair import MirrorChange, NovikovSeries, ProperPotential, TruncationPolicy, cli

    original = cli.proper_potential

    def proper_potential(geom, t_order=None):
        pot = original(geom, t_order)
        pol = pot.geometry.policy
        short = TruncationPolicy.make(pol.nvars, pol.max_total - 1, pol.weights)
        g = NovikovSeries(short, pot.change.g.terms)
        return ProperPotential(pot.geometry, MirrorChange(pot.change.m_vector, g))

    monkeypatch.setattr(cli, "proper_potential", proper_potential)


@pytest.mark.parametrize(
    "plant, argv, message",
    [
        (_plant_high_z, ("mirror-map", "--geometry", "p2_cubic", "--order", "4"),
         "content at z^2"),
        (_plant_high_z, ("proper-potential", "--geometry", "blp3_k3", "--order", "4"),
         "content at z^2"),
        (_plant_bad_reciprocal, ("mirror-map", "--geometry", "blp3_k3", "--order", "4"),
         "unit z^1 slice"),
        (_plant_bad_reciprocal, ("proper-potential", "--geometry", "blp3_k3", "--order", "4"),
         "unit z^1 slice"),
        (_plant_endless_reciprocal, ("mirror-map", "--geometry", "blp3_k3", "--order", "4"),
         "did not terminate"),
        (_plant_short_mirror_exponent,
         ("classical-period", "--geometry", "p2_cubic", "--order", "6"),
         "mirror exponent g truncated at order 1, its potential at 2"),
    ],
    ids=["high-z", "high-z-potential", "non-unit-z1", "non-unit-z1-potential",
         "endless-reciprocal", "short-mirror-exponent"],
)
def test_broken_pipeline_invariant_exits_3(monkeypatch, capsys, plant, argv, message):
    plant(monkeypatch)
    code = run(list(argv), stream=io.StringIO())
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("error: pipeline invariant broken: ") and message in err


def test_a_shared_parser_keeps_calls_independent(capsys):
    """`run` reuses one parser: no flag, default or usage error of one call
    reaches the next, and the last output is a fresh interpreter's."""
    assert build_parser() is build_parser()
    verify = ["verify", "--geometry", "p2_cubic", "--order", "9", "--format", "json"]
    code, text = _run(*verify, "--negative-control")
    assert code == 0 and json.loads(text)["metadata"]["negative_control"] == "true"
    code, text = _run(*verify)
    md = json.loads(text)["metadata"]
    assert code == 0 and (md["negative_control"], md["result"]) == ("false", "pass")

    identities = ["identities", "--cases", "2", "--format", "json"]
    assert json.loads(_run(*identities, "--seed", "3")[1])["metadata"]["seed"] == 3
    assert json.loads(_run(*identities)[1])["metadata"]["seed"] == 0

    good = ["mirror-map", "--geometry", "p3_quartic", "--format", "csv"]  # default order
    first = _run(*good)
    assert run(good + ["--order", "1"], stream=io.StringIO()) == 2
    assert run(good + ["--no-such-flag"], stream=io.StringIO()) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    last = _run(*good)
    assert last == first and last[0] == 0
    proc = subprocess.run([sys.executable, "-m", "mirrorpair.cli", *good], capture_output=True)
    assert (proc.returncode, proc.stdout) == (0, last[1].encode())


@pytest.mark.parametrize("name, row", [
    ("p2_cubic", "x_point 1 1 pt 1"),
    ("p3_quartic", "x_point 1 2 pt 1"),
    ("blp3_k3", "x_point 0,2 0 pt 5"),
])
def test_commands_leave_the_shared_builtin_unchanged(tmp_path, name, row):
    table = tmp_path / "rows.tsv"
    table.write_text(row + "\n")
    shared = builtin_geometry(name)
    for argv in (["mirror-map", "--order", "5"], ["proper-potential", "--order", "3"],
                 ["quantum-period", "--table", str(table)]):
        assert run([*argv, "--geometry", name], stream=io.StringIO()) == 0, argv

    def state(geom):
        rows = None if geom.table is None else geom.table.entries
        return geom.policy.max_total, geom.policy.weights, geom.m_vector, rows

    assert builtin_geometry(name) is shared
    assert state(shared) == state(load_geometry(BUILTIN_CONFIGS[name], name))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mirrorpair.cli", "tau-d", "--geometry", "p2_cubic"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "zero" in proc.stdout


def _after_start_up(*exprs):
    """The printed values of exprs in a fresh `-I` interpreter that has
    imported the CLI from this checkout and loaded every builtin."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import mirrorpair.cli\n"
        "from mirrorpair.geometry import BUILTIN_CONFIGS, builtin_geometry\n"
        "for name in BUILTIN_CONFIGS:\n"
        "    builtin_geometry(name)\n"
        "print(mirrorpair.cli.__file__)\n"
    ) + "".join(f"print({e})\n" for e in exprs)
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    path, *values = proc.stdout.split("\n")[: len(exprs) + 1]
    assert Path(path).resolve().is_relative_to(src)
    return values


def test_start_up_loads_no_dataclasses():
    """Generating dataclass methods, and importing `dataclasses` with the
    `inspect` it pulls in, cost about a fifth of a command's start-up: a
    fresh interpreter that imports the CLI and loads the builtins loads neither."""
    loaded = "' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules)"
    assert _after_start_up(loaded) == [""]


def test_start_up_builds_no_parser():
    """The parser is built by the first `run`, not at import: a process that
    only imports the CLI and loads the builtins, as the set-up of a benchmark
    does, builds none and has loaded each builtin once."""
    built = "mirrorpair.cli.build_parser.cache_info().currsize"
    loaded = "builtin_geometry.cache_info().currsize"
    assert _after_start_up(built, loaded) == ["0", "3"]
