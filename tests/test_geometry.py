"""Geometry configs: parsing, validation, invariant tables, builtins."""

import io
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import SYNTHETIC_NEGATIVE, geometry_with
from mirrorpair import algebra
from mirrorpair.algebra import nilpotency_index
from mirrorpair.cli import run
from mirrorpair.geometry import PAIR_KEYS, SECTIONS, IFactor, _expand_in_picard
from mirrorpair import (
    BUILTIN_CONFIGS,
    ConfigError,
    InvariantTable,
    MissingDataError,
    attach_invariants,
    builtin_geometry,
    format_invariants,
    ingest_invariants,
    load_geometry,
    require_quantum_source,
    tabulate_one_point_invariants,
)

BUILTINS = ("p2_cubic", "p3_quartic", "blp3_k3")


def test_builtin_catalog():
    for name in BUILTINS:
        g = builtin_geometry(name)
        assert g.name == name
        assert builtin_geometry(name) is g  # one shared geometry per name
    for _ in range(2):  # a refusal is not cached as an answer
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_geometry("p4_quintic")


def test_builtin_shapes():
    p2 = builtin_geometry("p2_cubic")
    assert p2.m_vector == (3,)
    assert p2.novikov_names == ("y",)
    assert p2.policy.max_total == 8

    bl = builtin_geometry("blp3_k3")
    assert bl.m_vector == (-1, 1)
    assert bl.novikov_names == ("q1", "q0")
    assert bl.j_source == "toric_hypergeometric"
    # five denominators H; H; H; H; h merged into two factors
    assert sum(-f.exponent for f in bl.factors if f.exponent < 0) == 5


def test_synthetic_config_loads(synthetic_negative):
    g = synthetic_negative
    assert g.m_vector == (-2,)
    assert g.divisor_class == g.ambient.named("H").scale(-2)
    assert g.table is not None
    assert g.table.as_dict().get(("x_point", (1,), 0)) == 1
    assert g.table.as_dict().get(("d_point", (1,), 0)) == 1


def test_pairing_of_picard_classes(blp3):
    assert _expand_in_picard(blp3.picard, blp3.divisor_class) == (-1, 1)
    assert _expand_in_picard(blp3.picard, blp3.ambient.named("H")) == (1, 0)
    assert blp3.contact_weight((2, 3)) == 1


# ---------------------------------------------------------------------------
# config error paths


def _drop_section(text, header):
    lines, out, skipping = text.splitlines(), [], False
    for ln in lines:
        if ln.strip() == f"[{header}]":
            skipping = True
            continue
        if skipping and ln.strip().startswith("["):
            skipping = False
        if not skipping:
            out.append(ln)
    return "\n".join(out)


@pytest.mark.parametrize("section", ["algebra.divisor", "restriction", "pair", "truncation"])
def test_missing_sections_are_reported(section):
    bad = _drop_section(SYNTHETIC_NEGATIVE, section)
    with pytest.raises(ConfigError, match=f"missing .{section}."):
        load_geometry(bad)


def test_restriction_must_be_ring_map():
    from mirrorpair.geometry import BUILTIN_CONFIGS

    # r(Hh) = 0, so declaring r(h) = h makes r(H)r(h) = h^2 = 4p and breaks multiplicativity
    bad = BUILTIN_CONFIGS["blp3_k3"].replace("    H h 1\n", "    H h 1\n    h h 1\n")
    assert bad != BUILTIN_CONFIGS["blp3_k3"]
    with pytest.raises(ConfigError, match=r"ring map: .*not multiplicative on H\*h"):
        load_geometry(bad)


def test_grading_violations_are_caught():
    text = SYNTHETIC_NEGATIVE.replace("H H H2 1", "H H H 1")
    with pytest.raises(ConfigError, match="invalid ring"):
        load_geometry(text)


def test_divisor_class_must_be_degree_one():
    bad = SYNTHETIC_NEGATIVE.replace("divisor_class = -2*H", "divisor_class = -2*H2")
    with pytest.raises(ConfigError, match="degree 1"):
        load_geometry(bad)


def test_table_source_needs_d_point_rows():
    bad = SYNTHETIC_NEGATIVE.replace("    d_point 1 0 pt 1\n", "")
    with pytest.raises(MissingDataError, match="d_point"):
        load_geometry(bad)


def test_zero_tau_refuses_d_point_rows():
    assert load_geometry(SYNTHETIC_NEGATIVE).tau_d_source == "table"
    bad = SYNTHETIC_NEGATIVE.replace("tau_d_source = table", "tau_d_source = zero")
    with pytest.raises(ConfigError, match=r"d_point class 1 psi\^0 .*tau_d_reason = elliptic_curve"):
        load_geometry(bad)


def test_invariant_table_source_needs_x_point_rows():
    bad = SYNTHETIC_NEGATIVE.replace("    x_point 1 0 pt 1\n", "")
    with pytest.raises(MissingDataError, match="x_point"):
        load_geometry(bad)


def test_tau_d_source_takes_zero_or_table():
    bad = SYNTHETIC_NEGATIVE.replace(
        "tau_d_source = table", "tau_d_source = closed_form_from_one_point_invariants"
    )
    with pytest.raises(ConfigError, match=r"tau_d_source must be one of \('zero', 'table'\)"):
        load_geometry(bad)


def test_attach_invariants_merges_and_revalidates(synthetic_negative):
    def rows(*keys_values):
        return InvariantTable(tuple(keys_values))

    same = attach_invariants(synthetic_negative, rows((("x_point", (1,), 0), Fraction(1))))
    assert same.table.entries == synthetic_negative.table.entries
    # an invariant_table pair reads rows at every psi power, so any of them is kept
    more = attach_invariants(synthetic_negative, rows((("x_point", (1,), 3), Fraction(2))))
    assert more.table.as_dict()[("x_point", (1,), 3)] == 2
    with pytest.raises(ConfigError, match="conflicts with the geometry's own value"):
        attach_invariants(synthetic_negative, rows((("x_point", (1,), 0), Fraction(2))))
    with pytest.raises(ConfigError, match=r"table class \(1, 0\) has 2 components"):
        attach_invariants(synthetic_negative, rows((("x_point", (1, 0), 0), Fraction(2))))


def test_the_closed_form_gate_reads_each_row_alone(monkeypatch):
    """The closed-form gate checks an x_point row against its own class's
    value: a row at class 3000 tabulates nothing, and one that contradicts
    the closed form is refused with that value."""
    from mirrorpair import geometry

    def refuse(geom, t_order):
        raise AssertionError(f"the table gate tabulated through t^{t_order}")

    monkeypatch.setattr(geometry, "tabulate_one_point_invariants", refuse)
    p2 = builtin_geometry("p2_cubic")

    def row(a, v):
        return InvariantTable(((("x_point", (3000,), a), Fraction(v)),))

    assert attach_invariants(p2, row(0, 0)).table.as_dict() == {("x_point", (3000,), 0): 0}
    with pytest.raises(ConfigError, match=r"class 3000 psi\^0 = 1 contradicts .*, which gives 0$"):
        attach_invariants(p2, row(0, 1))


def test_a_far_row_leaves_the_quantum_period_its_own_tabulation(tmp_path, monkeypatch):
    """quantum-period --order 3 on p2_cubic with a zero row at class 3000
    tabulates the closed form through t^3 only, for the period itself."""
    from mirrorpair import geometry, periods

    calls, original = [], geometry.tabulate_one_point_invariants

    def tabulate(geom, t_order):
        calls.append(t_order)
        return original(geom, t_order)

    for module in (geometry, periods):
        monkeypatch.setattr(module, "tabulate_one_point_invariants", tabulate)
    table = tmp_path / "far.tsv"
    table.write_text("x_point 3000 0 pt 0\n")
    argv = ["quantum-period", "--geometry", "p2_cubic", "--order", "3", "--table", str(table)]
    assert run(argv, stream=io.StringIO()) == 0
    assert calls == [3]


def test_bad_truncation_is_wrapped():
    bad = SYNTHETIC_NEGATIVE + "\nweights = 0\n"
    with pytest.raises(ConfigError, match=r"\[truncation\]"):
        load_geometry(bad)


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("blp3_k3", "bundles = 4*H + h\n", "bundles = 4*H + h\nweights = 1\n",
         r"\[toric\] unknown key 'weights': it takes denominators and bundles"),
    ],
)
def test_keys_nothing_reads_are_refused(name, old, new, message):
    # the p2_cubic cases are inputs of test_cli's test_config_faults_name_their_section,
    # the keys the loader derives those of test_derived_pair_keys_are_refused_as_unknown
    text = BUILTIN_CONFIGS[name]
    assert text.count(old) == 1
    load_geometry(text)
    with pytest.raises(ConfigError, match=message):
        load_geometry(text.replace(old, new))


@pytest.mark.parametrize(
    "line",
    ["m_vector = 3", "hyperplane = H", "projective_dim = 2", "tau_d_reason = elliptic_curve"],
)
def test_derived_pair_keys_are_refused_as_unknown(tmp_path, capsys, line):
    # the loader works these out from divisor_class and the two rings; a config
    # that still declares one is refused, even where it agrees
    key = line.split()[0]
    text = BUILTIN_CONFIGS["p2_cubic"].replace("picard = H\n", f"picard = H\n{line}\n")
    with pytest.raises(ConfigError, match=rf"\[pair\] unknown key '{key}'"):
        load_geometry(text)
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text)
    assert run(["mirror-map", "--geometry", str(cfg)], stream=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: [pair] unknown key '{key}'")


# per builtin: the m-vector (the divisor class on the picard classes), n for
# X = P^n (None for a pair Givental's rule does not read) and the reason τ_D = 0
DERIVED = {
    "p2_cubic": ((3,), 2, "elliptic_curve"),
    "p3_quartic": ((4,), 3, "k3"),
    "blp3_k3": ((-1, 1), None, "k3"),
}


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_derive_the_pair_data(name):
    m, n, reason = DERIVED[name]
    geom = builtin_geometry(name)
    assert geom.m_vector == m
    assert geom.tau_d_reason == reason
    if n is None:
        with pytest.raises(MissingDataError, match="supply an x_point table"):
            require_quantum_source(geom)
    else:
        # ⟨[pt] ψ^{2m−2}⟩ at curve degree 2 is 1/(2!)^{n+1}
        closed = tabulate_one_point_invariants(geom, 2 * m[0]).as_dict()
        assert closed[("x_point", (2,), 2 * m[0] - 2)] == Fraction(1, 2 ** (n + 1))


# per builtin, typed by hand: each net factor Π_{k≤u·β}(u + kz)^e of its
# I-function as u's coordinates on the basis, u·β on the curve classes and e
BUILTIN_FACTORS = {
    "p2_cubic": [({"H": 1}, (1,), -3), ({"H": 3}, (3,), 1)],
    "p3_quartic": [({"H": 1}, (1,), -4), ({"H": 4}, (4,), 1)],
    "blp3_k3": [({"H": 4, "h": 1}, (4, 1), 1), ({"H": 1}, (1, 0), -4), ({"h": 1}, (0, 1), -1)],
}


@pytest.mark.parametrize("name", BUILTINS)
def test_loader_derives_the_i_function_factors(name):
    geom = builtin_geometry(name)
    amb = geom.ambient
    want = {
        sum((amb.named(b).scale(c) for b, c in coords.items()), amb.zero()): (pairing, e)
        for coords, pairing, e in BUILTIN_FACTORS[name]
    }
    assert len(geom.factors) == len(want)
    assert {f.cls: (f.pairing, f.exponent) for f in geom.factors} == want
    # the last nonzero powers, against products of Elements
    for f in geom.factors:
        assert f.last == nilpotency_index(f.cls) - 1
    assert geom.divisor_last == nilpotency_index(geom.divisor_class) - 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("bundles = 4*H + h\n", "bundles = 5*H; h - H\n",
         r"toric class -1\*H \+ h pairs negatively with an effective curve class"),
        pytest.param("bundles = 4*H + h\n", "bundles = 3*H + h\n",
                     r"\[pair\] divisor_class -1\*H \+ h is not anticanonical: the "
                     r"\[toric\] denominators less the bundles sum to h$",
                     id="not_anticanonical"),
    ],
)
def test_toric_refusals_run_once_at_load(old, new, message):
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count(old) == 1
    with pytest.raises(ConfigError, match=message):
        load_geometry(text.replace(old, new))
    # the toric data cannot change after load, so attaching rows re-checks only
    # the rows: a pair set past the loader with such factors takes them
    blp3 = builtin_geometry("blp3_k3")
    H, h = blp3.ambient.named("H"), blp3.ambient.named("h")
    negative = geometry_with(blp3, factors=blp3.factors + (
        IFactor(h - H, (-1, 1), 1, nilpotency_index(h - H) - 1),))
    rows = ingest_invariants("x_point 0,2 0 pt 5\n")
    assert attach_invariants(negative, rows).factors == negative.factors


def test_zero_tau_needs_a_curve_or_surface_divisor():
    # a point divisor has top degree 0: neither an elliptic curve nor a K3
    text = BUILTIN_CONFIGS["p2_cubic"]
    for old, new in (("basis = one p\ndegrees = 0 1\nunit = one\npoint = p\n",
                      "basis = one\ndegrees = 0\nunit = one\npoint = one\n"),
                     ("    H p 3\n", "")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match="zero-justification only applies to curve/surface"):
        load_geometry(text)
    table = "tau_d_source = table\ninvariants = d_point 1 1 pt 0"
    load_geometry(text.replace("tau_d_source = zero", table))


@pytest.mark.parametrize(
    "old, new, message",
    [
        # two selectors would both read q1:, so the output could not be told apart
        ("novikov = q1 q0\n", "novikov = q1 q1\n", r"\[pair\] novikov names 'q1' more than once"),
        # H H spans one class, not two
        ("picard = H h\n", "picard = H H\n", r"\[pair\] picard names 'H' more than once"),
    ],
)
def test_repeated_pair_names_are_refused(tmp_path, capsys, old, new, message):
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count(old) == 1
    with pytest.raises(ConfigError, match=message):
        load_geometry(text.replace(old, new))
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text.replace(old, new))
    assert run(["mirror-map", "--geometry", str(cfg)], stream=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and re.search(message, err)


def test_pairing_refuses_a_class_off_the_span(blp3):
    with pytest.raises(ConfigError, match="H2 is not in the span of the picard classes"):
        _expand_in_picard(blp3.picard, blp3.ambient.named("H2"))


@pytest.mark.parametrize("name", BUILTINS)
def test_loading_a_builtin_multiplies_no_elements(monkeypatch, name):
    # the structure checks and the restriction tables read the sparse
    # constants directly; no Element product is formed at load
    calls = []
    original = algebra.sum_of_products

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(algebra, "sum_of_products", counted)
    # the loader itself: builtin_geometry returns its shared copy once loaded
    load_geometry(BUILTIN_CONFIGS[name], name)
    assert len(calls) == 0


@pytest.mark.parametrize("line", ["z_min = -4", "z_max = 1", "ordr = 8"])
def test_truncation_takes_only_order_and_weights(line):
    bad = SYNTHETIC_NEGATIVE + line + "\n"
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"\[truncation\] unknown key '{key}'"):
        load_geometry(bad)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("command", ["verify", "mirror-map"])
def test_truncation_order_below_two_is_refused(tmp_path, capsys, command, order):
    # as --order is: at order 0 a verify would pass having checked no class
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count("order = 5\n") == 1
    load_geometry(text.replace("order = 5\n", "order = 2\n"))
    cfg = tmp_path / "pair.ini"
    cfg.write_text(text.replace("order = 5\n", f"order = {order}\n"))
    assert run([command, "--geometry", str(cfg)], stream=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: [truncation] order must be at least 2, got {order}\n"


@pytest.mark.parametrize("order", [sys.maxsize, 10**20])
def test_truncation_order_too_large_to_enumerate_is_refused(tmp_path, capsys, order):
    # as --order is: from sys.maxsize on the class ranges cannot be indexed
    cfg = tmp_path / "pair.ini"
    cfg.write_text(BUILTIN_CONFIGS["blp3_k3"].replace("order = 5\n", f"order = {order}\n"))
    assert run(["i-function", "--geometry", str(cfg)], stream=io.StringIO()) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: [truncation] order must be below {sys.maxsize}, got {order}\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def _accepted_keys(section):
    """The keys `load_geometry` takes in a section, read off its unknown-key refusal."""
    text = BUILTIN_CONFIGS["blp3_k3"]  # it has every section, [toric] included
    header = f"[{section}]\n"
    assert text.count(header) == 1
    with pytest.raises(ConfigError) as info:
        load_geometry(text.replace(header, header + "unread_key = 1\n"))
    refusal = rf"\[{re.escape(section)}\] unknown key 'unread_key': it takes (.*)"
    return re.fullmatch(refusal, str(info.value)).group(1).replace(" and ", ", ").split(", ")


def test_readme_documents_the_config_format_the_loader_reads():
    readme = README.read_text()
    flat = " ".join(readme.split())  # README wraps its sentences
    documented = {
        section: re.findall(r"`(\w+)`", keys)
        for section, keys in re.findall(r"`\[([\w.*]+)\]` takes (?:only )?(.*?)[;.] ", flat)
    }
    assert documented["pair"] == list(PAIR_KEYS)
    for section in SECTIONS:
        assert _accepted_keys(section) == documented[re.sub(r"\..*", ".*", section)], section
    # the config example is the suite's synthetic pair
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert example.strip() == SYNTHETIC_NEGATIVE.strip()


# ---------------------------------------------------------------------------
# invariant-table ingestion


TABLE_TEXT = """\
# one-point descendants
kind\tclass\tpsi\tinsertion\tvalue
x_point 1 1 pt 1
x_point 2 4 pt 1/8
d_point 0,1 0 pt 3
"""


def test_ingest_parses_kinds_and_classes():
    t = ingest_invariants(TABLE_TEXT)
    assert t.as_dict().get(("x_point", (2,), 4)) == Fraction(1, 8)
    assert t.as_dict().get(("d_point", (0, 1), 0)) == 3
    assert t.rows_for("x_point") == [((1,), 1, Fraction(1)), ((2,), 4, Fraction(1, 8))]
    assert t.is_empty_for("d_point") is False


def test_ingest_duplicate_rows_name_the_line():
    text = "x_point 1 1 pt 1\nx_point 1 1 pt 2\n"
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        ingest_invariants(text)


def test_ingest_rejects_bad_rows():
    with pytest.raises(ConfigError, match="5 columns"):
        ingest_invariants("x_point 1 1 pt\n")
    with pytest.raises(ConfigError, match="kind"):
        ingest_invariants("y_point 1 1 pt 1\n")
    with pytest.raises(ConfigError, match="insertion"):
        ingest_invariants("x_point 1 1 hyperplane 1\n")
    with pytest.raises(ConfigError, match="negative"):
        ingest_invariants("x_point 1 -1 pt 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        ingest_invariants("x_point 1 1 pt 1/0\n")


def test_format_ingest_round_trip():
    t = ingest_invariants(TABLE_TEXT)
    again = ingest_invariants(format_invariants(t))
    assert again.entries == t.entries


# ---------------------------------------------------------------------------
# materialized one-point invariants


def test_tabulate_closed_form_p2():
    t = tabulate_one_point_invariants(builtin_geometry("p2_cubic"), 9)
    rows = t.rows_for("x_point")
    assert rows == [
        ((1,), 1, Fraction(1)),
        ((2,), 4, Fraction(1, 8)),
        ((3,), 7, Fraction(1, 216)),
    ]


def test_tabulate_closed_form_p3():
    t = tabulate_one_point_invariants(builtin_geometry("p3_quartic"), 12)
    assert t.as_dict().get(("x_point", (d1 := 2,), 4 * d1 - 2)) == Fraction(1, math.factorial(2) ** 4)
    assert t.as_dict().get(("x_point", (3,), 10)) == Fraction(1, 6 ** 4)
    # the truncation boundary is honored: 4*4 = 16 > 12
    assert t.as_dict().get(("x_point", (4,), 14)) is None


def test_tabulate_reemits_supplied_table(synthetic_negative):
    t = tabulate_one_point_invariants(synthetic_negative, 8)
    assert t.rows_for("x_point") == [((1,), 0, Fraction(1))]


def test_tabulate_needs_a_source():
    with pytest.raises(MissingDataError, match="x_point"):
        tabulate_one_point_invariants(builtin_geometry("blp3_k3"), 4)


def test_tabulate_reads_x_point_rows_of_a_toric_geometry():
    rows = ((("x_point", (0, 2), 0), Fraction(5)),)
    blp3 = builtin_geometry("blp3_k3").replace(table=InvariantTable(rows))
    assert blp3.j_source == "toric_hypergeometric"
    assert tabulate_one_point_invariants(blp3, 4).entries == rows


def test_invariant_table_is_hash_stable():
    t = InvariantTable(((("x_point", (1,), 1), Fraction(1)),))
    assert t.as_dict() == {("x_point", (1,), 1): Fraction(1)}
