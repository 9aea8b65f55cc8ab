"""Geometry configs: parsing, validation, invariant tables, builtins."""

import io
import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import SYNTHETIC_NEGATIVE
from mirrorpair import algebra
from mirrorpair.cli import run
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
    tabulate_one_point_invariants,
)

BUILTINS = ("p2_cubic", "p3_quartic", "blp3_k3")


def test_builtin_catalog():
    for name in BUILTINS:
        g = builtin_geometry(name)
        assert g.name == name
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
    assert bl.toric is not None
    assert len(bl.toric.denominators) == 5


def test_synthetic_config_loads(synthetic_negative):
    g = synthetic_negative
    assert g.m_vector == (-2,)
    assert g.divisor_class == g.ambient.named("H").scale(-2)
    assert g.table is not None
    assert g.table.as_dict().get(("x_point", (1,), 0)) == 1
    assert g.table.as_dict().get(("d_point", (1,), 0)) == 1


def test_pairing_of_picard_classes(blp3):
    assert blp3.pairing(blp3.divisor_class) == (-1, 1)
    assert blp3.pairing(blp3.ambient.named("H")) == (1, 0)
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

    # r(H)r(h) = h^2 = 4p, so declaring r(Hh) = 5p breaks multiplicativity
    bad = BUILTIN_CONFIGS["blp3_k3"].replace("Hh p 4", "Hh p 5")
    with pytest.raises(ConfigError, match="ring map"):
        load_geometry(bad)


def test_grading_violations_are_caught():
    text = SYNTHETIC_NEGATIVE.replace("H H H2 1", "H H H 1")
    with pytest.raises(ConfigError, match="invalid ring"):
        load_geometry(text)


def test_divisor_class_must_be_degree_one():
    bad = SYNTHETIC_NEGATIVE.replace("divisor_class = -2*H", "divisor_class = -2*H2")
    with pytest.raises(ConfigError, match="degree 1"):
        load_geometry(bad)


def test_m_vector_must_match_divisor_class():
    bad = SYNTHETIC_NEGATIVE.replace("m_vector = -2", "m_vector = 2")
    with pytest.raises(ConfigError, match="disagrees"):
        load_geometry(bad)


def test_zero_tau_needs_a_reason():
    bad = SYNTHETIC_NEGATIVE.replace("tau_d_source = table", "tau_d_source = zero")
    with pytest.raises(ConfigError, match="tau_d_reason"):
        load_geometry(bad)


def test_table_source_needs_d_point_rows():
    bad = SYNTHETIC_NEGATIVE.replace("    d_point 1 0 pt 1\n", "")
    with pytest.raises(MissingDataError, match="d_point"):
        load_geometry(bad)


def test_zero_tau_refuses_d_point_rows():
    assert load_geometry(SYNTHETIC_NEGATIVE).tau_d_source == "table"
    bad = SYNTHETIC_NEGATIVE.replace(
        "tau_d_source = table", "tau_d_source = zero\ntau_d_reason = elliptic_curve"
    )
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


def test_bad_truncation_is_wrapped():
    bad = SYNTHETIC_NEGATIVE + "\nweights = 0\n"
    with pytest.raises(ConfigError, match=r"\[truncation\]"):
        load_geometry(bad)


CONFIGS = {**BUILTIN_CONFIGS, "synthetic_negative": SYNTHETIC_NEGATIVE}


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("blp3_k3", "tau_d_reason = k3\n", "tau_d_reason = k3\nhyperplane = H\n",
         r"\[pair\] hyperplane is read only with j_source = closed_form_projective"),
        ("blp3_k3", "tau_d_reason = k3\n", "tau_d_reason = k3\nprojective_dim = 3\n",
         r"\[pair\] projective_dim is read only"),
        ("blp3_k3", "bundles = 4*H + h\n", "bundles = 4*H + h\nweights = 1\n",
         r"\[toric\] unknown key 'weights': it takes denominators and bundles"),
        ("synthetic_negative", "tau_d_source = table\n", "tau_d_source = table\ntau_d_reason = k3\n",
         r"\[pair\] tau_d_reason is read only with tau_d_source = zero"),
        ("synthetic_negative", "tau_d_source = table\n", "tau_d_source = table\nhyperplane = H\n",
         r"\[pair\] hyperplane is read only with j_source = closed_form_projective"),
        ("synthetic_negative", "tau_d_source = table\n", "tau_d_source = table\nprojective_dim = 1\n",
         r"\[pair\] projective_dim is read only with j_source = closed_form_projective"),
    ],
)
def test_keys_nothing_reads_are_refused(name, old, new, message):
    # the p2_cubic cases are inputs of test_cli's test_config_faults_name_their_section
    text = CONFIGS[name]
    assert text.count(old) == 1
    load_geometry(text)
    with pytest.raises(ConfigError, match=message):
        load_geometry(text.replace(old, new))


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


def test_pairing_refuses_a_repeated_picard_class_and_a_class_off_the_span(blp3):
    H = blp3.ambient.named("H")
    with pytest.raises(ConfigError, match="picard class H is repeated"):
        replace(blp3, picard=(H, H)).pairing(H)
    with pytest.raises(ConfigError, match="H2 is not in the span of the picard classes"):
        blp3.pairing(blp3.ambient.named("H2"))


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
    builtin_geometry(name)
    assert len(calls) == 0


@pytest.mark.parametrize("line", ["z_min = -4", "z_max = 1", "ordr = 8"])
def test_truncation_takes_only_order_and_weights(line):
    bad = SYNTHETIC_NEGATIVE + line + "\n"
    key = line.split()[0]
    with pytest.raises(ConfigError, match=rf"\[truncation\] unknown key '{key}'"):
        load_geometry(bad)


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
    blp3 = builtin_geometry("blp3_k3").with_table(InvariantTable(rows))
    assert blp3.j_source == "toric_hypergeometric"
    assert tabulate_one_point_invariants(blp3, 4).entries == rows


def test_invariant_table_is_hash_stable():
    t = InvariantTable(((("x_point", (1,), 1), Fraction(1)),))
    assert t.as_dict() == {("x_point", (1,), 1): Fraction(1)}
