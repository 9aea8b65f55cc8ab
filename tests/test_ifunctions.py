"""Relative I-functions, mirror maps, divisor exponents, change of variables.

The frozen numbers in this file were computed independently before the
pipeline existed: hypergeometric coefficients by hand from the factor
formulas, mirror-map inversions by solving q = y·exp(m·g) order by order on
paper, and the blown-up series from the closed multinomial expression
(4a+b)!/((a!)^4 b!).
"""

import io
import math
import random
import sys
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SYNTHETIC_NEGATIVE,
    SYNTHETIC_NEGATIVE_ZERO_TAU,
    assemble_literal,
    class_thetas,
    dense_product,
    geometry_with,
    geometric_reciprocal,
    good_composed,
    good_exp_composed,
    is_canonical_row,
    normal_bundle_divisor_map,
    p2_table,
    series_product,
    state_product,
)
from mirrorpair import (
    BUILTIN_CONFIGS,
    CancellationError,
    ConfigError,
    MalformedMirrorMapError,
    MirrorChange,
    MissingDataError,
    NovikovSeries,
    PipelineInvariantError,
    StateSeries,
    TruncationError,
    TruncationPolicy,
    ZLaurentElement,
    builtin_geometry,
    composed_exponent,
    divisor_mirror_map,
    extract_mirror_exponent,
    inverse_coordinates,
    load_geometry,
    nilpotency_index,
    nilpotent_reciprocal,
    normalize_i,
    relative_i_function,
    substitute_forward,
    toric_i_function,
)
from mirrorpair import algebra, ifunctions
from mirrorpair import series as series_module
from mirrorpair.cli import run
from mirrorpair.geometry import IFactor
from mirrorpair.ifunctions import (
    PRODUCT_RULE_TEXT,
    _chain_rows,
    _link_rows,
    _sign,
    _times_unit,
    _unit_maps,
    absolute_core,
    class_constant_terms,
)


# ---------------------------------------------------------------------------
# Pochhammer chains P(u, n, e) = Π_{a=1}^{n} (u + a·z)^e
#
# The hypergeometric factor Π_{a≤0}(u + az) / Π_{a≤c}(u + az) at contact c ≥ 0
# is P(u, c, −1).


def _row_link(u, e, nums, den):
    """Σ_k (nums[k]/den)·u^k·z^{e−k}, the link a scalar row stands for."""
    return ZLaurentElement(u.algebra, {
        e - k: u.power(k).scale(Fraction(n, den)) for k, n in enumerate(nums)})


def _last(u):
    """u's last nonzero power, by products of Elements."""
    return nilpotency_index(u) - 1


def _chain(u, n, e):
    """P(u, n, e) as a z-Laurent element, read off the row of length n."""
    return _row_link(u, n * e, *_chain_rows(_last(u), n, e)[n])


def test_factor_at_zero_contact_is_one(p2):
    u = p2.ambient.named("H")
    for e in (1, -1):
        assert _chain(u, 0, e) == ZLaurentElement.one(p2.ambient)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_factor_at_positive_contact_multiplies_back(p2, c):
    u = p2.ambient.named("H")
    back = _chain(u, c, -1)
    for a in range(1, c + 1):
        back = back * ZLaurentElement.linear(u, a)
    assert back == ZLaurentElement.one(p2.ambient)


# exponents asked of each class, and the longest chain
CHAIN_CASES = {
    "p2_H": ((1, -1, 2, -2, 4, -4), 6),
    "blp3_4H+h": ((1, -1, 2, -2, 4, -4), 6),
    "blp3_h-H": ((-1,), 8),  # the divisor class: the toric pole 1/(D + (D·β)z)
    "blp3_H+h": ((3, -3, 5, -5), 6),  # nilpotency index 5
}


def _literal_link(u, a, e):
    factor = ZLaurentElement.linear(u, a) if e > 0 else nilpotent_reciprocal(u, a)
    link = ZLaurentElement.one(u.algebra)
    for _ in range(abs(e)):
        link = link * factor
    return link


def _literal_chain(u, n, s, e):
    """Π_{a=1}^{n} (u + s·a·z)^e, one literal link at a time."""
    literal = ZLaurentElement.one(u.algebra)
    for a in range(1, n + 1):
        literal = literal * _literal_link(u, s * a, e)
    return literal


@pytest.mark.parametrize("which", list(CHAIN_CASES))
def test_chains_match_literal_products(p2, blp3, which):
    if which == "p2_H":
        u = p2.ambient.named("H")
    else:
        H, h = blp3.ambient.named("H"), blp3.ambient.named("h")
        u = {"blp3_4H+h": H.scale(4) + h, "blp3_h-H": h - H, "blp3_H+h": H + h}[which]
    exponents, length = CHAIN_CASES[which]
    one = ZLaurentElement.one(u.algebra)
    for e in exponents:
        top = _last(u)
        links = _link_rows(e, top, range(1, length + 1))
        for a, link in enumerate(links, 1):
            assert _row_link(u, e, *link) == _literal_link(u, a, e)
        # the longest chain's rows are the shorter chains, each as if asked alone
        rows = _chain_rows(top, length, e)
        for n in range(length + 1):
            literal = _literal_chain(u, n, 1, e)
            assert _row_link(u, n * e, *rows[n]) == literal
            assert _chain(u, n, e) == literal
    for e in exponents:
        if e > 0:
            for n in range(length + 1):
                assert _chain(u, n, e) * _chain(u, n, -e) == one


@given(
    coords=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    n=st.integers(0, 7),
    e=st.integers(-4, 4).filter(bool),
)
@example(coords=(4, 1), n=7, e=1)
@example(coords=(-1, 1), n=7, e=-1)
@example(coords=(0, 0), n=3, e=2)
@settings(max_examples=60, deadline=None)
def test_chain_rows_match_literal_products(blp3, coords, n, e):
    # u = x·H + y·h, a class of degree 1 in the picard span, as every factor is
    amb = blp3.ambient
    x, y = coords
    u = amb.named("H").scale(x) + amb.named("h").scale(y)
    nums, den = _chain_rows(_last(u), n, e)[n]
    assert den > 0 and all(isinstance(c, int) for c in nums)
    assert _chain(u, n, e) == _literal_chain(u, n, 1, e)


def _scalar_chains(top, n, e):
    """The coefficient lists of Π_{a≤m}(a + x)^e through x^top, m ≤ n, as exact
    Fraction products of the links' own rows: a + x, or 1/(a + x) =
    Σ_j (−1)^j·x^j/a^{j+1}."""
    chains = [[Fraction(1)]]
    for a in range(1, n + 1):
        link = ([Fraction(a), Fraction(1)] if e > 0 else
                [Fraction((-1) ** j, a ** (j + 1)) for j in range(top + 1)])
        row = chains[-1]
        for _ in range(abs(e)):
            prod = [Fraction(0)] * min(len(row) + len(link) - 1, top + 1)
            for i, x in enumerate(row):
                for j, y in enumerate(link):
                    if i + j < len(prod):
                        prod[i + j] += x * y
            row = prod
        chains.append(row)
    return chains


# (top, e, n)
LADDER_CHAINS = [(top, e, n) for e, n in ((1, 48), (-3, 16), (-4, 16)) for top in range(5)]


@pytest.mark.parametrize("top, e, n", LADDER_CHAINS)
def test_chain_rows_match_scalar_products_at_ladder_depth(top, e, n):
    # the literal-link tests stop at n ≤ 7; the ladder grows chains of 48 links
    # (e = +1) and reduces long chains of e < 0 over their denominators
    rows = _chain_rows(top, n, e)
    assert len(rows) == n + 1
    for m, ((nums, den), chain) in enumerate(zip(rows, _scalar_chains(top, n, e))):
        assert den > 0 and math.gcd(den, *nums) == 1
        assert [Fraction(c, den) for c in nums] == chain, (top, m, e)
        if m in (0, 1, n // 2, n):
            assert _chain_rows(top, m, e) == rows[: m + 1]


def test_the_loader_admits_only_nilpotent_factor_classes():
    # a chain is cut after its class's last power, so every factor class must be
    # nilpotent: one with a unit part is refused at load, off the picard span
    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count("bundles = 4*H + h\n") == 1
    with pytest.raises(ConfigError, match="is not in the span of the picard classes"):
        load_geometry(text.replace("bundles = 4*H + h\n", "bundles = 4*H + h + one\n"))


# ---------------------------------------------------------------------------
# the one hypergeometric template against literal link products

P2_TABLE_ROWS = (((1,), 12, Fraction(1)), ((1,), 1, Fraction(1)), ((2,), 4, Fraction(1, 8)))


def _p2_from_table():
    """p2_cubic with its absolute input read from x_point rows instead of its toric data."""
    rows = "".join(f"    x_point {b[0]} {a} pt {v}\n" for b, a, v in P2_TABLE_ROWS)
    return load_geometry(p2_table(rows))


def _row_element(alg, row):
    """The class of a sparse row of (index, numerator, denominator) triples, after
    checking that the row is in lowest terms: rising distinct indices, nonzero
    numerators, positive denominators coprime to them."""
    assert is_canonical_row(row, alg.dim), row
    coeffs = [Fraction(0)] * alg.dim
    for k, n, d in row:
        coeffs[k] = Fraction(n, d)
    return alg.element(coeffs)


def _as_elements(geom, pieces):
    """Pieces with sparse-row slices, as `_assemble` takes them, with class slices;
    every slice must be nonzero."""
    assert all(row for *_, slices in pieces for row in slices.values())
    return [(beta, contact, {z: _row_element(geom.ambient, row) for z, row in slices.items()})
            for beta, contact, slices in pieces]


def _as_rows(pieces):
    """Pieces with class slices, as `_assemble` takes them: nonzero slices as sparse rows."""
    return [(beta, contact, {z: el.support for z, el in slices.items() if not el.is_zero()})
            for beta, contact, slices in pieces]


def _relative_pieces(monkeypatch, geom):
    """The (β, contact, {z: class}) pieces `relative_i_function` hands to `_assemble`,
    their sparse-row slices read back as classes."""
    seen = []
    monkeypatch.setattr(ifunctions, "_assemble", lambda g, p, lowest_z=None: seen.append(p))
    relative_i_function(geom)
    monkeypatch.undo()
    return _as_elements(geom, seen[0])


def _literal_toric_piece(bundles, denominators):
    """The literal piece of a toric pair with the [toric] lists given as (class,
    pairing) pairs: Π_{k=1}^{b·β}(b + kz) over bundles times Π_{k=1}^{t·β} 1/(t + kz)
    over denominators, one link at a time with no classes merged, times the pole
    1/(D + (D·β)z) when D·β > 0."""
    def piece(geom, beta):
        term = ZLaurentElement.one(geom.ambient)
        for classes, link in ((bundles, ZLaurentElement.linear),
                              (denominators, nilpotent_reciprocal)):
            for cls, pairing in classes:
                for k in range(1, sum(p * b for p, b in zip(pairing, beta)) + 1):
                    term = term * link(cls, k)
        c = geom.contact_weight(beta)
        if c > 0:
            term = term * nilpotent_reciprocal(geom.divisor_class, c)
        return term
    return piece


def _blp3_toric_lists(geom):
    """H, h and blp3_k3's [toric] denominators H; H; H; H; h as (class, pairing) pairs.
    Its last denominator h − H is D's own ray, whose links cancel D's chain link by
    link, so both are left out."""
    H, h = geom.ambient.named("H"), geom.ambient.named("h")
    return H, h, [(H, (1, 0))] * 4 + [(h, (0, 1))]


def _literal_relative_piece(geom, beta):
    """The absolute part, Π_{k≤d} 1/(H + kz)^{n+1} with n = m − 1 one link at a
    time for P^n with no table or Σ v·z^{−a−2} over the test's own rows for the table
    copy, times Π_{0<a<D·β}(D + az); None for a class with no rows."""
    amb = geom.ambient
    if geom.table is None:
        term = ZLaurentElement.one(amb)
        for k in range(1, beta[0] + 1):
            for _ in range(geom.m_vector[0]):
                term = term * nilpotent_reciprocal(amb.named("H"), k)
    elif not any(beta):
        term = ZLaurentElement.one(amb)
    else:
        term = ZLaurentElement(amb, {-a - 2: amb.unit().scale(v)
                                     for b, a, v in P2_TABLE_ROWS if b == beta})
        if not term.terms:
            return None
    for a in range(1, geom.contact_weight(beta)):
        term = term * ZLaurentElement.linear(geom.divisor_class, a)
    return term


def _printable_part(geom, beta, term):
    """The literal piece less what restriction to D sends to 0: for D·β ≠ 0, every
    component of degree above D's top degree in a slice at z ≤ 0.  Slices at
    z ≥ 1 and contact-0 pieces stay whole."""
    if term is None or geom.contact_weight(beta) == 0:
        return term
    amb, top = geom.ambient, geom.divisor.top_degree
    return ZLaurentElement(amb, {
        z: el if z >= 1 else amb.element(
            [c if d <= top else 0 for c, d in zip(el.coeffs, amb.degrees)])
        for z, el in term.terms.items()})


def _check_pieces(monkeypatch, geom, orders, literal_piece):
    literal = {}
    for order in orders:
        at_order = _at_order(geom, order)
        pieces = _relative_pieces(monkeypatch, at_order)
        for beta in at_order.policy.classes():
            if beta not in literal:
                literal[beta] = _printable_part(geom, beta, literal_piece(geom, beta))
        assert [beta for beta, _, _ in pieces] == [
            b for b in at_order.policy.classes() if literal[b] is not None]
        for beta, contact, zl in pieces:
            assert contact == -geom.contact_weight(beta)
            assert ZLaurentElement(geom.ambient, zl) == literal[beta], beta


def test_toric_pieces_of_the_blowup_are_literal_link_products(monkeypatch, blp3):
    H, h, denominators = _blp3_toric_lists(blp3)
    piece = _literal_toric_piece([(H.scale(4) + h, (4, 1))], denominators)
    _check_pieces(monkeypatch, blp3, range(2, 13), piece)


def test_toric_pieces_drop_factors_that_pair_to_at_most_zero(monkeypatch):
    # bundles 3H and H + h: 3H pairs to 0 with every class (0, k).  Then the
    # bundle h − H = D, pairing to −k with (k, 0), set past the loader, which
    # refuses a negative pairing.
    cfg = BUILTIN_CONFIGS["blp3_k3"].replace("bundles = 4*H + h", "bundles = 3*H; H + h")
    geom = load_geometry(cfg)
    H, h, denominators = _blp3_toric_lists(geom)
    bundles = [(H.scale(3), (3, 0)), (H + h, (1, 1))]
    _check_pieces(monkeypatch, geom, (6,), _literal_toric_piece(bundles, denominators))
    # the net factors of bundles 5H; h − H over the same denominators
    negative = geometry_with(geom, factors=tuple(
        IFactor(u, pairing, e, _last(u)) for u, pairing, e in (
            (H.scale(5), (5, 0), 1), (h - H, (-1, 1), 1), (H, (1, 0), -4), (h, (0, 1), -1))))
    bundles = [(H.scale(5), (5, 0)), (h - H, (-1, 1))]
    _check_pieces(monkeypatch, negative, (6,), _literal_toric_piece(bundles, denominators))


@pytest.mark.parametrize("name", ["p2_cubic", "p3_quartic", "hyperplane_divisor"])
def test_closed_form_pieces_are_literal_link_products(monkeypatch, name):
    if name == "hyperplane_divisor":
        # D = H gives n = m − 1 = 0: 1/(H + kz) and D's chain merge into one
        # class of net exponent 0, so the pair has no net factor.  The loader
        # refuses D = H on P^2 as not anticanonical, so the pair loads as a
        # table pair and takes the toric source, and its factors, past it.
        geom = geometry_with(load_geometry(
            p2_table("    x_point 1 0 pt 1")
            .replace("divisor_class = 3*H", "divisor_class = H")
            .replace("H p 3", "H p 1")
        ), j_source="toric_hypergeometric", table=None, factors=())
    else:
        geom = builtin_geometry(name)
    _check_pieces(monkeypatch, geom, range(2, 13), _literal_relative_piece)


def test_table_pieces_are_literal_link_products(monkeypatch):
    geom = _p2_from_table()
    assert geom.j_source == "invariant_table"
    _check_pieces(monkeypatch, geom, (2, 4, 8), _literal_relative_piece)


def test_monomials_of_the_blowup_are_literal_products(blp3):
    # the template's net classes 4H + h, H and h, and D, each taken to a power
    # past its nilpotency, so every row meets its first zero
    amb = blp3.ambient
    H, h = amb.named("H"), amb.named("h")
    classes = [H.scale(4) + h, H, h, blp3.divisor_class]
    reach = [amb.top_degree + 2] * len(classes)
    expect = []
    for js in iproduct(*map(range, reach)):
        coeffs = amb.unit().coeffs
        for u, j in zip(classes, js):
            for _ in range(j):
                coeffs = dense_product(amb.element(coeffs), u)
        if any(coeffs):
            row = tuple((k, c.numerator, c.denominator) for k, c in enumerate(coeffs) if c)
            expect.append((js, sum(js), row))
    assert len(classes) >= 3 and len(expect) > len(classes) * amb.top_degree
    assert ifunctions._monomials(amb, classes, reach) == expect


@pytest.mark.parametrize("name", ["p2_cubic", "p3_quartic", "blp3_k3", "p2_from_table"])
def test_every_source_builds_its_pieces_on_the_one_template(monkeypatch, name):
    # the template forms every piece from scalar rows: no z-Laurent element,
    # product or reciprocal is made on the way
    geom = _p2_from_table() if name == "p2_from_table" else builtin_geometry(name)
    calls = []

    def counted(original, label):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ZLaurentElement, "__init__", counted(ZLaurentElement.__init__, "element"))
    built = relative_i_function(geom)
    monkeypatch.undo()
    assert built.terms and calls == []


def _element_products(monkeypatch, call):
    """How many Element products (`algebra.sum_of_products` calls) call() forms."""
    calls = []
    real = algebra.sum_of_products
    monkeypatch.setattr(algebra, "sum_of_products", lambda *a: calls.append(a) or real(*a))
    call()
    monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("name", ["p2_cubic", "p3_quartic", "blp3_k3"])
def test_an_i_function_build_multiplies_no_elements(monkeypatch, name):
    # each factor's last power is the loader's, not found again by products
    geom = builtin_geometry(name)
    assert _element_products(monkeypatch, lambda: relative_i_function(geom)) == 0


def test_the_mirror_change_ladder_multiplies_no_elements(monkeypatch):
    steps = [("classical-period", "p2_cubic", 24), ("classical-period", "p2_cubic", 36),
             ("classical-period", "p2_cubic", 48), ("classical-period", "p3_quartic", 32),
             ("classical-period", "p3_quartic", 48), ("mirror-map", "p2_cubic", 12)]
    for command, name, order in steps:
        argv = [command, "--geometry", name, "--order", str(order), "--format", "json"]
        codes = []
        count = _element_products(monkeypatch, lambda: codes.append(run(argv, stream=io.StringIO())))
        assert (codes, count) == ([0], 0), argv


@pytest.mark.parametrize("order", [8, 10])
def test_a_non_nef_mirror_map_multiplies_no_elements(monkeypatch, order):
    # normalize_i's v·r(D) is one `_rows` against the rows e_j·r(D), formed once per call
    argv = ["mirror-map", "--geometry", "blp3_k3", "--order", str(order), "--format", "json"]
    codes = []
    count = _element_products(monkeypatch, lambda: codes.append(run(argv, stream=io.StringIO())))
    assert (codes, count) == ([0], 0)


def test_toric_i_function_needs_a_toric_pair():
    with pytest.raises(MissingDataError, match="p2_cubic: no toric data"):
        toric_i_function(_p2_from_table())


# ---------------------------------------------------------------------------
# assembly: pieces times the exponential prefactor, against the literal loop


def _at_order(geom, order):
    pol = geom.policy
    return geom.replace(policy=TruncationPolicy.make(pol.nvars, order, pol.weights))


def _pieces(monkeypatch, name):
    """The (β, contact, z-Laurent) pieces one I-function build hands to `_assemble`,
    their slices as classes."""
    if name == "synthetic_negative":
        # the relative I-function refuses this pair (nonzero divisor map), so its
        # pieces are the absolute cores times the negative-contact chains
        # Π_{a=1}^{−c−1} 1/(D − az), one literal link at a time
        geom = load_geometry(SYNTHETIC_NEGATIVE)
        pieces = []
        for b in range(geom.policy.max_total + 1):
            c = geom.contact_weight((b,))
            term = ZLaurentElement(geom.ambient, {
                z: geom.ambient.unit().scale(v) for z, v in absolute_core(geom, (b,)).items()})
            if c < 0:
                term = term * _literal_chain(geom.divisor_class, -c - 1, -1, -1)
            pieces.append(((b,), -c, term.terms))
        return geom, pieces
    geom = _at_order(builtin_geometry(name), 6)
    seen = []
    real = ifunctions._assemble
    monkeypatch.setattr(ifunctions, "_assemble",
                        lambda g, p, lowest_z=None: seen.append(p) or real(g, p, lowest_z))
    relative_i_function(geom)
    monkeypatch.undo()
    return geom, _as_elements(geom, seen[0])


@pytest.mark.parametrize("name", ["blp3_k3", "p2_cubic", "p3_quartic", "synthetic_negative"])
def test_assemble_matches_the_literal_assembly(monkeypatch, name):
    geom, pieces = _pieces(monkeypatch, name)
    assert any(contact for _, contact, _ in pieces) and any(len(zl) > 1 for *_, zl in pieces)
    # the term dict handed to RelativeSeries, before the series cleans it
    handed = []
    real = ifunctions.RelativeSeries
    monkeypatch.setattr(ifunctions, "RelativeSeries",
                        lambda g, terms, lowest_z=None:
                        handed.append(dict(terms)) or real(g, terms, lowest_z))
    series = ifunctions._assemble(geom, _as_rows(pieces))
    monkeypatch.undo()
    expected = assemble_literal(geom, pieces)
    assert handed == [expected]
    assert series.terms == expected


def test_assemble_refuses_content_above_the_window(p2):
    amb = p2.ambient
    pieces = [((0,), 0, {1: amb.named("H2")})]
    with pytest.raises(ValueError, match="z\\^2"):
        assemble_literal(p2, pieces)
    for lowest_z in (None, 0):
        with pytest.raises(ConfigError, match="p2_cubic: .* class \\(0,\\) .* z\\^2, above z\\^1"):
            ifunctions._assemble(p2, _as_rows(pieces), lowest_z)


def test_assemble_refuses_content_above_the_window_that_restricts_to_zero(p2):
    # off contact 0 the printed terms live on D, where H² is 0; the refusal must
    # still read the slice at z¹ whole in the ambient ring
    H2 = p2.ambient.named("H2")
    assert p2.restriction(H2).is_zero() and p2.contact_weight((1,)) == 3
    pieces = [((1,), -3, {1: H2})]
    for lowest_z in (None, 0):
        with pytest.raises(ConfigError, match="p2_cubic: .* class \\(1,\\) .* z\\^2, above z\\^1"):
            ifunctions._assemble(p2, _as_rows(pieces), lowest_z)


def test_a_floored_build_tabulates_only_the_depth_it_reads(monkeypatch, blp3):
    # from z⁰ up the template reads monomials of Σ j ≤ 1 and prefactor terms of
    # |α| ≤ 1 alone, so it forms no more of them, nor longer chain rows
    geom = _at_order(blp3, 8)
    top = geom.ambient.top_degree

    def tabulated(lowest_z):
        seen = {"monomials": [], "prefactor": [], "chains": []}
        for name, key in (("_monomials", "monomials"), ("_prefactor_terms", "prefactor"),
                          ("_chain_rows", "chains")):
            real = getattr(ifunctions, name)
            monkeypatch.setattr(ifunctions, name, lambda *a, real=real, key=key:
                                seen[key].append(real(*a)) or seen[key][-1])
        relative_i_function(geom, lowest_z)
        monkeypatch.undo()
        # the template's monomials come first, then the prefactor's own
        (template, _), (prefactor,) = seen["monomials"], seen["prefactor"]
        return template, prefactor, [nums for rows in seen["chains"] for nums, _ in rows]

    template, prefactor, chains = tabulated(0)
    assert len(template) == 5 and all(t <= 1 for _, t, _ in template)
    assert len(prefactor) == 3 and all(-shift <= 1 for _, shift, _ in prefactor)
    assert chains and all(len(nums) <= 2 for nums in chains)
    template, prefactor, chains = tabulated(None)
    assert len(template) == 54 and max(t for _, t, _ in template) == top
    assert len(prefactor) == 14 and max(-shift for _, shift, _ in prefactor) == top
    assert max(map(len, chains)) > 2


def test_assemble_skips_prefactor_terms_that_restrict_to_zero(monkeypatch, blp3):
    # h restricts to 0, so off contact 0 every p_α with a power of h gives 0 on
    # every slice at z ≤ 0: of the 550 (slice, p_α) visits a whole build made,
    # 160 were such and kept nothing.  Each slice visits a prefix of its table,
    # as long as the `bisect_right` it calls returns.
    geom = _at_order(blp3, 8)
    calls = []
    real_assemble = ifunctions._assemble
    monkeypatch.setattr(ifunctions, "_assemble", lambda *a: calls.append(a) or real_assemble(*a))
    whole = relative_i_function(geom)
    monkeypatch.undo()
    (args,) = calls
    visits = []
    real_bisect = ifunctions.bisect_right
    monkeypatch.setattr(ifunctions, "bisect_right",
                        lambda *a: visits.append(real_bisect(*a)) or visits[-1])
    assert ifunctions._assemble(*args).terms == whole.terms
    assert sum(visits) == 550 - 160


# ---------------------------------------------------------------------------
# the floor: only the slices from z^lowest_z up


@pytest.mark.parametrize("order", [4, 9])
@pytest.mark.parametrize("name", [*sorted(BUILTIN_CONFIGS), "p2_from_table"])
def test_floored_series_is_the_whole_series_from_z0_up(name, order):
    geom = _at_order(_p2_from_table() if name == "p2_from_table" else builtin_geometry(name), order)
    whole = relative_i_function(geom)
    floored = relative_i_function(geom, lowest_z=0)
    assert whole.lowest_z is None and floored.lowest_z == 0
    assert any(z < 0 for _, _, z, _ in whole.terms)
    assert floored.terms == {k: e for k, e in whole.terms.items() if k[2] >= 0}
    assert list(floored.terms) == [k for k in whole.terms if k[2] >= 0]


def test_reading_below_the_floor_raises(blp3):
    floored = relative_i_function(blp3, lowest_z=0)
    whole = relative_i_function(blp3)
    assert floored.z_slice(0) == whole.z_slice(0) and floored.z_slice(1) == whole.z_slice(1)
    assert floored.coefficient((1, 0), 0, 0) == whole.coefficient((1, 0), 0, 0)
    with pytest.raises(TruncationError, match="below .* z\\^0"):
        floored.z_slice(-1)
    with pytest.raises(TruncationError, match="below .* z\\^0"):
        floored.coefficient((1, 0), 0, -1)
    assert floored != whole  # a partial series never passes for the whole one


def test_a_floored_series_refuses_terms_below_its_floor(p2):
    zero = (0,)
    with pytest.raises(PipelineInvariantError, match="below z\\^0"):
        ifunctions.RelativeSeries(p2, {(zero, 0, -1, zero): p2.ambient.unit()}, lowest_z=0)


# ---------------------------------------------------------------------------
# absolute one-point data


def test_absolute_core_of_the_plane(p2):
    # the plane's closed-form core at degree 1 is 1/(H + z)^3, one factor per
    # coordinate hyperplane
    H, H2 = p2.ambient.named("H"), p2.ambient.named("H2")
    core = _chain(H, 1, -3)
    assert core.coefficient(-3) == p2.ambient.unit()
    assert core.coefficient(-4) == -H.scale(3)
    assert core.coefficient(-5) == H2.scale(6)
    lin = ZLaurentElement.linear(H, 1)
    assert core * lin * lin * lin == ZLaurentElement.one(p2.ambient)


def test_one_point_invariants_match_closed_form(p2, p3):
    # ⟨[pt] ψ^{D·β−2}⟩_β is the unit component of the core
    # P(H, d, −(n+1)) = Π_{k≤d} 1/(H + kz)^{n+1} at z^{−D·β}
    def core(geom, n, d):
        return _chain(geom.ambient.named("H"), d, -(n + 1))

    assert [core(p2, 2, d).coefficient(-3 * d).unit_component()
            for d in (1, 2, 3)] == [Fraction(1), Fraction(1, 8), Fraction(1, 216)]
    assert core(p3, 3, 2).coefficient(-8).unit_component() == Fraction(1, 16)


# ---------------------------------------------------------------------------
# the contact-order product rule, case by case


def _unit_product(geom, c1, v, c2):
    """(contact, value) of [v]_c1·[1]_c2 for c2 ≥ 0, the one product `normalize_i`
    takes, on the table of the product rule's maps it forms."""
    return c1 + c2, _times_unit(v, (_sign(c1), _sign(c1 + c2)), _unit_maps(geom))


def test_product_rule_nonnegative_restricts_and_adds(p3):
    H = p3.ambient.named("H")
    c, v = _unit_product(p3, 0, H, 2)
    assert c == 2 and v == p3.divisor.named("h")


def test_product_rule_negative_sum_stays_negative(p3):
    one_d = p3.divisor.unit()
    c, v = _unit_product(p3, -2, one_d, 1)
    assert c == -1 and v == one_d


def test_product_rule_zero_sum_pushes_forward(p3):
    one_d = p3.divisor.unit()
    c, v = _unit_product(p3, -1, one_d, 1)
    assert c == 0 and v == p3.ambient.named("H").scale(4)


def test_product_rule_positive_sum_cups_divisor_class(p3):
    one_d = p3.divisor.unit()
    c, v = _unit_product(p3, -1, one_d, 2)
    assert c == 1 and v == p3.divisor.named("h").scale(4)


def test_product_rule_positive_sum_vanishes_on_blowup(blp3):
    # the K3 divisor class restricts to r(h − H) = −h_D, as h restricts to 0, so
    # this branch cups with −h_D and vanishes on the point class, D's top degree
    one_d = blp3.divisor.unit()
    c, v = _unit_product(blp3, -1, one_d, 2)
    assert c == 1 and v == -blp3.divisor.named("h")
    assert _unit_product(blp3, -1, blp3.divisor.named("p"), 2) == (1, blp3.divisor.zero())


def _random_state_series(geom, raw):
    """A StateSeries from raw (beta, contact, log, coefficient) draws.

    Class entries are capped at the truncation order (so some pairs land
    exactly on the weight cut and some beyond it); coefficient lists are cut
    to the dimension of the algebra the contact selects.
    """
    pol = geom.policy
    terms = {}
    for beta, contact, log, coeffs in raw:
        beta = tuple(min(b, pol.max_total) for b in beta[: pol.nvars])
        if not pol.admits(beta):
            continue
        alg = geom.ambient if contact == 0 else geom.divisor
        key = (beta, contact, (log,) * pol.nvars)
        terms[key] = alg.element(coeffs[: alg.dim])
    return StateSeries(geom, terms)


_state_terms = st.lists(
    st.tuples(
        st.lists(st.integers(0, 8), min_size=2, max_size=2),
        st.integers(-3, 3),
        st.integers(0, 1),
        st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    ),
    max_size=6,
)

# z⁰ terms for every map of `_unit_maps`, with nonzero and zero products:
# contacts −3…3, classes of weight 0 up to the truncation order, unit, mixed
# and top-degree values; against the units of _SOME_UNITS (contacts 0, 1 and 2
# on blp3, 2 and 4 on synthetic_negative) every contact sign is reached
_ALL_BRANCHES = [
    ([0, 0], 0, 0, [1, 1, 0, 0, 0, 0, 0, 0]),
    ([8, 0], 0, 1, [0, 1, 1, 1, 0, 0, 0, 0]),
    ([1, 1], 1, 0, [1, 0, 1, 0, 0, 0, 0, 0]),
    ([0, 0], 2, 0, [1, 0, 0, 0, 0, 0, 0, 0]),
    ([0, 1], -1, 1, [1, 1, 0, 0, 0, 0, 0, 0]),
    ([1, 0], -2, 1, [2, 0, -1, 0, 0, 0, 0, 0]),
    ([0, 0], -1, 0, [1, -1, 1, 0, 0, 0, 0, 0]),
    ([2, 0], 3, 1, [0, 0, 1, 0, 0, 0, 0, 0]),
    ([2, 0], -3, 0, [0, 1, 0, 0, 0, 0, 0, 0]),
]
_SOME_UNITS = [([1, 0], Fraction(1)), ([2, 0], Fraction(-1, 2)), ([1, 1], Fraction(2))]


def test_product_rule_text_is_published():
    assert "pairing pushforward" in PRODUCT_RULE_TEXT


def test_state_series_rejects_misplaced_classes(p2):
    zero = (0,)
    with pytest.raises(Exception, match="must live in"):
        StateSeries(p2, {(zero, 1, (0,)): p2.ambient.named("H")})


def test_series_are_unhashable(p2):
    unit = p2.ambient.unit()
    for series in (StateSeries.unit(p2), relative_i_function(p2), NovikovSeries.one(p2.policy),
                   ZLaurentElement(unit.algebra, {0: unit})):
        with pytest.raises(TypeError):
            hash(series)


def test_state_reciprocal_multiplies_back(blp3):
    """I₁⁻¹ on blp3_k3, as the geometric series of literal state products, is
    scalar at contacts −D·β ≥ 0, multiplies back to [1]_0, and carries the
    Novikov reciprocal of I₁'s scalars: the route `normalize_i` takes."""
    i1 = relative_i_function(blp3).z_slice(1)
    inverse = geometric_reciprocal(i1)
    assert state_product(i1, inverse) == StateSeries.unit(blp3)
    scalars = {}
    for (beta, contact, logpow), el in inverse.terms.items():
        alg = blp3.ambient if contact == 0 else blp3.divisor
        assert contact == -blp3.contact_weight(beta) >= 0 and not any(logpow)
        assert el == alg.unit().scale(el.unit_component())
        scalars[beta] = el.unit_component()
    u = NovikovSeries(blp3.policy, {b: el.unit_component() for (b, _, _), el in i1.terms.items()})
    assert NovikovSeries(blp3.policy, scalars) == u.reciprocal()


@pytest.mark.parametrize("order", [4, 8])
def test_blowup_j0_is_the_geometric_quotient(blp3, order):
    geom = _at_order(blp3, order)
    I = relative_i_function(geom)
    N = normalize_i(I)
    want = state_product(I.z_slice(0), geometric_reciprocal(I.z_slice(1)))
    assert I.z_slice(1) != StateSeries.unit(geom)  # the non-nef route
    assert N.mirror_map == want


def test_j0_quotient_when_a_picard_class_restricts_to_zero(blp3):
    """On blp3_k3 h ↦ 0 on D, so the log part p_i·I₁ has no terms at
    contact > 0 for p = h, and J₀ is still the geometric quotient."""
    geom = _at_order(blp3, 4)
    assert geom.restriction(geom.ambient.named("h")).is_zero()
    I = relative_i_function(geom)
    assert not any(c and log[1] for (_, c, log) in I.z_slice(0).terms)
    want = state_product(I.z_slice(0), geometric_reciprocal(I.z_slice(1)))
    assert normalize_i(I).mirror_map == want


def _unit_slice_and_log_free_terms(geom, units, raw):
    """I₁ = Σ c_β·[1]_{−D·β} over the drawn classes with −D·β ≥ 0, and log-free
    z⁰ terms: any class at contact ≥ 0, a multiple of [1] below, the shape a
    mirror map's negative-contact part has."""
    pol, zero = geom.policy, (0,) * geom.nvars
    i1 = {}
    for beta, c in units:
        beta = tuple(beta[: pol.nvars])
        contact = -geom.contact_weight(beta)
        if pol.admits(beta) and contact >= 0:
            i1[(beta, contact, zero)] = (geom.ambient if contact == 0 else geom.divisor).unit().scale(c)
    i0 = {}
    for (beta, contact, _), el in _random_state_series(geom, raw).terms.items():
        if contact < 0:
            el = el.algebra.unit().scale(el.unit_component() or 1)
        i0[(beta, contact, zero)] = el
    return i1, i0


def _unit_slice_series(geom, c0, units, raw, log):
    """(I, I₀, I₁): a scalar z¹ slice c₀·[1]_0 + Σ c_β·[1]_{−D·β} over a log-free
    z⁰ slice (`_unit_slice_and_log_free_terms`), with the log part p_i·I₁
    beside it at log_i when ``log``."""
    from mirrorpair import RelativeSeries

    zero = (0,) * geom.nvars
    i1, i0 = _unit_slice_and_log_free_terms(geom, units, raw)
    i1[(zero, 0, zero)] = geom.ambient.unit().scale(c0)
    unit_slice = StateSeries(geom, i1)
    if log:
        for i, p in enumerate(geom.picard):
            logi = tuple(int(k == i) for k in range(geom.nvars))
            part = state_product(StateSeries(geom, {(zero, 0, logi): p}), unit_slice)
            i0.update(part.terms)
    I = RelativeSeries(geom, {
        (b, c, z, l): el
        for z, part in ((1, i1), (0, i0)) for (b, c, l), el in part.items()
    })
    return I, StateSeries(geom, i0), unit_slice


@pytest.mark.parametrize("name", ["p3", "blp3", "synthetic_negative"])
@given(
    c0=st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    units=st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                             st.fractions(min_value=-3, max_value=3, max_denominator=2)),
                   max_size=5),
    raw=_state_terms,
    log=st.booleans(),
)
@example(c0=Fraction(1), units=_SOME_UNITS, raw=_ALL_BRANCHES, log=True)
@settings(max_examples=25, deadline=None)
def test_state_reciprocal_is_the_geometric_series(request, name, c0, units, raw, log):
    """A scalar z¹ slice over a log-free z⁰ slice with the log part p_i·I₁
    beside it: `normalize_i` runs, so its check u·r = 1 holds, which is
    J₁ = [1]_0, and its J₀ is I₀ times the geometric series of I₁, by literal
    state products.  Without that log part every I₁ is refused, [1]_0
    included.

    On p3 every class β ≠ 0 has −D·β < 0, so every drawn unit but c₀ is
    dropped: that case covers the divide by a constant unit only.  blp3 and
    synthetic_negative reach the maps at contact > 0
    (`test_unit_products_reach_every_map_of_the_table`)."""
    geom = request.getfixturevalue(name)
    I, i0, unit_slice = _unit_slice_series(geom, c0, units, raw, log)
    if not log:
        with pytest.raises(PipelineInvariantError, match="log part is not"):
            normalize_i(I)
        return
    N = normalize_i(I)
    assert N.mirror_map == state_product(i0, geometric_reciprocal(unit_slice))


class _CountingMaps(dict):
    """A table of the product rule's maps that counts the lookups of each key it holds."""

    def __init__(self, table):
        super().__init__(table)
        self.hits = dict.fromkeys(table, 0)

    def get(self, key, default=None):
        if key in self:
            self.hits[key] += 1
        return super().get(key, default)


@pytest.mark.parametrize("name, tables", [("p3", 0), ("blp3", 1), ("synthetic_negative", 1)])
def test_unit_products_reach_every_map_of_the_table(monkeypatch, request, name, tables):
    """The `_ALL_BRANCHES` terms over the `_SOME_UNITS` slice reach each of the
    table's three maps, restriction, pushforward and cup with r(D), on blp3
    and synthetic_negative, where I₁ has terms at contact > 0.  On p3 it has
    none, so `normalize_i` forms no table."""
    geom = request.getfixturevalue(name)
    I, i0, unit_slice = _unit_slice_series(geom, 1, _SOME_UNITS, _ALL_BRANCHES, True)
    spies = []
    real = ifunctions._unit_maps
    monkeypatch.setattr(ifunctions, "_unit_maps",
                        lambda g: spies.append(_CountingMaps(real(g))) or spies[-1])
    N = normalize_i(I)
    assert len(spies) == tables
    for spy in spies:
        assert set(spy.hits) == {(0, 1), (-1, 0), (-1, 1)}
        assert all(spy.hits.values()), spy.hits
    assert N.mirror_map == state_product(i0, geometric_reciprocal(unit_slice))


# ---------------------------------------------------------------------------
# the blown-up geometry: frozen hypergeometric slice


BL_I1_FROZEN = {
    ((0, 0), 0): Fraction(1),
    ((1, 0), 1): Fraction(24),
    ((1, 1), 0): Fraction(120),
    ((2, 0), 2): Fraction(2520),
    ((2, 1), 1): Fraction(22680),
    ((2, 2), 0): Fraction(113400),
}


def test_blowup_unit_slice_frozen_values(blp3):
    i1 = relative_i_function(blp3).z_slice(1)
    for (beta, contact), want in BL_I1_FROZEN.items():
        got = i1.coefficient(beta, contact=contact)
        expect = (blp3.ambient.unit() if contact == 0 else blp3.divisor.unit()).scale(want)
        assert got == expect, (beta, contact)


def test_blowup_unit_slice_closed_form(blp3):
    # every I1 entry is (4a+b)!/((a!)^4 b!) at contact a-b with b <= a
    import math

    i1 = relative_i_function(blp3).z_slice(1)
    for (beta, contact, logpow), el in i1.terms.items():
        a, b = beta
        assert logpow == (0, 0)
        assert contact == a - b and b <= a
        want = Fraction(math.factorial(4 * a + b), math.factorial(a) ** 4 * math.factorial(b))
        unit = blp3.ambient.unit() if contact == 0 else blp3.divisor.unit()
        assert el == unit.scale(want)


def test_blowup_j_shape(blp3):
    """J = I·I₁⁻¹ tops out at z¹, as I does, and J₁ = [1]_0: `normalize_i`
    runs, so its check u·r = 1 holds (the literal I₁·I₁⁻¹ is
    `test_state_reciprocal_multiplies_back`)."""
    I = relative_i_function(blp3)
    assert I.top_z() == 1
    normalize_i(I)


def test_blowup_contact_one_report(blp3):
    report = normalize_i(relative_i_function(blp3)).exponent.contact_one
    assert dict(report.terms) == {
        (0, 1): Fraction(1),
        (1, 2): Fraction(228),
        (2, 3): Fraction(254412),
    }


def test_toric_class_in_both_lists_cancels(blp3):
    from mirrorpair import BUILTIN_CONFIGS

    text = BUILTIN_CONFIGS["blp3_k3"]
    assert text.count("denominators = H; H; H; H; h; h - H\n") == 1
    assert text.count("bundles = 4*H + h\n") == 1
    padded = load_geometry(
        text.replace("denominators = H; H; H; H; h; h - H\n",
                     "denominators = h; H; H; H; H; h; h - H\n")
        .replace("bundles = 4*H + h\n", "bundles = h; 4*H + h\n")
    )
    want = relative_i_function(blp3)
    got = relative_i_function(padded)
    assert {k: v.coeffs for k, v in got.terms.items()} == {
        k: v.coeffs for k, v in want.terms.items()
    }


def test_blowup_exponent(blp3):
    g = normalize_i(relative_i_function(blp3)).exponent.g
    assert g.coefficient((0, 2)) == Fraction(1, 2)
    assert g.coefficient((0, 3)) == Fraction(1, 3)
    assert g.coefficient((0, 4)) == Fraction(1, 4)
    assert g.coefficient((1, 3)) == 352
    assert g.coefficient((1, 4)) == 514


def test_blowup_i_function_hand_checked_coefficients(blp3):
    # beta = (0,1): z·(4H + h + z)/((h + z)(D + z)) at contact −1, restricted by
    # H ↦ h_D, h ↦ 0, D ↦ −h_D: (4h_D + z)/(z − h_D) = (1 + 4x)/(1 − x) at
    # x = h_D/z, so the state is 1 + 5h_D z^-1 + 5h_D² z^-2 with h_D² = 4p
    I = relative_i_function(blp3)
    assert I.coefficient((0, 1), -1, 0, logpow=(0, 0)) == blp3.divisor.unit()
    got = I.coefficient((0, 1), -1, -1, logpow=(0, 0))
    assert got == blp3.divisor.named("h").scale(5)
    assert I.coefficient((0, 1), -1, -2, logpow=(0, 0)) == blp3.divisor.named("p").scale(20)


def test_blowup_prefactor_rows(blp3):
    I = relative_i_function(blp3)
    got = I.coefficient((0, 0), 0, 0, logpow=(1, 0))
    assert got == blp3.ambient.named("H")
    got2 = I.coefficient((0, 0), 0, -1, logpow=(2, 0))
    assert got2 == blp3.ambient.named("H2").scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# projective pairs: mirror exponents


def test_plane_exponent_frozen(p2):
    g = normalize_i(relative_i_function(p2)).exponent.g
    assert g.coefficient((1,)) == 2
    assert g.coefficient((2,)) == 15
    assert g.coefficient((3,)) == Fraction(560, 3)
    assert g.coefficient((4,)) == Fraction(5775, 2)


def test_space_exponent_frozen(p3):
    g = normalize_i(relative_i_function(p3)).exponent.g
    assert g.coefficient((1,)) == 6
    assert g.coefficient((2,)) == 315
    assert g.coefficient((3,)) == 30800
    assert g.coefficient((4,)) == Fraction(7882875, 2)


def test_projective_pairs_have_no_contact_one_terms(p2, p3):
    for geom in (p2, p3):
        report = normalize_i(relative_i_function(geom)).exponent.contact_one
        assert report.is_zero()


def test_mirror_map_log_row(p2):
    tau = normalize_i(relative_i_function(p2)).mirror_map
    assert tau.coefficient((0,), contact=0, logpow=(1,)) == p2.ambient.named("H")


def test_mirror_map_negative_contact_row(blp3):
    tau = normalize_i(relative_i_function(blp3)).mirror_map
    got = tau.coefficient((0, 2), contact=-2, logpow=(0, 0))
    assert got == blp3.divisor.unit().scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# exponent extraction error paths


def test_extraction_rejects_logs_at_negative_contact(p2):
    tau = StateSeries(p2, {((1,), -2, (1,)): p2.divisor.unit()})
    with pytest.raises(MalformedMirrorMapError, match="log"):
        extract_mirror_exponent(tau)


def test_extraction_rejects_nonunit_classes_at_negative_contact(p2):
    tau = StateSeries(p2, {((1,), -3, (0,)): p2.divisor.named("p")})
    with pytest.raises(MalformedMirrorMapError, match="non-unit"):
        extract_mirror_exponent(tau)


def test_normalize_rejects_high_z_content(p2):
    from mirrorpair import RelativeSeries

    zero = (0,)
    bad = RelativeSeries(p2, {((zero), 0, 2, (0,)): p2.ambient.unit()})
    with pytest.raises(ValueError, match="shape"):
        normalize_i(bad)


# ---------------------------------------------------------------------------
# change of variables


def _pol(order):
    return TruncationPolicy.make(1, order)


def test_single_term_inversion_weight_three():
    # q = y e^{3g}, g = 2y  =>  y(q) = q - 6q^2 + 54q^3 (hand inversion)
    ch = MirrorChange((3,), NovikovSeries(_pol(3), {(1,): 2}))
    assert dict(inverse_coordinates(ch)[0].terms) == {
        (1,): Fraction(1), (2,): Fraction(-6), (3,): Fraction(54)}


def test_single_term_inversion_weight_four():
    ch = MirrorChange((4,), NovikovSeries(_pol(2), {(1,): 6}))
    assert dict(inverse_coordinates(ch)[0].terms) == {
        (1,): Fraction(1), (2,): Fraction(-24)}


def test_plane_inverse_coordinates(p2):
    g = normalize_i(relative_i_function(p2)).exponent.g
    ch = MirrorChange(p2.m_vector, g)
    G = composed_exponent(ch)
    yq = inverse_coordinates(ch)[0]
    assert yq.coefficient((1,)) == 1
    assert yq.coefficient((2,)) == -6
    assert yq.coefficient((3,)) == 9
    assert G.coefficient((1,)) == 2
    assert G.coefficient((2,)) == 3
    assert G.coefficient((3,)) == Fraction(74, 3)


def _compose(f, ys):
    """f(y(q)) by literal products alone: Σ f_β Π y_i(q)^β_i."""
    pol = f.policy
    out = NovikovSeries.zero(pol)
    for beta, c in f.terms.items():
        mono = NovikovSeries.constant(pol, c)
        for y, e in zip(ys, beta):
            for _ in range(e):
                mono = series_product(mono, y)
        out = out + mono
    return out


@pytest.mark.parametrize("name", ["p2", "p3", "blp3"])
def test_composed_exponent_inverts_the_change(request, name):
    """G(q(y)) = g(y), and g composed with y(q) = q·exp(−m·G) by products is G."""
    geom = request.getfixturevalue(name)
    g = normalize_i(relative_i_function(geom)).exponent.g
    ch = MirrorChange(geom.m_vector, g)
    G = composed_exponent(ch)
    assert substitute_forward(G, ch) == g
    assert _compose(g, inverse_coordinates(ch)) == G


def test_inverse_coordinates_invert_the_forward_map(p2):
    g = normalize_i(relative_i_function(p2)).exponent.g
    ch = MirrorChange(p2.m_vector, g)
    G = composed_exponent(ch)
    y = inverse_coordinates(ch)[0]
    q_of_y_of_q = y * (G * ch.m_vector[0]).exp()
    assert q_of_y_of_q == NovikovSeries.variable(g.policy, 0)


def test_substitution_round_trips(blp3):
    g = normalize_i(relative_i_function(blp3)).exponent.g
    ch = MirrorChange(blp3.m_vector, g)
    ys = inverse_coordinates(ch)
    f = NovikovSeries(g.policy, {(1, 0): 3, (0, 2): Fraction(-5, 2), (2, 1): 1})
    assert _compose(substitute_forward(f, ch), ys) == f
    assert substitute_forward(_compose(f, ys), ch) == f


@st.composite
def _changes(draw):
    """A random change q = y·exp(m·g): 1-3 variables, m of any sign, weights 1-2."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars))
    m = tuple(draw(st.integers(min_value=-3, max_value=5)) for _ in range(nvars))
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=0, max_value=8 - 2 * nvars)), weights)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars).filter(any)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return MirrorChange(m, NovikovSeries(pol, draw(st.dictionaries(exps, coeffs, max_size=4))))


def _named_change(m, weights, terms):
    return MirrorChange(m, NovikovSeries(TruncationPolicy.make(len(m), 6, weights), terms))


@given(ch=_changes())
@example(ch=_named_change((2, -1), (1, 2), {(1, 0): 2, (0, 1): -1}))
@example(ch=_named_change((-3, 1, 2), (1, 1, 1), {(1, 0, 0): 1, (0, 1, 1): Fraction(-1, 2), (0, 0, 2): 3}))
@example(ch=_named_change((5,), (2,), {(1,): Fraction(1, 3)}))
@settings(max_examples=30, deadline=None)
def test_composed_exponent_solves_the_change(ch):
    assert substitute_forward(composed_exponent(ch), ch) == ch.g


@st.composite
def _change_and_terms(draw):
    ch = draw(_changes())
    return ch, draw(st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * ch.policy.nvars),
        st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=5))


@given(case=_change_and_terms())
# one value of m·β on classes of weights 1 and 2
@example(case=(_named_change((1, 1), (1, 2), {(1, 0): 2, (0, 1): -1}),
               {(0, 0): 1, (1, 0): 3, (0, 1): Fraction(1, 2)}))
@settings(max_examples=30, deadline=None)
def test_substitute_forward_is_the_monomial_substitution(case):
    """Σ c_β q^β ↦ Σ c_β y^β·exp((m·β)·g), one monomial at a time, constant term included."""
    ch, terms = case
    pol = ch.policy
    f = NovikovSeries(pol, terms)
    want = NovikovSeries.zero(pol)
    for beta, c in f.terms.items():
        d = ch.contact_weight(beta)
        power = NovikovSeries(pol, {k: d * v for k, v in ch.g.terms.items()}).exp()
        want = want + series_product(NovikovSeries(pol, {beta: c}), power)
    assert substitute_forward(f, ch) == want


@pytest.mark.parametrize("name, order", [("p2_cubic", 8), ("blp3_k3", None)])
def test_substitute_forward_sums_its_groups_in_one_pass(monkeypatch, name, order):
    """On a fresh change, the substitution forms no product series per group:
    it builds e^{d·g} once per (d, order) group, d = m·β, and sums every
    group's products together."""
    geom = builtin_geometry(name)
    if order is not None:
        geom = _at_order(geom, order)
    g = normalize_i(relative_i_function(geom)).exponent.g
    G = composed_exponent(MirrorChange(geom.m_vector, g))
    ch = MirrorChange(geom.m_vector, g)
    pol = g.policy
    lightest: dict = {}
    for beta in G.terms:
        d = ch.contact_weight(beta)
        lightest[d] = min(lightest.get(d, pol.max_total), pol.weight(beta))
    want = sorted((d, pol.max_total - w) for d, w in lightest.items())
    assert len(want) > 1
    exps, products = [], []
    real_exp, real_mul = NovikovSeries.exp, NovikovSeries.__mul__

    def exp(self, scale=1, order=None):
        exps.append((scale, order))
        return real_exp(self, scale, order)

    def mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(NovikovSeries, "exp", exp)
    monkeypatch.setattr(NovikovSeries, "__mul__", mul)
    assert substitute_forward(G, ch) == g
    assert products == []
    assert sorted(exps) == want


@st.composite
def _mixed_sign_exponents(draw):
    """A random G with zero constant term over 2-3 variables, weights 1-2, and m with both signs."""
    nvars = draw(st.integers(min_value=2, max_value=3))
    weights = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars))
    m = (draw(st.integers(-3, -1)), draw(st.integers(1, 4))) + tuple(
        draw(st.integers(-3, 4)) for _ in range(nvars - 2)
    )
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=1, max_value=9 - nvars)), weights)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars).filter(any)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return m, NovikovSeries(pol, draw(st.dictionaries(exps, coeffs, max_size=5)))


@given(ch=_changes())
@example(ch=_named_change((2, -1), (1, 2), {(1, 0): 2, (0, 1): -1}))
@example(ch=_named_change((-3, 1, 2), (1, 1, 1), {(1, 0, 0): 1, (0, 1, 1): Fraction(-1, 2), (0, 0, 2): 3}))
@example(ch=_named_change((5,), (2,), {(1,): Fraction(1, 3)}))
@example(ch=_named_change((1, 2), (1, 1), {(1, 0): Fraction(-2, 3), (1, 1): 4, (0, 2): Fraction(1, 5)}))
@settings(max_examples=30, deadline=None)
def test_exp_composed_is_goods_formula(ch):
    """e^G against Good's formula summed from literal powers of g, for m of one sign and of both."""
    assert ch.exp_composed == good_exp_composed(ch)


def _assert_reads_are_goods_formula(ch):
    """e^G, G and each y_i(q) = q_i·e^{−m_i G} against Good's formula summed from
    literal powers of g, each shift by q_i a literal product."""
    pol = ch.policy
    assert ch.exp_composed == good_exp_composed(ch)
    assert composed_exponent(ch) == good_composed(ch)
    assert inverse_coordinates(ch) == tuple(
        series_product(NovikovSeries.variable(pol, i), good_exp_composed(ch, -m))
        for i, m in enumerate(ch.m_vector))


def _seeded_change(seed, m):
    """A change with the given m and a seeded random g: weights 1-2, up to 5 terms."""
    rng = random.Random(seed)
    pol = TruncationPolicy.make(len(m), rng.randint(3, 9 - len(m)),
                                tuple(rng.randint(1, 2) for _ in m))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        beta = tuple(rng.randint(0, 3) for _ in m)
        if any(beta):
            terms[beta] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return MirrorChange(m, NovikovSeries(pol, terms))


# m of both signs over 2-3 variables, with entries of size 2 and more and zeros
@pytest.mark.parametrize("m", [(-1, 1), (2, -1), (-3, 2), (1, -2, 0), (0, 3, -1), (-2, 1, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_the_power_walk_reads_are_goods_formula(monkeypatch, m, seed):
    """Every read comes off the walk: the one exp is its check on g."""
    ch, seen = _seeded_change(seed, m), []
    real = NovikovSeries.exp
    monkeypatch.setattr(NovikovSeries, "exp", lambda self, scale=1, order=None: (
        seen.append(self) or real(self, scale, order)))
    _assert_reads_are_goods_formula(ch)
    assert len(seen) == 1 and seen[0] is ch.g


@pytest.mark.parametrize("order", range(4, 13))
def test_the_blowup_change_reads_are_goods_formula(blp3, order):
    geom = _at_order(blp3, order)
    g = normalize_i(relative_i_function(geom, 0)).exponent.g
    _assert_reads_are_goods_formula(MirrorChange(geom.m_vector, g))


# m of both signs at orders 0-2, where classes pack in bases 1-3, with weights up to 3
@pytest.mark.parametrize("m", [(-1, 1), (2, -1), (1, -2, 3)])
@pytest.mark.parametrize("order", range(3))
@pytest.mark.parametrize("seed", range(4))
def test_the_power_walk_reads_at_the_smallest_packing_bases(m, order, seed):
    rng = random.Random(seed)
    pol = TruncationPolicy.make(len(m), order, tuple(rng.randint(1, 3) for _ in m))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        beta = tuple(rng.randint(0, 2) for _ in m)
        if any(beta) and pol.admits(beta):
            terms[beta] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    _assert_reads_are_goods_formula(MirrorChange(m, NovikovSeries(pol, terms)))


def test_products_recurrences_and_the_walk_share_one_convolution(monkeypatch):
    """`__mul__`, exp, reciprocal and the power walk's step all reach
    `series._convolve`, and the walk of `mirror-map blp3_k3 --order 8` calls
    no `NovikovSeries.__mul__`."""
    callers, walk_products = [], []
    real = series_module._convolve

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(series_module, "_convolve", spy)
    monkeypatch.setattr(ifunctions, "_convolve", spy)
    pol = TruncationPolicy.make(2, 4)
    f = NovikovSeries(pol, {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 5), (1, 1): Fraction(7)})
    for call, caller in ((lambda: f * f, "sum_of_products"), (f.exp, "_solve_by_weight"),
                         ((f + NovikovSeries.one(pol)).reciprocal, "_solve_by_weight")):
        callers.clear()
        call()
        assert callers and set(callers) == {caller}

    real_mul = NovikovSeries.__mul__

    def mul(self, other):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is ifunctions._power_walk.__code__:
                walk_products.append(other)
            frame = frame.f_back
        return real_mul(self, other)

    monkeypatch.setattr(NovikovSeries, "__mul__", mul)
    callers.clear()
    argv = ["mirror-map", "--geometry", "blp3_k3", "--order", "8", "--format", "json"]
    assert run(argv, stream=io.StringIO()) == 0
    assert "_power_walk" in callers and walk_products == []


def test_a_non_nef_mirror_map_walks_once(monkeypatch):
    """On blp3_k3, m = (−1, 1): e^G, G and both y_i(q) come off one power walk,
    with no log and no exp but the walk's zero-constant-term check on g."""
    walks, logs, exps = [], [], []
    real_walk, real_log, real_exp = ifunctions._power_walk, NovikovSeries.log, NovikovSeries.exp
    monkeypatch.setattr(ifunctions, "_power_walk", lambda f, *a: walks.append(f) or real_walk(f, *a))
    monkeypatch.setattr(NovikovSeries, "log", lambda self: logs.append(self) or real_log(self))
    monkeypatch.setattr(NovikovSeries, "exp", lambda self, scale=1, order=None: (
        exps.append((self, scale, order)) or real_exp(self, scale, order)))
    argv = ["mirror-map", "--geometry", "blp3_k3", "--order", "8", "--format", "json"]
    assert run(argv, stream=io.StringIO()) == 0
    assert len(walks) == 1 and logs == []
    assert len(exps) == 1 and exps[0][0] is walks[0] and exps[0][1:] == (1, 0)


@given(mg=_mixed_sign_exponents())
@settings(max_examples=40, deadline=None)
def test_class_constant_terms_match_literal_powers(mg):
    m, G = mg
    assert class_constant_terms(G, m) == class_thetas(G, m, math.inf)


@given(ch=_changes())
@example(ch=_named_change((2, -1), (1, 2), {(1, 0): 2, (0, 1): -1}))
@example(ch=_named_change((-3, 1, 2), (1, 1, 1), {(1, 0, 0): 1, (0, 1, 1): Fraction(-1, 2), (0, 0, 2): 3}))
@example(ch=_named_change((5,), (2,), {(1,): Fraction(1, 3)}))
@settings(max_examples=30, deadline=None)
def test_classical_constant_terms_are_the_scaled_exponent(ch):
    """Good's formula at k = m·β: [q^β] e^{(m·β)·G} = (m·β)·g_β, the θ_β of classical_period."""
    want = {b: ch.contact_weight(b) * c for b, c in ch.g.terms.items() if ch.contact_weight(b) >= 1}
    assert class_thetas(composed_exponent(ch), ch.m_vector, math.inf) == want


@given(ch=_changes(), c=st.fractions(min_value=-3, max_value=3).filter(bool))
@settings(max_examples=10, deadline=None)
def test_composed_exponent_rejects_a_constant_term(ch, c):
    g = ch.g + NovikovSeries.constant(ch.policy, c)
    with pytest.raises(ValueError, match="zero constant term"):
        composed_exponent(MirrorChange(ch.m_vector, g))


# ---------------------------------------------------------------------------
# divisor exponents: both routes


def test_divisor_exponent_vanishes_for_projective_pairs(p2, p3):
    for geom in (p2, p3):
        assert divisor_mirror_map(geom) == ()
        assert normal_bundle_divisor_map(geom) == {}


def test_synthetic_divisor_exponent_table_route(synthetic_negative):
    assert synthetic_negative.tau_d_source == "table"
    H = synthetic_negative.ambient.named("H")
    assert divisor_mirror_map(synthetic_negative) == ((((1,), 0), H.scale(2)),)


def test_synthetic_divisor_exponent_bundle_route(synthetic_negative):
    assert normal_bundle_divisor_map(synthetic_negative) == \
        dict(divisor_mirror_map(synthetic_negative))


# d_point rows at ψ² and ψ⁴ put the factor (−1)^{a+1}(a+1)! of the table route at a > 0
SYNTHETIC_DESCENDANTS = SYNTHETIC_NEGATIVE.replace(
    "    d_point 1 0 pt 1\n", "    d_point 1 0 pt 1\n    d_point 2 2 pt 3\n    d_point 3 4 pt 1/5\n")


def test_both_divisor_exponent_routes_read_descendant_rows():
    geom = load_geometry(SYNTHETIC_DESCENDANTS)
    H = geom.ambient.named("H")
    want = {((1,), 0): H.scale(2), ((2,), 0): H.scale(36), ((3,), 0): H.scale(48)}
    assert dict(divisor_mirror_map(geom)) == want
    assert normal_bundle_divisor_map(geom) == want


def test_bundle_route_catches_a_changed_descendant_row():
    changed = load_geometry(SYNTHETIC_DESCENDANTS.replace("pt 1/5", "pt 2/5"))
    table = dict(divisor_mirror_map(load_geometry(SYNTHETIC_DESCENDANTS)))
    assert normal_bundle_divisor_map(changed) != table


@pytest.mark.parametrize("name", [*sorted(BUILTIN_CONFIGS), "synthetic_negative",
                                  "synthetic_descendants"])
def test_every_element_handed_out_has_a_canonical_row(name):
    # equality and hashing of classes compare rows, so every class the pipeline
    # hands out must hold its row in lowest terms
    if name in BUILTIN_CONFIGS:
        geom = builtin_geometry(name)
        whole, from_z0 = relative_i_function(geom), relative_i_function(geom, 0)
        series = [whole.terms, from_z0.terms, normalize_i(from_z0).mirror_map.terms]
        assert from_z0.terms and series[2]
    else:
        # the relative I-function refuses these pairs (nonzero divisor map)
        geom = load_geometry(SYNTHETIC_NEGATIVE if name == "synthetic_negative"
                             else SYNTHETIC_DESCENDANTS)
        series = []
    dm = divisor_mirror_map(geom)
    assert bool(dm) == (geom.tau_d_source == "table")
    series.append(dict(dm))
    for terms in series:
        for key, el in terms.items():
            assert is_canonical_row(el.support, el.algebra.dim), (key, el.support)
            assert not el.is_zero(), key


def test_relative_i_requires_zero_divisor_exponent(synthetic_negative):
    with pytest.raises(MissingDataError, match="external data required"):
        relative_i_function(synthetic_negative)


def test_negative_contact_cancellation_guard():
    geom = load_geometry(SYNTHETIC_NEGATIVE_ZERO_TAU)
    with pytest.raises(CancellationError, match="factor through"):
        relative_i_function(geom)


# ---------------------------------------------------------------------------
# reads of the relative series


def test_relative_series_window_reads(p2):
    I = relative_i_function(p2)
    assert I.top_z() == 1
    # above the top is known-zero, not an error
    assert I.z_slice(2).terms == {}


def test_z_slice_collects_a_full_state(p2):
    I = relative_i_function(p2)
    s = I.z_slice(1)
    assert s == StateSeries.unit(p2)
