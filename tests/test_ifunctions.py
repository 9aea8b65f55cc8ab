"""Relative I-functions, mirror maps, divisor exponents, change of variables.

The frozen numbers in this file were computed independently before the
pipeline existed: hypergeometric coefficients by hand from the factor
formulas, mirror-map inversions by solving q = y·exp(m·g) order by order on
paper, and the blown-up series from the closed multinomial expression
(4a+b)!/((a!)^4 b!).
"""

import math
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
    is_canonical_row,
    normal_bundle_divisor_map,
    state_product,
)
from mirrorpair import (
    BUILTIN_CONFIGS,
    AlgebraError,
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
    nilpotent_reciprocal,
    normalize_i,
    relative_i_function,
    substitute_forward,
)
from mirrorpair import ifunctions
from mirrorpair.geometry import ToricData
from mirrorpair.ifunctions import (
    PRODUCT_RULE_TEXT,
    _chain_rows,
    _link_row,
    _top,
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


def _chain(u, n, e):
    """P(u, n, e) as a z-Laurent element, read off the row of length n."""
    return _row_link(u, n * e, *_chain_rows(_top(u, e), n, e)[n])


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
        top = _top(u, e)
        for a in range(1, length + 1):
            assert _row_link(u, e, *_link_row(a, e, top)) == _literal_link(u, a, e)
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
    coords=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 1)),
    n=st.integers(0, 7),
    e=st.integers(-4, 4).filter(bool),
)
@example(coords=(4, 1, 0), n=7, e=1)
@example(coords=(-1, 1, 0), n=7, e=-1)
@example(coords=(0, 0, 1), n=3, e=2)
@settings(max_examples=60, deadline=None)
def test_chain_rows_match_literal_products(blp3, coords, n, e):
    # u = x·H + y·h + w·1: nilpotent exactly when w = 0; a link with e < 0
    # needs a nilpotent class
    amb = blp3.ambient
    x, y, w = coords
    u = amb.named("H").scale(x) + amb.named("h").scale(y) + amb.unit().scale(w)
    if w and e < 0:
        with pytest.raises(AlgebraError, match="not nilpotent"):
            _top(u, e)
        return
    nums, den = _chain_rows(_top(u, e), n, e)[n]
    assert den > 0 and all(isinstance(c, int) for c in nums)
    assert _chain(u, n, e) == _literal_chain(u, n, 1, e)


def test_chain_links_need_a_nilpotent_class_only_for_negative_exponents(p2):
    unit = p2.ambient.unit()
    with pytest.raises(AlgebraError, match="not nilpotent"):
        _top(unit, -1)
    z = ZLaurentElement.linear(unit, 1)
    twice = ZLaurentElement.linear(unit, 2)
    square = z * twice * z * twice  # ((1 + z)(1 + 2z))²
    assert _chain(unit, 2, 2) == square


# ---------------------------------------------------------------------------
# the one hypergeometric template against literal link products

P2_TABLE_ROWS = (((1,), 12, Fraction(1)), ((1,), 1, Fraction(1)), ((2,), 4, Fraction(1, 8)))


def _p2_from_table():
    """p2_cubic with its absolute input read from x_point rows instead of the closed form."""
    rows = "".join(f"    x_point {b[0]} {a} pt {v}\n" for b, a, v in P2_TABLE_ROWS)
    return load_geometry(BUILTIN_CONFIGS["p2_cubic"].replace(
        "j_source = closed_form_projective",
        "j_source = invariant_table\ninvariants =\n" + rows.rstrip("\n"),
    ))


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


def _literal_toric_piece(geom, beta):
    """Π_{k=1}^{b·β}(b + kz) over bundles times Π_{k=1}^{t·β} 1/(t + kz) over
    denominators, one link at a time with no classes merged, times the pole
    1/(D + (D·β)z) when D·β > 0."""
    term = ZLaurentElement.one(geom.ambient)
    for classes, link in ((geom.toric.bundles, ZLaurentElement.linear),
                          (geom.toric.denominators, nilpotent_reciprocal)):
        for cls in classes:
            for k in range(1, sum(p * b for p, b in zip(geom.pairing(cls), beta)) + 1):
                term = term * link(cls, k)
    c = geom.contact_weight(beta)
    if c > 0:
        term = term * nilpotent_reciprocal(geom.divisor_class, c)
    return term


def _literal_relative_piece(geom, beta):
    """The absolute part, Π_{k≤d} 1/(H + kz)^{n+1} with n = m − 1 one link at a
    time for the closed form or Σ v·z^{−a−2} over the test's own rows for the table copy,
    times Π_{0<a<D·β}(D + az); None for a class with no rows."""
    amb = geom.ambient
    if geom.j_source == "closed_form_projective":
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


def _check_pieces(monkeypatch, geom, orders, literal_piece=_literal_toric_piece):
    literal = {}
    for order in orders:
        at_order = _at_order(geom, order)
        pieces = _relative_pieces(monkeypatch, at_order)
        for beta in ifunctions._effective_classes(at_order.policy):
            if beta not in literal:
                literal[beta] = literal_piece(geom, beta)
        assert [beta for beta, _, _ in pieces] == [
            b for b in ifunctions._effective_classes(at_order.policy) if literal[b] is not None]
        for beta, contact, zl in pieces:
            assert contact == -geom.contact_weight(beta)
            assert ZLaurentElement(geom.ambient, zl) == literal[beta], beta


def test_toric_pieces_of_the_blowup_are_literal_link_products(monkeypatch, blp3):
    _check_pieces(monkeypatch, blp3, range(2, 13))


def test_toric_pieces_drop_factors_that_pair_to_at_most_zero(monkeypatch):
    # bundles 3H and H + h: 3H pairs to 0 with every class (0, k).  Then the
    # bundle h − H = D, pairing to −k with (k, 0), set past the loader, which
    # refuses a negative pairing.
    cfg = BUILTIN_CONFIGS["blp3_k3"].replace("bundles = 4*H + h", "bundles = 3*H; H + h")
    geom = load_geometry(cfg)
    amb = geom.ambient
    H, h = amb.named("H"), amb.named("h")
    assert any(x == 0 for x in geom.pairing(H.scale(3)))
    _check_pieces(monkeypatch, geom, (6,))
    negative = geometry_with(geom, toric=ToricData(
        geom.toric.denominators, (H.scale(5), h - H)))
    assert min(negative.pairing(h - H)) < 0
    _check_pieces(monkeypatch, negative, (6,))


@pytest.mark.parametrize("name", ["p2_cubic", "p3_quartic", "hyperplane_divisor"])
def test_closed_form_pieces_are_literal_link_products(monkeypatch, name):
    if name == "hyperplane_divisor":
        # D = H gives n = m − 1 = 0: the template merges 1/(H + kz) and D's chain
        # into one class.  The loader refuses D = H on P^2 as not anticanonical,
        # so the pair loads as a table pair and takes the closed form past it.
        geom = geometry_with(load_geometry(
            BUILTIN_CONFIGS["p2_cubic"]
            .replace("divisor_class = 3*H", "divisor_class = H")
            .replace("H p 3", "H p 1")
            .replace("j_source = closed_form_projective",
                     "j_source = invariant_table\ninvariants = x_point 1 0 pt 1")
        ), j_source="closed_form_projective", table=None)
    else:
        geom = builtin_geometry(name)
    _check_pieces(monkeypatch, geom, range(2, 13), _literal_relative_piece)


def test_table_pieces_are_literal_link_products(monkeypatch):
    geom = _p2_from_table()
    assert geom.j_source == "invariant_table"
    _check_pieces(monkeypatch, geom, (2, 4, 8), _literal_relative_piece)


def test_monomials_of_the_blowup_are_literal_products(blp3):
    # the template's net classes (bundles minus denominators, merged) and D, each
    # taken to a power past its nilpotency, so every row meets its first zero
    amb = blp3.ambient
    net = {}
    for classes, e in ((blp3.toric.bundles, 1), (blp3.toric.denominators, -1)):
        for cls in classes:
            net[cls] = net.get(cls, 0) + e
    classes = [cls for cls, e in net.items() if e] + [blp3.divisor_class]
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
    assert normalize_i(floored).j_function.lowest_z == 0
    with pytest.raises(TruncationError):
        normalize_i(floored).j_function.z_slice(-1)


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


def _state_product(geom, c1, e1, c2, e2):
    """(contact, value) of the product of the single-term series [e1]_c1, [e2]_c2."""
    zero = (0,) * geom.nvars
    prod = StateSeries(geom, {(zero, c1, zero): e1}) * StateSeries(geom, {(zero, c2, zero): e2})
    c = c1 + c2
    assert set(prod.terms) <= {(zero, c, zero)}
    return c, prod.coefficient(zero, c)


def test_product_rule_ambient_cup(p2):
    H = p2.ambient.named("H")
    c, v = _state_product(p2, 0, H, 0, H)
    assert (c, v) == (0, p2.ambient.named("H2"))


def test_product_rule_nonnegative_restricts_and_adds(p3):
    H = p3.ambient.named("H")
    one_d = p3.divisor.unit()
    c, v = _state_product(p3, 0, H, 2, one_d)
    assert c == 2 and v == p3.divisor.named("h")


def test_product_rule_negative_sum_stays_negative(p3):
    one_d = p3.divisor.unit()
    c, v = _state_product(p3, -2, one_d, 1, one_d)
    assert c == -1 and v == one_d


def test_product_rule_zero_sum_pushes_forward(p3):
    one_d = p3.divisor.unit()
    c, v = _state_product(p3, -1, one_d, 1, one_d)
    assert c == 0 and v == p3.ambient.named("H").scale(4)


def test_product_rule_positive_sum_cups_divisor_class(p3):
    one_d = p3.divisor.unit()
    c, v = _state_product(p3, -1, one_d, 2, one_d)
    assert c == 1 and v == p3.divisor.named("h").scale(4)


def test_product_rule_positive_sum_vanishes_on_blowup(blp3):
    # the K3 divisor class restricts to r(h - H) = 0, killing this branch
    one_d = blp3.divisor.unit()
    c, v = _state_product(blp3, -1, one_d, 2, one_d)
    assert c == 1 and v.is_zero()


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

# every branch of the rule at once, with nonzero and zero products: contacts
# −3…3, classes of weight 0 up to the truncation order, unit, mixed and
# top-degree values
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


@pytest.mark.parametrize("name", ["p3", "blp3", "synthetic_negative"])
@given(left=_state_terms, right=_state_terms)
@example(left=_ALL_BRANCHES, right=_ALL_BRANCHES)
@settings(max_examples=40, deadline=None)
def test_state_product_matches_per_pair_oracle(request, name, left, right):
    geom = request.getfixturevalue(name)
    a = _random_state_series(geom, left)
    b = _random_state_series(geom, right)
    assert a * b == state_product(a, b)


def test_product_rule_text_is_published():
    assert "pairing pushforward" in PRODUCT_RULE_TEXT


def test_state_series_rejects_misplaced_classes(p2):
    zero = (0,)
    with pytest.raises(Exception, match="must live in"):
        StateSeries(p2, {(zero, 1, (0,)): p2.ambient.named("H")})


def test_state_reciprocal_multiplies_back(blp3):
    i1 = normalize_i(relative_i_function(blp3)).unit_part
    assert i1 * i1.reciprocal() == StateSeries.unit(blp3)


@pytest.mark.parametrize("name", ["p3", "blp3", "synthetic_negative"])
@given(
    raw=_state_terms,
    c=st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    nil=st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    log=st.integers(0, 1),
)
@settings(max_examples=25, deadline=None)
def test_state_reciprocal_is_the_geometric_series(request, name, raw, c, nil, log):
    # β = 0 part c·[1]_0 plus a contact-0 nilpotent class (zero in some draws)
    geom = request.getfixturevalue(name)
    amb = geom.ambient
    zero = (0,) * geom.nvars
    terms = {k: e for k, e in _random_state_series(geom, raw).terms.items() if any(k[0])}
    nil = [0 if i == amb.unit_index else x for i, x in enumerate(nil[: amb.dim])]
    terms[(zero, 0, zero)] = amb.unit().scale(c)
    n0_key = (zero, 0, (log,) * geom.nvars)
    terms[n0_key] = terms.get(n0_key, amb.zero()) + amb.element(nil)
    f = StateSeries(geom, terms)
    r = f.reciprocal()
    assert r == geometric_reciprocal(f)
    assert state_product(f, r) == StateSeries.unit(geom)


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
    i1 = normalize_i(relative_i_function(blp3)).unit_part
    for (beta, contact), want in BL_I1_FROZEN.items():
        got = i1.coefficient(beta, contact=contact)
        expect = (blp3.ambient.unit() if contact == 0 else blp3.divisor.unit()).scale(want)
        assert got == expect, (beta, contact)


def test_blowup_unit_slice_closed_form(blp3):
    # every I1 entry is (4a+b)!/((a!)^4 b!) at contact a-b with b <= a
    import math

    i1 = normalize_i(relative_i_function(blp3)).unit_part
    for (beta, contact, logpow), el in i1.terms.items():
        a, b = beta
        assert logpow == (0, 0)
        assert contact == a - b and b <= a
        want = Fraction(math.factorial(4 * a + b), math.factorial(a) ** 4 * math.factorial(b))
        unit = blp3.ambient.unit() if contact == 0 else blp3.divisor.unit()
        assert el == unit.scale(want)


def test_blowup_j_shape(blp3):
    N = normalize_i(relative_i_function(blp3))
    assert N.j_function.top_z() == 1
    assert N.j_function.z_slice(1) == StateSeries.unit(blp3)


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
    assert text.count("denominators = H; H; H; H; h\n") == 1
    assert text.count("bundles = 4*H + h\n") == 1
    padded = load_geometry(
        text.replace("denominators = H; H; H; H; h\n", "denominators = h; H; H; H; H; h\n")
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
    # beta = (0,1), hand expansion of z * (4H+h+z)_1-factor / (h+z)-pole with
    # the boundary pole shift: the contact -1 state starts 1 + 4 h_D z^-1 + ...
    I = relative_i_function(blp3)
    assert I.coefficient((0, 1), -1, 0, logpow=(0, 0)) == blp3.divisor.unit()
    got = I.coefficient((0, 1), -1, -1, logpow=(0, 0))
    assert got == blp3.divisor.named("h").scale(4)


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
    """f(y(q)) by products alone: Σ f_β Π y_i(q)^β_i."""
    pol = f.policy
    out = NovikovSeries.zero(pol)
    for beta, c in f.terms.items():
        mono = NovikovSeries.constant(pol, c)
        for y, e in zip(ys, beta):
            for _ in range(e):
                mono = mono * y
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
        want = want + NovikovSeries(pol, {beta: c}) * (ch.g * ch.contact_weight(beta)).exp()
    assert substitute_forward(f, ch) == want


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
        assert divisor_mirror_map(geom).is_zero()
        assert normal_bundle_divisor_map(geom) == {}


def test_synthetic_divisor_exponent_table_route(synthetic_negative):
    dm = divisor_mirror_map(synthetic_negative)
    assert dm.source == "table"
    H = synthetic_negative.ambient.named("H")
    assert dict(dm.terms) == {((1,), 0): H.scale(2)}


def test_synthetic_divisor_exponent_bundle_route(synthetic_negative):
    assert normal_bundle_divisor_map(synthetic_negative) == \
        divisor_mirror_map(synthetic_negative).as_dict()


# d_point rows at ψ² and ψ⁴ put the factor (−1)^{a+1}(a+1)! of the table route at a > 0
SYNTHETIC_DESCENDANTS = SYNTHETIC_NEGATIVE.replace(
    "    d_point 1 0 pt 1\n", "    d_point 1 0 pt 1\n    d_point 2 2 pt 3\n    d_point 3 4 pt 1/5\n")


def test_both_divisor_exponent_routes_read_descendant_rows():
    geom = load_geometry(SYNTHETIC_DESCENDANTS)
    H = geom.ambient.named("H")
    want = {((1,), 0): H.scale(2), ((2,), 0): H.scale(36), ((3,), 0): H.scale(48)}
    assert divisor_mirror_map(geom).as_dict() == want
    assert normal_bundle_divisor_map(geom) == want


def test_bundle_route_catches_a_changed_descendant_row():
    changed = load_geometry(SYNTHETIC_DESCENDANTS.replace("pt 1/5", "pt 2/5"))
    table = divisor_mirror_map(load_geometry(SYNTHETIC_DESCENDANTS)).as_dict()
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
    assert bool(dm.terms) == (geom.tau_d_source == "table")
    series.append(dict(dm.terms))
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
