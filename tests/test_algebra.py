"""Structure-constant algebra layer: structure checks plus independent oracles."""

from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    check_algebra_brute_force,
    check_restriction_brute_force,
    dense_product,
    dense_row,
    dense_table,
    is_canonical_row,
    normal_bundle_algebra,
)
from mirrorpair import (
    AlgebraError,
    GradedAlgebra,
    RestrictionMap,
    builtin_geometry,
    check_algebra,
    check_restriction,
    nilpotency_index,
    pairing_matrix,
    pairing_pushforward,
    sum_of_products,
)
from mirrorpair.algebra import _rows

P2 = builtin_geometry("p2_cubic")
P3 = builtin_geometry("p3_quartic")
BL = builtin_geometry("blp3_k3")


# ---------------------------------------------------------------------------
# structure checks


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
def test_builtin_algebras_pass_all_checks(geom):
    assert check_algebra(geom.ambient) == []
    assert check_algebra(geom.divisor) == []


def test_planted_non_associative_table_is_reported():
    # (x·x)·w = p·w = 2t but x·(x·w) = x·p = t
    alg = GradedAlgebra.from_products(
        "nonassoc", ["one", "x", "w", "p", "t"], [0, 1, 1, 2, 3],
        {("x", "x"): {"p": 1}, ("x", "w"): {"p": 1}, ("x", "p"): {"t": 1},
         ("w", "p"): {"t": 2}},
        "one", "t",
    )
    assert check_algebra(alg) == [
        "nonassoc: associativity fails at (1,1,2)",
        "nonassoc: associativity fails at (1,2,2)",
        "nonassoc: associativity fails at (2,1,1)",
        "nonassoc: associativity fails at (2,2,1)",
    ]


def _sparse_rows(table):
    """The dense table's entries as sparse (index, numerator, denominator) rows."""
    return tuple(tuple(tuple((k, c.numerator, c.denominator) for k, c in enumerate(vec) if c)
                       for vec in row) for row in table)


def test_planted_non_commutative_table_is_reported():
    # x·y = p but y·x = 2p; from_products cannot express this, so the rows are literal
    names = ("one", "x", "y", "p")
    constants = [[()] * 4 for _ in names]
    for i in range(4):
        constants[0][i] = constants[i][0] = ((i, 1, 1),)
    constants[1][2] = ((3, 1, 1),)
    constants[2][1] = ((3, 2, 1),)
    integration = tuple(Fraction(int(b == "p")) for b in names)
    alg = GradedAlgebra("noncomm", names, (0, 1, 1, 2), tuple(map(tuple, constants)), 0,
                        integration)
    assert check_algebra(alg) == ["noncomm: e1*e2 != e2*e1", "noncomm: e2*e1 != e1*e2"]


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
def test_builtin_restrictions_are_ring_maps(geom):
    assert check_restriction(geom.restriction) == []


# Random commutative graded tables.  A table starts from the truncated
# monomials x^a in one or two variables of degree |a| <= top, with each basis
# class rescaled (so the constants are not all 1) and the basis shuffled (so
# the unit need not come first); that table is associative.  Its non-unit
# products may then be replaced by random vectors in the right degree, which
# keeps the O(n²) checks passing and mostly breaks associativity, and one
# fault may be planted on top.

_nonzero = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3)).flatmap(
    lambda f: st.sampled_from([f, -f]))
_FAULTS = ("none",) * 3 + ("entry",) * 3 + ("asymmetric", "degree", "unit")


@st.composite
def monomial_tables(draw, nvars=None):
    """(algebra, monomial of each basis index, scale of each basis index, the dense
    table t[i][j][k] the algebra's rows were written from)."""
    nvars = nvars or draw(st.integers(1, 2))
    top = draw(st.integers(2, 5) if nvars == 1 else st.just(3))
    monos = [a for a in iproduct(range(top + 1), repeat=nvars) if sum(a) <= top]
    monos = draw(st.permutations(monos))
    n = len(monos)
    index = {a: i for i, a in enumerate(monos)}
    unit = index[(0,) * nvars]
    scales = [Fraction(1) if i == unit else draw(_nonzero) for i in range(n)]
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            k = index.get(tuple(x + y for x, y in zip(a, b)))
            if k is not None:
                table[i][j][k] = scales[i] * scales[j] / scales[k]
    degrees = [sum(a) for a in monos]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i, n):
                if unit in (i, j):
                    continue
                vec = [draw(st.sampled_from([0, 0, 1, -1, 2])) if degrees[k] == degrees[i] + degrees[j]
                       else 0 for k in range(n)]
                table[i][j] = table[j][i] = [Fraction(c) for c in vec]
    fault = draw(st.sampled_from(_FAULTS))
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    same_degree = [m for m in range(n) if degrees[m] == degrees[i] + degrees[j]]
    if fault == "entry" and unit not in (i, j) and same_degree:
        k = draw(st.sampled_from(same_degree))
        table[i][j] = table[j][i] = list(table[i][j])
        table[i][j][k] += 1
    elif fault == "asymmetric" and i != j:
        table[i][j] = list(table[i][j])
        table[i][j][k] += 1
    elif fault == "degree" and degrees[k] != degrees[i] + degrees[j]:
        table[i][j] = table[j][i] = list(table[i][j])
        table[i][j][k] += 1
    elif fault == "unit":
        table[unit][i] = list(table[unit][i])
        table[unit][i][k] += 1
    integration = tuple(Fraction(int(d == top)) for d in degrees)
    alg = GradedAlgebra(f"t{n}", tuple(f"e{i}" for i in range(n)), tuple(degrees),
                        _sparse_rows(table), unit, integration)
    return alg, monos, scales, table


@given(drawn=monomial_tables())
@settings(max_examples=100, deadline=None)
def test_structure_check_agrees_with_the_brute_force_sweep(drawn):
    alg, _, _, table = drawn
    want = check_algebra_brute_force(alg, table)
    got = check_algebra(alg)
    assert bool(got) == bool(want)
    if all("associativity" in p for p in want):
        assert got == want


@st.composite
def restriction_maps(draw):
    """(map, source table, target table): a map between two monomial tables in
    the same variables.

    Its images are those of x_v -> c_v·x_v when the target is no taller than
    the source (a ring map on untouched tables), the identity, or random
    vectors; one image coordinate may then be perturbed.
    """
    nvars = draw(st.integers(1, 2))
    src, smonos, sscales, stable = draw(monomial_tables(nvars))
    kind = draw(st.sampled_from(["monomial", "random", "identity", "monomial", "random"]))
    if kind == "identity":
        tgt, ttable = src, stable
        images = [src.basis_element(i).coeffs for i in range(src.dim)]
    else:
        tgt, tmonos, tscales, ttable = draw(monomial_tables(nvars))
        tindex = {a: i for i, a in enumerate(tmonos)}
        c = [draw(_nonzero) for _ in range(nvars)]
        images = []
        for a, s in zip(smonos, sscales):
            vec = [Fraction(0)] * tgt.dim
            if kind == "random":
                vec = [Fraction(draw(st.sampled_from([0, 0, 0, 1, -2]))) for _ in range(tgt.dim)]
            elif a in tindex:
                k = tindex[a]
                vec[k] = s / tscales[k]
                for cv, av in zip(c, a):
                    vec[k] *= cv**av
            images.append(tuple(vec))
    if draw(st.booleans()):
        # the unit's image is perturbed about half the time
        i = draw(st.one_of(st.just(src.unit_index), st.integers(0, src.dim - 1)))
        k = draw(st.one_of(st.just(tgt.unit_index), st.integers(0, tgt.dim - 1)))
        images[i] = tuple(x + (m == k) for m, x in enumerate(images[i]))
    return RestrictionMap(src, tgt, tuple(tgt.element(img).support for img in images)), \
        stable, ttable


@given(drawn=restriction_maps())
@settings(max_examples=60, deadline=None)
def test_restriction_check_agrees_with_the_brute_force_sweep(drawn):
    rm, source_table, target_table = drawn
    assert check_restriction(rm) == check_restriction_brute_force(rm, source_table, target_table)


# ---------------------------------------------------------------------------
# monomial-reduction oracle for the blown-up ambient ring
#
# The ring is Q[A, s] modulo (A^4, s^2 - A s): normal forms A^a and A^a s.
# Products reduce by rewriting s-powers before killing degree-4 A-powers,
# which is an entirely different code path from the structure-constant table.


def _reduce(a: int, b: int):
    while b >= 2:
        a, b = a + 1, b - 1
    if a >= 4:
        return None
    return (a, b)


MONOMIAL_OF_BASIS = {
    "one": (0, 0),
    "H": (1, 0),
    "h": (0, 1),
    "H2": (2, 0),
    "Hh": (1, 1),
    "H3": (3, 0),
    "H2h": (2, 1),
    "H3h": (3, 1),
}
BASIS_OF_MONOMIAL = {v: k for k, v in MONOMIAL_OF_BASIS.items()}


def test_bundle_ambient_matches_monomial_oracle():
    amb = BL.ambient
    for left, (a1, b1) in MONOMIAL_OF_BASIS.items():
        for right, (a2, b2) in MONOMIAL_OF_BASIS.items():
            got = amb.named(left) * amb.named(right)
            reduced = _reduce(a1 + a2, b1 + b2)
            if reduced is None:
                assert got.is_zero(), f"{left}*{right} should vanish"
            else:
                want = amb.named(BASIS_OF_MONOMIAL[reduced])
                assert got == want, f"{left}*{right}"


def test_bundle_ambient_integration_oracle():
    amb = BL.ambient
    # the point class is A^3 s; A^4 and lower-degree monomials integrate to 0
    assert (amb.named("H3") * amb.named("h")).integrate() == 1
    assert (amb.named("H2") * amb.named("Hh")).integrate() == 1  # H^2 h^2 = H^3 h
    assert (amb.named("H2") * amb.named("H2")).integrate() == 0  # H^4 = 0
    assert amb.named("H3h").integrate() == 1
    assert amb.named("H3").integrate() == 0


def test_k3_divisor_square():
    div = BL.divisor
    assert div.named("h") * div.named("h") == div.named("p").scale(4)


# ---------------------------------------------------------------------------
# restriction, integration, pushforward


def test_restriction_images():
    r = P2.restriction
    assert r(P2.ambient.named("H")) == P2.divisor.named("p").scale(3)
    r3 = P3.restriction
    assert r3(P3.ambient.named("H")) == P3.divisor.named("h")
    assert r3(P3.ambient.named("H2")) == P3.divisor.named("p").scale(4)
    rb = BL.restriction
    # h·(h − H) = 0: h restricts to 0 on the divisor, H to its hyperplane class
    H, h = BL.ambient.named("H"), BL.ambient.named("h")
    assert rb(H) == BL.divisor.named("h") and rb(h).is_zero()
    assert rb(BL.ambient.named("H2")) == BL.divisor.named("p").scale(4)
    assert rb(BL.ambient.named("Hh")).is_zero()
    assert (rb(H) * rb(H)).integrate() == 4
    # the divisor's unit pushes forward to [X]·[E] = (4H + h)(h − H)
    assert pairing_pushforward(rb, BL.divisor.unit()) == (H.scale(4) + h) * (h - H)


def test_pushforward_of_unit_is_divisor_class():
    """ι_*(1_D) must equal the class cut out by the divisor."""
    for geom in (P2, P3):
        push = pairing_pushforward(geom.restriction, geom.divisor.unit())
        assert push == geom.divisor_class


def test_pushforward_projection_formula_samples():
    # ∫_X ι_*(v) ∪ e == ∫_D v ∪ r(e) for a non-unit sample too
    v = P3.divisor.named("h")
    push = pairing_pushforward(P3.restriction, v)
    for name in P3.ambient.basis:
        e = P3.ambient.named(name)
        lhs = (push * e).integrate()
        rhs = (v * P3.restriction(e)).integrate()
        assert lhs == rhs


def test_pairing_matrix_nondegenerate_for_p2():
    m = pairing_matrix(P2.ambient)
    # antidiagonal pairing for the projective plane basis (one, H, H2)
    assert m == [
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0)],
    ]


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
def test_pairing_matrix_integrates_the_dense_table(geom):
    for alg in (geom.ambient, geom.divisor):
        n, table = alg.dim, dense_table(alg)
        want = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want[i][j] += table[i][j][k] * alg.integration[k]
        assert pairing_matrix(alg) == want


# ---------------------------------------------------------------------------
# nilpotency, the dual basis


def test_nilpotency_index():
    assert nilpotency_index(P2.ambient.named("H")) == 3
    # h climbs the bundle relation one rung per power: h^4 = H^3 h != 0
    assert nilpotency_index(BL.ambient.named("h")) == 5
    assert nilpotency_index(BL.ambient.named("H")) == 4
    with pytest.raises(AlgebraError):
        nilpotency_index(P2.ambient.unit())


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
def test_dual_basis_pairs_to_the_identity(geom):
    for alg in (geom.ambient, geom.divisor):
        assert len(alg.duals) == alg.dim
        for i, row in enumerate(alg.duals):
            assert is_canonical_row(row, alg.dim)
            dual = alg.element(dense_row(row, alg.dim))
            for j in range(alg.dim):
                pairing = _integral(alg, dense_product(dual, alg.basis_element(j)))
                assert pairing == (i == j), (alg.name, i, j)


def test_a_degenerate_pairing_has_no_dual_basis():
    # H·H = 0 on (one, H, H2) with ∫H2 = 1: H pairs to 0 with every class
    alg = GradedAlgebra.from_products("flat", ("one", "H", "H2"), (0, 1, 2), {},
                                      unit="one", point="H2")
    assert check_algebra(alg) == []
    for _ in range(2):  # refused on every read, not cached as solved
        with pytest.raises(AlgebraError, match="flat: the pairing .* is degenerate: in its "
                           "matrix the row of H is a combination of the rows before it"):
            alg.duals


def test_from_products_rejects_unit_rows():
    with pytest.raises(AlgebraError):
        GradedAlgebra.from_products(
            "bad", ("one", "x"), (0, 1), {("one", "x"): {"x": 1}}, unit="one",
            integration={"x": 1},
        )


_listed = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def product_listings(draw):
    """Keyword arguments of `GradedAlgebra.from_products`: pairs of non-unit classes
    listed in one or both orders, some more than once, coefficients of every
    accepted type including zeros, and an integration given or left to the point."""
    n = draw(st.integers(2, 5))
    basis = tuple(f"b{i}" for i in range(n))
    unit = draw(st.sampled_from(basis))
    degrees = [0 if b == unit else draw(st.integers(1, 3)) for b in basis]
    others = [b for b in basis if b != unit]
    image = st.dictionaries(st.sampled_from(basis), _listed, max_size=3)
    listing = draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(others), image),
                            max_size=8))
    products = {}
    for a, b, img in listing:
        products[(a, b)] = img
    integration = draw(st.none() | st.dictionaries(st.sampled_from(basis), _listed, max_size=3))
    point = draw(st.sampled_from(basis) if integration is None
                 else st.none() | st.sampled_from(basis))
    return dict(name="drawn", basis=basis, degrees=degrees, products=products, unit=unit,
                point=point, integration=integration)


@given(kwargs=product_listings())
@example(kwargs=dict(name="drawn", basis=("one", "x", "p"), degrees=[0, 1, 2],
                     products={("x", "p"): {"p": 2}, ("p", "x"): {"p": "1/2", "x": 0}},
                     unit="one", point="p", integration=None))
@settings(max_examples=150, deadline=None)
def test_from_products_matches_the_listed_dense_table(kwargs):
    # the example lists x·p in both orders: the later listing holds, and its zero drops
    basis, unit = kwargs["basis"], kwargs["unit"]
    n, index = len(basis), {b: i for i, b in enumerate(basis)}
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[index[unit]][i][i] = table[i][index[unit]][i] = Fraction(1)
    for (a, b), img in kwargs["products"].items():
        vec = [Fraction(0)] * n
        for target, c in img.items():
            vec[index[target]] = Fraction(c)
        table[index[a]][index[b]] = table[index[b]][index[a]] = vec
    integration = [Fraction(0)] * n
    if kwargs["integration"] is None:
        integration[index[kwargs["point"]]] = Fraction(1)
    else:
        for target, c in kwargs["integration"].items():
            integration[index[target]] = Fraction(c)
    alg = GradedAlgebra.from_products(**kwargs)
    assert alg.constants == _sparse_rows(table)
    assert all(is_canonical_row(c, n) for row in alg.constants for c in row)
    assert alg.integration == tuple(integration)
    assert (alg.name, alg.basis, alg.degrees, alg.unit_index) == \
        ("drawn", basis, tuple(kwargs["degrees"]), index[unit])


_VALID = dict(name="r", basis=("one", "x", "p"), degrees=(0, 1, 2),
              products={("x", "x"): {"p": 1}}, unit="one", point="p")


@pytest.mark.parametrize("change, error, message", [
    (dict(degrees=(0, 1)), AlgebraError, "r: basis/degrees length mismatch"),
    (dict(basis=("one", "x", "x")), AlgebraError, "r: duplicate basis names"),
    (dict(unit="u"), AlgebraError, "r: unknown unit 'u'"),
    (dict(unit="x"), AlgebraError, "r: unit must have degree 0"),
    (dict(point="q", products={("x", "y"): {}}), AlgebraError, "r: unknown point class 'q'"),
    (dict(products={("x", "y"): {"p": 1}}), AlgebraError, "r: product names unknown: x*y"),
    (dict(products={("x", "one"): {"x": 1}}), AlgebraError,
     "r: unit products are implied, do not list x*one"),
    (dict(products={("x", "x"): {"q": 1}}), AlgebraError, "r: unknown target q in x*x"),
    (dict(products={("x", "x"): {"p": 1.5}}), TypeError, "not an exact rational: 1.5"),
    (dict(integration={"q": 1}, products={}), AlgebraError, "r: unknown integration class 'q'"),
    (dict(integration={"q": 1}, products={("x", "x"): {"q": 1}}), AlgebraError,
     "r: unknown target q in x*x"),
    (dict(point=None), AlgebraError, "r: need a point class or an integration functional"),
])
def test_from_products_refusals_are_word_for_word(change, error, message):
    with pytest.raises(error) as raised:
        GradedAlgebra.from_products(**{**_VALID, **change})
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# element arithmetic invariants on random coefficient vectors


rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=6)),
)
coeffs = st.lists(rationals, min_size=8, max_size=8).map(tuple)


@given(a=coeffs, b=coeffs, c=coeffs, s=rationals)
@example(a=(Fraction(0),) * 8, b=(Fraction(0),) * 8, c=(Fraction(0),) * 8, s=Fraction(0))
@example(a=(Fraction(1, 2), Fraction(-1, 3)) + (Fraction(0),) * 6,
         b=(Fraction(1, 2), Fraction(2, 3)) + (Fraction(0),) * 6,
         c=(Fraction(1, 6),) * 8, s=Fraction(-4, 3))
@settings(max_examples=60, deadline=None)
def test_element_ring_axioms(a, b, c, s):
    # the second example cancels 1/2 − 1/2 and reduces −1/3 + 2/3 and 3/2·(−4/3)
    amb = BL.ambient
    x, y, z = amb.element(a), amb.element(b), amb.element(c)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - x).is_zero()
    # each operation against dense Fraction arithmetic on the drawn coordinates
    cases = [
        (x, a),
        (x + y, [p + q for p, q in zip(a, b)]),
        (x - y, [p - q for p, q in zip(a, b)]),
        (-x, [-p for p in a]),
        (x.scale(s), [s * p for p in a]),
    ]
    for got, want in cases:
        assert got.coeffs == tuple(want)
        assert is_canonical_row(got.support, amb.dim), got.support
        assert got.is_zero() == all(w == 0 for w in want)
        again = amb.element(got.coeffs)
        assert got == again and hash(got) == hash(again)


# ---------------------------------------------------------------------------
# the product kernel, restriction and pushforward against literal sums

ALGEBRAS = [P2.ambient, P2.divisor, P3.ambient, P3.divisor, BL.ambient, BL.divisor,
            normal_bundle_algebra(BL)]

sparse_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=7)),
)


def elements(alg):
    return st.lists(sparse_rationals, min_size=alg.dim, max_size=alg.dim).map(alg.element)


def _integral(alg, coeffs):
    return sum((c * w for c, w in zip(coeffs, alg.integration)), Fraction(0))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_product_kernel_matches_the_dense_table(alg, data):
    a, b = data.draw(elements(alg)), data.draw(elements(alg))
    prod = a * b
    assert prod.coeffs == dense_product(a, b)
    assert all(type(c) is Fraction for c in prod.coeffs)
    pairs = data.draw(st.lists(st.tuples(elements(alg), elements(alg)), max_size=4))
    expect = [Fraction(0)] * alg.dim
    for x, y in pairs:
        expect = [e + c for e, c in zip(expect, dense_product(x, y))]
    assert sum_of_products(alg, pairs).coeffs == tuple(expect)


def _literal_rows_sum(terms, dim):
    """Σ (n/d)·row as a dense list of Fractions, one Fraction sum per triple."""
    out = [Fraction(0)] * dim
    for row, rn, rd in terms:
        for k, n, d in row:
            out[k] += Fraction(n, d) * Fraction(rn, rd)
    return out


@st.composite
def weighted_rows(draw):
    """(dim, terms): sparse rows of distinct rising indices with nonzero coordinates
    over denominators up to 12, weighted by n/d; optionally each term is followed
    by its negation, so the whole sum cancels."""
    dim = draw(st.integers(min_value=1, max_value=6))
    coordinate = st.tuples(st.integers(min_value=-30, max_value=30).filter(bool),
                           st.integers(min_value=1, max_value=12))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        picked = draw(st.dictionaries(st.integers(min_value=0, max_value=dim - 1), coordinate))
        row = tuple((k, n, d) for k, (n, d) in sorted(picked.items()))
        weight = (draw(st.integers(min_value=-20, max_value=20)),
                  draw(st.integers(min_value=-9, max_value=9).filter(bool)))
        terms.append((row, *weight))
    if draw(st.booleans()):
        terms += [(row, -n, d) for row, n, d in terms]
    return dim, terms


@given(drawn=weighted_rows())
@example(drawn=(2, [(((0, 1, 2), (1, 1, 6)), 1, 1), (((0, 1, 3), (1, 1, 3)), 1, 1)]))
@example(drawn=(1, [(((0, 3, 4),), 2, 3), (((0, 1, 2),), -1, 1)]))
@example(drawn=(4, []))
@settings(max_examples=200, deadline=None)
def test_rows_is_the_literal_fraction_sum(drawn):
    # the examples join 1/2 + 1/3 over lcm 6 and reduce 1/6 + 1/3 = 3/6, and cancel
    # 3/4·2/3 − 1/2 to nothing
    dim, terms = drawn
    got = _rows(terms, dim)
    expect = _literal_rows_sum(terms, dim)
    assert got == tuple((k, c.numerator, c.denominator) for k, c in enumerate(expect) if c)
    for k, n, d in got:
        assert type(n) is int and type(d) is int and n and d > 0 and gcd(n, d) == 1


def test_product_kernel_rejects_mixed_algebras():
    with pytest.raises(AlgebraError):
        sum_of_products(P2.ambient, [(P2.ambient.unit(), P2.divisor.unit())])
    with pytest.raises(AlgebraError):
        P2.ambient.unit() * P3.ambient.unit()


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_restriction_and_pushforward_match_their_definitions(geom, data):
    rm = geom.restriction
    x = data.draw(elements(rm.source))
    images = [rm.target.element(dense_row(row, rm.target.dim)) for row in rm.rows]
    expect = rm.target.zero()
    for c, img in zip(x.coeffs, images):
        expect = expect + img.scale(c)
    assert rm(x) == expect
    # ∫_src P(v) ∪ e_j == ∫_tgt v ∪ r(e_j) for every basis class e_j
    v = data.draw(elements(rm.target))
    push = pairing_pushforward(rm, v)
    assert push.algebra is rm.source
    for j, img in enumerate(images):
        ej = rm.source.basis_element(j)
        assert (_integral(rm.source, dense_product(push, ej))
                == _integral(rm.target, dense_product(v, img)))


@pytest.mark.parametrize("geom", [P2, P3, BL], ids=lambda g: g.name)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_pushforward_rows_weighted_by_coordinates_give_the_pushforward(geom, data):
    rm = geom.restriction
    v = data.draw(elements(rm.target))
    expect = rm.source.zero()
    for c, row in zip(v.coeffs, rm.pushforward_rows):
        image = {i: Fraction(n, d) for i, n, d in row}
        expect = expect + rm.source.element(
            [image.get(i, 0) for i in range(rm.source.dim)]).scale(c)
    assert expect == pairing_pushforward(rm, v)
