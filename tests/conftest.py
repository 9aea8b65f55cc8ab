"""Shared fixtures and oracles.

A small synthetic pair with truly negative contact orders: the divisor class
is -2H, so every effective curve meets the boundary negatively.  One
curve-degree of invariant data is enough to light up the divisor-exponent
machinery (both extraction routes must report 2H·y) while keeping everything
small enough to compute in milliseconds.

The per-pair state product: the contact-order rule applied to one term
pair at a time, with dense products, merged pair by pair.  The package
groups the pairs by output key and rule and makes one kernel call per group.

The literal assembly: every (β, contact, z-Laurent) piece of a relative
I-function times every term of exp(Σ p_i ℓ_i / z), each class product by the
dense triple loop and each restriction by the dense image matrix.  The
package builds sparse prefactor rows once per call and combines them
instead.

The series-product oracle: a literal double loop of Fraction products over
two Novikov series, cut at the truncation weight.  The package accumulates
integers over lcm-joined denominators instead.  The per-class θ_β oracle
sums e^{dG} from its literal powers; the package reads every class off one
power walk (m of both signs) or one exp per value of m·β.

The geometric state reciprocal: Σ (−n)^k with each power a `state_product`.
The package solves the right inverse level by level in weight instead.

The literal-W^n oracle: the constant terms of the powers of a collapsed
potential, multiplied out as whole x-Laurent series.  The package reads the
classical period off the mirror exponent as θ_β = (m·β)·g_β instead, so the
two routes share no code past the collapse.

The normal-bundle route to the divisor mirror map τ_D: the relative
I-function of the compactified normal bundle P(N ⊕ O) of D with its zero
section, one link at a time over D's ring extended by h0, read off at z ≥ 0
in the fiber direction.  The package reads τ_D off the d_point rows with the
factor (−1)^{a+1}(a+1)! instead, so the two routes share only the pairing
pushforward, which test_algebra checks against its defining property.

The brute-force structure checks: every associativity triple of a ring and
every basis pair of a restriction map, each product by the dense table.  The
package sweeps only the triples that its O(n²) checks leave open, and
compares the sides of multiplicativity as sparse row combinations.

The dense tables: a test that draws a table hands the oracles that table.
For any other ring, `dense_table` reads one off its sparse structure
constants by a literal loop; the package keeps only the sparse constants.
"""

import functools
import math
from fractions import Fraction
from itertools import product as iproduct

import pytest

from mirrorpair import (
    GradedAlgebra,
    NovikovSeries,
    PairGeometry,
    StateSeries,
    TruncationError,
    XLaurentSeries,
    ZLaurentElement,
    load_geometry,
    nilpotent_reciprocal,
    pairing_pushforward,
)

SYNTHETIC_NEGATIVE = """
[algebra.ambient]
name = syn_amb
basis = one H H2
degrees = 0 1 2
unit = one
point = H2
products =
    H H H2 1

[algebra.divisor]
name = syn_div
basis = one pt
degrees = 0 1
unit = one
point = pt

[restriction]
map =
    one one 1
    H pt -2

[pair]
name = synthetic_negative
divisor_class = -2*H
picard = H
novikov = y
j_source = invariant_table
tau_d_source = table
invariants =
    x_point 1 0 pt 1
    d_point 1 0 pt 1

[truncation]
order = 4
"""

# Same pair, but insisting the divisor exponent vanishes.  The relative
# I-function then has to push a point-supported coefficient through the
# divisor class, which cannot work; used to exercise the cancellation guard.
SYNTHETIC_NEGATIVE_ZERO_TAU = SYNTHETIC_NEGATIVE.replace(
    "tau_d_source = table", "tau_d_source = zero"
).replace("    d_point 1 0 pt 1\n", "")


@pytest.fixture(scope="session")
def synthetic_negative():
    return load_geometry(SYNTHETIC_NEGATIVE)


@pytest.fixture(scope="session")
def p2():
    from mirrorpair import builtin_geometry

    return builtin_geometry("p2_cubic")


@pytest.fixture(scope="session")
def p3():
    from mirrorpair import builtin_geometry

    return builtin_geometry("p3_quartic")


@pytest.fixture(scope="session")
def blp3():
    from mirrorpair import builtin_geometry

    return builtin_geometry("blp3_k3")


def geometry_with(geom, **changes):
    """A PairGeometry like geom with the named fields changed, built past the loader's checks."""
    fields = {k: getattr(geom, k) for k in PairGeometry.__slots__}
    fields.update(changes)  # a name PairGeometry does not take is a TypeError
    return PairGeometry(**fields)


def is_canonical_row(row, dim) -> bool:
    """Whether a sparse row is in lowest terms, as an `Element`'s support must be:
    rising distinct indices below ``dim``, nonzero int numerators, positive int
    denominators coprime to them."""
    indices = [k for k, _, _ in row]
    return indices == sorted(set(indices)) and all(
        0 <= k < dim and type(n) is int and type(d) is int and n and d > 0
        and math.gcd(n, d) == 1
        for k, n, d in row
    )


def dense_row(row, dim):
    """The dense Fractions of a sparse row of (index, numerator, denominator) triples."""
    out = [Fraction(0)] * dim
    for k, n, d in row:
        out[k] = Fraction(n, d)
    return tuple(out)


@functools.cache
def dense_table(alg):
    """t[i][j][k], the coefficient of e_k in e_i·e_j, read off alg's sparse
    structure constants by a literal loop."""
    return tuple(tuple(dense_row(c, alg.dim) for c in row) for row in alg.constants)


def dense_product(a, b, table=None):
    """The coefficients of a·b by a literal triple loop over the dense table,
    ``dense_table`` of their algebra unless one is given.

    Zero coordinates of a and b contribute nothing and are passed over.
    """
    alg = a.algebra
    table = dense_table(alg) if table is None else table
    n = alg.dim
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if not (a.coeffs[i] and b.coeffs[j]):
                continue
            for k in range(n):
                out[k] += a.coeffs[i] * b.coeffs[j] * table[i][j][k]
    return tuple(out)


def assemble_literal(geom, pieces):
    """The terms {(β, contact, z, α): class} of the relative series built from the pieces.

    A piece (β, contact, {z: class}) contributes z·L·Π_i p_i^{α_i}/(α_i! z^{α_i}) over
    the Picard classes p_i and every α with |α| ≤ the top degree, restricted
    to the divisor when contact ≠ 0.  Zeros are dropped, and a nonzero
    ambient product above z¹ raises ValueError.
    """
    amb, div = geom.ambient, geom.divisor
    picard = list(geom.picard)
    image = [dense_row(row, div.dim) for row in geom.restriction.rows]
    prefactor = []
    for alpha in iproduct(range(amb.top_degree + 1), repeat=len(picard)):
        if sum(alpha) > amb.top_degree:
            continue
        cls = amb.unit().coeffs
        for p, a in zip(picard, alpha):
            for _ in range(a):
                cls = dense_product(amb.element(cls), p)
        scale = Fraction(1, math.prod(math.factorial(a) for a in alpha))
        prefactor.append((alpha, 1 - sum(alpha), [c * scale for c in cls]))
    out = {}
    for beta, contact, slices in pieces:
        for z, el in slices.items():
            for alpha, shift, cls in prefactor:
                zf = z + shift
                value = dense_product(el, amb.element(cls))
                if not any(value):
                    continue
                if zf > 1:
                    raise ValueError(f"literal assembly: nonzero term at z^{zf}")
                if contact != 0:
                    value = tuple(
                        sum(value[i] * image[i][k] for i in range(amb.dim)) for k in range(div.dim)
                    )
                if any(value):
                    out[(beta, contact, zf, alpha)] = (amb if contact == 0 else div).element(value)
    return out


def contact_product(geom, c1, e1, c2, e2):
    """(contact, value) of [e1]_c1 · [e2]_c2 by the contact-order rule."""
    c = c1 + c2
    r = geom.restriction

    def times(x, y):
        return x.algebra.element(dense_product(x, y))

    if c1 == 0 and c2 == 0:
        return 0, times(e1, e2)
    d1 = r(e1) if c1 == 0 else e1
    d2 = r(e2) if c2 == 0 else e2
    if (c1 >= 0 and c2 >= 0) or (c1 < 0 and c2 < 0) or c < 0:
        return c, times(d1, d2)
    if c == 0:
        return 0, pairing_pushforward(r, times(d1, d2))
    return c, times(times(d1, d2), r(geom.divisor_class))


def state_product(a, b):
    """a·b for StateSeries, one term pair at a time within the weight cut."""
    geom = a.geometry
    pol = geom.policy
    out = {}
    for (b1, c1, l1), e1 in a.terms.items():
        for (b2, c2, l2), e2 in b.terms.items():
            if pol.weight(b1) + pol.weight(b2) > pol.max_total:
                continue
            c, el = contact_product(geom, c1, e1, c2, e2)
            key = (tuple(x + y for x, y in zip(b1, b2)), c, tuple(x + y for x, y in zip(l1, l2)))
            out[key] = out[key] + el if key in out else el
    return StateSeries(geom, out)


def geometric_reciprocal(f):
    """1/f = (1/c)·Σ_k (−n)^k for f = c·([1]_0 + n), each power n^k = n^{k−1}·n by `state_product`.

    The sum stops at the first power that vanishes; powers that have not
    vanished after 64 steps raise ValueError.
    """
    geom = f.geometry
    unit = StateSeries.unit(geom)
    zero = (0,) * geom.nvars
    c = f.terms[(zero, 0, zero)].unit_component()
    n = f.scale(1 / c) - unit
    out = power = unit
    for k in range(1, 64):
        power = state_product(power, n)
        if not power.terms:
            return out.scale(1 / c)
        out = out + power.scale((-1) ** k)
    raise ValueError("geometric series of a state series did not end")


def series_product(f, g):
    """f·g for NovikovSeries, one Fraction product per term pair within the weight cut."""
    pol = f.policy
    out = {}
    for ka, va in f.terms.items():
        for kb, vb in g.terms.items():
            if pol.weight(ka) + pol.weight(kb) > pol.max_total:
                continue
            k = tuple(a + b for a, b in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return NovikovSeries(pol, out)


def class_thetas(G, m_vector, t_order):
    """θ_β = [q^β] e^{(m·β)·G} on each class of G's truncation with 1 ≤ m·β ≤ t_order.

    e^{dG} = Σ_k d^k·G^k/k!, each power G^k = G^{k−1}·G by `series_product`;
    G has no constant term, so G^k vanishes past the truncation order.  Zeros
    are dropped.
    """
    pol = G.policy
    powers = [NovikovSeries.one(pol)]
    for _ in range(pol.max_total):
        powers.append(series_product(powers[-1], G))
    out = {}
    for beta in iproduct(*(range(pol.max_total // w + 1) for w in pol.weights)):
        d = sum(m * b for m, b in zip(m_vector, beta))
        if pol.weight(beta) > pol.max_total or not 1 <= d <= t_order:
            continue
        theta = sum(
            Fraction(d**k, math.factorial(k)) * p.terms.get(beta, 0) for k, p in enumerate(powers)
        )
        if theta:
            out[beta] = theta
    return out


def power_constant_terms(w, top):
    """[W^n]_{x^0} for n = 0..top (list index n), by multiplying out W^n.

    By (x,t)-homogeneity of a potential the constant term of W^n sits at t^n
    alone; support at any other t-degree means W is malformed and raises.
    """
    out = [Fraction(1)]
    running = XLaurentSeries.monomial(w.t_order, 0, 0, 1)
    for n in range(1, top + 1):
        running = running * w
        x0 = running.terms.get(0, {})
        stray = sorted(t for t, c in x0.items() if t != n)
        if stray:
            raise ValueError(f"constant term of W^{n} has support at t-degrees {stray} != {n}")
        out.append(x0.get(n, Fraction(0)))
    return out


def theta_coefficient(w, n):
    """[W^n]_{x^0}, read at t^n."""
    if w.t_order < n:
        raise TruncationError(f"potential truncated at t^{w.t_order}; rerun with order >= {n}")
    return power_constant_terms(w, n)[n]


def normal_bundle_algebra(geom):
    """D's ring extended by h0, with h0² = −c1(N)·h0, c1(N) = r(D), and ∫ b·h0 = ∫_D b.

    The basis is D's basis b followed by b.h0 (degree + 1); each product of
    basis classes is a `dense_product` in D's ring, written as a sparse row
    by a literal loop.
    """
    div = geom.divisor
    n = div.dim
    minus_c1n = -geom.restriction(geom.divisor_class)
    constants = [[()] * (2 * n) for _ in range(2 * n)]
    for i, j in iproduct(range(n), repeat=2):
        plain = div.element(dense_product(div.basis_element(i), div.basis_element(j)))
        # e_i·e_j, e_i·(e_j h0) = (e_i e_j) h0 and (e_i h0)(e_j h0) = −(e_i e_j c1N) h0
        for a, b, shift, vec in ((i, j, 0, plain.coeffs), (i, n + j, n, plain.coeffs),
                                 (n + i, n + j, n, dense_product(plain, minus_c1n))):
            constants[a][b] = constants[b][a] = tuple(
                (shift + k, c.numerator, c.denominator) for k, c in enumerate(vec) if c)
    return GradedAlgebra(
        f"{div.name}.normal_bundle", (*div.basis, *(f"{b}.h0" for b in div.basis)),
        (*div.degrees, *(d + 1 for d in div.degrees)), tuple(map(tuple, constants)),
        div.unit_index, (Fraction(0),) * n + div.integration,
    )


def normal_bundle_divisor_map(geom):
    """τ_D by the normal-bundle route: {(β, z): ambient class} over z ≥ 0.

    Per class β (β = 0 with base z·1, and each class of the d_point rows
    within the truncation with base Σ v·z^{−a−1}) and fiber offset j ≥ 0 with
    k = D·β + j: the base times Π_{a≤0}(h0 + az)/Π_{a≤k}(h0 + az), one link
    at a time, times 1/(h0 − c1(N) + jz) when j > 0.  Of exp(h0·log y₀/z)
    only the unit term is log-free, so no prefactor is expanded.  Every z ≥ 0
    coefficient but the seed z·1 must lie in the fiber direction v·h0
    (ValueError otherwise); v is recorded as its pairing pushforward.
    """
    alg = normal_bundle_algebra(geom)
    div, pol = geom.divisor, geom.policy
    n = div.dim
    h0 = alg.basis_element(n + div.unit_index)
    pole = h0 - alg.element(geom.restriction(geom.divisor_class).coeffs + (0,) * n)
    zero = (0,) * pol.nvars
    bases = {zero: {1: Fraction(1)}}
    for beta, a, v in geom.table.rows_for("d_point") if geom.table is not None else ():
        if any(beta) and pol.admits(tuple(beta)):
            row = bases.setdefault(tuple(beta), {})
            row[-a - 1] = row.get(-a - 1, 0) + v
    out = {}
    for beta, row in bases.items():
        for j in range(pol.max_total - pol.weight(beta) + 1):
            k = geom.contact_weight(beta) + j
            term = ZLaurentElement(alg, {z: alg.unit().scale(v) for z, v in row.items()})
            for a in range(k + 1, 1):  # k < 0: Π_{k<a≤0}(h0 + az)
                term = term * ZLaurentElement.linear(h0, a)
            for a in range(1, k + 1):  # k > 0: Π_{0<a≤k} 1/(h0 + az)
                term = term * nilpotent_reciprocal(h0, a)
            if j:
                term = term * nilpotent_reciprocal(pole, j)
            for z, el in term.terms.items():
                if z < 0:
                    continue
                plain = list(el.coeffs[:n])
                if beta == zero and j == 0 and z == 1:
                    plain[div.unit_index] -= 1  # the seed z·1
                if any(plain):
                    raise ValueError(f"normal-bundle route: base-direction z^{z} term at {beta}")
                cls = pairing_pushforward(geom.restriction, div.element(el.coeffs[n:]))
                out[(beta, z)] = out[(beta, z)] + cls if (beta, z) in out else cls
    return {key: cls for key, cls in out.items() if not cls.is_zero()}


def check_algebra_brute_force(alg, table):
    """check_algebra's problems over every pair and every triple, from the dense
    table ``table`` that alg was built from.

    The order is the package's: pair problems (commutativity, degree, top
    degree), then every failing triple (i, j, k) in lexicographic order, then
    the unit.
    """
    n, degrees = alg.dim, alg.degrees
    top = max(degrees)
    problems = []
    for i in range(n):
        for j in range(n):
            if table[i][j] != table[j][i]:
                problems.append(f"{alg.name}: e{i}*e{j} != e{j}*e{i}")
            target = degrees[i] + degrees[j]
            for k in range(n):
                if table[i][j][k] and degrees[k] != target:
                    problems.append(
                        f"{alg.name}: degree of e{i}*e{j} component {alg.basis[k]} "
                        f"is {degrees[k]}, expected {target}"
                    )
            if target > top and any(table[i][j]):
                problems.append(f"{alg.name}: e{i}*e{j} should vanish above top degree")

    def combine(x, rows):  # Σ_l x_l·rows[l], zero x_l passed over
        out = [Fraction(0)] * n
        for c, row in zip(x, rows):
            if c:
                out = [o + c * t for o, t in zip(out, row)]
        return out

    for i in range(n):
        for j in range(n):
            for k in range(n):
                # (e_i·e_j)·e_k = Σ_l c_ij^l e_l·e_k and e_i·(e_j·e_k) = Σ_l c_jk^l e_i·e_l
                left = combine(table[i][j], [table[l][k] for l in range(n)])
                right = combine(table[j][k], table[i])
                if left != right:
                    problems.append(f"{alg.name}: associativity fails at ({i},{j},{k})")
    u = alg.unit_index
    for i in range(n):
        if any(table[u][i][k] != (k == i) for k in range(n)):
            problems.append(f"{alg.name}: unit fails on e{i}")
    return problems


def check_restriction_brute_force(rm, source_table, target_table):
    """check_restriction's problems, r(e_i·e_j) against r(e_i)·r(e_j) by dense
    products over the dense tables the two rings were built from."""
    src, tgt = rm.source, rm.target

    def restrict(coeffs):
        out = [Fraction(0)] * tgt.dim
        for c, row in zip(coeffs, rm.rows):
            if c:
                out = [o + c * x for o, x in zip(out, dense_row(row, tgt.dim))]
        return tgt.element(out)

    basis = [src.basis_element(i) for i in range(src.dim)]
    images = [restrict(e.coeffs) for e in basis]
    problems = []
    if restrict(src.unit().coeffs) != tgt.unit():
        problems.append(f"{src.name}->{tgt.name}: unit not preserved")
    for i, (ei, img) in enumerate(zip(basis, images)):
        for k, c in enumerate(img.coeffs):
            if c and tgt.degrees[k] != src.degrees[i]:
                problems.append(
                    f"{src.name}->{tgt.name}: image of {src.basis[i]} "
                    f"not homogeneous of degree {src.degrees[i]}"
                )
        for j, (ej, imj) in enumerate(zip(basis, images)):
            if (restrict(dense_product(ei, ej, source_table)).coeffs
                    != dense_product(img, imj, target_table)):
                problems.append(
                    f"{src.name}->{tgt.name}: not multiplicative on "
                    f"{src.basis[i]}*{src.basis[j]}"
                )
    return problems
