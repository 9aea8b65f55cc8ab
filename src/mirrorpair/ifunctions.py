"""Relative I-functions, contact-order state spaces, and mirror maps.

The central objects are series whose coefficients live in a *relative state
space*: pairs [γ]_n of a cohomology class and an integer contact order.  A
class at contact 0 is ambient-valued; at any other contact it is a class on
the divisor.  Products follow the convention (reported by the CLI metadata):

* both contacts 0: ambient cup product;
* both contacts ≥ 0, not both 0: restrict ambient factors, multiply on the
  divisor, add contacts;
* exactly one contact negative and the sum negative: restricted product;
* exactly one negative, sum zero: pairing-transpose pushforward of the
  restricted product (ambient-valued);
* exactly one negative, sum positive: restricted product cupped with the
  restricted divisor class;
* both negative: never produced by the pipeline; extended as the restricted
  product.

Relative I-functions are stored per curve class β as exact z-Laurent data
(every template factor is a finite Laurent polynomial), with the exponential
prefactor exp(Σ p_i log y_i / z) expanded into formal log-monomial slots.
Each class's Laurent data is stored whole: the weighted Novikov order is the
only truncation, and nothing may sit above z¹.

The mirror change of variables q = y·e^{m·g} is inverted in closed form:
`composed_exponent` reads G(q) = g(y(q)) off Good's multivariate Lagrange
inversion formula rather than iterating the substitution.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable
from functools import cached_property
from fractions import Fraction
from itertools import islice, product as iproduct, takewhile
from operator import add, mul, sub

from .algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    _rows,
    nilpotency_index,
    pairing_pushforward,
    rat,
)
from .geometry import ConfigError, MissingDataError, PairGeometry
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationPolicy,
    TruncationError,
    _mul,
)


class CancellationError(AlgebraError):
    """A negative-contact coefficient failed to factor through the divisor class."""


class MalformedMirrorMapError(ValueError):
    """A mirror map's negative-contact part is not unit-classed / log-free."""


# ---------------------------------------------------------------------------
# hypergeometric building blocks


def _chain_rows(top: int | None, n: int, e: int) -> list[tuple[list[int], int]]:
    """The rows of the chains P(u, m, e) = Π_{a=1}^{m} (u + a·z)^e for every m ≤ n.

    u is a class with last nonzero power ``top`` (`_top`) and e a nonzero
    integer exponent.  With x = u/z, P = (m!)^e·z^{me}·Π_a (1 + x/a)^e, so a
    chain is held as the scalar row of its coefficients c_j in
    P = Σ_j c_j·u^j·z^{me−j}, integer numerators over one denominator > 0,
    cut after u^top; for e > 0 on a class that is not nilpotent (top None)
    it is not cut and is the literal product.  Each row grows the one before
    by a link's binomial row (`_link_row`), through the truncated convolution
    `_mul`.
    """
    rows = [([1], 1)]
    for a in range(1, n + 1):
        nums, den = rows[-1]
        link, link_den = _link_row(a, e, top)
        cap = len(nums) + len(link) - 2
        out = _mul(nums, link, cap if top is None else min(cap, top))
        den *= link_den
        g = math.gcd(den, *out)
        rows.append(([x // g for x in out], den // g))
    return rows


def _top(u: Element, e: int) -> int | None:
    """u's last nonzero power, or None for e > 0 on a class that is not nilpotent."""
    try:
        return nilpotency_index(u) - 1
    except AlgebraError:
        if e < 0:
            raise
        return None


def _link_row(a: int, e: int, top: int | None) -> tuple[list[int], int]:
    """(u + a·z)^e = a^e·z^e·(1 + x/a)^e at x = u/z, for a ≠ 0, as the binomial row
    C(e, k)·a^{e−k} of u^k·z^{e−k}: integer numerators over one positive
    denominator, through k = top (None: uncut), and for e > 0 through k = e at most.
    """
    top = e if top is None or top > e > 0 else top
    shift = max(top - e, 0)  # a^{e−k} = a^{e−k+shift} / a^{shift}
    nums = [_binomial(e, k) * a ** (e - k + shift) for k in range(top + 1)]
    den = a ** shift
    return (nums, den) if den > 0 else ([-x for x in nums], -den)


def _binomial(e: int, k: int) -> int:
    """C(e, k) = e(e − 1)…(e − k + 1)/k! for any integer e and k ≥ 0."""
    return math.comb(e, k) if e >= 0 else (-1) ** k * math.comb(k - e - 1, k)


# ---------------------------------------------------------------------------
# state-space series


def _merge_add(terms: dict, key, value: Element) -> None:
    cur = terms.get(key)
    terms[key] = value if cur is None else cur + value
    if terms[key].is_zero():
        del terms[key]


class StateSeries:
    """z-free series with relative-state coefficients.

    Keys are (beta, contact, logpow); values are Elements of the ambient
    algebra when contact == 0 and of the divisor algebra otherwise.
    """

    __slots__ = ("geometry", "terms")

    def __init__(self, geometry: PairGeometry, terms: dict):
        self.geometry = geometry
        clean: dict = {}
        for (beta, contact, logpow), el in terms.items():
            beta = tuple(beta)
            logpow = tuple(logpow)
            if not geometry.policy.admits(beta):
                continue
            expected = geometry.ambient if contact == 0 else geometry.divisor
            if el.algebra is not expected:
                raise AlgebraError(
                    f"contact {contact} value must live in {expected.name}"
                )
            if not el.is_zero():
                clean[(beta, contact, logpow)] = el
        self.terms = clean

    @classmethod
    def _kernel_output(cls, geometry: PairGeometry, terms: dict) -> "StateSeries":
        """A product's result: admissible, nonzero and well homed by construction."""
        out = object.__new__(cls)
        out.geometry, out.terms = geometry, terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def unit(geometry: PairGeometry) -> "StateSeries":
        z = (0,) * geometry.nvars
        return StateSeries(geometry, {(z, 0, z): geometry.ambient.unit()})

    # -- basic ring ops ----------------------------------------------------

    def __add__(self, other: "StateSeries") -> "StateSeries":
        out = dict(self.terms)
        for k, v in other.terms.items():
            _merge_add(out, k, v)
        return StateSeries(self.geometry, out)

    def __sub__(self, other: "StateSeries") -> "StateSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "StateSeries":
        c = rat(c)
        return StateSeries(
            self.geometry, {k: v.scale(c) for k, v in self.terms.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSeries)
            and self.geometry is other.geometry
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("StateSeries is not hashable")

    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "StateSeries") -> "StateSeries":
        """The contact-order product rule (see module docstring), on `_StateProduct` rows."""
        geom = self.geometry
        if not self.terms or not other.terms:
            return StateSeries._kernel_output(geom, {})
        prod = _StateProduct(geom)
        return StateSeries._kernel_output(
            geom, prod.multiply(prod.rows(self.terms), prod.rows(other.terms))
        )

    def reciprocal(self) -> "StateSeries":
        """The right inverse r of f = c·([1]_0 − n), c ≠ 0, level by level in weight.

        (1 − n_0)⁻¹ for the β = 0 part n_0 is the nilpotent sum Σ n_0^k, and
        r_β = (1 − n_0)⁻¹·Σ_{γ≠0} n_γ·r_{β−γ} reads lighter levels only: one
        product's worth of term pairs, on one `_StateProduct`'s tables.  The
        product is commutative but not associative; for n_0 = 0 (every
        I-function) or of contact 0 this r is the unique right inverse, which
        is then the geometric series Σ n^k.
        """
        geom = self.geometry
        zero = (0,) * geom.nvars
        lead = self.terms.get((zero, 0, zero))
        c = lead.unit_component() if lead is not None else Fraction(0)
        if c == 0:
            raise ValueError("state reciprocal needs a nonzero unit leading term")
        unit = StateSeries.unit(geom)
        n = {k: e.scale(-1 / c) for k, e in self.terms.items()}
        n[(zero, 0, zero)] += geom.ambient.unit()
        n0 = StateSeries(geom, {k: e for k, e in n.items() if k[0] == zero})
        inverse0 = power = unit
        for _ in range(geom.policy.max_total + geom.ambient.top_degree + 3):
            power = power * n0
            if power.is_zero():
                break
            inverse0 = inverse0 + power
        else:
            raise PipelineInvariantError("state reciprocal did not terminate (series not nilpotent)")
        prod = _StateProduct(geom)
        steps = prod.rows({k: e for k, e in n.items() if k[0] != zero})
        levels = [prod.rows(inverse0.terms)]
        lead_rows = None if inverse0 == unit else levels[0]
        out = dict(inverse0.terms)
        for w in range(1, geom.policy.max_total + 1):
            acc: dict = {}
            for sector1, rows1 in steps.items():
                for row in takewhile(lambda t: t[0] <= w, rows1):
                    for sector2, rows2 in levels[w - row[0]].items():
                        prod.file(acc, sector1, [row], sector2, rows2, w)
            level = prod.finish(acc)
            if lead_rows is not None:
                level = prod.multiply(lead_rows, prod.rows(level))
            out.update(level)
            levels.append(prod.rows(level))
        r = StateSeries._kernel_output(geom, out)
        return r if c == 1 else r.scale(1 / c)

    # -- queries ---------------------------------------------------------

    def coefficient(self, beta, contact: int = 0, logpow=None) -> Element:
        beta = tuple(beta)
        if not self.geometry.policy.admits(beta):
            raise TruncationError(
                f"class {beta} beyond truncation order {self.geometry.policy.max_total}"
            )
        if logpow is None:
            logpow = (0,) * self.geometry.nvars
        alg = self.geometry.ambient if contact == 0 else self.geometry.divisor
        return self.terms.get((beta, contact, tuple(logpow)), alg.zero())

    def __repr__(self) -> str:
        bits = []
        for (b, c, l) in sorted(self.terms):
            bits.append(f"[{self.terms[(b, c, l)]!r}]_{c} q^{b} log^{l}")
        return " + ".join(bits) if bits else "0"


class _StateProduct:
    """The tables of the contact-order product on one geometry, and its kernel.

    Terms are taken once as rows, grouped by sector (contact, logpow) and
    sorted by weight: (weight, packed β, supports).  β is packed as the
    integer Σ β_i·B^i with B = order + 1, so the class of a product within
    the order is a sum of two integers.  The supports are the value's sparse
    (i, n, d) coordinates and those on the divisor, r(e)'s at contact 0.
    The contacts of two sectors fix the product rule, and each rule reads one
    table T[i][j] of sparse rows over basis pairs: the ambient structure
    constants (cup), the divisor's (restricted product), and the divisor's
    composed with the rule's linear last step, the pushforward of each
    divisor basis class (`RestrictionMap.pushforward_rows`) or the cup with
    r(D).  Every pair that lands on an output key reads rows of one algebra
    (the ambient one iff the contact is 0), so each key's Element is one `_rows`.
    Build one per product or reciprocal; it is not a cache.
    """

    def __init__(self, geom: PairGeometry) -> None:
        amb, div, r = geom.ambient, geom.divisor, geom.restriction
        self.geometry = geom
        self.base = geom.policy.max_total + 1
        rd = r(geom.divisor_class)
        cup_d = [(div.basis_element(k) * rd).support for k in range(div.dim)]

        def then(last, dim):
            return [[_rows(((last[k], n, d) for k, n, d in c), dim) for c in row]
                    for row in div.constants]

        self.cup, self.restricted = amb.constants, div.constants
        self.pushforward = then(r.pushforward_rows, amb.dim)
        self.divisor_class = then(cup_d, div.dim)

    def rows(self, terms: dict) -> dict:
        """{(contact, logpow): [(weight, packed β, (support, support on the divisor))]}
        by rising weight, for state terms {(β, contact, logpow): Element}."""
        geom = self.geometry
        weight, images, dim = geom.policy.weight, geom.restriction.rows, geom.divisor.dim
        powers = [self.base ** i for i in range(geom.nvars)]
        out: dict = {}
        for (beta, c, logpow), value in terms.items():
            supp = value.support
            on_div = supp if c else _rows(((images[i], n, d) for i, n, d in supp), dim)
            packed = sum(map(mul, beta, powers))
            out.setdefault((c, logpow), []).append((weight(beta), packed, (supp, on_div)))
        for rows in out.values():
            rows.sort(key=lambda t: t[0])
        return out

    def file(self, acc: dict, sector1, rows1: list, sector2, rows2: list, top: int) -> None:
        """File each pair of ``rows1`` × ``rows2`` of total weight ≤ ``top`` under its
        output key, with the table its product rule reads."""
        (c1, l1), (c2, l2) = sector1, sector2
        c = c1 + c2
        if c1 == 0 and c2 == 0:
            table, side = self.cup, 0
        elif (c1 < 0) == (c2 < 0) or c < 0:
            table, side = self.restricted, 1
        elif c == 0:
            table, side = self.pushforward, 1
        else:
            table, side = self.divisor_class, 1
        out = acc.setdefault((c, tuple(map(add, l1, l2))), {})
        for w1, p1, sup1 in rows1:
            room, a = top - w1, sup1[side]
            for w2, p2, sup2 in rows2:
                if w2 > room:
                    break
                parts = out.get(p1 + p2)
                if parts is None:
                    parts = out[p1 + p2] = []
                parts.append((table, a, sup2[side]))

    def finish(self, acc: dict) -> dict:
        """The state terms of the filed keys, one `_rows` each, zeros dropped."""
        geom = self.geometry
        algebras = (geom.ambient, geom.divisor)
        base, nvars = self.base, geom.nvars
        out = {}
        for (c, logpow), keys in acc.items():
            for packed, parts in keys.items():
                alg = algebras[c != 0]
                row = _rows((
                    (table[i][j], n1 * n2, e1 * e2)
                    for table, s1, s2 in parts
                    for i, n1, e1 in s1
                    for j, n2, e2 in s2
                ), alg.dim)
                if row:
                    beta = tuple(packed // base ** i % base for i in range(nvars))
                    out[(beta, c, logpow)] = Element(alg, row)
        return out

    def multiply(self, left: dict, right: dict) -> dict:
        """The product of two sector tables, cut at the truncation order."""
        top = self.geometry.policy.max_total
        acc: dict = {}
        for sector1, rows1 in left.items():
            for sector2, rows2 in right.items():
                self.file(acc, sector1, rows1, sector2, rows2, top)
        return self.finish(acc)



PRODUCT_RULE_TEXT = (
    "contact products: (0,0) ambient cup; both>=0 restrict-and-add; "
    "one negative: sum<0 restricted product, sum=0 pairing pushforward, "
    "sum>0 restricted product cup restricted divisor class"
)


# ---------------------------------------------------------------------------
# relative series (z-graded)


class RelativeSeries:
    """Contact-order-indexed z-Laurent series over a pair geometry.

    Keys are (beta, contact, zexp, logpow); values follow the StateSeries
    convention (ambient at contact 0, divisor otherwise).  Every z power of
    every stored class at or above ``lowest_z`` is exact; a key that is absent
    there is zero.  A series built with a floor (``lowest_z`` not None) holds
    nothing below it, and reading below it raises TruncationError.
    """

    __slots__ = ("geometry", "terms", "lowest_z")

    def __init__(self, geometry: PairGeometry, terms: dict, lowest_z: int | None = None):
        self.geometry = geometry
        self.lowest_z = lowest_z
        clean: dict = {}
        for (beta, contact, zexp, logpow), el in terms.items():
            if el.is_zero():
                continue
            if lowest_z is not None and zexp < lowest_z:
                raise PipelineInvariantError(
                    f"term at z^{zexp} in a series cut below z^{lowest_z}"
                )
            expected = geometry.ambient if contact == 0 else geometry.divisor
            if el.algebra is not expected:
                raise AlgebraError("mis-homed state value")
            clean[(tuple(beta), contact, zexp, tuple(logpow))] = el
        self.terms = clean

    def _check_floor(self, zexp: int) -> None:
        if self.lowest_z is not None and zexp < self.lowest_z:
            raise TruncationError(
                f"z^{zexp} lies below this series' lowest computed power "
                f"z^{self.lowest_z}; build the whole series to read it"
            )

    def z_slice(self, zexp: int) -> StateSeries:
        """The z^zexp terms, keyed (β, contact, log): keys are unique, so none collide."""
        self._check_floor(zexp)
        return StateSeries(self.geometry, {
            (beta, contact, logpow): el
            for (beta, contact, z, logpow), el in self.terms.items() if z == zexp
        })

    def top_z(self) -> int | None:
        return max((z for (_, _, z, _) in self.terms), default=None)

    def coefficient(self, beta, contact: int, zexp: int, logpow=None) -> Element:
        beta = tuple(beta)
        if not self.geometry.policy.admits(beta):
            raise TruncationError(
                f"class {beta} beyond truncation order {self.geometry.policy.max_total}"
            )
        self._check_floor(zexp)
        if logpow is None:
            logpow = (0,) * self.geometry.nvars
        alg = self.geometry.ambient if contact == 0 else self.geometry.divisor
        return self.terms.get((beta, contact, zexp, tuple(logpow)), alg.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelativeSeries)
            and self.geometry is other.geometry
            and self.lowest_z == other.lowest_z
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("RelativeSeries is not hashable")


# ---------------------------------------------------------------------------
# the exponential prefactor


def _monomials(
    alg: GradedAlgebra, classes: list[Element], reach: list[int]
) -> list[tuple[tuple[int, ...], int, tuple[tuple[int, int, int], ...]]]:
    """The nonzero monomials Π u_f^{j_f} with each j_f < reach_f, as
    (exponents j, Σ j, sparse integer row of the product), exponents in
    lexicographic order.  Each power is one `_rows` product from the one
    before, through the structure constants, and a row stops at its first zero.
    """
    consts, dim = alg.constants, alg.dim
    monomials = [((), 0, alg.unit().support)]
    for u, n in zip(classes, reach):
        support = u.support
        grown = []
        for js, t, m in monomials:
            for j in range(n):
                if not m:
                    break
                grown.append((js + (j,), t + j, m))
                m = _rows(((consts[i][k], mn * un, md * ud)
                           for i, mn, md in m for k, un, ud in support), dim)
        monomials = grown
    return monomials


def _prefactor_terms(
    classes: list[Element],
) -> list[tuple[tuple[int, ...], int, tuple[tuple[int, int, int], ...]]]:
    """Expansion of exp(Σ p_i ℓ_i / z) over the degree-1 classes p_i: list of
    (log multi-index α, z-shift −|α|, sparse integer row of the class).

    The class is (Π p_i^{α_i}) / Π α_i!, the monomial's row with Π α_i! folded
    into its denominators; a product of more than the algebra's top degree of
    them is 0, so the list is finite.
    """
    alg = classes[0].algebra
    return [
        (alpha, -total, _rows(((row, 1, math.prod(map(math.factorial, alpha))),), alg.dim))
        for alpha, total, row in _monomials(alg, classes, [alg.top_degree + 1] * len(classes))
    ]


# ---------------------------------------------------------------------------
# absolute inputs (the unit-direction data of the absolute theory)


def absolute_core(geom: PairGeometry, beta: tuple[int, ...]) -> dict[int, Fraction]:
    """The scalar base row {z power: value} of class β of an `invariant_table`
    pair: Σ_a ⟨[pt] ψ^a⟩_β·z^{−a−2} over its nonzero x_point rows, and 1 at β = 0.
    """
    if not any(beta):
        return {0: Fraction(1)}
    if geom.table is None:
        raise MissingDataError(f"{geom.name}: no invariant table attached")
    return {-a - 2: v for b, a, v in geom.table.rows_for("x_point") if b == beta and v}


# ---------------------------------------------------------------------------
# divisor mirror map


class DivisorMirrorMap:
    """z^{≥0} correction data of the divisor theory: {(beta, zexp): ambient class}."""

    __slots__ = ("source", "reason", "terms")

    def __init__(
        self,
        source: str,
        reason: str | None,
        terms: tuple[tuple[tuple[tuple[int, ...], int], Element], ...],
    ):
        self.source = source
        self.reason = reason
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[tuple[int, ...], int], Element]:
        return dict(self.terms)


def divisor_mirror_map(geom: PairGeometry) -> DivisorMirrorMap:
    if geom.tau_d_source == "zero":
        return DivisorMirrorMap("zero", geom.tau_d_reason, ())
    # tau_d_source = table, the only other value the loader accepts
    if geom.table is None or geom.table.is_empty_for("d_point"):
        raise MissingDataError(
            f"{geom.name}: divisor mirror map needs d_point invariants: "
            "external data required"
        )
    terms: dict[tuple[tuple[int, ...], int], Element] = {}
    push_unit = pairing_pushforward(geom.restriction, geom.divisor.unit())
    for beta, a, v in geom.table.rows_for("d_point"):
        if not geom.policy.admits(beta):
            continue  # above the truncation, as every other series is cut
        # the gate admits a nonzero row only at psi^a with a = -D.beta - 2
        coeff = v * Fraction((-1) ** (a + 1) * math.factorial(a + 1))
        cls = push_unit.scale(coeff)
        _merge_add(terms, (tuple(beta), 0), cls)
    return DivisorMirrorMap(geom.tau_d_source, None, tuple(sorted(terms.items())))


# ---------------------------------------------------------------------------
# relative I-function assembly


_OVERALL_Z = 1  # the template's overall factor z


def _assemble(
    geom: PairGeometry,
    pieces: list[tuple[tuple[int, ...], int, dict[int, tuple[tuple[int, int, int], ...]]]],
    lowest_z: int | None = None,
) -> RelativeSeries:
    """Shared final stage: overall z, prefactor expansion, contact attachment.

    A piece (β, contact, {z: row}) holds each nonzero z-slice of its class as
    a sparse integer row of the ambient algebra, as `_rows` returns it.  Each
    prefactor class p_α becomes, once per call, two tables of such rows:
    e_i·p_α through the ambient structure constants and r(e_i·p_α) through
    the restriction's image rows.  Each output term is then one `_rows` of
    a slice against the rows its contact selects, and a nonzero one is kept
    as the row of its Element.  Pieces carry distinct (β, contact).  A nonzero
    ambient term above z¹ is a ConfigError naming the class: the pair or its
    invariant rows break the shape z·[1] + O(z⁰) of a log Calabi–Yau
    I-function.  Terms below ``lowest_z`` are not formed, and the series
    records that floor; content above z¹ is checked either way.
    """
    amb, div = geom.ambient, geom.divisor
    consts, images = amb.constants, geom.restriction.rows
    low = -math.inf if lowest_z is None else lowest_z
    table = []
    for alpha, shift, prefactor in _prefactor_terms(list(geom.picard)):
        rows = [_rows(((c[j], n, d) for j, n, d in prefactor), amb.dim) for c in consts]
        restricted = [_rows(((images[k], n, d) for k, n, d in row), div.dim) for row in rows]
        table.append((alpha, shift + _OVERALL_Z, rows, restricted))
    table.sort(key=lambda t: -t[1])  # by falling shift, so those that reach `low` lead
    drops = [-shift for _, shift, _, _ in table]
    terms: dict = {}
    for beta, contact, slices in pieces:
        alg = amb if contact == 0 else div
        for z, row in slices.items():
            for alpha, shift, rows, restricted in table[: bisect_right(drops, z - low)]:
                zf = z + shift
                if zf > 1:
                    if _rows(((rows[i], n, d) for i, n, d in row), amb.dim):
                        raise ConfigError(
                            f"{geom.name}: the I-function of class {beta} has content "
                            f"at z^{zf}, above z^1"
                        )
                    continue
                use = rows if contact == 0 else restricted
                if not any(use[i] for i, _, _ in row):
                    continue
                term = _rows(((use[i], n, d) for i, n, d in row), alg.dim)
                if term:
                    terms[(beta, contact, zf, alpha)] = Element(alg, term)
    return RelativeSeries(geom, terms, lowest_z)


def _effective_classes(pol: TruncationPolicy):
    """All admissible exponent tuples (including 0)."""
    ranges = [range(0, pol.max_total // w + 1) for w in pol.weights]
    for beta in iproduct(*ranges):
        if pol.admits(beta):
            yield beta


def relative_i_function(geom: PairGeometry, lowest_z: int | None = None) -> RelativeSeries:
    """The relative I-function of the pair, at divisor mirror map τ_D.

    With ``lowest_z`` given only the slices z^k, k ≥ lowest_z, are built (the
    mirror map and the potential read z¹ and z⁰ alone); the series records
    the floor, and content above z¹ is refused as for the whole series.

    Every source goes through one template (`_hypergeometric`): the absolute
    factors times Π_{0<a<D·β}(D + az), which is the chain of D over the pole
    1/(D + (D·β)z).  A `closed_form_projective` pair has the factors
    1/Π_{k≤d}(H + kz)^{n+1}; an `invariant_table` pair has a scalar base row per
    class (`absolute_core`) instead, and a class with D·β < 0 and a nonzero row
    cannot factor through the divisor class.  A nonzero divisor mirror map
    would deform the absolute series input, which needs multi-insertion
    invariant data this table format does not carry — that case raises
    MissingDataError naming the gap.
    """
    if not divisor_mirror_map(geom).is_zero():
        raise MissingDataError(
            f"{geom.name}: relative I-function at nonzero divisor mirror map "
            "needs deformed absolute invariants: external data required"
        )
    if geom.j_source == "toric_hypergeometric":
        return toric_i_function(geom, lowest_z)
    dcls = geom.divisor_class
    classes = _effective_classes(geom.policy)
    if geom.j_source == "closed_form_projective":
        multiplicity = Counter({geom.picard[0]: -geom.m_vector[0]})  # 1/(H + kz)^{n+1}, n = m − 1
        multiplicity[dcls] += 1  # merged when D = H, as for n = 0
        return _hypergeometric(
            geom, multiplicity, dict.fromkeys(classes, {0: Fraction(1)}), lowest_z
        )
    bases = {}
    for beta in classes:
        row = absolute_core(geom, beta)
        if not row:
            continue
        if geom.contact_weight(beta) < 0:
            raise CancellationError(
                f"{geom.name}: coefficient at {beta}, z^{next(iter(row))} does not "
                "factor through the divisor class"
            )
        bases[beta] = row
    return _hypergeometric(geom, {dcls: 1}, bases, lowest_z)


def toric_i_function(geom: PairGeometry, lowest_z: int | None = None) -> RelativeSeries:
    """The toric hypergeometric template for bundle-type pairs.

    Per class β: Π_bundles Π_{k=1}^{b·β}(b + kz) over Π_dens Π_{k=1}^{t·β}(t + kz),
    with the pole of `_hypergeometric`.  Factors of the relative ray are
    structurally cancelled against the hypergeometric modification.  Equal
    classes are merged into one chain with their net multiplicity (+1 per
    bundle, −1 per denominator).  ``lowest_z`` is `relative_i_function`'s.
    """
    if geom.toric is None:
        raise MissingDataError(f"{geom.name}: no toric data")
    multiplicity = Counter(geom.toric.bundles)
    multiplicity.subtract(geom.toric.denominators)
    classes = _effective_classes(geom.policy)
    return _hypergeometric(geom, multiplicity, dict.fromkeys(classes, {0: Fraction(1)}), lowest_z)


def _hypergeometric(
    geom: PairGeometry,
    multiplicity: dict[Element, int],
    bases: dict[tuple[int, ...], dict[int, Fraction]],
    lowest_z: int | None = None,
) -> RelativeSeries:
    """The one template of every relative I-function: per class β of ``bases``,
    its scalar base row Σ v·z^k times Π_u Π_{k=1}^{u·β}(u + kz)^{e_u} over the
    net factors u with multiplicity e_u, times the simple pole 1/(D + (D·β)z)
    with a [1]_{−D·β} state when D·β > 0, then the overall z and the
    exponential prefactor (`_assemble`).  A net multiplicity 0 drops the
    class, and a class that pairs to ≤ 0 with β contributes 1.

    Every factor is a scalar row over the powers of its class: its chain rows
    (`_chain_rows`), built once per build for the longest chain any class
    asks of it, and for the pole 1/(D + cz) = (cz)^{−1}·Σ_j (−D/(cz))^j the
    e = −1 link row, with D's top power found once.  So the nonzero
    monomials Π_f u_f^{j_f}·D^{j_D} are tabulated once per build as sparse
    integer rows (`_monomials`), and each z-slice of a class is one `_rows`
    of them, weighted by integer products of its rows and base.  `_assemble` receives every nonzero slice as that
    row; an empty one is dropped.
    With ``lowest_z`` given, a slice that cannot reach it after assembly is
    not formed: monomials go by rising Σ j, so a class stops at the first one
    whose slices all lie below the template floor.
    """
    amb, dcls = geom.ambient, geom.divisor_class
    factors = [(cls, geom.pairing(cls), e) for cls, e in multiplicity.items() if e]
    classes = list(bases)
    pairings = [[max(sum(map(mul, pv, beta)), 0) for beta in classes] for _, pv, _ in factors]
    tables = [_chain_rows(_top(cls, e), max(tops), e)
              for (cls, _, e), tops in zip(factors, pairings)]
    contacts = [geom.contact_weight(beta) for beta in classes]
    top_d = _top(dcls, -1)
    poles = {c: _link_row(c, -1, top_d) for c in set(contacts) if c > 0}
    poles[0] = ([1], 1)
    # the nonzero monomials (exponents j, Σ j, Π u^j), each j below its longest row
    reach = [len(table[max(tops)][0]) for table, tops in zip(tables, pairings)]
    reach.append(max(len(nums) for nums, _ in poles.values()))
    monomials = _monomials(amb, [cls for cls, _, _ in factors] + [dcls], reach)
    monomials.sort(key=lambda m: m[1])
    degrees = [t for _, t, _ in monomials]
    # `_assemble` puts a slice z^s at z^{s + _OVERALL_Z − |α|} for each prefactor
    # term α, highest at α = 0, so below z^{lowest_z − _OVERALL_Z} none reaches lowest_z
    floor = -math.inf if lowest_z is None else lowest_z - _OVERALL_Z
    pieces = []
    for i, (beta, c) in enumerate(zip(classes, contacts)):
        rows = [table[tops[i]] for table, tops in zip(tables, pairings)]
        rows.append(poles[max(c, 0)])
        zbase = sum(e * tops[i] for (_, _, e), tops in zip(factors, pairings))
        zbase -= c > 0  # the pole's (cz)^{−1}
        den = math.prod(d for _, d in rows)
        base = [(zbase + k, v.numerator, den * v.denominator) for k, v in bases[beta].items()]
        # a monomial of degree t lowers z by t: past the top z − floor none reaches the floor
        cut = bisect_right(degrees, max(z for z, _, _ in base) - floor)
        base = [b for b in base if b[0] >= floor]
        slices: dict[int, list] = {}
        for js, t, support in islice(monomials, cut):
            n = 1
            for j, (nums, _) in zip(js, rows):
                if j >= len(nums):
                    break
                n *= nums[j]
            else:
                if n:
                    for z, vn, vd in base:
                        slices.setdefault(z - t, []).append((support, n * vn, vd))
        pieces.append((beta, -c, {
            z: row for z, terms in slices.items() if z >= floor and (row := _rows(terms, amb.dim))
        }))
    return _assemble(geom, pieces, lowest_z)


# ---------------------------------------------------------------------------
# normalization and the mirror map


class MirrorExponent:
    """The change-of-variables exponent g extracted from a mirror map."""

    __slots__ = ("g", "contact_one")

    def __init__(self, g: NovikovSeries, contact_one: NovikovSeries):
        self.g = g
        self.contact_one = contact_one  # [1]_{-1} components, reported, never summed into g


class NormalizedI:
    """I split into its z¹ and z⁰ slices and normalized by I₁⁻¹.

    J = I·I₁⁻¹ is kept only on the two slices that have readers: J₁ = [1]₀
    and J₀, the mirror map; so `j_function` has floor z⁰.
    """

    __slots__ = ("unit_part", "j_function", "mirror_map", "exponent")

    def __init__(
        self,
        unit_part: StateSeries,
        j_function: RelativeSeries,
        mirror_map: StateSeries,
        exponent: MirrorExponent,
    ):
        self.unit_part = unit_part    # I1 = z^1 slice
        self.j_function = j_function  # the z^1 and z^0 slices of I · reciprocal(I1)
        self.mirror_map = mirror_map  # z^0 slice of J
        self.exponent = exponent


def normalize_i(I: RelativeSeries) -> NormalizedI:
    """Split off I1 and I0 and normalize to the J-shaped series.

    Verifies the shape J = z·[1]_0 + (z^0 part) + O(z^{-1}): nothing above z^1
    and the z^1 slice exactly the unit state.  Only J's z^1 and z^0 slices are
    computed, so I may be built from z^0 up (`relative_i_function(geom, 0)`).
    Raises PipelineInvariantError on violation.
    """
    geom = I.geometry
    i1 = I.z_slice(1)
    i0 = I.z_slice(0)
    top = I.top_z()
    if top is not None and top > 1:
        raise PipelineInvariantError(
            f"I-function has content at z^{top} > z^1; shape check failed"
        )
    if i1 == StateSeries.unit(geom):
        j1, j0 = i1, i0
    else:
        recip = i1.reciprocal()
        j1, j0 = i1 * recip, i0 * recip
    if j1 != StateSeries.unit(geom):
        raise PipelineInvariantError("normalized series does not have unit z^1 slice")
    slices = {
        (b, c, z, l): el
        for z, part in ((1, j1), (0, j0))
        for (b, c, l), el in part.terms.items()
    }
    J = RelativeSeries(geom, slices, lowest_z=0)
    return NormalizedI(i1, J, j0, extract_mirror_exponent(j0))


def extract_mirror_exponent(tau: StateSeries) -> MirrorExponent:
    """Read off g = Σ (coefficient of [1]_{-d}, d ≥ 2) and the [1]_{-1} report.

    Negative-contact components must be log-free multiples of the divisor unit;
    anything else raises MalformedMirrorMapError.
    """
    geom = tau.geometry
    pol = geom.policy
    g_terms: dict[tuple[int, ...], Fraction] = {}
    one_terms: dict[tuple[int, ...], Fraction] = {}
    unit_idx = geom.divisor.unit_index
    for (beta, contact, logpow), el in tau.terms.items():
        if contact >= 0:
            continue
        if any(logpow):
            raise MalformedMirrorMapError(
                f"negative-contact mirror-map term at {beta} carries log factors"
            )
        for i, _, _ in el.support:
            if i != unit_idx:
                raise MalformedMirrorMapError(
                    f"negative-contact mirror-map term at {beta} has non-unit class "
                    f"{geom.divisor.basis[i]}"
                )
        c = el.unit_component()
        if contact == -1:
            one_terms[beta] = one_terms.get(beta, Fraction(0)) + c
        else:
            g_terms[beta] = g_terms.get(beta, Fraction(0)) + c
    return MirrorExponent(
        NovikovSeries(pol, g_terms), NovikovSeries(pol, one_terms)
    )


# ---------------------------------------------------------------------------
# the change of variables


def mixed_signs(m_vector: tuple[int, ...]) -> bool:
    """Whether m has entries of both signs: then infinitely many classes share each m·β."""
    return any(x > 0 for x in m_vector) and any(x < 0 for x in m_vector)


def _grouped_exp(
    f: NovikovSeries, m_vector: tuple[int, ...], scale: Callable[[int], int],
    classes: Iterable[tuple[int, ...]], kernel: list[tuple[tuple[int, ...], Fraction]],
) -> dict[tuple[int, ...], Fraction]:
    """Σ_γ c_γ·[e^{scale(d)·f}]_{β−γ} over the kernel's (γ, c_γ), at each class β.

    Classes are grouped by d = m·β.  For m of one sign each group reads
    f.exp(scale(d)) truncated at its heaviest class, and most groups are
    light.  For m of both signs every group reaches about the full order, so
    all of them read one power walk instead: Q_k = f^k·kernel for
    k = 0, 1, … until Q_k = 0, each class β gaining (s^k/k!)·[Q_k]_β with
    s = scale(d).  One Q_k is kept at a time.
    """
    pol = f.policy
    groups: dict[int, list[tuple[int, ...]]] = {}
    for beta in classes:
        groups.setdefault(sum(map(mul, m_vector, beta)), []).append(beta)
    if mixed_signs(m_vector):
        f.exp(order=0)  # exp's zero-constant-term refusal: the walk ends only then
        out = {b: Fraction(0) for betas in groups.values() for b in betas}
        q = NovikovSeries(pol, dict(kernel))
        factor = dict.fromkeys(groups, Fraction(1))  # s^k/k! per group
        k = 0
        while not q.is_zero():
            for d, betas in groups.items():
                for beta in betas:
                    if beta in q.terms:
                        out[beta] += factor[d] * q.terms[beta]
                factor[d] *= Fraction(scale(d), k + 1)
            q, k = f * q, k + 1
        return out
    out = {}
    for d, betas in groups.items():
        power = f.exp(scale(d), max(pol.weight(b) for b in betas)).terms
        for beta in betas:
            out[beta] = sum(
                c * power.get(tuple(map(sub, beta, gamma)), 0) for gamma, c in kernel
            )
    return out


class MirrorChange:
    """q_i = y_i · exp(m_i · g(y)): the mirror change of variables."""

    def __init__(self, m_vector: tuple[int, ...], g: NovikovSeries):
        self.m_vector = m_vector
        self.g = g

    @property
    def policy(self) -> TruncationPolicy:
        return self.g.policy

    def contact_weight(self, beta: tuple[int, ...]) -> int:
        return sum(m * b for m, b in zip(self.m_vector, beta))

    @cached_property
    def exp_composed(self) -> NovikovSeries:
        """e^{G(q)}, G = g(y(q)), by Good's multivariate Lagrange inversion.

        For q_i = y_i·e^{m_i g} the Jacobian det(δ_ij + m_i y_j ∂_j g) is
        1 + E_m g with E_m = Σ m_i y_i ∂_i (matrix determinant lemma), so

            [q^β] e^G = [y^β] e^{(1 − m·β)·g(y)}·(1 + E_m g),

        read off `_grouped_exp` with the kernel 1 + E_m g: one exp per value of
        m·β, or for m of both signs one walk over g^k·(1 + E_m g).  Built once.
        """
        g = self.g
        pol = self.policy
        jacobian = [((0,) * pol.nvars, Fraction(1))] + [
            (beta, c * self.contact_weight(beta))
            for beta, c in g.terms.items()
            if self.contact_weight(beta)
        ]
        classes = _effective_classes(pol)
        return NovikovSeries(pol, _grouped_exp(g, self.m_vector, lambda d: 1 - d, classes, jacobian))

    @cached_property
    def composed(self) -> NovikovSeries:
        """G(q) = g(y(q)) in closed form: the log of exp_composed.  Built once."""
        return self.exp_composed.log()


def composed_exponent(change: MirrorChange) -> NovikovSeries:
    """G(q) = g(y(q)): the change's one cached G, shared by all its readers."""
    return change.composed


def class_constant_terms(
    G: NovikovSeries, m_vector: tuple[int, ...]
) -> dict[tuple[int, ...], Fraction]:
    """θ_β = [q^β] e^{(m·β)·G} on each class of G's truncation with m·β ≥ 1.

    For W = x·e^{G(q·(t/x)^m)} the x^0 part of W^n is Σ_{m·β = n} θ_β q^β t^n,
    so θ_β is the constant term of W^{m·β} on the class β.  Zeros are dropped.
    """
    pol = G.policy
    classes = [b for b in _effective_classes(pol) if sum(map(mul, m_vector, b)) >= 1]
    theta = _grouped_exp(G, m_vector, lambda d: d, classes, [((0,) * pol.nvars, Fraction(1))])
    return {beta: v for beta, v in theta.items() if v}


def inverse_coordinates(change: MirrorChange) -> tuple[NovikovSeries, ...]:
    """The inverse substitution series y_i(q) = q_i · exp(−m_i · G(q)), on the change's G."""
    pol = change.policy
    G = composed_exponent(change)
    out = []
    for i, m in enumerate(change.m_vector):
        out.append(NovikovSeries.variable(pol, i) * G.exp(-m))
    return tuple(out)


def substitute_forward(series_q: NovikovSeries, change: MirrorChange) -> NovikovSeries:
    """f(q) ↦ f(q(y)): monomial-wise q^β ↦ y^β · exp((D·β)·g(y)).

    The classes of f are grouped by d = D·β, and each group is one product of
    its terms with e^{d·g}, g.exp(d) truncated at the weight its lightest
    class leaves room for.
    """
    pol, g = series_q.policy, change.g
    if g.policy != pol:
        raise ValueError("incompatible truncation policies")
    groups: dict[int, dict] = {}
    for beta, c in series_q.terms.items():
        groups.setdefault(change.contact_weight(beta), {})[beta] = c
    out: dict = {}
    for d, terms in groups.items():
        power = g.exp(d, pol.max_total - min(map(pol.weight, terms)))
        # the product reads e^{d·g} only through the weight it is cut at, so it may sit under pol
        part = NovikovSeries._kernel_output(pol, terms) * NovikovSeries._kernel_output(pol, power.terms)
        for k, v in part.terms.items():
            out[k] = out.get(k, 0) + v
    return NovikovSeries(pol, out)
