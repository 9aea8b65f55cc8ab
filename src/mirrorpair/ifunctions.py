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
  restricted divisor class.

The package takes these products only with the unit states of I₁ and I₁⁻¹,
the scalars r_β·[1]_{−D·β} at contact −D·β ≥ 0, where each is one linear map
of the other factor, chosen by the signs of the two contacts from one table
(`_unit_maps`, read by `_times_unit`).

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
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property
from fractions import Fraction
from itertools import islice
from operator import itemgetter, mul, sub

from .algebra import (
    AlgebraError,
    Element,
    _monomials,
    _rows,
    pairing_pushforward,
)
from .geometry import ConfigError, MissingDataError, PairGeometry, divisor_degree
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationPolicy,
    TruncationError,
    _Packing,
    _accumulate,
    _convolve,
    _mul,
)


class CancellationError(AlgebraError):
    """A negative-contact coefficient failed to factor through the divisor class."""


class MalformedMirrorMapError(ValueError):
    """A mirror map's negative-contact part is not unit-classed / log-free."""


# ---------------------------------------------------------------------------
# hypergeometric building blocks


def _chain_rows(top: int, n: int, e: int) -> list[tuple[list[int], int]]:
    """The rows of the chains P(u, m, e) = Π_{a=1}^{m} (u + a·z)^e for every m ≤ n.

    u is a class with last nonzero power ``top`` (`IFactor.last`) and e a
    nonzero integer exponent.  With x = u/z, P = (m!)^e·z^{me}·Π_a (1 + x/a)^e,
    so a chain is held as the scalar row of its coefficients c_j in
    P = Σ_j c_j·u^j·z^{me−j}, integer numerators over one denominator > 0,
    cut after u^top.  Each row grows the one before by the next link's row
    (`_link_rows`, whose binomials are formed once per chain) through the
    truncated convolution `_mul`.  Only a row over a denominator is reduced
    by a gcd: for e > 0 every link, and so every row, is over 1.
    """
    rows = [([1], 1)]
    for link, link_den in _link_rows(e, top, range(1, n + 1)):
        nums, den = rows[-1]
        out = _mul(nums, link, min(len(nums) + len(link) - 2, top))
        den *= link_den
        if den == 1:
            rows.append((out, 1))
        else:
            g = math.gcd(den, *out)
            rows.append(([x // g for x in out], den // g))
    return rows


def _link_rows(e: int, top: int, links: Iterable[int]) -> Iterator[tuple[list[int], int]]:
    """The row of each link (u + a·z)^e = a^e·z^e·(1 + x/a)^e, x = u/z, a ≥ 1 of
    ``links``: the binomial row C(e, k)·a^{e−k} of u^k·z^{e−k}, as integer
    numerators C(e, k)·a^{e−k+s} over the denominator a^s, s = max(top − e, 0),
    through k = top, and for e > 0 through k = e at most, so that s = 0 and
    the denominator is 1.  The C(e, k) and exponents are formed once for all
    the links.
    """
    top = e if top > e > 0 else top
    shift = max(top - e, 0)  # a^{e−k} = a^{e−k+shift} / a^{shift}
    terms = [(_binomial(e, k), e - k + shift) for k in range(top + 1)]
    for a in links:
        yield [c * a ** p for c, p in terms], a ** shift


def _binomial(e: int, k: int) -> int:
    """C(e, k) = e(e − 1)…(e − k + 1)/k! for any integer e and k ≥ 0."""
    return math.comb(e, k) if e >= 0 else (-1) ** k * math.comb(k - e - 1, k)


# ---------------------------------------------------------------------------
# state-space series


class StateSeries:
    """z-free series with relative-state coefficients.

    Keys are (beta, contact, logpow); values are Elements of the ambient
    algebra when contact == 0 and of the divisor algebra otherwise.
    """

    __slots__ = ("geometry", "terms")

    def __init__(self, geometry: PairGeometry, terms: dict):
        self.geometry = geometry
        home = geometry.state_algebra
        clean: dict = {}
        for (beta, contact, logpow), el in terms.items():
            beta = tuple(beta)
            logpow = tuple(logpow)
            if not geometry.policy.admits(beta):
                continue
            if el.algebra is not (expected := home(contact)):
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSeries)
            and self.geometry is other.geometry
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries ---------------------------------------------------------

    def coefficient(self, beta, contact: int = 0, logpow=None) -> Element:
        return _read_state(self, beta, contact, logpow)

    def __repr__(self) -> str:
        bits = []
        for (b, c, l) in sorted(self.terms):
            bits.append(f"[{self.terms[(b, c, l)]!r}]_{c} q^{b} log^{l}")
        return " + ".join(bits) if bits else "0"


def _read_state(series, beta, contact: int, logpow, *zexp: int) -> Element:
    """The one read of a state coefficient, keyed (β, contact, *zexp, log): refused
    past the truncation or below a floor, and zero in the contact's algebra if absent."""
    geom = series.geometry
    beta = tuple(beta)
    if not geom.policy.admits(beta):
        raise TruncationError(f"class {beta} beyond truncation order {geom.policy.max_total}")
    for z in zexp:
        series._check_floor(z)
    if logpow is None:
        logpow = (0,) * geom.nvars
    return series.terms.get((beta, contact, *zexp, tuple(logpow)),
                            geom.state_algebra(contact).zero())


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
        home = geometry.state_algebra
        clean: dict = {}
        for (beta, contact, zexp, logpow), el in terms.items():
            if el.is_zero():
                continue
            if lowest_z is not None and zexp < lowest_z:
                raise PipelineInvariantError(
                    f"term at z^{zexp} in a series cut below z^{lowest_z}"
                )
            if el.algebra is not home(contact):
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
        return _read_state(self, beta, contact, logpow, zexp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RelativeSeries)
            and self.geometry is other.geometry
            and self.lowest_z == other.lowest_z
            and self.terms == other.terms
        )


# ---------------------------------------------------------------------------
# the exponential prefactor


def _prefactor_terms(
    classes: list[Element], limit: float = math.inf
) -> list[tuple[tuple[int, ...], int, tuple[tuple[int, int, int], ...]]]:
    """Expansion of exp(Σ p_i ℓ_i / z) over the degree-1 classes p_i: list of
    (log multi-index α, z-shift −|α|, sparse integer row of the class), for
    |α| ≤ ``limit``.

    The class is (Π p_i^{α_i}) / Π α_i!, the monomial's row with Π α_i! folded
    into its denominators; a product of more than the algebra's top degree of
    them is 0, so the list is finite.  A term with |α| past the limit would
    lower every slice below the floor of the caller, so it is not formed.
    """
    alg = classes[0].algebra
    return [
        (alpha, -total, _rows(((row, 1, math.prod(map(math.factorial, alpha))),), alg.dim))
        for alpha, total, row in _monomials(
            alg, classes, [alg.top_degree + 1] * len(classes), limit)
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


def divisor_mirror_map(
    geom: PairGeometry,
) -> tuple[tuple[tuple[tuple[int, ...], int], Element], ...]:
    """τ_D, the z^{≥0} correction of the divisor theory: its sorted nonzero
    ((β, z power), ambient class) terms, () when τ_D = 0.

    Where τ_D comes from, and why it is zero, stay on the geometry
    (`tau_d_source`, `tau_d_reason`).
    """
    if geom.tau_d_source == "zero":
        return ()
    # tau_d_source = table, the only other value the loader accepts
    if geom.table is None or geom.table.is_empty_for("d_point"):
        raise MissingDataError(
            f"{geom.name}: divisor mirror map needs d_point invariants: "
            "external data required"
        )
    terms: dict[tuple[tuple[int, ...], int], Element] = {}
    push_unit = pairing_pushforward(geom.restriction, geom.divisor.unit())
    for beta, a, v in geom.table.rows_for("d_point"):
        # a row τ_D never reads is zero (the table gate); one above the
        # truncation is cut, as every other series is
        if a != geom.read_psi("d_point", beta) or not geom.policy.admits(beta):
            continue
        # keys are unique per (β, ψ) and one ψ is read, so no class meets two rows
        cls = push_unit.scale(v * Fraction((-1) ** (a + 1) * math.factorial(a + 1)))
        if not cls.is_zero():
            terms[(tuple(beta), 0)] = cls
    return tuple(sorted(terms.items()))


def _refuse_nonzero_tau_d(geom: PairGeometry, what: str, needs: str) -> None:
    """MissingDataError when τ_D ≠ 0: ``what`` then needs ``needs``, which no table carries."""
    if divisor_mirror_map(geom):
        raise MissingDataError(
            f"{geom.name}: {what} at nonzero divisor mirror map needs {needs}: "
            "external data required"
        )


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
    the restriction's image rows, each formed only where deg e_i + |α| is at
    most the top degree of its algebra (the others are 0).  Each output term
    is then one `_rows` of a slice against the rows its contact selects, and
    a nonzero one is kept as the row of its Element.  Pieces carry distinct
    (β, contact).  A nonzero ambient term above z¹ is a ConfigError naming
    the class: the pair or its invariant rows break the shape z·[1] + O(z⁰)
    of a log Calabi–Yau I-function.  Terms below ``lowest_z`` are not formed,
    and the series records that floor; content above z¹ is checked either way.

    A slice at z ≤ 0 cannot reach above z¹, so it meets only the p_α whose
    product with it can be nonzero: the restriction and the cup product keep
    degrees, so with |α| past the top degree of the target algebra (the
    ambient one at contact 0, the divisor's otherwise) less the slice's
    lowest degree, every term is 0.  Off contact 0 such a slice meets only
    the p_α whose restriction is not 0 (r(e_i·p_α) ≠ 0 for some i), a list
    formed once per call.  A slice at z ≥ 1 meets every p_α, so the above-z¹
    check reads its whole ambient product.
    """
    amb, div = geom.ambient, geom.divisor
    consts, images, degrees = amb.constants, geom.restriction.rows, amb.degrees
    amb_top, div_top = amb.top_degree, div.top_degree
    low = -math.inf if lowest_z is None else lowest_z
    # a term α puts the slice z^s at z^{s + _OVERALL_Z − |α|}: past the highest
    # slice's |α|, none reaches `low`
    highest = max((z for *_, slices in pieces for z in slices), default=0)
    table = []
    for alpha, shift, prefactor in _prefactor_terms(list(geom.picard), highest + _OVERALL_Z - low):
        rows = [_rows(((c[j], n, d) for j, n, d in prefactor), amb.dim)
                if deg - shift <= amb_top else () for c, deg in zip(consts, degrees)]
        restricted = [_rows(((images[k], n, d) for k, n, d in row), div.dim)
                      if deg - shift <= div_top else () for row, deg in zip(rows, degrees)]
        table.append((alpha, shift + _OVERALL_Z, rows, restricted))
    table.sort(key=lambda t: -t[1])  # by falling shift, so those that reach `low` lead
    kept = [t for t in table if any(t[3])]  # the α whose restriction is not 0
    every = (table, [-shift for _, shift, _, _ in table])
    restricting = (kept, [-shift for _, shift, _, _ in kept])
    terms: dict = {}
    for beta, contact, slices in pieces:
        alg = geom.state_algebra(contact)
        room = alg.top_degree
        for z, row in slices.items():
            reach = z - low
            visits, drops = every
            if z + _OVERALL_Z <= 1:  # past its room in degree, every term of the slice is 0
                reach = min(reach, room - min(degrees[i] for i, _, _ in row) - _OVERALL_Z)
                if contact:
                    visits, drops = restricting
            for alpha, shift, rows, restricted in visits[: bisect_right(drops, reach)]:
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


def relative_i_function(geom: PairGeometry, lowest_z: int | None = None) -> RelativeSeries:
    """The relative I-function of the pair, at divisor mirror map τ_D.

    With ``lowest_z`` given only the slices z^k, k ≥ lowest_z, are built (the
    mirror map and the potential read z¹ and z⁰ alone); the series records
    the floor, and content above z¹ is refused as for the whole series.

    Every source goes through one template (`_hypergeometric`) on the net
    factors the loader derived (`PairGeometry.factors`): the absolute factors
    times Π_{0<a<D·β}(D + az), which is the chain of D over the pole
    1/(D + (D·β)z).  A toric pair has base 1 on every class
    (`toric_i_function`); an `invariant_table` pair has a scalar base row per
    class (`absolute_core`) instead, and a class with D·β < 0 and a nonzero row
    cannot factor through the divisor class.  A nonzero divisor mirror map
    would deform the absolute series input, which needs multi-insertion
    invariant data this table format does not carry — that case raises
    MissingDataError naming the gap.
    """
    _refuse_nonzero_tau_d(geom, "relative I-function", "deformed absolute invariants")
    if geom.j_source == "toric_hypergeometric":
        return toric_i_function(geom, lowest_z)
    bases = {}
    for beta in geom.policy.classes():
        row = absolute_core(geom, beta)
        if not row:
            continue
        if geom.contact_weight(beta) < 0:
            raise CancellationError(
                f"{geom.name}: coefficient at {beta}, z^{next(iter(row))} does not "
                "factor through the divisor class"
            )
        bases[beta] = row
    return _hypergeometric(geom, bases, lowest_z)


def toric_i_function(geom: PairGeometry, lowest_z: int | None = None) -> RelativeSeries:
    """The toric hypergeometric template, for X in a toric Y or, with no bundles, X = Y.

    Per class β: Π_bundles Π_{k=1}^{b·β}(b + kz) over Π_dens Π_{k=1}^{t·β}(t + kz),
    times D's chain and the pole of `_hypergeometric`.  Equal classes are
    merged by the loader into one factor with their net exponent, so D's own
    ray among the denominators cancels D's chain.  ``lowest_z`` is
    `relative_i_function`'s.
    """
    if geom.j_source != "toric_hypergeometric":
        raise MissingDataError(f"{geom.name}: no toric data")
    classes = geom.policy.classes()
    return _hypergeometric(geom, dict.fromkeys(classes, {0: Fraction(1)}), lowest_z)


def _hypergeometric(
    geom: PairGeometry,
    bases: dict[tuple[int, ...], dict[int, Fraction]],
    lowest_z: int | None = None,
) -> RelativeSeries:
    """The one template of every relative I-function: per class β of ``bases``,
    its scalar base row Σ v·z^k times Π_u Π_{k=1}^{u·β}(u + kz)^{e_u} over the
    pair's net factors u with exponent e_u (`PairGeometry.factors`), times the
    simple pole 1/(D + (D·β)z) with a [1]_{−D·β} state when D·β > 0, then the
    overall z and the exponential prefactor (`_assemble`).  A class that pairs
    to ≤ 0 with β contributes 1.

    Every factor is a scalar row over the powers of its class, cut after the
    class's last power, which the loader read: its chain rows (`_chain_rows`),
    built once per build for the longest chain any class asks of it, and for
    the pole 1/(D + cz) = (cz)^{−1}·Σ_j (−D/(cz))^j the e = −1 link rows of
    every contact c (`_link_rows`).  So the nonzero monomials
    Π_f u_f^{j_f}·D^{j_D} are tabulated once per build as sparse integer rows
    (`_monomials`), and each z-slice of a class is one `_rows` of them,
    weighted by integer products of its rows and base.  `_assemble` receives
    every nonzero slice as that row; an empty one is dropped.

    Every factor class has degree 1, so a monomial of Σ j = t has degree t
    and lowers z by t.  A product that cannot reach a printed term is not
    formed:

    * a class with D·β ≠ 0 is printed restricted to D, and the restriction
      keeps degrees, so a monomial of degree past D's top degree gives 0 on
      every slice at z ≤ 0.  Such a class stops at the monomials of
      Σ j ≤ max(D's top degree, ẑ_β − 1), ẑ_β its top template power: one of
      Σ j ≤ ẑ_β − 1 can make a slice at z ≥ 1, which the above-z¹ check of
      `_assemble` reads whole in the ambient ring;
    * with ``lowest_z`` given, a slice that cannot reach it after assembly is
      not formed: monomials go by rising Σ j, so a class stops at the first
      one whose slices all lie below the template floor.  The monomials, the
      chain rows and the pole's row are then tabulated only as deep as the
      deepest class reads, max_β ẑ_β less that floor.
    """
    amb, dcls, factors = geom.ambient, geom.divisor_class, geom.factors
    classes = list(bases)
    pairings = [[max(sum(map(mul, f.pairing, beta)), 0) for beta in classes] for f in factors]
    contacts = [geom.contact_weight(beta) for beta in classes]
    # each class's power of z before its base row, less the pole's (cz)^{−1}
    zbases = [sum(f.exponent * tops[i] for f, tops in zip(factors, pairings)) - (c > 0)
              for i, c in enumerate(contacts)]
    hats = [zb + max(bases[beta]) for zb, beta in zip(zbases, classes)]
    # `_assemble` puts a slice z^s at z^{s + _OVERALL_Z − |α|} for each prefactor
    # term α, highest at α = 0, so below z^{lowest_z − _OVERALL_Z} none reaches lowest_z
    floor = -math.inf if lowest_z is None else lowest_z - _OVERALL_Z
    reads = max(hats) - floor  # no class reads a monomial of Σ j past it
    *depths, top_d = [min(last, reads) for last in [f.last for f in factors] + [geom.divisor_last]]
    tables = [_chain_rows(top, max(tops), f.exponent)
              for top, f, tops in zip(depths, factors, pairings)]
    positive = {c for c in contacts if c > 0}
    poles = dict(zip(positive, _link_rows(-1, top_d, positive)))
    poles[0] = ([1], 1)
    # the nonzero monomials (exponents j, Σ j, Π u^j), each j below its longest row
    reach = [len(table[max(tops)][0]) for table, tops in zip(tables, pairings)]
    reach.append(max(len(nums) for nums, _ in poles.values()))
    monomials = _monomials(amb, [f.cls for f in factors] + [dcls], reach, reads)
    monomials.sort(key=lambda m: m[1])
    degrees = [t for _, t, _ in monomials]
    div_top = geom.divisor.top_degree
    pieces = []
    for i, (beta, c, zbase, hat) in enumerate(zip(classes, contacts, zbases, hats)):
        rows = [table[tops[i]] for table, tops in zip(tables, pairings)]
        rows.append(poles[max(c, 0)])
        den = math.prod(d for _, d in rows)
        base = [(zbase + k, v.numerator, den * v.denominator) for k, v in bases[beta].items()]
        # a monomial of degree t lowers z by t: past the top z − floor none reaches the
        # floor, and off contact 0 none past D's top degree shows unless it may reach z¹
        limit = hat - floor if c == 0 else min(hat - floor, max(div_top, hat - 1))
        cut = bisect_right(degrees, limit)
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
    """What normalizing I by I₁⁻¹ yields: J₀, the mirror map, and its exponent.

    Of J = I·I₁⁻¹ only J₀ has readers; J₁ = [1]_0 is checked and not kept,
    and I₁ itself is `I.z_slice(1)`.
    """

    __slots__ = ("mirror_map", "exponent")

    def __init__(self, mirror_map: StateSeries, exponent: MirrorExponent):
        self.mirror_map = mirror_map  # z^0 slice of J = I · I1^-1
        self.exponent = exponent


def normalize_i(I: RelativeSeries) -> NormalizedI:
    """Split off I₁ and I₀ and normalize to J₀, the z⁰ slice of J = I·I₁⁻¹.

    Verifies the shape J = z·[1]_0 + (z^0 part) + O(z^{-1}): nothing above z^1
    and J's z^1 slice exactly the unit state.  Only J's z^1 and z^0 slices are
    computed, so I may be built from z^0 up (`relative_i_function(geom, 0)`).

    I₁ must be Σ_β c_β·[1]_{−D·β} with −D·β ≥ 0 and no log, as the template's
    homogeneity makes it, and I₀'s log part must be p_i·I₁ at log_i (p_i
    restricted at contact > 0), as `_assemble` builds it; both are checked
    whatever I₁ is.  Every product with a unit of I₁ or I₁⁻¹ is one map of the
    product rule's table (`_unit_maps`), formed once here and only when I₁
    has a term at contact > 0: otherwise every product keeps its factor.
    For I₁ = [1]_0, J is I.  Otherwise, on units at contacts ≥ 0 the contact
    product is the Novikov product, so I₁⁻¹ = Σ r_β·[1]_{−D·β} for r = 1/u,
    u = Σ c_β·y^β, and J₁ = [1]_0 is the one check u·r = 1.  Contacts ≥ 0
    multiply associatively, so the log part's quotient is p_i at β = 0, and
    only I₀'s log-free terms are multiplied by I₁⁻¹.  Raises
    PipelineInvariantError on any violation.
    """
    geom = I.geometry
    i1 = I.z_slice(1)
    i0 = I.z_slice(0)
    top = I.top_z()
    if top is not None and top > 1:
        raise PipelineInvariantError(
            f"I-function has content at z^{top} > z^1; shape check failed"
        )
    home, units = geom.state_algebra, {}
    for (beta, contact, logpow), el in i1.terms.items():
        (i, n, d), *rest = el.support
        if (any(logpow) or contact < 0 or contact != -geom.contact_weight(beta)
                or rest or i != home(contact).unit_index):
            raise PipelineInvariantError(
                f"z^1 slice is not a scalar series of units [1]_{{-D.beta}} with "
                f"-D.beta >= 0: term at {beta}, contact {contact}, log {logpow}"
            )
        units[beta] = Fraction(n, d)
    sides = {_sign(contact) for _, contact, _ in i1.terms}  # I₁'s contacts are ≥ 0
    maps = _unit_maps(geom) if 1 in sides else {}
    logs = [tuple(int(k == i) for k in range(geom.nvars)) for i in range(geom.nvars)]
    want = {}
    for log, p in zip(logs, geom.picard):
        images = {side: _times_unit(p, (0, side), maps) for side in sides}
        for beta, contact, _ in i1.terms:
            image = images[_sign(contact)]
            if not image.is_zero():  # r(p_i) may be 0
                want[(beta, contact, log)] = image.scale(units[beta])
    if want != {k: el for k, el in i0.terms.items() if any(k[2])}:
        raise PipelineInvariantError("z^0 log part is not p_i*I1 at log_i")
    j0 = i0 if i1 == StateSeries.unit(geom) else _divide_by_unit_slice(units, i0, logs, maps)
    return NormalizedI(j0, extract_mirror_exponent(j0))


def _divide_by_unit_slice(units: dict, i0: StateSeries, logs: list, maps: dict) -> StateSeries:
    """J₀ = I₀·I₁⁻¹ for I₁ = Σ c_β·[1]_{−D·β}, ``units`` {β: c_β}, not [1]_0, by the
    route of `normalize_i`, with the log part already checked.

    A log-free I₀ term times a unit r_β·[1]_{−D·β} of I₁⁻¹ is r_β times
    `_times_unit` of the term on the table ``maps``, each image formed once
    per term and sign of the output contact, and each output key is one
    `_rows`."""
    geom = i0.geometry
    pol, zero = geom.policy, (0,) * geom.nvars
    u = NovikovSeries._kernel_output(pol, units)
    r = u.reciprocal()
    if u * r != NovikovSeries.one(pol):
        raise PipelineInvariantError("normalized series does not have unit z^1 slice")
    # I₁⁻¹ by contact, as (weight, packed β, n, d) by rising weight; β is packed
    # (`_Packing`), so the class of a product is a sum
    packing = _Packing(pol)
    inverse: dict = {}
    for beta, rho in sorted(r.terms.items(), key=lambda t: pol.weight(t[0])):
        inverse.setdefault(-geom.contact_weight(beta), []).append(
            (pol.weight(beta), packing.pack(beta), rho.numerator, rho.denominator))
    parts: dict = {}
    for (beta1, c1, logpow), v in i0.terms.items():
        if any(logpow):
            continue
        room, p1, images = pol.max_total - pol.weight(beta1), packing.pack(beta1), {}
        for c2, sector in inverse.items():
            if sector[0][0] > room:
                continue
            c = c1 + c2
            key = (_sign(c1), _sign(c))
            if key not in images:
                images[key] = _times_unit(v, key, maps).support
            image, filed = images[key], parts.setdefault(c, {})
            for w, p2, n, d in sector:
                if w > room:
                    break
                filed.setdefault(p1 + p2, []).append((image, n, d))
    j0 = {}
    for c, filed in parts.items():
        alg = geom.state_algebra(c)
        for packed, rows in filed.items():
            row = _rows(rows, alg.dim)
            if row:
                j0[(packing.unpack(packed), c, zero)] = Element(alg, row)
    j0.update(((zero, 0, log), p) for log, p in zip(logs, geom.picard))
    return StateSeries._kernel_output(geom, j0)


def _sign(contact: int) -> int:
    """−1, 0 or 1: the sign of a contact, which with its factor's fixes a product's map."""
    return (contact > 0) - (contact < 0)


def _unit_maps(geom: PairGeometry) -> dict:
    """The product rule's maps of [v]_{c1}·[1]_{c−c1}, c ≥ c1, keyed by the signs
    of (c1, c): each is (rows, target algebra), the image row of each basis
    class of v's algebra.  (0, +) holds the restriction's rows, (−, 0) the
    pairing pushforward's and (−, +) the rows e_j·r(D).  At every other key
    the product is v itself, and the table holds nothing."""
    res, amb, div = geom.restriction, geom.ambient, geom.divisor
    cup = res(geom.divisor_class).support
    return {
        (0, 1): (res.rows, div),
        (-1, 0): (res.pushforward_rows, amb),
        (-1, 1): (tuple(_rows(((c[b], n, d) for b, n, d in cup), div.dim)
                        for c in div.constants), div),
    }


def _times_unit(v: Element, key: tuple[int, int], maps: dict) -> Element:
    """[v]_{c1}·[1]_{c−c1} for ``key`` the signs of (c1, c): one `_rows` of v's
    coordinates against the rows ``maps`` (`_unit_maps`) holds at the key, and
    v itself at a key it does not hold."""
    entry = maps.get(key)
    if entry is None:
        return v
    rows, alg = entry
    return Element(alg, _rows(((rows[j], n, d) for j, n, d in v.support), alg.dim))


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
        terms = one_terms if contact == -1 else g_terms
        terms[beta] = terms[beta] + c if beta in terms else c
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
    light; a class reads only the γ whose β − γ that exp stores.  For m of
    both signs every group reaches about the full order, so all of them read
    one `_power_walk` over f^k·kernel instead.  Either way each class sums
    integer numerators over lcm-joined denominators (`_accumulate`) and gets
    one Fraction at the end; the classes whose sum is zero are left out.
    """
    group_of = {beta: divisor_degree(m_vector, beta) for beta in classes}
    if mixed_signs(m_vector):
        return _power_walk(f, group_of, kernel, [(scale, 0)])[0]
    pol = f.policy
    acc: dict = {}
    groups: dict[int, list[tuple[int, ...]]] = {}
    for beta, d in group_of.items():
        groups.setdefault(d, []).append(beta)
    kernel = [(gamma, c.numerator, c.denominator) for gamma, c in kernel]
    for d, betas in groups.items():
        power = f.exp(scale(d), max(map(pol.weight, betas))).terms
        for beta in betas:
            for gamma, n, den in kernel:
                v = power.get(tuple(map(sub, beta, gamma)))
                if v is not None:
                    _accumulate(acc, beta, n * v.numerator, den * v.denominator)
    return {
        beta: Fraction(*slot) for beta in group_of if (slot := acc.get(beta)) and slot[0]
    }


def _power_walk(
    f: NovikovSeries, group_of: dict[tuple[int, ...], int],
    kernel: list[tuple[tuple[int, ...], Fraction]], reads: list[tuple[Callable[[int], int], int]],
) -> list[dict[tuple[int, ...], Fraction]]:
    """Σ_{k≥lag} (s^{k−lag}/(k−lag)!)·[Q_k]_β at each class β of ``group_of``
    (β ↦ d = m·β), one dict per read (scale, lag) with s = scale(d).

    Q_k = f^k·kernel for k = 0, 1, … until Q_k = 0, one Q_k held at a time,
    so f must have no constant term: exp's refusal is raised first.  f and
    the kernel are packed once (`_Packing`) as integer numerators over one
    denominator each, d_f and d_K, so Q_k is integer numerators over
    d_K·d_f^k and each step Q_{k+1} = f·Q_k is one `_convolve` of integers
    into levels by weight.  Over the step's k! a read weighs [Q_k]_β by the
    integer s^{k−lag}·k!/(k−lag)!, so all reads of a class share one
    denominator: the step's k!·d_K·d_f^k, which every later step's is a
    multiple of, so a class's sums are rescaled to it by one exact division.
    Keys stay packed until the reads end; each read then gets one Fraction
    per class, and the classes whose sum is zero are left out.
    """
    f.exp(order=0)  # exp's zero-constant-term refusal: the walk ends only then
    pol = f.policy
    top = pol.max_total
    packing = _Packing(pol)
    group = {packing.pack(beta): d for beta, d in group_of.items()}
    step, d_f = _over_one_denominator(packing.terms(f.terms))
    step.sort(key=itemgetter(1))
    q, den = _over_one_denominator(packing.terms(dict(kernel)))
    dens: list[int] = []  # dens[k] = k!·d_K·d_f^k, the denominator of step k's reads
    acc: dict = {}  # packed class -> [k of its denominator, one numerator per read]
    k = 0
    while q:
        dens.append(den)
        # perm(k, lag) = k!/(k − lag)!, and 0 while k < lag
        falls = [(scale, k - lag, math.perm(k, lag)) for scale, lag in reads]
        weights: dict = {}  # a group's, formed at its first class in Q_k
        for p, _, n, _ in q:
            d = group.get(p)
            if d is None:
                continue
            ws = weights.get(d)
            if ws is None:
                ws = weights[d] = [c and scale(d) ** e * c for scale, e, c in falls]
            if not any(ws):
                continue
            slot = acc.get(p)
            if slot is None:
                acc[p] = [k, *(w * n for w in ws)]
            else:
                a, slot[0] = den // dens[slot[0]], k
                for i, w in enumerate(ws, 1):
                    slot[i] = slot[i] * a + w * n
        levels: list[dict] = [{} for _ in range(top + 1)]
        _convolve(levels, q, step, top)
        q = [(p, w, n, 1) for w, level in enumerate(levels) for p, (n, _) in level.items() if n]
        k += 1
        den *= k * d_f
    slots = [(beta, slot) for beta in group_of if (slot := acc.get(packing.pack(beta)))]
    return [
        {beta: Fraction(slot[i], dens[slot[0]]) for beta, slot in slots if slot[i]}
        for i in range(1, len(reads) + 1)
    ]


def _over_one_denominator(terms: list) -> tuple[list, int]:
    """Packed terms (p, w, n, d) as (p, w, n', 1) over their lcm denominator L, and L."""
    join = math.lcm(*(d for *_, d in terms))
    return [(p, w, n * (join // d), 1) for p, w, n, d in terms], join


class MirrorChange:
    """q_i = y_i · exp(m_i · g(y)): the mirror change of variables.

    Everything a check reads off the change is built once and kept on it, and
    on nothing longer-lived: e^G and G (`exp_composed`, `composed`), for m of
    both signs each e^{−m_i G} of the inverse coordinates (`composed_power`),
    and each truncation e^{d·g} that `exp_g` is asked for.
    """

    def __init__(self, m_vector: tuple[int, ...], g: NovikovSeries):
        self.m_vector = m_vector
        self.g = g
        self._exp_g: dict[tuple[int, int], NovikovSeries] = {}

    @property
    def policy(self) -> TruncationPolicy:
        return self.g.policy

    def contact_weight(self, beta: tuple[int, ...]) -> int:
        return divisor_degree(self.m_vector, beta)

    def exp_g(self, scale: int, order: int) -> NovikovSeries:
        """e^{scale·g} through weight ``order``: g.exp(scale, order), built on first use."""
        power = self._exp_g.get((scale, order))
        if power is None:
            power = self._exp_g[scale, order] = self.g.exp(scale, order)
        return power

    def _jacobian(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """The kernel 1 + E_m g, E_m = Σ m_i y_i ∂_i, as (class, coefficient) pairs."""
        return [((0,) * self.policy.nvars, Fraction(1)),
                *self.g.weighted_scaling(self.m_vector).terms.items()]

    @cached_property
    def _walk(self) -> tuple[NovikovSeries, dict[int, NovikovSeries]]:
        """For m of both signs: G and {a: e^{aG}} for a = 1 and each −m_i, all
        read off one `_power_walk` over Q_k = g^k·(1 + E_m g).

        By Good's formula [q^β] F(y(q)) = [y^β] F·e^{−(m·β)g}·(1 + E_m g), so

            [q^β] e^{aG} = Σ_k (a − m·β)^k/k!·[Q_k]_β,
            [q^β] G = Σ_{k≥1} (−m·β)^{k−1}/(k−1)!·[Q_k]_β.

        Built once.
        """
        pol = self.policy
        offsets = sorted({1, *(-m for m in self.m_vector)})
        reads = [(lambda d, a=a: a - d, 0) for a in offsets] + [(lambda d: -d, 1)]
        group_of = {beta: self.contact_weight(beta) for beta in pol.classes()}
        *exps, log = _power_walk(self.g, group_of, self._jacobian(), reads)
        return NovikovSeries._kernel_output(pol, log), {
            a: NovikovSeries._kernel_output(pol, e) for a, e in zip(offsets, exps)
        }

    @cached_property
    def exp_composed(self) -> NovikovSeries:
        """e^{G(q)}, G = g(y(q)), by Good's multivariate Lagrange inversion.

        For q_i = y_i·e^{m_i g} the Jacobian det(δ_ij + m_i y_j ∂_j g) is
        1 + E_m g with E_m = Σ m_i y_i ∂_i (matrix determinant lemma), so

            [q^β] e^G = [y^β] e^{(1 − m·β)·g(y)}·(1 + E_m g),

        read off `_grouped_exp` with the kernel 1 + E_m g, one exp per value of
        m·β; for m of both signs it is one read of the change's power walk
        (`_walk`).  Built once.
        """
        if mixed_signs(self.m_vector):
            return self._walk[1][1]
        pol = self.policy
        classes = pol.classes()
        return NovikovSeries(
            pol, _grouped_exp(self.g, self.m_vector, lambda d: 1 - d, classes, self._jacobian()))

    @cached_property
    def composed(self) -> NovikovSeries:
        """G(q) = g(y(q)) in closed form: for m of one sign the log of exp_composed,
        for m of both signs a read of the power walk (`_walk`).  Built once."""
        if mixed_signs(self.m_vector):
            return self._walk[0]
        return self.exp_composed.log()

    def composed_power(self, a: int) -> NovikovSeries:
        """e^{a·G}: e^G at a = 1, for m of both signs the walk's read at a = −m_i
        too, and otherwise G.exp(a)."""
        if mixed_signs(self.m_vector) and a in self._walk[1]:
            return self._walk[1][a]
        return self.exp_composed if a == 1 else self.composed.exp(a)


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
    classes = [b for b in pol.classes() if divisor_degree(m_vector, b) >= 1]
    return _grouped_exp(G, m_vector, lambda d: d, classes, [((0,) * pol.nvars, Fraction(1))])


def inverse_coordinates(change: MirrorChange) -> tuple[NovikovSeries, ...]:
    """The inverse substitution series y_i(q) = q_i · exp(−m_i · G(q)), on the change's G.

    Each factor is the change's `composed_power(−m_i)`: for m of both signs a
    read of its power walk, so no exp of G is taken; for m of one sign e^G
    at m_i = −1 and G.exp(−m_i) otherwise.
    """
    pol = change.policy
    return tuple(
        NovikovSeries.variable(pol, i) * change.composed_power(-m)
        for i, m in enumerate(change.m_vector)
    )


def substitute_forward(series_q: NovikovSeries, change: MirrorChange) -> NovikovSeries:
    """f(q) ↦ f(q(y)): monomial-wise q^β ↦ y^β · exp((D·β)·g(y)).

    The classes of f are grouped by d = D·β, and each group's terms are paired
    with e^{d·g} truncated at the weight its lightest class leaves room for.
    That truncation is the change's `exp_g`, so substitutions through one
    change over the same groups build it once.  All the pairs are summed in
    one integer pass, `NovikovSeries.sum_of_products`.
    """
    pol = series_q.policy
    if change.policy != pol:
        raise ValueError("incompatible truncation policies")
    groups: dict[int, dict] = {}
    for beta, c in series_q.terms.items():
        groups.setdefault(change.contact_weight(beta), {})[beta] = c
    return NovikovSeries.sum_of_products(pol, (
        (terms, change.exp_g(d, pol.max_total - min(map(pol.weight, terms))).terms)
        for d, terms in groups.items()
    ))
