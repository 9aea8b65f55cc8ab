"""Geometry catalog: pair descriptions, config parsing, invariant tables.

A *pair geometry* bundles everything the pipeline needs about a log Calabi-Yau
pair (X, D): the ambient cohomology ring, the divisor's ring, the restriction
homomorphism between them, the divisor's class, the Novikov variables, one per
degree-1 class of X (the picard classes), with their intersection numbers
against D (the m-vector, read off the divisor class), truncation policy, and
where the absolute-invariant input comes from (a toric hypergeometric template
when the config has a [toric] section, else an ingested table of one-point
invariants).

Geometries are described by INI-style config text (see BUILTIN_CONFIGS for the
three shipped pairs) so that external geometries can be supplied as files; a
config declares only what the loader cannot derive.
"""

from __future__ import annotations

import configparser
import functools
import math
import sys
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    RestrictionMap,
    _monomials,
    check_algebra,
    check_restriction,
    rat,
)
from .series import TruncationPolicy


class ConfigError(ValueError):
    pass


class MissingDataError(ValueError):
    """An operation needs invariant data that was not supplied."""


# PairGeometry.j_source, derived: the first with a [toric] section, the second without
J_SOURCES = ("toric_hypergeometric", "invariant_table")
TAU_D_SOURCES = ("zero", "table")
TABLE_KINDS = ("x_point", "d_point")
SECTIONS = ("algebra.ambient", "algebra.divisor", "restriction", "pair", "truncation", "toric")
PAIR_KEYS = ("name", "divisor_class", "novikov", "tau_d_source", "invariants")
# why τ_D = 0, by the divisor's dimension: a Calabi-Yau curve or surface
ZERO_TAU_REASONS = {1: "elliptic_curve", 2: "k3"}


class InvariantTable:
    """One-point descendant invariants ⟨[pt] ψ^a⟩ of X (kind x_point) or D (d_point).

    Keys are (kind, curve-class exponents, psi power); values exact rationals.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[tuple[str, tuple[int, ...], int], Fraction], ...]):
        self.entries = entries

    def as_dict(self) -> dict[tuple[str, tuple[int, ...], int], Fraction]:
        return dict(self.entries)

    def rows_for(self, kind: str) -> list[tuple[tuple[int, ...], int, Fraction]]:
        return [(b, a, v) for (k, b, a), v in self.entries if k == kind]

    def is_empty_for(self, kind: str) -> bool:
        return not self.rows_for(kind)


def ingest_invariants(text: str) -> InvariantTable:
    """Parse the plain-text invariant table format.

    Columns (whitespace separated): kind, curve class as comma-joined
    exponents, psi power, insertion, value as p/q.  Lines starting with # are
    comments; a header row repeating the column names is allowed and skipped.
    """
    entries: dict[tuple[str, tuple[int, ...], int], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split()
        if cols[0] == "kind":
            continue  # header
        if len(cols) != 5:
            raise ConfigError(f"invariant table line {lineno}: need 5 columns, got {len(cols)}")
        kind, cls, psi, insertion, value = cols
        if kind not in TABLE_KINDS:
            raise ConfigError(
                f"invariant table line {lineno}: kind {kind!r} not in {TABLE_KINDS} "
                "(only one-point descendant point insertions are accepted)"
            )
        if insertion != "pt":
            raise ConfigError(
                f"invariant table line {lineno}: insertion must be 'pt', got {insertion!r}"
            )
        where = f"invariant table line {lineno}, column"
        beta = tuple(_number(int, f"{where} 2:", x) for x in cls.split(","))
        a = _number(int, f"{where} 3:", psi)
        val = _number(rat, f"{where} 5:", value)
        if a < 0 or any(b < 0 for b in beta):
            raise ConfigError(f"invariant table line {lineno}: negative class/psi data")
        key = (kind, beta, a)
        if entries.setdefault(key, val) != val:
            raise ConfigError(
                f"invariant table line {lineno}: duplicate key {key} gives {val}, "
                f"an earlier line gives {entries[key]}"
            )
    return InvariantTable(tuple(entries.items()))


def format_invariants(table: InvariantTable) -> str:
    lines = ["kind\tclass\tpsi\tinsertion\tvalue"]
    for (kind, beta, a), v in table.entries:
        lines.append(f"{kind}\t{','.join(map(str, beta))}\t{a}\tpt\t{v}")
    return "\n".join(lines) + "\n"


class IFactor(NamedTuple):
    """One net factor Π_{k=1}^{u·β}(u + kz)^e of the pair's I-function, derived at load."""

    cls: Element  # u, a nilpotent class of degree 1 in the span of the picard classes
    pairing: tuple[int, ...]  # u·β on each Novikov curve class
    exponent: int  # e: +1 for D and per bundle, −1 per denominator, merged over equal classes
    last: int  # u's last nonzero power


class PairGeometry:
    """One log Calabi-Yau pair (X, D) with its truncation and invariant data.

    ``factors`` are the net factors of its I-function and ``divisor_last`` is
    D's last nonzero power, which the pole 1/(D + (D·β)z) reads; the loader
    derives both, whatever the source.

    Read-only: `builtin_geometry` hands one instance per name to every caller
    in the process, so a variant is derived with `replace` (or
    `attach_invariants`), never by assigning to a field.
    """

    __slots__ = ("name", "ambient", "divisor", "restriction", "divisor_class", "picard",
                 "novikov_names", "m_vector", "policy", "j_source", "tau_d_source",
                 "factors", "divisor_last", "table")

    def __init__(
        self,
        name: str,
        ambient: GradedAlgebra,
        divisor: GradedAlgebra,
        restriction: RestrictionMap,
        divisor_class: Element,
        picard: tuple[Element, ...],
        novikov_names: tuple[str, ...],
        m_vector: tuple[int, ...],
        policy: TruncationPolicy,
        j_source: str,
        tau_d_source: str,
        factors: tuple[IFactor, ...],
        divisor_last: int,
        table: InvariantTable | None,
    ):
        self.name = name
        self.ambient = ambient
        self.divisor = divisor
        self.restriction = restriction
        self.divisor_class = divisor_class
        self.picard = picard  # degree-1 classes dual to the Novikov basis
        self.novikov_names = novikov_names
        self.m_vector = m_vector  # the divisor class on the picard classes: D·β per curve
        self.policy = policy
        self.j_source = j_source
        self.tau_d_source = tau_d_source
        self.factors = factors
        self.divisor_last = divisor_last
        self.table = table

    @property
    def nvars(self) -> int:
        return len(self.novikov_names)

    @property
    def tau_d_reason(self) -> str | None:
        """Why a zero divisor mirror map is zero: D is an elliptic curve or a K3 surface."""
        return ZERO_TAU_REASONS[self.divisor.top_degree] if self.tau_d_source == "zero" else None

    def contact_weight(self, beta: tuple[int, ...]) -> int:
        """D·β for a curve class."""
        return divisor_degree(self.m_vector, beta)

    def state_algebra(self, contact: int) -> GradedAlgebra:
        """The algebra a state at this contact order lives in: X's at 0, D's otherwise."""
        return self.ambient if contact == 0 else self.divisor

    def read_psi(self, kind: str, beta: tuple[int, ...]) -> int | None:
        """The ψ power at which a one-point row of this kind and class is read, or None.

        The one reading rule, which Givental's rule, the table gates, the quantum
        period and τ_D all ask: with d = D·β for an x_point row and d = −D·β for a
        d_point row, ⟨[pt] ψ^a⟩_β is read iff d ≥ 2 and a = d − 2 (dimension count).
        """
        d = self.contact_weight(beta) if kind == "x_point" else -self.contact_weight(beta)
        return d - 2 if d >= 2 else None

    def replace(self, **fields) -> "PairGeometry":
        """A copy with the named fields replaced, as in ``geom.replace(policy=p)``."""
        return PairGeometry(**{**{name: getattr(self, name) for name in self.__slots__}, **fields})


def divisor_degree(m_vector: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """D·β = m·β, the contact order of a curve class β against D = Σ m_i p_i."""
    return sum(map(mul, m_vector, beta))


def _expand_in_picard(picard: tuple[Element, ...], cls: Element) -> tuple[int, ...]:
    """Intersection numbers of a degree-1 class against the Novikov curve basis:
    its coordinates on the picard classes, which are dual to that basis by
    construction.  Raises when the class is not in their span or a coordinate
    is not an integer.

    The loader takes the picard classes to be the degree-1 basis elements,
    each once, so the expansion is a plain coefficient read-off, and the
    class is in their span when it has no coordinate off them."""
    coords = []
    on = set()
    row = {k: (n, d) for k, n, d in cls.support}
    for p in picard:
        k = p.support[0][0]
        n, d = row.get(k, (0, 1))
        if d != 1:
            raise ConfigError(f"non-integer intersection pairing for {cls!r}")
        coords.append(n)
        on.add(k)
    if any(k not in on for k in row):
        raise ConfigError(f"{cls!r} is not in the span of the picard classes")
    return tuple(coords)


# ---------------------------------------------------------------------------
# config parsing


def _number(kind, where: str, text: str):
    """kind(text) for kind = int or rat; a malformed value names where it stands."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        what = "an integer" if kind is int else "an exact rational p/q"
        raise ConfigError(f"{where} {text!r} is not {what}") from exc


def _and(names: tuple[str, ...]) -> str:
    return ", ".join(names[:-1]) + " and " + names[-1] if len(names) > 1 else names[0]


def _known_keys(section: configparser.SectionProxy, keys: tuple[str, ...]) -> None:
    for key in section:
        if key not in keys:
            raise ConfigError(f"[{section.name}] unknown key {key!r}: it takes {_and(keys)}")


def _index(alg: GradedAlgebra, section: str, name: str) -> int:
    if name not in alg.basis:
        raise ConfigError(f"[{section}] unknown class {name!r} in {alg.name}")
    return alg.basis.index(name)


def _parse_rows(value: str) -> list[list[str]]:
    rows = []
    for raw in value.strip().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


def _parse_algebra(section: configparser.SectionProxy, fallback_name: str) -> GradedAlgebra:
    _known_keys(section, ("name", "basis", "degrees", "unit", "point", "products", "integration"))
    try:
        basis = section["basis"].split()
        degrees = [_number(int, f"[{section.name}]", d) for d in section["degrees"].split()]
        unit = section["unit"]
    except KeyError as exc:
        raise ConfigError(f"[{section.name}] missing key: {exc}") from exc
    point = section.get("point")
    products: dict[tuple[str, str], dict[str, Fraction]] = {}
    for row in _parse_rows(section.get("products", "")):
        if len(row) != 4:
            raise ConfigError(
                f"[{section.name}] product rows are 'left right target coeff', got {row}"
            )
        a, b, k, c = row
        products.setdefault((a, b), {})[k] = _number(rat, f"[{section.name}]", c)
    integration = None
    if section.get("integration"):
        integration = {}
        for row in _parse_rows(section["integration"]):
            if len(row) != 2:
                raise ConfigError(f"[{section.name}] integration rows are 'basis coeff'")
            integration[row[0]] = _number(rat, f"[{section.name}]", row[1])
    try:
        alg = GradedAlgebra.from_products(
            section.get("name", fallback_name), basis, degrees, products,
            unit=unit, point=point, integration=integration,
        )
    except AlgebraError as exc:
        raise ConfigError(f"[{section.name}]: {exc}") from exc
    problems = check_algebra(alg)
    if problems:
        raise ConfigError(f"[{section.name}] invalid ring: " + "; ".join(problems[:3]))
    try:
        alg.duals  # solved once, here: a degenerate pairing has no dual basis
    except AlgebraError as exc:
        raise ConfigError(f"[{section.name}] invalid ring: {exc}") from exc
    return alg


def _parse_class(alg: GradedAlgebra, expr: str, section: str) -> Element:
    """Parse linear combinations like '4*H + h - H2'."""
    coeffs = [Fraction(0)] * alg.dim
    expr = expr.replace("-", "+-").replace(" ", "")
    for term in expr.split("+"):
        if not term:
            continue
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "*" in term:
            c, name = term.split("*", 1)
            coeff = _number(rat, f"[{section}]", c)
        else:
            coeff, name = Fraction(1), term
        coeffs[_index(alg, section, name)] += coeff * sign
    return alg.element(coeffs)


def load_geometry(text: str, default_name: str = "geometry") -> PairGeometry:
    # No default section: a [DEFAULT] header parses as a section, refused below.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keep case of option values' keys
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        # configparser's own message spans lines and names the source '<string>'
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        if isinstance(exc, (configparser.DuplicateSectionError, configparser.DuplicateOptionError)):
            what = "repeats a section or key"
        elif isinstance(exc, configparser.MissingSectionHeaderError):
            what = "comes before any [section]"
        else:
            what = "is not a [section], key = value or continuation"
        raise ConfigError(f"config parse error at line {lineno}: {line!r} {what}") from exc

    if "DEFAULT" in cp:
        raise ConfigError("[DEFAULT] is not allowed: its keys would apply to every section")
    for needed in SECTIONS[:-1]:  # all but the optional [toric]
        if needed not in cp:
            raise ConfigError(f"missing [{needed}] section")
    for section in cp.sections():
        if section not in SECTIONS:
            raise ConfigError(f"[{section}] is not a section: a config takes {_and(SECTIONS)}")

    ambient = _parse_algebra(cp["algebra.ambient"], "ambient")
    divisor = _parse_algebra(cp["algebra.divisor"], "divisor")

    _known_keys(cp["restriction"], ("map",))
    images: dict[str, Element] = {}
    for row in _parse_rows(cp["restriction"].get("map", "")):
        if len(row) < 2 or len(row) % 2 != 1:
            raise ConfigError("restriction rows are 'source (target coeff)+'")
        src = row[0]
        if src not in ambient.basis:
            raise ConfigError(f"[restriction] unknown class {src!r} in {ambient.name}")
        img = [Fraction(0)] * divisor.dim
        for tname, c in zip(row[1::2], row[2::2]):
            img[_index(divisor, "restriction", tname)] += _number(rat, "[restriction]", c)
        images[src] = divisor.element(img)
    images.setdefault(ambient.basis[ambient.unit_index], divisor.unit())
    restriction = RestrictionMap(ambient, divisor, tuple(
        images.get(b, divisor.zero()).support for b in ambient.basis))
    problems = check_restriction(restriction)
    if problems:
        raise ConfigError("restriction is not a ring map: " + "; ".join(problems[:3]))

    pair = cp["pair"]
    _known_keys(pair, PAIR_KEYS)
    name = pair.get("name", default_name)
    try:
        divisor_class = _parse_class(ambient, pair["divisor_class"], "pair")
        novikov = tuple(pair["novikov"].split())
        tau_d_source = pair["tau_d_source"]
    except KeyError as exc:
        raise ConfigError(f"[pair] missing key: {exc}") from exc
    repeated = next((nm for k, nm in enumerate(novikov) if nm in novikov[:k]), None)
    if repeated is not None:
        raise ConfigError(f"[pair] novikov names {repeated!r} more than once")
    # the picard classes: every degree-1 basis class of X, in basis order
    picard_names = tuple(nm for nm, deg in zip(ambient.basis, ambient.degrees) if deg == 1)
    if len(novikov) != len(picard_names):
        raise ConfigError(
            f"[pair] novikov takes one variable per degree-1 class of {ambient.name} "
            f"({_and(picard_names) if picard_names else 'none'}), and names {len(novikov)}")
    picard = tuple(ambient.named(nm) for nm in picard_names)
    # the divisor class: homogeneous of degree 1 and integrally spanned by picard
    if any(ambient.degrees[i] != 1 for i, _, _ in divisor_class.support):
        raise ConfigError("divisor_class must be homogeneous of degree 1")
    m_vector = _expand_in_picard(picard, divisor_class)
    if tau_d_source not in TAU_D_SOURCES:
        raise ConfigError(f"tau_d_source must be one of {TAU_D_SOURCES}")
    if tau_d_source == "zero" and divisor.top_degree not in ZERO_TAU_REASONS:
        raise ConfigError(
            "[pair] tau_d_source = zero: zero-justification only applies to curve/surface "
            f"divisors, and {divisor.name} has top degree {divisor.top_degree}"
        )

    trunc = cp["truncation"]
    _known_keys(trunc, ("order", "weights"))
    order = _number(int, "[truncation]", trunc.get("order", "8"))
    if order < 2:
        raise ConfigError(f"[truncation] order must be at least 2, got {order}")
    if order >= sys.maxsize:
        raise ConfigError(f"[truncation] order must be below {sys.maxsize}, got {order}")
    weights_text = trunc.get("weights", "").split()
    weights = (
        tuple(_number(int, "[truncation]", x) for x in weights_text)
        if weights_text else (1,) * len(novikov)
    )
    try:
        policy = TruncationPolicy.make(len(novikov), order, weights)
    except ValueError as exc:
        raise ConfigError(f"[truncation]: {exc}") from exc

    toric = None
    if "toric" in cp:
        tsec = cp["toric"]
        _known_keys(tsec, ("denominators", "bundles"))
        dens, bundles = (
            tuple(_parse_class(ambient, expr.strip(), "toric")
                  for expr in tsec.get(key, "").split(";") if expr.strip())
            for key in ("denominators", "bundles"))
        if not dens:
            raise ConfigError("[toric] needs denominators")
        toric = (dens, bundles)

    table = None
    if pair.get("invariants"):
        # rows are numbered from the key's first row, as in a --table file
        table = ingest_invariants(pair["invariants"].lstrip("\n"))

    geom = PairGeometry(
        name=name, ambient=ambient, divisor=divisor, restriction=restriction,
        divisor_class=divisor_class, picard=picard, novikov_names=novikov, m_vector=m_vector,
        policy=policy, j_source=J_SOURCES[0] if toric else J_SOURCES[1],
        tau_d_source=tau_d_source, factors=_i_factors(ambient, picard, divisor_class, toric),
        divisor_last=len(_powers(ambient, divisor_class)) - 1, table=table,
    )
    _validate_geometry(geom)
    return geom


def _i_factors(
    ambient: GradedAlgebra,
    picard: tuple[Element, ...],
    divisor_class: Element,
    toric: tuple[tuple[Element, ...], tuple[Element, ...]] | None,
) -> tuple[IFactor, ...]:
    """The net factors of the I-function, after the checks on the toric data.

    Every pair has {D: +1}, the relative modification; a toric pair adds +1 per
    bundle and −1 per denominator.  Equal classes are merged (D's own ray
    cancels D's +1) and a net exponent 0 drops the class.  Every class is of
    degree 1 in the span of the picard classes, so nilpotent: its last power
    is read off the structure constants, with no Element product.
    """
    signed = []
    if toric is not None:
        dens, bundles = toric
        # D's own ray cancels, so only it may pair negatively
        for cls in [u for u in dens if u != divisor_class] + list(bundles):
            if any(x < 0 for x in _expand_in_picard(picard, cls)):
                raise ConfigError(
                    f"toric class {cls!r} pairs negatively with an effective curve class"
                )
        zero = ambient.zero()
        anti = sum(dens, zero) - sum(bundles, zero)
        if anti != divisor_class:
            # -K_X = Σ denominators − Σ bundles, for X a complete intersection in Y
            raise ConfigError(
                f"[pair] divisor_class {divisor_class!r} is not anticanonical: the [toric] "
                f"denominators less the bundles sum to {anti!r}"
            )
        signed = [(cls, 1) for cls in bundles] + [(cls, -1) for cls in dens]
    signed.append((divisor_class, 1))
    net: dict[Element, int] = {}
    for cls, e in signed:
        net[cls] = net.get(cls, 0) + e
    return tuple(
        IFactor(cls, _expand_in_picard(picard, cls), e, len(_powers(ambient, cls)) - 1)
        for cls, e in net.items() if e
    )


def _powers(alg: GradedAlgebra, u: Element) -> list[tuple[tuple[int, int, int], ...]]:
    """The sparse rows of u⁰ = 1, u¹, … through u's last nonzero power (`_monomials`)."""
    return [row for _, _, row in _monomials(alg, [u], [alg.top_degree + 1])]


def _validate_geometry(geom: PairGeometry) -> None:
    """The gate on the invariant rows, whether they come from the invariants key or
    are attached later (`attach_invariants`); the rest of the pair is checked
    once, by the loader."""
    table = geom.table or InvariantTable(())
    for (_, beta, _), _ in table.entries:
        if len(beta) != geom.nvars:
            raise ConfigError(
                f"table class {beta} has {len(beta)} components; "
                f"{geom.name} curve classes have {geom.nvars}"
            )
    x_rows, d_rows = table.rows_for("x_point"), table.rows_for("d_point")
    if _givental_gap(geom) is None:
        for beta, a, v in x_rows:
            want = _givental_value(geom, beta, a)
            if v != want:
                raise ConfigError(
                    f"table row x_point class {_class_str(beta)} psi^{a} = {v} contradicts "
                    f"the closed form of {geom.name}, which gives {want}"
                )
    elif geom.j_source == "toric_hypergeometric":
        _refuse_unread_rows(geom, "x_point", x_rows)
    if geom.j_source == "invariant_table" and not x_rows:
        raise MissingDataError(
            f"{geom.name}: j_source=invariant_table but no x_point rows supplied"
        )
    if geom.tau_d_source == "table":
        if not d_rows:
            raise MissingDataError(
                f"{geom.name}: [pair] tau_d_source=table but no d_point rows supplied"
            )
        _refuse_unread_rows(geom, "d_point", d_rows)
    if geom.tau_d_source == "zero" and d_rows:
        beta, a, _ = d_rows[0]
        raise ConfigError(
            f"table row d_point class {_class_str(beta)} psi^{a} contradicts "
            f"{geom.name}'s zero divisor mirror map (tau_d_reason = {geom.tau_d_reason}), "
            "which reads no d_point rows"
        )


def _refuse_unread_rows(geom: PairGeometry, kind: str, rows) -> None:
    """ConfigError at the first nonzero row that `PairGeometry.read_psi` never reads."""
    sign = "" if kind == "x_point" else "-"
    for beta, a, v in rows:
        if v and a != geom.read_psi(kind, beta):
            raise ConfigError(
                f"table row {kind} class {_class_str(beta)} psi^{a} = {v} is never "
                f"read: {geom.name} reads {kind} rows only at psi^({sign}D.beta - 2) "
                f"with {sign}D.beta >= 2, and this class has D.beta = {geom.contact_weight(beta)}"
            )


def _class_str(beta: tuple[int, ...]) -> str:
    return ",".join(map(str, beta))


def attach_invariants(geom: PairGeometry, extra: InvariantTable) -> PairGeometry:
    """The geometry with extra rows merged into its table, every row re-validated.

    A row whose key the table already holds with another value is refused.
    """
    merged = geom.table.as_dict() if geom.table is not None else {}
    for key, value in extra.entries:
        if merged.setdefault(key, value) != value:
            raise ConfigError(f"table entry {key} conflicts with the geometry's own value")
    geom = geom.replace(table=InvariantTable(tuple(merged.items())))
    _validate_geometry(geom)
    return geom


# ---------------------------------------------------------------------------
# builtin catalog


BUILTIN_CONFIGS: dict[str, str] = {
    "p2_cubic": """
[algebra.ambient]
name = proj_plane
basis = one H H2
degrees = 0 1 2
unit = one
point = H2
products =
    H H H2 1

[algebra.divisor]
name = cubic_curve
basis = one p
degrees = 0 1
unit = one
point = p

[restriction]
map =
    one one 1
    H p 3

[pair]
name = p2_cubic
divisor_class = 3*H
novikov = y
tau_d_source = zero

[toric]
denominators = H; H; H

[truncation]
order = 8
weights = 1
""",
    "p3_quartic": """
[algebra.ambient]
name = proj_space
basis = one H H2 H3
degrees = 0 1 2 3
unit = one
point = H3
products =
    H H H2 1
    H H2 H3 1

[algebra.divisor]
name = quartic_k3
basis = one h p
degrees = 0 1 2
unit = one
point = p
products =
    h h p 4

[restriction]
map =
    one one 1
    H h 1
    H2 p 4

[pair]
name = p3_quartic
divisor_class = 4*H
novikov = y
tau_d_source = zero

[toric]
denominators = H; H; H; H

[truncation]
order = 8
weights = 1
""",
    "blp3_k3": """
# Hypersurface of class 4H+h in the projective bundle P(O(-1)+O) over proj 3-space,
# with the K3 divisor cut by the section of class h-H.  The bundle relation is
# h*h = H*h.  Since h*(h-H) = 0, h restricts to 0 on the divisor and H to its
# hyperplane class, so the pushforward of the divisor's unit is (4H+h)(h-H).
[algebra.ambient]
name = bundle_ambient
basis = one H h H2 Hh H3 H2h H3h
degrees = 0 1 1 2 2 3 3 4
unit = one
point = H3h
products =
    H H H2 1
    H h Hh 1
    h h Hh 1
    H H2 H3 1
    H Hh H2h 1
    h H2 H2h 1
    h Hh H2h 1
    H H2h H3h 1
    h H3 H3h 1
    h H2h H3h 1
    H2 Hh H3h 1
    Hh Hh H3h 1

[algebra.divisor]
name = blp3_k3_divisor
basis = one h p
degrees = 0 1 2
unit = one
point = p
products =
    h h p 4

[restriction]
map =
    one one 1
    H h 1
    H2 p 4

[pair]
name = blp3_k3
divisor_class = h - H
novikov = q1 q0
tau_d_source = zero

[toric]
denominators = H; H; H; H; h; h - H
bundles = 4*H + h

[truncation]
order = 5
weights = 1 1
""",
}


@functools.cache
def builtin_geometry(name: str) -> PairGeometry:
    """The shipped pair `name`, loaded and checked once per process.

    Every call with one name returns the same read-only `PairGeometry`; an
    unknown name raises `ConfigError` on every call.
    """
    if name not in BUILTIN_CONFIGS:
        raise ConfigError(
            f"unknown builtin geometry {name!r}; have {sorted(BUILTIN_CONFIGS)}"
        )
    return load_geometry(BUILTIN_CONFIGS[name], name)


def tabulate_one_point_invariants(geom: PairGeometry, t_order: int) -> InvariantTable:
    """Materialize the ⟨[pt] ψ^{d-2}⟩ one-point invariants through t-degree t_order.

    Givental's rule gives them at every class β ≥ 0 with m·β ≤ t_order where
    it reads the pair; any other geometry re-emits its x_point rows.  Used by
    the period comparison's table round trip and the negative control.
    """
    require_quantum_source(geom)
    if _givental_gap(geom) is not None:
        return InvariantTable(tuple(
            (("x_point", beta, a), v) for beta, a, v in geom.table.rows_for("x_point")))
    # Givental's rule reads only pairs with every m_i >= 2, so m serves as weights
    classes = TruncationPolicy(geom.m_vector, t_order).classes()
    return InvariantTable(tuple(
        (("x_point", beta, a), _givental_value(geom, beta, a))
        for beta in classes if (a := geom.read_psi("x_point", beta)) is not None))


def _givental_gap(geom: PairGeometry) -> str | None:
    """None when Givental's rule gives the pair's one-point invariants, else why not.

    It reads a toric X with D anticanonical: a toric pair whose only positive net
    factor is D, with exponent +1.  The quantum period is then e^{−ct} times its
    sum (Coates–Corti–Galkin–Kasprzyk 2016), and c = 0 when every m_i ≥ 2."""
    positive = [(f.cls, f.exponent) for f in geom.factors if f.exponent > 0]
    if geom.j_source != "toric_hypergeometric" or positive != [(geom.divisor_class, 1)]:
        return "supply an x_point table"
    if min(geom.m_vector) < 2:
        return (
            f"Givental's rule needs every m_i >= 2, and m = {_class_str(geom.m_vector)}: "
            "a smaller m_i can make its e^(-ct) correction nonzero (c != 0), which is "
            "not implemented; supply an x_point table"
        )
    return None


def _givental_value(geom: PairGeometry, beta: tuple[int, ...], a: int) -> Fraction:
    """⟨[pt] ψ^a⟩_β by Givental's rule, 1/Π_ρ (D_ρ·β)!: Π 1/((u·β)!)^{−e} over the
    negative net factors u of `PairGeometry.factors` when `PairGeometry.read_psi`
    reads ψ^a at β, 0 otherwise (Givental 1998)."""
    if a != geom.read_psi("x_point", beta):
        return Fraction(0)
    return Fraction(1, math.prod(math.factorial(divisor_degree(f.pairing, beta)) ** -f.exponent
                                 for f in geom.factors if f.exponent < 0))


def require_quantum_source(geom: PairGeometry) -> None:
    """Raise MissingDataError when nothing supplies the one-point invariants."""
    gap = _givental_gap(geom)
    if gap is not None and (geom.table is None or geom.table.is_empty_for("x_point")):
        raise MissingDataError(f"{geom.name}: no invariant source for the quantum side ({gap})")
