"""Geometry catalog: pair descriptions, config parsing, invariant tables.

A *pair geometry* bundles everything the pipeline needs about a log Calabi-Yau
pair (X, D): the ambient cohomology ring, the divisor's ring, the restriction
homomorphism between them, the divisor's class, the Novikov variables with
their intersection numbers against D (the m-vector, read off the divisor
class), truncation policy, and where the absolute-invariant input comes from
(a closed form, a toric hypergeometric template, or an ingested table of
one-point invariants).

Geometries are described by INI-style config text (see BUILTIN_CONFIGS for the
three shipped pairs) so that external geometries can be supplied as files.
"""

from __future__ import annotations

import configparser
import functools
import math
import sys
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    RestrictionMap,
    _rows,
    check_algebra,
    check_restriction,
    rat,
)
from .series import TruncationPolicy


class ConfigError(ValueError):
    pass


class MissingDataError(ValueError):
    """An operation needs invariant data that was not supplied."""


J_SOURCES = ("closed_form_projective", "toric_hypergeometric", "invariant_table")
TAU_D_SOURCES = ("zero", "table")
TABLE_KINDS = ("x_point", "d_point")
SECTIONS = ("algebra.ambient", "algebra.divisor", "restriction", "pair", "truncation", "toric")
PAIR_KEYS = ("name", "divisor_class", "picard", "novikov", "j_source", "tau_d_source", "invariants")
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


class ToricData:
    """Denominator divisor classes and bundle (numerator) classes of the template."""

    __slots__ = ("denominators", "bundles")

    def __init__(self, denominators: tuple[Element, ...], bundles: tuple[Element, ...]):
        self.denominators = denominators
        self.bundles = bundles


class PairGeometry:
    """One log Calabi-Yau pair (X, D) with its truncation and invariant data.

    Read-only: `builtin_geometry` hands one instance per name to every caller
    in the process, so a variant is derived with `replace` (or
    `attach_invariants`), never by assigning to a field.
    """

    __slots__ = ("name", "ambient", "divisor", "restriction", "divisor_class", "picard",
                 "novikov_names", "m_vector", "policy", "j_source", "tau_d_source",
                 "toric", "table")

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
        toric: ToricData | None,
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
        self.toric = toric
        self.table = table

    @property
    def nvars(self) -> int:
        return len(self.novikov_names)

    @property
    def tau_d_reason(self) -> str | None:
        """Why a zero divisor mirror map is zero: D is an elliptic curve or a K3 surface."""
        return ZERO_TAU_REASONS[self.divisor.top_degree] if self.tau_d_source == "zero" else None

    def pairing(self, cls: Element) -> tuple[int, ...]:
        """Intersection numbers of a degree-1 class against the Novikov curve basis.

        Works by expanding the class over the picard classes (which are dual to
        the curve basis by construction); raises when the class is not in their
        span or the coordinates are not integers.
        """
        return _expand_in_picard(self.picard, cls)

    def contact_weight(self, beta: tuple[int, ...]) -> int:
        """D·β for a curve class."""
        return sum(m * b for m, b in zip(self.m_vector, beta))

    def replace(self, **fields) -> "PairGeometry":
        """A copy with the named fields replaced, as in ``geom.replace(policy=p)``."""
        return PairGeometry(**{**{name: getattr(self, name) for name in self.__slots__}, **fields})


def _expand_in_picard(picard: tuple[Element, ...], cls: Element) -> tuple[int, ...]:
    # The picard classes must be basis elements, which keeps the expansion a
    # plain coefficient read-off; any other picard class is refused, and so is
    # a repeated one.  The class is in their span when it has no coordinate
    # off them.
    coords = []
    on = set()
    row = {k: (n, d) for k, n, d in cls.support}
    for p in picard:
        support = p.support
        if len(support) != 1 or support[0][1:] != (1, 1):
            raise ConfigError("picard classes must be single basis elements")
        k = support[0][0]
        if k in on:
            raise ConfigError(f"picard class {p!r} is repeated")
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
        picard_names = pair["picard"].split()
        novikov = tuple(pair["novikov"].split())
        j_source = pair["j_source"]
        tau_d_source = pair["tau_d_source"]
    except KeyError as exc:
        raise ConfigError(f"[pair] missing key: {exc}") from exc
    for key, names in (("picard", picard_names), ("novikov", novikov)):
        repeated = next((nm for k, nm in enumerate(names) if nm in names[:k]), None)
        if repeated is not None:
            raise ConfigError(f"[pair] {key} names {repeated!r} more than once")

    picard = tuple(ambient.basis_element(_index(ambient, "pair", nm)) for nm in picard_names)
    for p, nm in zip(picard, picard_names):
        if ambient.degrees[ambient.basis.index(nm)] != 1:
            raise ConfigError(f"picard class {nm} is not degree 1")
    if len(picard) != len(novikov):
        raise ConfigError("picard / novikov arity mismatch")
    # the divisor class: homogeneous of degree 1 and integrally spanned by picard
    if any(ambient.degrees[i] != 1 for i, _, _ in divisor_class.support):
        raise ConfigError("divisor_class must be homogeneous of degree 1")
    m_vector = _expand_in_picard(picard, divisor_class)
    if j_source not in J_SOURCES:
        raise ConfigError(f"j_source must be one of {J_SOURCES}")
    if tau_d_source not in TAU_D_SOURCES:
        raise ConfigError(f"tau_d_source must be one of {TAU_D_SOURCES}")
    if "toric" in cp and j_source != "toric_hypergeometric":
        raise ConfigError("[toric] is read only with j_source = toric_hypergeometric")
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
        dens = tuple(
            _parse_class(ambient, expr.strip(), "toric")
            for expr in tsec.get("denominators", "").split(";")
            if expr.strip()
        )
        bundles = tuple(
            _parse_class(ambient, expr.strip(), "toric")
            for expr in tsec.get("bundles", "").split(";")
            if expr.strip()
        )
        if not dens or not bundles:
            raise ConfigError("[toric] needs denominators and bundles")
        toric = ToricData(dens, bundles)

    table = None
    if pair.get("invariants"):
        # rows are numbered from the key's first row, as in a --table file
        table = ingest_invariants(pair["invariants"].lstrip("\n"))

    geom = PairGeometry(
        name=name, ambient=ambient, divisor=divisor, restriction=restriction,
        divisor_class=divisor_class, picard=picard, novikov_names=novikov,
        m_vector=m_vector, policy=policy, j_source=j_source,
        tau_d_source=tau_d_source, toric=toric, table=table,
    )
    _validate_geometry(geom)
    return geom


def _validate_geometry(geom: PairGeometry) -> None:
    if geom.j_source == "closed_form_projective":
        if geom.nvars != 1:
            raise ConfigError("closed_form_projective is single-variable")
        # the ring of P^n is Q[H]/H^(n+1): n + 1 classes, the powers of H, and ∫H^n = 1
        amb, H = geom.ambient, geom.picard[0]
        n = amb.top_degree
        top = _integral_of_top_power(amb, H.support[0][0])
        if amb.dim != n + 1 or top != 1:
            raise ConfigError(
                f"[pair] j_source = closed_form_projective needs the ring of P^{n}, "
                f"Q[{H!r}]/{H!r}^{n + 1} with the integral of {H!r}^{n} equal to 1; "
                f"{amb.name} has {amb.dim} basis classes and the integral of {H!r}^{n} is {top}"
            )
        # D = m·H on the one picard class H; P^n has top degree n and -K = (n + 1)·H
        m = geom.m_vector[0]
        if m != n + 1:
            raise ConfigError(
                f"[pair] divisor_class has m = {m}, so it is not anticanonical: the closed "
                f"form needs m = top degree + 1 = {n + 1}"
            )
    if geom.j_source == "toric_hypergeometric":
        if geom.toric is None:
            raise ConfigError("[pair] j_source = toric_hypergeometric needs a [toric] section")
        for cls in geom.toric.denominators + geom.toric.bundles:
            pv = geom.pairing(cls)
            if any(x < 0 for x in pv):
                raise ConfigError(
                    f"toric class {cls!r} pairs negatively with an effective curve class"
                )
        total_den = geom.ambient.zero()
        for cls in geom.toric.denominators:
            total_den = total_den + cls
        total_bun = geom.ambient.zero()
        for cls in geom.toric.bundles:
            total_bun = total_bun + cls
        if total_den != total_bun:
            # log Calabi-Yau bookkeeping: denominators + relative class must sum
            # to the anticanonical class = bundles + relative class
            raise ConfigError(
                "toric data violates the log Calabi-Yau condition: "
                "sum(denominators) != sum(bundles)"
            )
    # invariant rows: one gate, whether they come from the invariants key or
    # are attached later (attach_invariants)
    table = geom.table or InvariantTable(())
    for (_, beta, _), _ in table.entries:
        if len(beta) != geom.nvars:
            raise ConfigError(
                f"table class {beta} has {len(beta)} components; "
                f"{geom.name} curve classes have {geom.nvars}"
            )
    x_rows, d_rows = table.rows_for("x_point"), table.rows_for("d_point")
    if geom.j_source == "closed_form_projective" and x_rows:
        # the closed form gives 1/(d!)^{n+1} at psi^{D.beta-2} and 0 elsewhere
        top = max(geom.contact_weight(beta) for beta, _, _ in x_rows)
        closed = tabulate_one_point_invariants(geom, top).as_dict()
        for beta, a, v in x_rows:
            want = closed.get(("x_point", beta, a), 0)
            if v != want:
                raise ConfigError(
                    f"table row x_point class {_class_str(beta)} psi^{a} = {v} contradicts "
                    f"the closed form of {geom.name}, which gives {want}"
                )
    if geom.j_source == "toric_hypergeometric":
        # the quantum period reads psi^{D.beta-2} at D.beta >= 2 only (dimension count)
        for beta, a, v in x_rows:
            d = geom.contact_weight(beta)
            if v and (d < 2 or a != d - 2):
                raise ConfigError(
                    f"table row x_point class {_class_str(beta)} psi^{a} = {v} is never "
                    f"read: {geom.name} reads x_point rows only at psi^(D.beta - 2) "
                    f"with D.beta >= 2, and this class has D.beta = {d}"
                )
    if geom.j_source == "invariant_table" and not x_rows:
        raise MissingDataError(
            f"{geom.name}: j_source=invariant_table but no x_point rows supplied"
        )
    if geom.tau_d_source == "table":
        if not d_rows:
            raise MissingDataError(
                f"{geom.name}: [pair] tau_d_source=table but no d_point rows supplied"
            )
        # the divisor mirror map reads psi^{-D.beta-2} at -D.beta >= 2 only
        for beta, a, v in d_rows:
            d = -geom.contact_weight(beta)
            if v and (d < 2 or a != d - 2):
                raise ConfigError(
                    f"table row d_point class {_class_str(beta)} psi^{a} = {v} is never "
                    f"read: {geom.name} reads d_point rows only at psi^(-D.beta - 2) "
                    f"with -D.beta >= 2, and this class has D.beta = {-d}"
                )
    if geom.tau_d_source == "zero" and d_rows:
        beta, a, _ = d_rows[0]
        raise ConfigError(
            f"table row d_point class {_class_str(beta)} psi^{a} contradicts "
            f"{geom.name}'s zero divisor mirror map (tau_d_reason = {geom.tau_d_reason}), "
            "which reads no d_point rows"
        )


def _integral_of_top_power(alg: GradedAlgebra, h: int) -> Fraction:
    """∫e_h^n for n the top degree, multiplied up on the sparse structure constants."""
    row = ((h, 1, 1),)
    for _ in range(alg.top_degree - 1):
        row = _rows(((alg.constants[l][h], c, d) for l, c, d in row), alg.dim)
    return sum((Fraction(c, d) * alg.integration[l] for l, c, d in row), Fraction(0))


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
picard = H
novikov = y
j_source = closed_form_projective
tau_d_source = zero

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
picard = H
novikov = y
j_source = closed_form_projective
tau_d_source = zero

[truncation]
order = 8
weights = 1
""",
    "blp3_k3": """
# Hypersurface of class 4H+h in the projective bundle P(O(-1)+O) over proj 3-space,
# with the K3 divisor cut by the section of class h-H.  The bundle relation is
# h*h = H*h; the restriction identifies both degree-1 classes on the divisor.
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
    h h 1
    H2 p 4
    Hh p 4

[pair]
name = blp3_k3
divisor_class = h - H
picard = H h
novikov = q1 q0
j_source = toric_hypergeometric
tau_d_source = zero

[toric]
denominators = H; H; H; H; h
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

    For the closed-form projective route these are 1/(d'!)^{n+1} at curve degree
    d' (t-degree d = m d'); any other geometry re-emits its x_point rows.  Used
    by the period comparison's table round trip and the negative control.
    """
    require_quantum_source(geom)
    if geom.j_source != "closed_form_projective":
        rows = [
            (("x_point", beta, a), v)
            for (beta, a, v) in geom.table.rows_for("x_point")
        ]
        return InvariantTable(tuple(rows))
    m = geom.m_vector[0]
    n = m - 1
    rows = []
    d1 = 1
    while m * d1 <= t_order:
        d = m * d1
        if d >= 2:
            rows.append((("x_point", (d1,), d - 2), Fraction(1, math.factorial(d1) ** (n + 1))))
        d1 += 1
    return InvariantTable(tuple(rows))


def require_quantum_source(geom: PairGeometry) -> None:
    """Raise MissingDataError when nothing supplies the one-point invariants."""
    if geom.j_source != "closed_form_projective" and (
        geom.table is None or geom.table.is_empty_for("x_point")
    ):
        raise MissingDataError(
            f"{geom.name}: no invariant source for the quantum side "
            "(supply an x_point table)"
        )
