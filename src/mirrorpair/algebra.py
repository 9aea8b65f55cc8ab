"""Finite-dimensional graded-commutative algebras with exact rational coefficients.

Cohomology rings enter the pipeline as explicit multiplication tables: a basis,
integer (complex) degrees, sparse structure constants, a unit, and an integration
functional.  Everything downstream (series coefficients, intersection numbers,
pushforwards) is exact.  An element is a sparse row of integer (index,
numerator, denominator) triples, and only this module makes its dense view.

Degrees are complex degrees: a surface class on a threefold has degree 1, the
point class degree 3.  All our algebras are evenly graded in the topological
sense, so multiplication is plainly commutative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints / 'p/q' strings / Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class AlgebraError(ValueError):
    pass


class GradedAlgebra:
    """A graded-commutative ring presented by its sparse structure constants.

    ``constants[i][j]`` is the product e_i·e_j as a sparse row of (k,
    numerator, denominator) triples, the form `_rows` returns, read by
    `sum_of_products`; an `Element` is such a row too, and `element` is the
    one way in from dense coefficients.  ``integration`` is the linear
    functional used for intersection pairings; by default it reads off the
    coefficient of the point class.
    """

    __slots__ = ("name", "basis", "degrees", "constants", "unit_index", "integration")

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        degrees: tuple[int, ...],
        constants: tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...],
        unit_index: int,
        integration: tuple[Fraction, ...],
    ):
        self.name = name
        self.basis = basis
        self.degrees = degrees
        self.constants = constants
        self.unit_index = unit_index
        self.integration = integration

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_products(
        name: str,
        basis: Sequence[str],
        degrees: Sequence[int],
        products: Mapping[tuple[str, str], Mapping[str, Fraction | int | str]],
        unit: str,
        point: str | None = None,
        integration: Mapping[str, Fraction | int | str] | None = None,
    ) -> "GradedAlgebra":
        """Build from sparse products of non-unit basis pairs.

        Products involving the unit are implied; any pair not listed (in either
        order) multiplies to zero, and of a pair listed in both orders the
        last one listed holds.
        """
        basis = tuple(basis)
        degrees = tuple(int(d) for d in degrees)
        if len(basis) != len(degrees):
            raise AlgebraError(f"{name}: basis/degrees length mismatch")
        if len(set(basis)) != len(basis):
            raise AlgebraError(f"{name}: duplicate basis names")
        index = {b: i for i, b in enumerate(basis)}
        if unit not in index:
            raise AlgebraError(f"{name}: unknown unit {unit!r}")
        ui = index[unit]
        if degrees[ui] != 0:
            raise AlgebraError(f"{name}: unit must have degree 0")
        if point is not None and point not in index:
            raise AlgebraError(f"{name}: unknown point class {point!r}")
        n = len(basis)
        consts = [[()] * n for _ in range(n)]
        for i in range(n):
            consts[ui][i] = consts[i][ui] = ((i, 1, 1),)
        for (a, b), img in products.items():
            if a not in index or b not in index:
                raise AlgebraError(f"{name}: product names unknown: {a}*{b}")
            i, j = index[a], index[b]
            if ui in (i, j):
                raise AlgebraError(f"{name}: unit products are implied, do not list {a}*{b}")
            row = {}
            for k_name, c in img.items():
                if k_name not in index:
                    raise AlgebraError(f"{name}: unknown target {k_name} in {a}*{b}")
                row[index[k_name]] = rat(c)
            consts[i][j] = consts[j][i] = tuple(
                (k, c.numerator, c.denominator) for k, c in sorted(row.items()) if c
            )
        integ = [Fraction(0)] * n
        if integration is not None:
            for k_name, c in integration.items():
                if k_name not in index:
                    raise AlgebraError(f"{name}: unknown integration class {k_name!r}")
                integ[index[k_name]] = rat(c)
        elif point is not None:
            integ[index[point]] = Fraction(1)
        else:
            raise AlgebraError(f"{name}: need a point class or an integration functional")
        return GradedAlgebra(name, basis, degrees, tuple(map(tuple, consts)), ui, tuple(integ))

    # -- elements ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def zero(self) -> "Element":
        return Element(self, ())

    def unit(self) -> "Element":
        return self.basis_element(self.unit_index)

    def basis_element(self, i: int) -> "Element":
        return Element(self, ((i, 1, 1),))

    def named(self, name: str) -> "Element":
        return self.basis_element(self.basis.index(name))

    def element(self, coeffs: Iterable) -> "Element":
        c = tuple(rat(x) for x in coeffs)
        if len(c) != self.dim:
            raise AlgebraError(f"{self.name}: wrong coefficient count")
        return Element(self, _sparse(c))


class Element:
    """A class held as ``support``, the canonical sparse row `_rows` returns: rising
    distinct indices, nonzero numerators and positive denominators coprime to
    them.  Zero is the empty row, and equal classes have equal rows.
    """

    def __init__(self, algebra: GradedAlgebra, support: tuple[tuple[int, int, int], ...]):
        self.algebra = algebra
        self.support = support

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self._sum(((self.support, 1, 1), (other.support, 1, 1)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self._sum(((self.support, 1, 1), (other.support, -1, 1)))

    def __neg__(self) -> "Element":
        return self._sum(((self.support, -1, 1),))

    def __mul__(self, other):
        if isinstance(other, Element):
            return sum_of_products(self.algebra, ((self, other),))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Element":
        c = rat(c)
        return self._sum(((self.support, c.numerator, c.denominator),))

    def _sum(self, terms) -> "Element":
        return Element(self.algebra, _rows(terms, self.algebra.dim))

    def _check(self, other: "Element") -> None:
        if self.algebra is not other.algebra:
            raise AlgebraError(
                f"mixing elements of {self.algebra.name} and {other.algebra.name}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.support == other.support
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.support))

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The dense view: one Fraction per basis class."""
        out = [_ZERO] * self.algebra.dim
        for k, n, d in self.support:
            out[k] = Fraction(n, d)
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.support

    def unit_component(self) -> Fraction:
        u = self.algebra.unit_index
        return next((Fraction(n, d) for k, n, d in self.support if k == u), _ZERO)

    def integrate(self) -> Fraction:
        w = self.algebra.integration
        return sum((Fraction(n, d) * w[k] for k, n, d in self.support), _ZERO)

    def power(self, k: int) -> "Element":
        if k < 0:
            raise AlgebraError("negative power of an algebra element")
        out = self.algebra.unit()
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        parts = [
            ("" if (n, d) == (1, 1) else f"{n}*" if d == 1 else f"{n}/{d}*")
            + self.algebra.basis[k]
            for k, n, d in self.support
        ]
        return " + ".join(parts) if parts else "0"


def _sparse(coeffs: Iterable[Fraction]) -> tuple[tuple[int, int, int], ...]:
    """The nonzero coordinates as (index, numerator, denominator) triples."""
    return tuple((k, c.numerator, c.denominator) for k, c in enumerate(coeffs) if c)


def _rows(
    terms: Iterable[tuple[tuple[tuple[int, int, int], ...], int, int]], dim: int
) -> tuple[tuple[int, int, int], ...]:
    """Σ (n/d)·row over (row, n, d) terms, rows sparse as in `_sparse`, as a sparse row.

    Each output coordinate accumulates an integer numerator over an integer
    denominator, joined by their lcm.  The nonzero ones come back as
    (index, numerator, denominator) triples reduced by their gcd, with a
    positive denominator; no Fraction is made.
    """
    num = [0] * dim
    den = [1] * dim
    for row, rn, rd in terms:
        for k, n, d in row:
            n *= rn
            d *= rd
            dk = den[k]
            if d == dk:
                num[k] += n
            else:
                m = lcm(dk, d)
                num[k] = num[k] * (m // dk) + n * (m // d)
                den[k] = m
    out = []
    for k, n in enumerate(num):
        if n:
            d = den[k]
            g = gcd(n, d)
            out.append((k, n // g, d // g))
    return tuple(out)


def sum_of_products(
    alg: GradedAlgebra, pairs: Iterable[tuple[Element, Element]]
) -> Element:
    """Σ a·b over the pairs (a, b) of elements of ``alg``, exactly.

    Only nonzero coordinates of the operands and nonzero structure constants
    are visited, and the sum is accumulated in integers by `_rows`.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if a.algebra is not alg or b.algebra is not alg:
            raise AlgebraError(
                f"mixing elements of {a.algebra.name} and {b.algebra.name} in {alg.name}"
            )
    constants = alg.constants
    terms = (
        (constants[i][j], an * bn, ad * bd)
        for a, b in pairs
        for i, an, ad in a.support
        for j, bn, bd in b.support
    )
    return Element(alg, _rows(terms, alg.dim))


def nilpotency_index(x: Element) -> int:
    """Least k with x^k = 0; raises if x is not nilpotent.

    Elements with no degree-0 component are nilpotent in any finite graded ring,
    with index at most top_degree + 1; that bound doubles as the loop guard.
    """
    bound = x.algebra.top_degree + 2
    p = x.algebra.unit()
    for k in range(bound + 1):
        if p.is_zero():
            return k
        p = p * x
    raise AlgebraError(f"{x!r} is not nilpotent in {x.algebra.name}")


# -- structure checks -------------------------------------------------------


def check_algebra(alg: GradedAlgebra) -> list[str]:
    """Commutativity / degree-additivity / unit check, then associativity.

    Returns a list of human-readable violations (empty = sound).  Everything
    is read off the sparse structure constants C[i][j] of e_i·e_j.

    The O(n²) checks run first, and a ring that fails one is refused on their
    problems alone.  Once they pass, these triples (i,j,k) are associative or
    settled by another, so the sweep skips them:

    * a triple holding the unit, which acts as the identity on both sides;
    * a triple whose degree sum is above the top degree: e_i·e_j is
      homogeneous of degree d_i + d_j, so every e_l·e_k it leads to lies above
      the top degree and is 0, and the same holds on the right;
    * a triple with i > k: by commutativity (e_i·e_j)·e_k = e_k·(e_j·e_i) and
      e_i·(e_j·e_k) = (e_k·e_j)·e_i, so it fails exactly when its mirror
      (k,j,i) does, and is reported with it;
    * a triple (i,j,i), whose two sides the same identities show equal.

    The two sides of a swept triple are `_rows` of the rows C[l][k]
    weighted by c_ij^l and of the rows C[i][l] weighted by c_jk^l.
    """
    problems: list[str] = []
    n = alg.dim
    consts = alg.constants
    degrees = alg.degrees
    top = alg.top_degree
    for i in range(n):
        for j in range(n):
            row = consts[i][j]
            if row != consts[j][i]:
                problems.append(f"{alg.name}: e{i}*e{j} != e{j}*e{i}")
            target = degrees[i] + degrees[j]
            for k, _, _ in row:
                if degrees[k] != target:
                    problems.append(
                        f"{alg.name}: degree of e{i}*e{j} component {alg.basis[k]} "
                        f"is {degrees[k]}, expected {target}"
                    )
            if target > top and row:
                problems.append(f"{alg.name}: e{i}*e{j} should vanish above top degree")
    u = alg.unit_index
    for i in range(n):
        if consts[u][i] != ((i, 1, 1),):
            problems.append(f"{alg.name}: unit fails on e{i}")
    if problems:
        return problems
    failing: set[tuple[int, int, int]] = set()
    rest = [i for i in range(n) if i != u]
    for i in rest:
        for j in rest:
            for k in rest:
                if k <= i or degrees[i] + degrees[j] + degrees[k] > top:
                    continue
                left = _rows(((consts[l][k], c, d) for l, c, d in consts[i][j]), n)
                right = _rows(((consts[i][l], c, d) for l, c, d in consts[j][k]), n)
                if left != right:
                    failing |= {(i, j, k), (k, j, i)}
    return [f"{alg.name}: associativity fails at ({i},{j},{k})" for i, j, k in sorted(failing)]


class RestrictionMap:
    """Ring homomorphism between two graded algebras, stored as basis images.

    ``rows`` holds the image of each source basis class as a sparse target
    row.  Built once with the map: ``gram``, the source pairing matrix; and
    ``cross``, the sparse rows k of ∫_target e_k ∪ r(e_j) over j, which
    `pairing_pushforward` reads.  The pushforwards of the target basis
    (``pushforward_rows``) are solved once, on first use.
    """

    def __init__(
        self,
        source: GradedAlgebra,
        target: GradedAlgebra,
        rows: tuple[tuple[tuple[int, int, int], ...], ...],
    ):
        self.source = source
        self.target = target
        self.rows = rows
        self.gram = tuple(map(tuple, pairing_matrix(source)))
        # ∫ e_k ∪ r(e_j) = Σ_b r(e_j)_b ∫ e_k·e_b, the target's pairing row k
        self.cross = tuple(
            _sparse(sum((Fraction(n, d) * pair[b] for b, n, d in row), _ZERO) for row in rows)
            for pair in pairing_matrix(target)
        )

    @cached_property
    def pushforward_rows(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The sparse source rows of `pairing_pushforward` of each target basis
        class, solved on first use.  The pushforward is linear, so these rows
        weighted by v's coordinates give it at any v."""
        tgt = self.target
        return tuple(
            pairing_pushforward(self, tgt.basis_element(k)).support for k in range(tgt.dim)
        )

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.source:
            raise AlgebraError("restricting an element of the wrong algebra")
        rows = self.rows
        terms = ((rows[i], n, d) for i, n, d in x.support)
        return Element(self.target, _rows(terms, self.target.dim))


def check_restriction(rm: RestrictionMap) -> list[str]:
    """Verify multiplicativity on every basis pair, plus unit and degrees.

    Both sides of r(e_i·e_j) = r(e_i)·r(e_j) are one `_rows` each: the
    image rows weighted by the source constants C[i][j], and the target
    constants weighted by the products of the image rows of e_i and e_j.
    """
    problems: list[str] = []
    src, tgt = rm.source, rm.target
    rows, consts, dim = rm.rows, tgt.constants, tgt.dim
    if rows[src.unit_index] != ((tgt.unit_index, 1, 1),):
        problems.append(f"{src.name}->{tgt.name}: unit not preserved")
    for i in range(src.dim):
        for k, _, _ in rows[i]:
            if tgt.degrees[k] != src.degrees[i]:
                problems.append(
                    f"{src.name}->{tgt.name}: image of {src.basis[i]} "
                    f"not homogeneous of degree {src.degrees[i]}"
                )
        for j in range(src.dim):
            left = _rows(((rows[l], n, d) for l, n, d in src.constants[i][j]), dim)
            right = _rows(
                ((consts[a][b], an * bn, ad * bd)
                 for a, an, ad in rows[i] for b, bn, bd in rows[j]),
                dim,
            )
            if left != right:
                problems.append(
                    f"{src.name}->{tgt.name}: not multiplicative on "
                    f"{src.basis[i]}*{src.basis[j]}"
                )
    return problems


# -- exact linear algebra ----------------------------------------------------


def solve_exact(
    matrix: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> list[Fraction]:
    """Solve M x = b over the rationals by Gaussian elimination.

    Underdetermined systems return the particular solution with free
    coordinates set to zero; inconsistent systems raise AlgebraError.
    """
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
    nrows = len(m)
    ncols = len(matrix[0]) if nrows else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            raise AlgebraError("inconsistent linear system (no exact solution)")
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = m[row][ncols]
    return x


def pairing_matrix(alg: GradedAlgebra) -> list[list[Fraction]]:
    """The Gram matrix ∫ e_i·e_j, read off the structure constants and the integration."""
    w = alg.integration
    return [[sum((Fraction(n, d) * w[k] for k, n, d in c if w[k]), _ZERO) for c in row]
            for row in alg.constants]


def pairing_pushforward(rm: RestrictionMap, v: Element) -> Element:
    """The pairing transpose of a restriction map.

    Returns the source-algebra class P(v) with  ∫_source P(v)∪e = ∫_target v∪r(e)
    for every basis class e.  For an honest divisor inclusion this is the
    cohomology pushforward; e.g. the image of the target's unit is the divisor
    class itself.
    """
    if v.algebra is not rm.target:
        raise AlgebraError("pushforward argument lives in the wrong algebra")
    src = rm.source
    rhs = Element(src, _rows(((rm.cross[k], n, d) for k, n, d in v.support), src.dim))
    return src.element(solve_exact(rm.gram, rhs.coeffs))
