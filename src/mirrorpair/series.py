"""Truncated exact formal series: Novikov variables, z-Laurent polynomials, x-Laurent tails.

Three series shapes live here:

* `NovikovSeries` — polynomial truncations of power series in finitely many
  Novikov variables with `Fraction` coefficients, truncated by a weighted total
  degree.  Carries ring operations plus exp/log/reciprocal and the per-variable
  Euler operator.  exp and reciprocal solve their defining recurrence (the
  weighted Euler identity E(e^f) = e^f·E(f), resp. f·(1/f) = 1) monomial by
  monomial in order of weight, at the cost of one product, O(N²) in the
  number N of stored terms; log is E(f)·(1/f) divided back by the weight.
  Products and recurrences accumulate the way `algebra.sum_of_products`
  does: each output monomial sums integer numerators over lcm-joined integer
  denominators (`_accumulate`) and becomes one Fraction at the end.  Their
  results skip the public constructor's key checks (`_kernel_output`).

* `ZLaurentElement` — exact z-Laurent polynomials with coefficients in a
  graded algebra.  No pipeline code builds one: the I-function template works
  on the scalar rows of `ifunctions`.  It stays only for the test oracles,
  which multiply hypergeometric links out literally, and for the benchmark's
  trace of its product; it leaves with `nilpotent_reciprocal` once neither
  reads it.

* `XLaurentSeries` — Laurent series in the potential variable x whose
  coefficients are single-variable polynomials in t; exponents in x are exact
  integers of either sign, t is truncated at a stated order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

from .algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    nilpotency_index,
    rat,
    sum_of_products,
)


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    """a·b on dense integer coefficient lists (index = exponent), kept through x^n.

    The one truncated integer convolution: the chain rows of `ifunctions` and
    the polynomial kernels of `inversion` both run on it.
    """
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: len(out)]):
        if ai:
            for j, bj in enumerate(b[: len(out) - i], i):
                out[j] += ai * bj
    return out


class TruncationError(ValueError):
    """A computation needs a higher truncation order than configured."""


class PipelineInvariantError(ValueError):
    """An intermediate result broke a shape the pipeline guarantees.

    Raised for a program fault, not for bad input: the CLI exits 3 on it.
    """


class TruncationPolicy:
    """Weighted total-degree truncation for Novikov exponents.

    Two policies are equal when their weights and order are: series under
    equal policies combine.
    """

    __slots__ = ("weights", "max_total")

    def __init__(self, weights: tuple[int, ...], max_total: int):
        self.weights = weights
        self.max_total = max_total

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncationPolicy):
            return NotImplemented
        return self.weights == other.weights and self.max_total == other.max_total

    def __hash__(self) -> int:
        return hash((self.weights, self.max_total))

    @staticmethod
    def make(
        nvars: int,
        max_total: int = 8,
        weights: tuple[int, ...] | None = None,
    ) -> "TruncationPolicy":
        if weights is None:
            weights = (1,) * nvars
        if len(weights) != nvars:
            raise ValueError("weights/arity mismatch")
        if any(w <= 0 for w in weights):
            raise ValueError("truncation weights must be positive")
        if max_total < 0:
            raise ValueError("truncation order must be nonnegative")
        return TruncationPolicy(tuple(weights), max_total)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def weight(self, exps: tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def admits(self, exps: tuple[int, ...]) -> bool:
        if len(exps) != self.nvars:
            raise ValueError("exponent arity mismatch")
        if any(e < 0 for e in exps):
            raise ValueError("Novikov exponents must be nonnegative")
        return self.weight(exps) <= self.max_total


class NovikovSeries:
    """Exact multivariate power series truncated by a TruncationPolicy."""

    __slots__ = ("policy", "terms")

    def __init__(self, policy: TruncationPolicy, terms: Mapping[tuple[int, ...], Fraction]):
        self.policy = policy
        clean = {}
        for k, v in terms.items():
            k = tuple(int(e) for e in k)
            v = rat(v)
            if v and policy.admits(k):
                clean[k] = v
        self.terms = clean

    @classmethod
    def _kernel_output(cls, policy: TruncationPolicy, terms: dict) -> "NovikovSeries":
        """A kernel's result: its keys are admissible by construction, so only zeros go."""
        out = object.__new__(cls)
        out.policy, out.terms = policy, {k: v for k, v in terms.items() if v}
        return out

    # -- constructors --------------------------------------------------

    @staticmethod
    def constant(policy: TruncationPolicy, c) -> "NovikovSeries":
        z = (0,) * policy.nvars
        return NovikovSeries(policy, {z: rat(c)})

    @staticmethod
    def zero(policy: TruncationPolicy) -> "NovikovSeries":
        return NovikovSeries(policy, {})

    @staticmethod
    def one(policy: TruncationPolicy) -> "NovikovSeries":
        return NovikovSeries.constant(policy, 1)

    @staticmethod
    def variable(policy: TruncationPolicy, i: int) -> "NovikovSeries":
        exps = [0] * policy.nvars
        exps[i] = 1
        return NovikovSeries(policy, {tuple(exps): Fraction(1)})

    # -- ring structure --------------------------------------------------

    def _check(self, other: "NovikovSeries") -> None:
        if self.policy != other.policy:
            raise ValueError("incompatible truncation policies")

    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return NovikovSeries(self.policy, out)

    def __sub__(self, other: "NovikovSeries") -> "NovikovSeries":
        return self + (-other)

    def __neg__(self) -> "NovikovSeries":
        return NovikovSeries(self.policy, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, NovikovSeries):
            c = rat(other)
            terms = {k: c * v for k, v in self.terms.items()}
            return NovikovSeries._kernel_output(self.policy, terms)
        self._check(other)
        pol = self.policy
        top = pol.max_total
        right = sorted(
            ((k, pol.weight(k), v.numerator, v.denominator) for k, v in other.terms.items()),
            key=lambda t: t[1],
        )
        acc: dict = {}
        for ka, va in self.terms.items():
            room = top - pol.weight(ka)
            na, da = va.numerator, va.denominator
            for kb, wb, nb, db in right:
                if wb > room:
                    break
                _accumulate(acc, tuple(map(add, ka, kb)), na * nb, da * db)
        return NovikovSeries._kernel_output(pol, {k: Fraction(n, d) for k, (n, d) in acc.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovSeries)
            and self.policy == other.policy
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("NovikovSeries is not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            mono = "*".join(f"y{i}^{e}" for i, e in enumerate(k) if e) or "1"
            bits.append(f"{self.terms[k]}*{mono}")
        return " + ".join(bits)

    # -- structure queries ------------------------------------------------

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        exps = tuple(int(e) for e in exps)
        if not self.policy.admits(exps):
            raise TruncationError(
                f"coefficient at {exps} lies beyond truncation order "
                f"{self.policy.max_total}; rerun with order >= {self.policy.weight(exps)}"
            )
        return self.terms.get(exps, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.policy.nvars, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    # -- transcendental operations ----------------------------------------

    def exp(self, scale: int = 1, order: int | None = None) -> "NovikovSeries":
        """exp(scale·f) for f with zero constant term, through weight ``order``.

        With E = Σ w_i y_i ∂_i over the policy's weights, E(e^{sf}) = e^{sf}·s·E(f)
        reads wt(β)·h_β = s·Σ_δ wt(δ) f_δ h_{β−δ} for h = e^{sf}: the integer
        scale s multiplies the recurrence's integer steps, so e^{sf} costs what
        e^f does.  A lower order (by default the policy's) truncates the result
        there, under a policy that says so, and leaves out the heavier steps.
        """
        if self.constant_term() != 0:
            raise ValueError("exp needs a series with zero constant term")
        pol = self.policy
        if order is not None:
            if order > pol.max_total:
                raise ValueError(
                    f"exp through order {order} of a series known to {pol.max_total}"
                )
            pol = TruncationPolicy.make(pol.nvars, order, pol.weights)
        steps = []
        for k, v in self.terms.items():
            w = pol.weight(k)
            if w <= pol.max_total:
                n, d = scale * w * v.numerator, v.denominator
                g = gcd(n, d)  # lowest terms, so that more sums meet on one denominator
                steps.append((k, w, n // g, d // g))
        return _solve_by_weight(pol, Fraction(1), steps, divide_by_weight=True)

    def log(self) -> "NovikovSeries":
        """log(f) for f with constant term 1, from E(log f) = E(f)·(1/f)."""
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        pol = self.policy
        d = self.weighted_scaling(pol.weights) * self.reciprocal()
        return NovikovSeries(pol, {k: v / pol.weight(k) for k, v in d.terms.items()})

    def reciprocal(self) -> "NovikovSeries":
        """1/f for f with invertible (nonzero) constant term: c·r_β = −Σ_{γ≠0} f_γ r_{β−γ}."""
        c = self.constant_term()
        if c == 0:
            raise ValueError("reciprocal needs a nonzero constant term")
        pol = self.policy
        steps = [
            (k, pol.weight(k), s.numerator, s.denominator)
            for k, v in self.terms.items() if any(k) for s in (-v / c,)
        ]
        return _solve_by_weight(pol, 1 / c, steps, divide_by_weight=False)

    def euler_derive(self, i: int) -> "NovikovSeries":
        """The Euler operator y_i d/dy_i: scales each monomial by its i-th exponent."""
        if not (0 <= i < self.policy.nvars):
            raise ValueError(f"no Novikov variable with index {i}")
        return NovikovSeries(
            self.policy, {k: v * k[i] for k, v in self.terms.items() if k[i]}
        )

    def weighted_scaling(self, m: tuple[int, ...]) -> "NovikovSeries":
        """Σ_i m_i·(y_i d/dy_i) applied to the series."""
        if len(m) != self.policy.nvars:
            raise ValueError("weight vector arity mismatch")
        out = NovikovSeries.zero(self.policy)
        for i, mi in enumerate(m):
            if mi:
                out = out + self.euler_derive(i) * Fraction(mi)
        return out


def _accumulate(acc: dict, key, n: int, d: int) -> None:
    """Add n/d to the running sum at ``key``, kept as an integer [num, den] pair.

    Denominators are joined by their lcm, the rule of `algebra._rows`, so
    no gcd is taken until the caller turns each pair into one Fraction.
    """
    slot = acc.get(key)
    if slot is None:
        acc[key] = [n, d]
    elif slot[1] == d:
        slot[0] += n
    else:
        m = lcm(slot[1], d)
        slot[0] = slot[0] * (m // slot[1]) + n * (m // d)
        slot[1] = m


def _solve_by_weight(
    pol: TruncationPolicy,
    lead: Fraction,
    steps: list[tuple[tuple[int, ...], int, int, int]],
    divide_by_weight: bool,
) -> NovikovSeries:
    """The series h with h_0 = lead and s_β·h_β = Σ_{(δ, wt δ, n, d)} (n/d)·h_{β−δ}.

    s_β is wt(β) or 1.  Every step has positive weight, so h_β depends only
    on lighter monomials: they are finalized level by level in order of
    weight, each made once as a Fraction and pushed forward to β + δ as
    integers by `_accumulate`.  The cost is one product.  Steps heavier than
    the policy's order are never read.
    """
    top = pol.max_total
    steps = sorted(steps, key=lambda s: s[1])
    levels: list[dict] = [{} for _ in range(top + 1)]
    levels[0][(0,) * pol.nvars] = [lead.numerator, lead.denominator]
    out: dict[tuple[int, ...], Fraction] = {}
    for w in range(top + 1):
        for k, (n, d) in levels[w].items():
            if not n:
                continue
            h = Fraction(n, d * w if divide_by_weight and w else d)
            out[k] = h
            hn, hd = h.numerator, h.denominator
            room = top - w
            for dk, wd, cn, cd in steps:
                if wd > room:
                    break
                _accumulate(levels[w + wd], tuple(map(add, k, dk)), cn * hn, cd * hd)
        levels[w] = {}
    return NovikovSeries._kernel_output(pol, out)


# ---------------------------------------------------------------------------
# z-Laurent elements over a graded algebra


class ZLaurentElement:
    """An exact z-Laurent polynomial with coefficients in a graded algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: Mapping[int, Element]):
        self.algebra = algebra
        clean: dict[int, Element] = {}
        for k, v in terms.items():
            if v.algebra is not algebra:
                raise AlgebraError("coefficient from the wrong algebra")
            if not v.is_zero():
                clean[int(k)] = v
        self.terms = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_element(x: Element) -> "ZLaurentElement":
        return ZLaurentElement(x.algebra, {0: x})

    @staticmethod
    def linear(x: Element, a: int) -> "ZLaurentElement":
        """The polynomial x + a*z."""
        return ZLaurentElement(x.algebra, {0: x, 1: x.algebra.unit().scale(a)})

    @staticmethod
    def one(algebra: GradedAlgebra) -> "ZLaurentElement":
        return ZLaurentElement.from_element(algebra.unit())

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "ZLaurentElement") -> "ZLaurentElement":
        if self.algebra is not other.algebra:
            raise AlgebraError("multiplying z-Laurent data over different algebras")
        pairs: dict[int, list[tuple[Element, Element]]] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                pairs.setdefault(ka + kb, []).append((va, vb))
        out = {k: sum_of_products(self.algebra, ps) for k, ps in pairs.items()}
        return ZLaurentElement(self.algebra, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZLaurentElement) or self.algebra is not other.algebra:
            return False
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("ZLaurentElement is not hashable")

    def coefficient(self, k: int) -> Element:
        """The z^k coefficient (zero outside the support)."""
        return self.terms.get(k, self.algebra.zero())

    def __repr__(self) -> str:
        bits = [f"({self.terms[k]!r})*z^{k}" for k in sorted(self.terms)]
        return " + ".join(bits) if bits else "0"


def nilpotent_reciprocal(c: Element, a: int) -> ZLaurentElement:
    """Exact reciprocal of (c + a z) for nilpotent c and integer a != 0.

    1/(c + az) = (1/(az)) Σ_{k≥0} (−c/(az))^k, a finite sum by nilpotency; the
    result is an exact Laurent polynomial supported on negative z-powers.
    Multiply-back (c + az)·result = 1 holds on the nose.
    """
    if a == 0:
        raise ValueError("nilpotent_reciprocal needs a nonzero z-slope")
    idx = nilpotency_index(c)  # raises if c is not nilpotent
    alg = c.algebra
    terms: dict[int, Element] = {}
    power = alg.unit()
    for k in range(idx):
        coeff = power.scale(Fraction((-1) ** k, a ** (k + 1)))
        if not coeff.is_zero():
            terms[-(k + 1)] = coeff
        power = power * c
    return ZLaurentElement(alg, terms)


# ---------------------------------------------------------------------------
# x-Laurent series with t-polynomial coefficients


class XLaurentSeries:
    """Laurent series in x whose coefficients are t-polynomials (exact, truncated in t)."""

    __slots__ = ("t_order", "terms")

    def __init__(self, t_order: int, terms: Mapping[int, Mapping[int, Fraction]]):
        self.t_order = int(t_order)
        clean: dict[int, dict[int, Fraction]] = {}
        for x, poly in terms.items():
            row = {int(d): rat(c) for d, c in poly.items() if c and d <= self.t_order}
            if row:
                clean[int(x)] = row
        self.terms = clean

    @staticmethod
    def zero(t_order: int) -> "XLaurentSeries":
        return XLaurentSeries(t_order, {})

    @staticmethod
    def monomial(t_order: int, x_exp: int, t_deg: int, c) -> "XLaurentSeries":
        return XLaurentSeries(t_order, {x_exp: {t_deg: rat(c)}})

    def __add__(self, other: "XLaurentSeries") -> "XLaurentSeries":
        if self.t_order != other.t_order:
            raise ValueError("t-order mismatch")
        out = {x: dict(p) for x, p in self.terms.items()}
        for x, poly in other.terms.items():
            row = out.setdefault(x, {})
            for d, c in poly.items():
                row[d] = row.get(d, Fraction(0)) + c
        return XLaurentSeries(self.t_order, out)

    def __mul__(self, other: "XLaurentSeries") -> "XLaurentSeries":
        if self.t_order != other.t_order:
            raise ValueError("t-order mismatch")
        out: dict[int, dict[int, Fraction]] = {}
        for xa, pa in self.terms.items():
            for xb, pb in other.terms.items():
                x = xa + xb
                for da, ca in pa.items():
                    for db, cb in pb.items():
                        d = da + db
                        if d > self.t_order:
                            continue
                        row = out.setdefault(x, {})
                        row[d] = row.get(d, Fraction(0)) + ca * cb
        return XLaurentSeries(self.t_order, out)

    def coefficient(self, x_exp: int, t_deg: int) -> Fraction:
        if t_deg > self.t_order:
            raise TruncationError(
                f"t^{t_deg} beyond truncation order {self.t_order}; "
                f"rerun with order >= {t_deg}"
            )
        return self.terms.get(x_exp, {}).get(t_deg, Fraction(0))
