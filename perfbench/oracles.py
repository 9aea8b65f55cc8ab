"""Independent reference computations for the benchmark's output checks.

Nothing here imports `mirrorpair`.  The closed forms are the classical facts
the pipeline must reproduce; the dense series code is a separate, plain
implementation of truncated multivariate power series used to check that the
printed change of variables really inverts.  `reference_kernel` is the fixed
unit of work the benchmark's timings are scaled by.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from itertools import product
from math import factorial


def period_coefficient(m: int, k: int) -> int:
    """[t^k] of the classical period of P^{m-1} with D in |-K|: (md)!/(d!)^m at k = md."""
    if k % m:
        return 0
    d = k // m
    return factorial(m * d) // factorial(d) ** m


def exponent_coefficient(m: int, d: int) -> Fraction:
    """[y^d] of the mirror exponent g for P^{m-1}: (md - 1)!/(d!)^m."""
    return Fraction(factorial(m * d - 1), factorial(d) ** m)


def toric_unit_coefficient(a: int, b: int) -> int:
    """The z^1 unit coefficient of the blp3_k3 I-function at beta = (a, b)."""
    return factorial(4 * a + b) // (factorial(a) ** 4 * factorial(b))


def reference_kernel(order: int):
    """A fixed unit of pure-Python rational work: exp of sum x^k/(k+1), k = 1..order.

    The kernel runs with the cyclic garbage collector off, so its time does
    not depend on the size of the heap around it or on the collector
    settings of the process it runs in.
    """
    ring = DenseRing((1,), order)
    f = ring.from_terms({(k,): Fraction(1, k + 1) for k in range(1, order + 1)})

    def kernel():
        enabled = gc.isenabled()
        gc.disable()
        try:
            ring.exp(f)
        finally:
            if enabled:
                gc.enable()

    return kernel


class DenseRing:
    """Power series in n variables, truncated at weighted total degree <= order.

    A series is a list of Fractions indexed by the exponents admitted by the
    truncation, in a fixed order.  Products come from a precomputed table of
    index pairs, so truncation is exact for series without constant-term
    denominators.
    """

    def __init__(self, weights: tuple[int, ...], order: int):
        self.weights = weights
        self.order = order
        ranges = [range(order // w + 1) for w in weights]
        self.exps = [e for e in product(*ranges) if self.weight(e) <= order]
        self.index = {e: i for i, e in enumerate(self.exps)}
        self._pairs = [
            [(j, self.index[tuple(a + b for a, b in zip(ei, ej))])
             for j, ej in enumerate(self.exps)
             if self.weight(ei) + self.weight(ej) <= order]
            for ei in self.exps
        ]

    def weight(self, exps) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def zero(self) -> list[Fraction]:
        return [Fraction(0)] * len(self.exps)

    def one(self) -> list[Fraction]:
        out = self.zero()
        out[0] = Fraction(1)
        return out

    def variable(self, i: int) -> list[Fraction]:
        out = self.zero()
        e = [0] * len(self.weights)
        e[i] = 1
        out[self.index[tuple(e)]] = Fraction(1)
        return out

    def from_terms(self, terms: dict[tuple[int, ...], Fraction]) -> list[Fraction]:
        """Dense form of {exponent: coefficient}; a term above the order is an error."""
        out = self.zero()
        for e, c in terms.items():
            if e not in self.index:
                raise ValueError(f"term at {e} lies outside the truncation")
            out[self.index[e]] += c
        return out

    def mul(self, a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = self.zero()
        for i, x in enumerate(a):
            if not x:
                continue
            for j, k in self._pairs[i]:
                y = b[j]
                if y:
                    out[k] += x * y
        return out

    def scale(self, a: list[Fraction], c) -> list[Fraction]:
        return [c * x for x in a]

    def exp(self, a: list[Fraction]) -> list[Fraction]:
        """exp(a) = sum a^k / k! for a with zero constant term."""
        if a[0]:
            raise ValueError("exp needs a zero constant term")
        out = self.one()
        term = self.one()
        k = 0
        while True:
            k += 1
            term = self.scale(self.mul(term, a), Fraction(1, k))
            if not any(term):
                return out
            out = [x + y for x, y in zip(out, term)]

    def substitute(self, f: dict[tuple[int, ...], Fraction], ys: list[list[Fraction]]) -> list[Fraction]:
        """f(y_1(q), ..., y_n(q)) for a polynomial f given by its terms."""
        powers = []
        for i, y in enumerate(ys):
            top = max((e[i] for e in f), default=0)
            row = [self.one()]
            for _ in range(top):
                row.append(self.mul(row[-1], y))
            powers.append(row)
        out = self.zero()
        for e, c in f.items():
            mono = powers[0][e[0]]
            for i in range(1, len(ys)):
                mono = self.mul(mono, powers[i][e[i]])
            out = [x + c * y for x, y in zip(out, mono)]
        return out

    def terms(self, a: list[Fraction]) -> dict[tuple[int, ...], Fraction]:
        return {e: c for e, c in zip(self.exps, a) if c}
