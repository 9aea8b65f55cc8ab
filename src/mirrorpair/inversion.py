"""Lagrange inversion, a Bell-polynomial exponential identity, and roundtrips.

Everything here works with honest finite data: Laurent polynomials with a
simple pole normalized to residue-variable coefficient 1, their compositional
inverses order by order, and the check that the proper potential's constant
terms recover the mirror exponent it was built from.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .ifunctions import MirrorChange, class_constant_terms, composed_exponent
from .series import NovikovSeries, TruncationPolicy, _accumulate


# ---------------------------------------------------------------------------
# Laurent polynomials as plain dicts {exponent: Fraction}


def _poly_mul(
    a: dict[int, Fraction], b: dict[int, Fraction], cap: int
) -> dict[int, Fraction]:
    """a·b with only the exponents ≤ cap kept, accumulated in integers."""
    right = sorted((e, c.numerator, c.denominator) for e, c in b.items())
    acc: dict = {}
    for ea, ca in a.items():
        na, da = ca.numerator, ca.denominator
        for eb, nb, db in right:
            if ea + eb > cap:
                break
            _accumulate(acc, ea + eb, na * nb, da * db)
    return {e: Fraction(n, d) for e, (n, d) in acc.items() if n}


class SimplePoleLaurent:
    """f(x) = x^{-1} + f_0 + f_1 x + ... — the pole coefficient must be 1."""

    __slots__ = ("tail",)

    def __init__(self, tail: tuple[Fraction, ...]):
        self.tail = tuple(Fraction(v) for v in tail)

    def as_dict(self) -> dict[int, Fraction]:
        out = {-1: Fraction(1)}
        for j, c in enumerate(self.tail):
            if c:
                out[j] = c
        return out


def lagrange_inverse(f: SimplePoleLaurent, order: int) -> dict[int, Fraction]:
    """Coefficients g_k of the compositional inverse g(ω) = Σ_{k≥1} g_k ω^{-k}.

    g_k = (1/k)·[f^k]_{x^{-1}}; the result satisfies f(g(ω)) = ω order by order.
    Every exponent of f is ≥ −1, so only exponents ≤ order − k − 1 of f^k
    reach a later [f^j]_{x^{-1}} and the running power keeps no others.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    fd = f.as_dict()
    out: dict[int, Fraction] = {}
    power = {0: Fraction(1)}
    for k in range(1, order + 1):
        power = _poly_mul(power, fd, order - k - 1)
        c = power.get(-1, Fraction(0))
        if c:
            out[k] = c / k
    return out


def compose(f: SimplePoleLaurent, g: dict[int, Fraction], order: int) -> dict[int, Fraction]:
    """f(g(ω)) expanded in ω^{-1}, keyed by the ω-exponent (so ω itself is {1: 1}).

    g's keys are k ≥ 1 meaning g_k ω^{-k}; the leading order must be strictly
    negative (some key with a nonzero value), making 1/g(ω) well defined as a
    series in ω^{-1}.  The expansion is reported through ω^{-order}.
    """
    ks = sorted(k for k, v in g.items() if v)
    if not ks:
        raise ValueError("composition needs a series with strictly negative leading order")
    if ks[0] < 1:
        raise ValueError("inverse series must live in negative ω-powers")
    lead = ks[0]
    m = order + 2 * lead  # internal u-order margin (u = ω^{-1})
    pol = TruncationPolicy.make(1, max_total=m)
    gu = NovikovSeries(pol, {(k,): Fraction(v) for k, v in g.items()})
    # 1/g = u^{-lead} · 1/(g/u^lead); g/u^lead has a nonzero constant term
    shifted = NovikovSeries(pol, {(k - lead,): Fraction(v) for k, v in g.items()})
    inv = shifted.reciprocal()
    out: dict[int, Fraction] = {}

    def add(uexp: int, c: Fraction):
        if c and uexp <= order:
            oexp = -uexp
            out[oexp] = out.get(oexp, Fraction(0)) + c
            if not out[oexp]:
                del out[oexp]

    for (k,), c in inv.terms.items():
        add(k - lead, c)
    power = NovikovSeries.one(pol)  # g^j as j walks the tail
    for j, fj in enumerate(f.tail):
        if j:
            power = power * gu
        if fj:
            for (k,), c in power.terms.items():
                add(k, c * fj)
    return out


def inversion_roundtrip(f: SimplePoleLaurent, order: int) -> tuple[bool, dict[int, Fraction]]:
    """compose(f, lagrange_inverse(f)) compared against ω through ω^{-order}.

    The 1/g part of the composition at output order k draws on g_{k+2}, so the
    inverse is computed two orders deeper than the comparison window.
    """
    g = lagrange_inverse(f, order + 2)
    h = compose(f, g, order)
    ok = h.get(1) == 1 and all(c == 0 for e, c in h.items() if e != 1)
    return ok, h


# ---------------------------------------------------------------------------
# the Bell-polynomial exponential identity


class BellReport:
    __slots__ = ("ok", "mismatches")

    def __init__(self, ok: bool, mismatches: tuple[tuple[int, Fraction, Fraction], ...]):
        self.ok = ok
        self.mismatches = mismatches


def bell_identity_check(tail: tuple[Fraction, ...], order: int) -> BellReport:
    """For f = 1 + Σ_{k≥1} f_k x^k check, through y^{order-1},

        exp( Σ_{k≥1} (1/k) [f^k]_{x^k} y^k )  ==  Σ_{k≥1} (1/k) [f^k]_{x^{k-1}} y^{k-1}.

    Only x-degrees ≤ order are read and f has no negative exponents, so the
    running power keeps no higher ones.
    """
    fd = {0: Fraction(1)}
    for j, c in enumerate(tail, start=1):
        if c:
            fd[j] = Fraction(c)
    pol = TruncationPolicy.make(1, max_total=order)
    arg = {}
    rhs = {}
    power = {0: Fraction(1)}
    for k in range(1, order + 1):
        power = _poly_mul(power, fd, order)
        ck = power.get(k, Fraction(0))
        if ck:
            arg[(k,)] = ck / k
        dk = power.get(k - 1, Fraction(0))
        if dk:
            rhs[(k - 1,)] = rhs.get((k - 1,), Fraction(0)) + dk / k
    lhs = NovikovSeries(pol, arg).exp()
    rterm = NovikovSeries(pol, rhs)
    mismatches = []
    for n in range(0, order):
        a = lhs.coefficient((n,))
        b = rterm.coefficient((n,))
        if a != b:
            mismatches.append((n, a, b))
    return BellReport(not mismatches, tuple(mismatches))


# ---------------------------------------------------------------------------
# potential roundtrip: the constant terms of W-powers recover the exponent


class RoundtripReport:
    __slots__ = ("curve_order", "ok", "computed", "expected", "mismatches")

    def __init__(
        self,
        curve_order: int,
        ok: bool,
        computed: tuple[tuple[tuple[int, ...], Fraction], ...],
        expected: tuple[tuple[tuple[int, ...], Fraction], ...],
        mismatches: tuple[tuple[tuple[int, ...], Fraction, Fraction], ...],
    ):
        self.curve_order = curve_order
        self.ok = ok
        self.computed = computed  # class -> recovered value
        self.expected = expected
        self.mismatches = mismatches


def potential_roundtrip(change: MirrorChange) -> RoundtripReport:
    """Recover the exponent g from the constant terms of the potential's powers.

    With q = y·exp(m·g), G = g(y(q)) and W = x·e^{G(q·(t/x)^m)}, the constant
    term θ_β of W^{m·β} on the class β must equal (m·β)·g_β for every class
    with m·β ≥ 1 through the change's truncation order.  θ_β is read off
    e^{(m·β)·G}, never off g, so the check runs through the whole mirror change:
    this is the one place that forms the constant term of W^n, and it checks
    the identity `periods.classical_period` reads θ_β by.
    """
    if change.g.constant_term():
        raise ValueError("exponent coefficients are indexed by classes of degree k >= 1")
    m = change.m_vector
    if not any(x > 0 for x in m):
        raise ValueError("the potential roundtrip needs a positive contact multiplier")
    theta = class_constant_terms(composed_exponent(change), m)
    computed = {b: v / change.contact_weight(b) for b, v in theta.items()}
    expected = {b: v for b, v in change.g.terms.items() if change.contact_weight(b) >= 1}
    mismatches = [
        (b, computed.get(b, Fraction(0)), expected.get(b, Fraction(0)))
        for b in sorted(set(computed) | set(expected))
        if computed.get(b) != expected.get(b)
    ]
    return RoundtripReport(
        change.policy.max_total,
        not mismatches,
        tuple(sorted(computed.items())),
        tuple(sorted(expected.items())),
        tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# randomized-input helpers shared by the identity sweeps


def random_simple_pole(rng: Random, tail_len: int = 6, bound: int = 9) -> SimplePoleLaurent:
    tail = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(tail_len))
    return SimplePoleLaurent(tail)


def random_unit_tail(rng: Random, length: int = 6, bound: int = 9) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(length))


def random_exponent(rng: Random, curve_order: int, bound: int = 6) -> NovikovSeries:
    """A random one-variable exponent g = Σ_{1≤k≤curve_order} g_k y^k."""
    out = {}
    for k in range(1, curve_order + 1):
        num = rng.randint(-bound, bound)
        den = rng.randint(1, 3)
        if num:
            out[(k,)] = Fraction(num, den)
    return NovikovSeries(TruncationPolicy.make(1, max_total=curve_order), out)
