"""Lagrange inversion, a Bell-polynomial exponential identity, and roundtrips.

Everything here works with honest finite data: Laurent polynomials with a
simple pole normalized to residue-variable coefficient 1, their compositional
inverses order by order, and the check that the proper potential's constant
terms recover the mirror exponent it was built from.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

from .ifunctions import MirrorChange, class_constant_terms, composed_exponent
from .series import NovikovSeries, TruncationPolicy, _mul


# ---------------------------------------------------------------------------
# rational polynomials as dense integer numerators over one denominator


def _numerators(coeffs: list[Fraction]) -> tuple[list[int], int]:
    """(N, D) with coeffs = N/D elementwise, D the lcm of the denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _power_walk(coeffs: list[Fraction], n: int):
    """(F^k through x^n, L^k) for k = 1, 2, ..., where F/L = coeffs as a polynomial."""
    f, d = _numerators(coeffs)
    power, scale = [1], 1
    while True:
        power, scale = _mul(f, power, n), scale * d
        yield power, scale


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
    With f = x^{-1}·F/L for an integer polynomial F, g_k = [F^k]_{x^{k-1}}/(k·L^k),
    and F has no negative exponents, so the running power keeps x^{order-1}.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    walk = zip(range(1, order + 1), _power_walk([Fraction(1), *f.tail], order - 1))
    return {k: Fraction(p[k - 1], k * scale) for k, (p, scale) in walk if p[k - 1]}


def compose(f: SimplePoleLaurent, g: dict[int, Fraction], order: int) -> dict[int, Fraction]:
    """f(g(ω)) expanded in ω^{-1}, keyed by the ω-exponent (so ω itself is {1: 1}).

    g's keys are k ≥ 1 meaning g_k ω^{-k}; the leading order must be strictly
    negative (some key with a nonzero value), making 1/g(ω) well defined as a
    series in ω^{-1}.  The expansion is reported through ω^{-order}.

    In u = ω^{-1}, with G = D·g integer and f_j = Φ_j/L: Σ_{j≤J} f_j g^j is Horner's
    rule on integer numerators over L·D^{J+1}, and 1/g = u^{-lead}·D/S for
    S = G/u^lead, where 1/S = Σ_k R_k u^k/s_0^{k+1} with R_0 = 1 and
    R_k = −Σ_{1≤j≤k} S_j·s_0^{j−1}·R_{k−j}.
    """
    ks = sorted(k for k, v in g.items() if v)
    if not ks:
        raise ValueError("composition needs a series with strictly negative leading order")
    if ks[0] < 1:
        raise ValueError("inverse series must live in negative ω-powers")
    lead = ks[0]
    m = order + 2 * lead  # g is read through u^m
    if m < 0:
        raise ValueError(f"compose through ω^-order needs order >= -2·lead = {-2 * lead} "
                         f"for g of leading order ω^-{lead}; got {order}")
    gnum, d = _numerators([Fraction(g.get(k, 0)) for k in range(m + 1)])
    s = gnum[lead:]  # S through u^{order+lead}, as the window needs
    steps = [sj * s[0] ** (j - 1) for j, sj in enumerate(s) if j]
    recip: list[int] = []
    for k in range(len(s)):
        recip.append(-sum(steps[j] * recip[k - 1 - j] for j in range(k)) if k else 1)
    n = max(order, 0)
    phis, den = _numerators(list(f.tail))
    horner, lift = [0] * (n + 1), 1
    for phi in reversed(phis):  # f_J, ..., f_0; G has no constant term
        lift *= d
        horner = _mul(horner, gnum, n)
        horner[0] += phi * lift
    den *= lift
    out: dict[int, Fraction] = {}
    for k, r in enumerate(recip):  # the u^{k-lead} coefficient of 1/g, then of Σ f_j g^j
        e, num, q = k - lead, d * r, s[0] ** (k + 1)
        if e >= 0:
            num, q = num * den + horner[e] * q, q * den
        if num:
            out[-e] = Fraction(num, q)
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
    pol = TruncationPolicy.make(1, max_total=order)
    arg, rhs = {}, {}
    walk = _power_walk([Fraction(1), *map(Fraction, tail)], order)
    for k, (power, scale) in zip(range(1, order + 1), walk):
        if power[k]:
            arg[(k,)] = Fraction(power[k], k * scale)
        if power[k - 1]:
            rhs[k - 1] = Fraction(power[k - 1], k * scale)
    lhs = NovikovSeries(pol, arg).exp().terms  # pol admits every (n,) with n < order
    pairs = ((n, lhs.get((n,), Fraction(0)), rhs.get(n, Fraction(0))) for n in range(order))
    mismatches = tuple(t for t in pairs if t[1] != t[2])
    return BellReport(not mismatches, mismatches)


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
