"""Lagrange inversion, the Bell exponential identity, potential roundtrips.

The inversion oracle below never uses the residue formula: it builds the
inverse order by order, solving each coefficient from the requirement that
the composition residual vanishes.  Agreement with ``lagrange_inverse`` is
therefore a genuine two-route check.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorpair import (
    MirrorChange,
    NovikovSeries,
    SimplePoleLaurent,
    TruncationPolicy,
    inversion,
    bell_identity_check,
    compose,
    inversion_roundtrip,
    lagrange_inverse,
    potential_roundtrip,
)
from mirrorpair.inversion import random_exponent, random_simple_pole, random_unit_tail
from mirrorpair.series import _mul


# ---------------------------------------------------------------------------
# an independent composition + solver (u = 1/omega throughout)


def _umul(a, b, n):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb <= n:
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _urecip(a, n):
    """1/a for a u-polynomial with a[0] != 0, through u^n."""
    inv = {0: 1 / a[0]}
    for k in range(1, n + 1):
        s = sum(a.get(j, Fraction(0)) * inv.get(k - j, Fraction(0)) for j in range(1, k + 1))
        inv[k] = -s / a[0]
    return {e: c for e, c in inv.items() if c}


def _compose_by_hand(f, g, n):
    """f(g) through u^n, for g = Σ_{k>=1} g_k u^k with g_1 != 0."""
    shifted = {k - 1: v for k, v in g.items()}
    one_over_g = _urecip(shifted, n + 1)  # then shift down by one u-power
    out = {e - 1: c for e, c in one_over_g.items() if e - 1 <= n}
    gpow = {0: Fraction(1)}
    for j, fj in enumerate(f.tail):
        if j:
            gpow = _umul(gpow, g, n)
        if fj:
            for e, c in gpow.items():
                if e <= n:
                    out[e] = out.get(e, Fraction(0)) + fj * c
    return {e: c for e, c in out.items() if c}


def _solve_inverse(f, n):
    """Order-by-order: g_k first touches f(g) at u^{k-2} (through 1/g), so
    each coefficient is pinned by zeroing that residual of f(g) - omega."""
    g = {1: Fraction(1)}  # the pole coefficient forces g_1 = 1
    for k in range(2, n + 1):
        resid = _compose_by_hand(f, g, k - 2).get(k - 2, Fraction(0))
        probe = dict(g)
        probe[k] = Fraction(1)
        slope = _compose_by_hand(f, probe, k - 2).get(k - 2, Fraction(0)) - resid
        assert slope != 0
        gk = -resid / slope
        if gk:
            g[k] = gk
    return g


@pytest.mark.parametrize("seed", range(8))
def test_inverse_matches_order_by_order_solver(seed):
    rng = Random(1000 + seed)
    f = random_simple_pole(rng, tail_len=5, bound=6)
    want = _solve_inverse(f, 9)
    got = lagrange_inverse(f, 9)
    assert got == {k: v for k, v in want.items() if v}


# ---------------------------------------------------------------------------
# frozen inverses


def test_bare_pole_inverts_to_itself():
    f = SimplePoleLaurent(())
    assert lagrange_inverse(f, 6) == {1: Fraction(1)}


def test_shifted_pole_has_all_ones_inverse():
    f = SimplePoleLaurent((Fraction(1),))  # x^{-1} + 1
    g = lagrange_inverse(f, 7)
    assert g == {k: Fraction(1) for k in range(1, 8)}


def test_catalan_pattern_inverse():
    # f = x^{-1} + x: g_k = C(k, (k-1)/2)/k for odd k, 0 for even k
    f = SimplePoleLaurent((Fraction(0), Fraction(1)))
    g = lagrange_inverse(f, 9)
    assert g == {1: 1, 3: 1, 5: 2, 7: 5, 9: 14}
    for k in (1, 3, 5, 7, 9):
        assert g[k] == Fraction(math.comb(k, (k - 1) // 2), k)


def test_lagrange_inverse_needs_positive_order():
    with pytest.raises(ValueError):
        lagrange_inverse(SimplePoleLaurent(()), 0)


# ---------------------------------------------------------------------------
# composition


def test_compose_recovers_omega():
    f = SimplePoleLaurent((Fraction(3), Fraction(-2), Fraction(7)))
    g = lagrange_inverse(f, 12)
    assert compose(f, g, 10) == {1: Fraction(1)}


def test_compose_rejects_bad_leading_orders():
    f = SimplePoleLaurent(())
    with pytest.raises(ValueError, match="leading order"):
        compose(f, {}, 5)
    with pytest.raises(ValueError, match="negative"):
        compose(f, {0: Fraction(1), 1: Fraction(1)}, 5)


def test_compose_names_the_order_it_refuses():
    # g = u^2 is read through u^(order + 4), so order -5 is below the window
    f = SimplePoleLaurent((Fraction(5),))
    with pytest.raises(ValueError, match=r"needs order >= -2·lead = -4 for g of leading "
                                         r"order ω\^-2; got -5"):
        compose(f, {2: Fraction(1)}, -5)
    assert compose(f, {2: Fraction(1)}, -4) == {}


def test_compose_handles_deeper_leading_order():
    # g = u^2: f(g) = u^{-2} + tail(g); pure bookkeeping, checked by hand
    f = SimplePoleLaurent((Fraction(5),))
    got = compose(f, {2: Fraction(1)}, 4)
    assert got == {2: Fraction(1), 0: Fraction(5)}


def test_roundtrip_without_margin_would_fail():
    """The output window is only clean because the inverse is computed two
    orders deep; composing with the same-order inverse pollutes the tail."""
    rng = Random(7)
    f = random_simple_pole(rng)
    ok, h = inversion_roundtrip(f, 10)
    assert ok, h
    shallow = compose(f, lagrange_inverse(f, 10), 10)
    assert shallow != {1: Fraction(1)}


@pytest.mark.parametrize("seed", range(25))
def test_random_inversion_roundtrips(seed):
    rng = Random(20_000 + seed)
    f = random_simple_pole(rng)
    ok, residual = inversion_roundtrip(f, 10)
    assert ok, residual


# ---------------------------------------------------------------------------
# the simple-pole container


def test_as_dict_lists_the_pole_and_the_nonzero_tail():
    f = SimplePoleLaurent((4, 0, 0, -2))
    assert f.tail == (Fraction(4), Fraction(0), Fraction(0), Fraction(-2))
    assert f.as_dict() == {-1: 1, 0: 4, 3: -2}


# ---------------------------------------------------------------------------
# the Bell exponential identity


def test_bell_identity_for_one_plus_x():
    # both sides collapse to the geometric series 1/(1-y)
    report = bell_identity_check((Fraction(1),), 12)
    assert report.ok
    # the right side literally: (1/k)·C(k, k-1) = 1 for every k
    for k in range(1, 13):
        assert Fraction(math.comb(k, k - 1), k) == 1


def test_bell_identity_empty_tail():
    assert bell_identity_check((), 8).ok  # f = 1: both sides are exp(0)-flavored


@pytest.mark.parametrize("seed", range(25))
def test_bell_identity_random_tails(seed):
    rng = Random(31_000 + seed)
    report = bell_identity_check(random_unit_tail(rng), 12)
    assert report.ok, report.mismatches


@given(tail=st.lists(st.integers(min_value=-5, max_value=5).map(Fraction), max_size=4))
@settings(max_examples=40, deadline=None)
def test_bell_identity_property(tail):
    assert bell_identity_check(tuple(tail), 8).ok


# ---------------------------------------------------------------------------
# the truncated running powers against untruncated expansions


def _full_powers(fd, top):
    """f^1 .. f^top as dicts, multiplied out with no truncation."""
    out, power = [], {0: Fraction(1)}
    for _ in range(top):
        power = _umul(power, fd, math.inf)
        out.append(power)
    return out


small_rationals = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                            st.integers(min_value=1, max_value=4))


integer_polys = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=9)


@given(a=integer_polys, b=integer_polys, cap=st.integers(min_value=-4, max_value=14))
@example(a=[3, -1, 4, 1, -5], b=[2, 7], cap=9)  # the longer operand first
@example(a=[1, 2, 3, 4], b=[5, 6, 7], cap=1)  # a cap below both lengths
@example(a=[0, 2, 0, -3], b=[0, 0, 5, 0], cap=6)  # zero entries
@example(a=[], b=[1, 2, 3], cap=4)  # an empty operand
@example(a=[1, 2, 3], b=[], cap=4)
@settings(max_examples=60, deadline=None)
def test_mul_is_the_literal_capped_double_sum(a, b, cap):
    got = _mul(a, b, cap)
    assert len(got) == max(cap + 1, 0)  # dense through x^cap
    assert {e: c for e, c in enumerate(got) if c} == _umul(dict(enumerate(a)),
                                                           dict(enumerate(b)), cap)


@given(tail=st.lists(small_rationals, max_size=6), order=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_truncated_lagrange_inverse_matches_untruncated_powers(tail, order):
    f = SimplePoleLaurent(tuple(tail))
    expect = {}
    for k, power in enumerate(_full_powers(f.as_dict(), order), start=1):
        if power.get(-1):
            expect[k] = power[-1] / k
    assert lagrange_inverse(f, order) == expect


@given(tail=st.lists(small_rationals, max_size=6), order=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_bell_sums_read_untruncated_coefficients(tail, order):
    fd = {0: Fraction(1)}
    fd.update({j: c for j, c in enumerate(tail, start=1) if c})
    seen = []
    original = inversion._power_walk

    def spy(coeffs, n):
        for power, scale in original(coeffs, n):
            seen.append([Fraction(c, scale) for c in power])
            yield power, scale

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inversion, "_power_walk", spy)
        assert bell_identity_check(tuple(tail), order).ok
    full = _full_powers(fd, order)
    assert len(seen) == order
    for k, (power, exact) in enumerate(zip(seen, full), start=1):
        for e in (k, k - 1):  # [f^k]_{x^k} and [f^k]_{x^{k-1}} feed the two sums
            assert power[e] == exact.get(e, 0)


@given(tail=st.lists(small_rationals, max_size=6),
       g1=small_rationals.filter(lambda c: c not in (0, 1, -1)),
       rest=st.lists(small_rationals, max_size=12), order=st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_compose_matches_hand_composition_on_rational_data(tail, g1, rest, order):
    """Rational f and g with g_1 not a unit: the common denominators and the
    powers of g_1 in the reciprocal are exercised, which integer sweeps never do."""
    f = SimplePoleLaurent(tuple(tail))
    g = {1: g1, **dict(enumerate(rest, start=2))}
    want = _compose_by_hand(f, g, order)
    assert compose(f, g, order) == {-e: c for e, c in want.items()}


# ---------------------------------------------------------------------------
# potential roundtrips


def _change(g_coeffs, m, order):
    """The one-variable change q = y·exp(m·g) for g = Σ g_k y^k, truncated at y^order."""
    pol = TruncationPolicy.make(1, max_total=order)
    return MirrorChange((m,), NovikovSeries(pol, {(k,): v for k, v in g_coeffs.items()}))


def test_plane_catalog_roundtrip():
    report = potential_roundtrip(
        _change({1: Fraction(2), 2: Fraction(15), 3: Fraction(560, 3)}, 3, 3))
    assert report.ok
    assert dict(report.computed) == {(1,): 2, (2,): 15, (3,): Fraction(560, 3)}
    assert report.computed == report.expected


def test_space_catalog_roundtrip():
    report = potential_roundtrip(
        _change({1: Fraction(6), 2: Fraction(315), 3: Fraction(30800)}, 4, 3))
    assert report.ok
    assert dict(report.computed) == {(1,): 6, (2,): 315, (3,): 30800}


def test_roundtrip_validation():
    with pytest.raises(ValueError, match="positive contact multiplier"):
        potential_roundtrip(_change({1: Fraction(1)}, 0, 3))
    with pytest.raises(ValueError, match="k >= 1"):
        potential_roundtrip(_change({0: Fraction(1)}, 2, 3))


@pytest.mark.parametrize("seed", range(25))
def test_random_exponent_roundtrips(seed):
    rng = Random(45_000 + seed)
    m = rng.choice((1, 2, 3, 4))
    g = random_exponent(rng, 5)
    report = potential_roundtrip(MirrorChange((m,), g))
    assert report.ok, report.mismatches


def test_flip_connects_potential_to_laurent_picture():
    """[W^K]_{x^0, t^K} equals [f^K]_{x^0} for the x -> 1/x flip of W at t=1.

    Uses the frozen plane potential; the left side is the graded theta
    extraction, the right a plain Laurent power expansion done here inline.
    """
    weights = {3: Fraction(2), 6: Fraction(5), 9: Fraction(32)}
    fd = {-1: Fraction(1)}
    fd.update({d - 1: w for d, w in weights.items()})
    power = {0: Fraction(1)}
    report = potential_roundtrip(
        _change({1: Fraction(2), 2: Fraction(15), 3: Fraction(560, 3)}, 3, 3))
    recovered = {3 * k: v for (k,), v in report.computed}
    for K in range(1, 10):
        out = {}
        for e, c in power.items():
            for ef, cf in fd.items():
                out[e + ef] = out.get(e + ef, Fraction(0)) + c * cf
        power = out
        expect = K * recovered.get(K, Fraction(0))
        assert power.get(0, Fraction(0)) == expect, K
