"""Truncated Novikov series, exact z-Laurent polynomials, and x-Laurent layers.

Every assertion is exact rational equality; there is no float tolerance
anywhere in this suite.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirrorpair.series as series_module
from conftest import dense_product, series_product
from mirrorpair import (
    NovikovSeries,
    TruncationError,
    TruncationPolicy,
    XLaurentSeries,
    ZLaurentElement,
    builtin_geometry,
    nilpotent_reciprocal,
)

POL1 = TruncationPolicy.make(1, 8)
POL2 = TruncationPolicy.make(2, 6)


def y(c=1, e=1):
    return NovikovSeries(POL1, {(e,): Fraction(c)})


# ---------------------------------------------------------------------------
# truncation policy


def test_policy_defaults():
    p = TruncationPolicy.make(2)
    assert p.max_total == 8
    assert p.weights == (1, 1)


def test_policy_validation():
    with pytest.raises(ValueError, match="positive"):
        TruncationPolicy.make(1, 4, weights=(0,))
    with pytest.raises(ValueError, match="mismatch"):
        TruncationPolicy.make(2, 4, weights=(1,))


def test_policy_weighted_admission():
    p = TruncationPolicy.make(2, 6, weights=(2, 3))
    assert p.admits((3, 0))
    assert p.admits((0, 2))
    assert not p.admits((2, 1))
    with pytest.raises(ValueError):
        p.admits((-1, 0))


# ---------------------------------------------------------------------------
# Novikov series: frozen spot values


def test_product_of_binomials():
    f = NovikovSeries(POL1, {(0,): 1, (1,): 1})   # 1 + y
    g = NovikovSeries(POL1, {(0,): 1, (1,): -1})  # 1 - y
    assert f * g == NovikovSeries(POL1, {(0,): 1, (2,): -1})


def test_monomials_multiply_by_adding_exponents():
    a = NovikovSeries(POL2, {(1, 0): 1})
    b = NovikovSeries(POL2, {(0, 1): 1})
    assert (a * b).coefficient((1, 1)) == 1


def test_exp_spot_value():
    # exp(6y) carries 36/2 = 18 at y^2
    e = y(6).exp()
    assert e.coefficient((0,)) == 1
    assert e.coefficient((1,)) == 6
    assert e.coefficient((2,)) == 18
    assert e.coefficient((3,)) == 36


def test_exp_requires_no_constant_term():
    with pytest.raises(ValueError):
        NovikovSeries(POL1, {(0,): 1, (1,): 1}).exp()


def test_log_exp_roundtrip():
    f = NovikovSeries(POL1, {(1,): 2, (2,): 15})
    assert f.exp().log() == f


def test_log_needs_unit_constant():
    with pytest.raises(ValueError):
        y(3).log()


def test_reciprocal_spot_value():
    f = NovikovSeries(POL1, {(0,): 1, (1,): 24})
    r = f.reciprocal()
    assert r.coefficient((1,)) == -24
    assert r.coefficient((2,)) == 576
    assert f * r == NovikovSeries.one(POL1)


def test_reciprocal_alternating_signs():
    f = NovikovSeries(POL1, {(0,): 1, (1,): 1})
    r = f.reciprocal()
    for k in range(9):
        assert r.coefficient((k,)) == (-1) ** k


def test_euler_derive():
    f = NovikovSeries(POL1, {(2,): 1})
    assert f.euler_derive(0) == NovikovSeries(POL1, {(2,): 2})
    g = NovikovSeries(POL2, {(1, 2): 5})
    assert g.euler_derive(0).coefficient((1, 2)) == 5
    assert g.euler_derive(1).coefficient((1, 2)) == 10


def test_weighted_scaling():
    # Σ_i m_i y_i ∂_i acting on 24y with weight 3 gives 72y
    f = y(24)
    assert f.weighted_scaling((3,)) == NovikovSeries(POL1, {(1,): 72})
    g = NovikovSeries(POL2, {(2, 1): 1})
    assert g.weighted_scaling((-1, 1)).coefficient((2, 1)) == -1


def test_truncation_drops_heavy_terms():
    p = TruncationPolicy.make(1, 3)
    f = NovikovSeries(p, {(3,): 1})
    g = NovikovSeries(p, {(1,): 1})
    assert (f * g).is_zero()


def test_coefficient_past_order_raises():
    with pytest.raises(TruncationError, match="rerun"):
        y().coefficient((9,))


def test_policy_shape_mismatch_rejected():
    other = TruncationPolicy.make(1, 5)
    with pytest.raises(ValueError):
        y() + NovikovSeries(other, {(1,): 1})


# ---------------------------------------------------------------------------
# Novikov series: algebraic laws on random data


def _series(policy):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * policy.nvars)
    return st.dictionaries(
        exps, st.integers(min_value=-6, max_value=6).map(Fraction), max_size=5
    ).map(lambda d: NovikovSeries(policy, d))


@given(f=_series(POL2), g=_series(POL2), h=_series(POL2))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == NovikovSeries.zero(POL2)


@given(f=_series(POL2), g=_series(POL2))
@settings(max_examples=40, deadline=None)
def test_exp_is_a_homomorphism(f, g):
    f = f - NovikovSeries.constant(POL2, f.constant_term())
    g = g - NovikovSeries.constant(POL2, g.constant_term())
    assert (f + g).exp() == f.exp() * g.exp()


@given(f=_series(POL2))
@settings(max_examples=40, deadline=None)
def test_reciprocal_is_two_sided(f):
    f = f + NovikovSeries.one(POL2) - NovikovSeries.constant(POL2, f.constant_term())
    r = f.reciprocal()
    assert f * r == NovikovSeries.one(POL2)
    assert r * f == NovikovSeries.one(POL2)


@given(f=_series(POL2))
@settings(max_examples=40, deadline=None)
def test_log_inverts_exp(f):
    f = f - NovikovSeries.constant(POL2, f.constant_term())
    assert f.exp().log() == f


@st.composite
def _weighted_series(draw):
    """A random series over a 1-3 variable policy with weights 1-3."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(nvars))
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=0, max_value=9 - nvars)), weights)
    return draw(_series(pol))


def _naive(f, coefficient):
    """Σ_{k≥0} coefficient(k)·f^k through the truncation, by literal products alone."""
    pol = f.policy
    out = NovikovSeries.zero(pol)
    power = NovikovSeries.one(pol)
    for k in range(pol.max_total + 1):
        c = coefficient(k)
        out = out + NovikovSeries(pol, {e: v * c for e, v in power.terms.items()})
        power = series_product(power, f)
    return out


@given(f=_weighted_series())
@settings(max_examples=40, deadline=None)
def test_kernels_match_naive_series(f):
    pol = f.policy
    one = NovikovSeries.one(pol)
    u = f - NovikovSeries.constant(pol, f.constant_term())
    assert u.exp() == _naive(u, lambda k: Fraction(1, math.factorial(k)))
    assert (one + u).log() == _naive(u, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
    c = Fraction(-3, 2)
    inv = _naive(u * (-1 / c), lambda k: 1) * (1 / c)
    assert (u + NovikovSeries.constant(pol, c)).reciprocal() == inv


@given(f=_weighted_series(), scale=st.integers(min_value=-3, max_value=4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_scaled_exp_through_a_lower_order_matches_naive_series(f, scale, data):
    """exp(scale, order) is e^{scale·f} cut at weight `order`, under a policy that says so."""
    pol = f.policy
    u = f - NovikovSeries.constant(pol, f.constant_term())
    order = data.draw(st.integers(min_value=0, max_value=pol.max_total))
    low = TruncationPolicy.make(pol.nvars, order, pol.weights)
    want = _naive(u * scale, lambda k: Fraction(1, math.factorial(k)))
    got = u.exp(scale, order)
    assert got.policy == low
    assert got == NovikovSeries(low, want.terms)
    assert u.exp(scale) == want
    with pytest.raises(ValueError, match="known to"):
        u.exp(scale, pol.max_total + 1)


@pytest.mark.parametrize("scale", [-3, 1, 2, 6])
def test_exp_hands_its_steps_over_in_lowest_terms(monkeypatch, scale):
    """Each step n/d of the exp recurrence reaches `_solve_by_weight` reduced,
    with d > 0, so that more of its sums meet on one denominator."""
    pol = TruncationPolicy.make(2, 6, (1, 2))
    f = NovikovSeries(pol, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-5, 4),
                            (1, 1): Fraction(3, 2), (2, 1): Fraction(7, 10)})
    seen = []
    real = series_module._solve_by_weight

    def spy(pol, lead, steps, divide_by_weight):
        seen.extend(steps)
        return real(pol, lead, steps, divide_by_weight)

    monkeypatch.setattr(series_module, "_solve_by_weight", spy)
    f.exp(scale)
    f.exp(scale, 3)
    assert len(seen) == 7
    for _, _, n, d in seen:
        assert d > 0 and math.gcd(n, d) == 1


@st.composite
def _mixed_denominator_pair(draw):
    """Two series over a 1-3 variable policy with weights 1-3 and rational
    coefficients of mixed denominators, so products join unequal denominators."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(nvars))
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=0, max_value=9 - nvars)), weights)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    coeffs = st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                       st.integers(min_value=1, max_value=12))
    series = st.dictionaries(exps, coeffs, max_size=5).map(lambda d: NovikovSeries(pol, d))
    return draw(series), draw(series)


@given(pair=_mixed_denominator_pair())
@settings(max_examples=40, deadline=None)
def test_kernels_match_fraction_oracles_on_mixed_denominators(pair):
    f, g = pair
    pol = f.policy
    assert f * g == series_product(f, g)
    u = f - NovikovSeries.constant(pol, f.constant_term())
    assert u.exp() == _naive(u, lambda k: Fraction(1, math.factorial(k)))
    one = NovikovSeries.one(pol)
    assert (one + u).log() == _naive(u, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)
    c = g.constant_term() or Fraction(-7, 5)
    inv = _naive(u * (-1 / c), lambda k: 1) * (1 / c)
    assert (u + NovikovSeries.constant(pol, c)).reciprocal() == inv


@given(pair=_mixed_denominator_pair(), c=st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=40, deadline=None)
def test_kernel_outputs_are_valid_series(pair, c):
    f, g = pair
    pol = f.policy
    u = f - NovikovSeries.constant(pol, f.constant_term())
    one = NovikovSeries.one(pol)
    for out in (f * g, f * c, c * f, u.exp(), (one + u).reciprocal()):
        assert out == NovikovSeries(pol, out.terms)
        assert all(type(v) is Fraction for v in out.terms.values())


@st.composite
def _product_pairs(draw):
    """A 1-3 variable policy with weights 1-2, and 0-4 pairs (a, b) of series
    over it with mixed-denominator coefficients; each b is cut at an order of
    its own, at most the policy's, as `substitute_forward` passes e^{d·g}."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    weights = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars))
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=0, max_value=9 - 2 * nvars)), weights)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)

    def series(policy):
        return st.dictionaries(exps, coeffs, max_size=5).map(lambda d: NovikovSeries(policy, d))

    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        low = TruncationPolicy.make(nvars, draw(st.integers(0, pol.max_total)), weights)
        pairs.append((draw(series(pol)), draw(series(low))))
    return pol, pairs


@given(case=_product_pairs())
@settings(max_examples=60, deadline=None)
def test_sum_of_products_is_the_sum_of_literal_products(case):
    pol, pairs = case
    want = NovikovSeries.zero(pol)
    for a, b in pairs:
        want = want + series_product(a, NovikovSeries(pol, b.terms))
    got = NovikovSeries.sum_of_products(pol, [(a.terms, b.terms) for a, b in pairs])
    assert got == want
    assert got == NovikovSeries(pol, got.terms)
    assert all(type(v) is Fraction for v in got.terms.values())
    # each pair again with its left factor negated: the sum cancels, and no zero is stored
    cancel = [(t, b.terms) for a, b in pairs for t in (a.terms, (-a).terms)]
    assert NovikovSeries.sum_of_products(pol, cancel).terms == {}
    for a, b in pairs:
        b = NovikovSeries(pol, b.terms)
        assert a * b == NovikovSeries.sum_of_products(pol, [(a.terms, b.terms)])


def test_sum_of_products_of_no_pairs_is_zero():
    assert NovikovSeries.sum_of_products(POL2, []).terms == {}
    assert NovikovSeries.sum_of_products(POL2, iter(())) == NovikovSeries.zero(POL2)


@st.composite
def _signed_pair_and_vector(draw):
    """Two raw coefficient dicts of mixed-sign rationals under one 1- or
    2-variable policy (keys may lie past its order), and a vector m with zero
    and mixed-sign entries."""
    nvars = draw(st.integers(min_value=1, max_value=2))
    weights = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars))
    pol = TruncationPolicy.make(nvars, draw(st.integers(min_value=0, max_value=6)), weights)
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * nvars)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=7)
    raw = st.dictionaries(exps, coeffs, max_size=6)
    m = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars))
    return pol, draw(raw), draw(raw), m


@given(case=_signed_pair_and_vector())
@settings(max_examples=60, deadline=None)
def test_linear_operators_match_literal_dict_arithmetic(case):
    pol, raw_f, raw_g, m = case

    def admitted(raw):
        return {k: v for k, v in raw.items()
                if v and sum(w * e for w, e in zip(pol.weights, k)) <= pol.max_total}

    def nonzero(d):
        return {k: v for k, v in d.items() if v}

    a, b = admitted(raw_f), admitted(raw_g)
    f, g = NovikovSeries(pol, raw_f), NovikovSeries(pol, raw_g)
    oracles = [
        (f + g, {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}),
        (f - g, {k: a.get(k, 0) - b.get(k, 0) for k in a.keys() | b.keys()}),
        (-f, {k: -v for k, v in a.items()}),
        (f.weighted_scaling(m),
         {k: v * sum(mi * ki for mi, ki in zip(m, k)) for k, v in a.items()}),
        *((f.euler_derive(i), {k: v * k[i] for k, v in a.items()}) for i in range(pol.nvars)),
    ]
    for out, oracle in oracles:
        assert out.terms == nonzero(oracle)
        assert out == NovikovSeries(pol, oracle)
        assert all(type(v) is Fraction for v in out.terms.values())
    assert (f - f).terms == {} and (f + (-f)).terms == {}
    other = NovikovSeries(TruncationPolicy.make(pol.nvars, pol.max_total + 1, pol.weights), raw_g)
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="incompatible truncation policies"):
            op(f, other)
        with pytest.raises(ValueError, match="incompatible truncation policies"):
            op(other, f)


# ---------------------------------------------------------------------------
# z-Laurent data over a finite graded algebra


AMB = builtin_geometry("p2_cubic").ambient
H = AMB.named("H")
H2 = AMB.named("H2")
ONE = AMB.unit()


def test_nilpotent_reciprocal_of_linear_class():
    r = nilpotent_reciprocal(H, 1)
    assert r.coefficient(-1) == ONE
    assert r.coefficient(-2) == -H
    assert r.coefficient(-3) == H2
    assert r.coefficient(-4).is_zero()


def test_nilpotent_reciprocal_multiplies_back():
    for a in (1, 2, -1, 5):
        lin = ZLaurentElement.linear(H, a)
        assert lin * nilpotent_reciprocal(H, a) == ZLaurentElement.one(AMB)


def test_nilpotent_reciprocal_rejects_zero_slope():
    with pytest.raises(ValueError):
        nilpotent_reciprocal(H, 0)


def test_projective_space_factor_chain():
    # 1/((H+z)(H+2z)) assembled factor by factor, checked by multiplying back
    r = nilpotent_reciprocal(H, 1) * nilpotent_reciprocal(H, 2)
    back = r * ZLaurentElement.linear(H, 1) * ZLaurentElement.linear(H, 2)
    assert back == ZLaurentElement.one(AMB)


def test_exact_constructor_drops_zero_terms():
    z = ZLaurentElement(AMB, {0: AMB.zero(), 1: H})
    assert list(z.terms) == [1]


elem3 = st.lists(
    st.integers(min_value=-4, max_value=4).map(Fraction), min_size=3, max_size=3
).map(lambda c: AMB.element(tuple(c)))
laurent = st.dictionaries(
    st.integers(min_value=-4, max_value=2), elem3, max_size=4
).map(lambda d: ZLaurentElement(AMB, d))


@given(a=laurent, b=laurent)
@settings(max_examples=30, deadline=None)
def test_exact_laurent_commutes_and_distributes(a, b):
    assert a * b == b * a


BL_AMB = builtin_geometry("blp3_k3").ambient
elem8 = st.lists(
    st.one_of(st.just(Fraction(0)),
              st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                        st.integers(min_value=1, max_value=7))),
    min_size=8, max_size=8,
).map(BL_AMB.element)
laurent8 = st.dictionaries(st.integers(min_value=-4, max_value=2), elem8, max_size=4)


@given(a=laurent8, b=laurent8)
@settings(max_examples=40, deadline=None)
def test_laurent_product_is_the_literal_double_sum(a, b):
    x = ZLaurentElement(BL_AMB, a)
    y = ZLaurentElement(BL_AMB, b)
    prod = x * y
    expect: dict[int, list[Fraction]] = {}
    for ka, va in x.terms.items():
        for kb, vb in y.terms.items():
            acc = expect.setdefault(ka + kb, [Fraction(0)] * BL_AMB.dim)
            for k, c in enumerate(dense_product(va, vb)):
                acc[k] += c
    assert {k: v.coeffs for k, v in prod.terms.items()} == {
        k: tuple(v) for k, v in expect.items() if any(v)
    }


# ---------------------------------------------------------------------------
# x-Laurent series with t-coefficients


def test_xlaurent_monomial_and_product():
    x = XLaurentSeries.monomial(6, 1, 0, 1)
    w = x + XLaurentSeries.monomial(6, -2, 3, 2)
    sq = w * w
    assert sq.coefficient(2, 0) == 1
    assert sq.coefficient(-1, 3) == 4
    assert sq.coefficient(-4, 6) == 4


def test_xlaurent_truncates_in_t():
    w = XLaurentSeries.monomial(4, 0, 3, 1)
    assert (w * w).coefficient(0, 4) == 0  # t^6 fell off the order-4 grid
    with pytest.raises(TruncationError, match="rerun with order >= 9"):
        w.coefficient(0, 9)
