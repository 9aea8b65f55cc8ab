"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` to see the per-criterion
lines.  Every comparison is exact rational equality; the two timed criteria
use wall-clock bounds generous enough for slow CI machines but tight enough
to catch algorithmic regressions.
"""

import math
import time
from fractions import Fraction
from random import Random

from conftest import (
    geometric_reciprocal,
    normal_bundle_divisor_map,
    state_product,
    theta_coefficient,
)

from mirrorpair import (
    MirrorChange,
    StateSeries,
    bell_identity_check,
    builtin_geometry,
    compare_periods,
    composed_exponent,
    divisor_mirror_map,
    inversion_roundtrip,
    normalize_i,
    proper_potential,
    quantum_period,
    regularize,
    relative_i_function,
    roundtrip_for_geometry,
)
from mirrorpair.inversion import potential_roundtrip, random_exponent, random_simple_pole, random_unit_tail


def _line(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_space_periods_agree_through_t12():
    t0 = time.perf_counter()
    cmp = compare_periods(proper_potential(builtin_geometry("p3_quartic"), 12), 12)
    elapsed = time.perf_counter() - t0
    assert cmp.first_mismatch is None and cmp.passed
    row = {d: (cl, reg) for d, cl, reg, _ in cmp.rows}
    assert row[4] == (24, 24)
    assert row[8] == (2520, 2520)
    assert row[12] == (369600, 369600)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _line(1, f"quartic-surface pair: regularized == classical through t^12 ({elapsed:.2f}s)")


def test_criterion_02_plane_periods_agree_through_t9():
    p2 = builtin_geometry("p2_cubic")
    cmp = compare_periods(proper_potential(p2, 9), 9)
    assert cmp.first_mismatch is None and cmp.passed
    # multinomial cross-check of the t^6 entry: 15·2² + 6·5 = 90
    w = proper_potential(p2, 9).collapse(9)
    assert theta_coefficient(w, 6) == 90 == Fraction(
        math.comb(6, 2) * 4 + 6 * 5)
    _line(2, "cubic-curve pair: regularized == classical through t^9, theta(6) = 60+30")


def test_criterion_03_potentials_match_hand_expansion():
    p2 = proper_potential(builtin_geometry("p2_cubic"), 9)
    assert p2.as_dict() == {(1,): 2, (2,): 5, (3,): 32}
    p3 = proper_potential(builtin_geometry("p3_quartic"), 12)
    assert p3.as_dict() == {(1,): 6, (2,): 189, (3,): 14366}
    _line(3, "potential weights equal the hand-expanded values (2,5,32) and (6,189,14366)")


def test_criterion_04_blowup_hypergeometric_slice():
    bl = builtin_geometry("blp3_k3")
    I = relative_i_function(bl)
    N = normalize_i(I)  # refuses unless J₁ = [1]_0, its check u·r = 1
    i1 = I.z_slice(1)
    frozen = {
        ((0, 0), 0): 1, ((1, 0), 1): 24, ((1, 1), 0): 120,
        ((2, 0), 2): 2520, ((2, 1), 1): 22680, ((2, 2), 0): 113400,
    }
    for (beta, contact), v in frozen.items():
        unit = bl.ambient.unit() if contact == 0 else bl.divisor.unit()
        assert i1.coefficient(beta, contact=contact) == unit.scale(v)
    # J = I·I₁⁻¹ tops out at z¹ as I does, and the oracle's I₁·I₁⁻¹ is [1]_0
    assert I.top_z() == 1
    assert state_product(i1, geometric_reciprocal(i1)) == StateSeries.unit(bl)
    assert N.exponent.contact_one.coefficient((0, 1)) == 1
    _line(4, "blown-up pair: six frozen I1 values, J-shape, unit [1]_{-1} report at (0,1)")


def test_criterion_05_divisor_exponents_vanish():
    for name in ("p2_cubic", "p3_quartic"):
        geom = builtin_geometry(name)
        assert divisor_mirror_map(geom) == ()
        assert normal_bundle_divisor_map(geom) == {}
    _line(5, "divisor mirror maps vanish for both projective pairs, on both routes")


def test_criterion_06_random_lagrange_inversions():
    rng = Random(60_606)
    t0 = time.perf_counter()
    for case in range(25):
        f = random_simple_pole(rng)
        ok, residual = inversion_roundtrip(f, 10)
        assert ok, (case, residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _line(6, f"25 random Lagrange inversions exact through omega^-10 ({elapsed:.2f}s)")


def test_criterion_07_random_bell_identities():
    rng = Random(70_707)
    for case in range(25):
        report = bell_identity_check(random_unit_tail(rng), 12)
        assert report.ok, (case, report.mismatches)
    _line(7, "25 random Bell exponential identities at order 12")


def test_criterion_08_potential_roundtrips():
    for name in ("p2_cubic", "p3_quartic"):
        report = roundtrip_for_geometry(proper_potential(builtin_geometry(name)))
        assert report.ok, (name, report.mismatches)
        assert report.curve_order == 8
    rng = Random(80_808)
    for case in range(25):
        m = rng.choice((1, 2, 3, 4))
        report = potential_roundtrip(MirrorChange((m,), random_exponent(rng, 5)))
        assert report.ok, (case, report.mismatches)
    _line(8, "potential roundtrips: both catalog exponents at order 8 plus 25 random")


def test_criterion_09_scaling_identity_rederived():
    """The scaling check, with the weighted Euler operator rebuilt here from
    single-variable euler_derive calls instead of the packaged operator."""
    from mirrorpair import euler_scaling_check

    for name in ("p2_cubic", "p3_quartic"):
        geom = builtin_geometry(name)
        assert euler_scaling_check(proper_potential(geom)).all_ok

        g = normalize_i(relative_i_function(geom)).exponent.g
        m = geom.m_vector[0]
        change = MirrorChange(geom.m_vector, g)
        S = composed_exponent(change).exp()          # exp(G) in q
        pol = g.policy

        # L = exp(-g)·Σ u_β q^β(y) - exp(-g) + 1   with u_β = w_β/(d-1)
        # R = Σ g_β·d/(d-1)·y^β                    (d = m·β)
        # where q(y) = y·exp(m·g), so q^β(y) = y^β·exp(m·β·g).
        from mirrorpair import NovikovSeries

        exp_mg = (g * m).exp()
        u_of_y = NovikovSeries.zero(pol)
        for (k,), w in S.terms.items():
            if k == 0:
                continue
            d = m * k
            epow = NovikovSeries.one(pol)
            for _ in range(k):
                epow = epow * exp_mg
            u_of_y = u_of_y + NovikovSeries(pol, {(k,): w / (d - 1)}) * epow
        exp_neg_g = (g * (-1)).exp()
        L = exp_neg_g * u_of_y - exp_neg_g + NovikovSeries.one(pol)
        R = NovikovSeries(pol, {(k,): v * Fraction(m * k, m * k - 1)
                                for (k,), v in g.terms.items()})
        assert L == R, name

        # the weighted scaling operator, rebuilt from euler_derive
        def delta(f):
            out = NovikovSeries.zero(pol)
            for i, mi in enumerate(geom.m_vector):
                out = out + f.euler_derive(i) * mi
            return out - f

        assert delta(L) == delta(R), name
    _line(9, "scaling identity holds and is stable under the rebuilt Euler operator")


def test_criterion_10_negative_control():
    c2 = compare_periods(proper_potential(builtin_geometry("p2_cubic"), 9), 9, negative_control=True)
    assert c2.passed and c2.first_mismatch == 3
    c3 = compare_periods(proper_potential(builtin_geometry("p3_quartic"), 12), 12, negative_control=True)
    assert c3.passed and c3.first_mismatch == 4
    _line(10, "negative control caught at t^3 (plane) and t^4 (space), first affected degree")
