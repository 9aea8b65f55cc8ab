"""Quantum, regularized, classical periods and the scaling identities.

The potential coefficients are cross-checked against a deliberately naive
series implementation written inside this file (plain coefficient lists,
no shared code with the package), and the theta constant terms against
explicit multinomial sums.
"""

import io
import json
import math
import re
from fractions import Fraction

import pytest
from conftest import ZERO_M, power_constant_terms, theta_coefficient

from mirrorpair import (
    InvariantTable,
    MirrorChange,
    MissingDataError,
    NovikovSeries,
    PipelineInvariantError,
    ProperPotential,
    TruncationError,
    XLaurentSeries,
    attach_invariants,
    classical_period,
    compare_periods,
    euler_scaling_check,
    load_geometry,
    proper_potential,
    quantum_period,
    regularize,
    roundtrip_for_geometry,
)
from mirrorpair.cli import run
from mirrorpair.periods import collapse_by_degree


# ---------------------------------------------------------------------------
# quantum and regularized periods


def test_plane_quantum_period(p2):
    G = quantum_period(p2, 9)
    assert G.as_dict() == {
        0: 1, 3: Fraction(1), 6: Fraction(1, 8), 9: Fraction(1, 216)}


def test_space_quantum_period(p3):
    G = quantum_period(p3, 12)
    assert G.coefficient(0) == 1
    assert G.coefficient(4) == 1
    assert G.coefficient(8) == Fraction(1, 16)
    assert G.coefficient(12) == Fraction(1, 1296)
    assert G.coefficient(5) == 0


def test_regularized_period_values(p2, p3):
    r2 = regularize(quantum_period(p2, 9))
    assert [r2.coefficient(d) for d in (3, 6, 9)] == [6, 90, 1680]
    r3 = regularize(quantum_period(p3, 12))
    assert [r3.coefficient(d) for d in (4, 8, 12)] == [24, 2520, 369600]


def test_regularize_multiplies_by_factorials(p2):
    q = quantum_period(p2, 6)
    r = regularize(q)
    for d, c in q.as_dict().items():
        assert r.coefficient(d) == c * math.factorial(d)


def test_regularize_requires_a_quantum_period(p2):
    r = regularize(quantum_period(p2, 6))
    with pytest.raises(ValueError):
        regularize(r)


def test_period_coefficient_past_order(p2):
    G = quantum_period(p2, 6)
    with pytest.raises(TruncationError, match="order >= 9"):
        G.coefficient(9)


def test_blowup_quantum_period_needs_data(blp3):
    with pytest.raises(MissingDataError):
        quantum_period(blp3, 4)


# ---------------------------------------------------------------------------
# Givental's rule on a toric pair with two Novikov variables, with no table
#
# P^1 x P^1 with D in |2A + 2B|, an elliptic curve: X is toric with four rays
# A, A, B, B, so ⟨[pt] ψ^{2a+2b−2}⟩_(a,b) = 1/(a!²·b!²) (Givental 1998), and the
# classical period of x + 1/x + y + 1/y has θ_(a,b) = (2a+2b)!/(a!²·b!²).

P1XP1 = """
[algebra.ambient]
name = p1_times_p1
basis = one A B AB
degrees = 0 1 1 2
unit = one
point = AB
products =
    A B AB 1

[algebra.divisor]
name = elliptic_curve
basis = one p
degrees = 0 1
unit = one
point = p

[restriction]
map =
    one one 1
    A p 2
    B p 2

[pair]
name = p1xp1_elliptic
divisor_class = 2*A + 2*B
novikov = y1 y2
tau_d_source = zero

[toric]
denominators = A; A; B; B

[truncation]
order = 6
weights = 1 1
"""


def _p1xp1_classes(t_order):
    return [(a, b) for a in range(t_order) for b in range(t_order)
            if 1 <= a + b and 2 * (a + b) <= t_order]


def test_givental_rule_gives_a_two_variable_quantum_side():
    geom = load_geometry(P1XP1)
    classes = _p1xp1_classes(12)
    square = {(a, b): (math.factorial(a) * math.factorial(b)) ** 2 for a, b in classes}
    quantum = {(a, b): (2 * (a + b), Fraction(1, square[a, b])) for a, b in classes}
    classical = {(a, b): (2 * (a + b), Fraction(math.factorial(2 * (a + b)), square[a, b]))
                 for a, b in classes}
    assert classical[1, 2][1] == 180 and classical[2, 2][1] == 2520
    assert {b: (d, v) for b, d, v in quantum_period(geom, 12).terms} == quantum
    assert {b: (d, v) for b, d, v in regularize(quantum_period(geom, 12)).terms} == classical
    pot = proper_potential(geom, 12)
    assert {b: (d, v) for b, d, v in classical_period(pot, 12).terms} == classical


def test_givental_rule_passes_verify_with_no_table(tmp_path):
    cfg = tmp_path / "p1xp1.ini"
    cfg.write_text(P1XP1)
    for flags, verdict in (((), "pass"), (("--negative-control",), "pass (mismatch caught at t^2)")):
        out = io.StringIO()
        code = run(["verify", "--geometry", str(cfg), "--order", "12", "--format", "json",
                    *flags], stream=out)
        doc = json.loads(out.getvalue())
        theorem = next(r["value"] for r in doc["records"] if r["selector"] == "period_theorem")
        assert (code, theorem, doc["metadata"]["result"]) == (0, verdict, "pass")


def test_givental_rule_refuses_a_class_of_contact_one(tmp_path):
    # fake toric data with D = A + 2B, the sum of the rays A, B, B: m = (1, 2), so the
    # class (1, 0) has D.beta = 1 and the quantum period would need its e^{−ct} factor
    text = (P1XP1.replace("divisor_class = 2*A + 2*B", "divisor_class = A + 2*B")
            .replace("denominators = A; A; B; B", "denominators = A; B; B")
            .replace("    B p 2\n", "    B p 1\n"))
    geom = load_geometry(text)
    assert geom.m_vector == (1, 2)
    reason = "m = 1,2: a smaller m_i can make its e^(-ct) correction nonzero"
    with pytest.raises(MissingDataError, match=re.escape(reason)):
        quantum_period(geom, 6)
    cfg = tmp_path / "contact_one.ini"
    cfg.write_text(text)
    out = io.StringIO()
    code = run(["verify", "--geometry", str(cfg), "--format", "json"], stream=out)
    theorem = next(r["value"] for r in json.loads(out.getvalue())["records"]
                   if r["selector"] == "period_theorem")
    assert code == 0 and theorem.startswith("skipped: ") and reason in theorem


# ---------------------------------------------------------------------------
# a one-file series oracle for the potential coefficients
#
# Single-variable power series as coefficient lists c[0..N].  The change of
# variables and the exponential are recomputed here from scratch; only then
# is the pipeline's potential compared against the result.


def _mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j <= n and bj:
                    out[i + j] += ai * bj
    return out


def _exp(a, n):
    assert a[0] == 0
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(0, n + 1):
        out = [o + p / math.factorial(k) for o, p in zip(out, power)]
        power = _mul(power, a, n)
    return out


def _oracle_weights(g_coeffs, m, n):
    """Solve y(q) = q·exp(-m·G), G = g(y(q)) by iteration; return exp(G)."""
    G = [Fraction(0)] * (n + 1)
    for _ in range(n + 2):
        y_of_q = _mul([Fraction(0), Fraction(1)], _exp([-m * c for c in G], n), n)
        G_new = [Fraction(0)] * (n + 1)
        ypow = [Fraction(1)] + [Fraction(0)] * n
        for k in range(1, n + 1):
            ypow = _mul(ypow, y_of_q, n)
            gk = g_coeffs.get(k, Fraction(0))
            if gk:
                G_new = [a + gk * b for a, b in zip(G_new, ypow)]
        if G_new == G:
            break
        G = G_new
    return G, _exp(G, n)


def test_potential_matches_independent_expansion(p2):
    pot = proper_potential(p2, 9)
    g = {k[0]: v for k, v in pot.change.g.terms.items()}
    G, expG = _oracle_weights(g, 3, 3)
    for beta, c in pot.change.composed.terms.items():
        assert G[beta[0]] == c
    for beta, w in pot.terms:
        assert expG[beta[0]] == w
    # frozen final values: W = x + 2t^3/x^2 + 5t^6/x^5 + 32t^9/x^8
    assert pot.as_dict() == {(1,): 2, (2,): 5, (3,): 32}


def test_space_potential_frozen_and_cross_checked(p3):
    pot = proper_potential(p3, 12)
    assert pot.as_dict() == {(1,): 6, (2,): 189, (3,): 14366}
    g = {k[0]: v for k, v in pot.change.g.terms.items()}
    _, expG = _oracle_weights(g, 4, 3)
    assert [expG[1], expG[2], expG[3]] == [6, 189, 14366]


def test_collapse_of_the_plane_potential(p2):
    w = proper_potential(p2, 9).collapse(9)
    assert w.coefficient(1, 0) == 1
    assert w.coefficient(-2, 3) == 2
    assert w.coefficient(-5, 6) == 5
    assert w.coefficient(-8, 9) == 32


def test_collapse_rejects_low_contact_weight(p2):
    # a change with m = 1 puts a weight at the class 1, of contact weight 1
    pot = proper_potential(p2, 9)
    bad = ProperPotential(pot.geometry, MirrorChange((1,), pot.change.g))
    assert bad.terms[0][0] == (1,) and bad.change.contact_weight((1,)) == 1
    # every class of g has D·β ≥ 2, so a weight below it is a program fault (CLI exit 3)
    with pytest.raises(PipelineInvariantError, match="contact weight 1 < 2"):
        bad.collapse(9)


def test_euler_scaling_check_rejects_low_contact_weight(p2):
    pot = proper_potential(p2, 9)
    bad = ProperPotential(pot.geometry, MirrorChange((1,), pot.change.g))
    with pytest.raises(PipelineInvariantError, match=r"at \(1,\) has contact weight 1 < 2"):
        euler_scaling_check(bad)


# ---------------------------------------------------------------------------
# theta constant terms: explicit multinomial cross-checks
#
# [W^n]_{x^0, t^n} for W = x + Σ w_d t^d x^{1-d} is a finite sum over the
# ways to spend the n factors; a choice of k_d factors of the t^d term uses
# Σ k_d (d-1) powers of 1/x, which the remaining x-factors must cancel.


def _multinomial(n, parts):
    rest = n - sum(parts)
    val = math.factorial(n)
    for p in parts:
        val //= math.factorial(p)
    return Fraction(val, math.factorial(rest))


def test_plane_theta_six(p2):
    w = proper_potential(p2, 9).collapse(9)
    got = theta_coefficient(w, 6)
    t1 = _multinomial(6, (2,)) * Fraction(2) ** 2   # two cubic terms: 15·4
    t2 = _multinomial(6, (1,)) * Fraction(5)        # one sextic term:  6·5
    assert (t1, t2) == (60, 30)
    assert got == 90 == t1 + t2


def test_plane_theta_nine(p2):
    w = proper_potential(p2, 9).collapse(9)
    got = theta_coefficient(w, 9)
    t1 = _multinomial(9, (3,)) * Fraction(2) ** 3             # 84·8   = 672
    t2 = _multinomial(9, (1, 1)) * Fraction(2) * Fraction(5)  # 72·10  = 720
    t3 = _multinomial(9, (1,)) * Fraction(32)                 # 9·32   = 288
    assert (t1, t2, t3) == (672, 720, 288)
    assert got == 1680 == t1 + t2 + t3


def test_space_theta_eight(p3):
    w = proper_potential(p3, 12).collapse(12)
    got = theta_coefficient(w, 8)
    t1 = _multinomial(8, (2,)) * Fraction(6) ** 2       # 28·36 = 1008
    t2 = _multinomial(8, (1,)) * Fraction(189)          # 8·189 = 1512
    assert got == 2520 == t1 + t2


def test_space_theta_twelve(p3):
    w = proper_potential(p3, 12).collapse(12)
    got = theta_coefficient(w, 12)
    t1 = _multinomial(12, (3,)) * Fraction(6) ** 3
    t2 = _multinomial(12, (1, 1)) * Fraction(6) * Fraction(189)
    t3 = _multinomial(12, (1,)) * Fraction(14366)
    assert (t1, t2, t3) == (47520, 149688, 172392)
    assert got == 369600 == t1 + t2 + t3


def test_theta_gating():
    # a "potential" with x^0 content off the homogeneity line must be refused
    w = XLaurentSeries.monomial(4, 0, 0, 1) + XLaurentSeries.monomial(4, 0, 1, 1)
    with pytest.raises(ValueError, match="support at t-degrees"):
        theta_coefficient(w, 1)
    with pytest.raises(TruncationError):
        theta_coefficient(XLaurentSeries.zero(2), 4)


# ---------------------------------------------------------------------------
# the per-class classical period against the literal W^n oracle


@pytest.mark.parametrize("t_order", [6, 12, 18, 24, 30, 36, 42, 48])
def test_plane_classical_period_matches_literal_powers(p2, t_order):
    pot = proper_potential(p2, t_order)
    period = classical_period(pot, t_order)
    assert all(d == 3 * beta[0] for beta, d, _ in period.terms)
    want = power_constant_terms(pot.collapse(t_order), t_order)
    assert period.as_dict() == {n: v for n, v in enumerate(want) if v}


@pytest.mark.parametrize("t_order", [8, 16, 24])
def test_space_classical_period_matches_literal_powers(p3, t_order):
    pot = proper_potential(p3, t_order)
    want = power_constant_terms(pot.collapse(t_order), t_order)
    got = classical_period(pot, t_order).as_dict()
    assert got == {n: v for n, v in enumerate(want) if v}


@pytest.mark.parametrize("order", [4, 5, 6, 7, 8])
def test_mixed_sign_classical_period_per_class(blp3, order):
    """θ_β = [q^β] S^{m·β}, with S = 1 + Σ w_β q^β raised by repeated products."""
    pot = proper_potential(blp3, order)
    period = classical_period(pot, order)
    with pytest.raises(TruncationError, match="both signs"):
        period.as_dict()
    pol = pot.geometry.policy
    S = NovikovSeries(pol, {(0, 0): Fraction(1), **dict(pot.terms)})
    got = {beta: (d, v) for beta, d, v in period.terms}
    power, n = NovikovSeries.one(pol), 0
    want = {}
    classes = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]
    for beta in sorted(classes, key=pot.change.contact_weight):
        d = pot.change.contact_weight(beta)
        if d < 1:
            continue
        while n < d:
            power, n = power * S, n + 1
        if power.coefficient(beta):
            want[beta] = (d, power.coefficient(beta))
    assert got == want
    assert got  # the mixed-sign pair has classes with D·β ≥ 1


def test_every_t_collapse_refuses_a_mixed_sign_pair_alike(blp3):
    """The potential, the classical and the quantum period share one refusal."""
    table = InvariantTable(((("x_point", (0, 2), 0), Fraction(1)),
                            (("x_point", (3, 5), 0), Fraction(7))))
    pot = proper_potential(blp3, 6)
    views = (
        lambda: pot.collapse(6),
        lambda: classical_period(pot, 6).as_dict(),
        lambda: quantum_period(attach_invariants(blp3, table), 6).as_dict(),
    )
    messages = set()
    for view in views:
        with pytest.raises(TruncationError, match="both signs") as caught:
            view()
        messages.add(str(caught.value))
    assert len(messages) == 1


def test_every_t_collapse_refuses_a_zero_entry_beside_a_positive_one(synthetic_negative):
    """m = (0, 2): the classes (k, 1) all sit at t², so their sum would grow with
    the order (2 classes at order 2, 3 at order 3).  Every view refuses with one
    reason of its own, and the per-class terms stay exact."""
    geom = load_geometry(ZERO_M)
    assert geom.m_vector == (0, 2)
    for order in (2, 3):
        pot = proper_potential(geom, order)
        views = (
            lambda: pot.collapse(order),
            lambda: classical_period(pot, order).as_dict(),
            lambda: quantum_period(geom, order).as_dict(),
        )
        messages = set()
        for view in views:
            with pytest.raises(TruncationError, match="zero entry beside a positive") as caught:
                view()
            messages.add(str(caught.value))
        assert len(messages) == 1
        want = {(k, 1): (2, Fraction(2)) for k in range(order)}  # θ_(k,1) = 2·g_(k,1)
        assert {b: (d, v) for b, d, v in classical_period(pot, order).terms} == want
    # m = (−2) has no positive entry: each t-degree holds one class, nothing is refused
    assert collapse_by_degree(synthetic_negative, [((1,), -2, Fraction(1))]) == {-2: 1}


def test_classical_period_refuses_a_short_mirror_exponent(p2):
    pot = proper_potential(p2, 12)
    low = NovikovSeries(proper_potential(p2, 9).geometry.policy, pot.change.g.terms)
    short = ProperPotential(pot.geometry, MirrorChange(pot.change.m_vector, low))
    with pytest.raises(PipelineInvariantError, match="mirror exponent g truncated at order 3"):
        classical_period(short, 12)


# ---------------------------------------------------------------------------
# period comparison


def test_classical_equals_regularized_plane(p2):
    cl = classical_period(proper_potential(p2, 9), 9)
    reg = regularize(quantum_period(p2, 9))
    assert cl.as_dict() == reg.as_dict()


def test_comparison_passes(p2, p3):
    for geom, order in ((p2, 9), (p3, 12)):
        cmp = compare_periods(proper_potential(geom, order), order)
        assert cmp.first_mismatch is None and cmp.passed
        assert cmp.expected_mismatch_degree is None  # a plain run plants nothing


def test_comparison_refuses_an_uncovered_potential(p2):
    # order 8 covers the plane's classes through t^24 only
    with pytest.raises(TruncationError, match="order >= 10"):
        compare_periods(proper_potential(p2), 30)


def test_negative_control_flags_first_degree(p2, p3):
    c2 = compare_periods(proper_potential(p2, 9), 9, negative_control=True)
    assert c2.first_mismatch == 3 == c2.expected_mismatch_degree
    assert c2.passed
    c3 = compare_periods(proper_potential(p3, 12), 12, negative_control=True)
    assert c3.first_mismatch == 4 and c3.passed


def test_negative_control_perturbs_only_one_side(p2):
    honest = compare_periods(proper_potential(p2, 9), 9)
    control = compare_periods(proper_potential(p2, 9), 9, negative_control=True)
    classical_honest = {d: c for d, c, _, _ in honest.rows}
    classical_control = {d: c for d, c, _, _ in control.rows}
    assert classical_honest == classical_control  # classical side untouched


# ---------------------------------------------------------------------------
# scaling identities and the roundtrip driver


def test_euler_scaling_reports(p2, p3, blp3):
    for geom in (p2, p3, blp3):
        report = euler_scaling_check(proper_potential(geom))
        assert report.all_ok, report.details


@pytest.mark.parametrize("name", ["p2", "blp3"])
def test_endpoint_q_catches_a_planted_error_in_G(request, name):
    """endpoint_q checks G(q(y)) = g(y) on the change's own G: an error planted
    in one coefficient of G fails it, and only it."""
    pot = proper_potential(request.getfixturevalue(name))
    G = pot.change.composed
    beta = min(G.terms, key=lambda b: (sum(b), b))
    planted = NovikovSeries(G.policy, {**G.terms, beta: G.terms[beta] + 1})
    pot.change.__dict__["composed"] = planted  # the change's cached G
    report = euler_scaling_check(pot)
    assert not report.all_ok
    assert report.parts == (
        ("coefficient_identity", True), ("scaling_operator", True), ("display_form", True),
        ("endpoint_y", True), ("endpoint_q", False),
    )
    assert f"y^{beta}" in report.details


def test_space_scaling_right_side_by_hand(p3):
    # R = Σ g_β · d/(d-1) · y^β must start 8y + 360y²
    from mirrorpair import normalize_i, relative_i_function

    g = normalize_i(relative_i_function(p3)).exponent.g
    assert g.coefficient((1,)) * Fraction(4, 3) == 8
    assert g.coefficient((2,)) * Fraction(8, 7) == 360


def test_roundtrip_driver(p2, p3, blp3):
    for geom in (p2, p3, blp3):
        report = roundtrip_for_geometry(proper_potential(geom))
        assert report.ok, report.mismatches
