"""Quantum, regularized, and classical periods, and the proper potential.

Each period is one `PeriodSeries`: a value v_β per curve class β with
D·β ≤ t_order, and the t-series 1 + Σ_d (Σ_{D·β = d} v_β) t^d as a view on
top.  The quantum period's values are the one-point descendant invariants
⟨[pt] ψ^{D·β-2}⟩_β, and `regularize` rescales each by (D·β)!.  On the mirror
side, the proper potential W = x · exp(G(q)) places each class β's mirror
coefficient at t^{D·β} x^{1-D·β}.  The classical period's values are
θ_β = [q^β] e^{(D·β)·G}, the constant term of W^{D·β} on β, which Good's
formula makes (D·β)·g_β (checked from G by `inversion.potential_roundtrip`).
`collapse_by_degree` is the one sum of classes into t-degrees, for the
periods and W alike: when m has entries of both signs infinitely many classes
share each t-degree, so it refuses rather than sum a truncated slice.
`compare_periods` checks the two t-series coefficient by coefficient in exact
arithmetic, with an optional deliberately-perturbed run (`negative_control`)
that must be caught at the first affected degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .geometry import (
    MissingDataError,
    PairGeometry,
    tabulate_one_point_invariants,
)
from .ifunctions import (
    MirrorChange,
    composed_exponent,
    divisor_mirror_map,
    mixed_signs,
    normalize_i,
    relative_i_function,
    substitute_forward,
)
from .inversion import RoundtripReport, potential_roundtrip
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationError,
    TruncationPolicy,
    XLaurentSeries,
)


def collapse_by_degree(
    geom: PairGeometry, terms: Iterable[tuple[tuple[int, ...], int, Fraction]]
) -> dict[int, Fraction]:
    """Σ_{D·β = d} v_β at each t-degree d of the per-class terms (β, d, v_β).

    Refused with TruncationError when m has entries of both signs: then
    infinitely many classes share each t-degree and a truncated sum changes
    with the order.
    """
    m = geom.m_vector
    if mixed_signs(m):
        raise TruncationError(
            f"{geom.name}: m_vector {','.join(map(str, m))} has entries "
            "of both signs, so infinitely many classes share each t-degree D.beta "
            "and any truncated sum over one t-degree changes with the order; only the "
            "per-class terms are exact"
        )
    sums: dict[int, Fraction] = {}
    for _, d, v in terms:
        sums[d] = sums.get(d, 0) + v
    return sums


class PeriodSeries:
    """A period through t^{t_order}: per-class terms and their t-series view.

    ``terms`` holds (β, D·β, v_β) by class, ``geometry`` the geometry the
    period ran at (its policy is the truncation used).  ``coefficients`` is
    the view {d: coefficient of t^d}, constant term 1, nonzero degrees rising;
    it is summed once by `collapse_by_degree` and refused where that refuses.
    """

    def __init__(
        self,
        kind: str,
        t_order: int,
        geometry: PairGeometry,
        terms: tuple[tuple[tuple[int, ...], int, Fraction], ...],
    ):
        self.kind = kind  # "quantum" | "regularized" | "classical"
        self.t_order = t_order
        self.geometry = geometry
        self.terms = terms  # (β, D·β, v_β)

    @cached_property
    def coefficients(self) -> dict[int, Fraction]:
        sums = collapse_by_degree(self.geometry, self.terms)
        return {0: Fraction(1), **{d: sums[d] for d in sorted(sums) if sums[d]}}

    def coefficient(self, d: int) -> Fraction:
        if d > self.t_order:
            raise TruncationError(
                f"t^{d} beyond computed order {self.t_order}; rerun with order >= {d}"
            )
        return self.coefficients.get(d, Fraction(0))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.coefficients)


def _point_terms(
    geom: PairGeometry, rows: list[tuple[tuple[int, ...], int, Fraction]], t_order: int
) -> tuple[tuple[tuple[int, ...], int, Fraction], ...]:
    """(β, D·β, ⟨[pt] ψ^{D·β-2}⟩_β) for the nonzero x_point rows with 2 ≤ D·β ≤ t_order."""
    graded = ((b, geom.contact_weight(b), a, v) for b, a, v in rows)
    return tuple(sorted(
        (b, d, v) for b, d, a, v in graded if 2 <= d <= t_order and a == d - 2 and v
    ))


def quantum_period(geom: PairGeometry, t_order: int) -> PeriodSeries:
    """G(t) = 1 + Σ_{D·β = d ≥ 2} ⟨[pt] ψ^{d-2}⟩_β t^d, kept per class β."""
    dm = divisor_mirror_map(geom)
    if not dm.is_zero():
        raise MissingDataError(
            f"{geom.name}: quantum period at nonzero divisor mirror map needs "
            "deformed invariants: external data required"
        )
    rows = tabulate_one_point_invariants(geom, t_order).rows_for("x_point")
    return PeriodSeries("quantum", t_order, geom, _point_terms(geom, rows, t_order))


def regularize(period: PeriodSeries) -> PeriodSeries:
    """The regularized quantum period: each class's value times (D·β)!."""
    if period.kind != "quantum":
        raise ValueError(f"can only regularize a quantum period, got {period.kind}")
    terms = tuple((b, d, v * math.factorial(d)) for b, d, v in period.terms)
    return PeriodSeries("regularized", period.t_order, period.geometry, terms)


# ---------------------------------------------------------------------------
# the proper potential


class ProperPotential:
    """W = x + Σ_{β≠0} w_β t^{D·β} x^{1-D·β}, with the per-class terms kept.

    The one value a pipeline run produces: the geometry it ran on (whose
    policy is the truncation actually used) and the mirror change built from
    its exponent g.  The weights w_β = [q^β] e^G are read off the change's e^G
    on first use; the period, Euler-scaling and roundtrip checks share them.
    """

    def __init__(self, geometry: PairGeometry, change: MirrorChange):
        self.geometry = geometry
        self.change = change

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:  # β ≠ 0 -> w_β
        return tuple(sorted((b, c) for b, c in self.change.exp_composed.terms.items() if any(b)))

    def contact_weight(self, beta) -> int:
        return self.change.contact_weight(beta)

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def collapse(self, t_order: int | None = None) -> XLaurentSeries:
        """The single-variable view: every class lands at t^{D·β} x^{1-D·β}.

        The classes of one t-degree are summed by `collapse_by_degree`, so the
        view is refused with TruncationError when m has entries of both signs.
        """
        terms = [(b, self.contact_weight(b), c) for b, c in self.terms]
        sums = collapse_by_degree(self.geometry, terms)
        for beta, d, _ in terms:
            if d < 2:
                raise ValueError(
                    f"potential term at {beta} has contact weight {d} < 2; "
                    "cannot collapse"
                )
        if t_order is None:
            t_order = max(sums, default=0)
        return XLaurentSeries(t_order, {1: {0: 1}, **{1 - d: {d: v} for d, v in sums.items()}})


def covering_order(geom: PairGeometry, t_order: int) -> int:
    """The truncation order at which every class with D·β ≤ t_order is computed."""
    if all(m > 0 for m in geom.m_vector):
        return max(1, *(t_order * w // m for w, m in zip(geom.policy.weights, geom.m_vector)))
    return t_order


def proper_potential(geom: PairGeometry, t_order: int | None = None) -> ProperPotential:
    """Run the mirror pipeline and exponentiate the change of variables.

    With t_order given, the truncation order is covering_order(geom, t_order);
    otherwise the geometry's own policy is used.
    """
    work = geom
    if t_order is not None:
        pol = geom.policy
        fresh = TruncationPolicy.make(
            pol.nvars, max_total=covering_order(geom, t_order), weights=pol.weights
        )
        work = geom.replace(policy=fresh)
    g = normalize_i(relative_i_function(work, lowest_z=0)).exponent.g
    return ProperPotential(work, MirrorChange(work.m_vector, g))


def shared_potential(geom: PairGeometry, t_order: int | None) -> ProperPotential:
    """The one potential `verify` hands to all three checks.

    It is computed at the geometry's own truncation order, raised to
    covering_order(geom, t_order) when t_order is given and needs more.
    """
    if t_order is not None and covering_order(geom, t_order) > geom.policy.max_total:
        return proper_potential(geom, t_order)
    return proper_potential(geom)


def classical_period(pot: ProperPotential, t_order: int) -> PeriodSeries:
    """θ_β = [W^{D·β}]_{x^0} on each class β with 1 ≤ D·β ≤ t_order.

    Good's formula [q^β] e^{k·G} = [y^β] e^{(k − m·β)·g}·(1 + E_m g) at k = m·β
    gives θ_β = (m·β)·g_β, read off g with no G built.  The potential must cover
    every class with D·β ≤ t_order.
    """
    geom = pot.geometry
    need = covering_order(geom, t_order)
    if geom.policy.max_total < need:
        raise TruncationError(
            f"potential computed at order {geom.policy.max_total}; the period "
            f"through t^{t_order} needs order >= {need}"
        )
    g = pot.change.g
    if g.policy != geom.policy:
        raise PipelineInvariantError(
            f"{geom.name}: mirror exponent g truncated at order "
            f"{g.policy.max_total}, its potential at {geom.policy.max_total}"
        )
    kept = ((b, pot.contact_weight(b), c) for b, c in sorted(g.terms.items()))
    terms = tuple((b, d, d * c) for b, d, c in kept if 1 <= d <= t_order)
    return PeriodSeries("classical", t_order, geom, terms)


# ---------------------------------------------------------------------------
# the two-sided comparison


class PeriodComparison:
    __slots__ = ("t_order", "rows", "all_match", "first_mismatch",
                 "negative_control", "expected_mismatch_degree")

    def __init__(
        self,
        t_order: int,
        rows: tuple[tuple[int, Fraction, Fraction, bool], ...],
        all_match: bool,
        first_mismatch: int | None,
        negative_control: bool,
        expected_mismatch_degree: int | None,
    ):
        self.t_order = t_order
        self.rows = rows  # (d, classical, regularized, ok)
        self.all_match = all_match
        self.first_mismatch = first_mismatch
        self.negative_control = negative_control
        self.expected_mismatch_degree = expected_mismatch_degree

    @property
    def passed(self) -> bool:
        if not self.negative_control:
            return self.all_match
        return (not self.all_match) and self.first_mismatch == self.expected_mismatch_degree


def compare_periods(
    pot: ProperPotential, t_order: int, negative_control: bool = False
) -> PeriodComparison:
    """Regularized quantum period versus classical period of the potential.

    The potential must cover every class with D·β ≤ t_order.  The classical
    side always runs on the geometry's own data.  Under negative_control the
    quantum-side table alone gets its lowest-degree entry within the window
    (2 ≤ D·β ≤ t_order) bumped by 1, and passing means the mismatch is
    flagged exactly at that degree.
    """
    geom = pot.geometry
    classical = classical_period(pot, t_order).coefficients
    rows = tabulate_one_point_invariants(geom, t_order).rows_for("x_point")
    expected_deg: int | None = None
    if negative_control:
        graded = sorted(
            (geom.contact_weight(b), i)
            for i, (b, a, v) in enumerate(rows)
            if 2 <= geom.contact_weight(b) <= t_order and a == geom.contact_weight(b) - 2
        )
        if not graded:
            raise MissingDataError(
                f"{geom.name}: no quantum-side entries to perturb for the control run"
            )
        expected_deg, idx = graded[0]
        b, a, v = rows[idx]
        rows[idx] = (b, a, v + 1)
    reg = regularize(PeriodSeries("quantum", t_order, geom, _point_terms(geom, rows, t_order)))
    regularized = reg.coefficients

    out_rows = []
    first = None
    for d in range(0, t_order + 1):
        c = classical.get(d, Fraction(0))
        r = regularized.get(d, Fraction(0))
        ok = c == r
        if not ok and first is None:
            first = d
        out_rows.append((d, c, r, ok))
    return PeriodComparison(
        t_order,
        tuple(out_rows),
        first is None,
        first,
        negative_control,
        expected_deg,
    )


# ---------------------------------------------------------------------------
# the Euler-scaling identity of the change of variables


class EulerScalingReport:
    __slots__ = ("coefficient_identity_ok", "scaling_ok",
                 "display_ok", "endpoint_y_ok", "endpoint_q_ok", "details")

    def __init__(
        self,
        coefficient_identity_ok: bool,
        scaling_ok: bool,
        display_ok: bool,
        endpoint_y_ok: bool,
        endpoint_q_ok: bool,
        details: str,
    ):
        self.coefficient_identity_ok = coefficient_identity_ok  # L == R
        self.scaling_ok = scaling_ok        # Δ_D L == Δ_D R
        self.display_ok = display_ok        # G·exp(-g)·(1 + Σ n_β u_β q^β(y)) == G
        self.endpoint_y_ok = endpoint_y_ok  # 1 + Σ n_β u_β q^β(y) == exp(g)
        self.endpoint_q_ok = endpoint_q_ok  # G(q(y)) == g(y)
        self.details = details

    @property
    def all_ok(self) -> bool:
        return (
            self.coefficient_identity_ok
            and self.scaling_ok
            and self.display_ok
            and self.endpoint_y_ok
            and self.endpoint_q_ok
        )


def _first_difference(a: NovikovSeries, b: NovikovSeries) -> str:
    keys = sorted(set(a.terms) | set(b.terms), key=lambda k: (sum(k), k))
    for k in keys:
        va = a.terms.get(k, Fraction(0))
        vb = b.terms.get(k, Fraction(0))
        if va != vb:
            return f"first difference at y^{k}: {va} != {vb}"
    return ""


def euler_scaling_check(pot: ProperPotential) -> EulerScalingReport:
    """Exact checks of the scaling identity tying the potential to the exponent.

    With n_β = D·β − 1 and u_β = w_β / n_β:
      * endpoint: 1 + Σ n_β u_β q^β(y) == exp(g(y)), and its q-side twin
        G(q(y)) == g(y) for the change's G = g(y(q));
      * coefficient identity: exp(-g)·Σ u_β q^β(y) − exp(-g) + 1
        == Σ g_β · (D·β)/(D·β−1) · y^β;
      * the Euler-scaling operator Δ_D f = Σ m_i y_i ∂_i f − f applied to both
        sides agrees (the operator is re-applied from scratch on each side);
      * the display form G·exp(-g)·(1 + Σ n_β u_β q^β(y)) == G with
        G = Σ m_i y_i ∂_i g rebuilt through the derivation operator.
    """
    geom = pot.geometry
    pol = geom.policy
    change = pot.change
    g = change.g
    m = change.m_vector

    one = NovikovSeries.one(pol)
    u_terms: dict[tuple[int, ...], Fraction] = {}
    nu_terms: dict[tuple[int, ...], Fraction] = {}
    for beta, w in pot.terms:
        d = change.contact_weight(beta)
        if d < 2:
            raise ValueError(
                f"{geom.name}: potential term at {beta} has contact weight {d} < 2"
            )
        u_terms[beta] = w / (d - 1)
        nu_terms[beta] = w

    u_y = substitute_forward(NovikovSeries(pol, u_terms), change)
    nu_y = substitute_forward(NovikovSeries(pol, nu_terms), change)
    exp_g = g.exp()
    g_back = substitute_forward(composed_exponent(change), change)

    endpoint_y = (one + nu_y) == exp_g
    endpoint_q = g_back == g

    E = g.exp(-1)
    L = E * u_y - E + one
    r_terms: dict[tuple[int, ...], Fraction] = {}
    for beta, c in g.terms.items():
        d = change.contact_weight(beta)
        if d < 2:
            raise ValueError(
                f"{geom.name}: exponent term at {beta} has contact weight {d} < 2"
            )
        r_terms[beta] = c * Fraction(d, d - 1)
    R = NovikovSeries(pol, r_terms)
    ident = L == R

    dL = L.weighted_scaling(m) - L
    dR = R.weighted_scaling(m) - R
    scaling = dL == dR

    Gy = g.weighted_scaling(m)
    display = (Gy * E * (one + nu_y)) == Gy

    details = ""
    if not ident:
        details = _first_difference(L, R)
    elif not endpoint_y:
        details = _first_difference(one + nu_y, exp_g)
    elif not endpoint_q:
        details = _first_difference(g_back, g)

    return EulerScalingReport(ident, scaling, display, endpoint_y, endpoint_q, details)


def roundtrip_for_geometry(pot: ProperPotential) -> RoundtripReport:
    """The potential roundtrip on the potential's own mirror change and its G."""
    return potential_roundtrip(pot.change)
