"""Quantum, regularized, and classical periods, and the proper potential.

Each period is one `PeriodSeries`: a value v_β per curve class β with
D·β ≤ t_order, and the t-series 1 + Σ_d (Σ_{D·β = d} v_β) t^d as a view on
top.  The quantum period's values are the one-point descendant invariants
⟨[pt] ψ^{D·β-2}⟩_β at D·β ≥ 2, the x_point rows `PairGeometry.read_psi` reads
(the one statement of that rule).  `_quantum_series` builds them for
`quantum_period` and `compare_periods` alike, and `regularize` rescales each
by (D·β)!.  On the mirror side, the proper potential W = x · exp(G(q))
places each class β's mirror coefficient at t^{D·β} x^{1-D·β}.  The
classical period's values are θ_β = [q^β] e^{(D·β)·G}, the constant term of
W^{D·β} on β, which Good's formula makes (D·β)·g_β (checked from G by
`inversion.potential_roundtrip`).
`collapse_by_degree` is the one sum of classes into t-degrees, for the
periods and W alike: when m has a positive entry and a negative or zero one,
infinitely many classes share each t-degree, so it refuses rather than sum a
truncated slice.
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
    mixed_signs,
    normalize_i,
    _refuse_nonzero_tau_d,
    relative_i_function,
    substitute_forward,
)
from .inversion import RoundtripReport, potential_roundtrip
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationError,
    XLaurentSeries,
)


def collapse_by_degree(
    geom: PairGeometry, terms: Iterable[tuple[tuple[int, ...], int, Fraction]]
) -> dict[int, Fraction]:
    """Σ_{D·β = d} v_β at each t-degree d of the per-class terms (β, d, v_β).

    Refused with TruncationError when m has a positive entry and a
    non-positive one (of the other sign, or zero): then infinitely many
    classes share each t-degree and a truncated sum changes with the order.
    """
    m = geom.m_vector
    if any(x > 0 for x in m) and any(x <= 0 for x in m):
        why = "entries of both signs" if mixed_signs(m) else "a zero entry beside a positive one"
        raise TruncationError(
            f"{geom.name}: m_vector {','.join(map(str, m))} has {why}, so infinitely many "
            "classes share each t-degree D.beta and any truncated sum over one t-degree "
            "changes with the order; only the per-class terms are exact"
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


def _quantum_series(
    geom: PairGeometry, t_order: int, negative_control: bool = False
) -> tuple[PeriodSeries, int | None]:
    """The quantum period from one tabulation, and the t-degree a control perturbs.

    Its terms are (β, D·β, v_β) for the nonzero x_point rows with D·β ≤ t_order
    that `PairGeometry.read_psi` reads.  Under negative_control the read row of
    lowest D·β (the first in table order among equals, a zero row included)
    gets its value bumped by 1, and its D·β is returned; otherwise None is.
    """
    rows = tabulate_one_point_invariants(geom, t_order).rows_for("x_point")
    # a read row sits at D·β = ψ + 2
    read = [(b, a + 2, v) for b, a, v in rows
            if a == geom.read_psi("x_point", b) and a + 2 <= t_order]
    bumped = None
    if negative_control:
        if not read:
            raise MissingDataError(
                f"{geom.name}: no quantum-side entries to perturb for the control run"
            )
        i = min(range(len(read)), key=lambda k: read[k][1])
        b, bumped, v = read[i]
        read[i] = (b, bumped, v + 1)
    terms = tuple(sorted(t for t in read if t[2]))
    return PeriodSeries("quantum", t_order, geom, terms), bumped


def quantum_period(geom: PairGeometry, t_order: int) -> PeriodSeries:
    """G(t) = 1 + Σ_{D·β = d ≥ 2} ⟨[pt] ψ^{d-2}⟩_β t^d, kept per class β."""
    _refuse_nonzero_tau_d(geom, "quantum period", "deformed invariants")
    return _quantum_series(geom, t_order)[0]


def regularize(period: PeriodSeries) -> PeriodSeries:
    """The regularized quantum period: each class's value times (D·β)!."""
    if period.kind != "quantum":
        raise ValueError(f"can only regularize a quantum period, got {period.kind}")
    terms = tuple((b, d, v * math.factorial(d)) for b, d, v in period.terms)
    return PeriodSeries("regularized", period.t_order, period.geometry, terms)


# ---------------------------------------------------------------------------
# the proper potential


def _require_contact(d: int, what: str, beta: tuple[int, ...], suffix: str = "") -> int:
    """d, or PipelineInvariantError when a term of W or g has contact weight D·β < 2."""
    if d < 2:
        raise PipelineInvariantError(f"{what} at {beta} has contact weight {d} < 2{suffix}")
    return d


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

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def collapse(self, t_order: int | None = None) -> XLaurentSeries:
        """The single-variable view: every class lands at t^{D·β} x^{1-D·β}.

        The classes of one t-degree are summed by `collapse_by_degree`, so the
        view is refused with TruncationError where that refuses.
        """
        terms = [(b, self.change.contact_weight(b), c) for b, c in self.terms]
        sums = collapse_by_degree(self.geometry, terms)
        for beta, d, _ in terms:
            _require_contact(d, "potential term", beta, "; cannot collapse")
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
        work = geom.replace(policy=geom.policy.at_order(covering_order(geom, t_order)))
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
    kept = ((b, pot.change.contact_weight(b), c) for b, c in sorted(g.terms.items()))
    terms = tuple((b, d, d * c) for b, d, c in kept if 1 <= d <= t_order)
    return PeriodSeries("classical", t_order, geom, terms)


# ---------------------------------------------------------------------------
# the two-sided comparison


class PeriodComparison:
    """Classical against regularized period: `rows` (d, classical, regularized,
    ok) for d = 0..t_order, the lowest d not ok (None if every d is), and the
    degree a negative control perturbed (None on a plain run).  It passes when
    the two degrees agree: no mismatch, or the first one where it was planted.
    """

    __slots__ = ("rows", "first_mismatch", "expected_mismatch_degree")

    def __init__(
        self,
        rows: tuple[tuple[int, Fraction, Fraction, bool], ...],
        first_mismatch: int | None,
        expected_mismatch_degree: int | None,
    ):
        self.rows = rows
        self.first_mismatch = first_mismatch
        self.expected_mismatch_degree = expected_mismatch_degree

    @property
    def passed(self) -> bool:
        return self.first_mismatch == self.expected_mismatch_degree


def compare_periods(
    pot: ProperPotential, t_order: int, negative_control: bool = False
) -> PeriodComparison:
    """Regularized quantum period versus classical period of the potential.

    The potential must cover every class with D·β ≤ t_order.  The classical
    side always runs on the geometry's own data.  Under negative_control the
    quantum side alone gets its lowest-degree read entry with D·β ≤ t_order
    bumped by 1 (`_quantum_series`), and passing means the mismatch is
    flagged exactly at that degree.
    """
    classical = classical_period(pot, t_order).coefficients
    quantum, expected_deg = _quantum_series(pot.geometry, t_order, negative_control)
    regularized = regularize(quantum).coefficients

    sides = ((d, classical.get(d, Fraction(0)), regularized.get(d, Fraction(0)))
             for d in range(t_order + 1))
    rows = tuple((d, c, r, c == r) for d, c, r in sides)
    first = next((d for d, _, _, ok in rows if not ok), None)
    return PeriodComparison(rows, first, expected_deg)


# ---------------------------------------------------------------------------
# the Euler-scaling identity of the change of variables


class EulerScalingReport:
    """The Euler-scaling check: `parts` are its five (label, ok) pairs in
    print order, and `details` names the first difference of a failed one."""

    __slots__ = ("parts", "details")

    def __init__(self, parts: tuple[tuple[str, bool], ...], details: str):
        self.parts = parts
        self.details = details

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.parts)


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
    for beta, w in pot.terms:
        d = _require_contact(change.contact_weight(beta), f"{geom.name}: potential term", beta)
        u_terms[beta] = w / (d - 1)

    u_y = substitute_forward(NovikovSeries(pol, u_terms), change)
    nu_y = substitute_forward(NovikovSeries(pol, pot.as_dict()), change)
    exp_g = change.exp_g(1, pol.max_total)
    g_back = substitute_forward(composed_exponent(change), change)

    one_nu_y = one + nu_y
    endpoint_y = one_nu_y == exp_g
    endpoint_q = g_back == g

    E = change.exp_g(-1, pol.max_total)
    L = E * u_y - E + one
    r_terms: dict[tuple[int, ...], Fraction] = {}
    for beta, c in g.terms.items():
        d = _require_contact(change.contact_weight(beta), f"{geom.name}: exponent term", beta)
        r_terms[beta] = c * Fraction(d, d - 1)
    R = NovikovSeries(pol, r_terms)
    ident = L == R

    dL = L.weighted_scaling(m) - L
    dR = R.weighted_scaling(m) - R
    scaling = dL == dR

    Gy = g.weighted_scaling(m)
    display = (Gy * E * one_nu_y) == Gy

    details = ""
    if not ident:
        details = _first_difference(L, R)
    elif not endpoint_y:
        details = _first_difference(one_nu_y, exp_g)
    elif not endpoint_q:
        details = _first_difference(g_back, g)

    return EulerScalingReport((
        ("coefficient_identity", ident),     # L == R
        ("scaling_operator", scaling),       # Δ_D L == Δ_D R
        ("display_form", display),           # G·exp(-g)·(1 + Σ n_β u_β q^β(y)) == G
        ("endpoint_y", endpoint_y),          # 1 + Σ n_β u_β q^β(y) == exp(g)
        ("endpoint_q", endpoint_q),          # G(q(y)) == g(y)
    ), details)


def roundtrip_for_geometry(pot: ProperPotential) -> RoundtripReport:
    """The potential roundtrip on the potential's own mirror change and its G."""
    return potential_roundtrip(pot.change)
