"""The three benchmark workloads: their CLI steps, output checks and planted errors.

A step is one call of ``mirrorpair.cli.run(argv + ["--format", "json"])``.
Every check reads the parsed JSON of one pass and compares it with the
closed forms and the dense series code in `oracles`, never with a stored copy
of earlier output.  A check returns its problems per step index; a step with
any problem counts as a failed operation.

Each check has a planted error: a function that perturbs one record (or the
exit status) of a copy of a pass's outputs.  `run.py` feeds every plant to its
check and requires the check to report it, so a check that accepts everything
cannot pass for a working one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    top: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Output:
    rc: int | None   # None when run() raised
    doc: dict | None  # the parsed JSON document, None when it did not parse
    error: str = ""


Problems = dict[int, list[str]]


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable[[list[Output]], Problems]
    plant: Callable[[list[Output]], None]  # perturbs one record in place


@dataclass(frozen=True)
class Workload:
    name: str
    geometries: tuple[str, ...]  # builtin geometries loaded during set-up
    steps: tuple[Step, ...]
    checks: tuple[Check, ...]

    @property
    def top_index(self) -> int:
        return next(i for i, s in enumerate(self.steps) if s.top)


# ---------------------------------------------------------------------------
# record helpers


def records(out: Output, series: str) -> list[dict]:
    return [r for r in out.doc["records"] if r["series"] == series]


def bump(value: str) -> str:
    return str(Fraction(value) + 1)


def find(out: Output, series: str, pred=lambda r: True) -> dict:
    return next(r for r in records(out, series) if pred(r))


def _add(problems: Problems, i: int, msg: str) -> None:
    problems.setdefault(i, []).append(msg)


def _guard(name: str, steps: tuple[int, ...], fn) -> Callable[[list[Output]], Problems]:
    """Run fn only on steps that produced a document; a malformed one is a problem."""

    def check(outs: list[Output]) -> Problems:
        problems: Problems = {}
        if any(outs[i].doc is None for i in steps):
            return problems  # exit_status already blames these steps
        try:
            fn(outs, problems)
        except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError,
                StopIteration, AttributeError) as exc:
            for i in steps:
                _add(problems, i, f"{name}: unreadable output ({type(exc).__name__}: {exc})")
        return problems

    return check


def exit_status_check(n_steps: int) -> Check:
    def fn(outs: list[Output]) -> Problems:
        problems: Problems = {}
        for i, out in enumerate(outs):
            if out.rc != 0:
                _add(problems, i, f"exit status {out.rc} {out.error}".rstrip())
            elif out.doc is None:
                _add(problems, i, f"output is not one JSON document {out.error}".rstrip())
        return problems

    def plant(outs: list[Output]) -> None:
        outs[n_steps - 1].rc = 1

    return Check("exit_status", fn, plant)


# ---------------------------------------------------------------------------
# shared checks


def period_closed_form(steps: dict[int, tuple[int, int]]) -> Callable:
    """classical-period steps {index: (m, t_order)}: closed form at every degree."""

    def fn(outs, problems):
        for i, (m, order) in steps.items():
            out = outs[i]
            if out.doc["metadata"].get("t_order") != order:
                _add(problems, i, f"t_order {out.doc['metadata'].get('t_order')} != {order}")
            got = {r["t_deg"]: Fraction(r["value"]) for r in records(out, "classical_period")}
            want = {k: oracles.period_coefficient(m, k) for k in range(order + 1)}
            for k in sorted(set(got) | set(want)):
                if got.get(k, 0) != want.get(k, 0):
                    _add(problems, i, f"t^{k}: {got.get(k, 0)} != {want.get(k, 0)}")

    return fn


def change_of_variables(i: int, m: tuple[int, ...], weights: tuple[int, ...], order: int):
    """The two identities of a mirror-map step, recomputed with dense series.

    Returns (composed, inverse): G(q) = g(y(q)) and y_j(q)·exp(m_j·g(y(q))) = q_j,
    where g, G and y(q) are read from the step's records.
    """

    def parts(out: Output):
        md = out.doc["metadata"]
        if md["truncation_order"] != order:
            raise ValueError(f"truncation_order {md['truncation_order']} != {order}")
        names = md["novikov_variables"].split(",")
        ring = oracles.DenseRing(weights, order)
        g = {tuple(r["beta"]): Fraction(r["value"]) for r in records(out, "mirror_exponent")}
        ys = [dict() for _ in names]
        for r in records(out, "inverse_coordinate"):
            ys[names.index(r["selector"].split(":")[0])][tuple(r["beta"])] = Fraction(r["value"])
        ys = [ring.from_terms(y) for y in ys]
        return ring, ys, ring.substitute(g, ys)

    def composed(outs, problems):
        ring, _, gy = parts(outs[i])
        G = {tuple(r["beta"]): Fraction(r["value"]) for r in records(outs[i], "composed_exponent")}
        want = ring.terms(gy)
        for e in sorted(set(G) | set(want)):
            if G.get(e, 0) != want.get(e, 0):
                _add(problems, i, f"G at q^{e}: {G.get(e, 0)} != g(y(q)) = {want.get(e, 0)}")

    def inverse(outs, problems):
        ring, ys, gy = parts(outs[i])
        for j, (mj, y) in enumerate(zip(m, ys)):
            back = ring.terms(ring.mul(y, ring.exp(ring.scale(gy, mj))))
            if back != ring.terms(ring.variable(j)):
                _add(problems, i, f"y_{j}(q)·exp({mj}·g(y(q))) = {back} != q_{j}")

    return composed, inverse


def _bump_record(i: int, series: str, pred=lambda r: True):
    def plant(outs: list[Output]) -> None:
        rec = find(outs[i], series, pred)
        rec["value"] = bump(rec["value"])

    return plant


def _checks(n_steps: int, specs: list[tuple[str, tuple[int, ...], Callable, Callable]]) -> tuple[Check, ...]:
    return (exit_status_check(n_steps),) + tuple(
        Check(name, _guard(name, steps, fn), plant) for name, steps, fn, plant in specs
    )


# ---------------------------------------------------------------------------
# mirror-change-ladder


def mirror_change_ladder(seed: int) -> Workload:
    """A ladder in order on the one-variable pairs.

    Most of the time is in composed_exponent and NovikovSeries exp/mul, so a
    faster mirror change shows here, with its growth in order.  The grid is
    fixed and the seed unused: rung times must stay comparable between runs.
    """
    rungs = [("p2_cubic", 3, 24), ("p2_cubic", 3, 36), ("p2_cubic", 3, 48),
             ("p3_quartic", 4, 32), ("p3_quartic", 4, 48)]
    steps = tuple(
        Step(("classical-period", "--geometry", geo, "--order", str(n)), top=(geo, n) == ("p2_cubic", 48))
        for geo, _, n in rungs
    ) + (Step(("mirror-map", "--geometry", "p2_cubic", "--order", "12")),)
    mm = len(rungs)
    composed, inverse = change_of_variables(mm, (3,), (1,), 12)

    def rung_prefix(outs, problems):
        for lo, hi in ((0, 1), (1, 2), (3, 4)):
            a, b = outs[lo].doc["records"], outs[hi].doc["records"]
            if b[: len(a)] != a:
                _add(problems, hi, f"records of '{steps[lo].label}' are not a prefix of these")

    def exponent(outs, problems):
        got = {tuple(r["beta"]): Fraction(r["value"]) for r in records(outs[mm], "mirror_exponent")}
        want = {(d,): oracles.exponent_coefficient(3, d) for d in range(1, 13)}
        if got != want:
            bad = sorted(e for e in set(got) | set(want) if got.get(e) != want.get(e))
            _add(problems, mm, f"mirror_exponent differs from (3d-1)!/(d!)^3 at {bad}")

    specs = [
        ("period_closed_form", tuple(range(mm)),
         period_closed_form({i: (m, n) for i, (_, m, n) in enumerate(rungs)}),
         _bump_record(0, "classical_period", lambda r: r["t_deg"] == 3)),
        ("rung_prefix", tuple(range(mm)), rung_prefix,
         _bump_record(1, "classical_period", lambda r: r["t_deg"] == 36)),
        ("exponent_closed_form", (mm,), exponent,
         _bump_record(mm, "mirror_exponent", lambda r: r["beta"] == [5])),
        ("composed_identity", (mm,), composed,
         _bump_record(mm, "composed_exponent", lambda r: r["beta"] == [7])),
        ("inverse_identity", (mm,), inverse,
         _bump_record(mm, "inverse_coordinate", lambda r: r["beta"] == [4])),
    ]
    return Workload(
        "mirror-change-ladder",
        ("p2_cubic", "p3_quartic"),
        steps,
        _checks(len(steps), specs),
    )


# ---------------------------------------------------------------------------
# toric-blowup


def toric_blowup(seed: int) -> Workload:
    """The non-nef pair blp3_k3: two Novikov variables, cohomology-valued coefficients.

    Most of the time is hypergeometric assembly in the algebra and series
    layers, so series-kernel and algebra changes are weighed against each
    other here.  The grid is fixed and the seed unused.
    """
    steps = (
        Step(("i-function", "--geometry", "blp3_k3", "--order", "8")),
        Step(("mirror-map", "--geometry", "blp3_k3", "--order", "8")),
        Step(("mirror-map", "--geometry", "blp3_k3", "--order", "10"), top=True),
    )

    def z1_closed_form(outs, problems):
        got = {}
        for r in records(outs[0], "i_function"):
            if r["z"] != 1:
                continue
            key = tuple(r["beta"])
            if r["class"] != "1" or any(r["log"]) or r["contact"] != key[0] - key[1] or key in got:
                _add(problems, 0, f"unexpected z^1 record {r['selector']}")
            got[key] = Fraction(r["value"])
        # D.beta = b - a; the z^1 term survives exactly when D.beta <= 0
        want = {(a, b): oracles.toric_unit_coefficient(a, b)
                for a in range(9) for b in range(9 - a) if b <= a}
        for key in sorted(set(got) | set(want)):
            if got.get(key, 0) != want.get(key, 0):
                _add(problems, 0, f"z^1 at beta={key}: {got.get(key, 0)} != {want.get(key, 0)}")

    def contact_one(outs, problems):
        for i in (1, 2):
            vals = [r["value"] for r in records(outs[i], "contact_one_report") if r["beta"] == [0, 1]]
            if vals != ["1"]:
                _add(problems, i, f"contact_one_report at (0,1) is {vals}, not ['1']")

    def order_prefix(outs, problems):
        def key(r):
            return (r["series"], r["selector"], r["value"])

        low = sorted(map(key, outs[1].doc["records"]))
        high = sorted(key(r) for r in outs[2].doc["records"] if sum(r["beta"]) <= 8)
        if low != high:
            _add(problems, 2, f"order-8 records ({len(low)}) differ from order-10 records "
                              f"of weight <= 8 ({len(high)})")

    composed8, inverse8 = change_of_variables(1, (-1, 1), (1, 1), 8)
    composed10, inverse10 = change_of_variables(2, (-1, 1), (1, 1), 10)

    def both(f, g):
        def fn(outs, problems):
            f(outs, problems)
            g(outs, problems)
        return fn

    specs = [
        ("z1_closed_form", (0,), z1_closed_form,
         _bump_record(0, "i_function", lambda r: r["z"] == 1 and r["beta"] == [2, 1])),
        ("contact_one", (1, 2), contact_one,
         _bump_record(1, "contact_one_report", lambda r: r["beta"] == [0, 1])),
        ("order_prefix", (1, 2), order_prefix,
         _bump_record(1, "mirror_map", lambda r: r["beta"] == [2, 1])),
        ("composed_identity", (1, 2), both(composed8, composed10),
         _bump_record(2, "composed_exponent", lambda r: r["beta"] == [2, 5])),
        ("inverse_identity", (1, 2), both(inverse8, inverse10),
         _bump_record(2, "inverse_coordinate", lambda r: r["beta"] == [1, 3])),
    ]
    return Workload(
        "toric-blowup",
        ("blp3_k3",),
        steps,
        _checks(len(steps), specs),
    )


# ---------------------------------------------------------------------------
# verify-suite


def verify_suite(seed: int) -> Workload:
    """Many mid-order pipeline runs: each verify rebuilds the I-function and potential.

    The periods and inversion layers do their share here; the seed feeds the
    randomized identities sweep.
    """
    runs = [  # (geometry, m, t_order, negative control)
        ("p2_cubic", 3, 24, False),
        ("p2_cubic", 3, 9, True),
        ("p3_quartic", 4, 24, False),
        ("p3_quartic", 4, 12, True),
    ]
    steps = tuple(
        Step(("verify", "--geometry", geo, "--order", str(n))
             + (("--negative-control",) if neg else ()),
             top=(geo, n) == ("p3_quartic", 24))
        for geo, _, n, neg in runs
    ) + (
        Step(("verify", "--geometry", "blp3_k3")),
        Step(("identities", "--seed", str(seed), "--cases", "25")),
    )
    orders = [n for _, _, n, _ in runs] + [12]  # verify's default t-order
    ident = len(steps) - 1

    def verify_pass(outs, problems):
        for i in range(ident):
            md = outs[i].doc["metadata"]
            if md["result"] != "pass" or md["t_order"] != orders[i]:
                _add(problems, i, f"result {md['result']!r} at t_order {md['t_order']}")
            for r in outs[i].doc["records"]:
                if r["series"] not in ("check", "euler_scaling"):
                    continue
                skipped = (r["selector"] == "period_theorem" and i == ident - 1
                           and r["value"].startswith("skipped: "))
                if not (r["value"].startswith("pass") or skipped):
                    _add(problems, i, f"{r['series']} {r['selector']}: {r['value']}")

    def rows(out):
        return {r["t_deg"]: (Fraction(r["classical"]), Fraction(r["regularized"]), r["value"])
                for r in records(out, "period_check")}

    def closed_form(outs, problems):
        for i, (_, m, n, neg) in enumerate(runs):
            got = rows(outs[i])
            for k in range(n + 1):
                want = oracles.period_coefficient(m, k)
                if want and k not in got:
                    _add(problems, i, f"no period_check row at t^{k}")
                elif k in got and got[k][0] != want:
                    _add(problems, i, f"classical t^{k}: {got[k][0]} != {want}")
                elif k in got and not neg and (got[k][1] != got[k][0] or got[k][2] != "match"):
                    _add(problems, i, f"t^{k}: regularized {got[k][1]} vs classical {got[k][0]}")

    def negative_control(outs, problems):
        for i, (_, m, _, neg) in enumerate(runs):
            if not neg:
                continue
            got = rows(outs[i])
            bad = [k for k, (c, r, _) in sorted(got.items()) if c != r]
            labels = [k for k, (_, _, v) in sorted(got.items()) if v != "match"]
            verdict = find(outs[i], "check", lambda r: r["selector"] == "period_theorem")["value"]
            if bad != [m] or labels != [m] or verdict != f"pass (mismatch caught at t^{m})":
                _add(problems, i, f"mismatch rows {bad}, labelled {labels}, verdict {verdict!r}; "
                                  f"expected only t^{m}")

    def identities(outs, problems):
        doc = outs[ident].doc
        md = doc["metadata"]
        by_series: dict[str, list[str]] = {}
        for r in doc["records"]:
            by_series.setdefault(r["series"], []).append(r["value"])
        ok = (md["result"] == "pass" and md["seed"] == seed and md["cases"] == 25
              and sorted(by_series) == ["bell_identity", "lagrange_roundtrip"]
              and all(v == ["pass"] * 25 for v in by_series.values()))
        if not ok:
            _add(problems, ident, f"identities: result {md['result']!r}, seed {md['seed']}, "
                                  f"values {sorted({v for vs in by_series.values() for v in vs})}")

    def plant_closed_form(outs):
        rec = find(outs[2], "period_check", lambda r: r["t_deg"] == 8)
        rec["classical"] = bump(rec["classical"])
        rec["regularized"] = bump(rec["regularized"])

    def plant_control(outs):
        rec = find(outs[3], "period_check", lambda r: r["t_deg"] == 4)
        rec["regularized"] = rec["classical"]
        rec["value"] = "match"

    def plant_identities(outs):
        find(outs[ident], "bell_identity", lambda r: r["selector"] == "case 7")["value"] = "fail"

    def plant_verify(outs):
        outs[ident - 1].doc["metadata"]["result"] = "fail: euler_scaling"

    specs = [
        ("verify_pass", tuple(range(ident)), verify_pass, plant_verify),
        ("period_closed_form", tuple(range(len(runs))), closed_form, plant_closed_form),
        ("negative_control", (1, 3), negative_control, plant_control),
        ("identities_pass", (ident,), identities, plant_identities),
    ]
    return Workload(
        "verify-suite",
        ("p2_cubic", "p3_quartic", "blp3_k3"),
        steps,
        _checks(len(steps), specs),
    )


WORKLOADS = {
    "mirror-change-ladder": mirror_change_ladder,
    "toric-blowup": toric_blowup,
    "verify-suite": verify_suite,
}
