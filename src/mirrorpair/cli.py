"""Command-line interface.

Subcommands compute the pieces of the pipeline (i-function, tau-d, mirror-map,
quantum-period, regularized-period, proper-potential, classical-period) or run
the exact verification suites (verify, identities).  Output formats: json
(a {"metadata": ..., "records": [...]} document), csv (records prefixed by
"# key: value" metadata comments), or pretty (aligned text).  All values are
exact rationals rendered as p/q strings.

An in-process `run` reuses one argparse parser and one loaded geometry per
builtin name; a --geometry or --table file is read on every call.

Exit codes: 0 all requested checks pass, 1 a verification check failed,
2 usage, configuration, or missing-data errors, 3 a broken pipeline
invariant (a program fault, not a usage error).
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from random import Random

from .geometry import (
    BUILTIN_CONFIGS,
    ConfigError,
    MissingDataError,
    attach_invariants,
    builtin_geometry,
    ingest_invariants,
    load_geometry,
    PairGeometry,
    require_quantum_source,
)
from .ifunctions import (
    PRODUCT_RULE_TEXT,
    MirrorChange,
    composed_exponent,
    divisor_mirror_map,
    inverse_coordinates,
    normalize_i,
    relative_i_function,
)
from .inversion import (
    bell_identity_check,
    inversion_roundtrip,
    random_simple_pole,
    random_unit_tail,
)
from .periods import (
    classical_period,
    compare_periods,
    euler_scaling_check,
    proper_potential,
    quantum_period,
    regularize,
    roundtrip_for_geometry,
    shared_potential,
)
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationError,
)

DEFAULT_T_ORDER = 12


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    `parse_args` keeps no state on the parser, so one instance serves every
    `run` in a process; it is not built at import.
    """
    parser = argparse.ArgumentParser(
        prog="mirrorpair",
        description="Exact mirror-pair pipeline: I-functions, mirror maps, "
        "proper potentials, and period checks for log Calabi-Yau pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_geometry=True):
        if needs_geometry:
            p.add_argument(
                "--geometry",
                default="p2_cubic",
                help="builtin geometry name (%s) or a config file path"
                % ", ".join(sorted(BUILTIN_CONFIGS)),
            )
            p.add_argument(
                "--table",
                default=None,
                help="path to an extra invariant table to attach to the geometry",
            )
        p.add_argument("--order", type=int, default=None, help="truncation order")
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("json", "csv", "pretty"),
            default="pretty",
        )
        return p

    common(sub.add_parser("i-function", help="relative I-function terms"))

    common(sub.add_parser("tau-d", help="divisor mirror map"))
    common(sub.add_parser("mirror-map", help="mirror map, exponent, and change of variables"))
    common(sub.add_parser("quantum-period", help="quantum period in t"))
    common(sub.add_parser("regularized-period", help="degreewise d!-rescaled quantum period"))

    common(sub.add_parser("proper-potential", help="proper Landau-Ginzburg potential"))

    common(sub.add_parser("classical-period", help="constant-term period of the potential"))

    p = common(sub.add_parser("verify", help="run the identity checks for a geometry"))
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb the quantum-side table and require the mismatch to be caught",
    )

    p = common(sub.add_parser("identities", help="randomized inversion/Bell identity sweeps"),
               needs_geometry=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=25)
    return parser


# ---------------------------------------------------------------------------
# output


def _json_scalar(key: str, value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"JSON output: {key!r} holds a {type(value).__name__}; only str, int, bool, "
        "None and flat lists of them are written"
    )


def _json_field(key: str, value, inner: str) -> str:
    """The ``,\n<inner>"key": value`` text of one field."""
    if not isinstance(value, (list, tuple)):
        text = _json_scalar(key, value)
    elif value:
        nested = "\n" + inner + "  "
        text = ("[" + nested + ("," + nested).join([_json_scalar(key, v) for v in value])
                + "\n" + inner + "]")
    else:
        text = "[]"
    return ",\n" + inner + encode_basestring_ascii(key) + ": " + text


def _json_object(fields, pad: str, memo: dict, head: str = "") -> str:
    """One flat object, closing brace at indent ``pad``: the rendered ``head``, then
    the (key, value) pairs ``fields``, each rendered once per (field, value types)
    through ``memo``, so that equal ``1`` and ``True``, or ``(1,)`` and ``(True,)``,
    share no text."""
    inner = pad + "  "
    parts = [head]
    for field in fields:
        value = field[1]
        try:
            typed = (field, tuple(map(type, value)) if type(value) is tuple else type(value))
            text = memo.get(typed)
            if text is None:
                text = memo[typed] = _json_field(field[0], value, inner)
        except TypeError:  # unhashable (a list, a dict) or refused: no memo, refused again
            text = _json_field(field[0], value, inner)
        parts.append(text)
    text = "".join(parts)
    return "{\n" + text[2:] + "\n" + pad + "}" if text else "{}"


def _json_document(metadata: dict, records: list[tuple]) -> str:
    """``json.dumps(doc, indent=2)`` byte for byte, for the doc whose records are
    the objects ``{"series", "selector", "value", **fields}``, written directly
    (with an indent the stdlib skips its C encoder) and each distinct field
    rendered once per document.  Series, selector and value are str; the other
    values are str, int, bool or None, or flat lists or tuples of them, and any
    other value is a TypeError naming its key."""
    enc, memo = encode_basestring_ascii, {}
    body = ",\n".join([
        "    " + _json_object(fields, "    ", memo, f',\n      "series": {enc(s)},\n      '
                            f'"selector": {enc(sel)},\n      "value": {enc(v)}')
        for s, sel, v, fields in records
    ])
    listed = "[\n" + body + "\n  ]" if records else "[]"
    return ('{\n  "metadata": ' + _json_object(metadata.items(), "  ", {})
            + ',\n  "records": ' + listed + "\n}")


def _emit(fmt: str, metadata: dict, records: list[tuple], stream) -> None:
    """Write the metadata and the records ``(series, selector, value, fields)``:
    ``value`` is a str and ``fields`` the (key, value) pairs JSON adds after it."""
    if fmt == "json":
        stream.write(_json_document(metadata, records) + "\n")
        return
    if fmt == "csv":
        for k, v in metadata.items():
            stream.write(f"# {k}: {v}\n")
        csv.writer(stream).writerows([("series", "selector", "value"),
                                      *[(r[0], r[1], r[2]) for r in records]])
        return
    # pretty
    for k, v in metadata.items():
        stream.write(f"{k}: {v}\n")
    if records:
        stream.write("\n")
        w1 = max(len(r[0]) for r in records)
        w2 = max(len(r[1]) for r in records)
        for r in records:
            stream.write(f"{r[0]:<{w1}}  {r[1]:<{w2}}  {r[2]}\n")


def _metadata(geom: PairGeometry | None, **extra) -> dict:
    md: dict = {}
    if geom is not None:
        pol = geom.policy
        md.update(
            geometry=geom.name,
            novikov_variables=",".join(geom.novikov_names),
            m_vector=",".join(str(m) for m in geom.m_vector),
            m_vector_convention="integer entries of any sign; t-degree is D.beta",
            truncation_order=pol.max_total,
            truncation_weights=",".join(str(w) for w in pol.weights),
            product_rule=PRODUCT_RULE_TEXT,
            contact_one_convention=(
                "[1]_{-1} components are reported separately and never "
                "summed into the mirror exponent"
            ),
            value_format="exact rationals as p/q strings",
        )
    md.update(extra)
    return md


# ---------------------------------------------------------------------------
# shared loading


def _read_input(flag: str, value: str) -> str:
    """The text of the file a --geometry or --table value names."""
    if not value:
        raise ConfigError(f"{flag} '' names no file")
    try:
        return Path(value).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"{flag} {value}: cannot read it: {reason}") from exc


def _load_geometry(ns: argparse.Namespace, order_is_truncation: bool) -> PairGeometry:
    if ns.geometry in BUILTIN_CONFIGS:
        geom = builtin_geometry(ns.geometry)
    else:
        text = _read_input("--geometry", ns.geometry)
        try:
            geom = load_geometry(text, Path(ns.geometry).stem)
        except (ConfigError, MissingDataError) as exc:
            raise type(exc)(f"{ns.geometry}: {exc}") from exc
    if order_is_truncation and ns.order is not None:
        geom = geom.replace(policy=geom.policy.at_order(ns.order))
    if ns.table is not None:
        text = _read_input("--table", ns.table)
        try:
            geom = attach_invariants(geom, ingest_invariants(text))
        except (ConfigError, MissingDataError) as exc:
            raise type(exc)(f"{ns.table}: {exc}") from exc
    return geom


# ---------------------------------------------------------------------------
# record builders


def _beta_str(beta) -> str:
    return ":".join(str(b) for b in beta)


def _class_labels(alg) -> list[str]:
    return ["1" if i == alg.unit_index else name for i, name in enumerate(alg.basis)]


def _class_records(geom: PairGeometry, series: str, terms: dict) -> list[tuple]:
    """One record per nonzero class coefficient of a StateSeries (keys
    (beta, contact, logpow)) or a RelativeSeries (keys (beta, contact, z, logpow)).

    Records go by weight and class, then falling z, contact and log; only
    relative series carry the z field.  A term's shared fields and selector
    prefix are formed once, whatever its number of classes, and each weight,
    exponent text and class-label list once per call.
    """
    weight, text, labels = map(functools.cache, (geom.policy.weight, _beta_str, _class_labels))

    def order(key):
        beta, contact, *z, logpow = key
        return (weight(beta), beta, [-x for x in z], contact, logpow)

    records = []
    for key in sorted(terms, key=order):
        beta, contact, *z, logpow = key
        el = terms[key]
        shared = (("beta", beta), ("contact", contact), *[("z", x) for x in z], ("log", logpow))
        prefix = (f"beta={text(beta)} contact={contact}{f' z={z[0]}' if z else ''} "
                  f"log={text(logpow)} class=[")
        names = labels(el.algebra)
        records += [(series, prefix + names[k] + "]", str(n) if d == 1 else f"{n}/{d}",
                     (*shared, ("class", names[k]))) for k, n, d in el.support]
    return records


def _novikov_records(series: str, prefix: str, ns: NovikovSeries) -> list[tuple]:
    """One record per term of a Novikov series, selector `<prefix><beta>`."""
    return [
        (series, f"{prefix}{_beta_str(beta)}", str(c), (("beta", beta),))
        for beta, c in sorted(ns.terms.items())
    ]


def _divisor_map_records(terms) -> list[tuple]:
    """One record per nonzero class coefficient of a divisor mirror map, or `all 0`."""
    if not terms:
        return [("divisor_mirror_map", "all", "0", ())]
    return [
        ("divisor_mirror_map",
         f"beta={_beta_str(beta)} z={z} class=[{_class_labels(el.algebra)[k]}]",
         str(n) if d == 1 else f"{n}/{d}", (("beta", beta), ("z", z)))
        for (beta, z), el in terms
        for k, n, d in el.support
    ]


def _potential_records(w) -> list[tuple]:
    """The collapsed potential W, by falling x-exponent, then t-degree."""
    return [
        ("proper_potential", f"t^{t} x^{x}", str(w.terms[x][t]), (("x_exp", x), ("t_deg", t)))
        for x in sorted(w.terms, reverse=True)
        for t in sorted(w.terms[x])
    ]


def _potential_term_records(pot) -> list[tuple]:
    """The per-class terms q^β t^d x^{1−d} of W, d = D·β."""
    return [
        ("proper_potential_term", f"q^{_beta_str(beta)} t^{d} x^{1 - d}", str(c),
         (("beta", beta), ("x_exp", 1 - d), ("t_deg", d)))
        for beta, c in pot.terms for d in (pot.change.contact_weight(beta),)
    ]


def _period_check_records(cmp) -> list[tuple]:
    """Classical against regularized period per t-degree, rows where both vanish left out."""
    return [
        ("period_check", f"t^{d}", "match" if ok else "MISMATCH",
         (("classical", str(c)), ("regularized", str(r)), ("t_deg", d)))
        for d, c, r, ok in cmp.rows
        if c != 0 or r != 0
    ]


def _euler_records(rep) -> list[tuple]:
    """The five parts of the Euler-scaling check."""
    return [
        ("euler_scaling", label, "pass" if ok else "fail", ()) for label, ok in rep.parts
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_i_function(ns: argparse.Namespace, stream) -> int:
    geom = _load_geometry(ns, order_is_truncation=True)
    rel = relative_i_function(geom)
    records = _class_records(geom, "i_function", rel.terms)
    _emit(ns.fmt, _metadata(geom, series="i_function"), records, stream)
    return 0


def cmd_tau_d(ns: argparse.Namespace, stream) -> int:
    geom = _load_geometry(ns, order_is_truncation=True)
    md = _metadata(geom, series="divisor_mirror_map", tau_d_source=geom.tau_d_source)
    if geom.tau_d_reason:
        md["tau_d_reason"] = geom.tau_d_reason
    _emit(ns.fmt, md, _divisor_map_records(divisor_mirror_map(geom)), stream)
    return 0


def cmd_mirror_map(ns: argparse.Namespace, stream) -> int:
    geom = _load_geometry(ns, order_is_truncation=True)
    norm = normalize_i(relative_i_function(geom, lowest_z=0))
    records = _class_records(geom, "mirror_map", norm.mirror_map.terms)
    exponent = norm.exponent
    records += _novikov_records("mirror_exponent", "y^", exponent.g)
    records += _novikov_records("contact_one_report", "y^", exponent.contact_one)
    change = MirrorChange(geom.m_vector, exponent.g)
    records += _novikov_records("composed_exponent", "q^", composed_exponent(change))
    for name, series in zip(geom.novikov_names, inverse_coordinates(change)):
        records += _novikov_records("inverse_coordinate", f"{name}: q^", series)
    _emit(ns.fmt, _metadata(geom, series="mirror_map"), records, stream)
    return 0


def _view_and_terms(geom, md: dict, view, terms) -> list[tuple]:
    """The records of the collapsed view, or its refusal noted in md, then the
    per-class records when the pair has more than one Novikov variable."""
    try:
        records = view()
    except TruncationError as exc:
        records = []
        md["collapsed_view"] = f"refused: {exc}"
    if len(geom.m_vector) > 1:
        records += terms()
    return records


def cmd_period(ns: argparse.Namespace, stream) -> int:
    """quantum-period, regularized-period and classical-period: one period each.

    The t-series prints when its view is allowed, and the refusal in its place
    when not; a pair with more than one Novikov variable adds the per-class terms.
    """
    geom = _load_geometry(ns, order_is_truncation=False)
    t_order = ns.order or DEFAULT_T_ORDER
    if ns.command == "classical-period":
        period = classical_period(proper_potential(geom, t_order), t_order)
    else:
        period = quantum_period(geom, t_order)
        if ns.command == "regularized-period":
            period = regularize(period)
    series = f"{period.kind}_period"
    md = _metadata(period.geometry, series=series, t_order=t_order)
    records = _view_and_terms(
        geom, md,
        lambda: [(series, f"t^{d}", str(v), (("t_deg", d),))
                 for d, v in period.coefficients.items()],
        lambda: [(f"{series}_term", f"q^{_beta_str(beta)} t^{d}", str(v),
                  (("beta", beta), ("t_deg", d))) for beta, d, v in period.terms],
    )
    _emit(ns.fmt, md, records, stream)
    return 0


def cmd_proper_potential(ns: argparse.Namespace, stream) -> int:
    geom = _load_geometry(ns, order_is_truncation=False)
    pot = proper_potential(geom, ns.order)
    md = _metadata(
        pot.geometry,
        series="proper_potential",
        exponent=" + ".join(
            f"({c})*y^{_beta_str(b)}" for b, c in sorted(pot.change.g.terms.items())
        )
        or "0",
    )
    records = _view_and_terms(
        geom, md,
        lambda: _potential_records(pot.collapse(ns.order)),
        lambda: _potential_term_records(pot),
    )
    _emit(ns.fmt, md, records, stream)
    return 0


def cmd_verify(ns: argparse.Namespace, stream) -> int:
    """Run the three checks on one shared potential and report the order it ran at."""
    geom = _load_geometry(ns, order_is_truncation=False)
    t_order = ns.order or DEFAULT_T_ORDER
    try:
        require_quantum_source(geom)
        period_skip = None
    except MissingDataError as exc:
        if ns.negative_control:
            raise
        period_skip = f"skipped: {exc}"
    pot = shared_potential(geom, None if period_skip else t_order)
    order = pot.geometry.policy.max_total
    records: list[tuple] = []
    failures: list[str] = []

    def check(selector: str, verdict: str) -> None:
        records.append(("check", selector, verdict, (("order", order),)))

    # 1. the period identity (regularized quantum == classical)
    if period_skip:
        check("period_theorem", period_skip)
    else:
        cmp = compare_periods(pot, t_order, negative_control=ns.negative_control)
        records += _period_check_records(cmp)
        if ns.negative_control:
            verdict = (
                f"pass (mismatch caught at t^{cmp.first_mismatch})"
                if cmp.passed
                else "fail (perturbation not caught at the expected degree)"
            )
        else:
            verdict = "pass" if cmp.passed else f"fail (first mismatch at t^{cmp.first_mismatch})"
        check("period_theorem", verdict)
        if not cmp.passed:
            failures.append("period_theorem")

    # 2. the Euler-scaling identity of the change of variables
    rep = euler_scaling_check(pot)
    records += _euler_records(rep)
    check("euler_scaling", "pass" if rep.all_ok else f"fail ({rep.details})")
    if not rep.all_ok:
        failures.append("euler_scaling")

    # 3. the potential roundtrip
    rt = roundtrip_for_geometry(pot)
    check(
        "potential_roundtrip",
        "pass" if rt.ok else "fail at classes " + ",".join(_beta_str(b) for b, _, _ in rt.mismatches),
    )
    if not rt.ok:
        failures.append("potential_roundtrip")

    md = _metadata(
        pot.geometry,
        series="verify",
        t_order=t_order,
        negative_control=str(ns.negative_control).lower(),
        result="pass" if not failures else "fail: " + ",".join(failures),
    )
    _emit(ns.fmt, md, records, stream)
    return 0 if not failures else 1


def cmd_identities(ns: argparse.Namespace, stream) -> int:
    if ns.cases < 1:
        raise ConfigError("--cases must be at least 1")
    lagrange_order = ns.order or 10
    bell_order = ns.order or 12
    rng = Random(ns.seed)
    records: list[tuple] = []
    failures = 0
    for i in range(ns.cases):
        f = random_simple_pole(rng)
        ok, _ = inversion_roundtrip(f, lagrange_order)
        records.append(("lagrange_roundtrip", f"case {i}", "pass" if ok else "fail", ()))
        failures += not ok
    for i in range(ns.cases):
        tail = random_unit_tail(rng)
        rep = bell_identity_check(tail, bell_order)
        records.append(("bell_identity", f"case {i}", "pass" if rep.ok else "fail", ()))
        failures += not rep.ok
    md = _metadata(
        None,
        series="identities",
        seed=ns.seed,
        cases=ns.cases,
        lagrange_order=lagrange_order,
        bell_order=bell_order,
        result="pass" if not failures else f"fail ({failures} cases)",
    )
    _emit(ns.fmt, md, records, stream)
    return 0 if not failures else 1


DISPATCH = {
    "i-function": cmd_i_function,
    "tau-d": cmd_tau_d,
    "mirror-map": cmd_mirror_map,
    "quantum-period": cmd_period,
    "regularized-period": cmd_period,
    "proper-potential": cmd_proper_potential,
    "classical-period": cmd_period,
    "verify": cmd_verify,
    "identities": cmd_identities,
}
COMMANDS = tuple(DISPATCH)


def run(argv: list[str], stream=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if stream is None:
        stream = sys.stdout
    try:
        if ns.order is not None and ns.order < 2:
            raise ConfigError("--order must be at least 2")
        if ns.order is not None and ns.order >= sys.maxsize:
            raise ConfigError(f"--order must be below {sys.maxsize}, got {ns.order}")
        return DISPATCH[ns.command](ns, stream)
    except PipelineInvariantError as exc:
        print(f"error: pipeline invariant broken: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
