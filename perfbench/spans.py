"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each listed public function or method of
`mirrorpair` with a timing wrapper and `Tracer.uninstall` puts the originals
back.  A module function is replaced in every `mirrorpair.*` namespace that
bound it by name (``periods`` and ``cli`` import ``composed_exponent`` and
friends with ``from .ifunctions import ...``), so a call through any of those
names is seen.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls a pass makes.  For each name the tracer keeps

* ``s``      inclusive time, counted once per outermost activation;
* ``self_s`` time minus the time of directly nested traced spans;
* ``calls``  the number of calls.
"""

from __future__ import annotations

import functools
import sys
import time

# metric name -> (module, attribute path inside the module)
TRACED = (
    ("geometry.builtin_geometry", "mirrorpair.geometry", "builtin_geometry"),
    ("geometry.load_geometry", "mirrorpair.geometry", "load_geometry"),
    ("geometry.tabulate_one_point_invariants", "mirrorpair.geometry",
     "tabulate_one_point_invariants"),
    ("algebra.element_mul", "mirrorpair.algebra", "Element.__mul__"),
    ("algebra.pairing_pushforward", "mirrorpair.algebra", "pairing_pushforward"),
    ("series.novikov_mul", "mirrorpair.series", "NovikovSeries.__mul__"),
    ("series.novikov_exp", "mirrorpair.series", "NovikovSeries.exp"),
    ("series.zlaurent_mul", "mirrorpair.series", "ZLaurentElement.__mul__"),
    ("series.nilpotent_reciprocal", "mirrorpair.series", "nilpotent_reciprocal"),
    ("series.xlaurent_mul", "mirrorpair.series", "XLaurentSeries.__mul__"),
    ("ifunctions.relative_i_function", "mirrorpair.ifunctions", "relative_i_function"),
    ("ifunctions.toric_i_function", "mirrorpair.ifunctions", "toric_i_function"),
    ("ifunctions.absolute_core", "mirrorpair.ifunctions", "absolute_core"),
    ("ifunctions.divisor_mirror_map", "mirrorpair.ifunctions", "divisor_mirror_map"),
    ("ifunctions.normalize_i", "mirrorpair.ifunctions", "normalize_i"),
    ("ifunctions.composed_exponent", "mirrorpair.ifunctions", "composed_exponent"),
    ("ifunctions.inverse_coordinates", "mirrorpair.ifunctions", "inverse_coordinates"),
    ("ifunctions.substitute_forward", "mirrorpair.ifunctions", "substitute_forward"),
    ("periods.proper_potential", "mirrorpair.periods", "proper_potential"),
    ("periods.classical_period", "mirrorpair.periods", "classical_period"),
    ("periods.quantum_period", "mirrorpair.periods", "quantum_period"),
    ("periods.compare_periods", "mirrorpair.periods", "compare_periods"),
    ("periods.euler_scaling_check", "mirrorpair.periods", "euler_scaling_check"),
    ("periods.roundtrip_for_geometry", "mirrorpair.periods", "roundtrip_for_geometry"),
    ("inversion.lagrange_inverse", "mirrorpair.inversion", "lagrange_inverse"),
    ("inversion.compose", "mirrorpair.inversion", "compose"),
    ("inversion.bell_identity_check", "mirrorpair.inversion", "bell_identity_check"),
    ("inversion.potential_roundtrip", "mirrorpair.inversion", "potential_roundtrip"),
    ("cli.run", "mirrorpair.cli", "run"),
    ("cli.emit", "mirrorpair.cli", "_emit"),
)

SPAN_NAMES = tuple(name for name, _, _ in TRACED)
LAYERS = ("geometry", "algebra", "series", "ifunctions", "periods", "inversion", "cli")


class Tracer:
    """Timing wrappers around the functions in TRACED."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock  # nanoseconds
        # name -> [inclusive ns, self ns, calls]
        self.totals: dict[str, list[int]] = {name: [0, 0, 0] for name in SPAN_NAMES}
        self._children: list[int] = []  # per open span: ns spent in nested spans
        self._active: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        totals = self.totals[name]
        children = self._children
        active = self._active
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                nested = children.pop()
                active[name] -= 1
                if not active[name]:
                    totals[0] += spent
                totals[1] += spent - nested
                totals[2] += 1
                if children:
                    children[-1] += spent

        return traced

    def install(self) -> None:
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "mirrorpair" or key.startswith("mirrorpair."))
        ]
        for name, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._bind(owner, attr, original, wrapped)
                continue
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapped)

    def _bind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        return {name: tuple(v) for name, v in self.totals.items()}


def difference(after: dict, before: dict) -> dict[str, tuple[int, int, int]]:
    """Per-name totals accumulated between two snapshots."""
    return {
        name: tuple(a - b for a, b in zip(after[name], before[name]))
        for name in after
    }
