"""The benchmark's per-layer trace still resolves against the package.

`perfbench/spans.py` wraps named functions and methods of `mirrorpair` from
outside.  A rename of a traced target would otherwise only show when a
traced benchmark run is made; here every target must resolve, be wrapped
while the tracer is installed, and be restored afterwards.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def _target(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _bindings():
    """Every name bound in a mirrorpair module or in one of its classes."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "mirrorpair" or key.startswith("mirrorpair.")):
            continue
        for name, value in vars(mod).items():
            out[(key, name)] = value
            if isinstance(value, type) and value.__module__ == key:
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = member
    return out


def test_every_traced_target_resolves_and_is_restored():
    spans = _load_spans()
    for _, module_name, _ in spans.TRACED:
        importlib.import_module(module_name)
    before = _bindings()
    originals = {name: _target(mod, path) for name, mod, path in spans.TRACED}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name, mod, path in spans.TRACED:
            wrapped = _target(mod, path)
            assert wrapped is not originals[name], f"{name}: {mod}.{path} was not wrapped"
            assert wrapped.__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
