#!/usr/bin/env python3
"""The mirrorpair benchmark: timed passes over the CLI, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  One process, one thread:
each step is one call of ``mirrorpair.cli.run(argv + ["--format", "json"])``
with output captured in memory.

* ``--trace 0`` repeats whole passes over the workload's steps until
  ``--seconds`` have elapsed and reports the end-to-end metrics: ``setup_s``
  (median over fresh interpreters that import ``mirrorpair.cli`` and load the
  workload's builtin geometries), ``wall_s`` and ``top_step_s`` (medians over
  the passes) and ``peak_rss_mib`` (this process).
* ``--trace 1`` spends the first half of ``--seconds`` on untraced passes and
  the second half on passes with the spans of `spans.TRACED` installed, and
  reports per-pass medians of every span plus the tracing overhead.

Step times are in reference seconds.  The speed of a shared machine drifts
by a third or more within seconds to minutes, so a fixed pure-Python kernel
(`ReferenceClock`) runs before and after every step and, from a timer
signal, every SAMPLE_INTERVAL seconds during it.  The step's time, less the
kernel's, is scaled by REFERENCE_S times the mean kernel speed: a reference
second is a second on a machine that runs the kernel in exactly REFERENCE_S.
``setup_s`` is scaled the same way by kernel runs inside the set-up
interpreter itself, which may run on the other CPU.  The raw seconds are
printed alongside and kept in ``perfbench/out/``.

Every pass is checked (see `workloads`), and every check's planted error must
be caught.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PER_PASS = 3
REFERENCE_ORDER = 16
REFERENCE_S = 0.005
SAMPLE_INTERVAL = 0.2

# Run by a fresh interpreter, which the parent times from launch to its one
# line of output.  The line gives the seconds the interpreter spent on the
# reference kernel, before and after set-up, and the kernel times.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
src, here, order = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, here)
import oracles
sys.path.remove(here)
kernel = oracles.reference_kernel(order)
def sample():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
ks = [sample(), sample()]
t1 = time.perf_counter()
sys.path.insert(0, src)
import mirrorpair.cli
if not mirrorpair.__file__.startswith(src):
    sys.exit("mirrorpair was imported from " + mirrorpair.__file__)
from mirrorpair.geometry import builtin_geometry
for name in sys.argv[4:]:
    builtin_geometry(name)
t2 = time.perf_counter()
ks.append(sample())
print(t1 - t0, time.perf_counter() - t2, *ks, flush=True)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, a set-up failure)."""


class ReferenceClock:
    """Converts raw seconds to reference seconds by timing a fixed kernel.

    The kernel is exp of a dense rational series (`oracles.DenseRing`): the
    same kind of Fraction, list and dict work the program does, in code no
    change to the program can touch.  It runs before and after a timed call
    and every SAMPLE_INTERVAL seconds during it, from a SIGALRM handler in
    this thread, because the machine's speed changes within a long step.
    """

    def __init__(self) -> None:
        self.kernel = oracles.reference_kernel(REFERENCE_ORDER)
        self.paused = 0.0  # seconds of kernel runs inside timed calls, so far
        self._sampling = False

    def now_ns(self) -> int:
        """A clock that stands still while the kernel runs inside a timed call."""
        return time.perf_counter_ns() - round(self.paused * 1e9)

    def sample(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def timed(self, fn):
        """(fn's result, raw seconds, reference seconds) of one call.

        Raw seconds leave out the kernel runs made during the call.
        """
        samples = [self.sample()]
        paused = self.paused

        def sample_now(signum, frame):
            if self._sampling:
                return
            self._sampling = True
            start = time.perf_counter()
            samples.append(self.sample())
            self.paused += time.perf_counter() - start
            self._sampling = False

        previous = signal.signal(signal.SIGALRM, sample_now)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples.append(self.sample())
        raw -= self.paused - paused
        return result, raw, to_reference(raw, samples)


def to_reference(raw: float, samples: list[float]) -> float:
    """Raw seconds scaled by REFERENCE_S times the mean kernel speed."""
    return raw * REFERENCE_S * statistics.fmean(1 / k for k in samples)


def load_cli():
    if not (SRC / "mirrorpair" / "__init__.py").is_file():
        raise BenchError(f"no mirrorpair package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mirrorpair.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"mirrorpair was imported from {cli.__file__}, not {SRC}")
    return cli


def setup_once(geometries: tuple[str, ...]) -> tuple[float, float]:
    """(raw s, reference s) from launching a fresh interpreter until set-up is done."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE),
            str(REFERENCE_ORDER), *geometries]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    try:
        before, after, *kernel = map(float, line.split())
    except ValueError:
        kernel = []
    if proc.returncode != 0 or len(kernel) != 3:
        raise BenchError(f"set-up interpreter failed with exit status {proc.returncode}")
    raw = elapsed - before - after
    return raw, to_reference(raw, kernel)


def run_step(cli, step: workloads.Step) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.run([*step.argv, "--format", "json"], out)
    except Exception as exc:  # an escaped exception is a failed step, not a crash
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue().strip()


class Verdicts:
    """Checks the outputs of each pass as soon as the pass ends.

    A pass whose outputs hash the same as an earlier pass's shares that
    pass's verdict.  Only the verdicts and the first pass's parsed outputs
    (for the planted controls and the record counts) are kept, so the memory
    the benchmark holds does not grow with the number of passes, and
    `peak_rss_mib` does not depend on how fast the program runs.
    """

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.problems: dict[int, dict[int, list[str]]] = {}  # hash -> problems
        self.first: list[workloads.Output] | None = None
        self.failed = 0

    def add(self, results: list[tuple[int | None, str, str]]) -> None:
        # The built-in hash, not hashlib: importing hashlib maps OpenSSL, 3.6 MiB
        # of resident memory that would count in peak_rss_mib.
        key = hash(tuple(results))
        if key not in self.problems:
            outs = parse(results)
            self.problems[key] = check_outputs(self.wl, outs)
            if self.first is None:
                self.first = outs
        self.failed += len(self.problems[key])


def run_pass(cli, clock: ReferenceClock, wl: workloads.Workload, verdicts: Verdicts,
             tracer: spans.Tracer | None = None) -> dict:
    """One pass over the steps; its outputs are checked and then dropped."""
    p = {"raw": [], "ref": [], "layer": []}
    results = []
    for step in wl.steps:
        before = tracer.snapshot() if tracer else None
        result, raw, ref = clock.timed(lambda: run_step(cli, step))
        if tracer:
            p["layer"].append(spans.difference(tracer.snapshot(), before))
        results.append(result)
        p["raw"].append(raw)
        p["ref"].append(ref)
    verdicts.add(results)
    return p


def repeat_passes(cli, clock, wl, verdicts: Verdicts, seconds: float, tracer=None,
                  setup=None) -> list[dict]:
    """Whole passes until `seconds` have gone by.

    Given a `setup` list, SETUP_PER_PASS set-up times are appended to it before
    each pass: the machine's speed comes in spells of a second or so, and
    set-up samples spread over the run see more than one of them.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if setup is not None:
            setup.extend(setup_once(wl.geometries) for _ in range(SETUP_PER_PASS))
        passes.append(run_pass(cli, clock, wl, verdicts, tracer))
    return passes


def parse(results: list[tuple[int | None, str, str]]) -> list[workloads.Output]:
    outs = []
    for rc, text, err in results:
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        outs.append(workloads.Output(rc, doc, err))
    return outs


def check_outputs(wl: workloads.Workload, outs: list[workloads.Output]) -> dict[int, list[str]]:
    problems: dict[int, list[str]] = {}
    for check in wl.checks:
        for i, msgs in check.fn(outs).items():
            problems.setdefault(i, []).extend(f"{check.name}: {m}" for m in msgs)
    return problems


def planted_controls(wl: workloads.Workload, outs: list[workloads.Output]) -> list[str]:
    """Names of checks that did not catch their planted error."""
    missed = []
    for check in wl.checks:
        bad = copy.deepcopy(outs)
        try:
            check.plant(bad)
        except (KeyError, StopIteration, TypeError, ValueError) as exc:
            missed.append(f"{check.name} (could not plant: {type(exc).__name__})")
            continue
        if not check.fn(bad):
            missed.append(check.name)
    return missed


def max_coeff_bits(outs: list[workloads.Output]) -> int:
    bits = 0
    for out in outs:
        for rec in (out.doc or {}).get("records", []):
            for field in ("value", "classical", "regularized"):
                try:
                    q = Fraction(rec[field])
                except (KeyError, TypeError, ValueError):
                    continue
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def git_sha() -> str:
    # Without a .git here, git would look for a repository in the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median_of(passes: list[dict], key: str, index: int | None = None) -> float:
    if index is None:
        return statistics.median(sum(p[key]) for p in passes)
    return statistics.median(p[key][index] for p in passes)


def layer_metrics(traced: list[dict], outs: list[workloads.Output]) -> dict:
    """Per-pass medians of the span totals, in reference seconds like the steps."""
    per_pass = []
    for p in traced:
        totals = {name: [0.0, 0.0, 0] for name in spans.SPAN_NAMES}
        for step, raw, ref in zip(p["layer"], p["raw"], p["ref"]):
            scale = ref / raw * 1e-9
            for name, (incl, own, calls) in step.items():
                totals[name][0] += incl * scale
                totals[name][1] += own * scale
                totals[name][2] += calls
        per_pass.append(totals)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[name + ".s"] = (statistics.median(t[name][0] for t in per_pass), "s")
        metrics[name + ".self_s"] = (statistics.median(t[name][1] for t in per_pass), "s")
        metrics[name + ".calls"] = (statistics.median_low(t[name][2] for t in per_pass), "count")
    metrics["cli.records"] = (sum(len(o.doc["records"]) for o in outs if o.doc), "count")
    metrics["series.max_coeff_bits"] = (max_coeff_bits(outs), "bits")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli = load_cli()
    clock = ReferenceClock()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    verdicts = Verdicts(wl)
    setup: list[tuple[float, float]] = []
    if not args.trace:
        setup_once(wl.geometries)  # writes the bytecode caches; not counted

    nproc = len(os.sched_getaffinity(0))
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    sha = git_sha()
    print(f"python {platform.python_version()} nproc {nproc} git {sha}")

    traced = []
    if args.trace:
        plain = repeat_passes(cli, clock, wl, verdicts, args.seconds / 2)
        tracer = spans.Tracer(clock.now_ns)
        tracer.install()
        try:
            traced = repeat_passes(cli, clock, wl, verdicts, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        plain = repeat_passes(cli, clock, wl, verdicts, args.seconds, setup=setup)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = plain + traced

    failed = verdicts.failed
    for problems in verdicts.problems.values():
        for i, msgs in sorted(problems.items()):
            for msg in msgs:
                print(f"FAILED step {i} ({wl.steps[i].label}): {msg}")
    print(f"distinct pass outputs: {len(verdicts.problems)}")
    first = verdicts.first
    missed = planted_controls(wl, first)
    print(f"planted-error controls caught: {len(wl.checks) - len(missed)}/{len(wl.checks)}"
          + (f"; missed {', '.join(missed)}" if missed else ""))
    attempted = len(passes) * len(wl.steps)

    print(f"passes: {len(plain)} untraced, {len(traced)} traced; per step, median "
          "reference s / raw s:")
    for i, step in enumerate(wl.steps):
        print(f"  {median_of(plain, 'ref', i):9.4f} {median_of(plain, 'raw', i):9.4f}  "
              f"{step.label}{'   (top step)' if step.top else ''}")
    wall = median_of(plain, "ref")
    print(f"  {wall:9.4f} {median_of(plain, 'raw'):9.4f}  whole pass")

    if args.trace:
        metrics = layer_metrics(traced, first)
        wall_traced = median_of(traced, "ref")
        metrics["trace.overhead_s"] = (wall_traced - wall, "s")
        print(f"traced pass {wall_traced:.4f} reference s; self time by layer and spans:")
        for layer in spans.LAYERS:
            own = sum(metrics[f"{n}.self_s"][0] for n in spans.SPAN_NAMES
                      if n.startswith(layer + "."))
            print(f"  layer {layer:<11} self {own:9.4f} s  {100 * own / wall_traced:5.1f}% of the traced pass")
        for n in spans.SPAN_NAMES:
            if metrics[f"{n}.calls"][0]:
                print(f"  span {n:<40} s {metrics[f'{n}.s'][0]:9.4f}  "
                      f"self_s {metrics[f'{n}.self_s'][0]:9.4f}  calls {metrics[f'{n}.calls'][0]}")
    else:
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup), "s"),
            "wall_s": (wall, "s"),
            "top_step_s": (median_of(plain, "ref", wl.top_index), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        print(f"  set-up {metrics['setup_s'][0]:9.4f} "
              f"{statistics.median(raw for raw, _ in setup):9.4f}  median of {len(setup)}")
    for name, (value, unit) in metrics.items():
        if "." not in name or name.startswith(("cli.records", "series.max", "trace.")):
            print(f"  {name} = {value} {unit}")
    print(f"attempted {attempted} failed {failed}")

    OUT_DIR.mkdir(exist_ok=True)
    raw = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc, "git": sha,
        "reference_s": REFERENCE_S, "steps": [s.label for s in wl.steps],
        "setup": [{"raw_s": raw, "ref_s": ref} for raw, ref in setup],
        "passes": [{"raw_s": p["raw"], "ref_s": p["ref"], "traced": bool(p["layer"]),
                    "layer": [{k: v for k, v in step.items() if v[2]} for step in p["layer"]]}
                   for p in passes],
    }
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw))

    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
