"""Closed-loop benchmark of coprimespec: one caller in one process.

    python3 perfbench/run.py --workload sweep-f2 --seed 1 --seconds 20 --trace 0

The package is imported from `src/` of the checkout this file sits in.  A
pass analyses every instance of the workload's pool once, in the order the
seed gives; each op starts when the previous one has finished.  Passes
repeat while the next one is expected to end within `--seconds`.  Every op
runs under a wall-clock limit (SIGALRM in this process), and its results
are checked against digests recorded in `expected.json`.  End-to-end times
are reported at a fixed reference speed of the machine, measured by timing
a fixed piece of pure-Python work throughout the run (`SpeedProbe`).

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` one
untraced pass is followed by traced passes, and the per-layer metrics are
printed and the spans written to `.perfbench-traces/` in the checkout.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from random import Random
from time import perf_counter

from tracing import Counters, Tracer
from workloads import WORKLOADS, analyse, build, closed_form_error, digest, op_order

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 25
OP_LIMIT_S = 60.0        # wall-clock limit of one op
PROBE_EVERY_S = 0.1      # CPU seconds between speed probes
REFERENCE_S = 0.0008     # the reference speed: one probe takes this long
RUN_CAP_S = 150.0        # no op may run past this point of the run
START = perf_counter()

LAYERS = ("endo", "lattice", "coprime", "zariski", "checks")
STAGES = ("endo.solve", "lattice.enumerate", "endo.ideals", "coprime.spectrum",
          "lattice.predicates", "lattice.socle", "zariski.topology",
          "coprime.restricted")


class OpOverrun(BaseException):
    """Raised by SIGALRM when an op passes its limit.  A BaseException, so
    that no `except Exception` in the package can swallow it."""


@contextmanager
def op_limit(seconds: float):
    def on_alarm(signum, frame):
        raise OpOverrun()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_rng = Random(5)
PROBE_MATRICES = [[[_rng.randrange(2) for _ in range(16)] for _ in range(16)]
                  for _ in range(4)]


def reference_loop() -> int:
    """Fixed pure-Python work of the package's kind, written without it:
    Gaussian elimination over GF(2) of four fixed 16 x 16 matrices, with the
    reduced rows collected in a set.  Its time follows the machine's speed."""
    seen, total = set(), 0
    for matrix in PROBE_MATRICES:
        rows = [list(row) for row in matrix]
        rank = 0
        for c in range(16):
            pivot = next((i for i in range(rank, 16) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for i in range(16):
                if i != rank and rows[i][c]:
                    rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
            rank += 1
        seen.update(tuple(row) for row in rows)
        total += rank
    return total + len(seen)


class SpeedProbe:
    """Times `reference_loop` every PROBE_EVERY_S of this process's CPU time
    (SIGVTALRM) and at each `mark()`.

    On a shared machine the speed of identical work drifts, in CPU time as
    much as in wall time.  `scale(a, b)` is REFERENCE_S over the mean probe
    from mark a to mark b: a time multiplied by it is the time the same work
    takes when the machine runs at the reference speed.  The garbage
    collector is off during a probe, so that no probe pays for a collection
    of the package's objects, and a timer tick during a probe is dropped."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy, collecting = True, gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            self.samples.append(perf_counter() - t0)
        finally:
            self._busy = False
            if collecting:
                gc.enable()

    def mark(self) -> int:
        self.sample()
        return len(self.samples) - 1

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def scale(self, first: int, last: int) -> float:
        return REFERENCE_S / statistics.fmean(self.samples[first:last + 1])


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_and_build(src: Path, refs, tracer=None, repeats=SETUP_REPEATS,
                     probe=None):
    """Imports the package afresh and builds the instances, `repeats` times,
    each after a garbage collection.  Returns (package, instances of the last
    repeat, setup times, build times); with a running `SpeedProbe`, each
    setup time is scaled to the reference speed by the probes over it."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    setup, builds = [], []
    for rep in range(repeats):
        for name in [n for n in sys.modules if n.split(".")[0] == "coprimespec"]:
            del sys.modules[name]
        gc.collect()
        first_probe = probe.mark() if probe else None
        t0 = perf_counter()
        pkg = importlib.import_module("coprimespec")
        t1 = perf_counter()
        if tracer is not None:
            tracer.op = f"setup-{rep}"
        instances = []
        for ref in refs:
            if tracer is None:
                instances.append((ref, build(pkg, ref)))
            else:
                with tracer.span("catalog.build"):
                    instances.append((ref, build(pkg, ref)))
        t2 = perf_counter()
        setup.append((t2 - t0) * (probe.scale(first_probe, probe.mark()) if probe else 1))
        builds.append(t2 - t1)
    if Path(pkg.__file__).resolve().parent != src / "coprimespec":
        raise SystemExit(f"imported coprimespec from {pkg.__file__}, not {src}")
    return pkg, instances, setup, builds


class Run:
    """The ops of one benchmark run and what they produced."""

    def __init__(self, pkg, workload, instances, expected, seconds,
                 op_limit_s=OP_LIMIT_S, probe=None):
        self.pkg = pkg
        self.w = workload
        self.instances = instances
        self.expected = expected
        self.seconds = seconds
        self.op_limit_s = op_limit_s
        self.attempted = 0
        self.failures = []      # (ref, reason)
        self.errors = {}        # wrong outputs, once each
        self.op_times = []
        self.probe = probe      # a running SpeedProbe, or None
        self.op_scales = []     # with a probe: each op's scale to the reference speed
        self.pass_scales = []   # and each pass's, weighted by its ops' times

    @property
    def correct(self) -> bool:
        """True when every op ended with the recorded results: a wrong
        output, an op that raised, overran or was not started, and a FAIL
        verdict each make it false."""
        return not self.errors and not self.failures

    def one_op(self, ref, m, tracer, results):
        self.attempted += 1
        limit = min(self.op_limit_s, RUN_CAP_S - (perf_counter() - START))
        if limit <= 0:
            self.failures.append((ref, "not started: run time cap reached"))
            return
        gc.collect()  # no op pays for the garbage of the one before it
        first_probe = self.probe.mark() if self.probe else None
        t0 = perf_counter()
        a = None
        try:
            with op_limit(limit):
                if tracer is None:
                    a, verdicts = analyse(self.pkg, m, self.w)
                else:
                    with tracer.span("op"):
                        a, verdicts = analyse(self.pkg, m, self.w, tracer.span)
        except OpOverrun:
            self.failures.append((ref, f"over the {limit:.0f} s limit"))
        except Exception as exc:  # the op fails; the run goes on
            self.failures.append((ref, f"{type(exc).__name__}: {exc}"))
        self.op_times.append(perf_counter() - t0)
        if self.probe:
            self.op_scales.append(self.probe.scale(first_probe, self.probe.mark()))
        if a is None:
            return
        fails = [v.statement for v in verdicts if v.status == "FAIL"]
        if fails:
            self.failures.append((ref, "FAIL verdicts: " + ", ".join(fails)))
        want = self.expected.get(ref, {}).get("digest")
        got = digest(a, self.w.kind)
        if got != want:
            self.errors[f"{ref}: digest {got} != recorded {want}"] = None
        problem = closed_form_error(ref, a)
        if problem:
            self.errors[problem] = None
        if results is not None:
            results.append(a)

    def one_pass(self, tracer=None, pass_id=0, results=None):
        first_op = len(self.op_times)
        t0 = perf_counter()
        for ref, m in self.instances:
            if tracer is not None:
                tracer.op = f"{ref}#{pass_id}"
            self.one_op(ref, m, tracer, results)
        wall = perf_counter() - t0
        if self.probe:
            times = self.op_times[first_op:]
            scaled = sum(t * s for t, s in zip(times, self.op_scales[first_op:]))
            self.pass_scales.append(scaled / sum(times) if times else 1.0)
        return wall

    def passes(self, tracer=None, first_id=0, results=None):
        """Whole passes while the next one is expected to fit the time."""
        walls = []
        deadline = perf_counter() + self.seconds
        while True:
            keep = results if not walls else None
            walls.append(self.one_pass(tracer, first_id + len(walls), keep))
            if perf_counter() + walls[-1] > deadline:
                return walls


def tail(times):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, walls, setup):
    """The end-to-end metrics, with times at the reference speed: each
    set-up repeat and op scaled by the probes over it, and each pass by its
    ops' scales weighted by their times (`SpeedProbe`)."""
    ops = [t * scale for t, scale in zip(run.op_times, run.op_scales)]
    value, pct, count = tail(ops)
    print(f"op_tail_s is p{pct:.0f} of {count} ops; {len(walls)} pass(es)")
    print(f"as measured: wall_s {statistics.median(walls):.6f} s, op_p50_s "
          f"{statistics.median(run.op_times):.6f} s, op_tail_s "
          f"{tail(run.op_times)[0]:.6f} s; median scale to the reference speed "
          f"{statistics.median(run.pass_scales):.4f}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(w * s for w, s in zip(walls, run.pass_scales)), "s"),
        "op_p50_s": (statistics.median(ops), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(pkg, tracer, counters, first_span, walls, untraced_wall,
              results, builds):
    """Span self times and counts of the traced passes, per pass."""
    self_s, stage_s = {}, {}
    checks_total = 0.0
    for name, own, total in tracer.self_times(first_span):
        layer = name.split(".")[0]
        if layer in LAYERS:
            self_s[layer] = self_s.get(layer, 0.0) + own
            stage_s[name] = stage_s.get(name, 0.0) + own
            if layer == "checks":
                checks_total += total
    n = counters.n
    per = lambda v: v / len(walls)
    ratio = lambda a, b: a / b if b else 0.0
    m = {stage + "_s": (per(stage_s.get(stage, 0.0)), "s") for stage in STAGES}
    m["catalog.build_s"] = (statistics.median(builds), "s")
    m["checks.total_s"] = (per(checks_total), "s")
    for statement in pkg.statement_names():
        m[f"checks.{statement}_s"] = (per(stage_s.get("checks." + statement, 0.0)), "s")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (per(self_s.get(layer, 0.0)), "s")
    m["trace.wall_s"] = (statistics.median(walls), "s")
    m["trace.overhead_s"] = (statistics.median(walls) - untraced_wall, "s")

    calls, computed = n["coproduct_calls"], n["coproducts_computed"]
    m.update({
        "coprime.coproduct_calls": (per(calls), "count"),
        "coprime.coproducts_computed": (per(computed), "count"),
        "coprime.coproduct_hit_ratio": (ratio(calls - computed, calls), "ratio"),
        "coprime.restricted_built": (per(n["restricted_built"]), "count"),
        "coprime.cpspec": (sum(len(a.spectrum.cpspec) for a in results), "count"),
        "coprime.csp": (sum(len(a.spectrum.csp) for a in results), "count"),
        "linalg.contains_calls": (per(n["contains"]), "count"),
        "linalg.from_vectors_calls": (per(n["from_vectors"]), "count"),
        "lattice.subspaces_tested": (per(n["lattice_tested"]), "count"),
        "lattice.elements": (per(n["lattice_elements"]), "count"),
        "lattice.fi_elements": (per(n["lattice_fi"]), "count"),
        "lattice.accept_ratio": (ratio(n["lattice_exhaustive_elements"],
                                       n["lattice_tested"]), "ratio"),
        "endo.dim": (sum(a.endo.dim for a in results), "count"),
        "endo.right_ideals": (per(n["right_ideals"]), "count"),
        "endo.ideal_subspaces_tested": (per(n["ideal_tested"]), "count"),
        "endo.ideal_accept_ratio": (ratio(n["right_ideals"], n["ideal_tested"]), "ratio"),
        "endo.ideal_budget_exceeded": (sum(1 for a in results if a.field.is_finite
                                           and a.right_ideals is None), "count"),
        "zariski.closed_sets": (sum(len(a.topology(f).closed) for a in results
                                    for f in ("fi", "full")), "count"),
    })
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="use the workload's small pool (for the tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    expected_path = HERE / "expected.json"
    if not (src / "coprimespec" / "__init__.py").is_file():
        print(f"error: no package source at {src}/coprimespec", file=sys.stderr)
        return 2
    if not expected_path.is_file():
        print(f"error: no recorded digests at {expected_path}", file=sys.stderr)
        return 2
    expected = json.loads(expected_path.read_text())["instances"]
    workload = WORKLOADS[args.workload]
    refs = op_order(workload.smoke if args.smoke else workload.refs, args.seed)
    traced = args.trace == 1
    print(f"workload {workload.name}: {len(refs)} instance(s) per pass, seed "
          f"{args.seed}, closed loop, one caller, one process; nproc "
          f"{os.cpu_count()}, Python {platform.python_version()}, revision "
          f"{git_revision(ROOT)}")

    tracer = Tracer() if traced else None
    if not traced:
        with SpeedProbe() as probe:
            pkg, instances, setup, builds = import_and_build(src, refs, probe=probe)
            warnings.simplefilter("ignore", pkg.exceptions.UncertifiedLattice)
            run = Run(pkg, workload, instances, expected, args.seconds,
                      probe=probe)
            walls = run.passes()
        metrics = end_to_end(run, walls, setup)
    else:
        pkg, instances, setup, builds = import_and_build(src, refs, tracer)
        warnings.simplefilter("ignore", pkg.exceptions.UncertifiedLattice)
        run = Run(pkg, workload, instances, expected, args.seconds)
        untraced_wall = run.one_pass()
        counters = Counters(pkg, tracer)
        first_span = len(tracer.spans)
        results = []
        counters.install()
        try:
            walls = run.passes(tracer, first_id=1, results=results)
        finally:
            counters.remove()
        metrics = per_layer(pkg, tracer, counters, first_span, walls,
                            untraced_wall, results, builds)
        out = ROOT / ".perfbench-traces"
        out.mkdir(exist_ok=True)
        (out / f"{workload.name}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))

    for ref, reason in run.failures:
        print(f"failed op {ref}: {reason}")
    for error in run.errors:
        print(f"WRONG OUTPUT {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:14.6f} {unit}")
    failed_refs = sorted({ref for ref, _ in run.failures})
    print(f"{'op_fail_ratio':<48} {len(run.failures) / run.attempted:14.6f} ratio"
          f" ({len(run.failures)} of {run.attempted} ops"
          + (f"; failed: {', '.join(failed_refs)})" if failed_refs else ")"))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
