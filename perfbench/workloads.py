"""Workload definitions, the analysis of one instance, and its output digest.

An instance is named by a reference string `<spec>/<field>`: `random:<seed>`
is `random_instance(seed)`, anything else is a catalog reference such as
`grouplike:7`.  One operation ("op") is the analysis of one instance.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "suite": full statement suite; "spectrum": no suite
    refs: tuple        # the instance pool of one pass
    smoke: tuple       # a small pool for the benchmark's own tests
    seed: int = 0      # the InstanceAnalysis seed, as `check --seed` passes it


def _random_refs(seeds, field):
    return tuple(f"random:{s}/{field}" for s in seeds)


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-f2", "suite",
        # The first 50 instances of the tier-1 sweep `check --random 100 --seed 7`.
        _random_refs(range(7, 57), "F2"),
        _random_refs((11, 12, 13), "F2"),
        seed=7),
    Workload(
        "wide-f2", "spectrum",
        ("grouplike:7/F2",),
        ("grouplike:4/F2",)),
    Workload(
        "chain-f2", "suite",
        ("divided:6/F2",),
        ("divided:3/F2",)),
    Workload(
        "sweep-q", "suite",
        _random_refs(range(0, 10), "Q"),
        _random_refs((1, 4, 7), "Q")),
)}


def op_order(refs, seed: int):
    """The pool in the order the workload seed gives it."""
    order = list(refs)
    Random(seed).shuffle(order)
    return order


def build(pkg, ref: str):
    """Constructs (and, through the catalog, validates) one instance."""
    spec, field_name = ref.rsplit("/", 1)
    field = pkg.parse_field_name(field_name)
    if spec.startswith("random:"):
        m, _ = pkg.random_instance(int(spec[len("random:"):]), field=field)
        return m
    return pkg.resolve_ref_to_bicomodule(spec, field)


# Lazy InstanceAnalysis properties in pipeline order, with their span names.
PIPELINE = (
    ("endo.solve", lambda a: a.endo),
    ("lattice.enumerate", lambda a: a.lattice),
    ("endo.ideals", lambda a: a.right_ideals),
    ("coprime.spectrum", lambda a: a.spectrum),
    ("lattice.predicates", lambda a: a.predicates),
    ("lattice.socle", lambda a: a.socle),
    ("zariski.topology", lambda a: (a.topology("fi"), a.topology("full"))),
)


def _no_span(name):
    return nullcontext()


def analyse(pkg, m, w: Workload, span=None):
    """One op of workload `w`: returns (analysis, verdicts).

    Untraced suite ops make the calls `coprimespec check` makes.  Traced ops
    (a `span` factory is given) force the pipeline stages first and then run
    the statements one at a time, so that each gets its own span; the suite
    forces every one of those stages anyway, so no extra work is done.
    Restricted spectra are left to the statements that ask for them.
    """
    mode = "exhaustive" if m.field.is_finite else "generated"
    a = pkg.InstanceAnalysis(m, mode=mode, seed=w.seed)
    if w.kind == "suite" and span is None:
        return a, pkg.run_checks(a)
    span = span or _no_span
    for name, force in PIPELINE:
        with span(name):
            force(a)
    verdicts = []
    if w.kind == "suite":
        for statement in pkg.statement_names():
            with span("checks." + statement):
                verdicts.extend(pkg.run_checks(a, names=[statement]))
    return a, verdicts


def digest(a, kind: str) -> str:
    """Hash of the mathematical results of one op.

    Covers the spectrum members, the coprime coradical, the cosemiprime
    members, the lattice size and certified flag, and on spectrum-path ops
    the closed sets of both topology flavors.  Verdict statuses are left
    out; FAIL verdicts are checked separately.
    """
    fmt = a.field.format_scalar

    def rows(sub):
        return [[fmt(x) for x in row] for row in sub.basis]

    spec = a.spectrum
    payload = {"cpspec": sorted(rows(k) for k in spec.cpspec),
               "cpcorad": rows(spec.cpcorad),
               "csp": sorted(rows(k) for k in spec.csp),
               "lattice_size": len(a.lattice),
               "certified": a.lattice.certified}
    if kind == "spectrum":
        payload["closed"] = {flavor: sorted(sorted(c) for c in a.topology(flavor).closed)
                             for flavor in ("fi", "full")}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def closed_form_error(ref: str, a):
    """Checks the known answers: grouplike:n is n one-dimensional points in a
    discrete space, divided:n is one point.  Returns a message or None."""
    spec = ref.rsplit("/", 1)[0]
    points = a.spectrum.cpspec
    if spec.startswith("grouplike:"):
        n = int(spec.split(":", 1)[1])
        if len(points) != n or any(k.dim != 1 for k in points):
            return f"{ref}: expected {n} one-dimensional points, got dims {[k.dim for k in points]}"
        for flavor in ("fi", "full"):
            if len(a.topology(flavor).closed) != 2 ** n:
                return f"{ref}: the {flavor} topology is not discrete"
    elif spec.startswith("divided:") and len(points) != 1:
        return f"{ref}: expected one point, got {len(points)}"
    return None
