"""Command-line front end.

Commands: validate, spectrum, topology, check, oracle, catalog.  Instances
are JSON files or catalog references (grouplike:n, divided:N, comatrix:n,
incidence:<poset-file>, sum:(a,b), quotient:(m,vK)).  Exit codes: 0 success
or all-PASS, 1 validation failure or FAIL verdicts or oracle mismatch,
2 usage or bad input (an unknown or malformed reference, an unreadable or
malformed instance or poset file, an unknown statement name, a negative
budget or count), 3 budget exhausted or unsupported over the requested field.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import InstanceAnalysis
from .catalog import CATALOG_NAMES, looks_like_ref, resolve_ref_to_bicomodule
from .checks import FAIL, run_checks, statement_names
from .exceptions import (BudgetExceeded, CoprimespecError,
                         ExhaustiveUnavailableOverQ, InvalidBicomodule,
                         ParseError, UnsupportedOverQ)
from .fields import parse_field_name
from .instancefile import load_instance, render_instance
from .oracle import diff_against_engine
from .zariski import generic_points, topology_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


class UsageError(Exception):
    """A bad command-line value that argparse does not check itself."""


def _field(name: str):
    try:
        return parse_field_name(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve(ref: str, field_name: str):
    """A catalog reference as a bicomodule; a bad family size (grouplike:0,
    comatrix:0, divided:-1) is a usage error."""
    field = _field(field_name)
    try:
        return resolve_ref_to_bicomodule(ref, field)
    except ValueError as exc:
        raise UsageError(f"{ref}: {exc}") from None


def _load_bicomodule(instance: str, field_name: str):
    if looks_like_ref(instance):
        return _resolve(instance, field_name)
    parsed = load_instance(instance)
    bad = [f"{label}: {rep}" for label, rep in
           parsed.validation_reports().items() if not rep.ok]
    if bad:
        raise InvalidBicomodule("; ".join(bad))
    return parsed.bicomodule()


def _analysis(args, m=None) -> InstanceAnalysis:
    if m is None:
        m = _load_bicomodule(args.instance, args.field)
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if m.field.is_finite else "generated"
    return InstanceAnalysis(m, mode=mode, budget=args.budget,
                            ideal_budget=args.ideal_budget, seed=args.seed)


def _emit(args, payload: dict, text: str):
    if args.report == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _basis_lines(field, subspace, indent="    "):
    if subspace.is_zero():
        return [indent + "0"]
    return [indent + "[" + ", ".join(field.format_scalar(x) for x in row) + "]"
            for row in subspace.basis]


def cmd_validate(args) -> int:
    if looks_like_ref(args.instance):
        m = _resolve(args.instance, args.field)
        reports = [("left coalgebra", m.left.validate()),
                   ("right coalgebra", m.right.validate()),
                   ("bicomodule", m.validate())]
    else:
        reports = list(load_instance(args.instance)
                       .validation_reports().items())
    ok = all(rep.ok for _, rep in reports)
    payload = {"valid": ok,
               "blocks": [{"block": label, "ok": rep.ok,
                           "issues": [str(v) for v in rep.issues]}
                          for label, rep in reports]}
    lines = []
    for label, rep in reports:
        lines.append(f"{label}: {'ok' if rep.ok else 'INVALID'}")
        for v in rep.issues:
            lines.append(f"  {v}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_FAIL


def cmd_spectrum(args) -> int:
    a = _analysis(args)
    report, ideals = a.spectrum, a.ideal_side
    field = a.field
    lines = [f"field {field.name}, dim {a.m.dim}, "
             f"lattice {len(a.lattice.elements)} elements "
             f"({a.lattice.mode.value}"
             + ("" if report.certified else ", not certified") + ")",
             f"endomorphism ring dimension {a.endo.dim}"]
    lines.append(f"fully coprime spectrum: {len(report.cpspec)} member(s)")
    for k in report.cpspec:
        lines.extend(_basis_lines(field, k))
        lines.append("    --")
    lines.append("coprime coradical:")
    lines.extend(_basis_lines(field, report.cpcorad))
    lines.append(f"fully cosemiprime members: {len(report.csp)}")
    if ideals.ideal_support:
        lines.append(f"prime-annihilator members: {len(ideals.ep)}; "
                     f"semiprime-annihilator members: {len(ideals.esp)}")
    if ideals.radical_support:
        lines.append(f"prime radical dim {ideals.prad.dim}, "
                     f"Jacobson radical dim {ideals.jac.dim}")
    notes = report.notes + ideals.notes
    for note in notes:
        lines.append(f"note: {note}")
    payload = {**report.to_dict(), **ideals.to_dict(), "notes": list(notes)}
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_topology(args) -> int:
    a = _analysis(args)
    flavor = "fi" if args.fi else "full"
    top = a.topology(flavor)
    rep = topology_report(top)
    sep = rep.separation
    fixed = a.e_set().bit_count()
    payload = rep.to_dict()
    payload["points"] = [[["%s" % a.field.format_scalar(x) for x in row]
                          for row in k.basis]
                         for k in a.spectrum.cpspec]
    payload["closed_sets"] = [sorted(c) for c in top.closed]
    payload["generic_points"] = generic_points(top, top.space)
    payload["coradical_fixed_parts"] = fixed
    payload["closed_bijection"] = fixed == len(top.closed)
    lines = [f"flavor {rep.flavor}: {rep.point_count} point(s), "
             f"{rep.closed_count} closed set(s), "
             + ("a topology" if rep.is_topology else "NOT a topology"),
             f"separation: T0={sep.t0} T1={sep.t1} T2={sep.t2} "
             f"discrete={sep.discrete}",
             f"irreducible={rep.irreducible} connected={rep.connected}",
             "components: " + (", ".join(str(sorted(c))
                                         for c in rep.components) or "none"),
             f"coradical-fixed parts: {fixed} "
             f"(closed sets: {len(top.closed)}; "
             + ("bijective" if payload["closed_bijection"]
                else "counts differ") + ")"]
    for i, k in enumerate(a.spectrum.cpspec):
        lines.append(f"point {i}:")
        lines.extend(_basis_lines(a.field, k))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _select_suite(suite: str):
    if suite == "all":
        return None
    known = statement_names()
    chosen = []
    for token in suite.split(","):
        token = token.strip()
        matches = [n for n in known if n == token or n.startswith(token)]
        if not matches:
            raise ParseError(f"unknown statement {token!r}; known: "
                             + ", ".join(known))
        chosen.extend(matches)
    return chosen


def _verdict_lines(verdicts):
    lines = []
    for v in verdicts:
        lines.append(f"{v.status:<12} {v.statement:<42} {v.detail}")
        if v.witness is not None:
            lines.append("             witness: "
                         + json.dumps(v.witness, sort_keys=True))
    return lines


def cmd_check(args) -> int:
    names = _select_suite(args.suite)
    runs = []
    if args.random is not None:
        from .catalog import random_instance
        if args.random < 0:
            raise UsageError(f"--random needs a count >= 0, got {args.random}")
        field = _field(args.field)
        for i in range(args.random):
            m, desc = random_instance(args.seed + i, field=field)
            runs.append((f"seed {args.seed + i}: {desc}", m))
    else:
        if args.instance is None:
            print("check needs an instance or --random", file=sys.stderr)
            return EXIT_USAGE
        runs.append((args.instance, _load_bicomodule(args.instance,
                                                     args.field)))
    failed = 0
    payload = []
    lines = []
    for label, m in runs:
        a = _analysis(args, m=m)
        verdicts = run_checks(a, names=names, subset_cap=args.subset_cap)
        failed += sum(1 for v in verdicts if v.status == FAIL)
        payload.append({"instance": label,
                        "verdicts": [v.to_dict() for v in verdicts]})
        lines.append(f"== {label}")
        lines.extend(_verdict_lines(verdicts))
    summary = (f"{sum(len(p['verdicts']) for p in payload)} verdict(s), "
               f"{failed} FAIL")
    lines.append(summary)
    _emit(args, {"runs": payload, "fail_count": failed}, "\n".join(lines))
    return EXIT_FAIL if failed else EXIT_OK


def cmd_oracle(args) -> int:
    m = _load_bicomodule(args.instance, args.field)
    diff = diff_against_engine(m, budget=args.budget,
                               ideal_budget=args.ideal_budget)
    payload = {"identical": diff.identical, "mismatches": diff.mismatches,
               "oracle": diff.oracle.to_dict()}
    lines = [("identical" if diff.identical else "MISMATCH")
             + ": " + json.dumps(diff.oracle.to_dict(), sort_keys=True)]
    lines.extend(diff.mismatches)
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if diff.identical else EXIT_FAIL


def cmd_catalog(args) -> int:
    if args.ref is None:
        lines = ["catalog families:"]
        lines.append("  grouplike:n          n group-like elements")
        lines.append("  divided:N            truncated divided powers of "
                     "height N")
        lines.append("  comatrix:n           dual of the n-by-n matrix "
                     "algebra")
        lines.append("  incidence:<file>     incidence coalgebra of a poset "
                     "file")
        lines.append("  sum:(a,b)            direct sum of two references")
        lines.append("  quotient:(m,vK)      quotient by the cyclic "
                     "subbicomodule of basis vector K")
        _emit(args, {"families": list(CATALOG_NAMES)}, "\n".join(lines))
        return EXIT_OK
    m = _resolve(args.ref, args.field)
    text = render_instance(m)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _add_common(sub, instance="required"):
    if instance == "required":
        sub.add_argument("instance", help="instance file or catalog "
                                          "reference")
    elif instance == "optional":
        sub.add_argument("instance", nargs="?", default=None,
                         help="instance file or catalog reference")
    sub.add_argument("--field", default="F2",
                     help="field for catalog references: F<p> or Q "
                          "(default F2)")
    sub.add_argument("--mode", choices=("auto", "exhaustive", "generated"),
                     default="auto",
                     help="lattice enumeration mode (default: exhaustive "
                          "over F_p, generated over Q)")
    sub.add_argument("--budget", type=int, default=200000,
                     help="subspace enumeration budget (default 200000)")
    sub.add_argument("--ideal-budget", type=int, default=50000,
                     help="ideal enumeration budget (default 50000)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for generated-mode probes and sampling")
    sub.add_argument("--report", choices=("text", "structured"),
                     default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprimespec",
        description="Exact fully coprime spectra and Zariski topologies of "
                    "finite-dimensional bicomodules.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the coalgebra and "
                                         "bicomodule axioms")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("spectrum", help="fully coprime spectrum and "
                                         "companions")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("topology", help="Zariski topology reports")
    _add_common(p)
    p.add_argument("--fi", action="store_true",
                   help="use the fully invariant flavor")
    p.set_defaults(func=cmd_topology)

    p = subs.add_parser("check", help="run the statement suite")
    _add_common(p, instance="optional")
    p.add_argument("--suite", default="all",
                   help="'all' or comma-separated statement names/prefixes")
    p.add_argument("--random", type=int, default=None, metavar="COUNT",
                   help="run on COUNT seeded random instances instead of "
                        "one named instance")
    p.add_argument("--subset-cap", type=int, default=6,
                   help="cap for connected-subset enumeration (default 6)")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("oracle", help="diff the engine against an "
                                       "independent recomputation")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("catalog", help="list families or emit an instance "
                                        "file")
    p.add_argument("ref", nargs="?", default=None,
                   help="catalog reference to emit")
    p.add_argument("--field", default="F2")
    p.add_argument("--out", default=None, help="write the instance file "
                                               "here")
    p.add_argument("--report", choices=("text", "structured"),
                   default="text")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("budget", "ideal_budget", "subset_cap"):
            value = getattr(args, option, 0)
            if value < 0:
                raise UsageError(f"--{option.replace('_', '-')} needs a count "
                                 f">= 0, got {value}")
        return args.func(args)
    except (UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, ExhaustiveUnavailableOverQ,
            UnsupportedOverQ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CoprimespecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
