"""Command line front end: exit codes, output formats, determinism."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import divided_power
from coprimespec.fields import prime_field
from coprimespec.instancefile import save_instance


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "coprimespec", *args],
                          capture_output=True, text=True, timeout=300)


def test_no_arguments_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# Each row: the arguments (a callable gets tmp_path) and a word stderr names.
BAD_INPUT = {
    "unknown-reference": (lambda _: ("spectrum", "nosuch:3"), "nosuch"),
    "bad-size": (lambda _: ("spectrum", "grouplike:x"), "'x'"),
    "unreadable-instance-file": (
        lambda tmp: ("spectrum", str(tmp / "missing.json")), "missing.json"),
    "malformed-instance-file": (
        lambda tmp: ("spectrum", _write(tmp, "bad.json", "{not json")), "line 1"),
    "unknown-suite": (
        lambda _: ("check", "--suite", "nosuch", "grouplike:2"), "nosuch"),
    "unreadable-poset-file": (
        lambda tmp: ("spectrum", f"incidence:{tmp / 'missing.poset'}"), "missing.poset"),
    "malformed-poset-file": (
        lambda tmp: ("spectrum", "incidence:" + _write(tmp, "bad.poset", "{not json")),
        "bad.poset"),
    "negative-budget": (
        lambda _: ("spectrum", "grouplike:2", "--budget", "-5"), "--budget"),
    "negative-ideal-budget": (
        lambda _: ("check", "grouplike:2", "--ideal-budget", "-1"), "--ideal-budget"),
    "check-without-instance": (lambda _: ("check",), "an instance or --random"),
    "check-instance-and-random": (
        lambda _: ("check", "grouplike:2", "--random", "1"), "not both"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_is_a_usage_error(tmp_path, case):
    build, word = BAD_INPUT[case]
    proc = run_cli(*build(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert word in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name", ["F4", "F1", "Fx"])
def test_bad_field_name_is_a_usage_error(name):
    proc = run_cli("spectrum", "grouplike:2", "--field", name)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert name in lines[0]


@pytest.mark.parametrize("args", [
    ("spectrum", "grouplike:0"),
    ("spectrum", "grouplike:-1"),
    ("spectrum", "comatrix:0"),
    ("check", "--random", "-2"),
], ids=["grouplike-0", "grouplike-negative", "comatrix-0", "random-negative"])
def test_bad_catalog_size_is_a_usage_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_validate_a_catalog_reference():
    proc = run_cli("validate", "divided:3", "--field", "F2")
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_validate_text_of_a_broken_coalgebra_is_pinned(tmp_path):
    path = tmp_path / "shifted.json"
    save_instance(str(path), divided_power(3, prime_field(2), start=1))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert proc.stdout == """left: INVALID
  coassociativity fails at (1, 1, 0, 0): coefficient of basis (x)^3 term: 1 != 0
  coassociativity fails at (2, 1, 0, 1): coefficient of basis (x)^3 term: 1 != 0
  coassociativity fails at (2, 2, 0, 0): coefficient of basis (x)^3 term: 1 != 0
  coassociativity fails at (3, 1, 0, 2): coefficient of basis (x)^3 term: 1 != 0
  coassociativity fails at (3, 2, 0, 1): coefficient of basis (x)^3 term: 1 != 0
  coassociativity fails at (3, 3, 0, 0): coefficient of basis (x)^3 term: 1 != 0
  counit-left fails at (0, 0): (counit (x) id) on basis 0 has coefficient 0 at 0, expected 1
  counit-left fails at (1, 1): (counit (x) id) on basis 1 has coefficient 0 at 1, expected 1
  counit-left fails at (2, 2): (counit (x) id) on basis 2 has coefficient 0 at 2, expected 1
  counit-left fails at (3, 3): (counit (x) id) on basis 3 has coefficient 0 at 3, expected 1
  counit-right fails at (0, 0): (id (x) counit) on basis 0 has coefficient 0 at 0, expected 1
"""


def test_validate_structured_output():
    proc = run_cli("validate", "grouplike:2", "--report", "structured")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["valid"] is True
    assert all(block["ok"] and block["issues"] == []
               for block in payload["blocks"])


def test_spectrum_text_output():
    proc = run_cli("spectrum", "divided:4", "--field", "F2")
    assert proc.returncode == 0
    assert "endomorphism ring dimension 5" in proc.stdout
    assert "fully coprime spectrum: 1 member(s)" in proc.stdout


def test_spectrum_structured_output_is_deterministic():
    first = run_cli("spectrum", "grouplike:3", "--field", "F3",
                    "--report", "structured")
    second = run_cli("spectrum", "grouplike:3", "--field", "F3",
                     "--report", "structured")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["endo_dim"] == 3
    assert len(payload["cpspec"]) == 3


def test_spectrum_over_q_reports_radicals_without_ideal_classes():
    proc = run_cli("spectrum", "divided:3", "--field", "Q",
                   "--report", "structured")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["prad_dim"] == 3
    assert "ep" not in payload


def test_spectrum_exhaustive_over_q_is_unsupported():
    proc = run_cli("spectrum", "divided:2", "--field", "Q",
                   "--mode", "exhaustive")
    assert proc.returncode == 3


@pytest.mark.parametrize("args", [
    ("spectrum", "grouplike:100000"),
    ("check", "divided:100000"),
    ("topology", "sum:(comatrix:300,grouplike:5)"),
    ("oracle", "grouplike:100000"),
], ids=["spectrum", "check", "topology-sum", "oracle"])
def test_oversized_references_are_refused_before_they_are_built(args):
    start = time.monotonic()
    proc = run_cli(*args)
    assert time.monotonic() - start < 2
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "budget 200000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_a_reference_in_budget_prints_what_its_instance_file_prints(tmp_path):
    path = tmp_path / "grouplike7.json"
    assert run_cli("catalog", "grouplike:7", "--out", str(path)).returncode == 0
    by_ref = run_cli("spectrum", "grouplike:7", "--report", "structured")
    by_file = run_cli("spectrum", str(path), "--report", "structured")
    assert by_ref.returncode == by_file.returncode == 0
    assert by_ref.stdout == by_file.stdout


def test_library_warnings_print_as_one_line():
    proc = run_cli("check", "grouplike:2", "--field", "Q")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: socle computed relative to a generated lattice"]
    assert "0 FAIL" in proc.stdout


def test_topology_report():
    proc = run_cli("topology", "grouplike:2", "--field", "F2", "--fi",
                   "--report", "structured")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["point_count"] == 2
    assert payload["closed_count"] == 4
    assert payload["closed_bijection"] is True


def test_check_single_instance():
    proc = run_cli("check", "divided:3", "--field", "F2", "--suite", "all")
    assert proc.returncode == 0
    assert "0 FAIL" in proc.stdout


def test_check_suite_prefix_selection():
    proc = run_cli("check", "divided:2", "--suite", "variety-identities")
    assert proc.returncode == 0
    assert "variety-identities" in proc.stdout
    bad = run_cli("check", "divided:2", "--suite", "bogus-name")
    assert bad.returncode == 2


def test_check_random_batch():
    proc = run_cli("check", "--random", "5", "--seed", "3", "--suite",
                   "topology-axioms,closure-formula")
    assert proc.returncode == 0
    assert proc.stdout.count("==") == 5


def test_oracle_command():
    proc = run_cli("oracle", "grouplike:3", "--field", "F3")
    assert proc.returncode == 0
    assert "identical" in proc.stdout


def test_catalog_listing_and_emission(tmp_path):
    listing = run_cli("catalog")
    assert listing.returncode == 0
    assert "grouplike" in listing.stdout
    out = tmp_path / "emitted.json"
    emit = run_cli("catalog", "divided:2", "--field", "F3",
                   "--out", str(out))
    assert emit.returncode == 0
    follow = run_cli("spectrum", str(out))
    assert follow.returncode == 0


def test_instance_files_are_first_class_arguments(tmp_path):
    path = tmp_path / "chain.json"
    save_instance(str(path), regular_bicomodule(divided_power(3,
                                                              prime_field(2))))
    proc = run_cli("check", str(path), "--suite", "annihilator-kernel-galois")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_invalid_instance_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    payload = {
        "format": "coprimespec-instance",
        "version": 1,
        "field": "F2",
        "left": {"dim": 1, "delta": [], "counit": [0]},
    }
    path.write_text(json.dumps(payload))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    spectrum = run_cli("spectrum", str(path))
    assert spectrum.returncode == 1


def _instance_with(left_delta, rho_right):
    payload = {
        "format": "coprimespec-instance",
        "version": 1,
        "field": "F2",
        "left": {"dim": 1, "delta": left_delta, "counit": [1]},
    }
    if rho_right is not None:
        payload["bicomodule"] = {"dim": 1, "rho_left": [[0, 0, 0, 1]],
                                 "rho_right": rho_right}
    return payload


@pytest.mark.parametrize("payload", [
    _instance_with([[0, 0, 0, 1]], [[0, 0, 5, 1]]),
    _instance_with([[0, 0, 0, 1]], [[0, -1, 0, 1]]),
    _instance_with([["a", 0, 0, 1]], None),
], ids=["index-out-of-range", "negative-index", "non-integer-index"])
@pytest.mark.parametrize("command", ["validate", "spectrum"])
def test_bad_triple_indices_are_clean_errors(tmp_path, payload, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    proc = run_cli(command, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# Outputs recorded from the commands, byte for byte: a change to any of them
# is a change to what the command prints.
GOLDEN = {
    "topology-grouplike-3.json": ("topology", "grouplike:3"),
    "topology-comatrix-2-F3.json": ("topology", "comatrix:2", "--field", "F3"),
    "check-divided-3.json": ("check", "divided:3"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_structured_output_matches_the_golden_file(name):
    proc = run_cli(*GOLDEN[name], "--report", "structured")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "golden" / name).read_text()
