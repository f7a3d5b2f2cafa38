"""Acceptance gate: seven end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to get one line per criterion;
add `-s` to also see the printed summaries.  Every criterion recomputes its
expected values from scratch and compares against frozen constants, so a
regression anywhere in the engine shows up as a red line here.
"""

import json
import subprocess
import sys
import time
from collections import Counter

from coprimespec.analysis import analyze
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (chain_inclusion, divided_power, comatrix,
                                 grouplike, incidence, permutation_morphism,
                                 random_poset, right_comodule)
from coprimespec.checks import FAIL, PASS, morphism_checks, run_checks
from coprimespec.coprime import is_fully_coprime
from coprimespec.endo import an
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import cyclic_subbicomodule
from coprimespec.linalg import Subspace
from coprimespec.oracle import diff_against_engine
from coprimespec.zariski import image_subspace, separation, spectral_map, topology_report

import random

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def keyset(subspaces):
    return {s.key() for s in subspaces}


def mode_for(field):
    return "exhaustive" if field.is_finite else "generated"


def test_criterion_1_grouplike_spectra_are_discrete_point_sets():
    for field in (F2, F3, QQ):
        for n in (2, 3, 4):
            started = time.monotonic()
            a = analyze(regular_bicomodule(grouplike(n, field)),
                        mode=mode_for(field))
            spec = a.spectrum
            assert len(spec.cpspec) == n
            assert all(k.dim == 1 for k in spec.cpspec)
            assert keyset(spec.cpspec) == keyset(a.socle.simples)
            top = a.topology("fi")
            sep = separation(top)
            assert sep.discrete and sep.t1 and sep.t2
            equivalences = run_checks(a, names=["separation-equivalences"])
            assert equivalences and all(v.status == PASS
                                        for v in equivalences)
            rep = topology_report(top)
            assert not rep.connected
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, (field.name, n, elapsed)
    print("ACCEPTANCE 1: PASS - grouplike spectra are the group-like points; "
          "discrete, T1, T2, disconnected over F2, F3, Q")


def test_criterion_2_divided_power_chain_spectrum_and_radicals():
    for field in (F2, QQ):
        for n_top in (2, 3, 4):
            started = time.monotonic()
            m = regular_bicomodule(divided_power(n_top, field))
            a = analyze(m, mode=mode_for(field))
            spec = a.spectrum

            chain = sorted(a.lattice.elements, key=lambda s: s.dim)
            assert len(chain) == n_top + 2
            assert [s.dim for s in chain] == list(range(n_top + 2))
            for small, big in zip(chain, chain[1:]):
                assert big.contains(small)

            c = lambda n: chain[n + 1]
            assert keyset(spec.cpspec) == {c(0).key()}
            assert keyset(spec.csp) == {c(0).key()}
            assert spec.cpcorad == c(0)

            for n in range(1, n_top + 1):
                cop = a.coproducts.coproduct(c(n - 1), c(n))
                assert cop == c(min(2 * n, n_top))
                assert cop.contains(c(n))
                flag, _ = is_fully_coprime(m, c(n), a.lattice, a.endo,
                                           a.coproducts)
                assert not flag

            ideals = a.ideal_side
            assert ideals.radical_support
            an_socle = an(c(0), a.endo).subspace
            assert ideals.prad == an_socle
            assert ideals.ke_prad == c(0)
            assert ideals.prad.dim == n_top

            rep = topology_report(a.topology("fi"))
            assert rep.point_count == 1
            assert rep.connected and rep.irreducible
            elapsed = time.monotonic() - started
            assert elapsed < 2.0, (field.name, n_top, elapsed)
    print("ACCEPTANCE 2: PASS - divided-power chains have one-point spectra, "
          "doubling coproducts, and radicals matching the socle annihilator "
          "over F2 and Q")


def test_criterion_2_footnote_generator_span_differs_from_its_closure():
    m = regular_bicomodule(divided_power(4, F2))
    a = analyze(m)
    chain = sorted(a.lattice.elements, key=lambda s: s.dim)
    c = lambda n: chain[n + 1]
    for n in range(1, 5):
        gen = tuple(1 if i == n else 0 for i in range(5))
        assert cyclic_subbicomodule(m, gen) == c(n)
        bare = Subspace.from_vectors(F2, 5, [gen])
        literal = a.coproducts.coproduct(c(n - 1), bare)
        assert literal.dim == n
        assert not literal.contains(bare)
        assert not literal.contains(c(n))


def test_criterion_3_comatrix_coalgebra_is_one_fully_coprime_point():
    for field in (F2, F3):
        started = time.monotonic()
        a = analyze(regular_bicomodule(comatrix(2, field)))
        spec = a.spectrum
        assert len(spec.cpspec) == 1
        assert spec.cpspec[0].is_full()
        assert spec.cpcorad.is_full()
        flag, _ = is_fully_coprime(a.m, spec.cpcorad, a.lattice, a.endo,
                                   a.coproducts)
        assert flag
        assert a.endo.dim == 1
        both_directions = run_checks(
            a, names=["irreducible-iff-coprime-coradical"])
        assert both_directions and all(v.status == PASS
                                       for v in both_directions)
        assert topology_report(a.topology("fi")).irreducible
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, (field.name, elapsed)
    print("ACCEPTANCE 3: PASS - comatrix:2 has CPSpec = {C}, an irreducible "
          "one-point space, and a one-dimensional endomorphism ring")


def test_criterion_4_oracle_agreement_on_100_incidence_instances():
    started = time.monotonic()
    checked = 0
    certified_pairs = 0
    seed = 0
    while checked < 100:
        rng = random.Random(1000 + seed)
        seed += 1
        field = F2 if seed % 2 else F3
        poset = random_poset(rng, max_intervals=5)
        m = regular_bicomodule(incidence(poset, field))
        if m.dim > 5:
            continue
        checked += 1
        diff = diff_against_engine(m)
        assert diff.identical, (seed, field.name, diff.mismatches)
        a = analyze(m)
        p = a.predicates
        if p.certified and p.self_cogenerator and p.intrinsically_injective:
            spec, ideals = a.spectrum, a.ideal_side
            assert ideals.ideal_support
            assert keyset(ideals.ep) == keyset(spec.cpspec), seed
            assert keyset(ideals.esp) == keyset(spec.csp), seed
            certified_pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, elapsed
    assert certified_pairs >= 10
    print(f"ACCEPTANCE 4: PASS - oracle agreed on {checked} random incidence "
          f"instances ({certified_pairs} with certified prime/spectrum "
          f"coincidence) in {elapsed:.1f}s")


def test_criterion_5_cli_statement_suite_has_no_failures():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "coprimespec", "check",
         "--random", "100", "--seed", "7", "--suite", "all"],
        capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    out_lines = proc.stdout.strip().splitlines()
    assert sum(1 for line in out_lines if line.startswith("== ")) == 100
    assert not any(line.startswith("FAIL") for line in out_lines)
    summary = out_lines[-1]
    assert summary.endswith("0 FAIL"), summary
    assert elapsed < 600.0, elapsed
    print(f"ACCEPTANCE 5: PASS - `check --random 100 --seed 7 --suite all` "
          f"produced zero FAIL verdicts in {elapsed:.1f}s")


def test_criterion_6_morphisms_induce_spectral_maps():
    started = time.monotonic()

    theta = chain_inclusion(2, 4, F2)
    src = analyze(right_comodule(theta.source))
    tgt = analyze(right_comodule(theta.target))
    smap = spectral_map(theta, src.topology("fi"), tgt.topology("fi"))
    assert smap.defined and smap.continuous
    assert [k.basis for k in src.spectrum.cpspec] == [((1, 0, 0),)]
    assert [k.basis for k in smap.images] == [((1, 0, 0, 0, 0),)]
    assert smap.images[0] == tgt.spectrum.cpspec[0]
    inclusion_verdicts = morphism_checks(theta, source=src, target=tgt)
    assert not any(v.status == FAIL for v in inclusion_verdicts)

    swap = permutation_morphism(2, (1, 0), F2)
    a = analyze(right_comodule(swap.source))
    top = a.topology("fi")
    swap_map = spectral_map(swap, top, top)
    assert swap_map.defined and swap_map.continuous
    assert swap_map.index_map == (1, 0)
    swap_verdicts = morphism_checks(swap, source=a, target=a)
    assert Counter(v.status for v in swap_verdicts) == {PASS: 5}
    corad_image = image_subspace(swap, a.spectrum.cpcorad)
    assert corad_image == a.spectrum.cpcorad

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, elapsed
    print("ACCEPTANCE 6: PASS - the chain inclusion gives a continuous "
          "spectral map fixing the socle point and the swap automorphism is "
          "a homeomorphism exchanging the two points with a stable coprime "
          "coradical")


def test_criterion_7_shifted_divided_power_fails_the_counit_laws():
    started = time.monotonic()
    for field in (F2, QQ):
        for n_top in (2, 3, 4):
            report = divided_power(n_top, field, start=1).validate()
            assert not report.ok
            counit_left_indices = {issue.index[0] for issue in report.issues
                                   if issue.law == "counit-left"}
            assert counit_left_indices >= set(range(1, n_top + 1))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, elapsed
    print("ACCEPTANCE 7: PASS - the start=1 divided-power variant fails "
          "validation with counit witnesses at every basis index n >= 1 "
          "over F2 and Q")
