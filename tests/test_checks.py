"""The statement registry: verdict discipline and frozen desk profiles."""

from collections import Counter

import pytest

from coprimespec.analysis import analyze
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (chain_inclusion, comatrix, divided_power,
                                 grouplike, permutation_morphism,
                                 random_instance, resolve_ref_to_bicomodule)
from coprimespec.checks import (FAIL, PASS, UNSUPPORTED, VACUOUS, Verdict,
                                morphism_checks, run_checks, statement_names)
from coprimespec import checks
from coprimespec.endo import IdealPoset
from coprimespec.fields import prime_field, rationals
from coprimespec.linalg import Subspace

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


# Statement parts that compute nothing or cannot fail, with the words
# their VACUOUS detail gives as the reason.
ALWAYS_VACUOUS = {"simple-point-characterization-5": "nothing is computed",
                  "finite-compactness": "cannot fail"}


def profile(verdicts):
    return Counter(v.status for v in verdicts)


def vacuous_statements(verdicts):
    return {v.statement for v in verdicts if v.status == VACUOUS}


def test_verdicts_require_witnesses_for_failures():
    Verdict("demo", PASS, "fine")
    Verdict("demo", FAIL, "broken", {"where": 1})
    with pytest.raises(ValueError):
        Verdict("demo", FAIL, "broken")


def test_statement_names_are_stable_and_ordered():
    names = statement_names()
    assert names[0] == "annihilator-kernel-galois"
    assert "closure-formula" in names
    assert "morphism-spectral-map" in names
    assert len(names) == len(set(names)) == 23


def _table_part_names():
    """The part names of every family, read from the statement table."""
    return [part.name for name in statement_names()
            for part in checks._FAMILIES[name].parts]


def _part_pool():
    for seed in range(7, 27):
        m, desc = random_instance(seed, field=F2)
        yield desc, analyze(m)
    yield "divided:6", analyze(resolve_ref_to_bicomodule("divided:6", F2))
    m, desc = random_instance(0, field=F3)
    yield desc, analyze(m)
    yield "divided:4 over Q", analyze(regular_bicomodule(divided_power(4, QQ)),
                                      mode="generated")


def test_every_instance_emits_the_table_parts_in_order():
    expected = _table_part_names()
    assert len(expected) == len(set(expected)) == 50
    # The pool holds a non-coalgebra instance (seed 19), on which the
    # morphism family is gated as a whole, and a rational instance with
    # UNSUPPORTED parts.
    assert random_instance(19, field=F2)[0].regular_of is None
    seen = Counter()
    for desc, a in _part_pool():
        verdicts = run_checks(a)
        assert [v.statement for v in verdicts] == expected, desc
        seen.update(v.status for v in verdicts)
    assert seen[UNSUPPORTED] and not seen[FAIL]


def test_morphism_family_on_a_non_coalgebra_is_five_vacuous_parts():
    a = analyze(random_instance(19, field=F2)[0])
    verdicts = run_checks(a, names=["morphism-spectral-map"])
    assert [v.to_dict() for v in verdicts] == [
        {"statement": f"morphism-spectral-map-{i}", "status": VACUOUS,
         "detail": "needs a coalgebra instance to build the identity "
                   "morphism on", "witness": None} for i in range(1, 6)]


def test_closed_set_bijection_reports_the_disagreeing_member():
    a = analyze(regular_bicomodule(divided_power(4, F2)))
    dropped = a.spectrum.csp[0]
    assert dropped.dim == 1
    a.spectrum.csp_bits &= ~(1 << a.lattice.index_of(dropped))
    verdicts = {v.statement: v for v in
                run_checks(a, names=["closed-set-bijection"])}
    assert verdicts["closed-set-bijection-1"].status == PASS
    assert verdicts["closed-set-bijection-2"].to_dict() == {
        "statement": "closed-set-bijection-2", "status": FAIL,
        "detail": "coradical-fixed parts differ from the cosemiprime class",
        "witness": {"fixed_count": 1, "cosemiprime_count": 0,
                    "disagreeing": {"dim": 1,
                                    "basis": [["1", "0", "0", "0", "0"]]}}}


def test_divided_power_chain_passes_every_statement():
    a = analyze(regular_bicomodule(divided_power(4, F2)))
    verdicts = run_checks(a)
    assert profile(verdicts) == {PASS: 48, VACUOUS: 2}
    assert vacuous_statements(verdicts) == set(ALWAYS_VACUOUS)


def test_grouplike_passes_every_statement():
    a = analyze(regular_bicomodule(grouplike(2, F2)))
    verdicts = run_checks(a)
    assert profile(verdicts) == {PASS: 48, VACUOUS: 2}
    assert vacuous_statements(verdicts) == set(ALWAYS_VACUOUS)


def test_comatrix_profile_has_one_vacuous_morphism_part():
    a = analyze(regular_bicomodule(comatrix(2, F2)))
    verdicts = run_checks(a)
    assert profile(verdicts) == {PASS: 47, VACUOUS: 3}
    assert vacuous_statements(verdicts) == set(ALWAYS_VACUOUS) | {
        "morphism-spectral-map-2"}
    morphism = next(v for v in verdicts
                    if v.statement == "morphism-spectral-map-2")
    assert "duo" in morphism.detail


def test_rational_profiles_mark_ideal_statements_unsupported():
    expected_unsupported = {
        "duo-transfer-1", "duo-transfer-2",
        "prime-radical-correspondence-1", "prime-radical-correspondence-2",
        "prime-maximal-discreteness",
    }
    for c in (divided_power(4, QQ), grouplike(3, QQ)):
        a = analyze(regular_bicomodule(c), mode="generated")
        verdicts = run_checks(a)
        assert profile(verdicts) == {PASS: 43, VACUOUS: 2, UNSUPPORTED: 5}
        assert vacuous_statements(verdicts) == set(ALWAYS_VACUOUS)
        unsupported = {v.statement for v in verdicts
                       if v.status == UNSUPPORTED}
        assert unsupported == expected_unsupported


def test_radical_statement_passes_over_q():
    a = analyze(regular_bicomodule(divided_power(3, QQ)), mode="generated")
    verdicts = {v.statement: v for v in run_checks(a)}
    assert verdicts["prime-radical-correspondence-3"].status == PASS
    assert verdicts["prime-radical-correspondence-4"].status == PASS


def test_name_filter_selects_a_single_family():
    a = analyze(regular_bicomodule(divided_power(2, F2)))
    verdicts = run_checks(a, names=["variety-identities"])
    assert verdicts
    assert all(v.statement.startswith("variety-identities")
               for v in verdicts)
    with pytest.raises(ValueError):
        run_checks(a, names=["no-such-statement"])


def test_uncertified_lattices_are_flagged_in_pass_details():
    a = analyze(regular_bicomodule(divided_power(3, QQ)), mode="generated")
    passes = [v for v in run_checks(a) if v.status == PASS]
    assert any("relative to the enumerated lattice" in v.detail
               for v in passes)


def test_random_sweep_produces_no_failures():
    total = Counter()
    for seed in range(12):
        m, desc = random_instance(seed + 40, field=F2)
        verdicts = run_checks(analyze(m))
        for v in verdicts:
            total[v.status] += 1
            assert v.status != FAIL, (desc, v.statement, v.detail, v.witness)
    assert total[PASS] > 300


def test_vacuous_verdicts_name_the_missing_hypothesis():
    for seed in range(12):
        m, _ = random_instance(seed + 40, field=F3)
        for v in run_checks(analyze(m)):
            if v.status == VACUOUS:
                assert ("needs" in v.detail
                        or ALWAYS_VACUOUS.get(v.statement, "needs") in v.detail)


def test_chain_inclusion_morphism_statements():
    theta = chain_inclusion(2, 4, F2)
    verdicts = {v.statement: v for v in morphism_checks(theta)}
    assert verdicts["morphism-spectral-map-1"].status == PASS
    assert verdicts["morphism-spectral-map-2"].status == PASS
    assert verdicts["morphism-spectral-map-3"].status == PASS
    assert verdicts["morphism-spectral-map-4"].status == PASS
    assert verdicts["morphism-spectral-map-5"].status == VACUOUS


def test_swap_automorphism_morphism_statements():
    theta = permutation_morphism(2, (1, 0), F2)
    verdicts = morphism_checks(theta)
    assert profile(verdicts) == {PASS: 5}


def test_morphism_and_centralizer_statements_build_each_map_once(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(checks, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(checks, name, wrapper)

    for name in ("spectral_map", "phi_matrix"):
        counted(name)
    verdicts = morphism_checks(permutation_morphism(2, (1, 0), F2))
    assert profile(verdicts) == {PASS: 5}
    # Part 2 maps the full topologies; parts 4 and 5 share the fully
    # invariant map.
    assert calls["spectral_map"] == 2
    a = analyze(regular_bicomodule(grouplike(2, F2)))
    basis = checks.centralizer(a.m).basis()
    calls.clear()
    verdicts = run_checks(a, names=["centralizer-image-central"])
    assert [v.status for v in verdicts] == [PASS]
    # One action matrix per basis functional, and one per product.
    assert calls["phi_matrix"] == len(basis) + len(basis) ** 2


def test_verdict_serialization():
    v = Verdict("demo", FAIL, "broken", {"dim": 2})
    d = v.to_dict()
    assert d["statement"] == "demo"
    assert d["status"] == FAIL
    assert d["witness"] == {"dim": 2}
    assert v.failed
    assert not Verdict("demo", PASS, "ok").failed


def test_only_the_instance_and_its_comodule_form_enumerate_ideals(monkeypatch):
    import sys
    from coprimespec.endo import enumerate_ideals
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_ideals(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("coprimespec.") and "enumerate_ideals" in vars(module):
            monkeypatch.setattr(module, "enumerate_ideals", counted)
    verdicts = run_checks(analyze(regular_bicomodule(divided_power(4, F2))))
    assert not any(v.failed for v in verdicts)
    # The instance itself and the one-sided comodule form of
    # morphism-spectral-map; fully invariant parts never enumerate.
    assert len(calls) == 2


def test_essential_coradical_fails_when_a_cyclic_span_is_not_a_subbicomodule(monkeypatch):
    m = regular_bicomodule(divided_power(2, F2))
    a = analyze(m)

    def part_1():
        return next(v for v in run_checks(a, names=["essential-coradical"])
                    if v.statement == "essential-coradical-1")

    assert part_1().status == PASS
    # span(e_1) is not stable: the dual action maps e_1 onto e_0.
    monkeypatch.setattr(checks, "cyclic_subbicomodule",
                        lambda m, v: Subspace.from_vectors(m.field, m.dim, [v]))
    assert part_1().to_dict() == {
        "statement": "essential-coradical-1", "status": FAIL,
        "detail": "cyclic span of a basis vector is not a lattice "
                  "subbicomodule containing it",
        "witness": {"basis_index": 1, "test": "stability"}}


def test_prime_maximal_discreteness_names_a_simple_missing_from_the_spectrum():
    def verdict(drop):
        a = analyze(regular_bicomodule(grouplike(3, F2)))
        missing = a.spectrum.cpspec[:drop]
        for k in missing:
            a.spectrum.cpspec_bits &= ~(1 << a.lattice.index_of(k))
        return missing, run_checks(a, names=["prime-maximal-discreteness"])

    _, verdicts = verdict(0)
    assert [v.status for v in verdicts] == [PASS]
    # The spectrum now misses a simple and holds no non-simple member.
    (missing,), verdicts = verdict(1)
    assert [v.to_dict() for v in verdicts] == [{
        "statement": "prime-maximal-discreteness", "status": FAIL,
        "detail": "maximal primes but a simple outside the spectrum",
        "witness": {"simple": checks._describe(missing)}}]


@pytest.mark.parametrize("ref", ["grouplike:3", "divided:4", "divided:2"])
def test_spectrum_annihilator_prime_classes_fail_when_the_annihilators_gain(monkeypatch, ref):
    # Every proper two-sided ideal counts as prime: the prime-annihilator
    # class strictly contains the spectrum, and the semiprime classes agree.
    monkeypatch.setattr(IdealPoset, "is_prime",
                        lambda self, ideal: ideal.is_two_sided and ideal.is_proper())
    a = analyze(resolve_ref_to_bicomodule(ref, F2))
    verdict = next(v for v in run_checks(a, names=["prime-radical-correspondence"])
                   if v.statement == "prime-radical-correspondence-2")
    spectrum, side = a.spectrum, a.ideal_side
    cp = {k.key() for k in spectrum.cpspec}
    extra = [k for k in side.ep if k.key() not in cp]
    assert cp < {k.key() for k in side.ep}
    assert {k.key() for k in spectrum.csp} == {k.key() for k in side.esp}
    assert verdict.to_dict() == {
        "statement": "prime-radical-correspondence-2", "status": FAIL,
        "detail": "annihilator-prime class member outside the spectrum",
        "witness": {"k": checks._describe(extra[0])}}
