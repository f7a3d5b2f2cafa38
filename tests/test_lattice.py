"""Subbicomodule lattices, socles, coradicals, and structural predicates."""

import pytest

from coprimespec import analysis, lattice
from coprimespec.analysis import InstanceAnalysis
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (comatrix, divided_power, grouplike,
                                 random_instance, right_comodule)
from coprimespec.endo import EndoAlgebra, endo_algebra
from coprimespec.exceptions import BudgetExceeded, ExhaustiveUnavailableOverQ
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import (enumerate_lattice, is_fully_invariant,
                                 predicates, socle_report)
from coprimespec.linalg import Subspace

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def test_divided_power_lattice_is_a_chain():
    m = regular_bicomodule(divided_power(4, F2))
    lat = enumerate_lattice(m)
    assert lat.certified
    assert len(lat.elements) == 6
    dims = sorted(s.dim for s in lat.elements)
    assert dims == [0, 1, 2, 3, 4, 5]
    ordered = sorted(lat.elements, key=lambda s: s.dim)
    for small, big in zip(ordered, ordered[1:]):
        assert big.contains(small)


def test_grouplike_lattice_is_the_boolean_lattice_of_point_sets():
    m = regular_bicomodule(grouplike(3, F3))
    lat = enumerate_lattice(m)
    assert len(lat.elements) == 8
    assert len(lat.elements[1:]) == 7


def test_comatrix_lattice_is_simple():
    m = regular_bicomodule(comatrix(2, F2))
    lat = enumerate_lattice(m)
    assert len(lat.elements) == 2
    assert lat.elements[0].is_zero() and lat.elements[-1].is_full()


def test_every_lattice_member_is_a_chain_member_for_divided_powers():
    m = regular_bicomodule(divided_power(3, F2))
    lat = enumerate_lattice(m)
    endo = endo_algebra(m)
    for s in lat.elements:
        assert is_fully_invariant(s, endo)
    assert len(lat.subset(lat.fi_bits)) == len(lat.elements)


def test_generated_mode_agrees_with_exhaustive_on_desk_instances():
    for c in (divided_power(3, F2), grouplike(2, F2), comatrix(2, F3)):
        m = regular_bicomodule(c)
        full = enumerate_lattice(m, mode="exhaustive")
        gen = enumerate_lattice(m, mode="generated")
        assert not gen.certified
        assert {s.key() for s in gen.elements} == {s.key() for s in full.elements}


def test_exhaustive_mode_is_refused_over_the_rationals():
    m = regular_bicomodule(divided_power(2, QQ))
    with pytest.raises(ExhaustiveUnavailableOverQ):
        enumerate_lattice(m, mode="exhaustive")
    gen = enumerate_lattice(m, mode="generated")
    assert len(gen.elements) == 4


def test_socle_and_coradical_of_the_chain():
    m = regular_bicomodule(divided_power(4, F2))
    lat = enumerate_lattice(m)
    report = socle_report(lat)
    assert len(report.simples) == 1
    assert report.simples[0].dim == 1
    assert report.coradical.dim == 1
    assert report.coradical.contains_vector((1, 0, 0, 0, 0))
    assert lat.elements[lat.join(report.simple_bits)] == report.coradical


def test_socle_of_grouplike_is_everything():
    m = regular_bicomodule(grouplike(3, F3))
    lat = enumerate_lattice(m)
    report = socle_report(lat)
    assert len(report.simples) == 3
    assert all(s.dim == 1 for s in report.simples)
    assert report.coradical.is_full()
    assert report.simple_bits.bit_count() == 3
    assert len(report.simples_fi) == 3


def test_predicates_on_the_divided_power_chain():
    m = regular_bicomodule(divided_power(4, F2))
    a = InstanceAnalysis(m)
    p = predicates(m, a.lattice, a.endo, a.right_ideals)
    assert not p.intrinsic_partial
    assert p.duo
    assert p.self_injective
    assert p.self_cogenerator
    assert p.intrinsically_injective
    assert p.subdirectly_irreducible
    assert not p.semisimple
    assert p.property_s
    assert p.corad_essential
    assert p.certified


def test_predicates_on_grouplike_see_semisimplicity():
    m = regular_bicomodule(grouplike(3, F3))
    a = InstanceAnalysis(m)
    p = predicates(m, a.lattice, a.endo, a.right_ideals)
    assert not p.intrinsic_partial
    assert p.semisimple
    assert p.duo
    assert not p.subdirectly_irreducible
    assert p.corad_essential


def test_right_comodule_of_comatrix_is_not_duo():
    m = right_comodule(comatrix(2, F2))
    a = InstanceAnalysis(m)
    p = predicates(m, a.lattice, a.endo, a.right_ideals)
    assert not p.intrinsic_partial
    assert not p.duo


def test_random_instances_have_valid_certified_lattices():
    for seed in range(6):
        m, desc = random_instance(seed, field=F2)
        assert m.validate().ok, desc
        lat = enumerate_lattice(m)
        assert lat.certified
        endo = endo_algebra(m)
        for s in lat.subset(lat.fi_bits):
            assert is_fully_invariant(s, endo)


def test_lattice_budget_is_checked_before_the_endomorphism_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the endomorphism ring was solved")

    monkeypatch.setattr(analysis, "endo_algebra", no_solve)
    monkeypatch.setattr(EndoAlgebra, "compute", classmethod(no_solve))
    a = InstanceAnalysis(regular_bicomodule(grouplike(20, F2)))
    with pytest.raises(BudgetExceeded):
        a.lattice


def test_predicates_read_annihilators_from_the_analysis_cache(monkeypatch):
    m, _ = random_instance(15, field=F2)
    a = InstanceAnalysis(m)
    plain = predicates(m, a.lattice, a.endo, a.right_ideals)

    def no_solve(*args):
        raise AssertionError("an annihilator was solved outside the cache")

    monkeypatch.setattr(lattice, "an", no_solve)
    assert a.predicates.to_dict() == plain.to_dict()
