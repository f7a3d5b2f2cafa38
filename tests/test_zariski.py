"""Zariski topologies on coprime spectra and spectral maps."""

from coprimespec.analysis import analyze
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (chain_inclusion, comatrix, divided_power,
                                 grouplike, permutation_morphism,
                                 random_instance, right_comodule)
from coprimespec.fields import prime_field, rationals
from coprimespec.zariski import (build_topology, generic_points,
                                 irreducible_components, is_connected_subset,
                                 is_irreducible_subset, separation,
                                 spectral_map, topology_report)

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def test_grouplike_topology_is_discrete():
    a = analyze(regular_bicomodule(grouplike(2, F2)))
    top = a.topology("fi")
    rep = topology_report(top)
    sep = separation(top)
    assert rep.is_topology
    assert rep.point_count == 2
    assert rep.closed_count == 4
    assert sep.t0 and sep.t1 and sep.t2 and sep.discrete
    assert not rep.connected
    assert not rep.irreducible
    assert sorted(sorted(c) for c in rep.components) == [[0], [1]]


def test_grouplike_closed_sets_are_all_point_subsets():
    a = analyze(regular_bicomodule(grouplike(3, F3)))
    top = a.topology("fi")
    assert topology_report(top).closed_count == 8
    assert separation(top).discrete


def test_divided_power_topology_is_a_single_point():
    for field, mode in ((F2, "exhaustive"), (QQ, "generated")):
        a = analyze(regular_bicomodule(divided_power(4, field)), mode=mode)
        top = a.topology("fi")
        rep = topology_report(top)
        assert rep.point_count == 1
        assert rep.closed_count == 2
        assert rep.connected
        assert rep.irreducible
        assert separation(top).t1


def test_comatrix_topology_is_a_single_point():
    a = analyze(regular_bicomodule(comatrix(2, F2)))
    rep = topology_report(a.topology("fi"))
    assert rep.point_count == 1 and rep.irreducible and rep.connected


def test_varieties_generate_the_closed_sets():
    a = analyze(regular_bicomodule(grouplike(3, F2)))
    top = a.topology("fi")
    spec = a.spectrum
    for l in a.lattice.subset(a.lattice.fi_bits):
        v = top.v_of(l)
        assert top.is_closed(v)
        expected = frozenset(i for i, k in enumerate(spec.cpspec)
                             if l.contains(k))
        assert frozenset(v) == expected


def test_point_closures_and_generic_points():
    a = analyze(regular_bicomodule(grouplike(3, F3)))
    top = a.topology("fi")
    for i in range(top.size):
        assert top.point_closure(i) == frozenset({i})
        assert generic_points(top, [i]) == [i]
    assert frozenset(top.closure([0, 1])) == frozenset({0, 1})


def test_irreducible_components_partition_the_discrete_space():
    a = analyze(regular_bicomodule(grouplike(3, F2)))
    top = a.topology("fi")
    comps = irreducible_components(top)
    assert sorted(sorted(c) for c in comps) == [[0], [1], [2]]
    assert all(is_irreducible_subset(top, c) for c in comps)
    assert not is_irreducible_subset(top, [0, 1])
    assert not is_connected_subset(top, [0, 1])
    assert is_connected_subset(top, [0])


def test_topology_axioms_hold_on_random_instances():
    for seed in range(8):
        m, desc = random_instance(seed + 300, field=F2)
        a = analyze(m)
        for flavor in ("fi", "full"):
            rep = topology_report(a.topology(flavor))
            assert rep.is_topology, desc


def test_full_flavor_refines_the_fi_flavor():
    for seed in range(6):
        m, _ = random_instance(seed + 900, field=F3)
        a = analyze(m)
        fi_closed = set(a.topology("fi").closed)
        full_closed = set(a.topology("full").closed)
        assert fi_closed <= full_closed


def test_chain_inclusion_spectral_map():
    theta = chain_inclusion(2, 4, F2)
    src = analyze(right_comodule(theta.source))
    tgt = analyze(right_comodule(theta.target))
    smap = spectral_map(theta, src.topology("fi"), tgt.topology("fi"))
    assert smap.defined
    assert smap.continuous
    assert smap.index_map == (0,)
    assert [s.basis for s in smap.images] == [((1, 0, 0, 0, 0),)]
    assert smap.images[0] == tgt.spectrum.cpspec[0]


def test_swap_automorphism_is_a_spectral_homeomorphism():
    theta = permutation_morphism(2, (1, 0), F2)
    a = analyze(right_comodule(theta.source))
    top = a.topology("fi")
    smap = spectral_map(theta, top, top)
    assert smap.defined and smap.continuous
    assert smap.index_map == (1, 0)
    points = list(a.spectrum.cpspec)
    assert list(smap.images) == [points[1], points[0]]
