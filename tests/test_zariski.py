"""Zariski topologies on coprime spectra and spectral maps.

The readings of `zariski` take the topology from its specialization
preorder.  The scans below are the literal definitions they replace: the
open-set separation scan, the pair-scan irreducibility test, connectivity
from closed-set traces, closure as the least closed member, and the
closure and connected-subset statements over every subset.  They run on
the family closed under union and intersection, the topology it generates.
"""

from dataclasses import replace

import pytest

from coprimespec import lattice as lattice_module, zariski as zariski_module
from coprimespec.analysis import InstanceAnalysis, analyze
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (chain_inclusion, comatrix, divided_power,
                                 grouplike, permutation_morphism,
                                 random_instance, resolve_ref_to_bicomodule,
                                 right_comodule)
from coprimespec.checks import FAIL, PASS, VACUOUS, run_checks
from coprimespec.fields import prime_field, rationals
from coprimespec.linalg import Subspace, bits_of
from coprimespec.zariski import (generic_points, irreducible_components,
                                 is_connected_subset, is_irreducible_subset,
                                 separation, spectral_map, topology_report)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
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
    assert rep.to_dict()["components"] == [[0], [1]]


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
        assert frozenset(bits_of(v)) == expected


def test_point_closures_and_generic_points():
    a = analyze(regular_bicomodule(grouplike(3, F3)))
    top = a.topology("fi")
    for i in range(top.size):
        assert top.point_closures[i] == 1 << i
        assert generic_points(top, 1 << i) == [i]
    assert top.closure(0b011) == 0b011


def test_irreducible_components_partition_the_discrete_space():
    a = analyze(regular_bicomodule(grouplike(3, F2)))
    top = a.topology("fi")
    comps = irreducible_components(top)
    assert comps == (0b001, 0b010, 0b100)
    assert all(is_irreducible_subset(top, c) for c in comps)
    assert not is_irreducible_subset(top, 0b011)
    assert not is_connected_subset(top, 0b011)
    assert is_connected_subset(top, 0b001)


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


# --- the literal scans ---------------------------------------------------------
#
# Subsets are int masks over point positions, as in `zariski`.

def _generated(top) -> list:
    """The closed family closed under union and intersection, in canonical
    order; the family itself when it is a topology."""
    sets = set(top.closed_masks)
    while True:
        grown = sets | {x | y for x in sets for y in sets} \
            | {x & y for x in sets for y in sets}
        if grown == sets:
            return sorted(sets, key=lambda c: (c.bit_count(), list(bits_of(c))))
        sets = grown


def _scan_separation(closed, n):
    space = (1 << n) - 1
    opens = [space & ~c for c in closed]
    t0 = t1 = t2 = True
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            sep_x = [u for u in opens if u >> x & 1 and not u >> y & 1]
            sep_y = [u for u in opens if u >> y & 1 and not u >> x & 1]
            if not (sep_x or sep_y):
                t0 = False
            if not sep_x:
                t1 = False
            if not any(not ux & uy for ux in sep_x for uy in sep_y):
                t2 = False
    discrete = all(space & ~(1 << x) in closed for x in range(n))
    return t0, t1, t2, discrete


def _scan_irreducible(closed, subset):
    """Nonempty, and not covered by two closed sets unless one suffices."""
    if not subset:
        return False
    for c1 in closed:
        rest = subset & ~c1
        if rest and any(not rest & ~c2 and subset & ~c2 for c2 in closed):
            return False
    return True


def _scan_components(closed):
    irr = [c for c in closed if _scan_irreducible(closed, c)]
    return [c for c in irr if not any(o != c and not c & ~o for o in irr)]


def _scan_connected(closed, subset):
    traces = {c & subset for c in closed}
    return not any(t and t != subset and subset & ~t in traces for t in traces)


def _scan_closure(closed, subset):
    """The intersection of the closed sets holding the subset."""
    out = closed[-1]
    for c in closed:
        if not subset & ~c:
            out &= c
    return out


def _sum_variety(a, top, subset):
    """The points inside the sum of the points in subset, by `contains`."""
    total = Subspace.zero(a.field, a.m.dim)
    for i in bits_of(subset):
        total = total.sum_with(top.points[i])
    return sum(1 << i for i, k in enumerate(top.points) if total.contains(k))


def _scan_closure_formula(a, top, closed):
    return all(_scan_closure(closed, s) == _sum_variety(a, top, s)
               for s in range(1 << top.size))


def _scan_connected_comparable(top, closed):
    points = top.points

    def linked(i, j):
        return points[i].contains(points[j]) or points[j].contains(points[i])

    return all(any(linked(i, j) for j in bits_of(s) if j != i)
               for s in range(1 << top.size)
               if s.bit_count() >= 2 and _scan_connected(closed, s)
               for i in bits_of(s))


# --- the readings against the scans ----------------------------------------------

def _mode(m):
    return "exhaustive" if m.field.is_finite else "generated"


def _pool():
    """Instances of the acceptance sweeps' kinds: random instances over F2,
    F3, F5 and Q with the comodule forms of their coalgebras, and catalog
    instances."""
    out = []
    for field, seeds in ((F2, range(7, 37)), (F3, range(10)), (F5, range(5)),
                         (QQ, range(3))):
        for seed in seeds:
            m, _ = random_instance(seed, field=field)
            out.append((f"{field.name}-{seed}", m))
            if m.regular_of is not None:
                out.append((f"{field.name}-{seed}-comodule",
                            right_comodule(m.regular_of)))
    for ref, field in (("grouplike:3", F3), ("divided:4", F2), ("divided:4", QQ),
                       ("comatrix:2", F2), ("comatrix:2", F3)):
        out.append((f"{ref}-{field.name}", resolve_ref_to_bicomodule(ref, field)))
    return out


POOL = _pool()


def _with_points(a, points):
    """a with the lattice elements at the indices `points`, fully invariant,
    taken as its spectrum."""
    a._spectrum = replace(a.spectrum, cpspec_bits=sum(1 << t for t in points))
    a._topologies.clear()
    return a


def _chain():
    """divided:4, whose lattice is the chain 0 < C0 < ... < C4, with the
    points C0 < C1 < C3: a preorder that is not equality."""
    chain = InstanceAnalysis(resolve_ref_to_bicomodule("divided:4", F2))
    return _with_points(chain, [1, 2, 4])


def _every_invariant_member():
    """A random instance with nine of its nonzero fully invariant members,
    comparable ones among them, taken as points: the sum of two points is a
    point, so the family is not closed under union."""
    a = InstanceAnalysis(random_instance(9, field=F2)[0])
    return _with_points(a, list(bits_of(a.lattice.fi_bits & ~1))[:9])


def _check_readings(top):
    closed = _generated(top)
    assert (closed == list(top.closed_masks)) == top.is_topology
    n = top.size
    sep = separation(top)
    assert (sep.t0, sep.t1, sep.t2, sep.discrete) == _scan_separation(closed, n)
    assert list(irreducible_components(top)) == _scan_components(closed)
    assert set(closed) == {s for s in range(1 << n) if top.closure(s) == s}
    point_closures = [_scan_closure(closed, 1 << i) for i in range(n)]
    for subset in range(1 << n):
        assert is_irreducible_subset(top, subset) == _scan_irreducible(closed, subset)
        assert is_connected_subset(top, subset) == _scan_connected(closed, subset)
        assert top.closure(subset) == _scan_closure(closed, subset)
        assert generic_points(top, subset) == [
            i for i in bits_of(subset) if point_closures[i] == subset]


@pytest.mark.parametrize("name, m", POOL, ids=[n for n, _ in POOL])
def test_preorder_readings_match_the_scans_on_the_pool(name, m):
    a = InstanceAnalysis(m, mode=_mode(m))
    for flavor in ("fi", "full"):
        top = a.topology(flavor)
        assert top.size <= 10
        _check_readings(top)


@pytest.mark.parametrize("build", [_chain, _every_invariant_member])
def test_preorder_readings_match_the_scans_on_comparable_points(build):
    a = build()
    assert not separation(a.topology("full")).discrete
    for flavor in ("fi", "full"):
        _check_readings(a.topology(flavor))


@pytest.mark.parametrize("ref", ["grouplike:8", "grouplike:9", "grouplike:10"])
def test_readings_and_statements_match_the_scans_on_large_grouplikes(ref):
    a = InstanceAnalysis(resolve_ref_to_bicomodule(ref, F2), budget=10 ** 12,
                         ideal_budget=10 ** 12)
    _check_readings(a.topology("full"))
    _check_statements(a)


# --- the two subset statements against every subset --------------------------------

STATEMENTS = ["closure-formula", "connected-subsets-comparable"]


def _check_statements(a):
    """Both statements are decided exactly when the standing hypotheses
    hold and the family is a topology, and then agree with their scans
    over every subset."""
    top, p = a.topology("full"), a.predicates
    closed = _generated(top)
    decided = top.is_topology and p.duo and p.self_injective and p.property_s
    expected = [_scan_closure_formula(a, top, closed),
                _scan_connected_comparable(top, closed)]
    for verdict, holds in zip(run_checks(a, names=STATEMENTS), expected):
        assert verdict.status == ((PASS if holds else FAIL) if decided
                                  else VACUOUS), verdict


@pytest.mark.parametrize("name, m", POOL, ids=[n for n, _ in POOL])
def test_subset_statements_match_every_subset_on_the_pool(name, m):
    _check_statements(InstanceAnalysis(m, mode=_mode(m)))


def test_subset_statements_decide_comparable_points():
    a = _chain()
    assert [v.status for v in run_checks(a, names=STATEMENTS)] == [PASS, PASS]
    _check_statements(a)


def test_subset_statements_need_a_topology():
    a = _every_invariant_member()
    top = a.topology("full")
    assert not top.is_topology
    operation, first, second = top.witness
    detail = (f"needs a topology: the family is not closed under {operation} "
              f"of {sorted(first)} and {sorted(second)}")
    assert [(v.status, v.detail) for v in run_checks(a, names=STATEMENTS)] \
        == [(VACUOUS, detail)] * 2


# --- mutants that the statements must catch ------------------------------------------

def test_a_closure_wrong_on_one_pair_fails_the_closure_formula(monkeypatch):
    a = analyze(regular_bicomodule(grouplike(4, F2)))
    assert run_checks(a, names=["closure-formula"])[0].status == PASS
    original = zariski_module.ZariskiTopology.closure

    def rigged(top, subset):
        return top.space if subset == 0b1010 else original(top, subset)

    monkeypatch.setattr(zariski_module.ZariskiTopology, "closure", rigged)
    verdict = run_checks(a, names=["closure-formula"])[0]
    assert verdict.status == FAIL
    assert verdict.witness == {"subset": [1, 3], "closure": [0, 1, 2, 3],
                               "variety_of_sum": [1, 3]}


def test_an_order_missing_one_pair_of_points_fails_the_connected_subsets(monkeypatch):
    a = _chain()
    assert run_checks(a, names=["connected-subsets-comparable"])[0].status == PASS
    low, high = 1, 2
    original = lattice_module.Lattice.le

    def rigged(lat, i, j):
        return False if (i, j) == (low, high) else original(lat, i, j)

    monkeypatch.setattr(lattice_module.Lattice, "le", rigged)
    verdict = run_checks(a, names=["connected-subsets-comparable"])[0]
    assert verdict.status == FAIL
    assert verdict.witness["subset"] == [0, 1]
