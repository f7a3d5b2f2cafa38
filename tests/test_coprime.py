"""Internal coproducts, fully coprime spectra, and radical comparisons."""

import pytest

from coprimespec.analysis import analyze
from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import comatrix, divided_power, grouplike
from coprimespec.coprime import (CoproductCache, internal_coproduct,
                                 is_fully_coprime, is_fully_cosemiprime,
                                 ke_product_bound)
from coprimespec.endo import endo_algebra
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import cyclic_subbicomodule, enumerate_lattice
from coprimespec.linalg import Subspace

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def chain_piece(m, n):
    gen = tuple(1 if i == n else 0 for i in range(m.dim))
    return cyclic_subbicomodule(m, gen)


def test_divided_power_coproducts_follow_the_doubling_rule():
    for field in (F2, QQ):
        for n_top in (2, 3, 4):
            m = regular_bicomodule(divided_power(n_top, field))
            endo = endo_algebra(m)
            for n in range(1, n_top + 1):
                x = chain_piece(m, n - 1)
                y = chain_piece(m, n)
                cop = internal_coproduct(m, x, y, endo)
                expected = chain_piece(m, min(2 * n, n_top))
                assert cop == expected
                assert cop.contains(y)


def test_coproduct_with_zero_annihilator_is_everything():
    m = regular_bicomodule(divided_power(3, F2))
    endo = endo_algebra(m)
    full = Subspace.full(F2, 4)
    anything = chain_piece(m, 1)
    assert internal_coproduct(m, full, anything, endo).is_full()


def test_coproduct_is_monotone_in_the_second_argument():
    m = regular_bicomodule(divided_power(4, F2))
    endo = endo_algebra(m)
    x = chain_piece(m, 1)
    prev = None
    for n in range(5):
        cop = internal_coproduct(m, x, chain_piece(m, n), endo)
        if prev is not None:
            assert cop.contains(prev)
        prev = cop


def test_coproduct_cache_is_consistent_with_direct_calls():
    m = regular_bicomodule(divided_power(3, F2))
    endo = endo_algebra(m)
    cache = CoproductCache(m, endo)
    x, y = chain_piece(m, 0), chain_piece(m, 2)
    assert cache.coproduct(x, y) == internal_coproduct(m, x, y, endo)
    assert cache.coproduct(x, y) == cache.coproduct(x, y)


def test_ke_product_bound_contains_the_coproduct():
    m = regular_bicomodule(divided_power(4, F2))
    endo = endo_algebra(m)
    cache = CoproductCache(m, endo)
    for a in range(4):
        for b in range(4):
            x, y = chain_piece(m, a), chain_piece(m, b)
            cop, bound, contained = ke_product_bound(m, x, y, endo, cache)
            assert cop == cache.coproduct(x, y)
            assert contained
            assert bound.contains(cop)


def test_chain_spectrum_is_the_socle_alone():
    for field in (F2, QQ):
        m = regular_bicomodule(divided_power(4, field))
        mode = "exhaustive" if field.is_finite else "generated"
        a = analyze(m, mode=mode)
        s = a.spectrum
        assert len(s.cpspec) == 1
        assert s.cpspec[0].dim == 1
        assert s.cpspec[0].contains_vector((1, 0, 0, 0, 0))
        assert s.cpcorad == s.cpspec[0]
        assert len(s.csp) == 1 and s.csp[0] == s.cpspec[0]


def test_chain_pieces_above_the_socle_are_not_coprime():
    m = regular_bicomodule(divided_power(4, F2))
    lat = enumerate_lattice(m)
    endo = endo_algebra(m)
    for n in range(1, 5):
        flag, _ = is_fully_coprime(m, chain_piece(m, n), lat, endo)
        assert not flag
        flag, _ = is_fully_cosemiprime(m, chain_piece(m, n), lat, endo)
        assert not flag


def test_grouplike_spectrum_is_all_the_points():
    for field, n in ((F2, 2), (F3, 3), (QQ, 4)):
        m = regular_bicomodule(grouplike(n, field))
        mode = "exhaustive" if field.is_finite else "generated"
        a = analyze(m, mode=mode)
        s = a.spectrum
        assert len(s.cpspec) == n
        assert all(k.dim == 1 for k in s.cpspec)
        assert s.cpcorad.is_full()
        assert len(s.csp) == 2 ** n - 1


def test_comatrix_spectrum_is_the_whole_coalgebra():
    for field in (F2, F3):
        m = regular_bicomodule(comatrix(2, field))
        a = analyze(m)
        s = a.spectrum
        assert len(s.cpspec) == 1
        assert s.cpspec[0].is_full()
        assert s.cpcorad.is_full()


def test_prime_and_semiprime_members_match_the_spectrum_over_f2():
    m = regular_bicomodule(divided_power(4, F2))
    a = analyze(m)
    s, i = a.spectrum, a.ideal_side
    assert i.ideal_support and i.radical_support
    assert {k.key() for k in i.ep} == {k.key() for k in s.cpspec}
    assert {k.key() for k in i.esp} == {k.key() for k in s.csp}
    assert i.prad.dim == 4 and i.jac.dim == 4
    assert i.ke_prad == s.cpcorad and i.ke_jac == s.cpcorad


def test_radicals_over_q_come_from_the_trace_form():
    m = regular_bicomodule(divided_power(4, QQ))
    a = analyze(m, mode="generated")
    s, i = a.spectrum, a.ideal_side
    assert not i.ideal_support
    assert i.radical_support
    assert i.ep is None and i.esp is None
    assert i.prad.dim == 4 and i.jac.dim == 4
    assert i.ke_prad == s.cpcorad
    an_corad = a.coproducts.annihilator(s.cpcorad).subspace
    assert i.prad == an_corad
    assert any("trace form" in note for note in i.notes)


def test_spectrum_report_serialization_gates_on_support():
    d_f2 = analyze(regular_bicomodule(divided_power(3, F2))).ideal_side.to_dict()
    assert "ep" in d_f2 and "prad_dim" in d_f2
    d_q = analyze(regular_bicomodule(divided_power(3, QQ)),
                  mode="generated").ideal_side.to_dict()
    assert "ep" not in d_q and d_q["prad_dim"] == 3


def test_restricted_spectrum_matches_the_variety():
    a = analyze(regular_bicomodule(grouplike(3, F3)))
    sub = sorted(a.lattice.subset(a.lattice.fi_bits), key=lambda s: s.dim)[2]
    assert sub.dim == 1
    part = a.restricted(sub).spectrum
    inside = {k.key() for k in a.spectrum.cpspec if sub.contains(k)}
    lift = sub.matrix().transpose()
    assert {k.apply(lift).key() for k in part.cpspec} == inside
    assert part.cpcorad.apply(lift) == sub
    t = a.lattice.index_of(sub)
    assert a.corad_standalone(t) == t


def test_coprime_candidates_must_be_nonzero():
    m = regular_bicomodule(divided_power(2, F2))
    lat = enumerate_lattice(m)
    endo = endo_algebra(m)
    from coprimespec.exceptions import ZeroSubmodule
    with pytest.raises(ZeroSubmodule):
        is_fully_coprime(m, Subspace.zero(F2, 3), lat, endo)


def test_spectrum_notes_an_exceeded_ideal_budget():
    a = analyze(regular_bicomodule(grouplike(4, F2)), ideal_budget=3)
    ideals = a.ideal_side
    assert any("right-ideal enumeration exceeded the budget" in note
               for note in ideals.notes)
    assert ideals.ep is None
    assert ideals.prad is None
    assert len(a.spectrum.cpspec) == 4
