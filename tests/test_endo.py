"""The bicolinear endomorphism ring, its ideals, radicals, An and Ke."""

import random

import pytest

from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import comatrix, divided_power, grouplike
from coprimespec.endo import (IdealPoset, an, coordinate_vectors, endo_algebra,
                              enumerate_ideals, ideal_product,
                              jacobson_radical, ke, make_ideal,
                              maximal_ideals, prime_radical, radical_char0)
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import cyclic_subbicomodule
from coprimespec.linalg import Subspace, combination

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def chain_module(n_top, field):
    return regular_bicomodule(divided_power(n_top, field))


def test_endo_dimensions_of_the_standard_families():
    assert endo_algebra(chain_module(4, F2)).dim == 5
    assert endo_algebra(chain_module(4, QQ)).dim == 5
    assert endo_algebra(regular_bicomodule(grouplike(3, F3))).dim == 3
    assert endo_algebra(regular_bicomodule(comatrix(2, F2))).dim == 1


def test_endo_ring_axioms_on_seeded_samples():
    rng = random.Random(37)
    for field in (F2, QQ):
        e = endo_algebra(chain_module(3, field))
        unit = e.unit_coords
        for _ in range(30):
            x = [field.random_element(rng) for _ in range(e.dim)]
            y = [field.random_element(rng) for _ in range(e.dim)]
            z = [field.random_element(rng) for _ in range(e.dim)]
            assert tuple(e.multiply(x, unit)) == tuple(x)
            assert tuple(e.multiply(unit, x)) == tuple(x)
            left = e.multiply(e.multiply(x, y), z)
            right = e.multiply(x, e.multiply(y, z))
            assert tuple(left) == tuple(right)


def test_products_stay_inside_the_algebra():
    e = endo_algebra(regular_bicomodule(grouplike(3, F3)))
    for x in coordinate_vectors(F3, e.dim):
        for y in coordinate_vectors(F3, e.dim):
            n = e.bicomodule.dim
            mx = combination(F3, n, x, e.basis) @ combination(F3, n, y, e.basis)
            assert e.contains_matrix(mx)


def test_divided_power_endo_ring_is_commutative_with_deep_nilpotents():
    e = endo_algebra(chain_module(4, F2))
    units = coordinate_vectors(F2, e.dim)
    assert all(e.multiply(x, y) == e.multiply(y, x) for x in units for y in units)
    ideals = enumerate_ideals(e)
    rad = prime_radical(IdealPoset(e, [i for i in ideals if i.is_two_sided]))

    def nth_power(coords, n):
        out = list(coords)
        for _ in range(n - 1):
            out = list(e.multiply(out, coords))
        return out

    assert all(not any(nth_power(v, 5)) for v in rad.basis)
    assert any(any(nth_power(v, 4)) for v in rad.basis)


def test_annihilator_kernel_galois_connection():
    m = chain_module(3, F2)
    e = endo_algebra(m)
    chain = [cyclic_subbicomodule(m, tuple(1 if i == n else 0 for i in range(4)))
             for n in range(4)]
    for x in chain:
        ax = an(x, e)
        assert ke(ax, e).contains(x)
        assert an(ke(ax, e), e).subspace == ax.subspace
    for small, big in zip(chain, chain[1:]):
        assert an(big, e).subspace.dim <= an(small, e).subspace.dim
        assert ke(an(small, e), e).dim <= ke(an(big, e), e).dim


def test_annihilator_really_annihilates():
    m = chain_module(3, F3)
    e = endo_algebra(m)
    c1 = cyclic_subbicomodule(m, (0, 1, 0, 0))
    ideal = an(c1, e)
    for coords in ideal.subspace.basis:
        mat = combination(F3, m.dim, coords, e.basis)
        for v in c1.basis:
            assert all(F3.is_zero(x) for x in mat.apply(v))


def test_ideal_enumeration_of_the_truncated_polynomial_ring():
    e = endo_algebra(chain_module(3, F2))
    ideals = enumerate_ideals(e)
    assert len(ideals) == e.dim + 1
    assert all(i.is_right for i in ideals)
    assert all(i.is_two_sided for i in ideals)
    dims = sorted(i.dim for i in ideals)
    assert dims == [0, 1, 2, 3, 4]
    maxes = maximal_ideals([i for i in ideals if i.is_two_sided and i.is_proper])
    assert len(maxes) == 1 and maxes[0].dim == e.dim - 1


def test_radicals_of_the_truncated_polynomial_ring():
    e = endo_algebra(chain_module(4, F2))
    ideals = enumerate_ideals(e)
    two_sided = [i for i in ideals if i.is_two_sided]
    prad = prime_radical(IdealPoset(e, two_sided))
    jac = jacobson_radical(e, ideals)
    assert prad.dim == 4 and jac.dim == 4
    assert prad == jac
    assert ke(make_ideal(e, prad), e).dim == 1


def test_ideal_product_is_contained_in_both_factors():
    e = endo_algebra(chain_module(4, F2))
    ideals = [i for i in enumerate_ideals(e) if i.is_two_sided]
    for a in ideals:
        for b in ideals:
            prod = ideal_product(e, a.subspace, b.subspace)
            assert a.subspace.contains(prod)
            assert b.subspace.contains(prod)


def test_char0_radical_matches_the_finite_field_picture():
    for n_top in (2, 3, 4):
        e_q = endo_algebra(chain_module(n_top, QQ))
        rad = radical_char0(e_q)
        assert rad.dim == n_top
        unit = e_q.unit_coords
        assert not rad.contains_vector(unit)
        for coords in rad.basis:
            power = list(coords)
            for _ in range(n_top + 1):
                power = list(e_q.multiply(power, coords))
            assert not any(power)


def test_char0_radical_rejects_finite_fields():
    e = endo_algebra(chain_module(2, F2))
    with pytest.raises(ValueError):
        radical_char0(e)


def test_semisimple_algebra_has_zero_radical():
    e = endo_algebra(regular_bicomodule(grouplike(3, F3)))
    ideals = enumerate_ideals(e)
    two_sided = [i for i in ideals if i.is_two_sided]
    assert prime_radical(IdealPoset(e, two_sided)).dim == 0
    assert jacobson_radical(e, ideals).dim == 0
    e_q = endo_algebra(regular_bicomodule(grouplike(3, QQ)))
    assert radical_char0(e_q).dim == 0
