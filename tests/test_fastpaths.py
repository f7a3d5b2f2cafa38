"""The order-table reductions of the spectrum against the definitions.

Coprimality is tested on maximal pairs and primality on minimal ideals;
these tests recompute every verdict by scanning all pairs literally.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprimespec.analysis import InstanceAnalysis
from coprimespec.catalog import random_instance, resolve_ref_to_bicomodule
from coprimespec.coprime import (CoproductCache, is_fully_coprime,
                                 is_fully_cosemiprime)
from coprimespec.endo import (IdealPoset, ideal_product, is_prime_ideal,
                              is_semiprime_ideal, maximal_ideals,
                              prime_radical)
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import simples, simples_fi
from coprimespec.linalg import Subspace

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
QQ = rationals()

# Dimension budgets that keep exhaustive enumeration small per field.
DIM_BUDGET = {F2: 5, F3: 4, F5: 4}


def _all_pairs_coprime(a, k, cache):
    fi = a.lattice.fi_elements()
    return not any(not x.contains(k) and not y.contains(k)
                   and cache.coproduct(x, y).contains(k)
                   for x in fi for y in fi)


def _all_pairs_cosemiprime(a, k, cache):
    return not any(not x.contains(k) and cache.coproduct(x, x).contains(k)
                   for x in a.lattice.fi_elements())


def _check_coprime_reductions(a):
    cache = CoproductCache(a.m, a.endo)
    for k in a.lattice.nonzero_fi_elements():
        flag, pair = is_fully_coprime(a.m, k, a.lattice, a.endo)
        assert flag == _all_pairs_coprime(a, k, cache)
        if not flag:
            x, y = pair
            assert not x.contains(k) and not y.contains(k)
            assert cache.coproduct(x, y).contains(k)
        flag, x = is_fully_cosemiprime(a.m, k, a.lattice, a.endo)
        assert flag == _all_pairs_cosemiprime(a, k, cache)
        if not flag:
            assert not x.contains(k) and cache.coproduct(x, x).contains(k)


def _all_pairs_prime(endo, ideal, two_sided, semi=False):
    if not ideal.is_two_sided or not ideal.is_proper():
        return False
    sub = ideal.subspace
    outside = [j.subspace for j in two_sided if not sub.contains(j.subspace)]
    pairs = ([(j, j) for j in outside] if semi
             else [(j1, j2) for j1 in outside for j2 in outside])
    return not any(sub.contains(ideal_product(endo, j1, j2))
                   for j1, j2 in pairs)


def _check_ideal_reductions(a):
    endo, two_sided = a.endo, [i for i in a.right_ideals if i.is_two_sided]
    poset = IdealPoset(endo, two_sided)
    annihilators = [a.coproducts.annihilator(k)
                    for k in a.lattice.nonzero_fi_elements()]
    radical = Subspace.full(endo.field, endo.dim)
    for ideal in two_sided + annihilators:
        prime = _all_pairs_prime(endo, ideal, two_sided)
        semiprime = _all_pairs_prime(endo, ideal, two_sided, semi=True)
        assert is_prime_ideal(endo, ideal, two_sided) == prime
        assert poset.is_prime(ideal) == prime
        assert is_semiprime_ideal(endo, ideal, two_sided) == semiprime
        assert poset.is_semiprime(ideal) == semiprime
        if prime:
            radical = radical.intersect(ideal.subspace)
    assert prime_radical(endo, two_sided) == radical
    assert prime_radical(endo, poset) == radical
    proper = [i for i in two_sided if i.is_proper()]
    literal = [i for i in proper
               if not any(j.subspace.dim > i.dim and j.subspace.contains(i.subspace)
                          for j in proper)]
    assert maximal_ideals(two_sided) == literal


def _literal_minimal(elements):
    return [e for e in elements
            if not any(o != e and e.contains(o) for o in elements)]


def _check_order_table(lattice):
    elements = lattice.elements
    for i, x in enumerate(elements):
        literal = sum(1 << j for j, y in enumerate(elements)
                      if y != x and y.contains(x))
        assert lattice.above[i] == literal
    assert simples(lattice) == _literal_minimal(lattice.nonzero_elements())
    assert simples_fi(lattice) == _literal_minimal(lattice.nonzero_fi_elements())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F3, F5]))
def test_reductions_match_the_definitions_over_finite_fields(seed, field):
    m, _ = random_instance(seed, dim_budget=DIM_BUDGET[field], field=field)
    a = InstanceAnalysis(m)
    _check_order_table(a.lattice)
    _check_coprime_reductions(a)
    _check_ideal_reductions(a)


# Seeds 2 and 10 give 10- and 20-element lattices with mixed verdicts.
@pytest.mark.parametrize("seed", [2, 10])
def test_reductions_match_the_definitions_in_generated_mode_over_q(seed):
    m, _ = random_instance(seed, field=QQ)
    a = InstanceAnalysis(m, mode="generated")
    assert not a.lattice.certified
    _check_order_table(a.lattice)
    _check_coprime_reductions(a)


def test_spectrum_of_grouplike_5_computes_few_coproducts():
    m = resolve_ref_to_bicomodule("grouplike:5", F2)
    a = InstanceAnalysis(m)
    assert len(a.spectrum.cpspec) == 5
    assert len(a.coproducts._co) <= 25
