"""Coalgebra axioms, dual algebras, and coalgebra morphisms."""

import random
from fractions import Fraction

import pytest

from coprimespec.bicomodule import regular_bicomodule
from coprimespec.catalog import (chain_inclusion, comatrix, direct_sum,
                                 divided_power, grouplike, incidence,
                                 permutation_morphism, Poset, random_instance,
                                 right_comodule)
from coprimespec.coalgebra import (Coalgebra, CoalgebraMorphism, DualAlgebra,
                                   identity_morphism)
from coprimespec.exceptions import InvalidCoalgebra, InvalidMorphism
from coprimespec.fields import prime_field, rationals

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def test_catalog_families_satisfy_the_axioms():
    for field in (F2, F3, QQ):
        for c in (grouplike(3, field), divided_power(4, field),
                  comatrix(2, field)):
            report = c.validate()
            assert report.ok, report.issues


def test_direct_sum_validates_and_adds_dimensions():
    a = grouplike(2, F2)
    b = divided_power(2, F2)
    s = direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    assert s.validate().ok


def test_incidence_coalgebra_of_a_chain_poset():
    poset = Poset.from_pairs(3, [(0, 1), (1, 2)])
    c = incidence(poset, F3)
    assert c.validate().ok
    assert c.dim == 6
    with pytest.raises(ValueError):
        Poset.from_pairs(2, [(0, 1), (1, 0)])


def test_validation_catches_a_broken_comultiplication():
    c = grouplike(2, F2)
    delta = [[list(row) for row in plane] for plane in c.delta]
    delta[0][0][0] = F2.zero
    broken = Coalgebra(F2, 2, delta, list(c.counit))
    report = broken.validate()
    assert not report.ok
    assert any(issue.law in ("counit-left", "counit-right")
               for issue in report.issues)


def test_validation_catches_a_broken_counit():
    c = divided_power(2, QQ)
    counit = list(c.counit)
    counit[0] = Fraction(2)
    broken = Coalgebra(QQ, c.dim, c.delta, counit)
    assert not broken.validate().ok


# One hand-broken structure per coalgebra and morphism law, with every
# (law, index) its report must hold: a coalgebra index is (i, a, b, c) for
# the coefficient of e_a (x) e_b (x) e_c in the image of e_i, (i, c) for a
# counit law; a morphism index is (i, a, b) for the coefficient of
# e'_a (x) e'_b in the image of e_i, (i,) for its counit law.
BROKEN_LAWS = {
    # Delta(e1) = e0 (x) e1 + e1 (x) e0 + e1 (x) e2 is counital, since the
    # counit vanishes on e1 and e2; (Delta (x) id) Delta(e1) has the term
    # e1 (x) e2 (x) e2, from Delta(e1) (x) e2, and (id (x) Delta) Delta(e1)
    # has not.
    "coassociativity": (
        Coalgebra.from_triples(F2, 3, [(0, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                                       (1, 1, 2, 1), (2, 0, 2, 1), (2, 2, 0, 1)],
                               [1, 0, 0]),
        {("coassociativity", (1, 1, 2, 2))}),
    # Delta(e1) = e1 (x) e0: (counit (x) id) Delta(e1) = 0, not e1.
    "counit-left": (
        Coalgebra.from_triples(F2, 2, [(0, 0, 0, 1), (1, 1, 0, 1)], [1, 0]),
        {("counit-left", (1, 1))}),
    # Delta(e1) = e0 (x) e1: (id (x) counit) Delta(e1) = 0, not e1.
    "counit-right": (
        Coalgebra.from_triples(F2, 2, [(0, 0, 0, 1), (1, 0, 1, 1)], [1, 0]),
        {("counit-right", (1, 1))}),
    # g -> 2 g0 + 2 g1 over F3 is counital (2 + 2 = 1); Delta' theta(g) has
    # coefficients 2, 0, 0, 2 at g_a (x) g_b and theta(g) (x) theta(g) has 1s.
    "comultiplication-morphism": (
        CoalgebraMorphism.from_rows(grouplike(1, F3), grouplike(2, F3), [[2], [2]]),
        {("comultiplication-morphism", (0, a, b)) for a in range(2) for b in range(2)}),
    # The zero map is comultiplicative but sends the counit value 1 to 0.
    "counit-morphism": (
        CoalgebraMorphism.from_rows(grouplike(1, F2), grouplike(1, F2), [[0]]),
        {("counit-morphism", (0,))}),
}


@pytest.mark.parametrize("law", list(BROKEN_LAWS))
def test_each_law_reports_exactly_its_hand_worked_witnesses(law):
    structure, expected = BROKEN_LAWS[law]
    assert {(issue.law, issue.index) for issue in structure.validate()} == expected


def test_a_coalgebra_computes_its_laws_once(monkeypatch):
    computed = []
    laws = Coalgebra._laws

    def counted(self):
        computed.append(self)
        return laws(self)

    monkeypatch.setattr(Coalgebra, "_laws", counted)
    m, _ = random_instance(7)
    c = m.right
    regular_bicomodule(c)
    right_comodule(c)
    assert sum(1 for x in computed if x is c) == 1


def test_a_broken_coalgebra_fails_every_require_valid():
    broken = divided_power(3, F2, start=1)
    for _ in range(3):
        with pytest.raises(InvalidCoalgebra, match="counit-left fails at"):
            broken.require_valid()


def test_shifted_divided_power_is_invalid():
    for field in (F2, QQ):
        report = divided_power(3, field, start=1).validate()
        assert not report.ok
        bad = {issue.index[0] for issue in report.issues
               if issue.law == "counit-left"}
        assert bad == {0, 1, 2, 3}


def unit_vector(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


def test_dual_of_grouplike_is_commutative_and_split():
    d = DualAlgebra(grouplike(3, F3))
    e = d.unit_coords
    for i in range(3):
        f = unit_vector(F3, 3, i)
        assert tuple(d.multiply(f, e)) == f
        assert tuple(d.multiply(e, f)) == f
        assert tuple(d.multiply(f, f)) == f
        for j in range(3):
            g = unit_vector(F3, 3, j)
            assert tuple(d.multiply(f, g)) == tuple(d.multiply(g, f))


def test_dual_of_comatrix_is_a_matrix_algebra():
    d = DualAlgebra(comatrix(2, F2))
    n = d.dim
    units = [unit_vector(F2, n, i) for i in range(n)]
    assert any(tuple(d.multiply(f, g)) != tuple(d.multiply(g, f))
               for f in units for g in units)


def test_dual_algebra_is_associative_on_seeded_samples():
    rng = random.Random(13)
    for c in (divided_power(3, F3), comatrix(2, F3)):
        d = DualAlgebra(c)
        for _ in range(25):
            f, g, h = ([F3.random_element(rng) for _ in range(c.dim)]
                       for _ in range(3))
            left = d.multiply(d.multiply(f, g), h)
            right = d.multiply(f, d.multiply(g, h))
            assert tuple(left) == tuple(right)


def test_chain_inclusion_is_an_injective_morphism():
    theta = chain_inclusion(2, 4, F2)
    theta.require_valid()
    assert theta.is_injective()
    assert not theta.is_bijective()
    assert theta.source.dim == 3 and theta.target.dim == 5


def test_permutation_morphism_is_an_automorphism():
    theta = permutation_morphism(3, (2, 0, 1), F3)
    theta.require_valid()
    assert theta.is_bijective()
    ident = identity_morphism(theta.source)
    assert theta.matrix @ theta.matrix.transpose() == ident.matrix


def test_identity_morphism_round_trip():
    c = divided_power(3, QQ)
    ident = identity_morphism(c)
    ident.require_valid()
    assert ident.is_bijective()


def test_non_coalgebra_map_is_rejected():
    from coprimespec.linalg import Matrix
    c = grouplike(2, F2)
    swap = Matrix.from_rows(F2, [(0, 1), (1, 0)])
    CoalgebraMorphism(c, c, swap).require_valid()
    shear = Matrix.from_rows(F2, [(1, 1), (0, 1)])
    with pytest.raises(InvalidMorphism):
        CoalgebraMorphism(c, c, shear).require_valid()


def _dual_ring_issues(theta):
    """The laws by which the transpose of theta fails to be a unital algebra
    map of the duals.  For finite dimensions it is one exactly when theta is
    counital and comultiplicative, so this agrees with `validate`."""
    field = theta.source.field
    src_dual = DualAlgebra(theta.source)
    tgt_dual = DualAlgebra(theta.target)
    tt = theta.matrix.transpose()
    issues = []
    unit_pull = tt.apply(tgt_dual.unit)
    if unit_pull != tuple(src_dual.unit):
        issues.append("dual-ring-unit")
    m = theta.target.dim
    for a in range(m):
        fa = tuple(field.one if s == a else field.zero for s in range(m))
        for b in range(m):
            fb = tuple(field.one if s == b else field.zero for s in range(m))
            lhs = tt.apply(tgt_dual.multiply(fa, fb))
            rhs = src_dual.multiply(tt.apply(fa), tt.apply(fb))
            if tuple(lhs) != tuple(rhs):
                issues.append("dual-ring-product")
    return issues


def test_dual_ring_map_agrees_with_validation():
    from coprimespec.linalg import Matrix
    c = grouplike(2, F2)
    swap = Matrix.from_rows(F2, [(0, 1), (1, 0)])
    shear = Matrix.from_rows(F2, [(1, 1), (0, 1)])
    for theta, valid in ((identity_morphism(divided_power(3, QQ)), True),
                         (CoalgebraMorphism(c, c, swap), True),
                         (CoalgebraMorphism(c, c, shear), False)):
        assert theta.validate().ok is valid
        assert (not _dual_ring_issues(theta)) is valid
