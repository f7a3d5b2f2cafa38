"""Bicomodules, coaction laws, centralizers, quotients and restrictions."""

import pytest

from coprimespec.bicomodule import (Bicomodule, centralizer, is_subbicomodule,
                                    phi_matrix, quotient, regular_bicomodule,
                                    restrict)
from coprimespec.catalog import (comatrix, divided_power, grouplike,
                                 right_comodule)
from coprimespec.exceptions import NotSubbicomodule
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import cyclic_subbicomodule
from coprimespec.linalg import Matrix, Subspace

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def test_regular_bicomodules_satisfy_the_coaction_laws():
    for field in (F2, F3, QQ):
        for c in (grouplike(2, field), divided_power(3, field),
                  comatrix(2, field)):
            m = regular_bicomodule(c)
            report = m.validate()
            assert report.ok, report.issues
            assert m.dim == c.dim
            assert m.regular_of is c


K2, K3 = grouplike(1, F2), grouplike(1, F3)

# One hand-broken bicomodule per coaction law, with every (law, index) its
# report must hold: (i, a, b, c) is the coefficient of e_a (x) c_b (x) c_c
# (right) or d_a (x) d_b (x) e_c (left) in the image of e_i, (i, j) a counit
# law, and (i, a, b, k) the coefficient of d_a (x) e_b (x) c_k.
BROKEN_LAWS = {
    # rho(m) = m (x) (2 g0 + 2 g1) over F3 is counital (2 + 2 = 1), but
    # (rho (x) id) rho(m) has coefficient 1 at every m (x) g_b (x) g_c and
    # (id (x) Delta) rho(m) has 2, 0, 0, 2.
    "right-coassociativity": (
        Bicomodule.from_triples(K3, grouplike(2, F3), 1, [(0, 0, 0, 1)],
                                [(0, 0, 0, 2), (0, 0, 1, 2)]),
        {("right-coassociativity", (0, 0, b, c)) for b in range(2) for c in range(2)}),
    # The zero right coaction: (id (x) counit) rho(m) = 0, not m.
    "right-counit": (
        Bicomodule.from_triples(K2, K2, 1, [(0, 0, 0, 1)], []),
        {("right-counit", (0, 0))}),
    # The mirror image of the right-coassociativity case.
    "left-coassociativity": (
        Bicomodule.from_triples(grouplike(2, F3), K3, 1,
                                [(0, 0, 0, 2), (0, 1, 0, 2)], [(0, 0, 0, 1)]),
        {("left-coassociativity", (0, a, b, 0)) for a in range(2) for b in range(2)}),
    "left-counit": (
        Bicomodule.from_triples(K2, K2, 1, [], [(0, 0, 0, 1)]),
        {("left-counit", (0, 0))}),
    # Over two group-likes each coaction is a grading: the right one by
    # F2 e0 + F2 e1, the left one by F2 (e0 + e1) + F2 e1, so e0 has left
    # parts e0 + e1 and e1.  Each is a comodule; they commute on e1 alone:
    # rho_left then rho_right sends e0 to d0 (x) (e0 (x) c0 + e1 (x) c1)
    # + d1 (x) e1 (x) c1, the other order to d0 (x) e0 (x) c0 + d0 (x) e1
    # (x) c0 + d1 (x) e1 (x) c0.
    "coaction-compatibility": (
        Bicomodule.from_triples(grouplike(2, F2), grouplike(2, F2), 2,
                                [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)],
                                [(0, 0, 0, 1), (1, 1, 1, 1)]),
        {("coaction-compatibility", (0, a, 1, k)) for a in range(2) for k in range(2)}),
}


@pytest.mark.parametrize("law", list(BROKEN_LAWS))
def test_each_law_reports_exactly_its_hand_worked_witnesses(law):
    m, expected = BROKEN_LAWS[law]
    assert {(issue.law, issue.index) for issue in m.validate()} == expected


def test_one_sided_comodule_has_trivial_left_side():
    m = right_comodule(divided_power(2, F3))
    assert m.validate().ok
    assert m.left.dim == 1
    assert m.right.dim == 3
    assert m.regular_of is None


def test_operator_matrices_match_raw_tensors():
    m = regular_bicomodule(divided_power(3, F2))
    for i, j, k, coeff in m.right_triples():
        assert m.rho_right[i][j][k] == coeff
    for i, j, k, coeff in m.left_triples():
        assert m.rho_left[i][j][k] == coeff


def test_centralizer_elements_commute_with_both_coactions():
    for c in (divided_power(3, F2), grouplike(3, F3), comatrix(2, F2)):
        m = regular_bicomodule(c)
        cen = centralizer(m)
        n = m.dim
        right_ops = [Matrix.from_rows(m.field,
                                      [[m.rho_right[i][j][k] for i in range(n)]
                                       for j in range(n)])
                     for k in range(n)]
        left_ops = [Matrix.from_rows(m.field,
                                     [[m.rho_left[i][j][k] for i in range(n)]
                                      for k in range(n)])
                    for j in range(n)]
        for f in cen.basis():
            mat = phi_matrix(m, f)
            for op in right_ops + left_ops:
                assert (mat @ op) == (op @ mat)


def test_regular_centralizer_is_the_center_of_the_dual():
    cases = ((divided_power(4, F2), 5), (grouplike(3, F3), 3),
             (comatrix(2, F3), 1))
    for c, expected in cases:
        cen = centralizer(regular_bicomodule(c))
        assert cen.dim == expected
        assert cen.contains_counit()
        assert cen.closed_under_convolution()


def test_subbicomodule_detection_on_the_divided_power_chain():
    m = regular_bicomodule(divided_power(3, F2))
    c1 = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert is_subbicomodule(m, c1)
    skew = Subspace.from_vectors(F2, 4, [(0, 1, 0, 0)])
    assert not is_subbicomodule(m, skew)


def test_cyclic_subbicomodule_of_a_divided_power_generator():
    m = regular_bicomodule(divided_power(3, F2))
    for n in range(4):
        gen = tuple(1 if i == n else 0 for i in range(4))
        sub = cyclic_subbicomodule(m, gen)
        assert sub.dim == n + 1
        assert sub.contains_vector(gen)
        assert is_subbicomodule(m, sub)


def test_quotient_projects_the_coactions():
    m = regular_bicomodule(divided_power(3, F2))
    c0 = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0)])
    q, proj = quotient(m, c0)
    assert q.dim == 3
    assert q.validate().ok
    assert proj.rows == 3 and proj.cols == 4
    assert all(m.field.is_zero(x) for x in proj.apply((1, 0, 0, 0)))
    with pytest.raises(ValueError):
        quotient(m, Subspace.full(F2, 4))


def test_restrict_keeps_the_laws():
    m = regular_bicomodule(divided_power(3, F2))
    c1 = cyclic_subbicomodule(m, (0, 1, 0, 0))
    r, embed = restrict(m, c1)
    assert r.dim == 2
    assert r.validate().ok
    for col in range(embed.cols):
        assert c1.contains_vector(embed.column(col))
    with pytest.raises(ValueError):
        restrict(m, Subspace.zero(F2, 4))
    skew = Subspace.from_vectors(F2, 4, [(0, 1, 0, 0)])
    with pytest.raises(NotSubbicomodule):
        restrict(m, skew)
