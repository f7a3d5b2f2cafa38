"""Exact linear algebra: RREF, kernels, subspaces, enumeration."""

import random

import pytest

from coprimespec.exceptions import BudgetExceeded
from coprimespec.fields import prime_field, rationals
from coprimespec.linalg import (Matrix, Subspace, count_subspaces,
                                enumerate_subspaces, gaussian_binomial,
                                kernel, preimage, rref, sum_closure)

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def random_matrix(field, rows, cols, rng):
    data = [[field.random_element(rng) for _ in range(cols)]
            for _ in range(rows)]
    return Matrix.from_rows(field, data)


def test_rref_shape_and_idempotence():
    rng = random.Random(23)
    for field in (F2, F3, QQ):
        for _ in range(25):
            m = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            reduced, rank = rref(m)
            assert reduced.rows == rank
            pivots = []
            for r in reduced.data:
                lead = next(i for i, x in enumerate(r) if not field.is_zero(x))
                assert r[lead] == field.one
                pivots.append(lead)
                for other in reduced.data:
                    if other is not r:
                        assert field.is_zero(other[lead])
            assert pivots == sorted(pivots)
            again, again_rank = rref(reduced)
            assert again.data == reduced.data and again_rank == rank


def test_rref_is_a_canonical_form():
    rng = random.Random(5)
    for field in (F2, F3, QQ):
        for _ in range(20):
            n = rng.randrange(1, 5)
            vecs = [[field.random_element(rng) for _ in range(n)]
                    for _ in range(rng.randrange(1, 4))]
            s = Subspace.from_vectors(field, n, vecs)
            shuffled = list(vecs)
            rng.shuffle(shuffled)
            scaled = [[field.mul(field.coerce(1), x) for x in v] for v in shuffled]
            t = Subspace.from_vectors(field, n, scaled + vecs)
            assert s.key() == t.key()
            assert s == t


def test_kernel_vectors_vanish():
    rng = random.Random(9)
    for field in (F2, F3, QQ):
        for _ in range(25):
            m = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            k = kernel(m)
            for v in k.basis:
                assert all(field.is_zero(x) for x in m.apply(v))
            rank = rref(m)[1]
            assert k.dim == m.cols - rank


def test_matrix_multiplication_agrees_with_apply():
    rng = random.Random(31)
    for field in (F2, QQ):
        for _ in range(20):
            a = random_matrix(field, 3, 4, rng)
            b = random_matrix(field, 4, 2, rng)
            ab = a @ b
            v = [field.random_element(rng) for _ in range(2)]
            assert list(ab.apply(v)) == list(a.apply(b.apply(v)))
        ident = Matrix.identity(field, 3)
        c = random_matrix(field, 3, 3, rng)
        assert (ident @ c) == c and (c @ ident) == c


def test_subspace_dimension_formula():
    rng = random.Random(41)
    for field in (F2, F3):
        for _ in range(30):
            n = rng.randrange(1, 6)
            u = Subspace.from_vectors(field, n, [
                [field.random_element(rng) for _ in range(n)]
                for _ in range(rng.randrange(0, 4))])
            w = Subspace.from_vectors(field, n, [
                [field.random_element(rng) for _ in range(n)]
                for _ in range(rng.randrange(0, 4))])
            s = u.sum_with(w)
            i = u.intersect(w)
            assert s.dim + i.dim == u.dim + w.dim
            assert s.contains(u) and s.contains(w)
            assert u.contains(i) and w.contains(i)


def test_subspace_membership_and_coords():
    s = Subspace.from_vectors(F3, 4, [(1, 0, 2, 0), (0, 1, 1, 0)])
    assert s.dim == 2
    assert s.contains_vector((1, 1, 0, 0))
    assert not s.contains_vector((0, 0, 0, 1))
    coords = s.coords_of((1, 1, 0, 0))
    rebuilt = [F3.zero] * 4
    for c, row in zip(coords, s.basis):
        for j, x in enumerate(row):
            rebuilt[j] = F3.add(rebuilt[j], F3.mul(c, x))
    assert tuple(rebuilt) == (1, 1, 0, 0)


def test_full_and_zero_subspaces():
    full = Subspace.full(F2, 3)
    zero = Subspace.zero(F2, 3)
    assert full.is_full() and full.dim == 3
    assert zero.is_zero() and zero.dim == 0
    assert full.contains(zero)
    assert full.intersect(zero) == zero
    assert full.sum_with(zero) == full


def test_vanishing_functionals_cut_out_the_subspace():
    rng = random.Random(3)
    for field in (F2, QQ):
        for _ in range(15):
            n = rng.randrange(1, 5)
            s = Subspace.from_vectors(field, n, [
                [field.random_element(rng) for _ in range(n)]
                for _ in range(rng.randrange(0, 3))])
            van = s.vanishing()
            assert kernel(van) == s


def test_preimage():
    rng = random.Random(17)
    for _ in range(20):
        f = random_matrix(F2, 3, 3, rng)
        y = Subspace.from_vectors(F2, 3, [
            [F2.random_element(rng) for _ in range(3)]
            for _ in range(rng.randrange(0, 3))])
        pre = preimage(f, y)
        for v in Subspace.full(F2, 3).members():
            assert pre.contains_vector(v) == y.contains_vector(f.apply(v))


def test_subspace_counts_match_gaussian_binomials():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    for p in (2, 3):
        for n in range(5):
            assert count_subspaces(p, n) == sum(
                gaussian_binomial(n, k, p) for k in range(n + 1))


def test_enumerate_subspaces_is_complete_and_duplicate_free():
    for p, n in ((2, 3), (3, 2), (2, 4)):
        field = prime_field(p)
        seen = {s.key() for s in enumerate_subspaces(field, n)}
        assert len(seen) == count_subspaces(p, n)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                  (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_sum_closure_of_lines_yields_every_subspace_once(p, n):
    # With cyclic(v) = span(v) every subspace is invariant.
    field = prime_field(p)
    found = sum_closure(field, n, lambda v: Subspace.from_vectors(field, n, [v]))
    keys = [s.key() for s in found]
    assert len(keys) == len(set(keys)) == count_subspaces(p, n)
    assert set(keys) == {s.key() for s in enumerate_subspaces(field, n)}


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(F2, 4, budget=3))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(QQ, 2))
