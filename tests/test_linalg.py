"""Exact linear algebra: RREF, kernels, subspaces, enumeration."""

import random
from fractions import Fraction
from itertools import product

import pytest

from coprimespec.exceptions import BudgetExceeded
from coprimespec.fields import Field, prime_field, rationals
from coprimespec.linalg import (Matrix, Subspace, count_subspaces,
                                enumerate_subspaces, gaussian_binomial,
                                invariant_span, is_stable, kernel, preimage,
                                sum_closure)
from test_fields import is_canonical_rational

F2 = prime_field(2)
F3 = prime_field(3)
QQ = rationals()


def row_space(m):
    """The reduced row-echelon form of m, zero rows removed, as a Subspace."""
    return Subspace.from_vectors(m.field, m.cols, m.data)


def random_matrix(field, rows, cols, rng):
    data = [[field.random_element(rng) for _ in range(cols)]
            for _ in range(rows)]
    return Matrix.from_rows(field, data)


def test_rref_shape_and_idempotence():
    rng = random.Random(23)
    for field in (F2, F3, QQ):
        for _ in range(25):
            m = random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            reduced = row_space(m)
            pivots = []
            for r in reduced.basis:
                lead = next(i for i, x in enumerate(r) if not field.is_zero(x))
                assert r[lead] == field.one
                pivots.append(lead)
                for other in reduced.basis:
                    if other is not r:
                        assert field.is_zero(other[lead])
            assert pivots == sorted(pivots) == list(reduced.pivots)
            again = Subspace.from_vectors(field, m.cols, reduced.basis)
            assert again.basis == reduced.basis


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
            assert k.dim == m.cols - row_space(m).dim


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
        for v in product(range(2), repeat=3):
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
    found, _ = sum_closure(field, n, lambda v: Subspace.from_vectors(field, n, [v]))
    keys = [s.key() for s in found]
    assert len(keys) == len(set(keys)) == count_subspaces(p, n)
    assert set(keys) == {s.key() for s in enumerate_subspaces(field, n)}


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(F2, 4, budget=3))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(QQ, 2))


# --- packed F2 rows against the tuple arithmetic -------------------------------

class _Two(int):
    """The order 2, unequal to the int 2: linalg packs rows when
    `field.p == 2`, so a field of this order runs the generic prime-field
    (tuple) path on F2 data.  Two such orders are equal to each other."""

    def __eq__(self, other):
        return isinstance(other, _Two)

    def __ne__(self, other):
        return not isinstance(other, _Two)

    __hash__ = int.__hash__


TUPLE_F2 = Field(_Two(2))


def _f2_matrices(rng, count):
    """Random F2 matrices of mixed shape, some of low rank (repeated and
    zero rows), some with no rows."""
    for _ in range(count):
        rows, cols = rng.randrange(0, 7), rng.randrange(1, 10)
        data = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            data[rng.randrange(rows)] = list(data[0])
            data[rng.randrange(rows)] = [0] * cols
        yield Matrix(F2, rows, cols, data), Matrix(TUPLE_F2, rows, cols, data)


def _dense_f2_matrices(rng, count):
    """Random dense F2 matrices of about 60 rows and 25 columns, the shape
    of the commutation systems; half are sums of a few random rows, so their
    rank falls short of the column count."""
    for n in range(count):
        rows, cols = rng.randrange(50, 70), rng.randrange(20, 30)
        data = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        if n % 2:
            base = data[:rng.randrange(3, 15)]
            data = [[sum(x) % 2 for x in zip(*rng.sample(base, rng.randrange(1, 4)))]
                    for _ in range(rows)]
        yield Matrix(F2, rows, cols, data), Matrix(TUPLE_F2, rows, cols, data)


def _same(packed: Subspace, tuples: Subspace):
    assert packed.basis == tuples.basis
    assert packed.pivots == tuples.pivots
    assert packed.key() == tuples.key()
    assert packed.sort_key() == tuples.sort_key()


def test_generic_order_two_takes_the_tuple_path():
    assert TUPLE_F2.p != 2 and TUPLE_F2.p % 2 == 0 and TUPLE_F2.p - 1 == 1
    assert TUPLE_F2 == Field(_Two(2)) and TUPLE_F2 != F2
    m = Matrix(TUPLE_F2, 1, 2, [[1, 1]])
    assert m._f2 is None and m.apply((1, 0)) == (1,) and m._f2 is None


def test_packed_rref_kernel_and_apply_match_the_tuple_path():
    rng = random.Random(41)
    for m, t in [*_f2_matrices(rng, 300), *_dense_f2_matrices(rng, 20)]:
        reduced, t_reduced = row_space(m), row_space(t)
        assert reduced.basis == t_reduced.basis and reduced.pivots == t_reduced.pivots
        _same(kernel(m), kernel(t))
        for _ in range(3):
            v = tuple(rng.randrange(2) for _ in range(m.cols))
            assert m.apply(v) == t.apply(v)
        k = rng.randrange(1, 6)
        other = [[rng.randrange(2) for _ in range(k)] for _ in range(m.cols)]
        assert (m @ Matrix(F2, m.cols, k, other)).data == \
            (t @ Matrix(TUPLE_F2, m.cols, k, other)).data


def test_packed_membership_sums_and_intersections_match_the_tuple_path():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(1, 10)
        spaces = []
        for _ in range(2):
            vecs = [tuple(rng.randrange(2) for _ in range(n))
                    for _ in range(rng.randrange(0, n + 1))]
            s, t = Subspace.from_vectors(F2, n, vecs), Subspace.from_vectors(TUPLE_F2, n, vecs)
            _same(s, t)
            spaces.append((s, t))
        (s1, t1), (s2, t2) = spaces
        for _ in range(4):
            v = tuple(rng.randrange(2) for _ in range(n))
            assert s1.reduce_vector(v) == t1.reduce_vector(v)
            assert s1.contains_vector(v) == t1.contains_vector(v)
        assert s1.contains(s2) == t1.contains(t2)
        assert s2.contains(s1) == t2.contains(t1)
        _same(s1.sum_with(s2), t1.sum_with(t2))
        _same(s1.intersect(s2), t1.intersect(t2))


def test_packed_invariant_span_matches_the_tuple_path():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randrange(1, 9)
        ops_data = []
        for _ in range(rng.randrange(0, 4)):
            # Sparse operators give proper invariant subspaces more often.
            ops_data.append([[1 if rng.random() < 0.2 else 0 for _ in range(n)]
                             for _ in range(n)])
        vecs = [tuple(rng.randrange(2) for _ in range(n))
                for _ in range(rng.randrange(1, 3))]
        spans = []
        for field in (F2, TUPLE_F2):
            ops = [Matrix(field, n, n, d) for d in ops_data]
            span = invariant_span(field, n, vecs, ops)
            assert is_stable(span, ops)
            assert all(span.contains_vector(v) for v in vecs)
            spans.append(span)
        _same(*spans)


# --- the rational path against dense references ---------------------------------

def _dense_rref(rows):
    """Gauss-Jordan over Fractions touching every entry: the reference."""
    rows = [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    r, pivots = 0, []
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = [x / rows[r][c] for x in rows[r]]
        rows[r] = lead
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def _sparse_rational_rows(rng, count, cols):
    """Random rows over Q with about one entry in three nonzero, each in
    the canonical form that `QQ.coerce` gives."""
    return [[QQ.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
             if rng.random() < 0.3 else 0 for _ in range(cols)] for _ in range(count)]


def test_rational_rref_matches_the_dense_reference():
    rng = random.Random(53)
    for _ in range(200):
        cols = rng.randrange(1, 12)
        rows = _sparse_rational_rows(rng, rng.randrange(1, 14), cols)
        basis, pivots = _dense_rref(rows)
        s = Subspace.from_vectors(QQ, cols, rows)
        assert s.basis == basis and s.pivots == pivots
        assert all(is_canonical_rational(x) for row in s.basis for x in row)
        k = kernel(Matrix(QQ, len(rows), cols, rows))
        assert k.dim == cols - len(pivots)
        assert all(is_canonical_rational(x) for row in k.basis for x in row)


def test_rational_products_are_canonical():
    rng = random.Random(59)
    for _ in range(50):
        n = rng.randrange(1, 6)
        a = Matrix(QQ, n, n, _sparse_rational_rows(rng, n, n))
        b = Matrix(QQ, n, n, _sparse_rational_rows(rng, n, n))
        v = tuple(_sparse_rational_rows(rng, 1, n)[0])
        assert all(is_canonical_rational(x) for x in a.apply(v))
        assert all(is_canonical_rational(x) for row in (a @ b).data for x in row)
        assert (a @ b).apply(v) == a.apply(b.apply(v))


def test_rational_invariant_span_is_the_closure():
    """The span stops as soon as it is the whole space; the result is the
    smallest stable subspace, as the plain fixed-point iteration finds it."""
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randrange(1, 7)
        ops = [Matrix(QQ, n, n, _sparse_rational_rows(rng, n, n))
               for _ in range(rng.randrange(0, 4))]
        vecs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                for _ in range(rng.randrange(1, 3))]
        closure = Subspace.from_vectors(QQ, n, vecs)
        while True:
            grown = Subspace.from_vectors(
                QQ, n, [*closure.basis, *(op.apply(w) for op in ops for w in closure.basis)])
            if grown == closure:
                break
            closure = grown
        span = invariant_span(QQ, n, vecs, ops)
        assert span == closure and span.pivots == closure.pivots
