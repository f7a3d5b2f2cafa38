"""Bicolinear endomorphism rings, annihilators, kernels, and ideals.

The endomorphism ring of a bicomodule is computed as the joint commutant
of all dual-action operators; over a field a linear map is bicolinear
exactly when it commutes with both rational actions.  The ring product is
opposite composition (x * y means "apply x, then y"), which makes the
annihilator of any subspace a right ideal.

Ideal enumeration/primality is written against a tiny algebra protocol
(field, dim, multiply, unit_coords, and a `_mult_ops` slot that
`multiplication_ops` fills) so the same machinery serves both the
endomorphism ring and a convolution dual algebra.

Primality and semiprimality of a two-sided ideal I are tested only on the
minimal enumerated two-sided J with J not <= I, which is equivalent by
monotonicity: J1 <= J1' gives J1*J2 <= J1'*J2, and likewise in the second
factor, so a pair J1, J2 outside I with J1*J2 <= I stays such a pair when
each factor is lowered to a minimal ideal outside I below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bicomodule import Bicomodule, quotient, restrict
from .exceptions import (AmbientMismatch, BudgetExceeded, CoalgebraMismatch,
                         NotSubbicomodule, UnsupportedOverQ)
from .linalg import (Matrix, Subspace, bits_of, check_subspace_budget,
                     combination, f2_bits_at, f2_image, f2_kernel,
                     f2_null_rows, f2_rank, f2_reduce, f2_span, invariant_span,
                     is_stable, kernel, maximal_bits, minimal_bits,
                     strict_upsets, sum_closure)
# Unused here; kept because perfbench/tracing.py patches it in this module.
from .linalg import enumerate_subspaces


def intertwiners(src: Bicomodule, tgt: Bicomodule):
    """Basis of bicolinear maps src -> tgt over the same coalgebra pair."""
    if src.left != tgt.left or src.right != tgt.right:
        raise CoalgebraMismatch("intertwiners need matching coalgebras")
    field = src.field
    ns, nt = src.dim, tgt.dim
    if field.p == 2:
        sol = f2_kernel(field, nt * ns, _f2_commutation_rows(
            [(op_s.packed_columns(), op_t.packed_rows())
             for op_s, op_t in zip(src.all_ops(), tgt.all_ops())], ns, nt))
    else:
        rows = []
        for op_s, op_t in zip(src.all_ops(), tgt.all_ops()):
            ts, tt = op_s.data, op_t.data
            for a in range(nt):
                for i in range(ns):
                    row = [field.zero] * (nt * ns)
                    for b in range(ns):
                        if ts[b][i]:
                            row[a * ns + b] = field.add(row[a * ns + b], ts[b][i])
                    for b in range(nt):
                        if tt[a][b]:
                            row[b * ns + i] = field.sub(row[b * ns + i], tt[a][b])
                    rows.append(row)
        sol = kernel(Matrix(field, len(rows), nt * ns, rows))
    mats = []
    for flat in sol.basis:
        data = [flat[a * ns:(a + 1) * ns] for a in range(nt)]
        mats.append(Matrix(field, nt, ns, data))
    return mats


def _f2_commutation_rows(pairs, ns: int, nt: int):
    """The equations g @ op_s = op_t @ g over F2 as packed rows, for an
    nt x ns unknown g flattened row by row (entry (a, b) is bit a*ns + b).
    Each pair holds the packed columns of op_s and the packed rows of op_t.
    The equation for entry (a, i) is column i of op_s shifted by a*ns, XOR
    row a of op_t spread to bits b*ns and then shifted by i."""
    rows = []
    for cols_s, rows_t in pairs:
        for row_t, shift in zip(rows_t, range(0, nt * ns, ns)):
            spread = 0
            for b in bits_of(row_t):
                spread |= 1 << b * ns
            rows += [col << shift ^ spread << i for i, col in enumerate(cols_s)]
    return rows


def _f2_stable_ops(m: Bicomodule, k: Subspace):
    """[(op, packed images of K's basis rows under op)] for op in
    `m.op_basis()`, over F2; NotSubbicomodule when an image leaves K, which
    XOR-ing the matching basis rows out of it tells.  A basis of the span of
    `m.all_ops()` suffices for stability: K is stable under a sum of
    operators when it is stable under each."""
    if k.ambient != m.dim or k.field != m.field:
        raise AmbientMismatch("subspace does not live in the bicomodule")
    basis, pivots = k.packed(), k.pivots
    found = []
    for op in m.op_basis():
        images = [f2_image(op.packed_columns(), row) for row in basis]
        if any(f2_reduce(w, pivots, basis) for w in images):
            raise NotSubbicomodule("subspace is not stable under the coactions")
        found.append((op, images))
    return found


def hom_dim(m: Bicomodule, k: Subspace) -> int:
    """dim Hom(K, M) for a nonzero subbicomodule K of M, the number of
    intertwiners from `restrict(m, k)` to m; NotSubbicomodule when K is not
    stable under the coactions.

    Over F2 no restricted bicomodule is built.  Column t of the operator
    that op induces on K holds the coordinates of w = op(b_t), b_t the
    packed RREF basis row t of K: the bits of w at K's pivots.  The
    dimension is m.dim * dim K minus the rank of the commutation system.
    The ops run over `m.op_basis()`, a basis of the span of `m.all_ops()`:
    the equations g op|_K = op g of a sum of operators are the sums of
    their equations, so the other operators add no rank.
    """
    field = m.field
    if field.p != 2:
        return len(intertwiners(restrict(m, k)[0], m))
    stable = _f2_stable_ops(m, k)
    if k.is_zero():
        raise ValueError("cannot restrict to the zero subspace")
    pairs = [([f2_bits_at(w, k.pivots) for w in images], op.packed_rows())
             for op, images in stable]
    return m.dim * k.dim - f2_rank(_f2_commutation_rows(pairs, k.dim, m.dim))


def quotient_cogenerated(m: Bicomodule, k: Subspace) -> bool:
    """Whether M/K is cogenerated by M, i.e. embeds into a product of copies
    of M: the kernels of the bicolinear maps M/K -> M meet in zero.  M/M is
    zero and counts as cogenerated; NotSubbicomodule when K is not stable
    under the coactions.

    Over F2 no quotient bicomodule is built.  The projection is the one
    `quotient` uses: pi(v) is v reduced by K's packed RREF rows, read at
    K's free (non-pivot) columns.  Column t of the operator that op
    induces on M/K is pi(op(e_f)), f the free column t.  With q = n - dim K
    the n x q maps g of the commutation system form Hom(M/K, M); their
    kernels meet in zero exactly when the rows of a basis of solutions have
    rank q, since every solution's rows are sums of those rows.  As in
    `hom_dim`, the ops run over `m.op_basis()`: induced operators and their
    equations add up, so the other operators change nothing.
    """
    if k.is_full():
        return True
    if m.field.p != 2:
        q, _ = quotient(m, k)
        maps = intertwiners(q, m)
        return bool(maps) and kernel(Matrix.stack(maps)).is_zero()
    n, basis, pivots = m.dim, k.packed(), k.pivots
    free = [f for f in range(n) if f not in pivots]
    q = len(free)
    pairs = []
    for op, _ in _f2_stable_ops(m, k):
        op_cols = op.packed_columns()
        pairs.append(([f2_bits_at(f2_reduce(op_cols[f], pivots, basis), free)
                       for f in free], op.packed_rows()))
    block = (1 << q) - 1
    return f2_rank([g >> a * q & block
                    for g in f2_null_rows(n * q, _f2_commutation_rows(pairs, q, n))
                    for a in range(n)]) == q


class EndoAlgebra:
    """Ring of bicolinear endomorphisms with opposite-composition product."""

    __slots__ = ("bicomodule", "field", "basis", "dim", "flat", "unit_coords", "_table",
                 "_mult_ops")

    def __init__(self, bicomodule: Bicomodule, basis):
        self.bicomodule = bicomodule
        self.field = bicomodule.field
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        n = bicomodule.dim
        self.flat = Subspace.from_vectors(self.field, n * n,
                                          [mat.flatten() for mat in self.basis])
        ident = Matrix.identity(self.field, n)
        self.unit_coords = self.coords_of(ident)
        self._table = None
        self._mult_ops = None

    @classmethod
    def compute(cls, m: Bicomodule) -> "EndoAlgebra":
        return cls(m, intertwiners(m, m))

    def element(self, coords) -> Matrix:
        return combination(self.field, self.bicomodule.dim, coords, self.basis)

    def element_rows(self, coords: int):
        """The packed rows of the element with packed coordinates (F2
        only): the XOR of the basis matrices' packed rows at its set bits."""
        out = [0] * self.bicomodule.dim
        for b, mat in enumerate(self.basis):
            if coords >> b & 1:
                out = [x ^ r for x, r in zip(out, mat.packed_rows())]
        return out

    def coords_of(self, mat: Matrix):
        """Coordinates of a bicolinear matrix in the stored basis."""
        return self.flat.coords_of(mat.flatten())

    def contains_matrix(self, mat: Matrix) -> bool:
        return self.flat.contains_vector(mat.flatten())

    def multiply(self, x, y):
        """Opposite composition on coordinates: (x * y)(v) = y(x(v))."""
        if self._table is None:
            table = []
            for a in range(self.dim):
                row = []
                for b in range(self.dim):
                    row.append(self.coords_of(self.basis[b] @ self.basis[a]))
                table.append(tuple(row))
            self._table = tuple(table)
        field = self.field
        y_terms = [(b, yb) for b, yb in enumerate(y) if yb]
        out = [field.zero] * self.dim
        for a, xa in enumerate(x):
            if xa:
                row = self._table[a]
                for b, yb in y_terms:
                    coeff = field.mul(xa, yb)
                    for i, p in enumerate(row[b]):
                        if p:
                            out[i] = field.add(out[i], field.mul(coeff, p))
        return tuple(out)

    def __repr__(self):
        return f"EndoAlgebra(dim={self.dim} over {self.field.name})"


def endo_algebra(m: Bicomodule) -> EndoAlgebra:
    return EndoAlgebra.compute(m)


@lru_cache(maxsize=None)
def coordinate_vectors(field, n):
    """The unit vectors of field^n, built once per (field, n)."""
    return tuple(Matrix.identity(field, n).data)


@dataclass
class RightIdeal:
    """Subspace of an algebra flagged with its closure properties."""

    algebra: object
    subspace: Subspace
    is_right: bool
    is_two_sided: bool

    @property
    def dim(self):
        return self.subspace.dim

    def is_proper(self):
        return not self.subspace.contains_vector(self.algebra.unit_coords)


def multiplication_ops(algebra):
    """(right, left) multiplication operators on coordinates, built once per
    algebra from its dim^2 basis products: column a of R_b holds e_a * e_b
    and column a of L_b holds e_b * e_a, so R_b x = x * e_b, L_b x = e_b * x."""
    if algebra._mult_ops is None:
        field, n = algebra.field, algebra.dim
        units = coordinate_vectors(field, n)
        prod = [[algebra.multiply(ea, eb) for eb in units] for ea in units]
        right = tuple(Matrix(field, n, n, [[prod[a][b][i] for a in range(n)]
                                           for i in range(n)]) for b in range(n))
        left = tuple(Matrix(field, n, n, [[prod[b][a][i] for a in range(n)]
                                          for i in range(n)]) for b in range(n))
        algebra._mult_ops = (right, left)
    return algebra._mult_ops


def _closed(algebra, sub: Subspace, left: bool) -> bool:
    """Whether sub is closed under multiplication by the algebra on the left
    (or on the right); the basis of the algebra suffices."""
    return is_stable(sub, multiplication_ops(algebra)[1 if left else 0])


def make_ideal(algebra, sub: Subspace) -> RightIdeal:
    right = _closed(algebra, sub, left=False)
    return RightIdeal(algebra, sub, right, right and _closed(algebra, sub, left=True))


def _right_ideal(algebra, sub: Subspace) -> RightIdeal:
    """Flags a subspace known to be a right ideal; only the left side is tested."""
    return RightIdeal(algebra, sub, True, _closed(algebra, sub, left=True))


def an(sub: Subspace, endo: EndoAlgebra) -> RightIdeal:
    """Annihilator {f : f(sub) = 0} as a right ideal of the endomorphism ring."""
    m = endo.bicomodule
    if sub.ambient != m.dim:
        raise AmbientMismatch("subspace does not live in the bicomodule")
    field = endo.field
    if field.p == 2:
        # One row per coordinate i of M and basis row v of sub; its bit j
        # is coordinate i of e_j(v).
        columns = [mat.packed_columns() for mat in endo.basis]
        rows = []
        for v in sub.packed():
            images = [f2_image(cols, v) for cols in columns]
            rows.extend(sum((u >> i & 1) << j for j, u in enumerate(images))
                        for i in range(m.dim))
        return make_ideal(endo, f2_kernel(field, endo.dim, rows))
    rows = []
    for v in sub.basis:
        images = [mat.apply(v) for mat in endo.basis]
        for i in range(m.dim):
            rows.append([img[i] for img in images])
    if not rows:
        solution = Subspace.full(field, endo.dim)
    else:
        solution = kernel(Matrix(field, len(rows), endo.dim, rows))
    ideal = make_ideal(endo, solution)
    return ideal


def ke(ideal, endo: EndoAlgebra) -> Subspace:
    """Joint kernel of an ideal (or plain coordinate subspace) of endomorphisms."""
    sub = ideal.subspace if isinstance(ideal, RightIdeal) else ideal
    m = endo.bicomodule
    if sub.is_zero():
        return Subspace.full(endo.field, m.dim)
    if endo.field.p == 2:
        return f2_kernel(endo.field, m.dim, [
            row for coords in sub.packed() for row in endo.element_rows(coords)])
    mats = [endo.element(coords) for coords in sub.basis]
    return kernel(Matrix.stack(mats))


def ideal_product(algebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of pairwise products; the ideal product for two-sided operands.
    Over F2, x * y = R_y x with R_y = sum of y_b R_b over the right
    multiplication operators R_b, so the packed columns of R_y are the XOR
    of those of the R_b at the set bits of y."""
    field = algebra.field
    if field.p == 2:
        right = [op.packed_columns() for op in multiplication_ops(algebra)[0]]
        vectors = []
        for y in b.packed():
            r_y = [0] * algebra.dim
            for n, cols in enumerate(right):
                if y >> n & 1:
                    r_y = [u ^ v for u, v in zip(r_y, cols)]
            vectors.extend(f2_image(r_y, x) for x in a.packed())
        return f2_span(field, algebra.dim, vectors)
    vectors = [algebra.multiply(x, y) for x in a.basis for y in b.basis]
    return Subspace.from_vectors(algebra.field, algebra.dim, vectors)


def enumerate_ideals(algebra, side: str = "right", budget: int = 50000):
    """All right (or two-sided) ideals of a finite algebra, canonically sorted.

    A right ideal is the sum of the cyclic right ideals of its elements, so
    the right ideals are the sum-closure of `right_ideal_span` of every
    vector (`linalg.sum_closure`); only the left flag is tested on each.
    Raises UnsupportedOverQ over the rationals and BudgetExceeded, before
    any work, when the subspace count of the coordinate space exceeds the
    budget.
    """
    field = algebra.field
    if field.p is None:
        raise UnsupportedOverQ("ideal enumeration needs a finite field")
    if side not in ("right", "two_sided"):
        raise ValueError(f"side must be 'right' or 'two_sided', got {side!r}")
    check_subspace_budget(field, algebra.dim, budget)
    found = [_right_ideal(algebra, sub) for sub in
             sum_closure(field, algebra.dim, lambda x: right_ideal_span(algebra, [x]))]
    if side == "two_sided":
        found = [ideal for ideal in found if ideal.is_two_sided]
    found.sort(key=lambda ideal: ideal.subspace.sort_key())
    return found


class IdealPoset:
    """An enumerated list of two-sided ideals with its containment table.

    Entry i of `above` is the bitmask of the listed ideals strictly
    containing ideal i.  Each product J1*J2 of listed ideals and each
    primality verdict is computed at most once per poset.
    """

    def __init__(self, algebra, ideals):
        self.algebra = algebra
        self.ideals = tuple(ideals)
        self.above = strict_upsets([i.subspace for i in self.ideals])
        self._index = {i.subspace.key(): n for n, i in enumerate(self.ideals)}
        self._products = {}
        self._prime = {}

    def product(self, a: int, b: int) -> Subspace:
        """J_a * J_b for list indices a, b."""
        found = self._products.get((a, b))
        if found is None:
            found = ideal_product(self.algebra, self.ideals[a].subspace,
                                  self.ideals[b].subspace)
            self._products[(a, b)] = found
        return found

    def minimal_outside(self, sub: Subspace):
        """Indices of the minimal listed J with J not <= sub."""
        t = self._index.get(sub.key())
        if t is None:
            inside = sum(1 << n for n, j in enumerate(self.ideals)
                         if sub.contains(j.subspace))
        else:
            inside = 1 << t
            for n, up in enumerate(self.above):
                if up >> t & 1:
                    inside |= 1 << n
        outside = (1 << len(self.ideals)) - 1 & ~inside
        return list(bits_of(minimal_bits(outside, self.above)))

    def is_prime(self, ideal: RightIdeal) -> bool:
        if not ideal.is_two_sided or not ideal.is_proper():
            return False
        sub = ideal.subspace
        found = self._prime.get(sub.key())
        if found is None:
            outside = self.minimal_outside(sub)
            found = not any(sub.contains(self.product(a, b))
                            for a in outside for b in outside)
            self._prime[sub.key()] = found
        return found

    def is_semiprime(self, ideal: RightIdeal) -> bool:
        if not ideal.is_two_sided or not ideal.is_proper():
            return False
        sub = ideal.subspace
        return not any(sub.contains(self.product(a, a))
                       for a in self.minimal_outside(sub))

    def primes(self):
        """The prime members of the list, in list order."""
        return [i for i in self.ideals if self.is_prime(i)]


def ideal_poset(algebra, two_sided) -> IdealPoset:
    """Wraps an enumerated two-sided ideal list; an IdealPoset is kept."""
    if isinstance(two_sided, IdealPoset):
        return two_sided
    return IdealPoset(algebra, two_sided)


def is_prime_ideal(algebra, ideal: RightIdeal, two_sided) -> bool:
    """Primality of a proper two-sided ideal against an enumerated ideal
    list: J1*J2 <= I implies J1 <= I or J2 <= I."""
    return ideal_poset(algebra, two_sided).is_prime(ideal)


def is_semiprime_ideal(algebra, ideal: RightIdeal, two_sided) -> bool:
    """J*J <= I implies J <= I over enumerated two-sided J, with I proper."""
    return ideal_poset(algebra, two_sided).is_semiprime(ideal)


def prime_radical(algebra, two_sided) -> Subspace:
    """Intersection of the prime two-sided ideals."""
    out = Subspace.full(algebra.field, algebra.dim)
    for ideal in ideal_poset(algebra, two_sided).primes():
        out = out.intersect(ideal.subspace)
    return out


def maximal_ideals(ideals):
    """Maximal proper members of an ideal list, by inclusion."""
    proper = [i for i in ideals if i.is_proper()]
    above = strict_upsets([i.subspace for i in proper])
    top = maximal_bits((1 << len(proper)) - 1, above)
    return [proper[n] for n in bits_of(top)]


def jacobson_radical(algebra, right_ideals) -> Subspace:
    """Intersection of the maximal right ideals."""
    out = Subspace.full(algebra.field, algebra.dim)
    for ideal in maximal_ideals(right_ideals):
        out = out.intersect(ideal.subspace)
    return out


def radical_char0(algebra) -> Subspace:
    """Radical of a finite-dimensional algebra in characteristic zero.

    Dickson's criterion: the radical is {x : tr(L_{xy}) = 0 for all y},
    with L the left-multiplication operator.  The algebra is Artinian, so
    the Jacobson and prime radicals coincide with it.  The trace form can
    degenerate in characteristic p, so this route is rejected there.
    """
    field = algebra.field
    if field.is_finite:
        raise ValueError("the trace-form radical needs characteristic zero")
    n = algebra.dim
    units = coordinate_vectors(field, n)

    def left_trace(z):
        total = field.zero
        for c, e in enumerate(units):
            total = field.add(total, algebra.multiply(z, e)[c])
        return total

    gram = [[left_trace(algebra.multiply(e_i, e_j)) for e_i in units]
            for e_j in units]
    return kernel(Matrix(field, n, n, gram))


def right_ideal_span(algebra, vectors) -> Subspace:
    """Smallest right ideal containing the coordinate vectors: their span
    closed under right multiplication by the basis of the algebra."""
    return invariant_span(algebra.field, algebra.dim, vectors,
                          multiplication_ops(algebra)[0])


def right_ideal_generated(algebra, vectors) -> RightIdeal:
    """Right ideal generated by coordinate vectors."""
    return _right_ideal(algebra, right_ideal_span(algebra, vectors))
