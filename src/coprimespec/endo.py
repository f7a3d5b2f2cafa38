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

The right ideals are read as one family indexed like a subbicomodule
lattice (a `lattice.Lattice` over the enumerated list): its fully
invariant members are the two-sided ideals, since End(E_E) is E acting by
left multiplication, and `prime_masks` and the radicals read its
containment table.  Primality and semiprimality of a two-sided ideal I are
tested only on the minimal two-sided J with J not <= I, which is
equivalent by monotonicity: J1 <= J1' gives J1*J2 <= J1'*J2, and likewise
in the second factor, so a pair J1, J2 outside I with J1*J2 <= I stays
such a pair when each factor is lowered to a minimal ideal outside I below
it.  A product of two-sided ideals is a two-sided ideal, so it is a member
of the family and J1*J2 <= I is a lookup in the table.
"""

from __future__ import annotations

from functools import lru_cache

from .bicomodule import Bicomodule, quotient, restrict
from .exceptions import AmbientMismatch, CoalgebraMismatch, UnsupportedOverQ
from .linalg import (Matrix, Subspace, annihilator, bits_of,
                     check_subspace_budget, combined_maps, image_span, interleave,
                     intertwining_maps, invariant_span, is_stable,
                     joint_preimage, kernel, maximal_bits, minimal_bits,
                     product_span, quotient_embeds, sub_hom_dim, sum_closure)
# Unused here; kept because perfbench/tracing.py patches it in this module.
from .linalg import enumerate_subspaces


def intertwiners(src: Bicomodule, tgt: Bicomodule):
    """Basis of bicolinear maps src -> tgt over the same coalgebra pair."""
    if src.left != tgt.left or src.right != tgt.right:
        raise CoalgebraMismatch("intertwiners need matching coalgebras")
    return intertwining_maps(src.field, list(zip(src.all_ops(), tgt.all_ops())),
                             src.dim, tgt.dim)


def hom_dim(m: Bicomodule, k: Subspace) -> int:
    """dim Hom(K, M) for a nonzero subbicomodule K of M; NotSubbicomodule
    when K is not stable under the coactions.  Over F2 the operators are
    `m.op_basis()`: the equations g op|_K = op g of a sum of operators are
    the sums of their equations, so the others add no rank."""
    if m.field.p != 2:
        return len(intertwiners(restrict(m, k)[0], m))
    return sub_hom_dim(k, m.op_basis())


def quotient_cogenerated(m: Bicomodule, k: Subspace) -> bool:
    """Whether M/K is cogenerated by M, i.e. embeds into a product of copies
    of M: the kernels of the bicolinear maps M/K -> M meet in zero.  M/M is
    zero and counts as cogenerated; NotSubbicomodule when K is not stable
    under the coactions.  Over F2 the operators are `m.op_basis()`, as in
    `hom_dim`."""
    if k.is_full():
        return True
    if m.field.p != 2:
        q, _ = quotient(m, k)
        maps = intertwiners(q, m)
        return bool(maps) and kernel(Matrix.stack(maps)).is_zero()
    return quotient_embeds(k, m.op_basis())


class EndoAlgebra:
    """Ring of bicolinear endomorphisms with opposite-composition product."""

    __slots__ = ("bicomodule", "field", "basis", "dim", "flat", "unit_coords", "_table",
                 "_mult_ops", "_stack")

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
        self._stack = None

    @classmethod
    def compute(cls, m: Bicomodule) -> "EndoAlgebra":
        return cls(m, intertwiners(m, m))

    def coords_of(self, mat: Matrix):
        """Coordinates of a bicolinear matrix in the stored basis."""
        return self.flat.coords_of(mat.flatten())

    def contains_matrix(self, mat: Matrix) -> bool:
        return self.flat.contains_vector(mat.flatten())

    def stacked_basis(self):
        """Over F2 the basis maps interleaved into one matrix
        (`linalg.interleave`), which `annihilator` reads, built on first use;
        None over other fields."""
        if self._stack is None and self.field.p == 2:
            self._stack = interleave(self.basis)
        return self._stack

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


class RightIdeal:
    """Subspace of an algebra with its closure flags.

    `is_right` and `is_two_sided` are computed on first read, each by one
    `_closed` test of a side, and kept; an annihilator is built without
    either test.  A right ideal known by construction (an enumerated or a
    generated one) is built with `is_right` set, and only its left side is
    tested, when `is_two_sided` is first read.  `irreducible` is True for
    the join-irreducible members of the right-ideal lattice, as
    `enumerate_ideals` marks them, and False for any other ideal.
    """

    __slots__ = ("algebra", "subspace", "irreducible", "_right", "_two_sided")

    def __init__(self, algebra, subspace: Subspace, is_right: bool | None = None,
                 irreducible: bool = False):
        self.algebra = algebra
        self.subspace = subspace
        self.irreducible = irreducible
        self._right = is_right
        self._two_sided = None

    @property
    def is_right(self) -> bool:
        if self._right is None:
            self._right = _closed(self.algebra, self.subspace, left=False)
        return self._right

    @property
    def is_two_sided(self) -> bool:
        if self._two_sided is None:
            self._two_sided = self.is_right and _closed(self.algebra, self.subspace,
                                                        left=True)
        return self._two_sided

    @property
    def dim(self):
        return self.subspace.dim


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


def two_sided_span(algebra, sub: Subspace) -> Subspace:
    """E.I for a right ideal I: the span of e_b * x over the basis e_b of
    the algebra and the basis rows x of I, the two-sided ideal EIE."""
    return image_span(sub, multiplication_ops(algebra)[1])


def an(sub: Subspace, endo: EndoAlgebra) -> RightIdeal:
    """Annihilator {f : f(sub) = 0} as a right ideal of the endomorphism ring."""
    if sub.ambient != endo.bicomodule.dim:
        raise AmbientMismatch("subspace does not live in the bicomodule")
    return RightIdeal(endo, annihilator(sub, endo.basis, endo.stacked_basis()))


def ke(ideal, endo: EndoAlgebra) -> Subspace:
    """Joint kernel of an ideal (or plain coordinate subspace) of endomorphisms."""
    sub = ideal.subspace if isinstance(ideal, RightIdeal) else ideal
    return joint_preimage(combined_maps(sub, endo.basis),
                          Subspace.zero(endo.field, endo.bicomodule.dim))


def ideal_product(algebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of pairwise products; the ideal product for two-sided operands."""
    if algebra.field.p != 2:
        vectors = [algebra.multiply(x, y) for x in a.basis for y in b.basis]
        return Subspace.from_vectors(algebra.field, algebra.dim, vectors)
    return product_span(a, b, multiplication_ops(algebra)[0])


def enumerate_ideals(algebra, budget: int = 50000):
    """All right ideals of a finite algebra, canonically sorted.

    A right ideal is the sum of the cyclic right ideals of its elements, so
    the right ideals are the sum-closure of `right_ideal_span` of every
    vector (`linalg.sum_closure`), which marks the join-irreducible ones
    (`RightIdeal.irreducible`); only the left flag is tested on each, when
    it is first read.
    Raises UnsupportedOverQ over the rationals and BudgetExceeded, before
    any work, when the subspace count of the coordinate space exceeds the
    budget.
    """
    field = algebra.field
    if field.p is None:
        raise UnsupportedOverQ("ideal enumeration needs a finite field")
    check_subspace_budget(field, algebra.dim, budget)
    subspaces, irreducible = sum_closure(
        field, algebra.dim, lambda x: right_ideal_span(algebra, [x]))
    found = [RightIdeal(algebra, sub, is_right=True,
                        irreducible=sub.key() in irreducible) for sub in subspaces]
    found.sort(key=lambda ideal: ideal.subspace.sort_key())
    return found


def prime_masks(algebra, family):
    """The prime and the semiprime ideals of `algebra`, as a pair of
    bitmasks over a family of its right ideals.

    `family` is a `lattice.Lattice` over every right ideal of `algebra`,
    whose fully invariant members are the two-sided ones; its top is the
    algebra, the one member that is not proper.  Each product J1*J2 of
    members is found in the family once per index pair.
    """
    fi, above, below = family.fi_bits, family.above, family.below
    products = {}

    def inside(a: int, b: int, i: int) -> bool:
        found = products.get((a, b))
        if found is None:
            found = products[(a, b)] = family.index_of(ideal_product(
                algebra, family.elements[a], family.elements[b]))
        return family.le(found, i)

    prime = semiprime = 0
    for i in bits_of(fi & ~(1 << len(family) - 1)):
        outside = list(bits_of(minimal_bits(fi & ~(below[i] | 1 << i), above)))
        if any(inside(a, a, i) for a in outside):
            continue
        semiprime |= 1 << i
        if not any(inside(a, b, i) for a in outside for b in outside):
            prime |= 1 << i
    return prime, semiprime


def prime_radical(family, primes: int) -> Subspace:
    """Intersection of the prime ideals masked by `primes` in a right-ideal
    family (`prime_masks`)."""
    return family.elements[family.meet(primes)]


def jacobson_radical(family) -> Subspace:
    """Intersection of the maximal right ideals: the maximal members of a
    right-ideal family below its top."""
    proper = (1 << len(family) - 1) - 1
    return family.elements[family.meet(maximal_bits(proper, family.above))]


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
    return RightIdeal(algebra, right_ideal_span(algebra, vectors), is_right=True)
