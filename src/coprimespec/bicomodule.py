"""Bicomodules over a pair of coalgebras, with their rational dual actions.

A (D, C)-bicomodule M carries a left D-coaction and a right C-coaction:

    rho_right[i][j][k] = coefficient of e_j (x) c_k in the right coaction of e_i
    rho_left[i][j][k]  = coefficient of d_j (x) e_k in the left coaction of e_i

Dual vectors act rationally: f in C^* acts by f -> m = sum m_(0) f(m_(1)),
g in D^* by m <- g = sum g(m_(-1)) m_(0).  On the fixed basis these are the
operator matrices right_ops()/left_ops(); a subspace is a subbicomodule
exactly when it is stable under all of them, which is the workhorse test.
"""

from __future__ import annotations

from .coalgebra import (Coalgebra, DualAlgebra, ValidationReport, at_entry,
                        check_laws, coaction_operators, counit_law,
                        dense_from_triples, right_coassociativity, unequal)
from .exceptions import (AmbientMismatch, CoalgebraMismatch, InvalidBicomodule,
                         NotSubbicomodule)
from .linalg import (Matrix, Subspace, combination, independent_matrices,
                     induced_columns, is_stable)


class Bicomodule:
    """Finite-dimensional (left, right)-bicomodule by coaction tensors."""

    __slots__ = ("left", "right", "field", "dim", "rho_left", "rho_right",
                 "regular_of", "_right_ops", "_left_ops", "_op_basis")

    def __init__(self, left: Coalgebra, right: Coalgebra, dim: int,
                 rho_left, rho_right, regular_of: Coalgebra | None = None):
        if left.field != right.field:
            raise CoalgebraMismatch("coalgebras live over different fields")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        field = left.field
        self.left = left
        self.right = right
        self.field = field
        self.dim = dim
        self.rho_left = tuple(tuple(tuple(field.coerce(x) for x in row) for row in plane)
                              for plane in rho_left)
        self.rho_right = tuple(tuple(tuple(field.coerce(x) for x in row) for row in plane)
                               for plane in rho_right)
        if len(self.rho_right) != dim or any(len(p) != dim for p in self.rho_right) \
                or any(len(r) != right.dim for p in self.rho_right for r in p):
            raise ValueError("right coaction tensor shape mismatch")
        if len(self.rho_left) != dim or any(len(p) != left.dim for p in self.rho_left) \
                or any(len(r) != dim for p in self.rho_left for r in p):
            raise ValueError("left coaction tensor shape mismatch")
        self.regular_of = regular_of
        self._right_ops = None
        self._left_ops = None
        self._op_basis = None

    @classmethod
    def from_triples(cls, left, right, dim, left_triples, right_triples,
                     regular_of=None) -> "Bicomodule":
        field = left.field
        rl = dense_from_triples(field, (dim, left.dim, dim), left_triples)
        rr = dense_from_triples(field, (dim, dim, right.dim), right_triples)
        return cls(left, right, dim, rl, rr, regular_of=regular_of)

    def left_triples(self):
        return [(i, j, k, self.rho_left[i][j][k])
                for i in range(self.dim) for j in range(self.left.dim) for k in range(self.dim)
                if self.rho_left[i][j][k] != 0]

    def right_triples(self):
        return [(i, j, k, self.rho_right[i][j][k])
                for i in range(self.dim) for j in range(self.dim) for k in range(self.right.dim)
                if self.rho_right[i][j][k] != 0]

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The coaction laws as identities of R_k = right_ops()[k] and
        L_j = left_ops()[j]: right coassociativity and counit of R over the
        right coalgebra; L_b L_a = sum_j delta[j][a][b] L_j, keyed (a, b)
        with entry (c, i) the law at (i, a, b, c), and the counit of L over
        the left coalgebra; L_a R_k = R_k L_a, keyed (a, k) with entry (b, i)
        the law at (i, a, b, k)."""
        field, n = self.field, self.dim
        r_ops, l_ops = self.right_ops(), self.left_ops()
        nd, dd = self.left.dim, self.left.delta
        return check_laws(field, [
            ("right-coassociativity", at_entry, unequal,
             right_coassociativity(field, r_ops, self.right.delta)),
            ("right-counit", at_entry, unequal,
             counit_law(field, r_ops, self.right.counit)),
            ("left-coassociativity", lambda c, i, key: (i,) + key + (c,), unequal,
             (((a, b), combination(field, n, [dd[j][a][b] for j in range(nd)], l_ops),
               l_ops[b] @ l_ops[a]) for a in range(nd) for b in range(nd))),
            ("left-counit", at_entry, unequal,
             counit_law(field, l_ops, self.left.counit)),
            ("coaction-compatibility", lambda b, i, key: (i, key[0], b, key[1]), unequal,
             (((a, k), l_op @ r_op, r_op @ l_op)
              for a, l_op in enumerate(l_ops) for k, r_op in enumerate(r_ops)))])

    def require_valid(self):
        for side, coalg in (("left", self.left), ("right", self.right)):
            rep = coalg.validate()
            if not rep.ok:
                raise InvalidBicomodule(f"{side} coalgebra invalid: {rep}")
        report = self.validate()
        if not report.ok:
            raise InvalidBicomodule(str(report))
        return self

    # -- dual actions -----------------------------------------------------------

    def right_ops(self):
        """Operator matrices of the right-coalgebra dual basis acting by f -> m."""
        if self._right_ops is None:
            self._right_ops = coaction_operators(self.field, self.dim, self.rho_right)
        return self._right_ops

    def left_ops(self):
        """Operator matrices of the left-coalgebra dual basis acting by m <- g."""
        if self._left_ops is None:
            self._left_ops = coaction_operators(self.field, self.dim, self.rho_left,
                                                left=True)
        return self._left_ops

    def all_ops(self):
        return self.right_ops() + self.left_ops()

    def op_basis(self):
        """The operators of `all_ops()` outside the span of those before
        them, a basis of their span; F2 only, built on first use."""
        if self._op_basis is None:
            self._op_basis = independent_matrices(self.all_ops())
        return self._op_basis

    def __eq__(self, other):
        return (isinstance(other, Bicomodule) and self.left == other.left
                and self.right == other.right and self.dim == other.dim
                and self.rho_left == other.rho_left and self.rho_right == other.rho_right)

    def __hash__(self):
        return hash((self.left, self.right, self.dim, self.rho_left, self.rho_right))

    def __repr__(self):
        kind = "regular " if self.regular_of is not None else ""
        return f"Bicomodule({kind}{self.field.name}, dim={self.dim})"


def regular_bicomodule(c: Coalgebra) -> Bicomodule:
    """C as a (C, C)-bicomodule with both coactions the comultiplication."""
    c.require_valid()
    return Bicomodule(c, c, c.dim, c.delta, c.delta, regular_of=c)


def is_subbicomodule(m: Bicomodule, sub: Subspace) -> bool:
    """Stability of a subspace under every dual action operator."""
    if sub.ambient != m.dim or sub.field != m.field:
        raise AmbientMismatch("subspace does not live in the bicomodule")
    return is_stable(sub, m.all_ops())


def restrict(m: Bicomodule, sub: Subspace):
    """Subbicomodule structure on a coaction-stable subspace.

    The images of sub's basis under the operators are computed once
    (`linalg.induced_columns`): they decide stability (NotSubbicomodule
    otherwise) and give the induced coactions.  Returns (bicomodule on sub
    in basis coordinates, embed matrix) where embed maps sub coordinates
    back into the ambient space.
    """
    if sub.ambient != m.dim or sub.field != m.field:
        raise AmbientMismatch("subspace does not live in the bicomodule")
    r_ops, l_ops = m.right_ops(), m.left_ops()
    columns = induced_columns(sub, r_ops + l_ops)
    if columns is None:
        raise NotSubbicomodule("subspace is not stable under the coactions")
    if sub.is_zero():
        raise ValueError("cannot restrict to the zero subspace")
    field = m.field
    s = sub.dim
    rho_right = [[[field.zero] * m.right.dim for _ in range(s)] for _ in range(s)]
    rho_left = [[[field.zero] * s for _ in range(m.left.dim)] for _ in range(s)]
    for k, op_columns in enumerate(columns[:len(r_ops)]):
        for t, coords in enumerate(op_columns):
            for j, x in enumerate(coords):
                rho_right[t][j][k] = x
    for j, op_columns in enumerate(columns[len(r_ops):]):
        for t, coords in enumerate(op_columns):
            for k, x in enumerate(coords):
                rho_left[t][j][k] = x
    restricted = Bicomodule(m.left, m.right, s, rho_left, rho_right)
    embed = sub.matrix().transpose()
    return restricted, embed


def quotient(m: Bicomodule, sub: Subspace):
    """Quotient bicomodule M/sub with induced coactions.

    Returns (quotient bicomodule, projection matrix).  Coset representatives
    are the standard basis vectors at the non-pivot columns of sub's basis.
    """
    if not is_subbicomodule(m, sub):
        raise NotSubbicomodule("subspace is not stable under the coactions")
    if sub.is_full():
        raise ValueError("quotient by the full space is zero-dimensional")
    field, n = m.field, m.dim
    free = [j for j in range(n) if j not in set(sub.pivots)]
    q = len(free)
    proj_cols = []
    for b in range(n):
        e_b = tuple(field.one if i == b else field.zero for i in range(n))
        reduced = sub.reduce_vector(e_b)
        proj_cols.append([reduced[t] for t in free])
    proj = Matrix(field, q, n, [[proj_cols[b][t] for b in range(n)] for t in range(q)])
    r_ops, l_ops = m.right_ops(), m.left_ops()
    rho_right = [[[field.zero] * m.right.dim for _ in range(q)] for _ in range(q)]
    rho_left = [[[field.zero] * q for _ in range(m.left.dim)] for _ in range(q)]
    for t, b in enumerate(free):
        e_b = tuple(field.one if i == b else field.zero for i in range(n))
        for k, op in enumerate(r_ops):
            w = proj.apply(op.apply(e_b))
            for u, x in enumerate(w):
                rho_right[t][u][k] = x
        for j, op in enumerate(l_ops):
            w = proj.apply(op.apply(e_b))
            for u, x in enumerate(w):
                rho_left[t][j][u] = x
    quot = Bicomodule(m.left, m.right, q, rho_left, rho_right)
    return quot, proj


class Centralizer:
    """Dual vectors whose left and right rational actions agree everywhere."""

    __slots__ = ("bicomodule", "subspace", "dual")

    def __init__(self, bicomodule: Bicomodule, subspace: Subspace):
        self.bicomodule = bicomodule
        self.subspace = subspace
        self.dual = DualAlgebra(bicomodule.right)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis(self):
        return self.subspace.basis

    def contains_counit(self) -> bool:
        return self.subspace.contains_vector(self.bicomodule.right.counit)

    def closed_under_convolution(self) -> bool:
        for f in self.subspace.basis:
            for g in self.subspace.basis:
                if not self.subspace.contains_vector(self.dual.multiply(f, g)):
                    return False
        return True


def centralizer(m: Bicomodule) -> Centralizer:
    """Solve f -> v = v <- f for all v; needs matching coalgebras on both sides."""
    if m.left != m.right:
        raise CoalgebraMismatch("centralizer needs the same coalgebra on both sides")
    from .linalg import kernel
    field, n, nc = m.field, m.dim, m.right.dim
    r_ops, l_ops = m.right_ops(), m.left_ops()
    rows = []
    for i in range(n):
        for a in range(n):
            rows.append([field.sub(r_ops[k].data[a][i], l_ops[k].data[a][i])
                         for k in range(nc)])
    sol = kernel(Matrix(field, len(rows), nc, rows))
    return Centralizer(m, sol)


def phi_matrix(m: Bicomodule, f) -> Matrix:
    """The endomorphism v -> (f -> v) of a centralizer element f."""
    return combination(m.field, m.dim, f, m.right_ops())
