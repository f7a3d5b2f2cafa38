"""Finite-dimensional coalgebras over an exact field.

A coalgebra is stored by structure constants on a fixed basis e_0..e_{n-1}:

    delta[i][j][k] = coefficient of e_j (x) e_k in the comultiplication of e_i
    counit[i]     = counit value on e_i

The laws are checked as identities of the rational dual-action operators
(`coaction_operators`; a comodule is a rational module of the dual), and
every violated law is reported with the offending basis indices, so
defective inputs produce witnesses rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InvalidCoalgebra, InvalidMorphism
from .fields import Field
from .linalg import Matrix, combination


@dataclass(frozen=True)
class ValidationIssue:
    law: str
    index: tuple
    detail: str

    def __str__(self):
        return f"{self.law} fails at {self.index}: {self.detail}"


class ValidationReport:
    """Collection of law violations; empty means valid."""

    def __init__(self, issues=()):
        self.issues = tuple(issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)

    def __iter__(self):
        return iter(self.issues)


def coaction_operators(field: Field, n: int, rho, left: bool = False):
    """The operators on F^n of the dual basis of a coaction tensor rho:
    R_k[j][i] = rho[i][j][k] for a right coaction, L_j[k][i] = rho[i][j][k]
    for a left one.  They are the rational dual actions f -> m and m <- g."""
    planes = rho if left else [tuple(zip(*plane)) for plane in rho]
    return tuple(Matrix(field, n, n, zip(*(plane[x] for plane in planes)))
                 for x in range(len(planes[0])))


def check_laws(field: Field, laws) -> ValidationReport:
    """The report of a list of operator identities lhs = rhs.

    Each law is (name, witness, detail, cases) in report order; each case
    is (key, lhs, rhs) with matrices of one shape.  Every entry (r, i) where
    lhs and rhs differ is one issue at index witness(r, i, key), whose text
    is detail(index, lhs entry, rhs entry) on the formatted entries.  Issues
    are sorted by index within each law."""
    fmt, issues = field.format_scalar, []
    for law, witness, detail, cases in laws:
        found = []
        for key, lhs, rhs in cases:
            if lhs.data != rhs.data:
                for r, (lrow, rrow) in enumerate(zip(lhs.data, rhs.data)):
                    for i, (x, y) in enumerate(zip(lrow, rrow)):
                        if x != y:
                            index = witness(r, i, key)
                            found.append((index, detail(index, fmt(x), fmt(y))))
        found.sort(key=lambda issue: issue[0])
        issues += [ValidationIssue(law, index, text) for index, text in found]
    return ValidationReport(issues)


def unequal(index, x, y):
    return f"{x} != {y}"


def at_entry(r, i, key):
    """The witness of entry (r, i) in the case with key: the entrywise law
    at (i, r) + key."""
    return (i, r) + key


def right_coassociativity(field: Field, ops, delta):
    """The cases of R_b R_c = sum_k delta[k][b][c] R_k, keyed (b, c)."""
    n, count = ops[0].rows, len(ops)
    return (((b, c), ops[b] @ ops[c],
             combination(field, n, [delta[k][b][c] for k in range(count)], ops))
            for b in range(count) for c in range(count))


def counit_law(field: Field, ops, counit):
    """The case of sum_k counit[k] X_k = I."""
    n = ops[0].rows
    return [((), combination(field, n, counit, ops), Matrix.identity(field, n))]


def dense_from_triples(field: Field, shape, triples):
    """The (a, b, c)-shaped tensor summing coeff into [i][j][k] for each
    triple (i, j, k, coeff); ValueError unless each index is an in-range int."""
    a, b, c = shape
    dense = [[[field.zero] * c for _ in range(b)] for _ in range(a)]
    for i, j, k, coeff in triples:
        if not (type(i) is int and type(j) is int and type(k) is int
                and 0 <= i < a and 0 <= j < b and 0 <= k < c):
            raise ValueError(f"triple index ({i!r},{j!r},{k!r}) is not an "
                             f"integer index into shape {a}x{b}x{c}")
        dense[i][j][k] = field.add(dense[i][j][k], field.coerce(coeff))
    return dense


class Coalgebra:
    """Coalgebra by structure constants; validation is report-based."""

    __slots__ = ("field", "dim", "delta", "counit", "_report")

    def __init__(self, field: Field, dim: int, delta, counit):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.field = field
        self.dim = dim
        self.delta = tuple(tuple(tuple(field.coerce(x) for x in row) for row in plane)
                           for plane in delta)
        self.counit = tuple(field.coerce(x) for x in counit)
        if len(self.delta) != dim or any(len(p) != dim for p in self.delta) \
                or any(len(r) != dim for p in self.delta for r in p):
            raise ValueError("comultiplication tensor shape mismatch")
        if len(self.counit) != dim:
            raise ValueError("counit length mismatch")
        self._report = None

    @classmethod
    def from_triples(cls, field: Field, dim: int, triples, counit) -> "Coalgebra":
        return cls(field, dim, dense_from_triples(field, (dim, dim, dim), triples), counit)

    def triples(self):
        """Sparse (i, j, k, coeff) entries of the comultiplication, sorted."""
        return [(i, j, k, self.delta[i][j][k])
                for i in range(self.dim) for j in range(self.dim) for k in range(self.dim)
                if self.delta[i][j][k] != 0]

    def validate(self) -> ValidationReport:
        """The laws of the regular bicomodule C, computed on first use: its
        right coassociativity as `coassociativity`, and its left and right
        counit laws as `counit-left` and `counit-right`."""
        if self._report is None:
            self._report = self._laws()
        return self._report

    def _laws(self) -> ValidationReport:
        field, n = self.field, self.dim
        right = coaction_operators(field, n, self.delta)
        left = coaction_operators(field, n, self.delta, left=True)
        return check_laws(field, [
            ("coassociativity", at_entry,
             lambda index, x, y: f"coefficient of basis (x)^3 term: {x} != {y}",
             right_coassociativity(field, right, self.delta)),
            ("counit-left", at_entry,
             lambda index, x, y: f"(counit (x) id) on basis {index[0]} has "
                                 f"coefficient {x} at {index[1]}, expected {y}",
             counit_law(field, left, self.counit)),
            ("counit-right", at_entry,
             lambda index, x, y: f"(id (x) counit) on basis {index[0]} has "
                                 f"coefficient {x} at {index[1]}, expected {y}",
             counit_law(field, right, self.counit))])

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidCoalgebra(str(report))
        return self

    def __eq__(self, other):
        return (isinstance(other, Coalgebra) and self.field == other.field
                and self.dim == other.dim and self.delta == other.delta
                and self.counit == other.counit)

    def __hash__(self):
        return hash((self.field, self.dim, self.delta, self.counit))

    def __repr__(self):
        return f"Coalgebra({self.field.name}, dim={self.dim})"


class DualAlgebra:
    """Convolution algebra on the dual basis of a coalgebra.

    The product is (f * g)(c) = sum f(c_(1)) g(c_(2)); over a field the
    left and right convolution products on the dual coincide.  The unit
    is the counit.
    """

    __slots__ = ("coalgebra", "field", "dim", "unit", "_mult_ops")

    def __init__(self, coalgebra: Coalgebra):
        self.coalgebra = coalgebra
        self.field = coalgebra.field
        self.dim = coalgebra.dim
        self.unit = coalgebra.counit
        self._mult_ops = None  # filled by endo.multiplication_ops

    @property
    def unit_coords(self):
        return self.unit

    def multiply(self, f, g):
        """Convolution product of dual vectors given by coordinates."""
        field, n, d = self.field, self.dim, self.coalgebra.delta
        out = []
        for i in range(n):
            acc = field.zero
            plane = d[i]
            for a, fa in enumerate(f):
                if fa:
                    row = plane[a]
                    for b, gb in enumerate(g):
                        if gb and row[b]:
                            acc = field.add(acc, field.mul(row[b], field.mul(fa, gb)))
            out.append(acc)
        return tuple(out)


class CoalgebraMorphism:
    """Linear map between coalgebras, stored column-wise on source basis."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Coalgebra, target: Coalgebra, matrix: Matrix):
        if source.field != target.field:
            raise InvalidMorphism("source and target fields differ")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise InvalidMorphism(
                f"matrix shape {matrix.rows}x{matrix.cols} does not map dim {source.dim} to dim {target.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_rows(cls, source, target, rows):
        return cls(source, target, Matrix.from_rows(source.field, rows))

    def validate(self) -> ValidationReport:
        """theta is comultiplicative when R'_b theta = theta sum_k theta[b][k]
        R_k for each b, with R and R' the right operators of the source and
        the target (entry (a, i) is the entrywise law at (i, a, b)), and
        counital when counit' theta = counit (entry (0, i) is the law at i)."""
        field, theta = self.source.field, self.matrix
        ops = coaction_operators(field, self.source.dim, self.source.delta)
        targets = coaction_operators(field, self.target.dim, self.target.delta)
        counit = lambda c: Matrix(field, 1, c.dim, [c.counit])
        return check_laws(field, [
            ("comultiplication-morphism", at_entry, unequal,
             (((b,), op @ theta,
               theta @ combination(field, self.source.dim, theta.data[b], ops))
              for b, op in enumerate(targets))),
            ("counit-morphism", lambda r, i, key: (i,), unequal,
             [((), counit(self.target) @ theta, counit(self.source))])])

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidMorphism(str(report))
        return self

    def is_injective(self) -> bool:
        from .linalg import kernel
        return kernel(self.matrix).is_zero()

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()

def identity_morphism(c: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.field, c.dim))
