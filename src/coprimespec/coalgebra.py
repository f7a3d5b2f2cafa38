"""Finite-dimensional coalgebras over an exact field.

A coalgebra is stored by structure constants on a fixed basis e_0..e_{n-1}:

    delta[i][j][k] = coefficient of e_j (x) e_k in the comultiplication of e_i
    counit[i]     = counit value on e_i

Validation checks coassociativity and both counit laws entrywise and
reports every violated law with the offending basis indices, so defective
inputs produce witnesses rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import InvalidCoalgebra, InvalidMorphism
from .fields import Field
from .linalg import Matrix


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
        self.issues = list(issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, law, index, detail):
        self.issues.append(ValidationIssue(law, tuple(index), detail))

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(issue) for issue in self.issues)

    def __iter__(self):
        return iter(self.issues)


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

    __slots__ = ("field", "dim", "delta", "counit")

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

    @classmethod
    def from_triples(cls, field: Field, dim: int, triples, counit) -> "Coalgebra":
        return cls(field, dim, dense_from_triples(field, (dim, dim, dim), triples), counit)

    def triples(self):
        """Sparse (i, j, k, coeff) entries of the comultiplication, sorted."""
        return [(i, j, k, self.delta[i][j][k])
                for i in range(self.dim) for j in range(self.dim) for k in range(self.dim)
                if self.delta[i][j][k] != 0]

    def validate(self) -> ValidationReport:
        field, n, d, eps = self.field, self.dim, self.delta, self.counit
        report = ValidationReport()
        fmt = field.format_scalar
        for i in range(n):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        lhs = field.zero
                        for j in range(n):
                            if d[i][j][c] and d[j][a][b]:
                                lhs = field.add(lhs, field.mul(d[i][j][c], d[j][a][b]))
                        rhs = field.zero
                        for k in range(n):
                            if d[i][a][k] and d[k][b][c]:
                                rhs = field.add(rhs, field.mul(d[i][a][k], d[k][b][c]))
                        if lhs != rhs:
                            report.add("coassociativity", (i, a, b, c),
                                       f"coefficient of basis (x)^3 term: {fmt(lhs)} != {fmt(rhs)}")
        for i in range(n):
            for c in range(n):
                val = field.zero
                for j in range(n):
                    if d[i][j][c] and eps[j]:
                        val = field.add(val, field.mul(d[i][j][c], eps[j]))
                want = field.one if i == c else field.zero
                if val != want:
                    report.add("counit-left", (i, c),
                               f"(counit (x) id) on basis {i} has coefficient {fmt(val)} at {c}, expected {fmt(want)}")
        for i in range(n):
            for a in range(n):
                val = field.zero
                for k in range(n):
                    if d[i][a][k] and eps[k]:
                        val = field.add(val, field.mul(d[i][a][k], eps[k]))
                want = field.one if i == a else field.zero
                if val != want:
                    report.add("counit-right", (i, a),
                               f"(id (x) counit) on basis {i} has coefficient {fmt(val)} at {a}, expected {fmt(want)}")
        return report

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


def dual_algebra(c: Coalgebra) -> DualAlgebra:
    c.require_valid()
    return DualAlgebra(c)


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
        field = self.source.field
        fmt = field.format_scalar
        n, m = self.source.dim, self.target.dim
        t = self.matrix.data
        d_src, d_tgt = self.source.delta, self.target.delta
        report = ValidationReport()
        for i in range(n):
            for a in range(m):
                for b in range(m):
                    lhs = field.zero
                    for s in range(m):
                        if t[s][i] and d_tgt[s][a][b]:
                            lhs = field.add(lhs, field.mul(t[s][i], d_tgt[s][a][b]))
                    rhs = field.zero
                    for j in range(n):
                        for k in range(n):
                            coeff = d_src[i][j][k]
                            if coeff and t[a][j] and t[b][k]:
                                rhs = field.add(rhs, field.mul(coeff, field.mul(t[a][j], t[b][k])))
                    if lhs != rhs:
                        report.add("comultiplication-morphism", (i, a, b),
                                   f"{fmt(lhs)} != {fmt(rhs)}")
        for i in range(n):
            val = field.zero
            for s in range(m):
                if t[s][i] and self.target.counit[s]:
                    val = field.add(val, field.mul(t[s][i], self.target.counit[s]))
            if val != self.source.counit[i]:
                report.add("counit-morphism", (i,),
                           f"{fmt(val)} != {fmt(self.source.counit[i])}")
        return report

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

    def inverse(self) -> "CoalgebraMorphism":
        if not self.is_bijective():
            raise InvalidMorphism("morphism is not bijective")
        from .linalg import rref
        n = self.source.dim
        field = self.source.field
        aug = Matrix(field, n, 2 * n,
                     [tuple(self.matrix.data[i]) + tuple(Matrix.identity(field, n).data[i])
                      for i in range(n)])
        reduced, rank = rref(aug)
        inv_rows = [row[n:] for row in reduced.data]
        return CoalgebraMorphism(self.target, self.source, Matrix(field, n, n, inv_rows))

    def compose(self, other: "CoalgebraMorphism") -> "CoalgebraMorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise InvalidMorphism("composition mismatch")
        return CoalgebraMorphism(other.source, self.target, self.matrix @ other.matrix)


def identity_morphism(c: Coalgebra) -> CoalgebraMorphism:
    return CoalgebraMorphism(c, c, Matrix.identity(c.field, c.dim))
