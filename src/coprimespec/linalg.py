"""Exact dense linear algebra with canonical subspace representatives.

Vectors are tuples of field elements.  A matrix acts on column vectors,
so composition of linear maps is the matrix product in the same order.
Subspaces are stored as reduced row-echelon bases with zero rows removed;
two Subspace values are equal iff their stored bases are identical, which
makes RREF the equality oracle for the whole package.

Over F2 the kernels run on rows packed into Python ints (bit i is entry i):
RREF and kernels, `Matrix.apply` and `@`, membership, sums, the
invariant-span closure and the stability test.  The packed format is
private to this module.  Every linear system of the package is solved
here, over Matrix and Subspace values, with its packed body beside its
tuple body: intertwiners, annihilators, joint preimages (kernels of ideals
and internal coproducts), the operators induced on a subspace and the
coordinates of subspaces in a basis.  Hom dimensions, quotient
cogeneration, ideal products and operator bases have a packed body only:
they serve the F2 routes of `endo`, which takes another route over other
fields.  The coordinates of a member of a packed RREF row space in its
basis are its bits at the pivots (`f2_bits_at`).  The annihilator
equations of a basis row v are the fields of one packed image S v, S the
operators interleaved row by row (`interleave`), which the owner of the
operator family builds once.  Each Matrix (columns and rows) and Subspace
packs on first use and keeps the ints in a slot; tuples stay the
representation at every API boundary.  The reduced row-echelon form of a
row space is unique, so the packed and the tuple arithmetic return
identical bases and pivots, and `sum_closure` deduplicates its sums on
their packed rows, building a Subspace only for a new one.  Other fields
use the tuple arithmetic throughout.
"""

from __future__ import annotations

from itertools import combinations, product

from .exceptions import AmbientMismatch, BudgetExceeded, NotSubbicomodule
from .fields import Field


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise AmbientMismatch(f"field mismatch: {a.name} vs {b.name}")


# -- packed F2 rows ------------------------------------------------------------

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pack(vec) -> int:
    """An F2 vector (a sequence of 0s and 1s) as an int whose bit i is
    entry i: the entries, last first, read as binary digits."""
    return int(bytes(vec[::-1]).translate(_BINARY_DIGITS) or b"0", 2)


def _unpack(bits: int, n: int):
    return tuple([(bits >> i) & 1 for i in range(n)])


def f2_reduce(bits: int, pivots, rows) -> int:
    """bits modulo packed reduced echelon rows with the given pivots: each
    row is zero at every other pivot, so one pass clears every pivot."""
    for c, row in zip(pivots, rows):
        if bits >> c & 1:
            bits ^= row
    return bits


def _f2_rref(rows):
    """(pivots, rows): the packed reduced echelon basis of the span of
    packed rows, ordered by pivot.

    Forward, each row is reduced against a table {pivot bit: row} only at
    the pivot bits it holds, and a nonzero remainder adds its lowest bit as
    a new pivot.  Every table row is then zero at the pivots that were
    known when it was added and has no bit below its own pivot.  Back
    substitution runs from the highest pivot down: a row holds no pivot
    below its own, and the rows of the higher pivots it holds are already
    reduced (zero at every other pivot), so XOR-ing each of them in once
    clears them all.  The reduced echelon form of a row space is unique.
    """
    table, mask = {}, 0
    for r in rows:
        m = r & mask
        while m:
            r ^= table[m & -m]
            m = r & mask
        if r:
            table[r & -r] = r
            mask |= r & -r
    keys = sorted(table, reverse=True)
    for low in keys:
        row = table[low]
        m = row & mask ^ low
        while m:
            high = m & -m
            row ^= table[high]
            m ^= high
        table[low] = row
    keys.reverse()
    return [k.bit_length() - 1 for k in keys], [table[k] for k in keys]


def _f2_subspace(field: Field, ambient: int, pivots, rows) -> "Subspace":
    """The Subspace of packed reduced echelon rows with the given pivots."""
    sub = Subspace(field, ambient, [_unpack(r, ambient) for r in rows], pivots)
    sub._f2 = tuple(rows)
    return sub


def f2_span(field: Field, ambient: int, rows) -> "Subspace":
    """The span of packed rows."""
    return _f2_subspace(field, ambient, *_f2_rref(rows))


def f2_image(columns, bits: int) -> int:
    """The image of a packed vector under a map given by its packed
    columns: the XOR of the columns at the set bits of the vector."""
    u = 0
    for i, c in enumerate(columns):
        if bits >> i & 1:
            u ^= c
    return u


def f2_bits_at(bits: int, positions) -> int:
    """The bits of a packed vector at the given positions, packed in their
    order: bit j is bit positions[j].

    Read at the pivots of packed reduced echelon rows, these are the
    coordinates of a member of their span in those rows, since row j is
    the only one with a 1 at pivot j.  Read at the other (free) columns
    after reducing by the rows, they are the image of the vector in the
    quotient by the span, in the basis of the free unit vectors."""
    return sum(1 << j for j, c in enumerate(positions) if bits >> c & 1)


def f2_null_rows(n: int, rows):
    """A basis of the null space in F2^n of packed rows, packed.  In their
    reduced echelon form, free column f gives e_f plus e_c for each pivot
    row with a 1 at f."""
    pivots, rows = _f2_rref(rows)
    return [1 << f | sum(1 << c for c, row in zip(pivots, rows) if row >> f & 1)
            for f in range(n) if f not in pivots]


def f2_kernel(field: Field, n: int, rows) -> "Subspace":
    """The null space in F2^n of packed rows, as a Subspace."""
    return f2_span(field, n, f2_null_rows(n, rows))


def f2_independent(rows):
    """Positions of the packed rows outside the span of the rows before
    them: each is reduced against an echelon table {lowest bit: row} and
    kept when nonzero."""
    table, mask, kept = {}, 0, []
    for n, u in enumerate(rows):
        m = u & mask
        while m:
            u ^= table[m & -m]
            m = u & mask
        if u:
            table[u & -u] = u
            mask |= u & -u
            kept.append(n)
    return kept


def f2_rank(rows) -> int:
    """The rank of packed rows."""
    return len(f2_independent(rows))


class Matrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data", "_f2", "_f2_rows")

    def __init__(self, field: Field, rows: int, cols: int, data):
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"data shape does not match {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._f2 = None
        self._f2_rows = None

    def packed_columns(self):
        """The columns packed into ints; F2 only, built on first use."""
        if self._f2 is None:
            self._f2 = tuple(_pack(self.column(j)) for j in range(self.cols))
        return self._f2

    def packed_rows(self):
        """The rows packed into ints; F2 only, built on first use."""
        if self._f2_rows is None:
            self._f2_rows = tuple(_pack(row) for row in self.data)
        return self._f2_rows

    @classmethod
    def from_rows(cls, field: Field, data) -> "Matrix":
        data = [[field.coerce(x) for x in row] for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(field, rows, cols, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def stack(cls, mats) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise ValueError("cannot stack zero matrices")
        field, cols = mats[0].field, mats[0].cols
        for m in mats[1:]:
            _check_same_field(field, m.field)
            if m.cols != cols:
                raise AmbientMismatch("stack needs equal column counts")
        data = [row for m in mats for row in m.data]
        return cls(field, len(data), cols, data)

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self.column(j) for j in range(self.cols)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise AmbientMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        p = f.p
        if p == 2:
            cols = self.packed_columns()
            out = [f2_image(cols, b) for b in other.packed_columns()]
            return Matrix(f, self.rows, other.cols,
                          [[(u >> i) & 1 for u in out] for i in range(self.rows)])
        ocols = other.cols
        odata = other.data
        out = []
        for arow in self.data:
            new = []
            for j in range(ocols):
                acc = 0
                for k, a in enumerate(arow):
                    if a:
                        acc += a * odata[k][j]
                new.append(acc % p if p is not None else f.rational(acc))
            out.append(new)
        return Matrix(f, self.rows, ocols, out)

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise AmbientMismatch(f"vector length {len(vec)} != {self.cols}")
        f = self.field
        p = f.p
        if p == 2:
            u = 0
            for c, x in zip(self.packed_columns(), vec):
                if x:
                    u ^= c
            return _unpack(u, self.rows)
        out = []
        for row in self.data:
            acc = 0
            for a, v in zip(row, vec):
                if a and v:
                    acc += a * v
            out.append(acc % p if p is not None else f.rational(acc))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def flatten(self):
        return tuple(x for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format_scalar(x) for x in row) for row in self.data)
        return f"Matrix({self.field.name}, {self.rows}x{self.cols}: {body})"


def combination(field: Field, n: int, coeffs, mats) -> Matrix:
    """The n x n matrix sum of c * M over the pairs (c, M) of coeffs and
    mats with c nonzero; the zero matrix when there is none."""
    data = [[field.zero] * n for _ in range(n)]
    for c, mat in zip(coeffs, mats):
        if c:
            for out, row in zip(data, mat.data):
                for b, x in enumerate(row):
                    if x:
                        out[b] = field.add(out[b], field.mul(c, x))
    return Matrix(field, n, n, data)


def _rref_rows(field: Field, rows):
    """In-place Gauss-Jordan on a list of row lists; returns (rows, pivots).

    Output rows are the canonical reduced echelon basis, zero rows removed.
    """
    p = field.p
    if p == 2:
        ncols = len(rows[0]) if rows else 0
        pivots, packed = _f2_rref([_pack(r) for r in rows])
        return [_unpack(r, ncols) for r in packed], tuple(pivots)
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rational = field.rational
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            row = rows[r]
            if p is not None:
                rows[r] = [(x * inv) % p for x in row]
            else:
                rows[r] = [rational(x * inv) if x else 0 for x in row]
        lead = rows[r]
        # Over Q only the nonzero entries of the pivot row change a row:
        # x - factor * 0 is x, and every Fraction operation costs a gcd.
        support = None if p is not None else [(j, y) for j, y in enumerate(lead) if y]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                row = rows[i]
                if p is not None:
                    rows[i] = [(x - factor * y) % p for x, y in zip(row, lead)]
                else:
                    for j, y in support:
                        row[j] = rational(row[j] - factor * y)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows[:r]], tuple(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Null space {v : m @ v = 0} as a canonical subspace of the domain."""
    field = m.field
    n = m.cols
    if field.p == 2:
        return f2_kernel(field, n, m.packed_rows())
    rows, pivots = _rref_rows(field, m.data)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    zero, one = field.zero, field.one
    for f_col in free:
        v = [zero] * n
        v[f_col] = one
        for i, p_col in enumerate(pivots):
            v[p_col] = field.neg(rows[i][f_col])
        basis.append(v)
    return Subspace.from_vectors(field, n, basis)


class Subspace:
    """Subspace of k^n held as a canonical RREF row basis."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_vanish", "_f2")

    def __init__(self, field: Field, ambient: int, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(row) for row in basis)
        self.pivots = tuple(pivots)
        self._vanish = None
        self._f2 = None

    def packed(self):
        """The basis rows packed into ints; F2 only, built on first use."""
        if self._f2 is None:
            self._f2 = tuple(_pack(row) for row in self.basis)
        return self._f2

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors) -> "Subspace":
        vectors = [v for v in vectors if any(x != 0 for x in v)]
        for v in vectors:
            if len(v) != ambient:
                raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
        if not vectors:
            return cls(field, ambient, (), ())
        if field.p == 2:
            return f2_span(field, ambient, [_pack(v) for v in vectors])
        rows, pivots = _rref_rows(field, vectors)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Matrix.identity(field, ambient).data, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient

    def matrix(self) -> Matrix:
        return Matrix(self.field, self.dim, self.ambient, self.basis)

    # -- membership ----------------------------------------------------------

    def reduce_vector(self, v):
        """Reduce v modulo this subspace; zero result means membership."""
        if len(v) != self.ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient}")
        field = self.field
        p = field.p
        if p == 2:
            return _unpack(f2_reduce(_pack(v), self.pivots, self.packed()),
                           self.ambient)
        v = list(v)
        rational = field.rational
        for row, c in zip(self.basis, self.pivots):
            coeff = v[c]
            if coeff:
                if p is not None:
                    v = [(x - coeff * y) % p for x, y in zip(v, row)]
                else:
                    # As in `_rref_rows`: x - coeff * 0 is x.
                    for j, y in enumerate(row):
                        if y:
                            v[j] = rational(v[j] - coeff * y)
        return tuple(v)

    def contains_vector(self, v) -> bool:
        if self.field.p == 2:
            if len(v) != self.ambient:
                raise AmbientMismatch(f"vector length {len(v)} != ambient {self.ambient}")
            return not f2_reduce(_pack(v), self.pivots, self.packed())
        return all(x == 0 for x in self.reduce_vector(v))

    def coords_of(self, v):
        """Coordinates of v in the stored basis; v must be a member."""
        coords = tuple(v[c] for c in self.pivots)
        if not self.contains_vector(v):
            raise ValueError("vector is not in the subspace")
        return coords

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.field.p == 2:
            pivots, rows = self.pivots, self.packed()
            return not any(f2_reduce(row, pivots, rows) for row in other.packed())
        return all(self.contains_vector(row) for row in other.basis)

    # -- lattice operations ----------------------------------------------------

    def _check_compatible(self, other: "Subspace"):
        _check_same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"ambient {self.ambient} != {other.ambient}")

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.field.p == 2:
            return f2_span(self.field, self.ambient,
                           self.packed() + other.packed())
        return Subspace.from_vectors(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient)
        if self.is_full():
            return other
        if other.is_full():
            return self
        stacked = Matrix.stack([self.vanishing(), other.vanishing()])
        return kernel(stacked)

    def vanishing(self) -> Matrix:
        """Matrix N with N @ v = 0 exactly for members v."""
        if self._vanish is None:
            if self.is_zero():
                self._vanish = Matrix.identity(self.field, self.ambient)
            else:
                null = kernel(self.matrix())
                self._vanish = Matrix(self.field, null.dim, self.ambient, null.basis)
        return self._vanish

    def apply(self, f: Matrix) -> "Subspace":
        """Image subspace f(self) inside k^{f.rows}."""
        if f.cols != self.ambient:
            raise AmbientMismatch(f"map domain {f.cols} != ambient {self.ambient}")
        return Subspace.from_vectors(self.field, f.rows,
                                     [f.apply(row) for row in self.basis])

    # -- identity and ordering ---------------------------------------------------

    def key(self):
        return (self.ambient, self.basis)

    def sort_key(self):
        field = self.field
        flat = tuple(field.sort_key(x) for row in self.basis for x in row)
        return (self.dim, self.pivots, flat)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(self.field.format_scalar(x) for x in row) + ")"
                         for row in self.basis)
        return f"Subspace({self.field.name}^{self.ambient}: [{rows}])"


def preimage(f: Matrix, y: Subspace) -> Subspace:
    """{v : f @ v in y}, a subspace of the domain of f."""
    if f.rows != y.ambient:
        raise AmbientMismatch(f"map codomain {f.rows} != ambient {y.ambient}")
    if y.is_full():
        return Subspace.full(f.field, f.cols)
    return kernel(y.vanishing() @ f)


def strict_upsets(subspaces):
    """Containment table of subspaces of one space: entry i is a bitmask
    with bit j set exactly when subspaces[j] strictly contains
    subspaces[i].

    Built from row signatures.  The distinct RREF basis rows of the family
    are indexed, and the signature of a subspace is the mask of its own
    rows.  For each T, `inside[r]` gains T when row r lies in T: T's own
    rows do, and any other row is tested only when its leading position is
    one of T's pivots, since those are the leading positions of the nonzero
    vectors of T.  S lies in T exactly when every row of S does, so S < T
    exactly when dim T > dim S and the signature of S lies inside T's row
    mask; the intersection of `inside` over the rows of S gives all such T
    at once.
    """
    f2 = bool(subspaces) and subspaces[0].field.p == 2
    index, by_lead, signatures = {}, {}, []
    for s in subspaces:
        signature = 0
        for c, row in zip(s.pivots, s.packed() if f2 else s.basis):
            bit = index.get(row)
            if bit is None:
                bit = index[row] = len(index)
                by_lead.setdefault(c, []).append((bit, row))
            signature |= 1 << bit
        signatures.append(signature)
    inside = [0] * len(index)
    for j, (t, signature) in enumerate(zip(subspaces, signatures)):
        pivots, rows = t.pivots, t.packed() if f2 else None
        for c in pivots:
            for bit, row in by_lead.get(c, ()):
                if signature >> bit & 1 or (not f2_reduce(row, pivots, rows) if f2
                                            else t.contains_vector(row)):
                    inside[bit] |= 1 << j
    dims = [s.dim for s in subspaces]
    larger = [0] * (max(dims, default=0) + 1)
    for j, d in enumerate(dims):
        for e in range(d):
            larger[e] |= 1 << j
    above = []
    for d, signature in zip(dims, signatures):
        common = larger[d]
        for bit in bits_of(signature):
            common &= inside[bit]
        above.append(common)
    return above


def bits_of(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_bits(mask: int, above) -> int:
    """The members of mask with no strictly larger member in mask."""
    return sum(1 << i for i in bits_of(mask) if not above[i] & mask)


def minimal_bits(mask: int, above) -> int:
    """The members of mask with no strictly smaller member in mask."""
    covered = 0
    for i in bits_of(mask):
        covered |= above[i]
    return mask & ~covered


def gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def count_subspaces(p: int, n: int, cap: int | None = None) -> int:
    """Number of subspaces of F_p^n (all dimensions).  With a cap, the sum
    over dimensions stops once it passes the cap and returns that partial
    sum, which is enough to refuse a budget without the whole count."""
    total = 0
    for k in range(n + 1):
        total += gaussian_binomial(n, k, p)
        if cap is not None and total > cap:
            break
    return total


def check_subspace_budget(field: Field, ambient: int, budget: int | None):
    """Raises BudgetExceeded when F_p^ambient has more subspaces than budget."""
    if field.p is None:
        raise ValueError("subspace enumeration needs a finite field")
    if budget is not None and count_subspaces(field.p, ambient, budget) > budget:
        raise BudgetExceeded(f"the subspaces of {field.name}^{ambient} exceed budget {budget}")


def enumerate_subspaces(field: Field, ambient: int, budget: int | None = None):
    """Yield every subspace of F_p^ambient via reduced echelon forms.

    Each subspace appears exactly once because reduced echelon bases are
    unique.  Raises BudgetExceeded up front when the count is too large.
    """
    p = field.p
    check_subspace_budget(field, ambient, budget)
    yield Subspace.zero(field, ambient)
    for r in range(1, ambient + 1):
        for pivots in combinations(range(ambient), r):
            pivot_set = set(pivots)
            free_cells = [(i, j) for i in range(r)
                          for j in range(pivots[i] + 1, ambient)
                          if j not in pivot_set]
            for values in product(range(p), repeat=len(free_cells)):
                rows = [[0] * ambient for _ in range(r)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_cells, values):
                    rows[i][j] = v
                yield Subspace(field, ambient, [tuple(r_) for r_ in rows], pivots)


def invariant_span(field: Field, ambient: int, vectors, ops) -> Subspace:
    """Smallest subspace containing vectors and stable under every operator
    matrix in ops.  The whole space is stable, so the search stops as soon
    as it is reached.

    The vectors found so far are kept as an echelon table: each row is 1
    at its pivot and 0 at the pivots of the rows before it, so one pass
    over the rows in insertion order clears every pivot of an image.  A
    nonzero remainder joins the table and the queue, and one RREF at the
    end gives the canonical basis."""
    if field.p == 2:
        return _f2_invariant_span(field, ambient, vectors, ops)
    for v in vectors:
        if len(v) != ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
    p, rational = field.p, field.rational
    table, queue = [], []
    images = vectors
    while True:
        for u in images:
            u = list(u)
            for c, row in table:
                coeff = u[c]
                if coeff:
                    if p is not None:
                        u = [(x - coeff * y) % p for x, y in zip(u, row)]
                    else:
                        for j, y in enumerate(row):
                            if y:
                                u[j] = rational(u[j] - coeff * y)
            lead = next((c for c, x in enumerate(u) if x), None)
            if lead is None:
                continue
            inv = field.inv(u[lead])
            if inv != 1:
                if p is not None:
                    u = [(x * inv) % p for x in u]
                else:
                    u = [rational(x * inv) if x else 0 for x in u]
            table.append((lead, u))
            queue.append(u)
            if len(table) == ambient:
                return Subspace.full(field, ambient)
        if not queue:
            break
        w = queue.pop()
        images = [op.apply(w) for op in ops]
    return Subspace.from_vectors(field, ambient, [row for _, row in table])


def _f2_invariant_span(field: Field, ambient: int, vectors, ops) -> Subspace:
    """`invariant_span` on packed rows.  The image of w under an operator is
    the XOR of its packed columns at the set bits of w; each image is
    reduced against an echelon table {lowest bit: row} and kept when
    nonzero.  The kept vectors span the closure, and one RREF at the end
    gives its canonical basis."""
    for v in vectors:
        if len(v) != ambient:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient}")
    columns = [op.packed_columns() for op in ops]
    table, mask, queue = {}, 0, []
    images = [_pack(v) for v in vectors]
    while True:
        for u in images:
            m = u & mask
            while m:
                u ^= table[m & -m]
                m = u & mask
            if u:
                table[u & -u] = u
                mask |= u & -u
                queue.append(u)
        if not queue or len(table) == ambient:
            break
        w = queue.pop()
        support = [i for i in range(ambient) if w >> i & 1]
        images = []
        for cols in columns:
            u = 0
            for i in support:
                u ^= cols[i]
            images.append(u)
    return f2_span(field, ambient, list(table.values()))


def _f2_stable_images(sub: Subspace, ops):
    """The packed images of sub's basis rows under each operator, one list
    per operator, or None when an image leaves sub, which XOR-ing the
    matching basis rows out of it tells."""
    pivots, rows = sub.pivots, sub.packed()
    found = []
    for op in ops:
        if rows and (op.rows, op.cols) != (sub.ambient, sub.ambient):
            raise AmbientMismatch(f"operator {op.rows}x{op.cols} on ambient {sub.ambient}")
        cols = op.packed_columns()
        images = [f2_image(cols, row) for row in rows]
        for w in images:
            if f2_reduce(w, pivots, rows):
                return None
        found.append(images)
    return found


def image_span(sub: Subspace, ops) -> Subspace:
    """The span of op(b) over the operators ops and the basis rows b of
    sub.  Over F2 each image is the XOR of packed columns."""
    if sub.field.p == 2:
        rows = sub.packed()
        return f2_span(sub.field, sub.ambient, [f2_image(op.packed_columns(), r)
                                                for op in ops for r in rows])
    return Subspace.from_vectors(sub.field, sub.ambient,
                                 [op.apply(b) for op in ops for b in sub.basis])


def is_stable(sub: Subspace, ops) -> bool:
    """Whether every basis row of sub maps into sub under every operator.
    Over F2 each image is the XOR of packed columns, reduced against the
    packed basis."""
    if sub.field.p == 2:
        return _f2_stable_images(sub, ops) is not None
    return all(sub.contains_vector(op.apply(row))
               for op in ops for row in sub.basis)


# -- the linear systems of the package -----------------------------------------

def _f2_sum(terms, coords: int, n: int):
    """The XOR of the packed lists (each of length n) in terms at the set
    bits of coords."""
    out = [0] * n
    for j, term in enumerate(terms):
        if coords >> j & 1:
            out = [u ^ v for u, v in zip(out, term)]
    return out


def child_coords(l_sub: Subspace, k: Subspace) -> Subspace:
    """A subspace K <= L in the coordinates of L's basis; ValueError
    when K is not inside L.  Over F2 the coordinates of a packed row of K
    are its bits at L's pivots (`f2_bits_at`)."""
    if l_sub.field.p != 2:
        rows = [l_sub.coords_of(v) for v in k.basis]
        return Subspace.from_vectors(l_sub.field, l_sub.dim, rows)
    if k.ambient != l_sub.ambient:
        raise AmbientMismatch(f"ambient {k.ambient} != {l_sub.ambient}")
    pivots, basis = l_sub.pivots, l_sub.packed()
    if any(f2_reduce(w, pivots, basis) for w in k.packed()):
        raise ValueError("vector is not in the subspace")
    return f2_span(l_sub.field, l_sub.dim,
                   [f2_bits_at(w, pivots) for w in k.packed()])


def induced_columns(sub: Subspace, ops):
    """The operators that ops induce on sub, or None when sub is not stable
    under all of them.  Each is given by its columns in the coordinates of
    sub's basis: column t holds those of op(b_t), b_t basis row t.  Each
    operator is applied to each basis row once, and the image serves both
    the stability test and the coordinates: the coordinates of a member
    are its entries at sub's pivots, read over F2 from the packed image
    (`f2_bits_at`)."""
    if sub.field.p != 2:
        found = []
        for op in ops:
            images = [op.apply(row) for row in sub.basis]
            if not all(sub.contains_vector(w) for w in images):
                return None
            found.append([tuple(w[c] for c in sub.pivots) for w in images])
        return found
    images = _f2_stable_images(sub, ops)
    if images is None:
        return None
    pivots, s = sub.pivots, sub.dim
    return [[_unpack(f2_bits_at(w, pivots), s) for w in op_images]
            for op_images in images]


def independent_matrices(mats):
    """The matrices outside the span of those before them, a basis of their
    span; over F2, each matrix packed whole, row i at bits i*cols."""
    flat = [sum(row << i * mat.cols for i, row in enumerate(mat.packed_rows()))
            for mat in mats]
    return tuple(mats[i] for i in f2_independent(flat))


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


def intertwining_maps(field: Field, pairs, ns: int, nt: int):
    """A basis of the nt x ns matrices g with g @ op_s = op_t @ g for every
    pair (op_s, op_t) of an ns x ns and an nt x nt matrix, solved for g
    flattened row by row."""
    if field.p == 2:
        sol = f2_kernel(field, nt * ns, _f2_commutation_rows(
            [(op_s.packed_columns(), op_t.packed_rows()) for op_s, op_t in pairs],
            ns, nt))
    else:
        rows = []
        for op_s, op_t in pairs:
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


def sub_hom_dim(k: Subspace, ops) -> int:
    """Over F2, for a nonzero K <= F2^n stable under the n x n operators
    ops: the dimension of the maps g: K -> F2^n with g op|_K = op g for
    every op; NotSubbicomodule when K is not stable.

    Column t of the operator that op induces on K holds the coordinates of
    w = op(b_t), b_t the packed RREF basis row t of K: the bits of w at K's
    pivots.  The dimension is n * dim K minus the rank of the commutation
    system."""
    images = _f2_stable_images(k, ops)
    if images is None:
        raise NotSubbicomodule("subspace is not stable under the coactions")
    if k.is_zero():
        raise ValueError("cannot restrict to the zero subspace")
    pairs = [([f2_bits_at(w, k.pivots) for w in ws], op.packed_rows())
             for ws, op in zip(images, ops)]
    return k.ambient * k.dim - f2_rank(_f2_commutation_rows(pairs, k.dim, k.ambient))


def quotient_embeds(k: Subspace, ops) -> bool:
    """Over F2, for K < F2^n stable under the n x n operators ops: whether
    the kernels of the maps g: F2^n/K -> F2^n with g op_{M/K} = op g for
    every op meet in zero; NotSubbicomodule when K is not stable.

    The projection pi(v) is v reduced by K's packed RREF rows, read at K's
    free (non-pivot) columns.  Column t of the operator that op induces on
    the quotient is pi(op(e_f)), f the free column t.  With q = n - dim K
    the n x q solutions of the commutation system are the maps; their
    kernels meet in zero exactly when the rows of a basis of solutions have
    rank q, since every solution's rows are sums of those rows."""
    if not is_stable(k, ops):
        raise NotSubbicomodule("subspace is not stable under the coactions")
    n, basis, pivots = k.ambient, k.packed(), k.pivots
    free = [f for f in range(n) if f not in pivots]
    q = len(free)
    pairs = []
    for op in ops:
        op_cols = op.packed_columns()
        pairs.append(([f2_bits_at(f2_reduce(op_cols[f], pivots, basis), free)
                       for f in free], op.packed_rows()))
    block = (1 << q) - 1
    return f2_rank([g >> a * q & block
                    for g in f2_null_rows(n * q, _f2_commutation_rows(pairs, q, n))
                    for a in range(n)]) == q


def interleave(mats) -> Matrix:
    """The d matrices of mats (all with n rows) interleaved row by row into
    one n*d-row matrix S: row i*d + j of S is row i of mats[j], so field i
    of S v (entries i*d to i*d + d - 1) is (mats[0](v)_i, ..., mats[d-1](v)_i)."""
    field, rows = mats[0].field, mats[0].rows
    return Matrix(field, rows * len(mats), mats[0].cols,
                  [mat.data[i] for i in range(rows) for mat in mats])


def annihilator(sub: Subspace, mats, stack: Matrix | None = None) -> Subspace:
    """The coefficient vectors c with sum of c_j mats[j] zero on sub, a
    subspace of k^len(mats); all of it when sub is zero.  There is one
    equation per coordinate i and basis row v of sub; its entry j is
    coordinate i of mats[j](v).

    Over F2 the n equations of v are the n fields of d = len(mats) bits of
    one packed image S v, S = `interleave(mats)`: v -> S v is linear and
    its field i is (mats[0](v)_i, ..., mats[d-1](v)_i).  A caller that keeps
    S for its family passes it as stack; it is built here otherwise."""
    field, n = sub.field, sub.ambient
    if field.p == 2:
        d = len(mats)
        columns = (interleave(mats) if stack is None else stack).packed_columns()
        block = (1 << d) - 1
        rows = []
        for v in sub.packed():
            u = f2_image(columns, v)
            rows.extend(u >> i * d & block for i in range(n))
        return f2_kernel(field, d, rows)
    rows = []
    for v in sub.basis:
        images = [mat.apply(v) for mat in mats]
        for i in range(n):
            rows.append([img[i] for img in images])
    return kernel(Matrix(field, len(rows), len(mats), rows))


def combined_maps(coeffs: Subspace, mats):
    """The maps sum of c_j mats[j] (square matrices) over the basis rows c
    of coeffs, in the form `joint_preimage` reads: over F2 the packed rows
    of each, the XOR of the matrices' packed rows at the set bits of c; a
    Matrix each elsewhere."""
    n = mats[0].rows
    if coeffs.field.p == 2:
        rows = [mat.packed_rows() for mat in mats]
        return [_f2_sum(rows, c, n) for c in coeffs.packed()]
    return [combination(coeffs.field, n, c, mats) for c in coeffs.basis]


def joint_preimage(maps, y: Subspace) -> Subspace:
    """{v : f(v) in y for every f in maps}, the maps from `combined_maps`;
    the whole space when there is none or y is the whole space.

    With N_Y a matrix whose kernel is y (`vanishing`), it is the kernel of
    the stacked N_Y f: an intersection of kernels is the kernel of the
    stacked matrix.  For y = 0 that is the kernel of the stacked maps.
    Over F2, row r of N_Y f is the XOR of the packed rows of f at the set
    bits of row r of N_Y."""
    field, n = y.field, y.ambient
    if not maps or y.is_full():
        return Subspace.full(field, n)
    if field.p == 2:
        if y.is_zero():
            return f2_kernel(field, n, [row for f in maps for row in f])
        n_y = y.vanishing().packed_rows()
        return f2_kernel(field, n, [f2_image(f, r) for f in maps for r in n_y])
    if y.is_zero():
        return kernel(Matrix.stack(maps))
    n_y = y.vanishing()
    return kernel(Matrix.stack([n_y @ f for f in maps]))


def product_span(a: Subspace, b: Subspace, right) -> Subspace:
    """Over F2, the span of R_y x over the basis rows x of a and y of b,
    where R_y is the sum of y_j right[j]: with right the right
    multiplication operators of an algebra, R_y x = x * y.  The packed
    columns of R_y are the XOR of those of the right[j] at the set bits of
    y."""
    n = a.ambient
    columns = [op.packed_columns() for op in right]
    vectors = []
    for y in b.packed():
        r_y = _f2_sum(columns, y, n)
        vectors.extend(f2_image(r_y, x) for x in a.packed())
    return f2_span(a.field, n, vectors)


def _normalized_vectors(p: int, ambient: int, positions):
    """Nonzero vectors of F_p^ambient supported on positions (ascending)
    whose first nonzero entry is 1: one per line through the origin."""
    for k, lead in enumerate(positions):
        rest = positions[k + 1:]
        for values in product(range(p), repeat=len(rest)):
            v = [0] * ambient
            v[lead] = 1
            for j, x in zip(rest, values):
                v[j] = x
            yield tuple(v)


def _join_irreducibles(field: Field, ambient: int, cyclic):
    """The join-irreducible (JI) subspaces among the cyclic(v), v in
    F_p^ambient, each as (w, c) with c = cyclic(w); cyclic is called once
    per line of F_p^ambient.

    c is JI exactly when the vectors of c with a smaller cyclic closure
    span less than c, since their span J is the sum of the invariant
    subspaces strictly inside c.  When c is JI, J is invariant and every
    line of J has a smaller closure, so the lines of c that do not
    generate it number (p^k - 1)/(p - 1) for k = dim J: a count of no such
    form rules c out at once, and any other c is decided by summing the
    distinct cyclic subspaces strictly inside it.
    """
    p = field.p
    # distinct[key] is [first generator, subspace, number of generating lines].
    distinct = {}
    for v in _normalized_vectors(p, ambient, range(ambient)):
        c = cyclic(v)
        entry = distinct.setdefault(c.key(), [v, c, 0])
        entry[2] += 1
    line_counts = {(p ** k - 1) // (p - 1) for k in range(ambient)}
    found = []
    for w, c, count in distinct.values():
        smaller = (p ** c.dim - 1) // (p - 1) - count
        if smaller not in line_counts:
            continue
        if smaller and Subspace.from_vectors(field, ambient, [
                row for _, d, _ in distinct.values()
                if d.dim < c.dim and c.contains(d) for row in d.basis]).dim == c.dim:
            continue
        found.append((w, c))
    return found


def sum_closure(field: Field, ambient: int, cyclic):
    """Every sum of the subspaces cyclic(v), v in F_p^ambient, each once,
    and the set of the keys of the join-irreducible ones.

    cyclic(v) is the smallest invariant subspace containing v (for some
    fixed set of operators), so the result is every invariant subspace,
    zero included, each listed once.  cyclic is called once per line of
    F_p^ambient, and the join-irreducible (JI) cyclic subspaces are marked
    (`_join_irreducibles`), each with a generator w_c, cyclic(w_c) = c;
    they are the JI members of the result, whose keys are returned.

    Each found S grows to S + c only for the JI c with w_c outside S, and
    only once per line of w_c modulo S (w_c reduced against S's basis,
    leading entry 1).  That loses nothing.  In a finite lattice every
    element is the join of the JI elements below it, and a JI invariant
    subspace is cyclic (it is the sum of the cyclic closures of its
    vectors).  So an invariant T > S lies above some JI c not below S;
    w_c is outside S, and S < S + c <= T, so T is reached.  And S + c
    depends only on the line of w_c modulo S: for s in S, cyclic(s) <= S,
    so cyclic(w + s) <= cyclic(w) + S and cyclic(w) <= cyclic(w + s) + S,
    and cyclic(a w) = cyclic(w) for a != 0.
    """
    p = field.p
    generators = _join_irreducibles(field, ambient, cyclic)
    irreducible = {c.key() for _, c in generators}
    if p == 2:
        return _f2_sum_closure(field, ambient, [(_pack(w), c.packed())
                                                for w, c in generators]), irreducible

    def line_mod(s, w):
        w = s.reduce_vector(w)
        lead = next((x for x in w if x), None)
        if lead is None:
            return 0
        inv = field.inv(lead)
        return tuple(x * inv % p for x in w)
    zero = Subspace.zero(field, ambient)
    found = {zero.key(): zero}
    queue = [zero]
    while queue:
        s = queue.pop()
        # The lines modulo S already grown by; 0 stands for w_c inside S.
        lines = {0}
        for w, c in generators:
            line = line_mod(s, w)
            if line not in lines:
                lines.add(line)
                t = s.sum_with(c)
                if t.key() not in found:
                    found[t.key()] = t
                    queue.append(t)
    return list(found.values()), irreducible


def _f2_sum_closure(field: Field, ambient: int, generators):
    """The growth loop of `sum_closure` on packed rows, each generator as
    (w_c, packed basis of c).  A sum S + c is reduced once, and the found
    subspaces are keyed by their packed RREF rows: the reduced echelon form
    of a row space is unique, so equal rows mean equal subspaces.  A
    Subspace is built only for a new one, from the rows already reduced.
    The line of w_c modulo S is w_c reduced by S's rows; over F2 the only
    nonzero scalar is 1."""
    zero = Subspace.zero(field, ambient)
    found = {(): zero}
    queue = [zero]
    while queue:
        s = queue.pop()
        pivots, rows = s.pivots, s.packed()
        lines = {0}
        for w, c in generators:
            line = f2_reduce(w, pivots, rows)
            if line not in lines:
                lines.add(line)
                t_pivots, t_rows = _f2_rref(rows + c)
                key = tuple(t_rows)
                if key not in found:
                    t = found[key] = _f2_subspace(field, ambient, t_pivots, t_rows)
                    queue.append(t)
    return list(found.values())
