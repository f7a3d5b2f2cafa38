"""Independent recomputation of lattices and spectra for cross-checking.

Everything here is deliberately self-contained: row reduction, nullspaces,
subspace enumeration, the bicolinearity solve, annihilators, and internal
coproducts are reimplemented from the definitions on raw coaction tensors,
without calling the engine's linalg, lattice, endo, or coprime modules.
Results are canonical reduced-row-echelon bases, so they can be diffed
against engine subspace keys verbatim.  Finite prime fields only.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .bicomodule import Bicomodule
from .exceptions import BudgetExceeded, UnsupportedOverQ


def _rref(field, rows):
    """Canonical reduced row echelon form; returns (rows, pivots)."""
    work = [list(r) for r in rows if any(x != field.zero for x in r)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != field.zero:
                coeff = work[i][c]
                work[i] = [field.sub(x, field.mul(coeff, y))
                           for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def _member(field, rows, pivots, vec) -> bool:
    residue = list(vec)
    for row, p in zip(rows, pivots):
        if residue[p] != field.zero:
            coeff = residue[p]
            residue = [field.sub(x, field.mul(coeff, y))
                       for x, y in zip(residue, row)]
    return all(x == field.zero for x in residue)


def _contains(field, big, small) -> bool:
    rows, pivots = big
    return all(_member(field, rows, pivots, v) for v in small[0])


def _nullspace(field, rows, ncols):
    """Canonical basis of {v : row . v = 0 for every row}."""
    red, pivots = _rref(field, rows) if rows else ((), ())
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, p in enumerate(pivots):
            v[p] = field.neg(red[i][free])
        basis.append(v)
    return _rref(field, basis) if basis else ((), ())


def _vanishing(field, space, ncols):
    return _nullspace(field, list(space[0]), ncols)


def _sum(field, a, b):
    return _rref(field, list(a[0]) + list(b[0]))


def _count_subspaces(q: int, n: int) -> int:
    total = 0
    for k in range(n + 1):
        num = 1
        den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (k - i) - 1
        total += num // den
    return total


def _all_subspaces(field, n: int, budget: int):
    """Every subspace of field^n as canonical echelon rows, via pivot
    patterns: for each pivot-column set, free entries range over the field."""
    if _count_subspaces(field.p, n) > budget:
        raise BudgetExceeded(
            f"{_count_subspaces(field.p, n)} subspaces of a {n}-dimensional "
            f"space exceed the budget {budget}")
    scalars = list(field.elements())
    yield ((), ())
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            pivot_set = set(pivots)
            free_cells = [(i, j) for i in range(k) for j in range(n)
                          if j not in pivot_set and j > pivots[i]]
            for fill in product(scalars, repeat=len(free_cells)):
                rows = [[field.zero] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one
                for (i, j), x in zip(free_cells, fill):
                    rows[i][j] = x
                yield tuple(tuple(r) for r in rows), tuple(pivots)


def _is_subbicomodule(m: Bicomodule, space) -> bool:
    field = m.field
    rows, pivots = space
    for v in rows:
        for k in range(m.right.dim):
            image = [field.zero] * m.dim
            for i in range(m.dim):
                if v[i] == field.zero:
                    continue
                for j in range(m.dim):
                    if m.rho_right[i][j][k] != field.zero:
                        image[j] = field.add(
                            image[j], field.mul(v[i], m.rho_right[i][j][k]))
            if not _member(field, rows, pivots, image):
                return False
        for j in range(m.left.dim):
            image = [field.zero] * m.dim
            for i in range(m.dim):
                if v[i] == field.zero:
                    continue
                for k in range(m.dim):
                    if m.rho_left[i][j][k] != field.zero:
                        image[k] = field.add(
                            image[k], field.mul(v[i], m.rho_left[i][j][k]))
            if not _member(field, rows, pivots, image):
                return False
    return True


def _bicolinear_basis(m: Bicomodule):
    """Matrices commuting with both coactions, from the raw tensors."""
    field, n = m.field, m.dim
    equations = []
    operators = []
    for k in range(m.right.dim):
        operators.append([[m.rho_right[i][j][k] for i in range(n)]
                          for j in range(n)])
    for j in range(m.left.dim):
        operators.append([[m.rho_left[i][j][k] for i in range(n)]
                          for k in range(n)])
    for op in operators:
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for t in range(n):
                    row[t * n + j] = field.add(row[t * n + j], op[i][t])
                    row[i * n + t] = field.sub(row[i * n + t],
                                               field.coerce(op[t][j]))
                equations.append(row)
    flat_basis, _ = _nullspace(field, equations, n * n)
    return [tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))
            for flat in flat_basis]


def _apply(field, mat, vec):
    n = len(vec)
    out = [field.zero] * len(mat)
    for i, row in enumerate(mat):
        total = field.zero
        for j in range(n):
            if row[j] != field.zero and vec[j] != field.zero:
                total = field.add(total, field.mul(row[j], vec[j]))
        out[i] = total
    return out


def _annihilator_mats(field, endo_mats, space, n):
    """Basis of {f in E : f(X) = 0} as matrices."""
    if not endo_mats:
        return []
    rows = []
    coords = []
    for x in space[0]:
        for i in range(n):
            coords.append([_apply(field, mat, x)[i] for mat in endo_mats])
    if coords:
        rows = [list(r) for r in coords]
    combos, _ = _nullspace(field, rows, len(endo_mats))
    out = []
    for combo in combos:
        mat = [[field.zero] * n for _ in range(n)]
        for coeff, e_mat in zip(combo, endo_mats):
            if coeff == field.zero:
                continue
            for r in range(n):
                for c in range(n):
                    mat[r][c] = field.add(mat[r][c],
                                          field.mul(coeff, e_mat[r][c]))
        out.append(tuple(tuple(r) for r in mat))
    return out


def _coproduct(field, m_dim, ann_mats, y_space):
    if not ann_mats:
        return _rref(field, [[field.one if i == j else field.zero
                              for j in range(m_dim)] for i in range(m_dim)])
    van = _vanishing(field, y_space, m_dim)
    rows = []
    for f in ann_mats:
        for w in van[0]:
            rows.append([
                _dot(field, w, [f[i][j] for i in range(m_dim)])
                for j in range(m_dim)])
    return _nullspace(field, rows, m_dim)


def _dot(field, a, b):
    total = field.zero
    for x, y in zip(a, b):
        if x != field.zero and y != field.zero:
            total = field.add(total, field.mul(x, y))
    return total


def _stable_under(field, endo_mats, space) -> bool:
    rows, pivots = space
    for mat in endo_mats:
        for v in rows:
            if not _member(field, rows, pivots, _apply(field, mat, v)):
                return False
    return True


@dataclass
class OracleReport:
    """Lattice and spectral data recomputed from the definitions."""

    dim: int
    lattice_keys: list
    fi_keys: list
    endo_dim: int
    cpspec_keys: list
    cpcorad_key: tuple
    csp_keys: list

    def to_dict(self):
        return {"dim": self.dim, "lattice_size": len(self.lattice_keys),
                "fully_invariant": len(self.fi_keys),
                "endo_dim": self.endo_dim,
                "cpspec_size": len(self.cpspec_keys),
                "csp_size": len(self.csp_keys)}


def run_oracle(m: Bicomodule, budget: int = 200000) -> OracleReport:
    """Recompute the subbicomodule lattice and both spectra definitionally."""
    field, n = m.field, m.dim
    if not field.is_finite:
        raise UnsupportedOverQ("the oracle enumerates subspaces, which needs "
                               "a finite field")
    lattice = [space for space in _all_subspaces(field, n, budget)
               if _is_subbicomodule(m, space)]
    endo_mats = _bicolinear_basis(m)
    fi = [space for space in lattice
          if _stable_under(field, endo_mats, space)]
    ann = {space[0]: _annihilator_mats(field, endo_mats, space, n)
           for space in fi}
    coproducts = {}
    for x in fi:
        for y in fi:
            coproducts[(x[0], y[0])] = _coproduct(field, n, ann[x[0]], y)

    def coprime(k):
        if not k[0]:
            return False
        for x in fi:
            if _contains(field, x, k):
                continue
            for y in fi:
                if _contains(field, y, k):
                    continue
                if _contains(field, coproducts[(x[0], y[0])], k):
                    return False
        return True

    def cosemiprime(k):
        if not k[0]:
            return False
        for x in fi:
            if not _contains(field, x, k) and \
                    _contains(field, coproducts[(x[0], x[0])], k):
                return False
        return True

    cpspec = [k for k in fi if coprime(k)]
    csp = [k for k in fi if cosemiprime(k)]
    corad = ((), ())
    for k in cpspec:
        corad = _sum(field, corad, k)
    return OracleReport(
        dim=n,
        lattice_keys=sorted((n, space[0]) for space in lattice),
        fi_keys=sorted((n, space[0]) for space in fi),
        endo_dim=len(endo_mats),
        cpspec_keys=sorted((n, k[0]) for k in cpspec),
        cpcorad_key=(n, corad[0]),
        csp_keys=sorted((n, k[0]) for k in csp))


@dataclass
class OracleDiff:
    """Comparison of the oracle path against the engine path."""

    oracle: OracleReport
    mismatches: list = dc_field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatches


def diff_against_engine(m: Bicomodule, budget: int = 200000,
                        ideal_budget: int = 50000) -> OracleDiff:
    """Runs both paths and reports any disagreement, field by field."""
    from .analysis import analyze
    oracle = run_oracle(m, budget=budget)
    engine = analyze(m, mode="exhaustive", budget=budget,
                     ideal_budget=ideal_budget)
    diff = OracleDiff(oracle)

    def compare(label, oracle_side, engine_side):
        if oracle_side != engine_side:
            diff.mismatches.append(
                f"{label}: oracle has {len(oracle_side)} entries, engine "
                f"{len(engine_side)}; symmetric difference "
                f"{len(set(oracle_side) ^ set(engine_side))}")

    lat = engine.lattice
    compare("lattice", oracle.lattice_keys, sorted(e.key() for e in lat.elements))
    compare("fully-invariant", oracle.fi_keys,
            sorted(e.key() for e in lat.subset(lat.fi_bits)))
    if oracle.endo_dim != engine.endo.dim:
        diff.mismatches.append(f"endo dimension: oracle {oracle.endo_dim}, "
                               f"engine {engine.endo.dim}")
    compare("fully-coprime spectrum", oracle.cpspec_keys,
            sorted(k.key() for k in engine.spectrum.cpspec))
    compare("fully-cosemiprime class", oracle.csp_keys,
            sorted(k.key() for k in engine.spectrum.csp))
    if oracle.cpcorad_key != engine.spectrum.cpcorad.key():
        diff.mismatches.append("coprime coradical differs")
    return diff
