"""Subbicomodule lattices, socles, and structural predicates.

Over a finite field the whole lattice is enumerated and certified
exhaustive: a subbicomodule is the sum of the cyclic subbicomodules of its
elements, so the lattice is the sum-closure of the cyclic subbicomodules of
all vectors (`linalg.sum_closure`).  Over Q the lattice of subbicomodules
can be infinite, so a Generated mode closes cyclic subbicomodules of basis
and probe vectors under sum and intersection; every result computed against
a Generated lattice is only valid relative to the enumerated elements and is
reported as such.

Every lattice built here is closed under + and intersection (the sum-closure
holds every subbicomodule, the Generated loop closes under both, and the
part below an element inherits both), which is why `Lattice.join` and
`Lattice.meet` are lookups in the containment table.  The right ideals of
the endomorphism ring are held as a `Lattice` too (`coprime.ideal_side`):
the enumeration lists every right ideal, and sums and intersections of
right ideals are right ideals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from random import Random

from .bicomodule import Bicomodule
from .endo import EndoAlgebra, an, hom_dim, ke, right_ideal_generated
from .exceptions import (BudgetExceeded, ExhaustiveUnavailableOverQ,
                         UncertifiedLattice)
from .fields import Field
from .linalg import (Matrix, Subspace, bits_of, check_subspace_budget,
                     invariant_span, is_stable, maximal_bits, minimal_bits,
                     strict_upsets, sum_closure)
# Unused here; kept because perfbench/tracing.py patches it in this module.
from .linalg import enumerate_subspaces

_CLOSURE_CAP = 20000


class LatticeMode(Enum):
    EXHAUSTIVE = "exhaustive"
    GENERATED = "generated"


def cyclic_subbicomodule(m: Bicomodule, v) -> Subspace:
    """Smallest subbicomodule containing v: the two-sided rational orbit span."""
    field = m.field
    return invariant_span(field, m.dim, [tuple(field.coerce(x) for x in v)],
                          m.all_ops())


def is_fully_invariant(sub: Subspace, endo: EndoAlgebra) -> bool:
    """Stability under every bicolinear endomorphism (basis suffices)."""
    return is_stable(sub, endo.basis)


class Lattice:
    """Canonically sorted subspace family with a full-invariance mask: the
    subbicomodules of a bicomodule, or the right ideals of its endomorphism
    ring E, whose fully invariant members (those stable under End(E_E),
    which is E acting by left multiplication) are the two-sided ideals.

    The order is held as one containment table: entry i of `above` is the
    bitmask of the elements strictly containing element i, `below` its
    transpose, and `fi_bits` is the bitmask of the fully invariant
    elements.  The table is built on first use by `linalg.strict_upsets`,
    or passed in as `above` when it is known already, as for the part of
    a lattice below one of its elements (`induced_above`).  The list is
    closed under + and intersection and sorted by dimension first (zero at
    index 0), so a sum is the lowest index above its terms and an
    intersection the highest index below them.
    `fi_meet_irreducible`, also built on first use, masks the fully
    invariant elements with exactly one fully invariant upper cover; every
    fully invariant element is a meet of them, and the coprimality scans
    read only them.  The index is the identity of an element: reports
    hold bitmasks over it, and `subset` reads a mask as its elements.
    """

    def __init__(self, elements, fi_mask, mode: LatticeMode, above=None):
        self.elements = tuple(elements)
        self.fi_mask = tuple(fi_mask)
        self.fi_bits = sum(1 << i for i, flag in enumerate(self.fi_mask) if flag)
        self.mode = mode
        self._index = {sub.key(): i for i, sub in enumerate(self.elements)}
        self._above = above
        self._below = None
        self._fi_meet_irreducible = None
        self._socle = None

    @property
    def above(self):
        if self._above is None:
            self._above = strict_upsets(self.elements)
        return self._above

    @property
    def below(self):
        """Entry i is the bitmask of the elements strictly inside element i."""
        if self._below is None:
            below = [0] * len(self.elements)
            for i, up in enumerate(self.above):
                for j in bits_of(up):
                    below[j] |= 1 << i
            self._below = below
        return self._below

    def induced_above(self, order):
        """The containment table of the elements at the indices `order`,
        re-indexed by position in `order`: entry c has bit d set exactly
        when element order[d] strictly contains element order[c].  The
        order of a subfamily is the restriction of the order, so this masks
        and re-indexes the table and tests no containment."""
        position = {j: c for c, j in enumerate(order)}
        keep = sum(1 << j for j in order)
        above = self.above
        return [sum(1 << position[j] for j in bits_of(above[i] & keep))
                for i in order]

    def join(self, mask: int) -> int:
        """Index of the sum of the elements in mask (0, the zero element,
        for an empty mask): the lowest index above all of them."""
        common = -1
        for i in bits_of(mask):
            common &= self.above[i] | 1 << i
        return (common & -common).bit_length() - 1

    def meet(self, mask: int) -> int:
        """Index of the intersection of the elements in mask (the top for an
        empty mask): the highest index below all of them."""
        common = (1 << len(self.elements)) - 1
        for i in bits_of(mask):
            common &= self.below[i] | 1 << i
        return common.bit_length() - 1

    @property
    def certified(self) -> bool:
        return self.mode is LatticeMode.EXHAUSTIVE

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, sub: Subspace) -> int:
        try:
            return self._index[sub.key()]
        except KeyError:
            raise KeyError(f"subspace not in the enumerated lattice: {sub!r}") from None

    def find(self, sub: Subspace) -> int | None:
        """Index of sub in the lattice, or None when it is not an element."""
        return self._index.get(sub.key())

    def le(self, i: int, j: int) -> bool:
        """Whether element i is contained in element j."""
        return i == j or bool(self.above[i] >> j & 1)

    def subset(self, mask: int) -> tuple:
        """The elements whose bits are set in mask, in index order."""
        return tuple(self.elements[i] for i in bits_of(mask))

    @property
    def fi_meet_irreducible(self) -> int:
        """Bitmask of the fully invariant elements with exactly one fully
        invariant upper cover (the meet-irreducibles of the FI sublattice)."""
        if self._fi_meet_irreducible is None:
            fi, above = self.fi_bits, self.above
            self._fi_meet_irreducible = sum(
                1 << i for i in bits_of(fi)
                if minimal_bits(above[i] & fi, above).bit_count() == 1)
        return self._fi_meet_irreducible

    def maximal_fi_not_containing(self, k: Subspace):
        """The maximal fully invariant elements X with K not <= X.

        Only the FI meet-irreducibles are scanned, because such an X has at
        most one FI upper cover: two covers Y != Z both contain K, since X
        is maximal, and their intersection is fully invariant, contains X
        and lies strictly inside Y, so it is X and K <= X.
        """
        i = self.find(k)
        if i is None:
            containing = sum(1 << j for j, e in enumerate(self.elements)
                             if e.contains(k))
        else:
            containing = self.above[i] | 1 << i
        candidates = maximal_bits(self.fi_meet_irreducible & ~containing,
                                  self.above)
        return [self.elements[j] for j in bits_of(candidates)]

    @property
    def socle(self) -> SocleReport:
        """The minimal nonzero elements, the minimal nonzero fully invariant
        ones, and the index of the sum of the former."""
        if self._socle is None:
            simple = minimal_bits((1 << len(self.elements)) - 2, self.above)
            self._socle = SocleReport(
                self, simple, minimal_bits(self.fi_bits & ~1, self.above),
                self.join(simple))
        return self._socle


def _all_ops_scalar(m: Bicomodule) -> bool:
    for op in m.all_ops():
        c = op.data[0][0]
        for i in range(m.dim):
            for j in range(m.dim):
                want = c if i == j else m.field.zero
                if op.data[i][j] != want:
                    return False
    return True


def check_lattice_budget(field: Field, dim: int, mode: str, budget: int):
    """Raises, before any other work, when exhaustive enumeration of a
    bicomodule of dimension dim over field is unavailable (over Q) or its
    ambient space has more subspaces than budget."""
    if mode == "exhaustive":
        if field.p is None:
            raise ExhaustiveUnavailableOverQ(
                "exhaustive lattice enumeration needs a finite field; use mode='generated'")
        check_subspace_budget(field, dim, budget)


def enumerate_lattice(m: Bicomodule, mode: str = "exhaustive", budget: int = 200000,
                      endo: EndoAlgebra | None = None, seed: int = 0) -> Lattice:
    """Subbicomodule lattice of m.

    mode 'exhaustive' (finite fields only): every sum of cyclic
    subbicomodules, grown one cyclic subbicomodule at a time from 0; the
    budget bounds the subspace count of the ambient space and is checked
    before any work.  mode 'generated':
    cyclic subbicomodules of the basis vectors plus a few dozen seeded probe
    vectors (never more than the budget), closed under sum and intersection.
    """
    field = m.field
    check_lattice_budget(field, m.dim, mode, budget)
    if endo is None:
        endo = EndoAlgebra.compute(m)
    if mode == "exhaustive":
        elements = sum_closure(field, m.dim, lambda v: cyclic_subbicomodule(m, v))
        lattice_mode = LatticeMode.EXHAUSTIVE
    elif mode == "generated":
        if field.p is None and m.dim >= 2 and _all_ops_scalar(m):
            raise ExhaustiveUnavailableOverQ(
                "every 1-dimensional subspace is a subbicomodule, so the lattice "
                "is infinite over Q; no finite enumeration is faithful")
        rng = Random(seed)
        probe_count = min(max(0, budget), 8 * m.dim + 16)
        probes = [tuple(field.random_element(rng) for _ in range(m.dim))
                  for _ in range(probe_count)]
        basis_vectors = Matrix.identity(field, m.dim).data
        seeds = [cyclic_subbicomodule(m, v) for v in list(basis_vectors) + probes]
        seen = {}
        for sub in seeds + [Subspace.zero(field, m.dim), Subspace.full(field, m.dim)]:
            seen[sub.key()] = sub
        worklist = list(seen.values())
        while worklist:
            current = worklist.pop()
            for other in list(seen.values()):
                for candidate in (current.sum_with(other), current.intersect(other)):
                    if candidate.key() not in seen:
                        if len(seen) >= _CLOSURE_CAP:
                            raise BudgetExceeded(
                                f"generated lattice closure exceeded {_CLOSURE_CAP} elements")
                        seen[candidate.key()] = candidate
                        worklist.append(candidate)
        elements = list(seen.values())
        lattice_mode = LatticeMode.GENERATED
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'generated', got {mode!r}")

    elements.sort(key=lambda s: s.sort_key())
    fi_mask = [is_fully_invariant(sub, endo) for sub in elements]
    return Lattice(elements, fi_mask, lattice_mode)


@dataclass
class SocleReport:
    """The simple elements of a lattice (`simple_bits`), the simple fully
    invariant ones (`simple_fi_bits`) and the coradical, their sum
    (`coradical_index`); the subspaces are read from the masks."""

    lattice: Lattice
    simple_bits: int
    simple_fi_bits: int
    coradical_index: int

    @property
    def simples(self) -> tuple:
        return self.lattice.subset(self.simple_bits)

    @property
    def simples_fi(self) -> tuple:
        return self.lattice.subset(self.simple_fi_bits)

    @property
    def coradical(self) -> Subspace:
        return self.lattice.elements[self.coradical_index]


def socle_report(lattice: Lattice) -> SocleReport:
    if not lattice.certified:
        warnings.warn("socle computed relative to a generated lattice",
                      UncertifiedLattice, stacklevel=2)
    return lattice.socle


@dataclass
class PredicateReport:
    """Structural hypotheses evaluated on one instance.

    `certified` is False when the lattice is Generated, in which case every
    universally quantified answer is relative to the enumerated elements.
    """

    duo: bool
    quasi_duo: bool
    self_injective: bool
    self_cogenerator: bool
    intrinsically_injective: bool
    intrinsic_partial: bool
    subdirectly_irreducible: bool
    semisimple: bool
    property_s: bool
    property_s_fi: bool
    corad_essential: bool
    e_right_duo: bool | None
    certified: bool
    notes: tuple = dataclass_field(default_factory=tuple)

    def to_dict(self):
        return {
            "duo": self.duo,
            "quasi_duo": self.quasi_duo,
            "self_injective": self.self_injective,
            "self_cogenerator": self.self_cogenerator,
            "intrinsically_injective": self.intrinsically_injective,
            "intrinsic_partial": self.intrinsic_partial,
            "subdirectly_irreducible": self.subdirectly_irreducible,
            "semisimple": self.semisimple,
            "property_s": self.property_s,
            "property_s_fi": self.property_s_fi,
            "corad_essential": self.corad_essential,
            "e_right_duo": self.e_right_duo,
            "certified": self.certified,
            "notes": list(self.notes),
        }


def predicates(m: Bicomodule, lattice: Lattice, endo: EndoAlgebra,
               right_ideals, seed: int = 0, cache=None) -> PredicateReport:
    """Evaluate the structural hypotheses used to gate theorem checks.

    `right_ideals` is the list of right ideals of `endo`, or None when they
    were not enumerated; intrinsic injectivity is then tested on a seeded
    sample of right ideals.  A `coprime.CoproductCache` passed as `cache`
    serves the annihilators and the kernels, so the Ke of a subspace that
    is both an annihilator and a right ideal is computed once.
    """
    if cache is not None:
        annihilator, kernel = cache.annihilator, cache.ke
    else:
        annihilator, kernel = (lambda k: an(k, endo)), (lambda ideal: ke(ideal, endo))
    notes = []
    if not lattice.certified:
        notes.append("relative to enumerated lattice")

    nonzero = (1 << len(lattice)) - 2
    socle = lattice.socle
    simple, fi_simple = socle.simple_bits, socle.simple_fi_bits
    duo = all(lattice.fi_mask)
    quasi_duo = not simple & ~lattice.fi_bits

    self_injective = all(hom_dim(m, k) == endo.dim - annihilator(k).subspace.dim
                         for k in lattice.elements[1:])

    self_cogenerator = all(kernel(annihilator(k).subspace) == k
                           for k in lattice.elements)

    intrinsic_partial = right_ideals is None
    samples = right_ideals
    if intrinsic_partial:
        rng = Random(seed)
        samples = [annihilator(k) for k in lattice.elements]
        for _ in range(8):
            vec = tuple(endo.field.random_element(rng) for _ in range(endo.dim))
            samples.append(right_ideal_generated(endo, [vec]))
        notes.append("intrinsic injectivity tested on a finite ideal sample")
    intrinsically_injective = all(
        annihilator(kernel(ideal.subspace)).subspace == ideal.subspace
        for ideal in samples)

    down = lattice.below
    subdirectly_irreducible = lattice.meet(nonzero) != 0
    corad = socle.coradical_index
    semisimple = socle.coradical.is_full()
    property_s = all(simple & (down[i] | 1 << i) for i in bits_of(nonzero))
    property_s_fi = all(fi_simple & (down[i] | 1 << i)
                        for i in bits_of(lattice.fi_bits & nonzero))
    corad_essential = all(lattice.meet(1 << corad | 1 << i) != 0
                          for i in bits_of(nonzero))

    if right_ideals is not None:
        e_right_duo = all(i.is_two_sided for i in right_ideals)
    else:
        e_right_duo = None
        if endo.field.p is None:
            notes.append("right-duo status of the endomorphism ring unknown over Q")

    return PredicateReport(
        duo=duo, quasi_duo=quasi_duo, self_injective=self_injective,
        self_cogenerator=self_cogenerator,
        intrinsically_injective=intrinsically_injective,
        intrinsic_partial=intrinsic_partial,
        subdirectly_irreducible=subdirectly_irreducible, semisimple=semisimple,
        property_s=property_s, property_s_fi=property_s_fi,
        corad_essential=corad_essential, e_right_duo=e_right_duo,
        certified=lattice.certified, notes=tuple(notes))
