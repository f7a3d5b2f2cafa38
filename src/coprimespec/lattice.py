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
                     image_span, invariant_span, is_stable, maximal_bits,
                     minimal_bits, strict_upsets, sum_closure)
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

    `irreducible` masks the join-irreducibles J, the nonzero elements with
    exactly one lower cover; it is passed in when the enumeration marked
    them, and read from the table otherwise.  The flags are decided from
    J: image(j) is E.j, the span of the images of element j under E, for
    j in J, and S is fully invariant exactly when E.j <= S for every j in
    J below S, because the family is finite and closed under +, so S is
    the sum of the j in J below it and E.S is the sum of their E.j.  Only
    a j with E.j != j constrains anything, and only those read the table;
    `fi_mask` lists the flags and `fi_bits` masks them.
    `fi_meet_irreducible`, also built on first use, masks the fully
    invariant elements with exactly one fully invariant upper cover; every
    fully invariant element is a meet of them, and the coprimality scans
    read only them.  The index is the identity of an element: reports
    hold bitmasks over it, and `subset` reads a mask as its elements.
    """

    def __init__(self, elements, mode: LatticeMode, image, above=None,
                 irreducible=None):
        self.elements = tuple(elements)
        self.mode = mode
        self._index = {sub.key(): i for i, sub in enumerate(self.elements)}
        self._above = above
        self._below = None
        self._upper_covers = None
        self._irreducible = irreducible
        self._fi_meet_irreducible = None
        self._socle = None
        self.fi_bits = self._stable_bits(image)
        self.fi_mask = tuple(bool(self.fi_bits >> i & 1)
                             for i in range(len(self.elements)))

    def _stable_bits(self, image) -> int:
        """The elements S with image(j) <= S for every join-irreducible
        j <= S.  When image(j) is an element the test is bits over the
        table; otherwise (a generated lattice may miss it) each element
        above j is asked whether it contains image(j)."""
        stable = (1 << len(self.elements)) - 1
        for j in bits_of(self.irreducible):
            moved = image(j)
            if moved == self.elements[j]:
                continue
            k = self.find(moved)
            if k is not None:
                inside = self.above[k] | 1 << k
            else:
                inside = sum(1 << t for t in bits_of(self.above[j])
                             if self.elements[t].contains(moved))
            stable &= ~(self.above[j] | 1 << j) | inside
        return stable

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

    @property
    def upper_covers(self):
        """Entry i lists the indices of the elements covering element i,
        in index order: the minimal elements strictly above it."""
        if self._upper_covers is None:
            above = self.above
            self._upper_covers = [list(bits_of(minimal_bits(up, above)))
                                  for up in above]
        return self._upper_covers

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

    @property
    def irreducible(self) -> int:
        """Bitmask of the join-irreducible elements."""
        if self._irreducible is None:
            below, above = self.below, self.above
            self._irreducible = sum(
                1 << i for i in range(1, len(self.elements))
                if maximal_bits(below[i], above).bit_count() == 1)
        return self._irreducible

    def direct_sum(self, i: int):
        """A pair (s, c) of indices with element i = s (+) c, c a lower
        cover of i and s a minimal nonzero element strictly inside i and
        not inside c; None when there is none.

        s meets c in an element strictly inside s, which is 0, and s + c
        is an element strictly above c and inside i, which covers c, so
        s + c is element i.  The covers are read from the highest index
        down, so the first one tried has the largest dimension."""
        below, above = self.below, self.above
        inside = below[i]
        atoms = self.socle.simple_bits & inside
        rest = inside if atoms else 0
        while rest:
            c = rest.bit_length() - 1
            rest ^= 1 << c
            if above[c] & inside:
                continue
            outside = atoms & ~(below[c] | 1 << c)
            if outside:
                return (outside & -outside).bit_length() - 1, c
        return None

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
    Each element is combined once with every element popped before it, so
    each unordered pair is combined once: the closure under + and
    intersection is unique and the elements are sorted afterwards, so the
    order of the pops does not show.  The fully invariant elements are
    decided from the join-irreducibles (`Lattice`), E.j being the span of
    the images of j under the basis of End(M).
    """
    field = m.field
    check_lattice_budget(field, m.dim, mode, budget)
    if endo is None:
        endo = EndoAlgebra.compute(m)
    if mode == "exhaustive":
        elements, irreducible = sum_closure(field, m.dim,
                                            lambda v: cyclic_subbicomodule(m, v))
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
        worklist, popped = list(seen.values()), []
        while worklist:
            current = worklist.pop()
            for other in popped:
                total = current.sum_with(other)
                candidates = [total]
                # A comparable pair meets in its smaller operand, and a pair
                # whose dimensions add meets in 0; both are seen already.
                if total.dim not in (current.dim, other.dim,
                                     current.dim + other.dim):
                    candidates.append(current.intersect(other))
                for candidate in candidates:
                    if candidate.key() not in seen:
                        if len(seen) >= _CLOSURE_CAP:
                            raise BudgetExceeded(
                                f"generated lattice closure exceeded {_CLOSURE_CAP} elements")
                        seen[candidate.key()] = candidate
                        worklist.append(candidate)
            popped.append(current)
        elements = list(seen.values())
        irreducible = None
        lattice_mode = LatticeMode.GENERATED
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'generated', got {mode!r}")

    elements.sort(key=lambda s: s.sort_key())
    if irreducible is not None:
        irreducible = sum(1 << i for i, sub in enumerate(elements)
                          if sub.key() in irreducible)
    return Lattice(elements, lattice_mode,
                   lambda j: image_span(elements[j], endo.basis),
                   irreducible=irreducible)


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


def hom_dims(m: Bicomodule, lattice: Lattice):
    """Yields dim Hom(K, M) for the nonzero elements K of the lattice of m,
    in index order.  When K = s (+) c (`Lattice.direct_sum`), Hom(K, M) is
    Hom(s, M) x Hom(c, M), and s and c come before K, so the value is read
    from theirs; every other K is solved by `endo.hom_dim`."""
    found = [0] * len(lattice)
    for i in range(1, len(lattice)):
        split = lattice.direct_sum(i)
        if split is None:
            found[i] = hom_dim(m, lattice.elements[i])
        else:
            found[i] = found[split[0]] + found[split[1]]
        yield found[i]


def predicates(m: Bicomodule, lattice: Lattice, endo: EndoAlgebra,
               right_ideals, seed: int = 0, cache=None) -> PredicateReport:
    """Evaluate the structural hypotheses used to gate theorem checks.

    `right_ideals` is the list of right ideals of `endo`, or None when they
    were not enumerated; intrinsic injectivity is then tested on a seeded
    sample of right ideals.  A `coprime.CoproductCache` passed as `cache`
    serves the annihilators and the kernels, so the Ke of a subspace that
    is both an annihilator and a right ideal is computed once.  Self-
    injectivity reads dim Hom(K, M) through direct sums (`hom_dims`).  E
    is right duo when its join-irreducible right ideals are two-sided,
    since every right ideal is a sum of those and a sum of two-sided
    ideals is two-sided.
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

    self_injective = all(hom == endo.dim - annihilator(k).subspace.dim
                         for k, hom in zip(lattice.elements[1:], hom_dims(m, lattice)))

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
        e_right_duo = all(i.is_two_sided for i in right_ideals if i.irreducible)
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
