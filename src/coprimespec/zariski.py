"""Zariski-style topology on the fully coprime spectrum.

Points are the fully coprime subbicomodules, and subsets of the space are
int masks over their positions.  Each lattice element L induces the variety
V(L), the points inside L, read from the lattice's containment table; the
closed family is the varieties of the fully invariant elements (flavor
"fi") or of all elements ("full"), with the empty set and the whole space.
It is checked literally for the topology axioms (`is_topology`).

A finite topology is fixed by its specialization preorder, x <= y when x
lies in cl{y}: its closed sets are the down-sets (P. Alexandroff, 1937;
R. E. Stong, Trans. AMS 123, 1966).  The family holds V(p) for every point
p (points are fully invariant), and each member is a down-set for inclusion
of points, so the topology the family generates has cl{p} = V(p), is the
down-sets of inclusion between points, and is the family itself exactly
when `is_topology`.  The readings below describe it: T0 is antisymmetry,
and T1, T2 and discreteness are equality, of the preorder; a subset is
irreducible when it has a greatest point and connected when its
comparability graph is; the components are the closures of the maximal
points; and cl(S) is the union of the cl{s}, s in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coalgebra import CoalgebraMorphism
from .coprime import SpectrumReport
from .linalg import Subspace, bits_of


def _canon(masks):
    """Distinct masks by size, then by their sorted positions."""
    return tuple(sorted(set(masks), key=lambda s: (s.bit_count(), list(bits_of(s)))))


class ZariskiTopology:
    """Finite topological space whose points are fully coprime subbicomodules.

    The points are the lattice indices in `point_index`, and `positions`
    maps each of them to its position.  Entry t of `varieties` is the mask
    of the points inside lattice element t, entry i of `point_closures`
    the closure V(p) of the point p at position i, `space` the mask of
    every point, and `closed_masks` the closed family in canonical order
    (by size, then by positions); `closed` lists it as frozensets.
    """

    def __init__(self, report: SpectrumReport, flavor: str):
        self.lattice = lattice = report.lattice
        self.flavor = flavor
        self.points = report.cpspec
        self.point_index = tuple(bits_of(report.cpspec_bits))
        self.positions = {t: i for i, t in enumerate(self.point_index)}
        self.space = (1 << len(self.point_index)) - 1
        inside = [0] * len(lattice)
        for i, t in enumerate(self.point_index):
            for j in bits_of(lattice.above[t] | 1 << t):
                inside[j] |= 1 << i
        self.varieties = tuple(inside)
        self.point_closures = tuple(inside[t] for t in self.point_index)
        params = bits_of(lattice.fi_bits) if flavor == "fi" else range(len(lattice))
        self.closed_masks = _canon([inside[t] for t in params] + [0, self.space])
        self._closed_set = frozenset(self.closed_masks)
        self.is_topology, self.witness = _axiom_scan(self.closed_masks)

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def closed(self) -> tuple:
        """The closed family as frozensets of positions, in canonical order."""
        return tuple(frozenset(bits_of(c)) for c in self.closed_masks)

    def is_closed(self, subset: int) -> bool:
        """Whether the mask is a member of the closed family."""
        return subset in self._closed_set

    def v_of(self, l_sub: Subspace) -> int:
        """The mask of the points inside l_sub; by `contains` only when l_sub
        is not a lattice element (a coproduct in Generated mode can be one)."""
        t = self.lattice.find(l_sub)
        if t is not None:
            return self.varieties[t]
        return sum(1 << i for i, k in enumerate(self.points) if l_sub.contains(k))

    def position(self, sub: Subspace) -> int | None:
        """Position of sub among the points, or None when it is not a point."""
        t = self.lattice.find(sub)
        return None if t is None else self.positions.get(t)

    def phi(self, subset: int) -> int:
        """Lattice index of the sum of the points in a mask."""
        return self.lattice.join(sum(1 << self.point_index[i] for i in bits_of(subset)))

    def closure(self, subset: int) -> int:
        """The union of the point closures of the points in a mask."""
        out = 0
        for i in bits_of(subset):
            out |= self.point_closures[i]
        return out


def _axiom_scan(masks):
    """The closed-set axioms of a canonically sorted family holding 0 and the
    space: (ok, witness-or-None).  Union and intersection are symmetric and
    a pair (a, a) never fails, so only pairs with a before b are scanned."""
    members = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a | b not in members or a & b not in members:
                kind = "union" if a | b not in members else "intersection"
                return False, (kind, frozenset(bits_of(a)), frozenset(bits_of(b)))
    return True, None


def build_topology(report: SpectrumReport, flavor: str = "fi") -> ZariskiTopology:
    if flavor not in ("fi", "full"):
        raise ValueError(f"flavor must be 'fi' or 'full', got {flavor!r}")
    return ZariskiTopology(report, flavor)


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    t2: bool
    discrete: bool

    def to_dict(self):
        return {"t0": self.t0, "t1": self.t1, "t2": self.t2, "discrete": self.discrete}


def separation(top: ZariskiTopology) -> SeparationReport:
    closures = top.point_closures
    t0 = not any(closures[j] >> i & 1 for i, c in enumerate(closures)
                 for j in bits_of(c & ~(1 << i)))
    discrete = all(c == 1 << i for i, c in enumerate(closures))
    return SeparationReport(t0, discrete, discrete, discrete)


def is_irreducible_subset(top: ZariskiTopology, subset: int) -> bool:
    """Nonempty, with a point whose closure holds the whole subset."""
    return any(not subset & ~top.point_closures[i] for i in bits_of(subset))


def irreducible_components(top: ZariskiTopology) -> tuple:
    """The closures of the maximal points, canonically ordered."""
    closures = top.point_closures
    return _canon(c for c in closures
                  if not any(d != c and not c & ~d for d in closures))


def is_connected_subset(top: ZariskiTopology, subset: int) -> bool:
    """Whether the comparability graph on the subset is connected; the empty
    set counts as connected."""
    reached, grown = 0, subset & -subset
    while grown != reached:
        reached = grown
        above = sum(1 << j for j in bits_of(subset) if top.point_closures[j] & reached)
        grown = reached | subset & (top.closure(reached) | above)
    return reached == subset


def generic_points(top: ZariskiTopology, subset: int) -> list:
    return [i for i in bits_of(subset) if top.point_closures[i] == subset]


@dataclass(frozen=True)
class TopologyReport:
    flavor: str
    is_topology: bool
    separation: SeparationReport
    irreducible: bool
    connected: bool
    components: tuple
    point_count: int
    closed_count: int

    def to_dict(self):
        return {
            "flavor": self.flavor,
            "is_topology": self.is_topology,
            "separation": self.separation.to_dict(),
            "irreducible_space": self.irreducible,
            "connected_space": self.connected,
            "components": [list(bits_of(c)) for c in self.components],
            "point_count": self.point_count,
            "closed_count": self.closed_count,
        }


def topology_report(top: ZariskiTopology) -> TopologyReport:
    return TopologyReport(
        flavor=top.flavor,
        is_topology=top.is_topology,
        separation=separation(top),
        irreducible=is_irreducible_subset(top, top.space),
        connected=is_connected_subset(top, top.space),
        components=irreducible_components(top),
        point_count=top.size,
        closed_count=len(top.closed_masks),
    )


class SpectralMapReport:
    """Point images of a coalgebra morphism between two spectra."""

    def __init__(self, morphism, source_top, target_top, images, index_map,
                 defined, continuous):
        self.morphism = morphism
        self.source_top = source_top
        self.target_top = target_top
        self.images = tuple(images)
        self.index_map = None if index_map is None else tuple(index_map)
        self.defined = defined
        self.continuous = continuous

    def to_dict(self):
        return {
            "defined": self.defined,
            "continuous": self.continuous,
            "index_map": None if self.index_map is None else list(self.index_map),
            "source_points": self.source_top.size,
            "target_points": self.target_top.size,
        }


def image_subspace(theta: CoalgebraMorphism, sub: Subspace) -> Subspace:
    vectors = [theta.matrix.apply(v) for v in sub.basis]
    return Subspace.from_vectors(theta.target.field, theta.target.dim, vectors)


def spectral_map(theta: CoalgebraMorphism, source_top: ZariskiTopology,
                 target_top: ZariskiTopology) -> SpectralMapReport:
    """Maps source points forward along theta and tests continuity.

    The map is recorded as undefined when some image fails to be a point of
    the target spectrum; continuity is only evaluated for defined maps.
    """
    images = [image_subspace(theta, k) for k in source_top.points]
    index_map = [target_top.position(img) for img in images]
    if None in index_map:
        return SpectralMapReport(theta, source_top, target_top, images,
                                 None, False, False)
    continuous = all(source_top.is_closed(
        sum(1 << i for i, j in enumerate(index_map) if closed >> j & 1))
        for closed in target_top.closed_masks)
    return SpectralMapReport(theta, source_top, target_top, images,
                             index_map, True, continuous)
