"""Zariski-style topology on the fully coprime spectrum.

Points are the fully coprime subbicomodules.  Each lattice element L induces
the variety V(L) = set of points contained in L; the closed sets are the
varieties of fully invariant elements (flavor "fi") or of all lattice
elements (flavor "full").  Varieties are read from the lattice's containment
table and sums of points from `Lattice.join`.  The family is checked
literally for the topology axioms rather than assumed to satisfy them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import CoalgebraMorphism
from .coprime import SpectrumReport
from .linalg import Subspace, bits_of


def _canon(sets):
    return tuple(sorted({frozenset(s) for s in sets},
                        key=lambda s: (len(s), sorted(s))))


class ZariskiTopology:
    """Finite topological space whose points are fully coprime subbicomodules.

    The points are the lattice indices in `point_index`, and `positions`
    maps each of them to its position.  The varieties of all lattice
    elements are read once from the containment table: entry t of
    `varieties` is the set of positions of the points inside lattice
    element t.
    """

    def __init__(self, report: SpectrumReport, flavor: str):
        self.lattice = lattice = report.lattice
        self.flavor = flavor
        self.points = report.cpspec
        self.point_index = tuple(bits_of(report.cpspec_bits))
        self.positions = {t: i for i, t in enumerate(self.point_index)}
        inside = [0] * len(lattice)
        for i, t in enumerate(self.point_index):
            for j in bits_of(lattice.above[t] | 1 << t):
                inside[j] |= 1 << i
        self.varieties = tuple(frozenset(bits_of(v)) for v in inside)
        params = bits_of(lattice.fi_bits) if flavor == "fi" else range(len(lattice))
        self.closed = _canon([self.varieties[t] for t in params]
                             + [frozenset(), self.space])
        self._closed_set = frozenset(self.closed)
        self.is_topology, self.witness = _axiom_scan(self._closed_set, self.space)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def space(self) -> frozenset:
        return frozenset(range(self.size))

    def is_closed(self, subset) -> bool:
        return frozenset(subset) in self._closed_set

    def open_sets(self):
        return _canon(self.space - c for c in self.closed)

    def is_open(self, subset) -> bool:
        return frozenset(self.space - frozenset(subset)) in self._closed_set

    def v_of(self, l_sub: Subspace) -> frozenset:
        """Positions of the points inside l_sub; by `contains` only when l_sub
        is not a lattice element (a coproduct in Generated mode can be one)."""
        t = self.lattice.find(l_sub)
        if t is not None:
            return self.varieties[t]
        return frozenset(i for i, k in enumerate(self.points) if l_sub.contains(k))

    def position(self, sub: Subspace) -> int | None:
        """Position of sub among the points, or None when it is not a point."""
        t = self.lattice.find(sub)
        return None if t is None else self.positions.get(t)

    def phi(self, subset) -> int:
        """Lattice index of the sum of the points at a set of positions."""
        return self.lattice.join(sum(1 << self.point_index[i] for i in subset))

    def closure(self, subset) -> frozenset:
        subset = frozenset(subset)
        out = self.space
        for c in self.closed:
            if subset <= c and len(c) < len(out):
                out = c
        return frozenset(out)

    def point_closure(self, i: int) -> frozenset:
        return self.closure({i})


def _axiom_scan(closed, space):
    """Checks the closed-set axioms; returns (ok, witness-or-None).

    Pairs (a, b) of the sorted family are scanned on int masks, and only
    with a before b: union and intersection are symmetric, so the first
    failing ordered pair has a before b, and a pair (a, a) never fails.
    """
    family = set(closed)
    if frozenset() not in family:
        return False, ("missing", frozenset())
    if space not in family:
        return False, ("missing", space)
    sets = sorted(family, key=lambda s: (len(s), sorted(s)))
    masks = [sum(1 << i for i in s) for s in sets]
    members = set(masks)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if a | b not in members:
                return False, ("union", sets[i], sets[j])
            if a & b not in members:
                return False, ("intersection", sets[i], sets[j])
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
    opens = top.open_sets()
    n = top.size
    t0 = t1 = t2 = True
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            sep_x = [u for u in opens if x in u and y not in u]
            sep_y = [u for u in opens if y in u and x not in u]
            if not (sep_x or sep_y):
                t0 = False
            if not sep_x:
                t1 = False
            if not any(not (ux & uy) for ux in sep_x for uy in sep_y):
                t2 = False
    discrete = all(top.is_open({x}) for x in range(n))
    return SeparationReport(t0, t1, t2, discrete)


def is_irreducible_subset(top: ZariskiTopology, subset) -> bool:
    """Nonempty, and not covered by two closed sets unless one suffices."""
    subset = frozenset(subset)
    if not subset:
        return False
    for c1 in top.closed:
        if subset <= c1:
            continue
        rest = subset - c1
        for c2 in top.closed:
            if rest <= c2 and not subset <= c2:
                return False
    return True


def irreducible_components(top: ZariskiTopology):
    """Maximal irreducible closed subsets, canonically ordered."""
    irr = [c for c in top.closed if is_irreducible_subset(top, c)]
    out = [c for c in irr if not any(o != c and c < o for o in irr)]
    return _canon(out)


def is_connected_subset(top: ZariskiTopology, subset) -> bool:
    """Connectivity in the subspace topology; the empty set counts as connected."""
    subset = frozenset(subset)
    traces = sorted({c & subset for c in top.closed}, key=lambda s: (len(s), sorted(s)))
    for a in traces:
        if a and a != subset and (subset - a) in traces:
            return False
    return True


def generic_points(top: ZariskiTopology, subset):
    subset = frozenset(subset)
    return [i for i in subset if top.point_closure(i) == subset]


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
            "components": [sorted(c) for c in self.components],
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
        closed_count=len(top.closed),
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
    index_map = []
    defined = True
    for img in images:
        hit = target_top.position(img)
        if hit is None:
            defined = False
            break
        index_map.append(hit)
    if not defined:
        return SpectralMapReport(theta, source_top, target_top, images,
                                 None, False, False)
    continuous = True
    for closed in target_top.closed:
        pulled = frozenset(i for i, j in enumerate(index_map) if j in closed)
        if not source_top.is_closed(pulled):
            continuous = False
            break
    return SpectralMapReport(theta, source_top, target_top, images,
                             index_map, defined, continuous)
