"""Lazy analysis bundle shared by the CLI, the check suite, and the oracle."""

from __future__ import annotations

from .bicomodule import Bicomodule, restrict
from .coprime import CoproductCache, ideal_side, spectrum
from .endo import endo_algebra, enumerate_ideals
from .exceptions import BudgetExceeded, NotFullyInvariant, ZeroSubmodule
from .lattice import (Lattice, check_lattice_budget, enumerate_lattice,
                      is_fully_invariant, predicates, socle_report)
from .linalg import Subspace, bits_of, child_coords
from .zariski import build_topology


class InstanceAnalysis:
    """Computes and caches the derived objects of one bicomodule instance.

    Every expensive object (endomorphism algebra, lattice, right ideals,
    spectrum, ideal side, topologies, analyses of fully invariant parts) is
    computed at most once, on first use.
    """

    def __init__(self, m: Bicomodule, mode: str = "exhaustive",
                 budget: int = 200000, ideal_budget: int = 50000,
                 seed: int = 0):
        self.m = m
        self.mode = mode
        self.budget = budget
        self.ideal_budget = ideal_budget
        self.seed = seed
        self._endo = None
        self._lattice = None
        self._socle = None
        self._right_ideals = False
        self._cache = None
        self._spectrum = None
        self._ideal_side = None
        self._predicates = None
        self._topologies = {}
        self._restricted = {}
        self.lift = None

    @property
    def field(self):
        return self.m.field

    @property
    def endo(self):
        if self._endo is None:
            self._endo = endo_algebra(self.m)
        return self._endo

    @property
    def lattice(self):
        if self._lattice is None:
            # An instance over budget is rejected before the endomorphism solve.
            check_lattice_budget(self.m, self.mode, self.budget)
            self._lattice = enumerate_lattice(self.m, mode=self.mode,
                                              budget=self.budget,
                                              endo=self.endo, seed=self.seed)
        return self._lattice

    @property
    def socle(self):
        if self._socle is None:
            self._socle = socle_report(self.lattice)
        return self._socle

    @property
    def right_ideals(self):
        """The right ideals of the endomorphism ring, or None over Q or when
        their enumeration exceeds the ideal budget."""
        if self._right_ideals is False:
            if self.field.is_finite:
                try:
                    self._right_ideals = enumerate_ideals(
                        self.endo, side="right", budget=self.ideal_budget)
                except BudgetExceeded:
                    self._right_ideals = None
            else:
                self._right_ideals = None
        return self._right_ideals

    @property
    def coproducts(self) -> CoproductCache:
        if self._cache is None:
            self._cache = CoproductCache(self.m, self.endo)
        return self._cache

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = spectrum(self.m, self.lattice, self.endo,
                                      cache=self.coproducts)
        return self._spectrum

    @property
    def ideal_side(self):
        if self._ideal_side is None:
            self._ideal_side = ideal_side(self.spectrum, self.right_ideals)
        return self._ideal_side

    @property
    def predicates(self):
        if self._predicates is None:
            self._predicates = predicates(self.m, self.lattice, self.endo,
                                          self.right_ideals, seed=self.seed,
                                          cache=self.coproducts)
        return self._predicates

    def topology(self, flavor: str = "fi"):
        found = self._topologies.get(flavor)
        if found is None:
            found = build_topology(self.spectrum, flavor=flavor)
            self._topologies[flavor] = found
        return found

    def restricted(self, l_sub: Subspace) -> InstanceAnalysis:
        """The analysis of a fully invariant L <= M as a bicomodule of its
        own, in the coordinates of L's basis.

        L must be an element of M's lattice.  Its lattice is the part of
        M's lattice below L, and `child_coords` is an order isomorphism
        from that part onto it, so its containment table is M's, masked to
        the part and re-indexed through the child's sort order, and its
        `lift` maps each child index to the parent index of the same
        element.  Its endomorphism ring is L's own, so full invariance is
        decided afresh, once per element, into the child's `fi_mask`.
        """
        if l_sub.is_zero():
            raise ZeroSubmodule("cannot analyze the zero subbicomodule on its own")
        lat = self.lattice
        t = lat.index_of(l_sub)
        found = self._restricted.get(t)
        if found is None:
            if not lat.fi_mask[t]:
                raise NotFullyInvariant(
                    "restriction requires a fully invariant subbicomodule")
            sub_m, _ = restrict(self.m, l_sub)
            found = InstanceAnalysis(sub_m, mode=self.mode, budget=self.budget,
                                     ideal_budget=self.ideal_budget,
                                     seed=self.seed)
            down = sorted(((child_coords(l_sub, lat.elements[j]), j)
                           for j in bits_of(lat.below[t] | 1 << t)),
                          key=lambda pair: pair[0].sort_key())
            elements = [k for k, _ in down]
            found.lift = tuple(j for _, j in down)
            found._lattice = Lattice(
                sub_m, elements,
                [is_fully_invariant(k, found.endo) for k in elements],
                lat.mode, above=lat.induced_above(found.lift))
            self._restricted[t] = found
        return found

    def corad_standalone(self, t: int) -> int:
        """The index of the coprime coradical of lattice element t analyzed
        as a bicomodule of its own."""
        if t == 0:
            return 0
        if t == len(self.lattice) - 1:
            # t is M, whose RREF basis is the identity: restrict(M, M) is M.
            return self.spectrum.cpcorad_index
        child = self.restricted(self.lattice.elements[t])
        return child.lift[child.spectrum.cpcorad_index]

    def e_set(self) -> int:
        """Bitmask of the fully invariant L whose standalone coprime
        coradical is L."""
        return sum(1 << t for t in bits_of(self.lattice.fi_bits)
                   if self.corad_standalone(t) == t)


def analyze(m: Bicomodule, mode: str = "exhaustive", budget: int = 200000,
            ideal_budget: int = 50000, seed: int = 0) -> InstanceAnalysis:
    return InstanceAnalysis(m, mode=mode, budget=budget,
                            ideal_budget=ideal_budget, seed=seed)
