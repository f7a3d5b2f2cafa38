"""Lazy analysis bundle shared by the CLI, the check suite, and the oracle."""

from __future__ import annotations

from .bicomodule import Bicomodule
from .coprime import (CoproductCache, RestrictedSpectrum, restricted_spectrum,
                      spectrum)
from .endo import endo_algebra, enumerate_ideals
from .exceptions import BudgetExceeded
from .lattice import (check_lattice_budget, enumerate_lattice, predicates,
                      socle_report)
from .linalg import Subspace
from .zariski import build_topology, topology_report


class InstanceAnalysis:
    """Computes and caches the derived objects of one bicomodule instance.

    Every expensive object (endomorphism algebra, lattice, ideal lists,
    spectrum, topologies, restricted spectra) is computed at most once.
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
        self._predicates = None
        self._topologies = {}
        self._restricted = {}

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
                                      cache=self.coproducts,
                                      ideal_budget=self.ideal_budget,
                                      right_ideals=self.right_ideals)
        return self._spectrum

    @property
    def predicates(self):
        if self._predicates is None:
            self._predicates = predicates(self.m, self.lattice, self.endo,
                                          right_ideals=self.right_ideals,
                                          ideal_budget=self.ideal_budget,
                                          seed=self.seed,
                                          cache=self.coproducts)
        return self._predicates

    def topology(self, flavor: str = "fi"):
        found = self._topologies.get(flavor)
        if found is None:
            found = build_topology(self.spectrum, flavor=flavor)
            self._topologies[flavor] = found
        return found

    def topology_report(self, flavor: str = "fi"):
        return topology_report(self.topology(flavor))

    def restricted(self, l_sub: Subspace) -> RestrictedSpectrum:
        found = self._restricted.get(l_sub.key())
        if found is None:
            found = restricted_spectrum(self.m, self.lattice, self.endo,
                                        l_sub, ideal_budget=self.ideal_budget)
            self._restricted[l_sub.key()] = found
        return found

    def corad_standalone(self, l_sub: Subspace) -> Subspace:
        """The coprime coradical of L analyzed as a bicomodule of its own."""
        if l_sub.is_zero():
            return Subspace.zero(self.field, self.m.dim)
        return self.restricted(l_sub).cpcorad_in_parent

    def e_set(self):
        """Fully invariant L with standalone coprime coradical equal to L."""
        return [l for l in self.lattice.fi_elements()
                if self.corad_standalone(l) == l]


def analyze(m: Bicomodule, mode: str = "exhaustive", budget: int = 200000,
            ideal_budget: int = 50000, seed: int = 0) -> InstanceAnalysis:
    return InstanceAnalysis(m, mode=mode, budget=budget,
                            ideal_budget=ideal_budget, seed=seed)
