"""Internal coproducts, fully coprime subbicomodules, and spectra.

For subbicomodules X, Y of M the internal coproduct is

    (X : Y)  =  the set of m in M with f(m) in Y for every f in An(X),

computed as one kernel: with N_Y a matrix whose kernel is Y, (X : Y) is
the kernel of the stacked N_Y f over a basis f of An(X) (an intersection of
kernels is the kernel of the stacked matrix), with (X : Y) = M when
An(X) = 0 or Y = M.  A nonzero fully invariant K is fully coprime
when K <= (X : Y) forces K <= X or K <= Y over fully invariant pairs, and
fully cosemiprime when K <= (X : X) forces K <= X.  The spectrum collects
the fully coprime elements; annihilator-side prime data is available over
finite prime fields where two-sided ideals can be enumerated.

Both tests scan only the maximal fully invariant X, Y with K not <= X, Y,
which is equivalent by monotonicity: Y <= Y' gives (X : Y) <= (X : Y'),
and X <= X' gives An(X') <= An(X), hence (X : Y) <= (X' : Y).  A violating
pair therefore stays violating when each member is raised to a maximal
element not containing K above it.
"""

from __future__ import annotations

from .bicomodule import Bicomodule, restrict
from .endo import (EndoAlgebra, IdealPoset, an, enumerate_ideals,
                   endo_algebra, ideal_product, jacobson_radical, ke,
                   prime_radical, radical_char0)
from .exceptions import BudgetExceeded, NotFullyInvariant, ZeroSubmodule
from .lattice import Lattice, is_fully_invariant
from .linalg import Matrix, Subspace, kernel


class CoproductCache:
    """Caches annihilators, internal coproducts and kernels of ideals, keyed
    by subspace identity."""

    def __init__(self, m: Bicomodule, endo: EndoAlgebra):
        self.m = m
        self.endo = endo
        self._an = {}
        self._maps = {}
        self._co = {}
        self._ke = {}

    def annihilator(self, x: Subspace):
        found = self._an.get(x.key())
        if found is None:
            found = an(x, self.endo)
            self._an[x.key()] = found
        return found

    def ke(self, ideal: Subspace) -> Subspace:
        """Ke of a coordinate subspace of the endomorphism ring."""
        found = self._ke.get(ideal.key())
        if found is None:
            found = ke(ideal, self.endo)
            self._ke[ideal.key()] = found
        return found

    def _annihilator_maps(self, x: Subspace):
        """The matrices of a basis of An(X)."""
        found = self._maps.get(x.key())
        if found is None:
            found = [self.endo.element(coords)
                     for coords in self.annihilator(x).subspace.basis]
            self._maps[x.key()] = found
        return found

    def coproduct(self, x: Subspace, y: Subspace) -> Subspace:
        """The internal coproduct (X : Y) inside M."""
        key = (x.key(), y.key())
        found = self._co.get(key)
        if found is not None:
            return found
        maps = self._annihilator_maps(x)
        if not maps or y.is_full():
            result = Subspace.full(self.m.field, self.m.dim)
        else:
            n_y = y.vanishing()
            result = kernel(Matrix.stack([n_y @ f for f in maps]))
        self._co[key] = result
        return result


def internal_coproduct(m: Bicomodule, x: Subspace, y: Subspace,
                       endo: EndoAlgebra | None = None) -> Subspace:
    if endo is None:
        endo = endo_algebra(m)
    return CoproductCache(m, endo).coproduct(x, y)


def ke_product_bound(m: Bicomodule, x: Subspace, y: Subspace,
                     endo: EndoAlgebra, cache: CoproductCache | None = None):
    """Compares (X : Y) with Ke(An(X) An(Y)).

    Returns (coproduct, kernel_of_product, contained) where contained states
    whether the coproduct sits inside the kernel of the ideal product.
    """
    if cache is None:
        cache = CoproductCache(m, endo)
    coprod = cache.coproduct(x, y)
    product = ideal_product(endo, cache.annihilator(x).subspace,
                            cache.annihilator(y).subspace)
    kernel_side = cache.ke(product)
    return coprod, kernel_side, kernel_side.contains(coprod)


def _require_candidate(k: Subspace, endo: EndoAlgebra):
    if k.is_zero():
        raise ZeroSubmodule("the zero subbicomodule is excluded from coprimality tests")
    if not is_fully_invariant(k, endo):
        raise NotFullyInvariant("coprimality is defined for fully invariant subbicomodules")


def is_fully_coprime(m: Bicomodule, k: Subspace, lattice: Lattice,
                     endo: EndoAlgebra, cache: CoproductCache | None = None):
    """Returns (flag, witness); witness is a violating pair (X, Y) of
    maximal fully invariant elements not containing K, or None."""
    _require_candidate(k, endo)
    if cache is None:
        cache = CoproductCache(m, endo)
    candidates = lattice.maximal_fi_not_containing(k)
    for x in candidates:
        for y in candidates:
            if cache.coproduct(x, y).contains(k):
                return False, (x, y)
    return True, None


def is_fully_cosemiprime(m: Bicomodule, k: Subspace, lattice: Lattice,
                         endo: EndoAlgebra, cache: CoproductCache | None = None):
    """Returns (flag, witness); witness is a violating maximal X or None."""
    _require_candidate(k, endo)
    if cache is None:
        cache = CoproductCache(m, endo)
    for x in lattice.maximal_fi_not_containing(k):
        if cache.coproduct(x, x).contains(k):
            return False, x
    return True, None


class SpectrumReport:
    """Spectral data of a bicomodule relative to a subbicomodule lattice."""

    def __init__(self, m, lattice, endo, cache, cpspec, cpcorad, csp,
                 ep, esp, prad, jac, ke_prad, ke_jac, notes,
                 right_ideals=None, two_sided=None, primes=None):
        self.m = m
        self.lattice = lattice
        self.endo = endo
        self.cache = cache
        self.cpspec = tuple(cpspec)
        self.cpcorad = cpcorad
        self.csp = tuple(csp)
        self.ep = None if ep is None else tuple(ep)
        self.esp = None if esp is None else tuple(esp)
        self.prad = prad
        self.jac = jac
        self.ke_prad = ke_prad
        self.ke_jac = ke_jac
        self.notes = tuple(notes)
        self.right_ideals = right_ideals
        self.two_sided = two_sided
        self.primes = primes

    @property
    def certified(self) -> bool:
        return self.lattice.certified

    @property
    def ideal_support(self) -> bool:
        """True when the prime and semiprime member classes were enumerated."""
        return self.ep is not None

    @property
    def radical_support(self) -> bool:
        """True when the prime and Jacobson radicals of E were computed."""
        return self.prad is not None

    def is_cpspec_member(self, k: Subspace) -> bool:
        return any(k == p for p in self.cpspec)

    def to_dict(self):
        fmt = self.m.field.format_scalar
        basis = lambda s: [[fmt(a) for a in row] for row in s.basis]
        payload = {
            "field": self.m.field.name,
            "dim": self.m.dim,
            "lattice_size": len(self.lattice),
            "lattice_mode": self.lattice.mode.value,
            "certified": self.certified,
            "endo_dim": self.endo.dim,
            "cpspec": [basis(k) for k in self.cpspec],
            "cpcorad": basis(self.cpcorad),
            "csp": [basis(k) for k in self.csp],
            "notes": list(self.notes),
        }
        if self.ideal_support:
            payload["ep"] = [basis(k) for k in self.ep]
            payload["esp"] = [basis(k) for k in self.esp]
        if self.radical_support:
            payload["prad_dim"] = self.prad.dim
            payload["jac_dim"] = self.jac.dim
            payload["ke_prad"] = basis(self.ke_prad)
            payload["ke_jac"] = basis(self.ke_jac)
        return payload


def spectrum(m: Bicomodule, lattice: Lattice, endo: EndoAlgebra,
             cache: CoproductCache | None = None,
             ideal_budget: int = 50000,
             right_ideals=None) -> SpectrumReport:
    """Computes the fully coprime spectrum and its annihilator-side companions."""
    if cache is None:
        cache = CoproductCache(m, endo)
    notes = []
    if not lattice.certified:
        notes.append("lattice is a generated family; memberships are lower bounds")

    cpspec = []
    csp = []
    for k in lattice.nonzero_fi_elements():
        flag, _ = is_fully_coprime(m, k, lattice, endo, cache)
        if flag:
            cpspec.append(k)
        flag, _ = is_fully_cosemiprime(m, k, lattice, endo, cache)
        if flag:
            csp.append(k)

    cpcorad = Subspace.zero(m.field, m.dim)
    for k in cpspec:
        cpcorad = cpcorad.sum_with(k)

    ep = esp = prad = jac = ke_prad = ke_jac = None
    two_sided = primes = None
    if m.field.is_finite and right_ideals is None:
        try:
            right_ideals = enumerate_ideals(endo, side="right", budget=ideal_budget)
        except BudgetExceeded:
            notes.append("right-ideal enumeration exceeded the budget; "
                         "prime and radical data omitted")
    if m.field.is_finite and right_ideals is not None:
        two_sided = [i for i in right_ideals if i.is_two_sided]
        poset = IdealPoset(endo, two_sided)
        primes = poset.primes()
        ep = [k for k in lattice.nonzero_fi_elements()
              if poset.is_prime(cache.annihilator(k))]
        esp = [k for k in lattice.nonzero_fi_elements()
               if poset.is_semiprime(cache.annihilator(k))]
        prad = prime_radical(endo, poset)
        jac = jacobson_radical(endo, right_ideals)
        ke_prad = ke(prad, endo)
        ke_jac = ke(jac, endo)
    elif not m.field.is_finite:
        prad = jac = radical_char0(endo)
        ke_prad = ke_jac = ke(prad, endo)
        notes.append("ideal enumeration is unsupported over Q; prime and "
                     "semiprime member classes omitted (radicals via the "
                     "characteristic-zero trace form)")

    return SpectrumReport(m, lattice, endo, cache, cpspec, cpcorad, csp,
                          ep, esp, prad, jac, ke_prad, ke_jac, notes,
                          right_ideals, two_sided, primes)


class RestrictedSpectrum:
    """Standalone spectral analysis of a fully invariant subbicomodule."""

    def __init__(self, sub_bicomodule, embed, child_lattice, child_endo,
                 report, cpspec_in_parent, cpcorad_in_parent, csp_in_parent):
        self.sub_bicomodule = sub_bicomodule
        self.embed = embed
        self.child_lattice = child_lattice
        self.child_endo = child_endo
        self.report = report
        self.cpspec_in_parent = tuple(cpspec_in_parent)
        self.cpcorad_in_parent = cpcorad_in_parent
        self.csp_in_parent = tuple(csp_in_parent)


def map_through(embed, child: Subspace, ambient_dim: int) -> Subspace:
    """Pushes a subspace forward along an injection matrix."""
    vectors = [embed.apply(row) for row in child.basis]
    return Subspace.from_vectors(embed.field, ambient_dim, vectors)


def restricted_spectrum(m: Bicomodule, lattice: Lattice, endo: EndoAlgebra,
                        l_sub: Subspace, ideal_budget: int = 50000) -> RestrictedSpectrum:
    """Treats a fully invariant L <= M as a bicomodule in its own right.

    The subbicomodule lattice of L is induced from the parent lattice, the
    endomorphism algebra of L is computed fresh, and the resulting spectrum
    is mapped back into the coordinates of M for comparison.
    """
    if l_sub.is_zero():
        raise ZeroSubmodule("cannot analyze the zero subbicomodule on its own")
    if not is_fully_invariant(l_sub, endo):
        raise NotFullyInvariant("restriction requires a fully invariant subbicomodule")
    sub_m, embed = restrict(m, l_sub)
    child_endo = endo_algebra(sub_m)
    child_elements = []
    for k in lattice.elements:
        if l_sub.contains(k):
            rows = [l_sub.coords_of(v) for v in k.basis]
            child_elements.append(Subspace.from_vectors(m.field, l_sub.dim, rows))
    child_elements.sort(key=lambda s: s.sort_key())
    child_lattice = Lattice(sub_m, child_elements,
                            [is_fully_invariant(k, child_endo) for k in child_elements],
                            lattice.mode)
    report = spectrum(sub_m, child_lattice, child_endo, ideal_budget=ideal_budget)
    back = [map_through(embed, k, m.dim) for k in report.cpspec]
    corad_back = map_through(embed, report.cpcorad, m.dim)
    csp_back = [map_through(embed, k, m.dim) for k in report.csp]
    return RestrictedSpectrum(sub_m, embed, child_lattice, child_endo,
                              report, back, corad_back, csp_back)
