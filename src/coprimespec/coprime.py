"""Internal coproducts, fully coprime subbicomodules, and spectra.

For subbicomodules X, Y of M the internal coproduct is

    (X : Y)  =  the set of m in M with f(m) in Y for every f in An(X),

computed as the joint preimage of Y under a basis f of An(X)
(`linalg.joint_preimage`), with (X : Y) = M when An(X) = 0 or Y = M.
A nonzero fully invariant K is fully coprime
when K <= (X : Y) forces K <= X or K <= Y over fully invariant pairs, and
fully cosemiprime when K <= (X : X) forces K <= X.  The spectrum collects
the fully coprime elements from the lattice and the coproduct alone; the
annihilator-side prime data it is compared with (`ideal_side`) needs the
right ideals of the endomorphism ring, enumerated over finite prime fields.

Both tests scan only the maximal fully invariant X, Y with K not <= X, Y,
which is equivalent by monotonicity: Y <= Y' gives (X : Y) <= (X : Y'),
and X <= X' gives An(X') <= An(X), hence (X : Y) <= (X' : Y).  A violating
pair therefore stays violating when each member is raised to a maximal
element not containing K above it.  Those maximal elements are read from
the FI meet-irreducibles alone (`Lattice.fi_meet_irreducible`): two FI
upper covers Y != Z of such an X would both contain K, and their
intersection, fully invariant and strictly inside Y, is X.

The statements read (X : -) over the whole lattice as one row
(`CoproductCache.row`).  The coproduct preserves meets in Y: (X : Y)
meet (X : Y') is (X : Y meet Y'), because each preimage commutes with
intersections, and every element of a finite lattice is the meet of the
meet-irreducible elements above it; so a row is solved only at the
meet-irreducibles and read as meets everywhere else.  The spectrum scan
reads single pairs of FI meet-irreducibles, which a whole row would only
add to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bicomodule import Bicomodule
from .endo import (EndoAlgebra, an, endo_algebra, jacobson_radical, ke,
                   prime_masks, prime_radical, radical_char0, two_sided_span)
# Unused here; kept because perfbench/tracing.py patches it in this module.
from .endo import enumerate_ideals
from .exceptions import NotFullyInvariant, ZeroSubmodule
from .lattice import Lattice, LatticeMode, is_fully_invariant
from .linalg import Subspace, bits_of, combined_maps, joint_preimage


class CoproductCache:
    """Caches annihilators, internal coproducts and kernels of ideals, keyed
    by subspace identity, and coproduct rows keyed by X.

    A row (X : -) over a lattice (`row`) is solved only at the
    meet-irreducible elements, those with exactly one upper cover; the top
    gives M, and an element j with upper covers c1 != c2 gives the
    intersection of the entries at c1 and c2.  That is exact because
    c1 and c2 meet in j (their meet contains j and lies strictly inside c1,
    which covers j), and (X : Y) = the intersection of the joint preimages
    of Y, each of which commutes with intersections.  A row serves one
    lattice: the analysis's cache is the cache of its lattice.
    """

    def __init__(self, m: Bicomodule, endo: EndoAlgebra):
        self.m = m
        self.endo = endo
        self._an = {}
        self._maps = {}
        self._co = {}
        self._ke = {}
        self._rows = {}

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
        """The maps of a basis of An(X), in the form `joint_preimage` reads."""
        found = self._maps.get(x.key())
        if found is None:
            found = combined_maps(self.annihilator(x).subspace, self.endo.basis)
            self._maps[x.key()] = found
        return found

    def coproduct(self, x: Subspace, y: Subspace) -> Subspace:
        """The internal coproduct (X : Y) inside M."""
        key = (x.key(), y.key())
        found = self._co.get(key)
        if found is None:
            found = joint_preimage(self._annihilator_maps(x), y)
            self._co[key] = found
        return found

    def row(self, x: Subspace, lattice: Lattice) -> list:
        """(X : -) over `lattice`: entry j is the lattice index of
        (X : element j), or that subspace when it is not an element.
        Filled from the top index down, since covers come after the
        elements they cover."""
        found = self._rows.get(x.key())
        if found is None:
            found = self._rows[x.key()] = self._row(x, lattice)
        return found

    def _row(self, x: Subspace, lattice: Lattice) -> list:
        elements, covers = lattice.elements, lattice.upper_covers
        top = len(elements) - 1
        row = [top] * len(elements)
        for j in range(top - 1, -1, -1):
            up = covers[j]
            if len(up) == 1:
                cop = self.coproduct(x, elements[j])
            else:
                a, b = row[up[0]], row[up[1]]
                if isinstance(a, int) and isinstance(b, int):
                    row[j] = lattice.meet(1 << a | 1 << b)
                    continue
                cop = entry_subspace(lattice, a).intersect(entry_subspace(lattice, b))
            row[j] = row_entry(lattice, cop)
        return row


def row_entry(lattice: Lattice, sub: Subspace):
    """sub as a row entry of `CoproductCache.row`: its lattice index, or
    sub itself when it is not an element."""
    k = lattice.find(sub)
    return sub if k is None else k


def entry_subspace(lattice: Lattice, entry) -> Subspace:
    """A row entry of `CoproductCache.row` as a subspace."""
    return lattice.elements[entry] if isinstance(entry, int) else entry


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

    The kernel of the product is itself a coproduct, read from the cache:
    Ke(An(X) An(Y)) = (X : Ke(An(Y))) for any subspaces X and Y.  The
    product f g (f in An(X), g in An(Y)) applies f first, so m lies in the
    kernel of every such product exactly when g(f(m)) = 0 for all f and g,
    that is when f(m) lies in Ke(An(Y)) for every f in An(X).
    """
    if cache is None:
        cache = CoproductCache(m, endo)
    coprod = cache.coproduct(x, y)
    kernel_side = cache.coproduct(x, cache.ke(cache.annihilator(y).subspace))
    return coprod, kernel_side, kernel_side.contains(coprod)


def _require_candidate(k: Subspace, endo: EndoAlgebra):
    if k.is_zero():
        raise ZeroSubmodule("the zero subbicomodule is excluded from coprimality tests")
    if not is_fully_invariant(k, endo):
        raise NotFullyInvariant("coprimality is defined for fully invariant subbicomodules")


def _coprime_witness(k: Subspace, candidates, cache: CoproductCache):
    """A pair (X, Y) of candidates with K <= (X : Y), or None."""
    for x in candidates:
        for y in candidates:
            if cache.coproduct(x, y).contains(k):
                return x, y
    return None


def _cosemiprime_witness(k: Subspace, candidates, cache: CoproductCache):
    """A candidate X with K <= (X : X), or None."""
    for x in candidates:
        if cache.coproduct(x, x).contains(k):
            return x
    return None


def is_fully_coprime(m: Bicomodule, k: Subspace, lattice: Lattice,
                     endo: EndoAlgebra, cache: CoproductCache | None = None):
    """Returns (flag, witness); witness is a violating pair (X, Y) of
    maximal fully invariant elements not containing K, or None."""
    _require_candidate(k, endo)
    if cache is None:
        cache = CoproductCache(m, endo)
    witness = _coprime_witness(k, lattice.maximal_fi_not_containing(k), cache)
    return witness is None, witness


def is_fully_cosemiprime(m: Bicomodule, k: Subspace, lattice: Lattice,
                         endo: EndoAlgebra, cache: CoproductCache | None = None):
    """Returns (flag, witness); witness is a violating maximal X or None."""
    _require_candidate(k, endo)
    if cache is None:
        cache = CoproductCache(m, endo)
    witness = _cosemiprime_witness(k, lattice.maximal_fi_not_containing(k), cache)
    return witness is None, witness


def _rows(sub: Subspace):
    fmt = sub.field.format_scalar
    return [[fmt(a) for a in row] for row in sub.basis]


@dataclass
class SpectrumReport:
    """The fully coprime spectrum of a bicomodule relative to a
    subbicomodule lattice, as bitmasks over the lattice index: its members
    (`cpspec_bits`), the index of their sum (`cpcorad_index`) and the fully
    cosemiprime members (`csp_bits`).  `cpspec`, `cpcorad` and `csp` are
    the subspaces the masks name."""

    m: Bicomodule
    lattice: Lattice
    endo: EndoAlgebra
    cache: CoproductCache
    cpspec_bits: int
    cpcorad_index: int
    csp_bits: int
    notes: tuple

    @property
    def cpspec(self) -> tuple:
        return self.lattice.subset(self.cpspec_bits)

    @property
    def cpcorad(self) -> Subspace:
        return self.lattice.elements[self.cpcorad_index]

    @property
    def csp(self) -> tuple:
        return self.lattice.subset(self.csp_bits)

    @property
    def certified(self) -> bool:
        return self.lattice.certified

    def to_dict(self):
        return {
            "field": self.m.field.name,
            "dim": self.m.dim,
            "lattice_size": len(self.lattice),
            "lattice_mode": self.lattice.mode.value,
            "certified": self.certified,
            "endo_dim": self.endo.dim,
            "cpspec": [_rows(k) for k in self.cpspec],
            "cpcorad": _rows(self.cpcorad),
            "csp": [_rows(k) for k in self.csp],
            "notes": list(self.notes),
        }


def spectrum(m: Bicomodule, lattice: Lattice, endo: EndoAlgebra,
             cache: CoproductCache | None = None) -> SpectrumReport:
    """Computes the fully coprime spectrum, its coradical and the fully
    cosemiprime members.

    The scan runs over the nonzero members of `lattice.fi_bits`, which the
    lattice decided from its join-irreducibles against the same ring, so
    the witness scans run without `_require_candidate`; each member's
    candidates are found once and serve both tests."""
    if cache is None:
        cache = CoproductCache(m, endo)
    notes = []
    if not lattice.certified:
        notes.append("lattice is a generated family; memberships are lower bounds")

    points = cosemiprime = 0
    for i in bits_of(lattice.fi_bits & ~1):
        k = lattice.elements[i]
        candidates = lattice.maximal_fi_not_containing(k)
        if _coprime_witness(k, candidates, cache) is None:
            points |= 1 << i
        if _cosemiprime_witness(k, candidates, cache) is None:
            cosemiprime |= 1 << i
    return SpectrumReport(m, lattice, endo, cache, points,
                          lattice.join(points), cosemiprime, tuple(notes))


@dataclass(frozen=True)
class IdealSide:
    """Annihilator-side prime data beside a spectrum.

    `family` is the `Lattice` of the right ideals of the endomorphism ring;
    its `fi_bits` masks the two-sided ideals and `prime_bits` the prime
    ones, over its index.  `ep_bits` (`esp_bits`) masks the members of
    `lattice` with a prime (semiprime) annihilator, over the index of
    `lattice`.  `prad` and `jac` are the prime and Jacobson radicals of
    the ring, and `ke_prad` and `ke_jac` their kernels.  A field is None
    when it was not computed; `notes` says why."""

    lattice: Lattice | None = None
    ep_bits: int | None = None
    esp_bits: int | None = None
    prad: Subspace | None = None
    jac: Subspace | None = None
    ke_prad: Subspace | None = None
    ke_jac: Subspace | None = None
    family: Lattice | None = None
    prime_bits: int | None = None
    notes: tuple = ()

    @property
    def ep(self) -> tuple | None:
        return None if self.ep_bits is None else self.lattice.subset(self.ep_bits)

    @property
    def esp(self) -> tuple | None:
        return None if self.esp_bits is None else self.lattice.subset(self.esp_bits)

    @property
    def ideal_support(self) -> bool:
        """True when the prime and semiprime member classes were enumerated."""
        return self.ep_bits is not None

    @property
    def radical_support(self) -> bool:
        """True when the prime and Jacobson radicals of E were computed."""
        return self.prad is not None

    def to_dict(self):
        payload = {}
        if self.ideal_support:
            payload["ep"] = [_rows(k) for k in self.ep]
            payload["esp"] = [_rows(k) for k in self.esp]
        if self.radical_support:
            payload["prad_dim"] = self.prad.dim
            payload["jac_dim"] = self.jac.dim
            payload["ke_prad"] = _rows(self.ke_prad)
            payload["ke_jac"] = _rows(self.ke_jac)
        return payload


def ideal_family(endo: EndoAlgebra, right_ideals) -> Lattice:
    """The `Lattice` of the right ideals of `endo`, as `enumerate_ideals`
    lists and marks them; its fully invariant members are the two-sided
    ideals.

    Every right ideal is listed, and sums and intersections of right
    ideals are right ideals, so the list is closed as a `Lattice` needs.
    The two-sided members are decided from the join-irreducible j: E.j is
    j when j is two-sided (one left-side test) and the ideal EjE
    (`endo.two_sided_span`) otherwise.
    """
    def image(j):
        ideal = right_ideals[j]
        return ideal.subspace if ideal.is_two_sided else two_sided_span(endo, ideal.subspace)

    return Lattice([i.subspace for i in right_ideals], LatticeMode.EXHAUSTIVE, image,
                   irreducible=sum(1 << n for n, i in enumerate(right_ideals)
                                   if i.irreducible))


def ideal_side(spec: SpectrumReport, right_ideals) -> IdealSide:
    """The annihilator-side prime data of the bicomodule of `spec`.

    `right_ideals` is the list of right ideals of its endomorphism ring, or
    None when they were not enumerated (over budget, or over Q, where the
    radicals come from the characteristic-zero trace form).
    """
    endo, cache = spec.endo, spec.cache
    if not spec.m.field.is_finite:
        prad = radical_char0(endo)
        ke_prad = ke(prad, endo)
        return IdealSide(prad=prad, jac=prad, ke_prad=ke_prad, ke_jac=ke_prad,
                         notes=("ideal enumeration is unsupported over Q; prime and "
                                "semiprime member classes omitted (radicals via the "
                                "characteristic-zero trace form)",))
    if right_ideals is None:
        return IdealSide(notes=("right-ideal enumeration exceeded the budget; "
                                "prime and radical data omitted",))
    family = ideal_family(endo, right_ideals)
    primes, semiprimes = prime_masks(endo, family)
    lattice = spec.lattice
    ep = esp = 0
    for i in bits_of(lattice.fi_bits & ~1):
        # An annihilator is a right ideal, so it is a member of the family.
        j = family.index_of(cache.annihilator(lattice.elements[i]).subspace)
        ep |= (primes >> j & 1) << i
        esp |= (semiprimes >> j & 1) << i
    prad, jac = prime_radical(family, primes), jacobson_radical(family)
    return IdealSide(lattice=lattice, ep_bits=ep, esp_bits=esp, prad=prad,
                     jac=jac, ke_prad=ke(prad, endo), ke_jac=ke(jac, endo),
                     family=family, prime_bits=primes)
