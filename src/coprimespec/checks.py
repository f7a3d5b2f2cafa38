"""Literal verification of the structural statements behind the spectra.

Each registered check receives a fully analyzed instance, decides its
hypotheses from the computed predicate report, and evaluates the statement
case by case over the enumerated lattice.  Outcomes:

PASS         hypotheses hold and every quantified case checked out;
VACUOUS      a hypothesis failed, or the check could not fail (the detail
             says which), so the statement asserts nothing here;
FAIL         hypotheses hold but a concrete counterexample was found;
UNSUPPORTED  the conclusion needs ideal enumeration that is unavailable
             (rationals, or a blown ideal budget).

A failing verdict always carries a witness payload naming the offending
subspaces.  Checks about morphisms run on one-sided comodule forms and are
exposed separately through `morphism_checks`.

Statements are data.  A `_Family` holds a standing gate, a setup that
computes the state its parts share, and a fixed tuple of `_Part` records;
a part has its name, its gates, a witness search, and its PASS and FAIL
details.  One runner, `_run`, decides every part in this order:

1. the family gate: unmet standing hypotheses make every part VACUOUS,
   with one `needs ...` detail, and the setup is skipped;
2. the part's own gates, in order: the first that closes gives VACUOUS
   (an unmet hypothesis, or a part that cannot fail) or UNSUPPORTED (no
   ideal enumeration);
3. the search: it yields counterexamples only, and the first one fails the
   part, so a search stops where its first counterexample is found.  A
   witness is a dict, or a (detail, dict) pair where a part has several
   FAIL details;
4. otherwise PASS, marked relative to the enumerated lattice when
   `run_checks` runs on an uncertified one.

So every family emits the same parts, in the same order, on every instance.

Order, sums and intersections of lattice elements are read from the
lattice's containment table, and varieties from the topology's variety
table.  The topological statements read the specialization preorder of
`zariski`; where that would compare the preorder with itself, the check
side reads the members of the closed family instead.  Monotonicity of
(X : -) is scanned on cover pairs only: any Y1 < Y2 is joined by a chain
of covers, and inclusion is transitive.

The coproduct statements read (X : -) as one row per X
(`CoproductCache.row`): solved at the meet-irreducible elements and, at
an element j with two or more upper covers, the meet of the entries at
its first two covers, which is (X : j) because the coproduct preserves
meets in Y and those covers meet in j.  A meet lies inside each of its
terms, so the comparisons of j with its first two covers hold by
construction; for an element with exactly two upper covers the scan
cannot fail there.  Real comparisons remain: a meet-irreducible
element's solved entry against its cover's entry, a third or later cover,
X <= (X : Y), fully invariant Y <= (X : Y), full invariance of (X : Y),
and, in part 2, (X : Y) against (X : Ke(An(Y))) for lattice Y.  With the
meet rule, these comparisons are equivalent to monotonicity on all
pairs: the rule gives the entries at the first two covers, the scan
tests every other cover pair, and every comparable pair is a chain of
cover pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from types import SimpleNamespace
from typing import Callable

from .analysis import InstanceAnalysis, analyze
from .bicomodule import centralizer, phi_matrix
from .coalgebra import CoalgebraMorphism, identity_morphism
from .coprime import (entry_subspace, is_fully_coprime, is_fully_cosemiprime,
                      row_entry)
from .endo import coordinate_vectors, quotient_cogenerated
from .exceptions import CoalgebraMismatch
from .lattice import cyclic_subbicomodule, is_fully_invariant
from .linalg import (Matrix, Subspace, bits_of, is_stable, maximal_bits,
                     preimage)
from .zariski import (image_subspace, irreducible_components,
                      is_connected_subset, is_irreducible_subset, separation,
                      spectral_map)

PASS = "PASS"
VACUOUS = "VACUOUS"
FAIL = "FAIL"
UNSUPPORTED = "UNSUPPORTED"


@dataclass
class Verdict:
    """Outcome of one statement part on one instance."""

    statement: str
    status: str
    detail: str = ""
    witness: dict | None = None

    def __post_init__(self):
        if self.status == FAIL and self.witness is None:
            raise ValueError("a failing verdict needs a witness")

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_dict(self):
        return {"statement": self.statement, "status": self.status,
                "detail": self.detail, "witness": self.witness}


def _describe(sub: Subspace):
    field = sub.field
    return {"dim": sub.dim,
            "basis": [[field.format_scalar(x) for x in row] for row in sub.basis]}


def _lift(child: InstanceAnalysis, mask: int) -> int:
    """A mask over a child analysis's lattice as a mask over its parent's."""
    return sum(1 << child.lift[c] for c in bits_of(mask))


def _vacuous(statement: str, gaps) -> Verdict:
    return Verdict(statement, VACUOUS, "needs " + ", ".join(gaps))


def _ideal_excuse(a: InstanceAnalysis) -> str:
    if not a.field.is_finite:
        return "ideal enumeration is unsupported over Q"
    return "right-ideal enumeration exceeded the budget"


# --- statement parts as data ------------------------------------------------

@dataclass(frozen=True)
class _Part:
    """One statement part: `search(s)` yields counterexamples only; a part
    whose gates always close has none."""

    name: str
    search: Callable | None
    passed: str | Callable = ""
    failed: str = ""
    gates: tuple = ()


@dataclass(frozen=True)
class _Family:
    """A statement family: `gate(s)` lists unmet standing hypotheses, and
    `setup(s)` adds the state the parts share once the gate is open."""

    parts: tuple
    gate: Callable | None = None
    setup: Callable | None = None


def _run(family: _Family, s, relative: bool = False) -> list:
    gaps = family.gate(s) if family.gate else []
    if not gaps and family.setup:
        family.setup(s)
    return [_decide(part, s, gaps, relative) for part in family.parts]


def _decide(part: _Part, s, gaps, relative: bool) -> Verdict:
    if gaps:
        return _vacuous(part.name, gaps)
    for gate in part.gates:
        closed = gate(s)
        if closed:
            return Verdict(part.name, *closed)
    found = next(part.search(s), None)
    if found is not None:
        detail, witness = found if isinstance(found, tuple) else (part.failed,
                                                                  found)
        return Verdict(part.name, FAIL, detail, witness)
    detail = part.passed(s) if callable(part.passed) else part.passed
    if relative and "enumerated lattice" not in detail:
        detail += " (relative to the enumerated lattice)"
    return Verdict(part.name, PASS, detail)


# Hypotheses by the name a VACUOUS detail gives them.  Instance families read
# `s.a`; the morphism family reads its comodule forms `s.ps` and `s.pt`.
_HYPOTHESES = {
    "duo": lambda s: s.a.predicates.duo,
    "self-injective": lambda s: s.a.predicates.self_injective,
    "Property S": lambda s: s.a.predicates.property_s,
    "self-cogenerator": lambda s: s.a.predicates.self_cogenerator,
    "intrinsically injective":
        lambda s: s.a.predicates.intrinsically_injective,
    "right-duo endomorphism ring": lambda s: s.a.predicates.e_right_duo,
    "Property S on the fully invariant lattice":
        lambda s: s.a.predicates.property_s_fi,
    "every prime ideal maximal": lambda s: _primes_maximal(s.a.ideal_side),
    "matching left and right coalgebras": lambda s: s.cen is not None,
    "a coalgebra viewed as its own bicomodule":
        lambda s: s.a.m.regular_of is not None,
    "source intrinsically injective": lambda s: s.ps.intrinsically_injective,
    "source self-cogenerator": lambda s: s.ps.self_cogenerator,
    "target self-cogenerator": lambda s: s.pt.self_cogenerator,
    "injective into self-injective, or right-duo source dual ring":
        lambda s: s.route_a or s.ps.e_right_duo,
    "source duo": lambda s: s.ps.duo,
    "target duo": lambda s: s.pt.duo,
    "a well-defined point map": lambda s: s.defined,
    "every source point a preimage of a target point":
        lambda s: _points_are_preimages(s),
    "injective morphism": lambda s: s.injective,
    "self-injective target": lambda s: s.pt.self_injective,
    "an isomorphism": lambda s: s.theta.is_bijective(),
}


def _unmet(s, *names) -> list:
    return [name for name in names if not _HYPOTHESES[name](s)]


def _standing_gaps(s):
    """Unmet members of the standing hypothesis block duo + self-injective +
    Property S that governs every topological statement."""
    return _unmet(s, "duo", "self-injective", "Property S")


def _needs(*names):
    """A gate: VACUOUS, naming every unmet hypothesis."""
    def gate(s):
        gaps = _unmet(s, *names)
        return (VACUOUS, "needs " + ", ".join(gaps)) if gaps else None
    return gate


def _ideals(available):
    """A gate: UNSUPPORTED when the ideal side it reads was not enumerated."""
    def gate(s):
        return None if available(s) else (UNSUPPORTED, _ideal_excuse(s.a))
    return gate


def _cannot_fail(detail):
    """The gate of a part that computes nothing: always VACUOUS."""
    return lambda s: (VACUOUS, detail)


def _sampled(detail, side):
    """A PASS detail that says so when intrinsic injectivity was sampled."""
    return lambda s: detail + (f" ({side} sampled)"
                               if s.a.predicates.intrinsic_partial else "")


# --- annihilator / kernel Galois correspondence -----------------------------

def _galois_setup(s):
    a = s.a
    s.elements = list(a.lattice.elements)
    s.kes = [a.coproducts.ke(a.coproducts.annihilator(x).subspace)
             for x in s.elements]


def _galois_pair(s):
    lat, endo, cache = s.a.lattice, s.a.endo, s.a.coproducts
    elements, kes = s.elements, s.kes
    for fi, x, kex in zip(lat.fi_mask, elements, kes):
        ann = cache.annihilator(x)
        if not ann.is_right:
            yield {"subbicomodule": _describe(x),
                   "problem": "annihilator is not a right ideal"}
        if fi and not ann.is_two_sided:
            yield {"subbicomodule": _describe(x),
                   "problem": "annihilator of a fully invariant member "
                              "is not two-sided"}
        if not kex.contains(x):
            yield {"subbicomodule": _describe(x),
                   "problem": "Ke(An(X)) does not contain X"}
        if ann.is_two_sided and not is_fully_invariant(kex, endo):
            yield {"subbicomodule": _describe(x),
                   "problem": "kernel of a two-sided ideal is not "
                              "fully invariant"}
    for i, x in enumerate(elements):
        ax = cache.annihilator(x)
        for j in bits_of(lat.above[i] | 1 << i):
            y = elements[j]
            if not ax.subspace.contains(cache.annihilator(y).subspace):
                yield {"x": _describe(x), "y": _describe(y),
                       "problem": "An is not order reversing"}
            if not kes[j].contains(kes[i]):
                yield {"x": _describe(x), "y": _describe(y),
                       "problem": "Ke is not order reversing"}
    for ideal in s.a.right_ideals or []:
        back = cache.annihilator(cache.ke(ideal.subspace))
        if not back.subspace.contains(ideal.subspace):
            yield {"ideal_dim": ideal.subspace.dim,
                   "problem": "An(Ke(I)) does not contain I"}


def _galois_fixed_points(s):
    a = s.a
    for k, kek in zip(s.elements, s.kes):
        fixed = kek == k
        cogen = quotient_cogenerated(a.m, k)
        if fixed != cogen:
            yield {"k": _describe(k), "ke_an_fixed": fixed,
                   "quotient_cogenerated": cogen}
    if a.predicates.self_cogenerator:
        seen = {}
        for k in s.elements:
            key = a.coproducts.annihilator(k).subspace.key()
            if key in seen:
                yield {"k1": _describe(seen[key]), "k2": _describe(k),
                       "problem": "An is not injective although the "
                                  "instance is a self-cogenerator"}
            seen[key] = k


def _galois_injective(s):
    lat, cache, elements = s.a.lattice, s.a.coproducts, s.elements
    for i, x in enumerate(elements):
        for j, y in enumerate(elements[i:], i):
            lhs = cache.annihilator(elements[lat.meet(1 << i | 1 << j)]).subspace
            rhs = cache.annihilator(x).subspace.sum_with(
                cache.annihilator(y).subspace)
            if lhs != rhs:
                yield {"x": _describe(x), "y": _describe(y),
                       "an_of_meet_dim": lhs.dim, "sum_of_an_dim": rhs.dim}
    if not s.a.predicates.intrinsically_injective:
        yield {"problem": "AnKe fails to fix some right ideal"}


# --- duo transfer between the instance and its endomorphism ring ------------

def _right_duo_decided(s):
    return s.a.predicates.e_right_duo is not None


def _duo_from_right_duo_ring(s):
    lat = s.a.lattice
    if not s.a.predicates.duo:
        bad = lat.elements[lat.fi_mask.index(False)]
        yield {"not_fully_invariant": _describe(bad)}


def _right_duo_ring(s):
    if not s.a.predicates.e_right_duo:
        bad = next(i for i in s.a.right_ideals if not i.is_two_sided)
        yield {"right_ideal_dim": bad.subspace.dim}


def _duo_parts(s):
    lat = s.a.lattice
    for l_sub in lat.subset(lat.fi_bits & ~1):
        if l_sub.is_full():
            continue
        child = s.a.restricted(l_sub).lattice
        if not all(child.fi_mask):
            idx = child.fi_mask.index(False)
            yield {"l": _describe(l_sub),
                   "non_duo_child": _describe(child.elements[idx])}


# --- internal coproduct basics and the annihilator-product bound ------------

def _bound_setup(s):
    """The probes are the lattice elements and three seeded random lines;
    `rows[i]` is the coproduct row of probe i over the lattice, and
    `kernels[j]` the row entry of Ke(An(Y)) for probe j as Y (an element
    in exhaustive mode, where every entry is)."""
    a = s.a
    lat, cache = a.lattice, a.coproducts
    rng = Random(a.seed)
    s.probes = list(lat.elements)
    for _ in range(3):
        vec = tuple(a.field.random_element(rng) for _ in range(a.m.dim))
        s.probes.append(Subspace.from_vectors(a.field, a.m.dim, [vec]))
    s.rows = [cache.row(x, lat) for x in s.probes]
    s.kernels = [row_entry(lat, cache.ke(cache.annihilator(y).subspace))
                 for y in s.probes]


def _kernel_side(s, i: int, j: int):
    """The row entry of Ke(An(X) An(Y)) = (X : Ke(An(Y))) for probe i as X
    and probe j as Y."""
    k = s.kernels[j]
    if isinstance(k, int):
        return s.rows[i][k]
    return row_entry(s.a.lattice, s.a.coproducts.coproduct(s.probes[i], k))


def _entry_le(lat, e1, e2) -> bool:
    """Whether row entry e1 lies in row entry e2, by the containment table
    when both are elements."""
    if isinstance(e1, int) and isinstance(e2, int):
        return lat.le(e1, e2)
    return entry_subspace(lat, e2).contains(entry_subspace(lat, e1))


def _coproduct_basics(s):
    lat, endo = s.a.lattice, s.a.endo
    elements = lat.elements
    rows = s.rows[:len(elements)]
    for i, (x, row) in enumerate(zip(elements, rows)):
        for j, (y, c) in enumerate(zip(elements, row)):
            if not _entry_le(lat, i, c):
                yield {"x": _describe(x), "y": _describe(y),
                       "problem": "X is not inside (X : Y)"}
            if lat.fi_mask[j] and not _entry_le(lat, j, c):
                yield {"x": _describe(x), "y": _describe(y),
                       "problem": "fully invariant Y is not inside (X : Y)"}
            if lat.fi_mask[i] and not (lat.fi_mask[c] if isinstance(c, int)
                                       else is_fully_invariant(c, endo)):
                yield {"x": _describe(x), "y": _describe(y),
                       "problem": "(X : Y) not fully invariant although X is"}
    covers = lat.upper_covers
    for x, row in zip(elements, rows):
        for j1, low in enumerate(row):
            for j2 in covers[j1]:
                if not _entry_le(lat, low, row[j2]):
                    yield {"x": _describe(x), "y1": _describe(elements[j1]),
                           "y2": _describe(elements[j2]),
                           "problem": "(X : -) is not monotone"}


def _bound_escapes(s):
    lat, cache, n = s.a.lattice, s.a.coproducts, len(s.a.lattice)
    for i, x in enumerate(s.probes):
        for j, y in enumerate(s.probes):
            cop = s.rows[i][j] if j < n else row_entry(lat, cache.coproduct(x, y))
            if not _entry_le(lat, cop, _kernel_side(s, i, j)):
                yield {"x": _describe(x), "y": _describe(y)}


def _bound_equality(s):
    lat = s.a.lattice
    for i, x in enumerate(s.probes):
        for j, y in enumerate(lat.elements):
            cop, kernel_side = s.rows[i][j], _kernel_side(s, i, j)
            if cop != kernel_side:
                yield {"x": _describe(x), "y": _describe(y),
                       "coproduct_dim": entry_subspace(lat, cop).dim,
                       "kernel_dim": entry_subspace(lat, kernel_side).dim}


# --- prime ideals of the endomorphism ring against the spectrum -------------

def _radical_setup(s):
    spec, s.ideals = s.a.spectrum, s.a.ideal_side
    s.cp, s.csp = spec.cpspec_bits, spec.csp_bits
    s.ep, s.esp = s.ideals.ep_bits, s.ideals.esp_bits


def _annihilators_coprime(s):
    lat = s.a.lattice
    if s.ep & ~s.cp:
        yield ("a prime-annihilator member is not fully coprime",
               {"k": _describe(lat.subset(s.ep & ~s.cp)[0])})
    if s.esp & ~s.csp:
        yield ("a semiprime-annihilator member is not fully cosemiprime",
               {"k": _describe(lat.subset(s.esp & ~s.csp)[0])})


def _spectrum_annihilators_prime(s):
    lat = s.a.lattice
    for missing in (s.cp & ~s.ep, s.csp & ~s.esp):
        if missing:
            yield {"k": _describe(lat.subset(missing)[0])}
    # The annihilator-prime classes can also be the larger side.
    for extra in (s.ep & ~s.cp, s.esp & ~s.csp):
        if extra:
            yield ("annihilator-prime class member outside the spectrum",
                   {"k": _describe(lat.subset(extra)[0])})


def _radical_matches_coradical(s):
    spec, ideals = s.a.spectrum, s.ideals
    an_corad = s.a.coproducts.annihilator(spec.cpcorad).subspace
    if ideals.prad != an_corad or ideals.ke_prad != spec.cpcorad:
        yield {"prad_dim": ideals.prad.dim, "an_corad_dim": an_corad.dim,
               "ke_prad": _describe(ideals.ke_prad),
               "cpcorad": _describe(spec.cpcorad)}


def _cosemiprime_iff_full_coradical(s):
    a = s.a
    whole = Subspace.full(a.field, a.m.dim)
    cosemi, _ = is_fully_cosemiprime(a.m, whole, a.lattice, a.endo,
                                     a.coproducts)
    if cosemi != (a.spectrum.cpcorad == whole):
        yield {"fully_cosemiprime": cosemi,
               "cpcorad": _describe(a.spectrum.cpcorad)}


# --- spectra of fully invariant parts ----------------------------------------

def _restricted_spectra(s):
    # A child mask lifts by index: `lift` is the order isomorphism of the
    # child's lattice onto the part of the parent's below L.
    a = s.a
    lat, spec = a.lattice, a.spectrum
    for t in bits_of(lat.fi_bits & ~1):
        l_sub = lat.elements[t]
        if l_sub.is_full():
            continue
        r = a.restricted(l_sub)
        part = (lat.below[t] | 1 << t) & _lift(r, r.lattice.fi_bits)
        sides = (("fully coprime", r.spectrum.cpspec_bits, spec.cpspec_bits),
                 ("fully cosemiprime", r.spectrum.csp_bits, spec.csp_bits))
        for side, standalone, members in sides:
            standalone, cut = _lift(r, standalone), members & part
            if standalone != cut:
                yield {"l": _describe(l_sub), "side": side,
                       "standalone": standalone.bit_count(),
                       "cut_down": cut.bit_count()}
        cpcorad = r.lift[r.spectrum.cpcorad_index]
        cut_corad = lat.meet(1 << t | 1 << spec.cpcorad_index)
        if cpcorad != cut_corad:
            yield {"l": _describe(l_sub), "side": "coradical",
                   "standalone": _describe(lat.elements[cpcorad]),
                   "cut_down": _describe(lat.elements[cut_corad])}


# --- simple members of the spectrum ------------------------------------------

def _simples_coprime_standalone(s):
    for simple in s.a.socle.simples_fi:
        r = s.a.restricted(simple)
        # The simple itself is the child's top, its last element.
        if not r.spectrum.cpspec_bits >> len(r.lattice) - 1 & 1:
            yield {"simple": _describe(simple)}


def _simples_in_spectrum(s):
    missing = s.a.socle.simple_fi_bits & ~s.a.spectrum.cpspec_bits
    if missing:
        yield {"simple": _describe(s.a.lattice.subset(missing)[0])}


def _parts_contain_points(s):
    lat, v = s.a.lattice, s.a.topology("fi").varieties
    for t in bits_of(lat.fi_bits & ~1):
        if not v[t]:
            yield {"l": _describe(lat.elements[t])}


# --- socle facts --------------------------------------------------------------

def _cyclic_spans(s):
    # The closure is tested with `apply` and `contains_vector`, not with the
    # kernel that built it, and against the enumerated lattice.
    a = s.a
    ops = a.m.all_ops()
    for i in range(a.m.dim):
        vec = tuple(a.field.one if j == i else a.field.zero
                    for j in range(a.m.dim))
        cyc = cyclic_subbicomodule(a.m, vec)
        failed = ("generator" if not cyc.contains_vector(vec) else
                  "stability" if not is_stable(cyc, ops) else
                  "lattice" if a.lattice.find(cyc) is None else None)
        if failed:
            yield {"basis_index": i, "test": failed}


def _simple_in_every_part(s):
    p, lat, socle = s.a.predicates, s.a.lattice, s.a.socle
    if not p.property_s:
        simple = socle.simple_bits
        bad = next(lat.elements[t] for t in range(1, len(lat))
                   if not simple & (lat.below[t] | 1 << t))
        yield "a nonzero part contains no simple", {"l": _describe(bad)}
    if p.quasi_duo and not p.property_s_fi:
        simple = socle.simple_fi_bits
        bad = next(lat.elements[t] for t in bits_of(lat.fi_bits & ~1)
                   if not simple & (lat.below[t] | 1 << t))
        yield ("quasi-duo instance misses Property S on the fully invariant "
               "lattice", {"l": _describe(bad)})


def _simple_in_every_part_detail(s):
    detail = "every nonzero part contains a simple"
    if s.a.predicates.quasi_duo:
        detail += "; quasi-duo gives the fully invariant version"
    return detail


def _coradical_essential(s):
    lat = s.a.lattice
    if not s.a.predicates.corad_essential:
        corad = s.a.socle.coradical_index
        bad = next(l for t, l in enumerate(lat.elements)
                   if t and lat.meet(1 << corad | 1 << t) == 0)
        yield {"l": _describe(bad)}


# --- identities of varieties --------------------------------------------------

def _variety_endpoints(s):
    top = s.a.topology("fi")
    v_zero, v_top = top.varieties[0], top.varieties[-1]
    if v_top != top.space or v_zero:
        yield {"x_of_top": list(bits_of(top.space & ~v_top)),
               "x_of_zero": list(bits_of(top.space & ~v_zero))}


def _variety_sums_meets(s):
    # Both sides are symmetric in (l1, l2), so pairs i <= j suffice, and the
    # first failing ordered pair already has i <= j.
    lat, v = s.a.lattice, s.a.topology("fi").varieties
    for i in range(len(lat)):
        for j in range(i, len(lat)):
            pair = 1 << i | 1 << j
            if ((v[i] | v[j]) & ~v[lat.join(pair)]
                    or v[i] & v[j] != v[lat.meet(pair)]):
                yield {"l1": _describe(lat.elements[i]),
                       "l2": _describe(lat.elements[j])}


def _variety_coproducts(s):
    lat, top = s.a.lattice, s.a.topology("fi")
    v, space = top.varieties, top.space
    fi = list(bits_of(lat.fi_bits))
    for i in fi:
        row = s.a.coproducts.row(lat.elements[i], lat)
        for j in fi:
            l1, l2 = lat.elements[i], lat.elements[j]
            v_sum = v[lat.join(1 << i | 1 << j)]
            v_union = v[i] | v[j]
            c = row[j]
            v_cop = v[c] if isinstance(c, int) else top.v_of(c)
            if not (v_sum == v_union == v_cop):
                yield {"l1": _describe(l1), "l2": _describe(l2),
                       "x_sum": list(bits_of(space & ~v_sum)),
                       "x_meet": list(bits_of(space & ~v_union)),
                       "x_coproduct": list(bits_of(space & ~v_cop))}


# --- the topology axioms --------------------------------------------------------

def _not_a_topology(flavor):
    def search(s):
        top = s.a.topology(flavor)
        if not top.is_topology:
            operation, a, b = top.witness
            yield {"operation": operation, "witness_sets": [sorted(a), sorted(b)]}
    return search


def _duo_or_scan(s):
    """VACUOUS off duo, reporting the axiom scan of the full family anyway."""
    if not s.a.predicates.duo:
        return VACUOUS, "needs duo (full family axiom scan: %s)" % (
            "closed" if s.a.topology("full").is_topology else "not closed")
    return None


def _needs_topology(s):
    """A gate: the preorder describes the full family when it is a topology."""
    top = s.a.topology("full")
    if top.is_topology:
        return None
    operation, a, b = top.witness
    return (VACUOUS, f"needs a topology: the family is not closed under "
                     f"{operation} of {sorted(a)} and {sorted(b)}")


def _family_closures(top) -> list:
    """Entry i is the intersection of the members of the closed family that
    hold point i, read from the members and not from the lattice order."""
    out = [top.space] * top.size
    for c in top.closed_masks:
        for i in bits_of(c):
            out[i] &= c
    return out


# --- pointwise description of the space ----------------------------------------

def _kolmogorov(s):
    # Two points share every open when each is in every member holding the other.
    top = s.a.topology("full")
    held = _family_closures(top)
    for i, c in enumerate(held):
        for j in bits_of(c & ~(1 << i)):
            if held[j] >> i & 1:
                yield {"points": [i, j], "open_count": len(top.closed_masks)}


def _basic_opens(s):
    top = s.a.topology("full")
    basis = [top.space & ~v for v in top.varieties]
    for c in top.closed_masks:
        o = top.space & ~c
        union = 0
        for b in basis:
            if not b & ~o:
                union |= b
        if union != o:
            yield {"open": list(bits_of(o)), "basis_union": list(bits_of(union))}


def _pointwise(s):
    top, lat, socle = s.a.topology("full"), s.a.lattice, s.a.socle
    held = _family_closures(top)
    for t, l_sub in enumerate(lat.elements):
        v = top.varieties[t]
        is_simple = bool(socle.simple_bits >> t & 1)
        idx = top.positions.get(t)
        is_point = idx is not None
        if is_point:
            if held[idx] != v:
                yield {"l": _describe(l_sub), "case": "point closure"}
            if is_simple != top.is_closed(1 << idx):
                yield {"l": _describe(l_sub), "case": "closed singleton"}
        if is_simple != (is_point and v == 1 << idx):
            yield {"l": _describe(l_sub), "simple": is_simple,
                   "coprime": is_point, "variety_size": v.bit_count(),
                   "case": "simple members"}
        if (v == 0) != l_sub.is_zero():
            yield {"l": _describe(l_sub), "case": "empty variety"}
        if v == top.space and not lat.le(socle.coradical_index, t):
            yield {"l": _describe(l_sub),
                   "case": "full variety misses the coradical"}


def _embeddings_continuous(s):
    top, lat = s.a.topology("full"), s.a.lattice
    for t in bits_of(lat.fi_bits & ~1):
        l_sub = lat.elements[t]
        if l_sub.is_full():
            continue
        r = s.a.restricted(l_sub)
        positions = [top.positions.get(r.lift[c])
                     for c in bits_of(r.spectrum.cpspec_bits)]
        if None in positions:
            yield {"l": _describe(l_sub), "case": "points do not embed"}
            continue
        child_top = r.topology("full")
        for n_sub, v in zip(lat.elements, top.varieties):
            pulled = sum(1 << i for i, p in enumerate(positions) if v >> p & 1)
            if not child_top.is_closed(pulled):
                yield {"l": _describe(l_sub), "n": _describe(n_sub),
                       "case": "preimage not closed"}


# --- separation equivalences ----------------------------------------------------

def _separation_setup(s):
    sep = separation(s.a.topology("full"))
    s.flags = {"spectrum_is_socle": s.a.spectrum.cpspec_bits
               == s.a.socle.simple_bits,
               "discrete": sep.discrete, "t2": sep.t2, "t1": sep.t1}


def _separation_breaks(s):
    if len(set(s.flags.values())) != 1:
        yield dict(s.flags)


# --- maximal primes force discreteness ------------------------------------------

def _primes_maximal(ideals):
    """Whether every prime ideal is a maximal proper two-sided ideal."""
    family = ideals.family
    proper = family.fi_bits & ~(1 << len(family) - 1)
    return not ideals.prime_bits & ~maximal_bits(proper, family.above)


def _discrete_with_coradical(s):
    a = s.a
    lat, top = a.lattice, a.topology("full")
    simple, points = a.socle.simple_bits, a.spectrum.cpspec_bits
    if points & ~simple:
        yield ("maximal primes but a non-simple spectrum member",
               {"k": _describe(lat.subset(points & ~simple)[0])})
    if simple & ~points:
        yield ("maximal primes but a simple outside the spectrum",
               {"simple": _describe(lat.subset(simple & ~points)[0])})
    corad = a.socle.coradical_index
    for t, l_sub in enumerate(lat.elements):
        empty = top.varieties[t] == top.space
        if empty != lat.le(corad, t):
            yield ("empty opens do not match coradical containment",
                   {"l": _describe(l_sub)})


# --- local finiteness of simple families ------------------------------------------

def _simples_setup(s):
    s.simples = list(bits_of(s.a.socle.simple_bits))


def _neighbourhoods(s):
    lat, simples = s.a.lattice, s.simples
    if not simples:
        return
    for t in bits_of(s.a.spectrum.cpspec_bits):
        l_sub = lat.elements[t]
        outside = lat.join(sum(1 << x for x in simples if not lat.le(x, t)))
        if lat.le(t, outside):
            yield ("a point lies inside the sum of the simples it excludes",
                   {"point": _describe(l_sub)})
        inside_nbhd = {x for x in simples if not lat.le(x, outside)}
        inside_l = {x for x in simples if lat.le(x, t)}
        if inside_nbhd != inside_l:
            yield ("the canonical neighbourhood meets the wrong simples",
                   {"point": _describe(l_sub)})


# --- irreducibility of the whole space --------------------------------------------

def _irreducible_setup(s):
    a = s.a
    top = a.topology("full")
    s.irreducible = is_irreducible_subset(top, top.space)
    s.coprime = False
    if not a.spectrum.cpcorad.is_zero():
        s.coprime, _ = is_fully_coprime(a.m, a.spectrum.cpcorad, a.lattice,
                                        a.endo, a.coproducts)


def _irreducible_iff_coprime(s):
    if s.irreducible != s.coprime:
        yield {"irreducible": s.irreducible,
               "cpcorad": _describe(s.a.spectrum.cpcorad)}


def _irreducible_detail(s):
    if not s.a.spectrum.cpspec_bits:
        return "empty spectrum: both sides are false"
    return ("space irreducible and CPcorad fully coprime" if s.irreducible
            else "space reducible and CPcorad not fully coprime")


# --- subdirect irreducibility and connectivity -------------------------------------

def _closed_sets_meet(s):
    # Nonempty closed sets pairwise meet exactly when the point closures do.
    si = s.a.predicates.subdirectly_irreducible
    closures = s.a.topology("full").point_closures
    apart = next(([list(bits_of(c1)), list(bits_of(c2))]
                  for c1 in closures for c2 in closures if not c1 & c2), None)
    if si != (apart is None):
        yield {"subdirectly_irreducible": si, "disjoint_closed": apart}


def _connectivity(s):
    si = s.a.predicates.subdirectly_irreducible
    top = s.a.topology("full")
    connected = is_connected_subset(top, top.space)
    discrete_case = s.a.spectrum.cpspec_bits == s.a.socle.simple_bits
    if (si and not connected) or (connected and discrete_case and not si):
        yield {"subdirectly_irreducible": si, "connected": connected,
               "spectrum_is_socle": discrete_case}


# --- point varieties and components -------------------------------------------------

def _splits(family, subset: int, point: int) -> bool:
    """Whether two members of the family cover the subset, neither holding
    it all; one of them holds `point`, a point of the subset."""
    return any(c1 >> point & 1 and subset & ~c1 and any(
        not subset & ~(c1 | c2) and subset & ~c2 for c2 in family) for c1 in family)


def _point_varieties(s):
    top = s.a.topology("full")
    for i, (k, t) in enumerate(zip(top.points, top.point_index)):
        if _splits(top.closed_masks, top.varieties[t], i):
            yield {"point": _describe(k)}


def _components(s):
    top, lat = s.a.topology("full"), s.a.lattice
    for comp in irreducible_components(top):
        t = top.phi(comp)
        l_sub = lat.elements[t]
        if t not in top.positions:
            yield {"component": list(bits_of(comp)), "sum": _describe(l_sub),
                   "problem": "component sum is not a spectrum point"}
        if any(p != t and lat.le(t, p) for p in top.point_index):
            yield {"component": list(bits_of(comp)), "sum": _describe(l_sub),
                   "problem": "component sum is not maximal"}


# --- comparability inside connected subsets ------------------------------------------

def _isolated_members(s):
    # In a topology a connected S has a connected comparability graph, so
    # each x in S has a comparable y in S, and {x, y} is connected: the
    # connected pairs decide every subset.  A pair is disconnected when each
    # point lies in a closed member without the other.
    top, lat = s.a.topology("full"), s.a.lattice
    index, held = top.point_index, _family_closures(top)
    for i in range(top.size):
        for j in range(i + 1, top.size):
            connected = held[i] >> j & 1 or held[j] >> i & 1
            if connected and not (lat.le(index[i], index[j])
                                  or lat.le(index[j], index[i])):
                yield {"subset": [i, j], "member": _describe(top.points[i])}


# --- closures through the sum of points -----------------------------------------------

def _closure_miss(subset: int, closure: int, variety: int):
    return {"subset": list(bits_of(subset)), "closure": list(bits_of(closure)),
            "variety_of_sum": list(bits_of(variety))}


def _closures(s):
    # In a topology cl(S u {p}) = cl(S) u cl{p}, so by induction on |S| the
    # formula holds for every S once cl(0) = V(0), cl{p} = V(p) (read from
    # the family) and V(X + p) = V(X) u V(p) for each point p and each sum X
    # of points.  Each X is reached as the sum of a set S_X, and checking
    # cl(S_X u {p}) = V(X + p) for p outside S_X (inside, X + p = X) covers
    # every two-point set too.
    top, lat = s.a.topology("full"), s.a.lattice
    v, index = top.varieties, top.point_index
    zero = top.phi(0)
    if v[zero]:
        yield _closure_miss(0, 0, v[zero])
    for i, held in enumerate(_family_closures(top)):
        if held != v[top.phi(1 << i)]:
            yield _closure_miss(1 << i, held, v[top.phi(1 << i)])
    sums, reached = {zero: 0}, [zero]
    for x in reached:
        for i in bits_of(top.space & ~sums[x]):
            subset, t = sums[x] | 1 << i, lat.join(1 << x | 1 << index[i])
            closure = top.closure(subset)
            if closure != v[t]:
                yield _closure_miss(subset, closure, v[t])
            if t not in sums:
                sums[t] = subset
                reached.append(t)


# --- closed sets against coradical-fixed parts ------------------------------------------

def _fixed_setup(s):
    s.fixed = s.a.e_set()


def _closed_sets_biject(s):
    top, elements, fixed = s.a.topology("full"), s.a.lattice.elements, s.fixed
    for c in top.closed_masks:
        t = top.phi(c)
        if not fixed >> t & 1:
            yield {"closed": list(bits_of(c)), "sum": _describe(elements[t]),
                   "problem": "sum of a closed set is not coradical-fixed"}
        if top.varieties[t] != c:
            yield {"closed": list(bits_of(c)), "sum": _describe(elements[t]),
                   "problem": "variety does not recover the closed set"}
    for t in bits_of(fixed):
        if top.phi(top.varieties[t]) != t:
            yield {"l": _describe(elements[t]),
                   "problem": "sum over the variety does not recover L"}
    if fixed.bit_count() != len(top.closed_masks):
        yield {"closed_count": len(top.closed_masks),
               "fixed_count": fixed.bit_count(),
               "problem": "cardinalities differ"}


def _fixed_parts_cosemiprime(s):
    nonzero_fixed, csp = s.fixed & ~1, s.a.spectrum.csp_bits
    if nonzero_fixed != csp:
        member = s.a.lattice.subset(nonzero_fixed ^ csp)[0]
        yield {"fixed_count": nonzero_fixed.bit_count(),
               "cosemiprime_count": csp.bit_count(),
               "disagreeing": _describe(member)}


# --- the centralizer morphism into the endomorphism ring --------------------------------

def _centralizer_setup(s):
    try:
        s.cen = centralizer(s.a.m)
    except CoalgebraMismatch:
        s.cen = None


def _central_action(s):
    cen, m, endo = s.cen, s.a.m, s.a.endo
    fmt = s.a.field.format_scalar
    if not cen.contains_counit():
        yield ("the counit is not centralizing", {"centralizer_dim": cen.dim})
    if not cen.closed_under_convolution():
        yield ("centralizer is not convolution closed",
               {"centralizer_dim": cen.dim})
    basis = cen.basis()
    mats = [phi_matrix(m, f) for f in basis]
    for f, mat_f in zip(basis, mats):
        if not endo.contains_matrix(mat_f):
            yield ("a centralizing functional does not act bicolinearly",
                   {"f": list(map(fmt, f))})
        for g, mat_g in zip(basis, mats):
            if phi_matrix(m, cen.dual.multiply(f, g)) != mat_f @ mat_g:
                yield ("the action does not respect convolution",
                       {"f": list(map(fmt, f)), "g": list(map(fmt, g))})
        for basis_mat in endo.basis:
            if mat_f @ basis_mat != basis_mat @ mat_f:
                yield "the image is not central", {"f": list(map(fmt, f))}


# --- regular instances: centralizer equals all endomorphisms -----------------------------

def _regular_endomorphisms(s):
    a = s.a
    cen, endo = centralizer(a.m), a.endo
    field, n, counit = a.field, a.m.dim, a.m.right.counit
    if cen.dim != endo.dim:
        yield ("centralizer and endomorphism dimensions differ",
               {"centralizer_dim": cen.dim, "endo_dim": endo.dim})
    for f in cen.basis():
        mat = phi_matrix(a.m, f)
        back = tuple(_apply_counit(field, counit, mat, i) for i in range(n))
        if back != tuple(f):
            yield ("counit composition does not invert the action",
                   {"f": list(map(field.format_scalar, f))})
    for g_mat in endo.basis:
        f = tuple(_apply_counit(field, counit, g_mat, i) for i in range(n))
        if not cen.subspace.contains_vector(f):
            yield ("counit composition leaves the centralizer",
                   _matrix_witness(field, g_mat))
        if phi_matrix(a.m, f) != g_mat:
            yield ("the action does not invert counit composition",
                   _matrix_witness(field, g_mat))
    # Unit pairs x_i, x_j with i < j suffice: a non-commuting pair (i, j)
    # with j < i is preceded by (j, i), and x_i commutes with itself.
    units = coordinate_vectors(field, endo.dim)
    for i, x in enumerate(units):
        for y in units[i + 1:]:
            if endo.multiply(x, y) != endo.multiply(y, x):
                yield ("regular endomorphism ring is not commutative",
                       {"pair": [list(x), list(y)]})
    if not a.predicates.duo:
        bad = a.lattice.elements[a.lattice.fi_mask.index(False)]
        yield "regular instance is not duo", {"l": _describe(bad)}


def _matrix_witness(field, mat: Matrix):
    return {"g": [list(map(field.format_scalar, row)) for row in mat.data]}


def _apply_counit(field, counit, mat: Matrix, col: int):
    total = field.zero
    for j, eps in enumerate(counit):
        if eps and mat.data[j][col]:
            total = field.add(total, field.mul(eps, mat.data[j][col]))
    return total


# --- spectral maps of coalgebra morphisms --------------------------------------------------

def _comodule_forms(s, theta: CoalgebraMorphism, mode, budget, ideal_budget,
                    seed, source=None, target=None):
    """Analyze both coalgebras of theta in their one-sided comodule forms,
    unless prebuilt analyses are given, into the morphism state s."""
    from .catalog import right_comodule

    def form(coalgebra):
        return analyze(right_comodule(coalgebra), mode=mode, budget=budget,
                       ideal_budget=ideal_budget, seed=seed)

    theta.require_valid()
    if source is None:
        source = form(theta.source)
    if target is None:
        target = source if theta.target == theta.source else form(theta.target)
    s.theta, s.source, s.target = theta, source, target
    s.ps, s.pt = source.predicates, target.predicates


def _morphism_gaps(s):
    return _unmet(s, "source intrinsically injective",
                  "source self-cogenerator", "target self-cogenerator")


def _identity_morphism_gaps(s):
    """The identity morphism of a coalgebra instance, gated as
    `morphism_checks` gates any morphism."""
    a = s.a
    if a.m.regular_of is None:
        return ["a coalgebra instance to build the identity morphism on"]
    _comodule_forms(s, identity_morphism(a.m.regular_of), a.mode, a.budget,
                    a.ideal_budget, a.seed)
    return _morphism_gaps(s)


def _morphism_setup(s):
    theta, source, target = s.theta, s.source, s.target
    s.injective = theta.is_injective()
    s.src_points, s.tgt_points = source.spectrum.cpspec, target.spectrum.cpspec
    s.images = [image_subspace(theta, k) for k in s.src_points]
    s.tgt_position = {k.key(): j for j, k in enumerate(s.tgt_points)}
    s.defined = all(img.key() in s.tgt_position for img in s.images)
    s.corad_image = image_subspace(theta, source.spectrum.cpcorad)
    s.route_a = s.injective and s.pt.self_injective
    s.fi_map = None


def _points_are_preimages(s):
    preimage_keys = {preimage(s.theta.matrix, k).key() for k in s.tgt_points}
    return all(k.key() in preimage_keys for k in s.src_points)


def _fi_map(s):
    """The induced map on fully invariant topologies, built at most once."""
    if s.fi_map is None:
        s.fi_map = spectral_map(s.theta, s.source.topology("fi"),
                                s.target.topology("fi"))
    return s.fi_map


def _image(index_map, subset: int) -> int:
    """The mask of the images of the points in a mask."""
    return sum(1 << j for j in {index_map[i] for i in bits_of(subset)})


def _closed_images(s, index_map):
    target = s.target.topology("fi")
    for closed in s.source.topology("fi").closed_masks:
        img = _image(index_map, closed)
        if not target.is_closed(img):
            yield {"closed": list(bits_of(closed)), "image": list(bits_of(img))}


def _dual_ring_route(s):
    """Point maps need an injective map into a self-injective target, or a
    right-duo source dual ring, which needs ideal enumeration to decide."""
    if not s.route_a and s.ps.e_right_duo is None:
        return (UNSUPPORTED, "needs a right-duo source dual ring, "
                             "undecidable here: " + _ideal_excuse(s.source))
    return None


def _points_to_points(s):
    if not s.defined:
        bad = next(i for i, img in enumerate(s.images)
                   if img.key() not in s.tgt_position)
        yield {"point": _describe(s.src_points[bad]),
               "image": _describe(s.images[bad])}
    elif not s.corad_image.is_zero() and \
            not s.target.spectrum.cpcorad.contains(s.corad_image):
        yield {"corad_image": _describe(s.corad_image)}


def _full_map_continuous(s):
    report = spectral_map(s.theta, s.source.topology("full"),
                          s.target.topology("full"))
    if not (report.defined and report.continuous):
        yield report.to_dict()


def _point_map_injective(s):
    index_map = [s.tgt_position[img.key()] for img in s.images]
    if len(set(index_map)) != len(index_map):
        dup = next(j for j in index_map if index_map.count(j) > 1)
        pair = [i for i, j in enumerate(index_map) if j == dup][:2]
        yield {"first": _describe(s.src_points[pair[0]]),
               "second": _describe(s.src_points[pair[1]])}


def _fi_map_open_closed(s):
    report = _fi_map(s)
    if not (report.defined and report.continuous):
        yield report.to_dict()
    elif report.index_map is not None and \
            set(report.index_map) == set(range(len(s.tgt_points))):
        yield from _closed_images(s, report.index_map)
        source, target = s.source.topology("fi"), s.target.topology("fi")
        for o in (source.space & ~c for c in source.closed_masks):
            img = _image(report.index_map, o)
            if not target.is_closed(target.space & ~img):
                yield {"open": list(bits_of(o)), "image": list(bits_of(img))}


def _isomorphism_transport(s):
    report = _fi_map(s)
    source, target = s.source.spectrum, s.target.spectrum
    if not (report.defined and report.continuous):
        yield report.to_dict()
    elif report.index_map is None or \
            sorted(report.index_map) != list(range(len(s.tgt_points))):
        yield {"index_map": list(report.index_map or [])}
    else:
        yield from _closed_images(s, report.index_map)
        if s.corad_image != target.cpcorad:
            yield {"corad_image": _describe(s.corad_image),
                   "target_corad": _describe(target.cpcorad)}
        elif {image_subspace(s.theta, k).key() for k in source.csp} != \
                {k.key() for k in target.csp}:
            yield {"problem": "cosemiprime classes do not correspond"}


_MORPHISM = _Family(gate=_morphism_gaps, setup=_morphism_setup, parts=(
    _Part("morphism-spectral-map-1", _points_to_points,
          "spectrum points map to spectrum points and the coradical image "
          "stays inside the coradical",
          "points do not map to points",
          gates=(_dual_ring_route,
                 _needs("injective into self-injective, or right-duo source "
                        "dual ring"))),
    _Part("morphism-spectral-map-2", _full_map_continuous,
          "induced map on full topologies is continuous",
          "induced map on full topologies misbehaves",
          gates=(_needs("source duo", "target duo"),)),
    _Part("morphism-spectral-map-3", _point_map_injective,
          "the point map is injective", "two points share an image",
          gates=(_needs("a well-defined point map"),
                 _needs("every source point a preimage of a target point"))),
    _Part("morphism-spectral-map-4", _fi_map_open_closed,
          "continuous on the fully invariant flavor, open and closed when "
          "surjective",
          "restricted-flavor continuity or openness fails",
          gates=(_needs("injective morphism", "self-injective target"),)),
    _Part("morphism-spectral-map-5", _isomorphism_transport,
          "isomorphisms give homeomorphisms and transport the coradical",
          "an isomorphism fails to transport the space",
          gates=(_needs("an isomorphism"),)),
))


def morphism_checks(theta: CoalgebraMorphism, mode: str = "exhaustive",
                    budget: int = 200000, ideal_budget: int = 50000,
                    seed: int = 0, source: InstanceAnalysis | None = None,
                    target: InstanceAnalysis | None = None) -> list:
    """Spectral-map statements for a coalgebra morphism.

    Both coalgebras are analyzed in their one-sided comodule forms, where
    subbicomodules are right coideals and the fully invariant ones are the
    two-sided coideals.  `source`/`target` allow sharing prebuilt analyses.
    """
    s = SimpleNamespace()
    _comodule_forms(s, theta, mode, budget, ideal_budget, seed, source, target)
    return _run(_MORPHISM, s)


# --- registry ---------------------------------------------------------------------

_FAMILIES = {
    "annihilator-kernel-galois": _Family(setup=_galois_setup, parts=(
        _Part("annihilator-kernel-galois-1", _galois_pair,
              "antitone maps, right/two-sided ideal classes, and both unit "
              "inclusions hold",
              "Galois pair defect"),
        _Part("annihilator-kernel-galois-2", _galois_fixed_points,
              "Ke(An(K)) = K exactly when M/K is cogenerated",
              "fixed points of Ke(An(-)) differ from cogenerated quotients"),
        _Part("annihilator-kernel-galois-3", _galois_injective,
              _sampled("An is a lattice anti-morphism and AnKe fixes right "
                       "ideals", "ideal side"),
              "self-injective consequences fail",
              gates=(_needs("self-injective"),)),
    )),
    "duo-transfer": _Family(parts=(
        _Part("duo-transfer-1", _duo_from_right_duo_ring,
              "self-cogenerator with right-duo endomorphisms is duo",
              "expected a duo instance",
              gates=(_needs("self-cogenerator"), _ideals(_right_duo_decided),
                     _needs("right-duo endomorphism ring"))),
        _Part("duo-transfer-2", _right_duo_ring,
              _sampled("duo and intrinsically injective forces a right-duo "
                       "ring", "intrinsic injectivity"),
              "endomorphism ring is not right-duo",
              gates=(_needs("intrinsically injective", "duo"),
                     _ideals(_right_duo_decided))),
        _Part("duo-transfer-3", _duo_parts,
              "every fully invariant part is duo on its own",
              "a fully invariant part is not duo on its own",
              gates=(_needs("self-injective", "duo"),)),
    )),
    "coproduct-annihilator-kernel-bound": _Family(setup=_bound_setup, parts=(
        _Part("coproduct-annihilator-kernel-bound-1", _coproduct_basics,
              "coproducts are monotone subbicomodules containing their "
              "arguments",
              "coproduct basics fail"),
        _Part("coproduct-annihilator-kernel-bound-2", _bound_escapes,
              "(X : Y) always sits inside Ke(An(X) An(Y))",
              "(X : Y) escapes Ke(An(X) An(Y))"),
        _Part("coproduct-annihilator-kernel-bound-3", _bound_equality,
              "(X : Y) = Ke(An(X) An(Y)) for subbicomodule Y",
              "equality with the kernel of the ideal product fails",
              gates=(_needs("self-cogenerator"),)),
    )),
    "prime-radical-correspondence": _Family(
        gate=lambda s: _unmet(s, "self-cogenerator"), setup=_radical_setup,
        parts=(
            _Part("prime-radical-correspondence-1", _annihilators_coprime,
                  "prime (semiprime) annihilators give fully coprime "
                  "(cosemiprime) members",
                  gates=(_ideals(lambda s: s.ideals.ideal_support),)),
            _Part("prime-radical-correspondence-2",
                  _spectrum_annihilators_prime,
                  "spectra and annihilator-prime classes coincide",
                  "spectrum member without prime annihilator",
                  gates=(_ideals(lambda s: s.ideals.ideal_support),
                         _needs("intrinsically injective"))),
            _Part("prime-radical-correspondence-3", _radical_matches_coradical,
                  "prime radical matches An(CPcorad) and its kernel recovers "
                  "CPcorad (ring is finite dimensional, hence Noetherian)",
                  "prime radical does not match the coradical",
                  gates=(_ideals(lambda s: s.ideals.radical_support),)),
            _Part("prime-radical-correspondence-4",
                  _cosemiprime_iff_full_coradical,
                  "fully cosemiprime exactly when CPcorad is everything",
                  "cosemiprimeness disagrees with the coradical"),
        )),
    "spectrum-restriction": _Family(parts=(
        _Part("spectrum-restriction", _restricted_spectra,
              "spectra and coradicals of fully invariant parts restrict from "
              "the parent",
              "standalone spectrum of a part differs from the cut-down parent "
              "spectrum",
              gates=(_needs("self-injective"),)),
    )),
    "minimal-coprime-members": _Family(parts=(
        _Part("minimal-coprime-members-1", _simples_coprime_standalone,
              "fully invariant simples are fully coprime standalone",
              "a fully invariant simple is not fully coprime over itself"),
        _Part("minimal-coprime-members-2", _simples_in_spectrum,
              "fully invariant simples are spectrum points",
              "fully invariant simple missing from the spectrum",
              gates=(_needs("self-injective"),)),
        _Part("minimal-coprime-members-3", _parts_contain_points,
              "every nonzero fully invariant part contains a spectrum point",
              "a nonzero fully invariant part contains no spectrum point",
              gates=(_needs("self-injective"),
                     _needs("Property S on the fully invariant lattice"))),
    )),
    "essential-coradical": _Family(parts=(
        _Part("essential-coradical-1", _cyclic_spans,
              "every vector generates a finite cyclic subbicomodule",
              "cyclic span of a basis vector is not a lattice subbicomodule "
              "containing it"),
        _Part("essential-coradical-2", _simple_in_every_part,
              _simple_in_every_part_detail),
        _Part("essential-coradical-3", _coradical_essential,
              "the coradical meets every nonzero part",
              "coradical is not essential"),
    )),
    "variety-identities": _Family(parts=(
        _Part("variety-identities-1", _variety_endpoints,
              "the whole space opens nothing and zero opens everything",
              "endpoint identities fail"),
        _Part("variety-identities-2", _variety_sums_meets,
              "sums shrink opens and meets union them",
              "sum/meet inclusions fail"),
        _Part("variety-identities-3", _variety_coproducts,
              "opens of sums and coproducts agree on the fully invariant "
              "lattice",
              "fully invariant sum/coproduct identity fails"),
    )),
    "topology-axioms": _Family(parts=(
        _Part("topology-axioms-1", _not_a_topology("fi"),
              "fully invariant varieties close under union and intersection",
              "fully invariant family is not a topology"),
        _Part("topology-axioms-2", _not_a_topology("full"),
              "duo instance is a top bicomodule",
              "duo instance with non-topological variety family",
              gates=(_duo_or_scan,)),
    )),
    "simple-point-characterization": _Family(
        gate=_standing_gaps, parts=(
            _Part("simple-point-characterization-1", _kolmogorov,
                  "the space is Kolmogorov", "two points share all opens"),
            _Part("simple-point-characterization-2", _basic_opens,
                  "lattice opens form a basis",
                  "opens are not unions of basic opens"),
            _Part("simple-point-characterization-3", _pointwise,
                  "simples are exactly the closed points and varieties empty "
                  "or full behave as described",
                  "pointwise description fails"),
            _Part("simple-point-characterization-4", _embeddings_continuous,
                  "embeddings of parts pull varieties back to varieties",
                  "embedding of a part is not continuous"),
            _Part("simple-point-characterization-5", None, gates=(
                _cannot_fail("nothing is computed here: isomorphism "
                             "transport is exercised by the morphism "
                             "statement"),)),
        )),
    "separation-equivalences": _Family(
        gate=_standing_gaps, setup=_separation_setup, parts=(
            _Part("separation-equivalences", _separation_breaks,
                  lambda s: "discreteness, Hausdorff, Frechet, and a simple "
                            "spectrum are equivalent (all %s)"
                            % str(s.flags["spectrum_is_socle"]).lower(),
                  "separation equivalences break"),
        )),
    "prime-maximal-discreteness": _Family(
        gate=lambda s: _standing_gaps(s) + _unmet(s, "self-cogenerator"),
        parts=(
            _Part("prime-maximal-discreteness", _discrete_with_coradical,
                  "spectrum is the socle and empty opens capture the "
                  "coradical",
                  gates=(_ideals(lambda s: s.a.ideal_side.prime_bits is not None),
                         _needs("every prime ideal maximal"))),
        )),
    "finite-compactness": _Family(gate=_standing_gaps, parts=(
        _Part("finite-compactness", None, gates=(
            _cannot_fail("cannot fail at finite scale: the space is finite, "
                         "so every open cover has a finite subcover"),)),
    )),
    "locally-finite-simples": _Family(
        gate=_standing_gaps, setup=_simples_setup, parts=(
            _Part("locally-finite-simples", _neighbourhoods,
                  lambda s: "each point has a neighbourhood meeting only its "
                            "own simples (finiteness is automatic at this "
                            "scale)" if s.simples else
                            "no simples, nothing to separate"),
        )),
    "irreducible-iff-coprime-coradical": _Family(
        gate=_standing_gaps, setup=_irreducible_setup, parts=(
            _Part("irreducible-iff-coprime-coradical",
                  _irreducible_iff_coprime, _irreducible_detail,
                  "irreducibility disagrees with the coradical"),
        )),
    "subdirect-irreducibility-topology": _Family(
        gate=_standing_gaps, parts=(
            _Part("subdirect-irreducibility-topology-1", _closed_sets_meet,
                  "subdirect irreducibility matches pairwise meeting of "
                  "closed sets",
                  "closed-set intersections disagree with subdirect "
                  "irreducibility"),
            _Part("subdirect-irreducibility-topology-2", _connectivity,
                  "subdirect irreducibility forces connectivity, with the "
                  "converse on a simple spectrum",
                  "connectivity transfer fails"),
        )),
    "point-varieties-irreducible": _Family(
        gate=_standing_gaps, parts=(
            _Part("point-varieties-irreducible-1", _point_varieties,
                  "every point variety is irreducible",
                  "a point variety is reducible"),
            _Part("point-varieties-irreducible-2", _components,
                  "components are varieties of maximal points",
                  "component description fails"),
        )),
    "connected-subsets-comparable": _Family(
        gate=_standing_gaps, parts=(
            _Part("connected-subsets-comparable", _isolated_members,
                  "members of connected subsets are pairwise linked by "
                  "inclusion",
                  "an isolated member of a connected subset",
                  gates=(_needs_topology,)),
        )),
    "closure-formula": _Family(
        gate=_standing_gaps, parts=(
            _Part("closure-formula", _closures,
                  "closures are varieties of the summed points",
                  "closure differs from the variety of the sum",
                  gates=(_needs_topology,)),
        )),
    "closed-set-bijection": _Family(
        gate=_standing_gaps, setup=_fixed_setup, parts=(
            _Part("closed-set-bijection-1", _closed_sets_biject,
                  "closed sets biject with the parts equal to their own "
                  "coprime coradical",
                  "closed sets do not biject with coradical-fixed parts"),
            _Part("closed-set-bijection-2", _fixed_parts_cosemiprime,
                  "nonzero coradical-fixed parts are exactly the fully "
                  "cosemiprime members",
                  "coradical-fixed parts differ from the cosemiprime class",
                  gates=(_needs("self-cogenerator"),)),
        )),
    "centralizer-image-central": _Family(setup=_centralizer_setup, parts=(
        _Part("centralizer-image-central", _central_action,
              "centralizer acts through central bicolinear endomorphisms, "
              "multiplicatively",
              gates=(_needs("matching left and right coalgebras"),)),
    )),
    "regular-endomorphisms-centralizer": _Family(parts=(
        _Part("regular-endomorphisms-centralizer", _regular_endomorphisms,
              "counit composition inverts the centralizer action; the ring "
              "is commutative and the instance duo",
              gates=(_needs("a coalgebra viewed as its own bicomodule"),)),
    )),
    "morphism-spectral-map": replace(_MORPHISM, gate=_identity_morphism_gaps),
}


def statement_names():
    return list(_FAMILIES)


def run_checks(a: InstanceAnalysis, names=None) -> list:
    """Run the selected statements (all by default) on one instance."""
    chosen = statement_names() if names is None else list(names)
    unknown = [name for name in chosen if name not in _FAMILIES]
    if unknown:
        raise ValueError(f"unknown statement {unknown[0]!r}; known: "
                         + ", ".join(statement_names()))
    return [v for name in chosen
            for v in _run(_FAMILIES[name], SimpleNamespace(a=a),
                          relative=not a.lattice.certified)]
