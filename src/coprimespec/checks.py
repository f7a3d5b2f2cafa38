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

Order, sums and intersections of lattice elements are read from the
lattice's containment table, and varieties from the topology's variety
table.  Monotonicity of (X : -) is scanned on cover pairs only: any
Y1 < Y2 is joined by a chain of covers, and inclusion is transitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .analysis import InstanceAnalysis, analyze, child_coords, parent_coords
from .bicomodule import centralizer, phi_matrix, quotient
from .coalgebra import CoalgebraMorphism, identity_morphism
from .coprime import is_fully_coprime, is_fully_cosemiprime, ke_product_bound
from .endo import coordinate_vectors, intertwiners, ke, maximal_ideals
from .exceptions import CoalgebraMismatch
from .lattice import cyclic_subbicomodule, is_fully_invariant
from .linalg import (Matrix, Subspace, bits_of, is_stable, kernel,
                     minimal_bits, preimage)
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


def _keyset(subspaces):
    return {s.key() for s in subspaces}


def _standing_gaps(a: InstanceAnalysis):
    """Unmet members of the standing hypothesis block duo + self-injective +
    Property S that governs every topological statement."""
    p = a.predicates
    return [name for name, val in (("duo", p.duo),
                                   ("self-injective", p.self_injective),
                                   ("Property S", p.property_s)) if not val]


def _vacuous(statement: str, gaps) -> Verdict:
    return Verdict(statement, VACUOUS, "needs " + ", ".join(gaps))


def _ideal_excuse(a: InstanceAnalysis) -> str:
    if not a.field.is_finite:
        return "ideal enumeration is unsupported over Q"
    return "right-ideal enumeration exceeded the budget"


def _within(lat, i: int, sub: Subspace, j) -> bool:
    """Whether lattice element i lies in sub, read from the containment
    table when sub is element j and by `contains` when j is None."""
    return lat.le(i, j) if j is not None else sub.contains(lat.elements[i])


def _quotient_cogenerated(a: InstanceAnalysis, k: Subspace) -> bool:
    """Whether M/K embeds into a product of copies of M."""
    if k.is_full():
        return True
    q, _ = quotient(a.m, k)
    maps = intertwiners(q, a.m)
    if not maps:
        return q.dim == 0
    return kernel(Matrix.stack(maps)).is_zero()


# --- annihilator / kernel Galois correspondence -----------------------------

def _check_an_ke_galois(a: InstanceAnalysis, ctx) -> list:
    name = "annihilator-kernel-galois"
    lat, endo, cache = a.lattice, a.endo, a.coproducts
    elements = list(lat.elements)
    kes = [ke(cache.annihilator(x), endo) for x in elements]
    out = []

    witness = None
    for x, kex in zip(elements, kes):
        ann = cache.annihilator(x)
        if not ann.is_right:
            witness = {"subbicomodule": _describe(x),
                       "problem": "annihilator is not a right ideal"}
            break
        if lat.is_fi(x) and not ann.is_two_sided:
            witness = {"subbicomodule": _describe(x),
                       "problem": "annihilator of a fully invariant member "
                                  "is not two-sided"}
            break
        if not kex.contains(x):
            witness = {"subbicomodule": _describe(x),
                       "problem": "Ke(An(X)) does not contain X"}
            break
        if ann.is_two_sided and not is_fully_invariant(kex, endo):
            witness = {"subbicomodule": _describe(x),
                       "problem": "kernel of a two-sided ideal is not "
                                  "fully invariant"}
            break
    if witness is None:
        for i, x in enumerate(elements):
            ax = cache.annihilator(x)
            for j in bits_of(lat.above[i] | 1 << i):
                y = elements[j]
                if not ax.subspace.contains(cache.annihilator(y).subspace):
                    witness = {"x": _describe(x), "y": _describe(y),
                               "problem": "An is not order reversing"}
                    break
                if not kes[j].contains(kes[i]):
                    witness = {"x": _describe(x), "y": _describe(y),
                               "problem": "Ke is not order reversing"}
                    break
            if witness:
                break
    if witness is None:
        ideals = a.right_ideals or []
        for ideal in ideals:
            back = cache.annihilator(ke(ideal, endo))
            if not back.subspace.contains(ideal.subspace):
                witness = {"ideal_dim": ideal.subspace.dim,
                           "problem": "An(Ke(I)) does not contain I"}
                break
    out.append(Verdict(f"{name}-1", FAIL, "Galois pair defect", witness)
               if witness else
               Verdict(f"{name}-1", PASS,
                       "antitone maps, right/two-sided ideal classes, and "
                       "both unit inclusions hold"))

    witness = None
    for k, kek in zip(elements, kes):
        fixed = kek == k
        cogen = _quotient_cogenerated(a, k)
        if fixed != cogen:
            witness = {"k": _describe(k), "ke_an_fixed": fixed,
                       "quotient_cogenerated": cogen}
            break
    if witness is None and a.predicates.self_cogenerator:
        seen = {}
        for k in elements:
            key = cache.annihilator(k).subspace.key()
            if key in seen:
                witness = {"k1": _describe(seen[key]), "k2": _describe(k),
                           "problem": "An is not injective although the "
                                      "instance is a self-cogenerator"}
                break
            seen[key] = k
    out.append(Verdict(f"{name}-2", FAIL,
                       "fixed points of Ke(An(-)) differ from cogenerated "
                       "quotients", witness)
               if witness else
               Verdict(f"{name}-2", PASS,
                       "Ke(An(K)) = K exactly when M/K is cogenerated"))

    if not a.predicates.self_injective:
        out.append(_vacuous(f"{name}-3", ["self-injective"]))
        return out
    witness = None
    for i, x in enumerate(elements):
        for j, y in enumerate(elements[i:], i):
            lhs = cache.annihilator(elements[lat.meet(1 << i | 1 << j)]).subspace
            rhs = cache.annihilator(x).subspace.sum_with(
                cache.annihilator(y).subspace)
            if lhs != rhs:
                witness = {"x": _describe(x), "y": _describe(y),
                           "an_of_meet_dim": lhs.dim, "sum_of_an_dim": rhs.dim}
                break
        if witness:
            break
    if witness is None and not a.predicates.intrinsically_injective:
        witness = {"problem": "AnKe fails to fix some right ideal"}
    detail = "An is a lattice anti-morphism and AnKe fixes right ideals"
    if a.predicates.intrinsic_partial:
        detail += " (ideal side sampled)"
    out.append(Verdict(f"{name}-3", FAIL, "self-injective consequences fail",
                       witness)
               if witness else Verdict(f"{name}-3", PASS, detail))
    return out


# --- duo transfer between the instance and its endomorphism ring ------------

def _check_duo_transfer(a: InstanceAnalysis, ctx) -> list:
    name = "duo-transfer"
    p = a.predicates
    out = []

    if not p.self_cogenerator:
        out.append(_vacuous(f"{name}-1", ["self-cogenerator"]))
    elif p.e_right_duo is None:
        out.append(Verdict(f"{name}-1", UNSUPPORTED, _ideal_excuse(a)))
    elif not p.e_right_duo:
        out.append(_vacuous(f"{name}-1", ["right-duo endomorphism ring"]))
    elif p.duo:
        out.append(Verdict(f"{name}-1", PASS,
                           "self-cogenerator with right-duo endomorphisms "
                           "is duo"))
    else:
        bad = next(l for l in a.lattice.elements if not a.lattice.is_fi(l))
        out.append(Verdict(f"{name}-1", FAIL, "expected a duo instance",
                           {"not_fully_invariant": _describe(bad)}))

    if not (p.intrinsically_injective and p.duo):
        gaps = []
        if not p.intrinsically_injective:
            gaps.append("intrinsically injective")
        if not p.duo:
            gaps.append("duo")
        out.append(_vacuous(f"{name}-2", gaps))
    elif p.e_right_duo is None:
        out.append(Verdict(f"{name}-2", UNSUPPORTED, _ideal_excuse(a)))
    elif p.e_right_duo:
        detail = "duo and intrinsically injective forces a right-duo ring"
        if p.intrinsic_partial:
            detail += " (intrinsic injectivity sampled)"
        out.append(Verdict(f"{name}-2", PASS, detail))
    else:
        bad = next(i for i in a.right_ideals if not i.is_two_sided)
        out.append(Verdict(f"{name}-2", FAIL,
                           "endomorphism ring is not right-duo",
                           {"right_ideal_dim": bad.subspace.dim}))

    if not (p.self_injective and p.duo):
        gaps = [g for g, v in (("self-injective", p.self_injective),
                               ("duo", p.duo)) if not v]
        out.append(_vacuous(f"{name}-3", gaps))
        return out
    witness = None
    for l_sub in a.lattice.nonzero_fi_elements():
        if l_sub.is_full():
            continue
        child = a.restricted(l_sub).lattice
        if not all(child.fi_mask):
            idx = child.fi_mask.index(False)
            witness = {"l": _describe(l_sub),
                       "non_duo_child": _describe(child.elements[idx])}
            break
    out.append(Verdict(f"{name}-3", FAIL,
                       "a fully invariant part is not duo on its own",
                       witness)
               if witness else
               Verdict(f"{name}-3", PASS,
                       "every fully invariant part is duo on its own"))
    return out


# --- internal coproduct basics and the annihilator-product bound ------------

def _check_coproduct_bound(a: InstanceAnalysis, ctx) -> list:
    name = "coproduct-annihilator-kernel-bound"
    lat, endo, cache = a.lattice, a.endo, a.coproducts
    elements = list(lat.elements)
    out = []

    witness = None
    cops = []  # cops[i][j] is ((X_i : X_j), its lattice index or None)
    for i, x in enumerate(elements):
        row = []
        cops.append(row)
        for j, y in enumerate(elements):
            cop = cache.coproduct(x, y)
            c = lat.find(cop)
            row.append((cop, c))
            if not _within(lat, i, cop, c):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "X is not inside (X : Y)"}
                break
            if lat.fi_mask[j] and not _within(lat, j, cop, c):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "fully invariant Y is not inside (X : Y)"}
                break
            if lat.fi_mask[i] and not (lat.fi_mask[c] if c is not None
                                       else is_fully_invariant(cop, endo)):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "(X : Y) not fully invariant although "
                                      "X is"}
                break
        if witness:
            break
    if witness is None:
        above = lat.above
        covers = [list(bits_of(minimal_bits(up, above))) for up in above]
        for x, row in zip(elements, cops):
            for j1, (low, c1) in enumerate(row):
                for j2 in covers[j1]:
                    high, c2 = row[j2]
                    if not (lat.le(c1, c2) if c1 is not None and c2 is not None
                            else high.contains(low)):
                        witness = {"x": _describe(x),
                                   "y1": _describe(elements[j1]),
                                   "y2": _describe(elements[j2]),
                                   "problem": "(X : -) is not monotone"}
                        break
                if witness:
                    break
            if witness:
                break
    out.append(Verdict(f"{name}-1", FAIL, "coproduct basics fail", witness)
               if witness else
               Verdict(f"{name}-1", PASS,
                       "coproducts are monotone subbicomodules containing "
                       "their arguments"))

    rng = Random(ctx.seed)
    probes = list(elements)
    for _ in range(3):
        vec = tuple(a.field.random_element(rng) for _ in range(a.m.dim))
        probes.append(Subspace.from_vectors(a.field, a.m.dim, [vec]))
    bounds = {}

    def bound(i, j):
        found = bounds.get((i, j))
        if found is None:
            found = ke_product_bound(a.m, probes[i], probes[j], endo, cache)
            bounds[(i, j)] = found
        return found

    witness = None
    for i, x in enumerate(probes):
        for j, y in enumerate(probes):
            _, _, contained = bound(i, j)
            if not contained:
                witness = {"x": _describe(x), "y": _describe(y)}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-2", FAIL,
                       "(X : Y) escapes Ke(An(X) An(Y))", witness)
               if witness else
               Verdict(f"{name}-2", PASS,
                       "(X : Y) always sits inside Ke(An(X) An(Y))"))

    if not a.predicates.self_cogenerator:
        out.append(_vacuous(f"{name}-3", ["self-cogenerator"]))
        return out
    witness = None
    for i, x in enumerate(probes):
        for j, y in enumerate(elements):
            cop, kernel_side, _ = bound(i, j)
            if cop != kernel_side:
                witness = {"x": _describe(x), "y": _describe(y),
                           "coproduct_dim": cop.dim,
                           "kernel_dim": kernel_side.dim}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-3", FAIL,
                       "equality with the kernel of the ideal product fails",
                       witness)
               if witness else
               Verdict(f"{name}-3", PASS,
                       "(X : Y) = Ke(An(X) An(Y)) for subbicomodule Y"))
    return out


# --- prime ideals of the endomorphism ring against the spectrum -------------

def _check_prime_radical(a: InstanceAnalysis, ctx) -> list:
    name = "prime-radical-correspondence"
    p, spec = a.predicates, a.spectrum
    if not p.self_cogenerator:
        return [_vacuous(f"{name}-{i}", ["self-cogenerator"])
                for i in (1, 2, 3, 4)]
    ideals = a.ideal_side
    out = []

    if not ideals.ideal_support:
        out.append(Verdict(f"{name}-1", UNSUPPORTED, _ideal_excuse(a)))
        out.append(Verdict(f"{name}-2", UNSUPPORTED, _ideal_excuse(a)))
    else:
        cp, csp = _keyset(spec.cpspec), _keyset(spec.csp)
        ep, esp = _keyset(ideals.ep), _keyset(ideals.esp)
        if not ep <= cp:
            bad = next(k for k in ideals.ep if k.key() not in cp)
            out.append(Verdict(f"{name}-1", FAIL,
                               "a prime-annihilator member is not fully "
                               "coprime", {"k": _describe(bad)}))
        elif not esp <= csp:
            bad = next(k for k in ideals.esp if k.key() not in csp)
            out.append(Verdict(f"{name}-1", FAIL,
                               "a semiprime-annihilator member is not fully "
                               "cosemiprime", {"k": _describe(bad)}))
        else:
            out.append(Verdict(f"{name}-1", PASS,
                               "prime (semiprime) annihilators give fully "
                               "coprime (cosemiprime) members"))

        if not p.intrinsically_injective:
            out.append(_vacuous(f"{name}-2", ["intrinsically injective"]))
        elif ep == cp and esp == csp:
            out.append(Verdict(f"{name}-2", PASS,
                               "spectra and annihilator-prime classes "
                               "coincide"))
        else:
            missing = next((k for k in spec.cpspec if k.key() not in ep), None)
            if missing is None:
                missing = next(k for k in spec.csp if k.key() not in esp)
            out.append(Verdict(f"{name}-2", FAIL,
                               "spectrum member without prime annihilator",
                               {"k": _describe(missing)}))

    if not ideals.radical_support:
        out.append(Verdict(f"{name}-3", UNSUPPORTED, _ideal_excuse(a)))
    else:
        an_corad = a.coproducts.annihilator(spec.cpcorad).subspace
        if ideals.prad == an_corad and ideals.ke_prad == spec.cpcorad:
            out.append(Verdict(f"{name}-3", PASS,
                               "prime radical matches An(CPcorad) and its "
                               "kernel recovers CPcorad (ring is finite "
                               "dimensional, hence Noetherian)"))
        else:
            out.append(Verdict(f"{name}-3", FAIL,
                               "prime radical does not match the coradical",
                               {"prad_dim": ideals.prad.dim,
                                "an_corad_dim": an_corad.dim,
                                "ke_prad": _describe(ideals.ke_prad),
                                "cpcorad": _describe(spec.cpcorad)}))

    whole = Subspace.full(a.field, a.m.dim)
    cosemi, _ = is_fully_cosemiprime(a.m, whole, a.lattice, a.endo,
                                     a.coproducts)
    if cosemi == (spec.cpcorad == whole):
        out.append(Verdict(f"{name}-4", PASS,
                           "fully cosemiprime exactly when CPcorad is "
                           "everything"))
    else:
        out.append(Verdict(f"{name}-4", FAIL,
                           "cosemiprimeness disagrees with the coradical",
                           {"fully_cosemiprime": cosemi,
                            "cpcorad": _describe(spec.cpcorad)}))
    return out


# --- spectra of fully invariant parts ----------------------------------------

def _check_spectrum_restriction(a: InstanceAnalysis, ctx) -> list:
    name = "spectrum-restriction"
    if not a.predicates.self_injective:
        return [_vacuous(name, ["self-injective"])]
    lat, spec = a.lattice, a.spectrum
    corad = lat.index_of(spec.cpcorad)
    witness = None
    for t in bits_of(lat.fi_bits & ~1):
        l_sub = lat.elements[t]
        if l_sub.is_full():
            continue
        r = a.restricted(l_sub)
        cpspec = [parent_coords(l_sub, k) for k in r.spectrum.cpspec]
        csp = [parent_coords(l_sub, k) for k in r.spectrum.csp]
        cpcorad = parent_coords(l_sub, r.spectrum.cpcorad)
        cut_corad = lat.elements[lat.meet(1 << t | 1 << corad)]

        def filtered(members):
            keep = []
            for k in members:
                if lat.le(lat.index_of(k), t) and is_fully_invariant(
                        child_coords(l_sub, k), r.endo):
                    keep.append(k)
            return _keyset(keep)

        if _keyset(cpspec) != filtered(spec.cpspec):
            witness = {"l": _describe(l_sub), "side": "fully coprime",
                       "standalone": len(cpspec),
                       "cut_down": len(filtered(spec.cpspec))}
            break
        if _keyset(csp) != filtered(spec.csp):
            witness = {"l": _describe(l_sub), "side": "fully cosemiprime",
                       "standalone": len(csp),
                       "cut_down": len(filtered(spec.csp))}
            break
        if cpcorad != cut_corad:
            witness = {"l": _describe(l_sub), "side": "coradical",
                       "standalone": _describe(cpcorad),
                       "cut_down": _describe(cut_corad)}
            break
    if witness:
        return [Verdict(name, FAIL,
                        "standalone spectrum of a part differs from the "
                        "cut-down parent spectrum", witness)]
    return [Verdict(name, PASS,
                    "spectra and coradicals of fully invariant parts restrict "
                    "from the parent")]


# --- simple members of the spectrum ------------------------------------------

def _check_minimal_members(a: InstanceAnalysis, ctx) -> list:
    name = "minimal-coprime-members"
    p, spec = a.predicates, a.spectrum
    out = []

    witness = None
    for s in a.socle.simples_fi:
        whole = Subspace.full(a.field, s.dim)
        if whole not in a.restricted(s).spectrum.cpspec:
            witness = {"simple": _describe(s)}
            break
    out.append(Verdict(f"{name}-1", FAIL,
                       "a fully invariant simple is not fully coprime over "
                       "itself", witness)
               if witness else
               Verdict(f"{name}-1", PASS,
                       "fully invariant simples are fully coprime standalone"))

    if not p.self_injective:
        out.append(_vacuous(f"{name}-2", ["self-injective"]))
        out.append(_vacuous(f"{name}-3", ["self-injective"]))
        return out
    cp = _keyset(spec.cpspec)
    missing = next((s for s in a.socle.simples_fi if s.key() not in cp), None)
    out.append(Verdict(f"{name}-2", FAIL,
                       "fully invariant simple missing from the spectrum",
                       {"simple": _describe(missing)})
               if missing is not None else
               Verdict(f"{name}-2", PASS,
                       "fully invariant simples are spectrum points"))

    if not p.property_s_fi:
        out.append(_vacuous(f"{name}-3", ["Property S on the fully invariant "
                                          "lattice"]))
        return out
    witness = None
    for l_sub in a.lattice.nonzero_fi_elements():
        if not a.topology("fi").v_of(l_sub):
            witness = {"l": _describe(l_sub)}
            break
    out.append(Verdict(f"{name}-3", FAIL,
                       "a nonzero fully invariant part contains no spectrum "
                       "point", witness)
               if witness else
               Verdict(f"{name}-3", PASS,
                       "every nonzero fully invariant part contains a "
                       "spectrum point"))
    return out


# --- socle facts --------------------------------------------------------------

def _check_essential_coradical(a: InstanceAnalysis, ctx) -> list:
    name = "essential-coradical"
    p = a.predicates
    out = []

    # The closure is tested with `apply` and `contains_vector`, not with the
    # kernel that built it, and against the enumerated lattice.
    ops = a.m.all_ops()
    witness = None
    for i in range(a.m.dim):
        vec = tuple(a.field.one if j == i else a.field.zero
                    for j in range(a.m.dim))
        cyc = cyclic_subbicomodule(a.m, vec)
        failed = ("generator" if not cyc.contains_vector(vec) else
                  "stability" if not is_stable(cyc, ops) else
                  "lattice" if a.lattice.find(cyc) is None else None)
        if failed:
            witness = {"basis_index": i, "test": failed}
            break
    out.append(Verdict(f"{name}-1", FAIL,
                       "cyclic span of a basis vector is not a lattice "
                       "subbicomodule containing it", witness)
               if witness else
               Verdict(f"{name}-1", PASS,
                       "every vector generates a finite cyclic "
                       "subbicomodule"))

    lat = a.lattice
    if not p.property_s:
        simple = sum(1 << lat.index_of(s) for s in a.socle.simples)
        bad = next(lat.elements[t] for t in range(1, len(lat))
                   if not simple & (lat.below[t] | 1 << t))
        out.append(Verdict(f"{name}-2", FAIL,
                           "a nonzero part contains no simple",
                           {"l": _describe(bad)}))
    elif p.quasi_duo and not p.property_s_fi:
        simple = sum(1 << lat.index_of(s) for s in a.socle.simples_fi)
        bad = next(lat.elements[t] for t in bits_of(lat.fi_bits & ~1)
                   if not simple & (lat.below[t] | 1 << t))
        out.append(Verdict(f"{name}-2", FAIL,
                           "quasi-duo instance misses Property S on the "
                           "fully invariant lattice", {"l": _describe(bad)}))
    else:
        detail = "every nonzero part contains a simple"
        if p.quasi_duo:
            detail += "; quasi-duo gives the fully invariant version"
        out.append(Verdict(f"{name}-2", PASS, detail))

    if p.corad_essential:
        out.append(Verdict(f"{name}-3", PASS,
                           "the coradical meets every nonzero part"))
    else:
        corad = lat.index_of(a.socle.coradical)
        bad = next(l for t, l in enumerate(lat.elements)
                   if t and lat.meet(1 << corad | 1 << t) == 0)
        out.append(Verdict(f"{name}-3", FAIL, "coradical is not essential",
                           {"l": _describe(bad)}))
    return out


# --- identities of varieties --------------------------------------------------

def _check_variety_identities(a: InstanceAnalysis, ctx) -> list:
    name = "variety-identities"
    lat = a.lattice
    top = a.topology("fi")
    elements, v, space = lat.elements, top.varieties, top.space
    out = []

    v_top, v_zero = top.v_of(lat.top()), top.v_of(lat.zero())
    if v_top != space or v_zero:
        out.append(Verdict(f"{name}-1", FAIL, "endpoint identities fail",
                           {"x_of_top": sorted(space - v_top),
                            "x_of_zero": sorted(space - v_zero)}))
    else:
        out.append(Verdict(f"{name}-1", PASS,
                           "the whole space opens nothing and zero opens "
                           "everything"))

    # Both sides are symmetric in (l1, l2), so pairs i <= j suffice, and the
    # first failing ordered pair already has i <= j.
    witness = None
    for i in range(len(elements)):
        for j in range(i, len(elements)):
            pair = 1 << i | 1 << j
            if (not (v[i] | v[j]) <= v[lat.join(pair)]
                    or v[i] & v[j] != v[lat.meet(pair)]):
                witness = {"l1": _describe(elements[i]),
                           "l2": _describe(elements[j])}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-2", FAIL, "sum/meet inclusions fail", witness)
               if witness else
               Verdict(f"{name}-2", PASS,
                       "sums shrink opens and meets union them"))

    witness = None
    fi = list(bits_of(lat.fi_bits))
    for i in fi:
        for j in fi:
            l1, l2 = elements[i], elements[j]
            v_sum = v[lat.join(1 << i | 1 << j)]
            v_union = v[i] | v[j]
            v_cop = top.v_of(a.coproducts.coproduct(l1, l2))
            if not (v_sum == v_union == v_cop):
                witness = {"l1": _describe(l1), "l2": _describe(l2),
                           "x_sum": sorted(space - v_sum),
                           "x_meet": sorted(space - v_union),
                           "x_coproduct": sorted(space - v_cop)}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-3", FAIL,
                       "fully invariant sum/coproduct identity fails",
                       witness)
               if witness else
               Verdict(f"{name}-3", PASS,
                       "opens of sums and coproducts agree on the fully "
                       "invariant lattice"))
    return out


# --- the topology axioms --------------------------------------------------------

def _check_topology_axioms(a: InstanceAnalysis, ctx) -> list:
    name = "topology-axioms"
    out = []
    top_fi = a.topology("fi")
    out.append(Verdict(f"{name}-1", PASS,
                       "fully invariant varieties close under union and "
                       "intersection")
               if top_fi.is_topology else
               Verdict(f"{name}-1", FAIL,
                       "fully invariant family is not a topology",
                       {"witness_sets": [sorted(s) for s in
                                         (top_fi.witness or [])]}))
    if not a.predicates.duo:
        full = a.topology("full")
        detail = "needs duo (full family axiom scan: %s)" % (
            "closed" if full.is_topology else "not closed")
        out.append(Verdict(f"{name}-2", VACUOUS, detail))
        return out
    full = a.topology("full")
    out.append(Verdict(f"{name}-2", PASS,
                       "duo instance is a top bicomodule")
               if full.is_topology else
               Verdict(f"{name}-2", FAIL,
                       "duo instance with non-topological variety family",
                       {"witness_sets": [sorted(s) for s in
                                         (full.witness or [])]}))
    return out


# --- pointwise description of the space ----------------------------------------

def _check_simple_points(a: InstanceAnalysis, ctx) -> list:
    name = "simple-point-characterization"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(f"{name}-{i}", gaps) for i in (1, 2, 3, 4, 5)]
    top, lat = a.topology("full"), a.lattice
    simple_keys = _keyset(a.socle.simples)
    out = []

    sep = separation(top)
    out.append(Verdict(f"{name}-1", PASS, "the space is Kolmogorov")
               if sep.t0 else
               Verdict(f"{name}-1", FAIL, "two points share all opens",
                       {"open_count": len(top.open_sets())}))

    witness = None
    opens = top.open_sets()
    basis = [top.space - v for v in top.varieties]
    for o in opens:
        union = frozenset()
        for b in basis:
            if b <= o:
                union |= b
        if union != o:
            witness = {"open": sorted(o), "basis_union": sorted(union)}
            break
    out.append(Verdict(f"{name}-2", FAIL, "opens are not unions of basic "
                                          "opens", witness)
               if witness else
               Verdict(f"{name}-2", PASS, "lattice opens form a basis"))

    witness = None
    corad = lat.index_of(a.socle.coradical)
    for t, l_sub in enumerate(lat.elements):
        v = top.varieties[t]
        is_simple = l_sub.key() in simple_keys
        idx = top.position(l_sub)
        is_point = idx is not None
        singleton_variety = False
        if is_point:
            singleton_variety = v == frozenset({idx})
            if top.point_closure(idx) != v:
                witness = {"l": _describe(l_sub), "case": "point closure"}
                break
            if is_simple != top.is_closed(frozenset({idx})):
                witness = {"l": _describe(l_sub), "case": "closed singleton"}
                break
        if is_simple != (is_point and singleton_variety):
            witness = {"l": _describe(l_sub), "simple": is_simple,
                       "coprime": is_point, "variety_size": len(v),
                       "case": "simple members"}
            break
        if (len(v) == 0) != l_sub.is_zero():
            witness = {"l": _describe(l_sub), "case": "empty variety"}
            break
        if len(v) == top.size and not lat.le(corad, t):
            witness = {"l": _describe(l_sub), "case": "full variety misses "
                                                      "the coradical"}
            break
    out.append(Verdict(f"{name}-3", FAIL, "pointwise description fails",
                       witness)
               if witness else
               Verdict(f"{name}-3", PASS,
                       "simples are exactly the closed points and varieties "
                       "empty or full behave as described"))

    witness = None
    for l_sub in lat.nonzero_fi_elements():
        if l_sub.is_full():
            continue
        r = a.restricted(l_sub)
        positions = [top.position(parent_coords(l_sub, k))
                     for k in r.spectrum.cpspec]
        if None in positions:
            witness = {"l": _describe(l_sub), "case": "points do not embed"}
            break
        child_top = r.topology("full")
        for n_sub, v in zip(lat.elements, top.varieties):
            pulled = frozenset(i for i, p in enumerate(positions) if p in v)
            if not child_top.is_closed(pulled):
                witness = {"l": _describe(l_sub), "n": _describe(n_sub),
                           "case": "preimage not closed"}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-4", FAIL,
                       "embedding of a part is not continuous", witness)
               if witness else
               Verdict(f"{name}-4", PASS,
                       "embeddings of parts pull varieties back to "
                       "varieties"))

    out.append(Verdict(f"{name}-5", VACUOUS,
                       "nothing is computed here: isomorphism transport is "
                       "exercised by the morphism statement"))
    return out


# --- separation equivalences ----------------------------------------------------

def _check_separation(a: InstanceAnalysis, ctx) -> list:
    name = "separation-equivalences"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    sep = separation(a.topology("full"))
    all_simple = _keyset(a.spectrum.cpspec) == _keyset(a.socle.simples)
    flags = {"spectrum_is_socle": all_simple, "discrete": sep.discrete,
             "t2": sep.t2, "t1": sep.t1}
    if len(set(flags.values())) == 1:
        return [Verdict(name, PASS,
                        "discreteness, Hausdorff, Frechet, and a simple "
                        "spectrum are equivalent (all %s)"
                        % str(all_simple).lower())]
    return [Verdict(name, FAIL, "separation equivalences break",
                    {k: v for k, v in flags.items()})]


# --- maximal primes force discreteness ------------------------------------------

def _check_prime_maximal(a: InstanceAnalysis, ctx) -> list:
    name = "prime-maximal-discreteness"
    gaps = _standing_gaps(a)
    p = a.predicates
    if not p.self_cogenerator:
        gaps.append("self-cogenerator")
    if gaps:
        return [_vacuous(name, gaps)]
    spec, ideals = a.spectrum, a.ideal_side
    if ideals.primes is None:
        return [Verdict(name, UNSUPPORTED, _ideal_excuse(a))]
    maximal_keys = {i.subspace.key() for i in maximal_ideals(ideals.two_sided)}
    if not all(i.subspace.key() in maximal_keys for i in ideals.primes):
        return [_vacuous(name, ["every prime ideal maximal"])]
    if _keyset(spec.cpspec) != _keyset(a.socle.simples):
        extra = next(k for k in spec.cpspec
                     if k.key() not in _keyset(a.socle.simples))
        return [Verdict(name, FAIL,
                        "maximal primes but a non-simple spectrum member",
                        {"k": _describe(extra)})]
    lat, top = a.lattice, a.topology("full")
    corad = lat.index_of(a.socle.coradical)
    for t, l_sub in enumerate(lat.elements):
        empty = top.varieties[t] == top.space
        if empty != lat.le(corad, t):
            return [Verdict(name, FAIL,
                            "empty opens do not match coradical containment",
                            {"l": _describe(l_sub)})]
    return [Verdict(name, PASS,
                    "spectrum is the socle and empty opens capture the "
                    "coradical")]


# --- compactness (degenerate at finite scale) ------------------------------------

def _check_compactness(a: InstanceAnalysis, ctx) -> list:
    name = "finite-compactness"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    return [Verdict(name, VACUOUS,
                    "cannot fail at finite scale: the space is finite, so "
                    "every open cover has a finite subcover")]


# --- local finiteness of simple families ------------------------------------------

def _check_locally_finite(a: InstanceAnalysis, ctx) -> list:
    name = "locally-finite-simples"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    lat = a.lattice
    simples = [lat.index_of(s) for s in a.socle.simples]
    if not simples:
        return [Verdict(name, PASS, "no simples, nothing to separate")]
    for l_sub in a.spectrum.cpspec:
        t = lat.index_of(l_sub)
        outside = lat.join(sum(1 << s for s in simples if not lat.le(s, t)))
        if lat.le(t, outside):
            return [Verdict(name, FAIL,
                            "a point lies inside the sum of the simples it "
                            "excludes", {"point": _describe(l_sub)})]
        inside_nbhd = {s for s in simples if not lat.le(s, outside)}
        inside_l = {s for s in simples if lat.le(s, t)}
        if inside_nbhd != inside_l:
            return [Verdict(name, FAIL,
                            "the canonical neighbourhood meets the wrong "
                            "simples", {"point": _describe(l_sub)})]
    return [Verdict(name, PASS,
                    "each point has a neighbourhood meeting only its own "
                    "simples (finiteness is automatic at this scale)")]


# --- irreducibility of the whole space --------------------------------------------

def _check_irreducible_coradical(a: InstanceAnalysis, ctx) -> list:
    name = "irreducible-iff-coprime-coradical"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    top = a.topology("full")
    spec = a.spectrum
    irreducible = is_irreducible_subset(top, top.space)
    corad = spec.cpcorad
    coprime = False
    if not corad.is_zero():
        coprime, _ = is_fully_coprime(a.m, corad, a.lattice, a.endo,
                                      a.coproducts)
    if irreducible == coprime:
        detail = ("space irreducible and CPcorad fully coprime"
                  if irreducible else
                  "space reducible and CPcorad not fully coprime")
        if not spec.cpspec:
            detail = "empty spectrum: both sides are false"
        return [Verdict(name, PASS, detail)]
    return [Verdict(name, FAIL, "irreducibility disagrees with the "
                                "coradical",
                    {"irreducible": irreducible,
                     "cpcorad": _describe(corad)})]


# --- subdirect irreducibility and connectivity -------------------------------------

def _check_subdirect_topology(a: InstanceAnalysis, ctx) -> list:
    name = "subdirect-irreducibility-topology"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(f"{name}-{i}", gaps) for i in (1, 2)]
    top = a.topology("full")
    p = a.predicates
    out = []
    nonempty = [c for c in top.closed if c]
    pairwise = all(c1 & c2 for c1 in nonempty for c2 in nonempty)
    if p.subdirectly_irreducible == pairwise:
        out.append(Verdict(f"{name}-1", PASS,
                           "subdirect irreducibility matches pairwise "
                           "meeting of closed sets"))
    else:
        c1, c2 = next((x, y) for x in nonempty for y in nonempty
                      if not (x & y)) if not pairwise else (None, None)
        out.append(Verdict(f"{name}-1", FAIL,
                           "closed-set intersections disagree with "
                           "subdirect irreducibility",
                           {"subdirectly_irreducible":
                            p.subdirectly_irreducible,
                            "disjoint_closed": None if c1 is None else
                            [sorted(c1), sorted(c2)]}))

    connected = is_connected_subset(top, top.space)
    forward_ok = (not p.subdirectly_irreducible) or connected
    discrete_case = _keyset(a.spectrum.cpspec) == _keyset(a.socle.simples)
    backward_ok = (not (connected and discrete_case)) or \
        p.subdirectly_irreducible
    if forward_ok and backward_ok:
        out.append(Verdict(f"{name}-2", PASS,
                           "subdirect irreducibility forces connectivity, "
                           "with the converse on a simple spectrum"))
    else:
        out.append(Verdict(f"{name}-2", FAIL,
                           "connectivity transfer fails",
                           {"subdirectly_irreducible":
                            p.subdirectly_irreducible,
                            "connected": connected,
                            "spectrum_is_socle": discrete_case}))
    return out


# --- point varieties and components -------------------------------------------------

def _check_point_varieties(a: InstanceAnalysis, ctx) -> list:
    name = "point-varieties-irreducible"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(f"{name}-{i}", gaps) for i in (1, 2)]
    top = a.topology("full")
    out = []
    witness = None
    for k in top.points:
        if not is_irreducible_subset(top, top.v_of(k)):
            witness = {"point": _describe(k)}
            break
    out.append(Verdict(f"{name}-1", FAIL, "a point variety is reducible",
                       witness)
               if witness else
               Verdict(f"{name}-1", PASS, "every point variety is "
                                          "irreducible"))

    witness = None
    lat = a.lattice
    for comp in irreducible_components(top):
        l_sub = top.phi(comp)
        if top.position(l_sub) is None:
            witness = {"component": sorted(comp), "sum": _describe(l_sub),
                       "problem": "component sum is not a spectrum point"}
            break
        t = lat.index_of(l_sub)
        if any(p != t and lat.le(t, p) for p in top.point_index):
            witness = {"component": sorted(comp), "sum": _describe(l_sub),
                       "problem": "component sum is not maximal"}
            break
    out.append(Verdict(f"{name}-2", FAIL, "component description fails",
                       witness)
               if witness else
               Verdict(f"{name}-2", PASS,
                       "components are varieties of maximal points"))
    return out


# --- comparability inside connected subsets ------------------------------------------

def _subsets_upto(space, cap):
    items = sorted(space)
    n = len(items)
    stack = [(0, [])]
    while stack:
        start, chosen = stack.pop()
        if len(chosen) >= 2:
            yield frozenset(chosen)
        if len(chosen) == cap:
            continue
        for i in range(start, n):
            stack.append((i + 1, chosen + [items[i]]))


def _check_connected_comparable(a: InstanceAnalysis, ctx) -> list:
    name = "connected-subsets-comparable"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    top = a.topology("full")
    lat, index = a.lattice, top.point_index
    for subset in _subsets_upto(top.space, ctx.subset_cap):
        if not is_connected_subset(top, subset):
            continue
        for i in subset:
            if not any(lat.le(index[j], index[i]) or lat.le(index[i], index[j])
                       for j in subset if j != i):
                return [Verdict(name, FAIL,
                                "an isolated member of a connected subset",
                                {"subset": sorted(subset),
                                 "member": _describe(top.points[i])})]
    return [Verdict(name, PASS,
                    "members of connected subsets (size <= %d) are pairwise "
                    "linked by inclusion" % ctx.subset_cap)]


# --- closures through the sum of points -----------------------------------------------

def _check_closure_formula(a: InstanceAnalysis, ctx) -> list:
    name = "closure-formula"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(name, gaps)]
    top = a.topology("full")
    candidates = list(_subsets_upto(top.space, ctx.subset_cap))
    candidates.extend(frozenset({i}) for i in top.space)
    candidates.append(frozenset())
    candidates.extend(top.closed)
    for subset in candidates:
        expected = top.v_of(top.phi(subset))
        if top.closure(subset) != expected:
            return [Verdict(name, FAIL,
                            "closure differs from the variety of the sum",
                            {"subset": sorted(subset),
                             "closure": sorted(top.closure(subset)),
                             "variety_of_sum": sorted(expected)})]
    return [Verdict(name, PASS,
                    "closures are varieties of the summed points")]


# --- closed sets against coradical-fixed parts ------------------------------------------

def _check_closed_bijection(a: InstanceAnalysis, ctx) -> list:
    name = "closed-set-bijection"
    gaps = _standing_gaps(a)
    if gaps:
        return [_vacuous(f"{name}-{i}", gaps) for i in (1, 2)]
    top = a.topology("full")
    fixed = a.e_set()
    out = []

    witness = None
    fixed_keys = _keyset(fixed)
    for c in top.closed:
        l_sub = top.phi(c)
        if l_sub.key() not in fixed_keys:
            witness = {"closed": sorted(c), "sum": _describe(l_sub),
                       "problem": "sum of a closed set is not "
                                  "coradical-fixed"}
            break
        if top.v_of(l_sub) != c:
            witness = {"closed": sorted(c), "sum": _describe(l_sub),
                       "problem": "variety does not recover the closed set"}
            break
    if witness is None:
        for l_sub in fixed:
            if top.phi(top.v_of(l_sub)) != l_sub:
                witness = {"l": _describe(l_sub),
                           "problem": "sum over the variety does not "
                                      "recover L"}
                break
        if witness is None and len(fixed) != len(top.closed):
            witness = {"closed_count": len(top.closed),
                       "fixed_count": len(fixed),
                       "problem": "cardinalities differ"}
    out.append(Verdict(f"{name}-1", FAIL, "closed sets do not biject with "
                                          "coradical-fixed parts", witness)
               if witness else
               Verdict(f"{name}-1", PASS,
                       "closed sets biject with the parts equal to their own "
                       "coprime coradical"))

    if not a.predicates.self_cogenerator:
        out.append(_vacuous(f"{name}-2", ["self-cogenerator"]))
        return out
    nonzero_fixed = {l.key() for l in fixed if not l.is_zero()}
    csp = _keyset(a.spectrum.csp)
    if nonzero_fixed == csp:
        out.append(Verdict(f"{name}-2", PASS,
                           "nonzero coradical-fixed parts are exactly the "
                           "fully cosemiprime members"))
    else:
        sample = next(iter(nonzero_fixed ^ csp))
        out.append(Verdict(f"{name}-2", FAIL,
                           "coradical-fixed parts differ from the "
                           "cosemiprime class",
                           {"fixed_count": len(nonzero_fixed),
                            "cosemiprime_count": len(csp),
                            "disagreeing_key_dim": sample[0]}))
    return out


# --- the centralizer morphism into the endomorphism ring --------------------------------

def _check_centralizer_central(a: InstanceAnalysis, ctx) -> list:
    name = "centralizer-image-central"
    try:
        cen = centralizer(a.m)
    except CoalgebraMismatch:
        return [_vacuous(name, ["matching left and right coalgebras"])]
    endo = a.endo
    dual = cen.dual
    if not cen.contains_counit():
        return [Verdict(name, FAIL, "the counit is not centralizing",
                        {"centralizer_dim": cen.dim})]
    if not cen.closed_under_convolution():
        return [Verdict(name, FAIL,
                        "centralizer is not convolution closed",
                        {"centralizer_dim": cen.dim})]
    for f in cen.basis():
        mat_f = phi_matrix(a.m, f)
        if not endo.contains_matrix(mat_f):
            return [Verdict(name, FAIL,
                            "a centralizing functional does not act "
                            "bicolinearly", {"f": list(map(
                                a.field.format_scalar, f))})]
        for g in cen.basis():
            lhs = phi_matrix(a.m, dual.multiply(f, g))
            if lhs != phi_matrix(a.m, f) @ phi_matrix(a.m, g):
                return [Verdict(name, FAIL,
                                "the action does not respect convolution",
                                {"f": list(map(a.field.format_scalar, f)),
                                 "g": list(map(a.field.format_scalar, g))})]
        for basis_mat in endo.basis:
            if mat_f @ basis_mat != basis_mat @ mat_f:
                return [Verdict(name, FAIL,
                                "the image is not central",
                                {"f": list(map(a.field.format_scalar, f))})]
    return [Verdict(name, PASS,
                    "centralizer acts through central bicolinear "
                    "endomorphisms, multiplicatively")]


# --- regular instances: centralizer equals all endomorphisms -----------------------------

def _check_regular_endomorphisms(a: InstanceAnalysis, ctx) -> list:
    name = "regular-endomorphisms-centralizer"
    if a.m.regular_of is None:
        return [_vacuous(name, ["a coalgebra viewed as its own bicomodule"])]
    cen = centralizer(a.m)
    endo = a.endo
    counit = a.m.right.counit
    if cen.dim != endo.dim:
        return [Verdict(name, FAIL,
                        "centralizer and endomorphism dimensions differ",
                        {"centralizer_dim": cen.dim, "endo_dim": endo.dim})]
    field, n = a.field, a.m.dim
    for f in cen.basis():
        mat = phi_matrix(a.m, f)
        back = tuple(
            _apply_counit(field, counit, mat, i) for i in range(n))
        if back != tuple(f):
            return [Verdict(name, FAIL,
                            "counit composition does not invert the action",
                            {"f": list(map(field.format_scalar, f))})]
    for g_mat in endo.basis:
        f = tuple(_apply_counit(field, counit, g_mat, i) for i in range(n))
        if not cen.subspace.contains_vector(f):
            return [Verdict(name, FAIL,
                            "counit composition leaves the centralizer",
                            {"g": [list(map(field.format_scalar, row))
                                   for row in g_mat.data]})]
        if phi_matrix(a.m, f) != g_mat:
            return [Verdict(name, FAIL,
                            "the action does not invert counit composition",
                            {"g": [list(map(field.format_scalar, row))
                                   for row in g_mat.data]})]
    if not endo.is_commutative():
        pair = None
        units = coordinate_vectors(field, endo.dim)
        for x in units:
            for y in units:
                if endo.multiply(x, y) != endo.multiply(y, x):
                    pair = (x, y)
                    break
            if pair:
                break
        return [Verdict(name, FAIL,
                        "regular endomorphism ring is not commutative",
                        {"pair": [list(p) for p in pair]})]
    if not a.predicates.duo:
        bad = next(l for l in a.lattice.elements if not a.lattice.is_fi(l))
        return [Verdict(name, FAIL, "regular instance is not duo",
                        {"l": _describe(bad)})]
    return [Verdict(name, PASS,
                    "counit composition inverts the centralizer action; the "
                    "ring is commutative and the instance duo")]


def _apply_counit(field, counit, mat: Matrix, col: int):
    total = field.zero
    for j, eps in enumerate(counit):
        if eps and mat.data[j][col]:
            total = field.add(total, field.mul(eps, mat.data[j][col]))
    return total


# --- spectral maps of coalgebra morphisms --------------------------------------------------

def _check_morphism_statement(a: InstanceAnalysis, ctx) -> list:
    name = "morphism-spectral-map"
    if a.m.regular_of is None:
        return [_vacuous(name, ["a coalgebra instance to build the identity "
                                "morphism on"])]
    theta = identity_morphism(a.m.regular_of)
    return morphism_checks(theta, mode=a.mode, budget=a.budget,
                           ideal_budget=a.ideal_budget, seed=a.seed)


def morphism_checks(theta: CoalgebraMorphism, mode: str = "exhaustive",
                    budget: int = 200000, ideal_budget: int = 50000,
                    seed: int = 0, source: InstanceAnalysis | None = None,
                    target: InstanceAnalysis | None = None) -> list:
    """Spectral-map statements for a coalgebra morphism.

    Both coalgebras are analyzed in their one-sided comodule forms, where
    subbicomodules are right coideals and the fully invariant ones are the
    two-sided coideals.  `source`/`target` allow sharing prebuilt analyses.
    """
    from .catalog import right_comodule
    name = "morphism-spectral-map"
    theta.require_valid()
    if source is None:
        source = analyze(right_comodule(theta.source), mode=mode,
                         budget=budget, ideal_budget=ideal_budget, seed=seed)
    if target is None:
        if theta.target == theta.source:
            target = source
        else:
            target = analyze(right_comodule(theta.target), mode=mode,
                             budget=budget, ideal_budget=ideal_budget,
                             seed=seed)
    ps, pt = source.predicates, target.predicates
    base_gaps = [g for g, v in (
        ("source intrinsically injective", ps.intrinsically_injective),
        ("source self-cogenerator", ps.self_cogenerator),
        ("target self-cogenerator", pt.self_cogenerator)) if not v]
    if base_gaps:
        return [_vacuous(f"{name}-{i}", base_gaps) for i in (1, 2, 3, 4, 5)]
    out = []
    injective = theta.is_injective()
    src_points = source.spectrum.cpspec
    tgt_points = target.spectrum.cpspec
    images = [image_subspace(theta, k) for k in src_points]
    tgt_position = {k.key(): j for j, k in enumerate(tgt_points)}
    defined = all(img.key() in tgt_position for img in images)

    route_a = injective and pt.self_injective
    route_b = ps.e_right_duo
    if not route_a and route_b is None:
        out.append(Verdict(f"{name}-1", UNSUPPORTED,
                           "needs a right-duo source dual ring, undecidable "
                           "here: " + _ideal_excuse(source)))
    elif not route_a and not route_b:
        out.append(_vacuous(f"{name}-1",
                            ["injective into self-injective, or right-duo "
                             "source dual ring"]))
    else:
        witness = None
        if not defined:
            bad = next(i for i, img in enumerate(images)
                       if img.key() not in tgt_position)
            witness = {"point": _describe(src_points[bad]),
                       "image": _describe(images[bad])}
        elif not image_subspace(theta, source.spectrum.cpcorad).is_zero() \
                and not target.spectrum.cpcorad.contains(
                    image_subspace(theta, source.spectrum.cpcorad)):
            witness = {"corad_image": _describe(
                image_subspace(theta, source.spectrum.cpcorad))}
        out.append(Verdict(f"{name}-1", FAIL,
                           "points do not map to points", witness)
                   if witness else
                   Verdict(f"{name}-1", PASS,
                           "spectrum points map to spectrum points and the "
                           "coradical image stays inside the coradical"))

    if not (ps.duo and pt.duo):
        gaps = [g for g, v in (("source duo", ps.duo),
                               ("target duo", pt.duo)) if not v]
        out.append(_vacuous(f"{name}-2", gaps))
    else:
        report = spectral_map(theta, source.topology("full"),
                              target.topology("full"))
        out.append(Verdict(f"{name}-2", PASS,
                           "induced map on full topologies is continuous")
                   if report.defined and report.continuous else
                   Verdict(f"{name}-2", FAIL,
                           "induced map on full topologies misbehaves",
                           report.to_dict()))

    preimage_keys = {preimage(theta.matrix, k).key() for k in tgt_points}
    all_preimages = all(k.key() in preimage_keys for k in src_points)
    if not defined:
        out.append(_vacuous(f"{name}-3", ["a well-defined point map"]))
    elif not all_preimages:
        out.append(_vacuous(f"{name}-3",
                            ["every source point a preimage of a target "
                             "point"]))
    else:
        index_map = [tgt_position[img.key()] for img in images]
        if len(set(index_map)) == len(index_map):
            out.append(Verdict(f"{name}-3", PASS, "the point map is "
                                                  "injective"))
        else:
            dup = next(j for j in index_map if index_map.count(j) > 1)
            pair = [i for i, j in enumerate(index_map) if j == dup][:2]
            out.append(Verdict(f"{name}-3", FAIL,
                               "two points share an image",
                               {"first": _describe(src_points[pair[0]]),
                                "second": _describe(src_points[pair[1]])}))

    if not (injective and pt.self_injective):
        gaps = [g for g, v in (
            ("injective morphism", injective),
            ("self-injective target", pt.self_injective)) if not v]
        out.append(_vacuous(f"{name}-4", gaps))
    else:
        report = spectral_map(theta, source.topology("fi"),
                              target.topology("fi"))
        witness = None
        if not (report.defined and report.continuous):
            witness = report.to_dict()
        elif report.index_map is not None and \
                set(report.index_map) == set(range(len(tgt_points))):
            for closed in source.topology("fi").closed:
                img = frozenset(report.index_map[i] for i in closed)
                if not target.topology("fi").is_closed(img):
                    witness = {"closed": sorted(closed),
                               "image": sorted(img)}
                    break
            if witness is None:
                for o in source.topology("fi").open_sets():
                    img = frozenset(report.index_map[i] for i in o)
                    if not target.topology("fi").is_open(img):
                        witness = {"open": sorted(o), "image": sorted(img)}
                        break
        out.append(Verdict(f"{name}-4", FAIL,
                           "restricted-flavor continuity or openness fails",
                           witness)
                   if witness else
                   Verdict(f"{name}-4", PASS,
                           "continuous on the fully invariant flavor, open "
                           "and closed when surjective"))

    if not theta.is_bijective():
        out.append(_vacuous(f"{name}-5", ["an isomorphism"]))
        return out
    report = spectral_map(theta, source.topology("fi"),
                          target.topology("fi"))
    witness = None
    if not (report.defined and report.continuous):
        witness = report.to_dict()
    elif report.index_map is None or \
            sorted(report.index_map) != list(range(len(tgt_points))):
        witness = {"index_map": list(report.index_map or [])}
    else:
        for closed in source.topology("fi").closed:
            img = frozenset(report.index_map[i] for i in closed)
            if not target.topology("fi").is_closed(img):
                witness = {"closed": sorted(closed), "image": sorted(img)}
                break
        if witness is None:
            corad_img = image_subspace(theta, source.spectrum.cpcorad)
            if corad_img != target.spectrum.cpcorad:
                witness = {"corad_image": _describe(corad_img),
                           "target_corad": _describe(
                               target.spectrum.cpcorad)}
            elif _keyset(image_subspace(theta, k)
                         for k in source.spectrum.csp) != \
                    _keyset(target.spectrum.csp):
                witness = {"problem": "cosemiprime classes do not "
                                      "correspond"}
    out.append(Verdict(f"{name}-5", FAIL,
                       "an isomorphism fails to transport the space",
                       witness)
               if witness else
               Verdict(f"{name}-5", PASS,
                       "isomorphisms give homeomorphisms and transport the "
                       "coradical"))
    return out


# --- registry ---------------------------------------------------------------------

@dataclass
class CheckContext:
    subset_cap: int = 6
    seed: int = 0


_REGISTRY = {
    "annihilator-kernel-galois": _check_an_ke_galois,
    "duo-transfer": _check_duo_transfer,
    "coproduct-annihilator-kernel-bound": _check_coproduct_bound,
    "prime-radical-correspondence": _check_prime_radical,
    "spectrum-restriction": _check_spectrum_restriction,
    "minimal-coprime-members": _check_minimal_members,
    "essential-coradical": _check_essential_coradical,
    "variety-identities": _check_variety_identities,
    "topology-axioms": _check_topology_axioms,
    "simple-point-characterization": _check_simple_points,
    "separation-equivalences": _check_separation,
    "prime-maximal-discreteness": _check_prime_maximal,
    "finite-compactness": _check_compactness,
    "locally-finite-simples": _check_locally_finite,
    "irreducible-iff-coprime-coradical": _check_irreducible_coradical,
    "subdirect-irreducibility-topology": _check_subdirect_topology,
    "point-varieties-irreducible": _check_point_varieties,
    "connected-subsets-comparable": _check_connected_comparable,
    "closure-formula": _check_closure_formula,
    "closed-set-bijection": _check_closed_bijection,
    "centralizer-image-central": _check_centralizer_central,
    "regular-endomorphisms-centralizer": _check_regular_endomorphisms,
    "morphism-spectral-map": _check_morphism_statement,
}


def statement_names():
    return list(_REGISTRY)


def run_checks(a: InstanceAnalysis, names=None, subset_cap: int = 6) -> list:
    """Run the selected statements (all by default) on one instance."""
    ctx = CheckContext(subset_cap=subset_cap, seed=a.seed)
    chosen = statement_names() if names is None else list(names)
    out = []
    for name in chosen:
        if name not in _REGISTRY:
            raise ValueError(f"unknown statement {name!r}; known: "
                             + ", ".join(statement_names()))
        verdicts = _REGISTRY[name](a, ctx)
        if not a.lattice.certified:
            for v in verdicts:
                if v.status == PASS and "enumerated lattice" not in v.detail:
                    v.detail += " (relative to the enumerated lattice)"
        out.extend(verdicts)
    return out
