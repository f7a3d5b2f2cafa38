"""The fast paths against the definitions.

Lattices and right ideals are enumerated by cyclic sum-closure; these tests
compare them with literal filters over every subspace.  Coprimality is
tested on maximal pairs, primality on minimal ideals, and the coproduct,
variety and Galois statements read the containment table; these tests
recompute every verdict by scanning all pairs literally.  The literal
statement bodies below are the pre-table versions of the checks.  Joins,
meets and varieties read from the table are compared with +, intersection
and `contains`, on instances and on their fully invariant parts.
"""

from collections import Counter
from itertools import product
from random import Random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from coprimespec import (analysis as analysis_module, bicomodule as bicomodule_module,
                         checks, coprime as coprime_module, endo as endo_module,
                         lattice as lattice_module, linalg)
from coprimespec.analysis import InstanceAnalysis
from coprimespec.bicomodule import Bicomodule, is_subbicomodule, quotient, restrict
from coprimespec.catalog import (random_instance, resolve_ref,
                                 resolve_ref_to_bicomodule, right_comodule)
from coprimespec.checks import (FAIL, PASS, VACUOUS, Verdict, _describe,
                                _vacuous, run_checks)
from coprimespec.coalgebra import Coalgebra
from coprimespec.coprime import (CoproductCache, is_fully_coprime,
                                 is_fully_cosemiprime, ke_product_bound)
from coprimespec.endo import (EndoAlgebra, an, coordinate_vectors,
                              enumerate_ideals, hom_dim, ideal_product,
                              intertwiners, jacobson_radical, ke, prime_masks,
                              prime_radical, quotient_cogenerated)
from coprimespec.exceptions import NotSubbicomodule
from coprimespec.fields import prime_field, rationals
from coprimespec.lattice import (cyclic_subbicomodule, enumerate_lattice,
                                 is_fully_invariant)
from coprimespec.linalg import (Matrix, Subspace, annihilator, bits_of,
                                child_coords, combination, combined_maps,
                                enumerate_subspaces, is_stable, joint_preimage,
                                kernel, preimage)
from coprimespec.oracle import diff_against_engine
from test_fields import is_canonical_rational
from test_linalg import TUPLE_F2

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
QQ = rationals()

# Dimension budgets that keep exhaustive enumeration small per field.
DIM_BUDGET = {F2: 5, F3: 4, F5: 4}


def _all_pairs_coprime(a, k, cache):
    fi = a.lattice.subset(a.lattice.fi_bits)
    return not any(not x.contains(k) and not y.contains(k)
                   and cache.coproduct(x, y).contains(k)
                   for x in fi for y in fi)


def _all_pairs_cosemiprime(a, k, cache):
    return not any(not x.contains(k) and cache.coproduct(x, x).contains(k)
                   for x in a.lattice.subset(a.lattice.fi_bits))


def _check_coprime_reductions(a):
    cache = CoproductCache(a.m, a.endo)
    for k in a.lattice.subset(a.lattice.fi_bits & ~1):
        flag, pair = is_fully_coprime(a.m, k, a.lattice, a.endo)
        assert flag == _all_pairs_coprime(a, k, cache)
        if not flag:
            x, y = pair
            assert not x.contains(k) and not y.contains(k)
            assert cache.coproduct(x, y).contains(k)
        flag, x = is_fully_cosemiprime(a.m, k, a.lattice, a.endo)
        assert flag == _all_pairs_cosemiprime(a, k, cache)
        if not flag:
            assert not x.contains(k) and cache.coproduct(x, x).contains(k)


def _all_pairs_prime(endo, ideal, two_sided, semi=False):
    if not ideal.is_two_sided or ideal.subspace.contains_vector(endo.unit_coords):
        return False
    sub = ideal.subspace
    outside = [j.subspace for j in two_sided if not sub.contains(j.subspace)]
    pairs = ([(j, j) for j in outside] if semi
             else [(j1, j2) for j1 in outside for j2 in outside])
    return not any(sub.contains(ideal_product(endo, j1, j2))
                   for j1, j2 in pairs)


def _literal_maximal(ideals):
    return [i for i in ideals
            if not any(j.dim > i.dim and j.subspace.contains(i.subspace)
                       for j in ideals)]


def _intersection(endo, ideals):
    out = Subspace.full(endo.field, endo.dim)
    for ideal in ideals:
        out = out.intersect(ideal.subspace)
    return out


def _check_ideal_reductions(a):
    endo, side, right_ideals = a.endo, a.ideal_side, a.right_ideals
    family = side.family
    assert family.elements == tuple(i.subspace for i in right_ideals)
    assert family.fi_mask == tuple(
        _literal_closed(endo, i.subspace, left=True)
        and _literal_closed(endo, i.subspace, left=False) for i in right_ideals)
    two_sided = [i for i in right_ideals if i.is_two_sided]
    primes, semiprimes = prime_masks(endo, family)
    assert primes == side.prime_bits
    literal_primes = []
    for n, ideal in enumerate(right_ideals):
        prime = _all_pairs_prime(endo, ideal, two_sided)
        assert primes >> n & 1 == prime
        assert semiprimes >> n & 1 == _all_pairs_prime(endo, ideal, two_sided,
                                                       semi=True)
        if prime:
            literal_primes.append(ideal)
    radical = _intersection(endo, literal_primes)
    assert prime_radical(family, primes) == side.prad == radical
    proper = [i for i in right_ideals
              if not i.subspace.contains_vector(endo.unit_coords)]
    jac = _intersection(endo, _literal_maximal(proper))
    assert jacobson_radical(family) == side.jac == jac
    maximal = _literal_maximal([i for i in proper if i.is_two_sided])
    assert checks._primes_maximal(side) == all(p in maximal for p in literal_primes)
    for n in bits_of(a.lattice.fi_bits & ~1):
        ann = a.coproducts.annihilator(a.lattice.elements[n])
        assert family.find(ann.subspace) is not None
        assert side.ep_bits >> n & 1 == _all_pairs_prime(endo, ann, two_sided)
        assert side.esp_bits >> n & 1 == _all_pairs_prime(endo, ann, two_sided,
                                                          semi=True)


def _literal_minimal(elements):
    return [e for e in elements
            if not any(o != e and e.contains(o) for o in elements)]


def _check_order_table(lattice):
    elements = lattice.elements
    for i, x in enumerate(elements):
        literal = sum(1 << j for j, y in enumerate(elements)
                      if y != x and y.contains(x))
        assert lattice.above[i] == literal
        assert lattice.below[i] == sum(1 << j for j, y in enumerate(elements)
                                       if y != x and x.contains(y))
    assert list(lattice.socle.simples) == _literal_minimal(lattice.elements[1:])
    assert list(lattice.socle.simples_fi) == \
        _literal_minimal(lattice.subset(lattice.fi_bits & ~1))


# --- literal statement bodies -------------------------------------------------

def _literal_cogenerated(m, k):
    """Whether M/K embeds into a product of copies of M, from the quotient
    bicomodule: the kernels of its intertwiners into M meet in zero."""
    if k.is_full():
        return True
    q, _ = quotient(m, k)
    maps = intertwiners(q, m)
    return bool(maps) and kernel(Matrix.stack(maps)).is_zero()


def _xset(points, l_sub):
    return frozenset(i for i, k in enumerate(points) if not l_sub.contains(k))


def _literal_an_ke_galois(a: InstanceAnalysis) -> list:
    name = "annihilator-kernel-galois"
    lat, endo, cache = a.lattice, a.endo, a.coproducts
    elements = list(lat.elements)
    out = []

    witness = None
    for x, fi in zip(elements, lat.fi_mask):
        ann = cache.annihilator(x)
        kex = ke(ann, endo)
        if not ann.is_right:
            witness = {"subbicomodule": _describe(x),
                       "problem": "annihilator is not a right ideal"}
            break
        if fi and not ann.is_two_sided:
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
        for x in elements:
            for y in elements:
                if not y.contains(x):
                    continue
                ax, ay = cache.annihilator(x), cache.annihilator(y)
                if not ax.subspace.contains(ay.subspace):
                    witness = {"x": _describe(x), "y": _describe(y),
                               "problem": "An is not order reversing"}
                    break
                if not ke(ay, endo).contains(ke(ax, endo)):
                    witness = {"x": _describe(x), "y": _describe(y),
                               "problem": "Ke is not order reversing"}
                    break
            if witness:
                break
    if witness is None:
        ideals = a.right_ideals or []
        for ideal in ideals:
            back = an(ke(ideal, endo), endo)
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
    for k in elements:
        fixed = ke(cache.annihilator(k), endo) == k
        cogen = _literal_cogenerated(a.m, k)
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
        for y in elements[i:]:
            lhs = cache.annihilator(x.intersect(y)).subspace
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


def _literal_coproduct_bound(a: InstanceAnalysis) -> list:
    name = "coproduct-annihilator-kernel-bound"
    lat, endo, cache = a.lattice, a.endo, a.coproducts
    elements = list(lat.elements)
    out = []

    witness = None
    for x, x_fi in zip(elements, lat.fi_mask):
        for y, y_fi in zip(elements, lat.fi_mask):
            cop = cache.coproduct(x, y)
            if not cop.contains(x):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "X is not inside (X : Y)"}
                break
            if y_fi and not cop.contains(y):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "fully invariant Y is not inside (X : Y)"}
                break
            if x_fi and not is_fully_invariant(cop, endo):
                witness = {"x": _describe(x), "y": _describe(y),
                           "problem": "(X : Y) not fully invariant although "
                                      "X is"}
                break
        if witness:
            break
    if witness is None:
        for x in elements:
            for y1 in elements:
                for y2 in elements:
                    if y2.contains(y1):
                        if not cache.coproduct(x, y2).contains(
                                cache.coproduct(x, y1)):
                            witness = {"x": _describe(x), "y1": _describe(y1),
                                       "y2": _describe(y2),
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

    rng = Random(a.seed)
    probes = list(elements)
    for _ in range(3):
        vec = tuple(a.field.random_element(rng) for _ in range(a.m.dim))
        probes.append(Subspace.from_vectors(a.field, a.m.dim, [vec]))
    witness = None
    for x in probes:
        for y in probes:
            _, _, contained = ke_product_bound(a.m, x, y, endo, cache)
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
    for x in probes:
        for y in elements:
            cop, bound, _ = ke_product_bound(a.m, x, y, endo, cache)
            if cop != bound:
                witness = {"x": _describe(x), "y": _describe(y),
                           "coproduct_dim": cop.dim, "kernel_dim": bound.dim}
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


def _literal_variety_identities(a: InstanceAnalysis) -> list:
    name = "variety-identities"
    lat, spec = a.lattice, a.spectrum
    points = spec.cpspec
    space = frozenset(range(len(points)))
    out = []

    whole, zero = Subspace.full(a.field, a.m.dim), Subspace.zero(a.field, a.m.dim)
    if _xset(points, whole) != frozenset() or _xset(points, zero) != space:
        out.append(Verdict(f"{name}-1", FAIL, "endpoint identities fail",
                           {"x_of_top": sorted(_xset(points, whole)),
                            "x_of_zero": sorted(_xset(points, zero))}))
    else:
        out.append(Verdict(f"{name}-1", PASS,
                           "the whole space opens nothing and zero opens "
                           "everything"))

    witness = None
    for l1 in lat.elements:
        for l2 in lat.elements:
            x1, x2 = _xset(points, l1), _xset(points, l2)
            if not (_xset(points, l1.sum_with(l2)) <= (x1 & x2)
                    and (x1 & x2) <= (x1 | x2)
                    and (x1 | x2) == _xset(points, l1.intersect(l2))):
                witness = {"l1": _describe(l1), "l2": _describe(l2)}
                break
        if witness:
            break
    out.append(Verdict(f"{name}-2", FAIL, "sum/meet inclusions fail", witness)
               if witness else
               Verdict(f"{name}-2", PASS,
                       "sums shrink opens and meets union them"))

    witness = None
    fi = lat.subset(lat.fi_bits)
    for l1 in fi:
        for l2 in fi:
            x_sum = _xset(points, l1.sum_with(l2))
            x_meet = _xset(points, l1) & _xset(points, l2)
            x_cop = _xset(points, a.coproducts.coproduct(l1, l2))
            if not (x_sum == x_meet == x_cop):
                witness = {"l1": _describe(l1), "l2": _describe(l2),
                           "x_sum": sorted(x_sum), "x_meet": sorted(x_meet),
                           "x_coproduct": sorted(x_cop)}
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


LITERAL_STATEMENTS = {
    "annihilator-kernel-galois": _literal_an_ke_galois,
    "coproduct-annihilator-kernel-bound": _literal_coproduct_bound,
    "variety-identities": _literal_variety_identities,
}


def _statuses(verdicts):
    return [(v.statement, v.status) for v in verdicts]


def _check_statements_match_literal(a):
    for name, literal in LITERAL_STATEMENTS.items():
        assert (_statuses(run_checks(a, names=[name]))
                == _statuses(literal(a))), name


def _literal_coproduct(a, x, y):
    """(X : Y) as the intersection of one preimage per basis map of An(X)."""
    result = Subspace.full(a.field, a.m.dim)
    for coords in a.coproducts.annihilator(x).subspace.basis:
        result = result.intersect(preimage(
            combination(a.field, a.m.dim, coords, a.endo.basis), y))
    return result


def _check_coproducts_match_literal(a):
    cache = CoproductCache(a.m, a.endo)
    for x in a.lattice.elements:
        for y in a.lattice.elements:
            assert cache.coproduct(x, y) == _literal_coproduct(a, x, y)


def _probes(a):
    """The probes of the coproduct-bound statement: the lattice elements
    and three seeded random lines."""
    rng = Random(a.seed)
    probes = list(a.lattice.elements)
    for _ in range(3):
        vec = tuple(a.field.random_element(rng) for _ in range(a.m.dim))
        probes.append(Subspace.from_vectors(a.field, a.m.dim, [vec]))
    return probes


def _check_ke_lookup_matches_the_product(a):
    """The kernel side of `ke_product_bound`, read as the coproduct
    (X : Ke(An(Y))), against the literal Ke(An(X) An(Y)) on every probe
    pair of the coproduct-bound statement."""
    probes = _probes(a)
    cache = CoproductCache(a.m, a.endo)
    for x in probes:
        for y in probes:
            _, kernel_side, _ = ke_product_bound(a.m, x, y, a.endo, cache)
            product = ideal_product(a.endo, cache.annihilator(x).subspace,
                                    cache.annihilator(y).subspace)
            assert kernel_side == ke(product, a.endo)


def _check_coproduct_rows_match_solves(a, xs=None):
    """Every entry of the coproduct row of each X in xs (default: every
    probe) against the joint preimage of that pair: the lattice index of
    the solve when it is an element, else the solved subspace."""
    lat, cache = a.lattice, CoproductCache(a.m, a.endo)
    for x in _probes(a) if xs is None else xs:
        maps = combined_maps(an(x, a.endo).subspace, a.endo.basis)
        row = cache.row(x, lat)
        assert len(row) == len(lat)
        for y, entry in zip(lat.elements, row):
            solved = joint_preimage(maps, y)
            found = lat.find(solved)
            assert entry == (solved if found is None else found), (x, y)


# --- cyclic sum-closure against subspace filters ------------------------------

def _literal_closed(algebra, sub, left):
    units = coordinate_vectors(algebra.field, algebra.dim)
    for x in sub.basis:
        for e in units:
            y = algebra.multiply(e, x) if left else algebra.multiply(x, e)
            if not sub.contains_vector(y):
                return False
    return True


def _check_closure_matches_filters(m):
    e = EndoAlgebra.compute(m)
    lat = enumerate_lattice(m, endo=e)
    literal = sorted((s for s in enumerate_subspaces(m.field, m.dim)
                      if is_subbicomodule(m, s)), key=lambda s: s.sort_key())
    assert list(lat.elements) == literal
    assert list(lat.fi_mask) == [is_fully_invariant(s, e) for s in literal]
    rights = []
    for sub in enumerate_subspaces(e.field, e.dim):
        if _literal_closed(e, sub, left=False):
            rights.append((sub, True, _literal_closed(e, sub, left=True)))
    rights.sort(key=lambda row: row[0].sort_key())
    ideals = enumerate_ideals(e)
    assert [(i.subspace, i.is_right, i.is_two_sided) for i in ideals] == rights
    # The two-sided flags the analysis reads: the ideal family's fully
    # invariant members, decided from its join-irreducibles.
    family = coprime_module.ideal_family(e, enumerate_ideals(e))
    assert family.fi_bits == sum(1 << n for n, row in enumerate(rights) if row[2])


# No shrink phase: shrinking a failing example takes minutes, and the
# unshrunk example already fails the test.
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F3, F5]))
def test_cyclic_closure_matches_subspace_filters(seed, field):
    m, _ = random_instance(seed, dim_budget=DIM_BUDGET[field], field=field)
    _check_closure_matches_filters(m)
    if m.regular_of is not None:
        _check_closure_matches_filters(right_comodule(m.regular_of))


def _comodule_quotient(ref, field, index):
    m = right_comodule(resolve_ref(ref, field)[1])
    v = tuple(1 if i == index else 0 for i in range(m.dim))
    return quotient(m, cyclic_subbicomodule(m, v))[0]


# Right-comodule forms of comatrix sums have members that are not fully
# invariant and right ideals that are not two-sided.
@pytest.mark.parametrize("build", [
    lambda: right_comodule(resolve_ref("sum:(comatrix:2, grouplike:1)", F3)[1]),
    lambda: _comodule_quotient("sum:(comatrix:2, divided:1)", F2, 4),
    lambda: _comodule_quotient("sum:(comatrix:2, grouplike:1)", F3, 4),
    lambda: resolve_ref_to_bicomodule("sum:(grouplike:2, divided:1)", F5),
], ids=["comodule-sum-f3", "comodule-quotient-f2", "comodule-quotient-f3",
        "sum-f5"])
def test_cyclic_closure_matches_subspace_filters_on_sums_and_quotients(build):
    _check_closure_matches_filters(build())


def test_divided_6_closes_at_most_one_cyclic_generator_per_vector(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_subspaces was called")

    for module in (linalg, lattice_module, endo_module):
        monkeypatch.setattr(module, "enumerate_subspaces", forbidden)
    calls = Counter()

    def counted(name, original):
        def wrapped(*args):
            calls[name] += 1
            return original(*args)
        return wrapped

    monkeypatch.setattr(lattice_module, "cyclic_subbicomodule",
                        counted("lattice", cyclic_subbicomodule))
    monkeypatch.setattr(endo_module, "right_ideal_span",
                        counted("ideals", endo_module.right_ideal_span))
    m = resolve_ref_to_bicomodule("divided:6", F2)
    e = EndoAlgebra.compute(m)
    assert len(enumerate_lattice(m, endo=e)) == 8
    assert len(enumerate_ideals(e)) == 8
    assert 0 < calls["lattice"] <= 2 ** 7
    assert 0 < calls["ideals"] <= 2 ** 7


def test_ideal_enumeration_builds_its_operators_from_dim_squared_products(monkeypatch):
    calls = Counter()

    def counted(algebra, x, y):
        calls["multiply"] += 1
        return original(algebra, x, y)

    original = EndoAlgebra.multiply
    monkeypatch.setattr(EndoAlgebra, "multiply", counted)
    for ref in ("divided:6", "grouplike:4", "sum:(comatrix:2, divided:1)"):
        e = EndoAlgebra.compute(resolve_ref_to_bicomodule(ref, F2))
        calls.clear()
        ideals = enumerate_ideals(e)
        assert len(ideals) > 1
        assert 0 < calls["multiply"] <= e.dim ** 2


# --- the packed F2 kernels against the independent oracle ----------------------

# No shrink phase, as above.
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(seed=st.integers(0, 10 ** 6))
def test_oracle_agrees_with_the_engine_over_f2(seed):
    m, desc = random_instance(seed, dim_budget=5, field=F2)
    forms = [m] if m.regular_of is None else [m, right_comodule(m.regular_of)]
    for form in forms:
        diff = diff_against_engine(form)
        assert diff.identical, (desc, diff.mismatches)


def test_oracle_agrees_with_the_engine_on_an_f2_comodule_quotient():
    diff = diff_against_engine(_comodule_quotient("sum:(comatrix:2, divided:1)", F2, 4))
    assert diff.identical, diff.mismatches


# No shrink phase, as above.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F3, F5]))
def test_reductions_match_the_definitions_over_finite_fields(seed, field):
    m, _ = random_instance(seed, dim_budget=DIM_BUDGET[field], field=field)
    a = InstanceAnalysis(m)
    _check_order_table(a.lattice)
    _check_coprime_reductions(a)
    _check_ideal_reductions(a)
    _check_coproducts_match_literal(a)
    _check_coproduct_rows_match_solves(a)
    _check_ke_lookup_matches_the_product(a)
    _check_statements_match_literal(a)


# Seeds 2 and 10 give 10- and 20-element lattices with mixed verdicts.
@pytest.mark.parametrize("seed", [2, 10])
def test_reductions_match_the_definitions_in_generated_mode_over_q(seed):
    m, _ = random_instance(seed, field=QQ)
    a = InstanceAnalysis(m, mode="generated")
    assert not a.lattice.certified
    _check_order_table(a.lattice)
    _check_coprime_reductions(a)
    _check_coproducts_match_literal(a)
    _check_coproduct_rows_match_solves(a)
    _check_ke_lookup_matches_the_product(a)
    _check_statements_match_literal(a)


@pytest.mark.parametrize("seed", [0, 9])
def test_the_rational_suite_keeps_every_scalar_canonical(monkeypatch, seed):
    """Every basis entry of every lattice element, and of every coproduct
    the statements build, is an int or a non-integral Fraction."""
    built = []
    original = CoproductCache.coproduct

    def recorded(cache, x, y):
        found = original(cache, x, y)
        built.append(found)
        return found

    monkeypatch.setattr(CoproductCache, "coproduct", recorded)
    m, _ = random_instance(seed, field=QQ)
    a = InstanceAnalysis(m, mode="generated")
    run_checks(a)
    assert built and len(a.lattice) > 2
    for sub in [*a.lattice.elements, *built]:
        assert all(is_canonical_rational(x) for row in sub.basis for x in row)


def test_spectrum_of_grouplike_5_computes_few_coproducts():
    m = resolve_ref_to_bicomodule("grouplike:5", F2)
    a = InstanceAnalysis(m)
    assert len(a.spectrum.cpspec) == 5
    assert len(a.coproducts._co) <= 25


# --- joins, meets and varieties against +, intersection and contains ---------

def _parts(a):
    """a and the analyses of its proper nonzero fully invariant parts."""
    lat = a.lattice
    return [a] + [a.restricted(l) for l in lat.subset(lat.fi_bits & ~1)
                  if not l.is_full()]


def _check_table_against_definitions(a):
    for part in _parts(a):
        lat = part.lattice
        assert lat.join(0) == lat.find(Subspace.zero(part.field, part.m.dim))
        assert lat.meet(0) == lat.find(Subspace.full(part.field, part.m.dim))
        for i, x in enumerate(lat.elements):
            for j, y in enumerate(lat.elements):
                pair = 1 << i | 1 << j
                assert lat.join(pair) == lat.find(x.sum_with(y))
                assert lat.meet(pair) == lat.find(x.intersect(y))
        spec = part.spectrum
        literal = Subspace.zero(part.field, part.m.dim)
        for k in spec.cpspec:
            literal = literal.sum_with(k)
        assert spec.cpcorad == literal
        for flavor in ("fi", "full"):
            top = part.topology(flavor)
            for l_sub in lat.elements:
                assert top.v_of(l_sub) == sum(
                    1 << i for i, k in enumerate(spec.cpspec) if l_sub.contains(k))


# No shrink phase, as above.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F3, F5]))
def test_joins_meets_and_varieties_match_the_definitions(seed, field):
    m, _ = random_instance(seed, dim_budget=DIM_BUDGET[field], field=field)
    _check_table_against_definitions(InstanceAnalysis(m))


@pytest.mark.parametrize("seed", range(10))
def test_joins_meets_and_varieties_match_the_definitions_over_q(seed):
    m, _ = random_instance(seed, field=QQ)
    _check_table_against_definitions(InstanceAnalysis(m, mode="generated"))


def test_variety_of_a_subspace_outside_the_lattice_uses_contains():
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:3", F2))
    top = a.topology("full")
    sub = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 1)])
    assert a.lattice.find(sub) is None
    e1 = Subspace.from_vectors(F2, 3, [(1, 0, 0)])
    assert top.v_of(sub) == 1 << top.position(e1)


def _described(*rows):
    """The `_describe` payload of the subspace with basis rows given as
    digit strings, such as "100"."""
    return {"dim": len(rows), "basis": [list(row) for row in rows]}


def _failures(a, names):
    return [v.to_dict() for v in run_checks(a, names=names) if v.status == FAIL]


def test_join_rigged_to_the_top_fails_the_closure_statements(monkeypatch):
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:3", F2))
    names = ["closure-formula", "closed-set-bijection"]
    assert all(v.status == PASS for v in run_checks(a, names=names))
    monkeypatch.setattr(lattice_module.Lattice, "join",
                        lambda lat, mask: len(lat) - 1)
    assert _failures(a, names) == [
        {"statement": "closure-formula", "status": FAIL,
         "detail": "closure differs from the variety of the sum",
         "witness": {"subset": [], "closure": [],
                     "variety_of_sum": [0, 1, 2]}},
        {"statement": "closed-set-bijection-1", "status": FAIL,
         "detail": "closed sets do not biject with coradical-fixed parts",
         "witness": {"closed": [], "sum": _described("100", "010", "001"),
                     "problem": "variety does not recover the closed set"}}]


# --- mutation and count guards for the coproduct statement -------------------

class _RiggedCache(CoproductCache):
    """A coproduct cache whose answers pass through `rig(x, y, cop)`."""

    def __init__(self, m, endo, rig):
        super().__init__(m, endo)
        self.rig = rig

    def coproduct(self, x, y):
        return self.rig(x, y, super().coproduct(x, y))


def _rigged_analysis(ref, rig):
    a = InstanceAnalysis(resolve_ref_to_bicomodule(ref, F2))
    a._cache = _RiggedCache(a.m, a.endo, rig)
    return a


def _bound_verdict(a, part):
    statement = f"coproduct-annihilator-kernel-bound-{part}"
    return next(v for v in run_checks(a, names=["coproduct-annihilator-kernel-bound"])
                if v.statement == statement)


def _covers(lattice, low, high):
    """Whether high covers low: low < high with nothing strictly between."""
    return high != low and high.contains(low) and not any(
        e not in (low, high) and e.contains(low) and high.contains(e)
        for e in lattice.elements)


# The rigs below sit on divided:3, a chain: every element below the top has
# one upper cover, so its row entry is solved through `coproduct` and the
# rig is read.  On grouplike:3 the zero element has three upper covers and
# its entry is the meet of theirs.

def test_non_monotone_coproduct_fails_with_a_cover_pair():
    # Rig (0 : 0) to M.  Every (0 : Y) lies in Y, so (0 : -) breaks
    # monotonicity on 0 < Y for every proper Y, including the non-cover
    # pairs 0 < Y with dim Y = 2; the scan must still find a cover pair.
    def rig(x, y, cop):
        if x.is_zero() and y.is_zero():
            return Subspace.full(x.field, x.ambient)
        return cop

    a = _rigged_analysis("divided:3", rig)
    lat = a.lattice
    plane = next(e for e in lat.elements if e.dim == 2)
    assert not _covers(lat, lat.elements[0], plane)
    verdict = _bound_verdict(a, 1)
    assert verdict.status == FAIL
    assert verdict.witness["problem"] == "(X : -) is not monotone"
    y1, y2 = (next(e for e in lat.elements if _describe(e) == verdict.witness[k])
              for k in ("y1", "y2"))
    assert _covers(lat, y1, y2)


def test_coproduct_missing_x_fails():
    def rig(x, y, cop):
        if x.dim == 1 and y.is_zero():
            return Subspace.zero(x.field, x.ambient)
        return cop

    a = _rigged_analysis("divided:3", rig)
    assert _bound_verdict(a, 1).status == FAIL
    assert _bound_verdict(a, 1).witness["problem"] == "X is not inside (X : Y)"


def test_coproduct_outside_the_lattice_is_tested_by_the_definitions():
    # span(e1 + e2) is not a subbicomodule of divided:3, so the table has
    # no index for it and full invariance must come from the endomorphisms.
    line = Subspace.from_vectors(F2, 4, [(1, 1, 0, 0)])

    def rig(x, y, cop):
        return line if x.is_zero() and y.is_zero() else cop

    a = _rigged_analysis("divided:3", rig)
    assert a.lattice.find(line) is None
    verdict = _bound_verdict(a, 1)
    assert verdict.status == FAIL
    assert verdict.witness["problem"] == ("(X : Y) not fully invariant "
                                          "although X is")


def test_unrigged_coproduct_statement_passes():
    a = _rigged_analysis("grouplike:3", lambda x, y, cop: cop)
    assert _bound_verdict(a, 1).status == PASS


# --- coproduct rows against direct solves --------------------------------------

def _with_comodule_forms(m):
    return [m] if m.regular_of is None else [m, right_comodule(m.regular_of)]


# The acceptance sweeps: `check --random 100 --seed 7` starts at seeds 7-56
# over F2, and `check --random 10 --seed 0` over F3 and `--random 5` over F5.
@pytest.mark.parametrize("field, seeds", [(F2, range(7, 57)), (F3, range(10)),
                                          (F5, range(5))],
                         ids=["F2", "F3", "F5"])
def test_coproduct_rows_match_direct_solves_on_the_sweeps(field, seeds):
    for seed in seeds:
        for m in _with_comodule_forms(random_instance(seed, field=field)[0]):
            _check_coproduct_rows_match_solves(InstanceAnalysis(m))


@pytest.mark.parametrize("ref, field", [("grouplike:7", F2), ("grouplike:8", F2),
                                        ("divided:6", F2), ("divided:6", F3)])
def test_coproduct_rows_match_direct_solves_on_catalog_instances(ref, field):
    m = resolve_ref_to_bicomodule(ref, field)
    _check_coproduct_rows_match_solves(
        InstanceAnalysis(m, budget=10 ** 12, ideal_budget=10 ** 12))


def test_coproduct_rows_match_direct_solves_on_sampled_rows_of_grouplike_9():
    # All 515 rows of grouplike:9 take 264k solves (about 12 s); a seeded
    # sample of 64 elements and the three probe lines keeps every entry of
    # the rows it checks.
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:9", F2),
                         budget=10 ** 12, ideal_budget=10 ** 12)
    probes = _probes(a)
    xs = Random(9).sample(probes[:-3], 64) + probes[-3:]
    _check_coproduct_rows_match_solves(a, xs)


def test_a_row_below_an_entry_outside_the_lattice_intersects_subspaces():
    # On grouplike:3 the plane P = span(e1, e2) has one upper cover, so
    # (0 : P) is solved, and the rig makes it W = span(e1 + e3, e2), which
    # is not an element.  The line e1 has the covers P and span(e1, e3),
    # so its entry is W meet span(e1, e3) = span(e1 + e3), no element either.
    e = [tuple(int(i == k) for i in range(3)) for k in range(3)]
    plane = Subspace.from_vectors(F2, 3, e[:2])
    w = Subspace.from_vectors(F2, 3, [(1, 0, 1), e[1]])

    def rig(x, y, cop):
        return w if x.is_zero() and y == plane else cop

    a = _rigged_analysis("grouplike:3", rig)
    lat = a.lattice
    row = a.coproducts.row(lat.elements[0], lat)
    sub = [lat.elements[c] if isinstance(c, int) else c for c in row]
    assert lat.find(w) is None and row[lat.index_of(plane)] == w
    assert row[lat.index_of(Subspace.from_vectors(F2, 3, e[:1]))] == \
        Subspace.from_vectors(F2, 3, [(1, 0, 1)])
    for j, y in enumerate(lat.elements):
        covers = [c for c, z in enumerate(lat.elements) if _covers(lat, y, z)]
        if len(covers) >= 2:
            meet = sub[covers[0]]
            for c in covers[1:]:
                meet = meet.intersect(sub[c])
            assert sub[j] == meet
            found = lat.find(meet)
            assert row[j] == (meet if found is None else found)


def _bound_solves(monkeypatch, ref):
    """The `joint_preimage` calls of the coproduct-bound statement on ref
    over F2, after the pipeline has run, with the analysis."""
    a = InstanceAnalysis(resolve_ref_to_bicomodule(ref, F2))
    a.spectrum, a.predicates, a.socle, a.topology("fi"), a.topology("full")
    calls = []
    original = coprime_module.joint_preimage

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(coprime_module, "joint_preimage", counted)
    verdicts = run_checks(a, names=["coproduct-annihilator-kernel-bound"])
    assert all(v.status == PASS for v in verdicts)
    return len(calls), a


def test_the_coproduct_bound_solves_only_meet_irreducible_entries(monkeypatch):
    # All pairs solved 17133 on grouplike:7.  A row solves its |MI| entries,
    # each of the |L| + 3 probes has one, and a probe line as Y costs one
    # solve per X, (X : line): its kernel side (X : Ke(An(line))) is read
    # from the row of X when Ke(An(line)) is an element, as it is here.
    solves, a = _bound_solves(monkeypatch, "grouplike:7")
    lat = a.lattice
    mi = sum(len(c) == 1 for c in lat.upper_covers)
    assert mi == 7
    assert solves == 1282
    assert solves <= (len(lat) + 3) * (mi + 3)


def test_the_coproduct_bound_on_a_chain_solves_what_it_did(monkeypatch):
    # Every element of a chain below the top is meet-irreducible.
    assert _bound_solves(monkeypatch, "divided:6")[0] == 103


# --- packed F2 linear systems against the tuple arithmetic --------------------

def _rebased(m, seed):
    """m over F2 in the basis of the columns of P = I + N, N random and
    strictly lower triangular: each operator A becomes P^-1 A P, where
    P^-1 = I + N + ... + N^(n-1).  Most subbicomodules of the result are
    not spanned by unit vectors, so their RREF rows have bits off their
    pivots."""
    rng, n = Random(seed), m.dim
    identity = Matrix.identity(F2, n)
    strict = Matrix(F2, n, n, [[rng.randrange(2) if j < i else 0 for j in range(n)]
                               for i in range(n)])

    def plus(a, b):
        return Matrix(F2, n, n, [[x ^ y for x, y in zip(r, s)]
                                 for r, s in zip(a.data, b.data)])

    p, inverse, power = plus(identity, strict), identity, identity
    for _ in range(n - 1):
        power = power @ strict
        inverse = plus(inverse, power)
    right = [(inverse @ op @ p).data for op in m.right_ops()]
    left = [(inverse @ op @ p).data for op in m.left_ops()]
    rho_right = [[[right[k][j][i] for k in range(m.right.dim)] for j in range(n)]
                 for i in range(n)]
    rho_left = [[[left[j][k][i] for k in range(n)] for j in range(m.left.dim)]
                for i in range(n)]
    return Bicomodule(m.left, m.right, n, rho_left, rho_right).require_valid()


# Derandomized F2 instances: the first sweep seeds, three catalog families,
# the right-comodule form of each coalgebra among them, and three of them in
# a basis where the lattice elements are not spanned by unit vectors.
def _f2_forms():
    forms = {f"seed-{s}": random_instance(s, field=F2)[0] for s in range(7, 17)}
    for ref in ("grouplike:4", "divided:4", "comatrix:2"):
        forms[ref] = resolve_ref_to_bicomodule(ref, F2)
    for name, m in list(forms.items()):
        if m.regular_of is not None:
            forms[f"{name}-comodule"] = right_comodule(m.regular_of)
    for name in ("seed-10", "grouplike:4", "divided:4"):
        forms[f"{name}-rebased"] = _rebased(forms[name], len(name))
    return forms


F2_FORMS = _f2_forms()


def _tuple_form(m):
    """m with its coalgebras and coactions over TUPLE_F2, which runs the
    generic prime-field code on the same 0/1 data."""
    def coalgebra(c):
        return Coalgebra(TUPLE_F2, c.dim, c.delta, c.counit)
    return Bicomodule(coalgebra(m.left), coalgebra(m.right), m.dim,
                      m.rho_left, m.rho_right)


def _tuple_sub(sub):
    return Subspace(TUPLE_F2, sub.ambient, sub.basis, sub.pivots)


def _rows(sub):
    return sub.basis, sub.pivots


def _random_subspaces(rng, n, count):
    for _ in range(count):
        vectors = [tuple(rng.randrange(2) for _ in range(n))
                   for _ in range(rng.randrange(1, n + 1))]
        yield Subspace.from_vectors(F2, n, vectors)


@pytest.mark.parametrize("name", list(F2_FORMS))
def test_ke_lookup_matches_the_product_on_the_f2_forms(name):
    _check_ke_lookup_matches_the_product(InstanceAnalysis(F2_FORMS[name]))


@pytest.mark.parametrize("name", list(F2_FORMS))
def test_packed_systems_match_the_tuple_path(name):
    m = F2_FORMS[name]
    t = _tuple_form(m)
    e, e_t = EndoAlgebra.compute(m), EndoAlgebra.compute(t)
    assert [f.data for f in e.basis] == [f.data for f in e_t.basis]
    lattice = enumerate_lattice(m, endo=e)
    cache, cache_t = CoproductCache(m, e), CoproductCache(t, e_t)
    for k in lattice.elements:
        k_t = _tuple_sub(k)
        if not k.is_zero():
            restricted = len(intertwiners(restrict(m, k)[0], m))
            assert hom_dim(m, k) == restricted == hom_dim(t, k_t)
        ideal, ideal_t = an(k, e), an(k_t, e_t)
        assert _rows(ideal.subspace) == _rows(ideal_t.subspace)
        assert (ideal.is_right, ideal.is_two_sided) == (ideal_t.is_right, ideal_t.is_two_sided)
        assert _rows(ke(ideal, e)) == _rows(ke(ideal_t, e_t))
    fi = lattice.subset(lattice.fi_bits)
    for x in fi:
        for y in fi:
            x_t, y_t = _tuple_sub(x), _tuple_sub(y)
            assert _rows(cache.coproduct(x, y)) == _rows(cache_t.coproduct(x_t, y_t))
            product = ideal_product(e, cache.annihilator(x).subspace,
                                    cache.annihilator(y).subspace)
            product_t = ideal_product(e_t, cache_t.annihilator(x_t).subspace,
                                      cache_t.annihilator(y_t).subspace)
            assert _rows(product) == _rows(product_t)
    rng = Random(sum(map(ord, name)))
    for sub in _random_subspaces(rng, m.dim, 12):
        sub_t = _tuple_sub(sub)
        stable = is_stable(sub, m.all_ops())
        assert stable == is_stable(sub_t, t.all_ops())
        assert is_stable(sub, e.basis) == is_stable(sub_t, e_t.basis)
        assert _rows(an(sub, e).subspace) == _rows(an(sub_t, e_t).subspace)
        assert _rows(annihilator(sub, m.all_ops())) == \
            _rows(annihilator(sub_t, t.all_ops()))
        if not stable:
            with pytest.raises(NotSubbicomodule):
                hom_dim(m, sub)
    ops, ops_t = endo_module.multiplication_ops(e), endo_module.multiplication_ops(e_t)
    for a_sub in _random_subspaces(rng, e.dim, 6):
        b_sub = next(_random_subspaces(rng, e.dim, 1))
        assert _rows(ideal_product(e, a_sub, b_sub)) == \
            _rows(ideal_product(e_t, _tuple_sub(a_sub), _tuple_sub(b_sub)))
        assert _rows(ke(a_sub, e)) == _rows(ke(_tuple_sub(a_sub), e_t))
        y = next(_random_subspaces(rng, m.dim, 1))
        assert _rows(joint_preimage(combined_maps(a_sub, e.basis), y)) == \
            _rows(joint_preimage(combined_maps(_tuple_sub(a_sub), e_t.basis), _tuple_sub(y)))
        for side in (0, 1):
            assert is_stable(a_sub, ops[side]) == is_stable(_tuple_sub(a_sub), ops_t[side])


def test_f2_predicates_build_no_restricted_bicomodule(monkeypatch):
    calls = Counter()
    original = bicomodule_module.restrict

    def counted(*args):
        calls["restrict"] += 1
        return original(*args)

    for module in (bicomodule_module, endo_module, lattice_module):
        monkeypatch.setattr(module, "restrict", counted, raising=False)
    for name in ("grouplike:4", "divided:4", "comatrix:2", "seed-10"):
        assert InstanceAnalysis(F2_FORMS[name]).predicates is not None
    assert calls["restrict"] == 0
    # Odd p still restricts, so the counter is on the path it guards.
    assert InstanceAnalysis(resolve_ref_to_bicomodule("divided:2", F3)).predicates
    assert calls["restrict"] > 0


# The element Y at which the mutant fails first.  With every Ke read as 0
# the bound is (X : 0), and the first probe X = 0 gives (0 : 0) = 0, which
# misses (0 : Y) = Y for the first nonzero element Y (fully invariant here).
FIRST_ESCAPING_ELEMENT = {"grouplike:3": ("100",), "divided:4": ("10000",),
                          "comatrix:2": ("1000", "0100", "0010", "0001")}


@pytest.mark.parametrize("ref", list(FIRST_ESCAPING_ELEMENT))
def test_a_kernel_read_as_zero_fails_the_bound(monkeypatch, ref):
    a = InstanceAnalysis(resolve_ref_to_bicomodule(ref, F2))
    assert _bound_verdict(a, 2).status == PASS
    monkeypatch.setattr(coprime_module, "ke",
                        lambda ideal, endo: Subspace.zero(endo.field, endo.bicomodule.dim))
    a = InstanceAnalysis(resolve_ref_to_bicomodule(ref, F2))
    statement = "coproduct-annihilator-kernel-bound"
    assert _failures(a, [statement]) == [
        {"statement": f"{statement}-2", "status": FAIL,
         "detail": "(X : Y) escapes Ke(An(X) An(Y))",
         "witness": {"x": _described(),
                     "y": _described(*FIRST_ESCAPING_ELEMENT[ref])}}]
    # The self-cogenerator predicate reads Ke through the same cache, so
    # the mutant also makes part 3 vacuous rather than failing.
    assert _bound_verdict(a, 3).status == VACUOUS


# --- closures, scans and Hom systems over generators -----------------------------

def _literal_join_irreducibles(invariant):
    """The nonzero members of a subspace family, closed under +, that are
    not the sum of the members strictly inside them."""
    found = set()
    for c in invariant:
        below = [d.basis for d in invariant if d.dim < c.dim and c.contains(d)]
        if not c.is_zero() and Subspace.from_vectors(
                c.field, c.ambient, [row for rows in below for row in rows]) != c:
            found.add(c.key())
    return found


def _check_sum_closure(field, n, cyclic, ops):
    literal = [s for s in enumerate_subspaces(field, n) if is_stable(s, ops)]
    found, irreducible = linalg.sum_closure(field, n, cyclic)
    assert sorted(s.key() for s in found) == sorted(s.key() for s in literal)
    generators = linalg._join_irreducibles(field, n, cyclic)
    assert {c.key() for _, c in generators} == _literal_join_irreducibles(literal)
    assert irreducible == _literal_join_irreducibles(literal)
    assert all(cyclic(w) == c for w, c in generators)


def _closure_instances():
    for ref in ("grouplike:3", "divided:3", "comatrix:2"):
        for field in (F2, F3, F5):
            yield f"{ref}-{field.name}", lambda r=ref, f=field: resolve_ref_to_bicomodule(r, f)
    for seed in (3, 8, 11):
        for field in (F2, F3, F5):
            yield f"seed-{seed}-{field.name}", lambda s=seed, f=field: random_instance(
                s, dim_budget=DIM_BUDGET[f] - 1, field=f)[0]


@pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                   for name, build in _closure_instances()])
def test_sum_closure_over_join_irreducibles_matches_the_stable_subspaces(build):
    m = build()
    _check_sum_closure(m.field, m.dim, lambda v: cyclic_subbicomodule(m, v),
                       m.all_ops())
    e = EndoAlgebra.compute(m)
    _check_sum_closure(e.field, e.dim,
                       lambda x: endo_module.right_ideal_span(e, [x]),
                       endo_module.multiplication_ops(e)[0])


@pytest.mark.parametrize("field,n", [(F2, 4), (F3, 3), (F5, 2)])
def test_every_line_is_join_irreducible_when_every_subspace_is_invariant(field, n):
    def line(v):
        return Subspace.from_vectors(field, n, [v])

    _check_sum_closure(field, n, line, [])
    assert len(linalg._join_irreducibles(field, n, line)) == (field.p ** n - 1) // (field.p - 1)


def _non_member_probes(rng, lattice, count=3):
    top = lattice.elements[-1]
    field, n = top.field, top.ambient
    probes = []
    for _ in range(200):
        if len(probes) == count:
            break
        vectors = [tuple(field.random_element(rng) for _ in range(n))
                   for _ in range(rng.randrange(1, n + 1))]
        sub = Subspace.from_vectors(field, n, vectors)
        if not sub.is_zero() and lattice.find(sub) is None:
            probes.append(sub)
    return probes


def _check_meet_irreducible_scan(lattice, seed):
    above = lattice.above
    probes = list(lattice.elements) + _non_member_probes(Random(seed), lattice)
    for k in probes:
        containing = sum(1 << j for j, e in enumerate(lattice.elements)
                         if e.contains(k))
        want = linalg.maximal_bits(lattice.fi_bits & ~containing, above)
        got = sum(1 << lattice.index_of(x)
                  for x in lattice.maximal_fi_not_containing(k))
        assert got == want


@pytest.mark.parametrize("field", [F2, F3])
@pytest.mark.parametrize("seed", range(7, 13))
def test_meet_irreducible_scan_matches_all_fully_invariant_members(seed, field):
    m, _ = random_instance(seed, dim_budget=DIM_BUDGET[field], field=field)
    _check_meet_irreducible_scan(enumerate_lattice(m), seed)


@pytest.mark.parametrize("seed", [2, 10])
def test_meet_irreducible_scan_matches_in_generated_mode_over_q(seed):
    m, _ = random_instance(seed, field=QQ)
    lattice = enumerate_lattice(m, mode="generated")
    assert not lattice.certified
    _check_meet_irreducible_scan(lattice, seed)


@pytest.mark.parametrize("seed", range(7, 17))
def test_f2_hom_dim_over_an_operator_basis_matches_restriction(seed):
    m, _ = random_instance(seed, field=F2)
    basis = m.op_basis()
    span = Subspace.from_vectors(F2, m.dim ** 2, [op.flatten() for op in m.all_ops()])
    assert Subspace.from_vectors(F2, m.dim ** 2, [op.flatten() for op in basis]) == span
    assert len(basis) == span.dim
    for k in enumerate_lattice(m).elements[1:]:
        assert hom_dim(m, k) == len(intertwiners(restrict(m, k)[0], m))
    for sub in _random_subspaces(Random(seed), m.dim, 20):
        if not is_stable(sub, m.all_ops()):
            with pytest.raises(NotSubbicomodule):
                hom_dim(m, sub)
        elif not sub.is_zero():
            assert hom_dim(m, sub) == len(intertwiners(restrict(m, sub)[0], m))


def _growth_loop(field, n, cyclic, owner, name):
    """sum_closure(field, n, cyclic) and the number of calls of owner.name
    that its growth loop makes: the calls made while it finds the
    join-irreducibles, the closures included, are left out."""
    calls = Counter()
    original, find = getattr(owner, name), linalg._join_irreducibles

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    def uncounted(*args):
        before = calls["n"]
        found = find(*args)
        calls["n"] = before
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, name, counted)
        mp.setattr(linalg, "_join_irreducibles", uncounted)
        found, _ = linalg.sum_closure(field, n, cyclic)
    return found, calls["n"]


def _grouplike_7_closures():
    """(ambient, cyclic) of the lattice and of the right ideals of
    grouplike:7 over F2."""
    e = EndoAlgebra.compute(resolve_ref_to_bicomodule("grouplike:7", F2))
    return {"lattice": (e.bicomodule.dim,
                        lambda v: cyclic_subbicomodule(e.bicomodule, v)),
            "ideals": (e.dim, lambda v: endo_module.right_ideal_span(e, [v]))}


def test_grouplike_7_needs_few_sums():
    # A sum is one sum_with over F3 and one packed reduction over F2.
    sums = 0
    for n, cyclic in _grouplike_7_closures().values():
        found, calls = _growth_loop(F2, n, cyclic, linalg, "_f2_rref")
        assert len(found) == 128
        sums += calls
    assert sums <= 900
    # Every line is join-irreducible here, so each S takes one sum per line
    # of the quotient by S, no more than one per distinct cyclic subspace.
    for field, n, bound, name in ((F2, 5, 2077, "_f2_rref"), (F3, 4, 1120, "sum_with")):
        _, calls = _growth_loop(field, n, lambda v: Subspace.from_vectors(field, n, [v]),
                                linalg if field == F2 else Subspace, name)
        assert 0 < calls <= bound


# --- quotient cogeneration, restrictions and coordinates on packed rows --------

COGENERATION_REFS = ("grouplike:5", "grouplike:7", "divided:6", "comatrix:2")


def _cogeneration_forms():
    for s in range(7, 57):
        yield random_instance(s, field=F2)[0]
    for ref in COGENERATION_REFS:
        yield resolve_ref_to_bicomodule(ref, F2)


def test_f2_quotient_cogeneration_matches_the_quotient_bicomodule():
    def check(m):
        elements = enumerate_lattice(m).elements
        for k in elements:
            assert quotient_cogenerated(m, k) == _literal_cogenerated(m, k)
        return elements

    assert sum(len(check(m)) for m in _cogeneration_forms()) == 720
    # Each rebased form has a basis row with a bit off its pivot, where
    # reading a vector at the free columns differs from reducing it first.
    for name in F2_FORMS:
        if name.endswith("-rebased"):
            assert any(sum(row) > 1 for k in check(F2_FORMS[name]) for row in k.basis)


@pytest.mark.parametrize("seed", [7, 10, 16])
def test_f2_quotient_cogeneration_rejects_an_unstable_subspace(seed):
    m, _ = random_instance(seed, field=F2)
    unstable = [sub for sub in _random_subspaces(Random(seed), m.dim, 40)
                if not is_stable(sub, m.all_ops())]
    assert unstable
    for sub in unstable:
        with pytest.raises(NotSubbicomodule):
            quotient_cogenerated(m, sub)
        with pytest.raises(NotSubbicomodule):
            quotient(m, sub)


@pytest.mark.parametrize("name", list(F2_FORMS))
def test_packed_restrictions_and_coordinates_match_the_tuple_path(name):
    m = F2_FORMS[name]
    t = _tuple_form(m)
    lattice = enumerate_lattice(m)
    for l_sub in lattice.elements[1:]:
        l_t = _tuple_sub(l_sub)
        r, embed = restrict(m, l_sub)
        r_t, embed_t = restrict(t, l_t)
        assert (r.rho_left, r.rho_right) == (r_t.rho_left, r_t.rho_right)
        assert embed.data == embed_t.data
        for k in lattice.elements:
            k_t = _tuple_sub(k)
            if not l_sub.contains(k):
                for sub, member in ((l_sub, k), (l_t, k_t)):
                    with pytest.raises(ValueError, match="not in the subspace"):
                        child_coords(sub, member)
                continue
            child, child_t = child_coords(l_sub, k), child_coords(l_t, k_t)
            assert _rows(child) == _rows(child_t)
            assert _rows(child.apply(l_sub.matrix().transpose())) == _rows(k)


def test_f2_galois_family_builds_no_quotient_bicomodule(monkeypatch):
    calls = Counter()
    original = bicomodule_module.quotient

    def counted(*args):
        calls["quotient"] += 1
        return original(*args)

    for module in (bicomodule_module, endo_module, checks):
        monkeypatch.setattr(module, "quotient", counted, raising=False)
    name = ["annihilator-kernel-galois"]
    for ref in ("grouplike:4", "divided:4", "comatrix:2", "seed-10"):
        verdicts = run_checks(InstanceAnalysis(F2_FORMS[ref]), names=name)
        assert not any(v.failed for v in verdicts)
    assert calls["quotient"] == 0
    # Odd p still builds quotients, so the counter is on the path it guards.
    run_checks(InstanceAnalysis(resolve_ref_to_bicomodule("divided:2", F3)), names=name)
    assert calls["quotient"] > 0


def _galois_2(m):
    return next(v for v in run_checks(InstanceAnalysis(m, seed=7),
                                      names=["annihilator-kernel-galois"])
                if v.statement == "annihilator-kernel-galois-2")


def test_an_empty_operator_basis_fails_the_galois_fixed_points(monkeypatch):
    m = random_instance(7, field=F2)[0]
    assert _galois_2(m).status == PASS
    # No operators: every map M/K -> M commutes, so every quotient reads as
    # cogenerated, while Ke(An(K)) != K for the line K below.
    monkeypatch.setattr(Bicomodule, "op_basis", lambda self: ())
    verdict = _galois_2(random_instance(7, field=F2)[0])
    assert verdict.status == FAIL
    assert verdict.witness == {"k": _described("100"), "ke_an_fixed": False,
                               "quotient_cogenerated": True}


# --- one containment table per instance ----------------------------------------

def _literal_upsets(subspaces):
    return [sum(1 << j for j, t in enumerate(subspaces)
                if t.dim > s.dim and t.contains(s)) for s in subspaces]


def _random_family(rng, field, n, count):
    """Distinct random subspaces of field^n with some of their sums and
    intersections (so that rows are shared), not closed under either."""
    family = {}
    for _ in range(count):
        vectors = [tuple(field.random_element(rng) for _ in range(n))
                   for _ in range(rng.randrange(n + 1))]
        sub = Subspace.from_vectors(field, n, vectors)
        family.setdefault(sub.key(), sub)
    members = list(family.values())
    for _ in range(count // 2):
        x, y = rng.choice(members), rng.choice(members)
        for sub in (x.sum_with(y), x.intersect(y)):
            family.setdefault(sub.key(), sub)
    members = list(family.values())
    rng.shuffle(members)
    return members


def _membership_pairs(subspaces):
    """(prefiltered, all): the (row, T) pairs of a distinct basis row of the
    family outside T's own rows, those whose leading position is a pivot of
    T, and all of them."""
    leads = {}
    for s in subspaces:
        leads.update(zip(s.basis, s.pivots))
    prefiltered = everything = 0
    for t in subspaces:
        for row, c in leads.items():
            if row not in t.basis:
                everything += 1
                prefiltered += c in t.pivots
    return prefiltered, everything


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_row_signature_table_matches_the_definition(monkeypatch, field):
    """`strict_upsets` against t.dim > s.dim and t.contains(s), with at most
    one membership test per (row, T) pair that the leading-position
    prefilter passes."""
    calls = Counter()
    if field == F2:
        original = linalg.f2_reduce

        def counted(*args):
            calls["member"] += 1
            return original(*args)

        monkeypatch.setattr(linalg, "f2_reduce", counted)
    else:
        original = Subspace.contains_vector

        def counted(sub, v):
            calls["member"] += 1
            return original(sub, v)

        monkeypatch.setattr(Subspace, "contains_vector", counted)
    rng = Random(field.p or 0)
    for n in (3, 4, 5):
        for _ in range(4):
            family = _random_family(rng, field, n, 14)
            calls.clear()
            table = linalg.strict_upsets(family)
            tested = calls["member"]
            assert table == _literal_upsets(family)
            prefiltered, everything = _membership_pairs(family)
            assert tested <= prefiltered < everything
    assert linalg.strict_upsets([]) == []


@pytest.mark.parametrize("seed", [7, 8, 10, 16])
def test_sweep_tables_match_the_definition_and_below_is_the_transpose(seed):
    a = InstanceAnalysis(random_instance(seed, field=F2)[0], seed=7)
    for part in _parts(a):
        lat = part.lattice
        assert lat.above == _literal_upsets(lat.elements)
        for i in range(len(lat)):
            assert lat.below[i] == sum(1 << j for j in range(len(lat))
                                       if lat.above[j] >> i & 1)


@pytest.mark.parametrize("build", [
    lambda: InstanceAnalysis(random_instance(8, field=F2)[0], seed=7),
    lambda: InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:4", F2))],
    ids=["seed-8", "grouplike:4"])
def test_child_analyses_read_the_parent_table(monkeypatch, build):
    """`lattice.strict_upsets` runs once for the instance and never for the
    children that spectrum-restriction and duo-transfer build."""
    calls = []
    original = lattice_module.strict_upsets

    def counted(subspaces):
        calls.append(len(subspaces))
        return original(subspaces)

    monkeypatch.setattr(lattice_module, "strict_upsets", counted)
    a = build()
    assert not _failures(a, ["spectrum-restriction", "duo-transfer"])
    assert calls == [len(a.lattice)]
    lat = a.lattice
    parts = [l for l in lat.subset(lat.fi_bits & ~1) if not l.is_full()]
    children = [a.restricted(l) for l in parts]
    assert children and calls == [len(a.lattice)]
    for l_sub, child in zip(parts, children):
        assert child.lattice.above == _literal_upsets(child.lattice.elements)
        assert child.lattice.fi_mask == tuple(
            is_fully_invariant(k, child.endo) for k in child.lattice.elements)
        assert [child_coords(l_sub, lat.elements[j]) for j in child.lift] == \
            list(child.lattice.elements)


@pytest.mark.parametrize("build", [
    lambda: InstanceAnalysis(random_instance(8, field=F2)[0], seed=7),
    lambda: InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:4", F2))],
    ids=["seed-8", "grouplike:4"])
def test_child_results_lift_by_index(monkeypatch, build):
    """Child spectra reach the parent through `lift`: coordinates are
    computed only while `restricted` builds a child, once per element of
    the part below L."""
    calls = Counter()
    original = linalg.child_coords

    def counted(l_sub, k):
        calls["child_coords"] += 1
        return original(l_sub, k)

    for module in (linalg, analysis_module, checks):
        if hasattr(module, "child_coords"):
            monkeypatch.setattr(module, "child_coords", counted)
    a = build()
    assert not _failures(a, ["spectrum-restriction",
                             "simple-point-characterization"])
    ran = calls["child_coords"]
    children = _parts(a)[1:]
    assert children and calls["child_coords"] == ran
    assert ran == sum(len(child.lattice) for child in children)


def test_a_swapped_lift_fails_spectrum_restriction():
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:3", F2))
    assert not _failures(a, ["spectrum-restriction"])
    child = a.restricted(a.lattice.elements[1])
    assert child.lift == (0, 1)
    # The zero and L trade places: the point lifts to 0, so the sets
    # differ although their sizes agree.
    child.lift = (1, 0)
    assert _failures(a, ["spectrum-restriction"]) == [
        {"statement": "spectrum-restriction", "status": FAIL,
         "detail": "standalone spectrum of a part differs from the cut-down "
                   "parent spectrum",
         "witness": {"l": _described("100"), "side": "fully coprime",
                     "standalone": 1, "cut_down": 1}}]


def test_a_shifted_child_reindex_fails_spectrum_restriction(monkeypatch):
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:3", F2))
    assert not _failures(a, ["spectrum-restriction"])
    original = lattice_module.Lattice.induced_above
    monkeypatch.setattr(lattice_module.Lattice, "induced_above",
                        lambda lat, order: original(lat, order[1:] + order[:1]))
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:3", F2))
    assert _failures(a, ["spectrum-restriction"]) == [
        {"statement": "spectrum-restriction", "status": FAIL,
         "detail": "standalone spectrum of a part differs from the cut-down "
                   "parent spectrum",
         "witness": {"l": _described("100"), "side": "coradical",
                     "standalone": _described(), "cut_down": _described("100")}}]


def test_the_ideal_side_reads_one_table_of_right_ideals(monkeypatch):
    """After the predicates on grouplike:7, the ideal side tests no ideal
    flag and builds one containment table, over the 128 right ideals; the
    prime-maximal-discreteness gate reads that table and builds none."""
    sides = _count_side_tests(monkeypatch)
    tables = []
    original = linalg.strict_upsets

    def counted(subspaces):
        tables.append(len(subspaces))
        return original(subspaces)

    for module in (linalg, lattice_module, endo_module, coprime_module, checks):
        if hasattr(module, "strict_upsets"):
            monkeypatch.setattr(module, "strict_upsets", counted)
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:7", F2))
    a.predicates
    sides.clear()
    tables.clear()
    side = a.ideal_side
    assert not sides
    assert tables == [len(a.right_ideals)] == [128]
    assert side.family.fi_bits == (1 << 128) - 1
    tables.clear()
    verdicts = run_checks(a, names=["prime-maximal-discreteness"])
    assert [v.status for v in verdicts] == [PASS]
    assert not tables and not sides


def test_predicates_compute_each_kernel_once(monkeypatch):
    keys = []
    original = endo_module.ke

    def counted(ideal, endo):
        keys.append(getattr(ideal, "subspace", ideal).key())
        return original(ideal, endo)

    for module in (coprime_module, lattice_module):
        monkeypatch.setattr(module, "ke", counted)
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:4", F2))
    report = a.predicates
    assert report.self_cogenerator and report.intrinsically_injective
    # The 16 annihilators are the 16 right ideals of the group algebra dual.
    assert len(keys) == len(set(keys)) == 16


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_restrict_applies_each_operator_once_per_row(monkeypatch, field):
    m, _ = random_instance(10, dim_budget=DIM_BUDGET.get(field, 4), field=field)
    ops = m.all_ops()
    mode = "exhaustive" if field.is_finite else "generated"
    stable = [k for k in enumerate_lattice(m, mode=mode).elements if not k.is_zero()]
    rng = Random(10)
    unstable = []
    while len(unstable) < 5:
        vectors = [tuple(field.random_element(rng) for _ in range(m.dim))
                   for _ in range(rng.randrange(1, m.dim))]
        sub = Subspace.from_vectors(field, m.dim, vectors)
        if not is_subbicomodule(m, sub):
            unstable.append(sub)
    calls = Counter()
    if field == F2:
        original = linalg.f2_image

        def counted(columns, bits):
            calls["apply"] += 1
            return original(columns, bits)

        monkeypatch.setattr(linalg, "f2_image", counted)
    else:
        original = Matrix.apply

        def counted(op, vec):
            calls["apply"] += 1
            return original(op, vec)

        monkeypatch.setattr(Matrix, "apply", counted)
    for k in stable:
        calls.clear()
        r, _ = restrict(m, k)
        assert calls["apply"] == len(ops) * k.dim
        r_ops, l_ops = m.right_ops(), m.left_ops()
        for t, row in enumerate(k.basis):
            for c, op in enumerate(r_ops):
                coords = k.coords_of(op.apply(row))
                assert [r.rho_right[t][j][c] for j in range(k.dim)] == list(coords)
            for c, op in enumerate(l_ops):
                coords = k.coords_of(op.apply(row))
                assert list(r.rho_left[t][c]) == list(coords)
    for sub in unstable:
        with pytest.raises(NotSubbicomodule):
            restrict(m, sub)


# --- work done only when read: ideal flags, annihilator systems, sums ---------

def _count_side_tests(monkeypatch):
    """Counts the `_closed` tests of each side (key True: the left side)."""
    calls = Counter()
    original = endo_module._closed

    def counted(algebra, sub, left):
        calls[left] += 1
        return original(algebra, sub, left)

    monkeypatch.setattr(endo_module, "_closed", counted)
    return calls


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_annihilator_flags_are_tested_on_first_read(monkeypatch, field):
    calls = _count_side_tests(monkeypatch)
    if field == F2:
        m = resolve_ref_to_bicomodule("grouplike:4", F2)
    else:
        m, _ = random_instance(5, dim_budget=DIM_BUDGET.get(field, 4), field=field)
    a = InstanceAnalysis(m, mode="exhaustive" if field.is_finite else "generated")
    a.lattice
    calls.clear()
    a.spectrum
    assert not calls
    for k in a.lattice.elements:
        ann = a.coproducts.annihilator(k)
        calls.clear()
        right = _literal_closed(a.endo, ann.subspace, left=False)
        two_sided = right and _literal_closed(a.endo, ann.subspace, left=True)
        for _ in range(2):
            assert (ann.is_two_sided, ann.is_right) == (two_sided, right)
        # Each side is tested once, the left one only for a right ideal.
        assert calls == Counter({False: 1, True: 1} if right else {False: 1})


def test_enumerated_right_ideals_test_only_their_left_side_when_read(monkeypatch):
    calls = _count_side_tests(monkeypatch)
    e = EndoAlgebra.compute(resolve_ref_to_bicomodule("divided:3", F2))
    ideals = enumerate_ideals(e)
    assert not calls
    assert all(i.is_right for i in ideals) and not calls
    flags = [i.is_two_sided for i in ideals]
    assert calls == Counter({True: len(ideals)})
    assert flags == [_literal_closed(e, i.subspace, left=True) for i in ideals]


def _literal_annihilator(sub, mats):
    """The c in F2^d with sum of c_j mats[j] zero on every basis row of sub,
    by trying every c."""
    d, n = len(mats), sub.ambient
    zero = (0,) * n
    return Subspace.from_vectors(F2, d, [
        c for c in product((0, 1), repeat=d)
        if all(combination(F2, n, c, mats).apply(v) == zero for v in sub.basis)])


def test_packed_annihilator_matches_the_definition(monkeypatch):
    calls = Counter()
    original = linalg.f2_image

    def counted(columns, bits):
        calls["image"] += 1
        return original(columns, bits)

    monkeypatch.setattr(linalg, "f2_image", counted)
    rng = Random(20)
    for n, d in ((3, 5), (4, 2), (5, 5), (2, 6), (4, 1)):
        mats = [Matrix(F2, n, n, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
                for _ in range(d)]
        stack = linalg.interleave(mats)
        subs = [Subspace.zero(F2, n), Subspace.full(F2, n), *_random_subspaces(rng, n, 6)]
        for sub in subs:
            want = _literal_annihilator(sub, mats)
            for given in (None, stack):
                calls.clear()
                assert annihilator(sub, mats, given) == want
                assert calls["image"] == sub.dim
            tuples = [Matrix(TUPLE_F2, n, n, mat.data) for mat in mats]
            assert _rows(annihilator(_tuple_sub(sub), tuples)) == _rows(want)
        assert annihilator(subs[0], mats).is_full()


def test_an_builds_the_stacked_basis_once_per_algebra(monkeypatch):
    calls = Counter()
    original = linalg.interleave

    def counted(mats):
        calls["stack"] += 1
        return original(mats)

    monkeypatch.setattr(endo_module, "interleave", counted)
    monkeypatch.setattr(linalg, "interleave", counted)
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:4", F2))
    a.predicates
    assert calls["stack"] == 1
    calls.clear()
    b = InstanceAnalysis(random_instance(5, field=F3)[0])
    b.predicates
    assert calls["stack"] == 0 and b.endo.stacked_basis() is None


@pytest.mark.parametrize("closure", ["lattice", "ideals"])
def test_f2_sum_closure_builds_one_subspace_per_member(closure):
    n, cyclic = _grouplike_7_closures()[closure]
    found, built = _growth_loop(F2, n, cyclic, Subspace, "__init__")
    # The zero it starts from and one per sum that is new, of 448 sums.
    assert built == len(found) == 128


@pytest.mark.parametrize("seed", range(6))
def test_f2_sum_closure_lists_the_tuple_sums_in_order(seed):
    m, _ = random_instance(seed, field=F2)
    t = _tuple_form(m)
    got, _ = linalg.sum_closure(F2, m.dim, lambda v: cyclic_subbicomodule(m, v))
    want, _ = linalg.sum_closure(TUPLE_F2, t.dim, lambda v: cyclic_subbicomodule(t, v))
    assert [_rows(s) for s in got] == [_rows(s) for s in want]
    assert all(s.pivots == w.pivots for s, w in zip(got, want))


# --- flags from the join-irreducibles -------------------------------------------

def _flag_forms():
    """Builders of the analyses whose flags are compared with the
    definitions: the first 50 sweep seeds over F2, the F3 and F5 sweeps of
    the acceptance commands, the comodule form of each of their coalgebras,
    `divided:6` over F2 and F3, `grouplike:7` to `grouplike:9`, and two
    generated instances over Q.  Budgets are raised so that every finite
    form is enumerated, its right ideals included."""
    pools = [(F2, range(7, 57)), (F3, range(10)), (F5, range(5))]
    forms = {f"{field.name}-{s}": lambda s=s, f=field: random_instance(s, field=f)[0]
             for field, seeds in pools for s in seeds}
    for field in (F2, F3):
        forms[f"divided:6-{field.name}"] = \
            lambda f=field: resolve_ref_to_bicomodule("divided:6", f)
    for name, build in list(forms.items()):
        forms[f"{name}-comodule"] = lambda b=build: right_comodule(b().regular_of)
    for n in (7, 8, 9):
        forms[f"grouplike:{n}"] = lambda n=n: resolve_ref_to_bicomodule(f"grouplike:{n}", F2)
    for s in (2, 10):
        forms[f"Q-{s}"] = lambda s=s: random_instance(s, field=QQ)[0]
    return forms


FLAG_FORMS = _flag_forms()


def _flag_analysis(name):
    m = FLAG_FORMS[name]()
    if m.field.is_finite:
        return InstanceAnalysis(m, budget=10 ** 8, ideal_budget=10 ** 8)
    return InstanceAnalysis(m, mode="generated")


def _flag_names(finite=False):
    """The names of FLAG_FORMS whose builder gives a bicomodule (a comodule
    form needs a regular instance), the Q ones left out when finite."""
    names = []
    for name, build in FLAG_FORMS.items():
        if finite and name.startswith("Q-"):
            continue
        if name.endswith("-comodule"):
            base = FLAG_FORMS[name[:-len("-comodule")]]
            if base().regular_of is None:
                continue
        names.append(name)
    return names


def _check_fully_invariant_members(a):
    """`fi_mask`, decided from the join-irreducibles, against a stability
    test of every member, for the instance and every part `restricted`
    builds; the join-irreducibles against their definition."""
    for part in _parts(a):
        lat = part.lattice
        assert lat.fi_mask == tuple(is_fully_invariant(k, part.endo)
                                    for k in lat.elements)
        assert lat.irreducible == sum(
            1 << i for i in range(1, len(lat))
            if linalg.maximal_bits(lat.below[i], lat.above).bit_count() == 1)


def _check_two_sided_ideals(a):
    """The two-sided mask of the right-ideal family and `e_right_duo`
    against a left-side test of every right ideal."""
    ideals = a.right_ideals
    flags = tuple(endo_module._closed(a.endo, i.subspace, left=True) for i in ideals)
    assert coprime_module.ideal_family(a.endo, ideals).fi_mask == flags
    assert a.predicates.e_right_duo == all(flags)


def _check_hom_dimensions(a):
    """Every dim Hom(K, M) read through a direct sum against its solve."""
    lat = a.lattice
    assert list(lattice_module.hom_dims(a.m, lat)) == [
        hom_dim(a.m, k) for k in lat.elements[1:]]
    for i in range(1, len(lat)):
        split = lat.direct_sum(i)
        if split is not None:
            s, c = (lat.elements[j] for j in split)
            assert s.intersect(c).is_zero() and s.sum_with(c) == lat.elements[i]


@pytest.mark.parametrize("name", _flag_names())
def test_flags_from_the_join_irreducibles_match_the_definitions(name):
    a = _flag_analysis(name)
    _check_fully_invariant_members(a)
    if a.field.is_finite:
        _check_two_sided_ideals(a)
    _check_hom_dimensions(a)


@pytest.mark.parametrize("name", ["F2-7-comodule", "F2-10-comodule", "F2-16-comodule"])
def test_some_comodule_forms_have_rings_that_are_not_right_duo(name):
    """The forms on which a rule that marks every right ideal two-sided
    fails; every sweep ring over F2 is right duo."""
    a = _flag_analysis(name)
    assert a.predicates.e_right_duo is False
    assert a.ideal_side.family.fi_bits != (1 << len(a.right_ideals)) - 1


def _count_work(monkeypatch):
    """Counts the `hom_dim` solves of the predicates and the
    `is_fully_invariant` calls of the lattice module."""
    calls = Counter()

    def counter(key, original):
        def counted(*args):
            calls[key] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(lattice_module, "hom_dim",
                        counter("hom", lattice_module.hom_dim))
    fi = counter("fi", lattice_module.is_fully_invariant)
    monkeypatch.setattr(lattice_module, "is_fully_invariant", fi)
    monkeypatch.setattr(analysis_module, "is_fully_invariant", fi, raising=False)
    return calls


def test_grouplike_7_runs_seven_of_each_test(monkeypatch):
    """Up to its predicates, an analysis of grouplike:7 solves Hom for its
    7 atoms only, tests the left side of its 7 join-irreducible right
    ideals only, and tests no member for full invariance; nor do the
    parts it restricts to."""
    sides = _count_side_tests(monkeypatch)
    calls = _count_work(monkeypatch)
    a = InstanceAnalysis(resolve_ref_to_bicomodule("grouplike:7", F2))
    a.predicates
    assert calls == Counter({"hom": 7})
    assert sides == Counter({True: 7})
    lat = a.lattice
    for l_sub in lat.subset(lat.fi_bits & ~1):
        a.restricted(l_sub)
    assert calls == Counter({"hom": 7})


def test_a_chain_solves_hom_for_every_member(monkeypatch):
    """divided:6 is a chain of 8 members, which has no direct sums: the
    suite solves Hom for the 7 nonzero members of the instance and of its
    comodule form, which `morphism-spectral-map` analyses."""
    calls = _count_work(monkeypatch)
    a = InstanceAnalysis(resolve_ref_to_bicomodule("divided:6", F2))
    assert [v for v in run_checks(a) if v.status == FAIL] == []
    assert calls == Counter({"hom": 14}) and len(a.lattice) == 8
