"""Exactness certificates, checked with the dense oracle in oracles.py.

For a computed resolution F_{i+1} --d_i--> F_i: d_i . d_{i+1} = 0 exactly,
coker d_0 has the Hilbert function of the module resolved, and in every
degree d <= D, dim ker(d_i)_d = dim im(d_{i+1})_d.  The dimensions come
from degreewise ranks over Z/p, not from the Groebner engine.
"""

import random

import pytest

from gext import (Ring, betti_stats, cokernel, free_module_of,
                  free_resolution, groebner_basis, hilbert_function,
                  hom_module, minimal_generators, prune, ring_module,
                  syzygies, truncate_module)
from gext import homext
from gext.free import FreeModule, GradedMatrix, ModuleElement
from gext.gmod import GradedModule
from gext.groebner import _computation, _syzygy_matrix, relation_basis

from oracles import (assert_exact, ext_dim, image_dim, module_component_dim,
                     monomial_exponents)

P = 32003


def random_element(ambient, degree, rng):
    """Random homogeneous element of `ambient` in `degree` (possibly zero)."""
    ring = ambient.ring
    data = {}
    for j, a in enumerate(ambient.twists):
        for e in monomial_exponents(len(ring.variables), degree - a):
            c = rng.randrange(P)
            if c and rng.random() < 0.5:
                data[(j, ring.ctx.encode(e))] = c
    return ModuleElement(ambient, data).reduced()


def random_module(ring, rng, ranks=(1, 2)):
    """coker of 2-4 random homogeneous columns on a number of generators
    drawn from ranks."""
    cover = FreeModule(ring, tuple(rng.choice([0, 0, 1])
                                   for _ in range(rng.choice(ranks))))
    cols = [random_element(cover, rng.choice([1, 1, 2, 2, 3]), rng)
            for _ in range(rng.choice([2, 3, 4]))]
    cols = [c for c in cols if not c.is_zero()]
    src = FreeModule(ring, tuple(c.degree() for c in cols))
    return cokernel(GradedMatrix(src, cover, cols, check=False))


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_resolution_of_random_module_is_exact(seed, quotient):
    rng = random.Random(1200 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = random_module(ring, rng)
    res = free_resolution(module, length_cap=3 if quotient else None)
    assert_exact(res, module, 7)


def old_recipe(previous: GradedMatrix):
    """The next differential's columns as free_resolution once built them:
    the syzygies of the previous columns from a tracked Buchberger run
    (what `syzygies` ran before its signature run; the columns of a
    minimal differential are kept as they are), then minimal generators
    of those syzygies.  The reference for iterated subquotient."""
    degrees, order, comp = _computation(previous.columns, (),
                                        previous.target, track=True)
    comp.add_minimal(order)
    comp.run()
    syz = _syzygy_matrix(comp, degrees)
    _, cols = minimal_generators(syz.columns, ambient=previous.source)
    return cols


def assert_old_recipe(res):
    """Every differential after the first equals, column for column, the
    old recipe on the one before; a complete resolution's last differential
    has no syzygies left."""
    diffs = res.differentials
    for previous, d in zip(diffs, diffs[1:]):
        cols = old_recipe(previous)
        assert list(d.columns) == cols
        assert d.source.twists == tuple(c.degree() for c in cols)
    if res.complete and diffs:
        assert old_recipe(diffs[-1]) == []


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_iterated_subquotient_keeps_the_old_recipe(seed, quotient):
    """On the inputs of test_resolution_of_random_module_is_exact: each
    subquotient step returns the previous columns as its generators, so its
    presentation is the old recipe's minimal syzygies."""
    rng = random.Random(1200 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = random_module(ring, rng)
    res = free_resolution(module, length_cap=3 if quotient else None)
    assert_old_recipe(res)


def test_iterated_subquotient_keeps_the_old_recipe_on_the_quartic(
        quartic_cokernel):
    res = free_resolution(quartic_cokernel)
    assert res.complete and len(res.differentials) == 3
    assert_old_recipe(res)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_resolution_of_a_subquotient_result_is_not_pruned_again(seed,
                                                                quotient):
    """A module subquotient returns is marked minimally presented, so prune
    returns it as it is and free_resolution resolves it directly.  Its
    resolution has the Betti table and differential degrees of the same
    presentation without the mark, which free_resolution prunes first, and
    it is exact.  The inputs are those of
    test_resolution_of_random_module_is_exact."""
    rng = random.Random(1200 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = random_module(ring, rng)
    marked, _ = prune(module)
    same, iso = prune(marked)
    assert same is marked
    assert (iso.source, iso.target, iso.degree) == (marked, marked, 0)
    assert iso.matrix.columns == GradedMatrix.identity(marked.cover).columns

    cap = 3 if quotient else None
    res = free_resolution(marked, length_cap=cap)
    unmarked = free_resolution(GradedModule(marked.presentation),
                               length_cap=cap)
    assert res.module is marked
    assert betti_stats(res).entries == betti_stats(unmarked).entries
    assert [(d.source.twists, d.target.twists) for d in res.differentials] \
        == [(d.source.twists, d.target.twists)
            for d in unmarked.differentials]
    assert res.complete == unmarked.complete
    assert_exact(res, module, 7)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_hilbert_function_of_random_module_matches_the_oracle(seed, quotient):
    """hilbert_function reads each component's divisor leads (the quotient
    divisors', then the relation basis's) from one list: on modules with
    2-3 generators it agrees with the dense oracle in every degree."""
    rng = random.Random(1300 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = random_module(ring, rng, ranks=(2, 3))
    for d in range(7):
        assert hilbert_function(module, d) == module_component_dim(module, d)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", (0, 6, 8, 9))
def test_ext_matches_the_dense_oracle(seed, quotient):
    """hilbert_function of ext_at_least(m, low, M, N), and for m = 0 of
    hom_module(M, N), equals ext_dim, the homology of Hom(F_., N)_d by
    dense ranks, for m = 0, 1, 2 in degrees low..low + 5.  Every case has
    a nonzero Ext in the window, and seeds 0, 6 and 9 a nonzero Ext^2."""
    rng = random.Random(1400 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    source, target = random_module(ring, rng), random_module(ring, rng)
    low = -2
    hom = hom_module(source, target).underlying
    seen = 0
    for m in range(3):
        ext = homext.ext_at_least(m, low, source, target)
        for d in range(low, low + 6):
            want = ext_dim(m, source, target, d)
            assert hilbert_function(ext, d) == want, (m, d)
            if m == 0:
                assert hilbert_function(hom, d) == want, d
            seen += want
    assert seen


def _ext_resolutions(monkeypatch):
    """Record every resolution ext_module builds."""
    built = []

    def recording(module, length_cap=None):
        res = free_resolution(module, length_cap=length_cap)
        built.append((module, res))
        return res

    monkeypatch.setattr(homext, "free_resolution", recording)
    return built


def test_ext_module_resolutions_are_exact(monkeypatch, quartic_cokernel,
                                          del_pezzo_g, elliptic_ring):
    built = _ext_resolutions(monkeypatch)
    homext.ext_module(2, quartic_cokernel, quartic_cokernel)
    homext.ext_module(1, del_pezzo_g, del_pezzo_g)
    truncated = truncate_module(ring_module(elliptic_ring), 2)
    homext.ext_module(1, truncated, ring_module(elliptic_ring))
    assert len(built) == 3
    for (module, res), top in zip(built, (5, 3, 5)):
        assert res.differentials
        assert_exact(res, module, top)
    # ext_module stops the quartic's resolution at its cap, 3 = pd, before
    # the syzygies of d_2: the uncapped resolution has the same
    # differentials and certifies that d_2 is injective
    capped = built[0][1]
    assert not capped.complete and len(capped.differentials) == 3
    full = free_resolution(quartic_cokernel)
    assert full.complete
    assert [d.columns for d in full.differentials] == \
        [d.columns for d in capped.differentials]
    assert_exact(full, quartic_cokernel, 5)


def sparse_element(ambient, degree, rng, nterms):
    """Homogeneous element of `ambient` in `degree` with at most nterms
    terms, each a random monomial of a random component."""
    ring = ambient.ring
    comps = [j for j, a in enumerate(ambient.twists) if a <= degree]
    data = {}
    for _ in range(nterms):
        j = rng.choice(comps)
        e = rng.choice(monomial_exponents(ring.nvars,
                                          degree - ambient.twists[j]))
        data[(j, ring.ctx.encode(e))] = rng.randrange(1, P)
    return ModuleElement(ambient, data).reduced()


def seeded_element(kind, ambient, degree, rng):
    """A dense random element, a binomial, or (monomial-heavy) mostly a
    single term: sparse inputs share many lcms, so the engine's pair
    criteria fire often."""
    if kind == "dense":
        return random_element(ambient, degree, rng)
    nterms = 2 if kind == "binomial" else rng.choice([1, 1, 1, 2])
    return sparse_element(ambient, degree, rng, nterms)


SYZYGY_CASES = ([pytest.param("dense", s, id=str(s)) for s in range(4)]
                + [pytest.param(kind, s, id=f"{kind}{s}")
                   for kind in ("binomial", "monomial") for s in range(3)])
SEED_BASE = {"dense": 1300, "binomial": 1340, "monomial": 1370}


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("kind, seed", SYZYGY_CASES)
def test_seeded_syzygies_span_the_projected_syzygies(kind, seed, quotient):
    """subquotient's relation columns, from `syzygies` run on a Groebner
    basis of the relations, span the same module as the gens coordinates
    of the syzygies of gens and relations together, in every degree <= 6,
    and that module has the dimension the dense oracle gives the kernel of
    R^k -> F / span(rels), e_i -> gmin_i."""
    rng = random.Random(SEED_BASE[kind] + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1))
    gens = [seeded_element(kind, fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(4)]
    rels = [seeded_element(kind, fm, rng.choice([2, 3]), rng)
            for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    basis = groebner_basis(rels, fm)
    _, gmin = minimal_generators(gens, rels=basis, ambient=fm)
    assert gmin
    k = len(gmin)
    seeded = syzygies(gmin, rels=basis, ambient=fm)
    tracked = syzygies(gmin + rels, ambient=fm)
    gfree = seeded.target
    projected = [ModuleElement(gfree, {(i, m): c
                                       for (i, m), c in col.data.items()
                                       if i < k})
                 for col in tracked.columns]
    projected = [c for c in projected if not c.is_zero()]

    a, b = span_in(gfree, seeded.columns), span_in(gfree, projected)
    both = span_in(gfree, list(seeded.columns) + projected)
    modulo_rels = span_in(fm, rels)
    modulo_all = span_in(fm, rels + gmin)
    for d in range(7):
        kernel = (module_component_dim(free_module_of(ring, gfree.twists), d)
                  - module_component_dim(cokernel(modulo_rels), d)
                  + module_component_dim(cokernel(modulo_all), d))
        assert image_dim(a, d) == image_dim(b, d) == image_dim(both, d) \
            == kernel, d


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_syzygies_with_known_and_rels_are_syzygies(seed, quotient):
    """Given the relations of a random module and known syzygies (seeded
    multiples of the plain run's columns), every column c of syzygies is
    a syzygy modulo the relations: sum c_i gens_i reduces to zero by
    their basis, the quotient ideal included.  The known syzygies are
    passed as a list and as a Groebner basis."""
    rng = random.Random(1600 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = random_module(ring, rng, ranks=(2, 3))
    cover, rels = module.cover, list(module.relations)
    gens = [random_element(cover, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(4)]
    gens = [g for g in gens if not g.is_zero()]
    plain = syzygies(gens, rels=rels, ambient=cover)
    known = [c.poly_mul(ring.constant(rng.randrange(1, P)))
             for c in rng.sample(plain.columns, len(plain.columns) // 2)]
    known += [c.poly_mul(ring.variable(rng.randrange(3)))
              for c in plain.columns[::3]]
    assert known
    basis = relation_basis(rels, cover)
    for given in (known, groebner_basis(known, ambient=plain.target)):
        columns = syzygies(gens, rels=rels, ambient=cover, known=given)
        assert columns.source.rank > 0
        for col in columns.columns:
            image = cover.zero_element()
            for (i, m), c in col.data.items():
                image = image + gens[i].monomial_mul(m, c)
            assert basis.contains(image), col


def span_in(ambient, cols):
    """The matrix with the given columns, into ambient."""
    src = FreeModule(ambient.ring, tuple(c.degree() for c in cols))
    return GradedMatrix(src, ambient, cols, check=False)
