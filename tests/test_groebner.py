"""Groebner bases, syzygies and minimal generators.

Frozen oracle values were derived by hand / by the dense linear-algebra
oracle in oracles.py; the randomized properties check the engine against
that oracle degree by degree.
"""

import random

import pytest

import gext.groebner

from gext import (AlgebraError, Ring, RingMismatch, cokernel,
                  free_module_of, groebner_basis, minimal_generators,
                  normal_form, parse_polynomial, subquotient, syzygies)
from gext.free import FreeModule, GradedMatrix, ModuleElement
from gext.groebner import (SignatureRun, _computation, _syzygy_matrix,
                           generators_and_syzygies, normal_form_terms,
                           relation_basis)
from gext.homext import express_in_generators
from gext.monomial import ExponentOverflow

from oracles import (ideal_component_dim, ideal_contains, initial_module,
                     module_component_dim, monomial_exponents,
                     quotient_hilbert)

P = 32003


def ideal_elements(ring, texts):
    fm = FreeModule(ring, (0,))
    out = []
    for t in texts:
        f = parse_polynomial(ring, t)
        out.append(ModuleElement(fm, {(0, m): c for m, c in f.terms.items()}))
    return fm, out


def leads_of(ring, gb):
    out = []
    for e in gb:
        (_, m), _ = e.lead_term()
        out.append(tuple(ring.ctx.decode(m)))
    return sorted(out)


def test_frozen_two_variable_ideal():
    # GB of (x^2 + y^2, x*y) adds y^3: classic frozen oracle.
    ring = Ring(P, ("x", "y"))
    fm, gens = ideal_elements(ring, ["x^2 + y^2", "x*y"])
    gb = groebner_basis(gens, ambient=fm)
    assert leads_of(ring, gb) == [(0, 3), (1, 1), (2, 0)]
    # y^4 = y * y^3 is in the ideal, x*y^2 likewise; x^2*y^2 reduces to 0
    for t, inside in [("y^4", True), ("x*y^2", True), ("x^2+y^2", True),
                      ("x^2", False), ("y^2", False)]:
        f = parse_polynomial(ring, t)
        v = ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
        assert gb.contains(v) is inside


def test_koszul_syzygy():
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, ["x", "y"])
    syz = syzygies(gens, ambient=fm)
    assert syz.source.rank == 1
    col = syz.columns[0]
    # the Koszul relation y*e1 - x*e2 up to sign/scale
    assert col.degree() == 2
    assert apply_column(gens, col).is_zero()


def matrix_image_dim(cols, ambient, d):
    """dim_k of the degree-d part of the span of cols in ambient, by the
    dense oracle."""
    src = FreeModule(ambient.ring, tuple(c.degree() for c in cols))
    free = free_module_of(ambient.ring, ambient.twists)
    return (module_component_dim(free, d)
            - module_component_dim(
                cokernel(GradedMatrix(src, ambient, cols, check=False)), d))


@pytest.mark.parametrize("texts", [
    ["x*y", "x*z", "y*z"],   # two pairs on y*z share the lcm x*y*z
    ["x^2", "x*y", "y^2"],   # (x^2, y^2): x^2 on y^2, x recorded by (x*y, y^2)
])
def test_criteria_drop_redundant_syzygies(texts):
    """Each of these ideals has two minimal syzygies and three S-pairs;
    one pair is dropped, so exactly the two minimal columns come out, and
    they span the whole kernel of R^3 -> R, e_i -> gens_i."""
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, texts)
    syz = syzygies(gens, ambient=fm)
    assert syz.source.rank == 2
    for col in syz.columns:
        assert apply_column(gens, col).is_zero()
    for d in range(6):
        kernel = (3 * len(monomial_exponents(3, d - 2))
                  - matrix_image_dim(gens, fm, d))
        assert matrix_image_dim(syz.columns, syz.target, d) == kernel, d


def s_pair(a, b):
    """The S-pair of two module elements with the same lead component."""
    ctx = a.ambient.ring.ctx
    (_, ma), ca = a.lead_term()
    (_, mb), cb = b.lead_term()
    lcm = ctx.lcm(ma, mb)
    return (a.monomial_mul(ctx.quotient(lcm, ma), cb)
            + b.monomial_mul(ctx.quotient(lcm, mb), P - ca))


def apply_column(gens, col):
    """sum col_i * gens_i inside the common ambient module."""
    ambient = gens[0].ambient
    ring = ambient.ring
    acc = ModuleElement(ambient, {})
    for (i, m), c in col.data.items():
        piece = gens[i].monomial_mul(m, c)
        acc = acc + piece
    return acc.reduced() if ring.is_quotient else acc


def test_minimal_generators_drops_redundant():
    ring = Ring(P, ("x", "y"))
    fm, gens = ideal_elements(ring, ["x", "y", "x^2 + x*y"])
    indices, elements = minimal_generators(gens, ambient=fm)
    assert sorted(indices) == [0, 1]
    assert len(elements) == 2


def test_minimal_generators_reduce_again_after_the_pairs():
    """g = x*f1 - y*f2 = y^2 z - x z^2 has a nonzero remainder against
    f1, f2 alone, but is the S-pair of f1 and f2, so it reduces to zero
    once the pairs of its degree are processed."""
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, ["x*y - z^2", "x^2 - y*z",
                                     "y^2*z - x*z^2"])
    assert groebner_basis(gens[:2], fm).reduce(gens[2]).is_zero()
    indices, elements = minimal_generators(gens, ambient=fm)
    assert indices == [0, 1]
    assert elements == gens[:2]


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(4))
def test_minimal_generators_keep_exactly_the_rank_growth(seed, quotient):
    """Taken in (degree, index) order, a generator is kept exactly when it
    raises the dense-oracle dimension of span(rels + earlier generators)
    in its degree, and its reduced element differs from it by that span.
    Half the generators are combinations of others, some of them in
    degrees above every new generator."""
    rng = random.Random(1500 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1))
    new = [random_module_element(fm, rng.choice([1, 2, 2]), rng)
           for _ in range(3)]
    new = [g for g in new if not g.is_zero()]
    spans = [random_span_element(new, rng.choice([2, 3, 4]), rng)
             for _ in range(3)]
    gens = [g for g in new + spans if not g.is_zero()]
    rng.shuffle(gens)
    rels = [random_module_element(fm, 3, rng)]
    assert new and not rels[0].is_zero()
    indices, elements = minimal_generators(gens, rels=rels, ambient=fm)

    earlier = list(rels)
    expected = []
    for i in sorted(range(len(gens)), key=lambda i: (gens[i].degree(), i)):
        d = gens[i].degree()
        if (matrix_image_dim(earlier + [gens[i]], fm, d)
                > matrix_image_dim(earlier, fm, d)):
            expected.append(i)
        earlier.append(gens[i])
    assert indices == expected
    for i, el in zip(indices, elements):
        before = rels + [g for j, g in enumerate(gens)
                         if (g.degree(), j) < (gens[i].degree(), i)]
        d = gens[i].degree()
        assert el.degree() == d
        diff = [el - gens[i]] if el != gens[i] else []
        assert (matrix_image_dim(before + diff, fm, d)
                == matrix_image_dim(before, fm, d))


def test_reducer_product_over_the_exponent_cap_raises():
    """x^100 y^100 reduced by x - y walks towards y^200: the product that
    first needs y^128 must raise, not wrap into another monomial."""
    ring = Ring(P, ("x", "y"))
    fm, (g, v) = ideal_elements(ring, ["x - y", "x^100*y^100"])
    gb = groebner_basis([g], ambient=fm)
    with pytest.raises(ExponentOverflow):
        gb.reduce(v)


def test_normal_form_idempotent_and_linear():
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, ["x^2 - y*z", "y^2 - x*z"])
    gb = groebner_basis(gens, ambient=fm)
    f = parse_polynomial(ring, "x^3 + y^3 + z^3")
    v = ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
    r = normal_form(v, gb)
    assert normal_form(r, gb) == r
    w = normal_form(v + v, gb)
    assert w == r + r


def random_homogeneous(ring, degree, rng):
    nvars = len(ring.variables)
    terms = {}
    for e in monomial_exponents(nvars, degree):
        c = rng.randrange(P)
        if c and rng.random() < 0.6:
            terms[e] = c
    f = ring.zero()
    for e, c in terms.items():
        f = f + ring.monomial(e, c)
    return f


@pytest.mark.parametrize("seed", range(20))
def test_random_ideal_spairs_and_membership(seed):
    """Random homogeneous ideals: every S-pair of the returned basis
    reduces to zero, and degreewise membership matches dense linear
    algebra through degree 6."""
    rng = random.Random(1000 + seed)
    nvars = rng.choice([2, 3])
    ring = Ring(P, tuple("xyz"[:nvars]))
    polys = []
    for _ in range(rng.choice([2, 3])):
        f = random_homogeneous(ring, rng.choice([1, 2, 2, 3]), rng)
        if not f.is_zero():
            polys.append(f)
    if not polys:
        return
    fm = FreeModule(ring, (0,))
    gens = [ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
            for f in polys]
    gb = groebner_basis(gens, ambient=fm)

    # (a) all S-pairs reduce to zero
    els = list(gb)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            spair = s_pair(els[i], els[j])
            assert gb.contains(spair), f"S-pair ({i},{j}) does not reduce"

    # (b) degreewise dimension of the ideal matches the linear oracle
    for d in range(7):
        want = ideal_component_dim(polys, nvars, d, P)
        got = span_dim(ring, gb, d)
        assert got == want, f"degree {d}: engine {got} vs oracle {want}"

    # (c) membership of random degreewise combinations
    for d in range(2, 7):
        f = random_combination(ring, polys, d, rng)
        if f is None:
            continue
        v = ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
        assert gb.contains(v)
        assert ideal_contains(polys, f, nvars, d, P)
        g = f + random_homogeneous(ring, d, rng)
        vg = ModuleElement(fm, {(0, m): c for m, c in g.terms.items()})
        assert gb.contains(vg) == ideal_contains(polys, g, nvars, d, P)


def span_dim(ring, gb, d):
    """Degree-d dimension of the ideal from the GB's standard monomials."""
    nvars = len(ring.variables)
    ctx = ring.ctx
    leads = [m for (_, m) in gb.lead_terms()]
    total = standard = 0
    for e in monomial_exponents(nvars, d):
        m = ctx.encode(e)
        total += 1
        if not any(ctx.divides(l, m) for l in leads):
            standard += 1
    return total - standard


def random_combination(ring, polys, d, rng):
    out = ring.zero()
    for f in polys:
        deg = f.degree()
        if deg is None or deg > d:
            continue
        out = out + f * random_homogeneous(ring, d - deg, rng)
    return None if out.is_zero() else out


@pytest.mark.parametrize("seed", range(10))
def test_syzygies_annihilate(seed):
    """Over the base ring, gens . syzygy column = 0 exactly."""
    rng = random.Random(77 + seed)
    ring = Ring(P, ("x", "y", "z"))
    fm = FreeModule(ring, (0, 1))
    gens = []
    for _ in range(3):
        d = rng.choice([1, 2])
        f = random_homogeneous(ring, d, rng)
        g = random_homogeneous(ring, max(d - 1, 0), rng)
        data = {}
        data.update({(0, m): c for m, c in f.terms.items()})
        data.update({(1, m): c for m, c in g.terms.items()})
        if data:
            el = ModuleElement(fm, data)
            if el.is_homogeneous():
                gens.append(el)
    if not gens:
        return
    syz = syzygies(gens, ambient=fm)
    for col in syz.columns:
        assert apply_column(gens, col).is_zero()


def test_syzygies_over_quotient_land_in_ideal(elliptic_ring):
    """Over R = S/I the syzygy identity holds modulo I, i.e. exactly in R."""
    ring = elliptic_ring
    fm, gens = ideal_elements(ring, ["x^2", "x*y + z^2"])
    syz = syzygies(gens, ambient=fm)
    assert syz.source.rank > 0
    for col in syz.columns:
        assert apply_column(gens, col).is_zero()


def test_quotient_hilbert_agreement(quartic_base):
    """Standard monomials of GB(I) count dim (S/I)_d, vs dense oracle."""
    texts = ["x*y - w*z", "y^3 - x*z^2", "w*y^2 - x^2*z", "x^3 - w^2*y"]
    polys = [parse_polynomial(quartic_base, t) for t in texts]
    fm, gens = ideal_elements(quartic_base, texts)
    gb = groebner_basis(gens, ambient=fm)
    for d in range(8):
        total = len(monomial_exponents(4, d))
        assert total - span_dim(quartic_base, gb, d) == \
            quotient_hilbert(polys, 4, d, P)


def random_module_element(ambient, degree, rng):
    """Random homogeneous element of the given degree (possibly zero)."""
    data = {}
    for j, a in enumerate(ambient.twists):
        f = random_homogeneous(ambient.ring, degree - a, rng)
        data.update({(j, m): c for m, c in f.terms.items()})
    return ModuleElement(ambient, data).reduced()


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_syzygies_modulo_relations(seed, quotient):
    """syzygies(gens, rels=rels) generates the projection onto the gens
    coordinates of syzygies(gens + rels), and every column c satisfies
    sum c_i gens_i in span(rels) + I*F."""
    rng = random.Random(500 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    rels = [random_module_element(fm, rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    assert gens and rels
    k = len(gens)

    direct = syzygies(gens, rels=rels, ambient=fm)
    tracked = syzygies(gens + rels, ambient=fm)
    gfree = direct.target
    projected = [ModuleElement(gfree, {(i, m): c for (i, m), c in col.data.items()
                                       if i < k})
                 for col in tracked.columns]
    projected = [c for c in projected if not c.is_zero()]
    gb_direct = groebner_basis(direct.columns, ambient=gfree)
    gb_projected = groebner_basis(projected, ambient=gfree)
    assert all(gb_direct.contains(c) for c in projected)
    assert all(gb_projected.contains(c) for c in direct.columns)

    gb_rels = groebner_basis(rels, ambient=fm)
    for col in direct.columns:
        assert gb_rels.contains(apply_column(gens, col))


@pytest.mark.parametrize("known_as", ["list", "basis"])
@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_known_syzygies_complete_the_columns(seed, quotient, known_as):
    """syzygies(gens, rels, known=K), K syzygies of gens modulo rels (here
    seeded R-combinations of the columns of the run with known=()), emits
    columns that generate the syzygy module together with K: the span of
    columns and K equals the span of the plain run's columns, and those
    alone generate the projection onto the gens coordinates of
    syzygies(gens + rels).  K is passed as a list and as a Groebner
    basis.  The inputs are those of test_syzygies_modulo_relations."""
    rng = random.Random(500 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    rels = [random_module_element(fm, rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    rels = [r for r in rels if not r.is_zero()]

    plain = syzygies(gens, rels=rels, ambient=fm)
    gfree = plain.target
    tracked = syzygies(gens + rels, ambient=fm)
    projected = [ModuleElement(gfree, {(i, m): c for (i, m), c in col.data.items()
                                       if i < len(gens)})
                 for col in tracked.columns]
    gb_plain = groebner_basis(plain.columns, ambient=gfree)
    assert all(gb_plain.contains(c) for c in projected)

    rng = random.Random(4200 + seed)
    columns = list(plain.columns)
    known = [random_span_element(columns, d, rng) for d in (3, 4, 4, 5)]
    known += [c.poly_mul(ring.constant(rng.randrange(1, P)))
              for c in rng.sample(columns, len(columns) // 2)]
    known = [k for k in known if not k.is_zero()]
    if known_as == "basis":
        known = groebner_basis(known, ambient=gfree)
    seeded = syzygies(gens, rels=rels, ambient=fm, known=known)
    assert seeded.target == gfree
    gb_rels = groebner_basis(rels, ambient=fm)
    for col in seeded.columns:
        assert gb_rels.contains(apply_column(gens, col))
    gb_seeded = groebner_basis(list(seeded.columns) + list(known),
                               ambient=gfree)
    assert all(gb_seeded.contains(c) for c in plain.columns)
    assert all(gb_plain.contains(c) for c in seeded.columns)


def syzygy_initial_module(gens, rels, ambient, source, d):
    """in(ker)_d of source -> ambient / (span(rels) + I*ambient), e_j ->
    gens[j], in source's term order, by the dense oracle: initial_module
    of the graph module ambient + source, whose components come first in
    each degree, so the pivots on source's components are the leads of
    the kernel (elimination)."""
    ring = ambient.ring
    rank = ambient.rank
    graph = FreeModule(ring, ambient.twists + source.twists)
    rows = [ModuleElement(graph, {**g.data, (rank + j, ring.ctx.one): 1})
            for j, g in enumerate(gens)]
    rows += [ModuleElement(graph, dict(r.data)) for r in rels]
    return {(j - rank, e) for j, e in initial_module(rows, (), graph, d)
            if j >= rank}


def lead_multiples(leads, source, d):
    """The terms of degree d of source that some (component, monomial) of
    leads divides, as (component, exponent tuple)."""
    ctx = source.ring.ctx
    nvars = source.ring.nvars
    return {(j, e) for j, a in enumerate(source.twists)
            for e in monomial_exponents(nvars, d - a)
            if any(c == j and ctx.divides(m, ctx.encode(e))
                   for c, m in leads)}


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_columns_and_known_leads_give_the_initial_module(seed, quotient):
    """syzygies(gens, rels, known=K), K a GroebnerBasis, emits columns
    whose leads lie outside in(K) and divide no other column's lead, and
    these leads with in(K) (quotient divisors included) generate the
    initial module of the syzygies in every degree up to the largest lead
    degree + 2, against the dense oracle, which uses no Groebner basis.
    K empty too.  The inputs are those of
    test_known_syzygies_complete_the_columns."""
    rng = random.Random(500 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    ctx = ring.ctx
    fm = FreeModule(ring, (0, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    rels = [random_module_element(fm, rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    plain = syzygies(gens, rels=rels, ambient=fm)
    gfree = plain.target
    rng = random.Random(4200 + seed)
    columns = list(plain.columns)
    known = [random_span_element(columns, d, rng) for d in (3, 4, 4, 5)]
    known += [c.poly_mul(ring.constant(rng.randrange(1, P)))
              for c in rng.sample(columns, len(columns) // 2)]
    known = groebner_basis([k for k in known if not k.is_zero()],
                           ambient=gfree)
    empty = groebner_basis([], ambient=gfree)
    for basis in (known, empty):
        cols = syzygies(gens, rels=rels, ambient=fm, known=basis).columns
        col_leads = [c.lead_term()[0] for c in cols]
        known_leads = [(j, m) for j in range(gfree.rank)
                       for m in basis.divisor_leads(j)]
        for i, (j, m) in enumerate(col_leads):
            assert not any(c == j and ctx.divides(q, m)
                           for c, q in known_leads)
            assert not any(c == j and k != i and ctx.divides(m, q)
                           for k, (c, q) in enumerate(col_leads))
        leads = col_leads + known_leads
        top = max(gfree.twists[j] + ctx.degree(m) for j, m in leads)
        for d in range(min(gfree.twists), top + 3):
            assert lead_multiples(leads, gfree, d) == \
                syzygy_initial_module(gens, rels, fm, gfree, d), d


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(6))
def test_groebner_basis_leads_give_the_initial_module(seed, quotient):
    """The leads of groebner_basis(gens, rels=...), with the quotient
    leads GB(I) e_j, generate the initial module of span(gens + rels) +
    I*F in every degree up to the largest lead degree + 2, against the
    dense oracle, which uses no Groebner basis.  Ranks 1-3 with mixed
    twists; rels as an iterable and as the relation basis a run hands
    back."""
    rng = random.Random(2400 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    quotient_leads = [entry[0] for entry in ring.quotient_groebner()]
    fm = FreeModule(ring, tuple(rng.choice([-1, 0, 0, 1])
                                for _ in range(rng.choice([1, 2, 3]))))
    lo = min(fm.twists)
    gens = [random_module_element(fm, lo + rng.choice([1, 2, 2, 3]), rng)
            for _ in range(rng.choice([2, 3, 4]))]
    rels = [random_module_element(fm, lo + rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    assert gens
    relation_gb = groebner_basis(rels, ambient=fm)
    for given in (rels, relation_gb):
        gb = groebner_basis(gens, ambient=fm, rels=given)
        leads = gb.lead_terms() + [(j, q) for j in range(fm.rank)
                                   for q in quotient_leads]
        top = max(fm.twists[j] + ring.ctx.degree(m) for j, m in leads)
        for d in range(lo, top + 3):
            assert lead_multiples(leads, fm, d) == \
                initial_module(gens, rels, fm, d), d


def assert_leads_give_the_initial_module(basis, gens, ambient):
    """basis's leads are minimal, and with the quotient leads GB(I) e_j
    they generate in(span(gens) + I*F) in every degree from the lowest
    twist up to the largest lead degree + 2, against the dense oracle:
    no other lead of its component divides a lead of basis."""
    ring = ambient.ring
    ctx = ring.ctx
    own = basis.lead_terms()
    leads = own + [(j, q) for j in range(ambient.rank)
                   for q, _, _, _ in ring.quotient_groebner()]
    for i, (c, m) in enumerate(own):
        assert not any(j == c and k != i and ctx.divides(q, m)
                       for k, (j, q) in enumerate(leads)), (c, m)
    top = max(ambient.twists[j] + ctx.degree(m) for j, m in leads)
    for d in range(min(ambient.twists), top + 3):
        assert lead_multiples(leads, ambient, d) == \
            initial_module(gens, (), ambient, d), d


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_bases_built_without_a_run_give_the_initial_module(seed, quotient):
    """The three bases that no engine run builds, each checked against the
    dense oracle by assert_leads_give_the_initial_module: a relation basis
    read over S (GroebnerBasis.over_base, the basis of N + I*F), its block
    copies with the blocks' twists shifted by constants (block_copies),
    and groebner_basis(gens, rels=basis), which passes the relation
    entries through (_autoreduce)."""
    rng = random.Random(2900 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, tuple(rng.choice([0, 0, 1]) for _ in range(2)))
    rels = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    rels = [r for r in rels if not r.is_zero()]
    assert rels
    gb = groebner_basis(rels, ambient=fm)

    base = FreeModule(ring.base, fm.twists)
    preimage = [ModuleElement(base, r.data) for r in rels]
    preimage += [ModuleElement(base, {(j, m): c for m, c in f.terms.items()})
                 for f in ring.quotient for j in range(fm.rank)]
    assert_leads_give_the_initial_module(gb.over_base(base), preimage, base)

    shifts = (0, 2, -1)
    blocks = FreeModule(ring, tuple(a + s for s in shifts for a in fm.twists))
    copies = [ModuleElement(blocks, {(j + k * fm.rank, m): c
                                     for (j, m), c in r.data.items()})
              for k in range(len(shifts)) for r in rels]
    assert_leads_give_the_initial_module(
        gb.block_copies(blocks, len(shifts)), copies, blocks)

    gens = [random_module_element(fm, rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    assert_leads_give_the_initial_module(
        groebner_basis(gens, ambient=fm, rels=gb), gens + rels, fm)


def test_minimal_intake_of_one_degree_queues_no_pair():
    """Pairs are queued only when a run can reach them: every pair of an
    element lies above its degree, so an intake whose generators share
    one degree keeps the independent ones and returns with an empty heap;
    the run that follows queues and takes their pairs (each taken pair
    records its lcm on its newer element)."""
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, ["x^2", "x*y", "y^2", "x^2 + x*y",
                                     "y*z - x^2"])
    _, order, comp = _computation(gens, (), fm)
    indices, _ = comp.add_minimal(order)
    assert indices == [0, 1, 2, 4]
    assert comp.events == []
    comp.run()
    assert not comp.events and any(comp._leads)


def test_known_syzygy_skips_its_pair():
    """The syzygies of x, y, z are generated by the three Koszul columns;
    given y e_1 - x e_2 as known, the J-pair of x and y, whose signature
    y e_1 (the larger of y e_1 and x e_2 in the order of E, where the
    earlier component wins) is that known syzygy's lead, is not reduced,
    and only the other two come out.  With x z added as e_4, x z is not
    regularly reducible by x (z e_1 lies above e_4) and joins as an
    element of signature e_4; the known lead still removes the pair
    (x, y).  In both cases the columns and the known syzygy span the
    syzygies of the known=() run, with one column fewer."""
    ring = Ring(P, ("x", "y", "z"))
    for texts, rank in ((["x", "y", "z"], 3), (["x", "y", "z", "x*z"], 4)):
        fm, gens = ideal_elements(ring, texts)
        plain = syzygies(gens, ambient=fm)
        assert plain.source.rank == rank
        known = ModuleElement(plain.target, {(0, ring.ctx.variable(1)): 1,
                                             (1, ring.ctx.variable(0)): P - 1})
        seeded = syzygies(gens, ambient=fm, known=[known])
        assert seeded.source.rank == rank - 1
        both = list(seeded.columns) + [known]
        gb = groebner_basis(both, ambient=plain.target)
        assert all(gb.contains(c) for c in plain.columns)
        gb_plain = groebner_basis(plain.columns, ambient=plain.target)
        assert all(gb_plain.contains(c) for c in both)


def test_known_syzygies_of_the_wrong_rank_are_rejected():
    """A known GroebnerBasis whose free module has a rank other than the
    number of generators cannot hold their syzygies."""
    ring = Ring(P, ("x", "y", "z"))
    fm, gens = ideal_elements(ring, ["x", "y", "z"])
    wrong = FreeModule(ring, (1, 1))
    known = groebner_basis([wrong.basis_element(0)], ambient=wrong)
    with pytest.raises(RingMismatch):
        syzygies(gens, ambient=fm, known=known)


def terms_of(elements):
    """Each element's terms, in their order."""
    return [list(e.data.items()) for e in elements]


@pytest.mark.parametrize("rels_as", ["none", "list", "basis"])
@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(4))
def test_one_run_presentation_matches_the_two_runs(seed, quotient, rels_as):
    """generators_and_syzygies, the one tracked run behind subquotient,
    keeps the elements that minimal_generators(gens, rels) keeps and
    returns the columns of a second tracked run on those kept elements
    (which keeps every one of them as it is), term for term and in the
    same order; those span what syzygies(kept, rels) spans; subquotient
    presents them with those columns minimalized.  The inputs are those
    of test_syzygies_modulo_relations, plus a redundant and a zero
    generator."""
    rng = random.Random(500 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    rels = [random_module_element(fm, rng.choice([2, 3]), rng)
            for _ in range(2)]
    gens = [g for g in gens if not g.is_zero()]
    gens += [random_span_element(gens, 3, rng), fm.zero_element()]
    rng.shuffle(gens)
    rels = [r for r in rels if not r.is_zero()] if rels_as != "none" else []
    if rels_as == "basis":
        rels = groebner_basis(rels, ambient=fm)

    _, kept = minimal_generators(gens, rels=rels, ambient=fm)
    degrees, order, comp = _computation(kept, rels, fm, track=True)
    comp.add_minimal(order)
    comp.run()
    syz = _syzygy_matrix(comp, degrees)
    one_kept, one_syz = generators_and_syzygies(gens, rels=rels, ambient=fm)
    assert kept and len(kept) < len(gens)
    assert terms_of(one_kept) == terms_of(kept)
    assert (one_syz.source, one_syz.target) == (syz.source, syz.target)
    assert terms_of(one_syz.columns) == terms_of(syz.columns)
    signed = syzygies(kept, rels=rels, ambient=fm)
    assert signed.target == syz.target
    gb_signed = groebner_basis(signed.columns, ambient=syz.target)
    gb_syz = groebner_basis(syz.columns, ambient=syz.target)
    assert all(gb_signed.contains(c) for c in syz.columns)
    assert all(gb_syz.contains(c) for c in signed.columns)

    module, gelts = subquotient(gens, rels, fm)
    _, relmin = minimal_generators(syz.columns, ambient=syz.target)
    assert terms_of(gelts) == terms_of(kept)
    assert terms_of(module.relations) == terms_of(relmin)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(4))
def test_normal_forms_descend_in_term_order(seed, quotient):
    """normal_form_terms returns its terms in descending
    FreeModule.term_key order, so the first term of a normal form is its
    lead: each basis element the engine adds has a lead above every term
    of its tail, each tail term read from the flat tuple (off, mono,
    coeff, ...) at the entry's component plus its offset.  Four
    components with mixed twists, inhomogeneous inputs."""
    rng = random.Random(1700 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 2, -1, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 3]), rng)
            for _ in range(3)]
    _, order, comp = _computation(gens, (), fm, track=True)
    comp.add_minimal(order)
    comp.run()
    nq = len(ring.quotient_groebner())
    assert any(entries[nq:] for entries in comp._index.values())
    for c, entries in comp._index.items():
        for lead, tail, _, _ in entries[nq:]:
            it = iter(tail)
            assert all(fm.term_key(c + j, m) < fm.term_key(c, lead)
                       for j, m, _ in zip(it, it, it))
    gb = groebner_basis(gens, ambient=fm)
    for _ in range(6):
        v = fm.zero_element()
        for d in rng.sample(range(-1, 5), 3):
            v = v + random_module_element(fm, d, rng)
        for index in (gb._index, comp._index):
            keys = [fm.term_key(*k)
                    for k in normal_form_terms(fm, index, v.data, None)]
            assert keys == sorted(keys, reverse=True)
            assert len(set(keys)) == len(keys)


def flat_terms(flat, comp=0):
    """The terms {(comp + i, mono): coeff} of a flat tuple (i, mono,
    coeff, ...), sliced apart, in order."""
    offs, monos, coeffs = flat[0::3], flat[1::3], flat[2::3]
    return {(comp + i, m): c for i, m, c in zip(offs, monos, coeffs)}


def track_image(gens, track):
    """sum coeff * mono * gens[i] over a track {(i, mono): coeff}, reduced
    modulo the quotient ideal."""
    out = gens[0].ambient.zero_element()
    for (i, m), c in track.items():
        out = out + gens[i].monomial_mul(m, c)
    return out.reduced()


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_flat_entries_round_trip(seed, quotient):
    """A divisor entry holds its tail and its track as flat tuples (off,
    mono, coeff, ...).  In an untracked run (groebner_basis), a tracked
    Buchberger run and a signature run, every new entry's tail has 3k
    slots, every term of it below the lead; a tracked entry's track has
    3k slots and maps to the entry's element (lead plus tail) modulo the
    quotient ideal, an untracked one is None: over the kept elements in
    the Buchberger run, the k-th of them gens[indices[k]] plus its flat
    track reductions[k] over those before it, and over gens in the
    signature run.  GroebnerBasis.__iter__ builds each element from its
    entry's sliced terms, in the same order, and the coordinates of
    express_in_generators give back each element of the span they were
    asked for."""
    rng = random.Random(2700 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1, 0))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    nq = len(ring.quotient_groebner())
    gb = groebner_basis(gens, ambient=fm)
    _, order, tracked = _computation(gens, (), fm, track=True)
    indices, kept = tracked.add_minimal(order)
    tracked.run()
    for k, (i, element) in enumerate(zip(indices, kept)):
        reduction = flat_terms(tracked.reductions[k])
        assert 3 * len(reduction) == len(tracked.reductions[k])
        assert all(j < k for j, _ in reduction)
        assert element == (gens[i] + track_image(kept, reduction)).reduced()
    gfree = FreeModule(ring, tuple(g.degree() for g in gens))
    signed = SignatureRun(fm, (), relation_basis((), gfree))
    signed.add(order)
    signed.run()
    for index, tracked_over in ((gb._index, None), (tracked._index, kept),
                                (signed._index, gens)):
        assert any(entries[nq:] for entries in index.values())
        for c, entries in index.items():
            for lead, tail, track, _ in entries[nq:]:
                terms = flat_terms(tail, c)
                assert 3 * len(terms) == len(tail)
                assert all(fm.term_key(*k) < fm.term_key(c, lead)
                           for k in terms)
                if tracked_over is None:
                    assert track is None
                    continue
                assert 3 * len(flat_terms(track)) == len(track)
                element = ModuleElement(fm, {(c, lead): 1, **terms})
                assert track_image(tracked_over, flat_terms(track)) == \
                    element.reduced()
    entries = gb._entries()
    elements = list(gb)
    assert len(elements) == len(entries)
    for (c, (lead, tail, _, _)), g in zip(entries, elements):
        assert list(g.data.items()) == \
            list({**flat_terms(tail, c), (c, lead): 1}.items())
    targets = [random_span_element(gens, d, rng).reduced()
               for d in (2, 3, 3, 4)]
    coords = express_in_generators(gens, fm, targets)
    assert len(coords) == len(targets)
    for target, coord in zip(targets, coords):
        assert track_image(gens, coord) == target


def random_span_element(gens, degree, rng):
    """Random degree-`degree` combination sum h_i gens_i (possibly zero)
    of the nonzero gens."""
    ambient = gens[0].ambient
    out = ambient.zero_element()
    for g in gens:
        if not g.is_zero() and g.degree() <= degree:
            h = random_homogeneous(ambient.ring, degree - g.degree(), rng)
            out = out + g.poly_mul(h)
    return out


def shared_values(index, nq, slot):
    """{value: ids of the objects holding it} over slot 1 (monomials) or 2
    (coefficients) of the tail terms of index's entries past the quotient
    divisors."""
    out: dict = {}
    for entries in index.values():
        for _, tail, _, _ in entries[nq:]:
            for x in tail[slot::3]:
                out.setdefault(x, set()).add(id(x))
    return out


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
def test_runs_share_stored_terms_locally(quotient):
    """Each run stores one object per monomial and per coefficient value,
    through tables of its own that go with it: after two groebner_basis
    runs and one syzygies run no container of gext.groebner, at module
    level or on a class, has changed size, and within one returned basis
    the tail terms of equal monomial, or equal coefficient, hold one
    object (the tails repeat monomials, so this is tested).  The basis
    still holds every generator."""
    rng = random.Random(3000)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0, 1, 0))
    gens = [random_module_element(fm, d, rng) for d in (2, 2, 3, 3, 3)]
    gens = [g for g in gens if not g.is_zero()]
    spaces = [vars(gext.groebner)] + [
        vars(v) for v in vars(gext.groebner).values()
        if isinstance(v, type) and v.__module__ == gext.groebner.__name__]
    containers = [v for space in spaces for name, v in space.items()
                  if not name.startswith("__")
                  and isinstance(v, (dict, list, set))]
    sizes = [len(v) for v in containers]
    gb = groebner_basis(gens, ambient=fm)
    groebner_basis(gens[:2], ambient=fm)
    syzygies(gens, ambient=fm)
    assert [len(v) for v in containers] == sizes
    nq = len(ring.quotient_groebner())
    for slot in (1, 2):
        held = shared_values(gb._index, nq, slot)
        assert all(len(ids) == 1 for ids in held.values())
    terms = sum(len(tail) // 3 for entries in gb._index.values()
                for _, tail, _, _ in entries[nq:])
    assert terms > len(shared_values(gb._index, nq, 1))
    assert all(gb.contains(g) for g in gens)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
def test_fixed_relations_pass_through(quotient):
    """groebner_basis(gens, rels=gb) keeps gb's entries as they came: each
    has its lead and tail unchanged unless the lead of a new element
    divides its lead, and then it is dropped.  No lead divides another in
    its component, and membership agrees with a basis of gens and gb's
    elements computed from scratch.  Rank 3, four relations and one
    generator of degree 2-3, so that some fixed leads are divisible by a
    new one and some are not; six seeds."""
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    ctx = ring.ctx
    fm = FreeModule(ring, (0, 1, 0))
    kept = dropped = members = 0
    for seed in range(6):
        rng = random.Random(2600 + seed)
        rels = [random_module_element(fm, rng.choice([2, 3]), rng)
                for _ in range(4)]
        gens = [random_module_element(fm, rng.choice([2, 3]), rng)]
        fixed = groebner_basis(rels, ambient=fm)
        gb = groebner_basis(gens, ambient=fm, rels=fixed)
        fixed_entries = [(c, e[0], e[1]) for c, e in fixed._entries()]
        entries = [(c, e[0], e[1]) for c, e in gb._entries()]
        new_leads = [(c, lead) for c, lead, tail in entries
                     if (c, lead, tail) not in fixed_entries]
        for c, lead, tail in fixed_entries:
            if (c, lead, tail) in entries:
                kept += 1
            else:
                dropped += 1
                assert any(j == c and m != lead and ctx.divides(m, lead)
                           for j, m in new_leads)
        for i, (c, a, _) in enumerate(entries):
            assert not any(j == c and k != i and ctx.divides(b, a)
                           for k, (j, b, _) in enumerate(entries))

        scratch = groebner_basis(gens + list(fixed), ambient=fm)
        for _ in range(8):
            d = rng.choice([2, 3, 4])
            inside = random_span_element(gens + list(fixed), d, rng)
            for v in (inside, inside + random_module_element(fm, d, rng)):
                members += gb.contains(v)
                assert gb.contains(v) == scratch.contains(v)
    assert kept and dropped and 0 < members < 6 * 16


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(4))
def test_normal_form_higher_rank(seed, quotient):
    """normal_form on modules of rank 2 and 3, over S and over S/I: no term
    of the result is divisible by a lead of its own component or by a
    quotient lead, it is zero exactly when the dense oracle puts v in the
    span, and it is additive.  The basis is closed under Buchberger's
    criterion: every S-pair of two elements with the same lead component,
    and of an element and a quotient divisor q e_comp of its lead
    component, reduces to zero.  Over S/I, the canonical form of a ring
    element is its normal form against an empty basis of R^1."""
    rng = random.Random(900 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    ctx = ring.ctx
    rank = 2 + seed % 2
    fm = FreeModule(ring, tuple(rng.choice([0, 1]) for _ in range(rank)))
    gens = [random_module_element(fm, rng.choice([1, 2, 2, 3]), rng)
            for _ in range(rank + 1)]
    gens = [g for g in gens if not g.is_zero()]
    assert gens
    gb = groebner_basis(gens, ambient=fm)
    els = list(gb)
    for i, a in enumerate(els):
        (comp, _), _ = a.lead_term()
        partners = [b for b in els[i + 1:] if b.lead_term()[0][0] == comp]
        partners += [ModuleElement(fm, {(comp, q): 1,
                                        **flat_terms(tail, comp)})
                     for q, tail, _, _ in ring.quotient_groebner()]
        for b in partners:
            assert gb.contains(s_pair(a, b))
    leads = gb.lead_terms()
    qleads = [entry[0] for entry in ring.quotient_groebner()]
    degs = [g.degree() for g in gens]
    module = cokernel(GradedMatrix(FreeModule(ring, degs), fm, gens))
    seen = set()
    for d in range(1, 5):
        base_dim = module_component_dim(module, d)
        for _ in range(3):
            inside = random_span_element(gens, d, rng)
            w = random_module_element(fm, d, rng)
            for v in (inside, inside + w):
                r = normal_form(v, gb)
                for (j, m) in r.data:
                    assert not any(c == j and ctx.divides(l, m)
                                   for c, l in leads)
                    assert not any(ctx.divides(q, m) for q in qleads)
                if v.is_zero():
                    assert r.is_zero()
                    continue
                ext = cokernel(GradedMatrix(FreeModule(ring, degs + [d]), fm,
                                            gens + [v]))
                in_span = module_component_dim(ext, d) == base_dim
                assert r.is_zero() == in_span
                seen.add(in_span)
            assert normal_form(inside + w, gb) == \
                normal_form(inside, gb) + normal_form(w, gb)
    assert seen == {True, False}

    if ring.is_quotient:
        f1 = FreeModule(ring, (0,))
        empty = groebner_basis([], ambient=f1)
        for d in range(3, 6):
            f = random_homogeneous(ring.base, d, rng)
            v = ModuleElement(f1, {(0, m): c for m, c in f.terms.items()})
            canonical = {(0, m): c
                         for m, c in ring.polynomial(f).terms.items()}
            assert normal_form(v, empty).data == canonical


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(4))
def test_express_in_generators_certificates(seed, quotient):
    """Membership certificates: for v = sum h_i gens_i + (a combination of
    rels), the returned coefficients recombine to an element that differs
    from v by an element of span(rels) (+ I*F over S/I); an element outside
    span(gens) + span(rels) raises AlgebraError.  The gens are also given
    padded with a zero generator and the redundant x * gens[0] ahead of
    them, and a new generator of the degree of x * gens[0] after them, so
    that the k-th kept generator is not gens[k]."""
    rng = random.Random(1300 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    fm = FreeModule(ring, (0,) if seed % 2 == 0 else (0, 1))
    gens = [random_module_element(fm, rng.choice([1, 2, 2]), rng)
            for _ in range(fm.rank + 1)]
    gens = [g for g in gens if not g.is_zero()]
    assert gens
    for padded in (False, True):
        if padded:
            gens = [fm.zero_element(),
                    gens[0].monomial_mul(ring.ctx.variable(0)), *gens,
                    random_module_element(fm, gens[0].degree() + 1, rng)]
        for rels in ([], [r for r in (random_module_element(fm, 2, rng),
                                      random_module_element(fm, 3, rng))
                          if not r.is_zero()]):
            gb_rels = groebner_basis(rels, ambient=fm)
            gb_all = groebner_basis(gens + rels, ambient=fm)
            outside = 0
            for d in range(2, 5):
                v = random_span_element(gens, d, rng)
                if rels:
                    v = v + random_span_element(rels, d, rng)
                (coeffs,) = express_in_generators(gens, fm, [v], rels=rels)
                back = fm.zero_element()
                for (i, m), c in coeffs.items():
                    back = back + gens[i].monomial_mul(m, c)
                assert gb_rels.contains(back - v)
                w = v + random_module_element(fm, d, rng)
                if not gb_all.contains(w):
                    outside += 1
                    with pytest.raises(AlgebraError):
                        express_in_generators(gens, fm, [w], rels=rels)
            assert outside


def sympy_poly(sympy, syms, f):
    ctx = f.ring.ctx
    return sympy.Poly.from_dict(
        {ctx.decode(m): c for m, c in f.terms.items()}, *syms, modulus=P)


def random_polys(ring, rng, count, degrees):
    polys = [random_homogeneous(ring, rng.choice(degrees), rng)
             for _ in range(count)]
    return [f for f in polys if not f.is_zero()]


@pytest.mark.parametrize("seed", range(10))
def test_groebner_basis_matches_sympy(seed):
    """Differential oracle over S = Z/32003[x0..x3]: the reduced monic
    Groebner basis of a random homogeneous ideal equals sympy's (grevlex,
    x0 > x1 > ...), compared as sets of monic term sets."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1400 + seed)
    names = ("x0", "x1", "x2", "x3")
    syms = sympy.symbols(names)
    ring = Ring(P, names)
    polys = random_polys(ring, rng, rng.choice([2, 3]), [1, 2, 2, 3])
    fm = FreeModule(ring, (0,))
    gb = groebner_basis(
        [ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
         for f in polys], ambient=fm)
    got = {frozenset((ring.ctx.decode(m), c) for (_, m), c in e.data.items())
           for e in gb}
    want = set()
    for g in sympy.groebner([sympy_poly(sympy, syms, f) for f in polys],
                            *syms, modulus=P, order="grevlex").polys:
        inv = pow(int(g.LC(order="grevlex")) % P, -1, P)
        want.add(frozenset((e, int(c) * inv % P) for e, c in g.terms()))
    assert got == want


@pytest.mark.parametrize("seed", range(40))
def test_groebner_basis_over_quotient_matches_sympy(seed):
    """Differential oracle over R = S/I, S = Z/32003[x0..x3]: the lead terms
    of groebner_basis(J) together with the quotient leads minimally generate
    the lead ideal of sympy's GB(J + I), and every element of that basis
    reduces to zero."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1500 + seed)
    names = ("x0", "x1", "x2", "x3")
    syms = sympy.symbols(names)
    base = Ring(P, names)
    ideal = random_polys(base, rng, rng.choice([1, 2]), [2, 3])
    ring = Ring(P, names, quotient=ideal)
    ctx = ring.ctx
    polys = random_polys(ring, rng, rng.choice([1, 2, 3]), [1, 2, 2, 3])
    fm = FreeModule(ring, (0,))
    gb = groebner_basis(
        [ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
         for f in polys], ambient=fm)
    leads = ({m for _, m in gb.lead_terms()}
             | {entry[0] for entry in ring.quotient_groebner()})
    minimal = {ctx.decode(m) for m in leads
               if not any(o != m and ctx.divides(o, m) for o in leads)}
    theirs = sympy.groebner(
        [sympy_poly(sympy, syms, f) for f in polys + ideal],
        *syms, modulus=P, order="grevlex").polys
    assert minimal == {g.LM(order="grevlex").exponents for g in theirs}
    for g in theirs:
        v = ModuleElement(fm, {(0, ctx.encode(e)): int(c) % P
                               for e, c in g.terms()})
        assert gb.reduce(v).is_zero()
