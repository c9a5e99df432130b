"""Graded Hom and Ext modules, and extraction of actual homomorphisms.

Hom(M, N) is the kernel of the induced map Hom(F0, N) -> Hom(F1, N) for a
presentation F1 -> F0 -> M, using Hom(+_k R(-a_k), N) = +_k N(a_k); the
grading is by degrees of maps, so the degree-d component is the space of
degree-d homomorphisms.  Ext^m is kernel-modulo-image one step further
along a minimal resolution of M.

Both are computed by `_homology` at Hom(F, N).  One `syzygies` run gives
the kernel of Hom(d_out, N) as columns over the cover of Hom(F, N), and
`subquotient` presents their span modulo the known kernel K0: the
relations of Hom(F, N) plus the image of Hom(d_in, N).  Every element of
K0's basis lies in that kernel (N's relations map to relations, and
d_out d_in = 0), so the `syzygies` run is given the basis as known
syzygies: a signature run whose first syzygy leads are K0's leads.  It
emits only columns with new leads, and those columns together with K0
form a Groebner basis of the kernel.

Algorithm 3.1 reads Ext only in degrees >= e, so `ext_at_least` asks
`_homology` for Ext_{>=low} itself rather than presenting all of Ext and
truncating it.  The columns of degree < low are first raised to low
(`_raise`) by standard monomials, with no engine run.  As the columns G
and K0 form a Groebner basis of the kernel, in(ker) is generated by
in(K0) and the leads of G, so the monomials of degree low in in(ker) but
not in in(K0) are the t lead(g), g in G, that lie outside in(K0); keep
one t g for each (a column of degree low stands for its own lead).
Their leads are distinct and outside in(K0), so no combination of them
lies in K0, and there are dim (ker/K0)_low of them: a basis of
(ker/K0)_low.  An element of ker of degree D > low is a combination of
columns with K0; a column of degree d < low enters it with a coefficient
of degree D - d > low - d, so through the degree-low multiples of that
column.  So that basis, with the columns of degree >= low, generates
ker_{>=low} modulo K0.  Truncation is exact degree by degree,
(ker/K0)_{>=low} = ker_{>=low}/K0_{>=low}, so presenting that span
modulo K0 gives Ext_{>=low}: the same module as truncating the full Ext,
with other generator representatives.  With low = MINUS_INF
(`hom_module`, `ext_module`) nothing is raised.
"""

from __future__ import annotations

from .free import FreeModule, GradedMatrix, ModuleElement
from .gmod import GradedModule, ModuleMap, subquotient, zero_module
from .groebner import (MINUS_INF, express_in_generators, groebner_basis,
                       syzygies)
from .resolve import free_resolution
from .ring import AlgebraError, NotHomogeneous, RingMismatch


def hom_of_free(free: FreeModule, module: GradedModule):
    """Hom(+_k R(-a_k), N) = +_k N(a_k), generators flattened as k*nb + i,
    as (its cover, the Groebner basis of its relations).

    Its relations are block copies of N's, so that basis is block copies
    of N's cached one (block k shifted by k*nb), not computed again."""
    cover = FreeModule(module.ring, tuple(
        b - a for a in free.twists for b in module.generator_degrees))
    return cover, module.relations_gb().block_copies(cover, free.rank)


def induced_columns(phi: GradedMatrix, module: GradedModule,
                    cover: FreeModule):
    """Columns of Hom(phi, N): Hom(target(phi), N) -> Hom(source(phi), N),
    one per generator of Hom(target(phi), N), landing in cover, the cover
    of hom_of_free(phi.source, N)."""
    nb = module.cover.rank
    rows = [[] for _ in range(phi.target.rank)]   # k -> [(l * nb, m, c)]
    for l, col in enumerate(phi.columns):
        for (k, m), c in col.data.items():
            rows[k].append((l * nb, m, c))
    return [ModuleElement(cover, {(ln + i, m): c for ln, m, c in row})
            for row in rows for i in range(nb)]


class HomModule:
    """Hom_R(M, N) with anchors back to matrices F0(M) -> F0(N)."""

    def __init__(self, underlying: GradedModule, source: GradedModule,
                 target: GradedModule, anchors):
        self.underlying = underlying
        self.source = source
        self.target = target
        self.anchors = anchors  # cover elements of hom_of_free(F0(M), N)


class ExtModule:
    def __init__(self, underlying: GradedModule, index: int,
                 source: GradedModule, target: GradedModule):
        self.underlying = underlying
        self.index = index
        self.source = source
        self.target = target


def hom_module(source: GradedModule, target: GradedModule) -> HomModule:
    if source.ring != target.ring:
        raise RingMismatch("Hom of modules over different rings")
    underlying, anchors = _homology(source.cover, None, source.presentation,
                                    target)
    return HomModule(underlying, source, target, anchors)


def ext_module(m: int, source: GradedModule, target: GradedModule) -> ExtModule:
    """Ext^m_R(M, N); the resolution of M is computed through F_{m+1}."""
    return ExtModule(ext_at_least(m, MINUS_INF, source, target), m, source,
                     target)


def ext_at_least(m: int, low, source: GradedModule,
                 target: GradedModule) -> GradedModule:
    """Ext^m_R(M, N)_{>=low}, presented in its degrees >= low only (all of
    Ext^m when low is MINUS_INF)."""
    if source.ring != target.ring:
        raise RingMismatch("Ext of modules over different rings")
    ring = source.ring
    if m < 0:
        return zero_module(ring)
    res = free_resolution(source, length_cap=m + 1)
    if m >= len(res.free_modules) or res.free_modules[m].rank == 0:
        return zero_module(ring)
    d_in = res.differentials[m - 1] if m >= 1 else None
    d_out = res.differentials[m] if m < len(res.differentials) else None
    underlying, _ = _homology(res.free_modules[m], d_in, d_out, target, low)
    return underlying


def _homology(free: FreeModule, d_in, d_out, target: GradedModule,
              low=MINUS_INF):
    """At Hom(free, N): the kernel of Hom(d_out, N) modulo the image of
    Hom(d_in, N), where d_in leaves free and d_out enters it (None: a zero
    map), in degrees >= low, as subquotient's (module, generator elements).

    The known kernel K0 (Hom(free, N)'s relation basis plus that image) is
    the one relation basis, and the kernel run's known syzygies.  Kernel
    columns below low are raised to low modulo K0 first, by standard
    monomials (module docstring), and only the raised span is presented.
    With no d_out the kernel is all of Hom(free, N), whose basis vectors
    with K0 form a Groebner basis too."""
    cover, known = hom_of_free(free, target)
    if d_in is not None:
        known = groebner_basis(induced_columns(d_in, target, cover), cover,
                               rels=known)
    if d_out is None or d_out.source.rank == 0:
        gens = [cover.basis_element(j) for j in range(cover.rank)]
    else:
        next_cover, next_rels = hom_of_free(d_out.source, target)
        gens = [ModuleElement(cover, c.data) for c in syzygies(
            induced_columns(d_out, target, next_cover), rels=next_rels,
            ambient=next_cover, known=known).columns]
    return subquotient(_raise(gens, known, cover, low), known, cover)


def _raise(gens, known, cover: FreeModule, low):
    """Generators of span(gens)_{>=low} modulo known, when gens together
    with known form a Groebner basis (the kernel columns of `syzygies`,
    homogeneous and nonzero): the ones of degree >= low, and for each g of
    degree d < low and each monomial t of degree low - d, t g when t lead(g)
    lies outside in(known) and is the lead of no element kept before it
    (module docstring).

    A column's degree is read in `cover`, where a zero generator's basis
    vector has its component's twist (the syzygy matrix gives it 0).  Its
    lead, all terms being of one degree, is the term of least component
    and then greatest monomial, found in one pass; the monomials of each
    degree and the divisor leads of each component are listed once."""
    ctx = cover.ring.ctx
    guards, degree, twists = ctx.guards, ctx.degree, cover.twists
    out, seen, monomials, divisors = [], set(), {}, {}
    for g in gens:
        terms = iter(g.data)
        comp, lead = next(terms)
        d = degree(lead) + twists[comp]
        if d >= low:
            out.append(g)
            continue
        for c, m in terms:
            if c < comp or c == comp and m > lead:
                comp, lead = c, m
        if comp not in divisors:
            divisors[comp] = known.divisor_leads(comp)
        if d not in monomials:
            monomials[d] = list(ctx.monomials_of_degree(low - d))
        leads = divisors[comp]
        for t in monomials[d]:
            m = ctx.mul(lead, t)
            if (comp, m) in seen or any(not (q - m) & guards for q in leads):
                continue
            seen.add((comp, m))
            out.append(g.monomial_mul(t))
    return out


def hom_element(hom: HomModule, coords):
    """sum_t coords[t] * anchors[t], an element of the cover of
    hom_of_free(F0(M), N); None when it is zero."""
    ring = hom.source.ring
    coords = list(coords)
    if len(coords) != len(hom.anchors):
        raise AlgebraError(
            f"expected {len(hom.anchors)} coordinates, got {len(coords)}")
    element = None
    for c, anchor in zip(coords, hom.anchors):
        piece = anchor.poly_mul(ring.polynomial(c))
        element = piece if element is None else element + piece
    return None if element is None or element.is_zero() else element


def homomorphism_from(hom: HomModule, coords) -> ModuleMap:
    """The ModuleMap selected by coefficients over the Hom generators."""
    ring = hom.source.ring
    element = hom_element(hom, coords)
    if element is None:
        return ModuleMap.zero(hom.source, hom.target)
    if not element.is_homogeneous():
        raise NotHomogeneous("coordinates select an inhomogeneous element")
    d = element.degree()
    nb = hom.target.cover.rank
    src = FreeModule(ring, tuple(a + d for a in hom.source.generator_degrees))
    cols = []
    for k in range(hom.source.cover.rank):
        data = {(flat % nb, m): c for (flat, m), c in element.data.items()
                if flat // nb == k}
        cols.append(ModuleElement(hom.target.cover, data))
    mat = GradedMatrix(src, hom.target.cover, cols, check=False)
    return ModuleMap(hom.source, hom.target, mat, degree=d)

