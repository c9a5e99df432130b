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
syzygies: it skips the pairs whose syzygies K0 accounts for, and its
columns generate the kernel together with K0, which is all that the
presentation modulo K0 reads.

Algorithm 3.1 reads Ext only in degrees >= e, so `ext_at_least` asks
`_homology` for Ext_{>=low} itself rather than presenting all of Ext and
truncating it.  The columns of degree < low are first raised to low
(`_raise`), untracked and modulo K0 only: with Q_d the span in degree d of
the columns modulo K0, Q_d = x_0 Q_{d-1} + ... + x_n Q_{d-1} + (columns
of degree d), because R is generated in degree 1 and x_i K0_{d-1} lies in
K0_d.  So a basis of Q_d (the `minimal_generators` of elements all of
degree d) is carried from the lowest column degree up to low - 1, and the
variables times that basis, with the columns of degree >= low, generate
the kernel in degrees >= low modulo K0.  Truncation is exact degree by
degree, (ker / K0)_{>=low} = ker_{>=low} / K0_{>=low}, so presenting
that span modulo K0 gives Ext_{>=low}: the same module as truncating the
full Ext, with other generator representatives.  With low = MINUS_INF
(`hom_module`, `ext_module`) nothing is raised.
"""

from __future__ import annotations

from .free import FreeModule, GradedMatrix, ModuleElement
from .gmod import GradedModule, ModuleMap, subquotient, zero_module
from .groebner import (MINUS_INF, express_in_generators, groebner_basis,
                       minimal_generators, syzygies)
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
    columns below low are raised to low modulo K0 first; that is exact
    because x_i K0_d lies in K0_{d+1} and R is generated in degree 1
    (module docstring), and only the raised span is presented."""
    cover, known = hom_of_free(free, target)
    if d_in is not None:
        known = groebner_basis(induced_columns(d_in, target, cover), cover,
                               rels=known)
    if d_out is None or d_out.source.rank == 0:
        gens = [cover.basis_element(j) for j in range(cover.rank)]
    else:
        next_cover, next_rels = hom_of_free(d_out.source, target)
        delta = induced_columns(d_out, target, next_cover)
        gens = [ModuleElement(cover, c.data) for c in syzygies(
            delta, rels=next_rels, ambient=next_cover, known=known).columns]
    return subquotient(_raise(gens, known, cover, low), known, cover)


def _raise(gens, known, cover: FreeModule, low):
    """Generators of span(gens)_{>=low} modulo known, from gens of any
    degree: the ones of degree >= low, and the variables times a basis of
    span(gens)_{low-1} modulo known, built up one degree at a time."""
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree(), []).append(g)
    if not by_degree or low <= min(by_degree):
        return gens
    ring = cover.ring
    xs = [ring.ctx.variable(j) for j in range(ring.nvars)]
    cur = []
    for d in range(min(by_degree), low):
        if cur or d in by_degree:
            _, cur = minimal_generators(
                [g.monomial_mul(x) for g in cur for x in xs]
                + by_degree.get(d, []), rels=known, ambient=cover)
    return ([g.monomial_mul(x) for g in cur for x in xs]
            + [g for d, gs in by_degree.items() if d >= low for g in gs])


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

