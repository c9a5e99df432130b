"""Graded Hom and Ext modules, and extraction of actual homomorphisms.

Hom(M, N) is the kernel of the induced map Hom(F0, N) -> Hom(F1, N) for a
presentation F1 -> F0 -> M, using Hom(+_k R(-a_k), N) = +_k N(a_k); the
grading is by degrees of maps, so the degree-d component is the space of
degree-d homomorphisms.  Ext^m is kernel-modulo-image one step further
along a minimal resolution of M.
"""

from __future__ import annotations

from .free import FreeModule, GradedMatrix, ModuleElement
from .gmod import GradedModule, ModuleMap, subquotient, zero_module
from .groebner import express_in_generators, groebner_basis, syzygies
from .resolve import free_resolution
from .ring import AlgebraError, NotHomogeneous, RingMismatch


def hom_of_free(free: FreeModule, module: GradedModule) -> GradedModule:
    """Hom(+_k R(-a_k), N) = +_k N(a_k), generators flattened as k*nb + i.

    Its relations are block copies of N's, so its relation basis is set
    to block copies of N's cached one (block k shifted by k*nb) rather
    than computed again."""
    ring = module.ring
    nb = module.cover.rank
    twists = []
    for a in free.twists:
        twists.extend(b - a for b in module.generator_degrees)
    tgt = FreeModule(ring, tuple(twists))
    cols = []
    src_twists = []
    for k, a in enumerate(free.twists):
        for rel in module.relations:
            cols.append(ModuleElement(
                tgt, {(k * nb + i, m): c for (i, m), c in rel.data.items()}))
            src_twists.append(rel.degree() - a)
    src = FreeModule(ring, tuple(src_twists))
    hom = GradedModule(GradedMatrix(src, tgt, cols, check=False))
    hom._gb = module.relations_gb().block_copies(tgt, free.rank)
    return hom


def induced_columns(phi: GradedMatrix, module: GradedModule,
                    hom_tgt: GradedModule):
    """Columns of Hom(phi, N): Hom(target(phi), N) -> Hom(source(phi), N),
    one per generator of hom_of_free(phi.target, N), landing in
    hom_tgt = hom_of_free(phi.source, N)."""
    nb = module.cover.rank
    cover = hom_tgt.cover
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
    if source.ring != target.ring:
        raise RingMismatch("Ext of modules over different rings")
    ring = source.ring
    if m < 0:
        return ExtModule(zero_module(ring), m, source, target)
    res = free_resolution(source, length_cap=m + 1)
    if m >= len(res.free_modules):
        return ExtModule(zero_module(ring), m, source, target)
    f_m = res.free_modules[m]
    if f_m.rank == 0:
        return ExtModule(zero_module(ring), m, source, target)
    d_in = res.differentials[m - 1] if m >= 1 else None
    d_out = res.differentials[m] if m < len(res.differentials) else None
    underlying, _ = _homology(f_m, d_in, d_out, target)
    return ExtModule(underlying, m, source, target)


def _homology(free: FreeModule, d_in, d_out, target: GradedModule):
    """At Hom(free, N): the kernel of Hom(d_out, N) modulo the image of
    Hom(d_in, N), where d_in leaves free and d_out enters it (None: a zero
    map), as subquotient's (module, generator elements)."""
    hom = hom_of_free(free, target)
    cover = hom.cover
    if d_out is None or d_out.source.rank == 0:
        gens = [cover.basis_element(j) for j in range(cover.rank)]
    else:
        hom_next = hom_of_free(d_out.source, target)
        delta = induced_columns(d_out, target, hom_next)
        gens = [ModuleElement(cover, c.data) for c in syzygies(
            delta, rels=hom_next.relations_gb(), ambient=hom_next.cover).columns]
    rels = hom.relations_gb()
    if d_in is not None:
        rels = groebner_basis(induced_columns(d_in, target, hom), cover,
                              rels=rels)
    return subquotient(gens, rels, cover)


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

