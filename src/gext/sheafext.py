"""Truncation bounds, global Ext and sheaf cohomology (Algorithms 3.1-3.4),
Yoneda extensions and the cotangent module.

The key identity: for r at least the truncation bound, the graded pieces
of Ext^m_R(M_{>=r}, N) in degrees >= e are the global extension groups
Ext^m(X; M~, N~(v)) for v >= e, where X = Proj(R).  Sheaf cohomology is
the M = R case.  The bound reads the Betti degrees of the restriction of
scalars _S N (`s_betti`, from the S-resolution cached on N,
`GradedModule.s_resolution`) and N's Krull dimension (`krull_dim`, from
the Hilbert series numerators of the leads of N's relation basis).
`global_ext_sum` asks `homext.ext_at_least` for Ext^m_R(M_{>=r}, N) in
degrees >= e only, so no degree below e is presented.  Its result is
the zero module (m < 0, or the dim-0 shortcut: a source or target of
finite length) or comes from `subquotient`, so it is already minimal and
is not pruned again.
"""

from __future__ import annotations

from .free import FreeModule, GradedMatrix, ModuleElement
from .gmod import (GradedModule, ModuleMap, direct_sum, free_module_of,
                   graded_component, image_of, kernel_of_map, krull_dim,
                   ring_module, subquotient, submodule_equals,
                   truncate_module, zero_module)
from .groebner import INF, MINUS_INF, groebner_basis, syzygies
from .homext import (HomModule, express_in_generators, ext_at_least,
                     hom_element, hom_module, hom_of_free, homomorphism_from,
                     induced_columns)
from .resolve import BettiTable, betti_stats
from .ring import AlgebraError, Polynomial, Ring, RingMismatch


def s_betti(module: GradedModule) -> BettiTable:
    """Betti table of the restriction of scalars _S N, read from the
    S-resolution cached on the module."""
    return betti_stats(module.s_resolution())


class TruncationBound:
    """Theorem-1 truncation bound, with the inputs echoed for inspection."""

    __slots__ = ("r", "r_weak", "m", "e", "n", "ell", "pd", "abar")

    def __init__(self, r, r_weak, m, e, n, ell, pd, abar):
        self.r = r
        self.r_weak = r_weak  # the printed Algorithm-3.1 line (omits "- i")
        self.m = m
        self.e = e
        self.n = n
        self.ell = ell
        self.pd = pd
        self.abar = abar      # {i: abar_i(_S N)} over the index window

    def __repr__(self):
        return f"TruncationBound(r={self.r}, m={self.m}, e={self.e})"


def truncation_bound(m: int, e: int, module: GradedModule) -> TruncationBound:
    """r such that Ext^m_R(M_{>=r}, N)_{>=e} computes the global Ext sum."""
    n = module.ring.nvars - 1
    bt = s_betti(module)
    dim_n = krull_dim(module)
    ell = min(dim_n, m)
    pd = bt.pd
    lo = n - ell if ell != MINUS_INF else INF
    abar = {}
    if pd != MINUS_INF and lo != INF:
        for i in range(lo, pd + 1):
            abar[i] = bt.max_degree(i)
    if abar:
        r = max(a - i for i, a in abar.items()) - e - m + 1
        r_weak = max(abar.values()) - e - m + 1
    else:
        r = MINUS_INF
        r_weak = MINUS_INF
    return TruncationBound(r, r_weak, m, e, n, ell, pd, abar)


def vanishing_bound(m: int, module: GradedModule):
    """v0 with H^m(X, N~(v)) = 0 for all v >= v0 (Lemma vanishing)."""
    if m <= 0:
        raise AlgebraError("vanishing bound requires m >= 1")
    n = module.ring.nvars - 1
    abar = s_betti(module).max_degree(n - m)
    if abar == MINUS_INF:
        return MINUS_INF
    return abar - n


def global_ext_sum(m: int, e: int, source: GradedModule,
                   target: GradedModule) -> GradedModule:
    """Algorithm 3.1: the graded module +_{v>=e} Ext^m(X; M~, N~(v)).

    That is Ext^m_R(M_{>=r}, N)_{>=e}, computed in degrees >= e only: the
    kernel columns of degree < e are raised to e modulo the known kernel
    before anything is presented (see `homext`).  Raising is exact, as the
    columns with the known kernel form a Groebner basis and truncation at
    e commutes with taking homology, so the result has the generator
    degrees and Hilbert function of the full Ext^m truncated at e."""
    if source.ring != target.ring:
        raise RingMismatch("modules over different rings")
    if m < 0 or krull_dim(source) <= 0 or krull_dim(target) <= 0:
        # Remark dim0: a finite-length module (a zero one included) has
        # the zero sheaf, so every Ext group vanishes
        return zero_module(source.ring)
    tb = truncation_bound(m, e, target)  # r = -inf when pd < n - ell
    return ext_at_least(m, e, truncate_module(source, tb.r), target)


def global_ext(m: int, source: GradedModule, target: GradedModule):
    """Algorithm 3.2: (dimension, basis) of the k-vector space
    Ext^m(X; M~, N~)."""
    return graded_component(global_ext_sum(m, 0, source, target), 0)


def sheaf_cohomology_sum(m: int, e: int, module: GradedModule) -> GradedModule:
    """Algorithm 3.3: +_{v>=e} H^m(X, N~(v)) via the identity (EH)."""
    return global_ext_sum(m, e, ring_module(module.ring), module)


def sheaf_cohomology(m: int, module: GradedModule):
    """Algorithm 3.4: (dimension, basis) of H^m(X, N~)."""
    return graded_component(sheaf_cohomology_sum(m, 0, module), 0)


class ExtensionResult:
    __slots__ = ("module", "iota", "phi", "verified", "truncated")

    def __init__(self, module, iota, phi, verified, truncated):
        self.module = module        # E
        self.iota = iota            # N -> E
        self.phi = phi              # E -> M'
        self.verified = verified    # (ker iota = 0, im iota = ker phi, im phi = M')
        self.truncated = truncated  # M'


def extension_setup(source: GradedModule, target: GradedModule):
    """(M', P, K, alpha, Hom(K, N)) for the Yoneda construction: M' is the
    truncation of M at the m=1 bound, P its free cover, K = image of the
    presentation with inclusion alpha: K -> P."""
    if source.ring != target.ring:
        raise RingMismatch("modules over different rings")
    ring = source.ring
    tb = truncation_bound(1, 0, target)
    m_tr = truncate_module(source, tb.r)
    p_free = free_module_of(ring, m_tr.generator_degrees)
    mu = ModuleMap(free_module_of(ring, m_tr.presentation.source.twists),
                   p_free, m_tr.presentation, check=False)
    kmod, alpha = image_of(mu)
    morphisms = hom_module(kmod, target)
    return m_tr, p_free, kmod, alpha, morphisms


def degree_zero_hom_coords(hom: HomModule):
    """Coordinate vectors for a basis of the degree-0 component of a Hom
    module, each usable as `coords` for homomorphismFrom."""
    ring = hom.source.ring
    _, basis = graded_component(hom.underlying, 0)
    out = []
    for (t, mono) in basis:
        coords = [ring.zero()] * len(hom.anchors)
        coords[t] = Polynomial(ring, {mono: 1})
        out.append(coords)
    return out


def class_is_split(hom: HomModule, alpha: ModuleMap, coords) -> bool:
    """True iff the selected theta: K -> N extends to P along alpha, i.e.
    its class in Ext^1(M', N) vanishes."""
    return _splits(hom, _restriction_basis(hom, alpha), coords)


def _restriction_basis(hom: HomModule, alpha: ModuleMap):
    """The Groebner basis, in the cover of Hom(K, N), of the restrictions
    along alpha of the maps P -> N, modulo Hom(K, N)'s relations."""
    cover, rels = hom_of_free(hom.source.cover, hom.target)
    restr = induced_columns(alpha.matrix, hom.target, cover)
    return groebner_basis(restr, cover, rels=rels)


def _splits(hom: HomModule, basis, coords) -> bool:
    """class_is_split against a `_restriction_basis` built once."""
    element = hom_element(hom, coords)
    return element is None or basis.reduce(element).is_zero()


def nonsplit_extension_coords(source: GradedModule, target: GradedModule):
    """Coords of a degree-0 theta with nonzero Ext^1 class, or None."""
    _, _, _, alpha, morphisms = extension_setup(source, target)
    candidates = degree_zero_hom_coords(morphisms)
    if not candidates:
        return None
    basis = _restriction_basis(morphisms, alpha)
    for coords in candidates:
        if not _splits(morphisms, basis, coords):
            return coords
    return None


def yoneda_extension(source: GradedModule, target: GradedModule,
                     coords) -> ExtensionResult:
    """Materialize 0 -> N -> E -> M_{>=r} -> 0 from a degree-0 element of
    Hom(K, N), K the kernel of the free cover of M_{>=r} (pushout of
    theta and the inclusion alpha: K -> P)."""
    ring = source.ring
    m_tr, p_free, kmod, alpha, morphisms = extension_setup(source, target)
    theta = homomorphism_from(morphisms, coords)
    if theta.degree != 0:
        raise AlgebraError("theta must have degree 0")
    dsum = direct_sum(p_free, target)
    p = p_free.cover.rank
    psi_cols = []
    for t in range(kmod.cover.rank):
        data = dict(alpha.matrix.columns[t].data)
        neg = -theta.matrix.columns[t]
        for (i, mo), c in neg.data.items():
            data[(p + i, mo)] = c
        psi_cols.append(ModuleElement(dsum.cover, data))
    gens = [dsum.cover.basis_element(j) for j in range(dsum.cover.rank)]
    rels = groebner_basis(psi_cols, dsum.cover, rels=dsum.relations_gb())
    emod, gelts = subquotient(gens, rels, dsum.cover)
    coeffs = express_in_generators(
        gelts, dsum.cover,
        [dsum.cover.basis_element(p + i) for i in range(target.cover.rank)],
        rels=rels)
    iota_cols = [ModuleElement(emod.cover, dict(c)) for c in coeffs]
    iota = ModuleMap(target, emod,
                     GradedMatrix(FreeModule(ring, target.generator_degrees),
                                  emod.cover, iota_cols, check=False))
    phi_cols = []
    for g in gelts:
        data = {(j, mo): c for (j, mo), c in g.data.items() if j < p}
        phi_cols.append(ModuleElement(m_tr.cover, data))
    phi = ModuleMap(emod, m_tr,
                    GradedMatrix(FreeModule(ring, emod.generator_degrees),
                                 m_tr.cover, phi_cols, check=False))
    ker_iota, _ = kernel_of_map(iota)
    v1 = ker_iota.is_zero()
    _, im_iota_incl = image_of(iota)
    _, ker_phi_incl = kernel_of_map(phi)
    v2 = submodule_equals(im_iota_incl, ker_phi_incl)
    _, im_phi_incl = image_of(phi)
    v3 = submodule_equals(im_phi_incl, ModuleMap.identity(m_tr))
    verified = (v1, v2, v3)
    if not all(verified):
        raise AlgebraError(f"extension verification failed: {verified}")
    return ExtensionResult(emod, iota, phi, verified, m_tr)


def cotangent_module(ring: Ring):
    """(Omega, OmegaDual) from the conormal sequence: Omega is the kernel
    of the Euler map R(-1)^n -> R modulo the Jacobian columns of the
    quotient generators, each of which lies in that kernel.  So Omega is
    one `subquotient`: the kernel columns, from `syzygies` of the
    variables modulo R's relations, over the Jacobian columns as
    relations.  OmegaDual = Hom(Omega, R)."""
    nv = ring.nvars
    rmod = ring_module(ring)
    euler = GradedMatrix.from_entries(
        ring, [[ring.variable(j) for j in range(nv)]], (0,),
        source_twists=(1,) * nv)
    kernel = syzygies(euler.columns, rels=rmod.relations_gb(),
                      ambient=rmod.cover)
    fcover = kernel.target
    jac = []
    for f in ring.quotient:
        base_f = ring.base.polynomial(f)
        data = {}
        for j in range(nv):
            df = base_f.derivative(j)
            for mo, c in df.terms.items():
                data[(j, mo)] = c
        vec = ModuleElement(fcover, data).reduced()
        if not vec.is_zero():
            jac.append(vec)
    omega, _ = subquotient(kernel.columns, jac, fcover)
    omega_dual = hom_module(omega, rmod).underlying
    return omega, omega_dual
