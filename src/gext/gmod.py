"""Finitely generated graded modules presented as cokernels.

A GradedModule is the cokernel of a GradedMatrix; its generators are the
basis vectors of the matrix target ("cover").  Subobjects are immediately
re-presented as cokernels through `subquotient`, which computes minimal
generators and minimal relations with the Groebner engine, so its output
is a minimal presentation.  It marks the module it returns as minimally
presented (a private slot that `__eq__` and `__hash__` ignore), and
`prune` returns a marked module as it is, with the identity map: so
`free_resolution`, which prunes first and then re-presents the image of
each differential with `subquotient`, resolves a `subquotient` result
directly.
`subquotient` gets its minimal generators and their syzygies modulo its
relations from one tracked engine run (`generators_and_syzygies`), and
minimalizes those syzygies with `minimal_generators`; `kernel_of_map`
takes its kernel from `syzygies(gens, rels=...)`, given the source's
relations as known syzygies, as it presents the kernel modulo them.
Both track only the generators, never the relations.

A module caches on itself, on first use, the Groebner basis of its
relations (`relations_gb`) and the S-free resolution of its restriction
of scalars (`s_resolution`, read only by the Betti table of Algorithm
3.1), whose relation basis is the module's own read over S.  No cache is
shared between modules; `ring_module` returns one module per `Ring`
object, so every use of R as a module shares that module's caches.

Hilbert data comes from the leads of the relation basis alone: M = F/U
has the Hilbert function of F/in(U) (Macaulay).  `hilbert_numerators`
computes the numerators of the Hilbert series of the lead ideals (Bayer
and Stillman, J. Symb. Comp. 14 (1992); Bigatti, J. Pure Appl. Algebra
119 (1997)) and caches them on the relation basis.  `hilbert_function`
counts with them and lists no monomial; `krull_dim` reads off them the
order of the pole of the Hilbert series at t = 1, the dimension.  Only
`graded_component`, which returns a basis of M_d for `sheaf_cohomology`
and `global_ext`, lists the monomials of each degree, so only it meets
the packed encoding's cap of 127 per exponent.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .free import FreeModule, GradedMatrix, ModuleElement
from .groebner import (MINUS_INF, GroebnerBasis, generators_and_syzygies,
                       groebner_basis, minimal_generators, syzygies)
from .ring import AlgebraError, Ring, RingMismatch


class GradedModule:
    """Cokernel of a presentation matrix between graded free modules."""

    __slots__ = ("presentation", "_gb", "_s_res", "_minimal")

    def __init__(self, presentation: GradedMatrix):
        self.presentation = presentation
        self._gb = None
        self._s_res = None
        self._minimal = False   # set by subquotient: minimally presented

    @property
    def ring(self) -> Ring:
        return self.presentation.ring

    @property
    def cover(self) -> FreeModule:
        return self.presentation.target

    @property
    def generator_degrees(self):
        return self.presentation.target.twists

    @property
    def relations(self):
        return self.presentation.columns

    def relations_gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner_basis(self.presentation.columns,
                                      ambient=self.cover)
        return self._gb

    def s_resolution(self):
        """Minimal S-free resolution of the restriction of scalars (cached)."""
        if self._s_res is None:
            from .resolve import free_resolution
            self._s_res = free_resolution(restrict_scalars(self))
        return self._s_res

    def is_zero(self) -> bool:
        if self.cover.rank == 0:
            return True
        gb = self.relations_gb()
        return all(gb.reduce(self.cover.basis_element(j)).is_zero()
                   for j in range(self.cover.rank))

    def __repr__(self):
        return (f"GradedModule(generators {list(self.generator_degrees)}, "
                f"{self.presentation.source.rank} relations over {self.ring!r})")

    def __eq__(self, other):
        return (isinstance(other, GradedModule)
                and self.presentation.target == other.presentation.target
                and self.presentation.source == other.presentation.source
                and all(a == b for a, b in zip(self.presentation.columns,
                                               other.presentation.columns)))

    def __hash__(self):
        return hash((self.presentation.target, self.presentation.source))


def free_module_of(ring: Ring, twists) -> GradedModule:
    target = FreeModule(ring, twists)
    return GradedModule(GradedMatrix.zero(FreeModule(ring, ()), target))


def ring_module(ring: Ring) -> GradedModule:
    """R as a module over itself: one object per ring, so its cached
    relation basis and S-resolution are computed once."""
    if ring._module is None:
        ring._module = free_module_of(ring, (0,))
    return ring._module


def zero_module(ring: Ring) -> GradedModule:
    return free_module_of(ring, ())


def cokernel(matrix: GradedMatrix) -> GradedModule:
    return GradedModule(matrix)


class ModuleMap:
    """Degree-d map between graded modules, given on generators.

    The matrix runs between the free covers; for d != 0 its source twists
    are the source generator degrees shifted by d so homogeneity checks
    stay degreewise exact.  Well-definedness (relations map into
    relations) is certified at construction.
    """

    __slots__ = ("source", "target", "matrix", "degree")

    def __init__(self, source: GradedModule, target: GradedModule,
                 matrix: GradedMatrix, degree: int = 0, check: bool = True):
        if source.ring != target.ring:
            raise RingMismatch("source and target over different rings")
        expected = tuple(a + degree for a in source.generator_degrees)
        if matrix.target != target.cover or matrix.source.twists != expected:
            raise AlgebraError("matrix does not match source/target covers")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.degree = degree
        if check:
            gb = target.relations_gb()
            for rel in source.relations:
                shifted = ModuleElement(matrix.source, rel.data)
                if not gb.reduce(matrix.apply(shifted)).is_zero():
                    raise AlgebraError(
                        "map is not well defined: a source relation does not "
                        "land in the target relations")

    @classmethod
    def zero(cls, source: GradedModule, target: GradedModule, degree: int = 0):
        src = FreeModule(source.ring,
                         tuple(a + degree for a in source.generator_degrees))
        return cls(source, target, GradedMatrix.zero(src, target.cover),
                   degree=degree, check=False)

    @classmethod
    def identity(cls, module: GradedModule):
        return cls(module, module, GradedMatrix.identity(module.cover),
                   check=False)

    def apply_to_cover(self, v: ModuleElement) -> ModuleElement:
        """Image in target.cover of a cover element of the source."""
        if v.ambient != self.source.cover:
            raise RingMismatch("element not in the source cover")
        return self.matrix.apply(ModuleElement(self.matrix.source, v.data))

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target != self.source:
            raise RingMismatch("maps do not compose")
        cols = [self.apply_to_cover(
            ModuleElement(self.source.cover, c.data))
            for c in other.matrix.columns]
        src = FreeModule(self.source.ring,
                         tuple(a + self.degree + other.degree
                               for a in other.source.generator_degrees))
        mat = GradedMatrix(src, self.target.cover,
                           [ModuleElement(self.target.cover, c.data)
                            for c in cols], check=False)
        return ModuleMap(other.source, self.target, mat,
                         degree=self.degree + other.degree, check=False)

    def is_zero(self) -> bool:
        gb = self.target.relations_gb()
        return all(gb.reduce(c).is_zero() for c in self.matrix.columns)

    def __repr__(self):
        return (f"ModuleMap(degree {self.degree}, "
                f"{self.target.cover.rank}x{self.matrix.source.rank})")


# -- the central re-presentation helper -----------------------------------------

def subquotient(gens, rels, ambient: FreeModule):
    """Present (span(gens) + span(rels)) / span(rels) as a cokernel.

    rels is a GroebnerBasis, or an iterable of relations turned into one.
    Returns (module, generator_elements): generator_elements[k] is the
    element of `ambient` representing the k-th generator of the module.
    Both the generators and the relation columns are minimalized.
    """
    gmin, syz = generators_and_syzygies(gens, rels=rels, ambient=ambient)
    if not gmin:
        module = zero_module(ambient.ring)
    else:
        _, relmin = minimal_generators(syz.columns, ambient=syz.target)
        src = FreeModule(ambient.ring, tuple(c.degree() for c in relmin))
        module = GradedModule(GradedMatrix(src, syz.target, relmin,
                                           check=False))
    module._minimal = True
    return module, gmin


def _inclusion(sub: GradedModule, gelts, module: GradedModule) -> ModuleMap:
    """The map sub -> module sending generator k to gelts[k] (a cover
    element of module), as returned by `subquotient`."""
    src = FreeModule(module.ring, sub.generator_degrees)
    mat = GradedMatrix(src, module.cover, gelts, check=False)
    return ModuleMap(sub, module, mat, check=False)


# -- operations ------------------------------------------------------------------

def prune(module: GradedModule):
    """Minimal presentation plus the isomorphism back to `module`; a module
    `subquotient` returned is one already, so it comes back as it is, with
    the identity."""
    if module._minimal:
        return module, ModuleMap.identity(module)
    cover = module.cover
    gens = [cover.basis_element(j) for j in range(cover.rank)]
    pruned, gelts = subquotient(gens, module.relations_gb(), cover)
    return pruned, _inclusion(pruned, gelts, module)


def truncate_module(module: GradedModule, r: int) -> GradedModule:
    """Presentation of the truncation M_{>=r}."""
    degs = module.generator_degrees
    if not degs or r <= min(degs):
        return module
    ring = module.ring
    cover = module.cover
    ctx = ring.ctx
    gens = []
    for j, a in enumerate(degs):
        if a >= r:
            gens.append(cover.basis_element(j))
        else:
            for m in ctx.monomials_of_degree(r - a):
                gens.append(ModuleElement(cover, {(j, m): 1}))
    truncated, _ = subquotient(gens, module.relations_gb(), cover)
    return truncated


def twist(module: GradedModule, v: int) -> GradedModule:
    """M(v), with M(v)_e = M_{e+v}; generator degrees drop by v."""
    if v == 0:
        return module
    ring = module.ring
    src = FreeModule(ring, tuple(b - v for b in module.presentation.source.twists))
    tgt = FreeModule(ring, tuple(a - v for a in module.generator_degrees))
    cols = [ModuleElement(tgt, c.data) for c in module.presentation.columns]
    return GradedModule(GradedMatrix(src, tgt, cols, check=False))


def direct_sum(a: GradedModule, b: GradedModule) -> GradedModule:
    if a.ring != b.ring:
        raise RingMismatch("direct sum over different rings")
    ring = a.ring
    tgt = FreeModule(ring, a.generator_degrees + b.generator_degrees)
    src = FreeModule(ring, a.presentation.source.twists
                     + b.presentation.source.twists)
    off = a.cover.rank
    cols = [ModuleElement(tgt, c.data) for c in a.presentation.columns]
    cols += [ModuleElement(tgt, {(j + off, m): v for (j, m), v in c.data.items()})
             for c in b.presentation.columns]
    return GradedModule(GradedMatrix(src, tgt, cols, check=False))


def kernel_of_map(f: ModuleMap):
    """(K, inclusion K -> source(f))."""
    syz = syzygies(f.matrix.columns, rels=f.target.relations_gb(),
                   ambient=f.target.cover, known=f.source.relations_gb())
    scover = f.source.cover
    pre = [ModuleElement(scover, c.data) for c in syz.columns]
    kernel, gelts = subquotient(pre, f.source.relations_gb(), scover)
    return kernel, _inclusion(kernel, gelts, f.source)


def image_of(f: ModuleMap):
    """(image re-presented, inclusion image -> target(f))."""
    cols = [c for c in f.matrix.columns if not c.is_zero()]
    img, gelts = subquotient(cols, f.target.relations_gb(), f.target.cover)
    return img, _inclusion(img, gelts, f.target)


def submodule_equals(a: ModuleMap, b: ModuleMap) -> bool:
    """True iff two inclusions into a common target have equal images."""
    if a.target != b.target:
        raise RingMismatch("submodules live in different targets")
    rels = a.target.relations_gb()
    cover = a.target.cover
    acols = [ModuleElement(cover, c.data) for c in a.matrix.columns]
    bcols = [ModuleElement(cover, c.data) for c in b.matrix.columns]
    gb_b = groebner_basis(bcols, cover, rels=rels)
    if not all(gb_b.reduce(c).is_zero() for c in acols):
        return False
    gb_a = groebner_basis(acols, cover, rels=rels)
    return all(gb_a.reduce(c).is_zero() for c in bcols)


# -- Hilbert data ----------------------------------------------------------------

def graded_component(module: GradedModule, d: int):
    """(dimension, basis of (generator index, packed monomial) pairs): the
    standard monomials of degree d, listed and tested against the leads.
    Only the basis needs the listing; `hilbert_function` counts without
    it."""
    cover = module.cover
    if cover.rank == 0:
        return 0, []
    ctx = module.ring.ctx
    gb = module.relations_gb()
    basis = []
    for j, a in enumerate(module.generator_degrees):
        e = d - a
        if e < 0:
            continue
        leads = gb.divisor_leads(j)
        for m in ctx.monomials_of_degree(e):
            if not any(ctx.divides(lead, m) for lead in leads):
                basis.append((j, m))
    return len(basis), basis


def hilbert_numerators(module: GradedModule):
    """[(a_j, N_j)] for the generators j: HS(S/J_j) = N_j(t) / (1 - t)^n,
    n the number of variables, where J_j is generated by component j's
    divisor leads, the quotient divisors GB(I) among them.  N_j is a tuple
    of integer coefficients, N_j[k] that of t^k; () when J_j holds 1.

    M and F/in(U) have the same Hilbert function (Macaulay; Eisenbud,
    *Commutative Algebra*, Thm 15.3), and F/in(U) is the sum of the
    S/J_j(-a_j).  Each N_j is cached on the relation basis, keyed by the
    lead set, so components with the same leads share it."""
    if not module.cover.rank:
        return []
    ctx = module.ring.ctx
    gb = module.relations_gb()
    cache = gb.numerators
    out = []
    for j, a in enumerate(module.generator_degrees):
        leads = frozenset(gb.divisor_leads(j))
        numerator = cache.get(leads)
        if numerator is None:
            numerator = cache[leads] = _numerator(
                _minimal([ctx.decode(m) for m in sorted(leads)]))
        out.append((a, numerator))
    return out


def hilbert_function(module: GradedModule, d: int) -> int:
    """dim_k M_d, from the Hilbert series numerators of the leads
    (`hilbert_numerators`; Bayer and Stillman, J. Symb. Comp. 14 (1992);
    Bigatti, J. Pure Appl. Algebra 119 (1997)): the coefficient of t^d in
    sum_j t^a_j N_j(t) / (1 - t)^n, which is
    sum_j sum_k N_j[k] C(d - a_j - k + n - 1, n - 1) over d - a_j - k >= 0.
    No monomial is listed, so no exponent of degree d is ever packed."""
    n = module.ring.nvars
    return sum(c * comb(d - a - k + n - 1, n - 1)
               for a, numerator in hilbert_numerators(module)
               for k, c in enumerate(numerator[:max(d - a + 1, 0)]))


def _minimal(gens):
    """The minimal generators of the monomial ideal that the exponent
    tuples gens generate, by degree: those no earlier one divides."""
    gens = sorted(gens, key=sum)
    out = []
    for g in gens:
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return out


def _numerator(gens):
    """The numerator N of HS(S/J) = N(t) / (1 - t)^n for the monomial
    ideal J minimally generated by the exponent tuples gens, as a tuple
    with no trailing zeros, by the pivot recursion.

    When no variable occurs in two generators, they form a regular
    sequence and N is the product of the (1 - t^deg g).  Otherwise take a
    variable x that occurs in the most generators and p = x^e, e its least
    positive exponent among them: the sequence
    0 -> S/(J : p)(-e) -> S/J -> S/(J + (p)) -> 0 gives
    N(J) = N(J + (p)) + t^e N(J : p).  Both sides have a smaller sum of
    generator degrees, as p replaces two or more generators in J + (p)
    and J : p lowers each of them."""
    n = len(gens[0]) if gens else 0
    counts = [sum(1 for g in gens if g[i]) for i in range(n)]
    x = max(range(n), key=counts.__getitem__, default=None)
    if x is None or counts[x] < 2:
        poly = [1]
        for g in gens:
            shift = [0] * sum(g) + poly
            poly += [0] * (len(shift) - len(poly))
            poly = [a - b for a, b in zip(poly, shift)]
        return _trim(poly)
    e = min(g[x] for g in gens if g[x])
    power = tuple(e if i == x else 0 for i in range(n))
    plus = _numerator([power] + [g for g in gens if not g[x]])
    colon = _numerator(_minimal(
        [g[:x] + (max(g[x] - e, 0),) + g[x + 1:] for g in gens]))
    poly = list(plus) + [0] * max(len(colon) + e - len(plus), 0)
    for k, c in enumerate(colon):
        poly[k + e] += c
    return _trim(poly)


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return tuple(poly)


def restrict_scalars(module: GradedModule) -> GradedModule:
    """View a module over R = S/I as a module over S.

    Its relation basis is the module's own basis read over S
    (`GroebnerBasis.over_base`), so no Buchberger run builds it again."""
    ring = module.ring
    if not ring.is_quotient:
        return module
    base = ring.base
    tgt = FreeModule(base, module.generator_degrees)
    cols = [ModuleElement(tgt, c.data) for c in module.presentation.columns]
    src_twists = list(module.presentation.source.twists)
    for f in ring.quotient:
        d = f.degree()
        for j, a in enumerate(module.generator_degrees):
            cols.append(ModuleElement(
                tgt, {(j, m): c for m, c in f.terms.items()}))
            src_twists.append(a + d)
    src = FreeModule(base, tuple(src_twists))
    restricted = GradedModule(GradedMatrix(src, tgt, cols, check=False))
    restricted._gb = module.relations_gb().over_base(tgt)
    return restricted


def krull_dim(module: GradedModule):
    """Krull dimension of the support; MINUS_INF for the zero module.

    M and F/in(U) have the same Hilbert function (Macaulay; Eisenbud,
    *Commutative Algebra*, Thm 15.3), so the same dimension: the order of
    the pole at t = 1 of their Hilbert series.  F/in(U) is the sum of the
    S/J_j(-a_j) of `hilbert_numerators`, whose series are
    t^a_j N_j(t) / (1 - t)^n, n the number of variables.  Write
    N_j = (1 - t)^k Q_j with Q_j(1) != 0: Q_j(1) is the multiplicity of
    S/J_j, so positive, and no poles cancel in the sum.  So dim M is the
    largest n - k over the j with N_j nonzero; the zero ring S/(1) has
    N_j = () and counts for none.
    """
    n = module.ring.nvars
    best = MINUS_INF
    for _, numerator in hilbert_numerators(module):
        k = 0
        while numerator and not sum(numerator):
            # N = (1 - t) Q, Q's coefficients the partial sums of N's
            numerator = tuple(accumulate(numerator[:-1]))
            k += 1
        if numerator:
            best = max(best, n - k)
    return best
