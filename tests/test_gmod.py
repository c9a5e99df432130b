"""Graded modules: Hilbert functions, truncation, twist, kernels, dimension."""

import random
from math import comb, perm

import pytest

from gext import (Ring, direct_sum, free_module_of, graded_component,
                  hilbert_function, image_of, kernel_of_map, krull_dim,
                  prune, ring_module, submodule_equals,
                  truncate_module, twist, zero_module)
from gext.free import FreeModule, GradedMatrix
from gext.gmod import GradedModule, ModuleMap, cokernel, restrict_scalars
from gext.groebner import MINUS_INF, groebner_basis
from gext.resolve import betti_stats, free_resolution
from gext.script import parse_script, run_script
from gext.sheafext import cotangent_module, s_betti

from conftest import QUARTIC_GENS
from oracles import module_component_dim, monomial_exponents, resolution_dim
from test_exactness import random_module
from test_groebner import random_homogeneous, random_span_element

P = 32003


def test_free_module_hilbert(p2_ring):
    F = free_module_of(p2_ring, (0, -1))
    for d in range(5):
        want = (len(monomial_exponents(3, d)) +
                len(monomial_exponents(3, d + 1)))
        assert hilbert_function(F, d) == want


def test_hilbert_matches_dense_oracle(quartic_cokernel):
    for d in range(7):
        assert hilbert_function(quartic_cokernel, d) == \
            module_component_dim(quartic_cokernel, d)


def test_hilbert_matches_dense_oracle_quotient(del_pezzo_g):
    for d in range(6):
        assert hilbert_function(del_pezzo_g, d) == \
            module_component_dim(del_pezzo_g, d)


def test_quartic_hilbert_values(quartic_cokernel):
    # the rational quartic curve has hilbert polynomial 4d + 1
    assert [hilbert_function(quartic_cokernel, d) for d in range(6)] == \
        [1, 4, 9, 13, 17, 21]


def test_quartic_hilbert_function_in_high_degree(quartic_base):
    """Far past the leads, hilbert_function follows the Hilbert polynomial
    4d + 1 of the rational quartic; at d = 200 the degree-d monomials have
    exponents past the packed encoding's cap, which counting never
    forms."""
    N = cokernel(GradedMatrix.from_entries(quartic_base, [QUARTIC_GENS],
                                           (0,)))
    assert hilbert_function(N, 50) == 201
    assert hilbert_function(N, 200) == 801


def _hilbert_edge_module(ring):
    """Generators of degrees -2, 0, 1, -1: the first killed by a unit
    relation (its leads contain 1), the second and third tied by a
    relation, the last a free summand."""
    return cokernel(GradedMatrix.from_entries(
        ring, [["1", "0", "0"], ["0", "x^2", "y^2"], ["0", "0", "x"],
               ["0", "0", "0"]], (-2, 0, 1, -1)))


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
def test_hilbert_function_edge_cases_match_the_dense_oracle(quotient):
    """A zero generator counts nothing, negative generator degrees shift
    the count, a degree below every generator counts 0 and a free summand
    counts every monomial: each against the dense oracle, over S and
    S/(x^3 + y^3 - z^3), alone and in a direct sum with the quotient by a
    unit relation alone."""
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    module = _hilbert_edge_module(ring)
    unit = cokernel(GradedMatrix.from_entries(ring, [["1"]], (3,)))
    both = direct_sum(module, unit)
    for d in range(-4, 6):
        want = module_component_dim(module, d)
        assert hilbert_function(module, d) == want, d
        assert hilbert_function(unit, d) == 0
        assert hilbert_function(both, d) == want
    assert hilbert_function(module, -3) == 0


def test_hilbert_function_lists_no_monomials(monkeypatch, quartic_base):
    """hilbert_function counts from the numerators alone: with
    monomials_of_degree made to raise, it still answers, on fresh modules
    over S and S/I and on the edge-case module (against the dense oracle,
    which lists exponent tuples of its own)."""
    from gext.monomial import MonomialContext

    def listing(self, d):
        raise AssertionError("a monomial was listed")

    monkeypatch.setattr(MonomialContext, "monomials_of_degree", listing)
    N = cokernel(GradedMatrix.from_entries(quartic_base, [QUARTIC_GENS],
                                           (0,)))
    assert [hilbert_function(N, d) for d in range(6)] == [1, 4, 9, 13, 17, 21]
    cubic = Ring(P, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])
    assert [hilbert_function(ring_module(cubic), d)
            for d in range(5)] == [1, 3, 6, 9, 12]
    edge = _hilbert_edge_module(cubic)
    assert [hilbert_function(edge, d) for d in range(4)] == \
        [module_component_dim(edge, d) for d in range(4)]


def test_graded_component_basis_size(quartic_cokernel):
    for d in range(5):
        dim, basis = graded_component(quartic_cokernel, d)
        assert dim == len(basis) == hilbert_function(quartic_cokernel, d)


def test_truncate_hilbert(quartic_cokernel):
    t = truncate_module(quartic_cokernel, 2)
    for d in range(6):
        want = hilbert_function(quartic_cokernel, d) if d >= 2 else 0
        assert hilbert_function(t, d) == want


def test_truncate_below_generators_is_identity(quartic_cokernel):
    t = truncate_module(quartic_cokernel, 0)
    assert t.generator_degrees == quartic_cokernel.generator_degrees


def test_twist_shifts_hilbert(quartic_cokernel):
    tw = twist(quartic_cokernel, 3)
    for d in range(-3, 4):
        assert hilbert_function(tw, d) == \
            hilbert_function(quartic_cokernel, d + 3)


def test_direct_sum_hilbert_additive(quartic_cokernel, quartic_base):
    F = free_module_of(quartic_base, (1,))
    s = direct_sum(quartic_cokernel, F)
    for d in range(5):
        assert hilbert_function(s, d) == \
            hilbert_function(quartic_cokernel, d) + hilbert_function(F, d)


def test_prune_canonicalizes_zero(p2_ring):
    # coker of a unit entry is zero
    m = cokernel(GradedMatrix.from_entries(p2_ring, [["1"]], (0,)))
    pruned, _ = prune(m)
    assert pruned.is_zero()
    assert pruned == zero_module(p2_ring)


def test_prune_preserves_hilbert(quartic_cokernel, quartic_base):
    # redundant presentation: extra generator equal to x * gen
    ring = quartic_base
    mat = GradedMatrix.from_entries(
        ring,
        [["x*y-w*z", "y^3-x*z^2", "x", "0"],
         ["0", "0", "-1", "w"]],
        (0, 1))
    m = cokernel(mat)
    pruned, back = prune(m)
    for d in range(5):
        assert hilbert_function(pruned, d) == hilbert_function(m, d)
    assert len(pruned.generator_degrees) <= len(m.generator_degrees)


def test_kernel_image_exactness(quartic_base):
    """rank-nullity degreewise: dim ker_d + dim im_d = dim source_d."""
    ring = quartic_base
    F = free_module_of(ring, (0, 0))
    G = free_module_of(ring, (-1,))
    mat = GradedMatrix.from_entries(ring, [["x", "y"]], (-1,),
                                    source_twists=(0, 0))
    f = ModuleMap(F, G, mat)
    ker, _ = kernel_of_map(f)
    im, _ = image_of(f)
    for d in range(5):
        assert (hilbert_function(ker, d) + hilbert_function(im, d)
                == hilbert_function(F, d))


def test_kernel_elements_map_to_zero(del_pezzo_ring):
    ring = del_pezzo_ring
    F = free_module_of(ring, (0,))
    G = free_module_of(ring, (-1,))
    mat = GradedMatrix.from_entries(ring, [["w"]], (-1,), source_twists=(0,))
    f = ModuleMap(F, G, mat)
    ker, inclusion = kernel_of_map(f)
    composed = f.compose(inclusion)
    assert composed.is_zero()


def test_submodule_equals_detects_equality(p2_ring):
    ring = p2_ring
    F = free_module_of(ring, (0,))
    a = ModuleMap(free_module_of(ring, (1, 1)), F,
                  GradedMatrix.from_entries(ring, [["x", "y"]], (0,)))
    b = ModuleMap(free_module_of(ring, (1, 1)), F,
                  GradedMatrix.from_entries(ring, [["x+y", "y"]], (0,)))
    c = ModuleMap(free_module_of(ring, (1,)), F,
                  GradedMatrix.from_entries(ring, [["x"]], (0,)))
    assert submodule_equals(a, b)
    assert not submodule_equals(a, c)


def test_restrict_scalars_hilbert(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    s_mod = restrict_scalars(Rm)
    assert not s_mod.ring.is_quotient
    for d in range(6):
        assert hilbert_function(s_mod, d) == hilbert_function(Rm, d)


@pytest.mark.parametrize("ring_name", ["quartic_ring", "elliptic_ring"])
def test_restricted_basis_is_the_module_basis_over_s(monkeypatch, request,
                                                    ring_name):
    """restrict_scalars reads N's relation basis over R as the basis over
    S of N's relations plus I*F, with no Buchberger run: its leads and
    membership agree with a basis computed from scratch from the restricted
    presentation, and so do the Betti tables of the two S-resolutions.
    N is R itself, Omega of the curve, and a seeded cokernel of rank 2."""
    def no_run(*args, **kwargs):
        raise AssertionError("a Buchberger run for the restricted basis")

    ring = request.getfixturevalue(ring_name)
    rng = random.Random(3100)
    form = lambda d: random_homogeneous(ring, d, rng)  # noqa: E731
    seeded = cokernel(GradedMatrix.from_entries(ring, [[form(1)], [form(1)]],
                                                (0, 0)))
    for module in (ring_module(ring), cotangent_module(ring)[0], seeded):
        module.relations_gb()
        with monkeypatch.context() as patch:
            patch.setattr("gext.gmod.groebner_basis", no_run)
            s_mod = restrict_scalars(module)
            basis = s_mod.relations_gb()
        fresh = groebner_basis(s_mod.relations, ambient=s_mod.cover)
        assert sorted(basis.lead_terms()) == sorted(fresh.lead_terms())
        for d in range(5):
            inside = random_span_element(list(s_mod.relations), d, rng)
            noise = random_span_element(
                [s_mod.cover.basis_element(j) for j in range(s_mod.cover.rank)],
                d, rng)
            for v in (inside, inside + noise):
                assert basis.contains(v) == fresh.contains(v)
                assert basis.contains(inside)
        scratch = GradedModule(s_mod.presentation)   # no basis given
        assert (betti_stats(free_resolution(s_mod)).entries
                == betti_stats(free_resolution(scratch)).entries)


def test_krull_dim_known_values(quartic_base, quartic_cokernel,
                                quartic_ring, elliptic_ring, del_pezzo_ring):
    assert krull_dim(ring_module(quartic_base)) == 4
    assert krull_dim(quartic_cokernel) == 2          # curve in P^3
    assert krull_dim(ring_module(quartic_ring)) == 2
    assert krull_dim(ring_module(elliptic_ring)) == 2
    assert krull_dim(ring_module(del_pezzo_ring)) == 3  # surface in P^4
    assert krull_dim(zero_module(quartic_base)) == MINUS_INF


def test_krull_dim_finite_length(p2_ring):
    # k = S/(x,y,z) has dimension 0
    mat = GradedMatrix.from_entries(p2_ring, [["x", "y", "z"]], (0,))
    assert krull_dim(cokernel(mat)) == 0


def _count_resolutions(monkeypatch):
    """Count calls of resolve.free_resolution from here on."""
    import gext.resolve
    calls = []
    original = gext.resolve.free_resolution

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(gext.resolve, "free_resolution", counted)
    return calls


def test_krull_dim_resolves_nothing(monkeypatch, quartic_base):
    """krull_dim reads the leads of the relation basis, so on a fresh
    module it runs no free resolution, and it leaves the S-resolution
    cache empty."""
    N = cokernel(GradedMatrix.from_entries(quartic_base, [QUARTIC_GENS],
                                           (0,)))
    calls = _count_resolutions(monkeypatch)
    assert krull_dim(N) == 2
    assert calls == []
    assert N._s_res is None


def test_equal_modules_do_not_share_a_resolution(monkeypatch, elliptic_ring):
    """The S-resolution is cached per object: an equal but distinct module
    computes its own, so no result depends on what ran before."""
    a, b = (free_module_of(elliptic_ring, (0,)),
            free_module_of(elliptic_ring, (0,)))
    assert a == b and a is not b
    calls = _count_resolutions(monkeypatch)
    assert s_betti(a).entries == s_betti(a).entries
    assert len(calls) == 1
    s_betti(b)
    assert len(calls) == 2
    assert a.s_resolution() is not b.s_resolution()


def _krull_dim_cases():
    """Modules for the resolution oracle: test_exactness's seeded modules
    over S and over S/(x^3 + y^3 - z^3), the quartic cokernel, a module
    with one component killed by a unit relation, one with its only
    component killed, a finite-length module, a sum of modules of
    dimensions 1, 2 and 0, a module with a negative-degree generator, and
    the twisted cubic's Omega and OmegaDual from `cotangent_module`, over
    a quotient ring in four variables."""
    s = Ring(P, ("x", "y", "z"))
    cubic = Ring(P, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])

    def coker(ring, rows, twists, **kw):
        return cokernel(GradedMatrix.from_entries(ring, rows, twists, **kw))

    for ring, name in ((s, "S"), (cubic, "cubic")):
        for seed in range(6):
            module = random_module(ring, random.Random(1200 + seed))
            yield pytest.param(module, id=f"{name}-{seed}")
    yield pytest.param(coker(Ring(P, ("w", "x", "y", "z")), [QUARTIC_GENS],
                             (0,)), id="quartic")
    yield pytest.param(coker(s, [["1"], ["0"]], (0, 1), source_twists=(0,)),
                       id="unit-component")
    yield pytest.param(coker(s, [["1"]], (0,)), id="unit-only")
    yield pytest.param(coker(s, [["x", "y^2", "z^3"]], (0,)),
                       id="finite-length")
    point = coker(s, [["x", "y"]], (0,))
    conic = coker(s, [["x*z - y^2"]], (1,))
    origin = coker(s, [["x", "y", "z"]], (2,))
    yield pytest.param(direct_sum(direct_sum(point, conic), origin),
                       id="direct-sum")
    yield pytest.param(coker(s, [["x*y", "z^2"]], (-3,)),
                       id="negative-degree")
    twisted_cubic = Ring(P, ("x0", "x1", "x2", "x3"),
                         quotient=["x0*x2 - x1^2", "x0*x3 - x1*x2",
                                   "x1*x3 - x2^2"])
    omega, omega_dual = cotangent_module(twisted_cubic)
    yield pytest.param(omega, id="twisted-cubic-omega")
    yield pytest.param(omega_dual, id="twisted-cubic-omega-dual")


@pytest.mark.parametrize("module", _krull_dim_cases())
def test_krull_dim_matches_the_resolution_oracle(module):
    """krull_dim equals nvars less the pole order at t = 1 of the Hilbert
    numerator of the S-resolution."""
    assert krull_dim(module) == resolution_dim(module.s_resolution())


def _counted_pole_order_dim(module):
    """nvars less the order at t = 1 of the Hilbert series numerators of
    the components' lead ideals, largest over the generators; -inf when
    every numerator is zero.  The numerators are counted here, not taken
    from `hilbert_numerators`: N_j is (1 - t)^n times the series of the
    standard monomials of component j, listed degree by degree up to the
    degree of the lcm of its leads, which bounds deg N_j (the Taylor
    resolution).  The order is the number of derivatives of N_j that
    vanish at t = 1."""
    n = module.ring.nvars
    ctx = module.ring.ctx
    gb = module.relations_gb()
    best = MINUS_INF
    for j in range(module.cover.rank):
        leads = [ctx.decode(m) for m in gb.divisor_leads(j)]
        top = sum(max(column) for column in zip(*leads)) if leads else 0
        series = [sum(1 for e in monomial_exponents(n, d)
                      if not any(all(x <= y for x, y in zip(lead, e))
                                 for lead in leads))
                  for d in range(top + 1)]
        numerator = [sum((-1) ** i * comb(n, i) * series[d - i]
                         for i in range(min(n, d) + 1))
                     for d in range(top + 1)]
        for order in range(top + 1):
            if sum(c * perm(d, order) for d, c in enumerate(numerator)):
                best = max(best, n - order)
                break
    return best


@pytest.mark.parametrize("module", _krull_dim_cases())
def test_krull_dim_is_the_pole_order_of_the_numerators(module):
    """krull_dim equals nvars less the order at t = 1 of the leads'
    Hilbert series numerators, counted from the standard monomials."""
    assert krull_dim(module) == _counted_pole_order_dim(module)


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_into_module_with_relations(seed, quotient):
    """ker(f: F -> N) with N = coker of random linear forms: degreewise
    dim ker_d = dim F_d - dim N_d + dim (N / im f)_d by dense linear
    algebra, and the kernel maps to zero."""
    rng = random.Random(900 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))

    def form(d):
        f = ring.zero()
        for e in rng.sample(monomial_exponents(3, d), 2):
            f = f + ring.monomial(e, rng.randrange(1, P))
        return f

    N = cokernel(GradedMatrix.from_entries(
        ring, [[form(1), form(1)], [form(1), form(1)]], (0, 0)))
    F = free_module_of(ring, (1, 2, 2))
    mat = GradedMatrix.from_entries(
        ring, [[form(1), form(2), form(2)], [form(1), form(2), "0"]], (0, 0),
        source_twists=(1, 2, 2))
    f = ModuleMap(F, N, mat)
    ker, inclusion = kernel_of_map(f)
    assert f.compose(inclusion).is_zero()
    quotient_by_image = cokernel(GradedMatrix(
        FreeModule(ring, N.presentation.source.twists + mat.source.twists),
        N.cover, list(N.relations) + list(mat.columns), check=False))
    for d in range(6):
        want = (module_component_dim(F, d) - module_component_dim(N, d)
                + module_component_dim(quotient_by_image, d))
        assert hilbert_function(ker, d) == want
        assert module_component_dim(ker, d) == want


def test_ring_module_is_one_object_per_ring(elliptic_ring):
    assert ring_module(elliptic_ring) is ring_module(elliptic_ring)
    other = Ring(elliptic_ring.p, elliptic_ring.variables,
                 quotient=elliptic_ring.quotient)
    assert other == elliptic_ring
    assert ring_module(other) is not ring_module(elliptic_ring)


def test_script_resolves_its_ring_once(monkeypatch):
    """Each sheafCohomology statement reads Krull dimension and Betti
    numbers of R as a module (the source of Algorithm 3.3); R is resolved
    for the first of them only."""
    restricted = []

    def recording(module):
        restricted.append(module)
        return restrict_scalars(module)

    monkeypatch.setattr("gext.gmod.restrict_scalars", recording)
    records = run_script(parse_script(
        "ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);\n"
        "module L = free(R, degrees=[-1]);\n"
        "compute sheafCohomology(0, L);\n"
        "compute sheafCohomology(1, L);\n"
        "compute sheafCohomology(1, R);\n"))
    assert [r.payload for r in records] == [3, 0, 1]
    assert len({id(m) for m in restricted}) == len(restricted)
    assert [m.generator_degrees for m in restricted].count((0,)) == 1
