"""Global Ext, sheaf cohomology, truncation bounds and Yoneda extensions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gext import (AlgebraError, Polynomial, Ring, cokernel, cotangent_module,
                  ext_module, free_module_of, global_ext, global_ext_sum,
                  hilbert_function, krull_dim, prune, ring_module,
                  sheaf_cohomology, sheaf_cohomology_sum,
                  truncate_module, truncation_bound, twist, vanishing_bound,
                  yoneda_extension, zero_module)
from gext import homext, sheafext
from gext.free import FreeModule, GradedMatrix, ModuleElement
from gext.groebner import MINUS_INF, groebner_basis
from gext.resolve import betti_stats
from gext.sheafext import (class_is_split, degree_zero_hom_coords,
                           extension_setup, nonsplit_extension_coords,
                           s_betti)

from conftest import line_bundle
from oracles import (complete_intersection_cohomology, hilbert_polynomial,
                     monomial_exponents, projective_space_cotangent,
                     projective_space_line_bundle)
from test_exactness import random_element, random_module

P = 32003


# -- truncation and vanishing bounds ---------------------------------------------

def test_quartic_truncation_bound(quartic_cokernel):
    tb = truncation_bound(1, 0, quartic_cokernel)
    assert tb.r == 2
    assert tb.r_weak >= tb.r  # the printed (weaker) bound can only be larger


def test_elliptic_truncation_bound(elliptic_ring):
    tb = truncation_bound(1, 0, ring_module(elliptic_ring))
    assert tb.r == 2


def test_vanishing_bound_quartic(quartic_cokernel):
    assert vanishing_bound(1, quartic_cokernel) == 1


def test_vanishing_bound_rejects_nonpositive(quartic_cokernel):
    with pytest.raises(AlgebraError):
        vanishing_bound(0, quartic_cokernel)


def test_lemma_vanishing_oracle_quartic(quartic_cokernel):
    """sheafCohomology(m, N(v)) = 0 for v >= vanishingBound(m, N)."""
    N = quartic_cokernel
    n = 3
    for m in range(1, n + 1):
        v0 = vanishing_bound(m, N)
        for v in range(v0, v0 + 4):
            d, _ = sheaf_cohomology(m, twist(N, v))
            assert d == 0, f"H^{m}(N({v})) != 0"


def test_lemma_vanishing_oracle_elliptic(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    for m in (1, 2):
        v0 = vanishing_bound(m, Rm)
        for v in range(v0, v0 + 4):
            d, _ = sheaf_cohomology(m, twist(Rm, v))
            assert d == 0


# -- global Ext on the worked examples -------------------------------------------

def test_quartic_global_ext_sum_vanishes(quartic_base, quartic_cokernel):
    S1 = free_module_of(quartic_base, (0,))
    E = global_ext_sum(1, 0, S1, quartic_cokernel)
    assert E.is_zero()


def test_elliptic_genus(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    d, _ = global_ext(1, Rm, Rm)
    assert d == 1


def test_dim_zero_source_gives_zero(quartic_base, quartic_cokernel):
    k = cokernel(GradedMatrix.from_entries(
        quartic_base, [["w", "x", "y", "z"]], (0,)))
    assert krull_dim(k) == 0
    for m in range(3):
        assert global_ext_sum(m, 0, k, quartic_cokernel).is_zero()


def test_zero_module_arguments(quartic_base, quartic_cokernel):
    z = zero_module(quartic_base)
    assert global_ext_sum(1, 0, z, quartic_cokernel).is_zero()
    assert global_ext_sum(1, 0, quartic_cokernel, z).is_zero()
    assert sheaf_cohomology_sum(1, 0, z).is_zero()


def test_negative_m_is_zero(quartic_base, quartic_cokernel):
    assert global_ext_sum(-1, 0, quartic_cokernel, quartic_cokernel).is_zero()


def test_dim_zero_shortcut_computes_no_ext(monkeypatch, p2_ring):
    """Remark dim0: a finite-length source or target, a zero one included,
    gives the zero module without asking `ext_at_least` for anything; a
    source of dimension 1 on P^2 (a point) does ask it."""
    calls = []
    ext_at_least = homext.ext_at_least

    def spy(*args):
        calls.append(args)
        return ext_at_least(*args)

    monkeypatch.setattr(homext, "ext_at_least", spy)
    monkeypatch.setattr(sheafext, "ext_at_least", spy)
    O = free_module_of(p2_ring, (0,))
    origin = cokernel(GradedMatrix.from_entries(
        p2_ring, [["x", "y^2", "z^3"]], (0,)))
    point = cokernel(GradedMatrix.from_entries(p2_ring, [["x", "y"]], (0,)))
    assert (krull_dim(origin), krull_dim(point)) == (0, 1)
    for m in range(3):
        assert global_ext_sum(m, 0, origin, O).is_zero()
        assert global_ext_sum(m, 0, O, zero_module(p2_ring)).is_zero()
        assert global_ext_sum(m, 0, O, origin).is_zero()
    assert calls == []
    assert not global_ext_sum(2, 0, point, O).is_zero()
    assert len(calls) == 1


def test_projective_space_corollary_fixed(quartic_base, quartic_cokernel):
    """Over R = S (X = P^n), globalExt vanishes for m > n."""
    n = 3
    for m in (n + 1, n + 2):
        d, _ = global_ext(m, quartic_cokernel, quartic_cokernel)
        assert d == 0


def test_grothendieck_bound(quartic_cokernel):
    """sheafCohomology(m, N) = 0 for m >= dim N."""
    dim = krull_dim(quartic_cokernel)
    for m in range(dim, dim + 2):
        d, _ = sheaf_cohomology(m, quartic_cokernel)
        assert d == 0


# -- sheaf cohomology of line bundles on P^2 (classical oracle) -------------------

@pytest.mark.parametrize("v", range(-5, 4))
def test_p2_line_bundles(p2_ring, v):
    L = line_bundle(p2_ring, v)
    for m in range(3):
        d, _ = sheaf_cohomology(m, L)
        assert d == projective_space_line_bundle(2, m, v), (m, v)


def test_structure_sheaf_sum_is_ring(p2_ring):
    """sheafCohomologySum(0, 0, O) recovers S in degrees >= 0."""
    S = ring_module(p2_ring)
    E = global_ext_sum(0, 0, S, S)
    for d in range(4):
        assert hilbert_function(E, d) == hilbert_function(S, d)


def test_eh_consistency(elliptic_ring):
    """globalExtSum(m, e, R, N) = sheafCohomologySum(m, e, N)."""
    Rm = ring_module(elliptic_ring)
    a = global_ext_sum(1, 0, Rm, Rm)
    b = sheaf_cohomology_sum(1, 0, Rm)
    for d in range(4):
        assert hilbert_function(a, d) == hilbert_function(b, d)


@pytest.mark.parametrize("n, twists", [(2, range(-4, 4)),
                                       (3, range(-3, 4))])
def test_bott_formula_cotangent(n, twists):
    """h^q(P^n, Omega^1(d)) from Algorithm 3.4 equals Bott's formula."""
    S = Ring(P, tuple(f"x{i}" for i in range(n + 1)))
    omega = cotangent_module(S)[0]
    got = {(q, d): sheaf_cohomology(q, twist(omega, d))[0]
           for q in range(n + 1) for d in twists}
    want = {(q, d): projective_space_cotangent(n, q, d) for (q, d) in got}
    assert got == want


@pytest.mark.parametrize("n, degrees", [
    (3, (4,)),      # a quartic K3 surface: h^2(O) = 1, h^2(O(-1)) = 4
    (3, (3,)),      # a cubic surface: h^2(O(-1)) = 1
    (4, (2,)),      # the quadric threefold: h^3(O(-3)) = 1
    (4, (2, 2)),    # a (2,2) surface in P^4: h^2(O(-1)) = 1
], ids=["quartic-K3", "cubic-surface", "quadric-threefold", "2-2-surface"])
def test_complete_intersection_cohomology(n, degrees):
    """h^q(X, O_X(v)) from Algorithm 3.4 on a smooth complete intersection
    X of diagonal forms with seeded coefficients equals the Koszul and
    Serre-duality closed form, for every q <= dim X and v from one below
    the canonical twist sum(d_i) - n - 1 up to 1."""
    rng = random.Random(f"ci:{n}:{degrees}")
    names = tuple(f"x{i}" for i in range(n + 1))
    forms = [" + ".join(f"{rng.randrange(1, P)}*{x}^{d}" for x in names)
             for d in degrees]
    O = ring_module(Ring(P, names, quotient=forms))
    dim = n - len(degrees)
    canonical = sum(degrees) - n - 1
    got = {(q, v): sheaf_cohomology(q, twist(O, v))[0]
           for q in range(dim + 1) for v in range(canonical - 1, 2)}
    want = {(q, v): complete_intersection_cohomology(degrees, n, q, v)
            for (q, v) in got}
    assert got == want
    assert want[(dim, canonical)] == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fermat_surface_hodge_number(d):
    """h^1(X, Omega_X) = h^{1,1} = (2d^3 - 6d^2 + 7d)/3 on the smooth
    Fermat surface w^d + x^d + y^d + z^d in P^3: 2, 7 and 20 for
    d = 2, 3, 4 (Hirzebruch; Griffiths, Ann. Math. 90, 1969)."""
    R = Ring(P, ("w", "x", "y", "z"),
             quotient=[f"w^{d} + x^{d} + y^{d} + z^{d}"])
    omega = cotangent_module(R)[0]
    assert sheaf_cohomology(1, omega)[0] == (2 * d**3 - 6 * d**2 + 7 * d) // 3


def _presentation_degrees(module):
    return (sorted(module.generator_degrees),
            sorted(module.presentation.source.twists))


@pytest.mark.parametrize("case", ["quartic", "elliptic", "del_pezzo"])
def test_global_ext_sum_is_minimal(case, quartic_base, quartic_cokernel,
                                   elliptic_ring, del_pezzo_ring, del_pezzo_g):
    """global_ext_sum returns a minimal presentation: pruning it keeps the
    generator degrees and the multiset of relation degrees."""
    if case == "quartic":
        S1 = free_module_of(quartic_base, (0,))
        calls = [(m, e, S1, quartic_cokernel) for m in (0, 1) for e in (-2, 0)]
    elif case == "elliptic":
        Rm = ring_module(elliptic_ring)
        calls = [(m, e, Rm, Rm) for m in (0, 1) for e in (-1, 0, 2)]
    else:
        omega = free_module_of(del_pezzo_ring, (1,))
        calls = [(m, 0, del_pezzo_g, omega) for m in range(3)]
        calls += [(m, 0, ring_module(del_pezzo_ring), del_pezzo_g)
                  for m in range(3)]
    nonzero = 0
    for args in calls:
        E = global_ext_sum(*args)
        nonzero += not E.is_zero()
        assert _presentation_degrees(prune(E)[0]) == \
            _presentation_degrees(E), args
    assert nonzero >= 2


def truncated_ext_oracle(m, e, source, target):
    """Algorithm 3.1 as the composition it is defined by: Ext^m of the
    truncated source, presented in full and then truncated at e.  Returns
    (Ext^m_R(M_{>=r}, N), its truncation at e), or None where
    global_ext_sum answers zero without computing Ext."""
    if m < 0 or krull_dim(source) <= 0 or krull_dim(target) == MINUS_INF:
        return None
    r = truncation_bound(m, e, target).r
    ext = ext_module(m, truncate_module(source, r), target).underlying
    return ext, truncate_module(ext, e)


def small_module(ring, rng):
    """coker of one random column of degree 1 or 2 per generator, on one
    or two generators of degree 0 or 1."""
    cover = FreeModule(ring, tuple(rng.choice([0, 1])
                                   for _ in range(rng.choice([1, 2]))))
    cols = [random_element(cover, rng.choice([1, 2]), rng)
            for _ in range(cover.rank)]
    cols = [c for c in cols if not c.is_zero()]
    src = FreeModule(ring, tuple(c.degree() for c in cols))
    return cokernel(GradedMatrix(src, cover, cols, check=False))


@pytest.mark.parametrize("quotient, kinds", [
    ((), {"raised", "not raised", "zero above e"}),
    (("x^3 + y^3 - z^3",), {"raised", "zero above e"})])
def test_global_ext_sum_matches_truncated_ext(monkeypatch, quotient, kinds):
    """global_ext_sum presents Ext only in degrees >= e, raising the kernel
    columns below e: it has the generator degrees, relation degrees and
    Hilbert function of the full Ext^m truncated at e.  The cases include
    kernels raised to e, kernels with no column below e, and a nonzero
    Ext whose part in degrees >= e is zero."""
    raised = []
    raise_ = homext._raise

    def spy(gens, known, cover, low):
        raised.append(any(g.degree() < low for g in gens))
        return raise_(gens, known, cover, low)

    monkeypatch.setattr(homext, "_raise", spy)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    seen = set()
    for seed in (1, 2, 4, 5):
        rng = random.Random(1500 + seed)
        M, N = small_module(ring, rng), small_module(ring, rng)
        for m in (0, 1, 2):
            for e in (-1, 0, 2):
                oracle = truncated_ext_oracle(m, e, M, N)
                raised.clear()
                got = global_ext_sum(m, e, M, N)
                if oracle is None:
                    assert got.is_zero()
                    continue
                ext, want = oracle
                case = (seed, m, e)
                assert _presentation_degrees(got) == \
                    _presentation_degrees(want), case
                for d in range(e - 1, e + 5):
                    assert hilbert_function(got, d) == \
                        hilbert_function(want, d), (case, d)
                if not ext.is_zero() and want.is_zero():
                    seen.add("zero above e")
                if raised and not want.is_zero():
                    seen.add("raised" if raised[0] else "not raised")
    assert kinds <= seen


def test_euler_characteristic_is_hilbert_polynomial(p2_ring, elliptic_ring):
    """sum_q (-1)^q h^q(N~(v)) = P_N(v), with P_N read from the Betti
    numbers of N over S, independently of Algorithm 3.1."""
    conic = cokernel(GradedMatrix.from_entries(p2_ring, [["x*y - z^2"]],
                                               (0,)))
    point = cokernel(GradedMatrix.from_entries(p2_ring, [["x", "y"]], (0,)))
    modules = [("O", ring_module(p2_ring)),
               ("Omega", cotangent_module(p2_ring)[0]),
               ("O_conic", conic), ("O_point", point),
               ("O_cubic", ring_module(elliptic_ring))]
    for name, N in modules:
        n = N.ring.nvars - 1
        betti = betti_stats(N.s_resolution()).entries
        for v in range(-3, 3):
            Nv = twist(N, v)
            chi = sum((-1) ** q * sheaf_cohomology(q, Nv)[0]
                      for q in range(n + 1))
            assert chi == hilbert_polynomial(betti, n, v), (name, v)


# -- Del Pezzo duality -------------------------------------------------------------

def test_del_pezzo_duality(del_pezzo_ring, del_pezzo_g):
    G = del_pezzo_g
    omega = free_module_of(del_pezzo_ring, (1,))  # R(-1)
    ext_dims = [global_ext(2 - j, G, omega)[0] for j in range(3)]
    coh_dims = [sheaf_cohomology(j, G)[0] for j in range(3)]
    assert coh_dims == [2, 2, 0]
    assert ext_dims == coh_dims


@pytest.mark.parametrize("seed, v, want", [(7, -3, [1, 2, 0]),
                                           (2, -1, [0, 1, 0]),
                                           (1, 1, [0, 0, 6])])
def test_serre_duality_on_p2(seed, v, want):
    """Ext^m(P^2; G, O(-3)) = H^{2-m}(P^2, G)^dual for a seeded module G on
    three generators, twisted by v: Serre duality with a non-free first
    argument.  The cases give a nonzero value for each m = 0, 1, 2."""
    ring = Ring(P, ("x", "y", "z"))
    G = twist(random_module(ring, random.Random(seed), ranks=(3,)), v)
    canonical = free_module_of(ring, (3,))   # O(-3)
    ext_dims = [global_ext(m, G, canonical)[0] for m in range(3)]
    assert ext_dims == [sheaf_cohomology(2 - m, G)[0] for m in range(3)]
    assert ext_dims == want


# -- bound stability ---------------------------------------------------------------

def ext_dims_with_r(m, e, source, target, r, window):
    """dim Ext^m(M_{>=r}, N)_d for d in window, bypassing the bound."""
    from gext.homext import ext_module
    trunc = truncate_module(source, r)
    E = ext_module(m, trunc, target).underlying
    return [hilbert_function(E, d) for d in window]


@pytest.mark.parametrize("case", ["quartic", "elliptic", "del_pezzo"])
def test_bound_stability(case, quartic_base, quartic_cokernel, elliptic_ring,
                         del_pezzo_ring, del_pezzo_g):
    """Theorem 1: Ext dims for r, r+1, r+2 agree on the window [e, e+4]."""
    if case == "quartic":
        source = free_module_of(quartic_base, (0,))
        target = quartic_cokernel
    elif case == "elliptic":
        source = target = ring_module(elliptic_ring)
    else:
        source = del_pezzo_g
        target = free_module_of(del_pezzo_ring, (1,))
    e = 0
    tb = truncation_bound(1, e, target)
    window = range(e, e + 5)
    base = ext_dims_with_r(1, e, source, target, tb.r, window)
    for extra in (1, 2):
        assert ext_dims_with_r(1, e, source, target, tb.r + extra,
                               window) == base, f"r+{extra}"


def test_sharpness_r1_vs_r2(quartic_base, quartic_cokernel):
    """r = 1 on the quartic leaves a 4-dimensional degree-0 obstruction;
    r = 2 (the bound) removes it."""
    S1 = free_module_of(quartic_base, (0,))
    dims_r1 = ext_dims_with_r(1, 0, S1, quartic_cokernel, 1, [0])
    dims_r2 = ext_dims_with_r(1, 0, S1, quartic_cokernel, 2, [0])
    assert dims_r1 == [4]
    assert dims_r2 == [0]
    assert truncation_bound(1, 0, quartic_cokernel).r >= 1


def random_homogeneous(ring, degree, rng):
    f = ring.zero()
    for e in monomial_exponents(len(ring.variables), degree):
        c = rng.randrange(P)
        if c and rng.random() < 0.5:
            f = f + ring.monomial(e, c)
    return f


@pytest.mark.parametrize("seed", range(8))
def test_pn_corollary_random(seed):
    """On P^2, globalExt(m, M, N) = 0 for m = n+1, n+2."""
    rng = random.Random(900 + seed)
    ring = Ring(P, ("x", "y", "z"))
    mods = []
    for _ in range(2):
        rows = [[str(random_homogeneous(ring, rng.choice([1, 2]), rng))
                 for _ in range(rng.choice([1, 2]))]]
        try:
            mat = GradedMatrix.from_entries(ring, rows, (0,))
            mods.append(cokernel(mat))
        except AlgebraError:
            mods.append(ring_module(ring))
    M, N = mods
    for m in (3, 4):
        d, _ = global_ext(m, M, N)
        assert d == 0


# -- Yoneda extensions --------------------------------------------------------------

def test_yoneda_nonsplit_elliptic(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    coords = nonsplit_extension_coords(Rm, Rm)
    assert coords is not None
    result = yoneda_extension(Rm, Rm, coords)
    assert result.verified == (True, True, True)
    E = result.module
    assert len(E.generator_degrees) == 7
    assert E.presentation.source.rank == 9
    assert sheaf_cohomology(0, E)[0] == 1


@pytest.mark.parametrize("n", [2, 3])
def test_yoneda_euler_sequence(n):
    """On P^n the nonzero class of Ext^1(O, Omega) is the Euler sequence
    0 -> Omega -> O(-1)^{n+1} -> O -> 0 (Hartshorne II.8), so the Yoneda
    construction's E has E~ = O(-1)^{n+1}: h^q(E~(v)) = (n + 1) h^q(O(v - 1))
    for every q, h^0(E~(v)) = (n + 1) C(v - 1 + n, n)."""
    S = Ring(P, tuple(f"x{i}" for i in range(n + 1)))
    O, omega = ring_module(S), cotangent_module(S)[0]
    result = yoneda_extension(O, omega, nonsplit_extension_coords(O, omega))
    assert result.verified == (True, True, True)
    E = result.module
    got = {(q, v): sheaf_cohomology(q, twist(E, v))[0]
           for q in range(n + 1) for v in range(-n, 3)}
    want = {(q, v): (n + 1) * projective_space_line_bundle(n, q, v - 1)
            for (q, v) in got}
    assert got == want


def test_yoneda_split_elliptic(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    m_tr, p_free, kmod, alpha, morphisms = extension_setup(Rm, Rm)
    zero_coords = [0] * len(morphisms.anchors)
    result = yoneda_extension(Rm, Rm, zero_coords)
    assert result.verified == (True, True, True)
    E = result.module
    for d in range(6):
        assert hilbert_function(E, d) == \
            hilbert_function(Rm, d) + hilbert_function(m_tr, d)
    # the split extension has an extra global section
    assert sheaf_cohomology(0, E)[0] == 2


def test_yoneda_hilbert_additivity_nonsplit(elliptic_ring):
    """Short exactness: hilbert(E) = hilbert(N) + hilbert(M') always."""
    Rm = ring_module(elliptic_ring)
    m_tr, _, _, _, morphisms = extension_setup(Rm, Rm)
    coords = nonsplit_extension_coords(Rm, Rm)
    result = yoneda_extension(Rm, Rm, coords)
    for d in range(6):
        assert hilbert_function(result.module, d) == \
            hilbert_function(Rm, d) + hilbert_function(m_tr, d)


def test_class_split_detection(elliptic_ring):
    Rm = ring_module(elliptic_ring)
    m_tr, p_free, kmod, alpha, morphisms = extension_setup(Rm, Rm)
    zero = degree_zero_hom_coords(morphisms)
    assert zero  # the degree-0 part of Hom(K, N) is nonempty
    nonsplit = nonsplit_extension_coords(Rm, Rm)
    assert not class_is_split(morphisms, alpha, nonsplit)
    assert class_is_split(morphisms, alpha, [0] * len(morphisms.anchors))


def test_nonsplit_coords_build_one_restriction_basis(monkeypatch,
                                                    elliptic_ring):
    """nonsplit_extension_coords returns the first degree-0 coordinate
    vector that class_is_split finds nonsplit, and builds the basis of
    restrictions along alpha once for all the candidates."""
    Rm = ring_module(elliptic_ring)
    _, _, _, alpha, morphisms = extension_setup(Rm, Rm)
    candidates = degree_zero_hom_coords(morphisms)
    assert len(candidates) > 1
    want = next(c for c in candidates
                if not class_is_split(morphisms, alpha, c))
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr("gext.sheafext.groebner_basis", counting)
    assert nonsplit_extension_coords(Rm, Rm) == want
    assert len(built) == 1


def test_yoneda_rejects_nonzero_degree(elliptic_ring):
    """Coordinates selecting a degree != 0 class are rejected."""
    Rm = ring_module(elliptic_ring)
    _, _, _, _, morphisms = extension_setup(Rm, Rm)
    degs = morphisms.underlying.generator_degrees
    bad = [1 if d != 0 else 0 for d in degs]
    if not any(bad):
        pytest.skip("no nonzero-degree generator available")
    with pytest.raises(AlgebraError):
        yoneda_extension(Rm, Rm, bad)


# -- memory and variable order -------------------------------------------------

MEMORY_PROBE = """
import tracemalloc
from gext import (Ring, cotangent_module, global_ext_sum, hilbert_function,
                  ring_module)
R = Ring(32003, ("w", "x", "y", "z"),
         quotient=["w*y - x^2", "w*z - x*y", "x*z - y^2"])
omega = cotangent_module(R)[0]
omega.s_resolution()
Rm = ring_module(R)
tracemalloc.start()
ext = global_ext_sum(1, 0, Rm, omega)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(peak, hilbert_function(ext, 0), hilbert_function(ext, 1))
"""


def test_twisted_cubic_omega_side_peak_memory():
    """The Omega side of the twisted cubic, global_ext_sum(1, 0, R, Omega)
    with Omega's S-resolution built first, allocates at most 260,000
    bytes at its tracemalloc peak, measured in a fresh interpreter (what
    an earlier computation leaves in Python's free lists would lower it).
    It peaks at 200,340 bytes with divisor lists shared copy-on-write and
    each kernel generator freed once its job is taken; at 300,612 when
    every index copied its component lists and the kernel run kept its
    generators to its end; and at 358,360 when, besides, each tail term
    was a nested tuple ((off, mono), coeff) and each stored track a dict
    (Python 3.11, hash seeds 0-3).  Its answer is h^1(Omega(v)) = 1, 0
    for v = 0, 1."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", MEMORY_PROBE],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src,
                                   PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    peak, h0, h1 = map(int, proc.stdout.split())
    assert (h0, h1) == (1, 0)
    assert peak <= 260_000, peak


QUOTIENTS = [(), ("x^3 + y^3 - z^3",), ("x^2*y + y^2*z + z^2*x",)]


def moved_term(ctx, m, c, perm, scale):
    """The image (monomial, coefficient) of the term c * m under
    x_i -> scale[i] * x_perm[i]."""
    new = [0] * ctx.nvars
    for i, e in enumerate(ctx.decode(m)):
        new[perm[i]] += e
        c = c * pow(scale[i], e, P) % P
    return ctx.encode(new), c


def order_invariants(module):
    """Krull dimension, Hilbert function, S-resolution Betti degrees, and
    the Hilbert function of global_ext_sum(m, 0, module, R) for m = 0..2."""
    R = ring_module(module.ring)
    betti = s_betti(module)
    return (krull_dim(module),
            [hilbert_function(module, d) for d in range(-1, 6)],
            [betti.degrees(i) for i in range(4)],
            [[hilbert_function(global_ext_sum(m, 0, module, R), d)
              for d in range(4)] for m in range(3)])


@pytest.mark.parametrize("seed", [0, 9, 21, 10, 22, 28, 5, 14])
def test_answers_do_not_depend_on_the_variable_order(seed):
    """A seeded module over S, S/(x^3 + y^3 - z^3) or
    S/(x^2 y + y^2 z + z^2 x) (by seed mod 3), and its image under a
    seeded permutation of the variables with nonzero rescaling, with the
    quotient ideal mapped the same way, have the same order_invariants.
    The seeds give modules of Krull dimension 1-3, each with a nonzero
    Ext^1 or Ext^2 (a module of dimension 0 returns zero Ext at once)."""
    rng = random.Random(f"variable-order:{seed}")
    ring = Ring(P, ("x", "y", "z"), quotient=list(QUOTIENTS[seed % 3]))
    module = random_module(ring, rng, ranks=(2, 3))
    perm = rng.sample(range(3), 3)
    scale = [rng.randrange(1, P) for _ in range(3)]
    ctx = ring.ctx
    image = Ring(P, ring.variables, quotient=[
        Polynomial(ring.base, dict(moved_term(ctx, m, c, perm, scale)
                                   for m, c in f.terms.items()))
        for f in ring.quotient])
    pres = module.presentation
    cover = FreeModule(image, pres.target.twists)
    cols = [ModuleElement(cover, {
        (j, mm): cc for (j, m), c in col.data.items()
        for mm, cc in [moved_term(ctx, m, c, perm, scale)]}).reduced()
        for col in pres.columns]
    moved = cokernel(GradedMatrix(FreeModule(image, pres.source.twists),
                                  cover, cols, check=False))
    assert krull_dim(module) > 0
    assert order_invariants(moved) == order_invariants(module)
