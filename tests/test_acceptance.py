"""Acceptance gate: the four worked examples plus the property suites,
each within its wall-clock budget.

One deliberate deviation is encoded in criterion 1(a): the first-syzygy
Betti degrees of the rational quartic are asserted as {2,3,3,3}, not
{2,3,3}.  Three first syzygies are arithmetically impossible: the
alternating sum of the Hilbert-numerator coefficients at t = 1 must
vanish for a module of codimension 2, and 1 - (1+2) + 4 - 1 = 1 != 0,
while 1 - (1+3) + 4 - 1 = 0.  The dense linear-algebra oracle confirms
dim I_3 = 7, forcing four minimal generators of I (one quadric, three
cubics) and hence four first syzygies of S/I.
"""

import random
import time
from contextlib import contextmanager

from gext import (Ring, betti_stats, cokernel, free_module_of,
                  free_resolution, global_ext, global_ext_sum,
                  hilbert_function, prune, ring_module, sheaf_cohomology,
                  truncate_module, truncation_bound, twist, vanishing_bound,
                  yoneda_extension)
from gext.free import FreeModule, GradedMatrix, ModuleElement
from gext.groebner import groebner_basis
from gext.homext import ext_module
from gext.sheafext import (cotangent_module, extension_setup,
                           nonsplit_extension_coords)

from conftest import QUARTIC_GENS, line_bundle
from oracles import (hilbert_numerator, ideal_component_dim, ideal_contains,
                     projective_space_line_bundle)
from test_groebner import (random_combination, random_homogeneous, span_dim)
from test_resolve import hilbert_from_numerator

P = 32003


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"budget exceeded: {elapsed:.1f}s >= {seconds}s"


# -- criterion 1: rational quartic sharpness --------------------------------------

def test_acceptance_1_quartic_sharpness(quartic_base, quartic_cokernel):
    with budget(10):
        # (a) minimal S-resolution Betti degrees (see module docstring)
        res = free_resolution(quartic_cokernel)
        table = betti_stats(res)
        assert table.degrees(0) == [0]
        assert table.degrees(1) == [2, 3, 3, 3]
        assert table.degrees(2) == [4, 4, 4, 4]
        assert table.degrees(3) == [5]

        # the oracle evidence for the deviation: dim I_3 = 7
        polys = [quartic_base.polynomial(t) for t in QUARTIC_GENS]
        assert ideal_component_dim(polys, 4, 3, P) == 7

        # (b) truncation bound
        tb = truncation_bound(1, 0, quartic_cokernel)
        assert tb.r == 2

        # (c) globalExtSum(1, 0, S, S/I) = 0
        S1 = free_module_of(quartic_base, (0,))
        assert global_ext_sum(1, 0, S1, quartic_cokernel).is_zero()

        # (d) Ext^1(S_{>=1}, N) truncated at 0: 4 degree-0 generators,
        # annihilated by the maximal ideal
        e1 = ext_module(1, truncate_module(S1, 1), quartic_cokernel)
        p1, _ = prune(truncate_module(e1.underlying, 0))
        assert p1.generator_degrees == (0, 0, 0, 0)
        assert [hilbert_function(p1, d) for d in range(4)] == [4, 0, 0, 0]


# -- criterion 2: Veronese cotangent (the slow one) --------------------------------

def test_acceptance_2_veronese_cotangent(veronese_ring):
    with budget(15 * 60):
        R = veronese_ring
        Rm = ring_module(R)

        tb = truncation_bound(1, 0, Rm)
        assert tb.pd == 3
        assert tb.n - tb.ell == 4
        assert tb.pd < tb.n - tb.ell  # the Omega-dual side skips truncation

        omega, omega_dual = cotangent_module(R)

        t0 = time.monotonic()
        lhs = global_ext_sum(1, 0, omega_dual, Rm)
        lhs_time = time.monotonic() - t0

        t0 = time.monotonic()
        rhs = global_ext_sum(1, 0, Rm, omega)
        rhs_time = time.monotonic() - t0

        for result in (lhs, rhs):
            assert hilbert_function(result, 0) == 1
            for d in range(1, 4):
                assert hilbert_function(result, d) == 0

        assert lhs_time < rhs_time, (lhs_time, rhs_time)


# -- criterion 3: Serre-Grothendieck duality on the Del Pezzo surface ---------------

def test_acceptance_3_del_pezzo_duality(del_pezzo_ring, del_pezzo_g):
    with budget(60):
        G = del_pezzo_g
        omega = free_module_of(del_pezzo_ring, (1,))  # omega = R(-1)
        ext_dims = tuple(global_ext(2 - j, G, omega)[0] for j in range(3))
        coh_dims = tuple(sheaf_cohomology(j, G)[0] for j in range(3))
        assert ext_dims == (2, 2, 0)
        assert coh_dims == (2, 2, 0)


# -- criterion 4: elliptic extension -----------------------------------------------

def test_acceptance_4_elliptic_extension(elliptic_ring):
    with budget(30):
        Rm = ring_module(elliptic_ring)

        # (a) genus
        assert global_ext(1, Rm, Rm)[0] == 1

        # (b) truncation data
        tb = truncation_bound(1, 0, Rm)
        assert tb.r == 2
        m_tr, _ = prune(truncate_module(Rm, 2))
        assert len(m_tr.generator_degrees) == 6
        assert m_tr.presentation.source.rank == 9

        # (c) a nonsplit degree-0 class yields a verified extension with
        # one global section
        coords = nonsplit_extension_coords(Rm, Rm)
        assert coords is not None
        result = yoneda_extension(Rm, Rm, coords)
        assert result.verified == (True, True, True)
        assert sheaf_cohomology(0, result.module)[0] == 1

        # (d) split case: degreewise Hilbert additivity on [0, 5]
        m_tr2, _, _, _, morphisms = extension_setup(Rm, Rm)
        split = yoneda_extension(Rm, Rm, [0] * len(morphisms.anchors))
        for d in range(6):
            assert hilbert_function(split.module, d) == \
                hilbert_function(Rm, d) + hilbert_function(m_tr2, d)


# -- criterion 5: property suites ---------------------------------------------------

def test_acceptance_5_property_suites(quartic_base, quartic_cokernel,
                                      elliptic_ring, del_pezzo_ring,
                                      del_pezzo_g, p2_ring):
    with budget(10 * 60):
        _property_groebner_random()
        _property_hilbert_series_random()
        _property_bound_stability(quartic_base, quartic_cokernel,
                                  elliptic_ring, del_pezzo_ring, del_pezzo_g)
        _property_lemma_vanishing(quartic_cokernel, elliptic_ring)
        _property_pn_corollary()
        _property_line_bundles(p2_ring)


def _property_groebner_random():
    """(a) 200 random homogeneous ideals: S-pairs reduce to zero and
    degreewise ideal dimension matches dense linear algebra through
    degree 6."""
    rng = random.Random(52)
    for trial in range(200):
        nvars = rng.choice([2, 3])
        ring = Ring(P, tuple("xyz"[:nvars]))
        polys = []
        for _ in range(rng.choice([2, 3])):
            f = random_homogeneous(ring, rng.choice([1, 2, 2, 3]), rng)
            if not f.is_zero():
                polys.append(f)
        if not polys:
            continue
        fm = FreeModule(ring, (0,))
        gens = [ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
                for f in polys]
        gb = groebner_basis(gens, ambient=fm)
        ctx = ring.ctx
        els = list(gb)
        for i in range(len(els)):
            for j in range(i + 1, len(els)):
                (_, mi), ci_c = els[i].lead_term()
                (_, mj), cj_c = els[j].lead_term()
                lcm = ctx.lcm(mi, mj)
                spair = (els[i].monomial_mul(ctx.quotient(lcm, mi), cj_c)
                         + els[j].monomial_mul(ctx.quotient(lcm, mj),
                                               P - ci_c))
                assert gb.contains(spair), f"trial {trial}: S-pair ({i},{j})"
        for d in range(7):
            assert span_dim(ring, gb, d) == \
                ideal_component_dim(polys, nvars, d, P), \
                f"trial {trial}, degree {d}"
        for d in range(2, 7):
            g = random_combination(ring, polys, d, rng)
            if g is not None:
                v = ModuleElement(fm, {(0, m): c for m, c in g.terms.items()})
                assert gb.contains(v), f"trial {trial}, degree {d}"
            h = random_homogeneous(ring, d, rng)
            if not h.is_zero():
                vh = ModuleElement(fm, {(0, m): c for m, c in h.terms.items()})
                assert gb.contains(vh) == \
                    ideal_contains(polys, h, nvars, d, P), \
                    f"trial {trial}, degree {d}"


def _property_hilbert_series_random():
    """(b) alternating-sum Hilbert-series identity for 50 random modules."""
    rng = random.Random(53)
    done = 0
    while done < 50:
        nvars = rng.choice([2, 3])
        ring = Ring(P, tuple("xyz"[:nvars]))
        tgt = tuple(rng.choice([0, 0, 1])
                    for _ in range(rng.choice([1, 2])))
        ncols = rng.choice([1, 2, 3])
        col_degs = [rng.choice([1, 2, 2, 3]) for _ in range(ncols)]
        rows = [[str(random_homogeneous(ring, cd - a, rng))
                 for cd in col_degs] for a in tgt]
        mat = GradedMatrix.from_entries(ring, rows, tgt,
                                        source_twists=tuple(col_degs))
        module = cokernel(mat)
        res = free_resolution(module)
        numer = hilbert_numerator(res)
        for d in range(7):
            assert hilbert_from_numerator(numer, nvars, d) == \
                hilbert_function(module, d)
        done += 1


def _ext_dims(m, e, source, target, r, window):
    trunc = truncate_module(source, r)
    E = ext_module(m, trunc, target).underlying
    return [hilbert_function(E, d) for d in window]


def _property_bound_stability(quartic_base, quartic_cokernel, elliptic_ring,
                              del_pezzo_ring, del_pezzo_g):
    """(c) Ext dims for r, r+1, r+2 agree on [0, 4] for each example."""
    cases = [
        (free_module_of(quartic_base, (0,)), quartic_cokernel),
        (ring_module(elliptic_ring), ring_module(elliptic_ring)),
        (del_pezzo_g, free_module_of(del_pezzo_ring, (1,))),
    ]
    for source, target in cases:
        tb = truncation_bound(1, 0, target)
        window = range(0, 5)
        base = _ext_dims(1, 0, source, target, tb.r, window)
        for extra in (1, 2):
            assert _ext_dims(1, 0, source, target, tb.r + extra,
                             window) == base


def _property_lemma_vanishing(quartic_cokernel, elliptic_ring):
    """(d) H^m(N(v)) = 0 for v >= vanishingBound(m, N), m = 1..n."""
    for module, n in [(quartic_cokernel, 3),
                      (ring_module(elliptic_ring), 2)]:
        for m in range(1, n + 1):
            v0 = vanishing_bound(m, module)
            for v in range(v0, v0 + 3):
                assert sheaf_cohomology(m, twist(module, v))[0] == 0


def _property_pn_corollary():
    """(e) globalExt(m, M, N) = 0 for m = n+1, n+2 on 20 random pairs."""
    rng = random.Random(54)
    ring = Ring(P, ("x", "y", "z"))
    for _ in range(20):
        mods = []
        for _ in range(2):
            f = random_homogeneous(ring, rng.choice([1, 2]), rng)
            if f.is_zero():
                mods.append(ring_module(ring))
            else:
                rows = [[str(f)]]
                mods.append(cokernel(
                    GradedMatrix.from_entries(ring, rows, (0,))))
        M, N = mods
        for m in (3, 4):
            assert global_ext(m, M, N)[0] == 0


def _property_line_bundles(p2_ring):
    """(f) sheafCohomology on P^2 for O(v), v in [-5, 3], matches the
    classical monomial-count dimensions."""
    for v in range(-5, 4):
        L = line_bundle(p2_ring, v)
        for m in range(3):
            assert sheaf_cohomology(m, L)[0] == \
                projective_space_line_bundle(2, m, v), (m, v)
