"""Hom and Ext modules, and extraction of honest homomorphisms."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gext import (AlgebraError, NotHomogeneous, Ring, cokernel, ext_module,
                  free_module_of, groebner_basis, hilbert_function, hom_module,
                  homomorphism_from, prune, ring_module, truncate_module)
from gext.gmod import direct_sum
from gext import homext
from gext.free import FreeModule, GradedMatrix, ModuleElement
from gext.groebner import syzygies
from gext.homext import ext_at_least, hom_of_free
from gext.sheafext import (cotangent_module, global_ext_sum,
                           truncation_bound)

from oracles import monomial_exponents, quotient_coordinates, rank_mod_p

P = 32003


def test_hom_free_to_module_is_module(quartic_base, quartic_cokernel):
    """Hom(S, N) = N degreewise."""
    Sfree = free_module_of(quartic_base, (0,))
    h = hom_module(Sfree, quartic_cokernel)
    for d in range(5):
        assert hilbert_function(h.underlying, d) == \
            hilbert_function(quartic_cokernel, d)


def test_hom_twisted_free_shifts(quartic_base, quartic_cokernel):
    """Hom(S(-a), N) = N(a)."""
    F = free_module_of(quartic_base, (2,))
    h = hom_module(F, quartic_cokernel)
    for d in range(4):
        assert hilbert_function(h.underlying, d) == \
            hilbert_function(quartic_cokernel, d + 2)


def test_hom_endomorphisms_of_hypersurface_point():
    """Hom(S/x, S/x) = S/x over k[x,y]."""
    ring = Ring(P, ("x", "y"))
    m = cokernel(GradedMatrix.from_entries(ring, [["x"]], (0,)))
    h = hom_module(m, m)
    for d in range(4):
        assert hilbert_function(h.underlying, d) == hilbert_function(m, d)


def test_ext_of_free_module_vanishes(quartic_base, quartic_cokernel):
    e = ext_module(1, free_module_of(quartic_base, (0,)), quartic_cokernel)
    assert e.underlying.is_zero()


def test_ext_negative_index_is_zero(quartic_base, quartic_cokernel):
    e = ext_module(-1, quartic_cokernel, quartic_cokernel)
    assert e.underlying.is_zero()


def test_ext_zero_is_hom(quartic_base, quartic_cokernel):
    h = hom_module(quartic_cokernel, quartic_cokernel)
    e = ext_module(0, quartic_cokernel, quartic_cokernel)
    for d in range(4):
        assert hilbert_function(h.underlying, d) == \
            hilbert_function(e.underlying, d)


def test_quartic_truncation_ext_sharpness(quartic_base, quartic_cokernel):
    """The sharpness witness: Ext^1(S_{>=2}, N) vanishes in degrees >= 0,
    Ext^1(S_{>=1}, N) has a 4-dimensional degree-0 socle piece."""
    Sfree = free_module_of(quartic_base, (0,))
    N = quartic_cokernel

    e2 = ext_module(1, truncate_module(Sfree, 2), N)
    p2, _ = prune(truncate_module(e2.underlying, 0))
    assert p2.is_zero()

    e1 = ext_module(1, truncate_module(Sfree, 1), N)
    p1, _ = prune(truncate_module(e1.underlying, 0))
    assert p1.generator_degrees == (0, 0, 0, 0)
    assert hilbert_function(p1, 0) == 4
    # annihilated by the maximal ideal: nothing in degree >= 1
    for d in range(1, 4):
        assert hilbert_function(p1, d) == 0


def test_homomorphism_from_identity_coords():
    """Hom(M, M) contains the identity; extract and verify it."""
    ring = Ring(P, ("x", "y"))
    m = cokernel(GradedMatrix.from_entries(ring, [["x"]], (0,)))
    h = hom_module(m, m)
    # find coordinates of a degree-0 generator
    degs = h.underlying.generator_degrees
    assert 0 in degs
    coords = [1 if d == 0 else 0 for d in degs]
    f = homomorphism_from(h, coords)
    assert f.degree == 0
    # identity up to scalar: f applied to the generator is a unit multiple
    col = f.matrix.columns[0]
    assert not col.is_zero()
    assert col.degree() == 0


def test_homomorphism_from_rejects_inhomogeneous():
    ring = Ring(P, ("x", "y"))
    h = hom_module(free_module_of(ring, (0,)), free_module_of(ring, (0, -1)))
    degs = h.underlying.generator_degrees
    assert len(set(degs)) == 2
    coords = [1] * len(degs)
    with pytest.raises(NotHomogeneous):
        homomorphism_from(h, coords)


def test_homomorphism_from_wrong_arity():
    ring = Ring(P, ("x", "y"))
    m = cokernel(GradedMatrix.from_entries(ring, [["x"]], (0,)))
    h = hom_module(m, m)
    with pytest.raises(AlgebraError):
        homomorphism_from(h, [1, 2, 3, 4, 5, 6, 7])


def test_ext_over_quotient_ring_nonzero(elliptic_ring):
    """Ext^1_R(k, R) over the elliptic cone is nonzero (R not regular)."""
    R = elliptic_ring
    k = cokernel(GradedMatrix.from_entries(R, [["x", "y", "z"]], (0,)))
    e = ext_module(2, k, ring_module(R))
    # over a hypersurface ring the residue field has infinite pd; Ext^2 != 0
    assert not e.underlying.is_zero()


def test_hom_composition_dimension_count(del_pezzo_g):
    """dim Hom(G, G)_0 >= 1 (identity exists)."""
    h = hom_module(del_pezzo_g, del_pezzo_g)
    assert hilbert_function(h.underlying, 0) >= 1


def _random_element(ambient, degree, rng):
    """Random homogeneous element of `ambient` in `degree` (possibly zero)."""
    ring = ambient.ring
    data = {}
    for j, a in enumerate(ambient.twists):
        for e in monomial_exponents(len(ring.variables), degree - a):
            c = rng.randrange(P)
            if c and rng.random() < 0.5:
                data[(j, ring.ctx.encode(e))] = c
    return ModuleElement(ambient, data).reduced()


def _hom_of_free_case(seed, quotient):
    """(ring, rels, N, F, rng): N the cokernel of seeded relations on one
    or two generators, F a free module of rank 1-3, and the generator that
    drew them."""
    rng = random.Random(700 + seed)
    ring = Ring(P, ("x", "y", "z"), quotient=list(quotient))
    ncover = FreeModule(ring, (0, rng.choice([0, 1])))
    rels = [_random_element(ncover, rng.choice([2, 3]), rng)
            for _ in range(3)]
    rels = [r for r in rels if not r.is_zero()]
    assert rels
    N = cokernel(GradedMatrix(
        FreeModule(ring, tuple(r.degree() for r in rels)), ncover, rels,
        check=False))
    F = FreeModule(ring, tuple(rng.choice([-1, 0, 1, 2])
                               for _ in range(rng.randint(1, 3))))
    return ring, rels, N, F, rng


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_hom_of_free_basis_is_block_copies(seed, quotient):
    """The relation basis hom_of_free builds from block copies of N's is
    the reduced Groebner basis a Buchberger run computes from Hom's
    relations, the block copies of N's relations: the same cover, the same
    lead terms and the same normal forms.  Its elements are N's basis
    elements shifted block by block."""
    ring, rels, N, F, rng = _hom_of_free_case(seed, quotient)
    ncover = N.cover
    cover, blocks = hom_of_free(F, N)
    assert cover == FreeModule(ring, tuple(b - a for a in F.twists
                                           for b in ncover.twists))
    nb = ncover.rank
    block_rels = [ModuleElement(cover, {(k * nb + i, m): c
                                        for (i, m), c in r.data.items()})
                  for k in range(F.rank) for r in rels]
    computed = groebner_basis(block_rels, cover)
    assert list(blocks) == [
        ModuleElement(cover, {(k * nb + i, m): c for (i, m), c in e.data.items()})
        for k in range(F.rank) for e in N.relations_gb()]
    assert sorted(blocks.lead_terms()) == sorted(computed.lead_terms())
    for _ in range(6):
        v = _random_element(cover, rng.randint(1, 5), rng)
        assert blocks.reduce(v).data == computed.reduce(v).data


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_block_copies_share_entries(seed, quotient):
    """A divisor entry stores its tail's components as offsets from its
    own, so hom_of_free's block copies hold N's own entry objects, block
    by block, and every component of every index begins with the ring's
    one list of quotient entries: in N's basis, in the block copies, and
    in a Groebner basis computed modulo them."""
    ring, _, N, F, _ = _hom_of_free_case(seed, quotient)
    cover, blocks = hom_of_free(F, N)
    nb, nq = N.cover.rank, len(ring.quotient_groebner())
    own = N.relations_gb()._index
    for k in range(F.rank):
        for i in range(nb):
            copied, entries = blocks._index[k * nb + i][nq:], own[i][nq:]
            assert len(copied) == len(entries)
            assert all(a is b for a, b in zip(copied, entries))
    rng = random.Random(7700 + seed)
    gens = [_random_element(cover, rng.choice([2, 3]), rng) for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    modulo = groebner_basis(gens, cover, rels=blocks)
    shared = ring.quotient_groebner()
    assert len(shared) == nq
    for index in (own, blocks._index, modulo._index):
        assert index
        for entries in index.values():
            assert all(a is b for a, b in zip(entries[:nq], shared))


def test_shared_divisor_lists_are_never_written_through():
    """Divisor indexes share component lists copy-on-write: a run's index
    and block_copies hold the relation basis's own lists, and a missing
    component holds the ring's quotient list itself, until the first
    append copies it.  On the twisted cubic, global_ext_sum(1, 0, R,
    Omega) and hom_module(Omega, R) run many engines over Omega's relation
    basis and the quotient divisors; afterwards both hold the same entry
    objects, with the same fields, in the same order.  block_copies(.., 2)
    holds Omega's component lists themselves, block by block."""
    ring = Ring(P, ("w", "x", "y", "z"),
                quotient=["w*y - x^2", "w*z - x*y", "x*z - y^2"])
    omega = cotangent_module(ring)[0]
    gb = omega.relations_gb()
    nb = omega.cover.rank

    def snapshot():
        lists = [ring.quotient_groebner()] + [gb._index[c] for c in range(nb)]
        return [[(e, list(e)) for e in entries] for entries in lists]

    before = snapshot()
    assert ring.quotient_groebner() and len(before[1]) > len(before[0])
    R = ring_module(ring)
    ext = global_ext_sum(1, 0, R, omega)
    assert [hilbert_function(ext, d) for d in range(2)] == [1, 0]
    hom_module(omega, R)
    after = snapshot()
    assert len(after) == len(before)
    for old, new in zip(before, after):
        assert len(new) == len(old)
        assert all(a is b and fa == fb for (a, fa), (b, fb) in zip(old, new))
    cover = FreeModule(ring, omega.cover.twists * 2)
    blocks = gb.block_copies(cover, 2)
    for k in range(2):
        for i in range(nb):
            assert blocks._index[k * nb + i] is gb._index[i]


def test_raise_reads_a_zero_generator_degree_in_the_cover():
    """M = R(-2) + R/(x), N = R, m = 0: the row of d_1 for the free summand
    is zero, so the kernel run gets a zero generator and emits its basis
    vector, of twist 0 in the syzygy matrix but -2 in the cover of
    Hom(F_0, N).  Raised to degree 0 it gives the 6 quadrics: Ext^0_{>=0}
    = Hom(M, R)_{>=0} = R(2)_{>=0}, generated in degree 0."""
    ring = Ring(P, ("x", "y", "z"))
    cover = FreeModule(ring, (2, 0))
    rel = ModuleElement(cover, {(1, ring.ctx.variable(0)): 1})
    M = cokernel(GradedMatrix(FreeModule(ring, (1,)), cover, [rel]))
    ext = ext_at_least(0, 0, M, ring_module(ring))
    assert ext.generator_degrees == (0,) * 6
    assert [hilbert_function(ext, d) for d in range(-2, 3)] == \
        [0, 0, 6, 10, 15]


@pytest.mark.parametrize("quotient", [(), ("x^3 + y^3 - z^3",)])
@pytest.mark.parametrize("seed", range(3))
def test_raise_with_a_free_summand(seed, quotient):
    """M = R(-a) + N' for seeded N', so the kernel runs of Ext^0 and
    Ext^1 get zero generators: Ext^m(M, N)_{>=low} has every generator in
    degree >= low, is zero below low, and agrees with Ext^m(M, N) from
    low up."""
    ring, _, N, F, _ = _hom_of_free_case(seed, quotient)
    rng = random.Random(7800 + seed)
    M = direct_sum(free_module_of(ring, (rng.choice([1, 2]),)), N)
    for m in (0, 1):
        full = ext_module(m, M, N).underlying
        for low in (0, 1):
            ext = ext_at_least(m, low, M, N)
            assert all(d >= low for d in ext.generator_degrees), (m, low)
            for d in range(low - 3, low + 3):
                want = hilbert_function(full, d) if d >= low else 0
                assert hilbert_function(ext, d) == want, (m, low, d)


def test_shared_quotient_divisors_stay_pristine(quartic_ring):
    """Every divisor index begins each of its components with the ring's
    one list of quotient divisors, shared until its first append copies
    it, so no engine run may change them: after Ext computations over the rational quartic,
    the cached list equals the entries of a fresh groebner_basis of the
    quotient ideal in the base ring, with every tail term of the flat
    tuple (off, mono, coeff, ...) at offset 0 from its entry's
    component."""
    R = ring_module(quartic_ring)
    for r in (1, 2):
        ext_module(1, truncate_module(R, r), R)
    cached = quartic_ring._quotient_gb
    assert cached is quartic_ring.quotient_groebner()
    base = FreeModule(quartic_ring.base, (0,))
    fresh = groebner_basis(
        [ModuleElement(base, {(0, m): c for m, c in f.terms.items()})
         for f in quartic_ring.quotient], ambient=base)
    assert cached == fresh._index[0]
    assert all(tail[0::3] == (0,) * (len(tail) // 3) and track is None
               and sig is None for _, tail, track, sig in cached)


def test_known_kernel_shrinks_the_hom_kernel_run(monkeypatch, quartic_ring):
    """On the rational quartic's Omega side, ext_at_least(1, 0, R_{>=r},
    Omega), the kernel run of _homology is given the known kernel K0 (the
    relations of Hom(F_1, Omega) plus the image of Hom(d_1, Omega)) as
    known syzygies.  It emits strictly fewer columns than the same run
    with known=(), none of them reduces to zero modulo K0, and the two
    sets of columns span the same module modulo K0."""
    runs = []

    def spy(gens, **kwargs):
        runs.append((list(gens), kwargs))
        return syzygies(gens, **kwargs)

    R = ring_module(quartic_ring)
    omega = cotangent_module(quartic_ring)[0]
    source = truncate_module(R, truncation_bound(1, 0, omega).r)
    monkeypatch.setattr(homext, "syzygies", spy)
    assert not ext_at_least(1, 0, source, omega).is_zero()
    (gens, kwargs), = runs
    known = kwargs["known"]
    cover = known.ambient
    seeded = syzygies(gens, **kwargs).columns
    plain = syzygies(gens, **dict(kwargs, known=())).columns
    assert len(seeded) < len(plain)
    seeded = [ModuleElement(cover, c.data) for c in seeded]
    plain = [ModuleElement(cover, c.data) for c in plain]
    assert not any(known.contains(c) for c in seeded)
    with_seeded = groebner_basis(seeded, cover, rels=known)
    with_plain = groebner_basis(plain, cover, rels=known)
    assert all(with_seeded.contains(c) for c in plain)
    assert all(with_plain.contains(c) for c in seeded)


def test_hom_kernel_columns_and_k0_give_the_initial_module(monkeypatch,
                                                          quartic_ring):
    """On the rational quartic's Omega side, the columns of _homology's
    kernel run and the leads of K0 generate in(ker) in degrees -2..0 (the
    columns' degrees and the next), against dense linear algebra on bases
    of the components of Omega, with no Groebner basis.  ker is the
    preimage in the cover E of Hom(F_1, Omega) of the kernel of
    Hom(d_1, Omega); every column and every element of K0 of degree <= 0
    maps to zero in Hom(F_2, Omega), so the terms of degree d that those
    leads divide lie in in(ker)_d, and they are as many as
    dim ker_d = dim E_d - rank Hom(d_1, Omega)_d."""
    runs = []

    def spy(gens, **kwargs):
        runs.append((list(gens), kwargs))
        return syzygies(gens, **kwargs)

    R = ring_module(quartic_ring)
    omega = cotangent_module(quartic_ring)[0]
    source = truncate_module(R, truncation_bound(1, 0, omega).r)
    monkeypatch.setattr(homext, "syzygies", spy)
    ext_at_least(1, 0, source, omega)
    (gens, kwargs), = runs
    known, target = kwargs["known"], kwargs["ambient"]
    cover = known.ambient
    columns = syzygies(gens, **kwargs).columns
    ctx = quartic_ring.ctx
    nb = omega.cover.rank
    spaces, coordinates = {}, {}

    def omega_coordinates(k):
        if k not in coordinates:
            coordinates[k] = quotient_coordinates(omega, k)
        return coordinates[k]

    def image(element):
        """Coordinates in Hom(F_2, Omega) of the image of an element of E,
        block by block of the generators of F_2."""
        data = {}
        for (j, m), c in element.data.items():
            for (i, gm), gc in gens[j].data.items():
                key = (i, ctx.mul(gm, m))
                data[key] = (data.get(key, 0) + c * gc) % P
        e = element.degree()
        if e not in spaces:     # per block: offset and coordinates
            spaces[e], offset = [], 0
            for block in range(target.rank // nb):
                k = (e + omega.generator_degrees[0]
                     - target.twists[block * nb])
                index, _, proj = omega_coordinates(k)
                spaces[e].append((offset, index, proj))
                offset += proj.shape[1]
            spaces[e].append((offset, None, None))
        blocks = {}
        for (i, m), c in data.items():
            blocks.setdefault(i // nb, []).append((i % nb, ctx.decode(m), c))
        out = np.zeros(spaces[e][-1][0], dtype=np.int64)
        for block, entries in blocks.items():
            offset, index, proj = spaces[e][block]
            lift = np.zeros(len(index), dtype=np.int64)
            for i, exps, c in entries:
                lift[index[(i, exps)]] = c
            out[offset:offset + proj.shape[1]] = lift @ proj % P
        return out

    in_ker = list(columns) + [k for k in known if k.degree() <= 0]
    assert all(not image(k).any() for k in in_ker)
    leads = [known.divisor_leads(j) for j in range(cover.rank)]
    for c in columns:
        (j, m), _ = c.lead_term()
        leads[j].append(m)
    for d in (-2, -1, 0):
        terms = [(j, e) for j, a in enumerate(cover.twists)
                 for e in monomial_exponents(4, d - a)]
        divided = sum(any(ctx.divides(m, ctx.encode(e)) for m in leads[j])
                      for j, e in terms)
        # E_d maps onto Hom(F_1, Omega)_d: the rank of Hom(d_1, Omega)_d
        # is that of the images of the lifts of bases of its blocks
        rows = []
        for block in range(cover.rank // nb):
            shift = omega.generator_degrees[0] - cover.twists[block * nb]
            index, standard, _ = omega_coordinates(d + shift)
            inverse = {k: t for t, k in index.items()}
            for k in standard:
                i, e = inverse[k]
                lift = ModuleElement(cover, {(block * nb + i,
                                              ctx.encode(e)): 1})
                rows.append(image(lift))
        assert divided == len(terms) - rank_mod_p(rows, P), d


KERNEL_COLUMNS = """
from gext import Ring, homext, ring_module, truncate_module
from gext.groebner import syzygies
from gext.sheafext import cotangent_module, truncation_bound

ring = Ring(32003, ("w", "x", "y", "z"), quotient=[
    "x*y - w*z", "y^3 - x*z^2", "w*y^2 - x^2*z", "x^3 - w^2*y"])
omega = cotangent_module(ring)[0]
source = truncate_module(ring_module(ring), truncation_bound(1, 0, omega).r)
runs = []


def spy(gens, **kwargs):
    runs.append(syzygies(gens, **kwargs))
    return runs[-1]


homext.syzygies = spy
homext.ext_at_least(1, 0, source, omega)
for column in runs[0].columns:
    print(list(column.data.items()))
"""


def test_hom_kernel_columns_do_not_depend_on_the_hash_seed():
    """The columns of the rational quartic's Omega-side kernel run, term
    for term and in order, are the same in two processes with different
    string hash seeds: the signature run's heap orders by integers, and
    its containers iterate in insertion order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", KERNEL_COLUMNS], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) > 100
