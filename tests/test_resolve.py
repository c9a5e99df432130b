"""Free resolutions: minimality, exactness, Betti numbers, Hilbert series."""

import random

import pytest

from gext import (AlgebraError, Ring, betti_stats, cokernel, free_module_of,
                  free_resolution, hilbert_function, ring_module)
from gext.free import GradedMatrix
from gext.groebner import MINUS_INF

from oracles import hilbert_numerator, monomial_exponents

P = 32003


def test_quartic_betti_degrees(quartic_cokernel):
    """Minimal S-resolution of the rational quartic curve.

    Derived check: the alternating sum of the Hilbert numerator must
    vanish to order >= codim = 2 at t = 1, which forces four (not three)
    first syzygies: degrees {2,3,3,3}.
    """
    res = free_resolution(quartic_cokernel)
    table = betti_stats(res)
    assert table.degrees(0) == [0]
    assert table.degrees(1) == [2, 3, 3, 3]
    assert table.degrees(2) == [4, 4, 4, 4]
    assert table.degrees(3) == [5]
    assert table.pd == 3


def test_differentials_compose_to_zero(quartic_cokernel):
    res = free_resolution(quartic_cokernel)
    for i in range(len(res.differentials) - 1):
        assert res.differentials[i].compose(res.differentials[i + 1]).is_zero()


def test_resolution_is_minimal(quartic_cokernel):
    """No unit entries in any differential."""
    res = free_resolution(quartic_cokernel)
    for d in res.differentials:
        for i in range(d.target.rank):
            for j in range(d.source.rank):
                f = d.entry(i, j)
                if not f.is_zero():
                    assert f.degree() > 0


def test_quotient_ring_requires_cap(elliptic_ring):
    with pytest.raises(AlgebraError):
        free_resolution(ring_module(elliptic_ring))


def test_quotient_ring_capped_resolution(del_pezzo_g):
    res = free_resolution(del_pezzo_g, length_cap=3)
    assert len(res.differentials) <= 3
    for i in range(len(res.differentials) - 1):
        assert res.differentials[i].compose(res.differentials[i + 1]).is_zero()


def test_betti_extremes_conventions(quartic_cokernel):
    res = free_resolution(quartic_cokernel)
    table = betti_stats(res)
    assert table.max_degree(1) == 3
    assert table.max_degree(9) == MINUS_INF


def hilbert_from_numerator(numer, nvars, d):
    """Coefficient of t^d in numer / (1-t)^nvars."""
    from math import comb
    total = 0
    for a, c in numer.items():
        if d - a >= 0:
            total += c * comb(d - a + nvars - 1, nvars - 1)
    return total


def test_hilbert_series_identity_quartic(quartic_cokernel):
    res = free_resolution(quartic_cokernel)
    numer = hilbert_numerator(res)
    for d in range(8):
        assert hilbert_from_numerator(numer, 4, d) == \
            hilbert_function(quartic_cokernel, d)


def random_homogeneous(ring, degree, rng):
    nvars = len(ring.variables)
    f = ring.zero()
    for e in monomial_exponents(nvars, degree):
        c = rng.randrange(P)
        if c and rng.random() < 0.5:
            f = f + ring.monomial(e, c)
    return f


@pytest.mark.parametrize("seed", range(12))
def test_hilbert_series_identity_random(seed):
    """Alternating-sum identity for random graded modules over S."""
    rng = random.Random(31 + seed)
    nvars = rng.choice([2, 3])
    ring = Ring(P, tuple("xyz"[:nvars]))
    tgt_twists = tuple(rng.choice([0, 0, 1]) for _ in range(rng.choice([1, 2])))
    rows = []
    ncols = rng.choice([1, 2, 3])
    col_degs = [rng.choice([1, 2, 2, 3]) for _ in range(ncols)]
    for a in tgt_twists:
        row = []
        for cd in col_degs:
            f = random_homogeneous(ring, cd - a, rng)
            row.append(str(f))
        rows.append(row)
    try:
        mat = GradedMatrix.from_entries(ring, rows, tgt_twists,
                                        source_twists=tuple(col_degs))
    except AlgebraError:
        return
    module = cokernel(mat)
    res = free_resolution(module)
    numer = hilbert_numerator(res)
    for d in range(7):
        assert hilbert_from_numerator(numer, nvars, d) == \
            hilbert_function(module, d), f"degree {d}"


def test_free_module_resolves_instantly(p2_ring):
    F = free_module_of(p2_ring, (0, -2))
    res = free_resolution(F)
    assert res.length == 0
    assert res.complete
    assert sorted(res.free_modules[0].twists) == [-2, 0]
