"""Independent test oracles: degreewise linear algebra over ZZ/p.

Everything here works on exponent tuples and dense coefficient matrices,
deliberately avoiding the Groebner engine so the two implementations can
check each other.
"""

from itertools import combinations_with_replacement

import numpy as np


def monomial_exponents(nvars: int, d: int):
    """All exponent tuples of total degree d, in a fixed order."""
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def poly_exponents(poly):
    """A polynomial as {exponent tuple: coefficient}."""
    ctx = poly.ring.ctx
    return {tuple(ctx.decode(m)): c for m, c in poly.terms.items()}


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over ZZ/p (plain Gaussian elimination)."""
    if not rows:
        return 0
    mat = np.array(rows, dtype=np.int64) % p
    nrows, ncols = mat.shape
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if mat[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        inv = pow(int(mat[rank, col]), p - 2, p)
        mat[rank] = (mat[rank] * inv) % p
        for r in range(nrows):
            if r != rank and mat[r, col]:
                mat[r] = (mat[r] - mat[r, col] * mat[rank]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def solve_mod_p(rows, rhs, p: int):
    """One solution x of rows^T . x = rhs over ZZ/p, or None.

    rows are the spanning vectors; returns coefficients if rhs is in
    their span.
    """
    if not rows:
        return None if any(v % p for v in rhs) else []
    a = (np.array(rows, dtype=np.int64) % p).T  # columns are the vectors
    b = np.array(rhs, dtype=np.int64) % p
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    n, k = a.shape
    pivots = []
    rank = 0
    for col in range(k):
        pivot = None
        for r in range(rank, n):
            if aug[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        aug[[rank, pivot]] = aug[[pivot, rank]]
        inv = pow(int(aug[rank, col]), p - 2, p)
        aug[rank] = (aug[rank] * inv) % p
        for r in range(n):
            if r != rank and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[rank]) % p
        pivots.append(col)
        rank += 1
    for r in range(rank, n):
        if aug[r, k] % p:
            return None
    x = [0] * k
    for r, col in enumerate(pivots):
        x[col] = int(aug[r, k])
    return x


def _exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ideal_span_rows(polys, nvars: int, d: int):
    """Dense degree-d coefficient rows spanning the ideal generated by polys."""
    basis = monomial_exponents(nvars, d)
    index = {e: i for i, e in enumerate(basis)}
    rows = []
    for poly in polys:
        terms = poly_exponents(poly)
        if not terms:
            continue
        deg = sum(next(iter(terms)))
        for mult in monomial_exponents(nvars, d - deg):
            row = [0] * len(basis)
            for e, c in terms.items():
                row[index[_exp_mul(e, mult)]] = c
            rows.append(row)
    return rows, basis


def ideal_component_dim(polys, nvars: int, d: int, p: int) -> int:
    rows, _ = ideal_span_rows(polys, nvars, d)
    return rank_mod_p(rows, p)


def ideal_contains(polys, f, nvars: int, d: int, p: int) -> bool:
    """Degree-d membership of homogeneous f by linear algebra."""
    rows, basis = ideal_span_rows(polys, nvars, d)
    index = {e: i for i, e in enumerate(basis)}
    rhs = [0] * len(basis)
    for e, c in poly_exponents(f).items():
        rhs[index[e]] = c
    return solve_mod_p(rows, rhs, p) is not None


def quotient_hilbert(polys, nvars: int, d: int, p: int) -> int:
    """dim_k (S/ideal)_d."""
    total = len(monomial_exponents(nvars, d))
    return total - ideal_component_dim(polys, nvars, d, p)


def module_component_dim(module, d: int) -> int:
    """dim of degree-d component of a GradedModule, by dense linear algebra.

    Ambient basis: (generator j, monomial of degree d - a_j); the relation
    span includes all monomial multiples of the presentation columns and,
    over a quotient ring, of f * e_j for quotient generators f.
    """
    ring = module.ring
    nvars = len(ring.variables)
    p = ring.p
    degs = module.generator_degrees
    blocks = []
    offset = 0
    offsets = []
    for a in degs:
        monos = monomial_exponents(nvars, d - a)
        offsets.append((offset, {e: i for i, e in enumerate(monos)}))
        offset += len(monos)
        blocks.append(monos)
    total = offset
    if total == 0:
        return 0

    def element_row(data):
        # data: {(component, exponent tuple): coeff}
        row = [0] * total
        for (j, e), c in data.items():
            base, index = offsets[j]
            row[base + index[e]] = c
        return row

    ctx = ring.ctx
    rows = []

    def add_multiples(col_data, col_degree):
        for mult in monomial_exponents(nvars, d - col_degree):
            shifted = {}
            for (j, m), c in col_data.items():
                e = _exp_mul(tuple(ctx.decode(m)), mult)
                shifted[(j, e)] = (shifted.get((j, e), 0) + c) % p
            rows.append(element_row(shifted))

    for col in module.relations:
        if col.is_zero():
            continue
        add_multiples(dict(col.data), col.degree())
    if ring.is_quotient:
        for f in ring.quotient:
            fdeg = f.degree()
            for j, a in enumerate(degs):
                data = {(j, m): c for m, c in f.terms.items()}
                add_multiples(data, fdeg + a)
    return total - rank_mod_p(rows, p)


def projective_space_line_bundle(n: int, m: int, v: int) -> int:
    """dim H^m(P^n, O(v)) from monomial counts (the classical pattern)."""
    from math import comb
    if m == 0:
        return comb(n + v, n) if v >= 0 else 0
    if m == n:
        return comb(-v - 1, n) if -v - 1 >= n else 0
    return 0


def projective_space_cotangent(n: int, q: int, d: int) -> int:
    """dim H^q(P^n, Omega^1(d)) by Bott's formula."""
    from math import comb
    if q == 0:
        return comb(d + n - 1, d) * (d - 1) if d >= 2 else 0
    if q == n:
        return (1 - d) * comb(-d - 1, n - 1) if d <= -n else 0
    return 1 if (q, d) == (1, 0) else 0


def hilbert_polynomial(betti_entries: dict, n: int, v: int) -> int:
    """P_N(v) from the Betti numbers {(i, a): b} of a free resolution of N
    over S = k[x_0..x_n]: sum (-1)^i b binom(v - a + n, n), the binomial
    taken as a polynomial in v, so it is right for every v."""
    from math import factorial
    total = 0
    for (i, a), b in betti_entries.items():
        t = v - a + n
        prod = 1
        for k in range(n):
            prod *= t - k
        total += (-1) ** i * b * (prod // factorial(n))
    return total
