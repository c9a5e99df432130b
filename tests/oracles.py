"""Independent test oracles: degreewise linear algebra over ZZ/p.

Everything here works on exponent tuples and dense coefficient matrices,
deliberately avoiding the Groebner engine so the two implementations can
check each other.  The one exception is `ext_dim`, which takes its free
resolution from `free_resolution` and certifies it with `assert_exact`
before it reads any Ext dimension off it.  `hilbert_numerator` and
`resolution_dim` read only the Betti degrees of a resolution they are
given.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from gext import cokernel, free_module_of, free_resolution


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


def echelon_mod_p(rows, p: int):
    """(reduced, pivots): the nonzero rows of the reduced row echelon form
    of an integer matrix over ZZ/p, and their pivot columns, left to
    right."""
    mat = np.array(rows, dtype=np.int64) % p
    nrows, ncols = mat.shape
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        below = np.nonzero(mat[rank:, col])[0]
        if not below.size:
            continue
        mat[[rank, rank + below[0]]] = mat[[rank + below[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), p - 2, p) % p
        others = np.nonzero(mat[:, col])[0]
        others = others[others != rank]
        if others.size:
            mat[others] = (mat[others]
                           - np.outer(mat[others, col], mat[rank])) % p
        pivots.append(col)
    return mat[:len(pivots)], pivots


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over ZZ/p (Gaussian elimination)."""
    if not rows:
        return 0
    return len(echelon_mod_p(rows, p)[1])


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


def component_space(module, d: int):
    """The degree-d part of module's cover and its relations, densely.

    Returns (index, rows): index maps (generator j, exponent tuple of
    degree d - a_j) to a column; rows span the monomial multiples of the
    presentation columns and, over a quotient ring, of f * e_j for
    quotient generators f.
    """
    ring = module.ring
    nvars = len(ring.variables)
    p = ring.p
    degs = module.generator_degrees
    index = {}
    for j, a in enumerate(degs):
        for e in monomial_exponents(nvars, d - a):
            index[(j, e)] = len(index)
    if not index:
        return index, []

    ctx = ring.ctx
    rows = []

    def add_multiples(col_data, col_degree):
        for mult in monomial_exponents(nvars, d - col_degree):
            row = [0] * len(index)
            for (j, m), c in col_data.items():
                k = index[(j, _exp_mul(tuple(ctx.decode(m)), mult))]
                row[k] = (row[k] + c) % p
            rows.append(row)

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
    return index, rows


def module_component_dim(module, d: int) -> int:
    """dim of degree-d component of a GradedModule, by dense linear algebra
    on `component_space`."""
    index, rows = component_space(module, d)
    if not index:
        return 0
    return len(index) - rank_mod_p(rows, module.ring.p)


def initial_module(gens, rels, ambient, d: int):
    """in(U)_d for U = span(gens) + span(rels) (+ I * ambient over S/I), as
    a set of (component, exponent tuple): the pivot columns of the row
    echelon form of the degree-d multiples of gens, rels and the quotient
    generators times each basis vector, with the columns sorted by
    ambient.term_key, largest first.  A pivot is the lead term of a row
    of U_d and every lead term of U_d is one, with no Groebner basis
    involved."""
    ring = ambient.ring
    ctx = ring.ctx
    nvars = len(ring.variables)
    terms = [(j, ctx.encode(e)) for j, a in enumerate(ambient.twists)
             for e in monomial_exponents(nvars, d - a)]
    terms.sort(key=lambda t: ambient.term_key(*t), reverse=True)
    index = {t: k for k, t in enumerate(terms)}
    rows = []
    quotient = [{(j, m): c for m, c in f.terms.items()}
                for f in ring.quotient for j in range(ambient.rank)]
    for data in [g.data for g in gens] + [r.data for r in rels] + quotient:
        if not data:
            continue
        j, m = next(iter(data))
        for mult in monomial_exponents(nvars, d - ambient.twists[j]
                                       - ctx.degree(m)):
            u = ctx.encode(mult)
            row = [0] * len(terms)
            for (i, mono), c in data.items():
                row[index[(i, ctx.mul(mono, u))]] = c
            rows.append(row)
    if not rows:
        return set()
    _, pivots = echelon_mod_p(rows, ring.p)
    return {(terms[k][0], tuple(ctx.decode(terms[k][1]))) for k in pivots}


def quotient_coordinates(module, k: int):
    """Coordinates on module_k: (index, standard, proj), where index is
    `component_space`'s column map of the cover's degree-k part, standard
    lists the columns off the pivots of the reduced echelon form of its
    relation rows (their terms lift a basis of module_k), and proj is the
    integer matrix taking cover coordinates to coordinates in that
    basis."""
    index, rows = component_space(module, k)
    p = module.ring.p
    reduced, pivots = (echelon_mod_p(rows, p) if rows
                       else (np.zeros((0, len(index)), dtype=np.int64), []))
    standard = sorted(set(range(len(index))) - set(pivots))
    proj = np.zeros((len(index), len(standard)), dtype=np.int64)
    proj[standard, range(len(standard))] = 1
    # v - v[pivots] . reduced is v's normal form, zero on the pivots
    proj[pivots] = (-reduced[:, standard]) % p
    return index, standard, proj


def image_dim(matrix, d: int) -> int:
    """dim_k of the degree-d part of the image of a GradedMatrix."""
    free = free_module_of(matrix.ring, matrix.target.twists)
    return (module_component_dim(free, d)
            - module_component_dim(cokernel(matrix), d))


def assert_exact(res, module, top_degree):
    """Certify a computed resolution F_{i+1} --d_i--> F_i of module: d_i .
    d_{i+1} = 0 exactly, coker d_0 has the Hilbert function of the module,
    and in every degree d <= top_degree, dim ker(d_i)_d = dim im(d_{i+1})_d
    (and ker d_last = 0 when the resolution is complete)."""
    diffs = res.differentials
    for i in range(len(diffs) - 1):
        assert diffs[i].compose(diffs[i + 1]).is_zero(), f"d_{i} d_{i + 1}"
    ring = module.ring
    for d in range(top_degree + 1):
        f0 = free_module_of(ring, res.free_modules[0].twists)
        im0 = image_dim(diffs[0], d) if diffs else 0
        assert module_component_dim(f0, d) - im0 == \
            module_component_dim(module, d), f"coker d_0 in degree {d}"
        for i in range(len(diffs)):
            src = free_module_of(ring, diffs[i].source.twists)
            kernel = module_component_dim(src, d) - image_dim(diffs[i], d)
            if i + 1 < len(diffs):
                assert kernel == image_dim(diffs[i + 1], d), \
                    f"ker d_{i} != im d_{i + 1} in degree {d}"
            elif res.complete:
                assert kernel == 0, f"last differential not injective ({d})"


@lru_cache(maxsize=16)
def certified_resolution(module, length_cap):
    """free_resolution(module, length_cap), certified by `assert_exact`
    through one degree past its largest Betti degree."""
    res = free_resolution(module, length_cap=length_cap)
    top = max((a for f in res.free_modules for a in f.twists), default=0)
    assert_exact(res, module, top + 1)
    return res


def _hom_rank(matrix, target, d: int) -> int:
    """Rank of Hom(matrix, N)_d: Hom(F, N)_d -> Hom(G, N)_d, phi ->
    phi . matrix, for matrix: G -> F, with Hom(F, N)_d the sum over the
    twists a of F of N_{d+a}, each lifted to the cover of N.  A lifted
    basis vector x^e n_g in the block of generator j of F goes to the sum
    over columns i of matrix[j, i] x^e n_g in block i of G; the rank is
    that of those images modulo the relations of the blocks of G."""
    p = target.ring.p
    decode = target.ring.ctx.decode
    spaces = [component_space(target, d + b) for b in matrix.source.twists]
    width = sum(len(index) for index, _ in spaces)
    if not width:
        return 0
    blocks, rel_rows, offset = [], [], 0
    for index, rows in spaces:
        blocks.append((offset, index))
        rel_rows += [[0] * offset + r + [0] * (width - offset - len(r))
                     for r in rows]
        offset += len(index)
    # per row j of matrix: {column i: [(exponents, coefficient)]}
    entries = [{} for _ in matrix.target.twists]
    for i, col in enumerate(matrix.columns):
        for (j, m), c in col.data.items():
            entries[j].setdefault(i, []).append((tuple(decode(m)), c))
    image = []
    for j, a in enumerate(matrix.target.twists):
        index, _ = component_space(target, d + a)
        for (g, e) in index:
            row = [0] * width
            for i, terms in entries[j].items():
                base, block = blocks[i]
                for mono, c in terms:
                    k = base + block[(g, _exp_mul(e, mono))]
                    row[k] = (row[k] + c) % p
            image.append(row)
    return rank_mod_p(image + rel_rows, p) - rank_mod_p(rel_rows, p)


def ext_dim(m: int, module, target, d: int) -> int:
    """dim_k Ext^m(module, target)_d as the homology at Hom(F_m, N)_d of
    Hom(F_., N)_d, where Hom(F_k, N)_d is the sum over the twists a of F_k
    of N_{d+a} and F is `certified_resolution(module, m + 1)`."""
    res = certified_resolution(module, m + 1)
    if m >= len(res.free_modules):
        return 0
    diffs = res.differentials
    cochains = sum(module_component_dim(target, d + a)
                   for a in res.free_modules[m].twists)
    out_rank = _hom_rank(diffs[m], target, d) if m < len(diffs) else 0
    in_rank = _hom_rank(diffs[m - 1], target, d) if m >= 1 else 0
    return cochains - out_rank - in_rank


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


def koszul_betti(degrees) -> dict:
    """Betti table {(i, a): b} of S/(f_1..f_c) for a regular sequence of
    forms of the given degrees: the Koszul complex."""
    out = {}
    for i in range(len(degrees) + 1):
        for subset in combinations(degrees, i):
            key = (i, sum(subset))
            out[key] = out.get(key, 0) + 1
    return out


def hilbert_from_betti(entries: dict, nvars: int, d: int) -> int:
    """HF(d) of a module from its graded Betti numbers over S; 0 for d
    below every shift."""
    from math import comb
    return sum((-1) ** i * b * comb(d - a + nvars - 1, nvars - 1)
               for (i, a), b in entries.items() if d - a >= 0)


def complete_intersection_cohomology(degrees, n: int, q: int, v: int) -> int:
    """dim H^q(X, O_X(v)) for a complete intersection X in P^n cut out by
    forms of the given degrees, dim X = n - c >= 1 (Hartshorne III Ex. 5.5):
    h^0 is HF(S/I, v), h^q vanishes for 0 < q < dim X, and by Serre
    duality with omega_X = O_X(sum d_i - n - 1),
    h^{dim X}(O_X(v)) = HF(S/I, sum d_i - n - 1 - v)."""
    betti = koszul_betti(degrees)
    dim = n - len(degrees)
    if q == 0:
        return hilbert_from_betti(betti, n + 1, v)
    if q == dim:
        return hilbert_from_betti(betti, n + 1, sum(degrees) - n - 1 - v)
    return 0


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


def hilbert_numerator(resolution) -> dict:
    """Numerator of the Hilbert series over (1-t)^nvars, as degree->coeff.

    Valid for complete resolutions over the base polynomial ring.
    """
    out: dict[int, int] = {}
    sign = 1
    for f in resolution.free_modules:
        for a in f.twists:
            out[a] = out.get(a, 0) + sign
        sign = -sign
    return {e: c for e, c in out.items() if c}


def resolution_dim(resolution):
    """Krull dimension of the resolved module; -inf for zero.

    nvars minus the vanishing order at t=1 of the Hilbert numerator, so
    valid where `hilbert_numerator` is.
    """
    coeffs = hilbert_numerator(resolution)
    if not coeffs:
        return float("-inf")
    order = 0
    while sum(coeffs.values()) == 0:
        # p(t) = (1 - t) q(t) with q_e = sum_{k <= e} p_k
        quotient: dict[int, int] = {}
        acc = 0
        for e in range(min(coeffs), max(coeffs) + 1):
            acc += coeffs.get(e, 0)
            if acc:
                quotient[e] = acc
        coeffs = quotient
        order += 1
    return resolution.module.ring.nvars - order
