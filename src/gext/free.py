"""Graded free modules, their elements, and degree-annotated matrices.

A free module is a twist vector (a_j): the module is +_j R(-a_j), so the
j-th basis vector sits in degree a_j.  Elements are sparse dicts from
(component, packed monomial) to nonzero residues.  The module term order
is degree first (twists folded in), then basis-vector index (earlier
components win), then grevlex on the monomial; it is Schreyer-compatible
and deterministic.
"""

from __future__ import annotations

from .ring import AlgebraError, NotHomogeneous, Polynomial, Ring, RingMismatch


class FreeModule:
    __slots__ = ("ring", "twists")

    def __init__(self, ring: Ring, twists):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def __eq__(self, other):
        return (isinstance(other, FreeModule) and self.ring == other.ring
                and self.twists == other.twists)

    def __hash__(self):
        return hash((self.ring, self.twists))

    def __repr__(self):
        return f"FreeModule({self.ring!r}, {self.twists})"

    def zero_element(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def basis_element(self, j: int) -> "ModuleElement":
        if not 0 <= j < self.rank:
            raise AlgebraError(f"no basis vector {j} in rank-{self.rank} module")
        return ModuleElement(self, {(j, self.ring.ctx.one): 1})

    def term_key(self, comp: int, mono: int):
        """Sort key: bigger key = bigger term."""
        return (self.ring.ctx.degree(mono) + self.twists[comp], -comp, mono)


class ModuleElement:
    __slots__ = ("ambient", "data")

    def __init__(self, ambient: FreeModule, data: dict):
        self.ambient = ambient
        self.data = data

    def is_zero(self) -> bool:
        return not self.data

    def component(self, j: int) -> Polynomial:
        ring = self.ambient.ring
        return Polynomial(ring, {m: c for (k, m), c in self.data.items() if k == j},
                          reduced=True)

    def components(self):
        return [self.component(j) for j in range(self.ambient.rank)]

    def degree(self):
        """Homogeneous degree (twists included), None if mixed or zero:
        the first term's, unless a later term has another."""
        shift = self.ambient.ring.ctx.degshift
        tw = self.ambient.twists
        d = None
        for j, m in self.data:
            e = (m >> shift) + tw[j]
            if d is None:
                d = e
            elif e != d:
                return None
        return d

    def is_homogeneous(self) -> bool:
        return not self.data or self.degree() is not None

    def lead_term(self):
        """((component, monomial), coeff) of the greatest term."""
        if not self.data:
            raise AlgebraError("zero element has no lead term")
        key = self.ambient.term_key
        cm = max(self.data, key=lambda t: key(*t))
        return cm, self.data[cm]

    def _check(self, other: "ModuleElement"):
        if self.ambient != other.ambient:
            raise RingMismatch("elements of different free modules")

    def __add__(self, other: "ModuleElement"):
        self._check(other)
        p = self.ambient.ring.p
        out = dict(self.data)
        for k, c in other.data.items():
            nc = (out.get(k, 0) + c) % p
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return ModuleElement(self.ambient, out)

    def __neg__(self):
        p = self.ambient.ring.p
        return ModuleElement(self.ambient, {k: p - c for k, c in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "ModuleElement":
        p = self.ambient.ring.p
        c %= p
        if not c:
            return self.ambient.zero_element()
        return ModuleElement(self.ambient, {k: (c * v) % p for k, v in self.data.items()})

    def poly_mul(self, f) -> "ModuleElement":
        """Multiply by a ring element."""
        ring = self.ambient.ring
        f = ring.polynomial(f)
        ctx = ring.ctx
        p = ring.p
        out: dict = {}
        for (j, m), c in self.data.items():
            for fm, fc in f.terms.items():
                k = (j, ctx.mul(m, fm))
                nc = (out.get(k, 0) + c * fc) % p
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        return ModuleElement(self.ambient, out)

    def monomial_mul(self, mono: int, coeff: int = 1) -> "ModuleElement":
        ctx = self.ambient.ring.ctx
        p = self.ambient.ring.p
        coeff %= p
        return ModuleElement(
            self.ambient,
            {(j, ctx.mul(m, mono)): (c * coeff) % p for (j, m), c in self.data.items()})

    def reduced(self) -> "ModuleElement":
        """Reduce every component modulo the quotient ideal."""
        ring = self.ambient.ring
        if not ring.is_quotient:
            return self
        from .groebner import DivisorIndex, normal_form_terms
        return ModuleElement(self.ambient, normal_form_terms(
            self.ambient, DivisorIndex(ring), self.data, None))

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.ambient == other.ambient
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ambient, frozenset(self.data.items())))

    def __bool__(self):
        return bool(self.data)

    def __str__(self):
        return "(" + ", ".join(str(f) for f in self.components()) + ")"

    __repr__ = __str__


class GradedMatrix:
    """Matrix of homogeneous forms between graded free modules.

    Stored column-major: column j is an element of `target`, homogeneous of
    degree source.twists[j].  Entry (i, j) therefore has degree
    a_j(source) - a_i(target) or is zero.
    """

    __slots__ = ("source", "target", "columns")

    def __init__(self, source: FreeModule, target: FreeModule, columns,
                 check: bool = True):
        columns = list(columns)
        if source.ring != target.ring:
            raise RingMismatch("source and target over different rings")
        if len(columns) != source.rank:
            raise AlgebraError("column count does not match source rank")
        if check:
            for j, col in enumerate(columns):
                if col.ambient != target:
                    raise RingMismatch(f"column {j} lives in the wrong module")
                d = col.degree()
                if d is not None and d != source.twists[j]:
                    raise NotHomogeneous(
                        f"column {j} has degree {d}, expected {source.twists[j]}")
                if d is None and not col.is_zero():
                    raise NotHomogeneous(f"column {j} is not homogeneous")
        self.source = source
        self.target = target
        self.columns = columns

    @classmethod
    def from_entries(cls, ring: Ring, entries, target_twists, source_twists=None):
        """entries: rows x cols of polynomials/strings/ints."""
        rows = [list(r) for r in entries]
        nrows = len(target_twists)
        if len(rows) != nrows:
            raise AlgebraError("row count does not match target twists")
        ncols = len(rows[0]) if rows and rows[0] else 0
        for r in rows:
            if len(r) != ncols:
                raise AlgebraError("ragged matrix")
        target = FreeModule(ring, target_twists)
        cols = []
        polys = [[ring.polynomial(rows[i][j]) for j in range(ncols)]
                 for i in range(nrows)]
        if source_twists is None:
            source_twists = []
            for j in range(ncols):
                deg = None
                for i in range(nrows):
                    f = polys[i][j]
                    if f.is_zero():
                        continue
                    d = f.degree()
                    if d is None:
                        raise NotHomogeneous(f"entry ({i},{j}) is not homogeneous")
                    deg = d + target_twists[i]
                    break
                if deg is None:
                    raise AlgebraError(
                        f"column {j} is zero; supply explicit source twists")
                source_twists.append(deg)
        source = FreeModule(ring, source_twists)
        for j in range(ncols):
            data = {}
            for i in range(nrows):
                for m, c in polys[i][j].terms.items():
                    data[(i, m)] = c
            cols.append(ModuleElement(target, data))
        return cls(source, target, cols)

    @classmethod
    def zero(cls, source: FreeModule, target: FreeModule):
        return cls(source, target, [target.zero_element()] * source.rank, check=False)

    @classmethod
    def identity(cls, fm: FreeModule):
        return cls(fm, fm, [fm.basis_element(j) for j in range(fm.rank)], check=False)

    @property
    def ring(self) -> Ring:
        return self.source.ring

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j].component(i)

    def apply(self, v: ModuleElement) -> ModuleElement:
        """Image of an element of the source free module."""
        if v.ambient != self.source:
            raise RingMismatch("element not in the source module")
        ctx = self.ring.ctx
        p = self.ring.p
        out: dict = {}
        for (j, m), c in v.data.items():
            for (i, gm), gc in self.columns[j].data.items():
                k = (i, ctx.mul(gm, m))
                nc = (out.get(k, 0) + gc * c) % p
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        return ModuleElement(self.target, out)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise RingMismatch("matrices do not compose")
        return GradedMatrix(other.source, self.target,
                            [self.apply(c) for c in other.columns], check=False)

    def is_zero(self) -> bool:
        return all(c.reduced().is_zero() for c in self.columns)

    def __repr__(self):
        return (f"GradedMatrix({self.target.rank}x{self.source.rank}, "
                f"target {self.target.twists}, source {self.source.twists})")
