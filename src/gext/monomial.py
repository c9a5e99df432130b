"""Packed-integer monomials with the graded reverse lexicographic order.

A monomial in n+1 variables is stored as a single Python int.  The low
bytes hold the *complemented* exponents 127 - e_j (variable j in byte j),
and everything above byte n holds the total degree.  The payoffs:

  * numeric comparison of packed values IS grevlex (degree field first,
    then the complemented exponents from the last variable down);
  * divisibility is one subtraction: a | b iff no exponent byte of
    a - b borrows, i.e. not (a - b) & guards (the exponent bytes of a
    difference do not depend on the degree fields above them), and the
    lcm is the byte-wise minimum of the complemented exponents, selected
    by the same guards;
  * a product is a + b - one, so (b / a) * c is c + (b - a), and it
    overflows iff a guard bit of the result is set.

Exponents are capped at 127 so the guard bit of each byte stays clean.
"""

from __future__ import annotations

import itertools

_W = 8          # bits per exponent byte
_CAP = 127      # max exponent per variable


class ExponentOverflow(OverflowError):
    pass


class MonomialContext:
    """Encoding tables for a fixed number of variables."""

    __slots__ = ("nvars", "one", "_expmask", "guards", "degshift")

    def __init__(self, nvars: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.degshift = _W * nvars
        self.one = sum(_CAP << (_W * j) for j in range(nvars))
        self._expmask = (1 << self.degshift) - 1
        self.guards = sum(0x80 << (_W * j) for j in range(nvars))

    def encode(self, exponents) -> int:
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("wrong number of exponents")
        packed = 0
        total = 0
        for j, e in enumerate(exponents):
            if e < 0:
                raise ValueError("negative exponent")
            if e > _CAP:
                raise ExponentOverflow(f"exponent {e} exceeds {_CAP}")
            packed += (_CAP - e) << (_W * j)
            total += e
        return (total << self.degshift) | packed

    def decode(self, m: int):
        return tuple(_CAP - ((m >> (_W * j)) & 0xFF) for j in range(self.nvars))

    def degree(self, m: int) -> int:
        return m >> self.degshift

    def mul(self, a: int, b: int) -> int:
        r = a + b - self.one
        if r & self.guards:
            raise ExponentOverflow("exponent overflow in product")
        return r

    def divides(self, a: int, b: int) -> bool:
        """True iff monomial a divides monomial b."""
        return not (a - b) & self.guards

    def quotient(self, b: int, a: int) -> int:
        """b / a, assuming a divides b."""
        return b - a + self.one

    def lcm(self, a: int, b: int) -> int:
        """Word-parallel: the byte-wise minimum of the complemented
        exponents, with the degree field recomputed from it."""
        guards = self.guards
        ca = a & self._expmask
        cb = b & self._expmask
        # a field keeps its guard bit iff its ca >= cb; spread each kept
        # guard over the _CAP bits below it to select cb there
        keep = ((ca | guards) - cb) & guards
        r = ca ^ ((ca ^ cb) & (keep - (keep >> (_W - 1))))
        # degree: n * _CAP less the fields of r, read one per byte
        n = self.nvars
        return ((_CAP * n - sum(r.to_bytes(n, "little"))) << self.degshift) | r

    def variable(self, j: int) -> int:
        return self.encode(tuple(1 if i == j else 0 for i in range(self.nvars)))

    def monomials_of_degree(self, d: int):
        """All packed monomials of total degree d, in a fixed order."""
        if d < 0:
            return
        n = self.nvars
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            exps = []
            prev = -1
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(d + n - 2 - prev)
            yield self.encode(exps)


_contexts: dict[int, MonomialContext] = {}


def context(nvars: int) -> MonomialContext:
    ctx = _contexts.get(nvars)
    if ctx is None:
        ctx = _contexts[nvars] = MonomialContext(nvars)
    return ctx
