"""Prime fields, graded polynomial rings and their quotients.

A ring is Z/p[x_0..x_n] with the standard grading, optionally modulo a
homogeneous ideal I.  Polynomials are sparse dicts from packed monomials
(see monomial.py) to nonzero residues in [1, p).  Polynomials attached to
a quotient ring are kept reduced modulo a cached Groebner basis of I, so
representatives are canonical.
"""

from __future__ import annotations

import re

from .monomial import MonomialContext, context


class AlgebraError(Exception):
    """Base for all structural errors raised by this package."""


class RingMismatch(AlgebraError):
    pass


class NotHomogeneous(AlgebraError):
    pass


class FieldDivisionError(AlgebraError, ZeroDivisionError):
    pass


class ParseError(AlgebraError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def is_modulus(p: int) -> bool:
    """p is a prime in [2, 2^31), the coefficient primes a `Ring` takes.
    The range is checked first: trial division of a huge p never ends."""
    return 2 <= p < 2**31 and is_prime(p)


def field_inverse(c: int, p: int) -> int:
    c %= p
    if c == 0:
        raise FieldDivisionError("inverse of zero in Z/%d" % p)
    return pow(c, -1, p)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")


class Ring:
    """Z/p[variables], or its quotient by homogeneous `quotient` polynomials."""

    def __init__(self, p: int, variables, quotient=()):
        if not is_modulus(p):
            raise AlgebraError(f"{p} is not a prime in [2, 2^31)")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        for v in variables:
            if not _NAME_RE.match(v):
                raise AlgebraError(f"bad variable name {v!r}")
        self.p = p
        self.variables = variables
        self.nvars = len(variables)
        self.ctx: MonomialContext = context(self.nvars)
        self._quotient_gb = None    # divisor entries of GB(I)
        self._module = None     # R as a module over itself: gmod.ring_module
        if quotient:
            base = Ring(p, variables)
            polys = []
            for f in quotient:
                f = base.polynomial(f)
                if f.is_zero():
                    continue
                d = f.degree()
                if d is None or d <= 0:
                    raise NotHomogeneous(
                        "quotient generators must be homogeneous of positive degree")
                polys.append(f)
            self.base = base
            self.quotient = tuple(polys)
        else:
            self.base = self
            self.quotient = ()
        self._key = (p, variables,
                     tuple(frozenset(f.terms.items()) for f in self.quotient))

    @property
    def is_quotient(self) -> bool:
        return bool(self.quotient)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        s = f"ZZ/{self.p}[{','.join(self.variables)}]"
        if self.quotient:
            s += " / (" + ", ".join(str(f) for f in self.quotient) + ")"
        return s

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.ctx.one: 1})

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        return Polynomial(self, {self.ctx.one: c} if c else {})

    def variable(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, str):
            j = self.variables.index(name_or_index)
        else:
            j = name_or_index
        return Polynomial(self, {self.ctx.variable(j): 1})

    def monomial(self, exponents, coeff=1) -> "Polynomial":
        c = coeff % self.p
        if not c:
            return self.zero()
        return Polynomial(self, {self.ctx.encode(exponents): c})

    def polynomial(self, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            if value.ring == self:
                return value if value.ring is self else Polynomial(self, value.terms)
            if value.ring == self.base or value.ring.base == self.base:
                return Polynomial(self, value.terms)
            raise RingMismatch(f"{value} does not live in {self}")
        if isinstance(value, int):
            return self.constant(value)
        if isinstance(value, str):
            return parse_polynomial(self, value)
        raise TypeError(f"cannot coerce {value!r} to a polynomial")

    def quotient_groebner(self) -> list:
        """The reduced Groebner basis GB(I) of the quotient ideal, as the
        divisor entries [lead, tail, None, None] that begin every component
        of every `groebner.DivisorIndex`: component 0 of the base ring's
        `groebner_basis` run, the tail the flat tuple (0, mono, coeff, ...)
        of the terms below the lead, in descending order.  A tail term's
        component is an offset from its entry's, here 0, so one list serves
        every component.

        Built once per ring and shared: an index holds this list itself
        in each component until it adds a divisor there, copies it then,
        and never mutates its entries.  Empty for a polynomial ring.
        """
        if self._quotient_gb is None:
            self._quotient_gb = []
            if self.quotient:
                from .free import FreeModule, ModuleElement
                from .groebner import groebner_basis
                fm = FreeModule(self.base, (0,))
                self._quotient_gb = groebner_basis(
                    [ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})
                     for f in self.quotient], ambient=fm)._index[0]
        return self._quotient_gb

    def reduce_terms(self, terms: dict) -> dict:
        """Reduce a term dict modulo the quotient ideal (no-op over S)."""
        gb = self.quotient_groebner()
        if not gb or not terms:
            return terms
        from .free import FreeModule
        from .groebner import DivisorIndex, normal_form_terms
        out = normal_form_terms(FreeModule(self, (0,)), DivisorIndex(self),
                                {(0, m): c for m, c in terms.items()}, None)
        return {m: c for (_, m), c in out.items()}


class Polynomial:
    """Sparse homogeneous-friendly polynomial; immutable by convention."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict, reduced=False):
        if ring.is_quotient and not reduced:
            terms = ring.reduce_terms(terms)
        self.ring = ring
        self.terms = terms

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Homogeneous degree, or None if inhomogeneous; None for 0."""
        degs = {self.ring.ctx.degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({self.ring.ctx.degree(m) for m in self.terms}) <= 1

    def lead_monomial(self) -> int:
        if not self.terms:
            raise AlgebraError("zero polynomial has no lead term")
        return max(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, int):
            return self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch("polynomials from different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            nc = (out.get(m, 0) + c) % p
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()},
                          reduced=True)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ring.p
        ctx = self.ring.ctx
        out: dict[int, int] = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = ctx.mul(m1, m2)
                nc = (out.get(m, 0) + c1 * c2) % p
                if nc:
                    out[m] = nc
                else:
                    del out[m]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c: int) -> "Polynomial":
        c %= self.ring.p
        if not c:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, {m: (c * v) % p for m, v in self.terms.items()},
                          reduced=True)

    def derivative(self, j: int) -> "Polynomial":
        ctx = self.ring.ctx
        p = self.ring.p
        out = {}
        for m, c in self.terms.items():
            e = ctx.decode(m)
            if e[j] == 0:
                continue
            nc = (c * e[j]) % p
            if not nc:
                continue
            e2 = list(e)
            e2[j] -= 1
            m2 = ctx.encode(e2)
            nv = (out.get(m2, 0) + nc) % p
            if nv:
                out[m2] = nv
            else:
                del out[m2]
        return Polynomial(self.ring, out)

    # -- comparison / printing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.p
        ctx = self.ring.ctx
        names = self.ring.variables
        pieces = []
        for m, c in sorted(self.terms.items(), reverse=True):
            sc = c - p if c > p // 2 else c  # symmetric representative
            sign = "-" if sc < 0 else "+"
            mag = abs(sc)
            exps = ctx.decode(m)
            mono = "".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(names, exps) if e)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}{mono}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += sign + body
        return out

    __repr__ = __str__


# -- parsing -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*\*|\*|\+|\-|\(|\))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"bad character at position {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _split_vars(ring: Ring, word: str):
    """Split a run of concatenated variable names, longest match first."""
    names = sorted(ring.variables, key=len, reverse=True)
    out = []
    i = 0
    while i < len(word):
        for n in names:
            if word.startswith(n, i):
                out.append(n)
                i += len(n)
                break
        else:
            raise ParseError(f"unknown variable in {word!r}")
    return out


def parse_polynomial(ring: Ring, text: str) -> Polynomial:
    """Parse the shared text grammar: terms joined by +/-, coefficient then
    variables with ^ (or **) powers; '*' between factors is optional."""
    tokens = _tokenize(text)
    if not tokens:
        return ring.zero()
    result = ring.zero()
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * ring.nvars
        saw_factor = False
        while i < n and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*":
                i += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                i += 1
                saw_factor = True
                continue
            # a run of variable names, possibly with a power on the last one
            parts = _split_vars(ring, tok)
            i += 1
            power = 1
            if i < n and tokens[i] in ("^", "**"):
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ParseError(f"expected integer power in {text!r}")
                power = int(tokens[i + 1])
                i += 2
            for name in parts[:-1]:
                exps[ring.variables.index(name)] += 1
            exps[ring.variables.index(parts[-1])] += power
            saw_factor = True
        if not saw_factor:
            raise ParseError(f"empty term in {text!r}")
        result = result + ring.monomial(exps, coeff)
    return result
