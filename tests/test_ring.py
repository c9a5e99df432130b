"""Core ring and polynomial arithmetic."""

import random
from operator import le

import pytest

from gext import AlgebraError, ParseError, Ring, parse_polynomial
from gext.monomial import context

P = 32003


def test_nonprime_modulus_rejected():
    with pytest.raises(AlgebraError):
        Ring(4, ("x",))
    with pytest.raises(AlgebraError):
        Ring(1, ("x",))


def test_parse_basic(quartic_base):
    f = parse_polynomial(quartic_base, "x*y - w*z")
    g = parse_polynomial(quartic_base, "-w*z + x*y")
    assert f == g
    assert f.degree() == 2
    assert f.is_homogeneous()


def test_parse_powers_and_implicit_coefficients(p2_ring):
    f = parse_polynomial(p2_ring, "2x^2 + 3*x*y - y^2")
    assert f == parse_polynomial(p2_ring, "2*x^2+3*x*y-y^2")
    assert f.degree() == 2


@pytest.mark.parametrize("text, caret", [
    ("x**2", "x^2"), ("3x**2y", "3x^2y"), ("x**2*y**3", "x^2*y^3"),
])
def test_double_star_is_power(p2_ring, text, caret):
    assert parse_polynomial(p2_ring, text) == parse_polynomial(p2_ring, caret)


def test_parse_errors(p2_ring):
    with pytest.raises(ParseError):
        parse_polynomial(p2_ring, "x +")
    with pytest.raises(ParseError):
        parse_polynomial(p2_ring, "q^2")


def test_arithmetic_is_mod_p(p2_ring):
    x = parse_polynomial(p2_ring, "x")
    f = x.scale(P - 1) + x
    assert f.is_zero()


def test_string_roundtrip(p2_ring):
    for text in ["x^2-y^2", "3x*y+z^2", "-x^3+2y^2z", "0"]:
        f = parse_polynomial(p2_ring, text)
        assert parse_polynomial(p2_ring, str(f)) == f


def test_quotient_autoreduction(elliptic_ring):
    # x^3 = z^3 - y^3 in the elliptic coordinate ring
    f = parse_polynomial(elliptic_ring, "x^3")
    g = parse_polynomial(elliptic_ring, "z^3 - y^3")
    assert f == g


def test_quotient_zero(quartic_ring):
    f = parse_polynomial(quartic_ring, "x*y - w*z")
    assert f.is_zero()


def test_distinct_rings_do_not_mix(p2_ring, quartic_base):
    f = parse_polynomial(p2_ring, "x")
    g = parse_polynomial(quartic_base, "x")
    with pytest.raises(AlgebraError):
        f + g


def test_multiplication_associativity(p2_ring):
    f = parse_polynomial(p2_ring, "x+y")
    g = parse_polynomial(p2_ring, "y+z")
    h = parse_polynomial(p2_ring, "x-z")
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_grevlex_leading_monomial(p2_ring):
    # grevlex on x > y > z: x*z > y^2 is false, y^2 > x*z
    f = parse_polynomial(p2_ring, "x*z + y^2")
    exps = tuple(p2_ring.ctx.decode(f.lead_monomial()))
    assert exps == (0, 2, 0)


def test_homogeneity_detection(p2_ring):
    assert parse_polynomial(p2_ring, "x^2+y*z").is_homogeneous()
    assert not parse_polynomial(p2_ring, "x^2+y").is_homogeneous()


@pytest.mark.parametrize("nvars", range(1, 9))
def test_lcm_matches_exponentwise_max(nvars):
    """The word-parallel lcm against the exponent-wise maximum of the
    decoded monomials, extreme exponents 0 and 127 included; equality of
    the packed ints covers the degree field too.  Divisibility, one
    unmasked subtraction, against the exponent-wise comparison."""
    rng = random.Random(900 + nvars)
    ctx = context(nvars)

    def exponent():
        return rng.choice([0, 127, rng.randrange(128)])

    for _ in range(2000):
        a = ctx.encode(exponent() for _ in range(nvars))
        b = ctx.encode(exponent() for _ in range(nvars))
        expected = ctx.encode(map(max, ctx.decode(a), ctx.decode(b)))
        assert ctx.lcm(a, b) == ctx.lcm(b, a) == expected
        assert ctx.degree(expected) == sum(map(max, ctx.decode(a),
                                               ctx.decode(b)))
        assert ctx.divides(a, expected) and ctx.divides(b, expected)
        assert ctx.divides(a, b) == all(map(le, ctx.decode(a),
                                            ctx.decode(b)))
