from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dilatations.poly import (
    FIELD_BITS,
    Field,
    GREVLEX,
    InputError,
    LEX,
    PolyRing,
    Polynomial,
    QQ,
    ResourceLimitError,
    block_order,
    format_poly,
    mono_divides,
    mono_mul,
)

from conftest import mono_lcm, random_poly, ring


def test_parse_print_roundtrip():
    r = ring(["x", "y", "z"])
    for text in ["3/2*x^2*y - z + 1", "x", "0", "1", "-x + y", "x^3", "2*x*y*z - 5"]:
        p = r.parse(text)
        assert r.parse(format_poly(p)) == p


def test_parse_rejects_garbage():
    r = ring(["x"])
    with pytest.raises(InputError):
        r.parse("x +")
    with pytest.raises(InputError):
        r.parse("q")
    with pytest.raises(InputError):
        r.parse("")


def test_fp_field_validation():
    with pytest.raises(InputError):
        Field(6)
    with pytest.raises(InputError):
        Field(2**31 + 11)
    f5 = Field(5)
    assert f5.of_int(-3) == 2
    assert f5.of_fraction(1, 2) == 3  # 2 * 3 = 6 = 1


def test_fp_arithmetic():
    r = PolyRing(Field(5), ["u"])
    p = r.parse("3*u + 4")
    assert str(p * p) == "4*u^2 + 4*u + 1"
    assert (p - p).is_zero()


def test_qq_inverse_is_a_fraction():
    for a, inv in [(2, Fraction(1, 2)), (-3, Fraction(-1, 3)), (1, Fraction(1)), (Fraction(2, 3), Fraction(3, 2))]:
        assert QQ.inv(a) == inv and type(QQ.inv(a)) is Fraction
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert Field(5).inv(2) == 3


def test_format_poly_sign_follows_the_field():
    r = ring(["x", "y"])
    for one in (1, Fraction(1)):  # an int coefficient over QQ prints like its Fraction
        p = Polynomial(r, {(1, 0): one, (0, 1): -one, (0, 0): -2 * one})
        assert format_poly(p) == "x - y - 2"
        assert format_poly(p, ascending=True) == "-2 - y + x"
    f5 = PolyRing(Field(5), ["x", "y"])
    assert format_poly(f5.parse("x - y - 2")) == "x + 4*y + 3"
    assert format_poly(f5.parse("-x")) == "4*x"


def test_packing_holds_integral_rationals_as_ints():
    r = ring(["x", "y"])
    p = r.parse("2*x - 1/2*y + 1")
    terms = r.packing.terms(p)
    assert sorted(map(type, terms.values()), key=str) == [Fraction, int, int]
    back = r.packing.poly(terms)
    assert back == p and all(type(c) is Fraction for c in back.terms.values())
    f5 = PolyRing(Field(5), ["x"])
    q = f5.parse("3*x + 1")
    assert f5.packing.poly(f5.packing.terms(q)).terms == q.terms


def test_registry_mismatch_is_error():
    r1, r2 = ring(["x"]), ring(["y"])
    with pytest.raises(InputError):
        r1.var("x") + r2.var("y")


def test_grevlex_vs_lex_leading_monomials():
    rg = ring(["x", "y"], order=GREVLEX)
    rl = ring(["x", "y"], order=LEX)
    f = "x + y^2"
    assert rg.parse(f).lm() == (0, 2)  # y^2 has higher total degree
    assert rl.parse(f).lm() == (1, 0)  # lex prefers x


def test_block_order_prefers_first_block():
    r = ring(["t", "x", "y"], order=block_order(1))
    f = r.parse("t + x^5")
    assert f.lm() == (1, 0, 0)


def test_order_is_multiplicative():
    r = ring(["x", "y"], order=GREVLEX)
    key = r.order.key
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for a in monos:
        for b in monos:
            for c in monos:
                if key(a) < key(b):
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert key(ac) < key(bc)


@given(st.integers(0, 10**6), st.integers(1, 10**6))
def test_rationals_lowest_terms(num, den):
    c = QQ.of_fraction(num, den)
    from math import gcd

    assert c.denominator > 0
    assert gcd(c.numerator, c.denominator) == 1


@given(st.data())
def test_ring_axioms_random(data):
    import random as _random

    seed = data.draw(st.integers(0, 10**9))
    rng = _random.Random(seed)
    r = ring(["x", "y"]) if seed % 2 else PolyRing(Field(5), ("x", "y"))
    f, g, h = (random_poly(rng, r) for _ in range(3))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()


def test_map_ring_by_name():
    r = ring(["a", "g"])
    big = ring(["a", "g", "x"])
    f = r.parse("a*g - 2")
    assert str(f.map_ring(big)) == "a*g - 2"
    with pytest.raises(InputError):
        big.parse("x").map_ring(r)


def test_subst():
    r = ring(["x", "y"])
    t = ring(["t"])
    f = r.parse("x^2 + y")
    img = f.subst({"x": t.parse("t"), "y": t.parse("t^3")})
    assert str(img) == "t^3 + t^2"


def test_fresh_name_disambiguation():
    r = ring(["x_1_1", "a"])
    assert r.fresh_name("x_1_1") == "x_1_1_2"
    assert r.fresh_name("b") == "b"


def test_fresh_names_distinct_from_ring_and_each_other():
    r = ring(["z", "z_2", "t", "x_1_1"])
    assert r.fresh_names(["z", "z", "t", "x_1_1", "x_1_1", "b"]) == [
        "z_3", "z_4", "t_2", "x_1_1_2", "x_1_1_3", "b"
    ]
    # a later stem may be an earlier fresh name: it is probed as well
    assert r.fresh_names(["t", "t_2"]) == ["t_2", "t_2_2"]
    assert r.fresh_names([]) == []


# ------------------------------------------------------------ packed monomials


@st.composite
def packed_case(draw):
    """A ring of 1-8 variables under lex, grevlex or block(k), and two
    exponent vectors, b a multiple of a in half the cases."""
    n = draw(st.integers(1, 8))
    order = draw(st.sampled_from([LEX, GREVLEX] + [block_order(k) for k in range(n + 2)]))
    # up to 2^20 per exponent: 8 of them sum to well under the 2^32 bound
    exps = st.lists(st.integers(0, 2**20), min_size=n, max_size=n).map(tuple)
    a, c = draw(exps), draw(exps)
    b = mono_mul(a, c) if draw(st.booleans()) else draw(exps)
    return PolyRing(QQ, [f"x{i}" for i in range(n)], order), a, b


@settings(max_examples=300)
@given(packed_case())
def test_packing_matches_tuple_monomials(case):
    r, a, b = case
    packing = r.packing
    pa, pb = packing.pack(a), packing.pack(b)
    key = r.order.key
    assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
    assert ((pb - pa) & packing.guard == 0) == mono_divides(a, b)
    assert pa + pb == packing.pack(mono_mul(a, b))
    # exponent fields alone divide as the whole ints do, and a divisor is
    # never the larger int (the M criterion's order rests on this)
    xa, xb = pa & packing.exps, pb & packing.exps
    assert ((xb - xa) & packing.exp_guard == 0) == mono_divides(a, b)
    assert xa <= xb or not mono_divides(a, b)
    excess = packing.excess(pa, pb)
    assert (pa & packing.exps) + excess == packing.pack(mono_lcm(a, b)) & packing.exps
    assert pa + packing.expand(excess) == packing.pack(mono_lcm(a, b))
    assert packing.unpack(pa) == a and packing.deg(pa) == sum(a)


def test_packing_overflow_raises():
    bound = 2**FIELD_BITS
    r = PolyRing(QQ, ["x", "y"])
    message = rf"{bound} reaches the packed field bound 2\^{FIELD_BITS} in ring QQ\[x, y\], order grevlex"
    with pytest.raises(ResourceLimitError, match=message):
        r.packing.pack((bound, 0))
    # grevlex has a field for the degree, which spills before any exponent
    with pytest.raises(ResourceLimitError, match=rf"degree sum {bound} "):
        r.packing.pack((bound // 2, bound // 2))
    lex = PolyRing(QQ, ["x", "y"], LEX)
    a = lex.packing.pack((bound // 2, bound // 2))
    assert lex.packing.unpack(a) == (bound // 2, bound // 2)
    # a product that reaches a guard bit is caught by one test
    assert (a + a) & lex.packing.guard
    assert not (a + lex.packing.pack((bound // 2 - 1, 0))) & lex.packing.guard
