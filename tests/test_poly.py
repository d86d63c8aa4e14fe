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
)

from conftest import exponents, mono_lcm, order_key, poly, random_poly, ring


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def test_parse_print_roundtrip():
    r = ring(["x", "y", "z"])
    for text in ["3/2*x^2*y - z + 1", "x", "0", "1", "-x + y", "x^3", "2*x*y*z - 5"]:
        p = r.parse(text)
        assert r.parse(format_poly(p)) == p


def test_parse_rejects_garbage():
    r = ring(["x"])
    with pytest.raises(InputError):
        r.parse("x +")
    with pytest.raises(InputError, match="ends after"):
        r.parse("2*x*")  # once an IndexError
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
        p = poly(r, {(1, 0): one, (0, 1): -one, (0, 0): -2 * one})
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
    assert rg.parse(f).lm() == rg.packing.pack((0, 2))  # y^2 has higher total degree
    assert rl.parse(f).lm() == rl.packing.pack((1, 0))  # lex prefers x


def test_block_order_prefers_first_block():
    r = ring(["t", "x", "y"], order=block_order(1))
    f = r.parse("t + x^5")
    assert f.lm() == r.packing.pack((1, 0, 0))


def test_order_is_multiplicative():
    # a monomial order respects products, so the leading monomial of a
    # product is the product of the leading monomials
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for order in (GREVLEX, LEX, block_order(1)):
        r = ring(["x", "y"], order=order)
        for a in monos:
            for b in monos:
                f = poly(r, {a: QQ.one(), b: QQ.one()}) if a != b else poly(r, {a: QQ.one()})
                for c in monos:
                    g = poly(r, {c: QQ.one(), (0, 0): QQ.one()}) if c != (0, 0) else r.one()
                    assert (f * g).lm() == f.lm() + g.lm()
                    assert r.packing.unpack((f * g).lm()) == max(
                        [mono_mul(a, c), mono_mul(b, c), a, b], key=lambda e: order_key(order, e)
                    )


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
    # a used image over another registry is refused, single-term or not
    for y_img in ("u", "u + 1"):
        with pytest.raises(InputError, match="different registries"):
            f.subst({"x": t.parse("t"), "y": ring(["u"]).parse(y_img)})


def test_subst_past_the_degree_bound_raises():
    r = ring(["x"])
    t = ring(["y"])
    huge = t.var("y") ** 2**31
    assert huge.degree() == 2**31
    with pytest.raises(ResourceLimitError, match=rf"degree sum {2**32} reaches the packed field bound 2\^{FIELD_BITS} in ring QQ\[y\]"):
        r.parse("x^2").subst({"x": huge})
    assert r.parse("x").subst({"x": huge}) == huge


def test_subst_scaled_single_term_image_over_fp():
    f5 = Field(5)
    r, t = ring(["x", "y"], f5), ring(["s", "u"], f5)
    # (3*s^2)^3 * 2 = 54*s^6 = 4*s^6 mod 5; y stays u*s
    img = r.parse("2*x^3 + x*y").subst({"x": t.parse("3*s^2"), "y": t.parse("u*s")})
    assert img == t.parse("4*s^6 + 3*u*s^3")
    assert str(img) == "4*s^6 + 3*s^3*u"


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
    key = lambda e: order_key(r.order, e)  # noqa: E731
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


@pytest.mark.parametrize("exps", [(2**31, 2**31), (2**32 - 1, 1), (2**32 - 1, 2**32 - 1)])
def test_map_ring_past_the_degree_bound(exps):
    # a lex monomial of total degree >= 2^32: a grevlex target has no
    # field for it, a lex target keeps it as it is
    bound = 2**FIELD_BITS
    source = PolyRing(QQ, ["x", "y"], LEX)
    f = Polynomial(source, {source.packing.pack(exps): Fraction(3)}) + source.parse("x*y + 1")
    grevlex = PolyRing(QQ, ["y", "x", "z"])
    with pytest.raises(ResourceLimitError, match=rf"degree sum {sum(exps)} reaches the packed field bound 2\^{FIELD_BITS} in ring QQ\[y, x, z\]"):
        f.map_ring(grevlex)
    assert sum(exps) >= bound
    lex = PolyRing(QQ, ["z", "y", "x"], LEX)
    assert exponents(f.map_ring(lex)) == {(0, exps[1], exps[0]): 3, (0, 1, 1): 1, (0, 0, 0): 1}
    assert f.map_ring(lex).map_ring(source) == f
    # one below the bound, the sum of packed units moves the term
    top = Polynomial(source, {source.packing.pack((bound - 1, 0)): Fraction(1)})
    assert exponents(top.map_ring(grevlex)) == {(0, bound - 1, 0): 1}


# ------------------------------------------------------------ exponent-tuple reference
#
# Polynomials as {exponent tuple: coefficient}, with the order given by
# `order_key`: the representation the packed one replaced, kept here as
# the reference for its arithmetic, transport and printing.


def ref_add(fld, a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        s = fld.add(out.get(m, fld.zero()), c if sign > 0 else fld.neg(c))
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def ref_mul(fld, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = ref_add(fld, out, {mono_mul(m1, m2): fld.mul(c1, c2)})
    return out


def ref_pow(fld, nvars, a, n):
    out = {(0,) * nvars: fld.one()}
    for _ in range(n):
        out = ref_mul(fld, out, a)
    return out


def ref_map(a, names, target_names):
    """a over `names` moved to `target_names`; None when a used variable
    is missing there."""
    if any(e and n not in target_names for m in a for n, e in zip(names, m)):
        return None
    return {tuple(m[names.index(n)] if n in names else 0 for n in target_names): c for m, c in a.items()}


def ref_subst(fld, a, images, nvars):
    out = {}
    for m, c in a.items():
        part = {(0,) * nvars: c}
        for img, e in zip(images, m):
            part = ref_mul(fld, part, ref_pow(fld, nvars, img, e))
        out = ref_add(fld, out, part)
    return out


def ref_format(r, a, ascending=False):
    if not a:
        return "0"
    out = []
    for m in sorted(a, key=lambda e: order_key(r.order, e), reverse=not ascending):
        c = a[m]
        neg = r.field.p is None and c < 0
        mag = -c if neg else c
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(r.names, m) if e]
        if not factors:
            body = str(mag)
        else:
            body = ("" if mag == 1 else f"{mag}*") + "*".join(factors)
        sign = ("-" if neg else "") if not out else (" - " if neg else " + ")
        out.append(sign + body)
    return "".join(out)


REF_ORDERS = [LEX, GREVLEX] + [block_order(k) for k in range(5)]


@st.composite
def ref_terms(draw, r, max_terms=4):
    """Reference terms over r: up to max_terms monomials of exponents 0-3,
    with nonzero coefficients (p/q with q <= 3 over QQ)."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(draw(st.lists(st.integers(0, 3), min_size=r.nvars, max_size=r.nvars)))
        if r.field.p is None:
            c = r.field.of_fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        else:
            c = r.field.of_int(draw(st.integers(0, r.field.p - 1)))
        terms = ref_add(r.field, terms, {m: c} if c else {})
    return terms


@given(st.data())
def test_packed_polynomials_match_tuple_reference(data):
    draw = data.draw
    field = draw(st.sampled_from([QQ, Field(5)]))
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    r = PolyRing(field, names, draw(st.sampled_from(REF_ORDERS)))
    a, b = draw(ref_terms(r)), draw(ref_terms(r))
    f, g = poly(r, a), poly(r, b)

    assert exponents(f + g) == ref_add(field, a, b)
    assert exponents(f - g) == ref_add(field, a, b, sign=-1)
    assert exponents(f * g) == ref_mul(field, a, b)
    k = draw(st.integers(0, 3))
    assert exponents(f**k) == ref_pow(field, r.nvars, a, k)
    assert f.degree() == max(map(sum, a), default=-1)
    assert f.uses_vars() == {i for m in a for i, e in enumerate(m) if e}
    if a:
        assert r.packing.unpack(f.lm()) == max(a, key=lambda e: order_key(r.order, e))
    for ascending in (False, True):
        text = format_poly(f, ascending)
        assert text == ref_format(r, a, ascending)
        assert r.parse(text) == f

    # transport into an extended, a permuted or a shrunk registry, under
    # any order
    kind = draw(st.sampled_from(["extend", "permute", "shrink"]))
    if kind == "extend":
        target_names = names + ["w"]
    elif kind == "permute":
        target_names = draw(st.permutations(names))
    else:
        target_names = [n for n in names if draw(st.booleans())]
    target = PolyRing(field, target_names, draw(st.sampled_from(REF_ORDERS)))
    moved = ref_map(a, names, list(target_names))
    if moved is None:
        with pytest.raises(InputError):
            f.map_ring(target)
    else:
        assert exponents(f.map_ring(target)) == moved

    # substitution of polynomials over another ring for some variables
    s = PolyRing(field, ["s"] + names, draw(st.sampled_from(REF_ORDERS)))
    images = {n: draw(ref_terms(s, max_terms=2)) for n in names if draw(st.booleans())}
    images.setdefault(names[0], draw(ref_terms(s, max_terms=2)))
    refs = [images[n] if n in images else {tuple(int(x == n) for x in s.names): field.one()} for n in names]
    assert exponents(f.subst({n: poly(s, t) for n, t in images.items()})) == ref_subst(field, a, refs, s.nvars)
