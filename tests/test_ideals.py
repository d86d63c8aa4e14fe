import threading

import pytest
from hypothesis import given, strategies as st

from dilatations import ideals
from dilatations.algebras import PresentedAlgebra
from dilatations.dilatation import Center, MultiCenter, dilate
from dilatations.groebner import Reducers, buchberger_reduced, normal_form
from dilatations.ideals import IdealHandle, colon, combine, eliminate, intersect, membership, saturate
from dilatations.poly import Field, InputError, QQ

from conftest import random_poly, ring


def handle(r, *texts):
    return IdealHandle(r, [r.parse(t) for t in texts])


def test_combine_sum_product_power():
    r = ring(["x", "y"])
    assert combine("sum", handle(r, "x"), handle(r, "y")).equals(handle(r, "x", "y"))
    prod = combine("product", handle(r, "x", "y"), handle(r, "x"))
    assert prod.equals(handle(r, "x^2", "x*y"))
    assert combine("power", handle(r, "x", "y"), 0).is_unit()


def test_intersect_examples():
    r = ring(["x", "y"])
    assert intersect(handle(r, "x"), handle(r, "y")).equals(handle(r, "x*y"))
    assert intersect(handle(r, "x"), handle(r, "x")).equals(handle(r, "x"))
    meet = intersect(handle(r, "x^2", "x*y"), handle(r, "y"))
    # double inclusion, checked by membership
    assert meet.equals(handle(r, "x*y"))
    assert handle(r, "x^2", "x*y").contains(r.parse("x*y"))
    assert handle(r, "y").contains(r.parse("x*y"))


def test_colon_saturation_examples():
    r = ring(["a", "g", "x"])
    regular = handle(r, "a*x - g")
    assert colon(regular, r.var("a"), saturate=True).equals(regular)
    sat = colon(handle(r, "a*x", "a*g"), r.var("a"), saturate=True)
    assert sat.equals(handle(r, "x", "g"))
    assert colon(handle(r, "a"), r.var("a"), saturate=True).is_unit()


def test_colon_by_zero_rejected():
    r = ring(["a"])
    with pytest.raises(InputError):
        colon(handle(r, "a"), r.zero())


def test_eliminate_examples():
    r = ring(["x", "y", "t"])
    parab = eliminate(handle(r, "x - t", "y - t^2"), ["t"])
    assert [str(g) for g in parab.groebner()] == ["x^2 - y"]
    assert eliminate(handle(r, "1"), ["t"]).is_unit()
    r2 = ring(["x", "t", "s", "u", "v"])
    none_left = eliminate(handle(r2, "t*s*u - x", "s*v - x"), ["u", "v"])
    assert none_left.is_zero()


def test_membership_queries():
    r = ring(["x", "y"])
    assert membership("contains", handle(r, "x"), r.parse("x*y"))
    assert membership("radical_contains", handle(ring(["u"]), "u^2"), ring(["u"]).var("u"))
    assert membership("equals", handle(r, "x", "y"), handle(r, "y", "x + y"))
    assert not membership("contains", handle(r, "x^2"), r.parse("x"))


def test_groebner_cache_thread_safe():
    r = ring(["x", "y", "z"])
    h = handle(r, "x^2 - y*z", "y^2 - x*z")
    outs = [None] * 8

    def work(i):
        outs[i] = h.groebner()

    ts = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert all(o is outs[0] for o in outs)


def test_reducer_table_built_once_across_threads(monkeypatch):
    """Threads racing on a fresh handle's normal forms and membership
    tests share one basis and one reducer table, and agree."""
    import sys
    import time

    r = ring(["x", "y", "z"])
    gens = [r.parse("x^2 + y*z"), r.parse("y^2 - x*z"), r.parse("z^2 - x*y")]
    queries = [r.parse(t) for t in ("x^3", "x*y*z + y", "z^4 - x*y^3", "x^2*y + y^2*z")]
    gb = buchberger_reduced(gens)
    expected = [normal_form(f, gb) for f in queries]
    builds, tables = [], []

    def counting_buchberger(*args, **kwargs):
        builds.append(1)
        time.sleep(0.01)  # widen the windows in which other threads arrive
        return buchberger_reduced(*args, **kwargs)

    class CountingReducers(Reducers):
        @classmethod
        def of(cls, ring, basis):
            tables.append(1)
            time.sleep(0.01)
            return super().of(ring, basis)

    monkeypatch.setattr(ideals, "buchberger_reduced", counting_buchberger)
    monkeypatch.setattr(ideals, "Reducers", CountingReducers)
    h = IdealHandle(r, gens)
    outs = [None] * 16

    def work(i):
        outs[i] = [h.normal_form(f) for f in queries] + [h.contains(f) for f in queries]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ts = [threading.Thread(target=work, args=(i,)) for i in range(len(outs))]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in ts)
    assert all(o == expected + [nf.is_zero() for nf in expected] for o in outs)
    assert len(builds) == 1 and len(tables) == 1


@given(st.integers(0, 10**9))
def test_semiring_laws(seed):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"])
    ideals = []
    for _ in range(3):
        gens = [random_poly(rng, r) for _ in range(rng.randint(1, 3))]
        ideals.append(IdealHandle(r, [g for g in gens if not g.is_zero()]))
    a, b, c = ideals
    assert combine("sum", a, b).equals(combine("sum", b, a))
    assert combine("product", a, b).equals(combine("product", b, a))
    assert combine("sum", combine("sum", a, b), c).equals(combine("sum", a, combine("sum", b, c)))
    assert combine("product", combine("product", a, b), c).equals(
        combine("product", a, combine("product", b, c))
    )
    lhs = combine("product", a, combine("sum", b, c))
    rhs = combine("sum", combine("product", a, b), combine("product", a, c))
    assert lhs.equals(rhs)


@given(st.integers(0, 10**9))
def test_colon_contains_adjunction(seed):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"])
    a = IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()])
    f = random_poly(rng, r)
    g = random_poly(rng, r)
    if f.is_zero():
        return
    quotient = colon(a, f)
    assert quotient.contains(g) == a.contains(f * g)


@given(st.integers(0, 10**9))
def test_saturation_idempotent(seed):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"])
    a = IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()])
    f = random_poly(rng, r, max_deg=1)
    if f.is_zero():
        return
    once = colon(a, f, saturate=True)
    twice = colon(once, f, saturate=True)
    assert once.equals(twice)


@given(st.integers(0, 4), st.integers(0, 4))
def test_power_additivity(m, n):
    r = ring(["x", "y"])
    a = IdealHandle(r, [r.parse("x + y"), r.parse("x*y")])
    lhs = combine("power", a, m + n)
    rhs = combine("product", combine("power", a, m), combine("power", a, n))
    assert lhs.equals(rhs)


def test_eliminate_unknown_variable_rejected():
    r = ring(["x", "y"])
    with pytest.raises(InputError):
        eliminate(handle(r, "x"), ["t"])


@given(st.integers(0, 10**9), st.sampled_from([QQ, Field(5)]))
def test_saturate_by_factors_matches_product(seed, field):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"], field)
    a = IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()])
    f = random_poly(rng, r, max_deg=1)
    g = random_poly(rng, r, max_deg=1)
    if f.is_zero() or g.is_zero():
        return
    assert saturate(a, [f, g, f]).groebner() == colon(a, f * g, saturate=True).groebner()


def test_dilate_saturates_once_per_distinct_denominator(monkeypatch):
    r = ring(["a", "b", "g"])
    alg = PresentedAlgebra(r)
    center = MultiCenter(alg, [Center(handle(r, "g"), r.var("a")), Center(handle(r, "a*g"), r.var("a"))])
    calls = []
    real = ideals.colon

    def counted(*args, **kwargs):
        calls.append(kwargs.get("saturate", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "colon", counted)
    dilate(center)
    assert calls == [True]


def test_dilate_matches_saturation_by_product():
    r = ring(["x", "y", "z", "w"])
    alg = PresentedAlgebra(r, handle(r, "x*w - y*z"))
    center = MultiCenter(
        alg,
        [
            Center(handle(r, "y", "z", "w"), r.var("x")),
            Center(handle(r, "x", "z", "w"), r.var("y")),
            Center(handle(r, "x", "y", "w"), r.var("z")),
        ],
    )
    res = dilate(center)
    product = center.product_elem().map_ring(res.presaturation.ring)
    old = colon(res.presaturation, product, saturate=True)
    assert res.algebra.relations.groebner() == old.groebner()
    assert res.saturation_changed == (not old.equals(res.presaturation))
