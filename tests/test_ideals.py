import re
import threading

import pytest
from hypothesis import given, strategies as st

from dilatations import ideals
from dilatations.algebras import AlgebraHom, PresentedAlgebra, hom_kernel
from dilatations.dilatation import Center, MultiCenter, dilate
from dilatations.groebner import Reducers, buchberger_reduced, normal_form
from dilatations.ideals import IdealHandle, colon, eliminate, intersect, saturate
from dilatations.poly import LEX, Field, InputError, QQ, block_order

from conftest import random_poly, ring


def handle(r, *texts):
    return IdealHandle(r, [r.parse(t) for t in texts])


def plus(a, b):
    return a.with_gens(a.gens + b.gens)


def times(a, b):
    return a.with_gens([f * g for f in a.gens for g in b.gens])


def power(a, n):
    out = a.with_gens([a.ring.one()])
    for _ in range(n):
        out = times(out, a)
    return out


def test_combine_sum_product_power():
    r = ring(["x", "y"])
    assert plus(handle(r, "x"), handle(r, "y")).equals(handle(r, "x", "y"))
    prod = times(handle(r, "x", "y"), handle(r, "x"))
    assert prod.equals(handle(r, "x^2", "x*y"))
    assert power(handle(r, "x", "y"), 0).is_unit()


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
    assert saturate(regular, [r.var("a")]).equals(regular)
    sat = saturate(handle(r, "a*x", "a*g"), [r.var("a")])
    assert sat.equals(handle(r, "x", "g"))
    assert saturate(handle(r, "a"), [r.var("a")]).is_unit()


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
    assert none_left.groebner() == []


def test_membership_queries():
    r = ring(["x", "y"])
    assert handle(r, "x").contains(r.parse("x*y"))
    assert handle(ring(["u"]), "u^2").radical_contains(ring(["u"]).var("u"))
    assert handle(r, "x", "y").equals(handle(r, "y", "x + y"))
    assert not handle(r, "x^2").contains(r.parse("x"))


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
    # the memo the threads wrote at once names each monomial's first divisor
    lms, guard = h._reducers.lms, r.packing.guard
    assert h._reducers.first
    for m, k in h._reducers.first.items():
        divisors = [j for j, lm in enumerate(lms) if not (m - lm) & guard]
        assert k == (divisors[0] if divisors else ~len(lms))


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
    assert plus(a, b).equals(plus(b, a))
    assert times(a, b).equals(times(b, a))
    assert plus(plus(a, b), c).equals(plus(a, plus(b, c)))
    assert times(times(a, b), c).equals(times(a, times(b, c)))
    assert times(a, plus(b, c)).equals(plus(times(a, b), times(a, c)))


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
    once = saturate(a, [f])
    twice = saturate(once, [f])
    assert once.equals(twice)


@given(st.integers(0, 4), st.integers(0, 4))
def test_power_additivity(m, n):
    r = ring(["x", "y"])
    a = IdealHandle(r, [r.parse("x + y"), r.parse("x*y")])
    assert power(a, m + n).equals(times(power(a, m), power(a, n)))


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
    assert saturate(a, [f, g, f]).groebner() == saturate(a, [f * g]).groebner()


@given(
    st.integers(0, 10**9),
    st.sampled_from([QQ, Field(5)]),
    st.integers(2, 3),
    st.booleans(),
)
def test_saturate_matches_chain_of_single_saturations(seed, field, k, seeded):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y", "z"], field)
    gens = [p for p in (random_poly(rng, r) for _ in range(3)) if not p.is_zero()]
    a = IdealHandle._of_reduced(r, buchberger_reduced(gens), None) if seeded else IdealHandle(r, gens)
    elems = list(dict.fromkeys(p for p in (random_poly(rng, r, max_deg=2) for _ in range(k)) if not p.is_zero()))
    chain = a
    for f in elems:
        chain = saturate(chain, [f])
    assert saturate(a, elems).groebner() == chain.groebner()


def _saturation_runs(monkeypatch, center):
    """(block order, variables dropped) of the Buchberger runs that
    `dilate(center)` makes through `ideals` over a ring holding the
    fraction variables: the localization, which keeps its whole basis,
    and the fraction kernel seeded by it, which drops the block
    (radical_contains runs over the base ring)."""
    runs = []
    real = ideals.buchberger_reduced

    def counted(gens, limits=None, known=0, drop=0):
        runs.append((gens[0].ring, drop))
        return real(gens, limits, known, drop)

    monkeypatch.setattr(ideals, "buchberger_reduced", counted)
    names = set(dilate(center).presaturation.ring.names)
    return [(s.order, drop) for s, drop in runs if s.order.kind == "block" and names < set(s.names)]


def test_dilate_saturates_once_per_distinct_denominator(monkeypatch):
    r = ring(["a", "b", "g"])
    alg = PresentedAlgebra(r)
    center = MultiCenter(alg, [Center(handle(r, "g"), r.var("a")), Center(handle(r, "a*g"), r.var("a"))])
    assert _saturation_runs(monkeypatch, center) == [(block_order(1), 0), (block_order(1), 1)]


def test_dilate_saturates_four_centers_in_one_run(monkeypatch):
    # the Segre quadric of the wide-dilate workload: four denominators,
    # four Rabinowitsch variables in the localization run and in the
    # fraction-kernel run it seeds, and no chain of single saturations
    r = ring(["x", "y", "z", "w"])
    alg = PresentedAlgebra(r, handle(r, "x*w - y*z"))
    center = MultiCenter(
        alg,
        [
            Center(handle(r, "y", "z", "w"), r.var("x")),
            Center(handle(r, "x", "z", "w"), r.var("y")),
            Center(handle(r, "x", "y", "w"), r.var("z")),
            Center(handle(r, "x^2", "y^2"), r.var("w")),
        ],
    )
    assert _saturation_runs(monkeypatch, center) == [(block_order(4), 0), (block_order(4), 4)]


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
    old = saturate(res.presaturation, [product])
    assert res.algebra.relations.groebner() == old.groebner()
    assert res.saturation_changed == (not old.equals(res.presaturation))


# ------------------------------------------- bases kept from the elimination
#
# saturate, intersect, eliminate and hom_kernel hand over the part of
# their elimination basis that is free of the eliminated block.  Over the
# grevlex target that part is the reduced basis itself, so no basis is
# built on first use.


@pytest.mark.parametrize("order", [LEX, block_order(1)], ids=repr)
def test_ideals_and_presentations_are_over_grevlex_only(order):
    r = ring(["x", "y"], order=order)
    with pytest.raises(InputError, match=re.escape(repr(order))):
        IdealHandle(r, [r.var("x")])
    with pytest.raises(InputError):
        PresentedAlgebra(r)


def _counting_buchberger(monkeypatch):
    """Count the Buchberger runs made through `ideals` from here on."""
    runs = []
    real = ideals.buchberger_reduced

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger_reduced", counted)
    return runs


def _elimination_results():
    """(label, handle) for each elimination result of a small corpus."""
    r = ring(["x", "y"])
    s = ring(["a", "g", "x"])
    t = ring(["x", "y", "t"])
    u = ring(["x", "t", "s", "u", "v"])
    out = [
        ("intersect x, y", intersect(handle(r, "x"), handle(r, "y"))),
        ("intersect (x^2, x*y), y", intersect(handle(r, "x^2", "x*y"), handle(r, "y"))),
        ("intersect unit, x + y", intersect(handle(r, "1"), handle(r, "x + y"))),
        ("saturate a*x - g", saturate(handle(s, "a*x - g"), [s.var("a")])),
        ("saturate a*x, a*g", saturate(handle(s, "a*x", "a*g"), [s.var("a")])),
        ("saturate to unit", saturate(handle(s, "a"), [s.var("a")])),
        ("saturate by two", saturate(handle(s, "a*x^2 - g*x", "g^2*a"), [s.var("a"), s.var("g")])),
        ("eliminate parabola", eliminate(handle(t, "x - t", "y - t^2"), ["t"])),
        ("eliminate unit", eliminate(handle(t, "1"), ["t"])),
        ("eliminate to zero", eliminate(handle(u, "t*s*u - x", "s*v - x"), ["u", "v"])),
        ("eliminate two", eliminate(handle(u, "x - t*s", "u - t^2", "v - s^2"), ["t", "s"])),
    ]
    cusp_src = PresentedAlgebra(r)
    line = PresentedAlgebra(ring(["t"]))
    out.append(("kernel of the cusp", hom_kernel(AlgebraHom(cusp_src, line, [line.ring.parse("t^2"), line.ring.parse("t^3")]))))
    segre_src = PresentedAlgebra(ring(["x", "y", "z", "w"]))
    plane = PresentedAlgebra(ring(["s", "t", "u", "v"]))
    images = [plane.ring.parse(p) for p in ("s*u", "s*v", "t*u", "t*v")]
    out.append(("kernel of the Segre map", hom_kernel(AlgebraHom(segre_src, plane, images))))
    fat = PresentedAlgebra(ring(["t"]), IdealHandle(ring(["t"]), [ring(["t"]).parse("t^3")]))
    out.append(("kernel into t^3 = 0", hom_kernel(AlgebraHom(cusp_src, fat, [fat.var("t"), fat.ring.parse("t^2")]))))
    return out


def test_elimination_results_carry_their_reduced_basis(monkeypatch):
    for label, h in _elimination_results():
        runs = _counting_buchberger(monkeypatch)
        basis = h.groebner()
        assert runs == [], label
        assert basis == buchberger_reduced(h.gens), label
        monkeypatch.undo()


@given(st.integers(0, 10**9), st.sampled_from([QQ, Field(5)]))
def test_random_elimination_results_carry_their_reduced_basis(seed, field):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"], field)
    a = IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()])
    b = IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()])
    f = random_poly(rng, r, max_deg=1)
    results = [intersect(a, b)]
    if not f.is_zero():
        results.append(saturate(a, [f]))
    t = ring(["x", "y", "z"], field)
    c = IdealHandle(t, [p for p in (random_poly(rng, t) for _ in range(3)) if not p.is_zero()])
    results.append(eliminate(c, [rng.choice(t.names)]))
    # the kernel of k[u, v] -> k[x, y]/A sending u, v to random images
    src = PresentedAlgebra(ring(["u", "v"], field))
    images = [random_poly(rng, r) for _ in src.ring.names]
    results.append(hom_kernel(AlgebraHom(src, PresentedAlgebra(r, a), images)))
    for h in results:
        assert h.groebner() == buchberger_reduced(h.gens)


# ------------------------------------------- block-free output and the shift
#
# An elimination asks the kernel for the block-free part of its reduced
# basis only (`drop=k`), and moves terms between the grevlex ring and
# its block extension by one bit shift instead of `map_ring`.


@given(st.integers(0, 10**9), st.sampled_from([QQ, Field(5)]))
def test_dropped_block_matches_full_basis_and_shift_matches_map_ring(seed, field):
    import random as _random

    rng = _random.Random(seed)
    tail = ring(["x", "y", "z", "w"][: rng.randint(1, 4)], field)
    k = rng.randint(1, 2)
    polys = [random_poly(rng, tail, max_deg=3) for _ in range(3)]
    ext, lifted = ideals._extend_first(tail, ["_z"] * k, polys)
    assert ext.order == block_order(k) and ext.names[k:] == tail.names
    # the shift moves each term as map_ring does, both ways
    assert lifted == [p.map_ring(ext) for p in polys]
    nonzero = [q for q in lifted if not q.is_zero()]
    back = ideals._eliminated(nonzero, ext, tail, None).gens
    assert back == [q.map_ring(tail) for q in nonzero] == [p for p in polys if not p.is_zero()]
    # generators over the block ring shaped like those of an elimination
    # (z*f - g, 1 - z*f) or random, after a known run on odd seeds: a
    # grevlex basis of the tail, a Groebner basis of the block ring on
    # block-free monomials
    zs = [ext.var(n) for n in ext.names[:k]]
    gens = [random_poly(rng, tail).map_ring(ext) for _ in range(rng.randint(0, 1))]
    for _ in range(rng.randint(1, 2)):
        z = rng.choice(zs)
        f, g = (random_poly(rng, tail).map_ring(ext) for _ in range(2))
        gens.append(rng.choice([z * f - g, ext.one() - z * f, random_poly(rng, ext)]))
    known = []
    if seed % 2:
        known = [g.map_ring(ext) for g in buchberger_reduced([random_poly(rng, tail) for _ in range(2)])]
    full = buchberger_reduced(known + gens, known=len(known))
    dropped = buchberger_reduced(known + gens, known=len(known), drop=k)
    assert dropped == [g for g in full if min(g.uses_vars(), default=k) >= k]
    h = ideals._eliminated(dropped, ext, tail, None)
    assert h.gens == [g.map_ring(tail) for g in dropped]
    assert h.groebner() == buchberger_reduced(h.gens)


def test_shift_transport_refuses_other_rings():
    r = ring(["x", "y"])
    ext, (f,) = ideals._extend_first(r, ["_z"], [r.parse("x - y")])
    # targets with other names, order, field or length, and a grevlex source
    for source, target in [
        (ext, ring(["y", "x"])),
        (ext, ring(["x", "y"], order=LEX)),
        (ext, ring(["x", "y"], Field(5))),
        (ext, ring(["x"])),
        (r, r),
    ]:
        with pytest.raises(InputError) as err:
            ideals._eliminated([f], source, target, None)
        assert repr(source) in str(err.value) and repr(target) in str(err.value)
        assert repr(target.order) in str(err.value)
    lex = ring(["x", "y"], order=LEX)
    with pytest.raises(InputError, match=re.escape(f"{lex!r} under lex")):
        ideals._extend_first(lex, ["_z"], [])
    with pytest.raises(InputError, match=re.escape(repr(ring(["x"])))):
        ideals._extend_first(r, ["_z"], [ring(["x"]).var("x")])
    with pytest.raises(InputError, match=re.escape("block(2)")):
        buchberger_reduced([ext.var("x")], drop=2)


def test_demo_rebuilds_no_basis_it_already_has(monkeypatch):
    """Over the demo instance, no Buchberger run gets as input the reduced
    basis an earlier run returned (restricted to the input's variables,
    since an elimination hands over part of its basis).  A one-generator
    input forms no pair, so its run is not counted."""
    import types
    from pathlib import Path

    from dilatations import cli, groebner
    from dilatations.oracle import SIZE_CAP

    real = groebner.buchberger_reduced
    outputs, repeats = [], []

    def recording(gens, limits=None, known=0, drop=0):
        known = sum(not g.is_zero() for g in gens[:known])
        gens = [g for g in gens if not g.is_zero()]
        out = real(gens, limits, known, drop)
        if len(gens) < 2:
            return out
        names = set(gens[0].ring.names)
        key = [str(g) for g in gens]
        for earlier in outputs:
            src = earlier[0].ring.names
            if key == [str(g) for g in earlier if {src[i] for i in g.uses_vars()} <= names]:
                repeats.append(key)
        outputs.append(out)
        return out

    monkeypatch.setattr(groebner, "buchberger_reduced", recording)
    monkeypatch.setattr(ideals, "buchberger_reduced", recording)
    inst = cli.parse(str(Path(__file__).resolve().parent.parent / "instances" / "demo.dila"))
    flags = types.SimpleNamespace(oracle_size_cap=SIZE_CAP, bidegree_bound=4, jobs=1, machine_only=True)
    for _, args in inst.requests:
        cli.run_request(inst, args, flags)
    assert outputs
    assert repeats == []


# The Segre quadric with three centers: its two-stage and forget requests
# share handles whose bases the first of them caches, so seeding on a
# cached basis would make their work depend on which runs first.
SEGRE = """ring S = QQ[x, y, z, w]
rels S = (x*w - y*z)
ideal SYZW in S = (y, z, w)
ideal SXZW in S = (x, z, w)
ideal SXYW in S = (x, y, w)
center S3 on S = [SYZW / x], [SXZW / y], [SXYW / z]
request iso two-stage S3 K=1
request iso forget S3 K=1,2
"""


def _buchberger_work(monkeypatch, path, reverse):
    """Run an instance's requests, in the file's order or reversed, from a
    fresh parse; return (normal forms computed inside Buchberger runs,
    runs given a known run, runs that drop a block)."""
    import types

    from dilatations import cli, groebner
    from dilatations.oracle import SIZE_CAP

    real_nf, real_bb = groebner.normal_form, groebner.buchberger_reduced
    state = {"depth": 0, "reductions": 0, "seeded": 0, "dropping": 0}

    def counting_nf(f, basis):
        state["reductions"] += state["depth"] > 0
        return real_nf(f, basis)

    def counting_bb(gens, limits=None, known=0, drop=0):
        state["seeded"] += known > 0
        state["dropping"] += drop > 0
        state["depth"] += 1
        try:
            return real_bb(gens, limits, known, drop)
        finally:
            state["depth"] -= 1

    inst = cli.parse(str(path))
    flags = types.SimpleNamespace(oracle_size_cap=SIZE_CAP, bidegree_bound=4, jobs=1, machine_only=True)
    requests = list(reversed(inst.requests)) if reverse else inst.requests
    with monkeypatch.context() as m:
        m.setattr(groebner, "normal_form", counting_nf)
        m.setattr(groebner, "buchberger_reduced", counting_bb)
        m.setattr(ideals, "buchberger_reduced", counting_bb)
        for _, args in requests:
            cli.run_request(inst, args, flags)
    return state["reductions"], state["seeded"], state["dropping"]


@pytest.mark.parametrize("instance", ["demo", "segre"])
def test_buchberger_work_does_not_depend_on_request_order(monkeypatch, tmp_path, instance):
    """A Buchberger run starts from a known run only when a handle was
    built with its reduced basis, never because an earlier request cached
    one, so the requests in reverse order do the same reductions."""
    from pathlib import Path

    if instance == "demo":
        path = Path(__file__).resolve().parent.parent / "instances" / "demo.dila"
    else:
        path = tmp_path / "segre.dila"
        path.write_text(SEGRE, encoding="utf-8")
    forward = _buchberger_work(monkeypatch, path, False)
    backward = _buchberger_work(monkeypatch, path, True)
    assert forward[0] == backward[0] > 0, (forward, backward)
    assert forward[1] > 0 and backward[1] > 0
    assert forward[2] == backward[2] > 0
