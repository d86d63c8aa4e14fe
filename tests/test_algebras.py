import pytest
from hypothesis import given, strategies as st

from dilatations.algebras import (
    AlgebraHom,
    PresentedAlgebra,
    check_hom,
    hom_kernel,
    is_nzd,
    maps_equal,
)
from dilatations.groebner import Limits, buchberger_reduced
from dilatations.ideals import IdealHandle, eliminate
from dilatations.poly import GREVLEX, QQ, Field, InputError, PolyRing, Polynomial

from conftest import random_poly, ring


def algebra(names, *rels):
    r = ring(list(names))
    return PresentedAlgebra(r, IdealHandle(r, [r.parse(t) for t in rels]))


def test_check_hom_examples():
    a = algebra("x", "x^2")
    assert check_hom(AlgebraHom.identity(a))
    b = PresentedAlgebra(ring(["t"]))
    assert not check_hom(AlgebraHom(a, b, [b.var("t")]))
    c = algebra(["x", "y"], "x^3 - y^2")
    h = AlgebraHom(c, b, [b.ring.parse("t^2"), b.ring.parse("t^3")])
    assert check_hom(h)


def test_hom_kernel_examples():
    free = PresentedAlgebra(ring(["x", "y"]))
    b = PresentedAlgebra(ring(["t"]))
    h = AlgebraHom(free, b, [b.ring.parse("t^2"), b.ring.parse("t^3")])
    assert hom_kernel(h).equals(free.ideal([free.ring.parse("y^2 - x^3")]))
    a = algebra(["x"], "x^2")
    hq = AlgebraHom(PresentedAlgebra(ring(["x"])), a, [a.var("x")])
    assert [str(g) for g in hom_kernel(hq).groebner()] == ["x^2"]
    ident = AlgebraHom.identity(algebra(["x", "y"], "x*y - 1"))
    assert hom_kernel(ident).equals(ident.source.relations)


def test_is_nzd_examples():
    assert is_nzd(PresentedAlgebra(ring(["x"])), ring(["x"]).var("x"))
    mix = algebra(["x", "y"], "x*y")
    assert not is_nzd(mix, mix.var("x"))
    nil = algebra(["u"], "u^2")
    assert not is_nzd(nil, nil.var("u"))
    zero = algebra(["u"], "1")
    assert zero.is_zero_ring() and is_nzd(zero, zero.var("u"))


def _nzd_by_colon(a, f):
    """Test-local references: P : f = P, and P : f^∞ = P (equivalent,
    since P ⊆ P : f ⊆ P : f^∞)."""
    from dilatations.ideals import colon, saturate

    return colon(a.relations, f).equals(a.relations), saturate(a.relations, [f]).equals(a.relations)


_NZD_CASES = [
    # (relations, element, expected)
    ((["x", "y"], "x*y"), "x", False),  # zero-divisor
    ((["x", "y"], "x*y"), "x + y", True),
    ((["x", "y"], "x*y", "x^2"), "y + x", False),
    ((["u"], "u^2"), "u", False),  # nilpotent
    ((["u", "v"], "u^3", "v^2"), "u*v + u", False),
    ((["u", "v"], "u^3"), "v + u", True),  # a non-zero-divisor plus a nilpotent
    ((["x", "y"], "x*y"), "x^2*y - x*y", False),  # in P
    ((["x", "y"], "x^2 - y^3"), "x^2 - y^3", False),  # a generator of P
    ((["u"], "1"), "u", True),  # zero ring
    ((["x", "y"], "1"), "x*y", True),
    ((["x"],), "x", True),  # nzd in a domain
    ((["x", "y", "z", "w"], "x*w - y*z"), "x", True),
    ((["x", "y", "z"], "x*z", "y*z"), "z", False),
    ((["x", "y", "z"], "x*z", "y*z"), "x + z", True),
]


@pytest.mark.parametrize("case", _NZD_CASES, ids=lambda c: f"{c[0][1:]}-{c[1]}")
def test_is_nzd_agrees_with_colon_references(case):
    (names, *rels), text, expected = case
    a = algebra(names, *rels)
    f = a.ring.parse(text)
    assert is_nzd(a, f) == expected
    assert _nzd_by_colon(a, f) == (expected, expected)


@given(st.integers(0, 10**9))
def test_is_nzd_agrees_with_colon_references_on_random_algebras(seed):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"])
    a = PresentedAlgebra(r, IdealHandle(r, [p for p in (random_poly(rng, r) for _ in range(2)) if not p.is_zero()]))
    f = random_poly(rng, r)
    if f.is_zero():
        return
    single, saturated = _nzd_by_colon(a, f)
    assert is_nzd(a, f) == single == saturated


def test_maps_equal_examples():
    b = PresentedAlgebra(ring(["t"]))
    a = PresentedAlgebra(ring(["x"]))
    h1 = AlgebraHom(a, b, [b.var("t")])
    h2 = AlgebraHom(a, b, [b.ring.parse("2*t")])
    assert maps_equal(h1, h1)
    assert not maps_equal(h1, h2)
    # images differing by a relation element agree in the quotient
    q = algebra(["t"], "t^2")
    g1 = AlgebraHom(a, q, [q.var("t")])
    g2 = AlgebraHom(a, q, [q.ring.parse("t + t^2")])
    assert maps_equal(g1, g2)


def test_maps_equal_is_equivalence(rng):
    b = algebra(["t"], "t^3")
    a = PresentedAlgebra(ring(["x"]))
    pool = [
        AlgebraHom(a, b, [b.ring.parse(text)])
        for text in ["t", "t + t^3", "2*t", "t^2", "t^2 + 2*t^3"]
    ]
    for h1 in pool:
        assert maps_equal(h1, h1)
        for h2 in pool:
            assert maps_equal(h1, h2) == maps_equal(h2, h1)
            for h3 in pool:
                if maps_equal(h1, h2) and maps_equal(h2, h3):
                    assert maps_equal(h1, h3)


def test_kernel_contains_relations_and_induced_map():
    a = algebra(["x", "y"], "x*y")
    b = algebra(["t"], )
    h = AlgebraHom(a, b, [b.var("t"), b.zero()])
    assert check_hom(h)
    k = hom_kernel(h)
    for g in a.relations.gens:
        assert k.contains(g)
    induced = AlgebraHom(PresentedAlgebra(a.ring, k), b, h.images)
    assert check_hom(induced)


@given(st.integers(0, 10**9))
def test_nzd_face_property(seed):
    import random as _random

    rng = _random.Random(seed)
    r = ring(["x", "y"])
    rel = random_poly(rng, r)
    a = PresentedAlgebra(r, IdealHandle(r, [rel] if not rel.is_zero() else []))
    f, g = random_poly(rng, r), random_poly(rng, r)
    if is_nzd(a, f) and is_nzd(a, g):
        assert is_nzd(a, f * g)


def test_composition():
    a = PresentedAlgebra(ring(["x"]))
    b = PresentedAlgebra(ring(["t"]))
    c = PresentedAlgebra(ring(["s"]))
    h1 = AlgebraHom(a, b, [b.ring.parse("t^2")])
    h2 = AlgebraHom(b, c, [c.ring.parse("s + 1")])
    comp = h2.compose(h1)
    assert str(comp.images[0]) == "s^2 + 2*s + 1"
    with pytest.raises(InputError):
        h1.compose(h2)


def test_by_name_sends_unlisted_names_to_their_namesakes():
    a = algebra(["x", "y", "w"], "x*y - w")
    b = algebra(["t", "w", "y", "x"], "x*y - w", "t^2")
    h = AlgebraHom.by_name(a, b)
    assert h.images == [b.var("x"), b.var("y"), b.var("w")]
    assert check_hom(h)


def test_by_name_listed_names_override_their_namesakes():
    a = algebra(["x", "y", "w"], "x*y - w")
    b = PresentedAlgebra(ring(["t", "w", "y", "x"]))
    h = AlgebraHom.by_name(a, b, {"x": b.ring.parse("x + t"), "w": b.ring.parse("x*y + t*y")})
    assert [str(f) for f in h.images] == ["t + x", "y", "t*y + y*x"]
    assert check_hom(h)
    pairs = AlgebraHom.by_name(a, b, [("y", b.var("t"))])
    assert pairs.images == [b.var("x"), b.var("t"), b.var("w")]


def test_by_name_without_a_namesake_raises():
    a = PresentedAlgebra(ring(["x", "y"]))
    b = PresentedAlgebra(ring(["x", "t"]))
    with pytest.raises(InputError, match="unknown variable 'y'"):
        AlgebraHom.by_name(a, b)
    assert AlgebraHom.by_name(a, b, {"y": b.var("t")}).images == [b.var("x"), b.var("t")]


def test_extend_moves_relations_in_order_and_keeps_limits():
    r = ring(["x", "y"])
    limits = Limits(pair_cap=100)
    rels = [r.parse("y^2 - x"), r.parse("x*y - 1")]
    a = PresentedAlgebra(r, IdealHandle(r, rels, limits))

    b = a.extend(["s", "t"])
    assert b.ring == r.extend(["s", "t"])
    assert b.ring.names == ("x", "y", "s", "t")
    assert b.ring.order == GREVLEX
    assert b.relations.gens == [p.map_ring(b.ring) for p in rels]
    assert b.relations.limits is limits
    assert a.relations.gens == rels


def test_extend_starts_no_known_run():
    # relations that are a known reduced basis move over as plain generators
    r = ring(["x", "y"])
    basis = buchberger_reduced([r.parse("x^2 - y"), r.parse("x*y - 1")])
    a = PresentedAlgebra(r, IdealHandle._of_reduced(r, basis, None))
    b = a.extend(["s"])
    assert b.relations.gens == [p.map_ring(b.ring) for p in basis]
    assert b.relations._known == 0
    assert b.quotient([b.var("s")]).relations._known == 0


def test_localize_matches_hand_built_presentation():
    a = algebra(["z", "x", "y"], "x*y - z^2")
    f = a.ring.parse("x + y")
    loc, zname = a.localize(f)
    assert zname == "z_2"
    lring = a.ring.extend([zname])
    rels = [p.map_ring(lring) for p in a.relations.gens]
    rels.append(lring.var(zname) * f.map_ring(lring) - lring.one())
    assert loc.ring == lring
    assert loc.relations.gens == rels
    assert loc == PresentedAlgebra(lring, IdealHandle(lring, rels))
    limited = PresentedAlgebra(a.ring, IdealHandle(a.ring, a.relations.gens, Limits(pair_cap=100)))
    loc2, _ = limited.localize(f)
    assert loc2.relations.gens == rels
    assert loc2.relations.limits is limited.relations.limits
    # f is a unit there: z*f = 1
    assert loc.eq(loc.var(zname) * f.map_ring(lring), loc.one())


def test_localize_takes_element_of_a_subring():
    a = algebra(["a", "x"], "x^2 - a")
    base = ring(["a"])
    loc, zname = a.localize(base.var("a"))
    assert loc.ring.names == ("a", "x", zname)
    assert loc.relations.gens[-1] == loc.ring.parse(f"{zname}*a - 1")


# ------------------------------------------------- kernels by shared variables


def _kernel_by_aliasing_every_target_variable(h):
    """Test-local reference: the graph ideal with a fresh alias for every
    target variable and a generator s - φ(s) for every source variable,
    the whole alias block eliminated."""
    src, tgt = h.source.ring, h.target.ring
    alias = src.fresh_names(tgt.names)
    combined = PolyRing(src.field, tuple(alias) + src.names)
    tgt_alias = PolyRing(tgt.field, alias)

    def to_combined(f):
        return Polynomial(tgt_alias, dict(f.terms)).map_ring(combined)

    gens = [to_combined(g) for g in h.target.relations.gens]
    gens += [combined.var(n) - to_combined(img) for n, img in zip(src.names, h.images)]
    return eliminate(IdealHandle(combined, gens, h.source.relations.limits), alias)


@st.composite
def _small_poly(draw, r, max_terms=2):
    """Up to max_terms terms of degree <= 2, small nonzero coefficients."""
    f = r.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        m = r.one()
        for _ in range(draw(st.integers(0, 2))):
            m = m * r.var(draw(st.sampled_from(r.names)))
        f = f + m * draw(st.sampled_from([1, 2, -1, 3]))
    return f


@st.composite
def _mixed_maps(draw):
    """A map from a free algebra on a few of x, y, z to k[target]/Q, the
    target's names drawn from x, y, z, t (so namesakes, renamings and
    swaps all occur), each image a target variable, a scaled one, or a
    small polynomial; two source variables may share one target
    variable."""
    field = draw(st.sampled_from([QQ, Field(5)]))
    src_names = draw(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3, unique=True))
    tgt_names = draw(st.lists(st.sampled_from(["x", "y", "z", "t"]), min_size=1, max_size=3, unique=True))
    r = ring(tgt_names, field)
    rels = [draw(_small_poly(r)) for _ in range(draw(st.integers(0, 2)))]
    target = PresentedAlgebra(r, IdealHandle(r, [g for g in rels if not g.is_zero()]))
    images = []
    for _ in src_names:
        kind = draw(st.sampled_from(["variable", "variable", "scaled", "polynomial"]))
        v = r.var(draw(st.sampled_from(tgt_names)))
        if kind == "variable":
            images.append(v)
        elif kind == "scaled":
            images.append(v * draw(st.sampled_from([2, 3])))
        else:
            images.append(draw(_small_poly(r)))
    return AlgebraHom(PresentedAlgebra(ring(src_names, field)), target, images)


@given(_mixed_maps())
def test_shared_variable_kernel_matches_all_alias_reference(h):
    assert hom_kernel(h).groebner() == _kernel_by_aliasing_every_target_variable(h).groebner()


def _eliminated_blocks(monkeypatch):
    """The variable blocks that `hom_kernel` hands to `eliminate`, in call order."""
    blocks = []

    def recording(a, names):
        blocks.append(list(names))
        return eliminate(a, names)

    monkeypatch.setattr("dilatations.algebras.eliminate", recording)
    return blocks


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_kernel_of_a_map_renaming_every_target_variable_eliminates_nothing(monkeypatch, field):
    blocks = _eliminated_blocks(monkeypatch)
    # the quotient shape: the fraction variable u goes to 0, the base
    # variables to their namesakes
    r = ring(["x", "y"], field)
    base = PresentedAlgebra(r, IdealHandle(r, [r.parse("x*y - 1")]))
    prime = PresentedAlgebra(ring(["x", "y", "u"], field))
    quotient = AlgebraHom.by_name(prime, base, {"u": base.zero()})
    # a swap x <-> y
    free = PresentedAlgebra(ring(["x", "y"], field))
    swap = AlgebraHom(free, base, [base.var("y"), base.var("x")])
    kernels = [hom_kernel(h).groebner() for h in (quotient, swap)]
    assert blocks == [[], []]
    assert kernels == [_kernel_by_aliasing_every_target_variable(h).groebner() for h in (quotient, swap)]
    assert kernels == [[prime.ring.parse("x*y - 1"), prime.var("u")], [r.parse("x*y - 1")]]


def test_kernel_aliases_scaled_and_repeated_images(monkeypatch):
    blocks = _eliminated_blocks(monkeypatch)
    b = PresentedAlgebra(ring(["t", "s"]))
    a = PresentedAlgebra(ring(["x", "y", "w"]))
    # x shares t; y (a second preimage of t) and w (t scaled) do not, and
    # s, no variable's image, is the one aliased
    h = AlgebraHom(a, b, [b.var("t"), b.var("t"), b.ring.parse("2*t")])
    kernel = hom_kernel(h).groebner()
    assert blocks == [["s"]]
    assert [str(g) for g in kernel] == ["x - 1/2*w", "y - 1/2*w"]
    assert kernel == _kernel_by_aliasing_every_target_variable(h).groebner()
