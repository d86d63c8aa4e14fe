"""Cross-validation of the Groebner kernel against an independent
implementation (sympy), on randomized small ideals over QQ.  sympy is a
test-only reference; nothing in the package imports it."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dilatations.groebner import buchberger_reduced
from dilatations.poly import GREVLEX, LEX, PolyRing, QQ

from conftest import poly, random_poly


def _sympy_basis(polys, names, order):
    syms = sympy.symbols(" ".join(names))
    if len(names) == 1:
        syms = (syms,)
    exprs = [sympy.sympify(str(p).replace("^", "**")) for p in polys]
    g = sympy.groebner(exprs, *syms, order=order)
    return g.exprs


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("order_name", ["lex", "grevlex"])
def test_reduced_basis_matches_sympy(seed, order_name):
    rng = random.Random(9000 + seed)
    names = ["x", "y", "z"][: rng.choice([2, 3])]
    ring = PolyRing(QQ, names, LEX if order_name == "lex" else GREVLEX)
    gens = []
    while len(gens) < rng.randint(1, 3):
        p = random_poly(rng, ring, max_deg=2, max_terms=3, coeff_bound=3)
        if not p.is_zero():
            gens.append(p)
    ours = buchberger_reduced(gens)
    theirs = _sympy_basis(gens, names, order_name)
    # sympy normalizes to primitive integer form; compare monic forms
    ours_set = {str(g) for g in ours}
    theirs_set = {str(ring.parse(str(e).replace("**", "^")).monic()) for e in theirs}
    assert ours_set == theirs_set, (gens, ours_set, theirs_set)


def test_twisted_cubic_matches_sympy():
    ring = PolyRing(QQ, ["x", "y", "z"], LEX)
    gens = [ring.parse("x^2 - y"), ring.parse("x^3 - z")]
    ours = {str(g) for g in buchberger_reduced(gens)}
    theirs = {
        str(ring.parse(str(e).replace("**", "^")).monic())
        for e in _sympy_basis(gens, ["x", "y", "z"], "lex")
    }
    assert ours == theirs


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_basis_matches_sympy(seed, p):
    from dilatations.poly import Field

    rng = random.Random(7000 + 31 * p + seed)
    names = ["x", "y"]
    ring = PolyRing(Field(p), names, GREVLEX)
    gens = []
    while len(gens) < rng.randint(1, 3):
        q = random_poly(rng, ring, max_deg=3, max_terms=3, coeff_bound=p)
        if not q.is_zero():
            gens.append(q)
    ours = {str(g) for g in buchberger_reduced(gens)}
    syms = sympy.symbols("x y")
    exprs = [sympy.sympify(str(g).replace("^", "**")) for g in gens]
    basis = sympy.groebner(exprs, *syms, order="grevlex", modulus=p)
    theirs = {str(ring.parse(str(e).replace("**", "^"))) for e in basis.exprs}
    assert ours == theirs, (p, [str(g) for g in gens], ours, theirs)


@pytest.mark.parametrize("seed", range(6))
def test_deeper_rational_basis_matches_sympy(seed):
    rng = random.Random(5500 + seed)
    names = ["x", "y", "z"]
    ring = PolyRing(QQ, names, GREVLEX)
    gens = []
    while len(gens) < 3:
        q = random_poly(rng, ring, max_deg=3, max_terms=3, coeff_bound=4)
        if not q.is_zero():
            gens.append(q)
    ours = {str(g) for g in buchberger_reduced(gens)}
    theirs = {
        str(ring.parse(str(e).replace("**", "^")).monic())
        for e in _sympy_basis(gens, names, "grevlex")
    }
    assert ours == theirs


def _random_rational_poly(rng, ring, max_deg=3):
    """A random polynomial of two or three terms whose coefficients are
    p/q with q in 1..5, so that non-integral rationals reach the kernel
    (`random_poly` allows one-term inputs, and at this size pairs of them
    mostly give monomial or unit ideals)."""
    terms = {}
    for _ in range(rng.randint(2, 3)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return poly(ring, {m: c for m, c in terms.items() if c})


def _from_sympy(ring, exprs):
    syms = sympy.symbols(" ".join(ring.names))
    out = set()
    for e in exprs:
        terms = sympy.Poly(e, *syms, domain="QQ").terms()
        f = poly(ring, {m: Fraction(int(c.p), int(c.q)) for m, c in terms})
        out.add(str(f.monic()))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("order_name", ["lex", "grevlex"])
def test_non_integral_rational_basis_matches_sympy(seed, order_name):
    rng = random.Random(6100 + seed)
    names = ["x", "y", "z"][: rng.choice([2, 3])]
    ring = PolyRing(QQ, names, LEX if order_name == "lex" else GREVLEX)
    gens = []
    while len(gens) < 2:
        p = _random_rational_poly(rng, ring)
        if not p.is_constant():
            gens.append(p)
    assert any(c.denominator > 1 for g in gens for c in g.terms.values())
    ours = {str(g) for g in buchberger_reduced(gens)}
    assert ours == _from_sympy(ring, _sympy_basis(gens, names, order_name)), [str(g) for g in gens]


# Saturation and elimination results take over the free-of-block part of
# their elimination basis as their reduced basis.  sympy reaches the same
# basis by its own route: a lex basis with the eliminated variable first,
# its elements free of that variable, and then their grevlex basis.


def _sympy_elimination_basis(ring, exprs, drop):
    syms = sympy.symbols(" ".join([drop] + list(ring.names)))
    lex = sympy.groebner(exprs, *syms, order="lex").exprs
    kept = [e for e in lex if syms[0] not in e.free_symbols]
    if not kept:
        return set()
    return _from_sympy(ring, sympy.groebner(kept, *syms[1:], order="grevlex").exprs)


def _to_sympy(p):
    return sympy.sympify(str(p).replace("^", "**"))


@pytest.mark.parametrize("seed", range(10))
def test_saturation_basis_matches_sympy(seed):
    from dilatations.ideals import IdealHandle, saturate

    rng = random.Random(8200 + seed)
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    gens = []
    while len(gens) < 2:
        p = random_poly(rng, ring, max_deg=3, max_terms=3, coeff_bound=3)
        if not p.is_constant():
            gens.append(p)
    f = ring.parse(rng.choice(["x", "y", "x + y", "x*y", "x - 2", "y^2 + x"]))
    ours = {str(g) for g in saturate(IdealHandle(ring, gens), [f]).groebner()}
    z = sympy.Symbol("z")
    theirs = _sympy_elimination_basis(ring, [_to_sympy(g) for g in gens] + [1 - z * _to_sympy(f)], "z")
    assert ours == theirs, ([str(g) for g in gens], str(f))


@pytest.mark.parametrize("seed", range(10))
def test_elimination_basis_matches_sympy(seed):
    from dilatations.ideals import IdealHandle, eliminate

    # a parametrized plane curve, and on odd seeds one random relation more
    rng = random.Random(8300 + seed)
    ring = PolyRing(QQ, ["t", "x", "y"], GREVLEX)
    a, b = rng.choice([(2, 3), (2, 5), (3, 4), (1, 3), (3, 5)])
    c, d = rng.randint(0, 3), rng.randint(0, 3)
    gens = [ring.parse(f"x - t^{a} + {c}*t"), ring.parse(f"y - t^{b} + {d}")]
    if seed % 2:
        gens.append(random_poly(rng, ring, max_deg=2, max_terms=3, coeff_bound=3))
    elim = eliminate(IdealHandle(ring, gens), ["t"])
    ours = {str(g) for g in elim.groebner()}
    assert _sympy_elimination_basis(elim.ring, [_to_sympy(g) for g in gens], "t") == ours, [str(g) for g in gens]


@pytest.mark.parametrize("seed", range(10))
def test_saturation_by_two_elements_matches_sympy(seed, monkeypatch):
    # one run with a Rabinowitsch variable per element, which starts from
    # the handle's known run (on odd seeds its reduced basis); sympy
    # saturates once by the product f*g
    from dilatations import ideals
    from dilatations.groebner import buchberger_reduced
    from dilatations.ideals import IdealHandle, saturate

    real, runs = ideals.buchberger_reduced, []

    def recording(gens, limits=None, known=0, drop=0):
        runs.append((known, drop))
        return real(gens, limits, known, drop)

    monkeypatch.setattr(ideals, "buchberger_reduced", recording)
    rng = random.Random(8400 + seed)
    ring = PolyRing(QQ, ["x", "y"], GREVLEX)
    gens = []
    while len(gens) < 2:
        p = random_poly(rng, ring, max_deg=3, max_terms=3, coeff_bound=3)
        if not p.is_constant():
            gens.append(p)
    f, g = (ring.parse(s) for s in rng.sample(["x", "y", "x + y", "x*y", "x - 2", "y^2 + x"], 2))
    a = IdealHandle._of_reduced(ring, buchberger_reduced(gens), None) if seed % 2 else IdealHandle(ring, gens)
    ours = {str(p) for p in saturate(a, [f, g]).groebner()}
    assert runs == [(a._known, 2)]
    z = sympy.Symbol("z")
    theirs = _sympy_elimination_basis(ring, [_to_sympy(p) for p in gens] + [1 - z * _to_sympy(f * g)], "z")
    assert ours == theirs, ([str(p) for p in gens], str(f), str(g))
