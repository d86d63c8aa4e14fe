import os
import random
from pathlib import Path

import pytest
from hypothesis import settings

from dilatations.poly import PolyRing, Polynomial, QQ

settings.register_profile("suite", max_examples=40, deadline=None)
# more examples for the property tests that CI runs a second time, with
# `--hypothesis-profile ci`; tests that set their own max_examples keep it
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile("suite")


def mono_lcm(a, b):
    """The exponent-wise maximum: a reference for the packed lcm."""
    return tuple(max(x, y) for x, y in zip(a, b))


def order_key(order, e):
    """The sort key of exponent tuple e under `order`, bigger key = bigger
    monomial: the tuple itself (lex), or (degree, reversed negated
    exponents) for grevlex and for each block of a block order.  It is
    the reference the packed encoding is checked against."""
    if order.kind == "lex":
        return tuple(e)

    def grevlex(part):
        return (sum(part), tuple(-x for x in reversed(part)))

    if order.kind == "grevlex":
        return grevlex(e)
    return grevlex(e[: order.block]) + grevlex(e[order.block :])


def poly(r, terms):
    """The polynomial over r with terms {exponent tuple: coefficient}."""
    return Polynomial(r, {r.packing.pack(m): c for m, c in terms.items()})


def exponents(f):
    """f's terms as {exponent tuple: coefficient}."""
    return {f.ring.packing.unpack(m): c for m, c in f.terms.items()}


def ring(names, field=QQ, order=None):
    from dilatations.poly import GREVLEX

    return PolyRing(field, names, order or GREVLEX)


def package_env():
    """Environment for a subprocess that runs the `dilatations` package this
    process imported: its directory goes first on PYTHONPATH, as an absolute
    path, so the child finds the same code from any working directory."""
    import dilatations

    src = str(Path(dilatations.__file__).parent.parent)
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + old if old else src
    return env


def random_poly(rng: random.Random, r: PolyRing, max_deg=2, max_terms=3, coeff_bound=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * r.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(r.nvars)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c == 0:
            continue
        mono = tuple(exps)
        terms[mono] = r.field.add(terms.get(mono, r.field.zero()), r.field.of_int(c))
        if not terms[mono]:
            del terms[mono]
    return poly(r, terms)


@pytest.fixture
def rng():
    return random.Random(20240811)
