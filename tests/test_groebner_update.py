"""The Gebauer-Moeller update on exponent fields against a reference copy
of the update on fully expanded packed lcms, with the M criterion in
degree order.

Both loops run with their heap operations recorded, so the tests compare
what was queued (each update's pushes, as a set: the two walk the new
lcms in different orders), what the B criterion kept, and every pop, and
then the returned bases or the budget error's text.
"""

import heapq
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from dilatations import groebner
from dilatations.groebner import (
    Limits,
    Reducers,
    _integral,
    _interreduce,
    _inverse,
    _row,
    _same_ring,
    buchberger_reduced,
    normal_form,
)
from dilatations.poly import GREVLEX, LEX, Field, PolyRing, QQ, ResourceLimitError, _add_multiple, block_order

from conftest import poly


def _reference(gens, limits=None, heap_ops=heapq):
    """`buchberger_reduced` with the update as it was on expanded lcms:
    every pair's packed lcm and degree computed, the budgets charged pair
    by pair, and the M criterion over the lcms sorted by degree."""
    gens = list(gens)
    nonzero = [k for k, g in enumerate(gens) if not g.is_zero()]
    if not nonzero:
        return []
    ring = _same_ring([gens[k] for k in nonzero])
    limits = limits or Limits()
    packing = ring.packing
    guard, deg = packing.guard, packing.deg

    def lcm(a, b):
        return a + packing.expand(packing.excess(a, b))

    fld = ring.field
    one = 1
    minus_one = fld.neg(one)
    basis, reducer_rows, lms, degs, sugar, live, heap = [], [], [], [], [], [], []
    state = {"formed": 0, "table": Reducers(packing, [])}

    def exceeded(what):
        top = max(deg(m) for g in basis for m in g)
        return ResourceLimitError(
            f"{what}: {state['formed']} pairs formed; basis of {len(basis)} elements, "
            f"largest degree {top}; ring of {ring.nvars} variables, order {ring.order!r}"
        )

    def add(r, s):
        lm_h = max(r)
        inv = _inverse(fld, r[lm_h])
        if inv != one:
            r = {m: _integral(fld.mul(inv, c)) for m, c in r.items()}
        h = len(basis)
        basis.append(r)
        reducer_rows.append(_row(packing, r))
        lms.append(lm_h)
        degs.append(deg(lm_h))
        sugar.append(s)
        by_lcm, lcm_deg = {}, {}
        for g in live:
            state["formed"] += 1
            if state["formed"] > limits.pair_cap:
                raise exceeded(f"pair budget {limits.pair_cap} exceeded")
            l = lcm(lms[g], lm_h)
            if l & guard:
                raise packing.overflow(l)
            if l not in lcm_deg:
                lcm_deg[l] = d = deg(l)
                if d > limits.degree_cap:
                    raise exceeded(f"degree budget {limits.degree_cap} exceeded (lcm degree {d})")
            by_lcm.setdefault(l, []).append(g)
        kept = [
            e for e in heap
            if (e[1] - lm_h) & guard
            or lcm(lms[e[2]], lm_h) == e[1]
            or lcm(lms[e[3]], lm_h) == e[1]
        ]
        if len(kept) < len(heap):
            heap[:] = kept
            heap_ops.heapify(heap)
        minimal = []
        for l in sorted(by_lcm, key=lcm_deg.__getitem__):
            d = lcm_deg[l]
            for dm, m in minimal:
                if dm < d and not (l - m) & guard:
                    break
            else:
                minimal.append((d, l))
                group = by_lcm[l]
                if any(l == lms[g] + lm_h for g in group):
                    continue
                ps, g = min((max(sugar[g] + d - degs[g], s + d - degs[h]), g) for g in group)
                heap_ops.heappush(heap, (ps, l, g, h))
        live[:] = [g for g in live if (lms[g] - lm_h) & guard] + [h]
        state["table"] = Reducers(packing, [reducer_rows[e] for e in live])

    for k in sorted(nonzero, key=lambda k: (gens[k].lm(), sorted(gens[k].terms.items()))):
        add(packing.terms(gens[k]), gens[k].degree())
    while heap:
        s, l, i, j = heap_ops.heappop(heap)
        ti, tj = l - lms[i], l - lms[j]
        spoly = {}
        _add_multiple(spoly, reducer_rows[j][2], tj, one, packing)
        _add_multiple(spoly, reducer_rows[i][2], ti, minus_one, packing)
        r = normal_form(spoly, state["table"])
        if not r:
            continue
        if deg(max(r)) > limits.degree_cap:
            raise exceeded(f"degree budget {limits.degree_cap} exceeded (new lead degree {deg(max(r))})")
        add(r, s)
    return _interreduce([basis[k] for k in live], packing)


class _Recorder:
    """heapq's three calls, recording a trace: each run of pushes as one
    sorted group, the heap B kept when it dropped a pair, and each pop."""

    def __init__(self):
        self.events = []

    def heappush(self, heap, entry):
        if not self.events or self.events[-1][0] != "push":
            self.events.append(("push", []))
        self.events[-1][1].append(entry)
        heapq.heappush(heap, entry)

    def heapify(self, heap):
        self.events.append(("kept", sorted(heap)))
        heapq.heapify(heap)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.events.append(("pop", entry))
        return entry

    def trace(self):
        return [(kind, sorted(x) if kind == "push" else x) for kind, x in self.events]


def _outcome(run):
    """(result or error text, heap trace) of run(heap_ops)."""
    rec = _Recorder()
    try:
        out = run(rec)
    except ResourceLimitError as exc:
        out = f"ResourceLimitError: {exc}"
    return out, rec.trace()


def _both(gens, limits=None):
    """The outcomes of the kernel and of the reference on the same input."""

    def kernel(rec):
        with mock.patch.object(groebner, "heapq", rec):
            return buchberger_reduced(gens, limits=limits)

    return _outcome(kernel), _outcome(lambda rec: _reference(gens, limits, rec))


ORDERS = {"lex": LEX, "grevlex": GREVLEX, "block1": block_order(1), "block2": block_order(2), "block3": block_order(3)}


def _random_binomial(rng, r):
    """Two monomials of degree 1 to 3 with coefficients 1, -1 or 2 (or one,
    when they coincide): few variables and low degrees make the new pairs
    share and divide lcms, and binomials keep the coefficients small."""
    terms = {}
    for _ in range(2):
        e = [0] * r.nvars
        for _ in range(rng.randint(1, 3)):
            e[rng.randrange(r.nvars)] += 1
        terms[tuple(e)] = r.field.of_int(rng.choice([1, -1, 2]))
    return poly(r, terms)


@given(
    st.integers(0, 10**9),
    st.sampled_from([QQ, Field(5)]),
    st.sampled_from(sorted(ORDERS)),
    st.sampled_from([(64, 200_000), (4, 200_000), (64, 8), (64, 30)]),
)
def test_update_matches_expanded_lcm_reference(seed, field, order_name, caps):
    rng = random.Random(seed)
    r = PolyRing(field, ["x", "y", "z", "w", "v"], ORDERS[order_name])
    gens = [_random_binomial(rng, r) for _ in range(rng.randint(3, 7))]
    gens.append(r.zero())
    rng.shuffle(gens)
    ours, ref = _both(gens, Limits(*caps))
    assert ours[0] == ref[0]
    assert ours[1] == ref[1]


# ------------------------------------------------------------ budget edges


def test_pair_cap_trips_partway_through_an_update():
    # x, y, z, w form 0 + 1 + 2 + 3 pairs; with a cap of 4, adding w forms
    # one pair within the cap and trips at its second
    r = PolyRing(QQ, ["x", "y", "z", "w"], GREVLEX)
    gens = [r.var(v) for v in "xyzw"]
    message = (
        "pair budget 4 exceeded: 5 pairs formed; basis of 4 elements, largest degree 1; "
        "ring of 4 variables, order grevlex"
    )
    with pytest.raises(ResourceLimitError) as info:
        buchberger_reduced(gens, limits=Limits(pair_cap=4))
    assert str(info.value) == message
    ours, ref = _both(gens, Limits(pair_cap=4))
    assert ours == ref and ours[0] == f"ResourceLimitError: {message}"
    assert len(buchberger_reduced(gens, limits=Limits(pair_cap=6))) == 4


@pytest.mark.parametrize("cap", [-1, 0])
def test_pair_cap_at_or_below_zero_trips_on_the_first_pair(cap):
    r = PolyRing(QQ, ["x", "y"], GREVLEX)
    gens = [r.var("x"), r.var("y")]
    ours, ref = _both(gens, Limits(pair_cap=cap))
    assert ours == ref and ours[0].startswith(f"ResourceLimitError: pair budget {cap} exceeded: 1 pairs formed;")


def test_degree_cap_at_the_lcm_degree_and_one_below():
    # x^3*y and x*y^3: the degrees sum to 8 and the lcm x^3*y^3 has
    # degree 6, so the pair is checked at a cap of 6 (passes) and 5
    # (raises), and not at 8; its S-polynomial is 0
    r = PolyRing(QQ, ["x", "y"], GREVLEX)
    gens = [r.parse("x^3*y"), r.parse("x*y^3")]
    for cap in (5, 6, 7, 8):
        ours, ref = _both(gens, Limits(degree_cap=cap))
        assert ours == ref
    with pytest.raises(ResourceLimitError, match=r"degree budget 5 exceeded \(lcm degree 6\)"):
        buchberger_reduced(gens, limits=Limits(degree_cap=5))
    assert buchberger_reduced(gens, limits=Limits(degree_cap=6)) == buchberger_reduced(gens)


def test_degree_cap_trips_on_the_first_pair_over_it():
    # adding y^2*z^2 forms (x*y, y^2*z^2) of lcm degree 5, which the cap
    # of 5 passes although the degrees sum to 6, and then (x*z*w,
    # y^2*z^2) of lcm degree 6, which trips it
    r = PolyRing(QQ, ["x", "y", "z", "w"], GREVLEX)
    gens = [r.parse("x*y"), r.parse("x*z*w"), r.parse("y^2*z^2")]
    ours, ref = _both(gens, Limits(degree_cap=5))
    assert ours == ref
    assert ours[0] == (
        "ResourceLimitError: degree budget 5 exceeded (lcm degree 6): 3 pairs formed; "
        "basis of 3 elements, largest degree 4; ring of 4 variables, order grevlex"
    )


def test_degree_cap_above_the_field_bound_still_checks_the_fields():
    # each leading monomial has degree 2^31 + 1 and fits its fields; the
    # lcm x^(2^31)*y^(2^31)*z has degree 2^32 + 1, past the packed field
    # bound, although the degree cap would allow it
    r = PolyRing(QQ, ["x", "y", "z"], GREVLEX)
    gens = [r.parse("x^2147483648*z + 1"), r.parse("y^2147483648*z + 1")]
    with pytest.raises(ResourceLimitError, match=r"reaches the packed field bound 2\^32 in ring QQ\[x, y, z\]"):
        buchberger_reduced(gens, limits=Limits(degree_cap=2**40))
    ours, ref = _both(gens, Limits(degree_cap=2**40))
    assert ours == ref
