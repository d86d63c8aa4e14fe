"""Multivariate division and Buchberger's algorithm with reduced output.

The basis returned by `buchberger_reduced` is the unique reduced Groebner
basis of its input ideal: monic, mutually reduced, sorted by leading
monomial (descending).  Identical inputs give bit-identical output; there
is no randomness and no hash-order dependence anywhere in the pair
selection.

Strategy: pairs leave the queue by sugar, then by the order of their
lcm (Giovini et al. 1991, "One sugar cube, please").  Criteria: the
Gebauer-Moeller update (Gebauer & Moeller 1988) runs when an element is
added.  Its B criterion prunes queued pairs; its M and F criteria and the
coprime test filter the new pairs; elements whose leading monomial the
new one divides stop forming pairs and stop reducing.  Budgets: the pair
cap counts every pair formed, dropped ones included, and the degree cap
checks the lcm of every pair formed and every new leading monomial;
exceeding either raises ResourceLimitError, which names the cap, the
pairs formed, the basis size and largest degree, and the ring.
The same loop optionally carries a cofactor track (each basis element
written over the input generators), which `ideal_cofactors` uses.
"""

from __future__ import annotations

import heapq

from .poly import (
    InputError,
    Polynomial,
    mono_coprime,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_DEGREE_CAP = 24
DEFAULT_PAIR_CAP = 200_000


class ResourceLimitError(RuntimeError):
    """A configured S-pair or degree budget was exceeded."""


class Limits:
    __slots__ = ("degree_cap", "pair_cap")

    def __init__(self, degree_cap: int = DEFAULT_DEGREE_CAP, pair_cap: int = DEFAULT_PAIR_CAP):
        self.degree_cap = degree_cap
        self.pair_cap = pair_cap


def _same_ring(polys):
    ring = None
    for f in polys:
        if ring is None:
            ring = f.ring
        elif f.ring is not ring and f.ring != ring:
            raise InputError("basis elements over different registries")
    return ring


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of `f` under multivariate division by `basis`.

    No term of the result is divisible by any basis leading term, and
    f - result lies in the ideal generated by the basis.
    """
    r, _ = divide(f, basis, with_quotients=False)
    return r


def divide(f: Polynomial, basis, with_quotients: bool = True):
    """Divide `f` by a list of polynomials; return (remainder, quotients).

    quotients[i] * basis[i] summed plus the remainder reconstructs f
    exactly (quotients is None when with_quotients is false).
    """
    basis = [g for g in basis if not g.is_zero()]
    ring = f.ring
    _same_ring([f] + basis)
    fld = ring.field
    key = ring.order.key
    lts = [(g.lm(), g.lc(), g) for g in basis]
    quotients = [ring.zero() for _ in basis] if with_quotients else None

    rem_terms: dict = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = -1
        for idx, (lm, _, _) in enumerate(lts):
            if mono_divides(lm, m):
                hit = idx
                break
        if hit < 0:
            rem_terms[m] = c
            continue
        lm, lc, g = lts[hit]
        q_mono = mono_div(m, lm)
        q_coef = fld.mul(c, fld.inv(lc))
        if with_quotients:
            quotients[hit] = quotients[hit] + Polynomial(ring, {q_mono: q_coef})
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = mono_mul(gm, q_mono)
            s = fld.sub(work.get(t, fld.zero()), fld.mul(gc, q_coef))
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return Polynomial(ring, rem_terms), quotients


def _reduce_tracked(f: Polynomial, row, basis, rows) -> Polynomial:
    """Remainder of `f` under division by `basis`, with `f`'s cofactor row
    turned in place into the remainder's: every quotient times the row of
    its basis element is subtracted."""
    r, qs = divide(f, basis)
    for q, brow in zip(qs, rows):
        if not q.is_zero():
            for k, c in enumerate(brow):
                row[k] = row[k] - q * c
    return r


def buchberger_reduced(gens, limits: Limits | None = None, cofactors: bool = False):
    """Unique reduced Groebner basis of the ideal generated by `gens`.

    With `cofactors` set, a cofactor row over `gens` rides along with
    every basis element and (basis, rows) is returned before
    interreduction: a monic, not necessarily reduced, Groebner basis with
    basis[e] == sum_j rows[e][j] * gens[j] exactly.  Both modes share the
    initial reduction, the pair order, the criteria and the budgets.

    Sugar: an input generator's sugar is its total degree (the standard
    choice), a pair's is max(sugar_i + deg t_i, sugar_j + deg t_j) where
    t_i * lt_i = lcm, and a new element takes the sugar of its pair.
    """
    gens = list(gens)
    nonzero = [k for k, g in enumerate(gens) if not g.is_zero()]
    if not nonzero:
        return ([], []) if cofactors else []
    ring = _same_ring([gens[k] for k in nonzero])
    limits = limits or Limits()
    key = ring.order.key
    one = ring.field.one()

    basis: list[Polynomial] = []
    rows = [] if cofactors else None
    lms: list = []
    sugar: list[int] = []
    live: list[int] = []  # elements whose leading monomial no later one divides
    heap: list = []  # (sugar, order key of lcm, i, j, lcm) with i < j
    formed = 0

    def exceeded(what: str) -> ResourceLimitError:
        top = max(g.degree() for g in basis)
        return ResourceLimitError(
            f"{what}: {formed} pairs formed; basis of {len(basis)} elements, "
            f"largest degree {top}; ring of {ring.nvars} variables, order {ring.order!r}"
        )

    def add(r, row, s):
        """Keep r (monic) with sugar s and apply the Gebauer-Moeller update."""
        nonlocal formed
        if rows is not None:
            inv = ring.field.inv(r.lc())
            rows.append([c.scale(inv) for c in row])
        h = len(basis)
        basis.append(r.monic())
        lm_h = basis[h].lm()
        lms.append(lm_h)
        sugar.append(s)
        by_lcm: dict = {}
        for g in live:
            formed += 1
            if formed > limits.pair_cap:
                raise exceeded(f"pair budget {limits.pair_cap} exceeded")
            l = mono_lcm(lms[g], lm_h)
            if mono_deg(l) > limits.degree_cap:
                raise exceeded(f"degree budget {limits.degree_cap} exceeded (lcm degree {mono_deg(l)})")
            by_lcm.setdefault(l, []).append(g)
        # B: a queued pair goes when lt(h) divides its lcm and that lcm
        # differs from the lcm of h with each of its two elements
        kept = [
            e for e in heap
            if not mono_divides(lm_h, e[4])
            or mono_lcm(lms[e[2]], lm_h) == e[4]
            or mono_lcm(lms[e[3]], lm_h) == e[4]
        ]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # M: a new pair goes when another new pair's lcm strictly divides
        # its lcm (checking the lcms that M kept suffices, as division is
        # transitive); F: of the new pairs sharing an lcm one stays, and
        # none when one of them has coprime leading monomials
        minimal: list = []  # (degree, lcm) of the lcms M kept
        for l in sorted(by_lcm, key=mono_deg):
            d = mono_deg(l)
            if any(dm < d and mono_divides(m, l) for dm, m in minimal):
                continue
            minimal.append((d, l))
            group = by_lcm[l]
            if any(mono_coprime(lms[g], lm_h) for g in group):
                continue
            ps, g = min((max(sugar[g] + d - mono_deg(lms[g]), s + d - mono_deg(lm_h)), g) for g in group)
            heapq.heappush(heap, (ps, key(l), g, h, l))
        live[:] = [g for g in live if not mono_divides(lm_h, lms[g])] + [h]

    for k in sorted(nonzero, key=lambda k: (key(gens[k].lm()), sorted(gens[k].terms.items()))):
        reducers = [basis[e] for e in live]
        if rows is None:
            r, row = normal_form(gens[k], reducers), None
        else:
            row = [ring.zero() for _ in gens]
            row[k] = ring.one()
            r = _reduce_tracked(gens[k], row, reducers, [rows[e] for e in live])
        if not r.is_zero():
            add(r, row, gens[k].degree())

    while heap:
        s, _, i, j, l = heapq.heappop(heap)
        # S-polynomial; basis elements are monic
        ti, tj = mono_div(l, lms[i]), mono_div(l, lms[j])
        spoly = basis[i].mul_term(ti, one) - basis[j].mul_term(tj, one)
        reducers = [basis[e] for e in live]
        if rows is None:
            r, row = normal_form(spoly, reducers), None
        else:
            row = [a.mul_term(ti, one) - b.mul_term(tj, one) for a, b in zip(rows[i], rows[j])]
            r = _reduce_tracked(spoly, row, reducers, [rows[e] for e in live])
        if r.is_zero():
            continue
        if mono_deg(r.lm()) > limits.degree_cap:
            raise exceeded(f"degree budget {limits.degree_cap} exceeded (new lead degree {mono_deg(r.lm())})")
        add(r, row, s)

    if rows is not None:
        return [basis[k] for k in live], [rows[k] for k in live]
    return _interreduce([basis[k] for k in live])


def _interreduce(basis):
    """Minimalize and fully reduce a Groebner basis; sort deterministically."""
    if not basis:
        return []
    ring = basis[0].ring
    key = ring.order.key
    basis = sorted(basis, key=lambda p: key(p.lm()))
    keep = []
    for i, g in enumerate(basis):
        lm = g.lm()
        dominated = False
        for j, h in enumerate(basis):
            if i == j:
                continue
            if mono_divides(h.lm(), lm) and (h.lm() != lm or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others)
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda p: key(p.lm()), reverse=True)
    return reduced


def ideal_cofactors(f: Polynomial, gens, limits: Limits | None = None):
    """Express f as a combination of gens, or None if f is not a member.

    Returns coefficients cs with f == sum cs[j] * gens[j], exactly.
    """
    basis, rows = buchberger_reduced(gens, limits, cofactors=True)
    r, qs = divide(f, basis)
    if not r.is_zero():
        return None
    ring = f.ring
    out = [ring.zero() for _ in gens]
    for idx, q in enumerate(qs):
        if not q.is_zero():
            for j in range(len(gens)):
                out[j] = out[j] + q * rows[idx][j]
    return out
