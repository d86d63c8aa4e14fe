"""Multivariate division and Buchberger's algorithm with reduced output.

The basis returned by `buchberger_reduced` is the unique reduced Groebner
basis of its input ideal: monic, mutually reduced, sorted by leading
monomial (descending).  Identical inputs give bit-identical output; there
is no randomness and no hash-order dependence anywhere in the pair
selection.

S-pair processing uses the normal strategy (smallest lcm first) together
with the two classical discard criteria (coprime leading terms, and the
lcm chain criterion).  Work is bounded by a degree cap and a pair cap;
exceeding either raises ResourceLimitError rather than running unbounded.
The same loop optionally carries a cofactor track (each basis element
written over the input generators), which `ideal_cofactors` uses.
"""

from __future__ import annotations

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
        elif f.ring != ring:
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
    """
    gens = list(gens)
    live = [k for k, g in enumerate(gens) if not g.is_zero()]
    if not live:
        return ([], []) if cofactors else []
    ring = _same_ring([gens[k] for k in live])
    limits = limits or Limits()
    key = ring.order.key
    one = ring.field.one()

    basis: list[Polynomial] = []
    rows = [] if cofactors else None

    def keep(r, row):
        if rows is not None:
            inv = ring.field.inv(r.lc())
            rows.append([c.scale(inv) for c in row])
        basis.append(r.monic())

    for k in sorted(live, key=lambda k: (key(gens[k].lm()), sorted(gens[k].terms.items()))):
        if rows is None:
            r, row = normal_form(gens[k], basis), None
        else:
            row = [ring.zero() for _ in gens]
            row[k] = ring.one()
            r = _reduce_tracked(gens[k], row, basis, rows)
        if not r.is_zero():
            keep(r, row)

    # pair queue keyed by (lcm order key, i, j) — normal strategy
    import heapq

    heap: list = []
    pending = set()

    def push(i, j):
        l = mono_lcm(basis[i].lm(), basis[j].lm())
        heapq.heappush(heap, (key(l), i, j, l))
        pending.add((i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    processed = 0
    while heap:
        _, i, j, l = heapq.heappop(heap)
        pending.discard((i, j))
        processed += 1
        if processed > limits.pair_cap:
            raise ResourceLimitError(f"pair budget {limits.pair_cap} exceeded")
        if mono_deg(l) > limits.degree_cap:
            raise ResourceLimitError(
                f"degree budget {limits.degree_cap} exceeded (lcm degree {mono_deg(l)})"
            )
        if mono_coprime(basis[i].lm(), basis[j].lm()):
            continue
        # chain criterion: some k with lt(k) | lcm(i,j) and both other pairs done
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(basis[k].lm(), l):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        # S-polynomial; basis elements are monic
        ti, tj = mono_div(l, basis[i].lm()), mono_div(l, basis[j].lm())
        s = basis[i].mul_term(ti, one) - basis[j].mul_term(tj, one)
        if rows is None:
            r, row = normal_form(s, basis), None
        else:
            row = [a.mul_term(ti, one) - b.mul_term(tj, one) for a, b in zip(rows[i], rows[j])]
            r = _reduce_tracked(s, row, basis, rows)
        if r.is_zero():
            continue
        if mono_deg(r.lm()) > limits.degree_cap:
            raise ResourceLimitError(
                f"degree budget {limits.degree_cap} exceeded (new lead degree {mono_deg(r.lm())})"
            )
        keep(r, row)
        new = len(basis) - 1
        for k in range(new):
            push(k, new)

    if rows is not None:
        return basis, rows
    return _interreduce(basis)


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
