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
There is one mode: `ideal_cofactors` writes a list of elements over a
generator list by one run of this loop on a tagged ideal of the
generators, which every element is then reduced by (see its docstring).

Entry: every nonzero generator enters as it is, unreduced, in one order
by leading monomial, through the same `add` as every element the loop
forms; the Gebauer-Moeller criteria are sound for any element added.
Known run: a caller that holds a Groebner basis G and wants the basis of
G + F passes G first with `known=len(G)` (`ideals` does so only for a
handle whose generators are its reduced basis, and for the basis of a
localization that it has just built).  The elements of G (the
seeds) then form no pair among themselves: each such S-pair has a
standard representation over G already, so it reduces to zero, and the
criteria stay sound when such pairs are never formed.  The result is
the same unique reduced basis.
Dropped block: an elimination under `block_order(k)` keeps only the
elements of the reduced basis free of the first k variables, so it
passes `drop=k`, and the loop interreduces and converts only the live
elements whose leading monomial is free of the block; they are exactly
the block-free part of the reduced basis, in its order (see
`buchberger_reduced`).  The pairs, reductions and the elements kept are
those of the run without it.

The criteria work on exponent fields (`Packing.exps`: a packed
monomial's exponents alone, an int that divides as the whole int does).
A new pair (g, h) is keyed by its lcm's exponent fields, g's plus h's
excess over them (`Packing.excess`), with no prefix sums built.  Its
full packed lcm (`Packing.expand`) is built only when the pair is
queued, as its heap key and for its sugar, and when deg g + deg h
exceeds the degree cap or the field bound 2^32 - 1; only then can the
lcm trip either, and it is checked there.  The M criterion walks the
distinct keys in ascending int order: a divisor is never the larger
int, so every divisor of a key comes before it, and as the keys are
distinct each divisor is strict.  The B, F and coprime tests compare
exponent fields.  The pair cap is charged once per update, for the
pairs up to the one that exceeds it.

Representation: a polynomial's terms are already packed,
{packed monomial: coefficient} (`poly.Packing`: one int per monomial,
compared by the monomial order), so division, normal forms, Buchberger
and interreduction take them with no repacking, through
the term update `poly._add_multiple`.  Each basis element is turned once
into its reducer row (packed leading monomial, inverse leading
coefficient, negated monic tail): Buchberger builds it when it adds the
element, and an `ideals.IdealHandle` keeps a `Reducers` table next to
its cached basis.  A table carries the division loop's memo: for each
monomial looked up, the index of the first row whose leading monomial
divides it, or how many rows it has tried in vain, so a monomial the
table has answered is not scanned again and a scan resumes after the
rows already tried.  Rows are only appended, which keeps every entry
true, so the loop picks the divisor a full scan in row order picks, and
remainders, quotients and bases are what they would be without it.
Buchberger appends each new element's row to its table and builds a
new table, with an empty memo, only when live elements drop out;
interreduction grows one table; a handle's table keeps its memo across
every normal form taken against it.  A product whose exponent field
would reach its guard bit raises ResourceLimitError instead of wrapping.

Coefficients: over QQ a coefficient inside the kernel is an int when it
is integral and a Fraction only otherwise.  `Packing.terms` turns
integral Fractions into ints and `Packing.poly` turns ints back, so
every Polynomial the kernel returns carries Fractions only; this is the
one conversion at the kernel's boundary.  Integral coefficients, the
common case, multiply and add as ints, with no gcd.
An inverse is an int when it is integral, and a Fraction that comes out
integral becomes an int again where an element gets its reducer row or
is made monic, not at every term operation.  The arithmetic sequence is
the same as with Fractions throughout: same pairs, reductions and bases.
"""

from __future__ import annotations

import heapq

from .poly import FIELD_BITS, InputError, Packing, PolyRing, Polynomial, ResourceLimitError, _add_multiple, block_order

DEFAULT_DEGREE_CAP = 24
DEFAULT_PAIR_CAP = 200_000
_FIELD_MAX = (1 << FIELD_BITS) - 1  # the largest value a packed field holds


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


def _integral(c):
    """c, as an int when it is an integral rational (Fp residues are
    ints already)."""
    return c.numerator if c.denominator == 1 else c


def _inverse(fld, c):
    """1 / c for nonzero c, as an int when it is an integral rational:
    over QQ that is when c's numerator is 1 or -1."""
    if fld.p is None and c.numerator in (1, -1):
        return c.numerator * c.denominator
    return fld.inv(c)


def _row(packing: Packing, terms: dict):
    """The reducer row of a packed nonzero polynomial: its leading
    monomial, the inverse of its leading coefficient, and its tail made
    monic and negated, as (monomial, coefficient) pairs, so that reducing
    a term c * x^(lm + q) adds c * x^q * tail."""
    fld = packing.ring.field
    lm = max(terms)
    inv = _inverse(fld, terms[lm])
    minus = fld.neg(inv)
    return lm, inv, [(m, _integral(fld.mul(minus, c))) for m, c in terms.items() if m != lm]


class Reducers:
    """The reducer rows of a basis, in basis order, and the division
    loop's memo `first`.

    For each packed monomial m that `_reduce` has looked up, `first[m]`
    is the index of the first row whose leading monomial divides m, or
    ~s when none of the first s rows does.  The loop reads it before it
    scans and tries only the rows after s, so it picks the divisor a
    full scan in row order picks: the memo changes no remainder,
    quotient or basis.  Rows are only ever appended (`append`), which
    keeps every entry true; a table whose rows change otherwise is a new
    table, with an empty memo.
    """

    __slots__ = ("packing", "rows", "lms", "first")

    def __init__(self, packing: Packing, rows: list):
        self.packing = packing
        self.rows = rows
        self.lms = [row[0] for row in rows]
        self.first: dict[int, int] = {}

    def append(self, row) -> None:
        """Add a row after the others; the memo stays valid."""
        self.rows.append(row)
        self.lms.append(row[0])

    @classmethod
    def of(cls, ring, basis) -> "Reducers":
        """Rows of `basis`, nonzero polynomials over `ring`."""
        packing = ring.packing
        return cls(packing, [_row(packing, g.terms) for g in basis])


def _table(f: Polynomial, basis) -> Reducers:
    """`basis` (polynomials or a table) as a table over f's ring."""
    if isinstance(basis, Reducers):
        if f.ring is not basis.packing.ring and f.ring != basis.packing.ring:
            raise InputError("basis elements over different registries")
        return basis
    basis = [g for g in basis if not g.is_zero()]
    _same_ring([f] + basis)
    return Reducers.of(f.ring, basis)


def _reduce(work: dict, table: Reducers, quotients=None) -> dict:
    """The division loop: reduce the packed term dict `work` (consumed) by
    the table's rows; return the packed remainder, terms descending.  With
    `quotients` (one dict per row) record each quotient term there.  Each
    term goes to the first row whose leading monomial divides it, found
    through the table's memo (see `Reducers`)."""
    packing = table.packing
    guard, mul = packing.guard, packing.ring.field.mul
    lms, rows, first = table.lms, table.rows, table.first
    n = len(lms)
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        k = first.get(m, -1)
        if k >= 0:
            q = m - lms[k]
        else:
            # the rows before ~k are known not to divide m
            for k in range(~k, n):
                q = m - lms[k]
                if not q & guard:
                    first[m] = k
                    break
            else:
                first[m] = ~n
                rem[m] = c
                continue
        if quotients is not None:
            quotients[k][q] = mul(c, rows[k][1])
        _add_multiple(work, rows[k][2], q, c, packing)
    return rem


def normal_form(f, basis):
    """Remainder of `f` under multivariate division by `basis`.

    No term of the result is divisible by any basis leading term, and
    f - result lies in the ideal generated by the basis.  `f` is a
    Polynomial and `basis` a list of polynomials or a `Reducers` table;
    inside the kernel `f` may also be a packed term dict with a table as
    `basis`, and the remainder is then a packed term dict.
    """
    if isinstance(f, Polynomial):
        table = _table(f, basis)
        return table.packing.poly(_reduce(table.packing.terms(f), table))
    return _reduce(dict(f), basis)


def divide(f: Polynomial, basis):
    """Divide `f` by a list of polynomials; return (remainder, quotients).

    quotients[i] * basis[i] summed plus the remainder reconstructs f
    exactly, over the nonzero elements of basis.
    """
    table = _table(f, basis)
    packing = table.packing
    quotients = [{} for _ in table.rows]
    rem = _reduce(packing.terms(f), table, quotients)
    return packing.poly(rem), [packing.poly(q) for q in quotients]


def buchberger_reduced(gens, limits: Limits | None = None, known: int = 0, drop: int = 0):
    """Unique reduced Groebner basis of the ideal generated by `gens`.

    Every nonzero generator is added unreduced, in the order of its
    leading monomial.  `gens[:known]` must already be a Groebner basis
    under the ring's order (the known run); its elements form no pair
    among themselves.  The pair cap counts the pairs formed, so the
    known run charges it nothing among itself.

    With `drop=k` (the ring's order must be `block_order(k)`) only the
    elements of the reduced basis free of the first k variables are
    returned, in the same order: the elimination ideal's reduced basis
    (Cox, Little & O'Shea, ch. 3).  Only the live elements whose leading
    monomial has zero exponent fields on the block are interreduced and
    converted.  They interreduce alone: under the block order a term with
    a block variable is above every block-free one, so an element with a
    block-free leading monomial is block-free in every term; and a
    divisor of a block-free monomial is block-free, so neither the
    minimalization nor the reduction of such an element meets a leading
    monomial with a block variable.

    Sugar: an input generator's sugar is its total degree (the standard
    choice), a pair's is max(sugar_i + deg t_i, sugar_j + deg t_j) where
    t_i * lt_i = lcm, and a new element takes the sugar of its pair.

    The loop runs on packed monomials (`poly.Packing`): each element keeps
    its packed terms and its reducer row, built when it is added, and the
    rows of the live elements form the table every reduction uses.
    """
    gens = list(gens)
    nonzero = [k for k, g in enumerate(gens) if not g.is_zero()]
    if not nonzero:
        return []
    ring = _same_ring([gens[k] for k in nonzero])
    if drop and ring.order != block_order(drop):
        raise InputError(f"dropping {drop} variables needs block({drop}), not {ring.order!r}")
    limits = limits or Limits()
    packing = ring.packing
    guard, deg, expand = packing.guard, packing.deg, packing.expand
    exps, exp_guard = packing.exps, packing.exp_guard
    fld = ring.field
    one = 1
    minus_one = fld.neg(one)

    basis: list[dict] = []  # packed terms, monic
    reducer_rows: list = []
    lms: list[int] = []
    xs: list[int] = []  # the exponent fields of lms
    degs: list[int] = []
    sugar: list[int] = []
    seeded: list[bool] = []  # whether each element is of the known run
    live: list[int] = []  # elements whose leading monomial no later one divides
    table = Reducers(packing, [])  # the rows of the live elements
    heap: list = []  # (sugar, lcm, i, j) with i < j; packed lcms sort by the order
    formed = 0

    def exceeded(what: str) -> ResourceLimitError:
        top = max(deg(m) for g in basis for m in g)
        return ResourceLimitError(
            f"{what}: {formed} pairs formed; basis of {len(basis)} elements, "
            f"largest degree {top}; ring of {ring.nvars} variables, order {ring.order!r}"
        )

    def add(r, s, seed=False):
        """Keep r (made monic) with sugar s and apply the Gebauer-Moeller
        update; an element of the known run forms no pair with another."""
        nonlocal formed, table
        lm_h = max(r)
        inv = _inverse(fld, r[lm_h])
        if inv != one:
            r = {m: _integral(fld.mul(inv, c)) for m, c in r.items()}
        h = len(basis)
        basis.append(r)
        reducer_rows.append(_row(packing, r))
        lms.append(lm_h)
        x_h = lm_h & exps
        xs.append(x_h)
        d_h = deg(lm_h)
        degs.append(d_h)
        sugar.append(s)
        seeded.append(seed)
        # the pairs (g, h) for g live, up to the pair cap, each keyed by
        # the exponent fields of its lcm: g's plus h's excess over them
        partners = [g for g in live if not seeded[g]] if seed else live
        pairs = partners
        if formed + len(partners) > limits.pair_cap:
            pairs = partners[: max(limits.pair_cap - formed, 0)]
        # an lcm has degree at most deg g + deg h, so below this bound it
        # passes the degree cap and no field reaches its guard bit
        bound = min(limits.degree_cap, _FIELD_MAX) - d_h
        # `Packing.excess(x, x_h)` inline, with h's half computed once: its
        # masks by `exps` are no-ops here, as both are exponent fields
        h_guarded = x_h | exp_guard
        by_lcm: dict = {}
        for g in pairs:
            x = xs[g]
            diff = h_guarded - x
            up = diff & exp_guard
            l = x + (diff & (up - (up >> FIELD_BITS)))
            if degs[g] > bound:
                full = lms[g] + expand(l - x)
                if full & guard:
                    raise packing.overflow(full)
                if deg(full) > limits.degree_cap:
                    formed += pairs.index(g) + 1
                    raise exceeded(f"degree budget {limits.degree_cap} exceeded (lcm degree {deg(full)})")
            by_lcm.setdefault(l, []).append(g)
        formed += len(pairs)
        if len(pairs) < len(partners):
            formed += 1
            raise exceeded(f"pair budget {limits.pair_cap} exceeded")
        # B: a queued pair goes when lt(h) divides its lcm and that lcm
        # differs from the lcm of h with each of its two elements (the
        # lcm's exponent fields inline, as for the new pairs above)
        kept = []
        for e in heap:
            if (e[1] - lm_h) & guard:
                kept.append(e)
                continue
            lx = e[1] & exps
            for x in (xs[e[2]], xs[e[3]]):
                diff = h_guarded - x
                up = diff & exp_guard
                if lx == x + (diff & (up - (up >> FIELD_BITS))):
                    kept.append(e)
                    break
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # M: a new pair goes when another new pair's lcm strictly divides
        # its lcm.  A divisor is never the larger int, and the lcms are
        # distinct, so in ascending order every divisor of an lcm comes
        # before it, and checking the lcms that M kept suffices, as
        # division is transitive.  F: of the new pairs sharing an lcm one
        # stays, and none when one of them has coprime leading monomials
        # (its lcm is their product)
        minimal: list = []  # the lcms M kept
        for l in sorted(by_lcm):
            for m in minimal:
                if not (l - m) & exp_guard:
                    break
            else:
                minimal.append(l)
                group = by_lcm[l]
                if any(l == xs[g] + x_h for g in group):
                    continue
                full = expand(l)
                d = deg(full)
                ps, g = min((max(sugar[g] + d - degs[g], s + d - d_h), g) for g in group)
                heapq.heappush(heap, (ps, full, g, h))
        # the table grows in place, keeping its memo, unless h's leading
        # monomial divides a live one, which then drops out
        kept_live = [g for g in live if (lms[g] - lm_h) & guard]
        if len(kept_live) < len(live):
            live[:] = kept_live
            table = Reducers(packing, [reducer_rows[e] for e in live])
        live.append(h)
        table.append(reducer_rows[h])

    # the generators by leading monomial, the known run among them
    for k in sorted(nonzero, key=lambda k: (gens[k].lm(), sorted(gens[k].terms.items()))):
        add(packing.terms(gens[k]), gens[k].degree(), k < known)

    while heap:
        s, l, i, j = heapq.heappop(heap)
        # S-polynomial x^ti*g_i - x^tj*g_j of monic g_i, g_j: the leading
        # terms cancel, and the rows hold the negated tails
        ti, tj = l - lms[i], l - lms[j]
        spoly: dict = {}
        _add_multiple(spoly, reducer_rows[j][2], tj, one, packing)
        _add_multiple(spoly, reducer_rows[i][2], ti, minus_one, packing)
        r = normal_form(spoly, table)
        if not r:
            continue
        if deg(max(r)) > limits.degree_cap:
            raise exceeded(f"degree budget {limits.degree_cap} exceeded (new lead degree {deg(max(r))})")
        add(r, s)

    block = (1 << drop * (FIELD_BITS + 1)) - 1  # the block's exponent fields
    return _interreduce([basis[k] for k in live if not lms[k] & block], packing)


def _interreduce(basis, packing: Packing):
    """Minimalize and fully reduce a Groebner basis, given as packed term
    dicts over `packing`; return it as polynomials, sorted
    deterministically."""
    if not basis:
        return []
    fld = packing.ring.field
    guard = packing.guard
    polys = sorted(basis, key=max)
    lms = [max(g) for g in polys]
    # a divisor of a leading monomial is not larger, so only an earlier
    # element can dominate a later one (of equal leading monomials, the
    # first stays)
    keep = [g for i, g in enumerate(polys) if all((lms[i] - lm) & guard for lm in lms[:i])]
    # bottom up: a tail term is below its leading monomial, so only a
    # smaller leading monomial, an earlier element's, can divide it; each
    # element is reduced by the reduced elements before it, and its
    # leading monomial, which none of theirs divides, stays
    table, reduced = Reducers(packing, []), []
    for g in keep:
        r = normal_form(g, table)
        inv = _inverse(fld, r[max(r)])
        r = {m: fld.mul(inv, c) for m, c in r.items()}
        table.append(_row(packing, r))
        reduced.append(r)
    reduced.reverse()
    return [packing.poly(g) for g in reduced]


def ideal_cofactors(fs, gens, limits: Limits | None = None):
    """Express each f in `fs` as a combination of gens, or None if f is
    not a member.

    Returns one entry per f: coefficients cs with
    f == sum cs[j] * gens[j], exactly, or None.  The tagged basis depends
    on `gens` alone, so one run serves every f.

    Method: a module Groebner basis written as an ideal with tag
    variables (Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 5).
    Fresh tags T, e_1..e_s come first, under `block_order(s + 1)`, and
    one plain run computes the reduced basis G of the ideal I generated
    by T*g_j - e_j and every tag monomial of degree 2.  Each T*f is
    reduced by G: a T term left over means f is not a member, and
    otherwise the remainder is sum c_j*e_j with f = sum c_j*g_j.

    Proof (for each f).  Every generator of I is homogeneous in the
    tags' degree, so I is, and so is every element the run forms, G
    included.  I has nothing of tag degree 0, and its part of tag degree
    1 is {sum a_j*(T*g_j - e_j) : a_j free of tags}, as the tag
    monomials reach only degree 2 and up.  So (*) T*f - sum c_j*e_j lies
    in I exactly when f = sum c_j*g_j.  An element of G whose leading
    monomial divides a term of tag degree 1 has tag degree 1, so the
    remainder r of T*f has tag degree 1, and T*f - r lies in I.
    If r has no T term, it is sum c_j*e_j and (*) gives the cofactors.
    If f = sum b_j*g_j, then by (*) r is also the remainder of the
    e-only sum b_j*e_j, as a remainder by a Groebner basis is unique on
    a class mod I.  The block order compares the tags first, and on
    single tags its grevlex puts T above every e_j, so every T term is
    above every e term: an element of G led by an e term has no T term.
    An e-only polynomial reduces only by such e-led elements and stays
    e-only, so r has no T term.  Hence a T term in r means f is not a
    member.

    The tagged run's degrees are one higher than those of `gens` (T*g_j
    has degree deg g_j + 1), and it is charged to the same `limits`.
    An empty `fs` makes no run.
    """
    fs = list(fs)
    if not fs:
        return []
    gens = list(gens)
    ring = fs[0].ring
    names = ring.fresh_names(["T"] + [f"e_{j}" for j in range(1, len(gens) + 1)])
    tagged = PolyRing(ring.field, names + list(ring.names), block_order(len(names)))
    tags = [tagged.var(n) for n in names]
    t = tags[0]
    ideal = [t * g.map_ring(tagged) - e for g, e in zip(gens, tags[1:])]
    ideal += [u * v for i, u in enumerate(tags) for v in tags[i:]]
    table = Reducers.of(tagged, buchberger_reduced(ideal, limits))
    # each term of a remainder is one tag of degree 1 times a monomial of the ring
    unpack, pack = tagged.packing.unpack, ring.packing.pack
    out = []
    for f in fs:
        cs = [{} for _ in names]
        for m, c in normal_form(t * f.map_ring(tagged), table).terms.items():
            e = unpack(m)
            cs[e.index(1)][pack(e[len(names):])] = c
        out.append(None if cs[0] else [Polynomial(ring, terms) for terms in cs[1:]])
    return out
