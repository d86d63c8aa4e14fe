"""Ideal arithmetic: intersection, colon, saturation, the fraction
kernel of a dilatation, elimination and membership, all through the
Groebner kernel.

An IdealHandle keeps its generator list verbatim and caches the reduced
Groebner basis on first use, with the basis's reducer rows (`Reducers`)
next to it for every later normal form (one-shot, guarded by a lock, so
library callers may share handles across threads).  The table keeps the
division loop's memo of first divisors across every normal form taken
against the handle.  Threads that share a handle may write it at once
without a lock: the rows never change, so each write stores the one
value that its monomial and the rows determine.  A saturation,
intersection or elimination arrives with its basis already set, because
the elimination that computes it holds that basis (see `_eliminated`);
no Buchberger run is made for it.  Every handle is over a grevlex ring;
block orders appear only in the rings of the eliminations themselves.

Eliminations: each one (`intersect`, `saturate`, `eliminate`, the
second run of `fraction_kernel`, and `radical_contains`, which asks
only whether the result is (1)) prepends a block of k fresh variables
under `block_order(k)` and asks the kernel for the block-free part of
the reduced basis alone (`buchberger_reduced(..., drop=k)`); the rest
is neither interreduced nor converted.  Terms cross between a grevlex
ring and its block extension by one bit shift (`_shift`): a block-free
monomial's packed int is the grevlex int moved up k fields, so
`_extend_first` moves a term by `m << shift` and `_eliminated` moves it
back by `m >> shift`, with no exponent vector built.

Seeding: a Buchberger run that extends a basis the run already holds
starts from it as the kernel's known run (`buchberger_reduced(...,
known=k)`), so no S-pair inside it is formed again.  The rule depends
only on how a handle was built, never on what it has cached: a handle
from `_of_reduced` has generators that are its reduced basis, and
`_known` counts them; `extended` puts them first and keeps the count,
and so does `algebras.PresentedAlgebra.extend`, whose ring appends
variables to a grevlex ring.  A basis that `groebner()` filled in later
does not count, so the work done never depends on the order of
requests.  Four runs use it: the Rabinowitsch basis of A + (1 - z_1*f_1,
..., 1 - z_k*f_k) (every saturation, `radical_contains`, and the
localization run of `fraction_kernel`), the intersection's
t*A + (1 - t)*B, the basis of an `extended` handle (the ideal of an
algebra: its relations, then the extra generators), and the second run
of `fraction_kernel`, which starts from the localization's reduced basis
that its first run has just built.  The first two prepend a block of
fresh variables to A's ring; on monomials free of it, the block order
is A's grevlex on the tail, so A's known run stays a Groebner basis
there, and in the intersection lm(t*g) = t*lm(g) and
S(t*g, t*g') = t*S(g, g'), so t*G is one as well.

A handle also carries the `Limits` that every Buchberger run on its behalf
uses (None means the defaults), and each ideal built from it here
inherits them; that is the only way budgets reach the kernel, and they
count only the runs actually made.  Ideal equality means equality of
ideals, not of generator lists: reduced bases are canonical, so it is a
list comparison.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .groebner import Limits, Reducers, buchberger_reduced, divide, normal_form
from .poly import FIELD_BITS, GREVLEX, InputError, PolyRing, Polynomial, block_order


class IdealHandle:
    """The ideal of `ring` generated by `gens`.  Its reduced Groebner basis
    is built on first use and kept, unless the handle came from
    `_of_reduced` with the basis already known; `limits` budgets the
    Buchberger runs actually made for it.  `gens[:_known]` is a Groebner
    basis known from how the handle was built (see the module docstring).
    `ring` must be grevlex."""

    __slots__ = ("ring", "gens", "limits", "_known", "_gb", "_reducers", "_lock")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial], limits: Limits | None = None):
        if ring.order != GREVLEX:
            raise InputError(f"ideals are over grevlex rings, not {ring.order!r}")
        gens = list(gens)
        for g in gens:
            if g.ring != ring:
                raise InputError("ideal generator over a different registry")
        self.ring = ring
        self.gens = gens
        self.limits = limits
        self._known = 0
        self._gb = None
        self._reducers = None
        self._lock = threading.Lock()

    @classmethod
    def _of_reduced(cls, ring: PolyRing, basis: list[Polynomial], limits: Limits | None) -> "IdealHandle":
        """The ideal generated by `basis`, which must already be its reduced
        Groebner basis over `ring`: the basis and its rows are set here."""
        h = cls(ring, basis, limits)
        h._known = len(basis)
        h._reducers = Reducers.of(ring, basis)
        h._gb = list(basis)
        return h

    def groebner(self) -> list[Polynomial]:
        if self._gb is None:
            with self._lock:
                if self._gb is None:
                    gb = buchberger_reduced(self.gens, limits=self.limits, known=self._known)
                    self._reducers = Reducers.of(self.ring, gb)
                    self._gb = gb  # last: a reader that sees it sees the rows
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        self.groebner()
        return normal_form(f, self._reducers)

    # predicates

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "IdealHandle") -> bool:
        if self.ring != other.ring:
            raise InputError("comparing ideals over different registries")
        return self.groebner() == other.groebner()

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_one()

    def radical_contains(self, f: Polynomial) -> bool:
        """f nilpotent modulo the ideal, by the Rabinowitsch trick: A + (1 -
        z*f) is (1).  Its run keeps only the z-free part of the reduced
        basis, which is [1] exactly when the whole basis is, as 1 is
        z-free and lies in no other reduced basis."""
        _, gb = _rabinowitsch_basis(self, [f])
        return len(gb) == 1 and gb[0].is_one()

    def with_gens(self, gens) -> "IdealHandle":
        return IdealHandle(self.ring, list(gens), self.limits)

    def extended(self, gens) -> "IdealHandle":
        """This ideal plus `gens`, generated by this handle's generators and
        then `gens`, with this handle's known run."""
        h = IdealHandle(self.ring, self.gens + list(gens), self.limits)
        h._known = self._known
        return h

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def _shift(block: PolyRing, tail: PolyRing) -> int:
    """The bit shift that moves a monomial of `tail` to `block` (`m <<
    shift`) and a monomial of `block` free of its block back (`m >>
    shift`): k*(FIELD_BITS + 1) for k = block's block size.

    `tail` must be grevlex on (y_1..y_n) and `block` `block_order(k)` on
    (z_1..z_k, y_1..y_n) over the same field; InputError names both rings
    otherwise.  In `block`'s packing (`poly.Packing`) the z exponents sit
    in fields 0..k-1, the exponent of y_i in field k+i-1, the tail's
    prefix sums in fields k+n..k+2n-1 and the block's in fields
    k+2n..2k+2n-1.  In `tail`'s, y_i sits in field i-1 and the same
    prefix sums in fields n..2n-1.  So a z-free monomial's int is the
    tail int moved up k fields: its z fields and the block's prefix sums
    are 0, and every other field holds the same value.
    """
    k = block.order.block
    if (block.field, block.order, block.names[k:], tail.order) != (tail.field, block_order(k), tail.names, GREVLEX):
        raise InputError(
            f"no shift between {tail!r} under {tail.order!r} and {block!r} under {block.order!r}"
        )
    return k * (FIELD_BITS + 1)


def _lifted(polys, tail: PolyRing, block: PolyRing, shift: int) -> list[Polynomial]:
    """Polynomials over `tail` moved into `block` by `shift` (see `_shift`)."""
    out = []
    for p in polys:
        if p.ring is not tail and p.ring != tail:
            raise InputError(f"polynomial over {p.ring!r} where {tail!r} is expected")
        out.append(Polynomial(block, {m << shift: c for m, c in p.terms.items()}))
    return out


def _extend_first(ring: PolyRing, stems: list[str], polys):
    """Ring with one fresh variable per stem prepended (one eliminated
    block) and the given polynomials over `ring`, which must be grevlex,
    transported into it.  Each term moves by one left shift of k fields:
    its y exponents and the tail's prefix sums keep their values k fields
    higher, and the z fields and the block's prefix sums are 0 (see
    `_shift`)."""
    ext = PolyRing(ring.field, tuple(ring.fresh_names(stems)) + ring.names, block_order(len(stems)))
    return ext, _lifted(polys, ring, ext, _shift(ext, ring))


def _eliminated(gb: list[Polynomial], ring: PolyRing, target: PolyRing, limits: Limits | None) -> IdealHandle:
    """`gb`, the reduced basis over `ring` (`block_order(k)`) of an ideal
    with its block-free elements only (`buchberger_reduced(...,
    drop=k)`), as a handle over `target`, the grevlex ring of `ring`'s
    remaining variables in the same order.

    These elements are a Groebner basis of the elimination ideal (the
    elimination theorem).  On monomials free of the block, the block
    order is grevlex on the tail, so over the grevlex target each element
    has the same leading monomial and they keep their relative order;
    they stay monic, and no term of one is divisible by another's leading
    monomial.  They are therefore exactly the target's unique reduced
    basis, and the handle carries it.  Each term moves by one right
    shift of k fields: a block-free monomial has zero z fields and zero
    block prefix sums, and its other fields are the target's fields k
    places higher (see `_shift`).  `gb` must be block-free: the shift
    would drop a z exponent silently.
    """
    shift = _shift(ring, target)
    kept = [Polynomial(target, {m >> shift: c for m, c in g.terms.items()}) for g in gb]
    return IdealHandle._of_reduced(target, kept, limits)


def _rabinowitsch_basis(a: IdealHandle, elems: list[Polynomial], drop: bool = True) -> tuple[PolyRing, list[Polynomial]]:
    """The ring A[z_1..z_k], one fresh z_i per element f_i, the z block
    first and eliminated, and the reduced basis of A + (1 - z_1*f_1, ...,
    1 - z_k*f_k) there: its z-free elements, or with `drop` false all of
    them."""
    k = len(elems)
    ext, mapped = _extend_first(a.ring, ["_z"] * k, elems + a.gens)
    gens = mapped[k:] + [ext.one() - ext.var(z) * f for z, f in zip(ext.names, mapped[:k])]
    return ext, buchberger_reduced(gens, limits=a.limits, known=a._known, drop=k if drop else 0)


def intersect(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """A ∩ B by the one-tag-variable elimination method."""
    if a.ring != b.ring:
        raise InputError("ideal intersection over different registries")
    ring = a.ring
    ext, mapped = _extend_first(ring, ["_t"], a.gens + b.gens)
    t = ext.var(ext.names[0])
    one_minus_t = ext.one() - t
    tagged = [t * p for p in mapped[: len(a.gens)]]
    tagged += [one_minus_t * p for p in mapped[len(a.gens) :]]
    gb = buchberger_reduced(tagged, limits=a.limits, known=a._known, drop=1)
    return _eliminated(gb, ext, ring, a.limits)


def colon(a: IdealHandle, f: Polynomial) -> IdealHandle:
    """A : f, through (A ∩ (f)) / f; `saturate` gives A : f^∞."""
    if f.is_zero():
        raise InputError("colon by the zero element")
    meet = intersect(a, a.with_gens([f]))
    by_f = Reducers.of(a.ring, [f])
    quotients = []
    for g in meet.groebner():
        r, qs = divide(g, by_f)
        if not r.is_zero():
            raise InputError("intersection element not divisible in colon computation")
        quotients.append(qs[0])
    return a.with_gens(quotients)


def saturate(a: IdealHandle, elems: Iterable[Polynomial]) -> IdealHandle:
    """A : (f_1*...*f_k)^∞ from one Rabinowitsch run, with one fresh z_i
    per distinct f_i (a repeated one adds nothing; a zero one gives (1)).

    With F = f_1*...*f_k and J = A + (1 - z_1*f_1, ..., 1 - z_k*f_k), it
    is J ∩ k[x] (Cox, Little and O'Shea, ch. 4 §4): if F^m*g is in A, g is
    in J, as z_1*f_1*...*z_k*f_k is 1 modulo J; and z_i -> 1/f_i maps J
    into A*k[x]_F, so F^m*g is in A for each g in J free of the z's.
    """
    elems = list(dict.fromkeys(elems))
    if not elems:
        return a
    ext, gb = _rabinowitsch_basis(a, elems)
    return _eliminated(gb, ext, a.ring, a.limits)


def fraction_kernel(rels: IdealHandle, elems: Iterable[Polynomial], fractions) -> IdealHandle:
    """(rels + (f*x - g for (x, g, f) in fractions)) : (f_1*...*f_k)^∞,
    for `elems` f_1..f_k and `fractions` triples (name of a variable x of
    rels's ring, numerator g, denominator f among `elems`); equal to
    `saturate` of that ideal by `elems`.  When rels, the g and the f are
    free of the x's, it is the kernel of the map to the localization
    (k[y]/rels)_F, F = f_1*...*f_k, that sends each x to g/f.

    Two runs, each with one fresh z_i per distinct f_i.  The first is the
    localization, the reduced basis G of L = rels + (1 - z_i*f_i)
    (`_rabinowitsch_basis`).  The second adds x - z_i*g to G with G as its
    known run, and its elements free of the z's, the only ones it
    interreduces, are the result (`_eliminated`).  The ideal is the one
    `saturate` eliminates from, as x - z*g = x*(1 - z*f) + z*(f*x - g)
    and f*x - g = f*(x - z*g) - g*(1 - z*f), so the reduced basis is the
    same.
    """
    elems = list(dict.fromkeys(elems))
    if not elems:
        return rels
    ext, local = _rabinowitsch_basis(rels, elems, drop=False)
    z = {f: ext.var(name) for f, name in zip(elems, ext.names)}
    fractions = list(fractions)
    nums = _lifted([g for _, g, _ in fractions], rels.ring, ext, _shift(ext, rels.ring))
    gens = local + [ext.var(x) - z[f] * g for (x, _, f), g in zip(fractions, nums)]
    gb = buchberger_reduced(gens, limits=rels.limits, known=len(local), drop=len(elems))
    return _eliminated(gb, ext, rels.ring, rels.limits)


def eliminate(a: IdealHandle, names: Iterable[str]) -> IdealHandle:
    """Generators of A ∩ k[remaining variables], over the smaller ring."""
    names = list(names)
    for n in names:
        if n not in a.ring.names:
            raise InputError(f"cannot eliminate unknown variable {n!r}")
    rest = [n for n in a.ring.names if n not in names]
    perm = PolyRing(a.ring.field, names + rest, block_order(len(names)))
    mapped = [g.map_ring(perm) for g in a.gens]
    sub = PolyRing(a.ring.field, rest)
    return _eliminated(buchberger_reduced(mapped, limits=a.limits, drop=len(names)), perm, sub, a.limits)

