"""Ideal arithmetic: sum/product/power, intersection, colon, saturation,
elimination and membership, all through the Groebner kernel.

An IdealHandle keeps its generator list verbatim and caches the reduced
Groebner basis on first use, with the basis's reducer rows (`Reducers`)
next to it for every later normal form (one-shot, guarded by a lock, so
library callers may share handles across threads).  It also carries the
`Limits` that every Buchberger run on its behalf uses (None means the
defaults), and each ideal built from it here inherits them; that is the
only way budgets reach the kernel.  Ideal equality means equality of ideals, not
of generator lists: reduced bases are canonical, so it is a list
comparison.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .groebner import Limits, Reducers, buchberger_reduced, divide, normal_form
from .poly import GREVLEX, InputError, PolyRing, Polynomial, block_order


class IdealHandle:
    __slots__ = ("ring", "gens", "limits", "_gb", "_reducers", "_lock")

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial], limits: Limits | None = None):
        gens = list(gens)
        for g in gens:
            if g.ring != ring:
                raise InputError("ideal generator over a different registry")
        self.ring = ring
        self.gens = gens
        self.limits = limits
        self._gb = None
        self._reducers = None
        self._lock = threading.Lock()

    def groebner(self) -> list[Polynomial]:
        if self._gb is None:
            with self._lock:
                if self._gb is None:
                    gb = buchberger_reduced(self.gens, limits=self.limits)
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

    def is_zero(self) -> bool:
        return not self.groebner()

    def radical_contains(self, f: Polynomial) -> bool:
        """f nilpotent modulo the ideal, by the Rabinowitsch trick."""
        gb = _rabinowitsch_basis(self, f)
        return len(gb) == 1 and gb[0].is_one()

    def with_gens(self, gens) -> "IdealHandle":
        return IdealHandle(self.ring, list(gens), self.limits)

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def _extend_first(ring: PolyRing, stem: str, polys):
    """Ring with one fresh variable prepended (block-eliminated) and the
    given polynomials transported into it."""
    ext = PolyRing(ring.field, (ring.fresh_name(stem),) + ring.names, block_order(1))
    return ext, [p.map_ring(ext) for p in polys]


def _rabinowitsch_basis(a: IdealHandle, f: Polynomial) -> list[Polynomial]:
    """Reduced basis of A + (1 - z*f) in A[z], z first and eliminated."""
    ext, mapped = _extend_first(a.ring, "_z", a.gens + [f])
    z = ext.var(ext.names[0])
    return buchberger_reduced(mapped[:-1] + [ext.one() - z * mapped[-1]], limits=a.limits)


def combine(kind: str, a: IdealHandle, b=None) -> IdealHandle:
    """Ideal sum, product, or power.

    kind is 'sum', 'product' or 'power'; for 'power', b is the exponent
    (power(0) is the unit ideal).
    """
    if kind == "sum":
        if a.ring != b.ring:
            raise InputError("ideal sum over different registries")
        return a.with_gens(a.gens + b.gens)
    if kind == "product":
        if a.ring != b.ring:
            raise InputError("ideal product over different registries")
        return a.with_gens([f * g for f in a.gens for g in b.gens])
    if kind == "power":
        n = int(b)
        if n < 0:
            raise InputError("negative ideal power")
        result = a.with_gens([a.ring.one()])
        for _ in range(n):
            result = combine("product", result, a)
        return result
    raise InputError(f"unknown combine kind {kind!r}")


def intersect(a: IdealHandle, b: IdealHandle) -> IdealHandle:
    """A ∩ B by the one-tag-variable elimination method."""
    if a.ring != b.ring:
        raise InputError("ideal intersection over different registries")
    ring = a.ring
    ext, mapped = _extend_first(ring, "_t", a.gens + b.gens)
    t = ext.var(ext.names[0])
    one_minus_t = ext.one() - t
    tagged = [t * p for p in mapped[: len(a.gens)]]
    tagged += [one_minus_t * p for p in mapped[len(a.gens) :]]
    gb = buchberger_reduced(tagged, limits=a.limits)
    kept = [g.map_ring(ring) for g in gb if 0 not in g.uses_vars()]
    return a.with_gens(kept)


def colon(a: IdealHandle, f: Polynomial, saturate: bool = False) -> IdealHandle:
    """A : f (single colon) or A : f^∞ (saturation).

    The saturation is computed by eliminating z from A + (1 - z*f); it is
    idempotent.  The single colon goes through (A ∩ (f)) / f.
    """
    if f.is_zero():
        raise InputError("colon by the zero element")
    if saturate:
        gb = _rabinowitsch_basis(a, f)
        kept = [g.map_ring(a.ring) for g in gb if 0 not in g.uses_vars()]
        return a.with_gens(kept)
    meet = intersect(a, a.with_gens([f]))
    quotients = []
    for g in meet.groebner():
        r, qs = divide(g, [f])
        if not r.is_zero():
            raise InputError("intersection element not divisible in colon computation")
        quotients.append(qs[0])
    return a.with_gens(quotients)


def saturate(a: IdealHandle, elems: Iterable[Polynomial]) -> IdealHandle:
    """A : (f_1*...*f_k)^∞, as (...(A : f_1^∞) : ...) : f_k^∞.

    One Rabinowitsch saturation per distinct element, in the order given;
    a repeated element is skipped, since saturation is idempotent.  Many
    small saturations are far cheaper than one by the product.
    """
    for f in dict.fromkeys(elems):
        a = colon(a, f, saturate=True)
    return a


def eliminate(a: IdealHandle, names: Iterable[str]) -> IdealHandle:
    """Generators of A ∩ k[remaining variables], over the smaller ring."""
    names = list(names)
    for n in names:
        if n not in a.ring.names:
            raise InputError(f"cannot eliminate unknown variable {n!r}")
    rest = [n for n in a.ring.names if n not in names]
    perm = PolyRing(a.ring.field, names + rest, block_order(len(names)))
    mapped = [g.map_ring(perm) for g in a.gens]
    gb = buchberger_reduced(mapped, limits=a.limits)
    k = len(names)
    keep_order = a.ring.order if a.ring.order.kind != "block" else GREVLEX
    sub = PolyRing(a.ring.field, rest, keep_order)
    kept = []
    for g in gb:
        if all(i >= k for i in g.uses_vars()):
            kept.append(g.map_ring(sub))
    return IdealHandle(sub, kept, a.limits)


def membership(query: str, a: IdealHandle, arg) -> bool:
    """Dispatch form: contains(f) | equals(B) | radical_contains(f)."""
    if query == "contains":
        return a.contains(arg)
    if query == "equals":
        return a.equals(arg)
    if query == "radical_contains":
        return a.radical_contains(arg)
    raise InputError(f"unknown membership query {query!r}")
