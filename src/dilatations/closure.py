"""Closure certificates: a finite set is certified closed under an
associative operation on greedily chosen generators.  The finite-ring
ideal checks rest on it, and so do the catalog subgroups over small
rings (`congruence.subgroup_gens`); the congruence points and Lie
lattices are certified on lattice generators instead.  `Closure` also
builds the spans of `FiniteRing.closed_span`.
"""

from __future__ import annotations


class Closure:
    """The closure of `start` under right-combination x -> combine(x, s)
    with the generators `gens` adopted so far; `seen` is its element set.
    Each element is combined once with each generator."""

    __slots__ = ("combine", "gens", "seen", "_order")

    def __init__(self, start, combine):
        self.combine = combine
        self.gens = []
        self.seen = {start}
        self._order = [start]

    def extend(self, g, member) -> bool:
        """Adopt g as a generator and close again.  Every new product is
        checked with `member`; False at the first that fails."""
        self.gens.append(g)
        old = len(self._order)
        i = 0
        while i < len(self._order):
            x = self._order[i]
            for s in self.gens[-1:] if i < old else self.gens:
                y = self.combine(x, s)
                if y not in self.seen:
                    if not member(y):
                        return False
                    self.seen.add(y)
                    self._order.append(y)
            i += 1
        return True


def closure_certificate(elements, member, combine, start):
    """Certify that `elements` is closed under `combine`, whose neutral
    element is `start`.

    Generators are picked greedily in the given order, each one outside
    the closure so far, and the closure of `start` under right-combination
    with them is built, every product checked with `member`.  Returns the
    generators, or None if `start` or a product is not a member.  When it
    returns, the set is exactly the monoid the generators generate, so it
    is closed (combine must be associative).  In a group each new
    generator at least doubles the closure, so this costs at most
    |S|·log2|S| products.
    """
    if not member(start):
        return None
    span = Closure(start, combine)
    for g in elements:
        if g not in span.seen and not span.extend(g, member):
            return None
    return span.gens

