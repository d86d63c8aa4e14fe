"""Finitely presented algebras A = k[y1..ym]/P and their homomorphisms.

Element equality is normal-form equality under the cached reduced
Groebner basis of P, which makes zero-ring and unit-ideal detection
uniform (the zero ring is presented by P = (1) and is legal).
"""

from __future__ import annotations

from .ideals import IdealHandle, colon, eliminate
from .poly import InputError, PolyRing, Polynomial


class PresentedAlgebra:
    """k[y1..ym]/P.  `dilatations` is the memo of `dilatation.dilate`:
    each dilatation of this algebra by content (stored generators and
    denominator of every center, in order), built once per algebra."""

    __slots__ = ("ring", "relations", "dilatations")

    def __init__(self, ring: PolyRing, relations: IdealHandle | None = None):
        if relations is None:
            relations = IdealHandle(ring, [])
        if relations.ring != ring:
            raise InputError("relation ideal over a different registry")
        self.ring = ring
        self.relations = relations
        self.dilatations = {}

    def nf(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise InputError("element over a different registry")
        return self.relations.normal_form(f)

    def eq(self, f: Polynomial, g: Polynomial) -> bool:
        return self.nf(f - g).is_zero()

    def is_zero_ring(self) -> bool:
        return self.relations.is_unit()

    def ideal(self, gens) -> IdealHandle:
        """An ideal of the quotient, represented in the ambient ring: the
        relations' generators, then `gens` (`IdealHandle.extended`)."""
        return self.relations.extended(gens)

    def quotient(self, extra_gens) -> "PresentedAlgebra":
        return PresentedAlgebra(self.ring, self.ideal(list(extra_gens)))

    def extend(self, names) -> "PresentedAlgebra":
        """k[y, names]/(P) over the grevlex ring with `names` appended: P's
        generators move over in their order, with the same limits and the
        same known run.

        Grevlex on k[y, names] restricted to k[y] is grevlex on k[y]: two
        monomials free of the names have the same degree and differ first,
        from the right, at a variable of y.  So every leading monomial, S-
        polynomial and division step of the known run is what it was, and
        a Groebner (or reduced) basis of k[y] stays one in k[y, names]."""
        ring = self.ring.extend(names)
        rels = self.relations
        moved = IdealHandle(ring, [p.map_ring(ring) for p in rels.gens], rels.limits)
        moved._known = rels._known
        return PresentedAlgebra(ring, moved)

    def localize(self, f: Polynomial) -> tuple["PresentedAlgebra", str]:
        """A[1/f] presented as A[z]/(P, z*f - 1), with z a fresh variable
        appended last; returns the algebra and z's name.  `f` may come
        from any ring whose variables are among A's."""
        zname = self.ring.fresh_name("z")
        ext = self.extend([zname])
        return ext.quotient([ext.var(zname) * f.map_ring(ext.ring) - ext.one()]), zname

    def var(self, name: str) -> Polynomial:
        return self.ring.var(name)

    def one(self) -> Polynomial:
        return self.ring.one()

    def zero(self) -> Polynomial:
        return self.ring.zero()

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAlgebra)
            and self.ring == other.ring
            and self.relations.groebner() == other.relations.groebner()
        )

    def __hash__(self):
        return hash(self.ring)

    def __repr__(self):
        rels = ", ".join(str(g) for g in self.relations.gens)
        return f"{self.ring}/({rels})" if rels else f"{self.ring}"


class AlgebraHom:
    """A k-algebra map given by images of the source ring variables."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: PresentedAlgebra, target: PresentedAlgebra, images):
        images = list(images)
        if len(images) != source.ring.nvars:
            raise InputError("image count does not match source variables")
        for f in images:
            if f.ring != target.ring:
                raise InputError("image over a different registry")
        self.source = source
        self.target = target
        self.images = images

    @classmethod
    def identity(cls, a: PresentedAlgebra) -> "AlgebraHom":
        return cls(a, a, a.ring.gens())

    @classmethod
    def by_name(cls, source: PresentedAlgebra, target: PresentedAlgebra, images=()) -> "AlgebraHom":
        """The map sending each source variable named in `images` (a dict
        or (name, image) pairs) to its image and every other source
        variable to the target variable of the same name."""
        images = dict(images)
        return cls(source, target, [images[n] if n in images else target.ring.var(n) for n in source.ring.names])

    def image_map(self) -> dict:
        return dict(zip(self.source.ring.names, self.images))

    def apply_raw(self, f: Polynomial) -> Polynomial:
        """Substitution only; no reduction modulo target relations."""
        if f.ring != self.source.ring:
            raise InputError("element over a different registry")
        if f.is_zero():
            return self.target.ring.zero()
        return f.subst(self.image_map())

    def apply(self, f: Polynomial) -> Polynomial:
        return self.target.nf(self.apply_raw(f))

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        """self ∘ inner (inner applied first)."""
        if inner.target.ring != self.source.ring:
            raise InputError("composition endpoints do not match")
        return AlgebraHom(inner.source, self.target, [self.apply(f) for f in inner.images])

    def __repr__(self):
        pairs = ", ".join(
            f"{n} -> {img}" for n, img in zip(self.source.ring.names, self.images)
        )
        return f"Hom({pairs})"


def check_hom(h: AlgebraHom) -> bool:
    """True iff every source relation maps into the target relation ideal."""
    return all(h.apply(g).is_zero() for g in h.source.relations.gens)


def maps_equal(h1: AlgebraHom, h2: AlgebraHom) -> bool:
    """Equality of maps with fixed endpoints, variable by variable."""
    if h1.source.ring != h2.source.ring or h1.target.ring != h2.target.ring:
        raise InputError("maps_equal needs matching endpoints")
    return all(h1.target.nf(a - b).is_zero() for a, b in zip(h1.images, h2.images))


def hom_kernel(h: AlgebraHom) -> IdealHandle:
    """Kernel ideal of h in the source ambient ring (contains the source
    relations), computed by eliminating the unshared target variables
    from the graph ideal.  The elimination's ring is the source ring, and
    the kernel keeps the basis the elimination carries.

    A source variable s whose image is exactly a target variable t (one
    term, coefficient 1, and the first such s for that t) shares t: t is
    renamed to s, and s gets no graph generator.  Every other target
    variable gets a fresh alias, and the aliases alone form the
    eliminated block (empty when every target variable is shared).  With
    T' the renamed target variables, Q the target relations and s - φ(s)
    the generators of the unshared source variables, both moved to
    k[S ∪ T'], the map k[S ∪ T] -> k[S ∪ T'] renaming each shared t to
    its s is onto and fixes k[S], and its kernel, generated by the
    t - s, lies in the full graph ideal.  So
    k[S ∪ T']/(Q + (s - φ(s))) ≅ k[S ∪ T]/(Q + (s - φ(s)) for all s)
    ≅ k[T]/Q, and the ideal's intersection with k[S] is ker φ.  That
    ideal is unique, and so is its reduced basis.
    """
    src, tgt = h.source.ring, h.target.ring
    unit_index = {u: i for i, u in enumerate(tgt.packing.units)}
    renamed = [None] * tgt.nvars
    graph = []
    for name, img in zip(src.names, h.images):
        if len(img.terms) == 1:
            (m, c), = img.terms.items()
            i = unit_index.get(m)
            if i is not None and c == 1 and renamed[i] is None:
                renamed[i] = name
                continue
        graph.append((name, img))
    block = src.fresh_names([n for n, r in zip(tgt.names, renamed) if r is None])
    alias = iter(block)
    renamed = [r or next(alias) for r in renamed]
    combined = PolyRing(src.field, tuple(block) + src.names)
    # the renamed ring has tgt's variable count and order, so tgt's packed
    # monomials are its own
    tgt_renamed = PolyRing(tgt.field, renamed)

    def to_combined(f: Polynomial) -> Polynomial:
        return Polynomial(tgt_renamed, dict(f.terms)).map_ring(combined)

    gens = [to_combined(g) for g in h.target.relations.gens]
    for name, img in graph:
        gens.append(combined.var(name) - to_combined(img))
    return eliminate(IdealHandle(combined, gens, h.source.relations.limits), block)


def is_nzd(a: PresentedAlgebra, f: Polynomial) -> bool:
    """Non-zero-divisor test: (P : f) = P on reduced representatives.

    P ⊆ P : f always holds, so the test is containment: every generator
    of P : f reduces to 0 modulo P's basis, and no basis of the colon is
    built."""
    if a.is_zero_ring():
        return True
    g = a.nf(f)
    if g.is_zero():
        return False
    return a.relations.contains_ideal(colon(a.relations, g))
