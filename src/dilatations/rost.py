"""Rost's double deformation space as a double-centered dilatation.

For closed immersions V(J) ⊆ V(I) ⊆ Spec A the space is the dilatation
of A[s, t] (`PresentedAlgebra.extend`) with centers [I·A[s,t] / s·t]
and [J·A[s,t] / s] (`Center.over`).  The subalgebra check verifies
extensionally, in A[s, t, (st)^{-1}], that every bounded bidegree piece
I^n J^{m-n} t^{-n} s^{-m} is generated by the fractions I/(ts) and
J/s, by one rewriting of the defining sum (I^k = J^k = A for k < 0)
that holds in every bidegree.
"""

from __future__ import annotations

import itertools

from .algebras import PresentedAlgebra
from .dilatation import Center, DilatationResult, MultiCenter, dilate
from .ideals import IdealHandle
from .poly import InputError
from .report import Report


class RostInput:
    """Base algebra with nested ideals I ⊆ J (V(J) ⊆ V(I))."""

    __slots__ = ("algebra", "ideal_i", "ideal_j")

    def __init__(self, algebra: PresentedAlgebra, ideal_i: IdealHandle, ideal_j: IdealHandle):
        if ideal_i.ring != algebra.ring or ideal_j.ring != algebra.ring:
            raise InputError("ideals over a different registry")
        big = algebra.ideal(ideal_j.gens)
        for g in ideal_i.gens:
            if not big.contains(g):
                raise InputError("containment I ⊆ J fails")
        self.algebra = algebra
        self.ideal_i = ideal_i
        self.ideal_j = ideal_j


def rost_space(data: RostInput) -> DilatationResult:
    """Dilate A[s, t] at {[I·A[s,t], s·t], [J·A[s,t], s]}."""
    s, t = data.algebra.ring.fresh_names(["s", "t"])
    ast = data.algebra.extend([s, t])
    ring = ast.ring
    center = MultiCenter(
        ast,
        [
            Center.over(ast, [g.map_ring(ring) for g in data.ideal_i.gens], ring.var(s) * ring.var(t)),
            Center.over(ast, [g.map_ring(ring) for g in data.ideal_j.gens], ring.var(s)),
        ],
    )
    return dilate(center)


def check_bound(bound: int) -> int:
    """`bound` when it lies in [0, 4], else InputError.  The CLI checks a
    `bound=` option with it at parse, `rost_subalgebra_check` for library
    callers."""
    if not 0 <= bound <= 4:
        raise InputError(f"bidegree bound {bound} is outside [0, 4]")
    return bound


def rost_subalgebra_check(data: RostInput, bound: int = 4) -> Report:
    """Bounded-bidegree verification of the generated-subalgebra claim.

    Write z = (st)^{-1}.  For a bidegree (n, m) take i = max(n, 0)
    generators g of I and j = max(m - n, 0) generators h of J; their
    products l span I^n J^{m-n} (I^k = J^k = A for k < 0), and

        l·t^{-n}·s^{-m} = Π(g·z)·Π(h·t·z)·t^(i-n)·s^(i+j-m),

    a polynomial in the fraction generators g·z and h·t·z and in s, t,
    as both exponents are >= 0.  Proved for every (n, m): the right side
    is l·z^(i+j)·t^(i+j-n)·s^(i+j-m), and z^k·t^k·s^k = 1.  Checked for
    |n|, |m| <= bound, one clause `cell_n_m` each: the two sides agree in
    the localization A[s, t, z]/(s·t·z - 1) for every product l.
    """
    check_bound(bound)
    rep = Report("rost_subalgebra")
    s, t = data.algebra.ring.fresh_names(["s", "t"])
    ast = data.algebra.extend([s, t])
    loc, zname = ast.localize(ast.var(s) * ast.var(t))
    lring = loc.ring
    sv, tv, zv = lring.var(s), lring.var(t), lring.var(zname)
    igens = [g.map_ring(lring) for g in data.ideal_i.gens]
    jgens = [g.map_ring(lring) for g in data.ideal_j.gens]

    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            i, j = max(n, 0), max(m - n, 0)
            if (i and not igens) or (j and not jgens):
                continue  # zero ideal power: nothing to express
            direct = (tv ** -n if n < 0 else (sv * zv) ** n) * (sv ** -m if m < 0 else (tv * zv) ** m)
            witness = ""
            for gs, hs in itertools.product(
                itertools.combinations_with_replacement(igens, i),
                itertools.combinations_with_replacement(jgens, j),
            ):
                l, expr = lring.one(), tv ** (i - n) * sv ** (i + j - m)
                for g in gs:
                    l, expr = l * g, expr * (g * zv)
                for h in hs:
                    l, expr = l * h, expr * (h * tv * zv)
                if not loc.eq(expr, l * direct):
                    witness = f"(n, m, l) = ({n}, {m}, {l})"
                    break
            rep.add(f"cell_{n}_{m}", not witness, witness)
    return rep
