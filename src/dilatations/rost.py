"""Rost's double deformation space as a double-centered dilatation.

For closed immersions V(J) ⊆ V(I) ⊆ Spec A the space is the dilatation
of A[s, t] (`PresentedAlgebra.extend`) with centers [I·A[s,t] / s·t]
and [J·A[s,t] / s] (`Center.over`).  The subalgebra check verifies
extensionally, in A[s, t, (st)^{-1}], that every bounded bidegree piece
I^n J^{m-n} t^{-n} s^{-m} is generated by the fractions I/(ts) and
J/s, following the three-case decomposition of the defining sum
(I^k = J^k = A for k < 0).
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


def rost_subalgebra_check(data: RostInput, bound: int = 4) -> Report:
    """Bounded-bidegree verification of the generated-subalgebra claim.

    Every element l·t^{-n}·s^{-m} with l a generator product of
    I^n J^{m-n} is rewritten through the three cases (n < 0; n >= 0 and
    m >= n; n >= 0 and m < n) as a polynomial in the fraction generators
    g·z and h·t·z (z = (st)^{-1}) times powers of s, t, and compared with
    its direct value in the localization A[s, t, z]/(s·t·z - 1).
    """
    if bound > 4:
        raise InputError("bidegree bound capped at 4")
    rep = Report("rost_subalgebra")
    s, t = data.algebra.ring.fresh_names(["s", "t"])
    ast = data.algebra.extend([s, t])
    loc, zname = ast.localize(ast.var(s) * ast.var(t))
    lring = loc.ring
    sv, tv, zv = lring.var(s), lring.var(t), lring.var(zname)
    igens = [g.map_ring(lring) for g in data.ideal_i.gens]
    jgens = [g.map_ring(lring) for g in data.ideal_j.gens]
    s_inv = tv * zv
    t_inv = sv * zv

    def direct_value(l, n, m):
        v = l
        v = v * (t_inv**n if n >= 0 else tv ** (-n))
        v = v * (s_inv**m if m >= 0 else sv ** (-m))
        return v

    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            i_pow = max(n, 0)
            j_pow = max(m - n, 0)
            if (i_pow and not igens) or (j_pow and not jgens):
                continue  # zero ideal power: nothing to express
            ok = True
            witness = ""
            for ip_idx, jp_idx in itertools.product(
                itertools.combinations_with_replacement(range(len(igens)), i_pow) if i_pow else [()],
                itertools.combinations_with_replacement(range(len(jgens)), j_pow) if j_pow else [()],
            ):
                l = lring.one()
                for idx in ip_idx:
                    l = l * igens[idx]
                for idx in jp_idx:
                    l = l * jgens[idx]

                if n < 0:
                    # l in J^{m+|n|}: all factors are J-generators
                    ell = -n
                    expr = tv**ell
                    factors = list(jp_idx)
                    if m > 0:
                        used, rest = factors[:m], factors[m:]
                        if len(used) < m:
                            ok = False
                            witness = f"(n, m) = ({n}, {m}): not enough J factors"
                            break
                        for idx in used:
                            expr = expr * (jgens[idx] * tv * zv)
                        for idx in rest:
                            expr = expr * jgens[idx]
                    else:
                        expr = expr * l * sv ** (-m)
                elif m - n >= 0:
                    expr = lring.one()
                    for idx in ip_idx:
                        expr = expr * (igens[idx] * zv)
                    for idx in jp_idx:
                        expr = expr * (jgens[idx] * tv * zv)
                else:
                    c = n - m
                    expr = sv**c
                    for idx in ip_idx:
                        expr = expr * (igens[idx] * zv)

                if not loc.eq(expr, direct_value(l, n, m)):
                    ok = False
                    witness = f"(n, m, l) = ({n}, {m}, {l})"
                    break
            rep.add(f"cell_{n}_{m}", ok, witness)
    return rep
