"""Multi-centered dilatations of finitely presented algebras.

`dilate` builds A[{M_i/a_i}] as an explicit presentation: one fresh
variable x_i_j per stored generator g_ij of M_i, the relations
a_i*x_ij - g_ij, and one saturation by every distinct a_i at once that
removes the denominator torsion.  It reaches that ideal as the kernel of
the fraction map k[y, x] -> A_f (f = prod a_i), x_ij -> g_ij/a_i: the
localization's basis first, then the fractions x_ij - z_i*g_ij started
from it (`ideals.fraction_kernel`), the same ideal as
x - z*g = x*(1 - z*a) + z*(a*x - g) and a*x - g = a*(x - z*g) -
g*(1 - z*a).  Each distinct dilatation is built once per base
algebra and shared (see `dilate`).  Every structural identity the
construction is supposed to satisfy has a verifier here that certifies
it with explicit maps in both directions; a verifier never reports
success on a one-sided check.  Every certified map is given by the
images of the variables it moves (`AlgebraHom.by_name`); every other
variable goes to its namesake.

Every presentation over a larger ring (the presaturation, the conic
algebras, the tensor ideal of base change) is `PresentedAlgebra.extend`
plus extra relations.  A center over an algebra is `Center.over`.  The
fraction variables of any centers, flattened row by row, are
`DilatationResult.names`, and each verifier's name map is a zip of two
such lists.
"""

from __future__ import annotations

from .algebras import AlgebraHom, PresentedAlgebra, check_hom, hom_kernel, is_nzd, maps_equal
from .groebner import ideal_cofactors
from .ideals import IdealHandle, fraction_kernel, saturate
from .poly import InputError, Polynomial
from .report import Report, VerificationFinding


class Center:
    """One pair [M, a]: stored generators of M (kept verbatim) and a."""

    __slots__ = ("ideal", "elem")

    def __init__(self, ideal: IdealHandle, elem: Polynomial):
        if ideal.ring != elem.ring:
            raise InputError("center ideal and element over different registries")
        self.ideal = ideal
        self.elem = elem

    @classmethod
    def over(cls, algebra: PresentedAlgebra, gens, elem: Polynomial) -> "Center":
        """[M, a] with M stored as `gens` in `algebra`'s ring, without its
        relations, and budgeted by `algebra`'s limits."""
        return cls(algebra.relations.with_gens(gens), elem)

    def __repr__(self):
        return f"[({', '.join(str(g) for g in self.ideal.gens)}) / {self.elem}]"


class MultiCenter:
    __slots__ = ("algebra", "centers")

    def __init__(self, algebra: PresentedAlgebra, centers):
        centers = list(centers)
        for c in centers:
            if c.ideal.ring != algebra.ring:
                raise InputError("center over a different registry")
        self.algebra = algebra
        self.centers = centers

    def __len__(self):
        return len(self.centers)

    def l_ideal(self, i: int) -> IdealHandle:
        """Derived L_i = M_i + (a_i), as an ideal of the quotient."""
        c = self.centers[i]
        return self.algebra.ideal(c.ideal.gens + [c.elem])

    def product_elem(self) -> Polynomial:
        f = self.algebra.ring.one()
        for c in self.centers:
            f = f * c.elem
        return f

    def cofactor(self, i: int) -> Polynomial:
        """prod_{l != i} a_l, the other centers' denominators (i 1-based)."""
        f = self.algebra.ring.one()
        for l, c in enumerate(self.centers, start=1):
            if l != i:
                f = f * c.elem
        return f

    def positions(self, indices) -> list[int]:
        """`indices` as sorted distinct 1-based positions of centers;
        InputError when one names no center."""
        keep = sorted(set(indices))
        if any(i < 1 or i > len(self.centers) for i in keep):
            raise InputError(f"center indices out of range for {len(self.centers)} centers: {keep}")
        return keep

    def sub(self, indices) -> "MultiCenter":
        """Sub-multi-center for 1-based positions `indices` (order kept)."""
        return MultiCenter(self.algebra, [self.centers[i - 1] for i in indices])

    def __repr__(self):
        return f"MultiCenter({self.algebra!r}; {', '.join(map(repr, self.centers))})"


class DilatationResult:
    """Presentation of A' = A[{M_i/a_i}] plus the structural map.

    fraction_vars[i][j] is the name of the variable representing
    g_ij / a_i (0-based lists, 1-based names x_<i>_<j>); `names` reads
    them for any centers.

    `center` is the caller's own multi-center.  Everything else is
    shared by every result `dilate` returns for an equal center of the
    same base algebra, so treat a result and its parts as immutable.

    `saturation_changed` compares the saturated relations with the
    presaturation P + (a_i*x_ij - g_ij) when it is read.  The first read
    builds the presaturation's basis, which the shared handle keeps, so
    that basis is built at most once per memo entry, and only if asked.
    """

    __slots__ = ("center", "algebra", "iota", "fraction_vars", "presaturation")

    def __init__(self, center, algebra, iota, fraction_vars, presaturation):
        self.center = center
        self.algebra = algebra
        self.iota = iota
        self.fraction_vars = fraction_vars
        self.presaturation = presaturation

    @property
    def saturation_changed(self) -> bool:
        return not self.algebra.relations.equals(self.presaturation)

    @property
    def base(self) -> PresentedAlgebra:
        return self.center.algebra

    def is_zero_ring(self) -> bool:
        return self.algebra.is_zero_ring()

    def names(self, positions=None) -> list[str]:
        """The fraction variables of the centers at the 1-based
        `positions`, in that order (all centers by default), flattened
        row by row."""
        rows = self.fraction_vars if positions is None else [self.fraction_vars[i - 1] for i in positions]
        return [n for row in rows for n in row]

    def push(self, f: Polynomial) -> Polynomial:
        """Transport a base-ring element along iota (no reduction)."""
        return f.map_ring(self.algebra.ring)

    def fraction(self, pos: int, ms) -> list[Polynomial]:
        """The elements m / a_pos of A' for each m in `ms` (pos 1-based).

        Requires each m in L_pos = M_pos + (a_pos).  Cofactors of m over
        the stored generators, a_pos and the relations, from one
        `ideal_cofactors` run, write it in the span of the fraction
        variables and 1 (a_pos / a_pos).  As a_pos is a non-zero-divisor
        in A', m / a_pos is the one y with a_pos*y = m there, so its
        normal form does not depend on which cofactors are found.
        """
        c = self.center.centers[pos - 1]
        ms = list(ms)
        gens = list(c.ideal.gens) + [c.elem] + self.base.relations.gens
        ring = self.algebra.ring
        names = self.names([pos])
        out = []
        for m, cof in zip(ms, ideal_cofactors(ms, gens, self.base.relations.limits)):
            if cof is None:
                raise InputError(f"element {m} is not in L_{pos} = M_{pos} + (a_{pos})")
            y = cof[len(names)].map_ring(ring)
            for q, x in zip(cof, names):
                y = y + q.map_ring(ring) * ring.var(x)
            out.append(self.algebra.nf(y))
        return out


def dilate(center: MultiCenter) -> DilatationResult:
    """Build the dilatation presentation (Groebner route).

    The relation ideal is P + (a_i*x_ij - g_ij) saturated by f = prod a_i,
    the kernel of k[y, x] -> A_f, x_ij -> g_ij/a_i, built in two
    Buchberger runs with a Rabinowitsch variable z_i per distinct a_i
    (`ideals.fraction_kernel`): the reduced basis of the localization
    P + (1 - z_i*a_i), then that basis, as the known run, plus the
    x_ij - z_i*g_ij, keeping the part free of the z's.  Both runs
    generate the ideal that one saturating run of P + (a_i*x_ij - g_ij)
    + (1 - z_i*a_i) would, since
        x - z*g = x*(1 - z*a) + z*(a*x - g),
        a*x - g = a*(x - z*g) - g*(1 - z*a),
    so the reduced basis is the same.  When f is nilpotent modulo P the
    result is the zero ring, and that equivalence is asserted on every
    build against `radical_contains(f)`, a run of its own.

    Each dilatation is built once per base algebra and kept in its
    `dilatations`, keyed by the stored generators (verbatim, in order)
    and the denominator of every center, in order: the construction,
    fraction-variable names included, depends on nothing else.  The
    result has the caller's `center`; its algebra, structural map,
    fraction variables and presaturation are shared with every other
    call on an equal key and must be treated as immutable.
    """
    key = tuple((tuple(c.ideal.gens), c.elem) for c in center.centers)
    shared = center.algebra.dilatations.get(key)
    if shared is None:
        # a concurrent miss builds twice; setdefault keeps the first
        shared = center.algebra.dilatations.setdefault(key, _construct(center))
    return DilatationResult(center, *shared)


def _construct(center: MultiCenter) -> tuple:
    """The parts of `dilate`'s result after the center: algebra, iota,
    fraction variables and presaturation."""
    a = center.algebra
    if not center.centers:
        return a, AlgebraHom.identity(a), [], a.relations

    flat = a.ring.fresh_names(
        f"x_{i}_{j}" for i, c in enumerate(center.centers, start=1) for j in range(1, len(c.ideal.gens) + 1)
    )
    fresh = iter(flat)
    names = [[next(fresh) for _ in c.ideal.gens] for c in center.centers]
    over = a.extend(flat)
    ext = over.ring
    presat = over.ideal(
        c.elem.map_ring(ext) * ext.var(x) - g.map_ring(ext)
        for c, row in zip(center.centers, names)
        for x, g in zip(row, c.ideal.gens)
    )

    f = center.product_elem()
    nilpotent = a.relations.radical_contains(f)
    denominators = [c.elem.map_ring(ext) for c in center.centers]
    fractions = [
        (x, g.map_ring(ext), d)
        for c, d, row in zip(center.centers, denominators, names)
        for x, g in zip(row, c.ideal.gens)
    ]
    sat = fraction_kernel(over.relations, denominators, fractions)
    if sat.is_unit() != nilpotent:
        raise VerificationFinding(
            "zero-ring criterion mismatch: saturation says "
            f"{sat.is_unit()} but nilpotency of {f} says {nilpotent}"
        )

    prime = PresentedAlgebra(ext, sat)
    iota = AlgebraHom.by_name(a, prime)
    if not check_hom(iota):
        raise VerificationFinding("structural map failed well-definedness")
    return prime, iota, names, presat


# ---------------------------------------------------------------------------
# verifiers


def _saturation_maximal(a: PresentedAlgebra, f: Polynomial) -> bool:
    """f is a non-zero-divisor in `a`: P : f^∞ ⊆ P for its relations P,
    by one Rabinowitsch run (see `check_exceptional`)."""
    return a.relations.contains_ideal(saturate(a.relations, [f]))


def check_exceptional(result: DilatationResult, extra_nzd=()) -> Report:
    """Exceptional identities in A': a_i*A' = L_i*A', each a_i a
    non-zero-divisor, and images of declared non-zero-divisors stay
    non-zero-divisors.

    The clauses about A' itself, `divisor_nzd_i` and
    `declared_nzd_image`, rest on saturation maximality: f is a
    non-zero-divisor modulo S (A''s relations) exactly when S : f^∞ ⊆ S
    (`_saturation_maximal`).  S ⊆ S : f ⊆ S : f^∞ always, and S : f = S
    gives S : f^k = S for every k by induction, so the containment holds
    exactly when S : f = S.  An f in S gives (1), which S (not the zero
    ring, handled first) does not contain, so the clause reads false.
    The saturation's run starts from S's reduced basis, which it extends
    by a few elements when f is a non-zero-divisor.  The precondition
    that a declared element is a non-zero-divisor of the base stays on
    `is_nzd`."""
    rep = Report("exceptional")
    if result.is_zero_ring():
        rep.add("nonzero", False, "dilatation is the zero ring")
        return rep
    prime = result.algebra
    for i, c in enumerate(result.center.centers, start=1):
        ai = result.push(c.elem)
        lhs = prime.ideal([ai])
        pushed = [result.push(g) for g in c.ideal.gens]
        # (a_i)A' lies in L_iA' = (g_i1, ..., a_i)A', so they are equal
        # exactly when each pushed g_ij lies in (a_i)A'; L_iA''s basis is
        # built only for the failure's detail
        ok = all(lhs.contains(g) for g in pushed)
        detail = ""
        if not ok:
            rhs = prime.ideal(pushed + [ai])
            detail = f"(a_{i})A' vs L_{i}A': {[str(g) for g in lhs.groebner()]} vs {[str(g) for g in rhs.groebner()]}"
        rep.add(f"divisor_ideal_{i}", ok, detail)
        rep.add(f"divisor_nzd_{i}", _saturation_maximal(prime, ai), f"a_{i} = {c.elem}")
    for c in extra_nzd:
        if not is_nzd(result.base, c):
            rep.add("declared_nzd_precondition", False, f"{c} is not a non-zero-divisor in the base")
            continue
        rep.add("declared_nzd_image", _saturation_maximal(prime, result.push(c)), str(c))
    return rep


def _certify_pair(rep: Report, fwd: AlgebraHom, bwd: AlgebraHom, tag: str = "") -> None:
    """check_hom both ways and both composites equal to the identity."""
    p = tag + "_" if tag else ""
    okf = check_hom(fwd)
    okb = check_hom(bwd)
    rep.add(p + "forward_defined", okf)
    rep.add(p + "backward_defined", okb)
    if not (okf and okb):
        return
    idt = AlgebraHom.identity(fwd.target)
    ids = AlgebraHom.identity(fwd.source)
    rep.add(p + "fwd_bwd_identity", maps_equal(fwd.compose(bwd), idt))
    rep.add(p + "bwd_fwd_identity", maps_equal(bwd.compose(fwd), ids))


def _renaming(a: PresentedAlgebra, b: PresentedAlgebra, names: dict) -> tuple[AlgebraHom, AlgebraHom]:
    """The maps a -> b and b -> a that send each variable n of a named in
    `names` to names[n] and back, and every other variable to its
    namesake."""
    fwd = {}
    bwd = {}
    for n, m in names.items():
        fwd[n] = b.var(m)
        bwd[m] = a.var(n)
    return AlgebraHom.by_name(a, b, fwd), AlgebraHom.by_name(b, a, bwd)


def forget_map(result_full: DilatationResult, keep) -> tuple[AlgebraHom, Report]:
    """Canonical map A[{M_i/a_i}_K] -> A[{M_i/a_i}_I] for K given as
    1-based positions, with surjectivity/injectivity certificates."""
    center = result_full.center
    keep = center.positions(keep)
    rep = Report("forget")
    sub = dilate(center.sub(keep))
    dropped = [i for i in range(1, len(center.centers) + 1) if i not in keep]

    ring_i = result_full.algebra.ring
    moved = dict(zip(sub.names(), map(ring_i.var, result_full.names(keep))))
    phi = AlgebraHom.by_name(sub.algebra, result_full.algebra, moved)
    rep.add("well_defined", check_hom(phi))

    # M_i ⊆ (a_i) for each dropped i, by one cofactor run per center (a
    # non-member stops the search); a member's cofactor of a_i witnesses
    # its variable
    a = center.algebra
    surj_hyp = True
    quotients = []
    for i in dropped:
        c = center.centers[i - 1]
        cofs = ideal_cofactors(c.ideal.gens, [c.elem] + a.relations.gens, a.relations.limits)
        surj_hyp = None not in cofs
        if not surj_hyp:
            break
        quotients += [(x, cof[0]) for x, cof in zip(result_full.names([i]), cofs)]
    rep.add("surjectivity_hypothesis", surj_hyp, "M_i ⊄ (a_i) for some dropped i")
    if surj_hyp:
        nf = result_full.algebra.nf
        rep.add("surjectivity_witnesses", all(nf(ring_i.var(x) - q.map_ring(ring_i)).is_zero() for x, q in quotients))

    inj_hyp = all(is_nzd(a, center.centers[i - 1].elem) for i in dropped)
    rep.add("injectivity_hypothesis", inj_hyp, "a_i is a zero divisor for some dropped i")
    kernel = hom_kernel(phi)
    kernel_trivial = kernel.equals(sub.algebra.relations)
    rep.add("kernel_trivial", kernel_trivial)
    return phi, rep


def monopoly_iso(center: MultiCenter) -> tuple[MultiCenter, tuple[AlgebraHom, AlgebraHom], Report]:
    """Reduce a finite multi-center to the single center
    [sum_i M_i * prod_{j!=i} a_j / prod_i a_i] and certify the canonical
    isomorphism by explicit maps both ways."""
    if not center.centers:
        raise InputError("monopoly needs at least one center")
    a = center.algebra
    rep = Report("monopoly")

    # one mono generator g_ij * prod_{l != i} a_l per multi generator, in order
    mono_gens = []
    for i, c in enumerate(center.centers, start=1):
        cofactor = center.cofactor(i)
        for g in c.ideal.gens:
            mono_gens.append(g * cofactor)
    mono = MultiCenter(a, [Center.over(a, mono_gens, center.product_elem())])

    r_multi = dilate(center)
    r_mono = dilate(mono)
    fwd, bwd = _renaming(r_mono.algebra, r_multi.algebra, dict(zip(r_mono.names(), r_multi.names())))
    _certify_pair(rep, fwd, bwd)
    return mono, (fwd, bwd), rep


def two_stage_iso(center: MultiCenter, keep) -> tuple[tuple[AlgebraHom, AlgebraHom], Report]:
    """Dilate by the K-part, push the remaining centers into the result,
    dilate again, and certify agreement with the one-shot dilatation."""
    keep = center.positions(keep)
    rest = [i for i in range(1, len(center.centers) + 1) if i not in keep]
    rep = Report("two_stage")

    stage1 = dilate(center.sub(keep))
    b1 = stage1.algebra
    pushed = []
    for i in rest:
        c = center.centers[i - 1]
        pushed.append(Center.over(b1, [g.map_ring(b1.ring) for g in c.ideal.gens], c.elem.map_ring(b1.ring)))
    stage2 = dilate(MultiCenter(b1, pushed))
    oneshot = dilate(center)

    # stage fraction variable -> one-shot fraction variable
    names = dict(zip(stage1.names() + stage2.names(), oneshot.names(keep + rest)))
    fwd, bwd = _renaming(stage2.algebra, oneshot.algebra, names)
    _certify_pair(rep, fwd, bwd)
    return (fwd, bwd), rep


def localize_compare(center: MultiCenter) -> Report:
    """Localization comparisons: the pure-localization presentation when
    every M_i is the unit ideal, and A'[1/f] = A[1/f] in general."""
    a = center.algebra
    rep = Report("localize")
    result = dilate(center)
    f = center.product_elem()
    # A[1/f], shared by both comparisons
    a_f, zname = a.localize(f)
    aring = a_f.ring
    z = aring.var(zname)
    # x_ij = g_ij / a_i = g_ij * z * prod_{l != i} a_l in A[1/f]
    fractions = {}
    for i, c in enumerate(center.centers, start=1):
        for n, g in zip(result.names([i]), c.ideal.gens):
            fractions[n] = g.map_ring(aring) * z * center.cofactor(i).map_ring(aring)

    all_unit = all(a.ideal(c.ideal.gens).is_unit() for c in center.centers)
    if all_unit:
        fwd = AlgebraHom.by_name(result.algebra, a_f, fractions)
        inv = result.algebra.one()
        for i in range(1, len(center.centers) + 1):
            inv = inv * result.fraction(i, [a.ring.one()])[0]
        bwd = AlgebraHom.by_name(a_f, result.algebra, {zname: inv})
        _certify_pair(rep, fwd, bwd, tag="unit_centers")

    # general comparison after inverting f on both sides
    prime_f, wname = result.algebra.localize(f)
    fwd = AlgebraHom.by_name(a_f, prime_f, {zname: prime_f.var(wname)})
    bwd = AlgebraHom.by_name(prime_f, a_f, {**fractions, wname: z})
    _certify_pair(rep, fwd, bwd, tag="localized")
    return rep


def open_immersion_iso(center: MultiCenter, keep, assign) -> Report:
    """A[{M_i/a_i}_I] as a localization of the K-dilatation, under the
    hypotheses a_k(i) in L_i and L_i ⊆ L_k(i); hypothesis violations are
    reported before any construction."""
    keep = center.positions(keep)
    rest = [i for i in range(1, len(center.centers) + 1) if i not in keep]
    rep = Report("open_immersion")

    for i in rest:
        k = assign.get(i)
        if k not in keep:
            rep.add("assignment_valid", False, f"k({i}) = {k} not in K")
            return rep
    rep.add("assignment_valid", True)

    for i in rest:
        k = assign[i]
        li = center.l_ideal(i - 1)
        lk = center.l_ideal(k - 1)
        if not rep.add(f"hyp_a_in_L_{i}", li.contains(center.centers[k - 1].elem), f"a_{k} ∉ L_{i}"):
            return rep
        if not rep.add(f"hyp_L_contained_{i}", lk.contains_ideal(li), f"L_{i} ⊄ L_{k}"):
            return rep

    full = dilate(center)
    part = dilate(center.sub(keep))
    pos_in_keep = {i: p + 1 for p, i in enumerate(keep)}

    # a_i / a_k(i), then g / a_k(i) for each generator g of M_i
    fracs, nums = {}, {}
    for i in rest:
        c = center.centers[i - 1]
        fracs[i], *nums[i] = part.fraction(pos_in_keep[assign[i]], [c.elem] + c.ideal.gens)

    prod = part.algebra.one()
    for i in rest:
        prod = prod * fracs[i]
    loc, zname = part.algebra.localize(prod)
    lring = loc.ring

    # forward: full dilatation -> localized K-dilatation
    fwd_images = dict(zip(full.names(keep), map(lring.var, part.names())))
    for i in rest:
        inv_rest = lring.var(zname)
        for l in rest:
            if l != i:
                inv_rest = inv_rest * fracs[l].map_ring(lring)
        for n, num in zip(full.names([i]), nums[i]):
            fwd_images[n] = num.map_ring(lring) * inv_rest
    fwd = AlgebraHom.by_name(full.algebra, loc, fwd_images)

    # backward: localized K-dilatation -> full dilatation
    bwd_images = dict(zip(part.names(), map(full.algebra.var, full.names(keep))))
    inv = full.algebra.one()
    for i in rest:
        inv = inv * full.fraction(i, [center.centers[assign[i] - 1].elem])[0]
    bwd_images[zname] = inv
    bwd = AlgebraHom.by_name(loc, full.algebra, bwd_images)
    _certify_pair(rep, fwd, bwd)
    return rep


POWER_CAP = 32


def _power_of(a: PresentedAlgebra, f: Polynomial, base: Polynomial):
    """Smallest d in [1, POWER_CAP] with f == base^d in a, or None.

    A higher power reads as no power: over QQ[a, g], the center
    [g/a], [g/a^33] has no common base, so `iso iterate` on it exits 2."""
    if a.nf(base).is_constant():
        return None
    acc = a.ring.one()
    for d in range(1, POWER_CAP + 1):
        acc = a.nf(acc * base)
        if a.eq(f, acc):
            return d
    return None


def detect_common_base(center: MultiCenter):
    """(base, exponents) for a single-divisor-shaped center, else None."""
    a = center.algebra
    candidates = sorted({str(c.elem): c.elem for c in center.centers}.items(), key=lambda kv: (kv[1].degree(), kv[0]))
    for _, b in candidates:
        exps = []
        for c in center.centers:
            if a.eq(c.elem, b):
                exps.append(1)
                continue
            d = _power_of(a, c.elem, b)
            if d is None:
                exps = None
                break
            exps.append(d)
        if exps is not None:
            return b, exps
    return None


def center_kernel(result: DilatationResult) -> tuple[IdealHandle, Report]:
    """Kernel of A' -> A/M_0 computed two ways (fraction-variable ideal vs
    graph elimination) and certified equal.  Requires the single-divisor
    shape and the base to be a non-zero-divisor modulo M_0."""
    rep = Report("center_kernel")
    center = result.center
    a = center.algebra
    det = detect_common_base(center)
    if det is None:
        rep.add("single_divisor_shape", False, "denominators are not powers of one element")
        return a.ideal([]), rep
    rep.add("single_divisor_shape", True)
    base, exps = det

    m0 = center.centers[0].ideal
    quot = a.quotient(m0.gens)
    if not rep.add("base_nzd_mod_M0", is_nzd(quot, base), f"{base} is a zero divisor mod M_0"):
        return a.ideal([]), rep
    nested = all(a.ideal(m0.gens).contains_ideal(c.ideal) for c in center.centers[1:])
    if not rep.add("nested_centers", nested, "M_i ⊄ M_0 for some i"):
        return a.ideal([]), rep

    prime = result.algebra
    frac_names = result.names()
    alpha_gens = [prime.var(n) for n in frac_names]
    alpha_gens += [result.push(g) for g in m0.gens]
    alpha_full = prime.ideal(alpha_gens)

    phi = AlgebraHom.by_name(prime, quot, dict.fromkeys(frac_names, quot.zero()))
    rep.add("quotient_map_defined", check_hom(phi))
    beta = hom_kernel(phi)
    rep.add("kernels_agree", alpha_full.equals(beta))
    return prime.relations.with_gens(alpha_gens), rep


def iterate_iso(
    algebra: PresentedAlgebra,
    base: Polynomial,
    centers: list,
    exponents: list[int],
    t: int,
) -> Report:
    """Bl^t_{Y_0}(Bl^{s})  =  Bl^{s+t} for nested single-divisor centers:
    dilate, take the center kernel, dilate once more by base^t, and
    certify against the direct dilatation at exponents s_i + t."""
    rep = Report("iterate")
    if not centers:
        raise InputError("iterate needs at least one center")
    s0 = exponents[0]
    if not rep.add("t_range", 0 <= t <= s0, f"t = {t} outside [0, {s0}]"):
        return rep

    mk = [Center.over(algebra, gens, base ** e) for gens, e in zip(centers, exponents)]
    first = dilate(MultiCenter(algebra, mk))
    kernel, krep = center_kernel(first)
    rep.merge(krep, prefix="kernel.")
    if not krep.ok:
        return rep

    b1 = first.algebra
    qcenter = Center.over(b1, kernel.gens, first.push(base) ** t)
    second = dilate(MultiCenter(b1, [qcenter]))
    b2 = second.algebra

    direct = dilate(
        MultiCenter(algebra, [Center.over(algebra, gens, base ** (e + t)) for gens, e in zip(centers, exponents)])
    )
    dalg = direct.algebra

    # The kernel's stored generators are the first dilatation's fraction
    # variables x_ij, then M_0's generators; `second` has one fraction
    # variable u per generator, and the direct dilatation's y_ij
    # correspond to the x_ij in order.
    frac_names = first.names()
    direct_names = direct.names()
    u_names = second.names()
    bt = base.map_ring(dalg.ring) ** t
    bs0 = base.map_ring(dalg.ring) ** exponents[0]
    fwd_images = {}
    bwd_images = {}
    for x, u, y in zip(frac_names, u_names, direct_names):
        fwd_images[x] = bt * dalg.var(y)
        fwd_images[u] = dalg.var(y)
        bwd_images[y] = b2.var(u)
    for u, y in zip(u_names[len(frac_names):], direct.names([1])):
        fwd_images[u] = bs0 * dalg.var(y)
    fwd = AlgebraHom.by_name(b2, dalg, fwd_images)
    bwd = AlgebraHom.by_name(dalg, b2, bwd_images)
    _certify_pair(rep, fwd, bwd)
    return rep


def base_change_compare(center: MultiCenter, h: AlgebraHom) -> Report:
    """B ⊗_A A' modulo denominator torsion against the direct dilatation
    of the pushed center; for variable extensions the torsion is certified
    to vanish (flat case)."""
    rep = Report("base_change")
    if not rep.add("hom_defined", check_hom(h), "base-change map is not well-defined"):
        return rep
    a = center.algebra
    b = h.target

    pushed = MultiCenter(
        b, [Center.over(b, [h.apply(g) for g in c.ideal.gens], h.apply(c.elem)) for c in center.centers]
    )
    direct = dilate(pushed)
    source = dilate(center)

    # B ⊗_A A' over the direct dilatation's ring: B's relations, then the
    # relations of A', with A -> B through h and each source fraction
    # variable sent to the direct one
    over = b.extend(direct.names())
    t_ring = over.ring
    subst = {n: img.map_ring(t_ring) for n, img in zip(a.ring.names, h.images)}
    subst.update(zip(source.names(), map(t_ring.var, direct.names())))
    tensor = over.ideal(g.subst(subst) for g in source.algebra.relations.gens)

    t_sat = saturate(tensor, [c.elem.map_ring(t_ring) for c in pushed.centers])
    rep.add("tensor_matches_direct", t_sat.equals(direct.algebra.relations))

    flat_ext = (
        set(a.ring.names) <= set(b.ring.names)
        and all(img == b.ring.var(n) for n, img in zip(a.ring.names, h.images))
        and [str(g) for g in b.relations.groebner()]
        == [str(g.map_ring(b.ring)) for g in a.relations.groebner()]
    )
    if flat_ext:
        rep.add("flat_no_torsion", t_sat.equals(tensor), "saturation changed the tensor ideal")
    return rep


def conic_iso(center: MultiCenter) -> Report:
    """Conic-algebra route: present the conic algebra as a kernel, quotient
    by (rho_i - 1), and certify the identification with the dilatation."""
    rep = Report("conic")
    a = center.algebra
    for i, c in enumerate(center.centers, start=1):
        if not rep.add(f"nzd_precondition_{i}", is_nzd(a, c.elem), f"a_{i} is a zero divisor"):
            return rep

    k = len(center.centers)
    if k == 0:
        rep.add("empty_center", True)
        return rep

    # ambient polynomial extension A[t_1..t_k], and one u_i_j per
    # generator of L_i = M_i + (a_i)
    fresh = iter(a.ring.fresh_names(
        [f"t_{i}" for i in range(1, k + 1)]
        + [f"u_{i}_{j}" for i, c in enumerate(center.centers, start=1) for j in range(1, len(c.ideal.gens) + 2)]
    ))
    tnames = [next(fresh) for _ in range(k)]
    rows = [[next(fresh) for _ in range(len(c.ideal.gens) + 1)] for c in center.centers]
    unames = [n for row in rows for n in row]
    at = a.extend(tnames)
    tring = at.ring
    src = a.extend(unames)
    uring = src.ring

    images = {}
    for i, c in enumerate(center.centers):
        ti = tring.var(tnames[i])
        for n, g in zip(rows[i], list(c.ideal.gens) + [c.elem]):
            images[n] = g.map_ring(tring) * ti
    phi = AlgebraHom.by_name(src, at, images)
    rep.add("grading_map_defined", check_hom(phi))
    kernel = hom_kernel(phi)
    conic = PresentedAlgebra(uring, kernel)

    rhos = [uring.var(rows[i][-1]) for i in range(k)]
    quot = conic.quotient([r - uring.one() for r in rhos])

    lcenter = MultiCenter(a, [Center.over(a, list(c.ideal.gens) + [c.elem], c.elem) for c in center.centers])
    r_l = dilate(lcenter)
    fwd, bwd = _renaming(quot, r_l.algebra, dict(zip(unames, r_l.names())))
    _certify_pair(rep, fwd, bwd, tag="conic_vs_L")

    # L_i's last generator a_i goes to a_i / a_i = 1 in the M-dilatation
    r_m = dilate(center)
    e_images = {}
    z_images = {}
    for i in range(1, k + 1):
        row_l, row_m = r_l.names([i]), r_m.names([i])
        e_images.update(zip(row_l, map(r_m.algebra.var, row_m)))
        z_images.update(zip(row_m, map(r_l.algebra.var, row_l)))
        e_images[row_l[-1]] = r_m.algebra.one()
    eps = AlgebraHom.by_name(r_l.algebra, r_m.algebra, e_images)
    zeta = AlgebraHom.by_name(r_m.algebra, r_l.algebra, z_images)
    _certify_pair(rep, eps, zeta, tag="L_vs_M")
    return rep


class FactorResult:
    __slots__ = ("hom", "refused", "reason", "report")

    def __init__(self, hom, refused, reason, report):
        self.hom = hom
        self.refused = refused
        self.reason = reason
        self.report = report


def universal_factor(center: MultiCenter, chi: AlgebraHom) -> FactorResult:
    """Factor chi: A -> B through the dilatation when the representability
    conditions hold (chi(a_i) a non-zero-divisor, chi(M_i)B ⊆ chi(a_i)B);
    refuse with the violated condition otherwise."""
    rep = Report("universal")
    if not check_hom(chi):
        return FactorResult(None, True, "chi is not well-defined", rep)
    b = chi.target

    kept = []  # per center chi(a_i), chi(g_ij) and the quotients chi(g_ij)/chi(a_i)
    for i, c in enumerate(center.centers, start=1):
        bi = chi.apply(c.elem)
        if not is_nzd(b, bi):
            rep.add(f"nzd_{i}", False, f"chi(a_{i}) is a zero divisor")
            return FactorResult(None, True, f"chi(a_{i}) is a zero divisor in B", rep)
        rep.add(f"nzd_{i}", True)
        gs = [chi.apply(g) for g in c.ideal.gens]
        # the cofactor run is the containment test: None for a non-member
        cofs = ideal_cofactors(gs, [bi] + b.relations.gens, b.relations.limits)
        if None in cofs:
            j = cofs.index(None) + 1
            rep.add(f"containment_{i}", False, f"chi(M_{i})B ⊄ chi(a_{i})B at generator {j}")
            return FactorResult(
                None, True, f"chi(M_{i})B is not contained in chi(a_{i})B", rep
            )
        rep.add(f"containment_{i}", True)
        kept.append((bi, gs, [b.nf(cof[0]) for cof in cofs]))

    result = dilate(center)
    images = chi.image_map()
    images_alt = chi.image_map()
    for i, (bi, gs, quotients) in enumerate(kept, start=1):
        cofs = ideal_cofactors(gs, b.relations.gens + [bi], b.relations.limits)
        for n, q, cof in zip(result.names([i]), quotients, cofs):
            images[n] = q
            images_alt[n] = b.nf(cof[-1])
    factored = AlgebraHom.by_name(result.algebra, b, images)
    rep.add("factor_defined", check_hom(factored))
    rep.add("factors_chi", maps_equal(factored.compose(result.iota), chi))
    second = AlgebraHom.by_name(result.algebra, b, images_alt)
    if check_hom(second):
        rep.add("uniqueness", maps_equal(factored, second))
    else:
        rep.add("uniqueness", False, "alternate extraction not well-defined")
    return FactorResult(factored, False, "", rep)
