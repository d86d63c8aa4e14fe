"""Ground-truth dilatation semantics over small finite rings.

Everything here is literal: rings are element lists with operations,
the fraction construction enumerates the symbols m/a^nu and classes
them, and the subring construction closes generator sets inside an
idempotent localization.  The two constructions certify each other; the
symbolic engine is then checked against them on finite-dimensional
instances.

Every check is exhaustive.  A ring built from scratch (`zmod`,
`quotient_ring`, `from_presented`) has a product that is bilinear by
construction, so `certify_basis_axioms` checks its axioms on basis
triples; subrings of a certified ring need no check.  The size cap
(`SIZE_CAP`, or the cap given to `from_presented`, `finite_center` and
`compare_with_symbolic`) is checked only where a ring is enumerated from
scratch: from a presentation, and in the catalog constructors `zmod` and
`quotient_ring`.  Every other set the oracle builds lies inside a ring
it has already enumerated (e*A, the subring closures in it) or is a
list of at most |A|*(t+1)^k symbols, so it needs no cap of its own.
One span routine, `FiniteRing.closed_span`, builds ideals and subrings:
an additive span closed under multiplication by generators.  One hom
plan per source ring (`HomPlan`) extends generator images to a map and
certifies it on additive and ring generators; hom enumeration and the
algebra-hom count both run on it.  The symbol dilatation
(`SymbolDilatation`) classes its symbols z/a^nu, z in L^nu, by
`symbol_classes`, which keys each by its value e*z*(e*a^nu)^{-1} and
checks it against the literal equivalence of the definition with the
representative of its value;
symbols are equivalent exactly when their values are equal (the lemma
of `SymbolDilatation`), so distinct values need no check.  Each product
by e, a^nu or (e*a^nu)^{-1} is read from one multiplication map per
multiplier, and each L^nu is spanned once, as L^(nu-e_i)*L_i
(`FiniteCenter._l_power`).  The fraction ring's + and * are carried
over from the values: with u_nu = (e*a^nu)^{-1}, the identity
u_(nu+lam) = u_nu*u_lam, checked on the pairs of exponent vectors,
makes the value of a literal sum or product symbol the sum or product
of the values (`SymbolDilatation._fraction_ring`).

Witness bound: with e = f^t idempotent (f the product of the a_i), two
symbols are equivalent iff they are equalized by the single witness
beta = (t, ..., t), because e * a^beta is a unit multiple of e in e*A.
That bound is what makes the enumeration total.
"""

from __future__ import annotations

import functools
import itertools

from .closure import Closure, closure_certificate
from .dilatation import dilate
from .poly import InputError, Polynomial
from .report import Report, VerificationFinding

SIZE_CAP = 4096
HOM_BUDGET = 200_000


class SizeCapError(RuntimeError):
    """Ring or enumeration exceeded the configured size cap."""


class FiniteRing:
    """Commutative unital ring as an explicit element list with ops.

    Elements are hashable canonical labels; `gens` generate the ring (the
    closure of {0, 1} ∪ gens under + and * is everything), which drives
    ideal spans and hom enumeration.  Nothing is checked here: the
    constructors certify their rings (`certify_basis_axioms`); the other
    rings are subsets of a certified ring closed under + and * (e*A has
    its own unit e), or certified isomorphic to one.
    """

    def __init__(self, label, elements, add, mul, zero, one, gens):
        self.label = label
        self.elements = list(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InputError("duplicate element labels")
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.gens = list(gens)

    @property
    def size(self):
        return len(self.elements)

    @functools.cached_property
    def minus_one(self):
        """-1, found once among the sums one + y."""
        return next(y for y in self.elements if self.add(self.one, y) == self.zero)

    def neg(self, x):
        """-x = (-1) * x, which holds in any unital ring."""
        return self.mul(self.minus_one, x)

    def dot(self, xs, ys):
        """sum x*y over the pairs."""
        total = self.zero
        for x, y in zip(xs, ys):
            total = self.add(total, self.mul(x, y))
        return total

    def is_nzd(self, x):
        return all(self.mul(x, y) != self.zero for y in self.elements if y != self.zero)

    def is_unit(self, x):
        return any(self.mul(x, y) == self.one for y in self.elements)

    def inverse(self, x):
        for y in self.elements:
            if self.mul(x, y) == self.one:
                return y
        raise InputError(f"{x} is not a unit in {self.label}")

    def closed_span(self, todo, multipliers):
        """The additive span of `todo` closed under multiplication by
        `multipliers`: (elements, additive generators, sources).

        The span is grown from a worklist that starts as `todo`; each
        element that enlarges it becomes an additive generator and is
        multiplied once by each multiplier, and the products join the
        worklist.  When it ends, every additive generator times every
        multiplier lies in the span, so by distributivity the span is
        closed under multiplication by the subring the multipliers
        generate.  sources[j] says where additive generator j came
        from: an int t for todo[t], or (i, k) for multipliers[k] times
        additive generator i."""
        span = Closure(self.zero, self.add)
        sources = []
        work = list(enumerate(todo))
        for src, x in work:
            if x not in span.seen:
                span.extend(x, lambda y: True)
                work.extend(((len(sources), k), self.mul(r, x)) for k, r in enumerate(multipliers))
                sources.append(src)
        return frozenset(span.seen), span.gens, sources

    def ideal_closure(self, gens):
        """Smallest ideal containing gens."""
        return self.ideal_span(gens)[0]

    def ideal_span(self, gens):
        """Smallest ideal containing gens, and additive generators of it:
        the ring is generated by 1 and `self.gens`."""
        return self.closed_span(gens, self.gens)[:2]

    def _sort_key(self, x):
        return self.index[x]

    def sorted(self, xs):
        return sorted(xs, key=self._sort_key)

    def subring_closure(self, gens):
        """Closure of {one} ∪ gens under + and *, as a sorted list: the
        span of 1 and gens closed under multiplication by gens holds 1
        and every product of gens, and lies in the subring."""
        return self.sorted(self.closed_span([self.one, *gens], gens)[0])

    @functools.cached_property
    def hom_plan(self):
        """The ring's `HomPlan`, built on first use."""
        return HomPlan(self)

    def __repr__(self):
        return f"FiniteRing({self.label}, n={self.size})"


# ---------------------------------------------------------------------------
# constructors


def certify_basis_axioms(label, basis, mul, one):
    """Certify the multiplicative ring axioms of a product that is
    bilinear by construction, over an addition that is coordinatewise
    mod n and that `basis` generates.

    The additive laws and distributivity then hold by construction;
    commutativity, associativity and the unit law are multilinear, so
    checking them on basis vectors is exhaustive.  Raises
    VerificationFinding at the first that fails."""
    for x, y in itertools.product(basis, repeat=2):
        if mul(x, y) != mul(y, x):
            raise VerificationFinding(f"{label}: commutativity fails")
    for x, y, z in itertools.product(basis, repeat=3):
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            raise VerificationFinding(f"{label}: multiplicative associativity fails")
    if any(mul(one, x) != x for x in basis):
        raise VerificationFinding(f"{label}: unit laws fail")


def _unit_vectors(dim):
    return [tuple(int(i == k) for i in range(dim)) for k in range(dim)]


def zmod(n: int) -> FiniteRing:
    if n < 1:
        raise InputError("modulus must be >= 1")
    if n > SIZE_CAP:
        raise SizeCapError(f"ring size {n} exceeds cap {SIZE_CAP}")

    def mul(a, b):
        return (a * b) % n

    certify_basis_axioms(f"Z/{n}", [1 % n], mul, 1 % n)
    return FiniteRing(f"Z/{n}", range(n), lambda a, b: (a + b) % n, mul, 0, 1 % n, [1 % n])


def quotient_ring(n: int, modulus: tuple, var: str = "y") -> FiniteRing:
    """Z/n[var] / (monic modulus); elements are coefficient tuples of
    degree < deg(modulus)."""
    mod = tuple(c % n for c in modulus)
    if not mod or mod[-1] != 1:
        raise InputError("modulus must be monic")
    d = len(mod) - 1
    if d < 1:
        raise InputError("modulus must have positive degree")
    if n**d > SIZE_CAP:
        raise SizeCapError("quotient ring too large")

    def reduce(coeffs):
        coeffs = [c % n for c in coeffs]
        while len(coeffs) > d:
            lead = coeffs.pop()
            if lead:
                for i in range(len(mod) - 1):
                    coeffs[len(coeffs) - d + i] = (coeffs[len(coeffs) - d + i] - lead * mod[i]) % n
        while len(coeffs) < d:
            coeffs.append(0)
        return tuple(coeffs)

    def add(a, b):
        return tuple((x + y) % n for x, y in zip(a, b))

    def mul(a, b):
        out = [0] * (2 * d)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % n
        return reduce(out)

    elements = [tuple(reversed(t)) for t in itertools.product(range(n), repeat=d)]
    elements = sorted(set(elements))
    zero = (0,) * d
    one = reduce([1])
    y = reduce([0, 1])
    label = f"Z/{n}[{var}]/(m)"
    certify_basis_axioms(label, _unit_vectors(d), mul, one)
    return FiniteRing(label, elements, add, mul, zero, one, [one, y] if one != y else [y])


def dual_numbers(n: int) -> FiniteRing:
    return quotient_ring(n, (0, 0, 1), var="eps")


def galois_extension(n: int, p: int) -> FiniteRing:
    """Z/n with a quadratic extension faithful mod the prime p (n a power
    of p): used as a small test ring seeing non-split phenomena."""
    if p == 2:
        return quotient_ring(n, (1, 1, 1), var="w")
    c = 2
    while pow(c, (p - 1) // 2, p) == 1:
        c += 1
    return quotient_ring(n, ((-c) % n, 0, 1), var="w")


def from_presented(ap, cap: int = SIZE_CAP) -> tuple[FiniteRing, dict]:
    """Enumerate a zero-dimensional presented algebra over Fp as a finite
    ring; returns (ring, var name -> element).

    Elements are coefficient tuples over the sorted standard monomial
    basis.  Rejects non-finite-dimensional input.
    """
    field = ap.ring.field
    if field.is_rational:
        raise InputError("finite enumeration needs a prime field")
    p = field.p
    gb = ap.relations.groebner()
    if any(g.is_one() for g in gb):
        basis_monos = []
    else:
        packing = ap.ring.packing
        lms = [g.lm() for g in gb]
        bounds = []
        for i in range(ap.ring.nvars):
            pure = [e[i] for e in map(packing.unpack, lms) if not any(e[:i] + e[i + 1 :])]
            if not pure:
                raise InputError("relation ideal is not zero-dimensional")
            bounds.append(min(pure))
        # the standard monomials, packed, in the order of their sorted
        # exponent vectors (the order `product` yields them in)
        candidates = map(packing.pack, itertools.product(*(range(b) for b in bounds)))
        basis_monos = [m for m in candidates if all((m - lm) & packing.guard for lm in lms)]
    dim = len(basis_monos)
    if dim and p**dim > cap:
        raise SizeCapError(f"{p}^{dim} elements exceeds cap {cap}")

    mono_pos = {m: i for i, m in enumerate(basis_monos)}

    def poly_to_vec(f):
        f = ap.nf(f)
        vec = [0] * dim
        for m, c in f.terms.items():
            vec[mono_pos[m]] = c
        return tuple(vec)

    if dim == 0:
        ring = FiniteRing(f"{ap.ring}(zero)", [()], lambda a, b: (), lambda a, b: (), (), (), [])
        return ring, {n: () for n in ap.ring.names}

    # rows[i][j]: the nonzero (k, coeff) of basis_i * basis_j
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            vec = poly_to_vec(Polynomial(ap.ring, {basis_monos[i] + basis_monos[j]: field.one()}))
            rows[i][j] = rows[j][i] = [(k, c) for k, c in enumerate(vec) if c]

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(a, b):
        out = [0] * dim
        for x, row in zip(a, rows):
            if not x:
                continue
            for y, entries in zip(b, row):
                if not y:
                    continue
                c = x * y
                for k, v in entries:
                    out[k] += c * v
        return tuple(c % p for c in out)

    elements = [t for t in itertools.product(range(p), repeat=dim)]
    zero = (0,) * dim
    one = poly_to_vec(ap.ring.one())
    var_map = {n: poly_to_vec(ap.ring.var(n)) for n in ap.ring.names}
    gens = [one] + [var_map[n] for n in ap.ring.names]
    certify_basis_axioms(str(ap.ring), _unit_vectors(dim), mul, one)
    ring = FiniteRing(str(ap.ring), elements, add, mul, zero, one, gens)
    return ring, var_map


# ---------------------------------------------------------------------------
# centers and localization


class FiniteCenter:
    """Pairs (ideal subset, element); each subset is verified to be an
    ideal on construction."""

    def __init__(self, ring: FiniteRing, pairs):
        self.ring = ring
        self.pairs = []
        for m, a in pairs:
            m = frozenset(m)
            if a not in ring.index:
                raise InputError("center element not in the ring")
            if not m <= ring.index.keys():
                raise InputError("center subset not in the ring")
            if ring.zero not in m:
                raise InputError("center subset must contain zero")
            # an additive certificate, then its generators times the ring's
            # generators: exhaustive for the reason given in ideal_closure
            basis = closure_certificate(ring.sorted(m), m.__contains__, ring.add, ring.zero)
            if basis is None:
                raise InputError("center subset not closed under addition")
            if any(ring.mul(r, x) not in m for x in basis for r in ring.gens):
                raise InputError("center subset not closed under multiplication")
            self.pairs.append((m, a))
        # L^nu with elements generating it as an ideal; one generates A
        self._l_powers = {(0,) * len(self.pairs): (frozenset(ring.elements), [ring.one])}

    @classmethod
    def from_gens(cls, ring: FiniteRing, pairs):
        return cls(ring, [(ring.ideal_closure(gens), a) for gens, a in pairs])

    def __len__(self):
        return len(self.pairs)

    def l_set(self, i):
        m, a = self.pairs[i]
        return self.ring.ideal_closure(set(m) | {a})

    def l_power(self, nu):
        """L^nu = prod L_i^{nu_i}, built two factors at a time and memoised."""
        return self._l_power(nu)[0]

    def _l_power(self, nu):
        """L^nu and elements that generate it as an ideal, as the product
        L^(nu-e_i) * L^(e_i) for the first i with nu_i > 0.  IJ is
        generated by the products of generators of I and of J
        (bilinearity), so a product spans the products of the kept
        generators of its two factors; L^(e_i) = L_i is spanned once,
        from M_i and a_i.  A factor that is all of A leaves the other
        unchanged, with no span, and a span that reaches |A| elements is
        kept as the unit entry (A, generated by 1)."""
        out = self._l_powers.get(nu)
        if out is None:
            ring, unit = self.ring, self._l_powers[(0,) * len(nu)]
            i = next(j for j, v in enumerate(nu) if v > 0)
            e_i = tuple(int(j == i) for j in range(len(nu)))
            if nu == e_i:
                m, a = self.pairs[i]
                out = ring.ideal_span(set(m) | {a})
            else:
                prev, li = self._l_power(nu[:i] + (nu[i] - 1,) + nu[i + 1:]), self._l_power(e_i)
                if prev is unit:
                    out = li
                elif li is unit:
                    out = prev
                else:
                    out = ring.ideal_span({ring.mul(x, y) for x in prev[1] for y in li[1]})
            if len(out[0]) == ring.size:
                out = unit
            self._l_powers[nu] = out
        return out

    def a_power(self, nu):
        """a^nu = prod a_i^{nu_i}."""
        v = self.ring.one
        for (_, ai), k in zip(self.pairs, nu):
            for _ in range(k):
                v = self.ring.mul(v, ai)
        return v

    def product_elem(self):
        f = self.ring.one
        for _, a in self.pairs:
            f = self.ring.mul(f, a)
        return f


class Localization:
    """e.A for the idempotent e = f^t, with the canonical map a -> e*a."""

    def __init__(self, parent: FiniteRing, f):
        self.parent = parent
        self.f = f
        t = 1
        power = f
        while parent.mul(power, power) != power:
            t += 1
            power = parent.mul(power, f)
            if t > parent.size + 1:
                raise VerificationFinding("no idempotent power found")
        self.t = t
        self.e = power
        elements = parent.sorted({parent.mul(self.e, x) for x in parent.elements})
        self.ring = FiniteRing(
            f"{parent.label}[1/{f}]",
            elements,
            parent.add,
            parent.mul,
            parent.zero,
            self.e,
            [parent.mul(self.e, g) for g in parent.gens],
        )
        ef = parent.mul(self.e, f)
        if not self.ring.is_unit(ef):
            raise VerificationFinding("e*f is not invertible in e*A")

    def map(self, x):
        return self.parent.mul(self.e, x)


# ---------------------------------------------------------------------------
# oracle dilatations


class OracleDilatation:
    """Subring-route dilatation: the closure of e*A and the fractions
    e*m*(e*a_i)^{-1} inside the localization at prod a_i."""

    def __init__(self, base: FiniteRing, center: FiniteCenter):
        self.base = base
        self.center = center
        self.loc = Localization(base, center.product_elem())
        self.fraction_values = {}
        for i, (m, a) in enumerate(center.pairs):
            inv = self.loc.ring.inverse(self.loc.map(a))
            for x in base.sorted(m):
                self.fraction_values[(i, x)] = base.mul(self.loc.map(x), inv)
        # base generators, then fractions: count_algebra_homs assigns images in this order
        self.fraction_keys = sorted(self.fraction_values, key=lambda k: (k[0], base.index[k[1]]))
        gens = [self.loc.map(g) for g in base.gens] + [self.fraction_values[k] for k in self.fraction_keys]
        self.ring = FiniteRing(
            f"{base.label}-dilatation",
            # inside e*A, whose order is the base order
            self.loc.ring.subring_closure(gens),
            base.add,
            base.mul,
            base.zero,
            self.loc.e,
            gens,
        )

    def struct_map(self, x):
        return self.loc.map(x)


def dilate_oracle_subring(a: FiniteRing, c: FiniteCenter) -> OracleDilatation:
    return OracleDilatation(a, c)


def symbol_classes(symbols, value, equivalent):
    """Class fraction symbols by their value.

    Each symbol is keyed by `value(sym)`, and the first symbol with a
    value represents its class, so representatives keep discovery order.
    Every symbol must be `equivalent` to its representative, else
    VerificationFinding.  The caller supplies a value map under which
    equivalent symbols have equal values (for `SymbolDilatation`, the
    lemma in its docstring), so representatives of distinct values are
    inequivalent and, for an equivalence relation, the classes are
    exactly its classes.  Returns (reps, symbol -> class index,
    value -> class index).
    """
    reps, class_of, classes = [], {}, {}
    for sym in symbols:
        ci = classes.setdefault(value(sym), len(reps))
        if ci == len(reps):
            reps.append(sym)
        elif not equivalent(sym, reps[ci]):
            raise VerificationFinding(f"symbol {sym} has the value of {reps[ci]} but is not equivalent to it")
        class_of[sym] = ci
    return reps, class_of, classes


# ---------------------------------------------------------------------------
# symbol dilatations


class SymbolDilatation:
    """The dilatation A[L/a] of a finite ring A from the literal
    definition, as classes of fraction symbols.

    Symbols z/a^nu with nu_i <= t and z in L^nu are classed by their
    value u_nu*(e*z) in e*A, where u_nu = (e*a^nu)^{-1}, and each is
    checked against the literal witness test e*a^lam*z == e*a^nu*w with
    the representative of its value (`symbol_classes`); the values must
    cover the subring dilatation.  Each product x*c by a fixed
    multiplier c (e, a^nu, u_nu) is read from a map x -> x*c per
    multiplier, filled on first use and dropped when the construction
    ends.

    Lemma: two symbols s1 = z/a^nu and s2 = w/a^lam are equivalent
    exactly when they have the same value.  It needs only the literal
    inverses (e*a^nu)*u_nu = e, which `loc.ring.inverse` checks (u_nu
    lies in e*A, so u_nu*e = u_nu), and that the product is associative
    and commutative, which the ring's constructor certifies
    (`certify_basis_axioms`).  If u_nu*e*z = u_lam*e*w, multiply both
    sides by e*a^nu*a^lam: as e*a^nu*a^lam*u_nu = e*a^lam, the left side
    becomes e*a^lam*z and the right e*a^nu*w.  If e*a^lam*z = e*a^nu*w,
    multiply by u_nu*u_lam: as u_nu*u_lam*e*a^lam = u_nu, the left side
    becomes u_nu*z = u_nu*e*z and the right u_lam*w = u_lam*e*w.  So
    representatives of distinct values are inequivalent, and the
    classes of `symbol_classes` are the classes of the definition.

    The construction checks u_(nu+lam) = u_nu*u_lam on the pairs of
    exponent vectors nu <= lam in [0, t]^k.  By `_fraction_ring`, the
    class of the literal sum (product) symbol of two classes is then the
    class whose value is the sum (product) of their values, so `ring`
    computes + and * on the values and is isomorphic to the certified
    subring the values cover.  Failure raises VerificationFinding.
    """

    def __init__(self, base: FiniteRing, center: FiniteCenter):
        self.base, self.center = base, center
        self.sub = dilate_oracle_subring(base, center)
        loc = self.sub.loc
        e, t = loc.e, loc.t
        k = len(center.pairs)
        maps = {}

        def times(x, c):
            """x*c, read from the map of the multiplier c."""
            if maps is None:
                return base.mul(x, c)
            row = maps.setdefault(c, {})
            if x not in row:
                row[x] = base.mul(x, c)
            return row[x]

        a_pow = functools.lru_cache(maxsize=None)(center.a_power)
        inverse = functools.lru_cache(maxsize=None)(lambda nu: loc.ring.inverse(loc.map(a_pow(nu))))

        def equivalent(sym1, sym2):
            (z, nu), (w, lam) = sym1, sym2
            return times(times(z, e), a_pow(lam)) == times(times(w, e), a_pow(nu))

        def value(sym):
            z, nu = sym
            return times(times(z, e), inverse(nu))

        self.equivalent, self.value = equivalent, value

        symbols = []
        for nu in itertools.product(range(t + 1), repeat=k):
            symbols.extend((z, nu) for z in base.sorted(center.l_power(nu)))
        self.reps, self.class_of_symbol, classes = symbol_classes(symbols, value, equivalent)
        self.values = list(classes)
        self._fraction_ring(inverse, classes, k)
        maps = None

    def _fraction_ring(self, inverse, classes, k):
        """The ring of the classes, with + and * carried over from the
        values.

        Write u_nu for inverse(nu) = (e*a^nu)^{-1}; `loc.ring.inverse`
        checks (e*a^nu)*u_nu = e literally, and u_(nu+lam) = u_nu*u_lam
        is checked here on every pair nu <= lam of exponent vectors in
        [0, t]^k.  Then, for representatives i = m/a^nu and
        j = p/a^lam, the literal sum symbol (m*a^lam + p*a^nu)/a^(nu+lam)
        has the value e*(m*a^lam + p*a^nu)*u_nu*u_lam =
        values[i] + values[j], and the literal product symbol
        m*p/a^(nu+lam) has the value values[i]*values[j].  By the lemma
        of the class docstring, a symbol's class is the class its value
        keys.

        The values cover the subring dilatation, which is closed under
        + and *, so the class of the literal sum is
        classes[values[i] + values[j]], and that of the product is
        classes[values[i] * values[j]].  The value map is one value per
        class and onto the certified subring, so `ring` is isomorphic
        to it."""
        base, values, t = self.base, self.values, self.sub.loc.t
        if set(values) != set(self.sub.ring.elements):
            raise VerificationFinding("fraction classes do not cover the subring dilatation")
        for nu, lam in itertools.combinations_with_replacement(itertools.product(range(t + 1), repeat=k), 2):
            den = tuple(x + y for x, y in zip(nu, lam))
            if inverse(den) != base.mul(inverse(nu), inverse(lam)):
                raise VerificationFinding(f"(e*a^{den})^-1 is not (e*a^{nu})^-1 * (e*a^{lam})^-1")
        nu0 = (0,) * k  # 0/a^0 and 1/a^0 give zero and one
        self.ring = FiniteRing(
            f"{base.label}-fractions",
            range(len(values)),
            lambda x, y: classes[base.add(values[x], values[y])],
            lambda x, y: classes[base.mul(values[x], values[y])],
            classes[self.value((base.zero, nu0))],
            classes[self.value((base.one, nu0))],
            [classes[v] for v in self.sub.ring.gens],
        )


def dilate_oracle_fractions(a: FiniteRing, c: FiniteCenter) -> SymbolDilatation:
    return SymbolDilatation(a, c)


# ---------------------------------------------------------------------------
# hom enumeration and the universal-property scan


class HomPlan:
    """How a hom out of a finite ring is fixed by its generator images.

    The additive generators come from `closed_span([one] + gens, gens)`,
    so each is 1, a ring generator, or an earlier additive generator
    times a ring generator (`sources`).  The elements are listed
    breadth-first from 0, each reached as an earlier element plus an
    additive generator; `plus[i][j]` is the position of element i plus
    additive generator j, and `times[j][k]` that of additive generator j
    times ring generator k.  `early` lists the elements the hom checks
    read, with those they are reached from, as (i, earlier i, j) in order.

    A ring generator in the additive span of 1 and the earlier ones is
    not an additive generator, and a hom's image of it follows from
    theirs: `free` lists the others, and `fixed` maps each such k to a
    sum giving it, as positions among the additive generators that come
    from 1 and the listed generators (`firsts`, their sources).
    """

    def __init__(self, ring: FiniteRing):
        reached, adds, self.sources = ring.closed_span([ring.one, *ring.gens], ring.gens)
        if len(reached) != ring.size:
            raise InputError(f"{ring.label}: listed gens do not generate the ring")
        self.elements = [ring.zero]
        pos = {ring.zero: 0}
        self.plus = []
        reached_from = [None]
        for i, x in enumerate(self.elements):
            row = []
            for j, g in enumerate(adds):
                y = ring.add(x, g)
                if y not in pos:
                    pos[y] = len(self.elements)
                    self.elements.append(y)
                    reached_from.append((i, j))
                row.append(pos[y])
            self.plus.append(row)
        self.one = pos[ring.one]
        self.times = [[pos[ring.mul(g, r)] for r in ring.gens] for g in adds]
        early = set()
        for y in [self.one, *itertools.chain(*self.times)]:
            while y and y not in early:
                early.add(y)
                y = reached_from[y][0]
        self.early = [(y, *reached_from[y]) for y in sorted(early)]
        self.firsts = [src for src in self.sources if isinstance(src, int)]
        self.free = [src - 1 for src in self.firsts if src]
        # the span of the first additive generators, breadth-first from
        # 0: each element as a sum of them, by their positions
        sums = {ring.zero: ()}
        order = [ring.zero]
        for x in order:
            for j, g in enumerate(adds[: len(self.firsts)]):
                y = ring.add(x, g)
                if y not in sums:
                    sums[y] = sums[x] + (j,)
                    order.append(y)
        self.fixed = {k: sums[g] for k, g in enumerate(ring.gens) if k not in self.free}

    def images(self, b: FiniteRing, free_images):
        """The images of all ring generators, given those of the `free`
        ones: a fixed generator's is the same sum of the first additive
        generators' images."""
        images = [None] * (len(self.free) + len(self.fixed))
        for k, v in zip(self.free, free_images):
            images[k] = v
        firsts = [b.one if src == 0 else images[src - 1] for src in self.firsts]
        for k, terms in self.fixed.items():
            v = b.zero
            for j in terms:
                v = b.add(v, firsts[j])
            images[k] = v
        return images

    def extend(self, b: FiniteRing, images):
        """The unital ring hom into b that sends the generators to
        `images`, as a dict, or None if there is none.

        The images follow from `images` along `sources`, then `plus`.
        The map f is certified by f(1) = 1, f(x + g) = f(x) + f(g) for
        every element x and additive generator g, and
        f(g * r_k) = f(g) * images[k] for every additive generator g and
        ring generator r_k; g = 1 gives f(r_k) = images[k].  f is then
        additive, so the last check holds for every element in place of
        g, and the y with f(x*y) = f(x)*f(y) for all x form a subring
        holding the generators.  The first and last checks run first, on
        the `early` elements, which get the values the additive pass
        would give them, so most maps that fail are refused before it.
        """
        adds = []
        for src in self.sources:
            if isinstance(src, int):
                adds.append(b.one if src == 0 else images[src - 1])
            else:
                j, k = src
                adds.append(b.mul(images[k], adds[j]))
        f = [b.zero] + [None] * (len(self.elements) - 1)
        for y, i, j in self.early:
            f[y] = b.add(f[i], adds[j])
        if f[self.one] != b.one:
            return None
        for fg, row in zip(adds, self.times):
            if any(f[y] != b.mul(fg, v) for y, v in zip(row, images)):
                return None
        for i, row in enumerate(self.plus):
            fx = f[i]
            for y, fg in zip(row, adds):
                v = b.add(fx, fg)
                if f[y] is None:
                    f[y] = v
                elif f[y] != v:
                    return None
        return dict(zip(self.elements, f))


def enumerate_homs(a: FiniteRing, b: FiniteRing):
    """All unital ring homs A -> B, in the order of their generator images
    in `b.elements`: every assignment of images to the plan's free
    generators is extended and certified along A's hom plan.  The other
    generators' images follow from those of 1 and the earlier ones, so
    no other assignment extends.  HOM_BUDGET bounds the assignments
    tried, b.size ** len(plan.free)."""
    plan = a.hom_plan
    if b.size ** len(plan.free) > HOM_BUDGET:
        raise SizeCapError("hom enumeration budget exceeded")
    homs = []
    for free_images in itertools.product(b.elements, repeat=len(plan.free)):
        f = plan.extend(b, plan.images(b, free_images))
        if f is not None:
            homs.append(f)
    return homs


def count_algebra_homs(dil: OracleDilatation, b: FiniteRing, f: dict) -> int:
    """#Hom_{A-alg}(A', B) over the base hom f, for f(a_i) non-zero-
    divisors.  Candidate images of each fraction are enumerated as the
    solutions of x * f(a_i) = f(m); a non-zero-divisor admits at most one,
    which is checked rather than assumed.  A' is generated by the base
    generators and the fractions, so the count is 1 exactly when their
    images extend to a hom."""
    images = [f[g] for g in dil.base.gens]
    for i, m in dil.fraction_keys:
        ai = dil.center.pairs[i][1]
        sols = [x for x in b.elements if b.mul(x, f[ai]) == f[m]]
        if len(sols) > 1:
            raise VerificationFinding("multiple fraction images despite a non-zero-divisor")
        if not sols:
            return 0
        images.append(sols[0])
    return 0 if dil.ring.hom_plan.extend(b, images) is None else 1


def universal_property_scan(a: FiniteRing, center: FiniteCenter, catalog) -> Report:
    """Check the 0/1 hom-count prediction against every enumerated base
    hom with non-zero-divisor denominators."""
    rep = Report("universal_scan")
    dil = dilate_oracle_subring(a, center)
    for b in catalog:
        if b.size > 64:
            rep.add(f"catalog_size_{b.label}", False, "catalog ring exceeds 64 elements")
            continue
        homs = enumerate_homs(a, b)
        for hn, f in enumerate(homs):
            if not all(b.is_nzd(f[ai]) for _, ai in center.pairs):
                continue
            predicted = 1
            for m, ai in center.pairs:
                target = {b.mul(f[ai], x) for x in b.elements}
                if not all(f[x] in target for x in m):
                    predicted = 0
                    break
            count = count_algebra_homs(dil, b, f)
            rep.add(
                f"{b.label}_hom{hn}",
                count == predicted,
                f"predicted {predicted}, found {count}",
            )
            if count >= 2:
                raise VerificationFinding("hom count >= 2 contradicts uniqueness")
    return rep


# ---------------------------------------------------------------------------
# symbolic bridge


def eval_poly(f, var_values: dict, target: FiniteRing):
    """Evaluate an Fp polynomial in a finite ring through scalar action."""
    total = target.zero
    unpack = f.ring.packing.unpack
    for mono, coeff in sorted(f.terms.items()):
        term = target.one
        for i, e in enumerate(unpack(mono)):
            v = var_values[f.ring.names[i]]
            for _ in range(e):
                term = target.mul(term, v)
        c = coeff % f.ring.field.p
        acc = target.zero
        for _ in range(c):
            acc = target.add(acc, term)
        total = target.add(total, acc)
    return total


def finite_center(center, cap: int = SIZE_CAP):
    """A symbolic MultiCenter over a finite-dimensional Fp algebra as
    (finite ring, var name -> element, FiniteCenter)."""
    ring, var_map = from_presented(center.algebra, cap)
    fc = FiniteCenter.from_gens(
        ring,
        [([eval_poly(g, var_map, ring) for g in c.ideal.gens], eval_poly(c.elem, var_map, ring))
         for c in center.centers],
    )
    return ring, var_map, fc


def compare_with_symbolic(center, cap: int = SIZE_CAP) -> Report:
    """Cross-validate the symbolic dilatation of `center`, over a
    finite-dimensional Fp algebra, against both oracle constructions.
    `cap` bounds the two rings enumerated from presentations: the
    algebra and the symbolic dilatation."""
    rep = Report("oracle_bridge")
    base_ring, var_map, fc = finite_center(center, cap)
    fractions = dilate_oracle_fractions(base_ring, fc)
    rep.add("oracle_equivalence", True, "fractions vs subring certified in construction")
    oracle_ring = fractions.sub.ring

    sym = dilate(center)
    if sym.is_zero_ring():
        rep.add("zero_ring_agrees", oracle_ring.size == 1)
        return rep

    try:
        sym_ring, sym_vars = from_presented(sym.algebra, cap)
    except InputError:
        rep.add("symbolic_finite_dimensional", False, "symbolic dilatation is not finite-dimensional")
        return rep
    rep.add("symbolic_finite_dimensional", True)
    rep.add("sizes_match", sym_ring.size == oracle_ring.size,
            f"{sym_ring.size} vs {oracle_ring.size}")

    # map symbolic generators to oracle values and certify a surjection
    images = {}
    for n, v in var_map.items():
        images[n] = fractions.sub.struct_map(v)
    for i, c in enumerate(center.centers, start=1):
        for name, g in zip(sym.names([i]), c.ideal.gens):
            images[name] = fractions.sub.fraction_values[(i - 1, eval_poly(g, var_map, base_ring))]
    well_defined = all(
        eval_poly(g, images, oracle_ring) == oracle_ring.zero
        for g in sym.algebra.relations.groebner()
    )
    rep.add("map_well_defined", well_defined)
    closure = oracle_ring.subring_closure([images[n] for n in sym.algebra.ring.names])
    onto = set(closure) == set(oracle_ring.elements)
    rep.add("surjective", onto)
    return rep
