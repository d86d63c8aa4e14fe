"""Exact multivariate polynomials over QQ or a prime field.

Polynomials are sparse dicts mapping packed monomials to nonzero field
scalars.  The variable registry (variable name list), the coefficient
field and the monomial order together form a PolyRing.  All values are
immutable after construction, so sharing across threads is safe.

A monomial is one Python int: each ring has a `Packing` (built on first
use) that packs an exponent vector into a row of fields of FIELD_BITS
value bits, each with a guard bit above it.  From the most significant
end the fields are, for grevlex, the prefix sums S_n, S_{n-1}, ..., S_1
(S_k = e_1 + ... + e_k); for block(k), the prefix sums of the first k
exponents and then those of the rest; for lex, none; and then the
exponents themselves.  Every field is a sum of exponents, so a product
is `a + b`, a quotient `b - a`, `a` divides `b` exactly when
`(b - a) & guard == 0`, and comparing two packed ints compares the
monomials in the ring's order: the layout is the only definition of the
order, `max` of a term dict is its leading monomial, and printing sorts
ints.  A field that reaches 2**FIELD_BITS would spill into its guard
bit: packing such an exponent vector, or forming such a product, raises
ResourceLimitError naming the ring, the bound and the value.  Exponent
vectors appear only where exponents are read: printing, `uses_vars`,
and `map_ring` for a term of total degree past the field bound; below it
`map_ring` moves a term as a sum of the target's packed variables
(`Packing.units`), and `subst` moves one as a sum of its single-term
images' packed monomials.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int]  # Fraction over QQ, int residue over Fp


class InputError(ValueError):
    """Malformed input: registry mismatch, bad syntax, non-prime modulus."""


class ResourceLimitError(RuntimeError):
    """A budget was exceeded: the S-pair or degree cap of a Groebner
    computation, or the width of a packed exponent field."""


# ---------------------------------------------------------------------------
# coefficient fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """QQ, or Fp for a prime p < 2**31.

    Rationals are Fractions (lowest terms, positive denominator by
    construction); Fp residues are ints in [0, p).  Inside the Groebner
    kernel a rational may also be an int (see `Packing.terms`), and
    the operations below accept either.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not (_is_prime(p) and p < 2**31):
                raise InputError(f"modulus {p} is not a prime < 2^31")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def of_int(self, n: int) -> Scalar:
        return Fraction(n) if self.p is None else n % self.p

    def of_fraction(self, num: int, den: int) -> Scalar:
        if self.p is None:
            return Fraction(num, den)
        if den % self.p == 0:
            raise InputError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return Fraction(1, a) if self.p is None else pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"Fp({self.p})"


QQ = Field()


# ---------------------------------------------------------------------------
# monomial orders

_GREVLEX = "grevlex"
_LEX = "lex"
_BLOCK = "block"


class MonomialOrder:
    """lex, grevlex, or a two-block elimination order.

    A block order eliminates the first `block` variables: monomials are
    compared by grevlex on the leading block first, then by grevlex on
    the tail.  The comparison itself is the ring's `Packing`.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in (_GREVLEX, _LEX, _BLOCK):
            raise InputError(f"unknown monomial order {kind!r}")
        self.kind = kind
        self.block = block

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == _BLOCK:
            return f"block({self.block})"
        return self.kind


GREVLEX = MonomialOrder(_GREVLEX)
LEX = MonomialOrder(_LEX)


def block_order(k: int) -> MonomialOrder:
    return MonomialOrder(_BLOCK, k)


# packed monomials (one int each; see the module docstring)

FIELD_BITS = 32


class Packing:
    """The packed encoding of one ring's monomials.

    Exponent fields sit at the low end, variable i in field i (lex: in
    field n-1-i, so that e_1 is the most significant); each block's
    prefix-sum fields sit above them, the first block highest.  `guard`
    has the guard bit of every field set; `exps` masks the exponent
    fields and `exp_guard` holds their guard bits; `units[i]` is the
    packed monomial of variable i.  A packed monomial's
    exponent fields alone, `m & exps`, are an int too: one divides
    another exactly when their difference has no bit of `exp_guard`, and
    a divisor is never the larger int.
    """

    __slots__ = ("ring", "guard", "exps", "exp_guard", "units", "_shifts", "_blocks", "_groups", "_deg_shifts")

    def __init__(self, ring: "PolyRing"):
        n, order = ring.nvars, ring.order
        width = FIELD_BITS + 1
        if order.kind == _LEX:
            cuts, self._shifts = [], [(n - 1 - i) * width for i in range(n)]
        else:
            cuts = [0, min(order.block, n), n] if order.kind == _BLOCK else [0, n]
            self._shifts = [i * width for i in range(n)]
        self.ring = ring
        self._blocks = [(s, t) for s, t in zip(cuts, cuts[1:]) if t > s]
        # per block: (low shift, mask, ones, target shift).  The block's
        # exponents times a row of ones hold its prefix sums in their low
        # fields, the whole block's sum (its degree) at the top
        self._groups, self._deg_shifts, pos = [], [], n
        for s, t in reversed(self._blocks):
            size = t - s
            ones = sum(1 << j * width for j in range(size))
            self._groups.append((s * width, (1 << size * width) - 1, ones, pos * width))
            self._deg_shifts.append((pos + size - 1) * width)
            pos += size
        if not self._blocks:
            self._deg_shifts = list(self._shifts)
        self.guard = sum(1 << (j * width + FIELD_BITS) for j in range(pos))
        self.exp_guard = sum(1 << (j * width + FIELD_BITS) for j in range(n))
        self.exps = sum(((1 << FIELD_BITS) - 1) << j * width for j in range(n))
        self.units = [self.expand(1 << shift) for shift in self._shifts]

    def expand(self, d: int) -> int:
        """Exponent fields only -> the full packed monomial; unchecked:
        a prefix sum may reach its guard bit, which the caller tests."""
        for low, mask, ones, target in self._groups:
            d += (((d >> low) & mask) * ones & mask) << target
        return d

    def pack(self, e) -> int:
        """The packed int of exponent vector e; ResourceLimitError when a
        field (an exponent or a block's degree) reaches the bound."""
        top = max([sum(e[s:t]) for s, t in self._blocks] or e, default=0)
        if top >> FIELD_BITS:
            raise self._overflow(top)
        d = 0
        for x, shift in zip(e, self._shifts):
            d |= x << shift
        return self.expand(d)

    def unpack(self, m: int) -> tuple:
        """The exponent vector of packed monomial m."""
        mask = (1 << FIELD_BITS) - 1
        return tuple([(m >> shift) & mask for shift in self._shifts])

    def deg(self, m: int) -> int:
        """Total degree: the sum of the blocks' top fields (lex: of the
        exponents)."""
        mask, d = (1 << FIELD_BITS) - 1, 0
        for shift in self._deg_shifts:
            d += (m >> shift) & mask
        return d

    def excess(self, a: int, b: int) -> int:
        """The exponent fields of b's excess over a, max(b_i - a_i, 0) in
        field i, for packed (or exponent-field) a and b.  The lcm's
        exponent fields are `(a & exps) + excess(a, b)`, its packed int
        `a + expand(excess(a, b))`."""
        guards = self.exp_guard
        diff = ((b & self.exps) | guards) - (a & self.exps)
        up = diff & guards  # guard bit kept where b's exponent >= a's
        return diff & (up - (up >> FIELD_BITS))

    def overflow(self, m: int) -> ResourceLimitError:
        """The error for a packed product m with a field past its bound."""
        width = FIELD_BITS + 1
        value = 0
        while m:
            value = max(value, m & ((1 << width) - 1))
            m >>= width
        return self._overflow(value)

    def _overflow(self, value: int) -> ResourceLimitError:
        return ResourceLimitError(
            f"exponent or degree sum {value} reaches the packed field bound 2^{FIELD_BITS} "
            f"in ring {self.ring!r}, order {self.ring.order!r}"
        )

    def terms(self, f: "Polynomial") -> dict:
        """A copy of f's terms for the kernel to work on; over QQ an
        integral coefficient becomes an int, so that the kernel's
        arithmetic on it takes no gcd (an Fp residue is an int already)."""
        if self.ring.field.p is not None:
            return dict(f.terms)
        return {m: c.numerator if c.denominator == 1 else c for m, c in f.terms.items()}

    def poly(self, terms: dict) -> "Polynomial":
        """The polynomial of kernel terms; over QQ every coefficient
        leaves as a Fraction."""
        if self.ring.field.p is None:
            terms = {m: Fraction(c) if type(c) is int else c for m, c in terms.items()}
        return Polynomial(self.ring, terms)


def _add_multiple(acc: dict, terms, shift: int, coef, packing: Packing) -> None:
    """acc += coef * x^shift * terms, in place, for (packed monomial,
    coefficient) pairs `terms` and packed `shift`; ResourceLimitError
    when a product's field reaches its guard bit."""
    guard, p = packing.guard, packing.ring.field.p
    for m, c in terms:
        t = m + shift
        if t & guard:
            raise packing.overflow(t)
        s = c * coef
        old = acc.get(t)
        if old is not None:
            s += old
        if p:
            s %= p
        if s:
            acc[t] = s
        else:
            del acc[t]


# ---------------------------------------------------------------------------
# rings

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyRing:
    """A polynomial ring: coefficient field, variable registry, order.

    The registry is immutable; extending it yields a fresh ring.  Rings
    compare by value, so equal declarations are interchangeable.
    """

    __slots__ = ("field", "names", "order", "_index", "_hash", "_packing")

    def __init__(self, field: Field, names: Iterable[str], order: MonomialOrder = GREVLEX):
        names = tuple(names)
        seen = set()
        for n in names:
            if not _NAME_RE.match(n):
                raise InputError(f"bad variable name {n!r}")
            if n in seen:
                raise InputError(f"duplicate variable name {n!r}")
            seen.add(n)
        self.field = field
        self.names = names
        self.order = order
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((field, names, order))
        self._packing = None

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def packing(self) -> Packing:
        # two threads may both build one; they are equal, and either serves
        if self._packing is None:
            self._packing = Packing(self)
        return self._packing

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}]"

    # construction helpers

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        if isinstance(c, int):
            c = self.field.of_int(c)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {0: c})

    def var(self, name: str) -> "Polynomial":
        i = self._index.get(name)
        if i is None:
            raise InputError(f"unknown variable {name!r} in {self!r}")
        return Polynomial(self, {self.packing.units[i]: self.field.one()})

    def gens(self) -> list:
        return [self.var(n) for n in self.names]

    def extend(self, extra: Iterable[str]) -> "PolyRing":
        return PolyRing(self.field, self.names + tuple(extra), self.order)

    def fresh_names(self, stems: Iterable[str]) -> list[str]:
        """One new variable name per stem: the stem itself, else the first
        free `stem_2`, `stem_3`, ...; distinct from the ring's names and
        from each other.  Every fresh variable in the library is named
        here."""
        taken = set(self.names)
        out = []
        for stem in stems:
            name, k = stem, 1
            while name in taken:
                k += 1
                name = f"{stem}_{k}"
            taken.add(name)
            out.append(name)
        return out

    def fresh_name(self, stem: str) -> str:
        return self.fresh_names([stem])[0]

    # parsing / printing ----------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        return _parse_poly(self, text)


class Polynomial:
    """Immutable sparse polynomial attached to a PolyRing: `terms` maps
    packed monomials (`ring.packing`) to nonzero scalars."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # basic structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: self.ring.field.one()}

    def is_constant(self) -> bool:
        return all(m == 0 for m in self.terms)

    def degree(self) -> int:
        return max(map(self.ring.packing.deg, self.terms), default=-1)

    def lm(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def lc(self) -> Scalar:
        return self.terms[self.lm()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.lc()
        if c == self.ring.field.one():
            return self
        inv = self.ring.field.inv(c)
        mul = self.ring.field.mul
        return Polynomial(self.ring, {m: mul(inv, c2) for m, c2 in self.terms.items()})

    def uses_vars(self) -> set:
        """The positions of the variables that occur in some term: the
        nonzero exponent fields of all monomials or-ed together."""
        union = 0
        for m in self.terms:
            union |= m
        return {i for i, e in enumerate(self.ring.packing.unpack(union)) if e}

    # arithmetic

    def _operand(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        if self.ring != other.ring:
            raise InputError("polynomials over different registries")
        return other

    def _plus(self, terms) -> "Polynomial":
        """self plus the (packed monomial, nonzero coefficient) pairs
        `terms`; unshifted monomials set no guard bit, so none is tested."""
        p = self.ring.field.p
        res = dict(self.terms)
        for m, c in terms:
            old = res.get(m)
            if old is not None:
                c += old
                if p:
                    c %= p
                if not c:
                    del res[m]
                    continue
            res[m] = c
        return Polynomial(self.ring, res)

    def __add__(self, other):
        return self._plus(self._operand(other).terms.items())

    def __sub__(self, other):
        neg = self.ring.field.neg
        return self._plus((m, neg(c)) for m, c in self._operand(other).terms.items())

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._operand(other)
        res: dict = {}
        terms = self.terms.items()
        for m, c in other.terms.items():
            _add_multiple(res, terms, m, c, self.ring.packing)
        return Polynomial(self.ring, res)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self.terms == self.ring.const(other).terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    # ring transport

    def map_ring(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in `target`, matching variables by name.

        Every variable actually used must exist in the target registry;
        coefficient fields must agree.  Every field is a sum of exponents,
        so a term moves as the sum of its exponents x_i times the target's
        packed monomials u_i of the same variables.  Below total degree
        2^FIELD_BITS no target field reaches its guard bit; a term of
        higher degree (a lex or block source allows one) goes through the
        target's `pack`, which checks every field.
        """
        if target.field != self.ring.field:
            raise InputError("coefficient field mismatch")
        src, names = self.ring.packing, self.ring.names
        used = sorted(self.uses_vars())
        pos = []
        for i in used:
            k = target._index.get(names[i], -1)
            if k < 0:
                raise InputError(f"variable {names[i]!r} missing in target ring")
            pos.append(k)
        shifts = [src._shifts[i] for i in used]
        dst = target.packing
        units = [dst.units[k] for k in pos]
        mask = (1 << FIELD_BITS) - 1
        res: dict = {}
        for m, c in self.terms.items():
            xs = [(m >> shift) & mask for shift in shifts]
            if sum(xs) >> FIELD_BITS:
                e = [0] * target.nvars
                for k, x in zip(pos, xs):
                    e[k] = x
                res[dst.pack(e)] = c
            else:
                res[sum(map(operator.mul, xs, units))] = c  # distinct variables go to distinct places
        return Polynomial(target, res)

    def subst(self, images: dict) -> "Polynomial":
        """Evaluate with variables replaced by polynomials.

        `images` maps variable names to polynomials over one common target
        ring; unmapped variables must exist there by name.

        One pass over the terms into one dict.  A single-term image
        c·x^p of a variable with exponent e contributes e·p to the term's
        packed monomial and c^e to its coefficient; a multi-term (or zero)
        image enters as its e-th power, computed once per call and
        multiplied in by `_add_multiple`.  Every target field is a sum of
        exponents, so none exceeds the total degree of the term's image
        (the sum of e times each image's degree): a term whose image has
        total degree 2^FIELD_BITS or more raises ResourceLimitError before
        anything is packed, and below that no field reaches its guard bit.
        """
        target = None
        for v in images.values():
            target = v.ring
            break
        if target is None:
            raise InputError("empty substitution")
        var_imgs = [images[n] if n in images else target.var(n) for n in self.ring.names]
        used = sorted(self.uses_vars())
        if any(var_imgs[i].ring != target for i in used):
            raise InputError("polynomials over different registries")
        dst, p = target.packing, target.field.p
        mask = (1 << FIELD_BITS) - 1
        shifts = [self.ring.packing._shifts[i] for i in used]
        degs = [max(var_imgs[i].degree(), 0) for i in used]
        powers: dict = {}
        res: dict = {}
        for m, c in self.terms.items():
            exps = [(m >> shift) & mask for shift in shifts]
            deg = sum(map(operator.mul, exps, degs))
            if deg >> FIELD_BITS:
                raise dst._overflow(deg)
            mono, rest = 0, None
            for i, e in zip(used, exps):
                if not e:
                    continue
                img = var_imgs[i]
                if len(img.terms) != 1:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = img**e
                    rest = power if rest is None else rest * power
                    continue
                (mi, ci), = img.terms.items()
                mono += e * mi
                if ci != 1:
                    c = c * ci**e if p is None else c * pow(ci, e, p) % p
            if rest is not None:
                _add_multiple(res, rest.terms.items(), mono, c, dst)
                continue
            old = res.get(mono)
            if old is not None:
                c += old
                if p:
                    c %= p
                if not c:
                    del res[mono]
                    continue
            res[mono] = c
        return Polynomial(target, res)

    # printing

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# printer: terms descending in the ring order; round-trips through parse()


def _format_scalar(c: Scalar) -> str:
    return str(c)


def format_poly(f: Polynomial, ascending: bool = False) -> str:
    if not f.terms:
        return "0"
    unpack = f.ring.packing.unpack
    first = True
    out = []
    for m in sorted(f.terms, reverse=not ascending):
        c = f.terms[m]
        neg = f.ring.field.p is None and c < 0
        mag = -c if neg else c
        factors = []
        for i, e in enumerate(unpack(m)):
            if e == 1:
                factors.append(f.ring.names[i])
            elif e > 1:
                factors.append(f"{f.ring.names[i]}^{e}")
        if not factors:
            body = _format_scalar(mag)
        elif mag == f.ring.field.one():
            body = "*".join(factors)
        else:
            body = _format_scalar(mag) + "*" + "*".join(factors)
        if first:
            out.append(("-" if neg else "") + body)
            first = False
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^]))"
)


def _parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Parse `3/2*x^2*y - z + 1` style syntax (no parentheses)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"cannot tokenize polynomial near {rest[:20]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", m.group("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    if not tokens:
        raise InputError("empty polynomial text")

    fld = ring.field
    result = ring.zero()
    i = 0
    n = len(tokens)

    def parse_factor(i):
        if i >= n:
            raise InputError("polynomial ends after '*'")
        kind, val = tokens[i]
        if kind == "num":
            if "/" in val:
                a, b = val.split("/")
                c = fld.of_fraction(int(a), int(b))
            else:
                c = fld.of_int(int(val))
            return ring.const(c), i + 1
        if kind == "name":
            base = ring.var(val)
            i += 1
            if i + 1 < n and tokens[i] == ("op", "^") and tokens[i + 1][0] == "num":
                exp = tokens[i + 1][1]
                if "/" in exp:
                    raise InputError("fractional exponent")
                return base ** int(exp), i + 2
            return base, i
        raise InputError(f"unexpected token {val!r} in polynomial")

    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise InputError("dangling sign in polynomial")
        term, i = parse_factor(i)
        while i < n and tokens[i] == ("op", "*"):
            factor, i = parse_factor(i + 1)
            term = term * factor
        if sign < 0:
            term = -term
        result = result + term
    return result
