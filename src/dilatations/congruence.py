"""Finite-level congruence verification for dilated matrix groups.

Group points of a dilatation of GL_n / SL_n along a filtration
(H_i, v_i) are the matrices g over Z/p^N with g mod p^{v_i} in
H_i(Z/p^{v_i}); Lie points are the matching congruence lattices in gl_n
or sl_n.  The congruent-isomorphism check verifies the truncation map
g -> g - 1 between the two quotients exhaustively, and any failure is
reported verbatim as a finding rather than patched.

A filtration (`FiltrationSpec`) carries its Z/p^N, a `LevelRing`, and is
checked when built, so every check takes filtrations alone.  `LevelRing`
is the module's one Z/p^N, the normalizer's plain test ring included.

Every check is exhaustive, none compares all pairs of elements, and
each rests on a certificate on generators or on a lemma proved here.
- Groups and Lie lattices: with g = 1 + x, the group points are the
  invertible g (of determinant 1 for SL_n) with x in the ambient
  lattice Λ that `lattice_key` cuts out, and the Lie points are Λ (∩
  sl_n).  Λ·Λ ⊆ Λ for every catalog filtration (the catalog-closure
  lemma of `group_points`), so the points are closed, as
  (1 + x)(1 + y) = 1 + (x + y + xy) and det is multiplicative; a finite
  closed set of invertible matrices that contains 1 is a group, so no
  inverse is checked.  The Lie points are closed under the bracket, as
  [x, y] = xy - yx lies in Λ and has trace 0.  Catalog subgroups over
  the small rings of the normalizer check have no such lattice:
  `closure.closure_certificate` certifies them on greedily picked
  generators, in at most |S|·log2|S| products.
- The congruent isomorphism: with g = 1 + x and x in the ambient lattice
  Λ_s, (1 + x)(1 + y) - 1 = x + y + xy, so the truncation map, read off
  `lattice_key` modulo Λ_r, is a homomorphism constant on the cosets of
  P_r once Λ_s·Λ_s ⊆ Λ_r, checked on pairs of lattice generators.  The
  level hypotheses imply that; the match with the Lie side they do not,
  and it fails for Z in SL_n with p | n.  Both inclusions are one
  certificate, Λ_r ⊆ Λ_s, checked on the generators of Λ_r.
- GL_n with v0 ≥ 1, at any level: every x in Λ is ≡ 0 mod p, so
  1 + x is invertible, P = 1 + Λ and L = Λ, and |Λ| is the product of the
  orders of its generators (the lemma of `point_orders`).  There
  `congruent_iso_check` and `point_orders` enumerate nothing: every
  clause is a statement about Λ_s and Λ_r, checked on generators.  SL_n,
  whose determinant image has no such argument yet, and GL_n with v0 = 0
  are enumerated.

Enumeration goes through the parametrization g = 1 + x, one range per
cell (`_cell_candidates`): cell (i, j) of x runs over the multiples of
p^v for the largest level v at which the trivial level or some entry's
shape forces that cell to zero, so the shapes' zero cells are never
scanned and no candidate is tested for them again; only the scalar tie
of a `Z` entry is left to `lattice_key`.  Candidates come row by row:
`group_points` computes the signed cofactors of the last row once per
head, the first n - 1 rows, and each candidate's determinant is one
`dot` of its last row with them, tested by `GroupSpec.det_ok`;
for SL_n, `lie_points` solves the last diagonal cell from the trace.
The points of a catalog subgroup over any small ring
(`subgroup_elements`) come from the same shapes (`_shape`), one range
per cell of g, with unit diagonals in triangular shapes.
`CANDIDATE_BUDGET` bounds the number of candidates of either, the
product of the range lengths, so it caps the level only where points
are enumerated.  The matrix helpers do their arithmetic through the
ring's `dot`, a sum of products that `LevelRing` reduces once; none of
them inverts a matrix, since `normalizer_check` tests k·t·k^-1 ∈ P as
k·t ∈ P·k.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

from .poly import InputError, _is_prime
from .report import Report
from .closure import closure_certificate
from .oracle import SizeCapError, dual_numbers, galois_extension

CANDIDATE_BUDGET = 2**22
LEVEL_CAP = 2**20


class LevelRing:
    """Z/p^N with p prime, with the ring ops the matrix helpers use.

    Units are found by gcd, so nothing scans the ring: p^N may reach
    LEVEL_CAP, far above the oracle's SIZE_CAP.  No element is inverted:
    the normalizer check tests k·t against P·k."""

    __slots__ = ("p", "N", "mod")

    def __init__(self, p: int, n: int):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        if n < 1 or p**n > LEVEL_CAP:
            raise InputError(f"level p^N = {p}^{n} out of range")
        self.p = p
        self.N = n
        self.mod = p**n

    def __repr__(self):
        return f"Z/{self.p}^{self.N}"

    @property
    def elements(self):
        return range(self.mod)

    @property
    def size(self):
        return self.mod

    zero = property(lambda self: 0)
    one = property(lambda self: 1 % self.mod)

    def add(self, a, b):
        return (a + b) % self.mod

    def sub(self, a, b):
        return (a - b) % self.mod

    def mul(self, a, b):
        return (a * b) % self.mod

    def neg(self, a):
        return (-a) % self.mod

    def dot(self, xs, ys):
        """sum x*y over the pairs, reduced once."""
        return sum(map(operator.mul, xs, ys)) % self.mod

    def is_unit(self, a):
        return math.gcd(a, self.mod) == 1


# matrix helpers over a ring-ops adapter


def mat_id(ops, n):
    return tuple(tuple(ops.one if i == j else ops.zero for j in range(n)) for i in range(n))


def mat_mul(ops, a, b):
    cols = tuple(zip(*b))
    dot = ops.dot
    return tuple([tuple([dot(row, col) for col in cols]) for row in a])


def mat_sub(ops, a, b):
    return tuple([tuple(map(ops.sub, ra, rb)) for ra, rb in zip(a, b)])


def last_row_cofactors(ops, head):
    """The signed cofactors of the last row of an n x n matrix whose
    first n - 1 rows are `head`: the matrix's determinant is the `dot`
    of its last row with them."""
    n = len(head) + 1
    minors = [mat_det(ops, tuple(row[:j] + row[j + 1:] for row in head)) for j in range(n)]
    return [m if (n - 1 + j) % 2 == 0 else ops.neg(m) for j, m in enumerate(minors)]


def mat_det(ops, a):
    """Laplace expansion along the last row (`last_row_cofactors`); the
    empty matrix has determinant 1."""
    if len(a) < 2:
        return a[0][0] if a else ops.one
    return ops.dot(a[-1], last_row_cofactors(ops, a[:-1]))


# ---------------------------------------------------------------------------
# group catalog

class GroupSpec:
    """GL_n or SL_n with the standard subgroup catalog: trivial e,
    diagonal torus T, upper-triangular Borel B, scalar center Z, block
    Levi L(s1,...,sk), and the full group G."""

    __slots__ = ("kind", "n")

    def __init__(self, kind: str, n: int):
        if kind not in ("GL", "SL"):
            raise InputError("group kind must be GL or SL")
        if n < 1 or n > 4:
            raise InputError("matrix size out of supported range")
        self.kind = kind
        self.n = n

    def __repr__(self):
        return f"{self.kind}({self.n})"

    def det_ok(self, ops, d):
        """Whether a matrix of determinant d is a point: d = 1 for SL_n,
        d a unit for GL_n."""
        return d == ops.one if self.kind == "SL" else ops.is_unit(d)


def _parse_levi(name: str):
    if not (name.startswith("L(") and name.endswith(")")):
        return None
    parts = name[2:-1].split(",")
    try:
        sizes = tuple(int(x) for x in parts)
    except ValueError:
        return None
    return sizes if all(s >= 1 for s in sizes) else None


@functools.lru_cache(maxsize=None)
def _shape(name: str, n: int):
    """The Lie shape of a catalog subgroup in n x n matrices: the cells
    it forces to zero, and whether it forces a constant diagonal (Z).
    `e` forces every cell to zero and G none."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    if name == "e":
        return tuple(cells), False
    if name == "G":
        return (), False
    if name in ("T", "Z"):
        return tuple((i, j) for i, j in cells if i != j), name == "Z"
    if name == "B":
        return tuple((i, j) for i, j in cells if i > j), False
    sizes = _parse_levi(name)
    if sizes is None:
        raise InputError(f"unknown catalog subgroup {name!r}")
    if sum(sizes) != n:
        raise InputError(f"Levi shape {name} does not fit n = {n}")
    block = [k for k, size in enumerate(sizes) for _ in range(size)]
    return tuple((i, j) for i, j in cells if block[i] != block[j]), False


def lattice_key(entries, x, p: int) -> tuple:
    """Canonical image of the matrix x modulo the congruence lattice
    { y : y mod p^v lies in Lie(H)(Z/p^v) for each (H, v) in entries }.

    Per entry it lists the cells of x mod p^v that the shape of H forces
    to zero, and for Z the differences of the diagonal.  The key is
    additive and its kernel is exactly that lattice, so x - y lies in the
    lattice iff x and y have equal keys, and x lies in it iff its key is
    all zero.  An invertible g meets the group conditions iff g - 1 lies
    in the lattice: for e both say g = 1 mod p^v, and every other shape
    is linear and contains 1.
    """
    n = len(x)
    key = []
    for h, v in entries:
        m = p**v
        zeros, scalar = _shape(h, n)
        key.extend(x[i][j] % m for i, j in zeros)
        if scalar:
            key.extend((x[i][i] - x[0][0]) % m for i in range(1, n))
    return tuple(key)


def _hold_to_budget(ranges):
    """SizeCapError when the number of candidates the cell ranges give,
    the product of their lengths, exceeds CANDIDATE_BUDGET."""
    count = math.prod(map(len, ranges))
    if count > CANDIDATE_BUDGET:
        raise SizeCapError(f"{count} candidate matrices exceed the budget")


def subgroup_elements(spec: GroupSpec, name: str, ops):
    """The points of the catalog subgroup over an arbitrary small ring:
    the g = 1 + x with x in the shape of `name` (`_shape`) that pass
    `det_ok`, one range per cell.  A cell the shape forces to zero keeps
    the identity's entry and a free off-diagonal cell runs over the ring.
    A free diagonal cell runs over the units when the shape forces every
    cell below the diagonal to zero, since an upper-triangular matrix is
    invertible iff its diagonal entries are units, and over the ring
    otherwise; the scalar flag ties the diagonal cells to one range."""
    n = spec.n
    zeros, scalar = _shape(name, n)
    zeros = set(zeros)
    cells = [(i, j) for i in range(n) for j in range(n)]
    # the units, only when a free diagonal cell of a triangular shape reads them
    unit_diagonal = all(c in zeros for c in cells if c[0] > c[1]) and any((i, i) not in zeros for i in range(n))
    diagonal = [u for u in ops.elements if ops.is_unit(u)] if unit_diagonal else ops.elements
    ranges, slot = [], {}
    for i, j in cells:
        if (i, j) in zeros:
            continue
        if scalar and 0 < i == j:  # the scalar diagonal repeats cell (0, 0)
            slot[i, j] = slot[0, 0]
            continue
        slot[i, j] = len(ranges)
        ranges.append(diagonal if i == j else ops.elements)
    # a zero cell reads the identity's entry, appended to each tuple of values
    fixed = len(ranges)
    rows = [[slot.get((i, j), fixed + (i == j)) for j in range(n)] for i in range(n)]
    _hold_to_budget(ranges)
    out = []
    for vals in itertools.product(*ranges):
        vals += (ops.zero, ops.one)
        g = tuple([tuple([vals[k] for k in row]) for row in rows])
        if spec.det_ok(ops, mat_det(ops, g)):
            out.append(g)
    return out


def subgroup_gens(spec: GroupSpec, name: str, ops):
    """Generators of the catalog subgroup over `ops`, or None if its
    points are not closed.  No congruence lattice applies over the small
    rings of the normalizer check, so `closure.closure_certificate`
    certifies closure: the closure of the identity under greedily picked
    generators, every product checked for membership."""
    els = sorted(subgroup_elements(spec, name, ops))
    return closure_certificate(els, set(els).__contains__, functools.partial(mat_mul, ops), mat_id(ops, spec.n))


# ---------------------------------------------------------------------------
# filtrations and point enumeration


class FiltrationSpec:
    """Pairs (catalog name, level) over Z/p^N (`ring`); the first entry
    is the trivial subgroup for the congruent-isomorphism checks.  Each
    entry is checked here, so that no check meets a malformed one: its
    level lies in [0, N] and its name is a shape (`_shape`) of size n."""

    __slots__ = ("group", "ring", "entries")

    def __init__(self, group: GroupSpec, ring: LevelRing, entries):
        entries = [(str(h), int(v)) for h, v in entries]
        if not entries:
            raise InputError("empty filtration")
        for h, v in entries:
            if v < 0:
                raise InputError("negative level")
            if v > ring.N:
                raise InputError("filtration level exceeds N")
            _shape(h, group.n)
        self.group = group
        self.ring = ring
        self.entries = entries

    def levels(self):
        return [v for _, v in self.entries]

    def names(self):
        return [h for h, _ in self.entries]

    def __repr__(self):
        inner = ", ".join(f"({h}, {v})" for h, v in self.entries)
        return f"Filtration[{self.group} over {self.ring}; {inner}]"


def validate_congruent_levels(s, r) -> str | None:
    """Level hypotheses for the congruent isomorphism: s_i >= s_0,
    r_i >= r_0, r_i >= s_i, r_i - s_i <= s_0; r_i <= N holds for every
    filtration.  Returns a violation message or None."""
    s0, r0 = s[0], r[0]
    for i, (si, ri) in enumerate(zip(s, r)):
        if si < s0:
            return f"s_{i} < s_0"
        if ri < r0:
            return f"r_{i} < r_0"
        if ri < si:
            return f"r_{i} < s_{i}"
        if ri - si > s0:
            return f"r_{i} - s_{i} > s_0"
    return None


class EnumeratedGroup:
    """The sorted points of a finite matrix group over `ring`, which
    contain the identity."""

    __slots__ = ("elements", "as_set")

    def __init__(self, spec: GroupSpec, ring, elements):
        self.elements = sorted(elements)
        self.as_set = set(self.elements)
        if mat_id(ring, spec.n) not in self.as_set:
            raise InputError("enumerated set misses the identity")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.as_set


def _cell_levels(filt: FiltrationSpec):
    """(v0, c): v0 is the level of the trivial entries and c[i][j] the
    level of cell (i, j) in the ambient lattice that `lattice_key` cuts
    out, max(v0, the levels at which some entry's shape forces the cell
    to zero)."""
    n = filt.group.n
    v0 = max([v for h, v in filt.entries if h == "e"], default=0)
    levels = [[v0] * n for _ in range(n)]
    for h, v in filt.entries:
        for i, j in _shape(h, n)[0]:
            levels[i][j] = max(levels[i][j], v)
    return v0, levels


def _cell_candidates(filt: FiltrationSpec):
    """The set-up `group_points` and `lie_points` share: the cell ranges
    of the candidates x for the points g = 1 + x, grouped by row, and the
    `Z` entries whose scalar tie their `lattice_key` test still checks.

    Cell (i, j) runs over the multiples of p^c for its level c
    (`_cell_levels`), which folds in every cell that the trivial level
    or some entry's shape forces to zero.  Every point has such an x, and
    every condition of `lattice_key` holds for all of them but the
    scalar tie of a `Z` entry, which is not a cell range.  The number of
    candidates, the product of the range lengths, is held against
    CANDIDATE_BUDGET."""
    ring = filt.ring
    _, levels = _cell_levels(filt)
    ranges = [[range(0, ring.mod, ring.p**v) for v in row] for row in levels]
    _hold_to_budget([r for row in ranges for r in row])
    return ranges, [(h, v) for h, v in filt.entries if h == "Z"]


def group_points(filt: FiltrationSpec) -> EnumeratedGroup:
    """{ g in G(Z/p^N) : g mod p^{v_i} in H_i(Z/p^{v_i}) for all i }, a
    group because the ambient lattice Λ is closed under products.

    Catalog-closure lemma: for every filtration of catalog entries,
    Λ·Λ ⊆ Λ.  Λ is cut out by the cell levels c_ij of `_cell_levels` and
    by the ties x_ii ≡ x_00 mod p^z of each `Z` entry (H, z).  Each
    catalog shape's free cells are closed under composition: (i, k) and
    (k, j) free give (i, j) free (none for e, all for G, the diagonal
    for T and Z, i ≤ j for B, an equivalence relation for a Levi shape).
    So a cell (i, j) that an entry (H, v) forces to zero has (i, k) or
    (k, j) forced by H too, and c_ik + c_kj ≥ v; with c ≥ v0 everywhere,
    c_ik + c_kj ≥ c_ij for all i, k, j.  Each term x_ik·y_kj of (xy)_ij
    is then divisible by p^c_ij.  For a `Z` entry at level z every
    off-diagonal cell has level at least z, so the off-diagonal terms of
    (xy)_ii - (xy)_00 vanish mod p^z, and
    x_ii·y_ii - x_00·y_00 = (x_ii - x_00)·y_ii + x_00·(y_ii - y_00)
    does too.  So no product is checked here; a name outside the catalog
    is refused when the filtration is built.

    The candidates g = 1 + x come row by row.  For each head, the first
    n - 1 rows, the signed cofactors of the last row are computed once;
    each candidate's determinant is then one `dot` of its last row with
    them.  The `Z` ties are read off g, which has the off-diagonal cells
    and the diagonal differences of x."""
    spec, ring = filt.group, filt.ring
    ranges, ties = _cell_candidates(filt)
    mod, p = ring.mod, ring.p
    rows = [
        [tuple([(x + (i == j)) % mod for j, x in enumerate(xs)]) for xs in itertools.product(*cells)]
        for i, cells in enumerate(ranges)
    ]
    *head_rows, last = rows
    det_ok, dot = spec.det_ok, ring.dot
    found = []
    for head in itertools.product(*head_rows):
        cof = last_row_cofactors(ring, head)
        for row in last:
            if det_ok(ring, dot(row, cof)):
                g = head + (row,)
                if not (ties and any(lattice_key(ties, g, p))):
                    found.append(g)
    return EnumeratedGroup(spec, ring, found)


def lie_points(filt: FiltrationSpec) -> list:
    """{ x in g(Z/p^N) : x = 0 mod p^{v_0}, x mod p^{v_i} in Lie(H_i) },
    with g = gl_n or sl_n (global trace zero for SL)."""
    spec, ring = filt.group, filt.ring
    n, mod, p = spec.n, ring.mod, ring.p
    ranges, ties = _cell_candidates(filt)
    rows = [itertools.product(*cells) for cells in ranges]
    if spec.kind == "SL":
        # the trace fixes the last diagonal cell modulo p^N given the
        # other rows: solve for it, and keep it when it lies in its range
        tails = list(itertools.product(*ranges[-1][:-1]))
        last_rows = {d: [tail + (d,) for tail in tails] for d in ranges[-1][-1]}
        xs = (
            (*head, last)
            for head in itertools.product(*rows[:-1])
            for last in last_rows.get(-sum(head[i][i] for i in range(n - 1)) % mod, ())
        )
    else:
        xs = itertools.product(*rows)
    return sorted(x for x in xs if not (ties and any(lattice_key(ties, x, p))))


# ---------------------------------------------------------------------------
# lattice certificates


def _lattice_generators(filt: FiltrationSpec) -> list:
    """Additive generators of the ambient lattice
    { x in gl_n(Z/p^N) : lattice_key(filt.entries, x) = 0 }: p^c·E_ij for
    each off-diagonal cell at its level c (`_cell_levels`), and on the
    diagonal p^c·E_ii for each i or, when the largest level z of a Z
    entry exceeds v0, p^v0·I together with p^z·E_ii for i >= 1."""
    n, ring, p = filt.group.n, filt.ring, filt.ring.p
    v0, levels = _cell_levels(filt)
    z = max([v for h, v in filt.entries if h == "Z"], default=0)

    def spike(cells, v):
        return tuple(tuple(p**v % ring.mod if (i, j) in cells else 0 for j in range(n)) for i in range(n))

    gens = [spike({(i, j)}, levels[i][j]) for i in range(n) for j in range(n) if i != j]
    if z > v0:
        return gens + [spike({(i, i) for i in range(n)}, v0)] + [spike({(i, i)}, z) for i in range(1, n)]
    return gens + [spike({(i, i)}, levels[i][i]) for i in range(n)]


def _product_witness(gens, entries, ring: LevelRing):
    """The first ordered pair (x, y) of `gens` whose product has a
    nonzero `lattice_key` over `entries`, or None.  None certifies that
    the lattice the generators span multiplies into the lattice of
    `entries`: the product is bilinear and the key additive."""
    return next(
        ((x, y) for x, y in itertools.product(gens, repeat=2) if any(lattice_key(entries, mat_mul(ring, x, y), ring.p))),
        None,
    )


def _lattice_order(gens, ring: LevelRing) -> int:
    """|Λ| for the triangular basis `gens` of Λ (`_lattice_generators`):
    the product of the generators' additive orders.  The order of a
    matrix over Z/p^N is p^N over the gcd of p^N and its entries, so
    p^c·E has order p^(N-c), and 1 when c = N, where it is zero."""
    return math.prod(ring.mod // math.gcd(ring.mod, *itertools.chain.from_iterable(x)) for x in gens)


def _units_lattice(filt: FiltrationSpec) -> bool:
    """Whether `filt` is GL_n with v0 >= 1, where P = 1 + Λ and L = Λ
    (the lemma of `point_orders`)."""
    return filt.group.kind == "GL" and _cell_levels(filt)[0] >= 1


def point_orders(filt: FiltrationSpec) -> tuple[int, int]:
    """(|P|, |L|), the orders of the group and Lie points of `filt`.

    Lemma.  For GL_n with v0 = `_cell_levels(filt)[0]` >= 1, P = 1 + Λ
    and L = Λ, and |P| = |L| = |Λ| is the product of the additive orders
    of the generators `_lattice_generators` lists.
    Proof.  Every cell level is at least v0 >= 1, so every x in Λ is
    ≡ 0 mod p and det(1 + x) ≡ det(1) = 1 mod p, a unit: 1 + x lies in
    GL_n(Z/p^N).  The group points of GL_n are the invertible g with
    g - 1 in Λ, so P = 1 + Λ, and the Lie points of gl_n are Λ itself;
    x -> 1 + x is a bijection.  The generators are a triangular basis
    of Λ: each off-diagonal p^c·E_ij is the one generator nonzero on its
    cell; on the diagonal each p^c·E_ii is, or p^v0·I is the one nonzero
    on cell (0, 0) and p^z·E_ii the only other one on cell (i, i).  So a
    sum of multiples of them is zero only when each term is, reading the
    cells in that order: Λ is the direct sum of the cyclic groups they
    generate, and |Λ| is the product of their orders (`_lattice_order`).

    Elsewhere, for SL_n, whose determinant image has no such argument
    yet, and for GL_n with v0 = 0, the points are enumerated."""
    if _units_lattice(filt):
        order = _lattice_order(_lattice_generators(filt), filt.ring)
        return order, order
    return len(group_points(filt)), len(lie_points(filt))


# ---------------------------------------------------------------------------
# congruent isomorphism


def congruent_iso_check(fs: FiltrationSpec, fr: FiltrationSpec) -> Report:
    """Congruent isomorphism at finite level: the truncation map
    g -> g - 1 from P_s/P_r to L_s/L_r, verified exhaustively, for `fs`
    and `fr` with levels s and r, which must share group, names and p^N.

    Write g = 1 + x with x in the ambient lattice Λ_s of gl_n, and let
    μ(g) = lattice_key(r-level entries, x), additive with kernel Λ_r.
    As (1 + x)(1 + y) - 1 = x + y + xy, μ(gu) = μ(g) + μ(u) on all of
    P_s once Λ_s·Λ_s ⊆ Λ_r, which is checked on the ordered pairs of
    generators of Λ_s (`_lattice_generators`, at most n^4 products).
    Then μ is constant on the cosets of P_r, as μ(P_r) = 0.

    Both inclusions are one certificate: every generator of Λ_r has a
    zero key over the s-level entries, so Λ_r ⊆ Λ_s.  It is sound, as
    the points are the g = 1 + x (of determinant 1 for SL_n) with x in
    Λ, and the Lie points Λ (∩ sl_n), so Λ_r ⊆ Λ_s gives P_r ⊆ P_s and
    L_r ⊆ L_s.  No verdict changes, because the level hypotheses,
    checked first, force Λ_r ⊆ Λ_s: r_i ≥ s_i for every entry, and a
    key that vanishes modulo p^r_i vanishes modulo p^s_i.

    For GL_n with v0 ≥ 1 nothing is enumerated.  By the lemma of
    `point_orders` P = 1 + Λ and L = Λ on both sides (v0 only grows from
    s to r), so the orders are |Λ_s|/|Λ_r| on both sides; μ on P_s is the
    key map on L_s = Λ_s, whose fibres are the cosets of Λ_r, so every
    key has exactly one Lie class and μ is well defined once the product
    certificate holds; and ker μ = 1 + Λ_r = P_r with equal key sets, so
    it is bijective.
    Elsewhere (SL_n, and GL_n with v0 = 0) P_s, P_r, L_s and L_r are
    enumerated and each clause is a linear pass: the orders by Lagrange,
    the Lie classes of key μ(g) as the count of that key over L_s divided
    by |L_r|, and bijectivity as ker μ = P_r with equal key sets.
    Classes are matched modulo the ambient Λ_r, since for SL_n the trace
    of g - 1 vanishes only to the order the determinant forces; the
    count checks that the match is unique.

    The level hypotheses imply the product certificate, so no other path
    is kept.  For an entry (H, s_i) split x = x_h + x_f into the cells of
    the shape of H and those it forces to zero: x_f ≡ 0 mod p^s_i, and
    both parts ≡ 0 mod p^s_0.  Catalog shapes are closed under products,
    so x_h·y_h lies in the shape; the cross terms vanish mod p^(s_0+s_i)
    and x_f·y_f mod p^(2 s_i), and r_i ≤ s_i + s_0 ≤ 2 s_i.  For e,
    xy ≡ 0 mod p^(2 s_0) and r_0 ≤ 2 s_0.  For Z write x = a·I + p^s_i·f
    with p^s_0 | a, so xy ≡ ab·I mod p^r_i.  The match with the Lie side
    rests on the smoothness of the subgroups and is checked, not
    assumed: Z in SL_n with p | n (μ_n, not smooth) fails `well_defined`,
    where a scalar g has no Lie class of its key.
    """
    same_group = (fs.group.kind, fs.group.n) == (fr.group.kind, fr.group.n)
    if not same_group or fs.names() != fr.names() or fs.ring.mod != fr.ring.mod:
        raise InputError("filtrations for iso must share group, names, p and N")
    ring = fs.ring
    rep = Report("congruent_iso")
    if fs.names()[0] != "e":
        rep.add("h0_trivial", False, "first filtration entry must be the trivial subgroup")
        return rep
    violation = validate_congruent_levels(fs.levels(), fr.levels())
    if not rep.add("level_hypotheses", violation is None, violation or ""):
        return rep

    gens_r = _lattice_generators(fr)
    inside = not any(any(lattice_key(fs.entries, x, ring.p)) for x in gens_r)
    if not rep.add("group_inclusion", inside, "P_r is not inside P_s"):
        return rep
    if not rep.add("lie_inclusion", inside, "L_r is not inside L_s"):
        return rep
    # Λ_s is closed under products (the catalog-closure lemma of
    # `group_points`), so the Lie points L_s are closed under the bracket
    rep.add("lie_closure_s", True)

    gens_s = _lattice_generators(fs)
    bad = _product_witness(gens_s, fr.entries, ring)
    pair = "" if bad is None else f"x = {bad[0]}, y = {bad[1]}: x·y is not in Λ_r"
    if _units_lattice(fs):
        q_grp = q_lie = _lattice_order(gens_s, ring) // _lattice_order(gens_r, ring)
        witness, bijective = pair, True
    else:
        ps, pr = group_points(fs), group_points(fr)
        ls, lr = lie_points(fs), lie_points(fr)
        # Lagrange: P_r in P_s are certified groups, L_r in L_s lattices
        q_grp, q_lie = len(ps) // len(pr), len(ls) // len(lr)
        mu = functools.partial(lattice_key, fr.entries, p=ring.p)
        ident = mat_id(ring, fs.group.n)
        keys = {g: mu(mat_sub(ring, g, ident)) for g in ps.elements}
        count = collections.Counter(map(mu, ls))
        # constancy on the cosets of P_r rests on the certificate as well
        witness = next(
            (f"g = {g}: {count[k] // len(lr)} matching Lie classes" for g, k in keys.items() if count[k] // len(lr) != 1),
            pair,
        )
        kernel = {g for g, k in keys.items() if not any(k)}
        bijective = kernel == pr.as_set and set(keys.values()) == set(count)
    rep.add("orders_equal", q_grp == q_lie, f"|Q_grp| = {q_grp}, |Q_lie| = {q_lie}")
    if not rep.add("well_defined", not witness, witness):
        return rep
    rep.add("bijective", bijective, "match map is not a bijection")
    rep.add("homomorphism", not pair, pair)
    return rep


# ---------------------------------------------------------------------------
# normalizer check


def _test_rings(p: int, level: int):
    """Point suppliers for the commutation hypothesis at one level: the
    base ring, a quadratic extension, and dual numbers, the extensions
    when they fit SIZE_CAP.  Plain Z/p^level-points can be degenerate (a
    split torus has no non-scalar points over Z/2), so scheme-level
    non-commutation is witnessed on the small extensions."""
    m = p**level
    rings = [LevelRing(p, level)]
    try:
        rings.append(galois_extension(m, p))
    except SizeCapError:
        pass
    try:
        rings.append(dual_numbers(m))
    except SizeCapError:
        pass
    return rings


def normalizer_check(filt: FiltrationSpec, k_name: str) -> Report:
    """K normalizes the dilated group points when K commutes with every
    H_i at its level; the commutation hypothesis is verified exhaustively
    first and its failure skips the main check."""
    rep = Report("normalizer")
    spec, ring = filt.group, filt.ring

    # K and H commute elementwise iff their generators do, and k P k^-1
    # lies in P for every k in K iff k t k^-1 does for the generators k
    # of K and every point t of P.
    for idx, (h, v) in enumerate(filt.entries):
        if h == "e" or v == 0:
            rep.add(f"commutes_{idx}", True, "trivial level")
            continue
        witness = ""
        for ops in _test_rings(ring.p, v):
            k_gens, h_gens = subgroup_gens(spec, k_name, ops), subgroup_gens(spec, h, ops)
            if k_gens is None or h_gens is None:
                raise InputError(f"catalog subgroup not closed over {ops!r}")
            witness = next(
                (
                    f"level p^{v}: k = {k}, h = {x}"
                    for k in k_gens
                    for x in h_gens
                    if mat_mul(ops, k, x) != mat_mul(ops, x, k)
                ),
                "",
            )
            if witness:
                break
        rep.add(f"commutes_{idx}", not witness, witness)
        if witness:
            rep.add("main_check_skipped", True, "hypothesis failed; normalization criterion does not apply")
            return rep

    pts = group_points(filt)
    k_gens = subgroup_gens(spec, k_name, ring)
    if k_gens is None:
        raise InputError(f"catalog subgroup not closed over {ring!r}")
    # k t k^-1 lies in P iff k t lies in P k = {t' k : t' in P}, so no
    # inverse is formed
    witness = ""
    for k in k_gens:
        right = {mat_mul(ring, t, k) for t in pts.elements}
        witness = next((f"k = {k}, g = {t}" for t in pts.elements if mat_mul(ring, k, t) not in right), "")
        if witness:
            break
    rep.add("normalizes", not witness, witness)
    return rep
