import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from dilatations.congruence import (
    FiltrationSpec,
    GroupSpec,
    LevelRing,
    _lattice_generators,
    _product_witness,
    _test_rings,
    congruent_iso_check,
    group_points,
    lattice_key,
    lie_points,
    mat_det,
    mat_id,
    mat_mul,
    normalizer_check,
    point_orders,
    subgroup_elements,
    subgroup_gens,
    validate_congruent_levels,
)
from dilatations import cli
from dilatations.closure import closure_certificate
from dilatations.oracle import dual_numbers, galois_extension, zmod
from dilatations.poly import InputError


def _relevel(filt, levels):
    """`filt` with the same entries at other levels."""
    return FiltrationSpec(filt.group, filt.ring, zip(filt.names(), levels))


def test_gl1_classical_filtration():
    filt = FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 1)])
    pts = group_points(filt)
    assert len(pts) == 9
    assert sorted(g[0][0] for g in pts.elements) == [1, 4, 7, 10, 13, 16, 19, 22, 25]


def test_sl2_principal_level():
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 1)])
    pts = group_points(filt)
    # kernel of SL_2(Z/8) -> SL_2(Z/2): 384 / 6
    assert len(pts) == 64


def test_sl2_mixed_filtration_points():
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 1), ("T", 2)])
    pts = group_points(filt)
    for g in pts.elements:
        assert g[0][1] % 4 == 0 and g[1][0] % 4 == 0
        assert (g[0][0] - 1) % 2 == 0 and (g[1][1] - 1) % 2 == 0
    assert len(pts) > 0


def test_group_points_intersection_formula():
    # points = intersection of the mono-centered point sets
    ring = LevelRing(2, 3)
    spec = GroupSpec("SL", 2)
    both = group_points(FiltrationSpec(spec, ring, [("e", 1), ("T", 2)]))
    only_e = group_points(FiltrationSpec(spec, ring, [("e", 1)]))
    only_t = group_points(FiltrationSpec(spec, ring, [("e", 1), ("T", 2)]))
    t_side = group_points(FiltrationSpec(spec, ring, [("e", 0), ("T", 2)]))
    assert both.as_set == only_e.as_set & t_side.as_set


def test_group_points_monotone_in_levels():
    ring = LevelRing(2, 3)
    spec = GroupSpec("SL", 2)
    lo = group_points(FiltrationSpec(spec, ring, [("e", 1), ("T", 1)]))
    hi = group_points(FiltrationSpec(spec, ring, [("e", 2), ("T", 3)]))
    assert hi.as_set <= lo.as_set


def test_lie_points_gl1():
    filt = FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 1)])
    xs = lie_points(filt)
    assert sorted(x[0][0] for x in xs) == [0, 3, 6, 9, 12, 15, 18, 21, 24]


def test_lie_points_sl2_count_and_closure():
    ring = LevelRing(2, 3)
    filt = FiltrationSpec(GroupSpec("SL", 2), ring, [("e", 1)])
    xs = lie_points(filt)
    # x = 2m with tr(2m) = 0 mod 8: 4^4 / 4 choices
    assert len(xs) == 64
    assert _product_witness(_lattice_generators(filt), filt.entries, ring) is None
    assert _ref_lie_closed(xs, ring.mod)


def test_catalog_subgroups_closed():
    spec = GroupSpec("SL", 2)
    ops = LevelRing(2, 2)
    for name in ("e", "T", "B", "Z", "G"):
        assert subgroup_gens(spec, name, ops) is not None
    spec_gl = GroupSpec("GL", 2)
    assert subgroup_gens(spec_gl, "L(1,1)", LevelRing(2, 2)) is not None


def test_levi_equals_torus_for_unit_blocks():
    spec = GroupSpec("GL", 2)
    ops = LevelRing(3, 1)
    levi = set(subgroup_elements(spec, "L(1,1)", ops))
    torus = set(subgroup_elements(spec, "T", ops))
    assert levi == torus


def test_validate_congruent_levels():
    assert validate_congruent_levels([1, 2], [2, 3]) is None
    assert validate_congruent_levels([1], [3]) is not None  # r - s > s_0
    assert validate_congruent_levels([1, 1], [2, 3]) is not None  # r_1 - s_1 > s_0
    # r > N: no filtration carries such a level
    with pytest.raises(InputError, match="filtration level exceeds N"):
        FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 1), [("e", 2)])


@pytest.mark.parametrize(
    "other",
    [
        FiltrationSpec(GroupSpec("SL", 1), LevelRing(3, 3), [("e", 2)]),
        FiltrationSpec(GroupSpec("GL", 2), LevelRing(3, 3), [("e", 2)]),
        FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 2), ("T", 2)]),
        FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("Z", 2)]),
        FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 2), [("e", 2)]),
        FiltrationSpec(GroupSpec("GL", 1), LevelRing(2, 3), [("e", 2)]),
    ],
    ids=["kind", "size", "length", "names", "level", "prime"],
)
def test_congruent_iso_refuses_filtrations_that_differ(other):
    # the check once lived in the CLI alone
    fs = FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 1)])
    for pair in [(fs, other), (other, fs)]:
        with pytest.raises(InputError, match="^filtrations for iso must share group, names, p and N$"):
            congruent_iso_check(*pair)


def test_congruent_iso_gl1():
    filt = FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 1)])
    rep = congruent_iso_check(filt, _relevel(filt, [2]))
    assert rep.ok
    orders = [d for k, _, d in rep.clauses if k == "orders_equal"][0]
    assert "3" in orders


def test_congruent_iso_sl2_quotient_eight():
    fs = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 4), [("e", 1)])
    fr = _relevel(fs, [2])
    assert len(group_points(fs)) // len(group_points(fr)) == 8
    rep = congruent_iso_check(fs, fr)
    assert rep.ok


def test_congruent_iso_mixed_sl2():
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 4), [("e", 1), ("T", 2)])
    rep = congruent_iso_check(filt, _relevel(filt, [2, 3]))
    assert rep.ok


def test_congruent_iso_gl2_levi():
    filt = FiltrationSpec(GroupSpec("GL", 2), LevelRing(3, 3), [("e", 1), ("L(1,1)", 2)])
    rep = congruent_iso_check(filt, _relevel(filt, [2, 3]))
    assert rep.ok


def test_congruent_iso_rejects_bad_levels():
    filt = FiltrationSpec(GroupSpec("GL", 1), LevelRing(3, 3), [("e", 1)])
    rep = congruent_iso_check(filt, _relevel(filt, [3]))
    assert not rep.ok


def expected_trivial_quotient_order(spec, s0, r0, p):
    """|Q_grp| = p^{(r0-s0) dim g} for the pure principal filtration H = {e}."""
    lie_dim = spec.n * spec.n - (1 if spec.kind == "SL" else 0)
    return p ** ((r0 - s0) * lie_dim)


def test_quotient_order_formula():
    for spec, p, n_level, s0, r0 in [
        (GroupSpec("SL", 2), 2, 4, 1, 2),
        (GroupSpec("GL", 2), 2, 3, 1, 2),
        (GroupSpec("SL", 2), 3, 3, 1, 2),
        (GroupSpec("GL", 1), 3, 3, 1, 2),
    ]:
        filt = FiltrationSpec(spec, LevelRing(p, n_level), [("e", s0)])
        ps = group_points(filt)
        pr = group_points(_relevel(filt, [r0]))
        assert len(ps) // len(pr) == expected_trivial_quotient_order(spec, s0, r0, p)


def test_normalizer_scalar_center():
    filt = FiltrationSpec(GroupSpec("GL", 2), LevelRing(2, 3), [("e", 1), ("T", 2)])
    rep = normalizer_check(filt, "Z")
    assert rep.ok


def test_normalizer_torus_torus():
    filt = FiltrationSpec(GroupSpec("GL", 2), LevelRing(2, 3), [("e", 1), ("T", 2)])
    rep = normalizer_check(filt, "T")
    assert rep.ok


def test_normalizer_sl2_vs_torus_hypothesis_fails():
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 1), ("T", 1)])
    rep = normalizer_check(filt, "G")
    d = {k: ok for k, ok, _ in rep.clauses}
    assert d["commutes_1"] is False
    assert d["main_check_skipped"] is True


def test_budget_guard():
    filt = FiltrationSpec(GroupSpec("GL", 2), LevelRing(2, 20), [("G", 1)])
    from dilatations.oracle import SizeCapError

    with pytest.raises(SizeCapError):
        group_points(filt)


def test_budget_counts_cell_candidates_not_the_box(monkeypatch):
    # L1 of the finite-certify workload: 9 * 9 * 3 * 3 = 729 per-cell
    # candidates inside a box of 9^4 = 6561
    from dilatations import congruence
    from dilatations.oracle import SizeCapError

    ring_ = LevelRing(3, 3)
    l1 = FiltrationSpec(GroupSpec("GL", 2), ring_, [("e", 1), ("L(1,1)", 2)])
    principal = FiltrationSpec(GroupSpec("GL", 2), ring_, [("e", 1)])  # 6561 candidates
    expected_group, expected_lie = group_points(l1).elements, lie_points(l1)
    monkeypatch.setattr(congruence, "CANDIDATE_BUDGET", 1000)
    assert group_points(l1).elements == expected_group
    assert lie_points(l1) == expected_lie
    with pytest.raises(SizeCapError, match="^6561 candidate matrices exceed the budget$"):
        group_points(principal)
    with pytest.raises(SizeCapError, match="6561 candidate matrices"):
        lie_points(principal)
    monkeypatch.setattr(congruence, "CANDIDATE_BUDGET", 728)
    with pytest.raises(SizeCapError, match="^729 candidate"):
        group_points(l1)


def test_level_ring_bounds():
    with pytest.raises(InputError):
        LevelRing(4, 2)  # not prime
    with pytest.raises(InputError):
        LevelRing(2, 21)  # p^N over the enumeration cap
    assert LevelRing(2, 20).mod == 2**20


def test_congruent_iso_borel_odd_characteristic():
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(3, 3), [("e", 1), ("B", 2)])
    rep = congruent_iso_check(filt, _relevel(filt, [2, 3]))
    assert rep.ok


def test_full_group_order_sanity():
    # |SL_2(Z/8)| = 2^6 * |SL_2(F_2)| = 384, via the trivial filtration
    filt = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 0)])
    pts = group_points(filt)
    assert len(pts) == 384


def test_gl3_points_and_iso():
    filt = FiltrationSpec(GroupSpec("GL", 3), LevelRing(2, 2), [("e", 1)])
    pts = group_points(filt)
    assert len(pts) == 2**9  # principal congruence kernel mod 4
    rep = congruent_iso_check(filt, _relevel(filt, [2]))
    assert rep.ok


def test_gl3_levi_points():
    filt = FiltrationSpec(GroupSpec("GL", 3), LevelRing(2, 2), [("e", 1), ("L(2,1)", 2)])
    pts = group_points(filt)
    for g in pts.elements:
        assert g[0][2] % 4 == 0 and g[1][2] % 4 == 0
        assert g[2][0] % 4 == 0 and g[2][1] % 4 == 0


# ------------------------------------------------ all-pairs reference checks
#
# The library certifies closure on generators.  These references check
# every pair instead, with their own matrix product and shape predicates,
# and the verdicts and reports must agree.


def _ref_times(els, m):
    """Products by every element b: row -> row·b mod m for each row that
    occurs in els, so that a·b is read off row by row."""
    rows = {row for a in els for row in a}
    times = {}
    for b in els:
        cols = list(zip(*b))
        times[b] = {row: tuple(sum(x * y for x, y in zip(row, col)) % m for col in cols) for row in rows}
    return times


def _ref_mul(times, a, b):
    return tuple(times[b][row] for row in a)


def _ref_mul_ops(ops, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = ops.zero
            for k in range(n):
                s = ops.add(s, ops.mul(a[i][k], b[k][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _ref_sum(a, b, m):
    return tuple(tuple((x + y) % m for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _ref_group_closed(els, ident, mul):
    sset = set(els)
    return ident in sset and all(mul(a, b) in sset for a in els for b in els)


def _ref_lie_closed(xs, m):
    """Every sum and bracket of two elements lies in xs (unordered pairs:
    both operations are symmetric up to sign)."""
    sset = set(xs)
    times = _ref_times(xs, m)
    for a, b in itertools.combinations_with_replacement(xs, 2):
        ab, ba = _ref_mul(times, a, b), _ref_mul(times, b, a)
        br = tuple(tuple((x - y) % m for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))
        if _ref_sum(a, b, m) not in sset or br not in sset:
            return False
    return True


def _ref_levi_block(name, n):
    """The block of each row and column of the Levi shape `name`."""
    sizes = [int(t) for t in name[2:-1].split(",")]
    assert sum(sizes) == n
    return [k for k in range(len(sizes)) for _ in range(sizes[k])]


def _ref_in_shape(name, x, m):
    """x mod m lies in the Lie shape of the catalog subgroup `name`."""
    n = len(x)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if m == 1 or name == "G":
        return True
    if name == "e":
        return all(x[i][j] % m == 0 for i, j in cells)
    if name == "T":
        return all(x[i][j] % m == 0 for i, j in cells if i != j)
    if name == "B":
        return all(x[i][j] % m == 0 for i, j in cells if i > j)
    if name == "Z":
        diag = {x[i][i] % m for i in range(n)}
        return len(diag) == 1 and all(x[i][j] % m == 0 for i, j in cells if i != j)
    block = _ref_levi_block(name, n)
    return all(x[i][j] % m == 0 for i, j in cells if block[i] != block[j])


def _ref_points(filt):
    """Group and Lie points by the 1 + p^{v0} m parametrization, the
    reference shape predicate and the Leibniz determinant."""
    ring = filt.ring
    kind, n, p, mod = filt.group.kind, filt.group.n, ring.p, ring.mod
    v0 = max([v for h, v in filt.entries if h == "e"], default=0)
    group, lie = [], []
    for vals in itertools.product(range(mod // p**v0), repeat=n * n):
        x = tuple(tuple(p**v0 * vals[i * n + j] for j in range(n)) for i in range(n))
        if not all(_ref_in_shape(h, x, p**v) for h, v in filt.entries):
            continue
        g = tuple(tuple((x[i][j] + (i == j)) % mod for j in range(n)) for i in range(n))
        det = _ref_det(ring, g)
        if det == 1 % mod if kind == "SL" else det % p:
            group.append(g)
        if kind == "GL" or sum(x[i][i] for i in range(n)) % mod == 0:
            lie.append(x)
    return sorted(group), sorted(lie)


def _ref_congruent_iso(fs, fr):
    """The congruent-isomorphism report, every check over all pairs."""
    ring, r = fs.ring, fr.levels()
    clauses = []

    def add(key, ok, detail=""):
        clauses.append((key, bool(ok), detail))
        return ok

    if fs.names()[0] != "e":
        add("h0_trivial", False, "first filtration entry must be the trivial subgroup")
        return clauses
    violation = validate_congruent_levels(fs.levels(), r)
    if not add("level_hypotheses", violation is None, violation or ""):
        return clauses
    mod = ring.mod
    ps, ls = _ref_points(fs)
    pr, lr = _ref_points(fr)
    ps_set, pr_set, ls_set, lr_set = set(ps), set(pr), set(ls), set(lr)
    if not add("group_inclusion", pr_set <= ps_set, "P_r is not inside P_s"):
        return clauses
    if not add("lie_inclusion", lr_set <= ls_set, "L_r is not inside L_s"):
        return clauses
    add("lie_closure_s", _ref_lie_closed(ls, mod))

    def cosets(elements, sub, combine):
        assigned, reps = {}, []
        for g in elements:
            if g not in assigned:
                for u in sub:
                    assigned[combine(g, u)] = len(reps)
                reps.append(g)
        return reps, assigned

    times = _ref_times(ps, mod)
    g_reps, g_assign = cosets(ps, pr, lambda g, u: _ref_mul(times, g, u))
    l_reps, l_assign = cosets(ls, lr, lambda x, y: _ref_sum(x, y, mod))
    add("orders_equal", len(g_reps) == len(l_reps), f"|Q_grp| = {len(g_reps)}, |Q_lie| = {len(l_reps)}")

    lam = fr.entries
    ident = mat_id(ring, fs.group.n)
    mu = {}
    for g in ps:
        x = tuple(tuple((a - b) % mod for a, b in zip(r1, r2)) for r1, r2 in zip(g, ident))
        hits = [
            ci
            for ci, y in enumerate(l_reps)
            if all(_ref_in_shape(h, tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(x, y)), ring.p**v) for h, v in lam)
        ]
        if len(hits) != 1 or mu.setdefault(g_assign[g], hits[0]) != hits[0]:
            add("well_defined", False)
            return clauses
    add("well_defined", True)
    add("bijective", len(set(mu.values())) == len(mu) == len(l_reps), "match map is not a bijection")
    hom = all(
        mu[g_assign[_ref_mul(times, g1, g2)]] == l_assign[_ref_sum(l_reps[mu[i]], l_reps[mu[j]], mod)]
        for i, g1 in enumerate(g_reps)
        for j, g2 in enumerate(g_reps)
    )
    add("homomorphism", hom)
    return clauses


# every filtration of the tests above, and of the benchmark's finite-certify
# workload up to 512 elements: (group, n, p, N, entries)
_FILTRATIONS = [
    ("GL", 1, 3, 3, [("e", 1)]),
    ("GL", 1, 3, 3, [("e", 2)]),
    ("SL", 2, 2, 3, [("e", 1)]),
    ("SL", 2, 2, 3, [("e", 1), ("T", 2)]),
    ("SL", 2, 2, 3, [("e", 0), ("T", 2)]),
    ("SL", 2, 2, 3, [("e", 1), ("T", 1)]),
    ("SL", 2, 2, 3, [("e", 2), ("T", 3)]),
    ("SL", 2, 2, 3, [("e", 0)]),
    ("SL", 2, 2, 4, [("e", 1)]),
    ("SL", 2, 2, 4, [("e", 2)]),
    ("SL", 2, 2, 4, [("e", 1), ("T", 2)]),
    ("SL", 2, 2, 4, [("e", 2), ("T", 3)]),
    ("GL", 2, 2, 3, [("e", 1)]),
    ("GL", 2, 2, 3, [("e", 2)]),
    ("GL", 2, 2, 3, [("e", 1), ("T", 2)]),
    ("SL", 2, 3, 3, [("e", 1)]),
    ("SL", 2, 3, 3, [("e", 2)]),
    ("SL", 2, 3, 3, [("e", 1), ("B", 2)]),
    ("SL", 2, 3, 3, [("e", 2), ("B", 3)]),
    ("GL", 2, 3, 3, [("e", 1), ("L(1,1)", 2)]),
    ("GL", 2, 3, 3, [("e", 2), ("L(1,1)", 3)]),
    ("GL", 3, 2, 2, [("e", 1)]),
    ("GL", 3, 2, 2, [("e", 2)]),
    ("GL", 3, 2, 2, [("e", 1), ("L(2,1)", 2)]),
]


def _filt_id(case):
    kind, n, p, level, entries = case
    return f"{kind}{n}-p{p}-N{level}-" + "-".join(f"{h}{v}" for h, v in entries)


@pytest.mark.parametrize("case", _FILTRATIONS, ids=_filt_id)
def test_certificates_match_all_pairs_reference(case):
    kind, n, p, level, entries = case
    ring_ = LevelRing(p, level)
    filt = FiltrationSpec(GroupSpec(kind, n), ring_, entries)
    pts = group_points(filt)
    xs = lie_points(filt)
    ref_group, ref_lie = _ref_points(filt)
    assert pts.elements == ref_group and xs == ref_lie
    times = _ref_times(pts.elements, ring_.mod)
    ident = mat_id(ring_, n)
    closed = _product_witness(_lattice_generators(filt), filt.entries, ring_) is None
    assert closed == _ref_group_closed(pts.elements, ident, lambda a, b: _ref_mul(times, a, b))
    assert closed == _ref_lie_closed(xs, ring_.mod)


# (group, n, p, N, entries, s, r): every congruent-isomorphism call above
_ISOS = [
    ("GL", 1, 3, 3, [("e", 1)], [1], [2]),
    ("GL", 1, 3, 3, [("e", 1)], [1], [3]),
    ("SL", 2, 2, 4, [("e", 1)], [1], [2]),
    ("SL", 2, 2, 4, [("e", 1), ("T", 2)], [1, 2], [2, 3]),
    ("GL", 2, 3, 3, [("e", 1), ("L(1,1)", 2)], [1, 2], [2, 3]),
    ("SL", 2, 3, 3, [("e", 1), ("B", 2)], [1, 2], [2, 3]),
    ("GL", 3, 2, 2, [("e", 1)], [1], [2]),
    ("GL", 2, 2, 3, [("e", 1), ("Z", 2)], [1, 2], [2, 3]),
    ("GL", 2, 2, 3, [("e", 1), ("B", 2)], [1, 2], [2, 3]),
]


@pytest.mark.parametrize("case", _ISOS, ids=lambda c: _filt_id(c[:5]) + f"-s{c[5]}-r{c[6]}")
def test_congruent_iso_matches_all_pairs_reference(case):
    kind, n, p, level, entries, s, r = case
    filt = FiltrationSpec(GroupSpec(kind, n), LevelRing(p, level), entries)
    fs, fr = _relevel(filt, s), _relevel(filt, r)
    assert congruent_iso_check(fs, fr).clauses == _ref_congruent_iso(fs, fr)


def _ref_lattice_order(n, p, level, entries):
    """|Λ| counted cell by cell with the reference shape predicate: an
    off-diagonal cell runs over the multiples of p^c, c the largest of v0
    and the levels at which an entry's shape forces it to zero; x_00 over
    the multiples of p^v0, and every other diagonal cell over x_00 plus
    the multiples of p^z, z the largest of v0 and the levels of Z."""
    v0 = max([v for h, v in entries if h == "e"], default=0)
    z = max([v0] + [v for h, v in entries if h == "Z"])
    order = p ** (level - v0) * p ** ((level - z) * (n - 1))
    for i, j in itertools.permutations(range(n), 2):
        spike = tuple(tuple(int((a, b) == (i, j)) for b in range(n)) for a in range(n))
        c = max([v0] + [v for h, v in entries if not _ref_in_shape(h, spike, p**v)])
        order *= p ** (level - c)
    return order


@st.composite
def small_iso(draw):
    """A filtration and two level vectors s, r that the level hypotheses
    allow: GL or SL, n <= 3, p in {2, 3}, N <= 3, the trivial entry and
    up to two catalog entries, with s_0 so close to N that the box of
    `_ref_points` has at most 2^8 matrices."""
    kind, n = draw(st.sampled_from(["GL", "SL"])), draw(st.integers(1, 3))
    p, level = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    names = ["e"] + draw(st.lists(st.sampled_from(_ref_catalog_names(n)), max_size=2))
    gap = max(k for k in range(level + 1) if p ** (k * n * n) <= 2**8)
    s0 = level - draw(st.integers(0, gap))
    s = [s0] + [draw(st.integers(s0, level)) for _ in names[1:]]
    r0 = draw(st.integers(s0, min(level, 2 * s0)))
    r = [r0] + [draw(st.integers(max(si, r0), min(level, si + s0))) for si in s[1:]]
    return kind, n, p, level, list(zip(names, s)), s, r


@given(small_iso())
def test_random_congruent_isos_match_all_pairs_reference(case):
    # both routes: GL with v0 >= 1 certified on lattice generators, and SL
    # or GL with v0 = 0 enumerated
    kind, n, p, level, entries, s, r = case
    filt = FiltrationSpec(GroupSpec(kind, n), LevelRing(p, level), entries)
    fs, fr = _relevel(filt, s), _relevel(filt, r)
    got, ref = congruent_iso_check(fs, fr).clauses, _ref_congruent_iso(fs, fr)
    if ("well_defined", False, "") in ref:
        # Z in SL_n with p | n: the reference names no witness
        got, ref = [c[:2] for c in got], [c[:2] for c in ref]
    assert got == ref
    for f in (fs, fr):
        group, lie = _ref_points(f)
        assert point_orders(f) == (len(group), len(lie))
        if kind == "GL":
            # the Lie points of GL are Λ: the count the golden orders rest on
            assert _ref_lattice_order(n, p, level, f.entries) == len(lie)


def test_gl_levels_golden_orders_count_cell_by_cell():
    # the GL levels of golden/congruence_gl_levels.dila lie far above the
    # enumeration budget; their orders are pinned by an independent count
    golden = Path(__file__).parent / "golden" / "congruence_gl_levels"
    inst = cli.parse(str(golden.with_suffix(".dila")))
    machine = dict(line.split(": ") for line in golden.with_suffix(".machine").read_text().splitlines())
    points = isos = 0
    for _, args in inst.requests:
        filts = [inst.filtrations[name] for name in args[2:]]
        orders = [_ref_lattice_order(f.group.n, f.ring.p, f.ring.N, f.entries) for f in filts]
        if args[1] == "points":
            points += 1
            tag = "" if points == 1 else f"#{points}"
            assert machine[f"congruence_points.group_order{tag}"] == str(orders[0])
            assert machine[f"congruence_points.lie_order{tag}"] == str(orders[0])
        else:
            isos += 1
            q = orders[0] // orders[1]
            assert ("orders_equal", True, f"|Q_grp| = {q}, |Q_lie| = {q}") in congruent_iso_check(*filts).clauses
    assert (points, isos) == (5, 3)
    assert max(int(v) for k, v in machine.items() if k.startswith("congruence_points.")) > 2**128


def test_congruent_iso_fails_for_the_non_smooth_center():
    # Z in SL(2) at p = 2 is mu_2, which is not smooth: g = 3·1 has
    # det 9 = 1 mod 8, but g - 1 = 2·1 has trace 4, so no class of sl_2
    # has its key
    fs = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 1), ("Z", 2)])
    fr = _relevel(fs, [2, 3])
    rep = congruent_iso_check(fs, fr)
    assert [(k, ok) for k, ok, _ in rep.clauses] == [(k, ok) for k, ok, _ in _ref_congruent_iso(fs, fr)]
    assert not rep.ok
    assert rep.failures() == [("well_defined", "g = ((3, 0), (0, 3)): 0 matching Lie classes")]


def test_product_certificate_names_the_failing_pair():
    # r_0 = 3 > 2 s_0: (2)(2) = 4 is not 0 mod 8; the public check refuses
    # these levels at `level_hypotheses` before it gets there
    ring_ = LevelRing(2, 3)
    filt = FiltrationSpec(GroupSpec("GL", 1), ring_, [("e", 1)])
    assert _product_witness(_lattice_generators(filt), [("e", 3)], ring_) == (((2,),), ((2,),))


@pytest.mark.parametrize("kind", ["GL", "SL"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_hypotheses_imply_the_product_certificate(kind, n):
    # every catalog shape next to the trivial entry, p in {2, 3}, N <= 3
    # and every (s, r) the hypotheses allow: Λ_s·Λ_s lies in Λ_r
    checked = 0
    for p, level, name in itertools.product((2, 3), (1, 2, 3), _ref_catalog_names(n)):
        ring_ = LevelRing(p, level)
        filt = FiltrationSpec(GroupSpec(kind, n), ring_, [("e", 0), (name, 0)])
        for s in itertools.product(range(level + 1), repeat=2):
            for r in itertools.product(range(level + 1), repeat=2):
                if validate_congruent_levels(s, r) is None:
                    fs, fr = _relevel(filt, s), _relevel(filt, r)
                    assert _product_witness(_lattice_generators(fs), fr.entries, ring_) is None, (p, level, name, s, r)
                    checked += 1
    assert checked


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_catalog_filtrations_have_closed_lattices(n):
    # the catalog-closure lemma of group_points, which checks no product:
    # Λ·Λ ⊆ Λ on every catalog shape for p in {2, 3} and N <= 3, with
    # every unordered pair of entries for n <= 3 and every shape next to
    # the trivial entry for n = 4
    names = _ref_catalog_names(n)
    checked = 0
    for p, level in itertools.product((2, 3), (1, 2, 3)):
        ring_ = LevelRing(p, level)
        entries = list(itertools.product(names, range(level + 1)))
        if n <= 3:
            filts = itertools.combinations_with_replacement(entries, 2)
        else:
            filts = ((("e", v0), entry) for v0 in range(level + 1) for entry in entries)
        for pair in filts:
            filt = FiltrationSpec(GroupSpec("GL", n), ring_, pair)
            assert _product_witness(_lattice_generators(filt), filt.entries, ring_) is None, (p, level, pair)
            checked += 1
    assert checked


def test_trivial_subgroup_reads_no_units():
    # every cell of e is fixed, so the unit list is never built
    class Counting(LevelRing):
        __slots__ = ("calls",)

        def __init__(self, p, n):
            super().__init__(p, n)
            self.calls = 0

        def is_unit(self, a):
            self.calls += 1
            return super().is_unit(a)

    ops = Counting(2, 20)
    assert subgroup_elements(GroupSpec("SL", 2), "e", ops) == [mat_id(ops, 2)]
    assert ops.calls == 0
    # a free diagonal cell of a triangular shape does read them
    ops = Counting(2, 3)
    assert len(subgroup_elements(GroupSpec("SL", 2), "T", ops)) == 4
    assert ops.calls == 8


@pytest.mark.parametrize(
    "kind, names, ops",
    [
        ("SL", ("e", "T", "B", "Z", "G"), LevelRing(2, 2)),
        ("GL", ("T", "Z", "L(1,1)"), LevelRing(2, 2)),
        ("GL", ("T", "Z"), galois_extension(4, 2)),
        ("SL", ("T", "Z"), dual_numbers(4)),
    ],
)
def test_subgroup_closure_matches_all_pairs_reference(kind, names, ops):
    spec = GroupSpec(kind, 2)
    for name in names:
        els = subgroup_elements(spec, name, ops)
        ref = _ref_group_closed(els, mat_id(ops, 2), lambda a, b: _ref_mul_ops(ops, a, b))
        assert (subgroup_gens(spec, name, ops) is not None) == ref


def _ref_det(ops, a):
    """Leibniz: the signed sum over permutations of products of entries."""
    n = len(a)
    total = ops.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = ops.one
        for i in range(n):
            term = ops.mul(term, a[i][perm[i]])
        total = ops.add(total, ops.neg(term) if inversions % 2 else term)
    return total


# level rings, the normalizer's test rings (those at p = 3, level 1 after
# their base ring, LevelRing(3, 1), listed first) and the oracle's Z/n:
# the helpers take any ring-ops adapter
_MATRIX_RINGS = [
    LevelRing(2, 1),
    LevelRing(2, 3),
    LevelRing(3, 1),
    LevelRing(3, 2),
    *_test_rings(2, 2),
    *_test_rings(3, 1)[1:],
    zmod(4),
    zmod(3),
]


@pytest.mark.parametrize("ops", _MATRIX_RINGS, ids=repr)
def test_matrix_helpers_match_loop_references(ops):
    rng = random.Random(repr(ops))
    els = list(ops.elements)
    for n in range(1, 5):
        for _ in range(12):
            a, b = (tuple(tuple(rng.choice(els) for _ in range(n)) for _ in range(n)) for _ in range(2))
            assert mat_mul(ops, a, b) == _ref_mul_ops(ops, a, b)
            assert mat_det(ops, a) == _ref_det(ops, a)


def _ref_catalog_names(n):
    """e, T, B, Z, G and the Levi shape of every composition of n."""
    names = ["e", "T", "B", "Z", "G"]
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes = [1]
        for cut in cuts:
            if cut:
                sizes.append(1)
            else:
                sizes[-1] += 1
        names.append("L(" + ",".join(map(str, sizes)) + ")")
    return names


def _ref_in_subgroup(name, g, ops):
    """g lies in the catalog subgroup `name` by its written definition:
    the identity, diagonal, upper triangular, scalar, block diagonal, or
    any matrix."""
    n = len(g)
    zero, one = ops.zero, ops.one
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    if name == "G":
        return True
    if name == "e":
        return all(g[i][i] == one for i in range(n)) and all(g[i][j] == zero for i, j in off)
    if name == "T":
        return all(g[i][j] == zero for i, j in off)
    if name == "Z":
        return all(g[i][j] == zero for i, j in off) and len({g[i][i] for i in range(n)}) == 1
    if name == "B":
        return all(g[i][j] == zero for i, j in off if i > j)
    block = _ref_levi_block(name, n)
    return all(g[i][j] == zero for i, j in off if block[i] != block[j])


@pytest.mark.parametrize("kind", ["GL", "SL"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_subgroup_elements_match_literal_reference(kind, n):
    # every n x n matrix over each ring of _MATRIX_RINGS whose box has at
    # most 20,000 of them, filtered by determinant and the written
    # definition of each catalog subgroup
    spec = GroupSpec(kind, n)
    rings = [ops for ops in _MATRIX_RINGS if ops.size ** (n * n) <= 20000]
    assert rings
    for ops in rings:
        els = list(ops.elements)
        units = {u for u in els if any(ops.mul(u, y) == ops.one for y in els)}
        box = []
        for vals in itertools.product(els, repeat=n * n):
            g = tuple(vals[i * n:(i + 1) * n] for i in range(n))
            det = _ref_det(ops, g)
            if det == ops.one if kind == "SL" else det in units:
                box.append(g)
        for name in _ref_catalog_names(n):
            ref = sorted(g for g in box if _ref_in_subgroup(name, g, ops))
            assert sorted(subgroup_elements(spec, name, ops)) == ref, (ops, name)


def test_subgroup_budget_is_the_product_of_cell_ranges(monkeypatch):
    # GL(2) over Z/9, six units: a free diagonal cell of a triangular
    # shape runs over the units and any other free cell over all 9
    from dilatations import congruence
    from dilatations.oracle import SizeCapError

    spec, ops = GroupSpec("GL", 2), LevelRing(3, 2)
    for name, count in [("e", 1), ("Z", 6), ("T", 36), ("L(1,1)", 36), ("B", 324), ("L(2)", 6561), ("G", 6561)]:
        monkeypatch.setattr(congruence, "CANDIDATE_BUDGET", count)
        assert subgroup_elements(spec, name, ops)
        monkeypatch.setattr(congruence, "CANDIDATE_BUDGET", count - 1)
        with pytest.raises(SizeCapError, match=f"^{count} candidate matrices exceed the budget$"):
            subgroup_elements(spec, name, ops)


# filtrations mixing shapes and levels, level-0 entries among them, for
# the per-cell candidate ranges against the box reference
_MIXED_FILTRATIONS = [
    ("GL", 1, 3, 2, [("e", 0), ("Z", 2)]),
    ("GL", 2, 2, 3, [("e", 0), ("B", 1), ("Z", 2)]),
    ("GL", 2, 2, 3, [("e", 1), ("Z", 2), ("T", 3)]),
    ("GL", 2, 3, 2, [("e", 0), ("T", 1), ("L(1,1)", 2)]),
    ("GL", 2, 3, 2, [("e", 0), ("L(1,1)", 1), ("B", 2)]),
    ("SL", 2, 2, 3, [("e", 1), ("B", 0), ("Z", 2)]),
    ("SL", 2, 2, 3, [("e", 1), ("Z", 2), ("B", 3)]),
    ("SL", 2, 3, 2, [("e", 0), ("B", 1), ("Z", 2)]),
    ("SL", 2, 3, 2, [("e", 0), ("Z", 1), ("T", 2)]),
    ("GL", 3, 2, 1, [("e", 0), ("B", 1)]),
    ("GL", 3, 2, 1, [("e", 0), ("Z", 1), ("L(2,1)", 0)]),
    ("GL", 3, 2, 2, [("e", 1), ("L(1,2)", 2), ("Z", 2)]),
    ("SL", 3, 2, 2, [("e", 1), ("B", 2), ("T", 1)]),
    ("SL", 4, 2, 1, [("e", 0), ("B", 1)]),
    ("GL", 4, 2, 1, [("e", 0), ("Z", 1)]),
]


@pytest.mark.parametrize("case", _MIXED_FILTRATIONS, ids=_filt_id)
def test_cell_candidates_match_box_reference(case):
    kind, n, p, level, entries = case
    filt = FiltrationSpec(GroupSpec(kind, n), LevelRing(p, level), entries)
    ref_group, ref_lie = _ref_points(filt)
    assert group_points(filt).elements == ref_group
    assert lie_points(filt) == ref_lie


@st.composite
def small_filtration(draw):
    """GL or SL, n <= 3, p in {2, 3}, N <= 3 and one to three catalog
    entries at levels up to N, with at most 2^16 matrices in the box of
    `_ref_points`."""
    kind, n = draw(st.sampled_from(["GL", "SL"])), draw(st.integers(1, 3))
    p, level = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    names = _ref_catalog_names(n)
    entries = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(0, level)), min_size=1, max_size=3))
    v0 = max([v for h, v in entries if h == "e"], default=0)
    assume(p ** ((level - v0) * n * n) <= 2**16)
    return kind, n, p, level, entries


@given(small_filtration())
def test_random_filtrations_match_box_reference(case):
    kind, n, p, level, entries = case
    filt = FiltrationSpec(GroupSpec(kind, n), LevelRing(p, level), entries)
    ref_group, ref_lie = _ref_points(filt)
    assert group_points(filt).elements == ref_group
    assert lie_points(filt) == ref_lie


def _additive_span(gens, mod):
    n = len(gens[0])
    zero = tuple((0,) * n for _ in range(n))
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = _ref_sum(x, g, mod)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


# the group and Lie closure certificates rest on these generators; the
# largest boxes are 27^4 matrices for n = 2 over Z/27 and 4^9 = 2^18 for
# n = 3 over Z/4
@pytest.mark.parametrize("case", _FILTRATIONS + _MIXED_FILTRATIONS, ids=_filt_id)
def test_lattice_generators_span_the_key_kernel(case):
    kind, n, p, level, entries = case
    ring_ = LevelRing(p, level)
    filt = FiltrationSpec(GroupSpec(kind, n), ring_, entries)
    box = itertools.product(itertools.product(range(ring_.mod), repeat=n), repeat=n)
    kernel = {x for x in box if not any(lattice_key(entries, x, p))}
    assert _additive_span(_lattice_generators(filt), ring_.mod) == kernel


# ------------------------------------------------------ rejected certificates


def test_group_with_one_element_removed_is_rejected():
    # the greedy closure that `subgroup_gens` rests on
    ring_ = LevelRing(3, 3)
    pts = group_points(FiltrationSpec(GroupSpec("GL", 2), ring_, [("e", 1)]))
    assert len(pts) > 1024
    ident = mat_id(ring_, 2)
    for k in (1, len(pts) // 2, len(pts) - 1):
        drop = pts.elements[k]
        assert drop != ident
        cut = [g for g in pts.elements if g != drop]
        assert closure_certificate(cut, set(cut).__contains__, lambda a, b: mat_mul(ring_, a, b), ident) is None


def test_closure_certificate():
    add8 = lambda a, b: (a + b) % 8  # noqa: E731
    assert closure_certificate(range(8), set(range(8)).__contains__, add8, 0) == [1]
    assert closure_certificate([0, 2, 4, 6], {0, 2, 4, 6}.__contains__, add8, 0) == [2]
    assert closure_certificate([0, 2, 3], {0, 2, 3}.__contains__, add8, 0) is None
    # start outside the set
    assert closure_certificate([2, 4, 6], {2, 4, 6}.__contains__, add8, 0) is None


def _ref_normalizer(filt, k_name):
    """(clause, verdict) pairs of the normalizer check, over all pairs."""
    spec, ring_, out = filt.group, filt.ring, []
    for idx, (h, v) in enumerate(filt.entries):
        if h == "e" or v == 0:
            out.append((f"commutes_{idx}", True))
            continue
        ok = all(
            _ref_mul_ops(ops, k, x) == _ref_mul_ops(ops, x, k)
            for ops in _test_rings(ring_.p, v)
            for k in subgroup_elements(spec, k_name, ops)
            for x in subgroup_elements(spec, h, ops)
        )
        out.append((f"commutes_{idx}", ok))
        if not ok:
            return out + [("main_check_skipped", True)]
    ops = ring_
    pts = group_points(filt)
    ks = subgroup_elements(spec, k_name, ops)
    ident = mat_id(ops, spec.n)
    inverse = {k: next(x for x in ks if _ref_mul_ops(ops, k, x) == ident) for k in ks}
    out.append(
        (
            "normalizes",
            all(
                _ref_mul_ops(ops, _ref_mul_ops(ops, k, g), inverse[k]) in pts.as_set
                for k in ks
                for g in pts.elements
            ),
        )
    )
    return out


@pytest.mark.parametrize(
    "kind, level, entries, k_name",
    [
        ("GL", 3, [("e", 1), ("T", 2)], "Z"),
        ("GL", 3, [("e", 1), ("T", 2)], "T"),
        ("SL", 3, [("e", 1), ("T", 1)], "G"),
        ("SL", 4, [("e", 1), ("T", 2)], "Z"),
    ],
)
def test_normalizer_matches_all_pairs_reference(kind, level, entries, k_name):
    filt = FiltrationSpec(GroupSpec(kind, 2), LevelRing(2, level), entries)
    rep = normalizer_check(filt, k_name)
    assert [(k, ok) for k, ok, _ in rep.clauses] == _ref_normalizer(filt, k_name)
