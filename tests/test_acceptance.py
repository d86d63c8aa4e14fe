"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`).  Tolerances are
exact unless a runtime bound is stated; runtime bounds are asserted.
"""

import itertools
import random
import subprocess
import sys
import time

from dilatations.algebras import AlgebraHom, PresentedAlgebra
from dilatations.congruence import (
    FiltrationSpec,
    GroupSpec,
    LevelRing,
    congruent_iso_check,
    group_points,
    normalizer_check,
)
from dilatations.dilatation import (
    Center,
    MultiCenter,
    base_change_compare,
    check_exceptional,
    conic_iso,
    dilate,
    iterate_iso,
    localize_compare,
    monopoly_iso,
    open_immersion_iso,
    two_stage_iso,
)
from dilatations.groebner import buchberger_reduced
from dilatations.ideals import IdealHandle
from dilatations.oracle import (
    FiniteCenter,
    compare_with_symbolic,
    dilate_oracle_fractions,
    quotient_ring,
    universal_property_scan,
    zmod,
)
from dilatations.poly import Field, PolyRing, QQ
from dilatations.rost import RostInput, rost_space, rost_subalgebra_check

from conftest import package_env, random_poly, ring


def _line(n, label, ok, detail=""):
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {n} failed: {detail}"


def algebra(names, *rels):
    r = ring(list(names))
    return PresentedAlgebra(r, IdealHandle(r, [r.parse(t) for t in rels]))


def mk_center(alg, *pairs):
    return MultiCenter(
        alg,
        [
            Center(IdealHandle(alg.ring, [alg.ring.parse(g) for g in gens]), alg.ring.parse(a))
            for gens, a in pairs
        ],
    )


def test_criterion_1_presentation_soundness():
    rng = random.Random(731)
    t0 = time.time()
    checked = 0
    for _ in range(25):
        nv = rng.choice([2, 3])
        r = PolyRing(QQ, ["x", "y", "z"][:nv])
        a = PresentedAlgebra(r)
        centers = []
        for _ in range(rng.randint(1, 2)):
            gens = []
            while len(gens) < rng.randint(1, 3):
                p = random_poly(rng, r, max_deg=2, max_terms=2, coeff_bound=2)
                if not p.is_zero():
                    gens.append(p)
            elem = r.zero()
            while elem.is_zero():
                elem = random_poly(rng, r, max_deg=rng.choice([1, 1, 2]), max_terms=1, coeff_bound=2)
            centers.append(Center(IdealHandle(r, gens), elem))
        res = dilate(MultiCenter(a, centers))
        rep = check_exceptional(res, extra_nzd=[r.var(r.names[0])])
        assert rep.ok, rep.failures()
        checked += 1
    elapsed = time.time() - t0
    _line(1, "presentation soundness", checked == 25 and elapsed < 60, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_2_zero_ring_criterion():
    cases = [
        (algebra(["u"], "u^2"), (["u"], "u"), True),
        (algebra(["u"], "u^3"), (["u^2"], "u"), True),
        (algebra(["u"], "u^3"), (["u"], "u^2"), True),
        (PresentedAlgebra(ring(["u"])), (["u"], "u"), False),
        (algebra(["x", "y"], "x*y"), (["x"], "x"), False),
        (algebra(["x", "y"], "x^2*y"), (["y"], "x"), False),
        (PresentedAlgebra(ring(["x"])), (["x"], "0"), True),
        (algebra(["x", "y"], "x^2 - x"), (["y"], "x"), False),
    ]
    ok = True
    for alg, pair, expect_zero in cases:
        c = mk_center(alg, pair)
        res = dilate(c)
        nil = alg.relations.radical_contains(c.product_elem())
        ok = ok and res.is_zero_ring() == nil == expect_zero
    _line(2, "zero-ring criterion", ok, f"{len(cases)} mixed cases")


def test_criterion_3_monopoly():
    t0 = time.time()
    instances = []
    a1 = PresentedAlgebra(ring(["p", "q", "X", "Y"]))
    instances.append(mk_center(a1, (["X"], "q"), (["Y"], "p")))  # k = 2, variable denominators
    a2 = PresentedAlgebra(ring(["x", "y"]))
    instances.append(mk_center(a2, (["x", "y"], "x"), (["x", "y"], "y")))
    a3 = PresentedAlgebra(ring(["a", "b", "c", "g"]))
    instances.append(mk_center(a3, (["g"], "a"), (["g"], "b"), (["a*b"], "c")))  # k = 3
    a4 = PresentedAlgebra(ring(["a", "g"]))
    instances.append(mk_center(a4, (["g"], "a")))
    instances.append(mk_center(a4, (["g"], "a"), (["g^2"], "a^2")))
    a5 = algebra(["x", "y"], "x*y")
    instances.append(mk_center(a5, (["x"], "x"), (["y"], "y")))
    a6 = PresentedAlgebra(ring(["a", "b"]))
    instances.append(mk_center(a6, (["a"], "b"), (["b"], "a")))
    instances.append(mk_center(a6, (["a*b"], "a"), (["a"], "b")))
    a7 = algebra(["u", "v"], "u^2 - v^3")
    instances.append(mk_center(a7, (["u"], "v"), (["v"], "u")))
    instances.append(mk_center(a7, (["u", "v"], "v"), (["v^2"], "u")))
    count = 0
    for c in instances:
        _, _, rep = monopoly_iso(c)
        assert rep.ok, (c, rep.failures())
        count += 1
    ks = sorted(len(c) for c in instances)
    elapsed = time.time() - t0
    _line(3, "monopoly isomorphism", count >= 10 and 3 in ks and elapsed < 120, f"{count} instances, {elapsed:.1f}s")


def test_criterion_4_structural_isomorphisms():
    t0 = time.time()
    counts = {}

    def bump(name, rep, expect_ok=True):
        assert rep.ok == expect_ok, (name, rep.failures() or "unexpected pass")
        counts[name] = counts.get(name, 0) + 1

    # two-stage
    a = PresentedAlgebra(ring(["a", "b", "g", "h"]))
    bump("two-stage", two_stage_iso(mk_center(a, (["g"], "a"), (["h"], "b")), [1])[1])
    a2 = PresentedAlgebra(ring(["a", "g", "h"]))
    bump("two-stage", two_stage_iso(mk_center(a2, (["g"], "a"), (["h"], "a")), [1])[1])
    bump("two-stage", two_stage_iso(mk_center(a2, (["g"], "a"), (["h"], "a")), [1, 2])[1])
    bump("two-stage", two_stage_iso(mk_center(a, (["g"], "a"), (["h"], "b")), [2])[1])
    a3 = algebra(["x", "y"], "x*y")
    bump("two-stage", two_stage_iso(mk_center(a3, (["x"], "x"), (["y"], "y")), [1])[1])

    # iterate
    ag = PresentedAlgebra(ring(["a", "g"]))
    bump("iterate", iterate_iso(ag, ag.var("a"), [[ag.var("g")]], [1], 0))
    bump("iterate", iterate_iso(ag, ag.var("a"), [[ag.var("g")]], [1], 1))
    agh = PresentedAlgebra(ring(["a", "g", "h"]))
    bump("iterate", iterate_iso(agh, agh.var("a"), [[agh.var("g"), agh.var("h")], [agh.var("g")]], [1, 1], 1))
    bump("iterate", iterate_iso(ag, ag.var("a"), [[ag.var("g")]], [2], 1))
    bump("iterate", iterate_iso(ag, ag.var("a"), [[ag.var("g")]], [2], 2))

    # localize
    u = PresentedAlgebra(ring(["u"]))
    bump("localize", localize_compare(mk_center(u, (["1"], "u"))))
    bump("localize", localize_compare(mk_center(ag, (["g"], "a"))))
    bump("localize", localize_compare(MultiCenter(ag, [])))
    bump("localize", localize_compare(mk_center(a2, (["g"], "a"), (["h"], "a"))))
    uv = PresentedAlgebra(ring(["u", "v"]))
    bump("localize", localize_compare(mk_center(uv, (["1"], "u"), (["1"], "v"))))

    # open immersion: identity, three valid instances, and two
    # hypothesis-violation paths reported before construction
    bump("open-immersion", open_immersion_iso(mk_center(ag, (["g"], "a")), [1], {}))
    bump("open-immersion", open_immersion_iso(mk_center(ag, (["g"], "a"), (["g", "a"], "g")), [1], {2: 1}))
    bump("open-immersion", open_immersion_iso(mk_center(u, (["1"], "u"), (["1"], "u^2")), [1], {2: 1}))
    ab = PresentedAlgebra(ring(["a", "b"]))
    bump("open-immersion", open_immersion_iso(mk_center(ab, (["a*b"], "a"), (["a*b", "a"], "a*b")), [1], {2: 1}))
    xy = algebra(["x", "y"], "x*y")
    bump("open-immersion", open_immersion_iso(mk_center(xy, (["x"], "x"), (["x", "x^2"], "x^2")), [1], {2: 1}))
    bump(
        "open-immersion-hyp",
        open_immersion_iso(mk_center(ag, (["g", "a^2"], "a"), (["g*a", "a^2"], "a^2")), [1], {2: 1}),
        expect_ok=False,
    )
    agh2 = PresentedAlgebra(ring(["a", "g", "h"]))
    bump(
        "open-immersion-hyp",
        open_immersion_iso(mk_center(agh2, (["g"], "a"), (["h", "a"], "a")), [1], {2: 1}),
        expect_ok=False,
    )

    # base change
    cg = mk_center(ag, (["g"], "a"))
    bump("base-change", base_change_compare(cg, AlgebraHom.identity(ag)))
    w = PresentedAlgebra(ring(["a", "g", "w"]))
    bump("base-change", base_change_compare(cg, AlgebraHom(ag, w, [w.var("a"), w.var("g")])))
    q = algebra(["a", "g"], "g")
    bump("base-change", base_change_compare(cg, AlgebraHom(ag, q, [q.var("a"), q.var("g")])))
    q2 = algebra(["a", "g"], "a^2")
    bump("base-change", base_change_compare(cg, AlgebraHom(ag, q2, [q2.var("a"), q2.var("g")])))
    abg = PresentedAlgebra(ring(["a", "b", "g"]))
    big = PresentedAlgebra(ring(["a", "b", "g", "w"]))
    bump(
        "base-change",
        base_change_compare(
            mk_center(abg, (["g"], "a"), (["g"], "b")),
            AlgebraHom(abg, big, [big.var("a"), big.var("b"), big.var("g")]),
        ),
    )

    # conic
    av = PresentedAlgebra(ring(["a"]))
    bump("conic", conic_iso(mk_center(av, (["a"], "a"))))
    bump("conic", conic_iso(mk_center(ag, (["g", "a"], "a"))))
    bump("conic", conic_iso(MultiCenter(ag, [])))
    bump("conic", conic_iso(mk_center(ab, (["a"], "a"), (["b"], "b"))))
    bump("conic", conic_iso(mk_center(ag, (["g"], "a"))))

    elapsed = time.time() - t0
    enough = all(counts.get(k, 0) >= 5 for k in ("two-stage", "iterate", "localize", "base-change", "conic"))
    enough = enough and counts.get("open-immersion", 0) >= 5
    _line(4, "structural isomorphism suites", enough, f"{sum(counts.values())} certificates, {elapsed:.1f}s")


def test_criterion_5_regular_case_no_saturation():
    t0 = time.time()
    checked = 0
    for n in (1, 2, 3):
        names = ["a"] + [f"g{i}" for i in range(1, n + 1)]
        r = PolyRing(QQ, names)
        a = PresentedAlgebra(r)
        for ds in itertools.product((1, 2, 3), repeat=n):
            centers = [
                Center(IdealHandle(r, [r.var(f"g{i + 1}")]), r.var("a") ** d)
                for i, d in enumerate(ds)
            ]
            res = dilate(MultiCenter(a, centers))
            assert not res.saturation_changed, (n, ds)
            ext = res.algebra.ring
            raw = [
                r.var(f"g{i + 1}").map_ring(ext)
                - (r.var("a") ** d).map_ring(ext) * ext.var(res.fraction_vars[i][0])
                for i, d in enumerate(ds)
            ]
            assert res.algebra.relations.groebner() == buchberger_reduced(raw), (n, ds)
            checked += 1
    _line(5, "regular case exact presentation", checked == 39, f"{checked} exponent vectors, {time.time()-t0:.1f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    count = 0
    for n in (4, 6, 8, 9, 12):
        base = zmod(n)
        for pairs in ([([n // 2], 2)], [([n // 2], 2), ([2], 3)]):
            c = FiniteCenter.from_gens(base, pairs)
            dilate_oracle_fractions(base, c)  # certification is in construction
            count += 1
    poly_rings = [
        (quotient_ring(2, (0, 1, 0, 1)), (0, 1, 0)),        # F2[y]/(y^3+y), 8 elements
        (quotient_ring(3, (0, 2, 0, 1)), (0, 1, 0)),        # F3[y]/(y^3+2y), 27 elements
        (quotient_ring(5, (0, 4, 1)), (0, 1)),              # F5[y]/(y^2+4y), 25 elements
        (quotient_ring(3, (0, 2, 0, 0, 1)), (0, 1, 0, 0)),  # F3[y]/(y^4-y), 81 elements
    ]
    for base, y in poly_rings:
        c = FiniteCenter.from_gens(base, [([y], base.add(y, base.one))])
        dilate_oracle_fractions(base, c)
        count += 1
    _line(6, "oracle equivalence", count == 14, f"{count} certified bijections, {time.time()-t0:.1f}s")


def test_criterion_7_universal_scan():
    t0 = time.time()
    base = zmod(6)
    c = FiniteCenter.from_gens(base, [([3], 2)])
    rep = universal_property_scan(base, c, [zmod(n) for n in range(1, 13)])
    elapsed = time.time() - t0
    _line(7, "universal-property scan", rep.ok and elapsed < 30, f"{len(rep.clauses)} hom checks, {elapsed:.1f}s")


def test_criterion_8_symbolic_oracle_bridge():
    def fp_algebra(p, names, *rels):
        r = PolyRing(Field(p), names)
        return PresentedAlgebra(r, IdealHandle(r, [r.parse(t) for t in rels]))

    t0 = time.time()
    cases = []
    a1 = fp_algebra(2, ["y"], "y^3 - y")
    cases.append((a1, mk_center(a1, (["y - 1"], "y"))))
    a2 = fp_algebra(3, ["y"], "y^2")
    cases.append((a2, mk_center(a2, (["y"], "y"))))  # zero ring
    a3 = fp_algebra(5, ["y"], "y^2 - y")
    cases.append((a3, mk_center(a3, (["y"], "y"))))
    a4 = fp_algebra(2, ["u", "v"], "u^2 - u", "v^2 - v")
    cases.append((a4, mk_center(a4, (["u"], "u"), (["u*v"], "v"))))
    a5 = fp_algebra(3, ["y"], "y^3 - y")
    cases.append((a5, mk_center(a5, (["y - 1"], "y + 1"))))
    ok = True
    zero_seen = False
    for alg, center in cases:
        rep = compare_with_symbolic(center)
        ok = ok and rep.ok
        zero_seen = zero_seen or any(k == "zero_ring_agrees" for k, _, _ in rep.clauses)
    _line(8, "symbolic-oracle bridge", ok and zero_seen and len(cases) >= 5, f"{len(cases)} instances, {time.time()-t0:.1f}s")


def test_criterion_9_congruent_isomorphisms():
    def pair(kind, n, ring_, names, s, r):
        return tuple(FiltrationSpec(GroupSpec(kind, n), ring_, zip(names, levels)) for levels in (s, r))

    instances = [
        ("GL1 p3", pair("GL", 1, LevelRing(3, 3), ["e"], [1], [2])),
        ("SL2 principal", pair("SL", 2, LevelRing(2, 4), ["e"], [1], [2])),
        ("SL2 mixed", pair("SL", 2, LevelRing(2, 4), ["e", "T"], [1, 2], [2, 3])),
        ("GL2 Levi", pair("GL", 2, LevelRing(3, 3), ["e", "L(1,1)"], [1, 2], [2, 3])),
    ]
    ok = True
    details = []
    for label, (fs, fr) in instances:
        t0 = time.time()
        rep = congruent_iso_check(fs, fr)
        elapsed = time.time() - t0
        ok = ok and rep.ok and elapsed < 120
        details.append(f"{label} {elapsed:.0f}s")
        if label == "SL2 principal":
            ok = ok and len(group_points(fs)) // len(group_points(fr)) == 8
    _line(9, "congruent isomorphisms", ok, "; ".join(details))


def test_criterion_10_normalizer_suite():
    filt = FiltrationSpec(GroupSpec("GL", 2), LevelRing(2, 3), [("e", 1), ("T", 2)])
    rep_scal = normalizer_check(filt, "Z")
    rep_torus = normalizer_check(filt, "T")
    bad = FiltrationSpec(GroupSpec("SL", 2), LevelRing(2, 3), [("e", 1), ("T", 1)])
    rep_bad = normalizer_check(bad, "G")
    d = {k: ok for k, ok, _ in rep_bad.clauses}
    hypothesis_reported = d.get("commutes_1") is False and d.get("main_check_skipped") is True
    _line(10, "normalizer suite", rep_scal.ok and rep_torus.ok and hypothesis_reported)


def test_criterion_11_rost():
    t0 = time.time()
    r = ring(["x", "y"])
    alg = PresentedAlgebra(r)
    data = RostInput(alg, IdealHandle(r, [r.var("x")]), IdealHandle(r, [r.var("x"), r.var("y")]))
    res = rost_space(data)
    ring_ = res.algebra.ring
    u = ring_.var(res.fraction_vars[0][0])
    v = ring_.var(res.fraction_vars[1][0])
    has_relation = res.algebra.relations.contains(v - ring_.var("t") * u)
    rep = rost_subalgebra_check(data, bound=3)
    elapsed = time.time() - t0
    _line(11, "rost deformation space", has_relation and rep.ok and elapsed < 60, f"{elapsed:.1f}s")


DETERMINISM_INSTANCE = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
elem b in A = a
request present C
request check C b
request iso monopoly C
request iso localize C
request iso two-stage C K=1
request iso iterate C t=1
filtration FS = group GL(1), p=3, N=3, (e, 1)
filtration FR = group GL(1), p=3, N=3, (e, 2)
request congruence iso FS FR
"""


def test_criterion_12_determinism(tmp_path):
    path = tmp_path / "det.dila"
    path.write_text(DETERMINISM_INSTANCE, encoding="utf-8")
    env = package_env()
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "dilatations.cli", str(path), "--machine-only"],
            capture_output=True,
            text=True,
            cwd="/",
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    proc_jobs = subprocess.run(
        [sys.executable, "-m", "dilatations.cli", str(path), "--machine-only", "--jobs", "4"],
        capture_output=True,
        text=True,
        cwd="/",
        env=env,
    )
    assert proc_jobs.returncode == 0, proc_jobs.stderr
    byte_identical = outs[0] == outs[1] == proc_jobs.stdout
    _line(12, "report determinism", byte_identical, f"{len(outs[0].splitlines())} machine lines")
