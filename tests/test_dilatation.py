import random as _random
import threading

import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

import dilatations.dilatation as dilatation_module
from dilatations import cli
from dilatations.algebras import AlgebraHom, PresentedAlgebra, is_nzd, maps_equal
from dilatations.dilatation import (
    Center,
    DilatationResult,
    MultiCenter,
    base_change_compare,
    center_kernel,
    check_exceptional,
    conic_iso,
    detect_common_base,
    dilate,
    forget_map,
    iterate_iso,
    localize_compare,
    monopoly_iso,
    open_immersion_iso,
    two_stage_iso,
    universal_factor,
)
from dilatations.groebner import Limits
from dilatations.ideals import IdealHandle, saturate
from dilatations.poly import Field, InputError, QQ, ResourceLimitError

from conftest import random_poly, ring


def algebra(names, *rels):
    r = ring(list(names))
    return PresentedAlgebra(r, IdealHandle(r, [r.parse(t) for t in rels]))


def mk_center(alg, *pairs):
    centers = [
        Center(IdealHandle(alg.ring, [alg.ring.parse(g) for g in gens]), alg.ring.parse(a))
        for gens, a in pairs
    ]
    return MultiCenter(alg, centers)


@pytest.fixture(autouse=True)
def _saturation_changed_matches_eager_comparison(monkeypatch):
    """On every dilate in this module, `saturation_changed` (computed when
    read) equals the comparison of freshly built reduced bases."""
    from dilatations.groebner import buchberger_reduced

    results = []
    real = dilatation_module.dilate

    def recording(center):
        res = real(center)
        results.append(res)
        return res

    monkeypatch.setattr(dilatation_module, "dilate", recording)
    monkeypatch.setitem(globals(), "dilate", recording)
    yield
    assert all(
        res.saturation_changed
        == (buchberger_reduced(res.algebra.relations.gens) != buchberger_reduced(res.presaturation.gens))
        for res in results
    )


# ---------------------------------------------------------------- dilate


def test_dilate_regular_presentation():
    a = PresentedAlgebra(ring(["a", "g"]))
    res = dilate(mk_center(a, (["g"], "a")))
    assert [str(g) for g in res.algebra.relations.groebner()] == ["a*x_1_1 - g"]
    assert not res.saturation_changed
    assert str(res.fraction(1, [a.var("g")])[0]) == "x_1_1"


def test_dilate_localization_case():
    a = PresentedAlgebra(ring(["u"]))
    res = dilate(mk_center(a, (["1"], "u")))
    assert [str(g) for g in res.algebra.relations.groebner()] == ["u*x_1_1 - 1"]


def test_dilate_zero_ring_on_nilpotent():
    a = algebra(["u"], "u^2")
    res = dilate(mk_center(a, (["u"], "u")))
    assert res.is_zero_ring()


def test_dilate_zero_denominator_gives_zero_ring():
    a = PresentedAlgebra(ring(["x"]))
    res = dilate(mk_center(a, (["x"], "0")))
    assert res.is_zero_ring()


def test_dilate_empty_center_returns_base():
    a = algebra(["x"], "x^3")
    res = dilate(MultiCenter(a, []))
    assert res.algebra is a
    assert maps_equal(res.iota, AlgebraHom.identity(a))


def test_zero_criterion_mixed_suite():
    cases = [
        (algebra(["u"], "u^2"), (["u"], "u")),          # nilpotent
        (algebra(["u"], "u^3"), (["u^2"], "u")),        # nilpotent
        (PresentedAlgebra(ring(["u"])), (["u"], "u")),  # regular
        (algebra(["x", "y"], "x*y"), (["x"], "x")),     # zero divisor but not nilpotent
        (algebra(["x", "y"], "x^2*y"), (["y"], "x")),   # x not nilpotent mod (x^2 y)
    ]
    for alg, pair in cases:
        c = mk_center(alg, pair)
        res = dilate(c)
        nil = alg.relations.radical_contains(c.product_elem())
        assert res.is_zero_ring() == nil


def test_generation_invariant():
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    res = dilate(mk_center(a, (["g", "h"], "a"), (["g"], "a^2")))
    frac = [n for row in res.fraction_vars for n in row]
    assert res.algebra.ring.names == a.ring.names + tuple(frac)


def test_names_flatten_the_rows_of_the_given_centers():
    a = PresentedAlgebra(ring(["a", "b", "g", "h", "x_1_1"]))
    res = dilate(mk_center(a, (["g", "h"], "a"), (["g"], "b")))
    assert res.fraction_vars == [["x_1_1_2", "x_1_2"], ["x_2_1"]]
    assert res.names() == ["x_1_1_2", "x_1_2", "x_2_1"]
    assert res.names([2]) == ["x_2_1"]
    assert res.names([2, 1]) == ["x_2_1", "x_1_1_2", "x_1_2"]
    assert res.names() == list(res.algebra.ring.names[len(a.ring.names):])


def test_center_over_carries_the_algebra_limits():
    r = ring(["a", "g"])
    a = PresentedAlgebra(r, IdealHandle(r, [r.parse("g^2")], Limits(pair_cap=100)))
    c = Center.over(a, [a.var("g")], a.var("a"))
    assert c.ideal.gens == [a.var("g")]
    assert c.ideal.limits is a.relations.limits
    assert c.elem == a.var("a")


def test_saturation_needed_when_not_regular():
    # relations x*y: dilating (x)/x needs saturation (x*y*x_1_1-ish torsion)
    a = algebra(["x", "y"], "x*y")
    res = dilate(mk_center(a, (["x"], "x")))
    assert res.saturation_changed
    rep = check_exceptional(res)
    assert rep.ok


# ---------------------------------------------------------------- memo


def test_dilate_shares_one_build_per_algebra():
    a = algebra(["a", "g", "h"], "g*h")
    c1 = mk_center(a, (["g", "h"], "a"))
    c2 = mk_center(a, (["g", "h"], "a"))
    r1, r2 = dilate(c1), dilate(c2)
    assert r1.center is c1 and r2.center is c2
    assert r1.algebra is r2.algebra and r1.iota is r2.iota
    assert r1.presaturation is r2.presaturation and r1.fraction_vars is r2.fraction_vars
    assert len(a.dilatations) == 1
    assert str(r2.fraction(1, [a.var("h")])[0]) == "x_1_2"


def test_saturation_changed_built_on_demand_once_per_memo_entry(monkeypatch):
    from dilatations import ideals

    runs = []
    real = ideals.buchberger_reduced
    monkeypatch.setattr(ideals, "buchberger_reduced", lambda *a, **k: runs.append(1) or real(*a, **k))
    cases = [(algebra(["x", "y"], "x*y"), (["x"], "x"), True), (algebra(["a", "g"]), (["g"], "a"), False)]
    for a, pair, changed in cases:
        r1, r2 = dilate(mk_center(a, pair)), dilate(mk_center(a, pair))
        assert r1.presaturation is r2.presaturation
        before = len(runs)
        assert r1.saturation_changed is changed  # builds the presaturation's basis
        assert len(runs) == before + 1
        assert r2.saturation_changed is changed and r1.saturation_changed is changed
        assert len(runs) == before + 1


def test_dilate_reordered_generators_are_another_key():
    # x_1_j names the j-th stored generator over a, so order is content
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    r1 = dilate(mk_center(a, (["g", "h"], "a")))
    r2 = dilate(mk_center(a, (["h", "g"], "a")))
    assert r1.algebra is not r2.algebra
    assert len(a.dilatations) == 2
    assert str(r1.fraction(1, [a.var("g")])[0]) == "x_1_1"
    assert str(r2.fraction(1, [a.var("g")])[0]) == "x_1_2"


def test_verifiers_build_each_dilatation_once(monkeypatch):
    built = []
    construct = dilatation_module._construct
    monkeypatch.setattr(dilatation_module, "_construct", lambda c: built.append(c) or construct(c))
    a = PresentedAlgebra(ring(["a", "b", "g", "h"]))
    c = mk_center(a, (["g"], "a"), (["h"], "b"))
    part = dilate(mk_center(a, (["g"], "a")))
    assert dilate(c.sub([1])).algebra is part.algebra
    assert len(built) == 1
    forget_map(dilate(c), [1])  # the full center is new
    assert len(built) == 2
    assert two_stage_iso(c, [1])[1].ok  # stage 2, keyed on part.algebra, is new
    assert len(part.algebra.dilatations) == 1
    assert len(built) == 3
    assert monopoly_iso(c)[2].ok  # the single center is new
    assert len(built) == 4
    forget_map(dilate(c), [1])
    assert two_stage_iso(c, [1])[1].ok
    assert monopoly_iso(c)[2].ok
    assert len(built) == 4


def test_parse_twice_shares_no_dilatation(tmp_path):
    path = tmp_path / "twice.dila"
    path.write_text("ring A = QQ[a, g]\nideal M in A = (g)\ncenter C on A = [M / a]\nrequest present C\n")
    first, second = cli.parse(str(path)), cli.parse(str(path))
    r1 = dilate(cli._center(first, "C"))
    assert not cli._center(second, "C").algebra.dilatations
    r2 = dilate(cli._center(second, "C"))
    assert r1.algebra is not r2.algebra
    assert [str(g) for g in r1.algebra.relations.groebner()] == [str(g) for g in r2.algebra.relations.groebner()]


def test_concurrent_misses_share_one_result(monkeypatch):
    # every thread misses and builds before any stores; all must get the
    # result stored first
    construct = dilatation_module._construct
    all_inside = threading.Barrier(4)

    def build(c):
        all_inside.wait(timeout=60)
        return construct(c)

    monkeypatch.setattr(dilatation_module, "_construct", build)
    a = algebra(["x", "y"], "x*y")
    results = []
    center = mk_center(a, (["x"], "x"))
    threads = [threading.Thread(target=lambda: results.append(dilate(center))) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    (stored,) = a.dilatations.values()
    assert all(r.algebra is stored[0] for r in results)


# ---------------------------------------------------------------- exceptional


def test_check_exceptional_clauses():
    a = PresentedAlgebra(ring(["a", "b", "g"]))
    res = dilate(mk_center(a, (["g"], "a")))
    rep = check_exceptional(res, extra_nzd=[a.var("b")])
    assert rep.ok
    keys = [k for k, _, _ in rep.clauses]
    assert "divisor_ideal_1" in keys and "divisor_nzd_1" in keys
    assert "declared_nzd_image" in keys


_CONE_AND_SEGRE = """ring Q = QQ[x, y, z]
rels Q = (x*y - z^2)
ideal QYZ in Q = (y, z)
ideal QXZ in Q = (x, z)
center Q1 on Q = [QYZ / x]
center Q2 on Q = [QYZ / x], [QXZ / y]
ring S = QQ[x, y, z, w]
rels S = (x*w - y*z)
ideal SYZW in S = (y, z, w)
ideal SXZW in S = (x, z, w)
ideal SXYW in S = (x, y, w)
center S3 on S = [SYZW / x], [SXZW / y], [SXYW / z]
"""


def _divisor_ideals_by_two_bases(res):
    """Each divisor_ideal_i verdict with its failure detail, by comparing
    the reduced bases of (a_i)A' and L_iA'."""
    prime = res.algebra
    out = []
    for i, c in enumerate(res.center.centers, start=1):
        ai = res.push(c.elem)
        lhs = prime.ideal([ai])
        rhs = prime.ideal([res.push(g) for g in c.ideal.gens] + [ai])
        lb, rb = lhs.groebner(), rhs.groebner()
        out.append((lb == rb, f"(a_{i})A' vs L_{i}A': {[str(g) for g in lb]} vs {[str(g) for g in rb]}"))
    return out


def test_divisor_ideal_clause_matches_two_basis_equality(tmp_path):
    """divisor_ideal_i, decided by membership in the one basis of (a_i)A',
    gives the verdict of the two-basis equality on the centers of the
    demo instance, the quadric cone and the Segre quadric, and on the
    same results with each M_i enlarged by every variable, where it
    fails; a failure keeps its detail."""
    from pathlib import Path

    (tmp_path / "cone_segre.dila").write_text(_CONE_AND_SEGRE, encoding="utf-8")
    paths = [Path(__file__).resolve().parent.parent / "instances" / "demo.dila", tmp_path / "cone_segre.dila"]
    verdicts = []
    for path in paths:
        for _, center in cli.parse(str(path)).centers.values():
            res = dilate(center)
            variables = [center.algebra.ring.var(n) for n in center.algebra.ring.names]
            enlarged = MultiCenter(
                center.algebra, [Center(c.ideal.with_gens(c.ideal.gens + variables), c.elem) for c in center.centers]
            )
            for r in (res, DilatationResult(enlarged, res.algebra, res.iota, res.fraction_vars, res.presaturation)):
                clauses = {k: (ok, d) for k, ok, d in check_exceptional(r).clauses}
                for i, (ok, detail) in enumerate(_divisor_ideals_by_two_bases(r), start=1):
                    assert clauses[f"divisor_ideal_{i}"] == (ok, "" if ok else detail)
                    verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_check_exceptional_vacuous_on_empty_center():
    a = PresentedAlgebra(ring(["x"]))
    rep = check_exceptional(dilate(MultiCenter(a, [])))
    assert rep.ok and rep.clauses == []


# ---------------------------------------------------------------- forget


def test_forget_identity():
    a = PresentedAlgebra(ring(["a", "g"]))
    full = dilate(mk_center(a, (["g"], "a"), (["a*g"], "a")))
    _, rep = forget_map(full, [1, 2])
    assert rep.ok


def test_forget_surjectivity_certificate():
    a = PresentedAlgebra(ring(["a", "g"]))
    full = dilate(mk_center(a, (["g"], "a"), (["a*g"], "a")))
    phi, rep = forget_map(full, [1])
    d = dict((k, ok) for k, ok, _ in rep.clauses)
    assert d["well_defined"] and d["surjectivity_hypothesis"] and d["surjectivity_witnesses"]
    assert d["injectivity_hypothesis"] and d["kernel_trivial"]


def test_forget_records_hypothesis_failure_separately():
    # dropped center [(y), x] with y not in (x): surjectivity hypothesis fails,
    # kernel triviality is still computed directly (open-question policy)
    a = PresentedAlgebra(ring(["x", "y"]))
    full = dilate(mk_center(a, (["x"], "x"), (["y"], "x")))
    _, rep = forget_map(full, [1])
    d = dict((k, ok) for k, ok, _ in rep.clauses)
    assert d["well_defined"]
    assert not d["surjectivity_hypothesis"]
    assert "kernel_trivial" in d


# ---------------------------------------------------------------- monopoly


def test_monopoly_single_center_trivial():
    a = PresentedAlgebra(ring(["a", "g"]))
    mono, (fwd, bwd), rep = monopoly_iso(mk_center(a, (["g"], "a")))
    assert rep.ok
    assert str(mono.centers[0].elem) == "a"


def test_monopoly_rem233_mirror():
    a = PresentedAlgebra(ring(["p", "q", "X", "Y"]))
    c = mk_center(a, (["X"], "q"), (["Y"], "p"))
    mono, _, rep = monopoly_iso(c)
    assert rep.ok
    gens = {str(g) for g in mono.centers[0].ideal.gens}
    assert gens == {"p*X", "q*Y"}
    assert str(mono.centers[0].elem) == "p*q"


def test_monopoly_fat_point():
    a = PresentedAlgebra(ring(["x", "y"]))
    c = mk_center(a, (["x", "y"], "x"), (["x", "y"], "y"))
    mono, _, rep = monopoly_iso(c)
    assert rep.ok
    assert str(mono.centers[0].elem) == "x*y"


def test_monopoly_three_centers():
    a = PresentedAlgebra(ring(["a", "b", "c", "g"]))
    c = mk_center(a, (["g"], "a"), (["g"], "b"), (["a*b"], "c"))
    _, _, rep = monopoly_iso(c)
    assert rep.ok


# ---------------------------------------------------------------- two-stage


def test_two_stage_full_k_trivial():
    a = PresentedAlgebra(ring(["a", "g"]))
    _, rep = two_stage_iso(mk_center(a, (["g"], "a")), [1])
    assert rep.ok


def test_two_stage_spec_instances():
    a = PresentedAlgebra(ring(["a", "b", "g", "h"]))
    _, rep = two_stage_iso(mk_center(a, (["g"], "a"), (["h"], "b")), [1])
    assert rep.ok
    a2 = PresentedAlgebra(ring(["a", "g", "h"]))
    _, rep2 = two_stage_iso(mk_center(a2, (["g"], "a"), (["h"], "a")), [1])
    assert rep2.ok


def test_two_stage_keep_second():
    a = PresentedAlgebra(ring(["a", "b", "g", "h"]))
    _, rep = two_stage_iso(mk_center(a, (["g"], "a"), (["h"], "b")), [2])
    assert rep.ok


# ---------------------------------------------------------------- localize


def test_localize_unit_center():
    a = PresentedAlgebra(ring(["u"]))
    rep = localize_compare(mk_center(a, (["1"], "u")))
    assert rep.ok
    assert any(k.startswith("unit_centers") for k, _, _ in rep.clauses)


def test_localize_general():
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = localize_compare(mk_center(a, (["g"], "a")))
    assert rep.ok


def test_localize_empty_center():
    a = PresentedAlgebra(ring(["x"]))
    rep = localize_compare(MultiCenter(a, []))
    assert rep.ok


def test_localize_two_centers():
    a = PresentedAlgebra(ring(["a", "b", "g"]))
    rep = localize_compare(mk_center(a, (["g"], "a"), (["g"], "b")))
    assert rep.ok


def test_localize_all_unit_multi():
    a = PresentedAlgebra(ring(["u", "v"]))
    rep = localize_compare(mk_center(a, (["1"], "u"), (["1"], "v")))
    assert rep.ok


def test_localize_unit_center_builds_base_localization_once(monkeypatch):
    # both comparisons use the one A[1/a]; only A' is localized besides it
    calls = []
    original = PresentedAlgebra.localize

    def counting(self, f):
        calls.append(self.ring.names)
        return original(self, f)

    monkeypatch.setattr(PresentedAlgebra, "localize", counting)
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = localize_compare(mk_center(a, (["1"], "a")))
    assert rep.ok
    assert any(k.startswith("unit_centers") for k, _, _ in rep.clauses)
    assert calls == [("a", "g"), ("a", "g", "x_1_1")]


def test_cofactor_is_product_of_other_denominators():
    a = PresentedAlgebra(ring(["a", "b", "c", "g"]))
    center = mk_center(a, (["g"], "a"), (["g"], "b"), (["g"], "c"))
    r = a.ring
    assert center.cofactor(1) == r.parse("b*c")
    assert center.cofactor(2) == r.parse("a*c")
    assert center.cofactor(3) == r.parse("a*b")
    assert mk_center(a, (["g"], "a")).cofactor(1) == r.one()


# ------------------------------------------------------------ open immersion


def test_open_immersion_identity():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    rep = open_immersion_iso(c, [1], {})
    assert rep.ok


def test_open_immersion_valid_instances():
    a = PresentedAlgebra(ring(["a", "g"]))
    # dropped [(g, a), g] with k = 1: a in L_2 = (g, a), L_2 = (g, a) = L_1
    c = mk_center(a, (["g"], "a"), (["g", "a"], "g"))
    rep = open_immersion_iso(c, [1], {2: 1})
    assert rep.ok

    b = PresentedAlgebra(ring(["u"]))
    c2 = mk_center(b, (["1"], "u"), (["1"], "u^2"))
    rep2 = open_immersion_iso(c2, [1], {2: 1})
    assert rep2.ok

    d = PresentedAlgebra(ring(["a", "b"]))
    c3 = mk_center(d, (["a*b"], "a"), (["a*b", "a"], "a*b"))
    rep3 = open_immersion_iso(c3, [1], {2: 1})
    assert rep3.ok


def test_open_immersion_violated_membership_hypothesis():
    # [(g, a^2)/a] kept and [(g*a, a^2)/a^2] dropped does not satisfy
    # a_k(i) ∈ L_i: a ∉ (g*a, a^2) in QQ[a, g].  The verifier reports that
    # before any construction.
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g", "a^2"], "a"), (["g*a", "a^2"], "a^2"))
    rep = open_immersion_iso(c, [1], {2: 1})
    assert not rep.ok
    assert any(k == "hyp_a_in_L_2" and not ok for k, ok, _ in rep.clauses)


def test_open_immersion_containment_failure_reported():
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    # L_2 = (h, a) not inside L_1 = (g, a)
    c = mk_center(a, (["g"], "a"), (["h", "a"], "a"))
    rep = open_immersion_iso(c, [1], {2: 1})
    assert not rep.ok
    assert any(k == "hyp_L_contained_2" and not ok for k, ok, _ in rep.clauses)


# ------------------------------------------------------------- center kernel


def test_center_kernel_single():
    a = PresentedAlgebra(ring(["a", "g"]))
    res = dilate(mk_center(a, (["g"], "a")))
    kernel, rep = center_kernel(res)
    assert rep.ok
    assert {str(g) for g in kernel.gens} == {"x_1_1", "g"}


def test_center_kernel_unit_m0():
    a = PresentedAlgebra(ring(["a", "g"]))
    res = dilate(mk_center(a, (["1"], "a")))
    kernel, rep = center_kernel(res)
    assert rep.ok
    assert res.algebra.ideal(kernel.gens).is_unit()


def test_center_kernel_multi():
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    res = dilate(mk_center(a, (["g", "h"], "a"), (["g"], "a^2")))
    _, rep = center_kernel(res)
    assert rep.ok


def test_center_kernel_rejects_mixed_divisors():
    a = PresentedAlgebra(ring(["a", "b", "g"]))
    res = dilate(mk_center(a, (["g"], "a"), (["g"], "b")))
    _, rep = center_kernel(res)
    assert not rep.ok


# ---------------------------------------------------------------- iterate


def test_iterate_t_zero_identity():
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = iterate_iso(a, a.var("a"), [[a.var("g")]], [1], 0)
    assert rep.ok


def test_iterate_cor236_instance():
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = iterate_iso(a, a.var("a"), [[a.var("g")]], [1], 1)
    assert rep.ok


def test_iterate_multi_instance():
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    rep = iterate_iso(a, a.var("a"), [[a.var("g"), a.var("h")], [a.var("g")]], [1, 1], 1)
    assert rep.ok


def test_iterate_exponent_two():
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = iterate_iso(a, a.var("a"), [[a.var("g")]], [2], 1)
    assert rep.ok


def test_iterate_rejects_bad_t():
    a = PresentedAlgebra(ring(["a", "g"]))
    rep = iterate_iso(a, a.var("a"), [[a.var("g")]], [1], 2)
    assert not rep.ok


# ---------------------------------------------------------------- base change


def test_base_change_identity():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    rep = base_change_compare(c, AlgebraHom.identity(a))
    assert rep.ok


def test_base_change_variable_extension_flat():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    b = PresentedAlgebra(ring(["a", "g", "w"]))
    h = AlgebraHom(a, b, [b.var("a"), b.var("g")])
    rep = base_change_compare(c, h)
    assert rep.ok
    assert any(k == "flat_no_torsion" and ok for k, ok, _ in rep.clauses)


def test_base_change_quotient():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    b = algebra(["a", "g"], "g")
    h = AlgebraHom(a, b, [b.var("a"), b.var("g")])
    rep = base_change_compare(c, h)
    assert rep.ok


def test_base_change_to_nilpotent_target():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    b = algebra(["a", "g"], "a^2")
    h = AlgebraHom(a, b, [b.var("a"), b.var("g")])
    rep = base_change_compare(c, h)
    assert rep.ok  # both sides become the zero ring


def test_base_change_on_a_nilpotent_denominator():
    # a^2 = 0 in A: the source and the direct dilatation are zero rings,
    # and the tensor ideal is saturated, not assumed to be (1)
    a = algebra(["a", "g"], "a^2")
    c = mk_center(a, (["g"], "a"))
    assert dilate(c).is_zero_ring()
    b = algebra(["a", "g", "w"], "a^2")
    h = AlgebraHom(a, b, [b.var("a"), b.var("g")])
    for hom in (AlgebraHom.identity(a), h):
        rep = base_change_compare(c, hom)
        assert rep.ok
        assert [k for k, _, _ in rep.clauses] == ["hom_defined", "tensor_matches_direct", "flat_no_torsion"]


def test_base_change_two_centers():
    a = PresentedAlgebra(ring(["a", "b", "g"]))
    c = mk_center(a, (["g"], "a"), (["g"], "b"))
    big = PresentedAlgebra(ring(["a", "b", "g", "w"]))
    h = AlgebraHom(a, big, [big.var("a"), big.var("b"), big.var("g")])
    rep = base_change_compare(c, h)
    assert rep.ok


# ---------------------------------------------------------------- conic


def test_conic_examples():
    a = PresentedAlgebra(ring(["a"]))
    rep = conic_iso(mk_center(a, (["a"], "a")))
    assert rep.ok

    b = PresentedAlgebra(ring(["a", "g"]))
    rep2 = conic_iso(mk_center(b, (["g", "a"], "a")))
    assert rep2.ok

    rep3 = conic_iso(MultiCenter(b, []))
    assert rep3.ok


def test_conic_two_centers():
    a = PresentedAlgebra(ring(["a", "b"]))
    rep = conic_iso(mk_center(a, (["a"], "a"), (["b"], "b")))
    assert rep.ok


def test_conic_requires_nzd():
    a = algebra(["u"], "u^2")
    rep = conic_iso(mk_center(a, (["u"], "u")))
    assert not rep.ok
    assert any(k.startswith("nzd_precondition") and not ok for k, ok, _ in rep.clauses)


# ---------------------------------------------------------------- universal


def test_universal_factor_identity():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    res = dilate(c)
    out = universal_factor(c, res.iota)
    assert not out.refused and out.report.ok
    assert maps_equal(out.hom, AlgebraHom.identity(res.algebra))


def test_universal_factor_cofactor_extraction():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    b = PresentedAlgebra(ring(["a"]))
    chi = AlgebraHom(a, b, [b.var("a"), b.ring.parse("a^2")])
    out = universal_factor(c, chi)
    assert not out.refused and out.report.ok
    assert str(out.hom.images[-1]) == "a"


def test_universal_factor_refusals():
    a = PresentedAlgebra(ring(["a", "g"]))
    c = mk_center(a, (["g"], "a"))
    b = PresentedAlgebra(ring(["a"]))
    bad = AlgebraHom(a, b, [b.var("a"), b.one()])
    out = universal_factor(c, bad)
    assert out.refused and "contained" in out.reason

    nil = algebra(["a"], "a^2")
    bad2 = AlgebraHom(a, nil, [nil.var("a"), nil.zero()])
    out2 = universal_factor(c, bad2)
    assert out2.refused and "zero divisor" in out2.reason


def test_universal_factor_refuses_at_the_first_non_member():
    # chi(g) = a^2 lies in (a), chi(h) = a + 1 does not: the refusal
    # names generator 2 and stops there
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    c = mk_center(a, (["g", "h"], "a"), (["g"], "a"))
    b = PresentedAlgebra(ring(["a"]))
    chi = AlgebraHom(a, b, [b.var("a"), b.ring.parse("a^2"), b.ring.parse("a + 1")])
    out = universal_factor(c, chi)
    assert out.refused and out.hom is None
    assert out.reason == "chi(M_1)B is not contained in chi(a_1)B"
    assert out.report.clauses == [
        ("nzd_1", True, ""),
        ("containment_1", False, "chi(M_1)B ⊄ chi(a_1)B at generator 2"),
    ]


def _count_cofactor_runs(monkeypatch):
    runs = []
    run = dilatation_module.ideal_cofactors

    def counted(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(dilatation_module, "ideal_cofactors", counted)
    return runs


def test_one_cofactor_run_per_generator_list(monkeypatch):
    # universal_factor: one run over [chi(a)] + rels and one over
    # rels + [chi(a)] per center; forget_map: one over [a_i] + rels per
    # dropped center, whatever the number of generators
    runs = _count_cofactor_runs(monkeypatch)
    a = PresentedAlgebra(ring(["a", "g", "h", "k"]))
    b = PresentedAlgebra(ring(["a"]))
    chi = AlgebraHom(a, b, [b.ring.parse(t) for t in ["a", "a^2", "a^3", "2*a"]])
    out = universal_factor(mk_center(a, (["g", "h", "k"], "a")), chi)
    assert len(runs) == 2
    assert not out.refused and out.reason == ""
    assert out.report.clauses == [
        ("nzd_1", True, ""),
        ("containment_1", True, ""),
        ("factor_defined", True, ""),
        ("factors_chi", True, ""),
        ("uniqueness", True, ""),
    ]
    assert [str(f) for f in out.hom.images] == ["a", "a^2", "a^3", "2*a", "a", "a^2", "2"]

    runs.clear()
    full = dilate(mk_center(a, (["g"], "a"), (["a*g", "a*h", "a*k"], "a")))
    _, rep = forget_map(full, [1])
    assert len(runs) == 1
    assert rep.clauses == [
        ("well_defined", True, ""),
        ("surjectivity_hypothesis", True, "M_i ⊄ (a_i) for some dropped i"),
        ("surjectivity_witnesses", True, ""),
        ("injectivity_hypothesis", True, "a_i is a zero divisor for some dropped i"),
        ("kernel_trivial", True, ""),
    ]


def test_detect_common_base():
    a = PresentedAlgebra(ring(["a", "b"]))
    c = mk_center(a, (["a"], "a"), (["a"], "a^3"))
    base, exps = detect_common_base(c)
    assert str(base) == "a" and exps == [1, 3]
    mixed = mk_center(a, (["a"], "a"), (["a"], "b"))
    assert detect_common_base(mixed) is None
    # powers and equal denominators are compared modulo the relations
    b = algebra(["x", "y", "g"], "y - x^2")
    base, exps = detect_common_base(mk_center(b, (["g"], "x"), (["g"], "y")))
    assert str(base) == "x" and exps == [1, 2]
    d = algebra(["x", "y"], "x - y")
    assert detect_common_base(mk_center(d, (["x"], "x"), (["y"], "y")))[1] == [1, 1]


def test_fraction_relations_hold_in_presentation():
    a = PresentedAlgebra(ring(["a", "g", "h"]))
    c = mk_center(a, (["g", "h"], "a"), (["g"], "a^2"))
    res = dilate(c)
    ext = res.algebra.ring
    for i, cen in enumerate(c.centers):
        ai = cen.elem.map_ring(ext)
        for j, g in enumerate(cen.ideal.gens):
            rel = ai * ext.var(res.fraction_vars[i][j]) - g.map_ring(ext)
            assert res.algebra.relations.contains(rel)


def test_fraction_requires_membership():
    a = PresentedAlgebra(ring(["a", "g"]))
    res = dilate(mk_center(a, (["g"], "a")))
    # over L_1 = (g, a): a / a = 1, and 1 is not in L_1
    assert [str(f) for f in res.fraction(1, [a.var("a"), a.var("g")])] == ["1", "x_1_1"]
    with pytest.raises(InputError):
        res.fraction(1, [a.var("g"), a.ring.one()])


def test_same_denominator_centers_dilate_as_their_sum():
    # explicit mutually inverse maps between A[{x}/y, {y}/y] and A[{x, y}/y]
    from dilatations.report import Report
    from dilatations.dilatation import _certify_pair

    a = PresentedAlgebra(ring(["x", "y"]))
    r1 = dilate(mk_center(a, (["x"], "y"), (["y"], "y")))
    r2 = dilate(mk_center(a, (["x", "y"], "y")))
    # w_1_1 = x/y, w_1_2 = y/y on the merged side
    ring1, ring2 = r1.algebra.ring, r2.algebra.ring
    fwd = AlgebraHom(
        r1.algebra,
        r2.algebra,
        [ring2.var("x"), ring2.var("y"), ring2.var(r2.fraction_vars[0][0]), ring2.var(r2.fraction_vars[0][1])],
    )
    bwd = AlgebraHom(
        r2.algebra,
        r1.algebra,
        [ring1.var("x"), ring1.var("y"), ring1.var(r1.fraction_vars[0][0]), ring1.var(r1.fraction_vars[1][0])],
    )
    rep = Report("merge_iso")
    _certify_pair(rep, fwd, bwd)
    assert rep.ok


def _random_center(rng, algebra, denominators):
    """A center over `algebra`: 0 to 2 random generators and a denominator
    drawn from `denominators`, so that centers repeat one."""
    return Center.over(algebra, _random_polys(rng, algebra.ring, 2), rng.choice(denominators))


def _random_polys(rng, r, most):
    """0 to `most` nonzero random polynomials of degree at most 2 over r."""
    polys = (random_poly(rng, r, max_deg=2, max_terms=2) for _ in range(rng.randint(0, most)))
    return [p for p in polys if not p.is_zero()]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(0, 10**9),
    st.sampled_from([QQ, Field(5)]),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_dilate_matches_saturation_of_presaturation(seed, field, k, nilpotent, over_dilatation):
    # the two-run fraction kernel against P + (a_i*x_ij - g_ij) saturated
    # by every denominator in one run, from the presaturation's generators
    # with no known run
    rng = _random.Random(seed)
    r = ring(["a", "b", "c"], field)
    rels = _random_polys(rng, r, 3)
    if nilpotent:
        rels.append(r.parse("c^2"))
    alg = PresentedAlgebra(r, IdealHandle(r, rels))
    if over_dilatation:
        # relations that are a known reduced basis, moved by `extend`
        first = dilate(MultiCenter(alg, [_random_center(rng, alg, [alg.var("a"), alg.var("b") + alg.one()])]))
        alg = first.algebra
        assert alg.relations._known == len(alg.relations.gens)
    pool = [alg.var("a"), alg.var("b"), alg.var("a") + alg.var("b")]
    if nilpotent:
        pool.append(alg.var("c"))
    centers = [_random_center(rng, alg, pool) for _ in range(k)]
    if nilpotent:
        centers[-1] = Center.over(alg, centers[-1].ideal.gens, alg.var("c"))
    res = dilate(MultiCenter(alg, centers))
    ext = res.algebra.ring
    presat = IdealHandle(ext, res.presaturation.gens)
    sat = saturate(presat, [c.elem.map_ring(ext) for c in centers])
    assert res.algebra.relations.groebner() == sat.groebner()
    if nilpotent:
        assert res.is_zero_ring()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10**9), st.sampled_from([QQ, Field(5)]), st.integers(1, 3), st.booleans())
def test_nzd_clauses_match_is_nzd_on_the_presaturation(seed, field, k, nilpotent):
    # divisor_nzd_i and declared_nzd_image, decided by saturation
    # maximality, against is_nzd (the colon route) on the dilatation and
    # on a result whose algebra is the unsaturated presaturation, where
    # a_i may be a zero-divisor.  is_nzd runs on the same generators with
    # no known run and a pair budget: on a few presaturations over QQ its
    # intersection's coefficients swell for minutes, and those examples
    # are rejected.
    rng = _random.Random(seed)
    r = ring(["a", "b", "c"], field)
    rels = _random_polys(rng, r, 3)
    if nilpotent:
        rels.append(r.parse("c^2"))
    alg = PresentedAlgebra(r, IdealHandle(r, rels))
    pool = [alg.var("a"), alg.var("b"), alg.var("a") + alg.var("b"), alg.var("c")]
    centers = [_random_center(rng, alg, pool) for _ in range(k)]
    res = dilate(MultiCenter(alg, centers))
    unsaturated = PresentedAlgebra(res.algebra.ring, res.presaturation)
    for result in (res, DilatationResult(res.center, unsaturated, res.iota, res.fraction_vars, res.presaturation)):
        if result.is_zero_ring():
            continue
        extra = rng.sample(pool, rng.randint(0, 2)) + _random_polys(rng, r, 1)
        prime = result.algebra
        ref = PresentedAlgebra(prime.ring, IdealHandle(prime.ring, prime.relations.gens, Limits(pair_cap=300)))
        try:
            expected = [(f"divisor_nzd_{i}", is_nzd(ref, result.push(c.elem))) for i, c in enumerate(centers, start=1)]
            for c in extra:
                if is_nzd(alg, c):
                    expected.append(("declared_nzd_image", is_nzd(ref, result.push(c))))
                else:
                    expected.append(("declared_nzd_precondition", False))
        except ResourceLimitError:
            reject()
        got = [(key, ok) for key, ok, _ in check_exceptional(result, extra).clauses if "nzd" in key]
        assert got == expected


def test_nzd_clauses_of_the_dilatation_make_no_intersection(monkeypatch, tmp_path):
    """`check S3` on the Segre quadric decides its divisor clauses without
    an intersection run; `check C c` on the demo makes exactly one, for
    the precondition that c is a non-zero-divisor of the base."""
    import types
    from pathlib import Path

    from dilatations import ideals
    from dilatations.oracle import SIZE_CAP

    runs = []
    real = ideals.intersect

    def counting(a, b):
        runs.append(a.ring.names)
        return real(a, b)

    monkeypatch.setattr(ideals, "intersect", counting)
    (tmp_path / "cone_segre.dila").write_text(_CONE_AND_SEGRE, encoding="utf-8")
    demo = Path(__file__).resolve().parent.parent / "instances" / "demo.dila"
    flags = types.SimpleNamespace(oracle_size_cap=SIZE_CAP, bidegree_bound=4, jobs=1, machine_only=True)
    for path, args, count in [(tmp_path / "cone_segre.dila", ["check", "S3"], 0), (demo, ["check", "C", "c"], 1)]:
        runs.clear()
        out = cli.run_request(cli.parse(str(path)), args, flags)
        assert out.ok and out.machine["check.divisor_nzd_1"] == "pass"
        assert len(runs) == count, runs
    assert runs == [("a", "b", "g")]


def test_combine_registry_mismatch():
    r1, r2 = ring(["x"]), ring(["y"])
    a = IdealHandle(r1, [r1.var("x")])
    with pytest.raises(InputError):
        a.with_gens(a.gens + [r2.var("y")])


def test_dilate_fuzz_exceptional(rng):
    # fuzz beyond the fixed acceptance seed: tiny random centers over QQ[x,y]
    from dilatations.poly import PolyRing, QQ
    from conftest import random_poly

    r = PolyRing(QQ, ["x", "y"])
    a = PresentedAlgebra(r)
    for _ in range(10):
        gens = []
        while len(gens) < rng.randint(1, 2):
            p = random_poly(rng, r, max_deg=2, max_terms=2, coeff_bound=2)
            if not p.is_zero():
                gens.append(p)
        elem = r.zero()
        while elem.is_zero():
            elem = random_poly(rng, r, max_deg=1, max_terms=1, coeff_bound=2)
        res = dilate(MultiCenter(a, [Center(IdealHandle(r, gens), elem)]))
        assert check_exceptional(res).ok


def test_verifiers_run_concurrently():
    # independent verifications on shared immutable inputs from many threads
    import threading

    a = PresentedAlgebra(ring(["p", "q", "X", "Y"]))
    c = mk_center(a, (["X"], "q"), (["Y"], "p"))
    results = [None] * 6

    def work(i):
        if i % 2:
            results[i] = monopoly_iso(c)[2].ok
        else:
            results[i] = localize_compare(c).ok

    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results)


def test_localize_compare_zero_ring_center():
    a = algebra(["u"], "u^2")
    rep = localize_compare(mk_center(a, (["u"], "u")))
    assert rep.ok  # both localizations are the zero ring


def test_monopoly_fuzz_random_centers(rng):
    from conftest import random_poly
    from dilatations.poly import PolyRing, QQ

    r = PolyRing(QQ, ["x", "y"])
    a = PresentedAlgebra(r)
    done = 0
    while done < 8:
        centers = []
        for _ in range(2):
            gens = []
            while len(gens) < rng.randint(1, 2):
                p = random_poly(rng, r, max_deg=1, max_terms=2, coeff_bound=2)
                if not p.is_zero():
                    gens.append(p)
            elem = r.zero()
            while elem.is_zero():
                elem = random_poly(rng, r, max_deg=1, max_terms=1, coeff_bound=2)
            centers.append(Center(IdealHandle(r, gens), elem))
        c = MultiCenter(a, centers)
        _, _, rep = monopoly_iso(c)
        assert rep.ok, [str(x) for x in centers]
        _, rep2 = two_stage_iso(c, [1])
        assert rep2.ok
        done += 1


def test_iterate_with_base_relations():
    a = algebra(["a", "g", "h"], "g*h")
    rep = iterate_iso(a, a.var("a"), [[a.var("g")]], [1], 1)
    assert rep.ok


def test_two_stage_three_centers_split():
    a = PresentedAlgebra(ring(["a", "b", "c", "g"]))
    c = mk_center(a, (["g"], "a"), (["g"], "b"), (["g"], "c"))
    _, rep = two_stage_iso(c, [1, 3])
    assert rep.ok
