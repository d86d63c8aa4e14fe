import pytest

from dilatations.algebras import PresentedAlgebra
from dilatations.dilatation import forget_map
from dilatations.ideals import IdealHandle
from dilatations.poly import InputError
from dilatations.rost import RostInput, rost_space, rost_subalgebra_check

from conftest import ring


def mk(names, igens, jgens, *rels):
    r = ring(list(names))
    alg = PresentedAlgebra(r, IdealHandle(r, [r.parse(t) for t in rels]))
    return RostInput(
        alg,
        IdealHandle(r, [r.parse(t) for t in igens]),
        IdealHandle(r, [r.parse(t) for t in jgens]),
    )


def test_containment_checked():
    r = ring(["x", "y"])
    alg = PresentedAlgebra(r)
    with pytest.raises(InputError):
        RostInput(alg, IdealHandle(r, [r.var("x")]), IdealHandle(r, [r.var("y")]))


def test_rost_space_unit_ideals_is_localization():
    data = mk(["x"], ["1"], ["1"])
    res = rost_space(data)
    rels = [str(g) for g in res.algebra.relations.groebner()]
    # inverts s*t and s: x_1_1 = 1/(st), x_2_1 = 1/s
    assert "s*x_2_1 - 1" in rels


def test_rost_space_main_example_relation():
    data = mk(["x", "y"], ["x"], ["x", "y"])
    res = rost_space(data)
    r = res.algebra.ring
    u = r.var(res.fraction_vars[0][0])
    v = r.var(res.fraction_vars[1][0])
    assert res.algebra.relations.contains(v - r.var("t") * u)


def test_rost_space_zero_ideals():
    data = mk(["q"], ["0"], ["0"])
    res = rost_space(data)
    # saturation forces both fraction variables to zero
    r = res.algebra.ring
    for row in res.fraction_vars:
        for name in row:
            assert res.algebra.relations.contains(r.var(name))


def test_rost_subalgebra_bidegree_cells():
    data = mk(["x", "y"], ["x"], ["x", "y"])
    rep = rost_subalgebra_check(data, bound=3)
    assert rep.ok
    assert len(rep.clauses) == 49


def test_rost_subalgebra_trivial_cell():
    data = mk(["x"], ["x"], ["x"])
    rep = rost_subalgebra_check(data, bound=1)
    assert rep.ok
    assert any(k == "cell_0_0" for k, _, _ in rep.clauses)


def test_rost_subalgebra_bound_capped():
    data = mk(["x"], ["x"], ["x"])
    with pytest.raises(InputError):
        rost_subalgebra_check(data, bound=5)


def test_rost_subalgebra_negative_bound_rejected():
    # a negative bound would check no cell and still pass
    data = mk(["x", "y"], ["x*y"], ["x", "y"])
    with pytest.raises(InputError, match=r"bidegree bound -1 is outside \[0, 4\]"):
        rost_subalgebra_check(data, bound=-1)


def test_rost_degenerate_j_equals_i_forget_merge():
    # J = I: the double center over (st, s) obeys the forget law
    data = mk(["x"], ["x"], ["x"])
    res = rost_space(data)
    # dropping the second center keeps a well-defined canonical map
    _, rep = forget_map(res, [1])
    assert any(k == "well_defined" and ok for k, ok, _ in rep.clauses)


def test_rost_nontrivial_base_relations():
    data = mk(["x", "y"], ["x*y"], ["x*y", "x"], "x^2*y - x*y")
    res = rost_space(data)
    assert not res.is_zero_ring()
    rep = rost_subalgebra_check(data, bound=2)
    assert rep.ok
