import io
import sys
from pathlib import Path

import pytest

from conftest import package_env, ring
from dilatations import cli, groebner


def run_cli(tmp_path, text, *flags):
    path = tmp_path / "instance.dila"
    path.write_text(text, encoding="utf-8")
    captured = io.StringIO()
    old = sys.stdout
    sys.stdout = captured
    try:
        code = cli.main([str(path), *flags])
    finally:
        sys.stdout = old
    return code, captured.getvalue()


BASIC = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
request present C
"""


def test_present_output_matches_worked_example(tmp_path):
    code, out = run_cli(tmp_path, BASIC)
    assert code == 0
    assert "relations: g - a*x_1_1" in out
    assert "zero_ring: false" in out


def test_machine_only_flag(tmp_path):
    code, out = run_cli(tmp_path, BASIC, "--machine-only")
    assert code == 0
    assert "== report ==" not in out
    keys = [line.split(":")[0] for line in out.strip().splitlines()]
    assert keys == sorted(keys)


def test_check_zero_ring_exit_zero(tmp_path):
    text = """
ring A = QQ[u]
rels A = (u^2)
ideal M in A = (u)
center C on A = [M / u]
request check C
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "zero_ring: true" in out
    assert "zero_criterion: pass" in out


def test_iso_monopoly_pass(tmp_path):
    text = """
ring A = QQ[p, q, X, Y]
ideal MX in A = (X)
ideal MY in A = (Y)
center C on A = [MX / q], [MY / p]
request iso monopoly C
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "monopoly: pass" in out


def test_iso_monopoly_on_four_center_segre_quadric_within_default_budgets(tmp_path):
    # the top rung of the instance ladder: four centers on x*w = y*z
    text = """
ring S = QQ[x, y, z, w]
rels S = (x*w - y*z)
ideal SYZW in S = (y, z, w)
ideal SXZW in S = (x, z, w)
ideal SXYW in S = (x, y, w)
ideal SXY2 in S = (x^2, y^2)
center S4 on S = [SYZW / x], [SXZW / y], [SXYW / z], [SXY2 / w]
request iso monopoly S4
"""
    code, out = run_cli(tmp_path, text, "--machine-only")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("monopoly")]
    assert len(lines) == 5
    assert all(line.endswith(": pass") for line in lines)


def test_parse_error_nonprime(tmp_path):
    code, _ = run_cli(tmp_path, "ring A = Fp(6)[x]\n")
    assert code == 2


def test_parse_error_undeclared(tmp_path):
    code, _ = run_cli(tmp_path, "ring A = QQ[x]\ncenter C on A = [M / x]\n")
    assert code == 2


def test_verification_failure_exit_one(tmp_path):
    # open-immersion hypothesis failure is a reported FAIL clause
    text = """
ring A = QQ[a, g, h]
ideal M1 in A = (g)
ideal M2 in A = (h, a)
center C on A = [M1 / a], [M2 / a]
request iso open-immersion C K=1 map=2:1
"""
    code, out = run_cli(tmp_path, text)
    assert code == 1
    assert "fail" in out


def test_resource_limit_exit_three(tmp_path):
    text = """
ring A = QQ[x, y, z]
ideal M in A = (x^3 + y^3 + z^3, x*y*z - 1, x^2*y - z^2)
center C on A = [M / x]
request present C
"""
    code, _ = run_cli(tmp_path, text, "--degree-cap", "2")
    assert code == 3


def test_exponent_past_the_packed_field_exits_three(tmp_path, capsys):
    text = """
ring A = QQ[x, y]
rels A = (x^4294967296 - y)
ideal M in A = (y)
center C on A = [M / x]
request present C
"""
    code, out = run_cli(tmp_path, text)
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(
        "resource limit: exponent or degree sum 4294967296 reaches the packed field bound 2^32 in ring QQ["
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "declaration",
    ["elem E in A = x^4294967296", "ideal M in A = (y, x^4294967296)", "hom H : A -> A = (x^4294967296, y)"],
)
def test_exponent_past_the_packed_field_fails_while_parsed(tmp_path, capsys, declaration):
    # no request uses the declaration: the monomial fails as it is read
    code, out = run_cli(tmp_path, f"ring A = QQ[x, y]\n{declaration}\n")
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith(
        "resource limit: exponent or degree sum 4294967296 reaches the packed field bound 2^32 in ring QQ[x, y]"
    )
    assert "Traceback" not in err


def test_resource_limit_names_the_budget_on_stderr_only(tmp_path, capsys):
    text = """
ring A = QQ[x, y, z]
ideal M in A = (x^3 + y^3 + z^3, x*y*z - 1, x^2*y - z^2)
center C on A = [M / x]
request present C
"""
    code, out = run_cli(tmp_path, text, "--pair-cap", "5")
    assert code == 3
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("resource limit: pair budget 5 exceeded: 6 pairs formed; basis of ")
    assert "largest degree" in err and "variables, order " in err


def test_report_determinism(tmp_path):
    text = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
elem b in A = a
request present C
request check C b
request iso localize C
request iso two-stage C K=1
"""
    out1 = run_cli(tmp_path, text, "--machine-only")
    out2 = run_cli(tmp_path, text, "--machine-only")
    assert out1 == out2
    # --jobs is accepted and ignored: requests still run in order
    out3 = run_cli(tmp_path, text, "--machine-only", "--jobs", "4")
    assert out1[1] == out3[1]


def test_hom_and_universal(tmp_path):
    text = """
ring A = QQ[a, g]
ring B = QQ[a]
ideal M in A = (g)
center C on A = [M / a]
hom chi : A -> B = (a, a^2)
request universal C chi
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "universal: pass" in out


def test_universal_refusal_reported_exit_zero(tmp_path):
    text = """
ring A = QQ[a, g]
ring B = QQ[a]
ideal M in A = (g)
center C on A = [M / a]
hom chi : A -> B = (a, 1)
request universal C chi
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "universal: refused" in out


def test_oracle_request(tmp_path):
    text = """
ring A = Fp(2)[y]
rels A = (y^3 - y)
ideal M in A = (y - 1)
center C on A = [M / y]
request oracle C
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "oracle: pass" in out


def test_congruence_requests(tmp_path):
    text = """
filtration FS = group GL(1), p=3, N=3, (e, 1)
filtration FR = group GL(1), p=3, N=3, (e, 2)
request congruence iso FS FR
request congruence points FS
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "congruence_iso: pass" in out
    assert "congruence_points.group_order: 9" in out


def test_rost_request(tmp_path):
    text = """
ring A = QQ[x, y]
ideal I in A = (x)
ideal J in A = (x, y)
request rost A I J bound=2
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "rost: pass" in out


@pytest.mark.parametrize(("request_line", "bound"), [("rost A I J bound=-1", -1)], ids=["request-bound"])
def test_rost_negative_bound_exits_two(tmp_path, capsys, request_line, bound):
    text = f"""
ring A = QQ[x, y]
ideal I in A = (x*y)
ideal J in A = (x, y)
request {request_line}
"""
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert out == ""
    assert f"bidegree bound {bound} is outside [0, 4]" in capsys.readouterr().err


def test_repeated_request_labels_disambiguated(tmp_path):
    text = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
request present C
request present C
"""
    code, out = run_cli(tmp_path, text, "--machine-only")
    assert code == 0
    assert "relations#2:" in out


def test_iso_forget_and_conic_and_base_change(tmp_path):
    text = """
ring A = QQ[a, g]
ring B = QQ[a, g, w]
ideal M in A = (g)
ideal N in A = (a*g)
center C on A = [M / a], [N / a]
center D on A = [M / a]
hom ext : A -> B = (a, g)
request iso forget C K=1
request iso conic D
request iso base-change D ext
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "forget: pass" in out
    assert "conic: pass" in out
    assert "base_change: pass" in out


def test_universal_scan_request(tmp_path):
    text = """
ring A = Fp(2)[y]
rels A = (y^2 - y)
ideal M in A = (y)
center C on A = [M / y]
request universal C scan
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "universal_scan: pass" in out


def test_open_immersion_request_valid(tmp_path):
    text = """
ring A = QQ[a, g]
ideal M1 in A = (g)
ideal M2 in A = (g, a)
center C on A = [M1 / a], [M2 / g]
request iso open-immersion C K=1 map=2:1
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "open_immersion: pass" in out


@pytest.mark.parametrize("options", ["K=3 map=1:3,2:3", "K=0 map=1:0,2:0"])
def test_open_immersion_positions_out_of_range_exit_two(tmp_path, capsys, options):
    # K=3 names no center of two, and K=0 would read the last one
    text = f"""
ring A = QQ[x, y]
ideal I in A = (x)
ideal J in A = (y)
center C on A = [I / y], [J / x]
request iso open-immersion C {options}
"""
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "indices out of range" in err
    assert "Traceback" not in err


def test_demo_instance_runs_clean():
    import pathlib
    import subprocess

    demo = pathlib.Path(__file__).resolve().parent.parent / "instances" / "demo.dila"
    proc = subprocess.run(
        [sys.executable, "-m", "dilatations.cli", str(demo), "--machine-only"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "monopoly: pass" in proc.stdout
    assert "rost: pass" in proc.stdout


def test_check_rejects_undeclared_element(tmp_path):
    text = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
request check C nosuch
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2


def test_universal_scan_two_centers(tmp_path):
    # enumerate_homs once read an element's image before computing it
    text = """
ring U = Fp(2)[u, v]
rels U = (u^2 - u, v^2 - v)
ideal UU in U = (u)
ideal UV in U = (u*v)
center CU on U = [UU / u], [UV / v]
request universal CU scan
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "universal_scan: pass" in out


def test_universal_scan_on_a_256_element_ring(tmp_path):
    # 256 elements, within the default oracle size cap
    text = """
ring U = Fp(2)[u, v]
rels U = (u^4, v^2)
ideal M in U = (u)
center C on U = [M / u]
request universal C scan
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert "universal_scan: pass" in out


def test_oracle_size_cap_reaches_the_universal_scan(tmp_path):
    # 3^8 = 6,561 elements; with M = (1) and a = 1 the dilatation is the
    # whole ring, which once met the default cap inside the scan although
    # the flag had raised it
    text = """
ring U = Fp(3)[u, v]
rels U = (u^4, v^2)
ideal M in U = (1)
center C on U = [M / 1]
request universal C scan
"""
    code, out = run_cli(tmp_path, text, "--oracle-size-cap", "8192")
    assert code == 0
    assert "universal_scan: pass" in out


def test_base_change_rejects_undeclared_hom(tmp_path, capsys):
    text = """
ring A = QQ[a, g]
ideal M in A = (g)
center C on A = [M / a]
request iso base-change C nosuch
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    assert "undeclared hom 'nosuch'" in capsys.readouterr().err


def test_congruence_iso_rejects_undeclared_filtration(tmp_path, capsys):
    text = """
filtration FS = group GL(1), p=3, N=3, (e, 1)
request congruence iso FS nosuch
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    assert "undeclared filtration 'nosuch'" in capsys.readouterr().err


@pytest.mark.parametrize("fields", ["p", "p=2, N"])
def test_filtration_field_without_a_value_is_a_parse_error(tmp_path, capsys, fields):
    # a bare `p` or `N` once raised IndexError out of the parser
    text = f"""
filtration G1 = group GL(2), {fields}
request congruence points G1
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    assert "needs a value after '='" in capsys.readouterr().err


@pytest.mark.parametrize("other", ["GL(2), p=2, N=3, (e, 2)", "SL(3), p=2, N=3, (e, 2)"])
def test_congruence_iso_rejects_filtrations_of_different_groups(tmp_path, capsys, other):
    # once only the names and p^N were compared: GL(2) against SL(2)
    # reported a pass, computed on the GL(2) side alone
    text = f"""
filtration FS = group SL(2), p=2, N=3, (e, 1)
filtration FR = group {other}
request congruence iso FS FR
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    assert "must share group" in capsys.readouterr().err


@pytest.mark.parametrize("entry, k", [("(L(2,1), 1)", "Z"), ("(e, 1)", "L(3)")])
def test_normalizer_rejects_a_levi_shape_that_does_not_fit(tmp_path, capsys, entry, k):
    # the subgroup enumeration behind the normalizer check once indexed
    # past the matrix here and raised IndexError
    text = f"""
filtration NT = group SL(2), p=2, N=3, {entry}, (T, 2)
request congruence normalizer NT K={k}
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 2
    assert "does not fit n = 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, message",
    [
        ("(e, 3)", "filtration level exceeds N"),
        ("(e, 1), (Q, 1)", "unknown catalog subgroup 'Q'"),
        ("(e, 1), (L(1,2), 1)", "Levi shape L(1,2) does not fit n = 2"),
    ],
)
def test_malformed_filtration_exits_two_unrequested(tmp_path, capsys, entries, message):
    # a filtration was once checked only when a request enumerated it, so
    # these exited 0
    text = f"""
filtration G = group GL(1), p=3, N=3, (e, 1)
filtration F = group GL(2), p=2, N=2, {entries}
request congruence points G
"""
    code, out = run_cli(tmp_path, text)
    assert code == 2 and out == ""
    assert f"line 3: {message}" in capsys.readouterr().err


def test_normalizer_tests_commutation_over_the_level_ring(tmp_path, capsys):
    # Z/2^13 has 8192 elements, past the oracle's SIZE_CAP: the plain
    # test ring was once the oracle's Z/n, and this exited 3
    text = """
filtration F = group GL(1), p=2, N=13, (e, 1), (T, 13)
request congruence normalizer F K=Z
"""
    code, out = run_cli(tmp_path, text)
    assert code == 0, capsys.readouterr().err
    assert "normalizer: pass" in out


def test_normalizer_holds_the_subgroup_enumeration_to_the_budget(tmp_path, capsys):
    # the torus of SL(2) over Z/2^20 has (2^19)^2 candidate diagonals; the
    # subgroup enumeration once ran through all of them without a budget
    text = """
filtration NT = group SL(2), p=2, N=20, (e, 20)
request congruence normalizer NT K=T
"""
    code, _ = run_cli(tmp_path, text)
    assert code == 3
    assert f"{2**38} candidate matrices exceed the budget" in capsys.readouterr().err


MALFORMED_BASE = """
ring A = QQ[a, g]
ideal M in A = (g)
ideal N in A = (a*g)
center C on A = [M / a], [N / a]
center D on A = [M / a]
filtration FS = group GL(1), p=3, N=3, (e, 1)
"""


@pytest.mark.parametrize(
    "request_line",
    [
        "present",
        "universal D",
        "iso base-change D",
        "congruence iso FS",
        "rost",
        "rost A",
        "iso two-stage C K=x",
        "iso open-immersion C K=1 map=2",
    ],
)
def test_malformed_request_exits_two_without_traceback(tmp_path, request_line):
    import subprocess

    path = tmp_path / "instance.dila"
    path.write_text(MALFORMED_BASE + f"request {request_line}\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "dilatations.cli", str(path)],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parse error"), proc.stderr
    assert f"request {request_line}:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "request_line",
    [
        "iso iterate D t=x",
        "rost A M N bound=y",
        "iso two-stage K=1",
        "congruence points",
        # an unknown option once ran at the default bound, a repeated one
        # kept its last value
        "rost A M N bund=-1",
        "iso two-stage C K=1 K=2",
        # a bound outside [0, 4] was refused only when the request ran
        "rost X I J bound=9",
        "rost X I J bound=-1",
    ],
)
def test_malformed_request_fails_at_parse(tmp_path, request_line):
    path = tmp_path / "instance.dila"
    path.write_text(MALFORMED_BASE + f"request {request_line}\n", encoding="utf-8")
    with pytest.raises(cli.ParseError, match=f"line 8: request {request_line}: "):
        cli.parse(str(path))


def test_malformed_last_request_exits_two_before_any_request_runs(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_request", lambda inst, args, flags: ran.append(args))
    text = DEMO.read_text(encoding="utf-8") + "request rost X\n"
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert out == "" and ran == []
    assert "request rost X: missing ideal I" in capsys.readouterr().err


# ------------------------------------------------------------ run budgets

DEMO = Path(__file__).parent.parent / "instances" / "demo.dila"


def test_pair_cap_flag_does_not_outlive_the_run(tmp_path):
    code, _ = run_cli(tmp_path, BASIC, "--pair-cap", "1")
    assert code == 3
    r = ring(["x", "y", "z"])
    gens = [r.parse(t) for t in ("x^2 - y", "x*y - z", "y^2 - x*z")]
    assert groebner.buchberger_reduced(gens)


def _demo_requests():
    lines = DEMO.read_text(encoding="utf-8").splitlines()
    decls = [line for line in lines if not line.startswith("request ")]
    requests = [line for line in lines if line.startswith("request ")]
    return decls, requests


# every request of the demo except the congruence ones, which do no Groebner work
GROEBNER_REQUESTS = [r for r in _demo_requests()[1] if not r.startswith("request congruence")]


@pytest.mark.parametrize("line", GROEBNER_REQUESTS)
def test_flag_budgets_reach_every_buchberger_call(tmp_path, monkeypatch, line):
    original = groebner.buchberger_reduced
    seen = []

    def recording(gens, limits=None, known=0, drop=0):
        seen.append((limits, drop, gens[0].ring.order.block if gens else 0))
        return original(gens, limits, known, drop)

    for name, module in list(sys.modules.items()):
        if name.startswith("dilatations") and getattr(module, "buchberger_reduced", None) is original:
            monkeypatch.setattr(module, "buchberger_reduced", recording)
    decls, _ = _demo_requests()
    text = "\n".join(decls + [line]) + "\n"
    code, _ = run_cli(tmp_path, text, "--degree-cap", "23", "--pair-cap", "99999")
    assert code == 0
    assert seen
    assert all(lim is not None and (lim.degree_cap, lim.pair_cap) == (23, 99999) for lim, _, _ in seen)
    # an elimination drops exactly the block of its ring
    assert all(drop in (0, block) for _, drop, block in seen)
