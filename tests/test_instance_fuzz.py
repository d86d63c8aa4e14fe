"""Instance-grammar fuzzing: lines of the shipped instance files, and of
`tests/fuzz_finite.dila` (filtrations, congruence and oracle requests),
are mutated and each result is run through `cli.main` in-process with
small budgets.  Every run must end with an exit code (0 pass, 1 a failed
verification, 2 a parse error, 3 a resource limit) and never with an
exception escaping `main`.
"""

import contextlib
import io
import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from dilatations import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {
    path.name: path.read_text().splitlines()
    for path in [
        ROOT / "instances" / "demo.dila",
        ROOT / "instances" / "oracle-scan.dila",
        ROOT / "tests" / "golden" / "name_clash.dila",
        ROOT / "tests" / "golden" / "verifiers_clash.dila",
        ROOT / "tests" / "fuzz_finite.dila",
    ]
}
# characters the grammar gives a meaning to, and some it does not
ALPHABET = "()[],=/^*+-:.0123456789 abgxyzuvMNCDIJQFp_#@"
# values for request options and filtration fields: in range, out of
# range, empty, of the wrong kind and of another option's syntax
OPTION_VALUES = ["", "0", "1", "2", "3", "-1", "x", "1,2", "0,,1", "1:2", "2:1,1:1", "Z", "T"]
# a filtration's group, p= and N= fields, and its (subgroup, level)
# entries.  The groups leave out n = 3 and 4: inside the candidate budget
# SL(3) on demo.dila's N=4 filtration (2^21 candidates) takes 1.4 s to
# enumerate its group points and 1.3 s its Lie points (Python 3.11 on a
# 2-vCPU VM), and a congruence request enumerates each twice, too slow
# for one fuzz example; SL(4) on an N=2 filtration (2^16) takes 0.4 s.
FILTRATION_FIELDS = [
    (r"(?:GL|SL)\(\d+\)", ["GL(0)", "GL(1)", "SL(1)", "SL(2)", "GL(2)", "GL(5)", "GL(x)", "XL(2)", "GL"]),
    (r"(?<=\b[pN]=)\d+", OPTION_VALUES),
    (r"(?<=\()[\w(),]+?(?=, \d+\))", ["e", "T", "B", "Z", "G", "L(1,1)", "L(2,1)", "L(3)", "Q", ""]),
    (r"(?<=, )\d+(?=\))", ["0", "1", "2", "3", "9", "x", ""]),
]
SMALL_BUDGETS = ["--degree-cap", "8", "--pair-cap", "400", "--oracle-size-cap", "64"]


@st.composite
def mutated_instance(draw):
    """An instance file with one to three of its lines mutated: deleted,
    duplicated, swapped with another, truncated, one character replaced
    or inserted, replaced by a line of another instance, or, for a
    request or filtration line, with one option value or filtration field
    rewritten (`option`)."""
    lines = list(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    every_line = [line for src in SOURCES.values() for line in src]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "replace", "insert", "foreign", "option"]))
        k = draw(st.integers(0, len(line)))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = line[:k]
        elif op == "foreign":
            lines[i] = draw(st.sampled_from(every_line))
        elif op == "option":
            i = draw(st.sampled_from([j for j, x in enumerate(lines) if x.startswith(("request", "filtration"))] or [i]))
            lines[i] = draw(rewritten_fields(lines[i]))
        else:
            ch = draw(st.sampled_from(ALPHABET))
            lines[i] = line[:k] + ch + line[k + (op == "replace") :]
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


def rewritten_fields(line):
    """A strategy for `line` with one field rewritten: a request option's
    value (`K=`, `t=`, `map=`, `bound=`, or one of these added), or a
    filtration's group, `p=`, `N=`, subgroup or level; other lines are
    kept."""
    spans = []
    if line.startswith("request"):
        spans = [(m.start(1), m.end(1), OPTION_VALUES) for m in re.finditer(r"\b\w+=(\S*)", line)]
        spans.append((len(line), len(line), [f" {key}={v}" for key in ("K", "t", "map", "bound") for v in OPTION_VALUES]))
    elif line.startswith("filtration"):
        spans = [(m.start(), m.end(), values) for pattern, values in FILTRATION_FIELDS for m in re.finditer(pattern, line)]
    if not spans:
        return st.just(line)
    return st.sampled_from(spans).flatmap(
        lambda span: st.sampled_from(span[2]).map(lambda v: line[: span[0]] + v + line[span[1] :])
    )


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_instance())
def test_mutated_instances_exit_with_a_code(tmp_path, text):
    path = tmp_path / "fuzz.dila"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(path), *SMALL_BUDGETS, "--machine-only"])
    assert code in (0, 1, 2, 3), (code, text)
    if code == 2:
        assert err.getvalue().startswith("parse error: "), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("resource limit: "), err.getvalue()
