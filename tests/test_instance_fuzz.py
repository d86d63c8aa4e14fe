"""Instance-grammar fuzzing: lines of the shipped instance files are
mutated and each result is run through `cli.main` in-process with small
budgets.  Every run must end with an exit code (0 pass, 1 a failed
verification, 2 a parse error, 3 a resource limit) and never with an
exception escaping `main`.
"""

import contextlib
import io
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
    ]
}
# characters the grammar gives a meaning to, and some it does not
ALPHABET = "()[],=/^*+-:.0123456789 abgxyzuvMNCDIJQFp_#@"
SMALL_BUDGETS = ["--degree-cap", "8", "--pair-cap", "400", "--oracle-size-cap", "64", "--bidegree-bound", "1"]


@st.composite
def mutated_instance(draw):
    """An instance file with one to three of its lines mutated: deleted,
    duplicated, swapped with another, truncated, one character replaced
    or inserted, or replaced by a line of another instance."""
    lines = list(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    every_line = [line for src in SOURCES.values() for line in src]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "replace", "insert", "foreign"]))
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
        else:
            ch = draw(st.sampled_from(ALPHABET))
            lines[i] = line[:k] + ch + line[k + (op == "replace") :]
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


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
