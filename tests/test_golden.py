"""Machine sections recorded from the program and compared byte for byte.

`golden/demo.machine` is the `--machine-only` output for
`instances/demo.dila`.  `golden/name_clash.dila` declares a ring that
already holds every stem used for a fresh variable, and a base-change
target that shares its names; its output is `golden/name_clash.machine`.
`golden/verifiers_clash.dila` runs, over a ring that holds the fresh
stems as well, the verifiers the other two leave out: `iso iterate`,
a passing `iso open-immersion` and `universal`.
`golden/catalog.dila` runs `congruence normalizer` with every catalog
subgroup as K and `congruence points` on one filtration per catalog
shape; its output is `golden/catalog.machine`.
`golden/congruence_iso.dila` runs passing `congruence iso` requests on
GL(3), SL(2), the Levi L(1,1) of GL(2) and the Borel of SL(2); its
output is `golden/congruence_iso.machine`.
`golden/congruence_gl_levels.dila` runs `congruence iso` and
`congruence points` on GL(3) over Z/3^12 with `B` and `Z` and on GL(4)
over Z/2^20 with `L(2,2)`, levels far above the enumeration budget that
are certified on lattice generators; its output is
`golden/congruence_gl_levels.machine`, and `test_congruence.py` pins its
orders by an independent cell-by-cell count.
`golden/oracle_wide.machine` is the output of `instances/oracle-wide.dila`,
the finite-ring oracle on a 729-element and a 4,096-element ring.
`golden/segre5.machine` is the output of `instances/segre5.dila`, the
slowest instance (about 5 s); the CI workflow compares it, this module
does not.
How fresh names are chosen, how budgets reach the kernel, how requests
are scheduled and how closure is certified must not change any of these
files.
"""

from pathlib import Path

import pytest

from dilatations import cli

HERE = Path(__file__).parent
ROOT = HERE.parent

CASES = [
    (ROOT / "instances" / "demo.dila", HERE / "golden" / "demo.machine"),
    (HERE / "golden" / "name_clash.dila", HERE / "golden" / "name_clash.machine"),
    (HERE / "golden" / "verifiers_clash.dila", HERE / "golden" / "verifiers_clash.machine"),
    (HERE / "golden" / "catalog.dila", HERE / "golden" / "catalog.machine"),
    (HERE / "golden" / "congruence_iso.dila", HERE / "golden" / "congruence_iso.machine"),
    (HERE / "golden" / "congruence_gl_levels.dila", HERE / "golden" / "congruence_gl_levels.machine"),
    (ROOT / "instances" / "oracle-wide.dila", HERE / "golden" / "oracle_wide.machine"),
]


@pytest.mark.parametrize(
    "instance, expected",
    CASES,
    ids=["demo", "name_clash", "verifiers_clash", "catalog", "congruence_iso", "congruence_gl_levels", "oracle_wide"],
)
def test_machine_section_matches_golden(instance, expected, capsys):
    code = cli.main([str(instance), "--machine-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected.read_text(encoding="utf-8")
