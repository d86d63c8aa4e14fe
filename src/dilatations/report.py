"""Pass/fail reports for the structural verifiers.

A Report is an ordered list of named clauses; verifiers append clauses in
a fixed order, so reports are deterministic.  A failed clause carries a
witness string naming what broke.
"""

from __future__ import annotations


class VerificationFinding(RuntimeError):
    """An identity the theory guarantees failed to verify.

    Raised only for mismatches that are findings about the formalization
    (oracle/symbolic disagreement, zero-criterion mismatch), never for
    plain precondition violations.
    """


class Report:
    __slots__ = ("name", "clauses")

    def __init__(self, name: str):
        self.name = name
        self.clauses: list[tuple[str, bool, str]] = []

    def add(self, key: str, ok: bool, detail: str = "") -> bool:
        self.clauses.append((key, bool(ok), detail))
        return ok

    def merge(self, other: "Report", prefix: str = "") -> None:
        for key, ok, detail in other.clauses:
            self.clauses.append((prefix + key, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)

    def failures(self) -> list[tuple[str, str]]:
        return [(k, d) for k, ok, d in self.clauses if not ok]

    def __repr__(self):
        return f"Report({self.name}, ok={self.ok})"
