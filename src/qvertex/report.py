"""Machine-readable verdicts shared by every verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one relation check.

    params identify the instance (group, weight, indices, modes, state);
    fail_detail carries the first failing coefficient as (where, expected, got),
    all rendered to strings so reports serialize deterministically.
    """

    check_id: str
    params: dict
    passed: bool
    n_cases: int = 0
    fail_detail: dict | None = None
    notes: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        out = {
            "id": self.check_id,
            "params": self.params,
            "pass": self.passed,
            "cases": self.n_cases,
        }
        if self.fail_detail is not None:
            out["fail_detail"] = self.fail_detail
        if self.notes:
            out["notes"] = self.notes
        return out


def first_mismatch(check_id: str, params: dict, pairs, notes=None) -> CheckReport:
    """Build a report from an iterable of (where, expected, got) triples.

    Consumes lazily and stops at the first mismatch, so callers can generate
    candidate coefficients without materialising the full comparison.
    """
    count = 0
    for where, expected, got in pairs:
        count += 1
        if expected != got:
            return CheckReport(
                check_id,
                params,
                passed=False,
                n_cases=count,
                fail_detail={"where": str(where), "expected": str(expected), "got": str(got)},
                notes=list(notes or []),
            )
    return CheckReport(check_id, params, passed=True, n_cases=count, notes=list(notes or []))
