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


def judgement(check_id: str, params: dict, ok: bool, n_cases: int, where, expected, got,
              notes=None) -> CheckReport:
    """The report of a check judged once; on failure its detail is (where, expected, got)."""
    detail = None if ok else {"where": str(where), "expected": str(expected), "got": str(got)}
    return CheckReport(check_id, params, passed=ok, n_cases=n_cases, fail_detail=detail, notes=list(notes or []))


def first_mismatch(check_id: str, params: dict, pairs, notes=None) -> CheckReport:
    """Build a report from an iterable of (where, expected, got) triples.

    Consumes lazily and stops at the first mismatch, so callers can generate
    candidate coefficients without materialising the full comparison.
    """
    count = 0
    for where, expected, got in pairs:
        count += 1
        if expected != got:
            return judgement(check_id, params, False, count, where, expected, got, notes)
    return judgement(check_id, params, True, count, None, None, None, notes)


def first_nonzero(check_id: str, params: dict, cases, notes=None) -> CheckReport:
    """Build a report from an iterable of (residual, sides) pairs.

    A case passes when its residual (LHS - RHS, a scalar.KeyedSum) is zero.
    sides() gives (where, expected, got) and is called for the first case
    that fails only, so a passing case renders and builds nothing more.
    """
    count = 0
    for residual, sides in cases:
        count += 1
        if not residual.is_zero:
            return judgement(check_id, params, False, count, *sides(), notes)
    return judgement(check_id, params, True, count, None, None, None, notes)
