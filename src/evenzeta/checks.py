"""Uniform pass/fail reporting for exact verifications."""

from __future__ import annotations

from ._records import Record

__all__ = ["CheckResult"]


class CheckResult(Record):
    """Outcome of one exact check; both sides are rendered for failure reports."""

    __slots__ = ("ok", "label", "lhs", "rhs")

    def __init__(self, ok: bool, label: str, lhs: str, rhs: str) -> None:
        self._assign(ok, label, lhs, rhs)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"ok: {self.label}"
        return f"FAIL: {self.label}\n  left  = {self.lhs}\n  right = {self.rhs}"
