"""Exceptions, the violation report type and the strict integer check
shared across the library."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """Rejected input: a precondition or schema constraint is violated."""


class ScaleError(DomainError):
    """Input exceeds the size bound of a brute-force operation."""


class InternalCheckError(RuntimeError):
    """A built-in redundancy check failed (two-formula disagreement,
    oracle mismatch, or another invariant the library maintains itself)."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation: the list of violated clauses.

    Violations are data, not failures; an empty report means the object
    satisfies every clause.
    """

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "violations": list(self.violations)}


def is_int(x, minimum: int | None = None) -> bool:
    """True for an int (at least `minimum` when given).  JSON documents are
    read strictly: floats, strings and bools (an int subclass) are not
    integers and are never coerced."""
    return type(x) is int and (minimum is None or x >= minimum)


def strict_int(x, what: str) -> int:
    """x itself when `is_int(x)`; DomainError naming `what` otherwise."""
    if not is_int(x):
        raise DomainError(f"{what} must be an integer, got {x!r}")
    return x
