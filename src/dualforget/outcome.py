"""Elimination outcomes and transformation traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import InternalError
from .syntax import Formula, contains_so_quantifier_and_fixpoint, is_propositional

#: rule names a trace step may carry
TRACE_RULES = frozenset(
    {
        "ShannonExists",
        "ShannonForall",
        "AckermannPos",
        "AckermannNeg",
        "ArtificialConjunct",
        "NNF",
        "Simplify",
        "DistributeForall",
        "ClauseRule",
    }
)


class Status(enum.Enum):
    FIRST_ORDER = "first-order"
    FIXPOINT = "fixpoint"
    FAILED = "failed"


@dataclass(frozen=True)
class TraceStep:
    """One transformation step; ``before`` and ``after`` are logically
    equivalent (oracle-checkable on small instances)."""

    rule: str
    before: Formula
    after: Formula

    def __post_init__(self):
        if self.rule not in TRACE_RULES:
            raise InternalError(f"unknown trace rule {self.rule!r}")


@dataclass(frozen=True)
class EliminationOutcome:
    """An operator's result; :func:`success` decides the status of a
    successful elimination from one walk of the result."""

    status: Status
    result: Optional[Formula] = None
    trace: tuple[TraceStep, ...] = ()
    failure_reason: Optional[str] = None
    residual: Optional[Formula] = None

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.status is Status.FAILED:
            if self.result is not None or not self.failure_reason:
                raise InternalError("failed outcome needs a reason and no result")
        elif self.result is None:
            raise InternalError("successful outcome needs a result formula")

    @property
    def ok(self) -> bool:
        return self.status is not Status.FAILED

    @property
    def fragment(self) -> Optional[str]:
        """``"prop"``, ``"fo"`` or ``"fixpoint"`` for successful outcomes."""
        if not self.ok:
            return None
        if self.status is Status.FIXPOINT:
            return "fixpoint"
        return "prop" if is_propositional(self.result) else "fo"


def success(result: Formula, trace) -> EliminationOutcome:
    """The outcome of an elimination that produced ``result``.  A
    second-order quantifier that no rule eliminates, one the input already
    held, makes it a failure with ``result`` as the residual."""
    so, fix = contains_so_quantifier_and_fixpoint(result)
    if so:
        reason = "second-order quantifier left in result (Ex2/All2 of the input are not eliminated)"
        return failure(reason, trace, residual=result)
    return EliminationOutcome(Status.FIXPOINT if fix else Status.FIRST_ORDER, result, trace)


def failure(reason: str, trace, residual: Optional[Formula] = None) -> EliminationOutcome:
    return EliminationOutcome(Status.FAILED, None, trace, reason, residual)
