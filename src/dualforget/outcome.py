"""Elimination outcomes and transformation traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import InternalError
from .syntax import Formula, classify, is_propositional

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


#: a trace step's side: a formula, or a function that builds it
Side = Union[Formula, Callable[[], Formula]]


class Status(enum.Enum):
    FIRST_ORDER = "first-order"
    FIXPOINT = "fixpoint"
    FAILED = "failed"


class TraceStep:
    """One transformation step; ``before`` and ``after`` are logically
    equivalent (oracle-checkable on small instances).

    Each side is given as a formula or as a function of no arguments that
    builds it.  A step builds such a side on its first read and keeps it, so
    a trace that nobody reads builds no formula for it, and every read of a
    side gives the same object."""

    __slots__ = ("rule", "_before", "_after")

    def __init__(self, rule: str, before: Side, after: Side):
        if rule not in TRACE_RULES:
            raise InternalError(f"unknown trace rule {rule!r}")
        self.rule = rule
        self._before = before
        self._after = after

    @property
    def before(self) -> Formula:
        if callable(self._before):
            self._before = self._before()
        return self._before

    @property
    def after(self) -> Formula:
        if callable(self._after):
            self._after = self._after()
        return self._after


@dataclass(frozen=True)
class EliminationOutcome:
    """An operator's result; :func:`success` decides the status of a
    successful elimination, and whether it is propositional, from one walk
    of the result."""

    status: Status
    result: Optional[Formula] = None
    trace: tuple[TraceStep, ...] = ()
    failure_reason: Optional[str] = None
    residual: Optional[Formula] = None
    # whether the result is propositional, when success has read it
    _propositional: Optional[bool] = field(default=None, init=False, repr=False, compare=False)

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
        prop = self._propositional
        if prop is None:
            prop = is_propositional(self.result)
        return "prop" if prop else "fo"


def success(result: Formula, trace) -> EliminationOutcome:
    """The outcome of an elimination that produced ``result``.  A
    second-order quantifier that no rule eliminates, one the input already
    held, makes it a failure with ``result`` as the residual."""
    so, fix, prop = classify(result)
    if so:
        reason = "second-order quantifier left in result (Ex2/All2 of the input are not eliminated)"
        return failure(reason, trace, residual=result)
    out = EliminationOutcome(Status.FIXPOINT if fix else Status.FIRST_ORDER, result, trace)
    object.__setattr__(out, "_propositional", prop)
    return out


def failure(reason: str, trace, residual: Optional[Formula] = None) -> EliminationOutcome:
    return EliminationOutcome(Status.FAILED, None, trace, reason, residual)
