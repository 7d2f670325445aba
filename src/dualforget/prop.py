"""The propositional entry points: a propositional variable is a 0-ary
symbol, and every elimination rule is ``fo``'s, written once for both
kinds.

``forget_strong``, ``forget_weak``, ``snc`` and ``wsc`` here are the same
function objects as in ``fo``.  ``ackermann_eliminate`` and
``shannon_eliminate`` run ``fo``'s Ackermann rewrite and two-point expansion
on one variable.  ``clause_forall_eliminate`` and ``normalize_conjuncts``
are helpers that the driver does not call."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalError
from .fo import _eliminate_exists_rel, _expand, normalize
from .fo import forget_strong, forget_weak, snc, wsc  # noqa: F401 (the operators)
from .outcome import EliminationOutcome, TraceStep, success
from .syntax import BOT, TOP, Bottom, Formula, Not, Or, PropVar, Top, conjuncts, disj

# Not called here: ``perfbench/tracing.py`` wraps these in this module's
# namespace by name, so the names must stay importable from it.
from .transform import nnf, simplify, substitute_prop  # noqa: F401


def shannon_eliminate(kind: str, p: str, f: Formula) -> Formula:
    """Eliminate one propositional quantifier by two-point expansion:
    ``A(p=F) | A(p=T)`` for ``"exists"``, ``A(p=F) & A(p=T)`` for
    ``"forall"``; simplified, hence free of ``p``."""
    if kind not in ("exists", "forall"):
        raise InternalError(f"unknown quantifier kind {kind!r}")
    return _expand(p, f, [], universal=kind == "forall")


def ackermann_eliminate(p: str, f: Formula) -> Optional[EliminationOutcome]:
    """Eliminate ``Ex2 p`` from ``f`` by the Ackermann rewrite, or ``None``
    when the occurrences cannot be separated (caller falls back to
    expansion).  The conjuncts of ``f`` in NNF are split into definitions
    ``p -> A`` or ``A -> p`` with ``A`` free of ``p`` and a residual of
    uniform opposite polarity.

    When no definitional conjunct exists but the residual polarity is
    uniform, a tautological definition is injected (``p -> T`` or ``F -> p``)
    so the rewrite still applies."""
    steps: list[TraceStep] = []
    out, _ = _eliminate_exists_rel(p, f, steps, 0)
    return None if out is None else success(out, steps)


# ---------------------------------------------------------------------------
# Clause rule (universal quantification over a disjunction of literals)


def _literal(p: str, positive: bool) -> Formula:
    return PropVar(p) if positive else Not(PropVar(p))


def _as_literal(d: Formula) -> Optional[tuple[str, bool]]:
    """Literal view after stripping double negations; ``(name, positive)``."""
    neg = False
    while isinstance(d, Not):
        d = d.body
        neg = not neg
    if isinstance(d, PropVar):
        return d.name, not neg
    return None


def clause_forall_eliminate(vars: Sequence[str], clause: Formula) -> Optional[Formula]:
    """Eliminate ``All2 vars`` from a disjunction of propositional literals.

    Remove double negations; a complementary pair makes the clause valid
    (``T``); otherwise literals over ``vars`` are deleted, the empty
    disjunction being ``F``.  Returns ``None`` when the input is not a
    clause."""
    if isinstance(clause, Top):
        return TOP
    if isinstance(clause, Bottom):
        return BOT
    lits: list[tuple[str, bool]] = []
    for d in (clause.items if isinstance(clause, Or) else (clause,)):
        lit = _as_literal(d)
        if lit is None:
            return None
        lits.append(lit)
    seen = set(lits)
    if any((name, not pos) in seen for name, pos in lits):
        return TOP
    kept = [_literal(name, pos) for name, pos in lits if name not in vars]
    return disj(kept)


def normalize_conjuncts(f: Formula) -> list[Formula]:
    """NNF plus bounded or-over-and distribution, flattened into conjuncts,
    as weak forgetting starts from them."""
    return list(conjuncts(normalize(f)))
