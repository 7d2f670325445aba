"""The propositional entry points: a propositional variable is a 0-ary
symbol, and every elimination rule is ``fo``'s, written once for both
kinds.

``forget_strong``, ``forget_weak``, ``snc`` and ``wsc`` here are the same
function objects as in ``fo``.  ``ackermann_eliminate`` (``fo``'s Ackermann
rewrite on one variable), ``clause_forall_eliminate`` and
``normalize_conjuncts`` are helpers that the driver does not call."""

from __future__ import annotations

from typing import Optional, Sequence

from .fo import _eliminate_exists_rel, normalize
from .fo import forget_strong, forget_weak, snc, wsc  # noqa: F401 (the operators)
from .outcome import EliminationOutcome, TraceStep, success
from .syntax import BOT, TOP, Bottom, Formula, Not, PropVar, Top, conjuncts, disj, disjuncts, literal

# Not called here: ``perfbench/tracing.py`` wraps these in this module's
# namespace by name, so the names must stay importable from it.
from .transform import nnf, simplify, substitute_prop  # noqa: F401


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
    for d in disjuncts(clause):
        lit = literal(d)
        if lit is None or lit[2]:
            return None
        lits.append(lit[:2])
    seen = set(lits)
    if any((name, not pos) in seen for name, pos in lits):
        return TOP
    kept = [_literal(name, pos) for name, pos in lits if name not in vars]
    return disj(kept)


def normalize_conjuncts(f: Formula) -> list[Formula]:
    """NNF plus or-over-and distribution, flattened into conjuncts, as weak
    forgetting starts from them.  A disjunction whose product would pass
    ``fo._DIST_LIMIT`` clauses stays undistributed, and no clause holds a
    literal and its complement."""
    return list(conjuncts(normalize(f)))
