"""The propositional elimination rules: how one propositional variable,
a 0-ary symbol, leaves a formula under a second-order quantifier.

The driver is ``fo``'s: ``forget_strong``, ``forget_weak``, ``snc`` and
``wsc`` here are the same function objects as there.  It uses these rules
for every propositional variable, also inside a first-order theory, and in
strong forgetting hands them only the conjuncts that mention the variable.

The Ackermann rewrite runs ``fo``'s extractor at arity 0: NNF conjuncts are
split into definitions ``p -> A`` or ``A -> p`` with ``A`` free of ``p`` and a
residual of uniform opposite polarity.  It typically keeps results small;
two-point expansion is the complete fallback.  Weak forgetting eliminates
the universal quantifiers of a conjunct together, by the clause rule as a
fast path, then per variable by the Ackermann rewrite on the negated
existential form, then expansion."""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalError
from .fo import _select_extraction, normalize
from .fo import forget_strong, forget_weak, snc, wsc  # noqa: F401 (the operators)
from .outcome import EliminationOutcome, TraceStep, success
from .syntax import (
    BOT,
    TOP,
    Bottom,
    Exists2,
    Forall2,
    Formula,
    Implies,
    Not,
    Or,
    PropVar,
    Top,
    conj,
    conjuncts,
    disj,
    forall2,
    prop_symbols,
)
from .transform import nnf, simplify, substitute_prop


def shannon_eliminate(kind: str, p: str, f: Formula) -> Formula:
    """Eliminate one propositional quantifier by two-point expansion:
    ``A(p=F) | A(p=T)`` for ``"exists"``, ``A(p=F) & A(p=T)`` for
    ``"forall"``; simplified, hence free of ``p``."""
    lo = substitute_prop(f, p, BOT)
    hi = substitute_prop(f, p, TOP)
    if kind == "exists":
        return simplify(disj([lo, hi]))
    if kind == "forall":
        return simplify(conj([lo, hi]))
    raise InternalError(f"unknown quantifier kind {kind!r}")


# ---------------------------------------------------------------------------
# Ackermann rewriting


def ackermann_eliminate(p: str, f: Formula) -> Optional[EliminationOutcome]:
    """Eliminate ``Ex2 p`` from ``f`` by the Ackermann rewrite, or ``None``
    when the occurrences cannot be separated (caller falls back to
    expansion).  ``fo``'s extractor splits the conjuncts, ``p`` being a
    0-ary symbol; a definition never mentions ``p``.

    When no definitional conjunct exists but the residual polarity is
    uniform, a tautological definition is injected (``p -> T`` or ``F -> p``)
    so the rewrite still applies."""
    g = nnf(f)
    steps: list[TraceStep] = []
    if g != f:
        steps.append(TraceStep("NNF", f, g))
    # a 0-ary definition has no parameters, so no fresh names to avoid
    ext = _select_extraction(p, conjuncts(g), set(), 0, allow_fixpoint=False)
    if ext is None:
        return None
    if ext.artificial:
        taut = Implies(PropVar(p), TOP) if ext.positive_case else Implies(BOT, PropVar(p))
        steps.append(TraceStep("ArtificialConjunct", Exists2(p, g), Exists2(p, conj([taut, g]))))
    raw = substitute_prop(conj(ext.residual), p, ext.a)
    steps.append(TraceStep("AckermannPos" if ext.positive_case else "AckermannNeg", Exists2(p, g), raw))
    out = simplify(raw)
    if out != raw:
        steps.append(TraceStep("Simplify", raw, out))
    return success(out, steps)


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


# ---------------------------------------------------------------------------
# Normalization into conjuncts


def normalize_conjuncts(f: Formula) -> list[Formula]:
    """NNF plus bounded or-over-and distribution, flattened into conjuncts;
    weak forgetting starts from these for both fragments."""
    return list(conjuncts(normalize(f)))


# ---------------------------------------------------------------------------
# Per-variable elimination steps of the driver


def _eliminate_exists(p: str, f: Formula, steps: list[TraceStep]) -> Formula:
    """Eliminate ``Ex2 p`` from ``f``, the conjuncts that mention ``p``: by
    the Ackermann rewrite, else by two-point expansion."""
    out = ackermann_eliminate(p, f)
    if out is not None:
        steps.extend(out.trace)
        return out.result
    raw = disj([substitute_prop(f, p, BOT), substitute_prop(f, p, TOP)])
    steps.append(TraceStep("ShannonExists", Exists2(p, f), raw))
    res = simplify(raw)
    if res is not raw:
        steps.append(TraceStep("Simplify", raw, res))
    return res


def _eliminate_forall_conjunct(c: Formula, forget: Sequence[str], steps: list[TraceStep]) -> Formula:
    """Eliminate ``All2`` of the variables of ``forget`` that occur in the
    conjunct ``c``: all of them at once by the clause rule, else one at a
    time by the Ackermann rewrite on ``~c``, else by expansion."""
    vars_here = [p for p in forget if p in prop_symbols(c)]
    if not vars_here:
        return c
    fast = clause_forall_eliminate(vars_here, c)
    if fast is not None:
        steps.append(TraceStep("ClauseRule", forall2(vars_here, c), fast))
        return fast
    cur = c
    for p in vars_here:
        if p not in prop_symbols(cur):
            continue
        inner = ackermann_eliminate(p, nnf(Not(cur)))
        if inner is not None:
            out = simplify(nnf(Not(inner.result)))
            rule = next(
                (s.rule for s in inner.trace if s.rule.startswith("Ackermann")),
                "Simplify",
            )
            steps.append(TraceStep(rule, Forall2(p, cur), out))
        else:
            raw = conj([substitute_prop(cur, p, BOT), substitute_prop(cur, p, TOP)])
            out = simplify(raw)
            steps.append(TraceStep("ShannonForall", Forall2(p, cur), out))
        cur = out
    return cur
