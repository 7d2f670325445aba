"""Propositional second-order quantifier elimination and the four operators:
strong forgetting, weak forgetting, strongest necessary and weakest
sufficient conditions.

Elimination strategy per variable: the Ackermann rewrite (definitional
conjuncts collected by grouping clauses that contain the variable with one
polarity, residual uniform in the other) is tried first since it typically
keeps results small; two-point expansion is the complete fallback.  Strong
forgetting miniscopes, ``Ex2 p.(A & B) = A & Ex2 p.B`` when ``p`` does not
occur in ``A``: both rules run on the conjuncts that mention ``p`` only, so
conjuncts that mention no forgotten symbol are kept, and printed, as
written.  Weak forgetting distributes the universal quantifier over
conjuncts and uses the clause rule as a fast path."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import InternalError
from .outcome import EliminationOutcome, TraceStep, success
from .syntax import (
    BOT,
    TOP,
    And,
    Bottom,
    Exists2,
    Forall2,
    Formula,
    Implies,
    Not,
    Or,
    PropVar,
    Theory,
    Top,
    conj,
    conjuncts,
    disj,
    forall2,
    polarity,
    Polarity,
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


def _literal(p: str, positive: bool) -> Formula:
    return PropVar(p) if positive else Not(PropVar(p))


def _group(p: str, items: Sequence[Formula], positive_case: bool) -> Optional[tuple[list[Formula], list[Formula]]]:
    """Split NNF conjuncts into definitional parts and a residual.

    ``positive_case`` targets the shape ``(p -> A) & B`` with ``B`` positive
    in ``p``: clauses whose only ``p`` occurrences are direct ``~p``
    disjuncts (or the bare literal ``~p``) are definitional; the rest must be
    positive in ``p`` or free of it.  The negative case is symmetric."""
    lit = _literal(p, not positive_case)
    resid_ok = Polarity.POSITIVE if positive_case else Polarity.NEGATIVE
    defs: list[Formula] = []
    resid: list[Formula] = []
    for c in items:
        pol = polarity(c, p)
        if pol is Polarity.ABSENT:
            resid.append(c)
        elif c == lit:
            defs.append(BOT if positive_case else TOP)
        elif isinstance(c, Or) and lit in c.items:
            others = [d for d in c.items if d != lit]
            if any(polarity(o, p) is not Polarity.ABSENT for o in others):
                return None
            rest = disj(others)
            defs.append(rest if positive_case else nnf(Not(rest)))
        elif pol is resid_ok:
            resid.append(c)
        else:
            return None
    return defs, resid


def ackermann_eliminate(p: str, f: Formula) -> Optional[EliminationOutcome]:
    """Eliminate ``Ex2 p`` from ``f`` by the Ackermann rewrite, or ``None``
    when the occurrences cannot be grouped (caller falls back to expansion).

    When no definitional conjunct exists but the residual polarity is
    uniform, a tautological definition is injected (``p -> T`` or ``F -> p``)
    so the rewrite still applies."""
    g = nnf(f)
    steps: list[TraceStep] = []
    if g != f:
        steps.append(TraceStep("NNF", f, g))
    items = conjuncts(g)
    for positive_case in (True, False):
        grouped = _group(p, items, positive_case)
        if grouped is None:
            continue
        defs, resid = grouped
        rule = "AckermannPos" if positive_case else "AckermannNeg"
        residual = conj(resid)
        if defs:
            a = conj(defs) if positive_case else disj(defs)
        else:
            a = TOP if positive_case else BOT
            steps.append(
                TraceStep(
                    "ArtificialConjunct",
                    Exists2(p, g),
                    Exists2(p, conj([_inject(p, positive_case), g])),
                )
            )
        raw = substitute_prop(residual, p, a)
        steps.append(TraceStep(rule, Exists2(p, g), raw))
        out = simplify(raw)
        if out != raw:
            steps.append(TraceStep("Simplify", raw, out))
        return success(out, steps)
    return None


def _inject(p: str, positive_case: bool) -> Formula:
    return Implies(PropVar(p), TOP) if positive_case else Implies(BOT, PropVar(p))


# ---------------------------------------------------------------------------
# Clause rule (universal quantification over a disjunction of literals)


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
# Normalization into conjuncts (shared by the drivers)


_DIST_LIMIT = 64


def _distribute(f: Formula) -> Formula:
    """Push disjunctions over conjunctions (bounded) so clause structure is
    exposed; input in NNF."""
    if isinstance(f, And):
        return conj([_distribute(it) for it in f.items])
    if isinstance(f, Or):
        items = [_distribute(it) for it in f.items]
        branches = [conjuncts(it) for it in items]
        total = 1
        for b in branches:
            total *= len(b)
            if total > _DIST_LIMIT:
                return disj(items)
        return conj([disj(list(combo)) for combo in itertools.product(*branches)])
    return f


def normalize_conjuncts(f: Formula) -> list[Formula]:
    """NNF plus bounded or-over-and distribution, flattened into conjuncts."""
    return list(conjuncts(_distribute(nnf(f))))


# ---------------------------------------------------------------------------
# Operators


def _eliminate_exists(p: str, f: Formula, steps: list[TraceStep]) -> Formula:
    """Eliminate ``Ex2 p`` from ``f`` by miniscoping: ``Ex2 p.(A & B)`` is
    ``A & Ex2 p.B`` when ``p`` does not occur in ``A``.  Only ``B``, the
    conjuncts that mention ``p``, is rewritten; its result takes the place of
    the first of them, and the conjuncts of ``A`` are kept as they are."""
    items = conjuncts(f)
    mentions = [p in prop_symbols(c) for c in items]
    if not any(mentions):
        return f  # forgetting an absent symbol is the identity
    body = conj([c for c, m in zip(items, mentions) if m])
    out = ackermann_eliminate(p, body)
    if out is not None:
        steps.extend(out.trace)
        res = out.result
    else:
        raw = disj([substitute_prop(body, p, BOT), substitute_prop(body, p, TOP)])
        steps.append(TraceStep("ShannonExists", Exists2(p, body), raw))
        res = simplify(raw)
        if res is not raw:
            steps.append(TraceStep("Simplify", raw, res))
    first = mentions.index(True)
    rest = [c for c, m in zip(items, mentions) if not m]
    return conj(rest[:first] + [res] + rest[first:])


def forget_strong(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Strong (standard) forgetting: eliminate ``Ex2 p`` for each variable in
    order; the result is over the remaining vocabulary and equivalent to the
    existentially quantified theory.  Each elimination touches only the
    conjuncts that mention its variable; one simplification of the whole
    result follows."""
    steps: list[TraceStep] = []
    f = simplify(th.as_formula)
    for p in forget:
        f = _eliminate_exists(p, f, steps)
    out = simplify(f)
    if out is not f:
        steps.append(TraceStep("Simplify", f, out))
    return success(out, steps)


def forget_weak(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Weak forgetting: eliminate ``All2 p`` for each variable, distributing
    the quantifier over conjuncts and eliminating in each conjunct
    separately (clause rule, then the Ackermann rewrite on the negated
    existential form, then expansion)."""
    steps: list[TraceStep] = []
    forget = [p for p in forget if p in prop_symbols(th.as_formula)]
    if not forget:
        return success(simplify(th.as_formula), steps)
    items: list[Formula] = []
    for formula in th.formulas:
        items.extend(normalize_conjuncts(simplify(formula)))
    if len(items) > 1:
        steps.append(
            TraceStep(
                "DistributeForall",
                forall2(forget, conj(items)),
                conj([forall2(forget, c) for c in items]),
            )
        )
    results = [_eliminate_forall_conjunct(c, forget, steps) for c in items]
    raw = conj(results)
    out = simplify(raw)
    if out != raw:
        steps.append(TraceStep("Simplify", raw, out))
    return success(out, steps)


def _eliminate_forall_conjunct(c: Formula, forget: Sequence[str], steps: list[TraceStep]) -> Formula:
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


def _partition(th: Theory, query: Formula, keep: Sequence[str]) -> list[str]:
    vocab = prop_symbols(th.as_formula) | prop_symbols(query)
    return [p for p in sorted(vocab) if p not in set(keep)]


def snc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Strongest necessary condition of ``query`` on the ``keep`` vocabulary
    under ``th``: strong forgetting of the complementary vocabulary in
    ``th & query``."""
    forget = _partition(th, query, keep)
    extended = Theory(th.name, th.formulas + (query,))
    return forget_strong(extended, forget)


def wsc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Weakest sufficient condition of ``query`` on the ``keep`` vocabulary
    under ``th``: weak forgetting of the complementary vocabulary in
    ``th -> query``."""
    forget = _partition(th, query, keep)
    body = Implies(th.as_formula, query) if th.formulas else query
    return forget_weak(Theory(th.name, (body,)), forget)
