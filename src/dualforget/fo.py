"""Second-order quantifier elimination: the one driver for propositional
and first-order theories, and the first-order elimination rules.

``forget_strong``, ``forget_weak``, ``snc`` and ``wsc`` serve both
fragments; ``prop`` exports these same functions.  A propositional variable
is a 0-ary symbol and is eliminated by the propositional rules of ``prop``
(miniscoped Ackermann rewrite and two-point expansion for strong forgetting;
clause rule, Ackermann on the negation, then expansion for weak), also where
it occurs inside a first-order theory.  A relation is eliminated by the
rules below.

Per eliminated relation the strategy escalates, cheapest first:

1. clause rule (weak forgetting only): a universally quantified disjunction
   of literals collapses to equality disjunctions, at most quadratic output;
2. the first-order Ackermann rewrite: conjuncts are split into definitional
   parts ``all u. (r(u) -> A(u))`` / ``all u. (A(u) -> r(u))`` with ``A``
   free of ``r`` and a residual of uniform opposite polarity, then the
   residual is instantiated with ``A``;
3. its fixpoint generalization when ``A`` mentions ``r`` positively, which
   yields least/greatest fixpoint literals;
4. a reported failure (reason plus partial-progress residual).

Definitional parts are recognized in two shapes: a clause whose head literal
applies ``r`` to distinct clause-bound variables, and a bare literal conjunct
isolated with equality guards (``~r(x,y)`` becomes
``all u. all w. (r(u,w) -> u != x | w != y)``).  A tautological definition is
injected when the whole formula already has uniform polarity.

``prop`` imports the driver from this module, so this module imports
``prop`` only inside the two forgetting drivers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalError, nesting_guard
from .outcome import EliminationOutcome, TraceStep, failure, success
from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Equal,
    ExistsInd,
    Exists2,
    ForallInd,
    Forall2,
    Formula,
    Gfp,
    Implies,
    Lfp,
    Not,
    Or,
    Polarity,
    Term,
    Theory,
    Var,
    all_names,
    children,
    conj,
    conjuncts,
    disj,
    disjuncts,
    exists,
    forall,
    forall2,
    free_symbols,
    polarity,
    prop_symbols,
    rel_symbols,
    so_binder,
)
from .transform import NameGen, nnf, simplify, subst_terms, substitute_rel

# Not called here: ``perfbench/tracing.py`` wraps ``substitute_prop`` in this
# module's namespace by name, so the name must stay importable from it.
from .transform import substitute_prop  # noqa: F401


# ---------------------------------------------------------------------------
# Normalization: NNF, quantifier distribution, bounded or-over-and


_DIST_LIMIT = 64


def _distribute(f: Formula) -> Formula:
    """Push disjunctions over conjunctions, at most ``_DIST_LIMIT``
    conjuncts per disjunction, and universal quantifiers over
    conjunctions, so clause structure is exposed; input in NNF."""
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
    if isinstance(f, ForallInd):
        return conj([ForallInd(f.var, c) for c in conjuncts(_distribute(f.body))])
    if isinstance(f, ExistsInd):
        return ExistsInd(f.var, _distribute(f.body))
    return f


def normalize(f: Formula) -> Formula:
    """NNF, universal quantifiers distributed over conjunctions, bounded
    or-over-and distribution to expose clause structure."""
    return _distribute(nnf(f))


def _strip_forall(f: Formula) -> tuple[list[str], Formula]:
    vars: list[str] = []
    while isinstance(f, ForallInd):
        vars.append(f.var)
        f = f.body
    return vars, f


def _strip_exists(f: Formula) -> tuple[list[str], Formula]:
    vars: list[str] = []
    while isinstance(f, ExistsInd):
        vars.append(f.var)
        f = f.body
    return vars, f


def _tuple_eq(left: Sequence[Term], right: Sequence[Term]) -> Formula:
    """Componentwise tuple equality (conjunction of component equalities)."""
    return conj([Equal(a, b) for a, b in zip(left, right)])


def _tuple_neq(left: Sequence[Term], right: Sequence[Term]) -> Formula:
    """Componentwise tuple inequality (disjunction of component inequalities)."""
    return disj([Not(Equal(a, b)) for a, b in zip(left, right)])


def _occurs_outside_fixpoints(f: Formula, r: str) -> bool:
    if isinstance(f, Atom):
        return f.rel == r
    if isinstance(f, (Lfp, Gfp)) or so_binder(f) == r:
        return False
    return any(_occurs_outside_fixpoints(g, r) for g in children(f))


# ---------------------------------------------------------------------------
# Definitional extraction


@dataclass
class _Extraction:
    a: Formula               # the defining formula over ``params``
    params: tuple[str, ...]  # canonical argument variables of the definition
    residual: list[Formula]
    positive_case: bool      # True: defs are (r -> A), residual positive
    artificial: bool         # no real definitional conjunct; A is T / F
    needs_fixpoint: bool     # A mentions r (positively)


def _head_literal(d: Formula, r: str, positive: bool) -> Optional[tuple[Term, ...]]:
    """Argument tuple when ``d`` is the r-literal of the requested sign."""
    if positive and isinstance(d, Atom) and d.rel == r:
        return d.args
    if not positive and isinstance(d, Not) and isinstance(d.body, Atom) and d.body.rel == r:
        return d.body.args
    return None


def _def_from_clause(
    c: Formula, r: str, positive_case: bool, params: tuple[str, ...], ng: NameGen
) -> Optional[Formula]:
    """Defining formula ``A`` over ``params`` extracted from one conjunct, or
    ``None`` when the conjunct has no definitional shape.

    ``positive_case`` extracts from clauses with a negative head ``~r(t)``
    (definition ``r -> A``); the negative case from a positive head."""
    bvars, body = _strip_forall(c)
    ds = list(disjuncts(body))
    for i, d in enumerate(ds):
        args = _head_literal(d, r, positive=not positive_case)
        if args is None:
            continue
        rest = disj(ds[:i] + ds[i + 1:])
        distinct_bound_vars = (
            all(isinstance(t, Var) and t.name in bvars for t in args)
            and len({t.name for t in args if isinstance(t, Var)}) == len(args)
        )
        if distinct_bound_vars:
            outer = [v for v in bvars if v not in {t.name for t in args}]
            if positive_case:
                a = forall(outer, rest)
            else:
                a = exists(outer, nnf(Not(rest)))
            renaming = {t.name: Var(p) for t, p in zip(args, params)}
            return subst_terms(a, renaming, ng)
        if len(ds) == 1:
            # bare literal: isolate with equality guards
            pvars = tuple(Var(p) for p in params)
            if positive_case:
                return forall(bvars, _tuple_neq(pvars, args))
            return exists(bvars, _tuple_eq(pvars, args))
        return None
    return None


def _extract(
    r: str,
    items: Sequence[Formula],
    positive_case: bool,
    allow_r_in_def: bool,
    ng: NameGen,
    arity: int,
) -> Optional[_Extraction]:
    resid_ok = Polarity.POSITIVE if positive_case else Polarity.NEGATIVE
    a_ok = (Polarity.POSITIVE, Polarity.ABSENT) if allow_r_in_def else (Polarity.ABSENT,)
    params = tuple(ng.fresh("u") for _ in range(arity))
    defs: list[Formula] = []
    residual: list[Formula] = []
    for c in items:
        pol = polarity(c, r)
        if pol in (Polarity.ABSENT, resid_ok):
            residual.append(c)
            continue
        a = _def_from_clause(c, r, positive_case, params, ng)
        if a is None or polarity(a, r) not in a_ok:
            return None
        defs.append(a)
    if defs:
        a = conj(defs) if positive_case else disj(defs)
    else:
        a = TOP if positive_case else BOT
    return _Extraction(
        a,
        params,
        residual,
        positive_case,
        artificial=not defs,
        needs_fixpoint=polarity(a, r) is not Polarity.ABSENT,
    )


def _extract_single_def_params(
    r: str, items: Sequence[Formula], positive_case: bool, arity: int
) -> Optional[tuple[str, ...]]:
    """When exactly one conjunct is definitional and its head applies ``r``
    to distinct bound variables, reuse those variable names as the canonical
    parameters (matches the hand-derived shapes; purely cosmetic)."""
    resid_ok = Polarity.POSITIVE if positive_case else Polarity.NEGATIVE
    cands = [c for c in items if polarity(c, r) not in (Polarity.ABSENT, resid_ok)]
    if len(cands) != 1:
        return None
    bvars, body = _strip_forall(cands[0])
    for d in disjuncts(body):
        args = _head_literal(d, r, positive=not positive_case)
        if args is None:
            continue
        names = [t.name for t in args if isinstance(t, Var)]
        if len(names) == len(args) == len(set(names)) and all(n in bvars for n in names):
            return tuple(names)
    return None


def _attempt(
    r: str,
    items: Sequence[Formula],
    positive_case: bool,
    allow_r_in_def: bool,
    avoid: set[str],
    arity: int,
) -> Optional[_Extraction]:
    nice = _extract_single_def_params(r, items, positive_case, arity)
    if nice:
        ng: NameGen = _FixedNames(nice, set(avoid))
    else:
        ng = NameGen(set(avoid))
    return _extract(r, items, positive_case, allow_r_in_def, ng, arity)


class _FixedNames(NameGen):
    """Name generator that hands out a fixed parameter tuple first."""

    def __init__(self, fixed: Sequence[str], avoid: set[str]):
        super().__init__(avoid - set(fixed))
        self._fixed = list(fixed)

    def fresh(self, base: str) -> str:
        if self._fixed:
            name = self._fixed.pop(0)
            self.reserve([name])
            return name
        return super().fresh(base)


def _select_extraction(
    r: str, items: Sequence[Formula], avoid: set[str], arity: int, allow_fixpoint: bool
) -> Optional[_Extraction]:
    """Try the negative then the positive Ackermann shape with r-free
    definitions, then a tautological definition, then (optionally) the
    fixpoint shapes."""
    fallback: list[_Extraction] = []
    for positive_case in (False, True):
        ext = _attempt(r, items, positive_case, False, avoid, arity)
        if ext is not None and not ext.artificial:
            return ext
        if ext is not None:
            fallback.append(ext)
    if fallback:
        return fallback[0]
    if allow_fixpoint:
        for positive_case in (False, True):
            ext = _attempt(r, items, positive_case, True, avoid, arity)
            if ext is not None:
                return ext
    return None


# ---------------------------------------------------------------------------
# Public single-symbol operations


def to_ackermann_form(r: str, f: Formula) -> Optional[tuple[Formula, Formula, str]]:
    """Best-effort rewrite of ``f`` (NNF) into definitional-plus-residual
    Ackermann shape for ``r``; ``(definitional, residual, case)`` with case
    ``"Pos"`` for ``all u.(r(u) -> A)`` with a positive residual, ``"Neg"``
    for ``all u.(A -> r(u))`` with a negative one.  ``None`` when mixed
    occurrences cannot be separated with an r-free definition."""
    arity = rel_symbols(f).get(r)
    if arity is None:
        return None
    items = conjuncts(normalize(f))
    ext = _select_extraction(r, items, all_names(f), arity, allow_fixpoint=False)
    if ext is None or ext.needs_fixpoint:
        return None
    pvars = tuple(Var(p) for p in ext.params)
    head = Atom(r, pvars)
    impl = Implies(head, ext.a) if ext.positive_case else Implies(ext.a, head)
    definitional = forall(list(ext.params), impl)
    return definitional, conj(ext.residual), "Pos" if ext.positive_case else "Neg"


def apply_ackermann(r: str, definitional: Formula, residual: Formula, case: str) -> Formula:
    """Instantiate the residual with the definition: ``B(r(u) = A(u))``,
    simplified.  Defensive checks reject definitions that mention ``r``."""
    params_names, impl = _strip_forall(definitional)
    if not isinstance(impl, Implies):
        raise InternalError("definitional part must be a guarded implication")
    head, a = (impl.antecedent, impl.consequent) if case == "Pos" else (impl.consequent, impl.antecedent)
    if not (isinstance(head, Atom) and head.rel == r):
        raise InternalError(f"definitional head must be an {r} atom")
    params = [t.name for t in head.args if isinstance(t, Var)]
    if len(params) != len(head.args) or len(set(params)) != len(params):
        raise InternalError("definitional head needs distinct variable arguments")
    if polarity(a, r) is not Polarity.ABSENT:
        raise InternalError(f"defining formula still mentions {r}")
    return simplify(substitute_rel(residual, r, params, a))


def fixpoint_eliminate(r: str, f: Formula) -> EliminationOutcome:
    """Eliminate ``Ex2 r`` from ``f`` allowing the definition to mention
    ``r`` positively; produces a least fixpoint for ``all u.(A(r) -> r(u))``
    with a negative residual, a greatest fixpoint for the dual."""
    arity = rel_symbols(f).get(r)
    if arity is None:
        return success(simplify(f), [])
    items = conjuncts(normalize(f))
    ext = _select_extraction(r, items, all_names(f), arity, allow_fixpoint=True)
    if ext is None:
        return failure(
            f"mixed-polarity occurrences of {r} not separable", [], residual=f
        )
    if polarity(ext.a, r) not in (Polarity.POSITIVE, Polarity.ABSENT):
        return failure(
            f"defining formula for {r} is not positive in {r}", [], residual=f
        )
    residual = conj(ext.residual)
    if not ext.needs_fixpoint:
        return success(simplify(substitute_rel(residual, r, ext.params, ext.a)), [])
    fix_cls = Lfp if not ext.positive_case else Gfp
    literal = fix_cls(r, ext.params, ext.a, tuple(Var(p) for p in ext.params))
    return success(simplify(substitute_rel(residual, r, ext.params, literal)), [])


def clause_form_eliminate(r: str, f: Formula) -> Optional[Formula]:
    """Eliminate ``All2 r`` from a universally quantified disjunction whose
    ``r``-part consists of literals: ``all x.(r(t1)|..|~r(s1)|..|rest)``
    becomes the equality disjunction ``all x.(s1=t1 | .. | rest)`` (one
    equality per negative/positive pair, tuples componentwise), at most
    quadratic in the input.  ``None`` when the conjunct has another shape."""
    bvars, body = _strip_forall(f)
    pos: list[tuple[Term, ...]] = []
    neg: list[tuple[Term, ...]] = []
    rest: list[Formula] = []
    for d in disjuncts(body):
        args = _head_literal(d, r, positive=True)
        if args is not None:
            pos.append(args)
            continue
        args = _head_literal(d, r, positive=False)
        if args is not None:
            neg.append(args)
            continue
        if polarity(d, r) is not Polarity.ABSENT:
            return None
        rest.append(d)
    if not pos and not neg:
        return None
    eqs = [_tuple_eq(n, p) for n in neg for p in pos]
    return forall(bvars, disj(eqs + rest))


# ---------------------------------------------------------------------------
# Drivers


def _eliminate_exists_rel(
    r: str, f: Formula, steps: list[TraceStep]
) -> tuple[Optional[Formula], Optional[str]]:
    """Eliminate ``Ex2 r`` for a relation ``r`` from ``f``; returns
    (result, None) or (None, reason)."""
    if r not in rel_symbols(f):
        return f, None
    if not _occurs_outside_fixpoints(f, r):
        return None, f"{r} occurs only inside fixpoint literals; elimination not attempted"
    g = normalize(f)
    if g != f:
        steps.append(TraceStep("NNF", f, g))
    items = conjuncts(g)
    arity = rel_symbols(f)[r]
    ext = _select_extraction(r, items, all_names(f), arity, allow_fixpoint=True)
    if ext is None:
        return None, f"mixed-polarity occurrences of {r} not separable"
    residual = conj(ext.residual)
    rule = "AckermannPos" if ext.positive_case else "AckermannNeg"
    if ext.artificial:
        taut = forall(
            list(ext.params),
            Implies(Atom(r, tuple(Var(p) for p in ext.params)), TOP)
            if ext.positive_case
            else Implies(BOT, Atom(r, tuple(Var(p) for p in ext.params))),
        )
        steps.append(TraceStep("ArtificialConjunct", Exists2(r, g), Exists2(r, conj([taut, g]))))
    if ext.needs_fixpoint:
        fix_cls = Gfp if ext.positive_case else Lfp
        e: Formula = fix_cls(r, ext.params, ext.a, tuple(Var(p) for p in ext.params))
    else:
        e = ext.a
    raw = substitute_rel(residual, r, ext.params, e)
    steps.append(TraceStep(rule, Exists2(r, g), raw))
    out = simplify(raw)
    if out != raw:
        steps.append(TraceStep("Simplify", raw, out))
    return out, None


@nesting_guard
def forget_strong(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Strong (standard) forgetting: eliminate ``Ex2 s`` for each symbol in
    order; the result is over the remaining vocabulary and equivalent to the
    existentially quantified theory.  A propositional variable is eliminated
    by the miniscoped propositional rules, a relation by Ackermann, then
    fixpoint; a failure on one symbol reports the partial progress over the
    previous ones.  One simplification of the whole result follows."""
    from . import prop

    steps: list[TraceStep] = []
    f = simplify(th.as_formula)
    for s in forget:
        # the propositional step returns ``f`` itself when ``s`` is no
        # propositional variable of ``f``; only then can it be a relation
        out: Optional[Formula] = prop._eliminate_exists(s, f, steps)
        if out is f:
            out, reason = _eliminate_exists_rel(s, f, steps)
            if out is None:
                return failure(f"{reason}", steps, residual=f)
        f = out
    out = simplify(f)
    if out is not f:
        steps.append(TraceStep("Simplify", f, out))
    return success(out, steps)


@nesting_guard
def forget_weak(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Weak forgetting: distribute ``All2`` over conjuncts and eliminate per
    conjunct, the propositional variables first and together (clause rule,
    then the Ackermann rewrite on the negated existential form, then
    expansion), then each relation in order (clause rule, then the same
    rewrite, then its fixpoint generalization)."""
    from . import prop

    steps: list[TraceStep] = []
    whole = th.as_formula
    props = prop_symbols(whole)
    present = [s for s in forget if s in props]
    if len(present) < len(forget):
        rels = rel_symbols(whole)
        present = [s for s in forget if s in props or s in rels]
    if not present:
        return success(simplify(whole), steps)
    items: list[Formula] = []
    for formula in th.formulas:
        items.extend(prop.normalize_conjuncts(simplify(formula)))
    if len(items) > 1:
        steps.append(
            TraceStep(
                "DistributeForall",
                forall2(present, conj(items)),
                conj([forall2(present, c) for c in items]),
            )
        )
    prop_vars = [s for s in present if s in props]
    relations = [s for s in present if s not in props]
    results: list[Formula] = []
    for idx, c in enumerate(items):
        cur = prop._eliminate_forall_conjunct(c, prop_vars, steps) if prop_vars else c
        for r in relations:
            out, reason = _eliminate_forall_conjunct(r, cur, steps)
            if out is None:
                return failure(
                    f"conjunct {idx + 1} ({cur!r}): {reason}",
                    steps,
                    residual=conj(items),
                )
            cur = out
        results.append(cur)
    raw = conj(results)
    out = simplify(raw)
    if out != raw:
        steps.append(TraceStep("Simplify", raw, out))
    return success(out, steps)


def _eliminate_forall_conjunct(
    r: str, c: Formula, steps: list[TraceStep]
) -> tuple[Optional[Formula], Optional[str]]:
    """Eliminate ``All2 r`` for a relation ``r`` from one conjunct; returns
    (result, None) or (None, reason)."""
    if r not in rel_symbols(c):
        return c, None
    if not _occurs_outside_fixpoints(c, r):
        return None, f"{r} occurs only inside fixpoint literals; elimination not attempted"
    fast = clause_form_eliminate(r, c)
    if fast is not None:
        steps.append(TraceStep("ClauseRule", Forall2(r, c), fast))
        return simplify(fast), None
    # All2 r C == ~ Ex2 r ~C; strip the leading existential prefix so the
    # definitional shapes can be recognized under it
    negated = normalize(Not(c))
    prefix, matrix = _strip_exists(negated)
    inner_steps: list[TraceStep] = []
    out, reason = _eliminate_exists_rel(r, matrix, inner_steps)
    if out is None:
        return None, reason
    rule = next((s.rule for s in inner_steps if s.rule.startswith("Ackermann")), "Simplify")
    result = simplify(nnf(Not(exists(prefix, out))))
    steps.append(TraceStep(rule, Forall2(r, c), result))
    return result, None


@nesting_guard
def snc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Strongest necessary condition of ``query`` on the ``keep`` vocabulary
    under ``th``: strong forgetting of the complementary vocabulary in
    ``th & query``."""
    forget = _partition(th, query, keep)
    return forget_strong(Theory(th.name, th.formulas + (query,)), forget)


@nesting_guard
def wsc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Weakest sufficient condition of ``query`` on the ``keep`` vocabulary
    under ``th``: weak forgetting of the complementary vocabulary in
    ``th -> query``."""
    forget = _partition(th, query, keep)
    body = Implies(th.as_formula, query) if th.formulas else query
    return forget_weak(Theory(th.name, (body,)), forget)


def _partition(th: Theory, query: Formula, keep: Sequence[str]) -> list[str]:
    """The symbols of ``th`` and ``query`` outside ``keep``, sorted: what
    ``snc`` and ``wsc`` forget."""
    kept = set(keep)
    vocab = free_symbols(th.as_formula) | free_symbols(query)
    return [s for s in sorted(vocab) if s not in kept]
