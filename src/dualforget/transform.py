"""Rewriting primitives: fresh names, substitution, NNF, and the simplifier."""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ArityError, CaptureError, InternalError, nesting_guard
from .syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Equal,
    ExistsInd,
    Exists2,
    ForallInd,
    Forall2,
    Formula,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Or,
    PropVar,
    Term,
    Top,
    Var,
    _subformulas,
    all_names,
    children,
    conj,
    disj,
    free_ind_vars,
    free_symbols,
    rebuild,
    so_binder,
)


class NameGen:
    """Deterministic fresh-name supply: ``x, x_1, x_2, ...`` skipping an
    avoid set.  Confine one instance to a single elimination request."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._avoid = set(avoid)

    def reserve(self, names: Iterable[str]) -> None:
        self._avoid.update(names)

    def fresh(self, base: str) -> str:
        if base not in self._avoid:
            self._avoid.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self._avoid:
            i += 1
        name = f"{base}_{i}"
        self._avoid.add(name)
        return name


# ---------------------------------------------------------------------------
# Term-level substitution (capture-avoiding)


def _term_sub(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Var) and t.name in mapping:
        return mapping[t.name]
    return t


def _term_vars(ts: Iterable[Term]) -> set[str]:
    return {t.name for t in ts if isinstance(t, Var)}


def subst_terms(f: Formula, mapping: Mapping[str, Term], ng: Optional[NameGen] = None) -> Formula:
    """Simultaneously replace free individual variables by terms, renaming
    bound variables where they would capture an inserted variable."""
    if not mapping:
        return f
    if ng is None:
        ng = NameGen(all_names(f) | {t.name for t in mapping.values()} | set(mapping))

    def walk(g: Formula, m: Mapping[str, Term]) -> Formula:
        if isinstance(g, Atom):
            args = _terms_sub(g.args, m)
            return g if args is g.args else Atom(g.rel, args)
        if isinstance(g, Equal):
            pair = (g.left, g.right)
            new = _terms_sub(pair, m)
            return g if new is pair else Equal(*new)
        if isinstance(g, (ForallInd, ExistsInd)):
            m2 = {k: v for k, v in m.items() if k != g.var}
            if not m2:
                return g
            if g.var not in _term_vars(m2.values()):
                return rebuild(g, [walk(g.body, m2)])
            var = ng.fresh(g.var)
            body = subst_terms(g.body, {g.var: Var(var)}, ng)
            return type(g)(var, walk(body, m2))
        if isinstance(g, (Lfp, Gfp)):
            applied = _terms_sub(g.applied, m)
            m2 = {k: v for k, v in m.items() if k not in g.argvars}
            body = g.body
            argvars = g.argvars
            clash = set(argvars) & _term_vars(m2.values())
            if m2 and clash:
                renaming = {v: Var(ng.fresh(v)) for v in clash}
                argvars = tuple(renaming.get(v, Var(v)).name for v in argvars)
                body = subst_terms(body, renaming, ng)
            if m2:
                body = walk(body, m2)
            if body is g.body and argvars is g.argvars and applied is g.applied:
                return g
            return type(g)(g.rel, argvars, body, applied)
        return rebuild(g, [walk(k, m) for k in children(g)])

    return walk(f, dict(mapping))


def _terms_sub(ts: tuple[Term, ...], m: Mapping[str, Term]) -> tuple[Term, ...]:
    """``ts`` with ``m`` applied; the same tuple when no term changes."""
    out = tuple(_term_sub(t, m) for t in ts)
    return ts if out == ts else out


# ---------------------------------------------------------------------------
# Renaming of bound symbols (used for capture avoidance before substitution)


def _rename_symbol(f: Formula, old: str, new: str) -> Formula:
    """Rename free occurrences of a propositional/relation symbol."""

    def walk(g: Formula) -> Formula:
        if isinstance(g, PropVar):
            return PropVar(new) if g.name == old else g
        if isinstance(g, Atom):
            return Atom(new, g.args) if g.rel == old else g
        if so_binder(g) == old:
            return g
        return rebuild(g, [walk(k) for k in children(g)])

    return walk(f)


def _freshen_binders(f: Formula, clash_vars: set[str], clash_syms: set[str], ng: NameGen) -> Formula:
    """Rename binders in ``f`` whose bound name collides with a free name of
    the formula being substituted in."""

    def walk(g: Formula) -> Formula:
        if isinstance(g, (ForallInd, ExistsInd)) and g.var in clash_vars:
            var = ng.fresh(g.var)
            return type(g)(var, walk(subst_terms(g.body, {g.var: Var(var)}, ng)))
        if isinstance(g, (Forall2, Exists2)) and g.sym in clash_syms:
            sym = ng.fresh(g.sym)
            return type(g)(sym, walk(_rename_symbol(g.body, g.sym, sym)))
        if isinstance(g, (Lfp, Gfp)):
            body = g.body
            rel = g.rel
            argvars = g.argvars
            if rel in clash_syms:
                rel = ng.fresh(g.rel)
                body = _rename_symbol(body, g.rel, rel)
            renaming = {v: Var(ng.fresh(v)) for v in argvars if v in clash_vars}
            if renaming:
                argvars = tuple(renaming[v].name if v in renaming else v for v in argvars)
                body = subst_terms(body, renaming, ng)
            if rel != g.rel or renaming:
                return type(g)(rel, argvars, walk(body), g.applied)
        return rebuild(g, [walk(k) for k in children(g)])

    return walk(f)


# ---------------------------------------------------------------------------
# Propositional and relational substitution


def substitute_prop(f: Formula, p: str, e: Formula) -> Formula:
    """Replace every occurrence of propositional variable ``p`` by ``e``.

    Raises :class:`CaptureError` when ``p`` is itself bound by a second-order
    quantifier (or fixpoint) inside ``f``.  Binders in ``f`` that would
    capture a free name of ``e`` are renamed first.  Subtrees without ``p``
    are kept as the same objects."""
    if p in _binders_of(f):
        raise CaptureError(f"{p} is rebound inside the substitution target")
    clash_syms = set(free_symbols(e))
    clash_vars = free_ind_vars(e)
    if clash_syms or clash_vars:
        ng = NameGen(all_names(f) | all_names(e))
        f = _freshen_binders(f, clash_vars, clash_syms, ng)

    def walk(g: Formula) -> Formula:
        if isinstance(g, PropVar):
            return e if g.name == p else g
        return rebuild(g, [walk(k) for k in children(g)])

    return walk(f)


def _binders_of(f: Formula) -> set[str]:
    """Symbols bound by second-order quantifiers and fixpoints in ``f``."""
    return {b for g in _subformulas(f) if (b := so_binder(g)) is not None}


def substitute_rel(f: Formula, r: str, params: Sequence[str], e: Formula) -> Formula:
    """Replace every atom ``r(args)`` by ``e`` with ``params`` simultaneously
    instantiated to ``args`` (per-occurrence instantiation).

    ``params`` must be pairwise distinct.  Fully capture-avoiding in both
    directions: binders inside ``e`` are renamed when they would capture a
    variable of the occurrence's arguments, and binders in ``f`` are renamed
    when they would capture a name ``e`` uses freely beyond ``params`` (the
    definition may be guarded by variables of an enclosing prefix)."""
    params = tuple(params)
    if len(set(params)) != len(params):
        raise CaptureError(f"parameter variables must be distinct: {params}")
    ng = NameGen(all_names(f) | all_names(e) | set(params))
    clash_vars = free_ind_vars(e) - set(params)
    clash_syms = free_symbols(e).keys() - {r}
    if clash_vars or clash_syms:
        f = _freshen_binders(f, clash_vars, clash_syms, ng)

    def inst(args: tuple[Term, ...]) -> Formula:
        if len(args) != len(params):
            raise ArityError(
                f"{r} used with {len(args)} arguments, substitution expects {len(params)}"
            )
        body = e
        arg_vars = _term_vars(args)
        bound_in_e = _ind_binders_of(e)
        if arg_vars & bound_in_e:
            body = _freshen_binders(body, arg_vars & bound_in_e, set(), ng)
        return subst_terms(body, dict(zip(params, args)), ng)

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return inst(g.args) if g.rel == r else g
        if so_binder(g) == r:
            return g
        return rebuild(g, [walk(k) for k in children(g)])

    return walk(f)


def _ind_binders_of(f: Formula) -> set[str]:
    """Individual variables bound by quantifiers and fixpoints in ``f``."""
    out: set[str] = set()
    for g in _subformulas(f):
        if isinstance(g, (ForallInd, ExistsInd)):
            out.add(g.var)
        elif isinstance(g, (Lfp, Gfp)):
            out.update(g.argvars)
    return out


# ---------------------------------------------------------------------------
# Negation normal form


@nesting_guard
def nnf(f: Formula) -> Formula:
    """Negation normal form: ``->``/``<->`` expanded, negation pushed to
    literals, double negations removed, quantifiers dualized.

    Applied fixpoint literals are treated as atomic (they are outputs of
    elimination, not rewritten)."""
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    if isinstance(f, Top):
        return BOT if neg else TOP
    if isinstance(f, Bottom):
        return TOP if neg else BOT
    if isinstance(f, (PropVar, Atom, Equal, Lfp, Gfp)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.body, not neg)
    if isinstance(f, And):
        items = [_nnf(it, neg) for it in f.items]
        return disj(items) if neg else conj(items)
    if isinstance(f, Or):
        items = [_nnf(it, neg) for it in f.items]
        return conj(items) if neg else disj(items)
    if isinstance(f, Implies):
        return _nnf(disj([Not(f.antecedent), f.consequent]), neg)
    if isinstance(f, Iff):
        a, b = f.left, f.right
        return _nnf(conj([disj([Not(a), b]), disj([a, Not(b)])]), neg)
    if isinstance(f, ForallInd):
        return ExistsInd(f.var, _nnf(f.body, True)) if neg else ForallInd(f.var, _nnf(f.body, False))
    if isinstance(f, ExistsInd):
        return ForallInd(f.var, _nnf(f.body, True)) if neg else ExistsInd(f.var, _nnf(f.body, False))
    if isinstance(f, Forall2):
        return Exists2(f.sym, _nnf(f.body, True)) if neg else Forall2(f.sym, _nnf(f.body, False))
    if isinstance(f, Exists2):
        return Forall2(f.sym, _nnf(f.body, True)) if neg else Exists2(f.sym, _nnf(f.body, False))
    raise InternalError(f"unhandled formula in nnf: {type(f).__name__}")


# ---------------------------------------------------------------------------
# Simplifier
#
# A fixed, terminating, local rule set applied bottom-up to a syntactic
# fixpoint.  The full rule list (everything the simplifier ever does):
#
#   truth constants    T&A=A  F|A=A  T|A=T  F&A=F  ~T=F  ~F=T
#                      T->A=A  A->T=T  F->A=T  A->F=~A
#                      A<->T=A  T<->A=A  A<->F=~A  F<->A=~A
#   double negation    ~~A=A
#   idempotence        A&A=A  A|A=A          (order-preserving dedup)
#   complements        A&~A=F  A|~A=T        (within one level)
#   absorption         A&(A|B)=A  A|(A&B)=A  (within one level)
#   reflexivity        A->A=T  A<->A=T  t=t -> T
#   vacuous binders    (all x. A)=A when x not free in A; same for ex,
#                      All2/Ex2 when the symbol does not occur
#   flattening         nested &/& and |/| merged
#
# No tautology checking beyond these local rules: outputs stay predictable
# and traces honest.  Golden comparisons go through the oracle instead.
#
# A pass returns each node itself when no rule fires at or below it, so an
# unchanged formula comes back as the same object, with its cached hash.


@nesting_guard
def simplify(f: Formula) -> Formula:
    cur = f
    rewrites = 0
    while True:
        nxt = _simp(cur)
        if nxt is cur:
            return cur
        cur = nxt
        rewrites += 1
        # One rewriting pass is the rule, so the bound that guards
        # termination, the input size, is only computed past it.
        if rewrites > 1 and rewrites > _size(f) + 1:
            raise InternalError("simplifier failed to reach a fixpoint")


def _size(f: Formula) -> int:
    return 1 + sum(_size(g) for g in children(f))


def _simp(f: Formula) -> Formula:
    if isinstance(f, (Top, Bottom, PropVar, Atom)):
        return f
    if isinstance(f, Equal):
        return TOP if f.left == f.right else f
    if isinstance(f, Not):
        b = _simp(f.body)
        if isinstance(b, Top):
            return BOT
        if isinstance(b, Bottom):
            return TOP
        if isinstance(b, Not):
            return b.body
        return f if b is f.body else Not(b)
    if isinstance(f, And):
        return _simp_nary(f, is_and=True)
    if isinstance(f, Or):
        return _simp_nary(f, is_and=False)
    if isinstance(f, Implies):
        a = _simp(f.antecedent)
        b = _simp(f.consequent)
        if isinstance(a, Top):
            return b
        if isinstance(a, Bottom) or isinstance(b, Top):
            return TOP
        if isinstance(b, Bottom):
            return _simp(Not(a))
        if a == b:
            return TOP
        return f if a is f.antecedent and b is f.consequent else Implies(a, b)
    if isinstance(f, Iff):
        a = _simp(f.left)
        b = _simp(f.right)
        if isinstance(a, Top):
            return b
        if isinstance(b, Top):
            return a
        if isinstance(a, Bottom):
            return _simp(Not(b))
        if isinstance(b, Bottom):
            return _simp(Not(a))
        if a == b:
            return TOP
        return f if a is f.left and b is f.right else Iff(a, b)
    if isinstance(f, (ForallInd, ExistsInd)):
        b = _simp(f.body)
        if f.var not in free_ind_vars(b):
            return b
        return f if b is f.body else type(f)(f.var, b)
    if isinstance(f, (Forall2, Exists2)):
        b = _simp(f.body)
        if f.sym not in free_symbols(b):
            return b
        return f if b is f.body else type(f)(f.sym, b)
    if isinstance(f, (Lfp, Gfp)):
        b = _simp(f.body)
        return f if b is f.body else type(f)(f.rel, f.argvars, b, f.applied)
    raise InternalError(f"unhandled formula in simplify: {type(f).__name__}")


def _simp_nary(f: Union[And, Or], is_and: bool) -> Formula:
    absorbing: Formula = BOT if is_and else TOP
    neutral: Formula = TOP if is_and else BOT
    items: list[Formula] = []
    for it in f.items:
        s = _simp(it)
        if isinstance(s, And) and is_and:
            items.extend(s.items)
        elif isinstance(s, Or) and not is_and:
            items.extend(s.items)
        else:
            items.append(s)
    kept: list[Formula] = []
    seen: set[Formula] = set()
    for s in items:
        if s == absorbing:
            return absorbing
        if s == neutral or s in seen:
            continue
        seen.add(s)
        kept.append(s)
    # complements within this level: one of a complementary pair is the
    # negation of the other
    if any(isinstance(s, Not) and s.body in seen for s in kept):
        return absorbing
    # absorption: inside a conjunction, drop any disjunction containing
    # another conjunct (dually for disjunctions)
    inner = Or if is_and else And
    result = [
        s
        for s in kept
        if not (isinstance(s, inner) and any(d in seen and d != s for d in s.items))
    ]
    if len(result) == len(f.items) and all(map(operator.is_, result, f.items)):
        return f
    return conj(result) if is_and else disj(result)
