"""Second-order quantifier elimination: the one driver for propositional
and first-order theories, and each elimination rule, once for both kinds.

``forget_strong``, ``forget_weak``, ``snc`` and ``wsc`` serve both
fragments; ``prop`` exports these same functions.  A propositional variable
is a 0-ary symbol.  The driver learns each symbol's kind and arity from one
walk; a name used with two arities, or as both kinds, raises ``ArityError``.

Strong forgetting miniscopes, ``Ex2 s.(A & B) = A & Ex2 s.B`` when ``s``
does not occur in ``A``: only the conjuncts that mention ``s`` are
rewritten, and the others are kept, and printed, as written.  It picks the
order of the propositional variables, and relations keep their place in
the caller's list: before each relation it eliminates the variables listed
ahead of it, each time the one that occurs in the fewest conjuncts, as an
expansion doubles every conjunct that mentions its variable.  A variable's
elimination never fails, so its order moves only the form and size of the
result; a relation's can, and the caller's order may be what leaves it
separable.  Weak forgetting distributes ``All2`` over the conjuncts and
eliminates their symbols in one step per conjunct, propositional variables
first, each kind in the caller's order.

Each rule is tried at most once per symbol, cheapest first:

1. clause rule (weak forgetting only): a universally quantified disjunction
   of literals collapses to equality disjunctions, at most quadratic output;
   one pass per conjunct takes all of its forgotten symbols, or none;
2. the Ackermann rewrite: conjuncts are split into definitional parts
   ``all u. (r(u) -> A(u))`` / ``all u. (A(u) -> r(u))`` and a residual of
   uniform opposite polarity, then the residual is instantiated with ``A``
   (weak forgetting rewrites the negation).  ``A`` is free of ``r`` if it
   can be; a relation's ``A`` may otherwise mention ``r`` positively (the
   fixpoint generalization), which yields least/greatest fixpoint literals;
3. for a propositional variable, two-point expansion, which is complete;
   for a relation, a reported failure (reason plus partial-progress
   residual).

Definitional parts are recognized in two shapes: a clause whose head literal
applies ``r`` to distinct clause-bound variables (a propositional variable
is a head without arguments), and a bare literal conjunct isolated with
equality guards (``~r(x,y)`` becomes ``all u. all w. (r(u,w) -> u != x | w !=
y)``).  A tautological definition is injected when the whole formula already
has uniform polarity.

This module imports nothing from ``prop``, which wraps the rules here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import nesting_guard
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
    PropVar,
    Term,
    Theory,
    Top,
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
    literal,
    polarity,
    so_binder,
)
from .transform import (
    NameGen,
    _unchanged,
    nnf,
    simplify,
    subst_terms,
    substitute_prop,
    substitute_rel,
)


# ---------------------------------------------------------------------------
# Normalization: NNF, quantifier distribution, bounded or-over-and


_DIST_LIMIT = 64


def _distribute(f: Formula) -> Formula:
    """Push disjunctions over conjunctions and universal quantifiers over
    conjunctions, so clause structure is exposed; input in NNF, flattened
    as ``nnf`` gives it.  A subtree with nothing to push comes back as the
    same object.

    Two rules keep the clauses few.  A disjunction is distributed only
    whole: when the product of its items' conjunct counts passes
    ``_DIST_LIMIT``, it comes back as it is, its items undistributed too.
    And the product holds no clause with a literal and its complement, in
    NNF an atom and its negation (same symbol and arguments, or the same
    equality or fixpoint literal): such a clause is valid.  A product
    without clauses is ``T``, which a conjunction drops and a disjunction
    or universal quantifier over it becomes."""
    kind = type(f)
    if kind is And:
        items = [_distribute(it) for it in f.items]
        if _unchanged(items, f.items, And):
            return f
        return conj([it for it in items if type(it) is not Top])
    if kind is Or:
        items = [_distribute(it) for it in f.items]
        if _unchanged(items, f.items, And):
            return f
        branches = [() if type(it) is Top else conjuncts(it) for it in items]
        total = 1
        for b in branches:
            total *= len(b)
            if total > _DIST_LIMIT:
                return f
        return conj(_product(branches))
    if kind is ForallInd:
        body = _distribute(f.body)
        if body is f.body and type(body) is not And:
            return f
        if type(body) is Top:
            return TOP
        return conj([ForallInd(f.var, c) for c in conjuncts(body)])
    if kind is ExistsInd:
        body = _distribute(f.body)
        return f if body is f.body else ExistsInd(f.var, body)
    return f


def _sign_masks(ds: Sequence[Formula], bits: dict[Formula, int]) -> tuple[int, int]:
    """The items of ``ds`` as bits of an int mask, and their negations as a
    second mask.  ``bits`` gives each atom two bits, one for it and one for
    its negation, and grows as new atoms are met; in NNF, a clause holds a
    literal and its complement when its two masks meet."""
    mask = comp = 0
    for d in ds:
        neg = type(d) is Not
        bit = bits.setdefault(d.body if neg else d, 2 * len(bits))
        mask |= 1 << (bit + neg)
        comp |= 1 << (bit + (not neg))
    return mask, comp


def _valid_clause(c: Formula) -> bool:
    """Whether the conjunct ``c``, read as a clause in NNF, holds a literal
    and its complement."""
    mask, comp = _sign_masks(disjuncts(_strip_forall(c)[1]), {})
    return bool(mask & comp)


def _product(branches: Sequence[tuple[Formula, ...]]) -> list[Formula]:
    """The disjunctions of one conjunct from each branch, in the order of
    ``itertools.product``, less those that hold a literal and its
    complement.  A partial clause that holds a pair is dropped before it is
    extended."""
    bits: dict[Formula, int] = {}
    partial: list[tuple[tuple[Formula, ...], int]] = [((), 0)]
    for branch in branches:
        grown = [(c, *_sign_masks(disjuncts(c), bits)) for c in branch]
        partial = [
            (combo + (c,), seen | mask)
            for combo, seen in partial
            for c, mask, comp in grown
            if not comp & (seen | mask)
        ]
    return [disj(combo) for combo, _ in partial]


def normalize(f: Formula) -> Formula:
    """NNF, universal quantifiers distributed over conjunctions, and
    or-over-and distribution to expose clause structure (see
    :func:`_distribute`): a disjunction whose product would pass
    ``_DIST_LIMIT`` clauses stays as ``nnf`` gave it, and the product
    builds no clause that holds a literal and its complement."""
    return _distribute(nnf(f))


def _strip_forall(f: Formula) -> tuple[list[str], Formula]:
    vars: list[str] = []
    while type(f) is ForallInd:
        vars.append(f.var)
        f = f.body
    return vars, f


#: a disjunct's literal view: symbol, sign, arguments; see ``syntax.literal``
_Literal = tuple[str, bool, tuple[Term, ...]]


#: a conjunct read as a clause; see ``_clause``
_ClauseView = tuple[list[str], tuple[Formula, ...], list[Optional[_Literal]]]


def _clause(c: Formula) -> _ClauseView:
    """A conjunct read as a clause: its ``all``-prefix variables, its
    disjuncts, and each disjunct's literal view (``None`` for a disjunct
    that is no literal)."""
    bvars, body = _strip_forall(c)
    ds = disjuncts(body)
    return bvars, ds, [literal(d) for d in ds]


def _strip_exists(f: Formula) -> tuple[list[str], Formula]:
    vars: list[str] = []
    while type(f) is ExistsInd:
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
    """Whether relation ``r`` occurs free in ``f`` outside every fixpoint
    literal.  Each node object is visited once, so a shared subtree costs
    one visit however many paths reach it."""
    seen: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is Atom:
            if g.rel == r:
                return True
            continue
        if id(g) in seen:
            continue
        seen.add(id(g))
        if kind is Lfp or kind is Gfp or so_binder(g) == r:
            continue
        stack.extend(children(g))
    return False


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


#: bound variables, head arguments, other disjuncts, argument names or None
_Head = tuple[list[str], tuple[Term, ...], tuple[Formula, ...], Optional[tuple[str, ...]]]


def _find_head(c: Formula, r: str, positive_case: bool) -> Optional[_Head]:
    """The definitional head of one conjunct: its bound variables, the head
    literal's arguments, the other disjuncts, and the names of the arguments
    when they are distinct bound variables (``None`` for a bare literal);
    ``None`` when the conjunct has no definitional shape.

    ``positive_case`` looks for a negative head ``~r(t)`` (definition
    ``r -> A``); the negative case for a positive head.  A propositional
    variable is a head without arguments."""
    bvars, ds, lits = _clause(c)
    for i, lit in enumerate(lits):
        if lit is None or lit[0] != r or lit[1] == positive_case:
            continue
        args = lit[2]
        names = tuple(t.name for t in args if isinstance(t, Var) and t.name in bvars)
        if len(set(names)) == len(args):
            return bvars, args, ds[:i] + ds[i + 1:], names
        return (bvars, args, (), None) if len(ds) == 1 else None
    return None


def _def_from_head(
    head: _Head, positive_case: bool, params: tuple[str, ...], ng: Optional[NameGen]
) -> Formula:
    """The defining formula ``A`` over ``params`` of a head found by
    :func:`_find_head`."""
    bvars, args, rest, names = head
    if names is None:
        # bare literal: isolate with equality guards
        pvars = tuple(Var(p) for p in params)
        if positive_case:
            return forall(bvars, _tuple_neq(pvars, args))
        return exists(bvars, _tuple_eq(pvars, args))
    outer = [v for v in bvars if v not in names]
    if positive_case:
        a = forall(outer, disj(rest))
    else:
        a = exists(outer, nnf(Not(disj(rest))))
    return subst_terms(a, {n: Var(p) for n, p in zip(names, params)}, ng)


def _attempt(
    r: str,
    pairs: Sequence[tuple[Formula, Polarity]],
    positive_case: bool,
    allow_r_in_def: bool,
    avoid: set[str],
    arity: int,
) -> Optional[_Extraction]:
    """One Ackermann shape over the conjuncts, each paired with its polarity
    in ``r``: a conjunct without ``r`` or of the residual's polarity joins
    the residual, and every other one must be definitional.  When exactly
    one is and its head applies ``r`` to distinct bound variables, those
    name the parameters (matches the hand-derived shapes; purely
    cosmetic)."""
    keep = (Polarity.ABSENT, Polarity.POSITIVE if positive_case else Polarity.NEGATIVE)
    residual = [c for c, pol in pairs if pol in keep]
    heads = [_find_head(c, r, positive_case) for c, pol in pairs if pol not in keep]
    if any(h is None for h in heads):
        return None
    # a 0-ary definition has no parameters to name
    ng: Optional[NameGen] = None
    params: tuple[str, ...] = ()
    if arity:
        nice = (heads[0][3] if len(heads) == 1 else None) or ()
        ng = NameGen(avoid | set(nice))
        params = nice or tuple(ng.fresh("u") for _ in range(arity))
    a_ok = (Polarity.POSITIVE, Polarity.ABSENT) if allow_r_in_def else (Polarity.ABSENT,)
    defs: list[Formula] = []
    needs_fixpoint = False
    for head in heads:
        a = _def_from_head(head, positive_case, params, ng)
        pol = polarity(a, r)
        if pol not in a_ok:
            return None
        needs_fixpoint |= pol is Polarity.POSITIVE
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
        needs_fixpoint=needs_fixpoint,
    )


def _select_extraction(
    r: str, items: Sequence[Formula], avoid: set[str], arity: int
) -> Optional[_Extraction]:
    """Try the negative then the positive Ackermann shape, once each, a
    relation's definition allowed to mention ``r`` positively.  A shape
    whose definitional conjuncts are r-free wins at once; else the first
    tautological definition, else the first fixpoint definition.  Each
    conjunct's polarity in ``r`` is computed once.

    A relation's conjunct of both polarities that holds a literal and its
    complement is left out: it is valid, and as a definition it would put
    the relation inside its own fixpoint."""
    pairs = [(c, polarity(c, r)) for c in items]
    if arity:
        pairs = [(c, pol) for c, pol in pairs if pol is not Polarity.BOTH or not _valid_clause(c)]
    found: list[_Extraction] = []
    for positive_case in (False, True):
        ext = _attempt(r, pairs, positive_case, arity > 0, avoid, arity)
        if ext is not None and not (ext.artificial or ext.needs_fixpoint):
            return ext
        if ext is not None:
            found.append(ext)
    # min keeps the negative shape among ties
    return min(found, key=lambda ext: ext.needs_fixpoint, default=None)


# ---------------------------------------------------------------------------
# Public single-symbol operations


@nesting_guard
def fixpoint_eliminate(r: str, f: Formula) -> EliminationOutcome:
    """Eliminate ``Ex2 r`` from ``f`` by the Ackermann rewrite.  Only a
    relation gets the fixpoint form, where the definition may mention ``r``
    positively: a least fixpoint for ``all u.(A(r) -> r(u))`` with a
    negative residual, a greatest fixpoint for the dual.  A propositional
    variable gets the 0-ary rewrite alone."""
    arity = free_symbols(f).get(r)
    if arity is None:
        return success(f, [])
    steps: list[TraceStep] = []
    out, reason = _eliminate_exists_rel(r, f, steps, arity)
    if out is None:
        return failure(reason, steps, residual=f)
    return success(out, steps)


def clause_form_eliminate(r: str, f: Formula) -> Optional[Formula]:
    """Eliminate ``All2 r`` from a universally quantified disjunction whose
    ``r``-part consists of literals: ``all x.(r(t1)|..|~r(s1)|..|rest)``
    becomes the equality disjunction ``all x.(s1=t1 | .. | rest)`` (one
    equality per negative/positive pair, tuples componentwise), at most
    quadratic in the input; for a propositional variable its literals are
    deleted.  A complementary pair of propositional literals makes the
    clause ``T``.  ``None`` when the conjunct has another shape."""
    return _clause_rule(_clause(f), (r,))


def _clause_rule(view: _ClauseView, syms: tuple[str, ...]) -> Optional[Formula]:
    """:func:`clause_form_eliminate` on a conjunct's clause view, for the
    symbols ``syms`` in one pass.  For several symbols every disjunct must
    be a literal, while for one a disjunct without it may have any shape."""
    bvars, ds, lits = view
    more = len(syms) > 1
    r = syms[0]
    pos: dict[str, list[tuple[Term, ...]]] = {s: [] for s in syms}
    neg: dict[str, list[tuple[Term, ...]]] = {s: [] for s in syms}
    rest: list[Formula] = []
    signed: set[tuple[str, bool]] = set()  # the propositional literals
    for d, lit in zip(ds, lits):
        if lit is None:
            if more or polarity(d, r) is not Polarity.ABSENT:
                return None
            rest.append(d)
            continue
        name, sign, args = lit
        if not args:
            signed.add((name, sign))
        if name in pos:
            (pos if sign else neg)[name].append(args)
        else:
            rest.append(d)
    if not any(pos.values()) and not any(neg.values()):
        return None
    if any((name, not sign) in signed for name, sign in signed):
        return TOP
    # the last symbol's equalities first, as eliminating one at a time gives
    eqs = [_tuple_eq(n, p) for s in reversed(syms) for n in neg[s] for p in pos[s]]
    return forall(bvars, disj(eqs + rest))


# ---------------------------------------------------------------------------
# Elimination steps for one symbol of either kind; arity 0 is a
# propositional variable


def _eliminate_exists_rel(
    r: str, f: Formula, steps: list[TraceStep], arity: int
) -> tuple[Optional[Formula], Optional[str]]:
    """Eliminate ``Ex2 r`` from ``f`` by the Ackermann rewrite; returns
    (result, None) or (None, reason).  A relation's conjuncts are normalized
    and its definition may mention it positively (fixpoint form); a
    propositional variable's are only put in NNF, and its definition never
    mentions it, because expansion is its complete fallback."""
    if arity and not _occurs_outside_fixpoints(f, r):
        return None, f"{r} occurs only inside fixpoint literals; elimination not attempted"
    g = normalize(f) if arity else nnf(f)
    avoid = all_names(f) if arity else set()
    ext = _select_extraction(r, conjuncts(g), avoid, arity)
    if ext is None:
        return None, f"mixed-polarity occurrences of {r} not separable"
    if g != f:
        steps.append(TraceStep("NNF", f, g))
    pvars = tuple(Var(p) for p in ext.params)
    head = Atom(r, pvars) if arity else PropVar(r)
    if ext.artificial:
        impl = Implies(head, TOP) if ext.positive_case else Implies(BOT, head)
        taut = forall(list(ext.params), impl)
        steps.append(
            TraceStep(
                "ArtificialConjunct",
                lambda: Exists2(r, g),
                lambda: Exists2(r, conj([taut, g])),
            )
        )
    e = ext.a
    if ext.needs_fixpoint:
        e = (Gfp if ext.positive_case else Lfp)(r, ext.params, e, pvars)
    residual = conj(ext.residual)
    raw = substitute_rel(residual, r, ext.params, e)
    rule = "AckermannPos" if ext.positive_case else "AckermannNeg"
    steps.append(TraceStep(rule, lambda: Exists2(r, g), raw))
    out = simplify(raw)
    if out is not raw:
        steps.append(TraceStep("Simplify", raw, out))
    return out, None


def _expand(p: str, f: Formula, steps: list[TraceStep], universal: bool) -> Formula:
    """Two-point expansion of ``All2 p`` (``universal``) or ``Ex2 p``:
    ``f(p=F) & f(p=T)`` or ``f(p=F) | f(p=T)``, simplified."""
    halves = [substitute_prop(f, p, BOT), substitute_prop(f, p, TOP)]
    if universal:
        raw = conj(halves)
        steps.append(TraceStep("ShannonForall", lambda: Forall2(p, f), raw))
    else:
        raw = disj(halves)
        steps.append(TraceStep("ShannonExists", lambda: Exists2(p, f), raw))
    out = simplify(raw)
    if out is not raw:
        steps.append(TraceStep("Simplify", raw, out))
    return out


def _eliminate_forall_conjunct(
    c: Formula, forget: Sequence[str], arities: dict[str, int], steps: list[TraceStep]
) -> tuple[Formula, Optional[str]]:
    """Eliminate ``All2`` of the symbols of ``forget`` that occur in the
    conjunct ``c``: all of them in one pass of the clause rule, else one at
    a time by the Ackermann rewrite on ``~c`` and expansion of a
    propositional variable.  Returns (result, None), or the conjunct as far
    as it got and the reason a relation failed.

    The symbols present in ``c`` are read from its clause view when every
    disjunct is a literal; only another conjunct takes a vocabulary walk."""
    view = _clause(c)
    lits = view[2]
    present = free_symbols(c) if None in lits else {lit[0] for lit in lits}
    pending = [s for s in forget if s in present]
    if not pending:
        return c, None
    fast = _clause_rule(view, tuple(pending))
    if fast is not None:
        # nothing is left to eliminate: the driver's last simplification
        # serves this conjunct too
        steps.append(TraceStep("ClauseRule", lambda: forall2(pending, c), fast))
        return fast, None
    cur = c
    for i, s in enumerate(pending):
        if s not in present:
            continue
        # All2 s C == ~ Ex2 s ~C; strip the leading existential prefix so the
        # definitional shapes can be recognized under it
        prefix, matrix = _strip_exists(nnf(Not(cur)))
        inner: list[TraceStep] = []
        res, reason = _eliminate_exists_rel(s, matrix, inner, arities[s])
        if res is not None:
            out = simplify(nnf(Not(exists(prefix, res))))
            rule = next(t.rule for t in inner if t.rule.startswith("Ackermann"))
            # the loop rebinds s and cur, so the step binds this pass's now
            steps.append(TraceStep(rule, lambda s=s, cur=cur: Forall2(s, cur), out))
        elif arities[s]:
            return cur, reason
        else:
            out = _expand(s, cur, steps, universal=True)
        cur = out
        if i + 1 < len(pending):
            present = free_symbols(cur)
    return cur, None


# ---------------------------------------------------------------------------
# Drivers


@nesting_guard
def forget_strong(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Strong (standard) forgetting: eliminate ``Ex2 s`` for each symbol of
    ``forget``; the result is over the remaining vocabulary and equivalent
    to the existentially quantified theory.

    Relations are eliminated in the order of ``forget``, and a propositional
    variable never passes a relation listed before it or follows one listed
    after it.  Within those bounds the variables go one at a time, each time
    the one in the fewest current conjuncts, ties in the order of
    ``forget``.

    Each step miniscopes, ``Ex2 s.(A & B) = A & Ex2 s.B`` when ``s`` does not
    occur in ``A``: only ``B``, the conjuncts that mention ``s``, is rewritten,
    and its result takes the place of the first of them; the conjuncts of
    ``A`` stay the same objects.  A symbol is eliminated by the Ackermann
    rewrite, then a propositional variable by two-point expansion and a
    relation by the fixpoint form.  A failure on one symbol reports the
    partial progress over the previous ones.  One simplification of the
    whole result follows."""
    arities: dict[str, int] = {}
    parts = [(c, free_symbols(c, arities)) for c in conjuncts(simplify(th.as_formula))]
    return _forget_strong(parts, forget, arities)


def _forget_strong(
    parts: list[tuple[Formula, dict[str, int]]], forget: Sequence[str], arities: dict[str, int]
) -> EliminationOutcome:
    """:func:`forget_strong` on ``parts``, the simplified conjuncts each with
    its free symbols, whose walks gave ``arities``, each symbol's arity, 0
    for a propositional variable."""
    steps: list[TraceStep] = []
    pending = list(forget)
    while pending:
        # the propositional variables ahead of the next relation, else that
        # relation; min keeps the caller's order among ties
        lead = next((i for i, s in enumerate(pending) if arities.get(s)), len(pending))
        s = pending[0]
        if lead > 1:
            s = min(pending[:lead], key=lambda v: sum(v in syms for _, syms in parts))
        pending.remove(s)
        hit = [i for i, (_, syms) in enumerate(parts) if s in syms]
        if not hit:
            continue  # forgetting an absent symbol is the identity
        body = conj([parts[i][0] for i in hit])
        out, reason = _eliminate_exists_rel(s, body, steps, arities[s])
        if out is None:
            if arities[s]:
                return failure(reason, steps, residual=conj([c for c, _ in parts]))
            out = _expand(s, body, steps, universal=False)
        rest = [part for part in parts if s not in part[1]]
        new = [(c, free_symbols(c, arities)) for c in conjuncts(out)]
        parts = rest[: hit[0]] + new + rest[hit[0]:]
    f = conj([c for c, _ in parts])
    out = simplify(f)
    if out is not f:
        steps.append(TraceStep("Simplify", f, out))
    return success(out, steps)


@nesting_guard
def forget_weak(th: Theory, forget: Sequence[str]) -> EliminationOutcome:
    """Weak forgetting: distribute ``All2`` over conjuncts and eliminate per
    conjunct, the propositional variables first, then the relations, each
    in the given order: the clause rule over all of them at once, else per
    symbol the Ackermann rewrite on the negated existential form (a
    relation's with its fixpoint generalization), then expansion of a
    propositional variable."""
    return _forget_weak(th, forget, free_symbols(th.as_formula))


def _forget_weak(th: Theory, forget: Sequence[str], arities: dict[str, int]) -> EliminationOutcome:
    """:func:`forget_weak`, given the free symbols of ``th`` with their
    arities."""
    steps: list[TraceStep] = []
    present = [s for s in forget if s in arities]
    if not present:
        return success(simplify(th.as_formula), steps)
    items: list[Formula] = []
    for formula in th.formulas:
        items.extend(conjuncts(normalize(simplify(formula))))
    if len(items) > 1:
        steps.append(
            TraceStep(
                "DistributeForall",
                lambda: forall2(present, conj(items)),
                lambda: conj([forall2(present, c) for c in items]),
            )
        )
    order = sorted(present, key=lambda s: arities[s] > 0)
    results: list[Formula] = []
    for idx, c in enumerate(items):
        cur, reason = _eliminate_forall_conjunct(c, order, arities, steps)
        if reason is not None:
            return failure(f"conjunct {idx + 1} ({cur!r}): {reason}", steps, residual=conj(items))
        results.append(cur)
    raw = conj(results)
    out = simplify(raw)
    if out is not raw:
        steps.append(TraceStep("Simplify", raw, out))
    return success(out, steps)


@nesting_guard
def snc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Strongest necessary condition of ``query`` on the ``keep`` vocabulary
    under ``th``: strong forgetting of the complementary vocabulary in
    ``th & query``.  Strong forgetting's walks of the conjuncts give the
    symbols to forget; one that simplification removed is absent, and
    forgetting it would be the identity."""
    arities: dict[str, int] = {}
    f = simplify(conj(th.formulas + (query,)))
    parts = [(c, free_symbols(c, arities)) for c in conjuncts(f)]
    kept = set(keep)
    return _forget_strong(parts, [s for s in sorted(arities) if s not in kept], arities)


@nesting_guard
def wsc(th: Theory, query: Formula, keep: Sequence[str]) -> EliminationOutcome:
    """Weakest sufficient condition of ``query`` on the ``keep`` vocabulary
    under ``th``: weak forgetting of the complementary vocabulary in
    ``th -> query``.  One vocabulary walk of ``th -> query`` gives both the
    symbols to forget and their arities."""
    body = Implies(th.as_formula, query) if th.formulas else query
    arities = free_symbols(body)
    kept = set(keep)
    forget = [s for s in sorted(arities) if s not in kept]
    return _forget_weak(Theory(th.name, (body,)), forget, arities)


def _partition(th: Theory, query: Formula, keep: Sequence[str]) -> list[str]:
    """The symbols of ``th`` and ``query`` outside ``keep``, sorted: the
    symbols the command line's ``--verify`` spec quantifies."""
    kept = set(keep)
    return [s for s in sorted(free_symbols(conj([th.as_formula, query]))) if s not in kept]
