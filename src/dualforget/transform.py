"""Rewriting primitives: fresh names, substitution, NNF, and the simplifier."""

from __future__ import annotations

import operator
from itertools import chain
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence, Union

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
    _vocabulary,
    all_names,
    children,
    conj,
    disj,
    ind_binders,
    rebuild,
    reshape,
    so_binder,
    terms_of,
)


class NameGen:
    """Deterministic fresh-name supply: ``x, x_1, x_2, ...`` skipping an
    avoid set, which is read at the first fresh name (so it may be a lazy
    iterable).  Confine one instance to a single elimination request."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._pending: Optional[Iterable[str]] = avoid
        self._avoid: set[str] = set()

    def fresh(self, base: str) -> str:
        if self._pending is not None:
            self._avoid.update(self._pending)
            self._pending = None
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
# Capture-avoiding substitution
#
# One walk, ``_rename``, serves every substitution and is the only one that
# knows about binders.  It replaces free individual variables by terms and
# free occurrences of one symbol by instances of a formula.  A binder that
# would capture takes a fresh name where the walk meets it, before its body.

#: a memo for one call of a walk: ``id(node)`` -> ``(node, result)``; the
#: node is kept so that its id is not reused within the call
_Memo = dict[int, tuple[Formula, Formula]]

#: the nodes that bind no name and hold no term
_CONNECTIVES = frozenset((Not, And, Or, Implies, Iff))


def _terms_sub(ts: tuple[Term, ...], m: Mapping[str, Term]) -> tuple[Term, ...]:
    """``ts`` with ``m`` applied; the same tuple when no term changes."""
    if not m:
        return ts
    out = tuple(m.get(t.name, t) if type(t) is Var else t for t in ts)
    return ts if out == ts else out


def _without(m: dict, names: Iterable[str]) -> dict:
    """``m`` less the keys ``names``; ``m`` itself when it has none of them."""
    drop = [n for n in names if n in m]
    return {k: v for k, v in m.items() if k not in drop} if drop else m


@nesting_guard
def subst_terms(f: Formula, mapping: Mapping[str, Term], ng: Optional[NameGen] = None) -> Formula:
    """Simultaneously replace free individual variables by terms, renaming
    bound variables where they would capture an inserted variable."""
    if not mapping:
        return f
    if ng is None:
        ng = NameGen(all_names(f) | {t.name for t in mapping.values()} | set(mapping))
    return _rename(f, dict(mapping), ng)


def _rename(f: Formula, terms: dict[str, Term], ng: Optional[NameGen], r: Optional[str] = None,
            params: tuple[str, ...] = (), e: Formula = TOP) -> Formula:
    """Replace the free individual variables of ``terms`` by their terms
    and, given ``r``, each free ``r(args)`` by ``e`` with ``params`` put to
    ``args``; ``f`` itself when no ``r`` is free in it.  In pre-order, a
    binder that would capture a variable of an inserted term, or a name
    ``e`` uses freely beyond ``r`` and ``params``, takes a fresh name, and
    its bound occurrences follow it.  A fixpoint's relation is renamed as
    an ``Ex2``'s symbol is.  Fresh names come from ``ng``, or if it is None
    from a supply avoiding the names of ``f``, ``e`` and ``params``.  An
    instance of ``e`` is made by a walk of its own.  Under the starting
    maps each node object is rewritten once."""
    memo: _Memo = {}
    # the scope the walk is in: ``terms``, new names for symbols, the symbol
    # to replace (None under a binder of it), and whether these are the
    # starting maps, under which the memo holds; a binder sets and restores it
    syms: dict[str, str] = {}
    sub = r
    at_start = True
    # the names of ``e`` a binder must not capture, read at the first
    # binder: most substitutions meet none
    clash_vars: Optional[AbstractSet[str]] = None if r is not None else frozenset()
    clash_syms: AbstractSet[str] = frozenset()
    inserted = False

    def names() -> NameGen:
        nonlocal ng
        if ng is None:  # made at the first need, and reads its names later
            ng = NameGen(chain(params, chain.from_iterable(map(all_names, (f, e)))))
        return ng

    def instance(args: tuple[Term, ...]) -> Formula:
        nonlocal inserted
        if len(args) != len(params):
            raise ArityError(f"{r} used with {len(args)} arguments, "
                             f"substitution expects {len(params)}")
        inserted = True
        return _rename(e, dict(zip(params, args)), names()) if args else e

    def walk(g: Formula) -> Formula:
        kind = type(g)
        if kind is PropVar:
            if g.name == sub:
                return instance(())
            return PropVar(syms[g.name]) if g.name in syms else g
        if kind is Atom:
            ts = _terms_sub(g.args, terms)
            if g.rel == sub:
                return instance(ts)
            rel = syms.get(g.rel, g.rel)
            return g if rel is g.rel and ts is g.args else Atom(rel, ts)
        kids = children(g)
        if not kids:  # a truth constant or an equation
            ts = terms_of(g)
            new_ts = _terms_sub(ts, terms)
            return g if new_ts is ts else reshape(g, None, (), (), new_ts)
        if at_start:
            hit = memo.get(id(g))
            if hit is not None:
                return hit[1]
        # the connectives first, as the commonest nodes: no binder logic
        out = rebuild(g, [walk(k) for k in kids]) if kind in _CONNECTIVES else binder(g, kids)
        if at_start:
            memo[id(g)] = (g, out)
        return out

    def binder(g: Formula, kids: tuple[Formula, ...]) -> Formula:
        # the general case is a fixpoint: it binds a symbol and variables in
        # its body and holds terms outside it
        nonlocal terms, syms, sub, at_start, clash_vars, clash_syms
        if clash_vars is None:
            vocab = _vocabulary(e)  # one walk for both clash sets
            clash_vars = vocab.ind_vars - set(params)
            clash_syms = vocab.symbols.keys() - {r}
        outer = terms, syms, sub, at_start
        sym = new_sym = so_binder(g)
        if sym is not None:
            syms = _without(syms, (sym,))
            if sym == sub:
                sub = None
            elif sym in clash_syms:
                new_sym = names().fresh(sym)
                syms = {**syms, sym: new_sym}
        vs = ind_binders(g)
        terms = _without(terms, vs)
        capture = clash_vars | {t.name for t in terms.values() if type(t) is Var} if vs else ()
        new_vs = tuple(names().fresh(v) if v in capture else v for v in vs)
        renamed = {v: Var(n) for v, n in zip(vs, new_vs) if n != v}
        if renamed:
            terms = {**terms, **renamed}
        at_start = at_start and terms is outer[0] and syms is outer[1] and sub is outer[2]
        if terms or syms or sub or clash_vars or clash_syms:
            new_kids = [walk(k) for k in kids]
        else:  # nothing left to do below
            new_kids = kids
        terms, syms, sub, at_start = outer
        ts = terms_of(g)
        new_ts = _terms_sub(ts, terms)
        if new_sym is sym and not renamed and new_ts is ts:
            return rebuild(g, new_kids)
        return reshape(g, new_sym, new_vs, new_kids, new_ts)

    out = walk(f)
    # renamed binders alone make no new formula
    return f if r is not None and not inserted else out


@nesting_guard
def substitute_prop(f: Formula, p: str, e: Formula) -> Formula:
    """Replace every free occurrence of propositional variable ``p`` by
    ``e``: :func:`substitute_rel` without parameters."""
    return substitute_rel(f, p, (), e)


@nesting_guard
def substitute_rel(f: Formula, r: str, params: Sequence[str], e: Formula) -> Formula:
    """Replace every free occurrence ``r(args)`` by ``e`` with ``params``
    simultaneously instantiated to ``args``; a propositional variable is the
    case without parameters.

    An occurrence under a second-order quantifier or fixpoint of ``r`` is
    not free and stays.  ``params`` must be pairwise distinct, else
    :class:`CaptureError`.  Capture-avoiding both ways, in one walk
    (:func:`_rename`): a binder of ``f`` that would capture a name ``e``
    uses freely beyond ``params``, a fixpoint's relation too, is renamed
    where the walk meets it, even with no ``r`` below it (the definition
    may be guarded by variables of an enclosing prefix); an instance of
    ``e`` renames its binders that would capture a variable of the
    occurrence's arguments.  A subtree shared in ``f`` is rewritten once
    and stays shared; one without ``r`` or such a binder stays itself."""
    params = tuple(params)
    if len(set(params)) != len(params):
        raise CaptureError(f"parameter variables must be distinct: {params}")

    return _rename(f, {}, None, r, params, e)


# ---------------------------------------------------------------------------
# Negation normal form


#: each quantifier's dual; the keys are the quantifiers, which bind one name
_DUAL = {ForallInd: ExistsInd, ExistsInd: ForallInd, Forall2: Exists2, Exists2: Forall2}


#: the nodes NNF keeps whole: a literal is one of them or its negation
_ATOMIC = frozenset((PropVar, Atom, Equal, Lfp, Gfp))


@nesting_guard
def nnf(f: Formula) -> Formula:
    """Negation normal form: ``->``/``<->`` expanded, negation pushed to
    literals, double negations removed, quantifiers dualized.

    Applied fixpoint literals are treated as atomic (they are outputs of
    elimination, not rewritten).  A negated atom comes back as the same
    object, and so does a subtree that is in flattened NNF already.  ``A ->
    B`` and ``A <-> B`` are rewritten from the NNF of their operands, as
    ``~A | B`` and ``(~A | B) & (A | ~B)``, without building those formulas
    first.

    The walk dispatches on the exact node type, the commonest first: node
    classes are final, so ``type(f) is X`` decides what ``isinstance``
    would."""
    return _nnf(f, False)


def _nnf(f: Formula, neg: bool) -> Formula:
    kind = type(f)
    if kind is PropVar:
        return Not(f) if neg else f
    if kind is Not:
        b = f.body
        if type(b) in _ATOMIC:
            return b if neg else f
        return _nnf(b, not neg)
    if kind is And:
        items = [_nnf(it, neg) for it in f.items]
        if neg:
            return disj(items)
        return f if _unchanged(items, f.items, And) else conj(items)
    if kind is Or:
        items = [_nnf(it, neg) for it in f.items]
        if neg:
            return conj(items)
        return f if _unchanged(items, f.items, Or) else disj(items)
    if kind in _ATOMIC:
        return Not(f) if neg else f
    if kind is Implies:
        # ~(A -> B) is A & ~B
        a, b = _nnf(f.antecedent, not neg), _nnf(f.consequent, neg)
        return conj([a, b]) if neg else disj([a, b])
    if kind is Iff:
        # ~(A <-> B) is (A & ~B) | (~A & B)
        na, pb = _nnf(f.left, True), _nnf(f.right, False)
        pa, nb = _nnf(f.left, False), _nnf(f.right, True)
        if neg:
            return disj([conj([pa, nb]), conj([na, pb])])
        return conj([disj([na, pb]), disj([pa, nb])])
    if kind is Top:
        return BOT if neg else TOP
    if kind is Bottom:
        return TOP if neg else BOT
    dual = _DUAL.get(kind)
    if dual is None:
        raise InternalError(f"unhandled formula in nnf: {type(f).__name__}")
    body = _nnf(f.body, neg)
    if not neg and body is f.body:
        return f
    return (dual if neg else kind)(so_binder(f) or ind_binders(f)[0], body)


def _unchanged(items: list[Formula], old: tuple[Formula, ...], kind: type) -> bool:
    """Whether ``items`` are the objects ``old`` and none of them is a
    ``kind``: then ``conj``/``disj`` would rebuild the node it came from
    equal."""
    return all(map(operator.is_, items, old)) and kind not in map(type, items)


# ---------------------------------------------------------------------------
# Simplifier
#
# A fixed, terminating, local rule set, applied in one bottom-up pass.  The
# full rule list (everything the simplifier ever does):
#
#   truth constants    T&A=A  F|A=A  T|A=T  F&A=F  ~T=F  ~F=T
#                      T->A=A  A->T=T  F->A=T  A->F=~A
#                      A<->T=A  T<->A=A  A<->F=~A  F<->A=~A
#   double negation    ~~A=A
#   idempotence        A&A=A  A|A=A          (order-preserving dedup)
#   complements        A&~A=F  A|~A=T        (within one level)
#   absorption         A&(A|B)=A  A|(A&B)=A  (within one level)
#   reflexivity        A->A=T  A<->A=T  t=t -> T
#   symmetry           within one level, b=a counts as a=b for idempotence,
#                      complements and absorption: a=b | ~(b=a) = T,
#                      a=b & b=a = a=b; neither side is rewritten
#   vacuous binders    (all x. A)=A when x not free in A; same for ex,
#                      All2/Ex2 when the symbol does not occur
#   flattening         nested &/& and |/| merged
#
# Every step dispatches on the exact node type, the commonest first, with
# ``type(f) is X`` in place of a chain of ``isinstance`` tests.  That is
# sound because node classes are final: no class derives from one.  The
# n-ary step recognizes ``T`` and ``F`` by their type, so ``Top()`` and
# ``Bottom()`` count as the constants without a structural ``==``.  It
# flattens while it simplifies and stops at the first absorbing constant.
# Each item is hashed once: added to the level's set, it is new when the
# set grew.  An equality's flip joins the set beside it.  Absorption looks
# for another item among the items of an inner disjunction (conjunction),
# which can never meet the item itself: no node contains a node equal to
# itself.
#
# No tautology checking beyond these local rules: outputs stay predictable
# and traces honest.  Golden comparisons go through the oracle instead.
#
# One pass reaches the fixpoint.  Every rule builds its node from children
# that are already simplified, and what it builds is one no rule applies to
# again: a flattened level is deduplicated, and checked for complements and
# absorption against all of its items, so the subset it keeps passes the
# same checks; ``~~A`` and the vacuous binders return a child as it is.  A
# pass returns each node itself when no rule fires at or below it, so an
# unchanged formula comes back as the same object, with its cached hash.
#
# A memo for the one call, keyed on node identity, simplifies a subtree that
# is shared (as in a two-point expansion ``F[p:=F] | F[p:=T]``) once.  Each
# entry keeps the node beside its result, so the id of a temporary such as
# ``Not(a)`` cannot be reused by another node within the call.  Leaves and
# negated atoms are not memoized: looking one up costs more than rewriting
# it, and no rule rewrites them.


@nesting_guard
def simplify(f: Formula) -> Formula:
    return _simp(f, {})


#: the types of the nodes no rule rewrites
_LEAVES = frozenset((Top, Bottom, PropVar, Atom))


def _simp(f: Formula, memo: _Memo) -> Formula:
    kind = type(f)
    if kind in _LEAVES:
        return f
    if kind is Not:
        kb = type(f.body)
        if kb is PropVar or kb is Atom:
            return f
    elif kind is Equal:
        return TOP if f.left == f.right else f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    out = _rewrite(f, memo)
    memo[id(f)] = (f, out)
    return out


def _rewrite(f: Formula, memo: _Memo) -> Formula:
    kind = type(f)
    if kind is And:
        return _simp_nary(f, True, memo)
    if kind is Or:
        return _simp_nary(f, False, memo)
    if kind is Not:
        b = _simp(f.body, memo)
        kb = type(b)
        if kb is Top:
            return BOT
        if kb is Bottom:
            return TOP
        if kb is Not:
            return b.body
        return f if b is f.body else Not(b)
    if kind is Implies:
        a = _simp(f.antecedent, memo)
        b = _simp(f.consequent, memo)
        ka, kb = type(a), type(b)
        if ka is Top:
            return b
        if ka is Bottom or kb is Top:
            return TOP
        if kb is Bottom:
            return _simp(Not(a), memo)
        if a == b:
            return TOP
        return f if a is f.antecedent and b is f.consequent else Implies(a, b)
    if kind is Iff:
        a = _simp(f.left, memo)
        b = _simp(f.right, memo)
        ka, kb = type(a), type(b)
        if ka is Top:
            return b
        if kb is Top:
            return a
        if ka is Bottom:
            return _simp(Not(b), memo)
        if kb is Bottom:
            return _simp(Not(a), memo)
        if a == b:
            return TOP
        return f if a is f.left and b is f.right else Iff(a, b)
    # the rest bind names in their body: a quantifier whose name does not
    # occur free there is vacuous; a fixpoint is a literal and stays
    b = _simp(f.body, memo)
    if kind in _DUAL:
        sym = so_binder(f)
        vocab = _vocabulary(b)
        if (sym or f.var) not in (vocab.ind_vars if sym is None else vocab.symbols):
            return b
    return f if b is f.body else rebuild(f, [b])


def _simp_nary(f: Union[And, Or], is_and: bool, memo: _Memo) -> Formula:
    absorbing, neutral, inner = (BOT, Top, Or) if is_and else (TOP, Bottom, And)
    absorbing_type, level = type(absorbing), type(f)
    kept: list[Formula] = []
    seen: set[Formula] = set()
    for it in f.items:
        s = _simp(it, memo)
        kind = type(s)
        if kind is absorbing_type:
            return absorbing
        if kind is neutral:
            continue
        # a simplified level of the same connective holds no constants
        for x in s.items if kind is level else (s,):
            n = len(seen)
            seen.add(x)
            if len(seen) > n:
                kept.append(x)
                if type(x) is Equal:
                    # ``b = a`` is ``a = b``: the flip makes it a duplicate
                    # and ``~(b = a)`` a complement
                    seen.add(Equal(x.right, x.left))
    # complements within this level: one of a complementary pair is the
    # negation of the other
    if any(type(s) is Not and s.body in seen for s in kept):
        return absorbing
    # absorption: inside a conjunction, drop any disjunction containing
    # another conjunct (dually for disjunctions)
    result = [s for s in kept if type(s) is not inner or seen.isdisjoint(s.items)]
    if len(result) == len(f.items) and all(map(operator.is_, result, f.items)):
        return f
    return conj(result) if is_and else disj(result)
