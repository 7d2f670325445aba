"""Term and formula data model, signatures, theories, and vocabulary queries.

Formulas are immutable trees.  ``And``/``Or`` are n-ary and flattened at
construction time (use :func:`conj` / :func:`disj`, which also collapse the
empty and singleton cases), so pattern matching in the elimination engines
sees whole conjunct/disjunct sets.  Applied fixpoint literals carry their own
argument binders and are checked positive in the bound relation when built.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, NamedTuple, Optional, Sequence

from .errors import ArityError, InternalError, nesting_guard


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class for terms: individual variables and constants."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Term):
    name: str


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for all formula constructors."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        # Computed once per node: the engines hash the same immutable
        # subtrees again and again (simplifier dedup, set membership), and
        # the uncached hash walks the whole subtree.
        try:
            return self._hash
        except AttributeError:
            h = self._field_hash()
            object.__setattr__(self, "_hash", h)
            return h

    def __and__(self, other: "Formula") -> "Formula":
        return conj([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disj([self, other])

    def __invert__(self) -> "Formula":
        return Not(self)

    def __repr__(self) -> str:  # defined in printer to avoid a cycle at import
        from .printer import format_formula

        return format_formula(self)


def _node(cls):
    """Declare a formula node: a frozen, slotted dataclass whose generated
    hash of the field tuple is computed once, by :meth:`Formula.__hash__`.
    A node class is final: the walkers dispatch on ``type(g) is X``, which
    a subclass would slip past."""
    cls = dataclass(frozen=True, slots=True, repr=False)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Top(Formula):
    pass


@_node
class Bottom(Formula):
    pass


@_node
class PropVar(Formula):
    name: str


@_node
class Atom(Formula):
    rel: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@_node
class Equal(Formula):
    left: Term
    right: Term


@_node
class Not(Formula):
    body: Formula


@_node
class And(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise InternalError("And requires >= 2 conjuncts; use conj()")


@_node
class Or(Formula):
    items: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 2:
            raise InternalError("Or requires >= 2 disjuncts; use disj()")


@_node
class Implies(Formula):
    antecedent: Formula
    consequent: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class ForallInd(Formula):
    var: str
    body: Formula


@_node
class ExistsInd(Formula):
    var: str
    body: Formula


@_node
class Forall2(Formula):
    """Second-order universal quantifier over a propositional variable or
    relation symbol."""

    sym: str
    body: Formula


@_node
class Exists2(Formula):
    sym: str
    body: Formula


class _FixpointBase(Formula):
    """What :class:`Lfp` and :class:`Gfp` share: the fields are normalized
    and checked when a node is built."""

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "argvars", tuple(self.argvars))
        object.__setattr__(self, "applied", tuple(self.applied))
        if len(set(self.argvars)) != len(self.argvars):
            raise InternalError(f"fixpoint argument variables must be distinct: {self.argvars}")
        if len(self.argvars) != len(self.applied):
            raise ArityError(
                f"fixpoint over {self.rel} applied to {len(self.applied)} arguments, "
                f"declares {len(self.argvars)}"
            )
        if polarity(self.body, self.rel) not in (Polarity.POSITIVE, Polarity.ABSENT):
            raise InternalError(f"fixpoint body must be positive in {self.rel}")


@_node
class Lfp(_FixpointBase):
    """Applied least-fixpoint literal ``lfp rel(argvars). body @(applied)``.

    ``argvars`` bind inside ``body``; ``applied`` are the actual arguments of
    this occurrence.  The body must be positive in ``rel`` (monotonicity, so
    the fixpoint exists)."""

    rel: str
    argvars: tuple[str, ...]
    body: Formula
    applied: tuple[Term, ...]


@_node
class Gfp(_FixpointBase):
    """Applied greatest-fixpoint literal; see :class:`Lfp`."""

    rel: str
    argvars: tuple[str, ...]
    body: Formula
    applied: tuple[Term, ...]


TOP = Top()
BOT = Bottom()


def conj(items: Iterable[Formula]) -> Formula:
    """N-ary conjunction with construction-time flattening.

    Empty -> TOP, singleton -> the item itself."""
    flat: list[Formula] = []
    for it in items:
        if type(it) is And:
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return TOP
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(items: Iterable[Formula]) -> Formula:
    """N-ary disjunction with construction-time flattening.

    Empty -> BOT, singleton -> the item itself."""
    flat: list[Formula] = []
    for it in items:
        if type(it) is Or:
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return BOT
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def forall(vars: Sequence[str], body: Formula) -> Formula:
    for v in reversed(vars):
        body = ForallInd(v, body)
    return body


def exists(vars: Sequence[str], body: Formula) -> Formula:
    for v in reversed(vars):
        body = ExistsInd(v, body)
    return body


def forall2(syms: Sequence[str], body: Formula) -> Formula:
    for s in reversed(syms):
        body = Forall2(s, body)
    return body


def exists2(syms: Sequence[str], body: Formula) -> Formula:
    for s in reversed(syms):
        body = Exists2(s, body)
    return body


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.items if type(f) is And else (f,)


def disjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.items if type(f) is Or else (f,)


def literal(d: Formula) -> Optional[tuple[str, bool, tuple[Term, ...]]]:
    """The literal view of ``d``: ``(symbol, sign, args)`` for an atom or a
    propositional variable (``args == ()``) under any number of negations,
    positive when their number is even; ``None`` for any other formula."""
    sign = True
    kind = type(d)
    while kind is Not:
        d = d.body
        kind = type(d)
        sign = not sign
    if kind is PropVar:
        return d.name, sign, ()
    if kind is Atom:
        return d.rel, sign, d.args
    return None


# ---------------------------------------------------------------------------
# Signature / theory


@dataclass(frozen=True)
class Signature:
    """Declared vocabulary: propositional variables, relation symbols with
    arities, and constants."""

    prop_vars: frozenset[str] = frozenset()
    relations: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = frozenset()

    def merge(self, other: "Signature") -> "Signature":
        rels = dict(self.relations)
        for name, arity in other.relations.items():
            if rels.setdefault(name, arity) != arity:
                raise ArityError(
                    f"relation {name} declared with arities {rels[name]} and {arity}"
                )
        return Signature(
            self.prop_vars | other.prop_vars, rels, self.constants | other.constants
        )

    @property
    def symbols(self) -> frozenset[str]:
        return self.prop_vars | frozenset(self.relations)


@dataclass(frozen=True)
class Theory:
    """A named finite sequence of formulas, read conjunctively."""

    name: str
    formulas: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))

    @property
    def as_formula(self) -> Formula:
        return conj(self.formulas)


# ---------------------------------------------------------------------------
# Traversal
#
# Four views are the one statement of the tree's shape: ``children``, the
# terms a node holds outside its body (``terms_of``), and the two kinds of
# name a node binds in its body: a symbol (``so_binder``) and individual
# variables (``ind_binders``).  ``rebuild`` and ``reshape`` put a node back
# together from them.  A walker handles the node types it treats specially
# and reaches every other node, and every bound name and term, through them.


_CHILDREN = {
    **dict.fromkeys((Top, Bottom, PropVar, Atom, Equal), lambda g: ()),
    **dict.fromkeys(
        (Not, ForallInd, ExistsInd, Forall2, Exists2, Lfp, Gfp), lambda g: (g.body,)
    ),
    And: operator.attrgetter("items"),
    Or: operator.attrgetter("items"),
    Implies: lambda g: (g.antecedent, g.consequent),
    Iff: lambda g: (g.left, g.right),
}

_TERMS = {
    Atom: operator.attrgetter("args"),
    Equal: lambda g: (g.left, g.right),
    **dict.fromkeys((Lfp, Gfp), operator.attrgetter("applied")),
}

_SO_BINDER = {
    **dict.fromkeys((Forall2, Exists2), operator.attrgetter("sym")),
    **dict.fromkeys((Lfp, Gfp), operator.attrgetter("rel")),
}

_IND_BINDERS = {
    **dict.fromkeys((ForallInd, ExistsInd), lambda g: (g.var,)),
    **dict.fromkeys((Lfp, Gfp), operator.attrgetter("argvars")),
}

#: connectives: built from their children alone
_REBUILD = {
    Not: lambda g, kids: Not(*kids),
    And: lambda g, kids: conj(kids),
    Or: lambda g, kids: disj(kids),
    Implies: lambda g, kids: Implies(*kids),
    Iff: lambda g, kids: Iff(*kids),
}

#: the nodes that bind a name or hold terms, built from the views:
#: ``(g, symbol, variables, kids, terms)``
_RESHAPE = {
    Atom: lambda g, sym, vs, kids, ts: Atom(g.rel, ts),
    Equal: lambda g, sym, vs, kids, ts: Equal(*ts),
    **dict.fromkeys((ForallInd, ExistsInd), lambda g, sym, vs, kids, ts: type(g)(*vs, *kids)),
    **dict.fromkeys((Forall2, Exists2), lambda g, sym, vs, kids, ts: type(g)(sym, *kids)),
    **dict.fromkeys((Lfp, Gfp), lambda g, sym, vs, kids, ts: type(g)(sym, vs, *kids, ts)),
}


def children(g: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, left to right; terms are not formulas."""
    return _CHILDREN[type(g)](g)


def terms_of(g: Formula) -> tuple[Term, ...]:
    """The terms ``g`` holds outside its body: an atom's arguments, an
    equation's two sides, the arguments a fixpoint is applied to."""
    get = _TERMS.get(type(g))
    return () if get is None else get(g)


def so_binder(g: Formula) -> Optional[str]:
    """The symbol a second-order quantifier or fixpoint binds in its body."""
    get = _SO_BINDER.get(type(g))
    return None if get is None else get(g)


def ind_binders(g: Formula) -> tuple[str, ...]:
    """The individual variables a first-order quantifier or fixpoint binds
    in its body."""
    get = _IND_BINDERS.get(type(g))
    return () if get is None else get(g)


def rebuild(g: Formula, kids: Sequence[Formula]) -> Formula:
    """``g`` with its children replaced by ``kids``, every other field kept.

    Returns ``g`` itself when every kid is the old child, so an untouched
    subtree stays the same object, with its cached hash.  ``And``/``Or`` are
    rebuilt through :func:`conj`/:func:`disj`."""
    old = _CHILDREN[type(g)](g)
    if len(kids) == len(old) and all(map(operator.is_, kids, old)):
        return g
    build = _REBUILD.get(type(g))
    if build is None:
        return reshape(g, so_binder(g), ind_binders(g), kids, terms_of(g))
    return build(g, kids)


def reshape(g: Formula, sym: Optional[str], vs: Sequence[str], kids: Sequence[Formula],
            ts: Sequence[Term]) -> Formula:
    """A node of ``g``'s type whose :func:`so_binder`, :func:`ind_binders`,
    :func:`children` and :func:`terms_of` are ``sym``, ``vs``, ``kids`` and
    ``ts``; an atom keeps its relation.  Defined for the nodes that bind a
    name or hold terms."""
    return _RESHAPE[type(g)](g, sym, vs, kids, ts)


# ---------------------------------------------------------------------------
# Vocabulary queries
#
# Every question about the names a formula uses is answered by one walk,
# ``_vocabulary``.  Whether a name is free in a node depends only on the
# names bound above it, so the walk visits each node once per set of them.


class _Vocabulary(NamedTuple):
    """What one walk of a formula learns about its names: each free symbol
    with the arity of its first free use, in pre-order; the free individual
    variables; the constants; the names binders bind; the types met,
    connectives, truth constants and PropVar aside."""

    symbols: dict[str, int]
    ind_vars: AbstractSet[str]
    consts: AbstractSet[str]
    bound: AbstractSet[str]
    kinds: AbstractSet[type]


def _vocabulary(f: Formula, known: Optional[dict[str, int]] = None) -> _Vocabulary:
    """The one vocabulary walk, pre-order, left to right, on its own stack.
    Given ``known``, arities by name, it checks each free use against it as
    met and extends it: the first use with another arity, or a relation
    applied to no arguments, raises :class:`ArityError`."""
    symbols: dict[str, int] = {}
    # made at the first node not a connective, truth constant or PropVar
    ind_vars = consts = binders = kinds = frozenset()
    # the scope: the symbols and the individual variables bound here, and
    # the ids of the nodes visited under exactly these names
    shadow = bound = frozenset()
    seen: set[int] = set()
    scopes = None
    stack: list = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is PropVar:
            name = g.name
            if name not in shadow:
                symbols.setdefault(name, 0)
                if known is not None and known.setdefault(name, 0):
                    raise ArityError(f"symbol {name} used with arities {known[name]} and 0")
            continue
        if kind is tuple:  # the end of a binder's body
            shadow, bound, seen = g
            continue
        if kind is Atom:  # a leaf: not worth a lookup in seen
            name, arity = g.rel, len(g.args)
            if known is not None and not arity:  # as in the parser: 0-ary is a PropVar
                raise ArityError(f"relation {name} applied to no arguments")
            if name not in shadow:
                symbols.setdefault(name, arity)
                if known is not None and known.setdefault(name, arity) != arity:
                    raise ArityError(f"symbol {name} used with arities {known[name]} and {arity}")
        else:
            if id(g) in seen:
                continue
            seen.add(id(g))
            # the connectives first, as the commonest nodes
            if kind is Not:
                stack.append(g.body)
                continue
            if kind is And or kind is Or:
                stack.extend(g.items[::-1])
                continue
            if kind is Implies or kind is Iff:
                stack.extend(_CHILDREN[kind](g)[::-1])
                continue
            if kind is Top or kind is Bottom:
                continue
        if not kinds:
            ind_vars, consts, binders, kinds = set(), set(), set(), set()
        kinds.add(kind)
        for t in g.args if kind is Atom else terms_of(g):
            if type(t) is Const:
                consts.add(t.name)
            elif t.name not in bound:
                ind_vars.add(t.name)
        if kind is Atom or kind is Equal:
            continue
        # a binder: its body is walked in the scope it makes
        if kind is ForallInd or kind is ExistsInd:  # the commonest, read directly
            sym, vs = None, (g.var,)
        else:
            sym, vs = so_binder(g), ind_binders(g)
        if scopes is None:
            scopes = {(shadow, bound): seen}
        stack.append((shadow, bound, seen))
        if sym is not None:
            binders.add(sym)
            if sym not in shadow:
                shadow = shadow | {sym}
        if vs:
            binders.update(vs)
            bound = bound.union(vs)
        seen = scopes.get((shadow, bound))
        if seen is None:
            seen = scopes[shadow, bound] = set()
        stack.append(g.body)
    return _Vocabulary(symbols, ind_vars, consts, binders, kinds)


def free_ind_vars(f: Formula) -> set[str]:
    """Free individual variables of a formula."""
    return set(_vocabulary(f).ind_vars)


def is_closed(f: Formula) -> bool:
    return not _vocabulary(f).ind_vars


def free_symbols(f: Formula, seen: Optional[dict[str, int]] = None) -> dict[str, int]:
    """The vocabulary of ``f``: each propositional variable (arity 0) and
    relation symbol occurring free, with its arity.  A name used with two
    arities, also as both kinds, or a relation applied to no arguments
    raises :class:`ArityError`; ``seen`` collects the arities of several
    formulas checked against each other.  A second-order quantifier or a
    fixpoint binds its symbol, so an occurrence under it is not free."""
    return _vocabulary(f, {} if seen is None else seen).symbols


def prop_symbols(f: Formula) -> set[str]:
    """Propositional variables occurring free; see :func:`free_symbols`."""
    return {name for name, arity in free_symbols(f).items() if not arity}


def rel_symbols(f: Formula) -> dict[str, int]:
    """Relation symbols occurring free, with arities; see :func:`free_symbols`."""
    return {name: arity for name, arity in free_symbols(f).items() if arity}


def const_symbols(f: Formula) -> set[str]:
    return set(_vocabulary(f).consts)


def all_names(f: Formula) -> set[str]:
    """Every identifier appearing anywhere (bound or free); used to pick
    fresh names."""
    v = _vocabulary(f)
    return v.symbols.keys() | v.ind_vars | v.consts | v.bound


def signature_of(*formulas: Formula, base: Optional[Signature] = None) -> Signature:
    """Signature inferred from symbol usage, optionally merged over a base.
    A name used with two arities, also as both kinds, raises
    :class:`ArityError`."""
    return _signature(formulas, base)[0]


def _signature(
    formulas: Iterable[Formula], base: Optional[Signature]
) -> tuple[Signature, list[_Vocabulary]]:
    """:func:`signature_of`, and the vocabulary of each formula."""
    base = base or Signature()
    known = {**dict.fromkeys(base.prop_vars, 0), **base.relations}
    vocabularies = [_vocabulary(f, known) for f in formulas]
    return Signature(
        frozenset(name for name, arity in known.items() if not arity),
        {name: arity for name, arity in known.items() if arity},
        base.constants.union(*(v.consts for v in vocabularies)),
    ), vocabularies


def contains_so_quantifier_and_fixpoint(f: Formula) -> tuple[bool, bool]:
    """Whether ``f`` holds a second-order quantifier, and a fixpoint."""
    kinds = _vocabulary(f).kinds
    return Forall2 in kinds or Exists2 in kinds, Lfp in kinds or Gfp in kinds


def is_propositional(f: Formula) -> bool:
    """True when the formula uses only truth constants, propositional
    variables, connectives, and second-order quantifiers: no node holds a
    term or binds an individual variable."""
    return _vocabulary(f).kinds.isdisjoint(_TERMS.keys() | _IND_BINDERS.keys())


# ---------------------------------------------------------------------------
# Polarity


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    ABSENT = "absent"


#: by whether an occurrence is positive, and whether one is negative
_POLARITY = {
    (True, True): Polarity.BOTH,
    (True, False): Polarity.POSITIVE,
    (False, True): Polarity.NEGATIVE,
    (False, False): Polarity.ABSENT,
}

#: how each child position of a connective turns the parity of an
#: occurrence: -1 flips it, 0 counts it both ways; other positions keep it
_CHILD_SIGNS = {Not: (-1,), Implies: (-1, 1), Iff: (0, 0)}


@nesting_guard
def polarity(f: Formula, sym: str) -> Polarity:
    """Polarity of a propositional variable or relation symbol in ``f``.

    Occurrences are classified after virtually expanding ``->`` and ``<->``:
    positive under an even number of negations, negative under odd.  Any
    occurrence inside a biconditional counts both ways.  Fixpoint literals
    are transparent (their bodies are positive in the bound relation, so an
    outer occurrence keeps the surrounding parity); bound symbols shadow.
    """
    found: set[int] = set()  # the parities of the occurrences
    seen: dict[int, set[int]] = {1: set(), -1: set(), 0: set()}  # ids, by parity

    def walk(g: Formula, par: int) -> None:
        # par: 1 positive context, -1 negative, 0 both
        kind = type(g)
        if kind is Not and type(g.body) in (PropVar, Atom):  # a literal: no lookup
            g, kind, par = g.body, type(g.body), -par
        if kind is PropVar or kind is Atom:
            if (g.name if kind is PropVar else g.rel) == sym:
                found.add(par)
            return
        if id(g) in seen[par]:
            return
        seen[par].add(id(g))
        bound = _SO_BINDER.get(kind)
        if bound is not None and bound(g) == sym:
            return  # shadowed
        signs = _CHILD_SIGNS.get(kind)
        if signs is None:
            for k in _CHILDREN[kind](g):
                walk(k, par)
        else:
            for k, sign in zip(_CHILDREN[kind](g), signs):
                walk(k, par * sign)

    walk(f, 1)
    return _POLARITY[bool(found & {1, 0}), bool(found & {-1, 0})]
