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
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import ArityError, InternalError

IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _check_ident(name: str) -> str:
    if not IDENT_RE.match(name):
        raise InternalError(f"not a valid identifier: {name!r}")
    return name


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
    hash of the field tuple is computed once, by :meth:`Formula.__hash__`."""
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
    __slots__ = ()


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

    def __post_init__(self):
        object.__setattr__(self, "argvars", tuple(self.argvars))
        object.__setattr__(self, "applied", tuple(self.applied))
        _check_fixpoint(self)


@_node
class Gfp(_FixpointBase):
    """Applied greatest-fixpoint literal; see :class:`Lfp`."""

    rel: str
    argvars: tuple[str, ...]
    body: Formula
    applied: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "argvars", tuple(self.argvars))
        object.__setattr__(self, "applied", tuple(self.applied))
        _check_fixpoint(self)


def _check_fixpoint(f: Union[Lfp, Gfp]) -> None:
    if len(set(f.argvars)) != len(f.argvars):
        raise InternalError(f"fixpoint argument variables must be distinct: {f.argvars}")
    if len(f.argvars) != len(f.applied):
        raise ArityError(
            f"fixpoint over {f.rel} applied to {len(f.applied)} arguments, "
            f"declares {len(f.argvars)}"
        )
    if polarity(f.body, f.rel) not in (Polarity.POSITIVE, Polarity.ABSENT):
        raise InternalError(f"fixpoint body must be positive in {f.rel}")


TOP = Top()
BOT = Bottom()


def conj(items: Iterable[Formula]) -> Formula:
    """N-ary conjunction with construction-time flattening.

    Empty -> TOP, singleton -> the item itself."""
    flat: list[Formula] = []
    for it in items:
        if isinstance(it, And):
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
        if isinstance(it, Or):
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
    return f.items if isinstance(f, And) else (f,)


def disjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.items if isinstance(f, Or) else (f,)


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
# ``children`` and ``rebuild`` are the one statement of the tree's shape.  A
# walker handles the node types it treats specially and reaches every other
# node through them.


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

_REBUILD = {
    Not: lambda g, kids: Not(*kids),
    And: lambda g, kids: conj(kids),
    Or: lambda g, kids: disj(kids),
    Implies: lambda g, kids: Implies(*kids),
    Iff: lambda g, kids: Iff(*kids),
    ForallInd: lambda g, kids: ForallInd(g.var, *kids),
    ExistsInd: lambda g, kids: ExistsInd(g.var, *kids),
    Forall2: lambda g, kids: Forall2(g.sym, *kids),
    Exists2: lambda g, kids: Exists2(g.sym, *kids),
    Lfp: lambda g, kids: Lfp(g.rel, g.argvars, *kids, g.applied),
    Gfp: lambda g, kids: Gfp(g.rel, g.argvars, *kids, g.applied),
}


def children(g: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, left to right; terms are not formulas."""
    return _CHILDREN[type(g)](g)


def rebuild(g: Formula, kids: Sequence[Formula]) -> Formula:
    """``g`` with its children replaced by ``kids``, every other field kept.

    Returns ``g`` itself when every kid is the old child, so an untouched
    subtree stays the same object, with its cached hash.  ``And``/``Or`` are
    rebuilt through :func:`conj`/:func:`disj`."""
    old = _CHILDREN[type(g)](g)
    if len(kids) == len(old) and all(map(operator.is_, kids, old)):
        return g
    return _REBUILD[type(g)](g, kids)


_SO_BINDER = {
    **dict.fromkeys((Forall2, Exists2), operator.attrgetter("sym")),
    **dict.fromkeys((Lfp, Gfp), operator.attrgetter("rel")),
}


def so_binder(g: Formula) -> Optional[str]:
    """The symbol a second-order quantifier or fixpoint binds in its body."""
    get = _SO_BINDER.get(type(g))
    return None if get is None else get(g)


# ---------------------------------------------------------------------------
# Vocabulary queries


def _subformulas(f: Formula) -> Iterator[Formula]:
    """Pre-order walk, ignoring binder structure."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(_CHILDREN[type(g)](g))


def free_ind_vars(f: Formula) -> set[str]:
    """Free individual variables of a formula."""
    return set(free_ind_vars_ordered(f))


def free_ind_vars_ordered(f: Formula) -> list[str]:
    """Free individual variables in order of first occurrence (left to right)."""
    out: list[str] = []
    seen: set[str] = set()

    def term(t: Term, bound: frozenset[str]) -> None:
        if isinstance(t, Var) and t.name not in bound and t.name not in seen:
            seen.add(t.name)
            out.append(t.name)

    def walk(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, Atom):
            for t in g.args:
                term(t, bound)
        elif isinstance(g, Equal):
            term(g.left, bound)
            term(g.right, bound)
        elif isinstance(g, (ForallInd, ExistsInd)):
            walk(g.body, bound | {g.var})
        elif isinstance(g, (Lfp, Gfp)):
            walk(g.body, bound | set(g.argvars))
            for t in g.applied:
                term(t, bound)
        else:
            for k in children(g):
                walk(k, bound)

    walk(f, frozenset())
    return out


def is_closed(f: Formula) -> bool:
    return not free_ind_vars(f)


def prop_symbols(f: Formula) -> set[str]:
    """Propositional variables occurring free (not bound by a second-order
    quantifier)."""
    out: set[str] = set()

    def walk(g: Formula, shadow: frozenset[str]) -> None:
        if isinstance(g, PropVar):
            if g.name not in shadow:
                out.add(g.name)
            return
        bound = _SO_BINDER.get(type(g))
        if bound is not None:
            shadow = shadow | {bound(g)}
        for k in children(g):
            walk(k, shadow)

    walk(f, frozenset())
    return out


def rel_symbols(f: Formula) -> dict[str, int]:
    """Relation symbols occurring free, with arities.  Conflicting arities
    raise :class:`ArityError`.  A fixpoint binds its relation, so its
    applied literal is no free occurrence of it."""
    out: dict[str, int] = {}

    def walk(g: Formula, shadow: frozenset[str]) -> None:
        if isinstance(g, Atom):
            if g.rel not in shadow and out.setdefault(g.rel, len(g.args)) != len(g.args):
                raise ArityError(
                    f"relation {g.rel} used with arities {out[g.rel]} and {len(g.args)}"
                )
            return
        bound = _SO_BINDER.get(type(g))
        if bound is not None:
            shadow = shadow | {bound(g)}
        for k in children(g):
            walk(k, shadow)

    walk(f, frozenset())
    return out


def free_symbols(f: Formula) -> set[str]:
    """The vocabulary of ``f`` from one walk: the propositional variables
    and relation symbols occurring free (arities are not checked)."""
    out: set[str] = set()

    def walk(g: Formula, shadow: frozenset[str]) -> None:
        if isinstance(g, PropVar):
            if g.name not in shadow:
                out.add(g.name)
            return
        if isinstance(g, Atom):
            if g.rel not in shadow:
                out.add(g.rel)
            return
        bound = _SO_BINDER.get(type(g))
        if bound is not None:
            shadow = shadow | {bound(g)}
        for k in children(g):
            walk(k, shadow)

    walk(f, frozenset())
    return out


def const_symbols(f: Formula) -> set[str]:
    out: set[str] = set()
    for g in _subformulas(f):
        if isinstance(g, Atom):
            out.update(t.name for t in g.args if isinstance(t, Const))
        elif isinstance(g, Equal):
            out.update(t.name for t in (g.left, g.right) if isinstance(t, Const))
        elif isinstance(g, (Lfp, Gfp)):
            out.update(t.name for t in g.applied if isinstance(t, Const))
    return out


def all_names(f: Formula) -> set[str]:
    """Every identifier appearing anywhere (bound or free); used to pick
    fresh names."""
    out: set[str] = set()

    def term(t: Term) -> None:
        out.add(t.name)

    for g in _subformulas(f):
        if isinstance(g, PropVar):
            out.add(g.name)
        elif isinstance(g, Atom):
            out.add(g.rel)
            for t in g.args:
                term(t)
        elif isinstance(g, Equal):
            term(g.left)
            term(g.right)
        elif isinstance(g, (ForallInd, ExistsInd)):
            out.add(g.var)
        elif isinstance(g, (Forall2, Exists2)):
            out.add(g.sym)
        elif isinstance(g, (Lfp, Gfp)):
            out.add(g.rel)
            out.update(g.argvars)
            for t in g.applied:
                term(t)
    return out


def signature_of(*formulas: Formula, base: Optional[Signature] = None) -> Signature:
    """Signature inferred from symbol usage, optionally merged over a base."""
    sig = base or Signature()
    for f in formulas:
        sig = sig.merge(
            Signature(
                frozenset(prop_symbols(f)), rel_symbols(f), frozenset(const_symbols(f))
            )
        )
    return sig


def contains_fixpoint(f: Formula) -> bool:
    return any(isinstance(g, (Lfp, Gfp)) for g in _subformulas(f))


def contains_so_quantifier_and_fixpoint(f: Formula) -> tuple[bool, bool]:
    """Whether ``f`` contains a second-order quantifier, and whether it
    contains a fixpoint literal, from one walk."""
    so = fix = False
    for g in _subformulas(f):
        if isinstance(g, (Forall2, Exists2)):
            so = True
        elif isinstance(g, (Lfp, Gfp)):
            fix = True
    return so, fix


def is_propositional(f: Formula) -> bool:
    """True when the formula uses only truth constants, propositional
    variables, connectives, and second-order quantifiers."""
    return not any(
        isinstance(g, (Atom, Equal, ForallInd, ExistsInd, Lfp, Gfp))
        for g in _subformulas(f)
    )


# ---------------------------------------------------------------------------
# Polarity


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    ABSENT = "absent"


#: how each child position of a connective turns the parity of an
#: occurrence: -1 flips it, 0 counts it both ways; other positions keep it
_CHILD_SIGNS = {Not: (-1,), Implies: (-1, 1), Iff: (0, 0)}


def polarity(f: Formula, sym: str) -> Polarity:
    """Polarity of a propositional variable or relation symbol in ``f``.

    Occurrences are classified after virtually expanding ``->`` and ``<->``:
    positive under an even number of negations, negative under odd.  Any
    occurrence inside a biconditional counts both ways.  Fixpoint literals
    are transparent (their bodies are positive in the bound relation, so an
    outer occurrence keeps the surrounding parity); bound symbols shadow.
    """
    pos = neg = False

    def walk(g: Formula, par: int) -> None:
        # par: 1 positive context, -1 negative, 0 both
        if isinstance(g, PropVar):
            if g.name == sym:
                _mark(par)
        elif isinstance(g, Atom):
            if g.rel == sym:
                _mark(par)
        else:
            bound = _SO_BINDER.get(type(g))
            if bound is not None and bound(g) == sym:
                return  # shadowed
            signs = _CHILD_SIGNS.get(type(g))
            if signs is None:
                for k in children(g):
                    walk(k, par)
            else:
                for k, sign in zip(children(g), signs):
                    walk(k, par * sign)

    def _mark(par: int) -> None:
        nonlocal pos, neg
        if par >= 0:
            pos = True
        if par <= 0:
            neg = True

    walk(f, 1)
    if pos and neg:
        return Polarity.BOTH
    if pos:
        return Polarity.POSITIVE
    if neg:
        return Polarity.NEGATIVE
    return Polarity.ABSENT
