"""Brute-force propositional oracle: exhaustive truth-table tautology and
equivalence checks.

Independent of the elimination engines by design; only the syntax module is
imported.  The reference evaluator of one valuation, ``eval_prop``, is
``fo_oracle.eval_so`` over a one-element domain and lives there.

A check whose names, free and bound together, fit in
``kernel.FREE_FROM_VARS - 1`` (11) table inputs is compiled in one walk,
:func:`_one_walk`: each name takes the next input as the walk meets it, a
second-order quantifier projects its name's input out of its body's table
(``Ex2 p. B`` is ``B[p:=F] | B[p:=T]``), so a node's table does not depend
on where it occurs, and the check compares the tables over all the names.
At the 12th name that walk stops, and the check walks its formulas once to
find the names free in each node and once to compute the value of every
node, a two-point expansion per quantifier.  Below ``kernel.FREE_FROM_VARS``
free names a value is the node's truth table; from 12 on, the same walk
over the same expressions builds one hash-consed circuit for all the
formulas, whose values are gates, and the kernel evaluates its ``f XOR g``
(or ``f & ~g``, ``~f``) output once, releasing each table after its last
reader; an output that folds to a constant needs no kernel call.
:func:`truth_table`, whose variable order must name the free names, always
takes the second way.  Measured on a 2-vCPU VM, the 3,000 checks of one
prop_random round (seed 1, at most 6 names) take 0.035 s in one walk, 0.11
s scanned first and 0.21 s as circuits; evaluating the 66
prop_rules checks (20 names) as tables is 25% faster than as circuits but
raises the peak RSS from 32 to 184 MB, because the memo holds every 128 KiB
table."""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import EvalError, GuardError, nesting_guard
from ..syntax import (
    And,
    Bottom,
    Exists2,
    Forall2,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PropVar,
    Top,
)
from . import kernel

MAX_TT_VARS = 22

def _scan(fs: tuple[Formula, ...]) -> tuple[dict[int, int], dict[str, int]]:
    """One walk over the distinct nodes of ``fs``: rejects first-order nodes,
    gives every propositional name (free or bound) one bit, and records the
    names free in each node as a bitmask keyed by the node's ``id``."""
    masks: dict[int, int] = {}
    bits: dict[str, int] = {}

    def bit(name: str) -> int:
        b = bits.get(name)
        if b is None:
            b = bits[name] = 1 << len(bits)
        return b

    def walk(f: Formula) -> int:
        m = masks.get(id(f))
        if m is not None:
            return m
        t = type(f)
        if t is PropVar:
            m = bit(f.name)
        elif t is And or t is Or:
            m = 0
            for it in f.items:
                m |= walk(it)
        elif t is Not:
            m = walk(f.body)
        elif t is Implies:
            m = walk(f.antecedent) | walk(f.consequent)
        elif t is Iff:
            m = walk(f.left) | walk(f.right)
        elif t is Exists2 or t is Forall2:
            m = walk(f.body) & ~bit(f.sym)
        elif t is Top or t is Bottom:
            m = 0
        else:
            raise EvalError(f"first-order construct in propositional oracle: {t.__name__}")
        masks[id(f)] = m
        return m

    for f in fs:
        walk(f)
    return masks, bits


def _compile(fs: tuple[Formula, ...], var_order: Optional[Sequence[str]] = None):
    """Compile ``fs`` over ``var_order`` (by default their free vocabulary,
    sorted): returns the ``kernel._space`` of the check and the value of
    each formula there, a truth table or a gate.  The path of checks with
    more names than :func:`_one_walk` takes, and of :func:`truth_table`.

    :func:`_scan` first records the names free in each node.  A node is
    then compiled once per key: the node and the values of the quantified
    variables free in it.  A node with no bound variable free in it is
    compiled once for both copies of every quantifier around it and for
    every formula of ``fs``."""
    masks, bits = _scan(fs)
    free = 0
    for f in fs:
        free |= masks[id(f)]
    vocab = [name for name, b in bits.items() if free & b]
    if var_order is None:
        var_order = sorted(vocab)
    n_vars = len(var_order)
    if n_vars > MAX_TT_VARS:
        raise GuardError(
            f"truth-table enumeration over {n_vars} variables exceeds "
            f"the {MAX_TT_VARS}-variable guard"
        )
    space = kernel._space(n_vars)
    inputs = dict(zip(var_order, space.inputs))
    if len(inputs) < n_vars:
        repeated = next(name for i, name in enumerate(var_order) if name in var_order[:i])
        raise EvalError(f"variable order repeats {repeated!r}")
    for name in vocab:
        if name not in inputs:
            raise EvalError(f"variable order does not list {name!r}")
    full = space.full
    memo: dict[object, object] = {}

    def comp(f: Formula, bound: int, vals: int):
        # bound: the quantified names in scope; vals: those bound to true
        i = id(f)
        m = masks[i] & bound
        t = type(f)
        if t is PropVar:
            return (full if vals & m else 0) if m else inputs[f.name]
        key = (i, m, vals & m) if m else i
        r = memo.get(key)
        if r is not None:
            return r
        if t is And:
            r = full
            for it in f.items:
                r &= comp(it, bound, vals)
        elif t is Or:
            r = 0
            for it in f.items:
                r |= comp(it, bound, vals)
        elif t is Not:
            r = comp(f.body, bound, vals) ^ full
        elif t is Implies:
            r = (comp(f.antecedent, bound, vals) ^ full) | comp(f.consequent, bound, vals)
        elif t is Iff:
            r = comp(f.left, bound, vals) ^ comp(f.right, bound, vals) ^ full
        elif t is Exists2 or t is Forall2:
            b = bits[f.sym]
            lo = comp(f.body, bound | b, vals & ~b)
            hi = comp(f.body, bound | b, vals | b)
            r = lo | hi if t is Exists2 else lo & hi
        else:  # Top or Bottom: _scan admits nothing else
            r = full if t is Top else 0
        memo[key] = r
        return r

    return space, [comp(f, 0, 0) for f in fs]


def _one_walk(fs: tuple[Formula, ...]):
    """The table space of ``kernel.FREE_FROM_VARS - 1`` inputs and the truth
    table of each formula of ``fs`` there, computed in one walk; ``None``
    when the formulas have more names than inputs, free and bound
    together.

    Each name takes the next input when the walk first meets it, and a
    binder projects its name's input out of its body's table (``All2`` is
    ``~Ex2 ~``).  A binder
    may reuse the input of a name it shadows, because a projected table is
    constant along that input.  So a node's table does not depend on where
    it occurs, and the memo is keyed on the node alone.  A binder whose name
    its body never mentions takes no input."""
    width = kernel.FREE_FROM_VARS - 1
    if width < 0:
        return None
    space = kernel._space(width)
    inputs, full, exists = space.inputs, space.full, space.exists
    index: dict[str, int] = {}
    memo: dict[int, int] = {}

    def comp(f: Formula) -> int:
        t = type(f)
        if t is PropVar:
            i = index.get(f.name)
            if i is None:
                i = len(index)
                if i == width:
                    raise kernel._Wide
                index[f.name] = i
            return inputs[i]
        r = memo.get(id(f))
        if r is not None:
            return r
        if t is And:
            r = full
            for it in f.items:
                r &= comp(it)
        elif t is Or:
            r = 0
            for it in f.items:
                r |= comp(it)
        elif t is Not:
            r = comp(f.body) ^ full
        elif t is Implies:
            r = (comp(f.antecedent) ^ full) | comp(f.consequent)
        elif t is Iff:
            r = comp(f.left) ^ comp(f.right) ^ full
        elif t is Exists2 or t is Forall2:
            r = comp(f.body)
            i = index.get(f.sym)
            if i is not None:
                r = exists(r, i) if t is Exists2 else exists(r ^ full, i) ^ full
        elif t is Top or t is Bottom:
            r = full if t is Top else 0
        else:
            raise EvalError(f"first-order construct in propositional oracle: {t.__name__}")
        memo[id(f)] = r
        return r

    try:
        return space, [comp(f) for f in fs]
    except kernel._Wide:
        return None


@nesting_guard
def truth_table(f: Formula, var_order: Sequence[str]) -> int:
    """Truth table of ``f`` over the given variable order, as an integer
    (bit v = value where variable i is true iff ``(v >> i) & 1``)."""
    space, (a,) = _compile((f,), var_order)
    return kernel._table(space, a)


@nesting_guard
def taut_prop(f: Formula) -> bool:
    """Exhaustive truth-table tautology check: ``~f`` is false everywhere."""
    space, (a,) = _one_walk((f,)) or _compile((f,))
    return kernel._table(space, a ^ space.full) == 0


@nesting_guard
def equiv_prop(f: Formula, g: Formula) -> bool:
    """Exhaustive equivalence check over the combined vocabulary: ``f XOR
    g`` is false everywhere.  On a circuit both sides are one circuit,
    evaluated once."""
    space, (a, b) = _one_walk((f, g)) or _compile((f, g))
    return kernel._table(space, a ^ b) == 0


@nesting_guard
def implies_prop(f: Formula, g: Formula) -> bool:
    """Exhaustive check of the entailment ``|= f -> g``: ``f & ~g`` is false
    everywhere."""
    space, (a, b) = _one_walk((f, g)) or _compile((f, g))
    return kernel._table(space, a & (b ^ space.full)) == 0
