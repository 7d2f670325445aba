"""Formula size as the benchmark counts it, independent of the package's own
size helpers so that a change to them cannot move ``result_nodes``."""

from __future__ import annotations

from typing import Iterator

from dualforget.syntax import (
    And,
    Exists2,
    ExistsInd,
    Forall2,
    ForallInd,
    Formula,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Or,
    PropVar,
)

_BODY = (Not, ForallInd, ExistsInd, Forall2, Exists2, Lfp, Gfp)


def _walk(f: Formula) -> Iterator[Formula]:
    """Every formula node of the tree, shared subtrees once per occurrence."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, _BODY):
            stack.append(g.body)
        elif isinstance(g, (And, Or)):
            stack.extend(g.items)
        elif isinstance(g, Implies):
            stack.append(g.antecedent)
            stack.append(g.consequent)
        elif isinstance(g, Iff):
            stack.append(g.left)
            stack.append(g.right)


def node_count(f: Formula) -> int:
    """Number of formula nodes in the tree (terms are not counted)."""
    return sum(1 for _ in _walk(f))


def prop_vars(f: Formula) -> set[str]:
    """Names of the propositional variables in a quantifier-free formula."""
    return {g.name for g in _walk(f) if isinstance(g, PropVar)}
