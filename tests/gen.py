"""Deterministic random generators shared by property tests, the acceptance
suite, and the benchmark."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from dualforget.syntax import (
    BOT,
    TOP,
    Atom,
    Equal,
    ExistsInd,
    ForallInd,
    Formula,
    Iff,
    Implies,
    Not,
    PropVar,
    Theory,
    Var,
    conj,
    disj,
    forall,
)

PROP_VARS = ["p", "q", "r", "s", "t", "w"]


def prop_formula(rng: random.Random, vars: Sequence[str] = PROP_VARS, depth: int = 5) -> Formula:
    """Random propositional formula over ``vars`` with nesting depth
    ``depth`` (connectives weighted toward and/or; constants rare)."""
    if depth <= 0 or rng.random() < 0.30:
        roll = rng.random()
        if roll < 0.04:
            return TOP
        if roll < 0.08:
            return BOT
        return PropVar(rng.choice(list(vars)))
    kind = rng.choices(
        ["not", "and", "or", "implies", "iff"], weights=[20, 28, 28, 16, 8]
    )[0]
    if kind == "not":
        return Not(prop_formula(rng, vars, depth - 1))
    if kind == "implies":
        return Implies(prop_formula(rng, vars, depth - 1), prop_formula(rng, vars, depth - 1))
    if kind == "iff":
        return Iff(prop_formula(rng, vars, depth - 1), prop_formula(rng, vars, depth - 1))
    items = [prop_formula(rng, vars, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(items) if kind == "and" else disj(items)


def prop_theory(rng: random.Random, vars: Sequence[str] = PROP_VARS, max_conjuncts: int = 4) -> Theory:
    n = rng.randint(1, max_conjuncts)
    return Theory("random", tuple(prop_formula(rng, vars, depth=rng.randint(1, 5)) for _ in range(n)))


def forget_split(rng: random.Random, vars: Sequence[str] = PROP_VARS) -> tuple[list[str], list[str]]:
    """Random (forget, keep) partition with 1-2 forgotten variables."""
    shuffled = list(vars)
    rng.shuffle(shuffled)
    k = rng.randint(1, 2)
    return shuffled[:k], shuffled[k:]


def rule_theory(rng: random.Random, n_rules: int, n_vars: int, n_forget: int) -> tuple[Theory, list[str]]:
    """``n_rules`` rules ``body -> head`` over ``v0``..``v{n_vars-1}``, bodies
    conjunctions of 1-3 and heads disjunctions of 1-2 variables, and
    ``n_forget`` distinct variables to forget, in random order.  Atoms are
    dealt from a reshuffled deck, so every variable occurs about equally
    often.  Independent of the benchmark's generators, which a benchmark change
    may edit."""
    names = [f"v{i}" for i in range(n_vars)]
    deck: list[str] = []

    def atom() -> Formula:
        if not deck:
            deck.extend(names)
            rng.shuffle(deck)
        return PropVar(deck.pop())

    rules = []
    for _ in range(n_rules):
        body = conj([atom() for _ in range(rng.randint(1, 3))])
        rules.append(Implies(body, disj([atom() for _ in range(rng.randint(1, 2))])))
    return Theory("rules", tuple(rules)), rng.sample(names, n_forget)


# ---------------------------------------------------------------------------
# First-order


FO_KEPT_RELS = {"a": 1, "b": 2}


def _literal_over(rng: random.Random, rel: str, arity: int, pool: Sequence[str]) -> Formula:
    args = tuple(Var(rng.choice(list(pool))) for _ in range(arity))
    atom = Atom(rel, args)
    return atom if rng.random() < 0.5 else Not(atom)


def clause_fragment_theory(
    rng: random.Random,
    eliminated: str = "r",
    arity: Optional[int] = None,
) -> tuple[Theory, int]:
    """Random theory in the universally-quantified-clause fragment: each
    conjunct is ``all xs. (r-literals | kept literals)`` with the eliminated
    relation applied to bound variables.  Returns (theory, arity of the
    eliminated relation)."""
    arity = arity or rng.randint(1, 2)
    n_conjuncts = rng.randint(1, 3)
    formulas = []
    for _ in range(n_conjuncts):
        bvars = ["x", "y", "z"][: rng.randint(max(1, arity), 3)]
        lits: list[Formula] = []
        for _ in range(rng.randint(1, 3)):
            lits.append(_literal_over(rng, eliminated, arity, bvars))
        for _ in range(rng.randint(0, 2)):
            kept = rng.choice(list(FO_KEPT_RELS))
            lits.append(_literal_over(rng, kept, FO_KEPT_RELS[kept], bvars))
        if rng.random() < 0.3:
            lits.append(Equal(Var(bvars[0]), Var(bvars[-1])))
        rng.shuffle(lits)
        formulas.append(forall(bvars, disj(lits)))
    return Theory("clause_fragment", tuple(formulas)), arity


def fo_formula(rng: random.Random, depth: int = 4, pool: Sequence[str] = ("x", "y")) -> Formula:
    """Random closed-ish first-order formula over unary ``a`` and binary
    ``b`` (used for nnf/simplify soundness on finite models)."""
    bound = list(pool)

    def go(d: int, scope: list[str]) -> Formula:
        if d <= 0 or rng.random() < 0.35:
            roll = rng.random()
            if roll < 0.05:
                return TOP if rng.random() < 0.5 else BOT
            if roll < 0.20 and len(scope) >= 2:
                return Equal(Var(rng.choice(scope)), Var(rng.choice(scope)))
            if rng.random() < 0.5:
                return Atom("a", (Var(rng.choice(scope)),))
            return Atom("b", (Var(rng.choice(scope)), Var(rng.choice(scope))))
        kind = rng.choices(
            ["not", "and", "or", "implies", "iff", "forall", "exists"],
            weights=[16, 20, 20, 10, 6, 14, 14],
        )[0]
        if kind == "not":
            return Not(go(d - 1, scope))
        if kind == "implies":
            return Implies(go(d - 1, scope), go(d - 1, scope))
        if kind == "iff":
            return Iff(go(d - 1, scope), go(d - 1, scope))
        if kind in ("forall", "exists"):
            v = f"v{len(scope)}"
            cls = ForallInd if kind == "forall" else ExistsInd
            return cls(v, go(d - 1, scope + [v]))
        items = [go(d - 1, scope) for _ in range(2)]
        return conj(items) if kind == "and" else disj(items)

    v0 = "v0"
    return ForallInd(v0, go(depth, [v0]))
