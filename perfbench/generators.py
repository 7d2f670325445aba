"""Seeded input generators for the benchmark.

Kept apart from the test suite's generators on purpose: editing a test must
not silently change a benchmark workload.  Every function draws only from
the ``random.Random`` it is given, so one seed always yields the same inputs.
"""

from __future__ import annotations

import random
from typing import Sequence

from dualforget.syntax import (
    BOT,
    TOP,
    Atom,
    Equal,
    ForallInd,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PropVar,
    Theory,
    Var,
    conj,
    disj,
    forall,
)

RANDOM_VARS = ("p", "q", "r", "s", "t", "w")


def random_formula(rng: random.Random, vars: Sequence[str], depth: int) -> Formula:
    """Random propositional formula of nesting depth at most ``depth``:
    connectives weighted toward and/or, constants rare."""
    if depth <= 0 or rng.random() < 0.30:
        roll = rng.random()
        if roll < 0.04:
            return TOP
        if roll < 0.08:
            return BOT
        return PropVar(rng.choice(vars))
    kind = rng.choices(["not", "and", "or", "implies", "iff"], weights=[20, 28, 28, 16, 8])[0]
    if kind == "not":
        return Not(random_formula(rng, vars, depth - 1))
    if kind == "implies":
        return Implies(random_formula(rng, vars, depth - 1), random_formula(rng, vars, depth - 1))
    if kind == "iff":
        return Iff(random_formula(rng, vars, depth - 1), random_formula(rng, vars, depth - 1))
    items = [random_formula(rng, vars, depth - 1) for _ in range(rng.randint(2, 3))]
    return conj(items) if kind == "and" else disj(items)


def random_problem(rng: random.Random, names: Sequence[str] = RANDOM_VARS) -> tuple[Theory, list[str], Formula]:
    """A theory of 1-4 random conjuncts over the six ``names``, 1-2 of them
    to forget, and a query for the condition operators."""
    th = Theory(
        "random",
        tuple(random_formula(rng, names, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))),
    )
    shuffled = list(names)
    rng.shuffle(shuffled)
    forget = shuffled[: rng.randint(1, 2)]
    query = random_formula(rng, names, rng.randint(1, 3))
    return th, forget, query


#: The benchmark's problems are drawn once, from these fixed seeds; ``--seed``
#: only renames their symbols and reorders them (see random_problems,
#: rule_ladder and clause_theories).  Cost is heavy-tailed between random
#: problems, so problems drawn afresh per seed move the timed sums by more
#: than the host's noise does.
RANDOM_BASE_SEED = "prop_random"
RULE_BASE_SEED = "prop_rules"
CLAUSE_BASE_SEED = "fo_cli"


def random_problems(seed: int, count: int) -> list[tuple[Theory, list[str], Formula]]:
    """``count`` random problems, fixed but for the names of the variables
    and the order of the problems, which ``seed`` chooses."""
    rng = random.Random(seed)
    names = list(RANDOM_VARS)
    rng.shuffle(names)
    base = random.Random(RANDOM_BASE_SEED)
    problems = [random_problem(base, names) for _ in range(count)]
    rng.shuffle(problems)
    return problems


def _rule_shapes(rng: random.Random, n_rules: int, n_forget: int, n_vars: int):
    """Rules as (body, head) tuples of variable indices, bodies of 1-3 and
    heads of 1-2 atoms, and the indices to forget, in order.  Atoms are
    dealt from a reshuffled deck, so every variable occurs about equally
    often."""
    deck: list[int] = []

    def atom() -> int:
        if not deck:
            deck.extend(range(n_vars))
            rng.shuffle(deck)
        return deck.pop()

    rules = []
    for _ in range(n_rules):
        body = tuple(atom() for _ in range(rng.randint(1, 3)))
        rules.append((body, tuple(atom() for _ in range(rng.randint(1, 2)))))
    order = list(range(n_vars))
    rng.shuffle(order)
    return rules, order[:n_forget]


def rule_ladder(seed: int, ladder, n_vars: int):
    """``(rules, forgotten, theory, forget)`` for each theory of the ladder
    of ``(rules, forgotten, theories)`` rungs.

    The theories are fixed: strong forgetting's cost varies fivefold between
    random theories of one rung, and a run cannot hold enough of them to
    average that out.  ``seed`` renames the variables and reorders the
    rules, so every seed gives other inputs of the same difficulty."""
    base = random.Random(RULE_BASE_SEED)
    rng = random.Random(seed)
    for n_rules, n_forget, count in ladder:
        for _ in range(count):
            rules, forget = _rule_shapes(base, n_rules, n_forget, n_vars)
            names = [f"v{i}" for i in range(n_vars)]
            rng.shuffle(names)
            rng.shuffle(rules)
            formulas = tuple(
                Implies(conj([PropVar(names[i]) for i in body]), disj([PropVar(names[i]) for i in head]))
                for body, head in rules
            )
            yield n_rules, n_forget, Theory("rules", formulas), [names[i] for i in forget]


# ---------------------------------------------------------------------------
# First-order clause fragment, generated as a formula and as theory text

KEPT_RELS = {"a": 1, "b": 2}
ELIMINATED = "r"


def _fo_literal(rng: random.Random, rel: str, arity: int, pool: Sequence[str]) -> Formula:
    atom = Atom(rel, tuple(Var(rng.choice(pool)) for _ in range(arity)))
    return atom if rng.random() < 0.5 else Not(atom)


def clause_theory(rng: random.Random, bound: Sequence[str] = ("x", "y", "z")) -> tuple[Theory, dict[str, int]]:
    """1-3 conjuncts ``all xs. (r-literals | kept literals [| x = z])`` with
    ``r`` of arity 1 or 2 applied to variables drawn from ``bound``.
    Returns the theory and its relation signature."""
    arity = rng.randint(1, 2)
    formulas = []
    for _ in range(rng.randint(1, 3)):
        bvars = list(bound[: rng.randint(arity, 3)])
        lits = [_fo_literal(rng, ELIMINATED, arity, bvars) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            rel = rng.choice(sorted(KEPT_RELS))
            lits.append(_fo_literal(rng, rel, KEPT_RELS[rel], bvars))
        if rng.random() < 0.3:
            lits.append(Equal(Var(bvars[0]), Var(bvars[-1])))
        rng.shuffle(lits)
        formulas.append(forall(bvars, disj(lits)))
    return Theory("clauses", tuple(formulas)), {ELIMINATED: arity, **KEPT_RELS}


def clause_theories(seed: int, count: int) -> list[tuple[Theory, dict[str, int]]]:
    """``count`` clause theories, fixed but for the names of the bound
    variables and the order of the theories, which ``seed`` chooses."""
    rng = random.Random(seed)
    bound = ["x", "y", "z"]
    rng.shuffle(bound)
    base = random.Random(CLAUSE_BASE_SEED)
    theories = [clause_theory(base, bound) for _ in range(count)]
    rng.shuffle(theories)
    return theories


def render(f: Formula) -> str:
    """Fully parenthesized theory-file text for the clause fragment.  The
    benchmark renders its own inputs so that the specification it checks
    against never passes through the parser under test."""
    if isinstance(f, ForallInd):
        return f"all {f.var}. ({render(f.body)})"
    if isinstance(f, Or):
        return " | ".join(render(it) for it in f.items)
    if isinstance(f, Not):
        return f"~{render(f.body)}"
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(t.name for t in f.args)})"
    if isinstance(f, Equal):
        return f"{f.left.name} = {f.right.name}"
    raise ValueError(f"outside the clause fragment: {type(f).__name__}")


def theory_text(th: Theory, rels: dict[str, int]) -> str:
    header = [f"#sig rel {name}/{arity}" for name, arity in sorted(rels.items())]
    return "\n".join(header + [render(f) for f in th.formulas]) + "\n"
