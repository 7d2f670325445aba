import random

import pytest

from gen import PROP_VARS, fo_formula, prop_formula
from dualforget.errors import ArityError, EvalError, GuardError
from dualforget.parser import parse_formula
from dualforget.semantics import (
    FiniteInterpretation,
    counterexample,
    equiv_fo_finite,
    equiv_prop,
    eval_fo,
    eval_prop,
    eval_so,
    implies_prop,
    taut_prop,
    truth_table,
)
from dualforget.semantics.fo_oracle import _tuple_space
from dualforget.syntax import (
    Atom,
    Exists2,
    Forall2,
    Iff,
    Implies,
    Not,
    PropVar,
    Var,
    conj,
    disj,
    prop_symbols,
)


def pf(text, **kw):
    return parse_formula(text, **kw)


# ---------------------------------------------------------------------------
# propositional


def test_eval_prop_examples():
    assert eval_prop(pf("lt | lp"), {"lt": False, "lp": True})
    assert eval_prop(pf("Ex2 lt. (lt | lp)"), {"lp": False})
    assert not eval_prop(pf("All2 lt. (lt | lp)"), {"lp": False})


def test_eval_prop_unmapped_variable():
    with pytest.raises(EvalError):
        eval_prop(pf("p & q"), {"p": True})


def test_taut_equiv_examples():
    assert taut_prop(pf("p | ~p"))
    assert not taut_prop(pf("p | q"))
    assert equiv_prop(pf("p -> q"), pf("~q -> ~p"))
    assert not equiv_prop(pf("p"), pf("q"))


def test_truth_table_guard():
    many = " & ".join(f"v{i}" for i in range(23))
    with pytest.raises(GuardError):
        taut_prop(pf(many))


def test_eval_prop_agrees_with_table():
    rng = random.Random(31)
    for _ in range(100):
        f = prop_formula(rng)
        vocab = sorted(prop_symbols(f))
        table = truth_table(f, vocab)
        for v in range(1 << len(vocab)):
            val = {name: bool((v >> i) & 1) for i, name in enumerate(vocab)}
            assert eval_prop(f, val) == bool((table >> v) & 1)


def _quantified_formula(rng):
    """A random body under Ex2/All2 over 1-3 variables.  One subtree object
    mentioning the first of them occurs inside and outside its binders, and
    that variable is bound again around an inner binder of it."""
    qs = rng.sample(PROP_VARS, rng.randint(1, 3))
    shared = disj([PropVar(qs[0]), prop_formula(rng, depth=2)])
    join = rng.choice([lambda a, b: conj([a, b]), lambda a, b: disj([a, b]), Iff, Implies])
    f = join(prop_formula(rng, depth=3), shared)
    for q in qs + [qs[0]]:
        f = rng.choice([Exists2, Forall2])(q, f)
        f = rng.choice([lambda a, b: conj([a, b]), lambda a, b: disj([a, b]), Iff])(f, shared)
    return f


def test_quantified_checks_agree_with_eval_prop():
    # the compile memo shares a subtree between binder copies only when no
    # bound variable free in it differs; each check is held to eval_prop
    rng = random.Random(47)
    for _ in range(150):
        f = _quantified_formula(rng)
        g = rng.choice([_quantified_formula(rng), Not(Not(f)), prop_formula(rng, depth=3)])
        vocab = sorted(prop_symbols(f) | prop_symbols(g))
        table = truth_table(f, vocab)
        fv, gv = [], []
        for v in range(1 << len(vocab)):
            val = {name: bool((v >> i) & 1) for i, name in enumerate(vocab)}
            fv.append(eval_prop(f, val))
            gv.append(eval_prop(g, val))
            assert bool((table >> v) & 1) == fv[-1]
        assert taut_prop(f) == all(fv)
        assert equiv_prop(f, g) == (fv == gv)
        assert implies_prop(f, g) == all(b or not a for a, b in zip(fv, gv))
        assert implies_prop(g, f) == all(a or not b for a, b in zip(fv, gv))


# ---------------------------------------------------------------------------
# first-order


def test_eval_fo_examples():
    m = FiniteInterpretation(2, {}, {"a": frozenset({(0,)})})
    assert eval_fo(pf("all x. x = x"), m)
    assert eval_fo(pf("ex x. a(x)"), m)
    assert not eval_fo(pf("all x. a(x)"), m)


def test_eval_fo_transitive_closure():
    fp = pf("lfp r(x, y). (con(x, y) | ex z. (con(x, z) & r(z, y))) @(x, y)",
            free_vars=["x", "y"])
    m = FiniteInterpretation(3, {}, {"con": frozenset({(0, 1), (1, 2)})})
    reached = {(a, b) for a in range(3) for b in range(3) if eval_fo(fp, m, {"x": a, "y": b})}
    assert reached == {(0, 1), (1, 2), (0, 2)}


def test_fixpoint_iteration_monotone():
    # each lfp iterate grows; gfp iterates shrink; both converge within
    # |D|**arity steps
    body = pf("con(x, y) | ex z. (con(x, z) & r(z, y))", free_vars=["x", "y"])
    m = FiniteInterpretation(3, {}, {"con": frozenset({(0, 1), (1, 2), (2, 0)})})
    space = _tuple_space(3, 2)
    cur = frozenset()
    seen = [cur]
    for _ in range(len(space)):
        new = frozenset(
            t for t in space
            if eval_fo(body, FiniteInterpretation(3, {}, {"con": m.rel_map["con"], "r": cur}),
                       {"x": t[0], "y": t[1]})
        )
        assert cur <= new
        if new == cur:
            break
        cur = new
        seen.append(cur)
    assert len(seen) <= len(space) + 1


def test_eval_so_examples():
    m1 = FiniteInterpretation(1, {"a": 0}, {})
    assert eval_so(pf("Ex2 r. r(a)"), m1)
    assert not eval_so(pf("All2 r. r(a)"), m1)
    # hand-countable: Ex2 r over arity 1, domain 2 = 4 extensions
    m2 = FiniteInterpretation(2, {}, {"q": frozenset({(0,)})})
    assert eval_so(pf("Ex2 r. all x. (r(x) <-> q(x))"), m2)
    assert not eval_so(pf("Ex2 r. all x. (r(x) & ~r(x))"), m2)


def test_eval_so_guards():
    m = FiniteInterpretation(2, {}, {})
    with pytest.raises(GuardError):
        eval_so(pf("Ex2 r. r(a, b, c)"), FiniteInterpretation(2, {"a": 0, "b": 0, "c": 0}, {}))


def test_eval_fo_fixpoint_result_vacuous_antecedent():
    # with no external nodes the reachability constraint holds whatever the
    # connections are
    f = pf(
        "all y. ((ex x. (ex(x) & lfp r(u, w). (con(u, w) | ex z. (con(u, z) & r(z, w))) @(x, y)))"
        " -> (in(y) -> sec(y)))"
    )
    m = FiniteInterpretation(
        2,
        {},
        {
            "con": frozenset({(0, 1), (1, 0)}),
            "ex": frozenset(),
            "in": frozenset({(0,), (1,)}),
            "sec": frozenset(),
        },
    )
    assert eval_fo(f, m)


def test_counterexample_examples():
    assert equiv_fo_finite(pf("all x. a(x)"), pf("all y. a(y)"), max_domain=3)
    ce = counterexample(pf("all x. a(x)"), pf("ex x. a(x)"), max_domain=2)
    assert ce is not None
    assert ce.interp.domain_size == 2
    assert equiv_fo_finite(pf("p & q"), pf("p & q"), max_domain=3)


def test_counterexample_rejects_a_name_used_as_both_kinds():
    with pytest.raises(ArityError, match="symbol p used with arities 0 and 1"):
        counterexample(PropVar("p"), parse_formula("p(a)"))


def test_counterexample_is_deterministic_and_real():
    f = pf("all x. (a(x) -> b(x, x))")
    g = pf("ex x. a(x)")
    ce1 = counterexample(f, g, max_domain=2)
    ce2 = counterexample(f, g, max_domain=2)
    assert ce1 == ce2
    assert eval_fo(f, ce1.interp, ce1.env) != eval_fo(g, ce1.interp, ce1.env)


def _all_models(d: int):
    """Every interpretation of a/1, b/2 and the propositional variable p
    over the domain {0..d-1}."""
    from itertools import product

    tuples1 = list(product(range(d), repeat=1))
    tuples2 = list(product(range(d), repeat=2))
    for a_bits in range(1 << len(tuples1)):
        a_ext = frozenset(t for j, t in enumerate(tuples1) if (a_bits >> j) & 1)
        for b_bits in range(1 << len(tuples2)):
            b_ext = frozenset(t for j, t in enumerate(tuples2) if (b_bits >> j) & 1)
            for p in (False, True):
                yield FiniteInterpretation(d, {}, {"a": a_ext, "b": b_ext}, {"p": p})


def test_ground_path_agrees_with_recursive_eval():
    # the circuit-based equivalence check and the direct recursive evaluator
    # are two independent implementations; they must agree on whether a
    # formula is valid over all small models
    rng = random.Random(37)
    for _ in range(30):
        f = fo_formula(rng, depth=2)
        valid_recursive = all(
            eval_fo(f, m) for d in (1, 2) for m in _all_models(d)
        )
        valid_ground = counterexample(f, pf("T"), max_domain=2) is None
        assert valid_recursive == valid_ground


def test_so_quantifier_ground_vs_recursive():
    # both oracle paths over each kind of bound symbol: the circuit must be
    # valid, and satisfiable, exactly where the recursive evaluator says so
    rng = random.Random(41)
    models = [m for d in (1, 2) for m in _all_models(d)]
    p = PropVar("p")
    for _ in range(10):
        f = fo_formula(rng, depth=2)
        g = fo_formula(rng, depth=2)
        for q in (
            Exists2("b", f),
            Exists2("s", f),  # vacuous
            conj([disj([p, f]), Exists2("p", disj([conj([p, f]), conj([Not(p), g])]))]),
            Forall2("b", f),
            # the inner b rebinds: satisfiable iff f depends on b
            Exists2("b", conj([f, Exists2("b", Not(f))])),
        ):
            values = {eval_so(q, m) for m in models}
            assert (values == {True}) == (counterexample(q, pf("T"), max_domain=2) is None)
            assert (values == {False}) == (counterexample(q, pf("F"), max_domain=2) is None)


def test_domain_guard():
    with pytest.raises(GuardError):
        counterexample(pf("p"), pf("q"), max_domain=4)
