import random

import pytest

from conftest import load_theory
from gen import forget_split, prop_formula, prop_theory
from dualforget import fo, prop
from dualforget.errors import LogicError
from dualforget.parser import parse_formula
from dualforget.semantics import equiv_prop, implies_prop
from dualforget.syntax import (
    BOT,
    TOP,
    Exists2,
    Not,
    PropVar,
    Theory,
    conj,
    conjuncts,
    exists2,
    forall2,
    prop_symbols,
)


def pf(text, **kw):
    return parse_formula(text, **kw)


def th(*texts, name="t"):
    return Theory(name, tuple(pf(t) for t in texts))


# ---------------------------------------------------------------------------
# shannon expansion


@pytest.mark.parametrize("op", ["forget_strong", "forget_weak", "snc", "wsc"])
def test_operators_are_the_one_driver(op):
    assert getattr(prop, op) is getattr(fo, op)


def test_shannon_examples():
    assert fo._expand("lt", pf("lt | lp"), [], universal=False) == TOP
    assert fo._expand("lt", pf("lt | lp"), [], universal=True) == pf("lp")
    assert fo._expand("p", pf("q"), [], universal=False) == pf("q")


# ---------------------------------------------------------------------------
# ackermann rewrite


def test_ackermann_denial_example():
    f = pf("~((fdd -> (~ld | pa)) -> pa)")
    out = prop.ackermann_eliminate("pa", f)
    assert out is not None
    assert "pa" not in prop_symbols(out.result)
    assert equiv_prop(out.result, Exists2("pa", f))
    assert equiv_prop(out.result, pf("~fdd | ~ld"))


def test_ackermann_groups_multiple_definitions():
    f = pf("(p -> q) & (~p | r)")
    out = prop.ackermann_eliminate("p", f)
    assert out is not None
    assert out.result == TOP
    assert equiv_prop(out.result, Exists2("p", f))


def test_ackermann_biconditional():
    # both polarities through a biconditional; the grouped rewrite still
    # finds a definitional clause in the expansion and the result matches
    # the two-point expansion
    f = pf("p <-> q")
    out = prop.ackermann_eliminate("p", f)
    expected = fo._expand("p", f, [], universal=False)
    if out is None:
        assert expected == TOP
    else:
        assert equiv_prop(out.result, expected)
    assert expected == TOP


def test_ackermann_not_applicable_falls_back():
    f = pf("((~p & q) | s) & ((p & u) | v)")
    assert prop.ackermann_eliminate("p", f) is None
    assert equiv_prop(fo._expand("p", f, [], universal=False), Exists2("p", f))


def test_ackermann_random_agrees_with_expansion():
    rng = random.Random(43)
    for _ in range(300):
        f = prop_formula(rng)
        out = prop.ackermann_eliminate("p", f)
        if out is None:
            continue
        assert "p" not in prop_symbols(out.result)
        assert equiv_prop(out.result, Exists2("p", f))


# ---------------------------------------------------------------------------
# clause rule


def test_clause_rule_examples():
    assert prop.clause_forall_eliminate(["q", "r"], pf("~~q | ~r | ~s | t")) == pf("~s | t")
    assert prop.clause_forall_eliminate(["p"], pf("p | ~p | s")) == TOP
    assert prop.clause_forall_eliminate(["p", "p2"], pf("p | ~p2")) == BOT


def test_clause_rule_rejects_non_clause():
    assert prop.clause_forall_eliminate(["p"], pf("p | (q & r)")) is None
    assert prop.clause_forall_eliminate(["p"], pf("p -> q")) is None


# ---------------------------------------------------------------------------
# forgetting operators on the worked examples


def test_maintain_example():
    _, theory = load_theory("maintain.th")
    assert prop.forget_strong(theory, ["lt"]).result == TOP
    assert prop.forget_weak(theory, ["lt"]).result == pf("lp")


def test_pressure_rules_example():
    _, theory = load_theory("pressure_rules.th")
    assert prop.forget_strong(theory, ["mt", "ht"]).result == TOP
    assert prop.forget_weak(theory, ["mt", "ht"]).result == pf("lp")


def test_investment_examples():
    _, jack = load_theory("outdoor_complex.th")
    assert prop.forget_strong(jack, ["loan"]).result == pf("tc & sp")
    assert prop.forget_weak(jack, ["loan"]).result == pf("tc & sp & (bdg | inv)")
    _, consultant = load_theory("consultant.th")
    strong = prop.forget_strong(consultant, ["loan"]).result
    weak = prop.forget_weak(consultant, ["loan"]).result
    assert equiv_prop(strong, pf("((tc | sp) -> (isq & gc)) & (isq -> ~gc)"))
    assert equiv_prop(weak, pf("((tc | sp) -> (isq & gc)) & ~isq & ~gc"))


def test_forget_edge_cases():
    theory = th("p & q")
    # empty forget list: simplified conjunction
    assert prop.forget_strong(theory, []).result == pf("p & q")
    # absent symbol: identity
    assert prop.forget_strong(theory, ["z"]).result == pf("p & q")
    assert prop.forget_weak(theory, ["z"]).result == pf("p & q")
    # empty theory
    assert prop.forget_strong(Theory("e", ()), ["p"]).result == TOP
    assert prop.forget_weak(Theory("e", ()), ["p"]).result == TOP


def test_forget_strong_keeps_conjuncts_without_forgotten_symbols():
    formulas = tuple(pf(t) for t in (
        "a -> b", "(tc | sp) -> (isq & gc)", "c <-> ~d", "isq -> ~loan", "gc -> loan", "b | e",
    ))
    theory = Theory("t", formulas)
    for forget in (["tc"], ["isq"], ["tc", "isq"], ["sp", "loan", "gc"]):
        out = prop.forget_strong(theory, forget).result
        assert equiv_prop(out, exists2(forget, theory.as_formula))
        untouched = [f for f in formulas if prop_symbols(f).isdisjoint(forget)]
        # every one of them, as the same object, in the theory's order
        assert [c for c in conjuncts(out) if any(c is f for f in untouched)] == untouched


# ---------------------------------------------------------------------------
# snc / wsc


def test_snc_examples():
    theory = th("p | q")
    a = prop.snc(theory, TOP, ["q"])
    b = prop.forget_strong(theory, ["p"])
    assert equiv_prop(a.result, b.result)
    assert prop.snc(Theory("e", ()), pf("p & q"), ["q"]).result == pf("q")
    assert prop.snc(Theory("e", ()), BOT, ["q"]).result == BOT


def test_wsc_examples():
    out = prop.wsc(Theory("e", ()), pf("(fdd -> (~ld | pa)) -> pa"), ["ld", "fdd"])
    assert out.result == pf("fdd & ld")
    assert prop.wsc(th("p | q"), TOP, ["q"]).result == TOP


def test_wsc_duality_identity():
    rng = random.Random(47)
    for _ in range(50):
        theory = prop_theory(rng)
        forget, keep = forget_split(rng)
        weak = prop.forget_weak(theory, forget).result
        via_wsc = prop.wsc(Theory("n", (Not(theory.as_formula),)), BOT, keep).result
        assert equiv_prop(weak, via_wsc)


# ---------------------------------------------------------------------------
# semantic properties (small samples; the full suite is in acceptance)


def test_forget_matches_quantified_theory():
    rng = random.Random(53)
    for _ in range(150):
        theory = prop_theory(rng)
        forget, _ = forget_split(rng)
        strong = prop.forget_strong(theory, forget).result
        weak = prop.forget_weak(theory, forget).result
        assert prop_symbols(strong).isdisjoint(forget)
        assert prop_symbols(weak).isdisjoint(forget)
        assert equiv_prop(strong, exists2(forget, theory.as_formula))
        assert equiv_prop(weak, forall2(forget, theory.as_formula))
        # sandwich: weak implies the theory implies strong
        assert implies_prop(weak, theory.as_formula)
        assert implies_prop(theory.as_formula, strong)


def test_elimination_order_independent():
    rng = random.Random(59)
    for _ in range(60):
        theory = prop_theory(rng)
        forget, _ = forget_split(rng)
        if len(forget) < 2:
            continue
        a = prop.forget_strong(theory, forget).result
        b = prop.forget_strong(theory, list(reversed(forget))).result
        assert equiv_prop(a, b)
        c = prop.forget_weak(theory, forget).result
        d = prop.forget_weak(theory, list(reversed(forget))).result
        assert equiv_prop(c, d)


def test_traces_preserve_equivalence():
    rng = random.Random(61)
    for _ in range(40):
        theory = prop_theory(rng)
        forget, _ = forget_split(rng)
        for out in (prop.forget_strong(theory, forget), prop.forget_weak(theory, forget)):
            for step in out.trace:
                assert equiv_prop(step.before, step.after), step.rule


@pytest.mark.parametrize("op", ["forget_strong", "forget_weak", "snc", "wsc"])
def test_deep_nesting_raises_logic_error(op):
    deep = PropVar("p")
    for _ in range(3000):
        deep = Not(deep)
    theory = Theory("deep", (conj([deep, PropVar("q")]),))
    args = (["p"],) if op.startswith("forget") else (PropVar("q"), ["q"])
    with pytest.raises(LogicError, match="nested too deeply"):
        getattr(prop, op)(theory, *args)
