"""Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold (run with ``pytest -s`` to see them).

Golden results are compared through the brute-force oracle (truth tables /
finite-model enumeration), not syntactically, except where an exact match is
explicitly part of the criterion."""

import random

import pytest

from conftest import load_theory
from gen import PROP_VARS, clause_fragment_theory, forget_split, prop_formula, prop_theory
from dualforget import fo, prop
from dualforget.errors import ParseError
from dualforget.outcome import Status
from dualforget.parser import parse_formula
from dualforget.printer import format_formula
from dualforget.semantics import equiv_fo_finite, equiv_prop, truth_table
from dualforget.syntax import (
    BOT,
    TOP,
    Exists2,
    Forall2,
    Not,
    Theory,
    conj,
    exists2,
    forall2,
    free_ind_vars,
    prop_symbols,
    rel_symbols,
)


def pf(text, **kw):
    return parse_formula(text, **kw)


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS ({text})")


_FULL = (1 << (1 << len(PROP_VARS))) - 1


def table(f) -> int:
    return truth_table(f, PROP_VARS)


def entails(tf: int, tg: int) -> bool:
    return tf & ~tg & _FULL == 0


# ---------------------------------------------------------------------------


def test_criterion_1_motivating_example():
    _, th = load_theory("maintain.th")
    weak = prop.forget_weak(th, ["lt"]).result
    strong = prop.forget_strong(th, ["lt"]).result
    assert equiv_prop(weak, pf("lp"))
    assert equiv_prop(strong, TOP)
    # exact match after simplification is additionally asserted here
    assert weak == pf("lp")
    assert strong == TOP
    report(1, "weak = lp exactly, strong = T exactly")


def test_criterion_2_pressure_rules():
    _, th = load_theory("pressure_rules.th")
    strong = prop.forget_strong(th, ["mt", "ht"]).result
    weak = prop.forget_weak(th, ["mt", "ht"]).result
    assert equiv_prop(strong, TOP)
    assert equiv_prop(weak, pf("lp"))
    report(2, "strong == T, weak == lp (exact truth tables)")


def test_criterion_3_hidden_query():
    query = pf("(fdd -> (~ld | pa)) -> pa")
    out = prop.wsc(Theory("empty", ()), query, ["ld", "fdd"])
    assert equiv_prop(out.result, pf("fdd & ld"))
    strong = prop.forget_strong(Theory("q", (query,)), ["pa"])
    assert equiv_prop(strong.result, TOP)
    report(3, "wsc == fdd & ld, strong variant == T")


def test_criterion_4_merged_beliefs():
    _, jack = load_theory("outdoor_complex.th")
    _, consultant = load_theory("consultant.th")
    cases = [
        (prop.forget_strong(jack, ["loan"]), "tc & sp"),
        (prop.forget_weak(jack, ["loan"]), "tc & sp & (bdg | inv)"),
        (prop.forget_strong(consultant, ["loan"]), "((tc | sp) -> (isq & gc)) & (isq -> ~gc)"),
        (prop.forget_weak(consultant, ["loan"]), "((tc | sp) -> (isq & gc)) & ~isq & ~gc"),
    ]
    for out, expected in cases:
        assert out.ok
        assert equiv_prop(out.result, pf(expected))
    report(4, "all four forgetting results reproduced up to equivalence")


def test_criterion_5_clause_rule_example():
    out = fo.forget_weak(Theory("c", (pf("~~q | ~r | ~s | t"),)), ["q", "r"])
    assert out.result == pf("~s | t")  # exactly
    assert [step.rule for step in out.trace] == ["ClauseRule"]
    report(5, "clause rule gives ~s | t exactly")


def test_criterion_6_symptom_rules():
    _, th = load_theory("symptoms.th")
    strong = fo.forget_strong(th, ["t"])
    weak = fo.forget_weak(th, ["t"])
    assert strong.ok and weak.ok
    eq47 = pf("(all x. (ms(x) -> h(x))) & (all x. ((ss(x) | ms(x)) -> ich(x)))")
    eq51 = pf("(all x. ~ms(x)) & (all x. (ms(x) -> h(x))) & (all x. ich(x))")
    for dom in (1, 2):
        assert equiv_fo_finite(strong.result, eq47, max_domain=dom)
        assert equiv_fo_finite(strong.result, Exists2("t", th.as_formula), max_domain=dom)
        assert equiv_fo_finite(weak.result, eq51, max_domain=dom)
        assert equiv_fo_finite(weak.result, Forall2("t", th.as_formula), max_domain=dom)
    report(6, "strong == published result, weak == published result (domains 1-2)")


def test_criterion_7_network_strong_fixpoint():
    _, th = load_theory("network.th")
    strong = fo.forget_strong(th, ["r"])
    assert strong.status is Status.FIXPOINT
    for dom in (1, 2):
        assert equiv_fo_finite(strong.result, Exists2("r", th.as_formula), max_domain=dom)
    report(7, "strong forgetting: fixpoint outcome matches the enumeration oracle")


def test_criterion_7_network_weak_soundness():
    _, th = load_theory("network.th")
    weak = fo.forget_weak(th, ["r"])
    assert weak.ok
    for dom in (1, 2):
        assert equiv_fo_finite(weak.result, Forall2("r", th.as_formula), max_domain=dom)
    # the corrected closed form: universally quantifying the closure rule
    # with the empty relation forbids every direct connection
    corrected = pf("(all x. all y. ~con(x, y)) & (all y. ((ex x. ex(x)) -> (in(y) -> sec(y))))")
    assert equiv_fo_finite(weak.result, corrected, max_domain=2)
    report(7, "weak forgetting equivalent to the universally quantified theory")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published simplification of the network example is weaker than "
        "the universal quantification it claims to equal: instantiating the "
        "forgotten reachability relation with the empty relation forces "
        "~con(x,y) for all x,y, but the published form admits self-loops "
        "(counterexample: one-element domain with con = {(0,0)}).  The "
        "computed result is checked against the quantified theory in "
        "test_criterion_7_network_weak_soundness instead."
    ),
)
def test_criterion_7_network_weak_published_form():
    _, th = load_theory("network.th")
    weak = fo.forget_weak(th, ["r"])
    published = pf(
        "(all x. all z. (con(x, z) -> z = x)) & (all y. ((ex x. ex(x)) -> (in(y) -> sec(y))))"
    )
    for dom in (1, 2):
        assert equiv_fo_finite(weak.result, published, max_domain=dom)


def test_criterion_8_propositional_property_suite():
    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        th = prop_theory(rng)
        forget, keep = forget_split(rng)
        t_th = table(th.as_formula)
        strong = prop.forget_strong(th, forget).result
        weak = prop.forget_weak(th, forget).result
        assert prop_symbols(strong).isdisjoint(forget)
        assert prop_symbols(weak).isdisjoint(forget)
        t_strong = table(strong)
        t_weak = table(weak)
        # expansion equivalences (the literal extremality forms)
        assert t_strong == table(exists2(forget, th.as_formula))
        assert t_weak == table(forall2(forget, th.as_formula))
        # sandwich
        assert entails(t_weak, t_th)
        assert entails(t_th, t_strong)
        # entailment preservation both ways, 20 forget-free formulas each
        a_formulas = [prop_formula(rng, vars=keep, depth=3) for _ in range(20)]
        for a in a_formulas:
            t_a = table(a)
            assert entails(t_th, t_a) == entails(t_strong, t_a)
            assert entails(t_a, t_th) == entails(t_a, t_weak)
        # duality
        dual = prop.forget_strong(Theory("n", (Not(th.as_formula),)), forget).result
        assert t_weak == table(dual) ^ _FULL
        # the four mutual-definability identities
        a = a_formulas[0]
        snc_out = prop.snc(th, a, keep).result
        assert table(snc_out) == table(exists2(forget, conj([th.as_formula, a])))
        wsc_out = prop.wsc(th, a, keep).result
        from dualforget.syntax import Implies

        assert table(wsc_out) == table(forall2(forget, Implies(th.as_formula, a)))
        assert table(prop.snc(th, TOP, keep).result) == t_strong
        assert table(prop.wsc(Theory("n", (Not(th.as_formula),)), BOT, keep).result) == t_weak
        checked += 1
    assert checked == 1000
    report(8, f"{checked} random theories, zero failures")


def test_criterion_9_clause_fragment_suite():
    rng = random.Random(4096)
    checked = 0
    for _ in range(200):
        th, arity = clause_fragment_theory(rng)
        weak = fo.forget_weak(th, ["r"])
        assert weak.ok
        assert "r" not in rel_symbols(weak.result)
        assert "r" not in prop_symbols(weak.result)
        assert equiv_fo_finite(weak.result, Forall2("r", th.as_formula), max_domain=2)
        # clause-rule output stays within the quadratic bound: one tuple
        # equality (arity component equalities) per negative/positive pair
        for conjunct in th.formulas:
            direct = fo.clause_form_eliminate("r", conjunct)
            if direct is None:
                continue
            m, neg, introduced = _clause_counts(conjunct, direct, "r")
            assert introduced == m * neg * arity
        checked += 1
    assert checked == 200
    report(9, f"{checked} clause-fragment theories, zero failures; size bound holds")


def _clause_counts(conjunct, result, rel):
    from dualforget.syntax import Atom, Equal, ForallInd, Not as NotF, children, disjuncts

    _, body = fo._strip(conjunct, ForallInd)
    pos = neg = 0
    for d in disjuncts(body):
        if isinstance(d, Atom) and d.rel == rel:
            pos += 1
        elif isinstance(d, NotF) and isinstance(d.body, Atom) and d.body.rel == rel:
            neg += 1
    def count(f):  # Equal nodes, shared subtrees once per occurrence
        return isinstance(f, Equal) + sum(map(count, children(f)))

    introduced = count(result) - count(conjunct)
    return pos, neg, introduced


def test_criterion_10_trace_validity():
    rng = random.Random(512)
    runs = 0
    # 70 propositional runs
    for _ in range(70):
        th = prop_theory(rng)
        forget, _ = forget_split(rng)
        out = prop.forget_strong(th, forget) if runs % 2 else prop.forget_weak(th, forget)
        for step in out.trace:
            assert equiv_prop(step.before, step.after), step.rule
        runs += 1
    # 30 first-order runs in the clause fragment
    for _ in range(30):
        th, _ = clause_fragment_theory(rng)
        out = fo.forget_weak(th, ["r"]) if runs % 2 else fo.forget_strong(th, ["r"])
        if not out.ok:
            out = fo.forget_weak(th, ["r"])
        for step in out.trace:
            assert equiv_fo_finite(step.before, step.after, max_domain=2), step.rule
        runs += 1
    assert runs == 100
    report(10, "100 runs, every trace step oracle-equivalent")


def test_criterion_11_parser_fuzz_and_round_trip():
    rng = random.Random(99)
    # a byte-oriented alphabet biased toward token characters so the fuzz
    # regularly reaches the deeper parser states
    alphabet = "abcxyz()|&~->=<!.,@ \t0123ALLEX2TFlfpgfp\x00\xffé"
    for i in range(1_000_000):
        if i % 3 == 0:
            s = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        else:
            s = bytes(rng.randrange(256) for _ in range(rng.randint(0, 16))).decode(
                "latin-1"
            )
        try:
            parse_formula(s)
        except ParseError:
            pass
    # exact printer round-trips
    from gen import fo_formula

    for i in range(10_000):
        f = prop_formula(rng) if i % 2 else fo_formula(rng, depth=3)
        free = sorted(free_ind_vars(f))
        assert parse_formula(format_formula(f), free_vars=free) == f
    report(11, "10^6 fuzz inputs without crash; 10^4 exact round trips")
