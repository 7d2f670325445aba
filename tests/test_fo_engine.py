import itertools
import random

import pytest

from conftest import load_theory
from gen import clause_fragment_theory, rule_theory
from test_transform import shared_chain
from dualforget import fo, outcome
from dualforget.errors import ArityError, InternalError, LogicError
from dualforget.outcome import Status
from dualforget.parser import parse_formula, parse_theory
from dualforget.printer import format_formula
from dualforget.semantics import counterexample, equiv_fo_finite, equiv_prop
from dualforget.syntax import (
    TOP,
    Atom,
    Exists2,
    Forall2,
    ForallInd,
    Gfp,
    Implies,
    Lfp,
    Not,
    PropVar,
    Theory,
    Var,
    all_names,
    children,
    conj,
    conjuncts,
    disj,
    exists2,
    forall,
    forall2,
    rel_symbols,
)


def pf(text, **kw):
    return parse_formula(text, **kw)


# ---------------------------------------------------------------------------
# the Ackermann rewrite, through fixpoint_eliminate


def _rules(out):
    return [step.rule for step in out.trace]


def test_ackermann_form_symptoms_is_negative_case():
    # the definition all x. (ms(x) -> t(x)) with a negative residual
    _, theory = load_theory("symptoms.th")
    out = fo.fixpoint_eliminate("t", theory.as_formula)
    assert _rules(out) == ["NNF", "AckermannNeg"]
    assert out.result == pf(
        "(all x. (~ms(x) | h(x))) & (all x. (~ss(x) | ich(x))) & all x. (~ms(x) | ich(x))"
    )


def test_ackermann_form_isolates_bare_negative_literal():
    # isolated as all u1. all u2. (r(u1,u2) -> u1 != x | u2 != y), residual T
    f = Not(Atom("r", (Var("x"), Var("y"))))
    out = fo.fixpoint_eliminate("r", f)
    assert _rules(out) == ["AckermannPos"]
    assert out.result == TOP
    assert equiv_fo_finite(out.result, Exists2("r", f), max_domain=2)


def test_ackermann_form_rejects_inseparable_mix():
    f = pf("r(a) <-> q(a)")
    out = fo.fixpoint_eliminate("r", f)
    assert out.status is Status.FAILED
    assert out.failure_reason == "mixed-polarity occurrences of r not separable"


def test_ackermann_rewrite_symptoms():
    _, theory = load_theory("symptoms.th")
    out = fo.fixpoint_eliminate("t", theory.as_formula)
    assert equiv_fo_finite(
        out.result,
        pf("(all x. (ms(x) -> h(x))) & (all x. ((ss(x) | ms(x)) -> ich(x)))"),
        max_domain=2,
    )


def test_ackermann_rewrite_trivial_residual():
    out = fo.fixpoint_eliminate("r", pf("all u. (r(u) -> a(u))"))
    assert "AckermannPos" in _rules(out)
    assert out.result == TOP


# ---------------------------------------------------------------------------
# fixpoint elimination


def test_fixpoint_eliminate_propositional_variable():
    # the 0-ary Ackermann rewrite, without a fixpoint form
    out = fo.fixpoint_eliminate("p", pf("p & (p -> q)"))
    assert out.status is Status.FIRST_ORDER
    assert out.result == PropVar("q")
    f = pf("(p <-> q) & (p <-> r)")
    out = fo.fixpoint_eliminate("p", f)
    assert out.status is Status.FIRST_ORDER
    assert equiv_prop(out.result, Exists2("p", f))
    f = pf("(p & q | ~p & r) & (p | s)")
    out = fo.fixpoint_eliminate("p", f)
    assert out.status is Status.FAILED
    assert out.failure_reason == "mixed-polarity occurrences of p not separable"
    assert out.residual == f


def test_fixpoint_eliminate_network():
    _, theory = load_theory("network.th")
    out = fo.fixpoint_eliminate("r", theory.as_formula)
    assert out.status is Status.FIXPOINT
    assert "r" not in rel_symbols(out.result)
    assert equiv_fo_finite(out.result, Exists2("r", theory.as_formula), max_domain=2)


def test_fixpoint_degenerates_without_recursion():
    _, theory = load_theory("symptoms.th")
    out = fo.fixpoint_eliminate("t", theory.as_formula)
    assert out.status is Status.FIRST_ORDER
    assert equiv_fo_finite(out.result, Exists2("t", theory.as_formula), max_domain=2)


def test_success_decides_the_status_from_one_walk(monkeypatch):
    # the same walk tells the fragment of a first-order result
    calls = []
    real = outcome.classify
    monkeypatch.setattr(outcome, "classify", lambda f: calls.append(f) or real(f))
    monkeypatch.setattr(outcome, "is_propositional", None)
    fix = pf("q | ~lfp r(u). (a(u) | r(u)) @(b)")
    out = outcome.success(fix, [])
    assert (out.status, out.result, calls) == (Status.FIXPOINT, fix, [fix])
    left = pf("q & Ex2 p. (p | s)")
    out = outcome.success(left, [])
    assert (out.status, out.result, out.residual) == (Status.FAILED, None, left)
    assert out.failure_reason.startswith("second-order quantifier left in result")
    assert calls == [fix, left]
    for text, fragment in (("p & ~q", "prop"), ("all x. a(x)", "fo")):
        calls.clear()
        out = outcome.success(pf(text), [])
        assert (out.status, out.fragment, calls) == (Status.FIRST_ORDER, fragment, [out.result])


def test_outcome_needs_a_reason_or_a_result():
    with pytest.raises(InternalError, match="failed outcome needs a reason"):
        outcome.EliminationOutcome(Status.FAILED, None, (), None)
    with pytest.raises(InternalError, match="successful outcome needs a result"):
        outcome.EliminationOutcome(Status.FIRST_ORDER)


def test_fixpoint_failure_reports_reason():
    # r(x) -> ~r(x) under the definition side: body would be negative
    f = pf("(all x. (~r(x) -> r(x))) & (all x. (r(x) -> a(x))) ")
    out = fo.fixpoint_eliminate("r", f)
    if out.status is Status.FAILED:
        assert out.failure_reason
        assert out.residual is not None
    else:
        assert equiv_fo_finite(out.result, Exists2("r", f), max_domain=2)


# ---------------------------------------------------------------------------
# clause-form elimination


def test_clause_form_spec_shape():
    f = pf("all x. all y. all z. (r(x) | ~r(y) | ~r(z) | a(x))")
    out = fo.clause_form_eliminate("r", f)
    assert out == pf("all x. all y. all z. (y = x | z = x | a(x))")
    assert equiv_fo_finite(out, Forall2("r", f), max_domain=2)


def test_clause_form_no_positive_literals():
    f = pf("all x. (~r(x) | a(x))")
    assert fo.clause_form_eliminate("r", f) == pf("all x. a(x)")


def test_clause_form_no_negative_literals():
    f = pf("all x. (r(x) | a(x))")
    assert fo.clause_form_eliminate("r", f) == pf("all x. a(x)")


def test_clause_form_reads_literal_signs_by_parity():
    # a double negation is a positive literal, as in the propositional rule
    f = pf("all x. (~~r(x) | a(x))")
    out = fo.clause_form_eliminate("r", f)
    assert out == pf("all x. a(x)")
    assert equiv_fo_finite(out, Forall2("r", f), max_domain=2)


def test_clause_form_quadratic_size():
    # |equality disjuncts| = m * (n - m), each of `arity` component equalities
    f = pf("all x. all y. (r(x, y) | r(y, x) | ~r(x, x) | ~r(y, y) | b(x, y))")
    out = fo.clause_form_eliminate("r", f)
    _, body = fo._strip(out, ForallInd)
    eq_disjuncts = [d for d in body.items if d != pf("b(x, y)", free_vars=["x", "y"])]
    assert len(eq_disjuncts) == 2 * 2
    equals = sum(
        1 for d in eq_disjuncts for c in (d.items if hasattr(d, "items") else (d,))
    )
    assert equals == 2 * 2 * 2


def test_clause_form_rejects_other_shapes():
    assert fo.clause_form_eliminate("r", pf("all x. (a(x) | b(x, x))")) is None
    assert fo.clause_form_eliminate("r", pf("all x. (r(x) & a(x))")) is None
    assert fo.clause_form_eliminate("r", pf("all x. ((r(x) & a(x)) | b(x, x))")) is None


# ---------------------------------------------------------------------------
# forgetting drivers


def test_forget_strong_symptoms():
    _, theory = load_theory("symptoms.th")
    out = fo.forget_strong(theory, ["t"])
    assert out.status is Status.FIRST_ORDER
    assert equiv_fo_finite(
        out.result,
        pf("(all x. (ms(x) -> h(x))) & (all x. ((ss(x) | ms(x)) -> ich(x)))"),
        max_domain=2,
    )


def test_forget_strong_network_fixpoint():
    _, theory = load_theory("network.th")
    out = fo.forget_strong(theory, ["r"])
    assert out.status is Status.FIXPOINT
    assert equiv_fo_finite(out.result, Exists2("r", theory.as_formula), max_domain=2)


def test_forget_absent_symbol_is_identity():
    _, theory = load_theory("symptoms.th")
    f = theory.as_formula
    out = fo.forget_strong(theory, ["zz"])
    assert equiv_fo_finite(out.result, f, max_domain=2)


def test_forget_weak_symptoms():
    _, theory = load_theory("symptoms.th")
    out = fo.forget_weak(theory, ["t"])
    assert out.status is Status.FIRST_ORDER
    assert equiv_fo_finite(
        out.result,
        pf("(all x. ~ms(x)) & (all x. (ms(x) -> h(x))) & (all x. ich(x))"),
        max_domain=2,
    )
    assert equiv_fo_finite(out.result, pf("(all x. ~ms(x)) & (all x. ich(x))"), max_domain=2)


def test_forget_weak_network():
    _, theory = load_theory("network.th")
    out = fo.forget_weak(theory, ["r"])
    assert out.ok
    assert equiv_fo_finite(out.result, Forall2("r", theory.as_formula), max_domain=2)
    assert equiv_fo_finite(
        out.result,
        pf("(all x. all y. ~con(x, y)) & (all y. ((ex x. ex(x)) -> (in(y) -> sec(y))))"),
        max_domain=2,
    )


def test_forget_weak_empty_theory():
    assert fo.forget_weak(Theory("e", ()), ["r"]).result == TOP


def test_forget_weak_failure_names_conjunct():
    # both polarities of r inside one biconditional conjunct
    theory = Theory("bad", (pf("all x. (r(x) <-> a(x))"), pf("all x. a(x)")))
    out = fo.forget_weak(theory, ["r"])
    if out.status is Status.FAILED:
        assert "conjunct" in out.failure_reason
    else:
        assert equiv_fo_finite(out.result, Forall2("r", theory.as_formula), max_domain=2)


def test_forget_weak_failure_reports_the_conjunct_and_the_residual():
    # the clause rule cannot take a; ~C has a both ways in one conjunct
    out = fo.forget_weak(Theory("mixed", (pf("(ex y. a(y)) -> all y. a(y)"),)), ["a"])
    assert out.status is Status.FAILED
    assert out.failure_reason == (
        "conjunct 1 ((all y. ~a(y)) | all y. a(y)): mixed-polarity occurrences of a not separable"
    )
    assert out.residual == pf("(all y. ~a(y)) | all y. a(y)")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("r(x) & a(x)", True),
        ("a(x) | ~(b(x, y) -> r(y))", True),
        ("a(x) & p", False),
        ("Ex2 r. r(x)", False),
        ("All2 r. (r(x) | a(x))", False),
        ("(Ex2 r. r(x)) | r(y)", True),
        ("lfp r(u). (a(u) | r(u)) @(x)", False),
        ("(lfp r(u). (a(u) | r(u)) @(x)) & ~r(y)", True),
        ("ex y. (gfp r(u). (b(u, u) & r(u)) @(y))", False),
    ],
)
def test_occurs_outside_fixpoints(text, expected):
    assert fo._occurs_outside_fixpoints(pf(text), "r") is expected


def test_occurs_outside_fixpoints_visits_a_shared_node_once(monkeypatch):
    # about 250 distinct nodes and 2**40 paths: a walk that followed the
    # paths would run for ages, so a budget of node visits stops it; each
    # answer is named alone, as a failure that printed a chain or a call on
    # it would print all of its paths
    class OverBudget(Exception):
        pass

    visits = 0
    walk = fo.children

    def counted(g):
        nonlocal visits
        visits += 1
        if visits > 1000:
            raise OverBudget
        return walk(g)

    def occurs(f, r):
        nonlocal visits
        visits = 0
        try:
            return fo._occurs_outside_fixpoints(f, r)
        except OverBudget:
            return "over budget"

    monkeypatch.setattr(fo, "children", counted)
    chain = shared_chain(40)
    rx = Atom("r", (Var("x"),))
    g = rx
    for i in range(40):
        g = (PropVar(f"p{i}") & g) | (~PropVar(f"p{i}") & g)
    answers = [occurs(chain, "r"), occurs(chain & rx, "r"), occurs(g, "q"), occurs(g, "r")]
    assert answers == [False, True, False, True]


def test_fixpoints_are_terminal():
    _, theory = load_theory("network.th")
    first = fo.forget_strong(theory, ["r"])
    assert first.status is Status.FIXPOINT
    # con now occurs only inside the fixpoint literal, and only negatively:
    # Ex2 con is the formula with con false there (the artificial conjunct)
    second = fo.forget_strong(Theory("n", (first.result,)), ["con"])
    assert second.status is Status.FIXPOINT
    assert "con" not in rel_symbols(second.result)
    assert equiv_fo_finite(second.result, Exists2("con", first.result), max_domain=2)
    # with both polarities inside fixpoint literals it is not attempted
    mixed = parse_formula("lfp r(x). (a(x) | ~a(x) & ex y. (b(x, y) & r(y))) @(c)")
    third = fo.forget_strong(Theory("m", (mixed,)), ["a"])
    assert third.status is Status.FAILED
    assert third.failure_reason == "a occurs only inside fixpoint literals; elimination not attempted"


def test_random_clause_fragment_strong_and_weak():
    # weak forgetting has a closed form on the whole clause fragment; strong
    # forgetting may fail honestly (clauses with several same-sign literals
    # of the eliminated relation), but must be sound whenever it succeeds
    rng = random.Random(67)
    strong_ok = 0
    for _ in range(25):
        theory, arity = clause_fragment_theory(rng)
        weak = fo.forget_weak(theory, ["r"])
        assert weak.ok
        assert "r" not in rel_symbols(weak.result)
        assert equiv_fo_finite(weak.result, Forall2("r", theory.as_formula), max_domain=2)
        strong = fo.forget_strong(theory, ["r"])
        if strong.ok:
            strong_ok += 1
            assert "r" not in rel_symbols(strong.result)
            assert equiv_fo_finite(strong.result, Exists2("r", theory.as_formula), max_domain=2)
        else:
            assert strong.failure_reason
    assert strong_ok > 10  # the escalation succeeds on most of the fragment


def _adversarial_theory(rng):
    """Small arbitrary closed theories over a/1, b/2 and the eliminated
    relation; not restricted to any tractable fragment."""
    from dualforget.syntax import ExistsInd, Var

    arity = rng.randint(1, 2)

    def go(d, scope):
        if d <= 0 or rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.30:
                at = Atom("r", tuple(Var(rng.choice(scope)) for _ in range(arity)))
            elif roll < 0.6:
                at = Atom("a", (Var(rng.choice(scope)),))
            else:
                at = Atom("b", (Var(rng.choice(scope)), Var(rng.choice(scope))))
            return Not(at) if rng.random() < 0.5 else at
        kind = rng.choices(
            ["not", "and", "or", "implies", "forall", "exists"],
            weights=[10, 22, 22, 16, 15, 15],
        )[0]
        if kind == "not":
            return Not(go(d - 1, scope))
        if kind == "implies":
            return Implies(go(d - 1, scope), go(d - 1, scope))
        if kind in ("forall", "exists"):
            v = f"w{len(scope)}"
            cls = ForallInd if kind == "forall" else ExistsInd
            return cls(v, go(d - 1, scope + [v]))
        items = [go(d - 1, scope) for _ in range(2)]
        return conj(items) if kind == "and" else disj(items)

    return Theory(
        "adv",
        tuple(
            ForallInd("w0", go(rng.randint(1, 3), ["w0"]))
            for _ in range(rng.randint(1, 3))
        ),
    )


def test_adversarial_theories_sound_or_fail_honestly():
    # not limited to any fragment: every success must match the quantified
    # theory on all small models; failures must carry a reason
    rng = random.Random(12345)
    for _ in range(80):
        th = _adversarial_theory(rng)
        strong = fo.forget_strong(th, ["r"])
        if strong.ok:
            assert "r" not in rel_symbols(strong.result)
            assert equiv_fo_finite(strong.result, Exists2("r", th.as_formula), max_domain=2)
        else:
            assert strong.failure_reason
        weak = fo.forget_weak(th, ["r"])
        if weak.ok:
            assert "r" not in rel_symbols(weak.result)
            assert equiv_fo_finite(weak.result, Forall2("r", th.as_formula), max_domain=2)
        else:
            assert weak.failure_reason


def _recursive_theory(rng):
    """Closure-rule-shaped theories that exercise the fixpoint branch."""
    from dualforget.syntax import ExistsInd, Var

    def pos_body(d, scope):
        if d <= 0 or rng.random() < 0.45:
            if rng.random() < 0.4:
                return Atom("r", (Var(rng.choice(scope)), Var(rng.choice(scope))))
            return Atom("con", (Var(rng.choice(scope)), Var(rng.choice(scope))))
        kind = rng.choice(["and", "or", "exists"])
        if kind == "exists":
            v = f"z{len(scope)}"
            return ExistsInd(v, pos_body(d - 1, scope + [v]))
        items = [pos_body(d - 1, scope) for _ in range(2)]
        return conj(items) if kind == "and" else disj(items)

    rule = forall(
        ["x", "y"],
        Implies(pos_body(rng.randint(1, 3), ["x", "y"]), Atom("r", (Var("x"), Var("y")))),
    )
    res = [
        forall(
            ["u", "w"],
            Implies(
                Atom("r", (Var("u"), Var("w"))),
                conj([Atom("con", (Var("u"), Var("w")))]),
            ),
        )
        for _ in range(rng.randint(0, 2))
    ]
    return Theory("rec", tuple([rule] + res))


def test_recursive_theories_produce_sound_fixpoints():
    rng = random.Random(777)
    fixpoints = 0
    for _ in range(40):
        th = _recursive_theory(rng)
        out = fo.forget_strong(th, ["r"])
        assert out.ok
        if out.status is Status.FIXPOINT:
            fixpoints += 1
        assert equiv_fo_finite(out.result, Exists2("r", th.as_formula), max_domain=2)
    assert fixpoints >= 5


def test_snc_wsc_fo():
    _, theory = load_theory("symptoms.th")
    query = pf("all x. (ms(x) -> ich(x))")
    keep = ["ms", "ich", "h", "ss"]
    out = fo.snc(theory, query, keep)
    assert out.ok
    assert equiv_fo_finite(
        out.result,
        Exists2("t", conj([theory.as_formula, query])),
        max_domain=2,
    )
    out2 = fo.wsc(theory, query, keep)
    assert out2.ok
    assert equiv_fo_finite(
        out2.result,
        Forall2("t", Implies(theory.as_formula, query)),
        max_domain=2,
    )


@pytest.mark.parametrize("op", ["forget_strong", "forget_weak", "snc", "wsc"])
def test_deep_nesting_raises_logic_error(op):
    x = Var("x")
    deep = Atom("r", (x,))
    for _ in range(3000):
        deep = Not(deep)
    theory = Theory("deep", (ForallInd("x", conj([deep, Atom("s", (x,))])),))
    query = ForallInd("x", Atom("s", (x,)))
    args = (["r"],) if op.startswith("forget") else (query, ["s"])
    with pytest.raises(LogicError, match="nested too deeply"):
        getattr(fo, op)(theory, *args)


_MIXED = """\
all x. (p -> a(x))
all x. (r(x) -> (q | a(x)))
p | ex x. r(x)
"""


@pytest.mark.parametrize(
    "forget", [list(c) for k in (1, 2) for c in itertools.combinations("apqr", k)], ids=",".join
)
@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_mixed_theory_forgetting(mode, forget):
    # p and q are eliminated by the propositional rules, which rewrite only
    # the conjuncts that mention them, so r stays separable in strong p,r
    # and q,r
    _, th = parse_theory(_MIXED, name="mixed")
    op, quant = (fo.forget_strong, exists2) if mode == "strong" else (fo.forget_weak, forall2)
    out = op(th, forget)
    assert out.ok, out.failure_reason
    assert counterexample(out.result, quant(forget, th.as_formula), max_domain=2) is None


def test_forget_strong_keeps_conjuncts_without_forgotten_relations():
    formulas = tuple(pf(t) for t in (
        "all x. (a(x) -> b(x))",
        "all x. (ms(x) -> t(x))",
        "all x. (c(x) <-> ~d(x))",
        "all x. (t(x) -> h(x))",
        "ex x. b(x)",
    ))
    theory = Theory("t", formulas)
    for forget in (["t"], ["t", "ms"], ["c"], ["a", "t"]):
        out = fo.forget_strong(theory, forget)
        assert out.ok, out.failure_reason
        assert counterexample(out.result, exists2(forget, theory.as_formula), max_domain=2) is None
        untouched = [f for f in formulas if rel_symbols(f).keys().isdisjoint(forget)]
        # every one of them, as the same object, in the theory's order
        assert [c for c in conjuncts(out.result) if any(c is f for f in untouched)] == untouched


@pytest.mark.parametrize(
    "formula, message",
    [
        (conj([PropVar("p"), ForallInd("x", Atom("p", (Var("x"),)))]), "p used with arities"),
        (conj([Atom("p", ()), PropVar("q")]), "p applied to no arguments"),
    ],
    ids=["both_kinds", "zero_ary_atom"],
)
@pytest.mark.parametrize("op", ["forget_strong", "forget_weak", "snc", "wsc"])
def test_ill_formed_symbol_use_raises_arity_error(op, formula, message):
    # the parser rejects these as text; a theory built in code must not slip by
    theory = Theory("t", (formula,))
    args = (["p"],) if op.startswith("forget") else (TOP, [])
    with pytest.raises(ArityError, match=message):
        getattr(fo, op)(theory, *args)


def test_forget_weak_clause_rule_takes_every_symbol_of_a_literal_clause():
    # one pass over the literal clause for both kinds at once, not the
    # Ackermann rewrite for p and then the clause rule for r
    theory = Theory("t", (pf("all x. (p | r(x) | ~q(x))"),))
    out = fo.forget_weak(theory, ["p", "r"])
    assert out.ok, out.failure_reason
    assert [(s.rule, s.before) for s in out.trace] == [
        ("ClauseRule", forall2(["p", "r"], theory.as_formula))
    ]
    assert counterexample(out.result, forall2(["p", "r"], theory.as_formula), max_domain=2) is None


def test_forget_weak_clause_rule_for_a_variable_beside_a_quantified_disjunct():
    # the disjunct without p may have any shape when p is the only symbol
    theory = Theory("t", (pf("all x. (~p | ex y. r(x, y))"),))
    out = fo.forget_weak(theory, ["p"])
    assert out.ok, out.failure_reason
    assert [s.rule for s in out.trace] == ["ClauseRule"]
    assert counterexample(out.result, Forall2("p", theory.as_formula), max_domain=2) is None


def _count_free_symbols_calls(monkeypatch):
    """The formulas ``fo.free_symbols`` walks from now on, in call order."""
    calls = []
    walk = fo.free_symbols

    def counted(f, *args):
        calls.append(f)
        return walk(f, *args)

    monkeypatch.setattr(fo, "free_symbols", counted)
    return calls


def test_forget_weak_reads_a_literal_clause_symbols_from_its_literals(monkeypatch):
    # each conjunct is a clause of literals: the whole-theory walk is the
    # only one, whether the conjunct mentions a forgotten symbol or not
    texts = ("all x. (p | r(x) | ~q(x))", "all x. (~r(x) | s(x))", "q(a) | ~p", "s(a)")
    theory = Theory("t", tuple(pf(t) for t in texts))
    calls = _count_free_symbols_calls(monkeypatch)
    out = fo.forget_weak(theory, ["p", "r"])
    assert out.ok, out.failure_reason
    assert calls == [theory.as_formula]
    assert counterexample(out.result, forall2(["p", "r"], theory.as_formula), max_domain=2) is None


def test_wsc_walks_the_theory_and_the_query_once(monkeypatch):
    # one walk of th -> query gives both the symbols to forget and their
    # arities; the weak step reads the clauses' symbols from their literals
    a, b, c = PropVar("a"), PropVar("b"), PropVar("c")
    theory = Theory("t", (a | b, ~b | c))
    body = Implies(theory.as_formula, c)
    calls = _count_free_symbols_calls(monkeypatch)
    out = fo.wsc(theory, c, ["c"])
    assert out.ok, out.failure_reason
    assert calls == [body]
    assert equiv_prop(out.result, forall2(["a", "b"], body))


def test_wsc_rejects_a_name_used_with_two_arities():
    theory = Theory("t", (pf("p | q"),))
    with pytest.raises(ArityError, match=r"^symbol p used with arities 0 and 1$"):
        fo.wsc(theory, pf("all x. p(x)"), ["q"])


def test_forget_weak_walks_a_conjunct_with_a_non_literal_disjunct(monkeypatch):
    # the driver's normalization would split this conjunct into two clauses
    # of literals, so the conjunct step is called on it directly
    c = pf("all x. (r(x) | (a(x) & b(x)))")
    calls = _count_free_symbols_calls(monkeypatch)
    steps = []
    out, reason = fo._eliminate_forall_conjunct(c, ["r"], {"r": 1}, steps)
    assert reason is None
    assert len(calls) == 1 and calls[0] is c
    assert [s.rule for s in steps] == ["ClauseRule"]
    assert counterexample(out, Forall2("r", c), max_domain=2) is None


def test_snc_walks_the_theory_and_the_query_once(monkeypatch):
    # strong forgetting's walks of the simplified conjuncts of th & query
    # (a | b, c) give the symbols to forget; the third walk is of the
    # result of eliminating b (T)
    a, b, c = PropVar("a"), PropVar("b"), PropVar("c")
    theory = Theory("t", (a | b, ~b | c))
    calls = _count_free_symbols_calls(monkeypatch)
    out = fo.snc(theory, c, ["c"])
    assert out.ok, out.failure_reason
    assert len(calls) == 3
    assert calls[:2] == [a | b, c]
    assert equiv_prop(out.result, exists2(["a", "b"], conj([theory.as_formula, c])))


def test_snc_rejects_a_name_used_with_two_arities():
    theory = Theory("t", (pf("p | q"),))
    with pytest.raises(ArityError, match=r"^symbol p used with arities 0 and 1$"):
        fo.snc(theory, pf("all x. p(x)"), ["q"])


# ---------------------------------------------------------------------------
# each elimination rule once per symbol


def _count_attempts(monkeypatch):
    """``(positive_case, allow_r_in_def)`` of each ``fo._attempt`` call
    from now on."""
    attempts = []
    attempt = fo._attempt

    def counted(*args):
        attempts.append(args[2:4])
        return attempt(*args)

    monkeypatch.setattr(fo, "_attempt", counted)
    return attempts


def _extraction(texts):
    """``fo._select_extraction`` for the relation ``r`` on the conjunction
    of ``texts``, normalized as the Ackermann step does."""
    f = fo.normalize(conj([pf(t) for t in texts]))
    return fo._select_extraction("r", conjuncts(f), all_names(f), 1)


# the first conjunct of each defines r in terms of r, in both shapes; in
# _GFP the positive r(c) | r(d) is no definition, so the negative shape fails
_LFP = ("all x. all y. (r(x) | ~e(x, y) | ~r(y))", "all x. (~r(x) | a(x))")
_GFP = ("all x. all y. (~r(x) | e(x, y) | r(y))", "r(c) | r(d)")


@pytest.mark.parametrize(
    "texts, tries, positive_case, artificial, needs_fixpoint",
    [
        # both shapes r-free: the negative one, without trying the other
        (("all x. (~a(x) | r(x))", "~r(c)"), 1, False, False, False),
        # the negative shape is tautological: the positive one, r-free
        (("all x. (~r(x) | a(x))",), 2, True, False, False),
        (("all x. (~r(x) | a(x))", "r(c) | r(d)"), 2, True, False, False),
        # no definition at all: the tautological one
        (("r(c) | r(d)",), 2, True, True, False),
        (("~r(c) | ~r(d)",), 2, False, True, False),
        # both shapes fixpoints: the negative one
        (_LFP, 2, False, False, True),
        (_GFP, 2, True, False, True),
    ],
)
def test_select_extraction_order_of_preference(monkeypatch, texts, tries, positive_case, artificial, needs_fixpoint):
    # each shape is tried at most once, a relation's definition allowed to
    # mention it, where separate r-free and fixpoint passes made up to four
    # attempts
    attempts = _count_attempts(monkeypatch)
    ext = _extraction(texts)
    assert attempts == [(False, True), (True, True)][:tries]
    assert (ext.positive_case, ext.artificial, ext.needs_fixpoint) == (positive_case, artificial, needs_fixpoint)


def test_select_extraction_keeps_a_propositional_variable_out_of_its_definition(monkeypatch):
    # each shape's definition would mention p; expansion is p's fallback
    attempts = _count_attempts(monkeypatch)
    f = fo.nnf(pf("(p -> q | p) & (p | s)"))
    assert fo._select_extraction("p", conjuncts(f), set(), 0) is None
    assert attempts == [(False, False), (True, False)]


@pytest.mark.parametrize("texts, fixpoint", [(_LFP, Lfp), (_GFP, Gfp)])
def test_fixpoint_eliminate_gives_a_least_and_a_greatest_fixpoint(texts, fixpoint):
    f = conj([pf(t) for t in texts])
    out = fo.fixpoint_eliminate("r", f)
    assert out.status is Status.FIXPOINT
    kinds, stack = set(), [out.result]
    while stack:
        g = stack.pop()
        kinds.add(type(g))
        stack.extend(children(g))
    assert kinds & {Lfp, Gfp} == {fixpoint}
    assert counterexample(out.result, Exists2("r", f), max_domain=2) is None


@pytest.mark.parametrize(
    "text, forget, rules",
    [
        ("all x. (r(x) | ~r(c) | s(x) | ex y. q(x, y))", ["r", "s"], ["AckermannNeg", "AckermannPos"]),
        ("all x. (r(x) | ~r(c) | p | ex y. q(x, y))", ["p", "r"], ["AckermannPos", "AckermannNeg"]),
    ],
)
def test_forget_weak_tries_the_clause_rule_once_per_conjunct(monkeypatch, text, forget, rules):
    # the clause rule does not take the conjunct, whose last disjunct is no
    # literal: each symbol goes to the Ackermann step, not to the clause
    # rule again
    clause_rule = fo._clause_rule
    calls = []
    monkeypatch.setattr(fo, "_clause_rule", lambda *args: calls.append(args) or clause_rule(*args))
    theory = Theory("t", (pf(text),))
    out = fo.forget_weak(theory, forget)
    assert out.ok, out.failure_reason
    assert len(calls) == 1
    assert [s.rule for s in out.trace] == rules
    assert format_formula(out.result) == "all x. (x = c | ex y. q(x, y))"
    assert counterexample(out.result, forall2(forget, theory.as_formula), max_domain=2) is None


# ---------------------------------------------------------------------------
# strong forgetting's order of elimination


def _eliminated(out):
    """The symbols of the trace's ``Ex2`` steps, in the order eliminated."""
    order = []
    for step in out.trace:
        if isinstance(step.before, Exists2) and step.before.sym not in order:
            order.append(step.before.sym)
    return order


# p occurs in 3 conjuncts, q and s in 2 each
_COUNTS = ("p | q", "~p | s", "p | ~s | t", "q -> t")
# q occurs in 3 conjuncts, p in 2, the relation r in 2
_AROUND_R = ("q | p", "q | s", "q | ex x. r(x)", "all x. (r(x) -> a(x))", "p | t")


@pytest.mark.parametrize(
    "texts, forget, order",
    [
        (_COUNTS, ["p", "q"], ["q", "p"]),
        (_COUNTS, ["s", "q"], ["s", "q"]),
        (_COUNTS, ["q", "s"], ["q", "s"]),
        # s's elimination leaves p in 2 conjuncts, tied with q
        (_COUNTS, ["p", "s", "q"], ["s", "p", "q"]),
        (_AROUND_R, ["q", "r", "p"], ["q", "r", "p"]),
        (_AROUND_R, ["p", "r", "q"], ["p", "r", "q"]),
        (_AROUND_R, ["r", "q", "p"], ["r", "p", "q"]),
    ],
)
def test_forget_strong_takes_the_variable_in_the_fewest_conjuncts_first(texts, forget, order):
    # ties go in the given order, and no variable passes a relation
    theory = Theory("t", tuple(pf(t) for t in texts))
    out = fo.forget_strong(theory, forget)
    assert out.ok, out.failure_reason
    assert _eliminated(out) == order
    assert counterexample(out.result, exists2(forget, theory.as_formula), max_domain=2) is None


def test_forget_strong_keeps_a_relation_at_its_place():
    # r occurs in 2 conjuncts and p in 3, but r waits for p: eliminating r
    # first fails, and p's elimination takes both of r's conjuncts with it
    theory = Theory("t", tuple(pf(t) for t in ("p | ex x. r(x)", "p | ex x. ~r(x)", "p | q", "q -> s")))
    out = fo.forget_strong(theory, ["p", "r"])
    assert out.ok, out.failure_reason
    assert out.result == pf("q -> s")
    assert counterexample(out.result, exists2(["p", "r"], theory.as_formula), max_domain=2) is None
    out = fo.forget_strong(theory, ["r", "p"])
    assert out.failure_reason == "mixed-polarity occurrences of r not separable"


def _node_count(f):
    """Formula nodes, a shared subtree once per occurrence."""
    count, stack = 0, [f]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    return count


def test_forget_strong_rule_theory_result_size():
    # 256 rules over 40 variables, 16 forgotten: taking the variables in
    # the given order gave 328,128 nodes, the fewest-conjuncts order gives
    # 186,002
    theory, forget = rule_theory(random.Random(7), 256, 40, 16)
    out = fo.forget_strong(theory, forget)
    assert out.ok, out.failure_reason
    assert _node_count(out.result) < 200_000


def test_forget_strong_rule_theory_against_the_oracle():
    theory, forget = rule_theory(random.Random(3), 64, 22, 10)
    out = fo.forget_strong(theory, forget)
    assert out.ok, out.failure_reason
    order = _eliminated(out)
    assert sorted(order) == sorted(forget) and order != forget  # the engine's own order
    assert equiv_prop(out.result, exists2(forget, theory.as_formula))


# ---------------------------------------------------------------------------
# a trace step builds its formulas when read


def _count_trace_builders(monkeypatch):
    """Calls of ``fo.forall2``, ``fo.Forall2`` and ``fo.Exists2`` from now
    on, by name."""
    calls = dict.fromkeys(("forall2", "Forall2", "Exists2"), 0)
    for name in calls:

        def counted(*args, name=name, real=getattr(fo, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fo, name, counted)
    return calls


def _read(out):
    return [(s.rule, format_formula(s.before), format_formula(s.after)) for s in out.trace]


def test_weak_forgetting_builds_its_trace_when_read(monkeypatch):
    theory = Theory("t", (pf("~a | b"), pf("~b | c"), pf("~c | d")))
    calls = _count_trace_builders(monkeypatch)
    out = fo.forget_weak(theory, ["b"])
    assert out.ok, out.failure_reason
    assert calls == {"forall2": 0, "Forall2": 0, "Exists2": 0}
    assert _read(out) == [
        ("DistributeForall", "All2 b. ((~a | b) & (~b | c) & (~c | d))",
         "(All2 b. (~a | b)) & (All2 b. (~b | c)) & All2 b. (~c | d)"),
        ("ClauseRule", "All2 b. (~a | b)", "~a"),
        ("ClauseRule", "All2 b. (~b | c)", "c"),
    ]
    # the two sides of DistributeForall, then one per ClauseRule step
    assert calls == {"forall2": 1 + 3 + 2, "Forall2": 0, "Exists2": 0}
    step = out.trace[0]
    assert step.before is step.before and step.after is step.after


def test_strong_forgetting_builds_its_trace_when_read(monkeypatch):
    # Shannon expansion of a, an artificial conjunct for p, an Ackermann
    # step for b
    theory = Theory("t", (pf("(a & b) | (~a & c)"), pf("~b | d"), pf("(p & r) | q")))
    calls = _count_trace_builders(monkeypatch)
    out = fo.forget_strong(theory, ["a", "b", "p"])
    assert out.ok, out.failure_reason
    assert calls == {"forall2": 0, "Forall2": 0, "Exists2": 0}
    assert _read(out) == [
        ("ShannonExists", "Ex2 a. (a & b | ~a & c)", "F & b | ~F & c | T & b | ~T & c"),
        ("Simplify", "F & b | ~F & c | T & b | ~T & c", "c | b"),
        ("ArtificialConjunct", "Ex2 p. (p & r | q)", "Ex2 p. ((p -> T) & (p & r | q))"),
        ("AckermannPos", "Ex2 p. (p & r | q)", "T & r | q"),
        ("Simplify", "T & r | q", "r | q"),
        ("AckermannNeg", "Ex2 b. ((c | b) & (~b | d))", "~~c | d"),
        ("Simplify", "~~c | d", "c | d"),
    ]
    # one per Shannon and Ackermann step, two for the artificial conjunct
    assert calls == {"forall2": 0, "Forall2": 0, "Exists2": 5}
    for step in out.trace:
        assert step.before is step.before and step.after is step.after


def test_each_weak_step_keeps_its_own_symbol_and_conjunct():
    # the clause rule does not apply (q & a is no literal), so p and then q
    # go one at a time through the loop that rebinds the symbol and the
    # conjunct; each step's before is read only now, after the loop
    c = pf("p | (q & a)")
    steps = []
    out, reason = fo._eliminate_forall_conjunct(c, ["p", "q"], {"p": 0, "q": 0}, steps)
    assert (out, reason) == (pf("F"), None)
    assert [(s.rule, s.before, format_formula(s.after)) for s in steps] == [
        ("AckermannPos", Forall2("p", c), "q & a"),
        ("AckermannPos", Forall2("q", pf("q & a")), "F"),
    ]


def test_trace_step_takes_formulas_and_checks_its_rule():
    f, g = pf("p | ~p"), pf("T")
    step = outcome.TraceStep("Simplify", f, lambda: g)
    assert (step.rule, step.before, step.after) == ("Simplify", f, g)
    with pytest.raises(InternalError, match="unknown trace rule 'Nope'"):
        outcome.TraceStep("Nope", f, g)


@pytest.mark.parametrize(
    "text",
    [
        "(all x. (~a(x) | b(x))) & (p | ~q) & ~r(c)",
        "all x. ex y. (~a(x) | b(y))",
        "p | q",
    ],
)
def test_normalize_returns_a_formula_in_clause_form_as_it_is(text):
    f = pf(text)
    assert fo.normalize(f) is f


def test_normalize_keeps_the_subtrees_it_does_not_change():
    kept = pf("all x. (~a(x) | b(x))")
    f = conj([kept, pf("p | (q & r)")])
    assert fo.normalize(f) == conj([kept, pf("p | q"), pf("p | r")])
    assert fo.normalize(f).items[0] is kept


@pytest.mark.parametrize(
    "text, expected",
    [
        ("(p & ~q) | (~p & q)", "(p | q) & (~q | ~p)"),
        ("(p & q) | ~p", "q | ~p"),
        # relation literals count: same symbol, same arguments
        ("all x. ((r(x) & a) | ~r(x))", "all x. (a | ~r(x))"),
        ("all x. ((r(x) & a) | ~r(c))", "(all x. (r(x) | ~r(c))) & all x. (a | ~r(c))"),
        ("all x. ((x = c & a) | ~(x = c))", "all x. (a | ~(x = c))"),
        # every clause of the product is valid
        ("(p & q) | ~p | ~q", "T"),
        ("((p & q) | ~p | ~q) & r", "r"),
        # a product item that holds a pair itself
        ("((p | ~p) & q) | r", "q | r"),
    ],
)
def test_normalize_builds_no_clause_with_a_literal_and_its_complement(text, expected):
    assert fo.normalize(pf(text)) == pf(expected)


#: an NNF disjunction whose product, 2**6 * 3 clauses, passes ``_DIST_LIMIT``;
#: its last item holds a disjunction that could be distributed alone
_OVERFLOW = "(a & b) | (b & c) | (c & d) | (d & e) | (e & a) | (a & c) | (g & (h | (p & q)))"


def test_normalize_keeps_a_disjunction_past_the_limit_whole():
    f = pf(_OVERFLOW)
    assert fo.nnf(f) is f
    assert fo.normalize(f) is f


def test_weak_forgetting_clause_steps_skip_valid_clauses():
    th = Theory("t", (pf(_OVERFLOW), pf("(p & ~q) | (~p & s)"), pf("(p & r) | ~p")))
    out = fo.forget_weak(th, ["p"])
    assert out.ok, out.failure_reason
    # p | s and ~q | ~p from the second formula, r | ~p from the third; not
    # p | ~p, once from each
    assert _rules(out).count("ClauseRule") == 3
    assert equiv_prop(out.result, forall2(["p"], th.as_formula))


def test_strong_forgetting_meets_no_valid_clause_as_a_definition():
    # nnf builds the valid clause b(v0, v0) | ~a(v0) | a(v0) whole, so no
    # product drops it; as a definition of a it would put b inside a
    # fixpoint literal, beside a b outside it, and b's elimination would
    # fail
    th = Theory("t", (pf("all v0. ((b(v0, v0) & b(v0, v0) -> F) & a(v0) <-> a(v0))"),))
    out = fo.forget_strong(th, ["a", "b"])
    assert out.ok, out.failure_reason
    assert out.result == TOP
