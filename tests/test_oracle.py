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
from dualforget.semantics import MAX_TT_VARS, kernel, prop_oracle
from dualforget.semantics.fo_oracle import _tuple_space
from dualforget.syntax import (
    BOT,
    TOP,
    Exists2,
    Forall2,
    Iff,
    Implies,
    Not,
    PropVar,
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


@pytest.mark.parametrize("text", ["all x. p", "T | r(a)", "a = a", "lfp r(x). s(x) @(a)"])
def test_eval_prop_rejects_first_order_constructs(text):
    # even where evaluating over one element would never reach them
    with pytest.raises(EvalError):
        eval_prop(pf(text), {"p": True})


def test_taut_equiv_examples():
    assert taut_prop(pf("p | ~p"))
    assert not taut_prop(pf("p | q"))
    assert equiv_prop(pf("p -> q"), pf("~q -> ~p"))
    assert not equiv_prop(pf("p"), pf("q"))


def test_truth_table_guard():
    many = " & ".join(f"v{i}" for i in range(23))
    with pytest.raises(GuardError):
        taut_prop(pf(many))


@pytest.fixture(params=["tables", "masked", "circuit"])
def oracle_path(request, monkeypatch):
    """Below kernel.FREE_FROM_VARS inputs both oracles compute truth tables
    as they walk the formulas.  A propositional check whose names, free and
    bound, fit in FREE_FROM_VARS - 1 inputs takes one walk that projects
    the bound names out; a wider one first scans for the names free in each
    node.  "masked" makes the one walk decline, so that every propositional
    check is scanned; "circuit" moves the cut to 0 so that every check
    builds and evaluates a circuit instead."""
    if request.param == "masked":
        monkeypatch.setattr(prop_oracle, "_one_walk", lambda fs: None)
    if request.param == "circuit":
        monkeypatch.setattr(kernel, "FREE_FROM_VARS", 0)
    return request.param


def _each_path(monkeypatch):
    """The two paths of ``oracle_path`` in turn, inside one test, for tests
    whose names and reference values stay those of one run: tables below
    the cut as shipped first, then circuits only, until the test ends."""
    yield "tables"
    monkeypatch.setattr(kernel, "FREE_FROM_VARS", 0)
    yield "circuit"


def _valuations(vocab):
    for v in range(1 << len(vocab)):
        yield v, {name: bool((v >> i) & 1) for i, name in enumerate(vocab)}


def test_eval_prop_agrees_with_table(oracle_path):
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


def test_quantified_checks_agree_with_eval_prop(oracle_path):
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


def test_checks_without_inputs(oracle_path):
    for f, value in [(TOP, True), (BOT, False), (pf("Ex2 p. p"), True),
                     (pf("All2 p. (p | ~p) & All2 q. q"), False)]:
        assert truth_table(f, []) == int(value)
        assert taut_prop(f) == value
        assert equiv_prop(f, TOP) == value
        assert implies_prop(TOP, f) == value
        assert implies_prop(BOT, f)
        assert implies_prop(f, TOP)


def _assert_checks_agree(f, g):
    """The three checks on ``f`` and ``g`` agree with ``eval_prop`` at every
    valuation of their free names."""
    vocab = sorted(prop_symbols(f) | prop_symbols(g))
    fv, gv = [], []
    for _, val in _valuations(vocab):
        fv.append(eval_prop(f, val))
        gv.append(eval_prop(g, val))
    assert taut_prop(f) == all(fv)
    assert taut_prop(g) == all(gv)
    assert equiv_prop(f, g) == (fv == gv)
    assert implies_prop(f, g) == all(b or not a for a, b in zip(fv, gv))
    assert implies_prop(g, f) == all(a or not b for a, b in zip(fv, gv))


@pytest.mark.parametrize("f_text,g_text", [
    # a bound name that is also free, and one bound again inside its binder
    ("p & Ex2 p. (p | q)", "p"),
    ("p & Ex2 p. (p | q)", "q"),
    ("Ex2 p. (p & Ex2 p. ~p)", "T"),
    ("All2 p. (p | All2 p. ~p) -> p", "p"),
    # a name bound on one side and free on the other
    ("Ex2 q. (p & q)", "p & q"),
    ("All2 q. (p | q)", "p | q"),
    ("All2 q. (p | q)", "p"),
    # All2 over a constant body
    ("All2 p. T", "T"),
    ("All2 p. F", "F"),
    ("All2 p. (q | ~q)", "Ex2 p. ~p"),
    ("All2 p. (q & ~q)", "p & ~p"),
])
def test_bound_names_share_inputs_with_free_ones(oracle_path, f_text, g_text):
    _assert_checks_agree(pf(f_text), pf(g_text))


def _wide_formula(rng, vocab):
    """A random formula, quantified over one name, that mentions every name
    of ``vocab`` free."""
    f = prop_formula(rng, vocab, depth=4)
    f = rng.choice([Exists2, Forall2])(vocab[0], disj([f, PropVar(vocab[0])]))
    return disj([f, conj([PropVar(v) for v in vocab])])


@pytest.mark.parametrize("n_vars", [11, 12])
def test_checks_at_the_cut_agree_with_eval_prop(oracle_path, n_vars):
    rng = random.Random(n_vars)
    vocab = [f"v{i:02}" for i in range(n_vars)]
    for _ in range(3):
        f, g = _wide_formula(rng, vocab), _wide_formula(rng, vocab)
        table = truth_table(f, vocab)
        fv, gv = [], []
        for v, val in _valuations(vocab):
            fv.append(eval_prop(f, val))
            gv.append(eval_prop(g, val))
            assert bool((table >> v) & 1) == fv[-1]
        assert taut_prop(f) == all(fv)
        assert equiv_prop(f, g) == (fv == gv)
        assert equiv_prop(f, Not(Not(f)))
        assert implies_prop(f, g) == all(b or not a for a, b in zip(fv, gv))
        assert implies_prop(conj([f, g]), f)


@pytest.mark.parametrize("n_vars,circuits", [(0, 0), (11, 0), (12, 1), (22, 1)])
def test_width_decides_the_evaluation_path(monkeypatch, n_vars, circuits):
    # the truth tables come out of the compile walk below 12 inputs; from
    # there on one circuit per check is evaluated by the kernel
    calls = []
    eval_table = kernel.eval_table
    monkeypatch.setattr(kernel, "eval_table", lambda *a: calls.append(a) or eval_table(*a))
    f = conj([PropVar(f"v{i:02}") for i in range(n_vars)])
    assert equiv_prop(f, Not(Not(f)))
    assert implies_prop(f, f)
    assert taut_prop(f) == (n_vars == 0)
    assert truth_table(f, sorted(prop_symbols(f))) == 1 << ((1 << n_vars) - 1)
    assert len(calls) == 4 * circuits


def _with_bound_names(n_free, n_bound):
    """A conjunction of ``n_free`` free names and ``n_bound`` names, each
    bound by its own ``Ex2`` around it; equivalent to the free conjunction,
    which is returned beside it."""
    free = conj([PropVar(f"v{i}") for i in range(n_free)])
    f = conj([free] + [PropVar(f"b{i}") for i in range(n_bound)])
    for i in range(n_bound):
        f = Exists2(f"b{i}", f)
    return f, free


@pytest.mark.parametrize("n_bound,scans", [(5, 0), (6, 1)])
def test_the_cut_counts_bound_names(monkeypatch, n_bound, scans):
    # 11 names fit in the one walk's FREE_FROM_VARS - 1 inputs however many
    # are bound; the 12th sends the check to the free-name scan, and the
    # verdicts stay the same
    calls = []
    scan = prop_oracle._scan
    monkeypatch.setattr(prop_oracle, "_scan", lambda fs: calls.append(fs) or scan(fs))
    f, free = _with_bound_names(6, n_bound)
    verdicts = [equiv_prop(f, free), implies_prop(free, f), implies_prop(f, free),
                implies_prop(f, PropVar("b0")), taut_prop(f)]
    assert verdicts == [True, True, True, False, False]
    assert len(calls) == len(verdicts) * scans


def test_a_first_order_node_is_named_on_either_side_of_the_cut():
    # the one walk rejects it with the scan's words, and when the walk
    # stops at the 12th name first, the scan rejects it
    f, _ = _with_bound_names(6, 6)
    node = pf("all x. p")
    messages = []
    for g in [conj([node, f]), conj([f, node])]:
        with pytest.raises(EvalError) as caught:
            equiv_prop(g, TOP)
        messages.append(str(caught.value))
    assert messages == ["first-order construct in propositional oracle: ForallInd"] * 2


def test_truth_table_over_names_the_formula_does_not_use(oracle_path):
    f = pf("(p -> q) & Ex2 r. (r & p | ~r & q)")
    order = ["a", "p", "r", "q", "b"]
    table = truth_table(f, order)
    for v, val in _valuations(order):
        assert bool((table >> v) & 1) == eval_prop(f, val)
    with pytest.raises(EvalError, match="does not list 'q'"):
        truth_table(f, ["p", "a"])
    # each input gets one name: a repeated one would leave input 1 unnamed
    with pytest.raises(EvalError, match="repeats 'p'"):
        truth_table(pf("p"), ["p", "p"])
    with pytest.raises(EvalError, match="repeats 'p'"):
        truth_table(f, ["q", "p", "r", "p"])


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


def test_counterexample_is_deterministic_and_real(monkeypatch):
    f = pf("all x. (a(x) -> b(x, x))")
    g = pf("ex x. a(x)")
    found = []
    for _ in _each_path(monkeypatch):
        ce1 = counterexample(f, g, max_domain=2)
        ce2 = counterexample(f, g, max_domain=2)
        assert ce1 == ce2
        assert eval_fo(f, ce1.interp, ce1.env) != eval_fo(g, ce1.interp, ce1.env)
        found.append(ce1)
    assert found[0] == found[1]


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


def test_ground_path_agrees_with_recursive_eval(monkeypatch):
    # the grounded equivalence check, as tables or as a circuit, and the
    # direct recursive evaluator are independent implementations; they must
    # agree on whether a formula is valid over all small models
    rng = random.Random(37)
    fs = [fo_formula(rng, depth=2) for _ in range(30)]
    valid = [all(eval_fo(f, m) for d in (1, 2) for m in _all_models(d)) for f in fs]
    for _ in _each_path(monkeypatch):
        assert [counterexample(f, pf("T"), max_domain=2) is None for f in fs] == valid


def test_so_quantifier_ground_vs_recursive(monkeypatch):
    # grounding and recursive evaluation over each kind of bound symbol: the
    # grounding, as tables or as a circuit, must be valid, and satisfiable,
    # exactly where the recursive evaluator says so
    rng = random.Random(41)
    models = [m for d in (1, 2) for m in _all_models(d)]
    p = PropVar("p")
    qs = []
    for _ in range(10):
        f = fo_formula(rng, depth=2)
        g = fo_formula(rng, depth=2)
        qs += [
            Exists2("b", f),
            Exists2("s", f),  # vacuous
            conj([disj([p, f]), Exists2("p", disj([conj([p, f]), conj([Not(p), g])]))]),
            Forall2("b", f),
            # the inner b rebinds: satisfiable iff f depends on b
            Exists2("b", conj([f, Exists2("b", Not(f))])),
        ]
    values = [{eval_so(q, m) for m in models} for q in qs]
    for _ in _each_path(monkeypatch):
        for q, vs in zip(qs, values):
            assert (vs == {True}) == (counterexample(q, pf("T"), max_domain=2) is None)
            assert (vs == {False}) == (counterexample(q, pf("F"), max_domain=2) is None)


@pytest.mark.parametrize(
    "n_props,so,calls",
    [(0, False, 0), (11, False, 0), (12, False, 1 + 4), (22, False, 1 + 4), (10, True, 4)],
)
def test_width_decides_the_first_order_path(monkeypatch, n_props, so, calls):
    # the truth tables come out of the grounding walk below 12 inputs; from
    # there on the kernel evaluates one circuit per assignment of the
    # constant and the free variable: one at domain size 1, four at 2.
    # With so, the bound atoms b(y, y) take 1 input at size 1 and 4 at 2.
    seen = []
    eval_table = kernel.eval_table
    monkeypatch.setattr(kernel, "eval_table", lambda *a: seen.append(a) or eval_table(*a))
    parts = [f"v{i:02}" for i in range(n_props)] + ["(x = c | ~x = c)"]
    if so:
        parts.append("Ex2 b. ex y. b(y, y)")
    f = pf(" & ".join(parts), free_vars=["x"])
    assert counterexample(f, Not(Not(f)), max_domain=2) is None
    assert len(seen) == calls


def test_domain_guard():
    with pytest.raises(GuardError):
        counterexample(pf("p"), pf("q"), max_domain=4)


# ---------------------------------------------------------------------------
# second-order quantifiers by projection


#: each pair at domain sizes 1-3; the free vocabulary is a/1, p and at most
#: one constant, so the reference enumeration stays small
_SO_PAIRS = [
    # binary Ex2: every element has an a-element other than itself
    ("Ex2 b. ((all x. ex y. (b(x, y) & a(y))) & all x. ~b(x, x))",
     "(all x. a(x)) & ex x. ex y. ~x = y"),
    # binary All2, equivalent to a(c)
    ("All2 b. ((all x. (a(x) -> b(x, x))) -> ex x. b(x, c))", "a(c)"),
    ("All2 b. ((all x. (a(x) -> b(x, x))) -> ex x. b(x, c))", "ex x. a(x)"),
    ("All2 b. ((ex x. ex y. b(x, y)) | p)", "p"),
    # 0-ary binders
    ("Ex2 q. ((q -> a(c)) & (~q -> p) & (q | ex x. a(x)))", "a(c) | (p & ex x. ~x = c)"),
    ("All2 q. (q | p | ex x. a(x))", "p"),
    # an Iff under the binder
    ("Ex2 s. ((all x. (s(x) -> a(x))) & (p <-> ex x. s(x)))", "p -> ex x. a(x)"),
    # Ex2 under an individual quantifier: equivalent to ~a(c)
    ("all x. (a(x) -> Ex2 s. (s(x) & ~s(c)))", "~a(c)"),
    ("all x. (a(x) -> Ex2 s. (s(x) & ~s(c)))", "all x. ~a(x)"),
    # Ex2 inside a fixpoint body; Ex2 s. (s(v) & ~s(u)) is v != u
    ("lfp r(u). (a(u) | ex v. ((Ex2 s. (s(v) & ~s(u))) & r(v) & p)) @(c)",
     "a(c) | (p & ex v. a(v))"),
    ("lfp r(u). (a(u) | ex v. ((Ex2 s. (s(v) & ~s(u))) & r(v) & p)) @(c)",
     "a(c) | ex v. (a(v) & ~v = c)"),
    # the inner b rebinds: (ex x. a(x)) & (ex x. ~a(x))
    ("Ex2 b. ((all x. (b(x) -> a(x))) & (ex x. b(x)) & Ex2 b. ex x. (b(x) & ~a(x)))",
     "(ex x. a(x)) & ex x. ~a(x)"),
    ("Ex2 b. ((all x. (b(x) -> a(x))) & (ex x. b(x)) & Ex2 b. ex x. (b(x) & ~a(x)))",
     "ex x. ex y. (a(x) & ~x = y)"),
    # nested binders of two symbols, the inner body reading both: ex x. a(x)
    ("Ex2 s. ((all x. (s(x) -> a(x))) & Ex2 t. ((all x. (t(x) <-> ~s(x))) & ex x. (t(x) & a(x))))",
     "ex x. a(x)"),
    ("Ex2 s. ((all x. (s(x) -> a(x))) & Ex2 t. ((all x. (t(x) <-> ~s(x))) & ex x. (t(x) & a(x))))",
     "ex x. (a(x) & p)"),
]


def _first_difference(f, g, max_domain):
    """The first interpretation in the documented enumeration order where
    ``eval_so`` tells ``f`` and ``g`` apart: domain sizes ascending,
    constants then free variables outermost, then the ground atoms as the
    bits of a counter, relations by name and tuples in lexicographic order
    first, propositional variables by name after them."""
    from itertools import product

    from dualforget.semantics.fo_oracle import Counterexample
    from dualforget.syntax import free_ind_vars, signature_of

    sig = signature_of(f, g)
    consts = sorted(sig.constants)
    free = sorted(free_ind_vars(f) | free_ind_vars(g))
    for d in range(1, max_domain + 1):
        atoms = [(n, t) for n in sorted(sig.relations) for t in _tuple_space(d, sig.relations[n])]
        atoms += [(n, ()) for n in sorted(sig.prop_vars)]
        for const_vals in product(range(d), repeat=len(consts)):
            for env_vals in product(range(d), repeat=len(free)):
                env = dict(zip(free, env_vals))
                for v in range(1 << len(atoms)):
                    on = [atom for i, atom in enumerate(atoms) if (v >> i) & 1]
                    m = FiniteInterpretation(
                        d,
                        dict(zip(consts, const_vals)),
                        {n: frozenset(t for m_, t in on if m_ == n) for n in sig.relations},
                        {n: (n, ()) in on for n in sig.prop_vars},
                    )
                    if eval_so(f, m, env) != eval_so(g, m, env):
                        return Counterexample(m, env)
    return None


@pytest.mark.parametrize("f_text,g_text", _SO_PAIRS)
def test_projected_counterexample_is_the_first_difference(monkeypatch, f_text, g_text):
    f, g = pf(f_text), pf(g_text)
    expected = [_first_difference(f, g, max_domain) for max_domain in (1, 2, 3)]
    for _ in _each_path(monkeypatch):
        assert [counterexample(f, g, max_domain=d) for d in (1, 2, 3)] == expected


def test_bound_tuples_past_the_input_guard_are_enumerated(monkeypatch):
    # with the guard cut to 6 inputs some bound tuples get no input: they
    # are enumerated as constants and the rest projected, with the same
    # counterexamples as with every tuple projected
    from collections import Counter

    from dualforget.semantics import fo_oracle

    pairs = [(pf(a), pf(b)) for a, b in _SO_PAIRS]
    expected = [counterexample(f, g, max_domain=3) for f, g in pairs]
    f, g = pairs[0]  # told apart at domain size 3 only
    grounded = Counter()

    def counting(ground):
        def counting_ground(self, h, env, frames):
            grounded[self.d] += h is f.body
            return ground(self, h, env, frames)

        return counting_ground

    # 2, 6 and 12 inputs: tables at domain sizes 1 and 2, a circuit at 3;
    # under the 6-input guard, tables at every size
    monkeypatch.setattr(fo_oracle._Grounder, "ground", counting(fo_oracle._Grounder.ground))
    counterexample(f, g, max_domain=3)
    assert grounded == {1: 1, 2: 1, 3: 1}  # every tuple projected
    grounded.clear()
    monkeypatch.setattr(fo_oracle, "MAX_TT_VARS", 6)
    assert [counterexample(f, g, max_domain=3) for f, g in pairs] == expected
    grounded.clear()
    counterexample(f, g, max_domain=3)
    # d free atoms a(0..d-1) leave 6 - d inputs for the d**2 tuples of b
    assert grounded == {1: 1, 2: 1, 3: 2 ** (9 - 3)}


def test_counterexample_guards(monkeypatch):
    from dualforget.semantics import fo_oracle

    with pytest.raises(GuardError, match="23 ground atoms"):
        counterexample(pf(" & ".join(f"v{i}" for i in range(23))), pf("T"), max_domain=1)
    for max_domain in (1, 2, 3):
        with pytest.raises(GuardError, match="arity 3"):
            counterexample(pf("Ex2 r. r(a, b, c)"), pf("T"), max_domain=max_domain)
    # the guard counts free atoms only: bound tuples that get no input are
    # enumerated
    monkeypatch.setattr(fo_oracle, "MAX_TT_VARS", 6)
    fits = pf("Ex2 s. all x. (s(x) <-> a(x)) & (p | q | r)")
    assert counterexample(fits, pf("p | q | r"), max_domain=3) is None
    with pytest.raises(GuardError, match="7 ground atoms at domain size 3"):
        counterexample(fits, pf("(p | q | r) & (t | ~t)"), max_domain=3)


def test_each_binder_reads_its_arity_once_per_check(monkeypatch):
    # the grounders of one check share the arities they read: one
    # free_symbols per binder, whatever the domain sizes, the assignments
    # of x and c, and the table attempt at size 3 that the bound tuples of
    # b and s outgrow
    from dualforget.semantics import fo_oracle

    seen = []
    walk = fo_oracle.free_symbols
    monkeypatch.setattr(fo_oracle, "free_symbols", lambda f: seen.append(f) or walk(f))
    f = pf(
        "Ex2 b. ((ex y. b(y, x)) & Ex2 s. all y. (s(y) <-> b(y, c))) & (Ex2 t. p) & (x = c | ~x = c)",
        free_vars=["x"],
    )
    for n_checks in (1, 2):
        assert counterexample(f, pf("p"), max_domain=3) is None
        assert len(seen) == 3 * n_checks


def _spaces_and_circuits(monkeypatch):
    """The widths of the spaces the grounders take, in order, and the
    ``n_vars`` of each circuit the kernel evaluates."""
    spaces, circuits = [], []
    space, eval_table = kernel._space, kernel.eval_table
    monkeypatch.setattr(kernel, "_space", lambda n: spaces.append(n) or space(n))
    monkeypatch.setattr(kernel, "eval_table", lambda b, out: circuits.append(b.n_vars) or eval_table(b, out))
    return spaces, circuits


def test_sibling_binders_reuse_table_inputs(monkeypatch):
    # at domain size 2 each binder's 4 tuples fit beside a(0), a(1), and
    # the five siblings' 20 take the same inputs in turn
    spaces, circuits = _spaces_and_circuits(monkeypatch)
    siblings = " & ".join(f"(Ex2 b{i}. ex y. (b{i}(y, y) & a(y)))" for i in range(5))
    assert counterexample(pf(siblings), pf("ex y. a(y)"), max_domain=2) is None
    assert spaces == [kernel.FREE_FROM_VARS - 1] * 2
    assert circuits == []


def test_a_nested_chain_past_the_tables_grounds_on_circuits(monkeypatch):
    # at domain size 2, a(0), a(1) and the 4 tuples of each of b, s and t
    # nested need 14 inputs: the first assignment's table walk stops at t,
    # and each of the 4 assignments of (x, c) is one circuit of 14 inputs
    spaces, circuits = _spaces_and_circuits(monkeypatch)
    f = pf(
        "Ex2 b. Ex2 s. Ex2 t. all y. ((b(y, x) | s(y, c)) & (b(y, x) -> a(y))"
        " & (s(y, c) -> a(y)) & (t(y, y) <-> a(y)))",
        free_vars=["x"],
    )
    assert counterexample(f, pf("all y. a(y)"), max_domain=2) is None
    tables = kernel.FREE_FROM_VARS - 1
    assert spaces == [tables, tables] + [MAX_TT_VARS] * 4
    assert circuits == [2 + 3 * 4] * 4


def test_the_arity_guard_holds_past_the_tables():
    # f's 11 free atoms and bound q outgrow the tables at domain size 1,
    # before the grounder meets g's binder
    f = pf(" & ".join(f"v{i:02}" for i in range(11)) + " & Ex2 q. (q | v00)")
    with pytest.raises(GuardError, match="arity 3"):
        counterexample(f, pf("Ex2 r. r(a, b, c)"), max_domain=1)


def test_eval_fo_names_what_it_cannot_evaluate():
    no_r = {"r": frozenset()}
    for f, interp, message in [
        (pf("Ex2 p. p"), FiniteInterpretation(1), "second-order quantifier in first-order evaluation"),
        (pf("r(x)", free_vars=["x"]), FiniteInterpretation(1, rel_map=no_r), "unbound variable 'x'"),
        (pf("r(c)"), FiniteInterpretation(1, rel_map=no_r), "constant 'c' not interpreted"),
        (pf("r(c)"), FiniteInterpretation(1, const_map={"c": 0}), "relation 'r' not interpreted"),
    ]:
        with pytest.raises(EvalError) as err:
            eval_fo(f, interp)
        assert str(err.value) == message


def test_counterexample_describes_every_kind_of_name():
    with pytest.raises(GuardError) as err:
        counterexample(pf("p"), pf("q"), max_domain=0)
    assert str(err.value) == "max_domain must be at least 1"
    for f, described in [
        (pf("r(x) | r(c)", free_vars=["x"]), "domain = {0..0}; c = 0; r = {}; x = 0"),
        (pf("p -> r(c)"), "domain = {0..0}; c = 0; r = {}; p = True"),
        (pf("r(c) -> p"), "domain = {0..0}; c = 0; r = {(0)}; p = False"),
    ]:
        assert counterexample(f, TOP, max_domain=2).describe() == described
