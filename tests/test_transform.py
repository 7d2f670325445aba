import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import fo_formula, prop_formula, prop_theory
from dualforget import transform
from dualforget.errors import CaptureError
from dualforget.parser import parse_formula
from dualforget.printer import format_formula
from dualforget.semantics import counterexample, equiv_fo_finite, equiv_prop, truth_table
from dualforget.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Equal,
    Exists2,
    ExistsInd,
    Forall2,
    ForallInd,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Or,
    Polarity,
    PropVar,
    Top,
    Var,
    conj,
    disj,
    forall,
    ind_binders,
    polarity,
    prop_symbols,
    so_binder,
)
from dualforget.transform import nnf, simplify, substitute_prop, substitute_rel


def pf(text, **kw):
    return parse_formula(text, **kw)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_prop_examples():
    assert substitute_prop(pf("lt | lp"), "lt", BOT) == pf("F | lp")
    assert substitute_prop(pf("q"), "p", TOP) == pf("q")
    assert substitute_prop(pf("p & ~p"), "p", pf("r | s")) == pf("(r | s) & ~(r | s)")


def test_substitute_prop_keeps_rebound_occurrences():
    # an occurrence under a binder of the same symbol is not free
    f = pf("Ex2 p. (p & q)")
    assert substitute_prop(f, "p", TOP) is f
    # free and rebound: only the free occurrence is replaced
    f = pf("p | (Ex2 p. (p & q))")
    assert substitute_prop(f, "p", pf("r")) == pf("r | (Ex2 p. (p & q))")
    # a binder that would capture a symbol of the inserted formula is renamed
    f = pf("p | (Ex2 q. (q & p))")
    assert substitute_prop(f, "p", pf("q")) == pf("q | (Ex2 q_1. (q_1 & q))")
    # and without a free occurrence nothing is inserted: f comes back itself
    f = pf("s | (Ex2 q. (q & s))")
    assert substitute_prop(f, "p", pf("q")) is f


def test_substitute_prop_removes_symbol():
    rng = random.Random(7)
    for _ in range(200):
        f = prop_formula(rng)
        e = prop_formula(rng, vars=["q", "r"], depth=2)
        assert "p" not in prop_symbols(substitute_prop(f, "p", e))


def test_substitute_rel_worked_example():
    f = pf("s(x1, a) | r(a, b) | r(b, c)", free_vars=["x1"])
    e = pf("s(x1, x2) & t(x2, d)", free_vars=["x1", "x2"])
    out = substitute_rel(f, "r", ["x1", "x2"], e)
    expected = pf("s(x1, a) | (s(a, b) & t(b, d)) | (s(b, c) & t(c, d))", free_vars=["x1"])
    assert out == expected


def test_substitute_rel_trivial_cases():
    assert substitute_rel(pf("q(a)"), "r", ["x"], TOP) == pf("q(a)")
    out = substitute_rel(pf("r(a, b)"), "r", ["x", "y"], pf("x = y", free_vars=["x", "y"]))
    assert out == pf("a = b")


def test_substitute_rel_renames_captured_binder():
    # e's quantifier must not capture the occurrence's argument variable
    f = pf("all z. r(z)")
    e = pf("ex z. b(x, z)", free_vars=["x"])
    out = substitute_rel(f, "r", ["x"], e)
    assert equiv_fo_finite(out, pf("all z. ex w. b(z, w)"), max_domain=2)
    # the one capture no renaming avoids: two parameters of the same name
    with pytest.raises(CaptureError):
        substitute_rel(pf("r(a, b)"), "r", ["x", "x"], TOP)


def test_substitute_rel_renames_only_binders_that_capture():
    # a binder of the definition that shadows the parameter cannot capture
    # the argument, so it keeps its name even where the two names agree
    e = pf("b(y) & all y. c(y)", free_vars=["y"])
    assert substitute_rel(pf("r(y)", free_vars=["y"]), "r", ["y"], e) == e
    e = pf("gfp r(y, z). (r(z, y) | b(y, y)) @(y, y)", free_vars=["y"])
    out = substitute_rel(pf("s(z)", free_vars=["z"]), "s", ["y"], e)
    assert out == pf("gfp r(y, z). (r(z, y) | b(y, y)) @(z, z)", free_vars=["z"])


def test_substitute_rel_renames_a_relation_binder_and_its_atoms():
    # a binder of a symbol the definition uses freely would capture it: the
    # binder and the atoms it binds take a fresh name, be it an Ex2's
    # symbol or a fixpoint's relation, and with or without parameters
    cases = [
        ("Ex2 s. (s(a) & ~r(a))", "r", ["u"], "s(u) | q(u)",
         "Ex2 s_1. (s_1(a) & ~(s(a) | q(a)))"),
        ("lfp s(x). (r(x) | ex y. (b(x, y) & s(y))) @(a)", "r", ["u"], "~s(u)",
         "lfp s_1(x). (~s(x) | ex y. (b(x, y) & s_1(y))) @(a)"),
        ("gfp r(x). (q | ex y. (b(x, y) & r(y))) @(c)", "q", [], "~r(c) | a(c)",
         "gfp r_1(x). ((~r(c) | a(c)) | ex y. (b(x, y) & r_1(y))) @(c)"),
    ]
    for f_text, sym, params, e_text, expected in cases:
        f, e = pf(f_text), pf(e_text, free_vars=params)
        out = substitute_rel(f, sym, params, e)
        assert out == pf(expected)
        # f wherever sym is the symbol the definition describes
        head = Atom(sym, tuple(map(Var, params))) if params else PropVar(sym)
        spec = Forall2(sym, Implies(forall(params, Iff(head, e)), f))
        assert counterexample(out, spec, max_domain=2) is None


@pytest.mark.parametrize("seed", range(6))
def test_substitute_rel_agrees_with_the_oracle_under_clashing_binders(seed):
    # e uses v1 and s freely; f binds v1 by an all, s by an Ex2 and s by an
    # lfp around a random formula from gen.py, whose own binders are v0, v1,
    # ... and whose atoms a(t) are replaced
    e = pf("b(u, v1) | ~s(u)", free_vars=["u", "v1"])
    body = format_formula(fo_formula(random.Random(seed), depth=3))
    f = pf(f"all v1. Ex2 s. ((lfp s(x). ((a(x) & {body}) | ex y. (b(x, y) & s(y))) @(v1))"
           f" & (s(v1) | a(v1)))")
    spec = Exists2("a", conj([forall(["u"], Iff(Atom("a", (Var("u"),)), e)), f]))
    out = substitute_rel(f, "a", ["u"], e)
    assert counterexample(out, spec, max_domain=2) is None


# ---------------------------------------------------------------------------
# nnf


def test_nnf_examples():
    assert nnf(pf("~(p & q)")) == pf("~p | ~q")
    assert nnf(pf("~~q | ~r")) == pf("q | ~r")
    assert nnf(pf("~(all x. ms(x))")) == pf("ex x. ~ms(x)")


def test_nnf_equivalent_prop():
    rng = random.Random(11)
    for _ in range(300):
        f = prop_formula(rng)
        assert equiv_prop(nnf(f), f)


def test_nnf_equivalent_fo_small_models():
    rng = random.Random(13)
    for _ in range(60):
        f = fo_formula(rng, depth=3)
        assert equiv_fo_finite(nnf(f), f, max_domain=2)
    for _ in range(10):
        f = fo_formula(rng, depth=2)
        assert equiv_fo_finite(nnf(f), f, max_domain=3)


# ---------------------------------------------------------------------------
# simplify


def test_simplify_examples():
    assert simplify(pf("F | lp | T | lp")) == TOP
    assert simplify(pf("(lp | mp) & lp")) == pf("lp")
    assert simplify(pf("all x. a = a")) == TOP


def test_simplify_rules():
    assert simplify(pf("~~p")) == pf("p")
    assert simplify(pf("p & p & q")) == pf("p & q")
    assert simplify(pf("p | ~p | q")) == TOP
    assert simplify(pf("p & (p | q)")) == pf("p")
    assert simplify(pf("p | (p & q)")) == pf("p")
    assert simplify(pf("T -> p")) == pf("p")
    assert simplify(pf("p -> F")) == pf("~p")
    assert simplify(pf("p <-> T")) == pf("p")
    assert simplify(pf("all x. p")) == pf("p")
    assert simplify(pf("Ex2 q. p")) == pf("p")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("all x. all y. (x = y | ~(y = x))", "T"),
        ("all x. all y. (x = y | b(x, x) | y = x)", "all x. all y. (x = y | b(x, x))"),
        ("x = y & ~(y = x)", "F"),
        ("~(y = x) | x = y", "T"),
        ("all x. all y. (x = y & (y = x | b(x, x)))", "all x. all y. x = y"),
    ],
)
def test_simplify_reads_an_equality_either_way_round(text, expected):
    s = simplify(pf(text))
    assert s == pf(expected)
    assert simplify(s) is s


def test_simplify_keeps_each_side_of_an_equality_where_it_is():
    f = pf("y = x | b(x, x)")
    assert simplify(f) is f
    assert simplify(pf("y = x | b(x, x) | x = y")) == f


def test_simplify_equivalent_and_idempotent_prop():
    rng = random.Random(17)
    for _ in range(300):
        f = prop_formula(rng)
        s = simplify(f)
        assert equiv_prop(s, f)
        assert simplify(s) is s


def test_simplify_returns_a_fixpoint_itself():
    # the theories of the criterion-8 property suite
    rng = random.Random(2024)
    for _ in range(1000):
        g = simplify(prop_theory(rng).as_formula)
        assert simplify(g) is g


def test_simplify_equivalent_fo_small_models():
    rng = random.Random(19)
    for _ in range(60):
        f = fo_formula(rng, depth=3)
        s = simplify(f)
        assert equiv_fo_finite(s, f, max_domain=2)
        assert simplify(s) is s


def _reference_simp_nary(f, is_and, memo):
    """The n-ary step as it was before it recognized constants by type and
    hashed each item once; the differential test below checks the step
    against it."""
    absorbing = BOT if is_and else TOP
    neutral = TOP if is_and else BOT
    items = []
    for it in f.items:
        s = transform._simp(it, memo)
        if isinstance(s, And) and is_and:
            items.extend(s.items)
        elif isinstance(s, Or) and not is_and:
            items.extend(s.items)
        else:
            items.append(s)
    kept = []
    seen = set()
    for s in items:
        if s == absorbing:
            return absorbing
        if s == neutral or s in seen:
            continue
        seen.add(s)
        kept.append(s)
    if any(isinstance(s, Not) and s.body in seen for s in kept):
        return absorbing
    inner = Or if is_and else And
    result = [
        s
        for s in kept
        if not (isinstance(s, inner) and any(d in seen and d != s for d in s.items))
    ]
    if len(result) == len(f.items) and all(map(operator.is_, result, f.items)):
        return f
    return conj(result) if is_and else disj(result)


def _nary_level(rng, pool, depth):
    """A nested ``And``/``Or`` level, built without flattening, over the
    formulas of ``pool``: the same objects again and again, their negations,
    fresh ``Top()``/``Bottom()`` nodes, and beside an item a level of the
    other connective that holds it, so absorption can fire either way."""
    level, other = rng.choice(((And, Or), (Or, And)))
    items = [_nary_item(rng, pool, depth - 1) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.4:
        items.append(other((rng.choice(items), _nary_item(rng, pool, depth - 1))))
    rng.shuffle(items)
    return level(tuple(items))


def _nary_item(rng, pool, depth):
    if depth > 0 and rng.random() < 0.6:
        return _nary_level(rng, pool, depth)
    roll = rng.random()
    if roll < 0.04:
        return Top()
    if roll < 0.08:
        return Bottom()
    x = rng.choice(pool)
    return Not(x) if roll < 0.2 else x


@pytest.mark.parametrize("kind", ["prop", "fo"])
def test_simplify_nary_step_matches_the_reference(kind, monkeypatch):
    rng = random.Random(23)
    for _ in range(300):
        # two pools drawn from one seed: equal formulas as distinct objects
        seed = rng.randrange(10**9)
        pools = []
        for _ in range(2):
            r = random.Random(seed)
            if kind == "prop":
                pools.append([prop_formula(r, vars=["p", "q", "r"], depth=2) for _ in range(4)])
            else:
                pools.append([fo_formula(r, depth=2) for _ in range(4)])
        f = _nary_level(rng, pools[0] + pools[1], 4)
        with monkeypatch.context() as m:
            m.setattr(transform, "_simp_nary", _reference_simp_nary)
            expected = simplify(f)
        got = simplify(f)
        assert got == expected
        assert (got is f) == (expected is f)
        assert simplify(got) is got


# ---------------------------------------------------------------------------
# exact-type dispatch: ``nnf`` and ``simplify`` against copies of the walks
# that tested types with ``isinstance``, and built ``~A | B`` and
# ``(~A | B) & (A | ~B)`` before putting them in NNF


def _reference_nnf(f, neg):
    if isinstance(f, Top):
        return BOT if neg else TOP
    if isinstance(f, Bottom):
        return TOP if neg else BOT
    if isinstance(f, (PropVar, Atom, Equal, Lfp, Gfp)):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _reference_nnf(f.body, not neg)
    if isinstance(f, And):
        items = [_reference_nnf(it, neg) for it in f.items]
        return disj(items) if neg else conj(items)
    if isinstance(f, Or):
        items = [_reference_nnf(it, neg) for it in f.items]
        return conj(items) if neg else disj(items)
    if isinstance(f, Implies):
        return _reference_nnf(disj([Not(f.antecedent), f.consequent]), neg)
    if isinstance(f, Iff):
        a, b = f.left, f.right
        return _reference_nnf(conj([disj([Not(a), b]), disj([a, Not(b)])]), neg)
    dual = transform._DUAL[type(f)]
    return (dual if neg else type(f))(so_binder(f) or ind_binders(f)[0], _reference_nnf(f.body, neg))


def _reference_simp(f, memo):
    if type(f) in transform._LEAVES:
        return f
    if isinstance(f, Equal):
        return TOP if f.left == f.right else f
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    out = _reference_rewrite(f, memo)
    memo[id(f)] = (f, out)
    return out


def _reference_rewrite(f, memo):
    # the n-ary step is the module's own, and calls back into
    # ``transform._simp``, which the test points here
    if isinstance(f, Not):
        b = _reference_simp(f.body, memo)
        if isinstance(b, Top):
            return BOT
        if isinstance(b, Bottom):
            return TOP
        if isinstance(b, Not):
            return b.body
        return f if b is f.body else Not(b)
    if isinstance(f, And):
        return transform._simp_nary(f, True, memo)
    if isinstance(f, Or):
        return transform._simp_nary(f, False, memo)
    if isinstance(f, Implies):
        a = _reference_simp(f.antecedent, memo)
        b = _reference_simp(f.consequent, memo)
        if isinstance(a, Top):
            return b
        if isinstance(a, Bottom) or isinstance(b, Top):
            return TOP
        if isinstance(b, Bottom):
            return _reference_simp(Not(a), memo)
        if a == b:
            return TOP
        return f if a is f.antecedent and b is f.consequent else Implies(a, b)
    if isinstance(f, Iff):
        a = _reference_simp(f.left, memo)
        b = _reference_simp(f.right, memo)
        if isinstance(a, Top):
            return b
        if isinstance(b, Top):
            return a
        if isinstance(a, Bottom):
            return _reference_simp(Not(b), memo)
        if isinstance(b, Bottom):
            return _reference_simp(Not(a), memo)
        if a == b:
            return TOP
        return f if a is f.left and b is f.right else Iff(a, b)
    b = _reference_simp(f.body, memo)
    if type(f) in transform._DUAL:
        sym = so_binder(f)
        vocab = transform._vocabulary(b)
        if (sym or f.var) not in (vocab.ind_vars if sym is None else vocab.symbols):
            return b
    return f if b is f.body else transform.rebuild(f, [b])


def _dispatch_inputs(kind, count=300):
    """Seeded formulas over ``gen`` outputs: nested ``->`` and ``<->``,
    chains of ``~``, the constants as ``TOP``/``BOT`` and as fresh
    ``Top()``/``Bottom()`` nodes, fixpoint literals, second-order
    quantifiers, unflattened ``And``/``Or`` levels, and subtrees shared by
    reusing the same objects."""
    rng = random.Random(25 if kind == "prop" else 26)
    if kind == "prop":
        z = PropVar("z")
        fixpoints = [Lfp("z", (), Or((PropVar("p"), z)), ()), Gfp("z", (), And((PropVar("q"), z)), ())]
    else:
        u, ru = Var("u"), Atom("r", (Var("u"),))
        fixpoints = [
            Lfp("r", ("u",), Or((Atom("a", (u,)), ru)), (Var("v0"),)),
            Gfp("r", ("u",), And((Atom("b", (u, u)), ru)), (Var("x"),)),
        ]
    out = []
    for _ in range(count):
        if kind == "prop":
            pool = [prop_formula(rng, vars=["p", "q", "r"], depth=rng.randint(1, 3)) for _ in range(3)]
        else:
            pool = [fo_formula(rng, depth=rng.randint(1, 3)) for _ in range(3)]
            pool.append(Equal(Var("x"), Var("x")))
        built = []

        def item(depth):
            roll = rng.random()
            if depth <= 0 or roll < 0.2:
                leaf = rng.random()
                if leaf < 0.1:
                    return rng.choice((TOP, BOT, Top(), Bottom()))
                if leaf < 0.25:
                    return rng.choice(fixpoints)
                if leaf < 0.4 and built:
                    return rng.choice(built)
                return rng.choice(pool)
            op = rng.choice(("not", "and", "or", "implies", "iff", "iff", "so", "ind"))
            if op == "not":
                g = item(depth - 1)
                for _ in range(rng.randint(1, 4)):
                    g = Not(g)
            elif op in ("and", "or"):
                items = tuple(item(depth - 1) for _ in range(rng.randint(2, 3)))
                g = (And if op == "and" else Or)(items)
            elif op == "implies":
                g = Implies(item(depth - 1), item(depth - 1))
            elif op == "iff":
                g = Iff(item(depth - 1), item(depth - 1))
            elif op == "so":
                g = rng.choice((Exists2, Forall2))(rng.choice("pqaz"), item(depth - 1))
            else:
                g = rng.choice((ExistsInd, ForallInd))(rng.choice(("x", "v0", "w")), item(depth - 1))
            built.append(g)
            return g

        out.append(item(4))
    return out


@pytest.mark.parametrize("kind", ["prop", "fo"])
def test_nnf_matches_the_isinstance_reference(kind):
    for f in _dispatch_inputs(kind):
        for neg in (False, True):
            assert transform._nnf(f, neg) == _reference_nnf(f, neg)
        assert nnf(f) == _reference_nnf(f, False)


@pytest.mark.parametrize("kind", ["prop", "fo"])
def test_simplify_matches_the_isinstance_reference(kind, monkeypatch):
    for f in _dispatch_inputs(kind):
        for g in (f, Not(f)):
            with monkeypatch.context() as m:
                m.setattr(transform, "_simp", _reference_simp)
                m.setattr(transform, "_rewrite", _reference_rewrite)
                expected = simplify(g)
            got = simplify(g)
            assert got == expected
            assert (got is g) == (expected is g)
            assert simplify(got) is got


def test_nnf_and_simplify_keep_a_negated_atom():
    for atom in (PropVar("p"), Atom("r", (Var("x"),))):
        lit = Not(atom)
        assert nnf(lit) is lit
        assert nnf(Not(lit)) is atom
        memo = {}
        assert transform._simp(lit, memo) is lit
        assert not memo
    f = pf("~p & (q -> ~r(x))")
    assert nnf(f).items[0] is f.items[0]


# ---------------------------------------------------------------------------
# shared subtrees: a DAG is rewritten once per node object, not per path


def shared_chain(k):
    """``g_{i+1} = (g_i | x_i) & (g_i | ~y_i)`` from ``g_0 = g``: about
    ``2**k`` tree nodes, but only about ``3 * k`` distinct node objects.
    ``==``, ``nnf``, ``fo.normalize``, the printer, the reference evaluator and the first-order grounder
    follow the tree on it (each node caches its hash, so hashing does not),
    so the tests check results only by identity, by their top levels and
    by plain values."""
    g = PropVar("g")
    for i in range(k):
        g = (g | PropVar(f"x{i}")) & (g | ~PropVar(f"y{i}"))
    return g


def test_simplify_and_substitute_walk_a_shared_formula_once():
    k = 40
    f = shared_chain(k)
    assert simplify(f) is f
    assert substitute_prop(f, "z", TOP) is f

    h = PropVar("h")
    out = substitute_prop(f, "g", h)
    assert isinstance(out, And) and len(out.items) == 2
    assert out.items[0].items[1] is f.items[0].items[1]
    assert out.items[1].items[1] is f.items[1].items[1]
    for _ in range(k):  # down the left branches to where g_0 was
        out = out.items[0].items[0]
    assert out is h

    # x0 := T makes a rule fire on every level above it
    s = simplify(substitute_prop(f, "x0", TOP))
    assert isinstance(s, And) and len(s.items) == 2
    assert s.items[0].items[-1] is f.items[0].items[1]
    assert s.items[1].items[-1] is f.items[1].items[1]

    # beside a binder, which makes both substitutions look for names that
    # an inserted formula would have captured
    bound = pf("all x. r(x)")
    fb = f & bound
    out = substitute_prop(fb, "g", h)
    assert isinstance(out, And) and len(out.items) == 3
    assert out.items[2] is bound
    # (a failed ``is`` on a whole chain would print all 2**k paths of it)
    shared = out.items[0].items[0] is out.items[1].items[0]
    assert shared
    chain = out.items[0].items[0]
    for _ in range(k - 1):
        chain = chain.items[0].items[0]
    assert chain is h
    out = substitute_rel(fb, "r", ["u"], h)
    assert isinstance(out, And) and len(out.items) == 3
    kept = out.items[0] is f.items[0] and out.items[1] is f.items[1]
    assert kept
    assert out.items[2] == pf("all x. h")

    # the vacuous-binder test looks for the bound name in the body once per
    # node, whether or not it finds it
    rx, q = Atom("r", (Var("x"),)), PropVar("q")
    for g in (ForallInd("x", f & rx), Exists2("q", f & q)):
        assert simplify(g) is g
    for g in (ForallInd("z", f & rx), Exists2("w", f & q)):
        assert simplify(g) is g.body


def test_substitute_keeps_a_shared_subtree_shared():
    f = shared_chain(6)
    out = substitute_prop(f, "g", PropVar("h"))
    left, right = out.items
    assert left.items[0] is right.items[0]
    s = simplify(substitute_prop(f, "x0", TOP))
    left, right = s.items
    assert left.items[0] is right.items[0]


# ---------------------------------------------------------------------------
# polarity: monotonicity property


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_polarity_monotone(seed):
    rng = random.Random(seed)
    f = prop_formula(rng)
    pol = polarity(f, "p")
    vocab = sorted(prop_symbols(f) | {"p"})
    if pol not in (Polarity.POSITIVE, Polarity.NEGATIVE):
        return
    i = vocab.index("p")
    table = truth_table(f, vocab)
    for v in range(1 << len(vocab)):
        if (v >> i) & 1:
            continue
        lo = (table >> v) & 1
        hi = (table >> (v | (1 << i))) & 1
        if pol is Polarity.POSITIVE:
            assert lo <= hi
        else:
            assert lo >= hi
