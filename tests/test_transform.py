import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import fo_formula, prop_formula, prop_theory
from dualforget import transform
from dualforget.errors import CaptureError
from dualforget.parser import parse_formula
from dualforget.semantics import equiv_fo_finite, equiv_prop, truth_table
from dualforget.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Bottom,
    Exists2,
    Forall2,
    ForallInd,
    Implies,
    Not,
    Or,
    Polarity,
    PropVar,
    Top,
    Var,
    conj,
    disj,
    polarity,
    prop_symbols,
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
    # Ex2 s would capture the s the definition uses freely: the binder and
    # the atoms it binds take a fresh name
    f = pf("Ex2 s. (s(a) & ~r(a))")
    out = substitute_rel(f, "r", ["u"], pf("s(u) | q(u)", free_vars=["u"]))
    assert out == pf("Ex2 s_1. (s_1(a) & ~(s(a) | q(a)))")
    # f wherever r is the relation the definition describes
    spec = Forall2("r", Implies(pf("all u. (r(u) <-> s(u) | q(u))"), f))
    assert equiv_fo_finite(out, spec, max_domain=2)


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
# shared subtrees: a DAG is rewritten once per node object, not per path


def shared_chain(k):
    """``g_{i+1} = (g_i | x_i) & (g_i | ~y_i)`` from ``g_0 = g``: about
    ``2**k`` tree nodes, but only about ``3 * k`` distinct node objects.
    ``==``, ``nnf``, ``fo.normalize``, ``fo._occurs_outside_fixpoints``,
    the printer, the reference evaluator and the first-order grounder
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
