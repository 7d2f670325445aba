import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import fo_formula, prop_formula, prop_theory
from dualforget.errors import CaptureError
from dualforget.parser import parse_formula
from dualforget.printer import format_formula
from dualforget.semantics import equiv_fo_finite, equiv_prop, eval_prop, truth_table
from dualforget.syntax import (
    BOT,
    TOP,
    Polarity,
    PropVar,
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


def test_substitute_prop_capture_error():
    with pytest.raises(CaptureError):
        substitute_prop(pf("Ex2 p. (p & q)"), "p", TOP)


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
        assert simplify(s) == s


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
