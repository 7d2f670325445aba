import pytest

from dualforget.errors import ArityError, InternalError
from dualforget.parser import parse_formula
from dualforget.syntax import (
    BOT,
    TOP,
    And,
    Atom,
    Const,
    Equal,
    Exists2,
    Lfp,
    Not,
    Or,
    Polarity,
    PropVar,
    Var,
    conj,
    disj,
    free_ind_vars,
    is_closed,
    polarity,
    prop_symbols,
    rel_symbols,
    signature_of,
)


def test_conj_flattens_and_collapses():
    a, b, c = PropVar("a"), PropVar("b"), PropVar("c")
    assert conj([]) == TOP
    assert conj([a]) == a
    assert conj([a, conj([b, c])]) == And((a, b, c))
    assert disj([]) == BOT
    assert disj([disj([a, b]), c]) == Or((a, b, c))


def test_nary_requires_two_items():
    with pytest.raises(InternalError):
        And((PropVar("a"),))
    with pytest.raises(InternalError):
        Or(())


def test_free_vars_and_closedness():
    f = parse_formula("all x. (ms(x) -> h(x))")
    assert free_ind_vars(f) == set()
    assert is_closed(f)
    g = Atom("r", (Var("x"), Var("y")))
    assert free_ind_vars(g) == {"x", "y"}
    h = Exists2("r", Atom("r", (Var("x"),)))
    assert free_ind_vars(h) == {"x"}
    assert not is_closed(h)


def test_second_order_binder_shadows_symbols():
    f = Exists2("r", Atom("r", (Var("x"),)))
    assert rel_symbols(f) == {}
    g = Exists2("p", PropVar("p"))
    assert prop_symbols(g) == set()


def test_rel_arity_conflict_detected():
    f = conj([Atom("r", (Const("a"),)), Atom("r", (Const("a"), Const("b")))])
    with pytest.raises(ArityError):
        rel_symbols(f)


def test_fixpoint_invariants():
    body = Or((Atom("con", (Var("x"), Var("y"))), Atom("r", (Var("x"), Var("y")))))
    fp = Lfp("r", ("x", "y"), body, (Const("a"), Const("b")))
    assert rel_symbols(fp) == {"con": 2}  # the bound relation is not free
    with pytest.raises(InternalError):
        Lfp("r", ("x", "x"), body, (Const("a"), Const("b")))
    with pytest.raises(ArityError):
        Lfp("r", ("x", "y"), body, (Const("a"),))
    with pytest.raises(InternalError):
        Lfp("r", ("x",), Not(Atom("r", (Var("x"),))), (Const("a"),))


def test_polarity_examples():
    # positive occurrence behind an implication chain
    f = parse_formula("fdd -> (~ld | pa)")
    assert polarity(f, "pa") == Polarity.POSITIVE
    assert polarity(f, "fdd") == Polarity.NEGATIVE
    assert polarity(f, "ld") == Polarity.NEGATIVE
    assert polarity(PropVar("p"), "p") == Polarity.POSITIVE
    assert polarity(parse_formula("p <-> q"), "p") == Polarity.BOTH
    assert polarity(parse_formula("q | r"), "p") == Polarity.ABSENT
    assert polarity(parse_formula("~(q -> p)"), "p") == Polarity.NEGATIVE


def test_polarity_through_fixpoint_literal():
    fp = Lfp(
        "r",
        ("x",),
        Or((Atom("con", (Var("x"),)), Atom("r", (Var("x"),)))),
        (Const("a"),),
    )
    assert polarity(fp, "con") == Polarity.POSITIVE
    assert polarity(Not(fp), "con") == Polarity.NEGATIVE
    assert polarity(fp, "r") == Polarity.ABSENT


def test_signature_of_merges_usage():
    f = parse_formula("all x. (ms(x) -> h(x))")
    g = parse_formula("p & q")
    sig = signature_of(f, g)
    assert sig.relations == {"ms": 1, "h": 1}
    assert sig.prop_vars == {"p", "q"}


def test_equal_trees_hash_equal_before_and_after_caching():
    text = "(p -> q) & ~(r <-> s) | (all x. (a(x) & x = c)) | (Ex2 p. p | t)"
    f, g = parse_formula(text), parse_formula(text)
    assert f == g and f is not g
    # a subtree of g hashed (and cached) before the whole tree
    assert hash(g.items[0]) == hash(f.items[0])
    first = hash(f)
    assert hash(g) == first
    assert hash(f) == hash(g) == first
    assert len({f, g}) == 1
