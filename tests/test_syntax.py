import dataclasses
import sys

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
    ExistsInd,
    Forall2,
    ForallInd,
    Formula,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Or,
    Polarity,
    PropVar,
    Var,
    children,
    conj,
    disj,
    free_ind_vars,
    is_closed,
    polarity,
    prop_symbols,
    rebuild,
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


def _node_classes() -> set[type]:
    """Concrete formula classes.  A slotted dataclass replaces the class it
    decorates and the replaced class stays listed among the subclasses, so
    only the class the module exports counts."""
    found, todo = set(), [Formula]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        exported = getattr(sys.modules[cls.__module__], cls.__name__, None) is cls
        if exported and dataclasses.is_dataclass(cls):
            found.add(cls)
    return found


_P, _Q, _S = PropVar("p"), PropVar("q"), PropVar("s")
_X = Var("x")
_RX = Atom("r", (_X,))
_RU = Atom("r", (Var("u"),))

# (node, the node with its first child replaced by s, built by hand)
_TRAVERSAL_CASES = [
    (TOP, None),
    (BOT, None),
    (_P, None),
    (_RX, None),
    (Equal(_X, Const("a")), None),
    (Not(_P), Not(_S)),
    (And((_P, _Q)), And((_S, _Q))),
    (Or((_P, _Q)), Or((_S, _Q))),
    (Implies(_P, _Q), Implies(_S, _Q)),
    (Iff(_P, _Q), Iff(_S, _Q)),
    (ForallInd("x", _RX), ForallInd("x", _S)),
    (ExistsInd("x", _RX), ExistsInd("x", _S)),
    (Forall2("p", _P), Forall2("p", _S)),
    (Exists2("p", _P), Exists2("p", _S)),
    (Lfp("r", ("u",), _RU, (_X,)), Lfp("r", ("u",), _S, (_X,))),
    (Gfp("r", ("u",), _RU, (Const("a"),)), Gfp("r", ("u",), _S, (Const("a"),))),
]


def test_traversal_covers_every_node_class():
    assert {type(g) for g, _ in _TRAVERSAL_CASES} == _node_classes()


@pytest.mark.parametrize("g,expected", _TRAVERSAL_CASES, ids=lambda v: type(v).__name__)
def test_rebuild_keeps_unchanged_nodes_and_replaces_children(g, expected):
    kids = children(g)
    assert rebuild(g, kids) is g
    assert rebuild(g, list(kids)) is g
    if expected is None:
        assert kids == ()
        return
    out = rebuild(g, [_S, *kids[1:]])
    assert out == expected and type(out) is type(expected)
    assert children(out) == (_S, *kids[1:])


def test_rebuild_flattens_through_conj_and_disj():
    a, b = PropVar("a"), PropVar("b")
    assert rebuild(And((_P, _Q)), [And((a, b)), _Q]) == And((a, b, _Q))
    assert rebuild(Or((_P, _Q)), [_P, Or((a, b))]) == Or((_P, a, b))
