import dataclasses
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from gen import fo_formula
from test_transform import shared_chain
from dualforget import syntax
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
    Signature,
    Var,
    all_names,
    children,
    conj,
    const_symbols,
    contains_so_quantifier_and_fixpoint,
    disj,
    free_ind_vars,
    free_symbols,
    ind_binders,
    is_closed,
    is_propositional,
    literal,
    polarity,
    prop_symbols,
    rebuild,
    rel_symbols,
    reshape,
    signature_of,
    so_binder,
    terms_of,
)
from dualforget.transform import simplify


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


@pytest.mark.parametrize(
    "text,expected",
    [
        ("p", ("p", True, ())),
        ("~p", ("p", False, ())),
        ("~~p", ("p", True, ())),
        ("r(x, a)", ("r", True, (Var("x"), Const("a")))),
        ("~r(x, a)", ("r", False, (Var("x"), Const("a")))),
        ("x = y", None),
        ("x != y", None),
        ("p & q", None),
        ("T", None),
        ("all x. r(x)", None),
    ],
)
def test_literal_view(text, expected):
    # sign by the parity of the negations; a propositional variable has no
    # arguments; equalities, connectives and quantifiers are no literals
    assert literal(parse_formula(text, free_vars=["x", "y"])) == expected


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

_A = Const("a")

# (node, the node with its first child replaced by s, built by hand,
#  its terms, the symbol it binds, the variables it binds)
_TRAVERSAL_CASES = [
    (TOP, None, (), None, ()),
    (BOT, None, (), None, ()),
    (_P, None, (), None, ()),
    (_RX, None, (_X,), None, ()),
    (Equal(_X, _A), None, (_X, _A), None, ()),
    (Not(_P), Not(_S), (), None, ()),
    (And((_P, _Q)), And((_S, _Q)), (), None, ()),
    (Or((_P, _Q)), Or((_S, _Q)), (), None, ()),
    (Implies(_P, _Q), Implies(_S, _Q), (), None, ()),
    (Iff(_P, _Q), Iff(_S, _Q), (), None, ()),
    (ForallInd("x", _RX), ForallInd("x", _S), (), None, ("x",)),
    (ExistsInd("x", _RX), ExistsInd("x", _S), (), None, ("x",)),
    (Forall2("p", _P), Forall2("p", _S), (), "p", ()),
    (Exists2("p", _P), Exists2("p", _S), (), "p", ()),
    (Lfp("r", ("u",), _RU, (_X,)), Lfp("r", ("u",), _S, (_X,)), (_X,), "r", ("u",)),
    (Gfp("r", ("u",), _RU, (_A,)), Gfp("r", ("u",), _S, (_A,)), (_A,), "r", ("u",)),
]


def test_traversal_covers_every_node_class():
    assert {type(case[0]) for case in _TRAVERSAL_CASES} == _node_classes()


def test_node_classes_are_final():
    # the walkers dispatch on ``type(g) is X``, which would silently skip
    # an instance of a subclass
    assert set(syntax._CHILDREN) == _node_classes()
    for cls in (*syntax._CHILDREN, Var, Const):
        assert cls.__subclasses__() == [], cls.__name__


@pytest.mark.parametrize(
    "g,expected", [case[:2] for case in _TRAVERSAL_CASES], ids=lambda v: type(v).__name__
)
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


@pytest.mark.parametrize(
    "g,ts,sym,vs",
    [(g, *views) for g, _, *views in _TRAVERSAL_CASES],
    ids=[type(case[0]).__name__ for case in _TRAVERSAL_CASES],
)
def test_terms_and_binders_views(g, ts, sym, vs):
    assert (terms_of(g), so_binder(g), ind_binders(g)) == (ts, sym, vs)
    if not (ts or sym or vs):
        return
    # reshape puts the node back together from its views, and replaces them
    assert reshape(g, sym, vs, children(g), ts) == g
    new_sym = sym and sym + "2"
    new_vs = tuple(v + "2" for v in vs)
    new_ts = tuple(Var(t.name + "2") for t in ts)
    out = reshape(g, new_sym, new_vs, children(g), new_ts)
    assert type(out) is type(g) and children(out) == children(g)
    assert (terms_of(out), so_binder(out), ind_binders(out)) == (new_ts, new_sym, new_vs)


def test_rebuild_flattens_through_conj_and_disj():
    a, b = PropVar("a"), PropVar("b")
    assert rebuild(And((_P, _Q)), [And((a, b)), _Q]) == And((a, b, _Q))
    assert rebuild(Or((_P, _Q)), [_P, Or((a, b))]) == Or((_P, a, b))


# ---------------------------------------------------------------------------
# The one vocabulary walk: every reader visits each shared subtree once per
# scope, and answers as a walk that follows the tree does


def _timed(reader, *args):
    start = time.perf_counter()
    out = reader(*args)
    assert time.perf_counter() - start < 1.0, reader.__name__
    return out


def test_readers_visit_a_shared_chain_once():
    # answers are compared as plain values: printing a chain that an
    # assertion names would take all 2**k paths of it
    k = 40
    chain = shared_chain(k)
    atoms = ["g"] + [f"{c}{i}" for i in range(k) for c in "xy"]
    beside = chain & parse_formula("all x. r(x, c)")
    under = Exists2("g", chain)
    for f, syms, rels, consts, names in (
        (chain, atoms, {}, set(), set(atoms)),
        (beside, atoms + ["r"], {"r": 2}, {"c"}, set(atoms) | {"r", "x", "c"}),
        (under, atoms[1:], {}, set(), set(atoms)),
    ):
        sig = _timed(signature_of, f)
        got = {
            "free_symbols": list(_timed(free_symbols, f)),  # in pre-order
            "prop_symbols": _timed(prop_symbols, f),
            "rel_symbols": _timed(rel_symbols, f),
            "free_ind_vars": _timed(free_ind_vars, f),
            "is_closed": _timed(is_closed, f),
            "const_symbols": _timed(const_symbols, f),
            "all_names": _timed(all_names, f),
            "signature_of": (sig.prop_vars, sig.relations, sig.constants),
            "so_fix": _timed(contains_so_quantifier_and_fixpoint, f),
            "is_propositional": _timed(is_propositional, f),
            "polarity y0": _timed(polarity, f, "y0"),
            "polarity g": _timed(polarity, f, "g"),
            # simplify's vacuous-binder test
            "vacuous Ex2": _timed(simplify, Exists2("z", f)) is f,
            "kept Ex2": _timed(simplify, Exists2("x0", f)).body is f,
            "vacuous all": _timed(simplify, ForallInd("x", f)) is f,
        }
        assert got == {
            "free_symbols": syms,
            "prop_symbols": set(syms) - set(rels),
            "rel_symbols": rels,
            "free_ind_vars": set(),
            "is_closed": True,
            "const_symbols": consts,
            "all_names": names,
            "signature_of": (set(syms) - set(rels), rels, consts),
            "so_fix": (f is under, False),
            "is_propositional": f is not beside,
            "polarity y0": Polarity.NEGATIVE,
            "polarity g": Polarity.ABSENT if f is under else Polarity.POSITIVE,
            "vacuous Ex2": True,
            "kept Ex2": True,
            "vacuous all": True,
        }


def _shared_formula(rng):
    """A formula built from ``gen.fo_formula`` outputs with subtrees shared
    at random, binders that shadow one another, and names used both bound
    and free: ``v0`` and ``v1`` as variables, ``a``, ``b`` and ``p`` as
    symbols of two arities."""
    pool = [fo_formula(rng, depth=rng.randint(1, 3)) for _ in range(3)]
    pool += [g.body for g in pool]  # v0 free
    pool += [PropVar("a"), PropVar("p"), Atom("b", (Var("v1"), Const("c"))),
             Equal(Var("v0"), Const("d"))]
    if rng.random() < 0.1:
        pool.append(Atom("a", ()))
    for _ in range(rng.randint(1, 6)):
        x, y = rng.choice(pool), rng.choice(pool)
        roll = rng.randrange(8)
        if roll == 0:
            g = Not(x)
        elif roll == 1:
            g = conj([x, y, x])
        elif roll == 2:
            g = disj([y, x])
        elif roll == 3:
            g = Implies(x, y) if rng.random() < 0.5 else Iff(x, x)
        elif roll == 4:
            g = rng.choice([ForallInd, ExistsInd])(rng.choice(["v0", "v1"]), x)
        elif roll == 5:
            g = rng.choice([Forall2, Exists2])(rng.choice(["a", "b", "p"]), x)
        else:
            rel, argvars = rng.choice([("a", ("v0",)), ("q", ("v1", "v0"))])
            applied = tuple(rng.choice([Var("v0"), Var("v1"), Const("e")]) for _ in argvars)
            try:
                g = rng.choice([Lfp, Gfp])(rel, argvars, x, applied)
            except InternalError:  # not positive in rel
                continue
        pool.append(g)
    return conj(rng.sample(pool[-3:], rng.randint(1, min(2, len(pool[-3:])))))


def _tree_facts(f):
    """The vocabulary of ``f`` by a walk that follows the tree: symbol uses
    in pre-order as ``(name, arity or None when 0-ary, free)``, free
    variables, constants, every name, and the node types met."""
    uses, ind_vars, consts, names, kinds = [], set(), set(), set(), set()

    def walk(g, shadow, bound):
        kinds.add(type(g))
        if isinstance(g, PropVar):
            names.add(g.name)
            uses.append((g.name, 0, g.name not in shadow))
        elif isinstance(g, Atom):
            names.add(g.rel)
            uses.append((g.rel, len(g.args) or None, g.rel not in shadow))
        for t in terms_of(g):
            names.add(t.name)
            if isinstance(t, Const):
                consts.add(t.name)
            elif t.name not in bound:
                ind_vars.add(t.name)
        sym, vs = so_binder(g), ind_binders(g)
        names.update(vs)
        if sym is not None:
            names.add(sym)
            shadow = shadow | {sym}
        for k in children(g):
            walk(k, shadow, bound | set(vs))

    walk(f, frozenset(), frozenset())
    return uses, ind_vars, consts, names, kinds


def _tree_free_symbols(uses, known=None):
    out = {}
    known = out if known is None else known
    for name, arity, free in uses:
        if arity is None:
            raise ArityError(f"relation {name} applied to no arguments")
        if free:
            if known.setdefault(name, arity) != arity:
                raise ArityError(f"symbol {name} used with arities {known[name]} and {arity}")
            out[name] = arity
    return out


def _tree_polarity(f, sym):
    pars = set()

    def walk(g, par):
        if isinstance(g, (PropVar, Atom)):
            if (g.name if isinstance(g, PropVar) else g.rel) == sym:
                pars.add(par)
        elif so_binder(g) != sym:
            signs = {Not: (-1,), Implies: (-1, 1), Iff: (0, 0)}.get(type(g))
            for i, k in enumerate(children(g)):
                walk(k, par * signs[i] if signs else par)

    walk(f, 1)
    pos, neg = pars & {1, 0}, pars & {-1, 0}
    return {(True, True): Polarity.BOTH, (True, False): Polarity.POSITIVE,
            (False, True): Polarity.NEGATIVE, (False, False): Polarity.ABSENT}[bool(pos), bool(neg)]


def _answer(reader, *args, **kwargs):
    try:
        return reader(*args, **kwargs)
    except ArityError as exc:
        return f"ArityError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_readers_agree_with_a_walk_that_follows_the_tree(seed):
    rng = random.Random(seed)
    f, g = _shared_formula(rng), _shared_formula(rng)
    uses, ind_vars, consts, names, kinds = _tree_facts(f)
    free = _answer(_tree_free_symbols, uses)
    assert _answer(free_symbols, f) == free
    if isinstance(free, dict):
        assert list(free_symbols(f)) == list(free)  # in pre-order
        assert prop_symbols(f) == {s for s, a in free.items() if not a}
        assert rel_symbols(f) == {s: a for s, a in free.items() if a}
    else:
        assert _answer(prop_symbols, f) == _answer(rel_symbols, f) == free
    known = rng.choice([{}, {"a": 0}, {"a": 1, "p": 0}, {"b": 1}])
    mine, theirs = dict(known), dict(known)
    assert _answer(free_symbols, f, mine) == _answer(_tree_free_symbols, uses, theirs)
    assert mine == theirs
    assert free_ind_vars(f) == ind_vars
    assert is_closed(f) is not ind_vars
    assert const_symbols(f) == consts
    assert all_names(f) == names
    assert contains_so_quantifier_and_fixpoint(f) == (
        bool(kinds & {Forall2, Exists2}), bool(kinds & {Lfp, Gfp}))
    assert is_propositional(f) is not kinds & {Atom, Equal, ForallInd, ExistsInd, Lfp, Gfp}

    g_uses, _, g_consts, _, _ = _tree_facts(g)
    base = rng.choice([None, Signature(frozenset({"p"}), {"b": 2}, frozenset({"c"}))])
    known = {**dict.fromkeys(base.prop_vars, 0), **base.relations} if base else {}
    try:
        _tree_free_symbols(uses, known)
        _tree_free_symbols(g_uses, known)
        sig = Signature(frozenset(s for s, a in known.items() if not a),
                        {s: a for s, a in known.items() if a},
                        frozenset(consts | g_consts | (base.constants if base else set())))
    except ArityError as exc:
        sig = f"ArityError: {exc}"
    assert _answer(signature_of, f, g, base=base) == sig

    for sym in ("a", "b", "p", "q"):
        assert polarity(f, sym) is _tree_polarity(f, sym)
    # simplify drops a binder whose name is not free in its simplified body
    body = simplify(f)
    body_uses, body_vars, *_ = _tree_facts(body)
    body_syms = {name for name, _, free in body_uses if free}
    for q in (ForallInd("v0", f), ExistsInd("v1", f), Exists2("a", f), Forall2("p", f)):
        vacuous = (q.sym not in body_syms) if isinstance(q, (Forall2, Exists2)) else (q.var not in body_vars)
        assert simplify(q) == (body if vacuous else type(q)(q.sym if hasattr(q, "sym") else q.var, body))
