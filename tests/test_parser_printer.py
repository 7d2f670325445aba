import random

import pytest
from hypothesis import given, settings, strategies as st

from gen import fo_formula, prop_formula
from dualforget.errors import ParseError
from dualforget.parser import parse_formula, parse_theory
from dualforget.printer import format_formula
from dualforget.syntax import (
    Atom,
    Const,
    ExistsInd,
    ForallInd,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Or,
    PropVar,
    Signature,
    Var,
    conj,
    disj,
    free_ind_vars,
)


def test_parse_examples():
    assert parse_formula("lt | lp") == Or((PropVar("lt"), PropVar("lp")))
    f = parse_formula("all x. (ms(x) -> (h(x) & t(x)))")
    assert isinstance(f, ForallInd)
    assert isinstance(f.body, Implies)
    g = parse_formula("p -> q -> r")
    assert g == Implies(PropVar("p"), Implies(PropVar("q"), PropVar("r")))


def test_precedence():
    assert parse_formula("~p & q") == conj([Not(PropVar("p")), PropVar("q")])
    assert parse_formula("a & b | c & d") == disj(
        [conj([PropVar("a"), PropVar("b")]), conj([PropVar("c"), PropVar("d")])]
    )
    assert parse_formula("p | q -> r") == Implies(disj([PropVar("p"), PropVar("q")]), PropVar("r"))
    assert parse_formula("p -> q <-> r").left == Implies(PropVar("p"), PropVar("q"))


def test_quantifier_scope_extends_right():
    f = parse_formula("all x. a(x) -> b(x, x)")
    assert isinstance(f, ForallInd)
    assert isinstance(f.body, Implies)
    g = parse_formula("p & all x. a(x) | q")
    assert g.items[1] == ForallInd("x", disj([Atom("a", (Var("x"),)), PropVar("q")]))


def test_keywords_usable_as_relation_names():
    f = parse_formula("ex x. (ex(x) & all(x))")
    assert isinstance(f, ExistsInd)
    assert f.body.items[0] == Atom("ex", (Var("x"),))
    assert f.body.items[1] == Atom("all", (Var("x"),))


def test_equality_and_inequality():
    f = parse_formula("x = y", free_vars=["x", "y"])
    assert format_formula(f) == "x = y"
    g = parse_formula("a != b")
    assert isinstance(g, Not)
    assert format_formula(g) == "a != b"


def test_fixpoint_round_trip():
    text = "lfp r(x, y). (con(x, y) | ex z. (con(x, z) & r(z, y))) @(x, y)"
    f = parse_formula(text, free_vars=["x", "y"])
    assert isinstance(f, Lfp)
    assert format_formula(f) == text
    g = parse_formula(text.replace("lfp", "gfp"), free_vars=["x", "y"])
    assert isinstance(g, Gfp)


def test_print_examples():
    assert format_formula(Or((PropVar("lt"), PropVar("lp")))) == "lt | lp"
    assert format_formula(Implies(PropVar("p"), PropVar("q"))) == "p -> q"


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p &&& q")
    assert err.value.line == 1
    assert err.value.column >= 3
    with pytest.raises(ParseError):
        parse_formula("p @")
    with pytest.raises(ParseError):
        parse_formula("(p")
    with pytest.raises(ParseError):
        parse_formula("Unknown p")


# exact messages, line and column included, so that a change to the
# tokenizer or the descent cannot move a diagnostic unnoticed
@pytest.mark.parametrize(
    "text,message",
    [
        ("Unknown p", "1:1: unknown keyword 'Unknown'"),
        ("p & \u00e9", "1:5: unexpected character '\u00e9'"),
        ("p &", "1:4: unexpected 'end of input'"),
        ("(p & q", "1:7: expected ')', found 'end of input'"),
        ("lfp r(x). r(x) @(", "1:18: expected 'ident', found 'end of input'"),
        ("lfp r(x). r(x) @(a", "1:19: expected ')', found 'end of input'"),
        ("p &\nq &\n  Bad", "3:3: unknown keyword 'Bad'"),
        ("p &\r\nq |\r\n  ~ &", "3:5: unexpected '&'"),
        ("p\n&\n(\n", "4:1: unexpected 'end of input'"),
        ("p &&& q", "1:4: unexpected '&'"),
        ("p & q)", "1:6: unexpected trailing input ')'"),
        ("all x. x", "1:8: individual variable 'x' used as a formula"),
        ("lfp r(x, x). r(x) @(a, a)", "1:11: fixpoint argument variables must be distinct"),
        ("lfp r(x). r(x) @(a, a)", "1:23: fixpoint over r needs 1 applied arguments"),
        (" -> ".join(["p"] * 200), "1:996: formula too deeply nested"),
        (" <-> ".join(["p"] * 200), "1:1195: formula too deeply nested"),
        ("~" * 199 + "p", "1:200: formula too deeply nested"),
        ("(" * 100 + "p" + ")" * 100, "1:101: formula too deeply nested"),
        ("p(a) & p(a, a)", "1:8: 'p' used inconsistently (relation of arity 1 vs relation of arity 2)"),
        ("p(a) & a", "1:8: 'a' used inconsistently (constant vs propositional variable)"),
        ("p & p(a)", "1:5: 'p' used inconsistently (propositional variable vs relation of arity 1)"),
        ("all x. x(a)", "1:8: individual variable 'x' used as a relation"),
        ("lfp r(x). ~r(x) @(a)", "1:1: fixpoint body must be positive in 'r'"),
        ("p & gfp r(x). (r(x) <-> q(x)) @(a)", "1:5: fixpoint body must be positive in 'r'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("p\nq\n   r &&& s\n", "3:7: unexpected '&'"),
        ("p\n\n\t  p ||\n", "3:7: unexpected '|'"),
        ("#closure x\n", "1:1: expected '#closure auto'"),
        ("#sig rel p/0\n", "1:1: relation 'p' needs arity >= 1 (use prop)"),
        ("#sig rel p/1\n#sig rel p/2\n", "2:1: relation 'p' redeclared with different arity"),
        ("#sig foo\n", "1:1: malformed directive '#sig foo'"),
        ("p(x)\n", "1:1: open formula (free variables x); "
                    "declare '#closure auto' or close it explicitly"),
        ("#sig prop p\nr(p)\n", "2:3: 'p' is not a term"),
        ("#sig const c\nc\n", "2:1: constant 'c' used as a formula"),
        ("# comment\nall x. x(a)\n", "2:8: individual variable 'x' used as a relation"),
        ("#sig prop p\np(a)\n", "2:1: 'p' is not a relation"),
        ("p\nlfp r(x). ~r(x) @(a)\n", "2:1: fixpoint body must be positive in 'r'"),
        ("p\np & gfp r(x). (r(x) <-> q(x)) @(a)\n", "2:5: fixpoint body must be positive in 'r'"),
    ],
)
def test_theory_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "line,theory_message,formula_message",
    [
        ("p & q(p)", "2:7: 'p' is not a term", "1:1: individual variable 'p' used as a formula"),
        ("p(x) & q(p)", "2:10: 'p' is not a term", "1:1: individual variable 'p' used as a relation"),
        ("q(p) & p", "2:8: individual variable 'p' used as a formula",
         "1:8: individual variable 'p' used as a formula"),
        ("q(p) & p(x)", "2:8: individual variable 'p' used as a relation",
         "1:8: individual variable 'p' used as a relation"),
    ],
)
def test_a_free_variable_is_no_symbol_on_its_line(line, theory_message, formula_message):
    # the closure would bind the symbol too, and its printed form would not
    # parse back
    with pytest.raises(ParseError) as err:
        parse_theory(f"#closure auto\n{line}\n")
    assert str(err.value) == theory_message
    # a name declared free is an individual variable wherever it occurs
    with pytest.raises(ParseError) as err:
        parse_formula(line, free_vars=["p"])
    assert str(err.value) == formula_message


def test_a_name_free_on_one_line_may_be_a_symbol_on_another():
    sig, th = parse_theory("#closure auto\nq(p)\np\n")
    assert th.formulas == (ForallInd("p", Atom("q", (Var("p"),))), PropVar("p"))
    assert sig.prop_vars == {"p"}
    for f in th.formulas:
        assert parse_formula(format_formula(f)) == f


@pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028"])
def test_theory_lines_break_only_where_formula_lines_do(brk):
    # str.splitlines breaks at these too; parse_formula reads them as spaces
    sig, th = parse_theory(f"#sig prop s\np &{brk} q\nr |{brk}s\n")
    assert th.formulas == (parse_formula("p & q"), parse_formula("r | s"))
    assert sig.prop_vars == {"p", "q", "r", "s"}
    # an error on the third line: the same position as parse_formula's
    text = f"\n\nq &{brk} r &"
    with pytest.raises(ParseError) as theory_err:
        parse_theory(text)
    with pytest.raises(ParseError) as formula_err:
        parse_formula(text)
    assert str(theory_err.value) == str(formula_err.value) == "3:9: unexpected 'end of input'"


def test_theory_reads_crlf_lines_and_a_lone_cr_as_space():
    _, th = parse_theory("#sig prop p\r\np | q\r\n\r\n~q\r\n")
    assert th.formulas == (parse_formula("p | q"), parse_formula("~q"))
    with pytest.raises(ParseError) as err:
        parse_theory("a\rb\n")
    assert str(err.value) == "1:3: unexpected trailing input 'b'"


@pytest.mark.parametrize(
    "header,kinds",
    [
        ("#sig prop p\n#sig rel p/1", "propositional variable and relation of arity 1"),
        ("#sig const p\n#sig prop p", "constant and propositional variable"),
        ("#sig rel p/2\n#sig const p", "relation of arity 2 and constant"),
    ],
)
def test_theory_header_rejects_a_name_declared_as_two_kinds(header, kinds):
    with pytest.raises(ParseError) as err:
        parse_theory(f"# vocabulary\n{header}\np\n")
    assert str(err.value) == f"3:1: 'p' declared as both {kinds}"
    # one name declared twice as the same kind is no conflict
    sig, _ = parse_theory("#sig prop p\n#sig prop p\n#sig rel r/1\n#sig rel r/1\np\n")
    assert sig.prop_vars == {"p"} and sig.relations == {"r": 1}


@pytest.mark.parametrize("op", ["->", "<->"])
def test_long_chains_count_toward_nesting_limit(op):
    # each link nests the tree one level deeper, so a long chain must stop at
    # the nesting limit, not at the interpreter's recursion limit
    with pytest.raises(ParseError, match="too deeply nested"):
        parse_formula(f" {op} ".join(["p"] * 1000))
    assert isinstance(parse_formula(f" {op} ".join(["p"] * 100)), Iff if op == "<->" else Implies)


def test_parse_checks_names_against_the_signature():
    # a declared name keeps its kind; an undeclared one is inferred
    sig = Signature(frozenset({"p"}), {"r": 1}, frozenset({"c"}))
    assert parse_formula("p & r(c) & s(d)", sig) == conj(
        [PropVar("p"), Atom("r", (Const("c"),)), Atom("s", (Const("d"),))]
    )
    for text, message in [
        ("r(p)", "1:3: 'p' is not a term"),
        ("c", "1:1: constant 'c' used as a formula"),
        ("p(c)", "1:1: 'p' is not a relation"),
        ("r & p", "1:1: relation 'r' used without arguments"),
        ("r(c, c)", "1:1: relation 'r' has arity 1, used with 2"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_formula(text, sig)
        assert str(err.value) == message


def test_theory_file_parses_declarations_and_inference():
    sig, th = parse_theory(
        """# comment line
#sig rel ms/1
#sig prop flag
all x. (ms(x) -> h(x))

flag | extra
""",
        name="sample",
    )
    assert th.name == "sample"
    assert len(th.formulas) == 2
    assert sig.relations == {"ms": 1, "h": 1}
    assert {"flag", "extra"} <= set(sig.prop_vars)


def test_theory_lines_share_one_signature():
    # the declared symbols and those each line infers; a later line is
    # parsed against those of the lines before it
    sig, _ = parse_theory("#sig const c\n#sig rel s/1\np | q(c)\nall x. (r(x, c) -> q(x))\ns(c) | t\n")
    assert sig == Signature(frozenset({"p", "t"}), {"s": 1, "q": 1, "r": 2}, frozenset({"c"}))
    with pytest.raises(ParseError) as err:
        parse_theory("all x. p(x)\np\n")
    assert str(err.value) == "2:1: relation 'p' used without arguments"


def test_a_fixpoint_relation_is_checked_as_any_relation_use():
    # at its name, against the signature and the individual variables, so
    # that a fixpoint never binds a declared relation at another arity
    sig = Signature(frozenset({"p"}), {"r": 2}, frozenset({"a"}))
    for text, kwargs, message in [
        ("lfp r(x). r(x, x) @(a)", {"sig": sig}, "1:5: relation 'r' has arity 2, used with 1"),
        ("lfp p(x). T @(a)", {"sig": sig}, "1:5: 'p' is not a relation"),
        ("lfp r(x). T @(a)", {"free_vars": ["r"]}, "1:5: individual variable 'r' used as a relation"),
        ("p & lfp p(x). T @(a)", {}, "1:9: 'p' used inconsistently (propositional variable vs relation of arity 1)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_formula(text, **kwargs)
        assert str(err.value) == message
    for text, message in [
        ("#sig rel r/2\n#sig const a\nlfp r(x). T @(a)\n", "3:5: relation 'r' has arity 2, used with 1"),
        ("#sig prop r\n#sig const a\nlfp r(x). T @(a)\n", "3:5: 'r' is not a relation"),
        ("all x. r(x)\n#sig const a\nlfp r(x, y). T @(a, a)\n", "3:5: relation 'r' has arity 1, used with 2"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_theory(text)
        assert str(err.value) == message


def test_theory_empty_file_is_top():
    sig, th = parse_theory("")
    assert th.formulas == ()
    assert format_formula(th.as_formula) == "T"


def test_theory_closedness():
    with pytest.raises(ParseError) as err:
        parse_theory("a(x) -> a(x)\n")
    assert "closure" in str(err.value)
    sig, th = parse_theory("#closure auto\na(x) -> a(x)\n")
    assert free_ind_vars(th.as_formula) == set()
    assert isinstance(th.formulas[0], ForallInd)


def test_theory_declared_constants_stay_constants():
    sig, th = parse_theory("#sig const c\na(c)\n")
    assert th.formulas[0] == Atom("a", (Const("c"),))


def test_theory_error_reports_file_line():
    with pytest.raises(ParseError) as err:
        parse_theory("p\nq\np ||| q\n")
    assert err.value.line == 3


def test_round_trip_random_formulas():
    rng = random.Random(23)
    for _ in range(400):
        f = prop_formula(rng)
        assert parse_formula(format_formula(f)) == f
    for _ in range(200):
        f = fo_formula(rng, depth=3)
        free = sorted(free_ind_vars(f))
        assert parse_formula(format_formula(f), free_vars=free) == f


def test_round_trip_fixpoints_in_context():
    from dualforget.syntax import Atom, Const, Iff, Lfp, Var, conj, disj

    rng = random.Random(29)
    for _ in range(150):
        k = rng.randint(1, 2)
        argvars = tuple(["x", "y"][:k])
        body = disj(
            [Atom("c", (Var(argvars[0]),)), Atom("r", tuple(Var(v) for v in argvars))]
        )
        applied = tuple(rng.choice([Const("e"), Const("d")]) for _ in range(k))
        fp = Lfp("r", argvars, body, applied)
        ctx = rng.choice(
            [fp, Not(fp), conj([fp, Atom("c", (Const("e"),))]),
             Implies(fp, Atom("c", (Const("e"),))), Iff(Atom("c", (Const("e"),)), fp),
             ForallInd("x", disj([Lfp("r", ("y",), disj([Atom("c", (Var("y"),)), Atom("r", (Var("y"),))]), (Var("x"),)), Atom("c", (Var("x"),))]))]
        )
        assert parse_formula(format_formula(ctx), free_vars=sorted(free_ind_vars(ctx))) == ctx


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_never_crashes(text):
    try:
        parse_formula(text)
    except ParseError:
        pass


# token-biased lines, header directives among them, so that random theory
# files reach the directive checks and the deeper parser states
_THEORY_TOKENS = ["p", "q", "r", "a", "x", "all", "ex", "lfp", "gfp", "All2", "Ex2", "T", "F",
                  "(", ")", "&", "|", "~", "->", "<->", "=", "!=", ".", ",", "@", " ", "\t",
                  "\u00e9", "X"]
_DIRECTIVES = ["#sig prop p", "#sig rel p/1", "#sig rel r/2", "#sig const a", "#sig const p",
               "#sig rel q/0", "#sig rel", "#closure auto", "#closure", "#sigh", "# comment"]
_theory_lines = st.one_of(
    st.sampled_from(_DIRECTIVES),
    st.lists(st.sampled_from(_THEORY_TOKENS), max_size=16).map("".join),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_theory_lines, max_size=6), st.sampled_from(["\n", "\r\n"]))
def test_theory_parser_never_crashes(lines, newline):
    try:
        parse_theory(newline.join(lines))
    except ParseError:
        pass
