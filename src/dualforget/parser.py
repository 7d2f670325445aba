"""Concrete-syntax parser for formulas and theory files.

Grammar (precedence ``~`` > ``&`` > ``|`` > ``->`` right-assoc > ``<->``;
quantifiers extend to the rightmost closing scope)::

    formula  := iff
    iff      := implies ("<->" implies)*
    implies  := or ("->" implies)?
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "~" unary | quant | atom
    quant    := ("all" | "ex") IDENT "." formula
              | ("All2" | "Ex2") IDENT "." formula
              | ("lfp" | "gfp") IDENT "(" IDENT,* ")" "." unary "@(" term,* ")"
    atom     := "T" | "F" | "(" formula ")"
              | IDENT "(" term,* ")" | term ("=" | "!=") term | IDENT

Identifier occurrences in term position parse as variables when bound by an
enclosing first-order quantifier or declared free for the request, and as
constants otherwise.  ``all``/``ex``/``lfp``/``gfp`` are only treated as
keywords where a quantifier can start, so relations may reuse those names
(e.g. ``ex(x)``).  A fixpoint body that is not positive in its relation is a
parse error, and the relation is checked as any use of a relation.

Theory files: ``#sig prop p`` / ``#sig rel r/2`` / ``#sig const a`` header
directives, optional ``#closure auto``, other ``#`` lines are comments, one
formula per line, blank lines ignored.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import ParseError
from .syntax import (
    Atom,
    BOT,
    Const,
    Equal,
    ExistsInd,
    Exists2,
    ForallInd,
    Forall2,
    Formula,
    Gfp,
    Iff,
    Implies,
    Lfp,
    Not,
    Polarity,
    PropVar,
    Signature,
    Term,
    Theory,
    TOP,
    Var,
    conj,
    disj,
    forall,
    polarity,
)

_MAX_DEPTH = 200

#: A symbol name: a propositional variable, relation, constant or variable.
IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

# every character but whitespace starts a match, so a scan skips exactly the
# whitespace and the last group catches a character no token can start with
_TOKEN_RE = re.compile(
    rf"(?P<ident>{IDENT_RE.pattern})|(?P<upper>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<op><->|->|!=|[=~&|().,@])|(?P<bad>\S)"
)

_UPPER_TOKENS = {"T", "F", "All2", "Ex2"}
_BINDER_WORDS = {"All2", "Ex2", "all", "ex", "lfp", "gfp"}

#: A token: ``(kind, text, offset)``.  The kind is "ident", "eof", or for
#: every other token its text ("T", "F", "All2", "Ex2" or an operator).
_Token = tuple[str, str, int]


def _position(text: str, offset: int, line_offset: int) -> tuple[int, int]:
    """The line and column of ``offset`` in ``text``, both counted from 1."""
    return 1 + line_offset + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, line_offset: int) -> list[_Token]:
    """``text``'s tokens followed by three end-of-input tokens, as many as
    the parser's lookahead can read past the last real token."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        lexeme = m.group()
        group = m.lastgroup
        if group == "ident":
            tokens.append(("ident", lexeme, m.start()))
        elif group == "op" or lexeme in _UPPER_TOKENS:
            tokens.append((lexeme, lexeme, m.start()))
        else:
            message = f"unknown keyword {lexeme!r}" if group == "upper" else f"unexpected character {lexeme!r}"
            raise ParseError(message, *_position(text, m.start(), line_offset))
    tokens += [("eof", "", len(text))] * 3
    return tokens


def _describe(kind: object) -> str:
    """A symbol kind in words: "prop", "const" or ``("rel", arity)``."""
    if kind == "prop":
        return "propositional variable"
    if kind == "const":
        return "constant"
    return f"relation of arity {kind[1]}"


def _signature(kinds: dict[str, object]) -> Signature:
    """The signature declaring each name as the kind it maps to."""
    props = frozenset(n for n, k in kinds.items() if k == "prop")
    consts = frozenset(n for n, k in kinds.items() if k == "const")
    rels = {n: k[1] for n, k in kinds.items() if isinstance(k, tuple)}
    return Signature(props, rels, consts)


class _Parser:
    """A parse of one formula.  ``declared`` maps each name of the
    signature it is checked against to its kind: "prop", "const" or
    ``("rel", arity)``.  ``free`` lists its free individual variables:
    those declared for the request, then, in a theory file's line, each
    unbound, undeclared term identifier (there a free variable, for
    closedness checking / auto-closure, not an inferred constant) in order
    of first occurrence.  That is the order of a left-to-right walk of the
    tree, because a fixpoint's applied terms follow its body."""

    def __init__(
        self,
        text: str,
        line_offset: int,
        declared: dict[str, object],
        free_vars: Sequence[str],
        terms_as_vars: bool = False,
    ):
        self.text = text
        self.line_offset = line_offset
        self.tokens = _tokenize(text, line_offset)
        self.pos = 0
        self.declared = declared
        self.terms_as_vars = terms_as_vars
        self.free = list(free_vars)
        self.bound: list[str] = []
        self.depth = 0
        # symbol kinds inferred during this parse, for consistency checks
        self.inferred: dict[str, object] = {}

    # -- token helpers ------------------------------------------------------

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        offset = (tok or self.tokens[self.pos])[2]
        raise ParseError(message, *_position(self.text, offset, self.line_offset))

    # -- grammar ------------------------------------------------------------
    #
    # The nesting depth counts the formula, each unary operand and each link
    # of a "->" or "<->" chain, the levels the tree nests.  No ParseError is
    # caught inside the parser, so only the success paths restore it.

    def descend(self) -> None:
        """Enter one more level of nesting of the formula being built."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error("formula too deeply nested")

    def parse(self) -> Formula:
        """The one formula that makes up all of the input."""
        f = self.formula()
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.error(f"unexpected trailing input {tok[1]!r}", tok)
        return f

    def formula(self) -> Formula:
        start = self.depth
        self.descend()
        f = self.implies()
        while self.tokens[self.pos][0] == "<->":
            self.pos += 1
            self.descend()
            f = Iff(f, self.implies())
        self.depth = start
        return f

    def implies(self) -> Formula:
        f = self.or_()
        if self.tokens[self.pos][0] != "->":
            return f
        start = self.depth
        items = [f]
        while self.tokens[self.pos][0] == "->":
            self.pos += 1
            self.descend()
            items.append(self.or_())
        self.depth = start
        f = items.pop()
        for g in reversed(items):
            f = Implies(g, f)
        return f

    def or_(self) -> Formula:
        f = self.and_()
        if self.tokens[self.pos][0] != "|":
            return f
        items = [f]
        while self.tokens[self.pos][0] == "|":
            self.pos += 1
            items.append(self.and_())
        return disj(items)

    def and_(self) -> Formula:
        f = self.unary()
        if self.tokens[self.pos][0] != "&":
            return f
        items = [f]
        while self.tokens[self.pos][0] == "&":
            self.pos += 1
            items.append(self.unary())
        return conj(items)

    def unary(self) -> Formula:
        self.descend()
        kind, text, _ = self.tokens[self.pos]
        if kind == "~":
            self.pos += 1
            f = Not(self.unary())
        else:
            f = self.quantifier() if text in _BINDER_WORDS else None
            if f is None:
                f = self.atom()
        self.depth -= 1
        return f

    def quantifier(self) -> Optional[Formula]:
        kind, text, _ = self.tokens[self.pos]
        if kind in ("All2", "Ex2"):
            self.pos += 1
            sym = self.expect("ident")[1]
            self.expect(".")
            body = self.formula()
            return Forall2(sym, body) if kind == "All2" else Exists2(sym, body)
        next_kind, var, _ = self.tokens[self.pos + 1]
        if next_kind != "ident":
            return None
        after = self.tokens[self.pos + 2][0]
        if text in ("all", "ex") and after == ".":
            self.pos += 3
            self.bound.append(var)
            body = self.formula()
            self.bound.pop()
            return ForallInd(var, body) if text == "all" else ExistsInd(var, body)
        if text in ("lfp", "gfp") and after == "(":
            return self.fixpoint()
        return None

    def fixpoint(self) -> Formula:
        kw = self.next()
        rel_tok = self.expect("ident")
        rel = rel_tok[1]
        self.expect("(")
        argvars = [self.expect("ident")[1]]
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            argvars.append(self.expect("ident")[1])
        close = self.expect(")")
        if len(set(argvars)) != len(argvars):
            self.error("fixpoint argument variables must be distinct", close)
        self.expect(".")
        self.check_relation(rel_tok, len(argvars))
        self.bound.extend(argvars)
        body = self.unary()
        del self.bound[len(self.bound) - len(argvars):]
        if polarity(body, rel) not in (Polarity.POSITIVE, Polarity.ABSENT):
            self.error(f"fixpoint body must be positive in {rel!r}", kw)
        self.expect("@")
        self.expect("(")
        applied = self.terms()
        self.expect(")")
        if len(applied) != len(argvars):
            self.error(f"fixpoint over {rel} needs {len(argvars)} applied arguments")
        cls = Lfp if kw[1] == "lfp" else Gfp
        return cls(rel, tuple(argvars), body, applied)

    def atom(self) -> Formula:
        tok = self.next()
        kind = tok[0]
        if kind == "ident":
            nxt = self.tokens[self.pos][0]
            if nxt == "(":
                self.pos += 1
                args = self.terms()
                self.expect(")")
                self.check_relation(tok, len(args))
                return Atom(tok[1], args)
            if nxt == "=" or nxt == "!=":
                self.pos += 1
                eq = Equal(self.resolve_term(tok), self.term())
                return Not(eq) if nxt == "!=" else eq
            return self.prop_var(tok)
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "T":
            return TOP
        if kind == "F":
            return BOT
        self.error(f"unexpected {tok[1] or 'end of input'!r}", tok)

    def terms(self) -> tuple[Term, ...]:
        args = [self.term()]
        while self.tokens[self.pos][0] == ",":
            self.pos += 1
            args.append(self.term())
        return tuple(args)

    def term(self) -> Term:
        return self.resolve_term(self.expect("ident"))

    def resolve_term(self, tok: _Token) -> Term:
        name = tok[1]
        if name in self.bound or name in self.free:
            return Var(name)
        kind = self.declared.get(name)
        if kind == "const":
            return Const(name)
        if kind is not None:
            self.error(f"{name!r} is not a term", tok)
        if self.terms_as_vars:
            # the line has used it as a propositional variable or relation
            if name in self.inferred:
                self.error(f"{name!r} is not a term", tok)
            self.free.append(name)
            return Var(name)
        self.note(name, "const", tok)
        return Const(name)

    def prop_var(self, tok: _Token) -> Formula:
        name = tok[1]
        if name in self.bound or name in self.free:
            self.error(f"individual variable {name!r} used as a formula", tok)
        kind = self.declared.get(name)
        if kind == "prop":
            return PropVar(name)
        if kind == "const":
            self.error(f"constant {name!r} used as a formula", tok)
        if kind is not None:
            self.error(f"relation {name!r} used without arguments", tok)
        self.note(name, "prop", tok)
        return PropVar(name)

    def check_relation(self, tok: _Token, arity: int) -> None:
        name = tok[1]
        if name in self.bound or name in self.free:
            self.error(f"individual variable {name!r} used as a relation", tok)
        kind = self.declared.get(name)
        if kind is not None:
            if kind == "prop" or kind == "const":
                self.error(f"{name!r} is not a relation", tok)
            if kind[1] != arity:
                self.error(f"relation {name!r} has arity {kind[1]}, used with {arity}", tok)
            return
        self.note(name, ("rel", arity), tok)

    def note(self, name: str, kind: object, tok: Optional[_Token] = None) -> None:
        prev = self.inferred.setdefault(name, kind)
        if prev != kind:
            self.error(f"{name!r} used inconsistently ({_describe(prev)} vs {_describe(kind)})", tok)


def parse_formula(
    text: str, sig: Optional[Signature] = None, *, free_vars: Sequence[str] = ()
) -> Formula:
    """Parse a single formula.  Symbols not declared in ``sig`` are inferred
    (bare identifier -> propositional variable, applied -> relation, term
    position -> constant)."""
    declared: dict[str, object] = {}
    if sig is not None:
        declared.update(dict.fromkeys(sig.constants, "const"))
        declared.update(dict.fromkeys(sig.prop_vars, "prop"))
        declared.update((n, ("rel", arity)) for n, arity in sig.relations.items())
    return _Parser(text, 0, declared, free_vars).parse()


_DIRECTIVE_RE = re.compile(r"#(sig|closure)\b")
_SIG_RE = re.compile(
    rf"#sig\s+(?:(prop|const)\s+({IDENT_RE.pattern})|rel\s+({IDENT_RE.pattern})\s*/\s*([0-9]+))\s*\Z"
)


def parse_theory(text: str, name: str = "theory") -> tuple[Signature, Theory]:
    """Parse a theory file into its declared-plus-inferred signature and the
    theory (one formula per line, conjunctive reading).

    First-order formulas must be closed; with ``#closure auto`` free
    individual variables are universally closed in order of first occurrence.
    A header that declares one name as two kinds is a parse error.
    """
    declared: dict[str, object] = {}
    closure_auto = False
    pending: list[tuple[int, str]] = []

    # only "\n" breaks a line, as in parse_formula: "\r" and the like are spaces
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not _DIRECTIVE_RE.match(line):
                continue  # plain comment
            if line.startswith("#closure"):
                if line.split("#closure", 1)[1].strip() != "auto":
                    raise ParseError("expected '#closure auto'", lineno, 1)
                closure_auto = True
                continue
            m = _SIG_RE.match(line)
            if m is None:
                raise ParseError(f"malformed directive {line!r}", lineno, 1)
            if m[1]:
                sym, kind = m[2], m[1]
            else:
                sym, kind = m[3], ("rel", int(m[4]))
                if kind[1] < 1:
                    raise ParseError(f"relation {sym!r} needs arity >= 1 (use prop)", lineno, 1)
            prev = declared.setdefault(sym, kind)
            if prev != kind:
                if isinstance(prev, tuple) and isinstance(kind, tuple):
                    raise ParseError(f"relation {sym!r} redeclared with different arity", lineno, 1)
                raise ParseError(f"{sym!r} declared as both {_describe(prev)} and {_describe(kind)}", lineno, 1)
            continue
        pending.append((lineno, raw))

    formulas: list[Formula] = []
    for lineno, raw in pending:
        parser = _Parser(raw, lineno - 1, declared, (), terms_as_vars=True)
        f = parser.parse()
        # the line inferred only names that ``declared`` does not hold
        declared.update(parser.inferred)
        if parser.free:
            if not closure_auto:
                raise ParseError(
                    f"open formula (free variables {', '.join(parser.free)}); "
                    "declare '#closure auto' or close it explicitly",
                    lineno,
                    1,
                )
            f = forall(parser.free, f)
        formulas.append(f)
    return _signature(declared), Theory(name, tuple(formulas))
