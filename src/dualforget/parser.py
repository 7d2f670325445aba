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
(e.g. ``ex(x)``).

Theory files: ``#sig prop p`` / ``#sig rel r/2`` / ``#sig const a`` header
directives, optional ``#closure auto``, other ``#`` lines are comments, one
formula per line, blank lines ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    PropVar,
    Signature,
    Term,
    Theory,
    TOP,
    Var,
    conj,
    disj,
    forall,
    free_ind_vars_ordered,
)

_MAX_DEPTH = 200

#: A symbol name: a propositional variable, relation, constant or variable.
IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<ident>{IDENT_RE.pattern})
  | (?P<upper>[A-Z][a-zA-Z0-9_]*)
  | (?P<op><->|->|!=|[=~&|().,@])
    """,
    re.VERBOSE,
)

_UPPER_TOKENS = {"T", "F", "All2", "Ex2"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "T", "F", "All2", "Ex2", an operator, or "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str, line_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1 + line_offset
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "ident":
            tokens.append(_Token("ident", lexeme, line, col))
        elif m.lastgroup == "upper":
            if lexeme not in _UPPER_TOKENS:
                raise ParseError(f"unknown keyword {lexeme!r}", line, col)
            tokens.append(_Token(lexeme, lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(_Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        sig: Optional[Signature],
        strict: bool,
        free_vars: frozenset[str],
        terms_as_vars: bool = False,
    ):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.strict = strict
        self.free_vars = free_vars
        # theory files: unbound, undeclared term identifiers are free
        # variables (for closedness checking / auto-closure) instead of
        # inferred constants
        self.terms_as_vars = terms_as_vars
        self.bound: list[str] = []
        self.depth = 0
        # symbol kinds inferred during this parse, for consistency checks:
        # name -> ("prop" | "const" | ("rel", arity))
        self.inferred: dict[str, object] = {}

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    # -- grammar ------------------------------------------------------------

    def descend(self) -> None:
        """Enter one more level of nesting of the formula being built."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error("formula too deeply nested")

    def formula(self) -> Formula:
        self.descend()
        try:
            return self.iff()
        finally:
            self.depth -= 1

    def iff(self) -> Formula:
        # each link of a chain nests the tree one level deeper
        start = self.depth
        f = self.implies()
        try:
            while self.peek().kind == "<->":
                self.next()
                self.descend()
                f = Iff(f, self.implies())
            return f
        finally:
            self.depth = start

    def implies(self) -> Formula:
        f = self.or_()
        if self.peek().kind == "->":
            self.next()
            self.descend()
            try:
                return Implies(f, self.implies())
            finally:
                self.depth -= 1
        return f

    def or_(self) -> Formula:
        items = [self.and_()]
        while self.peek().kind == "|":
            self.next()
            items.append(self.and_())
        return disj(items)

    def and_(self) -> Formula:
        items = [self.unary()]
        while self.peek().kind == "&":
            self.next()
            items.append(self.unary())
        return conj(items)

    def unary(self) -> Formula:
        self.descend()
        try:
            tok = self.peek()
            if tok.kind == "~":
                self.next()
                return Not(self.unary())
            q = self.try_quantifier()
            if q is not None:
                return q
            return self.atom()
        finally:
            self.depth -= 1

    def try_quantifier(self) -> Optional[Formula]:
        tok = self.peek()
        if tok.kind in ("All2", "Ex2"):
            self.next()
            sym = self.expect("ident").text
            self.expect(".")
            body = self.formula()
            return Forall2(sym, body) if tok.kind == "All2" else Exists2(sym, body)
        if tok.kind != "ident":
            return None
        if tok.text in ("all", "ex") and self.peek(1).kind == "ident" and self.peek(2).kind == ".":
            self.next()
            var = self.next().text
            self.next()
            self.bound.append(var)
            try:
                body = self.formula()
            finally:
                self.bound.pop()
            return ForallInd(var, body) if tok.text == "all" else ExistsInd(var, body)
        if tok.text in ("lfp", "gfp") and self.peek(1).kind == "ident" and self.peek(2).kind == "(":
            return self.fixpoint(tok.text)
        return None

    def fixpoint(self, kw: str) -> Formula:
        self.next()
        rel = self.expect("ident").text
        self.expect("(")
        argvars = [self.expect("ident").text]
        while self.peek().kind == ",":
            self.next()
            argvars.append(self.expect("ident").text)
        close = self.expect(")")
        if len(set(argvars)) != len(argvars):
            self.error("fixpoint argument variables must be distinct", close)
        self.expect(".")
        self.bound.extend(argvars)
        self.note(rel, ("rel", len(argvars)))
        try:
            body = self.unary()
        finally:
            del self.bound[len(self.bound) - len(argvars):]
        self.expect("@")
        self.expect("(")
        applied = [self.term()]
        while self.peek().kind == ",":
            self.next()
            applied.append(self.term())
        self.expect(")")
        if len(applied) != len(argvars):
            self.error(f"fixpoint over {rel} needs {len(argvars)} applied arguments")
        cls = Lfp if kw == "lfp" else Gfp
        return cls(rel, tuple(argvars), body, tuple(applied))

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "T":
            return TOP
        if tok.kind == "F":
            return BOT
        if tok.kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind != "ident":
            self.error(f"unexpected {tok.text or 'end of input'!r}", tok)
        name = tok.text
        nxt = self.peek().kind
        if nxt == "(":
            self.next()
            args = [self.term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            self.check_relation(name, len(args), tok)
            return Atom(name, tuple(args))
        if nxt in ("=", "!="):
            self.next()
            left = self.resolve_term(tok)
            right = self.term()
            eq = Equal(left, right)
            return Not(eq) if nxt == "!=" else eq
        return self.prop_var(tok)

    def term(self) -> Term:
        tok = self.expect("ident")
        return self.resolve_term(tok)

    def resolve_term(self, tok: _Token) -> Term:
        name = tok.text
        if name in self.bound or name in self.free_vars:
            return Var(name)
        if self.sig is not None:
            if name in self.sig.constants:
                return Const(name)
            if name in self.sig.prop_vars or name in self.sig.relations:
                self.error(f"{name!r} is not a term", tok)
        if self.strict:
            self.error(f"undeclared constant {name!r}", tok)
        if self.terms_as_vars:
            return Var(name)
        self.note(name, "const", tok)
        return Const(name)

    def prop_var(self, tok: _Token) -> Formula:
        name = tok.text
        if name in self.bound:
            self.error(f"individual variable {name!r} used as a formula", tok)
        if self.sig is not None:
            if name in self.sig.prop_vars:
                return PropVar(name)
            if name in self.sig.relations:
                self.error(f"relation {name!r} used without arguments", tok)
            if name in self.sig.constants:
                self.error(f"constant {name!r} used as a formula", tok)
            if self.strict:
                self.error(f"undeclared propositional variable {name!r}", tok)
        self.note(name, "prop", tok)
        return PropVar(name)

    def check_relation(self, name: str, arity: int, tok: _Token) -> None:
        if name in self.bound:
            self.error(f"individual variable {name!r} used as a relation", tok)
        if self.sig is not None:
            declared = self.sig.relations.get(name)
            if declared is not None:
                if declared != arity:
                    self.error(f"relation {name!r} has arity {declared}, used with {arity}", tok)
                return
            if name in self.sig.prop_vars or name in self.sig.constants:
                self.error(f"{name!r} is not a relation", tok)
            if self.strict:
                self.error(f"undeclared relation {name!r}", tok)
        self.note(name, ("rel", arity), tok)

    def note(self, name: str, kind: object, tok: Optional[_Token] = None) -> None:
        prev = self.inferred.setdefault(name, kind)
        if prev != kind:
            self.error(f"{name!r} used inconsistently ({prev} vs {kind})", tok)

    def inferred_signature(self) -> Signature:
        props = {n for n, k in self.inferred.items() if k == "prop"}
        consts = {n for n, k in self.inferred.items() if k == "const"}
        rels = {n: k[1] for n, k in self.inferred.items() if isinstance(k, tuple)}
        return Signature(frozenset(props), rels, frozenset(consts))


def parse_formula(
    text: str,
    sig: Optional[Signature] = None,
    *,
    strict: bool = False,
    free_vars: Sequence[str] = (),
    line_offset: int = 0,
) -> Formula:
    """Parse a single formula.  With ``strict`` every symbol must be declared
    in ``sig``; otherwise undeclared symbols are inferred (bare identifier ->
    propositional variable, applied -> relation, term position -> constant).
    """
    parser = _Parser(_tokenize(text, line_offset), sig, strict, frozenset(free_vars))
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"unexpected trailing input {tok.text!r}", tok)
    return f


_DIRECTIVE_RE = re.compile(r"#(sig|closure)\b")
_SIG_PROP_RE = re.compile(rf"#sig\s+prop\s+({IDENT_RE.pattern})\s*\Z")
_SIG_CONST_RE = re.compile(rf"#sig\s+const\s+({IDENT_RE.pattern})\s*\Z")
_SIG_REL_RE = re.compile(rf"#sig\s+rel\s+({IDENT_RE.pattern})\s*/\s*([0-9]+)\s*\Z")


def parse_theory(text: str, name: str = "theory") -> tuple[Signature, Theory]:
    """Parse a theory file into its declared-plus-inferred signature and the
    theory (one formula per line, conjunctive reading).

    First-order formulas must be closed; with ``#closure auto`` free
    individual variables are universally closed in order of first occurrence.
    """
    prop_vars: set[str] = set()
    constants: set[str] = set()
    relations: dict[str, int] = {}
    closure_auto = False
    pending: list[tuple[int, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            m = _SIG_PROP_RE.match(line)
            if m:
                prop_vars.add(m.group(1))
                continue
            m = _SIG_CONST_RE.match(line)
            if m:
                constants.add(m.group(1))
                continue
            m = _SIG_REL_RE.match(line)
            if m:
                rel, arity = m.group(1), int(m.group(2))
                if arity < 1:
                    raise ParseError(f"relation {rel!r} needs arity >= 1 (use prop)", lineno, 1)
                if relations.setdefault(rel, arity) != arity:
                    raise ParseError(f"relation {rel!r} redeclared with different arity", lineno, 1)
                continue
            raise ParseError(f"malformed directive {line!r}", lineno, 1)
        pending.append((lineno, raw))

    sig = Signature(frozenset(prop_vars), relations, frozenset(constants))
    formulas: list[Formula] = []
    for lineno, raw in pending:
        parser = _Parser(_tokenize(raw, lineno - 1), sig, False, frozenset(), terms_as_vars=True)
        f = parser.formula()
        tok = parser.peek()
        if tok.kind != "eof":
            parser.error(f"unexpected trailing input {tok.text!r}", tok)
        inferred = parser.inferred_signature()
        sig = sig.merge(inferred)
        free = free_ind_vars_ordered(f)
        if free:
            if not closure_auto:
                raise ParseError(
                    f"open formula (free variables {', '.join(free)}); "
                    "declare '#closure auto' or close it explicitly",
                    lineno,
                    1,
                )
            f = forall(free, f)
        formulas.append(f)
    return sig, Theory(name, tuple(formulas))
