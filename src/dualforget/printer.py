"""Deterministic concrete-syntax printer.

Round-trip stable: ``parse_formula(format_formula(f))`` reproduces ``f``
(given the same free-variable declarations).  Conjuncts and disjuncts keep
construction order, never sorted, so printed traces match the transformation
steps.  Parentheses are minimal except that compound quantifier bodies are
parenthesized for readability, matching the theory-file style."""

from __future__ import annotations

from .errors import InternalError, nesting_guard
from .syntax import (
    And,
    Atom,
    Bottom,
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
    Or,
    PropVar,
    Term,
    Top,
    ind_binders,
    so_binder,
)

_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5

_QUANT_KEYWORD = {ForallInd: "all", ExistsInd: "ex", Forall2: "All2", Exists2: "Ex2"}


def format_term(t: Term) -> str:
    return t.name


@nesting_guard
def format_formula(f: Formula) -> str:
    return _fmt(f, 0, rightmost=True)


def _paren(s: str) -> str:
    return f"({s})"


def _fmt(f: Formula, minprec: int, rightmost: bool) -> str:
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, PropVar):
        return f.name
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(format_term(t) for t in f.args)})"
    if isinstance(f, Equal):
        return f"{format_term(f.left)} = {format_term(f.right)}"
    if isinstance(f, Not):
        if isinstance(f.body, Equal):
            return f"{format_term(f.body.left)} != {format_term(f.body.right)}"
        return "~" + _fmt(f.body, _PREC_NOT, rightmost)
    if isinstance(f, And):
        return _fmt_nary(f.items, " & ", _PREC_AND, minprec, rightmost)
    if isinstance(f, Or):
        return _fmt_nary(f.items, " | ", _PREC_OR, minprec, rightmost)
    if isinstance(f, Implies):
        if _PREC_IMPLIES < minprec:
            return _paren(_fmt(f, 0, True))
        left = _fmt(f.antecedent, _PREC_IMPLIES + 1, False)
        right = _fmt(f.consequent, _PREC_IMPLIES, rightmost)
        return f"{left} -> {right}"
    if isinstance(f, Iff):
        if _PREC_IFF < minprec:
            return _paren(_fmt(f, 0, True))
        left = _fmt(f.left, _PREC_IFF, False)
        right = _fmt(f.right, _PREC_IFF + 1, rightmost)
        return f"{left} <-> {right}"
    kw = _QUANT_KEYWORD.get(type(f))
    if kw is not None:
        s = f"{kw} {so_binder(f) or ind_binders(f)[0]}. {_quant_body(f.body)}"
        # an unparenthesized quantifier extends to the rightmost closing
        # scope, so it needs parentheses anywhere but tail position
        return s if rightmost else _paren(s)
    if isinstance(f, (Lfp, Gfp)):
        kw = "lfp" if isinstance(f, Lfp) else "gfp"
        head = f"{kw} {f.rel}({', '.join(f.argvars)})"
        body = _quant_body(f.body)
        applied = ", ".join(format_term(t) for t in f.applied)
        return f"{head}. {body} @({applied})"
    raise InternalError(f"unhandled formula in printer: {type(f).__name__}")


def _quant_body(body: Formula) -> str:
    s = _fmt(body, 0, True)
    if isinstance(body, (And, Or, Implies, Iff)):
        return _paren(s)
    return s


def _fmt_nary(items, sep: str, prec: int, minprec: int, rightmost: bool) -> str:
    if prec < minprec:
        return _paren(_fmt_nary(items, sep, prec, 0, True))
    parts = [_fmt(it, prec + 1, False) for it in items[:-1]]
    parts.append(_fmt(items[-1], prec + 1, rightmost))
    return sep.join(parts)
