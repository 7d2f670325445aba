"""Batch command-line interface.

Subcommands::

    dualforget forget --mode {strong,weak} --vars p,q [options] THEORY_FILE
    dualforget snc --theory FILE --query FORMULA --keep a,b [options]
    dualforget wsc --theory FILE --query FORMULA --keep a,b [options]
    dualforget check-equiv A B [--domain-size N]

A ``check-equiv`` operand is formula text, or ``@PATH`` for the conjunction
of a theory file; no formula starts with ``@``.

Exit codes: 0 success / equivalent; 1 bad input: a usage error (a missing or
unknown option, ``--domain-size`` below 1, or a ``--vars``/``--keep`` item
that is not a symbol name), a parse error, a symbol used with two arities,
or a file that cannot be read or written (``error: PATH: REASON``, also for
a theory file that is not UTF-8); 2 elimination failed
(reason on stderr, residual printed); 3 internal invariant breach or
verification failure; 4 counterexample found; 5 oracle guard exceeded.
Formulas go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import fo
from .errors import ArityError, GuardError, LogicError, ParseError
from .outcome import EliminationOutcome
from .parser import IDENT_RE, parse_formula, parse_theory
from .printer import format_formula
from .semantics import counterexample, equiv_prop
from .syntax import (
    Formula,
    Implies,
    Signature,
    Theory,
    conj,
    exists2,
    forall2,
    is_propositional,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FAILED = 2
EXIT_INTERNAL = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_GUARD = 5

_FRAGMENT_RANK = {"prop": 0, "fo": 1, "fixpoint": 2}


def _symbols(text: str) -> list[str]:
    """The comma-separated symbol names of ``--vars`` or ``--keep``; empty
    items are skipped, and an item that cannot name a symbol is a usage
    error, not a symbol that is silently never forgotten or kept."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    for name in names:
        if not IDENT_RE.fullmatch(name):
            raise argparse.ArgumentTypeError(f"not a symbol name: {name!r}")
    return names


def _read_text(path: Path) -> str:
    """The file's text, without a leading byte-order mark.  Bytes that are
    not UTF-8 raise an ``OSError`` that names the file, as a file that
    cannot be opened does; its offset counts the mark's bytes too."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 ({exc.reason} at byte {exc.start})"
        raise OSError(errno.EILSEQ, reason, str(path)) from None


def _load_theory(path: str) -> tuple[Signature, Theory]:
    return parse_theory(_read_text(Path(path)), name=Path(path).stem)


def _emit(result: Formula, out_path: Optional[str]) -> None:
    text = format_formula(result)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _print_trace(outcome: EliminationOutcome) -> None:
    for i, step in enumerate(outcome.trace, start=1):
        print(
            f"[{i:3}] {step.rule}: {format_formula(step.before)}  ==>  "
            f"{format_formula(step.after)}",
            file=sys.stderr,
        )


def _verify(outcome: EliminationOutcome, spec_formula: Formula, domain: int) -> bool:
    if is_propositional(spec_formula):
        ok = equiv_prop(outcome.result, spec_formula)
    else:
        ok = counterexample(outcome.result, spec_formula, max_domain=domain) is None
    print(f"verify: {'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return ok


def _finish(outcome: EliminationOutcome, args, spec_formula: Optional[Formula]) -> int:
    if args.trace:
        _print_trace(outcome)
    if not outcome.ok:
        print(f"elimination failed: {outcome.failure_reason}", file=sys.stderr)
        if outcome.residual is not None:
            _emit(outcome.residual, args.output)
        return EXIT_FAILED
    if _FRAGMENT_RANK[outcome.fragment] > _FRAGMENT_RANK[args.emit]:
        print(
            f"no {args.emit} equivalent found by this procedure "
            f"(result is in the {outcome.fragment} fragment)",
            file=sys.stderr,
        )
        return EXIT_FAILED
    if args.verify and not _verify(outcome, spec_formula, args.domain_size):
        return EXIT_INTERNAL
    _emit(outcome.result, args.output)
    return EXIT_OK


def _cmd_forget(args) -> int:
    sig, th = _load_theory(args.theory_file)
    outcome = (fo.forget_strong if args.mode == "strong" else fo.forget_weak)(th, args.vars)
    spec_formula = None
    if args.verify:
        quant = exists2 if args.mode == "strong" else forall2
        spec_formula = quant(args.vars, th.as_formula)
    return _finish(outcome, args, spec_formula)


def _cmd_snc_wsc(args, weakest: bool) -> int:
    if args.theory:
        sig, th = _load_theory(args.theory)
    else:
        sig, th = Signature(), Theory("theory", ())
    query = parse_formula(args.query, sig)
    outcome = (fo.wsc if weakest else fo.snc)(th, query, args.keep)
    spec_formula = None
    if args.verify:  # the spec walks the vocabulary again, for --verify only
        forget_set = fo._partition(th, query, args.keep)
        if weakest:
            spec_formula = forall2(forget_set, Implies(th.as_formula, query))
        else:
            spec_formula = exists2(forget_set, conj([th.as_formula, query]))
    return _finish(outcome, args, spec_formula)


def _parse_operand(text: str) -> Formula:
    """``@PATH``: the conjunction of a theory file; anything else: a formula."""
    if text.startswith("@"):
        _, th = _load_theory(text[1:])
        return th.as_formula
    return parse_formula(text)


def _cmd_check_equiv(args) -> int:
    f = _parse_operand(args.left)
    g = _parse_operand(args.right)
    if is_propositional(f) and is_propositional(g):
        if equiv_prop(f, g):
            return EXIT_OK
        # reuse the finite-model search for a concrete differing valuation
        ce = counterexample(f, g, max_domain=1)
    else:
        ce = counterexample(f, g, max_domain=args.domain_size)
    if ce is None:
        return EXIT_OK
    print(f"counterexample: {ce.describe()}")
    return EXIT_COUNTEREXAMPLE


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other bad input; exit code 2
    means only that elimination failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _domain_size(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit", choices=["prop", "fo", "fixpoint"], default="fixpoint",
                   help="largest acceptable output fragment (default: fixpoint)")
    p.add_argument("--trace", action="store_true", help="print transformation steps to stderr")
    p.add_argument("--verify", action="store_true",
                   help="check the result against the brute-force oracle")
    p.add_argument("--domain-size", type=_domain_size, default=2,
                   help="max domain size for first-order verification (default: 2)")
    p.add_argument("--output", "-o", help="write the result formula to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dualforget",
        description="Dual forgetting operators and strongest-necessary/weakest-sufficient "
        "conditions over propositional and first-order theories.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forget", help="forget symbols in a theory")
    p.add_argument("--mode", choices=["strong", "weak"], required=True)
    p.add_argument("--vars", type=_symbols, required=True,
                   help="comma-separated symbols to forget; relations are eliminated in "
                   "this order (weak forgetting takes propositional variables first, in this "
                   "order too; strong forgetting picks their order)")
    _add_common(p)
    p.add_argument("theory_file")
    p.set_defaults(func=_cmd_forget)

    for name, weakest in (("snc", False), ("wsc", True)):
        p = sub.add_parser(
            name,
            help=("weakest sufficient" if weakest else "strongest necessary")
            + " condition of a query",
        )
        p.add_argument("--theory", help="theory file (omit for the empty theory)")
        p.add_argument("--query", required=True, help="query formula")
        p.add_argument("--keep", type=_symbols, default="",
                       help="comma-separated vocabulary to keep")
        _add_common(p)
        p.set_defaults(func=lambda a, w=weakest: _cmd_snc_wsc(a, w))

    p = sub.add_parser("check-equiv", help="oracle equivalence of two formulas or theory files")
    p.add_argument("left", help="formula, or @PATH for a theory file")
    p.add_argument("right", help="formula, or @PATH for a theory file")
    p.add_argument("--domain-size", type=_domain_size, default=2,
                   help="max domain size for first-order checks (default: 2)")
    p.set_defaults(func=_cmd_check_equiv)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building it costs
    more than most commands it parses, and parsing does not change it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except LogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
