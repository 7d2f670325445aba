"""Exception types shared across the package."""

import functools


class LogicError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LogicError):
    """Syntax or well-formedness error in concrete text, with position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.message = message
        self.line = line
        self.column = column


class ArityError(LogicError):
    """A relation symbol is used with an argument count that conflicts
    with its declared or previously inferred arity."""


class CaptureError(LogicError):
    """The parameters of a relational substitution are not pairwise
    distinct.  Substitution renames binders instead of capturing, and an
    occurrence under a binder of the substituted symbol is not free."""


class GuardError(LogicError):
    """An oracle enumeration guard was exceeded.  Guards are hard errors:
    an oracle that silently samples is not an oracle."""


class EvalError(LogicError):
    """A formula could not be evaluated (unmapped symbol, wrong fragment)."""


class InternalError(LogicError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def nesting_guard(fn):
    """Decorate a public entry point so that a formula nested deeper than
    its recursive walk can follow raises :class:`LogicError` instead of
    ``RecursionError``."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise LogicError(
                f"formula nested too deeply for {fn.__name__} "
                "(deeper than the Python recursion limit allows)"
            ) from None

    return guarded
