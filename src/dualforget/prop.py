"""The propositional entry points: a propositional variable is a 0-ary
symbol, and every elimination rule is ``fo``'s, written once for both
kinds.

Every name here is bound to ``fo``'s function object: the four operators,
``ackermann_eliminate`` (``fo.fixpoint_eliminate``, the Ackermann rewrite
on one symbol), ``clause_forall_eliminate`` (``fo.clause_form_eliminate``,
the clause rule on one symbol) and ``normalize_conjuncts``
(``fo.normalize``, the clause form weak forgetting starts from)."""

from .fo import clause_form_eliminate as clause_forall_eliminate  # noqa: F401
from .fo import fixpoint_eliminate as ackermann_eliminate  # noqa: F401
from .fo import forget_strong, forget_weak, normalize as normalize_conjuncts, snc, wsc  # noqa: F401

# Not called here: ``perfbench/tracing.py`` wraps these in this module's
# namespace by name, so the names must stay importable from it.
from .transform import nnf, simplify, substitute_prop  # noqa: F401
