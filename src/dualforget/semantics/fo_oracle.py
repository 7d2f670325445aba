"""Brute-force finite-model oracle.

* :func:`eval_fo` -- Tarskian evaluation over a finite interpretation,
  fixpoint literals computed by Knaster-Tarski iteration (lfp from the empty
  relation, gfp from the full one; convergence within ``|D|**arity`` steps by
  monotonicity).
* :func:`eval_so` -- adds second-order quantifiers, evaluated by enumerating
  every extension of the quantified symbol.
* :func:`eval_prop` -- the propositional case of :func:`eval_so`: a
  valuation is an interpretation over a one-element domain, and ``Ex2 p``
  enumerates the two extensions of a 0-ary ``p``, as two-point expansion
  does.  The tests hold ``prop_oracle``'s compile walk to it.
* :func:`counterexample` / :func:`equiv_fo_finite` -- exhaustive equivalence
  check over all interpretations up to a domain size.  Internally each ground
  atom becomes one input, so one truth table covers every interpretation at
  once, and ``f XOR g`` marks where the sides differ; the reported
  counterexample is the lowest index in the documented lexicographic
  enumeration order (relations sorted by name, tuples in lexicographic
  order, constants and free variables enumerated outermost).

  The width picks what a side grounds to, as in ``prop_oracle``: one walk
  computes with the values of ``kernel._space``.  A check grounds first on
  the tables of ``kernel.FREE_FROM_VARS - 1`` (11) inputs: each node
  grounds straight to its truth table, at most 256 bytes.  When the free
  atoms and the bound atoms in use at once need more, the same walk builds
  one hash-consed circuit for both sides, which shares repeated
  sub-groundings, and the kernel evaluates its ``f XOR g`` output.
  Measured on a 2-vCPU VM: the benchmark's fo_cli checks (all but 11 of
  496 groundings below 12 inputs) ran 1.5 times as fast this way as with
  circuits at every width, while grounding a 22-input check to tables
  instead of a circuit took 4 times as long.

  A second-order quantifier is grounded by projection: its body is grounded
  once, with each ground atom of the bound symbol as one more input, and
  those inputs are projected out by ``kernel.project`` (``Ex2 r. F`` is
  ``F[r(t):=T] | F[r(t):=F]`` for each tuple ``t`` in turn; ``All2`` is
  ``~Ex2 ~``).  The grounder reads a binder's arity when the check first
  meets it, and takes its inputs as it meets it, stack-style: nested
  binders take the next ones and sibling binders reuse them.  A binder
  whose tuples do not fit in the tables raises ``kernel._Wide``, and that
  domain size's remaining assignments ground on circuits made with the
  22 inputs of the guard, which the kernel evaluates at the width their
  walk used.  Tuples past the guard are enumerated as constants, grounding
  the body once per assignment of them.  On tables both oracles quantify
  this way: ``prop_oracle``'s one walk projects a bound name's input out
  of its body's table in the same ``kernel.project``.

Enumeration guards are hard errors, never silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import EvalError, GuardError, nesting_guard
from ..syntax import (
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
    Signature,
    Term,
    Top,
    Var,
    _signature,
    free_symbols,
    is_propositional,
)
from . import kernel
from ._program import CircuitBuilder
from .prop_oracle import MAX_TT_VARS

MAX_DOMAIN = 3
MAX_SO_ARITY = 2

Valuation = Mapping[str, bool]


@dataclass(frozen=True)
class FiniteInterpretation:
    """A finite domain ``{0 .. domain_size-1}`` with extensions for
    relations and constants, plus a propositional valuation."""

    domain_size: int
    const_map: dict[str, int] = field(default_factory=dict)
    rel_map: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    prop_map: dict[str, bool] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"domain = {{0..{self.domain_size - 1}}}"]
        for name in sorted(self.const_map):
            parts.append(f"{name} = {self.const_map[name]}")
        for name in sorted(self.rel_map):
            tuples = sorted(self.rel_map[name])
            shown = ", ".join("(" + ",".join(map(str, t)) + ")" for t in tuples)
            parts.append(f"{name} = {{{shown}}}")
        for name in sorted(self.prop_map):
            parts.append(f"{name} = {self.prop_map[name]}")
        return "; ".join(parts)


@dataclass(frozen=True)
class Counterexample:
    interp: FiniteInterpretation
    env: dict[str, int]

    def describe(self) -> str:
        s = self.interp.describe()
        if self.env:
            s += "; " + "; ".join(f"{v} = {e}" for v, e in sorted(self.env.items()))
        return s


# ---------------------------------------------------------------------------
# Recursive evaluation


def _resolve(t: Term, const_map: Mapping[str, int], env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    try:
        return const_map[t.name]
    except KeyError:
        raise EvalError(f"constant {t.name!r} not interpreted") from None


def _tuple_space(domain_size: int, arity: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(domain_size), repeat=arity))


@nesting_guard
def eval_fo(
    f: Formula,
    interp: FiniteInterpretation,
    env: Optional[Mapping[str, int]] = None,
) -> bool:
    """Tarskian evaluation; raises on second-order quantifiers."""
    return _eval(f, interp, dict(env or {}), {}, None)


@nesting_guard
def eval_so(
    f: Formula,
    interp: FiniteInterpretation,
    env: Optional[Mapping[str, int]] = None,
) -> bool:
    """Evaluation including second-order quantifiers (extension enumeration).

    Guards: domain size <= 3 and quantified relation arity <= 2."""
    return _eval(f, interp, dict(env or {}), {}, {})


def eval_prop(f: Formula, valuation: Valuation) -> bool:
    """Evaluate a propositional formula under a valuation (total on its free
    propositional variables): :func:`eval_so` over a one-element domain.
    Second-order quantifiers are allowed; a first-order construct raises
    :class:`EvalError`."""
    if not is_propositional(f):
        raise EvalError("first-order construct in a propositional formula")
    return eval_so(f, FiniteInterpretation(1, prop_map=dict(valuation)))


def _eval(
    f: Formula,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
    so_arity: Optional[dict[int, Optional[int]]],
) -> bool:
    # overlay: symbol -> frozenset of tuples, for fixpoint iteration and
    # second-order enumeration; a propositional variable's is true when it
    # holds the empty tuple.  so_arity: each binder's arity by id; None: first-order
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, PropVar):
        if f.name in overlay:
            return bool(overlay[f.name])
        try:
            return bool(interp.prop_map[f.name])
        except KeyError:
            raise EvalError(f"propositional variable {f.name!r} not interpreted") from None
    if isinstance(f, Atom):
        elems = tuple(_resolve(t, interp.const_map, env) for t in f.args)
        ext = overlay.get(f.rel)
        if ext is None:
            try:
                ext = interp.rel_map[f.rel]
            except KeyError:
                raise EvalError(f"relation {f.rel!r} not interpreted") from None
        return elems in ext  # type: ignore[operator]
    if isinstance(f, Equal):
        return _resolve(f.left, interp.const_map, env) == _resolve(f.right, interp.const_map, env)
    if isinstance(f, Not):
        return not _eval(f.body, interp, env, overlay, so_arity)
    if isinstance(f, And):
        return all(_eval(it, interp, env, overlay, so_arity) for it in f.items)
    if isinstance(f, Or):
        return any(_eval(it, interp, env, overlay, so_arity) for it in f.items)
    if isinstance(f, Implies):
        return (not _eval(f.antecedent, interp, env, overlay, so_arity)) or _eval(
            f.consequent, interp, env, overlay, so_arity
        )
    if isinstance(f, Iff):
        return _eval(f.left, interp, env, overlay, so_arity) == _eval(
            f.right, interp, env, overlay, so_arity
        )
    if isinstance(f, (ForallInd, ExistsInd)):
        want_all = isinstance(f, ForallInd)
        for e in range(interp.domain_size):
            v = _eval(f.body, interp, {**env, f.var: e}, overlay, so_arity)
            if v != want_all:
                return not want_all
        return want_all
    if isinstance(f, (Lfp, Gfp)):
        ext = _fixpoint_extension(f, interp, env, overlay, so_arity)
        elems = tuple(_resolve(t, interp.const_map, env) for t in f.applied)
        return elems in ext
    if isinstance(f, (Forall2, Exists2)):
        if so_arity is None:
            raise EvalError("second-order quantifier in first-order evaluation")
        return _eval_so_quant(f, interp, env, overlay, so_arity)
    raise EvalError(f"unhandled formula: {type(f).__name__}")


def _fixpoint_extension(
    f: Lfp | Gfp,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
    so_arity: Optional[dict[int, Optional[int]]],
) -> frozenset[tuple[int, ...]]:
    space = _tuple_space(interp.domain_size, len(f.argvars))
    cur = frozenset() if isinstance(f, Lfp) else frozenset(space)
    for _ in range(len(space) + 1):
        new = frozenset(
            t
            for t in space
            if _eval(
                f.body,
                interp,
                {**env, **dict(zip(f.argvars, t))},
                {**overlay, f.rel: cur},
                so_arity,
            )
        )
        if new == cur:
            return cur
        cur = new
    raise EvalError(f"fixpoint over {f.rel} failed to converge (body not monotone?)")


def _so_guard(interp_size: int, arity: int, sym: str) -> None:
    # a propositional variable has two extensions over any domain
    if arity > MAX_SO_ARITY or (arity and interp_size > MAX_DOMAIN):
        raise GuardError(
            f"second-order enumeration of {sym!r} (arity {arity}) over domain "
            f"size {interp_size} exceeds guards (domain <= {MAX_DOMAIN}, arity <= {MAX_SO_ARITY})"
        )


def _eval_so_quant(
    f: Forall2 | Exists2,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
    so_arity: dict[int, Optional[int]],
) -> bool:
    """Enumerate the extensions of the bound symbol; a propositional
    variable is 0-ary, and its extensions ``{}`` and ``{()}`` read as False
    and True."""
    want_all = isinstance(f, Forall2)
    if id(f) not in so_arity:
        so_arity[id(f)] = free_symbols(f.body).get(f.sym)
    arity = so_arity[id(f)]
    if arity is None:
        return _eval(f.body, interp, env, overlay, so_arity)  # vacuous
    _so_guard(interp.domain_size, arity, f.sym)
    space = _tuple_space(interp.domain_size, arity)
    for bits in range(1 << len(space)):
        ext = frozenset(t for j, t in enumerate(space) if (bits >> j) & 1)
        v = _eval(f.body, interp, env, {**overlay, f.sym: ext}, so_arity)
        if v != want_all:
            return not want_all
    return want_all


# ---------------------------------------------------------------------------
# Exhaustive equivalence over all interpretations (grounded to tables or gates)


class _Grounder:
    """Grounds a formula over a fixed domain to a value of the
    ``kernel._space`` of ``n_inputs``, a truth table or a gate; the ground
    atoms of the free vocabulary are the first inputs.  ``width`` is the
    most inputs in use at once.  Bound tuples past the inputs raise
    ``kernel._Wide`` below the guard and are enumerated at it."""

    def __init__(
        self,
        n_inputs: int,
        atoms: list[tuple[str, tuple[int, ...]]],
        domain_size: int,
        const_map: Mapping[str, int],
        so_arity: dict[int, Optional[int]],
    ):
        self.space = space = kernel._space(n_inputs)
        self.full = space.full
        self.d = domain_size
        self.const_map = const_map
        # each free ground atom's grounding: the input that stands for it
        self.atom_value = dict(zip(atoms, space.inputs))
        # per second-order binder the check's grounders have met, by id:
        # the arity of its bound symbol in its body, None when vacuous
        self.so_arity = so_arity
        # the next input a second-order binder may take; inputs below it
        # are free atoms or held by enclosing binders
        self.next_input = self.width = len(atoms)

    def atom(self, name: str, elems: tuple[int, ...], frames: Mapping[str, dict]):
        frame = frames.get(name)
        if frame is not None:
            return frame[elems]
        try:
            return self.atom_value[(name, elems)]
        except KeyError:
            raise EvalError(f"symbol {name!r} missing from grounding signature") from None

    def fixpoint(self, f: Lfp | Gfp, env: Mapping[str, int], frames: Mapping[str, dict]):
        space = _tuple_space(self.d, len(f.argvars))
        seed = self.const(isinstance(f, Gfp))
        cur = {t: seed for t in space}
        for _ in range(len(space)):
            cur = {
                t: self.ground(
                    f.body,
                    {**env, **dict(zip(f.argvars, t))},
                    {**frames, f.rel: cur},
                )
                for t in space
            }
        elems = tuple(_resolve(t, self.const_map, env) for t in f.applied)
        return cur[elems]

    def so_quant(self, f: Forall2 | Exists2, env: Mapping[str, int], frames: Mapping[str, dict]):
        so_arity = self.so_arity
        if id(f) in so_arity:
            arity = so_arity[id(f)]
        else:
            arity = so_arity[id(f)] = free_symbols(f.body).get(f.sym)
            if arity is not None:
                _so_guard(self.d, arity, f.sym)
        if arity is None:
            return self.ground(f.body, env, frames)  # vacuous
        # a propositional variable is 0-ary: its frame has the one tuple ()
        tuples = _tuple_space(self.d, arity)
        inputs = self.space.inputs
        first = self.next_input
        stop = first + len(tuples)
        if stop > len(inputs):
            if len(inputs) < MAX_TT_VARS:
                raise kernel._Wide
            stop = len(inputs)
        self.next_input = stop
        self.width = max(self.width, stop)
        frame = dict(zip(tuples, inputs[first:stop]))
        rest = tuples[stop - first:]
        values = []
        for bits in range(1 << len(rest)):
            frame.update((t, self.const(bool((bits >> j) & 1))) for j, t in enumerate(rest))
            values.append(self.ground(f.body, env, {**frames, f.sym: frame}))
        self.next_input = first
        return self.project(values, range(first, stop), isinstance(f, Exists2))

    def difference(self, f: Formula, g: Formula, env: Mapping[str, int]) -> int:
        """The truth table of ``f XOR g`` under ``env``; a circuit is
        evaluated over the inputs the walk used."""
        value = self.ground(f, env, {}) ^ self.ground(g, env, {})
        if type(self.space) is CircuitBuilder:
            self.space.n_vars = self.width
        return kernel._table(self.space, value)

    def const(self, value: bool):
        return self.full if value else 0

    def project(self, values: list, inputs: range, exists: bool):
        """``Ex2`` (or, with ``exists`` false, ``All2``) over the enumerated
        tuples, whose groundings are ``values``, then over ``inputs``."""
        full = self.full
        if exists:
            out = 0
            for t in values:
                out |= t
        else:
            out = full
            for t in values:
                out &= t
            out ^= full
        for i in inputs:
            out = self.space.exists(out, i)
        return out if exists else out ^ full

    def ground(self, f: Formula, env: Mapping[str, int], frames: Mapping[str, dict]):
        t = type(f)
        if t is Atom:
            cm = self.const_map
            try:
                elems = tuple([env[a.name] if type(a) is Var else cm[a.name] for a in f.args])
            except KeyError:  # raise the error _resolve gives
                elems = tuple(_resolve(a, cm, env) for a in f.args)
            return self.atom(f.rel, elems, frames)
        if t is And:
            r = self.full
            for it in f.items:
                r &= self.ground(it, env, frames)
            return r
        if t is Or:
            r = 0
            for it in f.items:
                r |= self.ground(it, env, frames)
            return r
        if t is Not:
            return self.ground(f.body, env, frames) ^ self.full
        if t is ForallInd:
            r = self.full
            for e in range(self.d):
                r &= self.ground(f.body, {**env, f.var: e}, frames)
            return r
        if t is ExistsInd:
            r = 0
            for e in range(self.d):
                r |= self.ground(f.body, {**env, f.var: e}, frames)
            return r
        if t is Implies:
            a = self.ground(f.antecedent, env, frames)
            return (a ^ self.full) | self.ground(f.consequent, env, frames)
        if t is Iff:
            a = self.ground(f.left, env, frames)
            return a ^ self.ground(f.right, env, frames) ^ self.full
        if t is PropVar:
            return self.atom(f.name, (), frames)
        if t is Equal:
            cm = self.const_map
            return self.full if _resolve(f.left, cm, env) == _resolve(f.right, cm, env) else 0
        if t is Top:
            return self.full
        if t is Bottom:
            return 0
        if t is Lfp or t is Gfp:
            return self.fixpoint(f, env, frames)
        if t is Forall2 or t is Exists2:
            return self.so_quant(f, env, frames)
        raise EvalError(f"unhandled formula in grounding: {t.__name__}")


def _atom_order(sig: Signature, domain_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """The documented lexicographic enumeration order of ground atoms."""
    atoms: list[tuple[str, tuple[int, ...]]] = []
    for name in sorted(sig.relations):
        atoms.extend((name, t) for t in _tuple_space(domain_size, sig.relations[name]))
    for name in sorted(sig.prop_vars):
        atoms.append((name, ()))
    return atoms


@nesting_guard
def counterexample(f: Formula, g: Formula, max_domain: int = 2) -> Optional[Counterexample]:
    """First interpretation (in enumeration order) where ``f`` and ``g``
    differ, or ``None`` when they agree on every interpretation with domain
    size ``1 .. max_domain``."""
    if max_domain > MAX_DOMAIN:
        raise GuardError(f"domain size {max_domain} exceeds the guard of {MAX_DOMAIN}")
    if max_domain < 1:
        raise GuardError("max_domain must be at least 1")
    sig, sides = _signature((f, g))  # one walk per side
    free = sorted(sides[0].ind_vars | sides[1].ind_vars)
    consts = sorted(sig.constants)
    so_arity: dict[int, Optional[int]] = {}
    tables = min(kernel.FREE_FROM_VARS - 1, MAX_TT_VARS)
    for d in range(1, max_domain + 1):
        atoms = _atom_order(sig, d)
        if len(atoms) > MAX_TT_VARS:
            raise GuardError(
                f"{len(atoms)} ground atoms at domain size {d} exceed the "
                f"{MAX_TT_VARS}-input guard"
            )
        n_inputs = tables if len(atoms) <= tables else MAX_TT_VARS
        for const_vals in itertools.product(range(d), repeat=len(consts)):
            const_map = dict(zip(consts, const_vals))
            for env_vals in itertools.product(range(d), repeat=len(free)):
                env = dict(zip(free, env_vals))
                try:
                    diff = _Grounder(n_inputs, atoms, d, const_map, so_arity).difference(f, g, env)
                except kernel._Wide:
                    # bound tuples outgrew the tables: this domain size's
                    # remaining assignments ground on circuits
                    n_inputs = MAX_TT_VARS
                    diff = _Grounder(n_inputs, atoms, d, const_map, so_arity).difference(f, g, env)
                if diff:
                    # the projections leave the table constant along the
                    # bound inputs, so its lowest set bit has them clear
                    v = (diff & -diff).bit_length() - 1
                    return Counterexample(_decode(v, atoms, d, const_map), env)
    return None


def _decode(
    v: int,
    atoms: list[tuple[str, tuple[int, ...]]],
    domain_size: int,
    const_map: dict[str, int],
) -> FiniteInterpretation:
    rel_map: dict[str, set[tuple[int, ...]]] = {}
    prop_map: dict[str, bool] = {}
    for i, (name, elems) in enumerate(atoms):
        bit = bool((v >> i) & 1)
        if not elems:  # a propositional variable; every relation has atoms with elements
            prop_map[name] = bit
        else:
            ext = rel_map.setdefault(name, set())
            if bit:
                ext.add(elems)
    return FiniteInterpretation(
        domain_size,
        dict(const_map),
        {k: frozenset(vs) for k, vs in rel_map.items()},
        prop_map,
    )


def equiv_fo_finite(f: Formula, g: Formula, max_domain: int = 2) -> bool:
    return counterexample(f, g, max_domain) is None
