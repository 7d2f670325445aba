"""Brute-force finite-model oracle.

* :func:`eval_fo` -- Tarskian evaluation over a finite interpretation,
  fixpoint literals computed by Knaster-Tarski iteration (lfp from the empty
  relation, gfp from the full one; convergence within ``|D|**arity`` steps by
  monotonicity).
* :func:`eval_so` -- adds second-order quantifiers, evaluated by enumerating
  every extension of the quantified symbol.
* :func:`counterexample` / :func:`equiv_fo_finite` -- exhaustive equivalence
  check over all interpretations up to a domain size.  Internally each ground
  atom becomes one boolean circuit input, so one kernel truth table covers
  every interpretation at once.  Both sides share one circuit, whose
  ``f XOR g`` output marks where they differ; the reported counterexample
  is the lowest index in the documented lexicographic enumeration order
  (relations sorted by name, tuples in lexicographic order, constants and
  free variables enumerated outermost).

Enumeration guards are hard errors, never silent truncation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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
    free_ind_vars,
    signature_of,
)
from . import kernel
from ._program import CircuitBuilder
from .prop_oracle import MAX_TT_VARS

MAX_DOMAIN = 3
MAX_SO_ARITY = 2


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


def _resolve(t: Term, interp: FiniteInterpretation, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    try:
        return interp.const_map[t.name]
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
    return _eval(f, interp, dict(env or {}), {}, allow_so=False)


@nesting_guard
def eval_so(
    f: Formula,
    interp: FiniteInterpretation,
    env: Optional[Mapping[str, int]] = None,
) -> bool:
    """Evaluation including second-order quantifiers (extension enumeration).

    Guards: domain size <= 3 and quantified relation arity <= 2."""
    return _eval(f, interp, dict(env or {}), {}, allow_so=True)


def _eval(
    f: Formula,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
    allow_so: bool,
) -> bool:
    # overlay: symbol -> frozenset of tuples (relation) or bool (prop var),
    # for fixpoint iteration and second-order enumeration
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
        elems = tuple(_resolve(t, interp, env) for t in f.args)
        ext = overlay.get(f.rel)
        if ext is None:
            try:
                ext = interp.rel_map[f.rel]
            except KeyError:
                raise EvalError(f"relation {f.rel!r} not interpreted") from None
        return elems in ext  # type: ignore[operator]
    if isinstance(f, Equal):
        return _resolve(f.left, interp, env) == _resolve(f.right, interp, env)
    if isinstance(f, Not):
        return not _eval(f.body, interp, env, overlay, allow_so)
    if isinstance(f, And):
        return all(_eval(it, interp, env, overlay, allow_so) for it in f.items)
    if isinstance(f, Or):
        return any(_eval(it, interp, env, overlay, allow_so) for it in f.items)
    if isinstance(f, Implies):
        return (not _eval(f.antecedent, interp, env, overlay, allow_so)) or _eval(
            f.consequent, interp, env, overlay, allow_so
        )
    if isinstance(f, Iff):
        return _eval(f.left, interp, env, overlay, allow_so) == _eval(
            f.right, interp, env, overlay, allow_so
        )
    if isinstance(f, (ForallInd, ExistsInd)):
        want_all = isinstance(f, ForallInd)
        for e in range(interp.domain_size):
            v = _eval(f.body, interp, {**env, f.var: e}, overlay, allow_so)
            if v != want_all:
                return not want_all
        return want_all
    if isinstance(f, (Lfp, Gfp)):
        ext = _fixpoint_extension(f, interp, env, overlay, allow_so)
        elems = tuple(_resolve(t, interp, env) for t in f.applied)
        return elems in ext
    if isinstance(f, (Forall2, Exists2)):
        if not allow_so:
            raise EvalError("second-order quantifier in first-order evaluation")
        return _eval_so_quant(f, interp, env, overlay)
    raise EvalError(f"unhandled formula: {type(f).__name__}")


def _fixpoint_extension(
    f: Lfp | Gfp,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
    allow_so: bool,
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
                allow_so,
            )
        )
        if new == cur:
            return cur
        cur = new
    raise EvalError(f"fixpoint over {f.rel} failed to converge (body not monotone?)")


def _so_guard(interp_size: int, arity: int, sym: str) -> None:
    if interp_size > MAX_DOMAIN or arity > MAX_SO_ARITY:
        raise GuardError(
            f"second-order enumeration of {sym!r} (arity {arity}) over domain "
            f"size {interp_size} exceeds guards (domain <= {MAX_DOMAIN}, arity <= {MAX_SO_ARITY})"
        )


def _eval_so_quant(
    f: Forall2 | Exists2,
    interp: FiniteInterpretation,
    env: dict[str, int],
    overlay: dict[str, object],
) -> bool:
    from ..syntax import prop_symbols, rel_symbols

    want_all = isinstance(f, Forall2)
    arity = rel_symbols(f.body).get(f.sym)
    if arity is None:
        if f.sym not in prop_symbols(f.body):
            return _eval(f.body, interp, env, overlay, True)  # vacuous
        for value in (False, True):
            v = _eval(f.body, interp, env, {**overlay, f.sym: value}, True)
            if v != want_all:
                return not want_all
        return want_all
    _so_guard(interp.domain_size, arity, f.sym)
    space = _tuple_space(interp.domain_size, arity)
    for bits in range(1 << len(space)):
        ext = frozenset(t for j, t in enumerate(space) if (bits >> j) & 1)
        v = _eval(f.body, interp, env, {**overlay, f.sym: ext}, True)
        if v != want_all:
            return not want_all
    return want_all


# ---------------------------------------------------------------------------
# Exhaustive equivalence over all interpretations (ground circuits)


class _Grounder:
    """Compiles a formula over a fixed domain into a boolean circuit whose
    inputs are the ground atoms of the free vocabulary."""

    def __init__(
        self,
        builder: CircuitBuilder,
        domain_size: int,
        const_map: Mapping[str, int],
        atom_slot: Mapping[tuple[str, tuple[int, ...]], int],
    ):
        self.builder = builder
        self.d = domain_size
        self.const_map = const_map
        self.atom_slot = atom_slot

    def resolve(self, t: Term, env: Mapping[str, int]) -> int:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise EvalError(f"unbound variable {t.name!r}") from None
        try:
            return self.const_map[t.name]
        except KeyError:
            raise EvalError(f"constant {t.name!r} not interpreted") from None

    def atom(self, name: str, elems: tuple[int, ...], frames: Mapping[str, dict]) -> int:
        frame = frames.get(name)
        if frame is not None:
            return frame[elems]
        try:
            return self.atom_slot[(name, elems)]
        except KeyError:
            raise EvalError(f"symbol {name!r} missing from grounding signature") from None

    def ground(self, f: Formula, env: Mapping[str, int], frames: Mapping[str, dict]) -> int:
        b = self.builder
        if isinstance(f, Top):
            return b.const(True)
        if isinstance(f, Bottom):
            return b.const(False)
        if isinstance(f, PropVar):
            return self.atom(f.name, (), frames)
        if isinstance(f, Atom):
            elems = tuple(self.resolve(t, env) for t in f.args)
            return self.atom(f.rel, elems, frames)
        if isinstance(f, Equal):
            return b.const(self.resolve(f.left, env) == self.resolve(f.right, env))
        if isinstance(f, Not):
            return b.not_(self.ground(f.body, env, frames))
        if isinstance(f, And):
            return b.and_many(self.ground(it, env, frames) for it in f.items)
        if isinstance(f, Or):
            return b.or_many(self.ground(it, env, frames) for it in f.items)
        if isinstance(f, Implies):
            return b.or2(
                b.not_(self.ground(f.antecedent, env, frames)),
                self.ground(f.consequent, env, frames),
            )
        if isinstance(f, Iff):
            x = self.ground(f.left, env, frames)
            y = self.ground(f.right, env, frames)
            return b.not_(b.xor2(x, y))
        if isinstance(f, (ForallInd, ExistsInd)):
            slots = [
                self.ground(f.body, {**env, f.var: e}, frames) for e in range(self.d)
            ]
            return b.and_many(slots) if isinstance(f, ForallInd) else b.or_many(slots)
        if isinstance(f, (Lfp, Gfp)):
            return self.fixpoint(f, env, frames)
        if isinstance(f, (Forall2, Exists2)):
            return self.so_quant(f, env, frames)
        raise EvalError(f"unhandled formula in grounding: {type(f).__name__}")

    def fixpoint(self, f: Lfp | Gfp, env: Mapping[str, int], frames: Mapping[str, dict]) -> int:
        space = _tuple_space(self.d, len(f.argvars))
        seed = self.builder.const(isinstance(f, Gfp))
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
        elems = tuple(self.resolve(t, env) for t in f.applied)
        return cur[elems]

    def so_quant(self, f: Forall2 | Exists2, env: Mapping[str, int], frames: Mapping[str, dict]) -> int:
        from ..syntax import prop_symbols, rel_symbols

        b = self.builder
        arity = rel_symbols(f.body).get(f.sym)
        if arity is None and f.sym not in prop_symbols(f.body):
            return self.ground(f.body, env, frames)  # vacuous
        slots = []
        if arity is None:
            for value in (False, True):
                frame = {(): b.const(value)}
                slots.append(self.ground(f.body, env, {**frames, f.sym: frame}))
        else:
            _so_guard(self.d, arity, f.sym)
            space = _tuple_space(self.d, arity)
            for bits in range(1 << len(space)):
                frame = {t: b.const(bool((bits >> j) & 1)) for j, t in enumerate(space)}
                slots.append(self.ground(f.body, env, {**frames, f.sym: frame}))
        return b.and_many(slots) if isinstance(f, Forall2) else b.or_many(slots)


def _atom_order(sig: Signature, domain_size: int) -> list[tuple[str, tuple[int, ...]]]:
    """The documented lexicographic enumeration order of ground atoms."""
    atoms: list[tuple[str, tuple[int, ...]]] = []
    for name in sorted(sig.relations):
        atoms.extend((name, t) for t in _tuple_space(domain_size, sig.relations[name]))
    for name in sorted(sig.prop_vars):
        atoms.append((name, ()))
    return atoms


@nesting_guard
def counterexample(
    f: Formula,
    g: Formula,
    sig: Optional[Signature] = None,
    max_domain: int = 2,
    free_vars: Sequence[str] = (),
) -> Optional[Counterexample]:
    """First interpretation (in enumeration order) where ``f`` and ``g``
    differ, or ``None`` when they agree on every interpretation with domain
    size ``1 .. max_domain``."""
    if max_domain > MAX_DOMAIN:
        raise GuardError(f"domain size {max_domain} exceeds the guard of {MAX_DOMAIN}")
    if max_domain < 1:
        raise GuardError("max_domain must be at least 1")
    sig = signature_of(f, g, base=sig)
    free = sorted((free_ind_vars(f) | free_ind_vars(g)) | set(free_vars))
    consts = sorted(sig.constants)
    for d in range(1, max_domain + 1):
        atoms = _atom_order(sig, d)
        if len(atoms) > MAX_TT_VARS:
            raise GuardError(
                f"{len(atoms)} ground atoms at domain size {d} exceed the "
                f"{MAX_TT_VARS}-input guard"
            )
        slot_of = {atom: i for i, atom in enumerate(atoms)}
        for const_vals in itertools.product(range(d), repeat=len(consts)):
            const_map = dict(zip(consts, const_vals))
            for env_vals in itertools.product(range(d), repeat=len(free)):
                env = dict(zip(free, env_vals))
                builder = CircuitBuilder(len(atoms))
                grounder = _Grounder(builder, d, const_map, slot_of)
                out = builder.xor2(grounder.ground(f, env, {}), grounder.ground(g, env, {}))
                diff = kernel.eval_table(builder, out)
                if diff:
                    v = (diff & -diff).bit_length() - 1
                    return Counterexample(_decode(v, atoms, sig, d, const_map), env)
    return None


def _decode(
    v: int,
    atoms: list[tuple[str, tuple[int, ...]]],
    sig: Signature,
    domain_size: int,
    const_map: dict[str, int],
) -> FiniteInterpretation:
    rel_map: dict[str, set[tuple[int, ...]]] = {name: set() for name in sig.relations}
    prop_map: dict[str, bool] = {}
    for i, (name, elems) in enumerate(atoms):
        bit = bool((v >> i) & 1)
        if name in sig.prop_vars:
            prop_map[name] = bit
        elif bit:
            rel_map[name].add(elems)
    return FiniteInterpretation(
        domain_size,
        dict(const_map),
        {k: frozenset(vs) for k, vs in rel_map.items()},
        prop_map,
    )


def equiv_fo_finite(
    f: Formula,
    g: Formula,
    sig: Optional[Signature] = None,
    max_domain: int = 2,
    free_vars: Sequence[str] = (),
) -> bool:
    return counterexample(f, g, sig, max_domain, free_vars) is None
