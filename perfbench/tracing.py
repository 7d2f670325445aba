"""Per-layer tracing from outside the program.

The traced run replaces public (and a few module-level private) functions
with timing wrappers.  The package imports most of them by name
(``from .transform import simplify``), so each wrapper is installed in every
namespace that calls through it.  A layer's self time is its wall time minus
the time of the traced layers it called, so the self times of all layers add
up to the traced wall time spent inside the program.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from dualforget import cli, fo, parser, printer, prop, semantics
from dualforget.outcome import TRACE_RULES
from dualforget.semantics import fo_oracle, kernel, prop_oracle

from nodes import node_count

ENGINE_LAYERS = ("prop", "fo")

FO_FAILURE_KINDS = {
    "not separable": "mixed_polarity",
    "only inside fixpoint": "fixpoint_only",
}


def _fo_attempt_layer(args, kwargs) -> str:
    # fo._attempt(r, items, positive_case, allow_r_in_def, avoid, arity):
    # the fixpoint generalization is the attempt that lets the definition
    # mention the eliminated relation
    allow = kwargs["allow_r_in_def"] if "allow_r_in_def" in kwargs else args[3]
    return "fo.fixpoint" if allow else "fo.ackermann"


# (layer or layer chooser, function name, namespaces that call it by name).
# Private names are listed where the work of a layer has no public entry
# point the elimination loops go through.
_PATCHES: list[tuple[object, str, tuple]] = [
    ("cli", "main", (cli,)),
    ("parser", "parse_formula", (parser, cli)),
    ("parser", "parse_theory", (parser, cli)),
    ("printer", "format_formula", (printer, cli)),
    ("transform.nnf", "nnf", (prop, fo)),
    ("transform.simplify", "simplify", (prop, fo)),
    ("transform.substitute", "substitute_prop", (prop, fo)),
    ("transform.substitute", "substitute_rel", (fo,)),
    ("prop", "forget_strong", (prop,)),
    ("prop", "forget_weak", (prop,)),
    ("prop", "snc", (prop,)),
    ("prop", "wsc", (prop,)),
    ("prop.ackermann", "ackermann_eliminate", (prop,)),
    ("prop.normalize", "normalize_conjuncts", (prop,)),
    ("prop.clause", "clause_forall_eliminate", (prop,)),
    ("fo", "forget_strong", (fo,)),
    ("fo", "forget_weak", (fo,)),
    ("fo", "snc", (fo,)),
    ("fo", "wsc", (fo,)),
    ("fo.ackermann", "_eliminate_exists_rel", (fo,)),
    (_fo_attempt_layer, "_attempt", (fo,)),
    ("fo.clause", "clause_form_eliminate", (fo,)),
    ("semantics.compile", "equiv_prop", (prop_oracle, semantics, cli)),
    ("semantics.compile", "implies_prop", (prop_oracle, semantics)),
    ("semantics.compile", "truth_table", (prop_oracle, semantics)),
    ("semantics.ground", "counterexample", (fo_oracle, semantics, cli)),
    ("semantics.kernel", "eval_table", (kernel,)),
]

#: time metrics reported as self time, in seconds
TIME_METRICS = {
    "parser.s": "parser",
    "printer.s": "printer",
    "cli.self_s": "cli",
    "transform.nnf.s": "transform.nnf",
    "transform.simplify.s": "transform.simplify",
    "transform.substitute.s": "transform.substitute",
    "prop.self_s": "prop",
    "prop.ackermann.s": "prop.ackermann",
    "prop.normalize.s": "prop.normalize",
    "prop.clause.s": "prop.clause",
    "fo.self_s": "fo",
    "fo.ackermann.s": "fo.ackermann",
    "fo.fixpoint.s": "fo.fixpoint",
    "fo.clause.s": "fo.clause",
    "semantics.compile.s": "semantics.compile",
    "semantics.ground.s": "semantics.ground",
    "semantics.kernel.s": "semantics.kernel",
}

COUNT_METRICS = {
    "parser.calls": "parser",
    "transform.simplify.calls": "transform.simplify",
    "semantics.kernel.calls": "semantics.kernel",
}


class Tracer:
    """Span timer and counters for one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []  # per open span: time of traced callees
        self._engine_depth = 0
        self._outcomes: list[tuple[str, object]] = []
        self.gates = 0
        self.bitops = 0
        self.max_vars = 0
        self.rules: dict[str, list[int]] = {r: [0, 0] for r in sorted(TRACE_RULES)}
        self.steps = 0
        self.peak_nodes = 0
        self.fo_failed: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        """Wrap every function in ``_PATCHES`` in each calling namespace."""
        for layer, name, namespaces in _PATCHES:
            wrapped: dict[int, Callable] = {}
            for ns in namespaces:
                fn = getattr(ns, name)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(layer, fn)
                setattr(ns, name, wrapped[id(fn)])

    def _wrap(self, layer, fn: Callable) -> Callable:
        choose = layer if callable(layer) else None
        engine = layer in ENGINE_LAYERS
        kernel_call = layer == "semantics.kernel"

        def wrapper(*args, **kwargs):
            name = choose(args, kwargs) if choose else layer
            if kernel_call:
                self._count_circuit(args[0])
            if engine:
                self._engine_depth += 1
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed
                if engine:
                    self._engine_depth -= 1
            if engine and self._engine_depth == 0:
                # outermost operator calls only (snc and wsc call forget_*);
                # their traces are measured after the pass, outside the timing
                self._outcomes.append((name, out))
            return out

        return wrapper

    def _count_circuit(self, builder) -> None:
        gates = len(builder)
        self.gates += gates
        self.bitops += gates << builder.n_vars
        self.max_vars = max(self.max_vars, builder.n_vars)

    def _record_outcome(self, layer: str, outcome) -> None:
        for step in outcome.trace:
            after = node_count(step.after)
            counts = self.rules[step.rule]
            counts[0] += 1
            counts[1] += after
            self.steps += 1
            self.peak_nodes = max(self.peak_nodes, after, node_count(step.before))
        if layer == "fo" and not outcome.ok:
            self.fo_failed[_fo_failure_kind(outcome.failure_reason)] += 1

    def metrics(self, cold_s: float, overhead: float) -> dict[str, tuple[float, str]]:
        for layer, outcome in self._outcomes:
            self._record_outcome(layer, outcome)
        self._outcomes.clear()
        out: dict[str, tuple[float, str]] = {}
        for metric, layer in TIME_METRICS.items():
            out[metric] = (self.self_s.get(layer, 0.0), "s")
        for metric, layer in COUNT_METRICS.items():
            out[metric] = (self.calls.get(layer, 0), "count")
        out["semantics.circuit.gates"] = (self.gates, "count")
        out["semantics.kernel.max_vars"] = (self.max_vars, "count")
        out["semantics.kernel.bitops"] = (self.bitops, "count")
        out["semantics.kernel.cold_s"] = (cold_s, "s")
        out["fo.failed"] = (sum(self.fo_failed.values()), "count")
        for kind in sorted(set(FO_FAILURE_KINDS.values())) + ["other"]:
            out[f"fo.failed.{kind}"] = (self.fo_failed.get(kind, 0), "count")
        for rule, (count, nodes_out) in self.rules.items():
            out[f"rule.{rule}.count"] = (count, "count")
            out[f"rule.{rule}.nodes_out"] = (nodes_out, "count")
        out["trace.steps"] = (self.steps, "count")
        out["trace.peak_nodes"] = (self.peak_nodes, "count")
        out["trace.overhead"] = (overhead, "ratio")
        return out


def _fo_failure_kind(reason: str) -> str:
    for needle, kind in FO_FAILURE_KINDS.items():
        if needle in reason:
            return kind
    return "other"
