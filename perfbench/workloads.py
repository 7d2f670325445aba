"""The three workloads: seeded inputs, the calls to time, and the oracle check
of every result.

Each workload is a list of :class:`Call` objects.  ``run`` is the timed
operation; ``verify`` checks its result against a specification the
benchmark builds itself (``Ex2``/``All2`` over the forgotten vocabulary) and
is never timed as solve work.  Oracle functions are called through the
``semantics`` module so that the traced run sees them; the benchmark's own
printing and parsing use names bound at import, before tracing wraps them.
"""

from __future__ import annotations

import io
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from dualforget import cli, prop, semantics
from dualforget.parser import parse_formula, parse_theory
from dualforget.printer import format_formula
from dualforget.syntax import Formula, Implies, Theory, conj, exists2, forall2

import generators as gen
from hostspeed import HOST
from nodes import node_count, prop_vars

#: Largest domain the first-order results are checked at.
FO_DOMAIN = 2

# prop_rules ladder: (rules, forgotten symbols, theories) over RULE_VARS
# variables.  A call's time is its median over the run's rounds, so the
# ladder stops where a 30 s run still holds 15 or more rounds: the dearest
# strong call takes 0.1-0.2 s.  With rungs up to 96 rules and 10 forgotten,
# a run held 8-10 rounds and verify_per_s spread twice as much between
# seeds.  The sufficiency check of weak results runs at the full width of
# 20 inputs, where the oracle's cold input-mask build costs about 1.5 s, so
# set-up pays that build on every run.
RULE_VARS = 20
RULE_LADDER = ((16, 4, 6), (24, 5, 6), (32, 6, 5), (40, 6, 5))

RANDOM_PROBLEMS = 500
CLAUSE_THEORIES = 100


@dataclass
class Verdict:
    solved: bool                       # a result, not a FAILED outcome
    nodes: Optional[int]               # size of the solved result
    checks: Optional["Checks"] = None  # the oracle checks made
    error: Optional[str] = None


@dataclass
class Call:
    id: str
    family: Optional[str]   # "strong", "weak", or None for neither
    run: Callable[[], object]
    verify: Callable[[object], Verdict]
    show: Callable[[object], str]   # the result as printed, for the digest


@dataclass
class Workload:
    calls: list[Call]
    widths: set[int]        # truth-table widths the oracle checks will use
    stats: dict[str, int]
    workdir: Optional[tempfile.TemporaryDirectory] = field(default=None)

    def close(self) -> None:
        if self.workdir is not None:
            self.workdir.cleanup()


_UNEXPLAINED = "FAILED outcome without a reason and a residual"


class Checks:
    """Runs the oracle checks of one result and keeps them, so that they can
    be timed again in every later round of the run.  Each run is recorded as
    a ``(start, duration)`` sample for ``hostspeed`` to normalise.  Every run
    must give the same verdict: the oracle is deterministic."""

    def __init__(self):
        self._runs: list[list] = []  # [fn, args, kwargs, verdict, samples]

    def __call__(self, fn, *args, **kwargs):
        run = [fn, args, kwargs, None, []]
        self._time(run, first=True)
        self._runs.append(run)
        return run[3]

    def retime(self) -> None:
        for run in self._runs:
            self._time(run, first=False)

    @staticmethod
    def _time(run: list, first: bool) -> None:
        fn, args, kwargs = run[:3]
        HOST.maybe_probe()
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        run[4].append((start, time.perf_counter() - start))
        if first:
            run[3] = value
        elif value != run[3]:
            raise RuntimeError("the oracle gave two verdicts on one input")

    @property
    def samples(self) -> list[list[tuple[float, float]]]:
        return [run[4] for run in self._runs]


# ---------------------------------------------------------------------------
# Propositional workloads


def _show_outcome(outcome) -> str:
    if outcome.ok:
        return format_formula(outcome.result)
    return f"FAILED: {outcome.failure_reason}"


def _outcome_verdict(outcome, spec: Formula, sufficient_for: Optional[Formula]) -> Verdict:
    """Check an elimination outcome: equivalent to ``spec`` and, for the weak
    family, entailing ``sufficient_for`` over the full vocabulary."""
    if not outcome.ok:
        explained = outcome.failure_reason and outcome.residual is not None
        return Verdict(False, None, error=None if explained else _UNEXPLAINED)
    checks = Checks()
    error = None
    if not checks(semantics.equiv_prop, outcome.result, spec):
        error = "result not equivalent to the specification"
    elif sufficient_for is not None and not checks(
        semantics.implies_prop, outcome.result, sufficient_for
    ):
        error = "weak result does not entail the theory"
    return Verdict(True, node_count(outcome.result), checks, error)


def _prop_calls(pid: str, th: Theory, forget: list[str], query: Optional[Formula]):
    """Forgetting in both modes on one problem and, given a query, the two
    condition operators; with their specifications and the truth-table
    widths their checks use."""
    whole = th.as_formula
    vocab = prop_vars(whole)
    present = [p for p in forget if p in vocab]
    keep = vocab - set(present)
    # All2 distributes over conjunction, so the weak specification is built
    # per formula of the theory: equivalent to All2 present. whole, and its
    # circuit is not 2**len(present) copies of the whole theory.  Weak
    # results are also checked for sufficiency (result |= theory) over the
    # full vocabulary, the widest truth table the workload builds.
    weak_spec = conj([forall2([p for p in present if p in prop_vars(f)], f) for f in th.formulas])
    ops = [
        ("strong", "strong", lambda: prop.forget_strong(th, forget), exists2(present, whole), None),
        ("weak", "weak", lambda: prop.forget_weak(th, forget), weak_spec, whole),
    ]
    widths = {len(keep), len(vocab)}
    if query is not None:
        q_vocab = vocab | prop_vars(query)
        cond_forget = sorted(q_vocab - keep)
        cond_body = Implies(whole, query) if th.formulas else query
        kept = sorted(keep)
        ops += [
            ("snc", "strong", lambda: prop.snc(th, query, kept),
             exists2(cond_forget, conj([whole, query])), None),
            ("wsc", "weak", lambda: prop.wsc(th, query, kept), forall2(cond_forget, cond_body), cond_body),
        ]
        widths |= {len(q_vocab) - len(cond_forget), len(q_vocab)}
    calls = [
        Call(f"{pid}:{op}", family, run,
             lambda out, spec=spec, suff=suff: _outcome_verdict(out, spec, suff), _show_outcome)
        for op, family, run, spec, suff in ops
    ]
    return calls, widths


def _prop_workload(problems: list[tuple[str, Theory, list[str], Optional[Formula]]]) -> Workload:
    calls: list[Call] = []
    widths: set[int] = set()
    variables = nodes = 0
    for pid, th, forget, query in problems:
        cs, ws = _prop_calls(pid, th, forget, query)
        calls.extend(cs)
        widths |= ws
        inputs = [th.as_formula] + ([query] if query is not None else [])
        variables = max(variables, len(set().union(*map(prop_vars, inputs))))
        nodes += sum(map(node_count, inputs))
    stats = {"problems": len(problems), "calls": len(calls), "variables": variables, "input_nodes": nodes}
    return Workload(calls, widths, stats)


def prop_random(seed: int, root: Path) -> Workload:
    """Many small random theories: per-call overhead is the work."""
    problems = [
        (f"random{i}", th, forget, query)
        for i, (th, forget, query) in enumerate(gen.random_problems(seed, RANDOM_PROBLEMS))
    ]
    return _prop_workload(problems)


def prop_rules(seed: int, root: Path) -> Workload:
    """The rule-theory ladder, forgetting in both modes: strong forgetting
    falls back to Shannon expansion, weak forgetting works conjunct by
    conjunct on the same theories."""
    problems = []
    for k, (n_rules, n_forget, th, forget) in enumerate(gen.rule_ladder(seed, RULE_LADDER, RULE_VARS)):
        problems.append((f"rules{n_rules}f{n_forget}#{k}", th, forget, None))
    return _prop_workload(problems)


# ---------------------------------------------------------------------------
# First-order workload through the command line


def _run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _show_cli(result) -> str:
    code, out, _ = result
    return f"{code}\n{out}"


def _cli_verdict(result, spec: Formula) -> Verdict:
    """Exit 0: parse the printed formula and check it at every domain size up
    to ``FO_DOMAIN``.  Exit 2: require the reason and the printed residual."""
    code, out, err = result
    if code == 2:
        reason = err.partition("elimination failed:")[2].strip()
        return Verdict(False, None, error=None if reason and out.strip() else _UNEXPLAINED)
    if code != 0:
        return Verdict(False, None, error=f"exit code {code}: {err.strip()}")
    result_formula = parse_formula(out.strip())
    checks = Checks()
    ce = checks(semantics.counterexample, result_formula, spec, max_domain=FO_DOMAIN)
    error = None if ce is None else f"counterexample: {ce.describe()}"
    return Verdict(True, node_count(result_formula), checks, error)


def _equiv_verdict(result, left: Formula, right: Formula) -> Verdict:
    code = result[0]
    checks = Checks()
    expected = 0 if checks(semantics.counterexample, left, right, max_domain=FO_DOMAIN) is None else 4
    error = None if code == expected else f"exit code {code}, the oracle expects {expected}"
    return Verdict(True, None, checks, error)


def _cli_call(cid: str, family: Optional[str], argv: list[str], spec: Formula) -> Call:
    return Call(cid, family, lambda: _run_cli(argv), lambda r: _cli_verdict(r, spec), _show_cli)


def _forget_call(cid: str, path: Path, th: Theory, symbols: list[str], mode: str, *extra: str) -> Call:
    quant = exists2 if mode == "strong" else forall2
    argv = ["forget", "--mode", mode, "--vars", ",".join(symbols), *extra, str(path)]
    return _cli_call(cid, mode, argv, quant(symbols, th.as_formula))


def _condition_call(cid: str, theory: Optional[Path], query_text: str, keep: list[str], weakest: bool) -> Call:
    th = _load(theory)[1] if theory else Theory("theory", ())
    query = parse_formula(query_text)
    argv = ["wsc" if weakest else "snc", "--query", query_text, "--keep", ",".join(keep)]
    if theory:
        argv += ["--theory", str(theory)]
    forget = sorted((prop_vars(th.as_formula) | prop_vars(query)) - set(keep))
    if weakest:
        spec = forall2(forget, Implies(th.as_formula, query) if th.formulas else query)
    else:
        spec = exists2(forget, conj([th.as_formula, query]))
    return _cli_call(cid, "weak" if weakest else "strong", argv, spec)


def _load(path: Path):
    return parse_theory(path.read_text(encoding="utf-8"), name=path.stem)


def _ground_atoms(relations: dict[str, int], n_props: int) -> int:
    """Inputs of the grounded circuit at the largest checked domain."""
    return sum(FO_DOMAIN ** arity for arity in relations.values()) + n_props


def fo_cli(seed: int, root: Path) -> Workload:
    """In-process command-line runs: the README commands, every shipped
    theory with each of its symbols forgotten in both modes, and seeded
    clause-fragment theories written as theory files."""
    theories = root / "theories"
    left, right = "p | ~p", "T"
    calls = [
        _forget_call("readme:maintain", theories / "maintain.th",
                     _load(theories / "maintain.th")[1], ["lt"], "weak"),
        _forget_call("readme:pressure", theories / "pressure_rules.th",
                     _load(theories / "pressure_rules.th")[1], ["mt", "ht"], "strong"),
        _forget_call("readme:network", theories / "network.th",
                     _load(theories / "network.th")[1], ["r"], "strong", "--emit", "fixpoint"),
        _condition_call("readme:wsc", None, "(fdd -> (~ld | pa)) -> pa", ["ld", "fdd"], True),
        _condition_call("readme:snc", theories / "pressure_rules.th", "T", ["lp", "mp"], False),
        Call("readme:check-equiv", None, lambda: _run_cli(["check-equiv", left, right]),
             lambda r: _equiv_verdict(r, parse_formula(left), parse_formula(right)), _show_cli),
    ]
    width = variables = nodes = problems = 0
    for path in sorted(theories.glob("*.th")):
        sig, th = _load(path)
        symbols = sorted(sig.symbols) or ["p"]
        calls += [
            _forget_call(f"{path.stem}:{sym}:{mode}", path, th, [sym], mode)
            for sym in symbols
            for mode in ("strong", "weak")
        ]
        width = max(width, _ground_atoms(sig.relations, len(sig.prop_vars)))
        variables = max(variables, len(symbols))
        nodes += node_count(th.as_formula)
        problems += 1

    workdir = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
    for i, (th, rels) in enumerate(gen.clause_theories(seed, CLAUSE_THEORIES)):
        path = Path(workdir.name) / f"clauses{i}.th"
        path.write_text(gen.theory_text(th, rels), encoding="utf-8")
        calls += [
            _forget_call(f"clauses{i}:{mode}", path, th, [gen.ELIMINATED], mode)
            for mode in ("strong", "weak")
        ]
        width = max(width, _ground_atoms(rels, 0))
        variables = max(variables, len(rels))
        nodes += node_count(th.as_formula)
        problems += 1

    stats = {"problems": problems, "calls": len(calls), "variables": variables, "input_nodes": nodes}
    return Workload(calls, set(range(width + 1)), stats, workdir)


WORKLOADS = {"prop_random": prop_random, "prop_rules": prop_rules, "fo_cli": fo_cli}
