"""Cross-cutting invariants: oracle self-consistency and deeper soundness
spot checks at domain size 3."""

import ast
import importlib
import inspect
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import load_theory
from gen import prop_formula
from dualforget import fo, prop, semantics
from dualforget.errors import LogicError
from dualforget.outcome import Status
from dualforget.printer import format_formula
from dualforget.semantics import (
    FiniteInterpretation,
    counterexample,
    equiv_fo_finite,
    equiv_prop,
    eval_fo,
    eval_prop,
    eval_so,
    implies_prop,
    taut_prop,
    truth_table,
)
from dualforget.semantics import kernel
from dualforget.semantics._program import CircuitBuilder
from dualforget.syntax import (
    TOP,
    Atom,
    Const,
    Exists2,
    Not,
    PropVar,
    Signature,
    Var,
    all_names,
    conj,
    exists2,
    free_ind_vars,
    free_symbols,
    is_closed,
    is_propositional,
    polarity,
    prop_symbols,
    rel_symbols,
    signature_of,
)
from dualforget.transform import nnf, simplify, subst_terms, substitute_prop, substitute_rel


def test_eval_prop_agrees_with_eval_fo_on_prop_formulas():
    rng = random.Random(71)
    for _ in range(100):
        f = prop_formula(rng)
        vocab = sorted(prop_symbols(f))
        for v in range(1 << len(vocab)):
            val = {name: bool((v >> i) & 1) for i, name in enumerate(vocab)}
            m = FiniteInterpretation(1, {}, {}, dict(val))
            assert eval_prop(f, val) == eval_fo(f, m)


def test_strong_forgetting_two_symbols_sound():
    _, th = load_theory("symptoms.th")
    out = fo.forget_strong(th, ["t", "h"])
    assert out.ok
    quantified = exists2(["t", "h"], th.as_formula)
    for dom in (1, 2):
        assert equiv_fo_finite(out.result, quantified, max_domain=dom)


def test_symptoms_sound_at_domain_three():
    _, th = load_theory("symptoms.th")
    out = fo.forget_strong(th, ["t"])
    assert equiv_fo_finite(out.result, Exists2("t", th.as_formula), max_domain=3)


def test_fixpoint_matches_so_enumeration_at_domain_three():
    # sampled domain-3 interpretations: evaluating the fixpoint result must
    # agree with enumerating all 2**9 extensions of the forgotten relation
    _, th = load_theory("network.th")
    out = fo.forget_strong(th, ["r"])
    assert out.status is Status.FIXPOINT
    quantified = Exists2("r", th.as_formula)
    rng = random.Random(73)
    d = 3
    pairs = [(a, b) for a in range(d) for b in range(d)]
    for _ in range(12):
        con = frozenset(t for t in pairs if rng.random() < 0.3)
        ex_ = frozenset((a,) for a in range(d) if rng.random() < 0.4)
        in_ = frozenset((a,) for a in range(d) if rng.random() < 0.4)
        sec = frozenset((a,) for a in range(d) if rng.random() < 0.4)
        m = FiniteInterpretation(d, {}, {"con": con, "ex": ex_, "in": in_, "sec": sec})
        assert eval_fo(out.result, m) == eval_so(quantified, m)


# Every public entry point that walks a formula recursively turns a formula
# nested past the recursion limit into LogicError, never RecursionError.
_DEEP_ENTRY_POINTS = {
    "simplify": simplify,
    "nnf": nnf,
    "substitute_prop": lambda f: substitute_prop(f, "p", TOP),
    "substitute_rel": lambda f: substitute_rel(f, "p", (), TOP),
    "subst_terms": lambda f: subst_terms(f, {"x": Const("a")}),
    "format_formula": format_formula,
    "taut_prop": taut_prop,
    "equiv_prop": lambda f: equiv_prop(f, PropVar("p")),
    "implies_prop": lambda f: implies_prop(f, PropVar("p")),
    "truth_table": lambda f: truth_table(f, ["p"]),
    "counterexample": lambda f: counterexample(f, PropVar("p"), max_domain=1),
    "eval_prop": lambda f: eval_prop(f, {"p": True}),
    "eval_fo": lambda f: eval_fo(f, FiniteInterpretation(1, {}, {}, {"p": True})),
    "eval_so": lambda f: eval_so(f, FiniteInterpretation(1, {}, {}, {"p": True})),
    "fixpoint_eliminate": lambda f: fo.fixpoint_eliminate("p", f),
    "polarity": lambda f: polarity(f, "p"),
}


@pytest.mark.parametrize("entry", sorted(_DEEP_ENTRY_POINTS))
def test_deep_nesting_raises_logic_error(entry):
    deep = PropVar("p")
    for _ in range(3000):
        deep = Not(deep)
    with pytest.raises(LogicError, match="nested too deeply"):
        _DEEP_ENTRY_POINTS[entry](deep)


# The readers of the one vocabulary walk, which keeps its own stack, answer
# at any depth.
_DEEP_ANSWERS = {
    "free_symbols": (free_symbols, {"p": 0, "r": 2}),
    "prop_symbols": (prop_symbols, {"p"}),
    "rel_symbols": (rel_symbols, {"r": 2}),
    "signature_of": (signature_of, Signature(frozenset({"p"}), {"r": 2}, frozenset({"c"}))),
    "free_ind_vars": (free_ind_vars, {"x"}),
    "is_closed": (is_closed, False),
    "all_names": (all_names, {"p", "r", "x", "c"}),
    "is_propositional": (is_propositional, False),
}


@pytest.mark.parametrize("entry", sorted(_DEEP_ANSWERS))
def test_deep_nesting_answers(entry):
    deep = PropVar("p") & Atom("r", (Var("x"), Const("c")))
    for _ in range(3000):
        deep = Not(deep)
    reader, answer = _DEEP_ANSWERS[entry]
    assert reader(deep) == answer


def test_readme_names_the_deep_entry_points():
    # README lists what raises on a deep formula, and which readers answer
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    raising = re.search(r"recursion limit makes(.*?)raise", text, re.S)[1]
    engines = {"forget_strong", "forget_weak", "snc", "wsc"}
    assert set(re.findall(r"`(\w+)`", raising)) == set(_DEEP_ENTRY_POINTS) | engines
    readers = re.search(r"One walk, `syntax._vocabulary`,(.*?)all read it", text, re.S)[1]
    assert set(_DEEP_ANSWERS) <= set(re.findall(r"`(\w+)`", readers))


def test_benchmark_tracer_targets_are_module_level_names(monkeypatch):
    # perfbench/tracing.py replaces each listed function by name in each
    # listed module, so every one must stay a module-level name there
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    for _layer, name, namespaces in tracing._PATCHES:
        for ns in namespaces:
            assert callable(vars(ns).get(name)), f"{ns.__name__}.{name}"


def test_benchmark_tracer_reads_the_fixpoint_flag_by_position():
    # tracing._fo_attempt_layer reads allow_r_in_def as args[3] when it is
    # passed by position
    assert list(inspect.signature(fo._attempt).parameters)[3] == "allow_r_in_def"


def test_package_modules_read_every_name_they_import(monkeypatch):
    # as the tests must; the __init__ files re-export what they import, and
    # prop keeps the names perfbench/tracing.py wraps in its namespace
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    wrapped_in_prop = {name for _, name, namespaces in tracing._PATCHES if prop in namespaces}
    package = Path(fo.__file__).parent
    unread = {}
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unread_imports(path)
        if path == Path(prop.__file__):
            unused -= wrapped_in_prop
        if unused:
            unread[str(path.relative_to(package))] = sorted(unused)
    assert not unread


def test_benchmark_circuit_interface(monkeypatch):
    # perfbench/run.py warms the kernel up by evaluating
    # CircuitBuilder(w).const(True) at each width, and the tracer counts
    # len(builder) gates over builder.n_vars inputs for every circuit the
    # kernel evaluates, the oracles' included
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    assert run._warm_up(SimpleNamespace(widths={0, 3, 12}, calls=[])) >= 0
    tracer = tracing.Tracer()
    for width in (0, 3, 12):
        builder = CircuitBuilder(width)
        assert kernel.eval_table(builder, builder.const(True)) == (1 << (1 << width)) - 1
        tracer._count_circuit(builder)
    assert (tracer.gates, tracer.max_vars, tracer.bitops) == (3, 12, 1 + 8 + 4096)
    seen = []
    eval_table = kernel.eval_table
    monkeypatch.setattr(kernel, "eval_table", lambda b, out: seen.append(b) or eval_table(b, out))
    f = conj([PropVar(f"v{i:02}") for i in range(kernel.FREE_FROM_VARS)])
    assert equiv_prop(f, Not(Not(f)))
    tracer._count_circuit(seen.pop())
    assert tracer.max_vars == 12 and tracer.gates > 3


def test_fo_imports_nothing_from_prop():
    # the elimination rules live in fo and prop wraps them, never the reverse
    tree = ast.parse(Path(fo.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        assert all(n.split(".")[-1] != "prop" for n in names), ast.dump(node)


def test_semantics_imports_nothing_from_engines():
    # the oracle checks the engines, so it must not share their code
    for path in sorted(Path(semantics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            parts = {part for n in names for part in n.split(".")}
            assert not parts & {"prop", "fo", "transform"}, f"{path.name}: {ast.dump(node)}"


def _unread_imports(path: Path) -> set[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def test_test_modules_read_every_name_they_import():
    # an import that a test module never reads is dead weight, and hides
    # which parts of the package the module really exercises
    unread = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        unused = _unread_imports(path)
        if unused:
            unread[path.name] = sorted(unused)
    assert not unread
