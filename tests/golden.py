"""Golden CLI outputs: every shipped theory forgotten strongly and weakly
over each single symbol and each pair of symbols, plus the README's
``forget``/``snc``/``wsc``/``check-equiv`` commands.

``test_cli.py::test_golden_outputs`` compares a fresh run with
``golden_cli.txt`` byte for byte.  Regenerate the file only when an output
change is intended and has been checked with ``dualforget check-equiv``:

    PYTHONPATH=src python3 tests/golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.txt"

README_COMMANDS = [
    ["forget", "--mode", "strong", "--vars", "r", "--emit", "fixpoint", "theories/network.th"],
    ["wsc", "--query", "(fdd -> (~ld | pa)) -> pa", "--keep", "ld,fdd"],
    ["snc", "--theory", "theories/pressure_rules.th", "--query", "T", "--keep", "lp,mp"],
    ["check-equiv", "p | ~p", "T"],
]


def cases() -> list[list[str]]:
    from dualforget.parser import parse_theory

    out: list[list[str]] = []
    for path in sorted((ROOT / "theories").glob("*.th")):
        sig, _ = parse_theory(path.read_text(encoding="utf-8"), name=path.stem)
        symbols = sorted(sig.symbols)
        groups = [[s] for s in symbols] + [list(c) for c in itertools.combinations(symbols, 2)]
        if not groups:  # the empty theory: forgetting an absent symbol
            groups = [["p"]]
        rel = f"theories/{path.name}"
        for mode in ("strong", "weak"):
            for group in groups:
                out.append(["forget", "--mode", mode, "--vars", ",".join(group), rel])
    return out + README_COMMANDS


def _run(argv: list[str]) -> tuple[int, str, str]:
    from dualforget.cli import main

    # theory paths are written relative to the repository root
    resolved = [str(ROOT / a) if a.startswith("theories/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def render() -> str:
    """One block per command: the command, its exit code, its stdout lines
    and its stderr lines (prefixed ``! ``)."""
    blocks: list[str] = []
    for argv in cases():
        code, out, err = _run(argv)
        lines = ["$ dualforget " + " ".join(_quote(a) for a in argv), f"exit {code}"]
        lines += out.splitlines()
        lines += ["! " + line for line in err.splitlines()]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _quote(arg: str) -> str:
    return f'"{arg}"' if any(c in arg for c in " |&~>()") else arg


if __name__ == "__main__":
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
