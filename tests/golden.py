"""Golden CLI outputs: every shipped theory forgotten strongly and weakly
over each single symbol and each pair of symbols, the README's
``forget``/``snc``/``wsc``/``check-equiv`` commands, and six ``--trace``
runs whose step lists (on stderr) take every rule of ``TRACE_RULES``.

``test_cli.py::test_golden_outputs`` compares a fresh run with
``golden_cli.txt`` byte for byte.  Regenerate the file only when an output
change is intended and has been checked:

    PYTHONPATH=src python3 tests/golden.py --check   # report, write nothing
    PYTHONPATH=src python3 tests/golden.py           # rewrite the file

``--check`` renders every command again and prints each block whose output
differs from the file.  For a changed ``forget``, ``snc`` or ``wsc`` block
that succeeds both times with one output line and no trace, it prints the
old and the new line and runs ``dualforget check-equiv OLD NEW``
(first-order formulas on domains up to its default size, 2); for any other
changed block it prints a unified diff of the old and the new lines.  It
exits 1 when any changed block is not
equivalent or cannot be checked (another command, an exit code or stderr
that changed), else 0.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.txt"

README_COMMANDS = [
    ["forget", "--mode", "strong", "--vars", "r", "--emit", "fixpoint", "theories/network.th"],
    ["wsc", "--query", "(fdd -> (~ld | pa)) -> pa", "--keep", "ld,fdd"],
    ["snc", "--theory", "theories/pressure_rules.th", "--query", "T", "--keep", "lp,mp"],
    ["check-equiv", "p | ~p", "T"],
]

# shipped theories need no expansion: the two queries take the Shannon rules
_SHANNON_QUERY = "(p <-> a) & b & c & d | e & g & h & i & j | k & l & m"
TRACE_COMMANDS = [
    ["forget", "--mode", "weak", "--vars", "lt", "--trace", "theories/maintain.th"],
    ["forget", "--mode", "strong", "--vars", "sp", "--trace", "theories/consultant.th"],
    ["forget", "--mode", "weak", "--vars", "ex", "--trace", "theories/network.th"],
    ["forget", "--mode", "strong", "--vars", "r", "--trace", "theories/network.th"],
    ["snc", "--query", _SHANNON_QUERY, "--keep", "a,b,c,d,e,g,h,i,j,k,l,m", "--trace"],
    ["wsc", "--query", _SHANNON_QUERY, "--keep", "a,b,c,d,e,g,h,i,j,k,l,m", "--trace"],
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
    return out + README_COMMANDS + TRACE_COMMANDS


def _run(argv: list[str]) -> tuple[int, str, str]:
    from dualforget.cli import main

    # theory paths are written relative to the repository root
    resolved = [str(ROOT / a) if a.startswith("theories/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def _block(argv: list[str]) -> str:
    code, out, err = _run(argv)
    lines = ["$ dualforget " + " ".join(_quote(a) for a in argv), f"exit {code}"]
    lines += out.splitlines()
    lines += ["! " + line for line in err.splitlines()]
    return "\n".join(lines) + "\n"


def render() -> str:
    """One block per command: the command, its exit code, its stdout lines
    and its stderr lines (prefixed ``! ``)."""
    return "\n".join(_block(argv) for argv in cases())


def _quote(arg: str) -> str:
    return f'"{arg}"' if any(c in arg for c in " |&~>()") else arg


def _split(text: str) -> dict[str, list[str]]:
    """Blocks of a rendered file by their ``$ dualforget ...`` line; each is
    the exit line, then the output lines."""
    blocks: dict[str, list[str]] = {}
    for chunk in ("\n" + text).split("\n$ ")[1:]:
        head, *body = chunk.rstrip("\n").split("\n")
        blocks["$ " + head] = body
    return blocks


def check() -> int:
    """Compare a fresh render with the file; see the module docstring."""
    old = _split(GOLDEN.read_text(encoding="utf-8"))
    new = _split(render())
    changed = equivalent = 0
    for head in list(new) + [h for h in old if h not in new]:
        before, after = old.get(head), new.get(head)
        if before == after:
            continue
        changed += 1
        print(head)
        comparable = (
            head.startswith(("$ dualforget forget ", "$ dualforget snc ", "$ dualforget wsc "))
            and before is not None and after is not None
            and len(before) == len(after) == 2
            and before[0] == after[0] == "exit 0"
        )
        if not comparable:
            diff = difflib.unified_diff(before or [], after or [], "old", "new", lineterm="")
            print("\n".join("  " + line for line in diff))
            print("  check-equiv: not run (not a changed formula of a successful forget, snc or wsc)")
            continue
        print(f"  old: exit 0 / {before[1]}")
        print(f"  new: exit 0 / {after[1]}")
        code, out, _ = _run(["check-equiv", before[1], after[1]])
        verdict = "equivalent" if code == 0 else f"NOT equivalent, exit {code} {out.strip()}"
        print(f"  check-equiv: {verdict}")
        equivalent += code == 0
    print(f"{changed} blocks changed, {equivalent} checked equivalent")
    return 0 if equivalent == changed else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    GOLDEN.write_text(render(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
