"""Seeded command-line fuzz: random theory files run through ``cli.main``
under ``--verify``.

Each file has ``#sig`` headers, the constant ``c``, universally closed
clause lines, and ``lfp``/``gfp`` lines whose body uses a symbol besides
the fixpoint's relation.  Each call is ``forget`` (strong or weak), ``snc``
or ``wsc`` over the file's symbols.  A call must exit 0, 1, 2 or 5: never 3
(an internal invariant breach, or a result the oracle refutes), never 4,
and it must not raise.

    PYTHONPATH=src python3 tests/fuzz_cli.py --seed 2 --calls 2000

prints how many calls ended with each exit code, and each bad call's
theory, command and stderr; it exits 1 if there was any.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import random
import re
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Optional

from dualforget import cli

#: success, bad input, a FAILED elimination, an oracle guard exceeded
ALLOWED_EXITS = frozenset((0, 1, 2, 5))

PROPS = ("p", "q")
UNARY = ("a", "r", "s")
VARS = ("x", "y")


def _literal(rng: random.Random, terms: tuple[str, ...]) -> str:
    roll = rng.random()
    if roll < 0.25:
        text = rng.choice(PROPS)
    elif roll < 0.7:
        text = f"{rng.choice(UNARY)}({rng.choice(terms)})"
    elif roll < 0.92:
        text = f"b({rng.choice(terms)}, {rng.choice(terms)})"
    else:
        text = f"{rng.choice(terms)} = {rng.choice(terms)}"
    return text if rng.random() < 0.5 else f"~{text}"


def _clause_line(rng: random.Random) -> str:
    lits = [_literal(rng, VARS + ("c",)) for _ in range(rng.randint(1, 3))]
    body = " | ".join(lits)
    used = [v for v in VARS if v in _names(body)]
    return "".join(f"all {v}. " for v in used) + (f"({body})" if used else body)


def _fixpoint_line(rng: random.Random) -> str:
    rel = rng.choice(UNARY)
    other = rng.choice([s for s in UNARY if s != rel] + list(PROPS))
    lit = f"{other}(x)" if other in UNARY else other
    if rng.random() < 0.5:
        lit = f"~{lit}"
    if rng.random() < 0.5:
        step = f"ex y. (b(x, y) & {rel}(y))"
    else:
        step = f"all y. (~b(x, y) | {rel}(y))"
    kind = rng.choice(("lfp", "gfp"))
    line = f"{kind} {rel}(x). ({lit} {rng.choice('|&')} {step}) @(c)"
    return f"~{line}" if rng.random() < 0.2 else line


def theory_text(rng: random.Random) -> str:
    """A theory file: headers, then clause and fixpoint lines in random
    order."""
    headers = ["#sig const c"]
    if rng.random() < 0.5:
        headers.append("#sig rel b/2")
    if rng.random() < 0.3:
        headers.append(f"#sig prop {rng.choice(PROPS)}")
    lines = [_clause_line(rng) for _ in range(rng.randint(1, 3))]
    lines += [_fixpoint_line(rng) for _ in range(rng.randint(1, 2))]
    rng.shuffle(lines)
    return "\n".join(headers + lines) + "\n"


def _names(text: str) -> set[str]:
    return set(re.findall(r"[a-z][a-zA-Z0-9_]*", text))


def _symbols_of(text: str) -> list[str]:
    body = _names("\n".join(line for line in text.splitlines() if not line.startswith("#")))
    return [s for s in PROPS + UNARY + ("b",) if s in body]


def command(rng: random.Random, text: str, path: str) -> list[str]:
    """One ``--verify`` command over the symbols of the theory ``text``,
    stored at ``path``."""
    symbols = _symbols_of(text)
    picked = ",".join(rng.sample(symbols, rng.randint(1, min(2, len(symbols)))))
    roll = rng.random()
    if roll < 0.7:
        mode = "strong" if roll < 0.4 else "weak"
        return ["forget", "--mode", mode, "--vars", picked, "--verify", path]
    query = _literal(rng, ("c",))
    if rng.random() < 0.5:
        query = f"{query} | {_literal(rng, ('c',))}"
    name = "snc" if roll < 0.85 else "wsc"
    return [name, "--theory", path, "--query", query, "--keep", picked, "--verify"]


def run_call(argv: list[str]) -> tuple[object, str]:
    """``cli.main(argv)``'s exit code, or ``"raise NAME"``, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code: object = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a finding, reported with its traceback
        code = f"raise {type(exc).__name__}"
        err.write(traceback.format_exc())
    return code, err.getvalue()


def fuzz(seed: int, calls: int):
    """Run ``calls`` commands from ``seed``.  Returns the count of each
    outcome and the bad calls as ``(outcome, theory text, argv, stderr)``."""
    rng = random.Random(seed)
    counts: collections.Counter = collections.Counter()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.th"
        for _ in range(calls):
            text = theory_text(rng)
            path.write_text(text, encoding="utf-8")
            argv = command(rng, text, str(path))
            code, err = run_call(argv)
            counts[code] += 1
            if code not in ALLOWED_EXITS:
                bad.append((code, text, argv, err))
    return counts, bad


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--calls", type=int, default=1000)
    args = ap.parse_args(argv)
    counts, bad = fuzz(args.seed, args.calls)
    for code, theory, call, err in bad:
        print(f"--- {code}: dualforget {' '.join(call)}")
        print(theory + err, end="" if err.endswith("\n") else "\n")
    for code in sorted(counts, key=str):
        print(f"exit {code}: {counts[code]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
