"""dualforget benchmark: one command, three seeded workloads, every result
checked by the brute-force oracle.

Run from the repository root::

    python3 perfbench/run.py --workload prop_rules --seed 1 --seconds 30 --trace 0

One process and one thread run the workload as a closed loop: each call
starts after the previous one returned.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass instead.
The lines before it are for people: environment, input statistics, every
metric with its unit, the strong/weak cost ratio and a digest of all
printed results.  See README.md in this directory for what each number
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HOST

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A call running longer than this counts as failed; it is never dropped.
CALL_BUDGET_S = 10.0
#: Set-ups per run (this process plus fresh child processes); the median of
#: their normalised times is reported.
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Fewest rounds a measured run makes, however long a round takes.
MIN_ROUNDS = 3


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["prop_random", "prop_rules", "fo_cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up: import, input generation, warm-up


def set_up(workload: str, seed: int):
    """Import the package, build the inputs and warm up.  Returns the raw
    and the normalised set-up time, the workload and the kernel's cold-call
    time.  Probe bursts before and after give the set-up's host speed."""
    HOST.burst()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dualforget
    import workloads

    if not Path(dualforget.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"dualforget imported from {dualforget.__file__}, not from {SRC}")
    work = workloads.WORKLOADS[workload](seed, ROOT)
    cold_s = _warm_up(work)
    setup_s = time.perf_counter() - start
    HOST.burst()
    return setup_s, HOST.normalize([(start, setup_s)])[0], work, cold_s


def _warm_up(work) -> float:
    """One call at every truth-table width the checks use (the kernel builds
    its input masks on first use of a width), then the first four calls
    with their checks.  Returns the time of the first-width kernel calls."""
    from dualforget.semantics import kernel
    from dualforget.semantics._program import CircuitBuilder

    cold_s = 0.0
    for width in sorted(work.widths):
        builder = CircuitBuilder(width)
        out = builder.const(True)
        start = time.perf_counter()
        kernel.eval_table(builder, out)
        cold_s += time.perf_counter() - start
    for call in work.calls[:4]:
        call.verify(call.run())
    return cold_s


def _child_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Raw and normalised set-up time of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["raw_s"], result["setup_s"]


# ---------------------------------------------------------------------------
# Measurement


class Run:
    """Latencies and results of the passes over one workload."""

    def __init__(self, calls):
        self.calls = calls
        self.samples: list[list[tuple[float, float]]] = [[] for _ in calls]  # (start, seconds)
        self.printed: list[str] = []
        self.solved = 0
        self.nodes: list[int] = []
        self.checks: list[tuple[object, object]] = []  # (call, Checks) of the first pass
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[str] = []
        self.rounds = 0

    def fail(self, call, why: str, incorrect: bool) -> None:
        self.failed += 1
        self.incorrect += incorrect
        self.failures.append(f"{call.id}: {why}")

    def one_pass(self, verify: bool) -> None:
        """Run every call once.  With ``verify``, the first pass checks each
        result with the oracle right after the call, outside the call's
        time.  Later passes must print what the first one printed."""
        first = not self.printed
        for i, call in enumerate(self.calls):
            self.attempted += 1
            HOST.maybe_probe()
            start = time.perf_counter()
            try:
                out = call.run()
                raised = None
            except Exception as exc:  # any raise is a failed operation
                out, raised = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            self.samples[i].append((start, elapsed))
            shown = raised or call.show(out)
            if raised:
                self.fail(call, raised, True)
            elif elapsed > CALL_BUDGET_S:
                self.fail(call, f"over the {CALL_BUDGET_S:g} s budget ({elapsed:.2f} s)", False)
            if first:
                self.printed.append(shown)
                if verify and not raised:
                    self._check(call, out)
            elif shown != self.printed[i]:
                self.fail(call, "result differs from the first pass", True)

    def _check(self, call, out) -> None:
        try:
            verdict = call.verify(out)
        except Exception as exc:  # a result the checks cannot read is wrong
            self.fail(call, f"check raised {type(exc).__name__}: {exc}", True)
            return
        self.solved += verdict.solved
        if verdict.nodes is not None:
            self.nodes.append(verdict.nodes)
        if verdict.checks is not None:
            self.checks.append((call, verdict.checks))
        if verdict.error:
            self.fail(call, verdict.error, True)

    def retime_checks(self) -> None:
        """Run every check of the first pass once more."""
        for call, checks in self.checks:
            try:
                checks.retime()
            except Exception as exc:  # a verdict that changes is a wrong one
                self.fail(call, f"check raised {type(exc).__name__}: {exc}", True)

    @property
    def check_samples(self) -> list[list[tuple[float, float]]]:
        return [s for _, checks in self.checks for s in checks.samples]

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.printed).encode()).hexdigest()[:16]


def measure(work, seconds: float) -> Run:
    """Rounds until the next one would end past ``seconds`` (at least
    ``MIN_ROUNDS``).  A round is one pass over every call, then one run of
    every oracle check; the first round checks each result right after its
    call, later ones run the first round's checks again, so that every call
    and every check is timed once per round."""
    run = Run(work.calls)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if run.rounds:
            run.one_pass(verify=False)
            run.retime_checks()
        else:
            run.one_pass(verify=True)
        run.rounds += 1
        now = time.perf_counter()
        if run.rounds >= MIN_ROUNDS and 2 * now - round_start - start > seconds:
            return run


def _tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), TAIL_PERCENTILES[-1])


def _tail(values: list[float]) -> float:
    """The tail percentile of ``values`` (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(_tail_percentile(len(ordered)) / 100.0 * len(ordered))) - 1]


def _timed(calls, call_s: list[float], check_s: list[float]) -> dict[str, tuple[float, str]]:
    """The time metrics, from each call's and each check's time."""
    tail = _tail(call_s)
    return {
        "solve_per_s": (len(call_s) / sum(call_s), "1/s"),
        "solve_p50_ms": (statistics.median(call_s) * 1e3, "ms"),
        "solve_tail_ms": (tail * 1e3, "ms"),
        "strong_s": (sum(t for t, c in zip(call_s, calls) if c.family == "strong"), "s"),
        "weak_s": (sum(t for t, c in zip(call_s, calls) if c.family == "weak"), "s"),
        "verify_per_s": (len(check_s) / sum(check_s) if check_s else 0.0, "1/s"),
    }


def end_to_end(run: Run, setup_s: float, raw_setup_s: float) -> dict[str, tuple[float, str]]:
    # A call's time is the median of its rounds, each normalised to the
    # reference host speed (see hostspeed); likewise a check's.  The raw
    # medians are printed for comparison.
    med = statistics.median
    timed = _timed(run.calls, [med(HOST.normalize(s)) for s in run.samples],
                   [med(HOST.normalize(s)) for s in run.check_samples])
    raw = _timed(run.calls, [med(d for _, d in s) for s in run.samples],
                 [med(d for _, d in s) for s in run.check_samples])
    print(f"latency over {len(run.calls)} calls and {len(run.check_samples)} checks, each the median "
          f"of {run.rounds} rounds; tail = p{_tail_percentile(len(run.calls)):g}")
    print(f"host {HOST.slowdown():.3f}x slower than the reference over {len(HOST.times)} probes; "
          f"raw setup_s={raw_setup_s:.6g} " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
    geo = math.exp(statistics.fmean(math.log(n) for n in run.nodes)) if run.nodes else 0.0
    return {
        "setup_s": (setup_s, "s"),
        **timed,
        "result_nodes": (geo, "nodes"),
        "solved_share": (run.solved / len(run.calls), "ratio"),
        "ok_share": ((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(work, cold_s: float) -> tuple[Run, dict[str, tuple[float, str]]]:
    """Two untraced passes, then one traced pass and the traced checks.  The
    traced solve time over that of the second untraced pass (the first
    warms up every call), minus one, is the tracing overhead; both times
    are normalised."""
    import tracing

    base = Run(work.calls)
    for _ in range(2):
        base.one_pass(verify=False)
    tracer = tracing.Tracer()
    tracer.install()
    run = Run(work.calls)
    run.one_pass(verify=True)
    run.retime_checks()
    base_s, traced_s = (sum(sum(HOST.normalize(s[-1:])) for s in r.samples) for r in (base, run))
    return run, tracer.metrics(cold_s, traced_s / base_s - 1.0)


# ---------------------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "dualforget" / "__init__.py").is_file() or not (ROOT / "theories").is_dir():
        print(f"perfbench: no dualforget sources or theories under {ROOT}", file=sys.stderr)
        return 2
    if args.setup_only:
        raw_s, setup_s, work, _ = set_up(args.workload, args.seed)
        work.close()
        print(json.dumps({"setup_s": setup_s, "raw_s": raw_s}))
        return 0

    raw_s, setup_s, work, cold_s = set_up(args.workload, args.seed)
    try:
        from dualforget.semantics import BACKEND

        print(f"env python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
              f"backend={BACKEND} git={_git_sha()} workload={args.workload} seed={args.seed}")
        print("inputs " + " ".join(f"{k}={v}" for k, v in work.stats.items()))
        if args.trace:
            run, metrics = traced(work, cold_s)
        else:
            setups = [(raw_s, setup_s)] + [_child_setup_s(args.workload, args.seed)
                                           for _ in range(SETUP_REPEATS - 1)]
            print("set-up times " + " ".join(f"{n:.3f} (raw {r:.3f})" for r, n in setups) + " s")
            run = measure(work, args.seconds)
            metrics = end_to_end(run, statistics.median(n for _, n in setups),
                                 statistics.median(r for r, _ in setups))
    finally:
        work.close()

    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.6g} {unit}")
    if not args.trace:
        strong, weak = metrics["strong_s"][0], metrics["weak_s"][0]
        ratio = f"{strong / weak:.2f}" if weak else "n/a"
        print(f"cost claim strong_s/weak_s = {ratio} (strong_s {strong:.4f} s, weak_s {weak:.4f} s)")
    print(f"digest {run.digest()}")
    result = {
        "correct": run.incorrect == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
