"""Measurement loop of the distcolor benchmark: passes, checks, metrics."""

from __future__ import annotations

import io
import math
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from distcolor import cli
from spans import Tracer, layer_metrics
from workloads import Step

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import distcolor.cli\n"
    "distcolor.cli._build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds(src: Path) -> float:
    """Median time to import the CLI and build its parser, in fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(child.stdout))
    return median(times)


def calibrate() -> float:
    """Time a fixed pure-Python loop that touches none of the package."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) & 0xFFFF
    return perf_counter() - start


class Pass:
    """Per-command times and failures of one pass over a workload."""

    def __init__(self) -> None:
        self.cmd_s: list[float] = []
        self.step_s: list[float] = []
        self.failures: list[str] = []

    def run(self, step: Step, call) -> None:
        """Run one step through ``call(argv)`` and check its outcome."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = call(step.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = 1
                err.write(traceback.format_exc())
        done = perf_counter()
        if rc != step.rc:
            reason = f"exit {rc}, expected {step.rc}: {err.getvalue().strip()}"
        else:
            try:
                reason = step.check(out.getvalue())
            except Exception as exc:
                reason = f"check raised {exc!r}"
        self.cmd_s.append(done - start)
        self.step_s.append(perf_counter() - start)
        if reason is not None:
            self.failures.append(f"{' '.join(step.argv)}: {reason}")


def result_line(computed: dict[str, float], declared: list[dict], attempted: int, failed: int) -> dict:
    """The result object; incorrect when any declared metric is missing or extra or not finite."""
    names = [m["name"] for m in declared]
    problems = sorted(set(names) ^ set(computed))
    problems += [n for n in names if n in computed and not math.isfinite(computed[n])]
    for name in problems:
        print(f"metric {name} is missing, undeclared or not finite", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in computed
        },
    }


def measure(steps: list[Step], deadline: float, trace: bool, spans_path: Path) -> tuple[dict[str, float], int, int]:
    """Run passes over the steps until ``deadline``; return metrics, attempted, failed.

    Another pass starts only when it would end by ``deadline`` (a
    ``perf_counter`` value) even if it took as long as the longest pass so
    far; the first always runs. With tracing, each step also runs traced, right before or
    right after its untraced run, so that both see the same host speed; the
    order alternates, so that the traced run is not always the second,
    warmer one.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []

    def run_traced(step: Step) -> None:
        with tracer.installed():
            traced[-1].run(step, tracer.command)

    start = perf_counter()
    with open(spans_path, "w", encoding="utf-8") if trace else io.StringIO() as sink:
        longest = 0.0
        while True:
            pass_start = perf_counter()
            plain.append(Pass())
            if trace:
                tracer = Tracer()
                traced.append(Pass())
            for i, step in enumerate(steps):
                traced_first = trace and (i + len(plain)) % 2 == 0
                if traced_first:
                    run_traced(step)
                plain[-1].run(step, cli.main)
                if trace and not traced_first:
                    run_traced(step)
            if trace:
                tracer.dump(sink, start, len(traced))
                layers.append(layer_metrics(tracer.spans, tracer.argv, sum(traced[-1].cmd_s)))
            now = perf_counter()
            longest = max(longest, now - pass_start)
            print(f"pass {len(plain)}: {now - pass_start:.2f} s", file=sys.stderr)
            if now + longest > deadline:
                break
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    attempted = sum(len(p.cmd_s) for p in passes)

    def wall(ps: list[Pass]) -> float:
        return sum(median(times) for times in zip(*(p.step_s for p in ps)))

    if trace:
        metrics = {name: median(m[name] for m in layers) for name in layers[0]}
        metrics["trace_overhead_s"] = wall(traced) - wall(plain)
        metrics["calib_s"] = calibrate()
    else:
        metrics = {
            "wall_s": wall(plain),
            "slowest_cmd_s": max(median(times) for times in zip(*(p.cmd_s for p in plain))),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return metrics, attempted, len(failures)
