"""Show that the benchmark's correctness gate fires.

    python3 perfbench/selfcheck.py

Runs small real commands through the same checks the workloads use, once
untouched (the check must pass) and once with a tampered certificate, a
forged violation report, a wrong expected value or a missing metric (the
check must fail). Exits 0 only when every case behaves as expected.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "distcolor" / "cli.py").is_file():
        print(f"error: no distcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from distcolor import cli
    from harness import Pass, result_line
    from workloads import (
        color_step, colex_vertices, corrupt, exact_step, verify_improper_step,
    )

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    metrics = {m["name"]: 1.0 for m in declared}

    def gate(step, tamper=None) -> str | None:
        """The step's check failure, after an optional tamper of its output, or None."""
        p = Pass()
        p.run(step, cli.main if tamper is None else lambda argv: tamper(cli.main(argv)))
        return p.failures[0] if p.failures else None

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selfcheck-") as tmp:
        work = Path(tmp)
        cert = work / "sum9.json"
        color = color_step(work, "sum", 9, 3, 2, cert.name)

        def relabel(rc: int) -> int:
            # give vertex {0, 1, 3} the label of its neighbor {0, 1, 2}
            data = json.loads(cert.read_text())
            index = {v: k for k, v in enumerate(colex_vertices(9, 3))}
            data["labels"][index[(0, 1, 3)]] = data["labels"][index[(0, 1, 2)]]
            cert.write_text(json.dumps(data))
            return rc

        bad = work / "bad.json"
        cli.main(["color", "--method", "sum", "-n", "9", "-r", "3", "--out", str(cert)])
        corrupt(cert, bad, seed=0)
        improper = verify_improper_step(work, bad)
        report = work / "bad.txt"

        def forge(rc: int) -> int:
            # a report naming two vertices that are not adjacent in G(9, 3, 2)
            report.write_text("improper: (0, 1, 2) and (3, 4, 5) share color 3\n")
            return rc

        cases = [
            ("untouched certificate", True, gate(color)),
            ("tampered certificate", False, gate(color, relabel)),
            ("improper certificate rejected", True, gate(improper)),
            ("forged violation report", False, gate(improper, forge)),
            ("right expected value", True, gate(exact_step("chi", 9, 3, 2, 7))),
            ("wrong expected value", False, gate(exact_step("chi", 9, 3, 2, 8))),
        ]

    def verdict(attempted: int, failed: int) -> str | None:
        log = io.StringIO()
        with redirect_stderr(log):
            correct = result_line(metrics, declared, attempted, failed)["correct"]
        return None if correct else log.getvalue().strip() or "result marked incorrect"

    cases += [
        ("complete result", True, verdict(1, 0)),
        ("result with a failed command", False, verdict(1, 1)),
    ]
    del metrics[declared[0]["name"]]
    cases.append(("missing metric", False, verdict(1, 0)))

    ok = True
    for name, should_pass, failure in cases:
        right = (failure is None) == should_pass
        ok &= right
        print(f"{'ok' if right else 'WRONG':5} {name}: " + ("passed" if failure is None else f"failed: {failure}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
