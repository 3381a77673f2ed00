"""Run one workload of the distcolor benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a fixed list of real ``distcolor`` commands (see
``workloads.py``), run in process through ``distcolor.cli.main`` by one
client, one command after the other, each output checked. Passes over
the list repeat while another one, as long as the longest so far, would
end within ``--seconds`` of the start of the process, set-up included;
there is always at least one.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_s``: the command list's time with outputs checked, summed over
  the commands from each command's median across passes;
- ``slowest_cmd_s``: the largest median time of a single command;
- ``setup_s``: median, over fresh interpreters, of the time to import
  ``distcolor.cli`` and build its parser;
- ``peak_rss_mib``: the process's ``ru_maxrss``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``spans.py``), ``trace_overhead_s`` (traced minus
untraced pass time, medians) and ``calib_s`` (a fixed pure-Python loop,
so that host-speed drift is visible). Spans are written to
``.perfbench/spans-<workload>-seed<n>.jsonl``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``failed / attempted`` is the share of commands whose exit code or output
check failed. Exit status 2 means the benchmark could not run at all.
``python3 perfbench/selfcheck.py`` shows that the output checks fire.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

STARTED = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if not (SRC / "distcolor" / "cli.py").is_file():
        print(f"error: no distcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import measure, result_line, setup_seconds
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = None if args.trace else setup_seconds(SRC)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        steps = WORKLOADS[args.workload](Path(work), args.seed)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed = measure(steps, STARTED + args.seconds, bool(args.trace), spans_path)
    if setup is not None:
        metrics["setup_s"] = setup
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(result_line(metrics, declared[kind], attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
