"""The benchmark's tracer can still rebind the package's entry points.

``perfbench/spans.py`` wraps functions in the modules that call them, so
a name kept in a module only for the tracer (``exact.edges``,
``colorings.edges``, ``check_t1_condition`` in ``bounds`` and
``colorings``) must not be deleted, and a call that bypasses a rebound
name leaves its span, and the metric read from it, at 0. This test runs
real commands with the tracer installed; it loads ``spans.py`` from its
file and changes nothing under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from distcolor import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_spans(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    # builds the cached parser before the handlers are rebound
    assert cli.main(["bounds", "-n", "5", "-r", "3", "-s", "2"]) == 0
    commands = [
        ["exact", "chi", "-n", "5", "-r", "3", "-s", "2"],
        ["color", "--method", "sum", "-n", "5", "-r", "3"],
        ["bounds", "-n", "9", "-r", "3", "-s", "2"],
        ["circles", "-p", "7"],
        ["color", "--method", "theorem1", "-n", "9"],
    ]
    with tracer.installed():
        for argv in commands:
            assert tracer.command(argv) == 0, argv
    capsys.readouterr()
    names = {span.name for span in tracer.spans}
    for name in (
        "cli.main",
        "cli.cmd_exact",
        "cli.cmd_color",
        "cli.cmd_bounds",
        "exact.from_graph_spec",
        "exact.exact_chromatic_number",
        "colorings.color_sum",
        "bounds.aggregate",
        # colorings.circles_s and construct_s read these three
        "colorings.circle_graph",
        "colorings.bipartition_circles",
        "colorings.color_theorem1",
    ):
        assert name in names, name
    assert {span.cmd for span in tracer.spans} == {0, 1, 2, 3, 4}
