"""Traced runs: spans around the calls into each distcolor module.

The package is not edited. While a ``Tracer`` is installed, the public
entry points in ``ENTRY_POINTS`` are rebound, in the modules that call
them, to wrappers that record one span per call: name, start, end, parent
span and command id, plus a work count and a flag taken from the call's
arguments or result. Spans stay in memory and are written out at the end
of the run. Hot helpers such as ``rank``, ``unrank``, ``is_edge``,
``neighbors`` and ``is_prime`` are never wrapped.

``distgraph.edges`` is a generator that runs interleaved with its
consumer, so its span measures only the time spent producing items: it
starts at the first item and lasts as long as the summed producer time,
and its parent's self time excludes exactly that time.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from distcolor import bounds, cli, colorings, distgraph, exact, gf, numtheory
from distcolor.distgraph import GraphSpec

LAYERS = ("numtheory", "gf", "distgraph", "colorings", "bounds", "exact", "cli")
CONSTRUCTIONS = tuple(f"colorings.color_{m}" for m in ("theorem1", "sum", "symmetric", "bose_chowla"))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a command's root span
    cmd: int
    count: int
    flag: bool


def _edges_of(args: tuple, result) -> int:
    n, r, s = args[0].n, args[0].r, args[0].s
    return math.comb(n, r) * math.comb(r, s) * math.comb(n - r, r - s) // 2


def _labels(args: tuple, result) -> int:
    return len(result.labels)


def _length(args: tuple, result) -> int:
    return len(result)


def _value(args: tuple, result) -> int:
    return 0 if isinstance(result, exact.Exhausted) else result


def _text_bytes(args: tuple, result) -> int:
    return len(args[0].encode())


def _exhausted(result) -> bool:
    return isinstance(result, exact.Exhausted)


def _violation(result) -> bool:
    return result is not None


# (defining module, function, modules whose binding is replaced, count, flag).
# A function is rebound only where its callers look it up: an internal call
# such as the alpha probe inside the chi solver stays in its caller's span,
# while gf's own bindings are replaced to split bose_chowla_set into the
# field build and the discrete-log walk.
ENTRY_POINTS: list[tuple[object, str, tuple, Callable | None, Callable | None]] = [
    (numtheory, "primes_in_class", (cli,), None, None),
    (numtheory, "check_t1_condition", (cli, colorings, bounds), None, None),
    (numtheory, "next_prime", (bounds,), None, None),
    (gf, "bose_chowla_set", (cli, colorings), None, None),
    (gf, "field_build", (gf,), None, None),
    (gf, "discrete_log_table", (gf,), _length, None),
    (distgraph, "vertices", (colorings,), _length, None),
    (colorings, "color_theorem1", (cli,), _labels, None),
    (colorings, "color_sum", (cli,), _labels, None),
    (colorings, "color_symmetric", (cli,), _labels, None),
    (colorings, "color_bose_chowla", (cli,), _labels, None),
    (colorings, "bipartition_circles", (cli, colorings), None, None),
    (colorings, "circle_graph", (cli, colorings), None, None),
    (colorings, "verify_proper", (cli,), _edges_of, _violation),
    (bounds, "aggregate", (cli,), None, None),
    (exact, "exact_chromatic_number", (cli,), _value, _exhausted),
    (exact, "exact_independence_number", (cli,), _value, _exhausted),
    (cli, "_json_text", (cli,), None, None),
    (cli, "_csv_text", (cli,), None, None),
    (cli, "_emit", (cli,), _text_bytes, None),
]


class Tracer:
    """Collects spans for one traced pass over a workload's commands."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.argv: list[list[str]] = []

    def wrap(self, name: str, fn: Callable, count=None, flag=None) -> Callable:
        spans, stack, argv = self.spans, self.stack, self.argv

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            spans.append(Span(name, start, start, parent, len(argv) - 1, 0, False))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = spans[idx]._replace(end=perf_counter())
                stack.pop()
            if count is not None or flag is not None:
                spans[idx] = spans[idx]._replace(
                    count=count(args, result) if count else 0,
                    flag=flag(result) if flag else False,
                )
            return result

        return traced

    def wrap_stream(self, name: str, fn: Callable) -> Callable:
        spans, stack, argv = self.spans, self.stack, self.argv

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            busy = 0.0
            items = 0
            start = perf_counter()
            spans.append(Span(name, start, start, parent, len(argv) - 1, 0, False))
            it = fn(*args, **kwargs)
            try:
                while True:
                    t = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += perf_counter() - t
                        break
                    busy += perf_counter() - t
                    items += 1
                    yield item
            finally:
                spans[idx] = Span(name, start, start + busy, parent, len(argv) - 1, items, False)

        return traced

    def command(self, argv: list[str]) -> int:
        """Run one CLI command under a root span."""
        self.argv.append(argv)
        return self.wrap("cli.main", cli.main)(argv)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every entry point to its traced wrapper; restore on exit."""
        saved: list[tuple[object, str, object]] = []

        def rebind(owner, attr, value) -> None:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

        try:
            for module, attr, callers, count, flag in ENTRY_POINTS:
                layer = module.__name__.rsplit(".", 1)[1]
                traced = self.wrap(f"{layer}.{attr}", getattr(module, attr), count, flag)
                for caller in callers:
                    rebind(caller, attr, traced)
            for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
                rebind(cli, attr, self.wrap(f"cli.{attr}", getattr(cli, attr)))
            edges = self.wrap_stream("distgraph.edges", distgraph.edges)
            rebind(colorings, "edges", edges)
            rebind(exact, "edges", edges)
            build = self.wrap("exact.from_graph_spec", exact.AdjacencyMatrix.from_graph_spec)
            rebind(exact.AdjacencyMatrix, "from_graph_spec", staticmethod(build))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def dump(self, fh, t0: float, label: int) -> None:
        """Append this pass's commands and spans as JSON lines, times in seconds from t0."""
        for cmd, argv in enumerate(self.argv):
            fh.write(json.dumps({"pass": label, "cmd": cmd, "argv": argv}) + "\n")
        for s in self.spans:
            fh.write(json.dumps({
                "pass": label, "cmd": s.cmd, "name": s.name, "start": s.start - t0,
                "end": s.end - t0, "parent": s.parent, "count": s.count, "flag": s.flag,
            }) + "\n")


def layer_metrics(spans: list[Span], argv: list[list[str]], cmd_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``<layer>.self_s`` is the time inside the layer's spans minus the time
    in their child spans, so the seven self times add up to the commands'
    traced wall time. The other ``_s`` metrics are inclusive times of the
    named calls, counted once when a call nests in another of the same
    group. ``cmd_wall`` is the commands' wall time measured by the caller
    around each command, outside every span.
    """
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        self_s[s.name.split(".", 1)[0]] += dur[i] - child[i]
        by_name[s.name].append(i)

    def incl(*names: str) -> float:
        group = {i for n in names for i in by_name[n]}
        return sum((dur[i] for i in group if spans[i].parent not in group), 0.0)

    def count(name: str) -> int:
        return sum(spans[i].count for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def per(total: float, n: int, scale: float = 1e6) -> float:
        return total * scale / n if n else 0.0

    roots = by_name["cli.main"]
    # the first span a command opens is its cmd_* handler, entered once
    # argparse is done; a command that fails to parse has no child span
    parse = 0.0
    for i in roots:
        first = i + 1
        parse += spans[first].start - spans[i].start if first < len(spans) and spans[first].parent == i else dur[i]
    coloring_cmds = sum(dur[i] for i in roots if argv[spans[i].cmd][0] in ("color", "verify"))

    scan_s = incl("numtheory.primes_in_class", "numtheory.check_t1_condition")
    dlog_s = incl("gf.discrete_log_table")
    edges_s = incl("distgraph.edges")
    verify_s = incl("colorings.verify_proper")
    chi = by_name["exact.exact_chromatic_number"]
    solves = chi + by_name["exact.exact_independence_number"]
    excess = 0
    for i in chi:
        if not spans[i].flag:
            n, r, s = (int(argv[spans[i].cmd][k]) for k in (3, 5, 7))
            g = exact.AdjacencyMatrix.from_graph_spec(GraphSpec(n, r, s))
            excess += exact.greedy_coloring(g) - spans[i].count
    metrics = {
        "numtheory.self_s": self_s["numtheory"],
        "numtheory.scan_s": scan_s,
        "numtheory.primes": calls("numtheory.check_t1_condition"),
        "numtheory.us_per_prime": per(scan_s, calls("numtheory.check_t1_condition")),
        "gf.self_s": self_s["gf"],
        "gf.field_build_s": incl("gf.field_build"),
        "gf.dlog_s": dlog_s,
        "gf.dlog_entries": count("gf.discrete_log_table"),
        "gf.us_per_entry": per(dlog_s, count("gf.discrete_log_table")),
        "distgraph.self_s": self_s["distgraph"],
        "distgraph.vertices_s": incl("distgraph.vertices"),
        "distgraph.vertices": count("distgraph.vertices"),
        "distgraph.edges_s": edges_s,
        "distgraph.edges": count("distgraph.edges"),
        "distgraph.us_per_edge": per(edges_s, count("distgraph.edges")),
        "colorings.self_s": self_s["colorings"],
        "colorings.construct_s": incl(*CONSTRUCTIONS),
        "colorings.labels": sum(count(name) for name in CONSTRUCTIONS),
        "colorings.circles_s": incl("colorings.bipartition_circles", "colorings.circle_graph"),
        "colorings.verify_s": verify_s,
        "colorings.verify_edges": count("colorings.verify_proper"),
        "colorings.verify_us_per_edge": per(verify_s, count("colorings.verify_proper")),
        "colorings.verify_share": verify_s / coloring_cmds if coloring_cmds else 0.0,
        "colorings.violations": sum(spans[i].flag for i in by_name["colorings.verify_proper"]),
        "bounds.self_s": self_s["bounds"],
        "bounds.aggregate_s": incl("bounds.aggregate"),
        "bounds.aggregate_calls": calls("bounds.aggregate"),
        "exact.self_s": self_s["exact"],
        "exact.adjacency_s": incl("exact.from_graph_spec"),
        "exact.chi_s": incl("exact.exact_chromatic_number"),
        "exact.alpha_s": incl("exact.exact_independence_number"),
        "exact.solves": len(solves),
        "exact.solved_frac": per(sum(not spans[i].flag for i in solves), len(solves), 1.0),
        "exact.greedy_excess": excess,
        "cli.self_s": self_s["cli"],
        "cli.serialize_s": incl("cli._json_text", "cli._csv_text", "cli._emit"),
        "cli.out_bytes": count("cli._emit"),
        "cli.parse_s": parse,
        "trace.accounted_frac": sum(self_s.values()) / cmd_wall,
    }
    return metrics
