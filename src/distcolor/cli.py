"""Command-line interface producing reproducible JSON/CSV artifacts.

Commands: color, verify, bounds, exact, scan-condition, bhset, circles,
table. Output is byte-identical across runs for identical inputs: no
randomness, no timestamps, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections.abc import Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

from . import errors
from .bounds import BoundsReport, aggregate
from .colorings import (
    Coloring,
    Method,
    best_construction,
    bipartition_circles,
    circle_graph,
    color_bose_chowla,
    color_sum,
    color_symmetric,
    color_theorem1,
    verify_proper,
)
from .distgraph import GraphSpec, canonical, capped_vertex_count
from .errors import BadInput, Error, TooLarge
from .exact import ALPHA_MAX_VERTICES, Exhausted, SolveLimits
from .exact import exact_chromatic_number, exact_independence_number
from .gf import bose_chowla_set
# primes_in_class is unused here; perfbench/spans.py rebinds it when it traces a run.
from .numtheory import check_t1_condition, orders_of_two, primes_in_class

EXIT_IMPROPER = 3

# one distinct exit code per error class (0 success, 2 usage, 3 improper; 12, 13 retired)
ERROR_EXIT_CODES: dict[type, int] = {
    errors.UnsupportedN: 4,
    errors.NotPrime: 5,
    errors.InvalidPrime: 6,
    errors.TooLarge: 7,
    errors.OddCycle: 8,
    errors.BadInput: 9,
    errors.OutOfRange: 10,
    errors.OutOfValidity: 11,
    errors.IncompleteColoring: 14,
    errors.InternalContradiction: 15,
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, byte for byte.

    With ``indent`` set, CPython skips its C encoder and sends every value
    through the pure-Python generators, one per label of a certificate.
    Here containers are written recursively: a list or tuple is joined in
    blocks (of the reprs, when all its items are exact ints) and strings go
    through the C string escaper.
    Anything else (a float, an empty container, a dict with non-string
    keys) goes to ``json.dumps`` and is re-indented to its depth. Every
    JSON artifact of the CLI is written here.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    """obj as indented JSON; ``newline`` is a line break and the indent of obj's line."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is bool or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    inner = newline + "  "
    # json.dumps writes a tuple as an array
    if (kind is list or kind is tuple) and obj:
        if set(map(type, obj)) == {int}:
            items = map(int.__repr__, obj)
        else:
            items = (_json_value(x, inner) for x in obj)
        sep = "," + inner
        # no name holds the body, so each concatenation frees the text before it
        return "[" + inner + (_joined(sep, items) if len(obj) > _BLOCK else sep.join(items)) + newline + "]"
    if kind is dict and obj and set(map(type, obj)) == {str}:
        items = (f"{encode_basestring_ascii(k)}: {_json_value(obj[k], inner)}" for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # JSON text holds no raw line breaks inside strings, so this only re-indents
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


# items per block of _joined: never a string per item of a whole artifact at once
_BLOCK = 4096


def _joined(sep: str, items: Iterator[str]) -> str:
    """``sep.join(items)``, joined a block of _BLOCK items at a time and then over the blocks."""
    blocks = []
    while block := list(islice(items, _BLOCK)):
        blocks.append(sep.join(block))
    return sep.join(blocks)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _certificate(coloring: Coloring, proper: bool) -> dict:
    return {
        "n": coloring.spec.n,
        "r": coloring.spec.r,
        "s": coloring.spec.s,
        "method": coloring.method.value,
        "palette_bound": coloring.palette_bound,
        "colors_used": coloring.colors_used,
        "proper": proper,
        "labels": coloring.labels,
    }


def _build_coloring(method: str, n: int, r: int | None, s: int | None) -> Coloring:
    if method == "theorem1":
        if (r is not None and r != 3) or (s is not None and s != 2):
            raise BadInput("method theorem1 colors G(n, 3, 2); leave -r/-s unset or use 3/2")
        return color_theorem1(n)
    if method == "sum":
        if r is None:
            raise BadInput("method sum needs -r")
        if s is not None and s != r - 1:
            raise BadInput("method sum colors G(n, r, r-1); leave -s unset or use r-1")
        return color_sum(n, r)
    if r is None or s is None:
        raise BadInput(f"method {method} needs -r and -s")
    if method == "bose-chowla":
        return color_bose_chowla(n, r, s)
    return color_symmetric(n, r, s)


def cmd_color(args: argparse.Namespace) -> int:
    coloring = _build_coloring(args.method, args.n, args.r, args.s)
    violation = verify_proper(coloring.spec, coloring)
    _emit(_json_text(_certificate(coloring, violation is None)), args.out)
    if violation is not None:
        print(
            f"improper: {violation.u} and {violation.v} share color {violation.shared_color}",
            file=sys.stderr,
        )
        return EXIT_IMPROPER
    return 0


def _read_certificate(path: str) -> Coloring:
    """Load a certificate file; malformed content raises BadInput."""
    keys = ("n", "r", "s", "method", "palette_bound", "labels")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # invalid JSON, invalid UTF-8 or nesting too deep
            raise BadInput(f"{path} is not a JSON certificate: {exc}") from None
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise BadInput(f"a certificate needs the keys {', '.join(keys)}")
    n, r, s, method, palette_bound, labels = (data[key] for key in keys)
    if any(type(x) is not int for x in (n, r, s, palette_bound)) or type(labels) is not list:
        raise BadInput("n, r, s and palette_bound must be integers and labels a list")
    try:
        method = Method(method)
    except ValueError:
        raise BadInput(f"unknown method {method!r}") from None
    return Coloring(GraphSpec(n, r, s), tuple(labels), method, palette_bound)


def cmd_verify(args: argparse.Namespace) -> int:
    coloring = _read_certificate(args.certificate)
    spec = coloring.spec
    violation = verify_proper(spec, coloring)
    if violation is not None:
        _emit(
            f"improper: {violation.u} and {violation.v} share color {violation.shared_color}\n",
            args.out,
        )
        return EXIT_IMPROPER
    _emit(
        f"proper coloring of G({spec.n}, {spec.r}, {spec.s}): "
        f"{coloring.colors_used} colors, method {coloring.method.value}\n",
        args.out,
    )
    return 0


def _report_dict(report: BoundsReport) -> dict:
    out = {
        "spec": {"n": report.spec.n, "r": report.spec.r, "s": report.spec.s},
        "lower": [{"value": b.value, "source": b.source} for b in report.lower],
        "upper": [{"value": b.value, "source": b.source} for b in report.upper],
        "best_lower": report.best_lower,
        "best_upper": report.best_upper,
    }
    if report.exact is not None:
        out["exact"] = report.exact
    return out


def cmd_bounds(args: argparse.Namespace) -> int:
    report = aggregate(args.n, args.r, args.s)
    if args.format == "text":
        g = f"G({args.n}, {args.r}, {args.s})"
        if report.exact is not None:
            _emit(f"chi({g}) = {report.exact}\n", args.out)
        else:
            _emit(f"chi({g}) in [{report.best_lower}, {report.best_upper}]\n", args.out)
        return 0
    _emit(_json_text(_report_dict(report)), args.out)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    spec = GraphSpec(args.n, args.r, args.s)
    limits = SolveLimits(args.max_nodes, args.time_budget)
    # an isomorphic spec; chi and alpha, the only things reported, agree
    spec = canonical(spec)
    if args.which == "chi":
        # from_graph_spec's refusal of an oversized graph, made before a seed is built for it
        capped_vertex_count(spec, ALPHA_MAX_VERTICES, "matrix")
        seed = best_construction(spec)
        labels = None if seed is None else seed.labels
        result = exact_chromatic_number(spec, limits, labels)
    else:
        result = exact_independence_number(spec, limits)
    payload: dict = {"which": args.which, "n": args.n, "r": args.r, "s": args.s}
    if isinstance(result, Exhausted):
        payload["exhausted"] = {"lower": result.lower, "upper": result.upper}
    else:
        payload["value"] = result
    if args.format == "text":
        name = "chi" if args.which == "chi" else "alpha"
        g = f"G({args.n}, {args.r}, {args.s})"
        if isinstance(result, Exhausted):
            upper = "?" if result.upper is None else result.upper
            _emit(f"{name}({g}) unresolved: in [{result.lower}, {upper}]\n", args.out)
        else:
            _emit(f"{name}({g}) = {result}\n", args.out)
        return 0
    _emit(_json_text(payload), args.out)
    return 0


def cmd_scan_condition(args: argparse.Namespace) -> int:
    if args.limit > 10**6:
        raise TooLarge(f"scan limit {args.limit} exceeds 10^6")
    # an odd order d means no power of 2 is -1; an even one has 2^(d/2) = -1
    rows = (
        f"{p},{p % 8},{d},true,\n" if d % 2 else f"{p},{p % 8},{d},false,{d // 2}\n"
        for p, d in orders_of_two(args.limit)
    )
    header = "p,p_mod_8,order_of_two,condition_holds,witness_r\n"
    _emit(_joined("", chain([header], rows)), args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_max > 200:
        raise TooLarge(f"table limit {args.n_max} exceeds 200")
    rows = []
    for n in range(4, args.n_max + 1):
        report = aggregate(n, 3, 2)
        sources = [b.source for b in report.lower if b.value == report.best_lower]
        sources += [
            b.source
            for b in report.upper
            if b.value == report.best_upper and b.source != "reference_eq2"
        ]
        deduped = list(dict.fromkeys(sources))
        rows.append(
            [
                n,
                report.best_lower,
                report.best_upper,
                "" if report.exact is None else report.exact,
                ";".join(deduped),
            ]
        )
    _emit(_csv_text(["n", "best_lower", "best_upper", "exact", "sources"], rows), args.out)
    return 0


def cmd_bhset(args: argparse.Namespace) -> int:
    bh = bose_chowla_set(args.q, args.degree)
    payload = {"q": bh.q, "h": bh.h, "modulus": bh.modulus, "elements": bh.elements}
    _emit(_json_text(payload), args.out)
    return 0


def cmd_circles(args: argparse.Namespace) -> int:
    if args.p > 1000:
        raise TooLarge(f"circle prime {args.p} exceeds 1000")
    condition = check_t1_condition(args.p).condition_holds
    bip = bipartition_circles(args.p) if condition else None
    graph = circle_graph(args.p) if bip is None else bip.graph
    payload = {
        "p": args.p,
        "condition_holds": condition,
        "circles": [
            {"parameter": c.parameter, "points": c.points} for c in graph.circles
        ],
        "edges": graph.edges,
        "bipartition": None if bip is None else bip.classes,
    }
    _emit(_json_text(payload), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; main dispatches on its ``command``."""
    parser = argparse.ArgumentParser(
        prog="distcolor",
        description="Colorings, bounds, and exact solvers for the distance graphs G(n, r, s).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="build a coloring and emit its certificate JSON")
    p_color.add_argument("--method", required=True, choices=[m.value for m in Method])
    p_color.add_argument("-n", type=int, required=True)
    p_color.add_argument("-r", type=int)
    p_color.add_argument("-s", type=int)
    p_color.add_argument("--out", metavar="PATH")

    p_verify = sub.add_parser("verify", help="re-verify a certificate JSON file")
    p_verify.add_argument("certificate", metavar="CERT.json")
    p_verify.add_argument("--out", metavar="PATH")

    p_bounds = sub.add_parser("bounds", help="aggregate chromatic-number bounds")
    p_bounds.add_argument("-n", type=int, required=True)
    p_bounds.add_argument("-r", type=int, required=True)
    p_bounds.add_argument("-s", type=int, required=True)
    p_bounds.add_argument("--format", choices=["json", "text"], default="json")
    p_bounds.add_argument("--out", metavar="PATH")

    p_exact = sub.add_parser("exact", help="run an exact solver")
    p_exact.add_argument("which", choices=["chi", "alpha"])
    p_exact.add_argument("-n", type=int, required=True)
    p_exact.add_argument("-r", type=int, required=True)
    p_exact.add_argument("-s", type=int, required=True)
    p_exact.add_argument("--max-nodes", type=int, default=SolveLimits.max_nodes)
    p_exact.add_argument("--time-budget", type=float, default=SolveLimits.time_budget)
    p_exact.add_argument("--format", choices=["json", "text"], default="json")
    p_exact.add_argument("--out", metavar="PATH")

    p_scan = sub.add_parser("scan-condition", help="CSV of the odd-order condition per prime")
    p_scan.add_argument("--limit", type=int, required=True)
    p_scan.add_argument("--out", metavar="PATH")

    p_table = sub.add_parser("table", help="CSV bounds table for G(n, 3, 2)")
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--out", metavar="PATH")

    p_bhset = sub.add_parser("bhset", help="emit a Bose-Chowla B_h set as JSON")
    p_bhset.add_argument("-q", type=int, required=True, help="prime base")
    p_bhset.add_argument("--degree", type=int, required=True, help="h, the sum length")
    p_bhset.add_argument("--out", metavar="PATH")

    p_circles = sub.add_parser("circles", help="dump the circle graph mod p as JSON")
    p_circles.add_argument("-p", type=int, required=True)
    p_circles.add_argument("--out", metavar="PATH")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* handler is the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT_CODES.get(type(exc), 1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
