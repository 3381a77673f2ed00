"""The benchmark's workloads: fixed `distcolor` command lists with output checks.

Every step is one real command run through ``distcolor.cli.main`` in
process. The harness compares its exit code with the expected one; the
step's check reads the captured stdout and any file the command wrote,
and returns ``None`` when the output is correct or a one-line reason when
it is not. Checks rest on oracles that do not come
from the code under test where that is cheap: the star check and the
same-label check below re-verify certificates from the label array alone,
Lovász's Kneser theorem and the chromatic index of K_n give chi values,
and residue arithmetic re-checks the prime scan.

Only the ``certify`` workload depends on the seed: it picks which
late-rank vertex of a proper G(33, 3, 2) certificate is relabeled to make
the improper one that ``verify`` must reject.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from distcolor.cli import main
from distcolor.gf import verify_bh


@dataclass(frozen=True)
class Step:
    """One command, its expected exit code and the check of what it wrote.

    ``check`` gets the command's stdout and reads any file it wrote.
    """

    argv: list[str]
    check: Callable[[str], str | None]
    rc: int = 0


# ---------------------------------------------------------------- oracles


def colex_vertices(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of range(n) in colexicographic (rank) order."""
    return sorted(combinations(range(n), r), key=lambda t: t[::-1])


def colex_rank(v: tuple[int, ...]) -> int:
    return sum(math.comb(c, j + 1) for j, c in enumerate(v))


def kneser_chi(n: int, r: int) -> int:
    """chi(G(n, r, 0)) by Lovász's theorem, 1 when no two r-sets are disjoint."""
    return max(1, n - 2 * r + 2)


def line_graph_chi(n: int) -> int:
    """chi(G(n, 2, 1)), the chromatic index of K_n: n - 1 for even n, n for odd."""
    return n - 1 if n % 2 == 0 else n


def conflict(n: int, r: int, s: int, labels: list[int]) -> tuple[int, int] | None:
    """A pair of adjacent ranks with equal labels, or None when proper.

    For s = r - 1 every edge lies in the star of vertices through its shared
    (r-1)-core, and a star is a clique, so the coloring is proper iff each
    star has distinct labels. For other s only vertices sharing a label can
    conflict, so the pairs inside each label class are tested.
    """
    verts = colex_vertices(n, r)
    if s == r - 1:
        index = {v: k for k, v in enumerate(verts)}
        for core in combinations(range(n), r - 1):
            seen: dict[int, int] = {}
            inside = set(core)
            for x in range(n):
                if x in inside:
                    continue
                k = index[tuple(sorted(core + (x,)))]
                other = seen.setdefault(labels[k], k)
                if other != k:
                    return other, k
        return None
    classes: dict[int, list[int]] = defaultdict(list)
    for k, c in enumerate(labels):
        classes[c].append(k)
    sets = [frozenset(v) for v in verts]
    for members in classes.values():
        for a, b in combinations(members, 2):
            if len(sets[a] & sets[b]) == s:
                return a, b
    return None


# ----------------------------------------------------------------- checks


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_certificate(path: Path, n: int, r: int, s: int, method: str) -> str | None:
    """A `color` certificate: right spec, proper, within its palette."""
    cert = _read_json(path)
    if (cert["n"], cert["r"], cert["s"], cert["method"]) != (n, r, s, method):
        return f"certificate is for {cert['n'], cert['r'], cert['s'], cert['method']}"
    labels = cert["labels"]
    if len(labels) != math.comb(n, r):
        return f"{len(labels)} labels for {math.comb(n, r)} vertices"
    if cert["proper"] is not True:
        return "certificate says improper"
    if cert["colors_used"] != len(set(labels)):
        return f"colors_used {cert['colors_used']} but {len(set(labels))} distinct labels"
    if not cert["colors_used"] <= cert["palette_bound"]:
        return f"colors_used {cert['colors_used']} > palette_bound {cert['palette_bound']}"
    if any(type(c) is not int or not 0 <= c < cert["palette_bound"] for c in labels):
        return "label outside the palette"
    bad = conflict(n, r, s, labels)
    if bad is not None:
        return f"ranks {bad[0]} and {bad[1]} are adjacent and share label {labels[bad[0]]}"
    return None


def color_step(work: Path, method: str, n: int, r: int, s: int, name: str) -> Step:
    out = work / name
    argv = ["color", "--method", method, "-n", str(n)]
    if method in ("bose-chowla", "symmetric"):
        argv += ["-r", str(r), "-s", str(s)]
    elif method == "sum":
        argv += ["-r", str(r)]
    argv += ["--out", str(out)]

    def check(stdout: str) -> str | None:
        return check_certificate(out, n, r, s, method)

    return Step(argv, check)


def verify_proper_step(work: Path, cert: Path) -> Step:
    out = work / (cert.stem + ".txt")

    def check(stdout: str) -> str | None:
        data = _read_json(cert)
        used = len(set(data["labels"]))
        want = (
            f"proper coloring of G({data['n']}, {data['r']}, {data['s']}): "
            f"{used} colors, method {data['method']}\n"
        )
        got = out.read_text(encoding="utf-8")
        if got != want:
            return f"verify printed {got!r}, expected {want!r}"
        if not used <= data["palette_bound"]:
            return f"{used} colors > palette_bound {data['palette_bound']}"
        return None

    return Step(["verify", str(cert), "--out", str(out)], check)


_IMPROPER = re.compile(r"improper: \(([\d, ]+)\) and \(([\d, ]+)\) share color (\d+)\n")


def verify_improper_step(work: Path, cert: Path) -> Step:
    out = work / (cert.stem + ".txt")

    def check(stdout: str) -> str | None:
        m = _IMPROPER.fullmatch(out.read_text(encoding="utf-8"))
        if m is None:
            return "no violation report"
        u = tuple(int(x) for x in m.group(1).split(","))
        v = tuple(int(x) for x in m.group(2).split(","))
        color = int(m.group(3))
        data = _read_json(cert)
        if u == v or len(u) != data["r"] or len(set(u) & set(v)) != data["s"]:
            return f"reported pair {u}, {v} is not an edge"
        labels = data["labels"]
        if labels[colex_rank(u)] != color or labels[colex_rank(v)] != color:
            return f"reported pair {u}, {v} does not share label {color} in the file"
        return None

    return Step(["verify", str(cert), "--out", str(out)], check, rc=3)


def exact_step(which: str, n: int, r: int, s: int, expected: int) -> Step:
    def check(stdout: str) -> str | None:
        got = json.loads(stdout)
        if (got["which"], got["n"], got["r"], got["s"]) != (which, n, r, s):
            return f"answer is for {got}"
        if got.get("value") != expected:
            return f"{which}(G({n}, {r}, {s})) = {got.get('value', got)}, expected {expected}"
        return None

    return Step(["exact", which, "-n", str(n), "-r", str(r), "-s", str(s)], check)


def scan_step(work: Path, limit: int, expected_rows: int) -> Step:
    out = work / "scan.csv"

    def check(stdout: str) -> str | None:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            if header != ["p", "p_mod_8", "order_of_two", "condition_holds", "witness_r"]:
                return f"header {header}"
            count, last = 0, 3
            for p_s, mod8, order_s, holds, witness in rows:
                p, order = int(p_s), int(order_s)
                if p <= last or p % 8 != int(mod8) or (p - 1) % order or pow(2, order, p) != 1:
                    return f"bad row for p = {p}"
                refuted = witness != "" and pow(2, int(witness), p) == p - 1
                if (holds == "false") != refuted:
                    return f"condition column contradicts the witness at p = {p}"
                count, last = count + 1, p
        if count != expected_rows:
            return f"{count} rows, expected {expected_rows}"
        return None

    return Step(["scan-condition", "--limit", str(limit), "--out", str(out)], check)


def bhset_step(work: Path, q: int, h: int) -> Step:
    out = work / "bhset.json"

    def check(stdout: str) -> str | None:
        got = _read_json(out)
        if (got["q"], got["h"], got["modulus"]) != (q, h, q**h - 1) or len(got["elements"]) != q:
            return f"B_h set header {got['q'], got['h'], got['modulus']}"
        if not verify_bh(got["elements"], h, got["modulus"]):
            return "two multiset sums coincide"
        return None

    return Step(["bhset", "-q", str(q), "--degree", str(h), "--out", str(out)], check)


def circles_step(work: Path, p: int) -> Step:
    out = work / "circles.json"

    def check(stdout: str) -> str | None:
        got = _read_json(out)
        edges = got["edges"]
        if got["p"] != p or len(edges) != p * (p - 1) // 2:
            return f"{len(edges)} edges, expected {p * (p - 1) // 2}"
        covered: dict[int, list[int]] = defaultdict(list)
        for c in got["circles"]:
            covered[c["parameter"]] += c["points"]
        for i in range(p):
            if sorted(covered[i]) != [x for x in range(p) if x != i]:
                return f"circles with parameter {i} do not partition Z_p minus {i}"
        classes = got["bipartition"]
        if got["condition_holds"] and any(classes[a] == classes[b] for a, b in edges):
            return "bipartition has a monochromatic edge"
        return None

    return Step(["circles", "-p", str(p), "--out", str(out)], check)


def table_step(work: Path, n_max: int) -> Step:
    out = work / "table.csv"

    def check(stdout: str) -> str | None:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) - 1 != n_max - 3:
            return f"{len(rows) - 1} rows, expected {n_max - 3}"
        for n, (n_s, lo, hi, exact, _) in enumerate(rows[1:], start=4):
            if int(n_s) != n or not int(lo) <= int(hi) or (exact and not lo == hi == exact):
                return f"bad row for n = {n}"
        return None

    return Step(["table", "--n-max", str(n_max), "--out", str(out)], check)


def bounds_step(n: int, r: int, s: int) -> Step:
    def check(stdout: str) -> str | None:
        got = json.loads(stdout)
        lo, hi = got["best_lower"], got["best_upper"]
        if got["spec"] != {"n": n, "r": r, "s": s} or not lo <= hi:
            return f"report {got['spec']} with [{lo}, {hi}]"
        if "exact" in got and not lo == hi == got["exact"]:
            return f"exact {got['exact']} outside [{lo}, {hi}]"
        known = kneser_chi(n, r) if s == 0 else line_graph_chi(n) if (r, s) == (2, 1) else None
        if known is not None and not lo <= known <= hi:
            return f"chi(G({n}, {r}, {s})) = {known} outside [{lo}, {hi}]"
        return None

    return Step(["bounds", "-n", str(n), "-r", str(r), "-s", str(s)], check)


# -------------------------------------------------------------- workloads


def _run_quiet(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def corrupt(cert: Path, dest: Path, seed: int) -> None:
    """Write a copy of a proper certificate with one late vertex relabeled.

    The seed picks the vertex among the last 64 ranks. It takes the label,
    among those on its neighbors, whose earliest holder has the highest
    rank, so the verifier's scan runs through most of the graph before the
    first violation.
    """
    data = _read_json(cert)
    n, r, s, labels = data["n"], data["r"], data["s"], data["labels"]
    verts = colex_vertices(n, r)
    k = random.Random(seed).randrange(len(verts) - 64, len(verts))
    v = set(verts[k])
    first: dict[int, int] = {}
    for j, w in enumerate(verts):
        if len(v & set(w)) == s and j != k:
            first.setdefault(labels[j], j)
    labels[k] = max(first, key=lambda c: (first[c], -c))
    data["labels"] = labels
    with open(dest, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def certify(work: Path, seed: int) -> list[Step]:
    """Colorings whose verification dominates, plus verify on two certificates."""
    proper = work / "cert33.json"
    if _run_quiet(["color", "--method", "theorem1", "-n", "33", "--out", str(proper)]) != 0:
        raise RuntimeError("could not build the n = 33 certificate")
    reason = check_certificate(proper, 33, 3, 2, "theorem1")
    if reason is not None:
        raise RuntimeError(f"n = 33 input certificate: {reason}")
    improper = work / "bad33.json"
    corrupt(proper, improper, seed)
    return [
        color_step(work, "theorem1", 49, 3, 2, "cert49.json"),
        verify_proper_step(work, proper),
        verify_improper_step(work, improper),
        color_step(work, "bose-chowla", 17, 4, 2, "bc17.json"),
        color_step(work, "symmetric", 13, 4, 2, "sym13.json"),
        color_step(work, "sum", 13, 4, 3, "sum13.json"),
    ]


def solve(work: Path, seed: int) -> list[Step]:
    """Exact chi and alpha searches on small graphs."""
    return [
        exact_step("chi", 9, 2, 1, line_graph_chi(9)),
        exact_step("chi", 11, 2, 0, kneser_chi(11, 2)),
        exact_step("chi", 9, 3, 2, 7),  # the paper's headline value
        exact_step("alpha", 9, 3, 2, 12),
        exact_step("alpha", 10, 4, 2, 12),
    ]


def tables(work: Path, seed: int) -> list[Step]:
    """Bulk number-theory and finite-field tables with large writes."""
    steps = [
        scan_step(work, 10**6, 78_496),  # primes below 10^6, less 2 and 3
        bhset_step(work, 101, 3),
        circles_step(work, 199),
        table_step(work, 200),
    ]
    for n in range(4, 60):
        for r in (2, 3, 4):
            steps += [bounds_step(n, r, s) for s in range(r)]
    return steps


WORKLOADS: dict[str, Callable[[Path, int], list[Step]]] = {
    "certify": certify,
    "solve": solve,
    "tables": tables,
}
