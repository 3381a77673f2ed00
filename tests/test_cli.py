"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcolor import cli, exact
from distcolor.cli import main
from distcolor.distgraph import GraphSpec, vertex_count, vertices
from distcolor.gf import verify_bh
from distcolor.numtheory import check_t1_condition, orders_of_two
from test_star_check import reference_first_star_conflict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_theorem1_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "color", "--method", "theorem1", "-n", "9", "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["n"] == 9 and data["r"] == 3 and data["s"] == 2
    assert data["method"] == "theorem1"
    assert data["proper"] is True
    assert data["palette_bound"] == 7 and data["colors_used"] <= 7
    assert len(data["labels"]) == vertex_count(GraphSpec(9, 3, 2))
    # round trip: an independent verify invocation accepts the file
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("proper coloring of G(9, 3, 2)")


def test_color_sum(capsys):
    code, out, _ = run(capsys, "color", "--method", "sum", "-n", "5", "-r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["proper"] is True and data["palette_bound"] == 5


def test_color_other_methods(capsys):
    code, out, _ = run(capsys, "color", "--method", "bose-chowla", "-n", "5", "-r", "3", "-s", "1")
    assert code == 0 and json.loads(out)["proper"] is True
    code, out, _ = run(capsys, "color", "--method", "symmetric", "-n", "5", "-r", "3", "-s", "1")
    assert code == 0 and json.loads(out)["proper"] is True


def test_color_unsupported_n_exit_code(capsys):
    code, out, err = run(capsys, "color", "--method", "theorem1", "-n", "7")
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "sum", "-n", "5"], "method sum needs -r"),
        (["--method", "bose-chowla", "-n", "5", "-r", "3"], "method bose-chowla needs -r and -s"),
    ],
)
def test_color_missing_parameters_exit_code(capsys, argv, message):
    code, out, err = run(capsys, "color", *argv)
    assert (code, out, err) == (9, "", f"error: {message}\n")


def test_color_not_prime_exit_code(capsys):
    code, _, _ = run(capsys, "color", "--method", "symmetric", "-n", "6", "-r", "3", "-s", "1")
    assert code == 5


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    run(capsys, "color", "--method", "sum", "-n", "5", "-r", "3", "--out", str(path))
    data = json.loads(path.read_text())
    data["labels"][0] = data["labels"][1]  # ranks 0 and 1 are adjacent
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert out.startswith("improper")


def test_verify_huge_palette_certificate(capsys, tmp_path):
    # labels near 10^30 make every star-check key a many-digit int
    big = 10**30
    spec = GraphSpec(5, 2, 1)
    labels = [big + sum(v) % 5 for v in vertices(spec)]
    cert = {"n": 5, "r": 2, "s": 1, "method": "sum", "palette_bound": big + 5, "labels": labels}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, "verify", str(path)) == (0, "proper coloring of G(5, 2, 1): 5 colors, method sum\n", "")
    labels[7] = labels[2]  # (1, 4) takes the label of its neighbor (1, 2)
    path.write_text(json.dumps(dict(cert, labels=labels)))
    code, out, err = run(capsys, "verify", str(path))
    u, v = reference_first_star_conflict(spec, tuple(labels))
    want = f"improper: {vertices(spec)[u]} and {vertices(spec)[v]} share color {labels[u]}\n"
    assert (code, out, err) == (3, want, "")


def test_color_improper_construction_exits_3(capsys, monkeypatch):
    # a construction gone wrong is reported, not trusted: the certificate
    # says so and the first monochromatic edge goes to stderr
    sum_coloring = cli.color_sum

    def constant(n, r):
        coloring = sum_coloring(n, r)
        return replace(coloring, labels=(0,) * len(coloring.labels))

    monkeypatch.setattr(cli, "color_sum", constant)
    code, out, err = run(capsys, "color", "--method", "sum", "-n", "5", "-r", "3")
    assert code == 3
    assert json.loads(out)["proper"] is False
    assert err == "improper: (0, 1, 2) and (0, 1, 3) share color 0\n"


CERT = {"n": 4, "r": 2, "s": 1, "method": "sum", "palette_bound": 4, "labels": [0, 1, 2, 2, 3, 0]}


MALFORMED = {
    "invalid-json": '{"n": 4,',
    **{f"missing-{key}": json.dumps({k: v for k, v in CERT.items() if k != key}) for key in CERT},
    "unknown-method": json.dumps({**CERT, "method": "greedy"}),
    "float-n": json.dumps({**CERT, "n": 4.0}),
    "boolean-labels": json.dumps({**CERT, "labels": [True] * 6}),
    "not-an-object": json.dumps([CERT]),
    # json.load raises RecursionError, not ValueError, past its nesting limit
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "deep-labels": json.dumps(CERT).replace("[0, 1, 2, 2, 3, 0]", "[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_verify_rejects_malformed_certificate(capsys, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 9 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "-n", "9", "-r", "3", "-s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == 7
    assert {e["source"] for e in data["upper"]} >= {"thm1", "thm2A", "next_prime"}
    code, out, _ = run(capsys, "bounds", "-n", "11", "-r", "3", "-s", "2")
    assert json.loads(out)["best_lower"] == 10
    code, out, _ = run(capsys, "bounds", "-n", "5", "-r", "3", "-s", "1")
    data = json.loads(out)
    assert {"source": "thm3", "value": 25} in data["upper"]
    assert "exact" not in data


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "-n", "9", "-r", "3", "-s", "2", "--format", "text")
    assert code == 0 and out == "chi(G(9, 3, 2)) = 7\n"
    code, out, _ = run(capsys, "bounds", "-n", "5", "-r", "3", "-s", "2", "--format", "text")
    assert out == "chi(G(5, 3, 2)) in [4, 5]\n"


def test_exact_chi_and_alpha(capsys):
    code, out, _ = run(capsys, "exact", "chi", "-n", "5", "-r", "3", "-s", "2")
    assert code == 0 and json.loads(out)["value"] == 5
    code, out, _ = run(capsys, "exact", "alpha", "-n", "9", "-r", "3", "-s", "2")
    assert code == 0 and json.loads(out)["value"] == 12


def test_exact_solves_the_complement_spec(capsys):
    # G(9, 7, 6) is isomorphic to G(9, 2, 1); the answer names the asked spec
    code, out, _ = run(capsys, "exact", "chi", "-n", "9", "-r", "7", "-s", "6")
    assert code == 0
    assert json.loads(out) == {"which": "chi", "n": 9, "r": 7, "s": 6, "value": 9}
    code, out, _ = run(capsys, "exact", "alpha", "-n", "9", "-r", "7", "-s", "6", "--format", "text")
    assert code == 0 and out == "alpha(G(9, 7, 6)) = 4\n"


def test_exact_branches_on_the_root_orbits(capsys):
    # both ran out of nodes before the search fixed vertex 0 and branched
    # once per orbit; 13 is Spencer's packing number D(10)
    code, out, _ = run(capsys, "exact", "alpha", "-n", "10", "-r", "3", "-s", "2", "--format", "text")
    assert code == 0 and out == "alpha(G(10, 3, 2)) = 13\n"
    code, out, _ = run(capsys, "exact", "chi", "-n", "10", "-r", "3", "-s", "2", "--format", "text")
    assert code == 0 and out == "chi(G(10, 3, 2)) = 10\n"


def test_exact_internal_contradiction_exit_code(capsys, monkeypatch):
    # no construction seeds G(6, 2, 0), so only the final re-check fails
    monkeypatch.setattr(exact, "_proper", lambda g, assign, k: False)
    code, out, err = run(capsys, "exact", "chi", "-n", "6", "-r", "2", "-s", "0")
    assert code == 15 and out == "" and err.startswith("error: ")


def test_exact_cap_violation(capsys):
    code, _, err = run(capsys, "exact", "chi", "-n", "20", "-r", "5", "-s", "4")
    assert code == 7
    assert "15504" in err  # reported before any solving


def test_exact_exhausted_is_success(capsys):
    code, out, _ = run(
        capsys, "exact", "chi", "-n", "7", "-r", "3", "-s", "2", "--max-nodes", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert "exhausted" in data and data["exhausted"]["lower"] <= data["exhausted"]["upper"]


def test_exact_exhausted_text(capsys):
    # alpha's budget runs out inside the root-orbit loop, which then stops
    argv = ["-n", "11", "-r", "2", "-s", "0", "--max-nodes", "1", "--format", "text"]
    code, out, err = run(capsys, "exact", "chi", *argv)
    assert (code, out, err) == (0, "chi(G(11, 2, 0)) unresolved: in [6, 11]\n", "")
    argv = ["-n", "10", "-r", "4", "-s", "2", "--max-nodes", "10", "--format", "text"]
    code, out, err = run(capsys, "exact", "alpha", *argv)
    assert (code, out, err) == (0, "alpha(G(10, 4, 2)) unresolved: in [12, ?]\n", "")


def test_unwritable_out_path_exit_code(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "bounds", "-n", "9", "-r", "3", "-s", "2", "--out", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("budget", ["--max-nodes", "--time-budget"])
def test_exact_rejects_zero_budget(capsys, budget):
    # a NaN budget would never expire; --max-nodes nan is an argparse error
    for value in ("0", "nan") if budget == "--time-budget" else ("0",):
        code, out, err = run(capsys, "exact", "chi", "-n", "5", "-r", "3", "-s", "2", budget, value)
        assert code == 9 and out == ""
        assert err.startswith("error: ")


def test_scan_condition(capsys):
    code, out, _ = run(capsys, "scan-condition", "--limit", "100")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["p"]) for row in rows] == [
        5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    ]
    by_p = {int(row["p"]): row for row in rows}
    assert by_p[73]["condition_holds"] == "true"
    assert by_p[5]["condition_holds"] == "false" and by_p[5]["witness_r"] == "2"
    for row in rows:
        if row["p_mod_8"] == "7":
            assert row["condition_holds"] == "true"
        if row["condition_holds"] == "true":
            assert row["witness_r"] == ""


def test_scan_condition_rows_match_validating_check(capsys):
    # the scan skips primality testing for sieved primes; the public,
    # validating check_t1_condition must give the same rows
    code, out, _ = run(capsys, "scan-condition", "--limit", "20000")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    expected = []
    for p in range(5, 20001):
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            rep = check_t1_condition(p)
            holds = "true" if rep.condition_holds else "false"
            witness = "" if rep.witness_r is None else str(rep.witness_r)
            expected.append([str(p), str(p % 8), str(rep.order_of_two), holds, witness])
    assert rows == expected


# sha256 of stdout as produced by the full discrete-log walk, by a scan
# that re-tested every sieved prime (10^5) or built one report per prime
# (10^6), by a breadth-first two-coloring of the circle graph, and by
# vertices sorted on their reversed tuples; the faster paths must match
# it byte for byte
PINNED_STDOUT = [
    (("bhset", "-q", "101", "--degree", "3"),
     "687130b7542169e124b25ab4fa027273062f7072b0491e34ebe3305532f1a8c9"),
    (("scan-condition", "--limit", "100000"),
     "45468cf4979759b6be288a2f428278fa24a1c75b8857c583b7c7ebb048d9bbc8"),
    (("scan-condition", "--limit", "1000000"),
     "15fe7d87158abbf58a303b026c49ec1637a5a700bc296d1fc6b7fef020bb1071"),
    (("circles", "-p", "7"),
     "26a4171bf54808e8a8532371a1290a894946ef2da07aadb0bf528cbffc8de4fc"),
    (("circles", "-p", "23"),
     "afd3fe146bdb5abf335f0b19b4774f2daf180a5e309a45c4221347a13114fa69"),
    (("circles", "-p", "199"),
     "7d9cdaead39ac94a2c7ffe9dccc0dd4c4e833d60826fcdf47d05badff179dae1"),
    (("color", "--method", "theorem1", "-n", "9"),
     "e7e869632d5a82e1799ac6905bae87c998cc84e7dd5e3e2bdac7e5901992f419"),
    (("color", "--method", "theorem1", "-n", "33"),
     "21f9b4c4b3bf5f5807494b40074142101abb05efffb8d824aa673930230b2025"),
    (("color", "--method", "theorem1", "-n", "49"),
     "b8c5ff5d1bd840ebc4ba05002d0dc68d76fec286465a37eefa1506b524f4c91e"),
    (("color", "--method", "sum", "-n", "13", "-r", "4"),
     "112cc9d4cf7ffebbcc2da840edb14a626b755dfbc528fd05ffc4451e9e3ff887"),
    (("color", "--method", "bose-chowla", "-n", "17", "-r", "4", "-s", "2"),
     "fbfae44b73a3edff2b5662e0a95f9f1ccaf67465d60debb01490bc14a19a0121"),
    (("color", "--method", "symmetric", "-n", "13", "-r", "4", "-s", "2"),
     "912c49aa9c7240ae1a8719d8e640b5d1f027cc84b1c7769f8b14afbb162fb387"),
    (("color", "--method", "sum", "-n", "11", "-r", "8"),
     "bf0276ff124fd29a385e3bc81290d291ce8b06832884ee7ccae754ae9161e92e"),
    (("bounds", "-n", "30", "-r", "3", "-s", "1"),
     "3a8b111958c7a160d5679cceffdd31cf363394ba8c3cb8df80295eb05b2203e9"),
    (("exact", "chi", "-n", "9", "-r", "2", "-s", "1"),
     "4e21ce4248ced8e541af2393fb82eb87441170bd77fc311032a72a58de2726e5"),
    (("table", "--n-max", "200"),
     "a4a4e63f7e4d4b45dc847fa3870091a5d7096486a018994d8e8da9c1aa30469b"),
    (("bounds", "-n", "9", "-r", "3", "-s", "2"),
     "5f3a03de13d2c7b5efaf5ba7ec01531460d9367b34044d2100b5c8439021b0df"),
    (("exact", "chi", "-n", "11", "-r", "2", "-s", "0"),
     "78d27cd3f3bfec166a5ec8944d986ed6816964c599e05ab2c6f95bdd568bcec1"),
    (("exact", "chi", "-n", "9", "-r", "3", "-s", "2"),
     "82a823bac3ab39b3948ce52ec75130c3da53b334b04ab177e0a45a909d35aa29"),
    (("exact", "alpha", "-n", "9", "-r", "3", "-s", "2"),
     "038433aef77a4223cd3422038ae7541833fb92d50a8d998bbe735ec04a7ccfce"),
    (("exact", "alpha", "-n", "10", "-r", "4", "-s", "2"),
     "3455593f63ecff8f2b8a5e5487df76106fe139b86b4838da92f8c2d696e84d7a"),
]
PINNED_IDS = ["bhset", "scan-condition", "scan-condition-1e6"]
PINNED_IDS += ["circles-7", "circles-23", "circles-199"]
PINNED_IDS += ["theorem1-9", "theorem1-33", "theorem1-49"]
PINNED_IDS += ["sum-13-4", "bose-chowla-17-4-2", "symmetric-13-4-2", "sum-11-8"]
PINNED_IDS += ["bounds-30-3-1", "exact-chi-9-2-1"]
PINNED_IDS += ["table-200", "bounds-9-3-2"]
PINNED_IDS += ["exact-chi-11-2-0", "exact-chi-9-3-2", "exact-alpha-9-3-2", "exact-alpha-10-4-2"]


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text()  # non-ASCII, control characters and surrogates included
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=8), inner, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_writer_edge_cases():
    cases = [
        [], {}, [[]], [{}], {"": []}, [True, 1], [1, True], [1, 1.0], [-(2**70), 2**70],
        {"b": {"a": None}, "a": ["\u00e9\n\x00\ud800"]}, (1, (2, [3])), {1: [2], 0: {"x": 3}},
        [float("nan"), float("inf")], {"k": [[1, 2], [3, 4]]},
    ]
    b = cli._BLOCK  # lists are joined in blocks of b items; bools must stay off the int path
    for length in (0, 1, b - 1, b, b + 1, 3 * b + 1):
        ints = [(-7) ** (i % 5) * i for i in range(length)]
        cases += [ints, tuple(ints), {"labels": ints, "n": length}, {"a": {"b": tuple(ints)}}]
    pairs = tuple((i, i + 1) for i in range(2 * b + 3))  # as circles writes its edges
    cases += [pairs, {"edges": pairs}, [1, True, 0, False] * b, (1, False) * b, [[True, 1]] * (b + 1)]
    for obj in cases:
        assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_writer_peak_is_about_twice_its_text():
    # the blocks and the joined text; one string per label gave about 7x
    labels = list(range(10**6))
    size = len(cli._json_text(labels))
    assert _traced_peak(lambda: cli._json_text(labels)) <= 3 * size


def test_scan_condition_peak(tmp_path, monkeypatch):
    # the orders are found before the trace, so only the writing is measured: 4.1 MiB for
    # its 1.9 MiB of text (blocks, then the joined text); a string per row gave 10.3 MiB
    orders = list(orders_of_two(10**6))
    monkeypatch.setattr(cli, "orders_of_two", lambda limit: iter(orders))
    out = tmp_path / "scan.csv"
    peak = _traced_peak(lambda: main(["scan-condition", "--limit", "1000000", "--out", str(out)]))
    assert out.read_text().count("\n") == 78_497
    assert peak <= 3 * out.stat().st_size


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=PINNED_IDS)
def test_pinned_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_condition_cap(capsys):
    code, _, _ = run(capsys, "scan-condition", "--limit", "2000000")
    assert code == 7


def test_table_cap(capsys):
    code, _, _ = run(capsys, "table", "--n-max", "300")
    assert code == 7


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "12")
    assert code == 0
    rows = {int(row["n"]): row for row in csv.DictReader(io.StringIO(out))}
    assert len(rows) == 9
    assert rows[9]["exact"] == "7" and rows[8]["exact"] == "7"
    assert rows[5]["best_lower"] == "4" and rows[5]["best_upper"] == "5"
    assert rows[5]["exact"] == ""
    assert "thm1" in rows[9]["sources"]


def test_bhset(capsys):
    code, out, _ = run(capsys, "bhset", "-q", "5", "--degree", "2")
    assert code == 0
    data = json.loads(out)
    assert data["modulus"] == 24 and len(data["elements"]) == 5
    assert verify_bh(data["elements"], 2, 24)


def test_circles(capsys):
    code, out, _ = run(capsys, "circles", "-p", "7")
    assert code == 0
    data = json.loads(out)
    assert data["condition_holds"] is True
    assert len(data["circles"]) == 14 and len(data["edges"]) == 21
    classes = data["bipartition"]
    for a, b in data["edges"]:
        assert classes[a] != classes[b]
    code, out, _ = run(capsys, "circles", "-p", "5")
    data = json.loads(out)
    assert data["condition_holds"] is False and data["bipartition"] is None


def test_circles_cap(capsys):
    # refused before any primality test: 1001 = 7 * 11 * 13 is composite
    for p in ("1009", "1001"):
        code, out, err = run(capsys, "circles", "-p", p)
        assert code == 7 and out == ""
        assert err == f"error: circle prime {p} exceeds 1000\n"
    code, _, _ = run(capsys, "circles", "-p", "1000")  # within the cap, composite
    assert code == 6


def test_huge_specs_end_in_one_error_line(capsys, tmp_path):
    # each used to end in a ValueError traceback (C(n, r) past Python's
    # 4300-digit int-to-str limit) or to run for minutes forming C(n, r)
    commands = []
    for n, r in ((20000, 10000), (4 * 10**6, 2 * 10**6)):
        cert = tmp_path / f"huge{n}.json"
        cert.write_text(json.dumps(
            {"n": n, "r": r, "s": 0, "method": "sum", "palette_bound": 5, "labels": [0]}
        ))
        spec = ("-n", str(n), "-r", str(r))
        commands += [
            ("verify", str(cert)),
            ("color", "--method", "sum", *spec),
            ("exact", "chi", *spec, "-s", "0"),
            ("bounds", *spec, "-s", "0"),
            ("bounds", *spec, "-s", "0", "--format", "text"),
        ]
    commands += [
        ("color", "--method", "bose-chowla", "-n", "20011", "-r", "10000", "-s", "0"),
        ("color", "--method", "symmetric", "-n", "20011", "-r", "10000", "-s", "0"),
        ("bhset", "-q", "3", "--degree", "1000000000"),
        # refused before the search for a qualifying prime near 10^18
        ("color", "--method", "theorem1", "-n", "1000000000000007245"),
    ]
    for argv in commands:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert code == 7 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_bounds_at_the_cap_prints(capsys):
    # 909 * bit_length(2000) = 9999 is allowed, and its 3000-digit values print
    code, out, _ = run(capsys, "bounds", "-n", "1000", "-r", "909", "-s", "455")
    assert code == 0 and json.loads(out)["spec"] == {"n": 1000, "r": 909, "s": 455}


def test_byte_identical_outputs(capsys):
    first = run(capsys, "color", "--method", "theorem1", "-n", "9")
    second = run(capsys, "color", "--method", "theorem1", "-n", "9")
    assert first == second
    assert run(capsys, "table", "--n-max", "30") == run(capsys, "table", "--n-max", "30")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "-n", "9"])  # missing --method
    assert exc.value.code == 2
    capsys.readouterr()


def test_method_parameter_mismatch(capsys):
    code, _, _ = run(capsys, "color", "--method", "theorem1", "-n", "9", "-r", "4")
    assert code == 9
    code, _, _ = run(capsys, "color", "--method", "sum", "-n", "5", "-r", "3", "-s", "1")
    assert code == 9
