"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import time

import pytest

from distcolor import exact
from distcolor.cli import main
from distcolor.distgraph import GraphSpec, vertex_count
from distcolor.gf import verify_bh
from distcolor.numtheory import check_t1_condition


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


CERT = {"n": 4, "r": 2, "s": 1, "method": "sum", "palette_bound": 4, "labels": [0, 1, 2, 2, 3, 0]}


MALFORMED = {
    "invalid-json": '{"n": 4,',
    **{f"missing-{key}": json.dumps({k: v for k, v in CERT.items() if k != key}) for key in CERT},
    "unknown-method": json.dumps({**CERT, "method": "greedy"}),
    "float-n": json.dumps({**CERT, "n": 4.0}),
    "boolean-labels": json.dumps({**CERT, "labels": [True] * 6}),
    "not-an-object": json.dumps([CERT]),
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
# that re-tested every sieved prime, and by a breadth-first two-coloring
# of the circle graph; the faster paths must match it byte for byte
PINNED_STDOUT = [
    (("bhset", "-q", "101", "--degree", "3"),
     "687130b7542169e124b25ab4fa027273062f7072b0491e34ebe3305532f1a8c9"),
    (("scan-condition", "--limit", "100000"),
     "45468cf4979759b6be288a2f428278fa24a1c75b8857c583b7c7ebb048d9bbc8"),
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
]
PINNED_IDS = ["bhset", "scan-condition", "circles-7", "circles-23", "circles-199"]
PINNED_IDS += ["theorem1-9", "theorem1-33", "theorem1-49"]


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
