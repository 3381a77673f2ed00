"""Tests for the closed-form bounds and the aggregator."""

import ast
import math
from pathlib import Path

import pytest

from distcolor import bounds
from distcolor.bounds import (
    BoundsReport,
    aggregate,
    counting_lower_bound,
    divisibility_lower_bound,
    eq2_reference,
    independence_upper_bound,
    next_prime_upper,
    theorem3_upper,
)
from distcolor.colorings import color_bose_chowla, color_sum, color_symmetric, color_theorem1
from distcolor.distgraph import GraphSpec
from distcolor.errors import InternalContradiction, OutOfValidity, TooLarge

SOURCES = {"ineq1", "thm1", "thm2A", "thm2B", "thm3", "next_prime", "reference_eq2"}


def test_counting_lower_bound_examples():
    assert counting_lower_bound(9, 3) == 7
    assert counting_lower_bound(8, 3) == 7


def test_counting_lower_bound_parity_identity():
    for n in range(3, 61):
        for r in range(2, n):
            expected = n - r + 1 if (n - r) % 2 == 0 else n - r + 2
            assert counting_lower_bound(n, r) == expected


def test_independence_upper_bound_examples():
    assert independence_upper_bound(9, 3) == 12
    assert independence_upper_bound(5, 3) == 3


def test_divisibility_lower_bound_examples():
    assert divisibility_lower_bound(11, 3) == 10
    assert math.comb(11, 2) % 3 == 1
    assert divisibility_lower_bound(7, 3) is None  # 7 = 1 mod 3
    assert divisibility_lower_bound(9, 4) is None  # 4 composite


def test_divisibility_contradiction_never_fires():
    for r in (2, 3, 5, 7, 11, 13):
        for k in range(1, 21):
            n = r * k - 1
            if n > r:
                assert divisibility_lower_bound(n, r) == n - r + 2


def test_eq2_reference():
    assert eq2_reference(10, 3, 2) == 30
    assert eq2_reference(10, 4, 3) == 40
    with pytest.raises(OutOfValidity):
        eq2_reference(10, 3, 1)


def test_theorem3_upper():
    assert theorem3_upper(5, 3, 1) == 25
    assert theorem3_upper(6, 3, 1) is None
    assert theorem3_upper(7, 4, 2) == 49


def test_next_prime_upper():
    assert next_prime_upper(10, 3, 1) == 121
    assert next_prime_upper(11, 3, 1) == 121
    assert next_prime_upper(9, 3, 2) == 11


def test_aggregate_examples():
    report = aggregate(9, 3, 2)
    assert (report.best_lower, report.best_upper, report.exact) == (7, 7, 7)
    report = aggregate(8, 3, 2)
    assert (report.best_lower, report.best_upper, report.exact) == (7, 7, 7)
    report = aggregate(5, 3, 2)
    assert (report.best_lower, report.best_upper, report.exact) == (4, 5, None)
    assert aggregate(11, 3, 2).best_lower == 10


def test_aggregate_source_vocabulary():
    for args in [(9, 3, 2), (5, 3, 1), (12, 4, 3), (7, 4, 0), (6, 1, 0), (5, 5, 2)]:
        report = aggregate(*args)
        for entry in report.lower + report.upper:
            assert entry.source in SOURCES
        assert report.best_lower == max(b.value for b in report.lower)
        certified = [b.value for b in report.upper if b.source != "reference_eq2"]
        assert report.best_upper == min(certified)
        assert report.best_lower <= report.best_upper


def test_bound_tags_need_no_csv_quoting():
    # `table` joins the tags into CSV unquoted; every Bound that aggregate
    # builds names its tag as a literal, so these are all the tags it can emit
    tree = ast.parse(Path(bounds.__file__).read_text())
    calls = [c for c in ast.walk(tree) if isinstance(c, ast.Call) and getattr(c.func, "id", "") == "Bound"]
    assert all(isinstance(c.args[1], ast.Constant) for c in calls)
    tags = {c.args[1].value for c in calls}
    assert tags == SOURCES
    assert not any(set(tag) & set(',"\r\n') for tag in tags)


def test_aggregate_reference_listed_but_excluded():
    for n in range(4, 30):
        for r in range(2, 6):
            for s in range(r):
                if not (s < r <= n and r < 2 * s + 1):
                    continue
                report = aggregate(n, r, s)
                ref = [b for b in report.upper if b.source == "reference_eq2"]
                assert len(ref) == 1
                certified = [b.value for b in report.upper if b.source != "reference_eq2"]
                assert report.best_upper == min(certified)
    # the reference can dip below certified entries on degenerate specs,
    # which is exactly why it must not participate in best_upper
    report = aggregate(8, 8, 4)
    ref = next(b.value for b in report.upper if b.source == "reference_eq2")
    assert ref < report.best_upper


def test_aggregate_degenerate_specs():
    assert aggregate(6, 1, 0).exact == 6  # complete graph
    report = aggregate(5, 5, 2)  # single vertex
    assert report.best_lower == 1


def test_aggregate_size_caps():
    # n <= 10^6 and r * bit_length(2n) <= 10^4; values stay below 2^10000
    assert aggregate(10**6, 3, 2).best_upper <= 10**6
    report = aggregate(1000, 909, 455)  # 909 * bit_length(2000) = 9999
    assert max(b.value for b in report.upper) < 2**10000
    for n, r in ((10**6 + 1, 1), (1000, 910), (20000, 10000), (4 * 10**6, 2 * 10**6)):
        with pytest.raises(TooLarge):
            aggregate(n, r, 0)


def test_congruence_window_mod6():
    for n in range(4, 61):
        report = aggregate(n, 3, 2)
        if n % 6 in (0, 2, 4, 5):
            assert report.best_lower >= n - 1, n
        else:
            assert report.best_lower < n - 1, n


def test_colorings_respect_lower_bounds():
    cases = [
        (color_theorem1(9), aggregate(9, 3, 2)),
        (color_theorem1(8), aggregate(8, 3, 2)),
        (color_sum(7, 3), aggregate(7, 3, 2)),
        (color_sum(12, 5), aggregate(12, 5, 4)),
        (color_symmetric(7, 3, 1), aggregate(7, 3, 1)),
        (color_bose_chowla(7, 3, 1), aggregate(7, 3, 1)),
    ]
    for coloring, report in cases:
        assert coloring.colors_used >= report.best_lower
        assert coloring.palette_bound >= report.best_lower


def test_bounds_report_rejects_crossed_bounds():
    # raised explicitly, so it also runs under python -O
    with pytest.raises(InternalContradiction):
        BoundsReport(GraphSpec(9, 3, 2), (), (), best_lower=8, best_upper=7, exact=None)
