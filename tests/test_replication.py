import json
from dataclasses import replace

import pytest

import synchromata.replication as replication
from synchromata import ClaimResult, all_passing, run_all
from synchromata.replication import (
    SUITE,
    check_image_extension_constant,
    check_profile_maximum,
    check_quadratic_growth,
    check_upper_extension,
    greedy_length_formula,
    upper_extension_lower_bound,
)


def test_formulas():
    assert [upper_extension_lower_bound(m) for m in (4, 5, 6, 7)] == [6, 7, 14, 16]
    assert [greedy_length_formula(m) for m in (4, 5, 6, 7, 8)] == [14, 22, 31, 44, 56]


def _top(row):
    """row.last, but m = 10 (20 states) for the two whole-lattice rows.

    Their reports at m = 11 and 12 take about 20 s each; the CI step
    "Paper claims at the top of every range" runs them.
    """
    if row.check in (check_profile_maximum, check_image_extension_constant):
        return min(row.last, 10)
    return row.last


@pytest.fixture(scope="module")
def claims_at_last():
    """Each SUITE row's claims at its last parameter (see _top), computed once."""
    return {row: row.check(_top(row)) for row in SUITE}


@pytest.mark.parametrize("row", SUITE, ids=lambda row: row.check.__name__)
def test_suite_row_guards_its_range_and_passes(row, claims_at_last):
    for outside in (row.first - 1, row.last + 1):
        with pytest.raises(ValueError):
            row.check(outside)
    claims = claims_at_last[row]
    assert claims and all_passing(claims)
    assert {r.parameter for r in claims} <= set(range(row.first, row.last + 1))


def test_run_all_runs_every_row_to_its_last(claims_at_last, monkeypatch):
    expected = [r for row in SUITE for r in claims_at_last[row]]
    monkeypatch.setattr(replication, "SUITE", [replace(row, last=_top(row)) for row in SUITE])
    assert run_all(max_m=12, max_n=12) == expected


def test_individual_checks_pass():
    # a growth check below its last states its property at that top
    results = check_quadratic_growth(6)
    assert all_passing(results)
    assert results[-1].claim_id == "a-odd-growth" and results[-1].parameter == 6


def test_bracket_claims_report_bound_status():
    by_id = {r.claim_id: r for r in check_upper_extension(5) if r.parameter == 5}
    bracket = by_id["a-odd-extension-bracket"]
    assert bracket.status == "bound-ok"
    lo, hi = bracket.expected
    assert lo <= bracket.computed <= hi
    exact = by_id["a-odd-greedy-upper"]
    assert exact.status == "pass" and exact.computed == exact.expected
    shortest = by_id["a-odd-upper-extension"]
    assert shortest.status == "pass" and shortest.computed == greedy_length_formula(5)


def test_parameter_validation():
    # each check's own range is covered by test_suite_row_guards_its_range_and_passes
    with pytest.raises(ValueError):
        run_all(max_m=4)
    with pytest.raises(ValueError):
        run_all(max_n=3)


def test_claim_result_shape():
    r = ClaimResult("demo", 4, (3, 9), 5, "bound-ok", None)
    assert r.ok
    doc = r.to_dict()
    json.dumps(doc)
    assert doc["expected"] == [3, 9]
    assert doc["witness"] is None
    bad = ClaimResult("demo", 4, 7, 5, "fail", None)
    assert not bad.ok


def test_suite_is_deterministic_and_green():
    first = run_all(max_m=5, max_n=5)
    second = run_all(max_m=5, max_n=5)
    assert first == second
    assert all_passing(first)
    assert len(first) > 20


def test_suite_ranges_scale_with_caps():
    small = run_all(max_m=5, max_n=5)
    large = run_all(max_m=6, max_n=7)
    assert len(large) > len(small)
    params = {(r.claim_id, r.parameter) for r in large}
    assert ("m-series-layers", 6) in params
    assert ("m-series-layers", 7) in params
    assert ("m-series-irreducible", 3) not in params  # reducible edge case
    assert ("m-series-irreducible", 4) in params


def test_caps_above_a_checks_range_are_clamped():
    # the ternary checks support n <= 12; a larger cap runs the same suite
    assert run_all(max_m=5, max_n=13) == run_all(max_m=5, max_n=12)
