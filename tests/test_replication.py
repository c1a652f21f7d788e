import json

import pytest

import synchromata.replication as replication
from synchromata import ClaimResult, all_passing, run_all
from synchromata.replication import (
    SUITE,
    TOP,
    Check,
    check_image_extension_constant,
    check_profile_maximum,
    check_upper_extension,
    greedy_length_formula,
    upper_extension_lower_bound,
)


def test_formulas():
    assert [upper_extension_lower_bound(m) for m in (4, 5, 6, 7)] == [6, 7, 14, 16]
    assert [greedy_length_formula(m) for m in (4, 5, 6, 7, 8)] == [14, 22, 31, 44, 56]


def _top(row):
    """The parameter each row runs at here: 12, but m = 10 (20 states)
    for the two whole-lattice rows.

    The whole-lattice reports at m = 11 and 12 take about 20 s each, and
    the n rows from n = 13 to 24 take tens of seconds together; the CI
    step "Paper claims at the top of every range" runs them.
    """
    if row.check in (check_profile_maximum, check_image_extension_constant):
        return 10
    return 12


@pytest.mark.parametrize("row", SUITE, ids=lambda row: row.check.__name__)
def test_suite_row_guards_its_range_and_passes(row):
    for outside in (row.first - 1, TOP[row.cap] + 1):
        with pytest.raises(ValueError):
            row.check(outside)
    claims = row.check(_top(row))
    assert claims and all_passing(claims)
    assert {r.parameter for r in claims} == set(range(row.first, _top(row) + 1))


def _stub_suite(monkeypatch):
    """Replace SUITE by rows that each report the parameter they ran at."""
    def row(name, cap, first):
        def claims(params):
            yield ClaimResult(name, params[-1], params[-1], params[-1], "pass")

        return Check(lambda top: list(claims(range(first, top + 1))), cap, first, claims)

    rows = [row("m3", "m", 3), row("n6", "n", 6), row("m7", "m", 7), row("n3", "n", 3)]
    monkeypatch.setattr(replication, "SUITE", rows)


def test_run_all_runs_every_row_to_its_last(monkeypatch):
    _stub_suite(monkeypatch)
    assert [(r.claim_id, r.parameter) for r in run_all(max_m=12, max_n=24)] == [
        ("m3", 12), ("n6", 24), ("m7", 12), ("n3", 24)]
    # a row whose first parameter is above its cap is skipped
    assert [(r.claim_id, r.parameter) for r in run_all(max_m=6, max_n=5)] == [
        ("m3", 6), ("n3", 5)]


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


def test_caps_above_a_checks_range_are_clamped(monkeypatch):
    # no family member has more than MAX_STATES states, so each cap is
    # clamped to its TOP once
    assert TOP == {"m": 12, "n": 24}
    _stub_suite(monkeypatch)
    assert run_all(max_m=13, max_n=10**6) == run_all(max_m=12, max_n=24)
