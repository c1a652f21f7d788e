import json

import pytest

from synchromata import ClaimResult, all_passing, run_all
from synchromata.replication import (
    check_a_odd_sync,
    check_b_series_avoiding,
    check_b_series_extension,
    check_cerny_baseline,
    check_conservative,
    check_conservative_growth,
    check_image_extension_constant,
    check_profile_maximum,
    check_quadratic_growth,
    check_ternary_layers,
    check_ternary_series,
    check_upper_extension,
    greedy_length_formula,
    upper_extension_lower_bound,
)


def test_formulas():
    assert [upper_extension_lower_bound(m) for m in (4, 5, 6, 7)] == [6, 7, 14, 16]
    assert [greedy_length_formula(m) for m in (4, 5, 6, 7, 8)] == [14, 22, 31, 44, 56]


def test_individual_checks_pass():
    assert all(r.ok for r in check_a_odd_sync(4))
    assert all(r.ok for r in check_upper_extension(5))
    assert all(r.ok for r in check_upper_extension(12))
    assert all(r.ok for r in check_profile_maximum(4))
    assert all(r.ok for r in check_profile_maximum(8))
    assert all(r.ok for r in check_quadratic_growth(6))
    assert all(r.ok for r in check_conservative(5))
    assert all(r.ok for r in check_conservative_growth(6))
    assert all(r.ok for r in check_b_series_extension(6))
    assert all(r.ok for r in check_b_series_avoiding(6))
    assert all(r.ok for r in check_image_extension_constant())
    assert all(r.ok for r in check_image_extension_constant(7))
    assert all(r.ok for r in check_ternary_series(5))
    assert all(r.ok for r in check_ternary_layers(6))
    assert all(r.ok for r in check_cerny_baseline(5))


def test_bracket_claims_report_bound_status():
    results = check_upper_extension(5)
    by_id = {r.claim_id: r for r in results}
    bracket = by_id["a-odd-extension-bracket"]
    assert bracket.status == "bound-ok"
    lo, hi = bracket.expected
    assert lo <= bracket.computed <= hi
    exact = by_id["a-odd-greedy-upper"]
    assert exact.status == "pass" and exact.computed == exact.expected
    shortest = by_id["a-odd-upper-extension"]
    assert shortest.status == "pass" and shortest.computed == greedy_length_formula(5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        check_a_odd_sync(2)
    with pytest.raises(ValueError):
        check_upper_extension(13)
    with pytest.raises(ValueError):
        check_profile_maximum(9)
    with pytest.raises(ValueError):
        check_conservative(8)
    with pytest.raises(ValueError):
        check_ternary_series(2)
    with pytest.raises(ValueError):
        check_image_extension_constant(8)
    with pytest.raises(ValueError):
        run_all(max_m=3)


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
