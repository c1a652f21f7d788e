"""Acceptance suite: one test per headline criterion, exact tolerances.

Each test prints a single PASS line when its criterion holds (visible
with ``pytest -s`` or in verbose failure output).  Two strict-xfail
tests document the known boundary defects at the smallest family sizes;
see the test docstrings for the analysis.
"""

import random
from fractions import Fraction

import pytest

from synchromata import (
    FamilySpec,
    StateSet,
    a_odd,
    a_odd_sync_word,
    b_series,
    cerny,
    check_sync_word,
    conservative,
    extension_profile,
    greedy_extending_word,
    image_extension_bound,
    is_irreducibly_synchronizing,
    is_strongly_connected,
    is_synchronizing,
    m_prime_series,
    m_prime_series_sync_word,
    m_series,
    m_series_sync_word,
    named_subset,
    preimage,
    preimage_word,
    reset_length,
    run_all,
    shortest_avoiding_word,
    shortest_extending_word,
)

from helpers import o_profile, random_dfa


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS  {text}")


def upper_of(m):
    return named_subset(FamilySpec("a-odd", m), "upper")


def test_criterion_01_explicit_sync_word():
    for m in range(3, 9):
        word = a_odd_sync_word(m)
        assert check_sync_word(a_odd(m), word) == 1
        assert len(word) == 2 * m * m - 2 * m + 2
    n = 9  # m = 5
    assert len(a_odd_sync_word(5)) == 42 == (n * n + 3) // 2
    report(1, "a_odd sync word has length 2m^2-2m+2 and resets to q1, m=3..8")


def test_criterion_02_upper_extension_bracket():
    for m in range(4, 8):
        dfa = a_odd(m)
        upper = upper_of(m)
        word = shortest_extending_word(dfa, upper)
        assert word is not None
        lower_bound = 2 + m * ((m - 2) // 2)  # 2 + m*ceil((m-3)/2)
        upper_bound = m * m - 3 * m // 2 + 4 if m % 2 == 0 else m * m - m + 2
        assert lower_bound <= len(word) <= upper_bound
        greedy = greedy_extending_word(m)
        assert len(greedy) == upper_bound
        assert len(preimage_word(dfa, upper, greedy)) > len(upper)
    report(2, "upper-block extension length bracketed, greedy word exact, m=4..7")


def test_criterion_03_quadratic_growth():
    lengths = {}
    for m in range(4, 8):
        word = shortest_extending_word(a_odd(m), upper_of(m))
        lengths[m] = len(word)
    for m in range(5, 8):
        ratio = lengths[m] / (m * m)
        assert 0.4 <= ratio <= 1.1
    assert all(lengths[m] > lengths[m - 1] for m in range(5, 8))
    report(3, "extension length grows quadratically: ratios in [0.4, 1.1], m=5..7")


def test_criterion_04_conservative_counterexample():
    lengths = {}
    for m in (4, 5, 6):
        dfa = conservative(m)
        n = 2 * m
        s = StateSet(range(m + 1, 2 * m), n)
        grown = StateSet(range(m + 1, 2 * m + 1), n)
        assert preimage(dfa, s, "a") == grown
        assert preimage(dfa, grown, "b") == StateSet([m], n)
        word = shortest_extending_word(dfa, grown)
        assert word is not None
        lengths[m] = len(word)
    assert lengths[4] < lengths[5] < lengths[6]
    # the lengths outgrow the 2n line inside the tested range (from m=5 on;
    # at m=4 the exact value is 2n-1, see the companion xfail test) and the
    # ratio to n grows strictly, so no linear bound can hold
    for m in (5, 6):
        assert lengths[m] > 2 * (2 * m)
    assert lengths[4] / 8 < lengths[5] / 10 < lengths[6] / 12
    report(4, "conservative family: exact trap preimages, superlinear growth past 2n")


@pytest.mark.xfail(
    strict=True,
    reason="the smallest conservative member extends its grown set in 15 = 2n-1 "
    "steps, one short of the 2n line it crosses from m=5 on",
)
def test_criterion_04_literal_2n_bound_at_m4():
    """Literal per-size reading of the growth clause; fails only at m=4.

    The exact shortest extending length of the grown set at m=4 is 15
    while 2n = 16; the sequence (15, 23, 33) crosses the 2n line
    (16, 20, 24) between m=4 and m=5.
    """
    dfa = conservative(4)
    grown = StateSet(range(5, 9), 8)
    word = shortest_extending_word(dfa, grown)
    assert len(word) > 16


def test_criterion_05_b_series_lengths():
    for m in range(4, 9):
        dfa = b_series(m)
        assert is_strongly_connected(dfa)
        assert is_synchronizing(dfa)
        pair = StateSet([m - 3, m - 2] if m > 4 else [1, 2], 2 * m)
        word = shortest_extending_word(dfa, pair)
        assert word is not None and len(word) == 3 * m - 1
        avoid = shortest_avoiding_word(dfa, 2 * m)
        assert avoid is not None and len(avoid) == 2 * m + 2
    report(5, "b_series: extension 3m-1 and avoidance 2m+2 exact, m=4..8")


def test_criterion_06_image_extension_constant():
    result = image_extension_bound(b_series(4))
    assert result.worst_length >= 11
    assert result.constant_witness >= Fraction(11, 8)
    report(6, f"image-extension constant witness {result.constant_witness} >= 11/8")


def test_criterion_07_ternary_series():
    for n in range(3, 11):
        assert reset_length(m_series(n)) == n * n - 3 * n + 3
        assert reset_length(m_prime_series(n)) == n * n - 3 * n + 2
        word = m_series_sync_word(n)
        assert check_sync_word(m_series(n), word) is not None
        assert len(word) == n * n - 3 * n + 3
        word_p = m_prime_series_sync_word(n)
        assert check_sync_word(m_prime_series(n), word_p) is not None
        assert len(word_p) == n * n - 3 * n + 2
    for n in range(4, 11):
        assert is_irreducibly_synchronizing(m_series(n))
        assert is_irreducibly_synchronizing(m_prime_series(n))
    from synchromata import inverse_layers

    for n in (6, 7):
        trace = inverse_layers(m_series(n))
        for i in range(0, n - 2):
            assert trace.layers[i * n] == (StateSet(range(2, 3 + i), n),)
    report(7, "ternary series: reset lengths by both methods, words, layers; "
              "irreducible from n=4 (n=3 members are reducible, see xfail)")


@pytest.mark.xfail(
    strict=True,
    reason="M_3 and M'_3 still synchronize after dropping letter a (bcb resets "
    "the rest), so the irreducibility claim only holds from n=4 on",
)
def test_criterion_07_irreducibility_at_n3():
    """Literal reading of the irreducibility clause at n=3; provably false.

    With letter a removed from the three-state members, the word bcb
    still resets them (Q -b-> {q2,q3} -c-> {q1,q2} -b-> {q2} in the base
    series), so neither automaton is irreducibly synchronizing.  From
    n=4 on the middle states q_3..q_{n-1} become unreachable without a
    and the claim holds, as criterion 7's main test verifies.
    """
    assert is_irreducibly_synchronizing(m_series(3))
    assert is_irreducibly_synchronizing(m_prime_series(3))


def test_criterion_08_cerny_baseline():
    for n in range(3, 8):
        assert reset_length(cerny(n)) == (n - 1) ** 2
    report(8, "classical series resets in exactly (n-1)^2 steps, n=3..7")


def test_criterion_09a_reset_method_agreement():
    # reset_length runs the forward subset search and the inverse layer
    # search and raises ConsistencyError on any disagreement
    rng = random.Random(2024)
    synchronizing = 0
    while synchronizing < 1000:
        dfa = random_dfa(rng, rng.randint(2, 8), rng.randint(1, 3))
        length = reset_length(dfa)
        if is_synchronizing(dfa):
            assert length is not None
            synchronizing += 1
        else:
            assert length is None
    report(9, "forward and inverse reset searches agree on 1000 random automata")


def test_criterion_09b_profile_oracle_agreement():
    rng = random.Random(4099)
    for _ in range(200):
        dfa = random_dfa(rng, rng.randint(2, 8), rng.randint(1, 3))
        report_ = extension_profile(dfa)
        assert list(report_.per_cardinality_max) == o_profile(dfa)
    report(9, "shared-search profile equals naive per-subset search, 200 automata")


def test_criterion_10_asymptotics_as_finite_evidence():
    # order-of-growth statements are covered only by the proven bracket and
    # by exact closed forms over a finite range, never as asymptotic claims;
    # the quadratic lengths grow strictly over that range
    results = run_all(max_m=6, max_n=6)
    brackets = [r for r in results if isinstance(r.expected, tuple)]
    assert [r.claim_id for r in brackets] == ["a-odd-extension-bracket"] * 3
    assert all(r.status == "bound-ok" for r in brackets)
    for claim_id in ("a-odd-upper-extension", "a-even-upper-extension",
                     "conservative-trap-length"):
        rows = [r for r in results if r.claim_id == claim_id]
        lengths = [r.computed for r in rows]
        assert len(rows) >= 3 and all(r.status == "pass" for r in rows)
        assert all(a < b for a, b in zip(lengths, lengths[1:]))
    report(10, "asymptotic claims rendered as a bracket and exact closed forms only")
