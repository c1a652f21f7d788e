import random

import pytest
from hypothesis import example, given, settings

import synchromata.reset as reset_mod
from synchromata import (
    ConsistencyError,
    Dfa,
    MAX_STATES,
    StateSet,
    Word,
    a_odd,
    a_odd_sync_word,
    b_series,
    cerny,
    check_sync_word,
    checked_reset_word,
    conservative,
    inverse_layers,
    m_prime_series,
    m_series,
    m_series_sync_word,
    reset_length,
    shortest_reset_word,
)
from synchromata.cli import main
from synchromata.io import to_json

from helpers import o_image, o_preimage, o_reset_length, random_dfa
from strategies import transition_rows


def test_known_reset_lengths():
    assert reset_length(m_series(3)) == 3
    assert reset_length(cerny(4)) == 9
    assert reset_length(m_series(7)) == 31
    assert reset_length(m_prime_series(7)) == 30


def test_a_odd_reset_below_explicit_word():
    # the explicit length-26 word is not optimal for the 7-state member
    length = reset_length(a_odd(4))
    assert length == 24
    assert length <= len(a_odd_sync_word(4))


def test_non_synchronizing_returns_none():
    spinner = Dfa(2, 1, [[2, 1]])
    assert shortest_reset_word(spinner) is None
    assert reset_length(spinner) is None
    trace = inverse_layers(spinner)
    assert trace.found_at is None


def test_single_state_resets_with_empty_word():
    dfa = Dfa(1, 1, [[1]])
    assert shortest_reset_word(dfa) == Word()
    assert reset_length(dfa) == 0
    trace = inverse_layers(dfa)
    assert trace.found_at == 0 and trace.layers == ((dfa.full_set(),),)


def test_witness_word_synchronizes():
    for dfa in (m_series(6), cerny(5), a_odd(4)):
        word = shortest_reset_word(dfa)
        assert check_sync_word(dfa, word) is not None


def test_check_sync_word():
    assert check_sync_word(a_odd(5), a_odd_sync_word(5)) == 1
    assert check_sync_word(m_series(5), m_series_sync_word(5)) == 2
    assert check_sync_word(m_series(5), "") is None


# ---------------------------------------------------------------------
# layer families
# ---------------------------------------------------------------------

def test_layer_zero_is_merge_targets():
    trace = inverse_layers(m_series(5))
    assert trace.layers[0] == (StateSet([2], 5),)
    # the prime variant also merges under c, onto q1
    trace_p = inverse_layers(m_prime_series(5))
    assert set(trace_p.layers[0]) == {StateSet([1], 5), StateSet([2], 5)}


def test_layer_milestones_in_ternary_series():
    for n in (6, 7):
        trace = inverse_layers(m_series(n))
        assert trace.found_at == n * n - 3 * n + 3
        for i in range(0, n - 2):
            assert trace.layers[i * n] == (StateSet(range(2, 3 + i), n),)
        # the off-cycle milestones four steps after each interval layer
        assert trace.layers[4] == (StateSet([n - 2, n - 1], n),)
        for i in range(2, n - 2):
            want = (StateSet([n - 2, n - 1, n] + list(range(1, i)), n),)
            assert trace.layers[(i - 1) * n + 4] == want


def test_found_layer_contains_full_set():
    for dfa in (m_series(5), cerny(4)):
        trace = inverse_layers(dfa)
        assert dfa.full_set() in trace.layers[trace.found_at]
        assert trace.layers[trace.found_at] == trace.layers[-1]


def test_layer_families_are_antichains():
    rng = random.Random(21)
    automata = [m_series(5), cerny(5), a_odd(4)]
    automata += [random_dfa(rng, rng.randint(2, 6), rng.randint(1, 3)) for _ in range(30)]
    for dfa in automata:
        trace = inverse_layers(dfa)
        earlier = []
        for i, layer in enumerate(trace.layers):
            for s in layer:
                if i == 0:
                    assert len(s) == 1
                    assert any(
                        dfa.inverse[a][s.states()[0] - 1].bit_count() >= 2
                        for a in range(dfa.k)
                    )
                else:
                    assert len(s) > 1
                for t in earlier:
                    assert not s <= t
                for t in layer:
                    assert not (s <= t and s != t)
            earlier.extend(layer)


def test_methods_agree_on_every_family():
    from synchromata import a_even

    members = (
        [a_odd(m) for m in (3, 4, 5)]
        + [a_even(m) for m in (3, 4, 5)]
        + [conservative(m) for m in (3, 4, 5)]
        + [b_series(m) for m in (4, 5, 6)]
        + [m_series(n) for n in range(3, 13)]
        + [m_prime_series(n) for n in range(3, 13)]
        + [cerny(n) for n in range(2, 9)]
    )
    for dfa in members:
        assert dfa.n <= 12
        # ConsistencyError here would mean the two searches disagreed
        assert reset_length(dfa) is not None


def test_methods_agree_on_random_automata():
    rng = random.Random(99)
    agreed = 0
    while agreed < 200:
        dfa = random_dfa(rng, rng.randint(2, 8), rng.randint(1, 3))
        # reset_length raises ConsistencyError on any forward/layer mismatch
        length = reset_length(dfa)
        oracle = o_reset_length(dfa.rows())
        assert length == oracle
        if length is not None:
            agreed += 1


def test_concurrent_analyses_share_one_automaton():
    # analyses are pure functions of an immutable automaton, so parallel
    # calls must give the same answers as sequential ones
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    dfa = m_series(7)
    expected = reset_length(dfa)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: reset_length(dfa), range(16)))
    assert results == [expected] * 16
    # several threads make the first search on a fresh automaton at once,
    # so they race to build its step tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            fresh = m_series(7)
            start = threading.Barrier(4)

            def first_search(_):
                start.wait(timeout=10)
                return reset_length(fresh)

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(first_search, range(4)))
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------
# one checked call
# ---------------------------------------------------------------------

def test_checked_reset_word_runs_each_search_once(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(reset_mod, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(reset_mod, name, wrapper)

    counted("shortest_reset_word")
    counted("inverse_layers")
    word = checked_reset_word(cerny(5))
    assert len(word) == 16
    assert calls == ["shortest_reset_word", "inverse_layers"]


def test_state_sets_are_built_only_when_the_layers_are_read(tmp_path, monkeypatch, capsys):
    built = []
    original = StateSet.from_mask.__func__

    def counted(cls, mask, n):
        built.append(mask)
        return original(cls, mask, n)

    monkeypatch.setattr(StateSet, "from_mask", classmethod(counted))
    path = tmp_path / "m4.json"
    path.write_text(to_json(m_series(4)))
    assert main(["layers", str(path)]) == 0
    assert capsys.readouterr().out == "full set reached at layer 7\n"
    assert len(checked_reset_word(a_odd(5))) == 39
    assert built == []
    assert main(["layers", str(path), "--trace"]) == 0
    assert capsys.readouterr().out == (
        "L_0: {q2}\n"
        "L_1: {q1, q2} {q1, q4}\n"
        "L_2: {q2, q4}\n"
        "L_3: {q1, q2, q4} {q1, q3, q4}\n"
        "L_4: {q2, q3}\n"
        "L_5: {q1, q2, q3}\n"
        "L_6: {q2, q3, q4}\n"
        "L_7: {q1, q2, q3, q4}\n"
        "full set reached at layer 7\n"
    )
    assert len(built) == 10


def test_disagreement_raises_consistency_error(monkeypatch):
    original = reset_mod.shortest_reset_word
    monkeypatch.setattr(
        reset_mod, "shortest_reset_word", lambda dfa: original(dfa) + Word([0])
    )
    with pytest.raises(ConsistencyError, match="forward search found 10"):
        checked_reset_word(cerny(4))
    monkeypatch.setattr(reset_mod, "shortest_reset_word", lambda dfa: None)
    with pytest.raises(ConsistencyError, match="forward search found None"):
        reset_length(cerny(4))


# ---------------------------------------------------------------------
# property tests of the split-table kernels against plain-set references
# ---------------------------------------------------------------------

def naive_layers(rows):
    """Layer families by the plain antichain rule over frozensets.

    L_0 is the mergeable singletons, or the full set when n = 1.  A
    candidate is kept when it is not a singleton, not inside a set kept
    in an earlier layer, and not a proper subset of a same-round candidate.
    Runs until the full set appears or a layer comes out empty.
    """
    n, k = len(rows[0]), len(rows)
    full = frozenset(range(1, n + 1))
    level = [
        frozenset([q]) for q in range(1, n + 1)
        if n == 1 or any(len(o_preimage(rows, {q}, a)) >= 2 for a in range(k))
    ]
    layers = [level]
    kept = list(level)
    while layers[-1] and full not in layers[-1]:
        candidates = {o_preimage(rows, s, a) for s in layers[-1] for a in range(k)}
        level = [
            s for s in candidates
            if len(s) > 1
            and not any(s <= t for t in kept)
            and not any(s < t for t in candidates)
        ]
        layers.append(level)
        kept.extend(level)
    return layers


KERNEL_SETTINGS = settings(max_examples=300, deadline=None)


@KERNEL_SETTINGS
@given(transition_rows(9))
@example([[1]])                 # n = 1: the high half is empty
@example([[2, 2], [1, 2]])      # n = 2: the high half is one bit
@example([[2, 3, 1]])           # a permutation never resets
def test_forward_search_matches_oracle(rows):
    dfa = Dfa(len(rows[0]), len(rows), rows)
    word = shortest_reset_word(dfa)
    length = o_reset_length(rows)
    if length is None:
        assert word is None
    else:
        assert len(word) == length
        assert len(o_image(rows, range(1, dfa.n + 1), word)) == 1


@KERNEL_SETTINGS
@given(transition_rows(9))
@example([[1]])
@example([[2, 2], [1, 2]])
@example([[2, 1, 1], [1, 3, 2]])
@example([[3, 1, 2, 4], [2, 4, 2, 1]])  # {q2, q4} and {q1, q2, q4} fresh in one round
@example([[2, 1, 2, 1, 3], [5, 3, 1, 2, 1]])  # round 3 nests {q1, q4} < {q1, q2, q4} < {q1..q4}
# round 7 meets {q1, q3, q4}, kept in round 5, and {q2, q3, q5}, covered in round 6
@example([[2, 6, 3, 4, 1, 6], [1, 4, 6, 3, 4, 5]])
def test_layers_match_naive_reference(rows):
    assert_layers_match_naive(Dfa(len(rows[0]), len(rows), rows))


def test_layers_match_naive_reference_beyond_nine_states():
    # 10 to 12 states: the state tables have 5- and 6-bit halves
    for dfa in (a_odd(6), b_series(5), conservative(6)):
        assert_layers_match_naive(dfa)


def test_state_tables_list_the_bits_of_a_mask():
    rng = random.Random(23)
    for n in range(1, MAX_STATES + 1):
        h, lo, hi = reset_mod._state_tables(n)
        low_bits = (1 << h) - 1
        for mask in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(50)]:
            states = lo[mask & low_bits] + hi[mask >> h]
            assert states == tuple(q for q in range(n) if mask >> q & 1)


def assert_layers_match_naive(dfa):
    rows = dfa.rows()
    trace = inverse_layers(dfa)
    naive = naive_layers(rows)
    full = frozenset(range(1, dfa.n + 1))
    assert len(trace.layers) == len(naive)
    for got, want in zip(trace.layers, naive):
        assert len(got) == len(want)
        assert {frozenset(s) for s in got} == set(want)
    found = next((i for i, level in enumerate(naive) if full in level), None)
    assert trace.found_at == found
