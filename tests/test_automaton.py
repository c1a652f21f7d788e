import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synchromata
from synchromata import (
    Dfa,
    StateSet,
    Word,
    a_odd,
    cerny,
    check_sync_word,
    image,
    is_compressible,
    is_strongly_connected,
    is_synchronizing,
    m_series,
    preimage,
    preimage_word,
    rank,
    reachable_images,
    shortest_avoiding_word,
    shortest_compressing_word,
    shortest_extending_word,
    shortest_reset_word,
)
from synchromata.automaton import MAX_STATES, _level_step, _step_tables, _synchronizes
from synchromata.io import from_json

from helpers import (
    o_image,
    o_preimage,
    o_preimage_word,
    o_reachable_images,
    o_reset_length,
    o_shortest_word,
    o_strongly_connected,
    random_dfa,
)
from strategies import transition_rows


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------

def test_single_state_self_loop():
    dfa = Dfa(1, 1, [[1]])
    assert dfa.n == 1 and dfa.k == 1
    assert dfa.step(1, 0) == 1


def test_a5_table_matches_definition():
    dfa = a_odd(3)
    assert dfa.rows() == [
        [2, 3, 1, 5, 4],
        [1, 2, 5, 1, 3],
    ]


def test_out_of_range_entry_names_letter_and_state():
    with pytest.raises(ValueError, match=r"letter a, state q2.*0"):
        Dfa(3, 1, [[2, 0, 1]])
    with pytest.raises(ValueError, match=r"letter b, state q3.*4"):
        Dfa(3, 2, [[2, 3, 1], [1, 2, 4]])


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: Dfa(2, 1, [[1.0, 2]]), "integer"),
        (lambda: Dfa(2, 1, [["1", 2]]), "integer"),
        (lambda: StateSet([1.5], 3), "integer"),
        (lambda: Word([1.5]), "integer"),
        (lambda: StateSet([1], 2.5), "integer"),
        (lambda: StateSet([1], True), "integer"),
        (lambda: StateSet.from_mask(1.5, 3), "integer"),
        (lambda: StateSet.from_mask(1, 2.0), "integer"),
        (lambda: StateSet.from_mask(True, 3), "integer"),
        (lambda: Dfa(2, 1, [[1, 2]], letters=["a"]), "string"),
    ],
    ids=["float-entry", "string-entry", "float-state", "float-letter", "float-n",
         "bool-n", "float-mask", "float-mask-n", "bool-mask", "list-letters"],
)
def test_non_integers_are_refused_where_they_enter(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: StateSet([], 0),
        lambda: StateSet([], -3),
        lambda: StateSet([], MAX_STATES + 1),
        lambda: StateSet.from_mask(0, -1),
        lambda: StateSet.from_mask(0, 0),
        lambda: StateSet.from_mask(0, MAX_STATES + 1),
    ],
    ids=["zero-n", "negative-n", "wide-n", "negative-mask-n", "zero-mask-n", "wide-mask-n"],
)
def test_state_sets_refuse_n_outside_the_mask_width(make):
    with pytest.raises(ValueError, match=rf"integer.*1\.\.{MAX_STATES}"):
        make()


def test_only_integers_are_members():
    s = StateSet([1], 3)
    assert 1 in s
    assert 1.5 not in s and True not in s and "1" not in s


def test_size_limits():
    with pytest.raises(ValueError, match="mask width"):
        Dfa(MAX_STATES + 1, 1, [[1] * (MAX_STATES + 1)])
    with pytest.raises(ValueError):
        Dfa(0, 1, [[]])
    with pytest.raises(ValueError):
        Dfa(2, 0, [])


def test_row_shape_validation():
    with pytest.raises(ValueError, match="rows"):
        Dfa(2, 2, [[1, 2]])
    with pytest.raises(ValueError, match="entries"):
        Dfa(2, 1, [[1, 2, 1]])


def test_inverse_tables_consistent_with_delta():
    rng = random.Random(7)
    for _ in range(20):
        dfa = random_dfa(rng, rng.randint(1, 7), rng.randint(1, 3))
        for a in range(dfa.k):
            for q in range(1, dfa.n + 1):
                target = dfa.step(q, a)
                assert q in StateSet.from_mask(dfa.inverse[a][target - 1], dfa.n)
        # every preimage entry really maps there
        for a in range(dfa.k):
            for p in range(1, dfa.n + 1):
                for q in StateSet.from_mask(dfa.inverse[a][p - 1], dfa.n):
                    assert dfa.step(q, a) == p


def test_dfa_immutable_and_comparable():
    dfa = a_odd(3)
    with pytest.raises(AttributeError):
        dfa.n = 7
    assert dfa == a_odd(3)
    assert dfa != a_odd(4)


# ---------------------------------------------------------------------
# Word and StateSet basics
# ---------------------------------------------------------------------

def test_word_basics():
    w = cerny(4).word("bab")
    assert list(w) == [1, 0, 1]
    assert str(w + Word([0]) * 3) == "babaaa"
    assert len(Word()) == 0
    assert cerny(4).word("") == Word()
    with pytest.raises(ValueError):
        cerny(4).word("bz")
    with pytest.raises(ValueError):
        Word([0, -1])


def test_stateset_basics():
    s = StateSet([1, 2, 5], 9)
    assert len(s) == 3 and 5 in s and 3 not in s
    assert s.states() == (1, 2, 5)
    assert str(s) == "{q1, q2, q5}"
    assert (s | StateSet([3], 9)).states() == (1, 2, 3, 5)
    assert (s - StateSet([2], 9)).states() == (1, 5)
    assert StateSet([1], 9) <= s and not s <= StateSet([1], 9)
    with pytest.raises(ValueError):
        StateSet([10], 9)
    with pytest.raises(ValueError):
        StateSet.from_mask(1 << 9, 9)


# ---------------------------------------------------------------------
# image / preimage / rank
# ---------------------------------------------------------------------

def test_image_of_full_set_after_opening_block():
    # in the 7-state odd family, b a b a^4 b maps everything into q1..q3
    dfa = a_odd(4)
    out = image(dfa, dfa.full_set(), "babaaaab")
    assert out == StateSet([1, 2, 3], 7)


def test_image_empty_word_is_identity():
    dfa = m_series(5)
    s = StateSet([2, 4], 5)
    assert image(dfa, s, "") == s


def test_image_m3_merging_word():
    dfa = m_series(3)
    assert image(dfa, dfa.full_set(), "acb") == StateSet([2], 3)


def test_preimage_upper_block_a9():
    dfa = a_odd(5)
    upper = StateSet([6, 7, 8, 9], 9)
    assert preimage(dfa, upper, "a") == upper
    assert preimage(dfa, upper, "b") == StateSet([5], 9)


def test_preimage_under_permutation_keeps_cardinality():
    dfa = a_odd(5)  # letter a permutes the states
    rng = random.Random(3)
    for _ in range(30):
        s = StateSet([q for q in range(1, 10) if rng.random() < 0.5], 9)
        assert len(preimage(dfa, s, "a")) == len(s)
        assert image(dfa, preimage(dfa, s, "a"), "a") == s


def test_preimage_word_seed_block():
    # the seed block of the greedy strategy pulls q5 back to {q1, q5, q6};
    # its lower-cycle part is exactly {q1, q5}
    dfa = a_odd(5)
    got = preimage_word(dfa, StateSet([5], 9), "baaaaaaabaa")
    assert got == StateSet([1, 5, 6], 9)
    assert got & StateSet(range(1, 6), 9) == StateSet([1, 5], 9)


@st.composite
def rows_mask_word(draw):
    rows = draw(transition_rows(MAX_STATES))
    mask = draw(st.integers(0, (1 << len(rows[0])) - 1))
    word = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    return rows, mask, word


@settings(max_examples=200, deadline=None)
@given(rows_mask_word())
# the high half of the split tables at the widest odd and even sizes
@example(([[q % 23 + 1 for q in range(1, 24)]], 0x7FF800, [0, 0]))
@example(([[24] * 24, [q % 24 + 1 for q in range(1, 25)]], 0xFFF001, [1, 0, 1]))
def test_preimage_word_against_set_oracle(case):
    rows, mask, word = case
    n, k = len(rows[0]), len(rows)
    dfa = Dfa(n, k, rows)
    states = frozenset(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
    s = StateSet(states, n)
    assert frozenset(image(dfa, s, word)) == o_image(rows, states, word)
    assert frozenset(preimage_word(dfa, s, word)) == o_preimage_word(rows, states, word)
    for a in range(k):
        assert frozenset(preimage(dfa, s, a)) == o_preimage(rows, states, a)
    reached = o_image(rows, range(1, n + 1), word)
    assert rank(dfa, word) == len(reached)
    assert check_sync_word(dfa, word) == (min(reached) if len(reached) == 1 else None)


def test_adjointness_randomized():
    # q lies in the preimage of S under w exactly when w sends q into S
    rng = random.Random(5)
    for _ in range(20):
        dfa = random_dfa(rng, rng.randint(2, 6), rng.randint(1, 3))
        s = StateSet([q for q in range(1, dfa.n + 1) if rng.random() < 0.5], dfa.n)
        w = [rng.randrange(dfa.k) for _ in range(rng.randint(0, 5))]
        pre = preimage_word(dfa, s, w)
        for q in range(1, dfa.n + 1):
            assert (q in pre) == (image(dfa, StateSet([q], dfa.n), w) <= s)


def test_preimage_composition_and_monotonicity():
    rng = random.Random(9)
    for _ in range(20):
        dfa = random_dfa(rng, rng.randint(2, 6), rng.randint(1, 3))
        s = StateSet([q for q in range(1, dfa.n + 1) if rng.random() < 0.5], dfa.n)
        t = s | StateSet([rng.randint(1, dfa.n)], dfa.n)
        u = [rng.randrange(dfa.k) for _ in range(rng.randint(0, 4))]
        v = [rng.randrange(dfa.k) for _ in range(rng.randint(0, 4))]
        assert preimage_word(dfa, s, list(u) + list(v)) == preimage_word(
            dfa, preimage_word(dfa, s, v), u
        )
        assert preimage_word(dfa, s, u) <= preimage_word(dfa, t, u)


def test_rank():
    assert rank(m_series(5), "") == 5
    assert rank(m_series(3), "acb") == 1
    from synchromata import a_odd_sync_word

    assert rank(a_odd(4), a_odd_sync_word(4)) == 1


def test_words_and_letters_are_validated_against_the_alphabet():
    dfa = a_odd(3)  # two letters
    with pytest.raises(ValueError):
        image(dfa, dfa.full_set(), "abc")
    with pytest.raises(ValueError):
        image(dfa, dfa.full_set(), Word([0, 2]))
    with pytest.raises(ValueError):
        preimage(dfa, dfa.full_set(), 2)
    with pytest.raises(ValueError):
        preimage(dfa, dfa.full_set(), "c")
    with pytest.raises(ValueError):
        image(dfa, StateSet([1], 7), "a")  # set sized for a different automaton


# ---------------------------------------------------------------------
# compressibility
# ---------------------------------------------------------------------

def test_compressible_pairs():
    from synchromata import b_series

    assert shortest_compressing_word(b_series(4), StateSet([4, 7], 8)) == Word([1])
    assert shortest_compressing_word(cerny(4), StateSet([1, 2], 4)) == Word([1])


def test_permutation_only_automaton_incompressible():
    # both letters permute, so every subset keeps its size forever
    dfa = Dfa(4, 2, [[2, 3, 4, 1], [2, 1, 4, 3]])
    for mask in range(3, 16):
        s = StateSet.from_mask(mask, 4)
        if len(s) >= 2:
            assert not is_compressible(dfa, s)


def test_compressible_precondition():
    with pytest.raises(ValueError):
        is_compressible(cerny(4), StateSet([1], 4))


# ---------------------------------------------------------------------
# the shared search kernel: exact words and the step-table cache
# ---------------------------------------------------------------------

@st.composite
def rows_and_subset(draw):
    rows = draw(transition_rows(8, max_k=5))
    return rows, draw(st.integers(1, (1 << len(rows[0])) - 1))


def _letters(word):
    return None if word is None else list(word)


@settings(max_examples=200, deadline=None)
@given(rows_and_subset())
@example(([[1]], 1))                    # n = 1: the start is already a singleton
@example(([[1, 1], [2, 2]], 3))         # both letters reset: the first one wins
@example(([[2, 3, 1]], 3))              # a permutation: no search reaches its goal
@example(([[2, 3, 3], [1, 3, 1]], 2))   # extending word "ba": its steps reversed
@example(([[2, 3, 1]] * 3 + [[1, 1, 3], [2, 2, 2]], 7))  # only the last letters merge
def test_search_words_match_frozenset_oracle(case):
    rows, mask = case
    n, k = len(rows[0]), len(rows)
    dfa = Dfa(n, k, rows)
    full = range(1, n + 1)
    s = frozenset(q for q in full if mask >> (q - 1) & 1)
    subset = StateSet(s, n)
    assert _letters(shortest_reset_word(dfa)) == o_shortest_word(
        rows, full, lambda t: len(t) == 1)
    for q in full:
        assert _letters(shortest_avoiding_word(dfa, q)) == o_shortest_word(
            rows, full, lambda t: q not in t)
    assert set(reachable_images(dfa)) == {StateSet(t, n) for t in o_reachable_images(rows)}
    if len(s) >= 2:
        assert _letters(shortest_compressing_word(dfa, subset)) == o_shortest_word(
            rows, s, lambda t: len(t) < len(s))
    if len(s) < n:
        assert _letters(shortest_extending_word(dfa, subset)) == o_shortest_word(
            rows, s, lambda t: len(t) > len(s), forward=False)


def test_searches_at_full_width_with_a_large_alphabet():
    # Every search links a mask to its predecessor alone, so the link fits
    # for any number of letters.  Here 128 named letters fix every state,
    # y sends q2..q24 to q2 and z sends q2 to q1: yz resets, and each of
    # y and z alone keeps a state out of the image.
    n, names = MAX_STATES, [chr(0x100 + i) for i in range(130)]
    fixed = list(range(1, n + 1))
    y, z = [1] + [2] * (n - 1), [1, 1] + fixed[2:]
    dfa = from_json(json.dumps(
        {"n": n, "alphabet": names, "delta": [fixed] * 128 + [y, z]}))
    assert dfa.word_str(shortest_reset_word(dfa)) == names[128] + names[129]
    assert dfa.word_str(shortest_avoiding_word(dfa, 2)) == names[129]
    assert dfa.word_str(shortest_avoiding_word(dfa, n)) == names[128]
    assert shortest_avoiding_word(dfa, 1) is None


def test_huge_alphabet_past_the_unrolled_letters():
    # 1 998 letters fix every state, the last two reset as "yz" above: the
    # letters past the 26 written out are stepped by the loop of the step
    n, k = 3, 2000
    rows = [[1, 2, 3]] * (k - 2) + [[1, 2, 2], [1, 1, 3]]
    names = "".join(chr(0x100 + i) for i in range(k))
    dfa = Dfa(n, k, rows, names)
    full = range(1, n + 1)
    assert _letters(shortest_reset_word(dfa)) == o_shortest_word(
        rows, full, lambda t: len(t) == 1) == [k - 2, k - 1]
    for q in full:
        assert _letters(shortest_avoiding_word(dfa, q)) == o_shortest_word(
            rows, full, lambda t: q not in t)
    # past 26 letters the compiled step stops growing, and every larger
    # alphabet shares the one compiled for 27
    size = [len(_level_step(k).__code__.co_code) for k in (25, 26, 27, 28, 2000)]
    assert size[0] < size[1] < size[2] == size[3] == size[4]
    _level_step.cache_clear()
    shortest_reset_word(dfa)
    shortest_reset_word(Dfa(n, 30, rows[-30:], names[:30]))
    assert _level_step.cache_info().currsize == 1


def test_level_step_is_compiled_once_per_alphabet_size():
    _level_step.cache_clear()
    twins = [Dfa(4, 4, [[2, 3, 4, 1], [1, 1, 3, 4], [2, 2, 3, 4], [4, 3, 2, 1]]),
             cerny(3), Dfa(5, 4, [[2, 3, 4, 5, 1], [1, 1, 3, 4, 5]] * 2), cerny(6)]
    for dfa in twins:
        shortest_reset_word(dfa)
        shortest_extending_word(dfa, StateSet([1], dfa.n))
    assert _level_step.cache_info().currsize == 2  # k = 4 and k = 2
    assert _level_step.cache_info().misses == 2
    assert _level_step(4) is _level_step(4) and _level_step(4) is not _level_step(2)


def test_no_step_is_compiled_at_import():
    src = Path(synchromata.__file__).resolve().parent.parent
    script = ("import synchromata.cli, synchromata.automaton as a\n"
              "assert a._level_step.cache_info().currsize == 0\n")
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=str(src)))


def test_step_tables_are_a_cache_outside_equality():
    rows = [[2, 3, 4, 1], [1, 1, 3, 4]]
    cached, fresh = Dfa(4, 2, rows), Dfa(4, 2, rows)
    word = shortest_reset_word(cached)
    shortest_extending_word(cached, StateSet([1], 4))
    assert _step_tables(cached, True) is _step_tables(cached, True)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert {cached: 1}[fresh] == 1
    with pytest.raises(AttributeError):
        cached._steps = [None, None]
    # a searched automaton still copies and pickles, and its twins search alike
    for twin in (copy.copy(cached), copy.deepcopy(cached),
                 pickle.loads(pickle.dumps(cached))):
        assert twin == fresh and hash(twin) == hash(fresh)
        assert shortest_reset_word(twin) == word


@pytest.mark.parametrize("value", [
    cerny(4), a_odd(5), Dfa(2, 1, [[2, 1]], "x"),
    StateSet([1, 3], 4), StateSet([], 1), StateSet.full(24),
    Word([0, 1, 1]), Word(),
])
def test_copies_and_pickles_are_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_pickle_leaves_the_step_tables_behind():
    rows = a_odd(5).rows()
    cached = Dfa(9, 2, rows)
    word = shortest_reset_word(cached)
    shortest_extending_word(cached, StateSet([1], 9))
    assert pickle.dumps(cached) == pickle.dumps(Dfa(9, 2, rows))
    twin = pickle.loads(pickle.dumps(cached))
    assert shortest_reset_word(twin) == word


# ---------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------

def test_strongly_connected_families():
    from synchromata import b_series

    assert is_strongly_connected(a_odd(5))
    assert is_strongly_connected(b_series(4))


def test_not_strongly_connected():
    dfa = Dfa(2, 1, [[1, 2]])  # two separate self-loops
    assert not is_strongly_connected(dfa)


@settings(max_examples=300, deadline=None)
@given(transition_rows(10))
@example([[2, 3, 2]])             # q1 reaches every state, none reaches q1
@example([[1, 1, 2]])             # every state reaches q1, q1 reaches no other
@example([[2, 3, 1], [1, 1, 1]])  # a 3-cycle and a reset letter: connected
def test_strongly_connected_matches_reachability_oracle(rows):
    dfa = Dfa(len(rows[0]), len(rows), rows)
    assert is_strongly_connected(dfa) == o_strongly_connected(rows)


def test_synchronizing_predicate():
    assert is_synchronizing(m_series(5))
    assert not _synchronizes(m_series(5), [1, 2])  # without a
    assert is_synchronizing(Dfa(1, 1, [[1]]))


@settings(max_examples=300, deadline=None)
@given(transition_rows(7))
@example([[1]])                                     # n = 1: already synchronized
@example([[2, 3, 1], [2, 1, 3]])                    # every letter a permutation
@example([[1, 2, 3], [1, 1, 3]])                    # an identity beside a merge
@example([[2, 3, 4, 5, 6, 1], [2, 2, 3, 4, 5, 6]])  # cerny(6): 36 visits
@example([[2, 2, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]])  # cerny(6), merging letter first
def test_synchronizing_iff_reset_word_exists(rows):
    dfa = Dfa(len(rows[0]), len(rows), rows)
    assert is_synchronizing(dfa) == (o_reset_length(rows) is not None)


# ---------------------------------------------------------------------
# leaving a letter out
# ---------------------------------------------------------------------

def test_removing_swap_letter_isolates_q1():
    # without c, no state maps into q1 in the ternary series
    dfa = m_series(5)
    assert dfa.letters[2] == "c"
    assert dfa.inverse[0][0] | dfa.inverse[1][0] == 0


def test_remove_letter_breaks_a_odd():
    dfa = a_odd(5)
    assert dfa.letters == "ab"
    assert not _synchronizes(dfa, [1])
