import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synchromata import (
    ConsistencyError,
    Dfa,
    FamilySpec,
    StateSet,
    Word,
    a_odd,
    b_series,
    cerny,
    conservative,
    extension_profile,
    image_extension_bound,
    is_irreducibly_synchronizing,
    m_prime_series,
    m_series,
    named_subset,
    preimage_word,
    reachable_images,
    shortest_avoiding_word,
    shortest_extending_word,
)

import synchromata.automaton as automaton_mod
from synchromata.automaton import _union_table
from synchromata.cli import main
from synchromata.extension import _pull, _pull_program
from synchromata.io import to_json
from synchromata.replication import greedy_length_formula

from helpers import (
    no_shorter_extending_word,
    o_image_bound,
    o_image_extension_length,
    o_profile,
    o_profile_witness,
    o_reachable_images,
    o_reset_length,
    random_dfa,
)
from strategies import transition_rows


# ---------------------------------------------------------------------
# shortest extending words
# ---------------------------------------------------------------------

def test_b_series_pair_extension():
    dfa = b_series(4)
    pair = StateSet([1, 2], 8)
    word = shortest_extending_word(dfa, pair)
    assert len(word) == 11
    grown = preimage_word(dfa, pair, word)
    assert grown == StateSet([1, 4, 7], 8)
    assert len(grown) == 3
    assert no_shorter_extending_word(dfa, [1, 2], 11)


def test_upper_block_extension_bracket():
    dfa = a_odd(5)
    word = shortest_extending_word(dfa, named_subset(FamilySpec("a-odd", 5), "upper"))
    assert word is not None and 7 <= len(word) <= 22
    assert len(word) == 22


@pytest.mark.parametrize("m", range(4, 13))
def test_a_odd_upper_extension_is_the_greedy_length(m):
    dfa = a_odd(m)
    upper = named_subset(FamilySpec("a-odd", m), "upper")
    word = shortest_extending_word(dfa, upper)
    assert len(word) == greedy_length_formula(m)
    assert len(preimage_word(dfa, upper, word)) > len(upper)


@pytest.mark.parametrize("m", range(4, 10))
def test_a_odd_profile_maximum_is_the_upper_block(m):
    dfa = a_odd(m)
    upper = named_subset(FamilySpec("a-odd", m), "upper")
    report = extension_profile(dfa)
    assert report.max_length == greedy_length_formula(m)
    assert report.witness_set == upper
    assert report.witness_word == shortest_extending_word(dfa, upper)


def test_single_state_extension():
    word = shortest_extending_word(cerny(4), StateSet([2], 4))
    assert word == Word([1])


def test_extension_preconditions():
    dfa = cerny(4)
    with pytest.raises(ValueError):
        shortest_extending_word(dfa, StateSet([], 4))
    with pytest.raises(ValueError):
        shortest_extending_word(dfa, StateSet.full(4))


def test_extending_words_are_minimal_and_valid():
    rng = random.Random(37)
    checked = 0
    while checked < 40:
        dfa = random_dfa(rng, rng.randint(2, 6), 2)
        states = [q for q in range(1, dfa.n + 1) if rng.random() < 0.4]
        if not states or len(states) == dfa.n:
            continue
        word = shortest_extending_word(dfa, StateSet(states, dfa.n))
        if word is None or len(word) > 9:
            continue
        checked += 1
        assert len(preimage_word(dfa, StateSet(states, dfa.n), word)) > len(states)
        assert no_shorter_extending_word(dfa, states, len(word))


# ---------------------------------------------------------------------
# extension profile
# ---------------------------------------------------------------------

def test_profile_of_nine_state_family():
    report = extension_profile(a_odd(5))
    assert report.max_length == 22
    assert report.per_cardinality_max == (7, 14, 17, 22, 16, 12, 8, 7)
    assert len(report.witness_set) == 4
    assert report.witness_word is not None and len(report.witness_word) == 22
    grown = preimage_word(a_odd(5), report.witness_set, report.witness_word)
    assert len(grown) > len(report.witness_set)


def test_profile_of_seven_state_family():
    report = extension_profile(a_odd(4))
    assert report.per_cardinality_max == (6, 11, 14, 10, 7, 6)
    assert report.max_length == 14


@st.composite
def small_automata(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, 3))
    row = st.lists(st.integers(1, n), min_size=n, max_size=n)
    return Dfa(n, k, draw(st.lists(row, min_size=k, max_size=k)))


@settings(max_examples=200, deadline=None)
@given(small_automata())
@example(Dfa(3, 2, [[2, 3, 1], [2, 1, 3]]))  # permutations: nothing extends
@example(Dfa(2, 1, [[2, 2]]))  # smallest synchronizing lattice
# every proper subset (and image) grows in one letter: all sizes tie at 1
@example(Dfa(3, 3, [[1, 1, 1], [2, 2, 2], [3, 3, 3]]))
# every singleton ties at 1, but {1, 2} never grows
@example(Dfa(4, 2, [[1, 1, 3, 3], [2, 2, 4, 4]]))
# a three-state block and two states outside the image of letter a
@example(Dfa(5, 2, [[2, 2, 2, 5, 4], [2, 3, 4, 5, 1]]))
# an identity letter (an empty pull program) beside a cyclic one
@example(Dfa(4, 3, [[1, 2, 3, 4], [2, 3, 4, 1], [2, 2, 3, 4]]))
# profile (2, 5, 2): an iteration without hits comes before the last hit
# of size 2, so a size may not close at the first such iteration
@example(Dfa(4, 2, [[2, 3, 1, 1], [4, 2, 2, 4]]))
# sizes 2, 3 and 5 stop growing before size 4 gains its last hit, and
# close unreached only at the fixpoint
@example(Dfa(6, 2, [[3, 3, 1, 5, 4, 5], [3, 3, 2, 6, 3, 5]]))
# nine states: eight open sizes need four planes, and a count of 8 sets
# only the top one
@example(Dfa(9, 2, [[3, 6, 5, 7, 1, 2, 7, 4, 8], [8, 1, 6, 3, 3, 4, 9, 7, 9]]))
def test_lattice_reports_match_oracles(dfa):
    profile = extension_profile(dfa)
    per_card = o_profile(dfa)
    assert list(profile.per_cardinality_max) == per_card
    assert profile.max_length == (None if None in per_card else max(per_card))
    assert frozenset(profile.witness_set) == o_profile_witness(dfa)
    if o_reset_length(dfa.rows()) is None:
        with pytest.raises(ValueError, match="synchronizing"):
            image_extension_bound(dfa)
        return
    count, length, worst = o_image_bound(dfa)
    report = image_extension_bound(dfa)
    assert report.reachable_image_count == count
    assert report.worst_length == length
    assert frozenset(report.worst_set) == worst
    assert report.constant_witness == Fraction(length, dfa.n)


@st.composite
def letter_and_family(draw):
    """n, one letter's transition row and a family x of subsets (bit T per mask)."""
    n = draw(st.integers(1, 8))
    row = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return n, row, draw(st.integers(0, (1 << (1 << n)) - 1))


@settings(max_examples=300, deadline=None)
@given(letter_and_family())
@example((5, [2, 2, 2, 5, 4], 0xB38F0F55))  # a three-state block, two states lost
@example((5, [5, 1, 2, 3, 4], 0xB38F0F55))  # one cycle: swaps only
@example((4, [1, 2, 3, 4], 0x9A3C))  # the identity: an empty program
@example((5, [3, 3, 3, 3, 3], 0xB38F0F55))  # a constant letter: n - 1 copies, no swap
@example((4, [3, 4, 4, 3], 0x9A3C))  # two blocks placed by swaps: 4 steps
def test_pull_program_reads_each_mask_through_the_letter(case):
    n, row, x = case
    inv = Dfa(n, 1, [row]).inverse[0]
    lows = [sum(1 << t for t in range(1 << n) if not t >> q & 1) for q in range(n)]
    copies, swaps = program = _pull_program(inv, lows)
    assert len(copies) + len(swaps) <= n
    if row == list(range(1, n + 1)):
        assert program == ([], [])
    elif len(set(row)) == 1:
        assert len(copies) == n - 1 and not swaps
    y = _pull(x, program)
    table = _union_table(inv)  # table[T] = T·a⁻¹
    assert [y >> t & 1 for t in range(1 << n)] == [x >> table[t] & 1 for t in range(1 << n)]


def test_profile_finite_iff_synchronizing_for_uniform_indegree():
    # letters with uniform combined in-degree: synchronizing case
    balanced = Dfa(3, 2, [[1, 1, 2], [3, 3, 2]])
    report = extension_profile(balanced)
    assert report.max_length is not None
    # all-permutation automaton: nothing is ever extendable
    rigid = Dfa(3, 2, [[2, 3, 1], [2, 1, 3]])
    report = extension_profile(rigid)
    assert report.max_length is None
    assert report.witness_word is None
    assert all(v is None for v in report.per_cardinality_max)


def test_lattice_reports_refuse_only_a_single_state(monkeypatch):
    import synchromata.extension as ext

    def boom(*args):
        raise AssertionError("search ran")

    # the refusal comes before any search or table build
    monkeypatch.setattr(ext, "_worst_distances", boom)
    monkeypatch.setattr(ext, "_image_links", boom)
    monkeypatch.setattr(ext, "is_synchronizing", boom)
    for report in (extension_profile, image_extension_bound):
        with pytest.raises(ValueError, match="single-state"):
            report(Dfa(1, 1, [[1]]))


def test_lattice_reports_search_above_20_states(monkeypatch):
    import synchromata.extension as ext

    class Searched(Exception):
        pass

    def searched(*args):
        raise Searched

    # Dfa's MAX_STATES is the one state limit: 21 states reach the search
    monkeypatch.setattr(ext, "_worst_distances", searched)
    monkeypatch.setattr(ext, "_image_links", searched)
    for report in (extension_profile, image_extension_bound):
        with pytest.raises(Searched):
            report(cerny(21))


def test_profile_witness_word_must_match_the_kernel(monkeypatch, tmp_path, capsys):
    import synchromata.extension as ext

    original = ext._worst_distances
    monkeypatch.setattr(ext, "_worst_distances", lambda dfa, queries: [
        (None if d is None else d - 1, s) for d, s in original(dfa, queries)])
    dfa = a_odd(6)  # 11 states
    with pytest.raises(ConsistencyError, match="the lattice kernel says"):
        extension_profile(dfa)
    path = tmp_path / "a6.json"
    path.write_text(to_json(dfa))
    assert main(["profile", str(path)]) == 1
    assert capsys.readouterr().err.count("error:") == 1


def test_profiles_of_odd_family_stay_finite():
    for m in (5, 6):
        report = extension_profile(a_odd(m))
        assert report.max_length is not None
        assert all(v is not None for v in report.per_cardinality_max)


# ---------------------------------------------------------------------
# reachable images
# ---------------------------------------------------------------------

def test_reachable_images_of_b_series():
    images = reachable_images(b_series(4))
    assert len(images) == 240
    assert images[0] == StateSet.full(8)
    assert StateSet([1, 2], 8) in images


def test_upper_block_is_not_an_image():
    dfa = a_odd(5)
    assert named_subset(FamilySpec("a-odd", 5), "upper") not in reachable_images(dfa)


# ---------------------------------------------------------------------
# image-extension bound
# ---------------------------------------------------------------------

@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_image_extension_bound_b_series(m):
    report = image_extension_bound(b_series(m))
    assert report.reachable_image_count == 4 ** m - 2 ** m
    assert report.worst_length == 3 * m - 1
    assert report.worst_set == StateSet([m - 3, m - 2], 2 * m)
    assert report.constant_witness == Fraction(3 * m - 1, 2 * m)


def test_image_extension_bound_ternary():
    report = image_extension_bound(m_series(4))
    assert 1 <= report.worst_length <= 8


def test_image_extension_needs_synchronizing_input():
    spinner = Dfa(3, 1, [[2, 3, 1]])
    with pytest.raises(ValueError, match="synchronizing"):
        image_extension_bound(spinner)


# ---------------------------------------------------------------------
# avoiding words
# ---------------------------------------------------------------------

def test_avoiding_loop_state_of_b_series():
    word = shortest_avoiding_word(b_series(4), 8)
    assert len(word) == 10
    word = shortest_avoiding_word(b_series(5), 10)
    assert len(word) == 12


def test_avoiding_unreachable_entry_state():
    assert shortest_avoiding_word(m_series(4), 1) == Word([0])


def test_avoiding_impossible_in_permutation_automaton():
    spinner = Dfa(3, 1, [[2, 3, 1]])
    for q in (1, 2, 3):
        assert shortest_avoiding_word(spinner, q) is None
    with pytest.raises(ValueError):
        shortest_avoiding_word(spinner, 4)


def test_avoiding_words_examined_against_images():
    from synchromata import image

    dfa = b_series(4)
    word = shortest_avoiding_word(dfa, 8)
    assert 8 not in image(dfa, dfa.full_set(), word)


def test_avoiding_words_are_minimal_by_enumeration():
    from itertools import product

    from synchromata import image

    from helpers import o_image

    cases = [(b_series(4), 8), (m_series(4), 1), (m_series(5), 3)]
    rng = random.Random(71)
    while len(cases) < 10:
        dfa = random_dfa(rng, rng.randint(2, 6), 2)
        q = rng.randint(1, dfa.n)
        if shortest_avoiding_word(dfa, q) is not None:
            cases.append((dfa, q))
    for dfa, q in cases:
        word = shortest_avoiding_word(dfa, q)
        if word is None or len(word) > 10:
            continue
        assert q not in image(dfa, dfa.full_set(), word)
        rows = dfa.rows()
        everyone = range(1, dfa.n + 1)
        for l in range(len(word)):
            for attempt in product(range(dfa.k), repeat=l):
                assert q in o_image(rows, everyone, attempt)


# ---------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------

def test_ternary_series_irreducible():
    assert is_irreducibly_synchronizing(m_series(6))
    assert is_irreducibly_synchronizing(m_prime_series(6))


def test_duplicate_letter_is_reducible():
    base = cerny(4)
    rows = base.rows()
    padded = Dfa(4, 3, rows + [rows[1]])
    assert not is_irreducibly_synchronizing(padded)


def test_irreducibility_needs_synchronizing_input():
    spinner = Dfa(3, 1, [[2, 3, 1]])
    with pytest.raises(ValueError):
        is_irreducibly_synchronizing(spinner)


@settings(max_examples=300, deadline=None)
@given(transition_rows(8))
@example([[1]])                               # n = 1, k = 1: nothing to drop
@example([[2, 3, 1], [1, 1, 3]])              # both letters needed
@example([[2, 3, 1], [2, 2, 3], [2, 2, 3]])   # a duplicate letter: reducible
def test_irreducibility_matches_dropped_letter_oracle(rows):
    dfa = Dfa(len(rows[0]), len(rows), rows)
    if o_reset_length(rows) is None:
        with pytest.raises(ValueError):
            is_irreducibly_synchronizing(dfa)
        return
    dropped = [rows[:a] + rows[a + 1:] for a in range(len(rows))]
    want = len(rows) == 1 or all(o_reset_length(r) is None for r in dropped)
    assert is_irreducibly_synchronizing(dfa) == want
    # the preimage tables are built now, so leaving letters out builds none
    build = automaton_mod._split_tables
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton_mod, "_split_tables",
                   lambda *args: built.append(args) or build(*args))
        assert is_irreducibly_synchronizing(dfa) == want
    assert built == []


def test_three_state_ternary_members_are_reducible():
    # dropping a still leaves a reset word (bcb), so these two are the
    # only members of the series that are not irreducible
    assert not is_irreducibly_synchronizing(m_series(3))
    assert not is_irreducibly_synchronizing(m_prime_series(3))


# ---------------------------------------------------------------------
# conservative family growth
# ---------------------------------------------------------------------

def test_conservative_trap_lengths():
    expected = {4: 15, 5: 23, 6: 33}
    for m, length in expected.items():
        dfa = conservative(m)
        grown = StateSet(range(m + 1, 2 * m + 1), 2 * m)
        word = shortest_extending_word(dfa, grown)
        assert len(word) == length


# ---------------------------------------------------------------------
# structural facts behind the worst cases
# ---------------------------------------------------------------------

def test_covered_sets_need_m_letters_to_grow_their_lower_part():
    # in the odd two-cycle family, a set whose upper states all stay
    # inside it under b cannot grow its lower-cycle part in fewer than m
    # preimage steps; exhaustive over every all-covered subset
    from collections import deque

    from synchromata.automaton import preimage_mask

    for m in (3, 4, 5):
        dfa = a_odd(m)
        n = dfa.n
        lower_mask = (1 << m) - 1
        for mask in range(1, 1 << n):
            if mask == dfa.full_mask:
                continue
            s = StateSet.from_mask(mask, n)
            if not all(dfa.step(q, 1) in s for q in s if q > m):
                continue
            card = len(s)
            seen = {mask}
            queue = deque([(mask, 0)])
            found = None
            while queue and found is None:
                cur, d = queue.popleft()
                for a in range(2):
                    nxt = preimage_mask(dfa, cur, a)
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    if bin(nxt & lower_mask).count("1") > card:
                        found = d + 1
                        break
                    queue.append((nxt, d + 1))
            assert found is None or found >= m, (m, s, found)


def test_image_extension_report_matches_set_oracle():
    # the frozenset oracle gives the whole report; the image-aware length
    # never exceeds the plain extension length when the plain witness
    # ends in a superset of a larger reachable image
    dfa = b_series(4)
    rows = dfa.rows()
    reach = o_reachable_images(rows)
    for s in reach:
        if len(s) == dfa.n:
            continue
        found = o_image_extension_length(rows, reach, s)
        assert found is not None
        plain = shortest_extending_word(dfa, StateSet(sorted(s), 8))
        if plain is not None:
            final = frozenset(preimage_word(dfa, StateSet(sorted(s), 8), plain))
            if any(len(t) > len(s) and t <= final for t in reach):
                assert found <= len(plain)
    report = image_extension_bound(dfa)
    assert (report.reachable_image_count, report.worst_length,
            frozenset(report.worst_set)) == o_image_bound(dfa) == (240, 11, {1, 2})
    # the worst pair's endpoint is itself a reachable image, so both
    # extension notions coincide there
    assert frozenset([1, 4, 7]) in reach
