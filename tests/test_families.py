import hashlib
import json
from itertools import count

import pytest

from synchromata import (
    FAMILIES,
    MAX_STATES,
    FamilySpec,
    StateSet,
    a_even,
    a_odd,
    a_odd_sync_word,
    b_series,
    build_family,
    cerny,
    check_sync_word,
    conservative,
    greedy_extending_word,
    image,
    is_strongly_connected,
    is_synchronizing,
    m_prime_series,
    m_prime_series_sync_word,
    m_series,
    m_series_sync_word,
    named_subset,
    preimage,
    preimage_word,
    shortest_reset_word,
)


def is_permutation(dfa, a):
    return len(set(dfa.rows()[a])) == dfa.n


def orbit_lengths(dfa, a):
    seen = set()
    lengths = []
    for start in range(1, dfa.n + 1):
        if start in seen:
            continue
        orbit = []
        q = start
        while q not in seen:
            seen.add(q)
            orbit.append(q)
            q = dfa.step(q, a)
        if q in orbit:  # a genuine cycle, not a tail into an earlier orbit
            lengths.append(len(orbit) - orbit.index(q))
    return lengths


# ---------------------------------------------------------------------
# transition tables
# ---------------------------------------------------------------------

def test_a_even_b_row():
    dfa = a_even(4)
    assert dfa.rows()[1] == [1, 2, 3, 8, 1, 2, 4, 4]


def test_m_series_c_row():
    assert m_series(4).rows()[2] == [4, 2, 3, 1]
    assert m_prime_series(4).rows()[2] == [1, 2, 3, 1]


def test_parameter_validation(monkeypatch):
    import synchromata.families as families

    def boom(*args):
        raise AssertionError("a letter was built")

    # every refusal comes before any letter is built
    monkeypatch.setattr(families, "_cycle", boom)
    monkeypatch.setattr(families, "_letter", boom)
    for builder in (a_odd, a_even, conservative):
        with pytest.raises(ValueError):
            builder(2)
    with pytest.raises(ValueError):
        b_series(3)
    with pytest.raises(ValueError):
        m_series(2)
    with pytest.raises(ValueError):
        cerny(1)
    for name, (builder, low, _) in FAMILIES.items():
        with pytest.raises(ValueError, match=f"{name}.*{low} <= parameter"):
            builder(low - 1)
        for param in (MAX_STATES + 1, 10**9):
            with pytest.raises(ValueError, match=f"{name}.*parameter <= {MAX_STATES}"):
                builder(param)
    for word in (a_odd_sync_word, m_series_sync_word, m_prime_series_sync_word):
        with pytest.raises(ValueError, match="3 <= parameter"):
            word(2)
    with pytest.raises(ValueError, match=f"2m-1 <= {MAX_STATES} states"):
        a_odd_sync_word(13)


@pytest.mark.parametrize(
    "make",
    [lambda: FamilySpec("cerny", 2.5), lambda: build_family("cerny", 3.0)],
    ids=["spec-float", "build-float"],
)
def test_non_integer_parameters_are_refused(make):
    with pytest.raises(ValueError, match="integer"):
        make()


def test_family_tables_are_frozen():
    tables = {}
    for name, (builder, low, _) in FAMILIES.items():
        for param in count(low):
            try:
                dfa = builder(param)
            except ValueError:  # more states than the mask width
                break
            tables[f"{name}/{param}"] = dfa.rows()
    digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
    assert len(tables) == 106
    assert digest == "d1e687921d80759de2c1eee1ed1c12c679488a37d9a82a181803b9b192214bc7"


def test_family_spec_and_registry():
    assert build_family("m-series", 5) == m_series(5)
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("zeta", 4)
    with pytest.raises(ValueError, match="parameter"):
        FamilySpec("b-series", 3)


# ---------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------

def test_all_families_strongly_connected_and_synchronizing():
    members = (
        [a_odd(m) for m in range(3, 8)]
        + [a_even(m) for m in range(3, 7)]
        + [conservative(m) for m in range(3, 7)]
        + [b_series(m) for m in range(4, 8)]
        + [m_series(n) for n in range(3, 9)]
        + [m_prime_series(n) for n in range(3, 9)]
        + [cerny(n) for n in range(2, 8)]
    )
    for dfa in members:
        assert is_strongly_connected(dfa)
        assert is_synchronizing(dfa)


def test_letter_permutation_structure():
    for dfa in (a_odd(5), a_even(4), b_series(5)):
        assert is_permutation(dfa, 0)
        assert not is_permutation(dfa, 1)
    # the conservative family's a merges the feeder state into the upper
    # cycle; that non-injectivity is what lets a alone extend the cycle
    assert not is_permutation(conservative(4), 0)
    assert not is_permutation(conservative(4), 1)
    for dfa in (m_series(5), m_prime_series(5)):
        assert not is_permutation(dfa, 0)
        assert not is_permutation(dfa, 1)
    assert is_permutation(m_series(5), 2)
    assert not is_permutation(m_prime_series(5), 2)


def test_b_series_cycle_lengths_coprime():
    import math

    dfa = b_series(4)
    lengths = sorted(orbit_lengths(dfa, 0))
    assert lengths == [1, 3, 4]
    assert math.gcd(3, 4) == 1


def test_b_series_pair_compression():
    dfa = b_series(4)
    assert image(dfa, StateSet([4, 7], 8), "b") == StateSet([8], 8)


# ---------------------------------------------------------------------
# named subsets and covered states
# ---------------------------------------------------------------------

def test_named_subsets():
    spec = FamilySpec("a-odd", 5)
    upper = named_subset(spec, "upper")
    lower = named_subset(spec, "lower")
    assert upper == StateSet([6, 7, 8, 9], 9)
    assert lower == StateSet([1, 2, 3, 4, 5], 9)
    assert (upper | lower) == StateSet.full(9)
    assert len(upper & lower) == 0
    even = FamilySpec("a-even", 4)
    assert named_subset(even, "upper") == StateSet([5, 6, 7, 8], 8)
    with pytest.raises(ValueError, match="no named"):
        named_subset(FamilySpec("m-series", 5), "upper")
    with pytest.raises(ValueError, match="unknown subset"):
        named_subset(spec, "middle")


# ---------------------------------------------------------------------
# explicit words
# ---------------------------------------------------------------------

def test_a_odd_sync_word_shape_and_action():
    word = a_odd_sync_word(4)
    assert len(word) == 26
    assert str(word) == "babaaaab" + "aaabaaaab" * 2
    for m in range(3, 9):
        w = a_odd_sync_word(m)
        assert len(w) == 2 * m * m - 2 * m + 2
        assert check_sync_word(a_odd(m), w) == 1


def test_ternary_sync_words():
    w = m_series_sync_word(5)
    assert len(w) == 13
    assert str(w) == "acb" + "aaacb" * 2
    assert check_sync_word(m_series(5), w) is not None
    wp = m_prime_series_sync_word(5)
    assert len(wp) == 12
    assert check_sync_word(m_prime_series(5), wp) is not None


def test_greedy_extending_word_lengths():
    expected = {4: 14, 5: 22, 6: 31, 7: 44, 8: 56, 9: 74, 10: 89, 11: 112, 12: 130}
    for m, length in expected.items():
        word = greedy_extending_word(m)
        assert len(word) == length
        # the formula: m^2 - 3m/2 + 4 when even, m^2 - m + 2 when odd
        formula = m * m - 3 * m // 2 + 4 if m % 2 == 0 else m * m - m + 2
        assert length == formula


def test_greedy_word_extends_upper_block():
    for m in range(4, 13):
        dfa = a_odd(m)
        upper = named_subset(FamilySpec("a-odd", m), "upper")
        grown = preimage_word(dfa, upper, greedy_extending_word(m))
        assert len(grown) > len(upper)
        assert len(grown) >= m


def test_greedy_needs_m_at_least_4():
    # a_odd(13) has 25 states, over MAX_STATES
    for m in (3, 13, 4.0):
        with pytest.raises(ValueError):
            greedy_extending_word(m)


# ---------------------------------------------------------------------
# conservative family behavior
# ---------------------------------------------------------------------

def test_conservative_preimage_trap():
    for m in (4, 5, 6):
        dfa = conservative(m)
        n = 2 * m
        s = StateSet(range(m + 1, 2 * m), n)
        grown = StateSet(range(m + 1, 2 * m + 1), n)
        assert preimage(dfa, s, "a") == grown
        assert preimage(dfa, grown, "a") == grown
        assert preimage(dfa, grown, "b") == StateSet([m], n)
        # no other single letter grows the upper-cycle set
        assert len(preimage(dfa, s, "b")) <= len(s)


def test_cerny_reset_lengths():
    for n, expected in ((2, 1), (4, 9), (5, 16)):
        word = shortest_reset_word(cerny(n))
        assert word is not None and len(word) == expected


def test_a_even_upper_extension_grows_quadratically():
    from synchromata import shortest_extending_word

    lengths = []
    for m in range(4, 8):
        dfa = a_even(m)
        upper = named_subset(FamilySpec("a-even", m), "upper")
        lengths.append(len(shortest_extending_word(dfa, upper)))
    assert lengths == [17, 26, 37, 50]
    deltas = [b - a for a, b in zip(lengths, lengths[1:])]
    assert deltas == sorted(deltas) and deltas[0] > 1  # accelerating growth
