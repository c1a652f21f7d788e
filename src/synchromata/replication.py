"""Named pass/fail checks for every quantitative claim the library reproduces.

Each check builds the family fresh, computes the quantity with the
analysis modules and compares against the expected value.  Exact claims
carry a single expected integer; asymptotic claims are rendered as
finite bracket or monotonicity checks over the desk-scale range, which
is evidence, not proof.  Derived expectations (no closed form) were
computed once with the brute-force oracles and are frozen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .automaton import Word, is_strongly_connected, is_synchronizing
from .extension import (
    extension_profile,
    image_extension_bound,
    is_irreducibly_synchronizing,
    shortest_avoiding_word,
    shortest_extending_word,
)
from .families import (
    FamilySpec,
    a_odd,
    a_odd_sync_word,
    b_series,
    cerny,
    conservative,
    greedy_extending_word,
    m_prime_series,
    m_prime_series_sync_word,
    m_series,
    m_series_sync_word,
    named_subset,
)
from .reset import check_sync_word, inverse_layers, reset_length
from .automaton import StateSet, preimage, preimage_word

Expected = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one checked claim: computed vs expected with a witness."""

    claim_id: str
    parameter: int
    expected: Expected
    computed: int
    status: str  # pass | fail | bound-ok
    witness: Optional[Word] = None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "bound-ok")

    def to_dict(self) -> dict:
        expected = list(self.expected) if isinstance(self.expected, tuple) else self.expected
        return {
            "claim_id": self.claim_id,
            "parameter": self.parameter,
            "expected": expected,
            "computed": self.computed,
            "status": self.status,
            "witness": None if self.witness is None else str(self.witness),
        }


def _exact(claim_id, param, expected, computed, witness=None, gate=True):
    ok = gate and computed == expected
    return ClaimResult(claim_id, param, expected, computed,
                       "pass" if ok else "fail", witness)


def _bound(claim_id, param, lo, hi, computed, witness=None, gate=True):
    ok = gate and lo <= computed <= hi
    return ClaimResult(claim_id, param, (lo, hi), computed,
                       "bound-ok" if ok else "fail", witness)


def _prop(claim_id, param, holds):
    return ClaimResult(claim_id, param, 1, int(holds),
                       "pass" if holds else "fail")


def upper_extension_lower_bound(m: int) -> int:
    """Proven lower bound 2 + m * ceil((m-3)/2) for extending the upper block."""
    return 2 + m * ((m - 2) // 2)


def greedy_length_formula(m: int) -> int:
    """Length of the greedy extending word: m^2-3m/2+4 even, m^2-m+2 odd."""
    if m % 2 == 0:
        return m * m - 3 * m // 2 + 4
    return m * m - m + 2


#: Exact shortest extending lengths for the conservative family's grown
#: set (upper cycle plus the feeder state), frozen from the BFS oracle.
CONSERVATIVE_TRAP_LENGTHS = {4: 15, 5: 23, 6: 33, 7: 45}


def check_a_odd_sync(m: int) -> list[ClaimResult]:
    """The explicit word resets a_odd(m) to q_1 with length 2m^2-2m+2."""
    if not 3 <= m <= 8:
        raise ValueError(f"supported range is 3 <= m <= 8, got {m}")
    word = a_odd_sync_word(m)
    target = check_sync_word(a_odd(m), word)
    return [
        _exact("a-odd-sync-word", m, 2 * m * m - 2 * m + 2, len(word),
               witness=word, gate=target == 1)
    ]


def check_upper_extension(m: int) -> list[ClaimResult]:
    """Shortest extension of the upper block: the bracket and its exact value.

    The length sits in the proven bracket, and it equals the greedy
    length exactly, the abstract's n^2/4 + O(n) (checked for m <= 12).
    The greedy word must itself be a valid extending word of exactly the
    bracket's upper length.
    """
    if not 4 <= m <= 12:
        raise ValueError(f"supported range is 4 <= m <= 12, got {m}")
    dfa = a_odd(m)
    upper = named_subset(FamilySpec("a-odd", m), "upper")
    word = shortest_extending_word(dfa, upper)
    assert word is not None
    lo = upper_extension_lower_bound(m)
    hi = greedy_length_formula(m)
    greedy = greedy_extending_word(m)
    valid = len(preimage_word(dfa, upper, greedy)) > len(upper)
    return [
        _bound("a-odd-extension-bracket", m, lo, hi, len(word), witness=word),
        _exact("a-odd-upper-extension", m, hi, len(word), witness=word),
        _exact("a-odd-greedy-upper", m, hi, len(greedy), witness=greedy,
               gate=valid),
    ]


def check_profile_maximum(m: int) -> list[ClaimResult]:
    """The upper block is a worst subset of the whole a_odd(m) lattice.

    The extension profile's maximum equals the greedy length, and the
    profile's witness (its first worst subset) is the upper block.
    """
    if not 4 <= m <= 8:
        raise ValueError(f"supported range is 4 <= m <= 8, got {m}")
    report = extension_profile(a_odd(m))
    upper = named_subset(FamilySpec("a-odd", m), "upper")
    computed = -1 if report.max_length is None else report.max_length
    return [
        _exact("a-odd-profile-max", m, greedy_length_formula(m), computed,
               witness=report.witness_word, gate=report.witness_set == upper)
    ]


def check_quadratic_growth(max_m: int = 7) -> list[ClaimResult]:
    """Finite evidence for quadratic growth of the upper-block extension.

    Checks L(m)/m^2 within [0.4, 1.1] for m = 5..max_m and that L is
    strictly increasing from m = 4 on.
    """
    if not 5 <= max_m <= 8:
        raise ValueError(f"supported range is 5 <= max_m <= 8, got {max_m}")
    lengths = {}
    for m in range(4, max_m + 1):
        dfa = a_odd(m)
        upper = named_subset(FamilySpec("a-odd", m), "upper")
        word = shortest_extending_word(dfa, upper)
        assert word is not None
        lengths[m] = len(word)
    out = []
    for m in range(5, max_m + 1):
        lo = -(-4 * m * m // 10)  # ceil(0.4 m^2)
        hi = 11 * m * m // 10
        out.append(_bound("a-odd-quadratic-ratio", m, lo, hi, lengths[m]))
    increasing = all(lengths[m] > lengths[m - 1] for m in range(5, max_m + 1))
    out.append(_prop("a-odd-growth", max_m, increasing))
    return out


def check_conservative(m: int) -> list[ClaimResult]:
    """The conservative family's one-step extension leads into a long trap.

    Verifies the two preimage set equalities and the frozen exact length
    of the shortest word extending the grown set.
    """
    if m not in CONSERVATIVE_TRAP_LENGTHS:
        raise ValueError(f"supported m: {sorted(CONSERVATIVE_TRAP_LENGTHS)}, got {m}")
    dfa = conservative(m)
    n = 2 * m
    s = StateSet(range(m + 1, 2 * m), n)
    grown = StateSet(range(m + 1, 2 * m + 1), n)
    eq_a = preimage(dfa, s, "a") == grown and preimage(dfa, grown, "a") == grown
    eq_b = preimage(dfa, grown, "b") == StateSet([m], n)
    word = shortest_extending_word(dfa, grown)
    assert word is not None
    return [
        _exact("conservative-trap-length", m, CONSERVATIVE_TRAP_LENGTHS[m],
               len(word), witness=word, gate=eq_a and eq_b),
    ]


def check_conservative_growth(max_m: int = 6) -> list[ClaimResult]:
    """Trap lengths grow superlinearly: both L and L/n strictly increase."""
    if not 5 <= max_m <= 7:
        raise ValueError(f"supported range is 5 <= max_m <= 7, got {max_m}")
    lengths = {}
    for m in range(4, max_m + 1):
        dfa = conservative(m)
        grown = StateSet(range(m + 1, 2 * m + 1), 2 * m)
        word = shortest_extending_word(dfa, grown)
        assert word is not None
        lengths[m] = len(word)
    growing = all(lengths[m] > lengths[m - 1] for m in range(5, max_m + 1))
    ratio_up = all(
        lengths[m] * (2 * m - 2) > lengths[m - 1] * 2 * m
        for m in range(5, max_m + 1)
    )
    crosses = any(lengths[m] > 4 * m for m in range(4, max_m + 1))
    return [_prop("conservative-growth", max_m, growing and ratio_up and crosses)]


def check_b_series_extension(m: int) -> list[ClaimResult]:
    """The reachable pair {q_{m-3}, q_{m-2}} needs exactly 3m-1 = 3n/2-1 letters."""
    if not 4 <= m <= 8:
        raise ValueError(f"supported range is 4 <= m <= 8, got {m}")
    dfa = b_series(m)
    pair = StateSet([m - 3, m - 2] if m > 4 else [1, 2], 2 * m)
    word = shortest_extending_word(dfa, pair)
    assert word is not None
    structure = is_strongly_connected(dfa) and is_synchronizing(dfa)
    return [
        _prop("b-series-structure", m, structure),
        _exact("b-series-extend", m, 3 * m - 1, len(word), witness=word),
    ]


def check_b_series_avoiding(m: int) -> list[ClaimResult]:
    """Keeping the loop state q_{2m} out of the image takes exactly n+2 letters."""
    if not 4 <= m <= 8:
        raise ValueError(f"supported range is 4 <= m <= 8, got {m}")
    word = shortest_avoiding_word(b_series(m), 2 * m)
    assert word is not None
    return [_exact("b-series-avoid", m, 2 * m + 2, len(word), witness=word)]


def check_image_extension_constant(m: int = 4) -> list[ClaimResult]:
    """b_series(m) needs 3m-1 image-aware letters, so the constant is >= 3/2.

    The worst reachable image is the pair {q_{m-3}, q_{m-2}}, among the
    4^m - 2^m reachable images; (3m-1)/2m tends to 3/2 as m grows.
    """
    if not 4 <= m <= 7:
        raise ValueError(f"supported range is 4 <= m <= 7, got {m}")
    report = image_extension_bound(b_series(m))
    return [
        _exact("image-extension-constant", m, 3 * m - 1, report.worst_length,
               gate=report.worst_set == StateSet([m - 3, m - 2], 2 * m)),
        _exact("image-extension-images", m, 4 ** m - 2 ** m,
               report.reachable_image_count),
    ]


def check_ternary_series(n: int) -> list[ClaimResult]:
    """Reset lengths, explicit words and irreducibility of the ternary series.

    Irreducibility is only claimed from n = 4 on: the three-state members
    still synchronize after dropping the cycle letter a (the word bcb
    resets what is left), so there the published irreducibility claim
    does not hold and no such check is emitted.
    """
    if not 3 <= n <= 12:
        raise ValueError(f"supported range is 3 <= n <= 12, got {n}")
    out = []
    for tag, dfa, expected, word in (
        ("m-series", m_series(n), n * n - 3 * n + 3, m_series_sync_word(n)),
        ("m-prime", m_prime_series(n), n * n - 3 * n + 2, m_prime_series_sync_word(n)),
    ):
        length = reset_length(dfa)
        out.append(_exact(f"{tag}-reset", n, expected,
                          -1 if length is None else length))
        out.append(_exact(f"{tag}-word", n, expected, len(word), witness=word,
                          gate=check_sync_word(dfa, word) is not None))
        if n >= 4:
            out.append(_prop(f"{tag}-irreducible", n,
                             is_irreducibly_synchronizing(dfa)))
    return out


def check_ternary_layers(n: int) -> list[ClaimResult]:
    """Layer families of m_series(n) collapse to {q_2..q_{2+i}} at index i*n."""
    if not 3 <= n <= 12:
        raise ValueError(f"supported range is 3 <= n <= 12, got {n}")
    trace = inverse_layers(m_series(n))
    ok = trace.found_at == n * n - 3 * n + 3
    for i in range(0, n - 2):
        want = (StateSet(range(2, 3 + i), n),)
        ok = ok and trace.layers[i * n] == want
    return [_prop("m-series-layers", n, ok)]


def check_cerny_baseline(n: int) -> list[ClaimResult]:
    """The classical series hits the (n-1)^2 reset length exactly."""
    if not 2 <= n <= 10:
        raise ValueError(f"supported range is 2 <= n <= 10, got {n}")
    length = reset_length(cerny(n))
    return [_exact("cerny-reset", n, (n - 1) ** 2,
                   -1 if length is None else length)]


def run_all(max_m: int = 8, max_n: int = 10) -> list[ClaimResult]:
    """Run the whole claim suite at the given desk bounds.

    max_m caps the two-letter family parameter (n up to 2*max_m states),
    max_n caps the ternary series.  Each check runs up to the smaller of
    its cap and the top of its supported range.  The default suite
    finishes in well under a minute.
    """
    if max_m < 5 or max_n < 4:
        raise ValueError("need max_m >= 5 and max_n >= 4 for a meaningful suite")
    results: list[ClaimResult] = []
    for m in range(3, min(max_m, 8) + 1):
        results += check_a_odd_sync(m)
    for m in range(4, min(max_m, 12) + 1):
        results += check_upper_extension(m)
    for m in range(4, min(max_m, 8) + 1):
        results += check_profile_maximum(m)
    results += check_quadratic_growth(min(max_m, 7))
    for m in range(4, min(max_m, 7) + 1):
        results += check_conservative(m)
    results += check_conservative_growth(min(max_m, 6))
    for m in range(4, min(max_m, 8) + 1):
        results += check_b_series_extension(m)
        results += check_b_series_avoiding(m)
    for m in range(4, min(max_m, 7) + 1):
        results += check_image_extension_constant(m)
    for n in range(3, min(max_n, 12) + 1):
        results += check_ternary_series(n)
    for n in (6, 7):
        if n <= max_n:
            results += check_ternary_layers(n)
    for n in range(3, min(max_n, 7) + 1):
        results += check_cerny_baseline(n)
    return results


def all_passing(results: list[ClaimResult]) -> bool:
    return all(r.ok for r in results)
