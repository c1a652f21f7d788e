"""Named pass/fail checks for every quantitative claim the library reproduces.

Each check builds the family fresh, computes the quantity with the
analysis modules and compares it against a closed form in the family
parameter, over the whole range the library can build: m up to
``MAX_STATES // 2`` for the two-letter families (a_odd's 2m-1 states
included) and n up to ``MAX_STATES`` for the ternary and Cerny series.
Every expected value is a formula.  The one bound claim is the paper's
proven bracket for extending a_odd's upper block, reported as
``bound-ok`` beside the exact value it brackets.  Derived values (closed
forms the exact searches meet at every parameter of the range, not
numbers the abstract states) say so in their check's docstring.

``SUITE`` lists every check with the first parameter of its range and
``TOP`` derives each range's last from ``MAX_STATES``; both are read by
each check's guard and by ``run_all``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from .automaton import (
    MAX_STATES,
    StateSet,
    Word,
    is_strongly_connected,
    is_synchronizing,
    preimage,
    preimage_word,
)
from .extension import (
    extension_profile,
    image_extension_bound,
    is_irreducibly_synchronizing,
    shortest_avoiding_word,
    shortest_extending_word,
)
from .families import (
    FamilySpec,
    a_even,
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


@dataclass(frozen=True)
class Check:
    """One row of the claim suite: a check, its cap and its first parameter."""

    check: Callable[[int], list[ClaimResult]]
    cap: str  # "m" (read from max_m) or "n" (read from max_n)
    first: int


#: The last parameter of each cap: the largest family member within
#: MAX_STATES states (2m states for the m families, n for the others).
TOP = {"m": MAX_STATES // 2, "n": MAX_STATES}

#: Every check in report order with the first parameter of its range.
#: Filled by the ``_suite`` decorator.
SUITE: list[Check] = []


def _suite(cap: str, first: int):
    """Register claims(range(first, top + 1)) as check(top), guarding top."""
    def register(claims):
        @functools.wraps(claims)
        def check(top: int) -> list[ClaimResult]:
            if not first <= top <= TOP[cap]:
                raise ValueError(
                    f"supported range is {first} <= {cap} <= {TOP[cap]}, got {top}")
            return list(claims(range(first, top + 1)))
        SUITE.append(Check(check, cap, first))
        return check
    return register


@_suite("m", 3)
def check_a_odd_sync(ms: range) -> Iterator[ClaimResult]:
    """The explicit word resets a_odd(m) to q_1 with length 2m^2-2m+2."""
    for m in ms:
        word = a_odd_sync_word(m)
        yield _exact("a-odd-sync-word", m, 2 * m * m - 2 * m + 2, len(word),
                     witness=word, gate=check_sync_word(a_odd(m), word) == 1)


@_suite("m", 4)
def check_upper_extension(ms: range) -> Iterator[ClaimResult]:
    """Shortest extension of the upper block: the bracket and its exact value.

    The length sits in the proven bracket, and it equals the greedy
    length exactly, the abstract's n^2/4 + O(n).  The greedy word must
    itself be a valid extending word of exactly the bracket's upper
    length.
    """
    for m in ms:
        dfa = a_odd(m)
        upper = named_subset(FamilySpec("a-odd", m), "upper")
        word = shortest_extending_word(dfa, upper)
        assert word is not None
        hi = greedy_length_formula(m)
        greedy = greedy_extending_word(m)
        valid = len(preimage_word(dfa, upper, greedy)) > len(upper)
        yield _bound("a-odd-extension-bracket", m, upper_extension_lower_bound(m),
                     hi, len(word), witness=word)
        yield _exact("a-odd-upper-extension", m, hi, len(word), witness=word)
        yield _exact("a-odd-greedy-upper", m, hi, len(greedy), witness=greedy,
                     gate=valid)


@_suite("m", 4)
def check_profile_maximum(ms: range) -> Iterator[ClaimResult]:
    """The upper block is a worst subset of the whole a_odd(m) lattice.

    The extension profile's maximum equals the greedy length, and the
    profile's witness (its first worst subset) is the upper block.
    """
    for m in ms:
        report = extension_profile(a_odd(m))
        upper = named_subset(FamilySpec("a-odd", m), "upper")
        computed = -1 if report.max_length is None else report.max_length
        yield _exact("a-odd-profile-max", m, greedy_length_formula(m), computed,
                     witness=report.witness_word, gate=report.witness_set == upper)


@_suite("m", 3)
def check_a_even(ms: range) -> Iterator[ClaimResult]:
    """a_even(m)'s upper block extends in m^2+1 letters; it resets in 2m^2-m+1.

    Both are derived values, not numbers the abstract states: the BFS
    and the layer search meet these closed forms at every m of the
    range.  The first is the abstract's n^2/4 + O(n) at n = 2m.
    """
    for m in ms:
        dfa = a_even(m)
        word = shortest_extending_word(dfa, named_subset(FamilySpec("a-even", m), "upper"))
        length = reset_length(dfa)
        yield _exact("a-even-upper-extension", m, m * m + 1,
                     -1 if word is None else len(word), witness=word)
        yield _exact("a-even-reset", m, 2 * m * m - m + 1, -1 if length is None else length)


@_suite("m", 3)
def check_conservative(ms: range) -> Iterator[ClaimResult]:
    """The conservative family's one-step extension leads into a long trap.

    Verifies the two preimage set equalities and that the shortest word
    extending the grown set (the upper cycle plus its feeder q_{2m}) has
    length m^2-m+3, a derived value the BFS meets at every m of the
    range: quadratic in n = 2m, so no linear bound holds.
    """
    for m in ms:
        dfa = conservative(m)
        n = 2 * m
        s = StateSet(range(m + 1, 2 * m), n)
        grown = StateSet(range(m + 1, 2 * m + 1), n)
        word = shortest_extending_word(dfa, grown)
        eq_a = preimage(dfa, s, "a") == grown and preimage(dfa, grown, "a") == grown
        eq_b = preimage(dfa, grown, "b") == StateSet([m], n)
        yield _exact("conservative-trap-length", m, m * m - m + 3,
                     -1 if word is None else len(word), witness=word, gate=eq_a and eq_b)


@_suite("m", 4)
def check_b_series(ms: range) -> Iterator[ClaimResult]:
    """b_series(m) is strongly connected and synchronizing; two exact lengths.

    The reachable pair {q_{m-3}, q_{m-2}} needs exactly 3m-1 = 3n/2-1
    letters to extend, and keeping the loop state q_{2m} out of the
    image takes exactly n+2 letters.
    """
    for m in ms:
        dfa = b_series(m)
        extend = shortest_extending_word(dfa, StateSet([m - 3, m - 2], 2 * m))
        avoid = shortest_avoiding_word(dfa, 2 * m)
        assert extend is not None and avoid is not None
        yield _prop("b-series-structure", m,
                    is_strongly_connected(dfa) and is_synchronizing(dfa))
        yield _exact("b-series-extend", m, 3 * m - 1, len(extend), witness=extend)
        yield _exact("b-series-avoid", m, 2 * m + 2, len(avoid), witness=avoid)


@_suite("m", 4)
def check_image_extension_constant(ms: range) -> Iterator[ClaimResult]:
    """b_series(m) needs 3m-1 image-aware letters, so the constant is >= 3/2.

    The worst reachable image is the pair {q_{m-3}, q_{m-2}}, among the
    4^m - 2^m reachable images; (3m-1)/2m tends to 3/2 as m grows.
    """
    for m in ms:
        report = image_extension_bound(b_series(m))
        yield _exact("image-extension-constant", m, 3 * m - 1, report.worst_length,
                     gate=report.worst_set == StateSet([m - 3, m - 2], 2 * m))
        yield _exact("image-extension-images", m, 4 ** m - 2 ** m,
                     report.reachable_image_count)


@_suite("n", 3)
def check_ternary_series(ns: range) -> Iterator[ClaimResult]:
    """Reset lengths, explicit words and irreducibility of the ternary series.

    Irreducibility is only claimed from n = 4 on: the three-state members
    still synchronize after dropping the cycle letter a (the word bcb
    resets what is left), so there the published irreducibility claim
    does not hold and no such check is emitted.
    """
    for n in ns:
        for tag, dfa, expected, word in (
            ("m-series", m_series(n), n * n - 3 * n + 3, m_series_sync_word(n)),
            ("m-prime", m_prime_series(n), n * n - 3 * n + 2,
             m_prime_series_sync_word(n)),
        ):
            length = reset_length(dfa)
            yield _exact(f"{tag}-reset", n, expected, -1 if length is None else length)
            yield _exact(f"{tag}-word", n, expected, len(word), witness=word,
                         gate=check_sync_word(dfa, word) is not None)
            if n >= 4:
                yield _prop(f"{tag}-irreducible", n, is_irreducibly_synchronizing(dfa))


@_suite("n", 6)
def check_ternary_layers(ns: range) -> Iterator[ClaimResult]:
    """Layer families of m_series(n) collapse to {q_2..q_{2+i}} at index i*n."""
    for n in ns:
        trace = inverse_layers(m_series(n))
        ok = trace.found_at == n * n - 3 * n + 3
        for i in range(0, n - 2):
            ok = ok and trace.layers[i * n] == (StateSet(range(2, 3 + i), n),)
        yield _prop("m-series-layers", n, ok)


@_suite("n", 3)
def check_cerny_baseline(ns: range) -> Iterator[ClaimResult]:
    """The classical series hits the (n-1)^2 reset length exactly."""
    for n in ns:
        length = reset_length(cerny(n))
        yield _exact("cerny-reset", n, (n - 1) ** 2, -1 if length is None else length)


def check_caps(max_m: int, max_n: int) -> None:
    """Refuse caps too low for a meaningful suite (run_all's precondition)."""
    if max_m < 5 or max_n < 4:
        raise ValueError("need max_m >= 5 and max_n >= 4 for a meaningful suite")


def run_all(max_m: int = 8, max_n: int = 10) -> list[ClaimResult]:
    """Run the whole claim suite at the given desk bounds.

    max_m caps the two-letter family parameter (n up to 2*max_m states),
    max_n caps the ternary and Cerny series.  Each cap is clamped to its
    TOP, each row of SUITE runs up to its clamped cap and is skipped when
    that is below its first.  The default suite runs in under a second.
    """
    check_caps(max_m, max_n)
    caps = {"m": min(max_m, TOP["m"]), "n": min(max_n, TOP["n"])}
    results: list[ClaimResult] = []
    for row in SUITE:
        if caps[row.cap] >= row.first:
            results += row.check(caps[row.cap])
    return results


def all_passing(results: list[ClaimResult]) -> bool:
    return all(r.ok for r in results)
