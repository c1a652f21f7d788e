"""Parametric generators for the extremal automata families.

Every letter is written in one vocabulary: :func:`_letter` fixes every
state except the listed moves, :func:`_cycle` rotates a block of states
q_first -> ... -> q_last -> q_first, and :func:`_drop` sends each upper
state q_{m+i} down to q_i.  Later moves override earlier ones, so a
letter is read as its cycles and drops followed by its exceptions.

All two-letter families follow one geometry: the states split into a
lower group q_1..q_m and an upper group, letter a rotates each group
along a cycle, and letter b folds the upper group down onto the lower
one.  The ternary series m_series / m_prime_series instead combine one
merging letter with near-identity letters.  Indices in this module
follow the 1-based naming convention of :mod:`synchromata.automaton`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import MAX_STATES, Dfa, StateSet, Word

A, B, C = 0, 1, 2


def _letter(n: int, moves: dict[int, int]) -> list[int]:
    """The transition row of a letter that fixes every state not in moves."""
    return [moves.get(q, q) for q in range(1, n + 1)]


def _cycle(first: int, last: int) -> dict[int, int]:
    """The moves q_first -> q_first+1 -> ... -> q_last -> q_first."""
    return {q: q + 1 for q in range(first, last)} | {last: first}


def _drop(m: int) -> dict[int, int]:
    """The moves q_{m+i} -> q_i for i = 1..m-1."""
    return {m + i: i for i in range(1, m)}


def _check_param(name: str, param: int) -> None:
    """Refuse a parameter that is not an int (bool included), below the
    minimum that FAMILIES lists for name, or above MAX_STATES: no family
    has fewer states than its parameter."""
    _, low, meaning = FAMILIES[name]
    if type(param) is not int or not low <= param <= MAX_STATES:
        raise ValueError(
            f"family {name!r} needs an integer {low} <= parameter <= {MAX_STATES} "
            f"({meaning}), got {param!r}"
        )


def a_odd(m: int) -> Dfa:
    """Two counter-rotating cycles on 2m-1 states with a folding letter.

    Letter a runs a cycle on the lower states q_1..q_m and a cycle on
    the upper states q_{m+1}..q_{2m-1}.  Letter b fixes q_1..q_{m-1},
    swaps q_m with q_{2m-1} and drops every other upper state q_{m+i}
    to q_i.  The upper subset of this family needs extending words of
    quadratic length.
    """
    _check_param("a-odd", m)
    n = 2 * m - 1
    a = _cycle(1, m) | _cycle(m + 1, n)
    b = _drop(m) | {m: n, n: m}
    return Dfa(n, 2, [_letter(n, a), _letter(n, b)])


def a_even(m: int) -> Dfa:
    """Even-size counterpart of :func:`a_odd` on 2m states.

    Letter a cycles q_1..q_m and q_{m+1}..q_{2m}; letter b fixes
    q_1..q_{m-1}, swaps q_m with q_{2m}, drops q_{m+i} to q_i for
    i <= m-2 and sends q_{2m-1} to q_m.
    """
    _check_param("a-even", m)
    n = 2 * m
    a = _cycle(1, m) | _cycle(m + 1, n)
    b = _drop(m) | {m: n, n - 1: m, n: m}
    return Dfa(n, 2, [_letter(n, a), _letter(n, b)])


def conservative(m: int) -> Dfa:
    """A 2m-state family whose one-letter extension leads into a trap.

    The upper a-cycle covers only q_{m+1}..q_{2m-1}; state q_{2m} feeds
    into it.  The subset of upper-cycle states grows by one under a
    single a-preimage, but the grown set can only move forward through
    a quadratic-length bottleneck, so cheap extensions do not compose.
    """
    _check_param("conservative", m)
    n = 2 * m
    a = _cycle(1, m) | _cycle(m + 1, n - 1) | {n: m + 1}
    b = _drop(m) | {m: n, n: m}
    return Dfa(n, 2, [_letter(n, a), _letter(n, b)])


def b_series(m: int) -> Dfa:
    """A 2m-state family with a-cycles of coprime lengths m and m-1.

    State q_{2m} carries an a-self-loop and b swaps it with q_{2m-1};
    b also swaps q_{m-1} with q_{2m-2} and merges q_m into q_{2m}.
    Its two-state image subsets need extending words of length 3m-1,
    and avoiding q_{2m} takes words of length 2m+2.
    """
    _check_param("b-series", m)
    n = 2 * m
    a = _cycle(1, m) | _cycle(m + 1, n - 1)
    b = {m - 1: n - 2, n - 2: m - 1, m: n, n - 1: n, n: n - 1}
    return Dfa(n, 2, [_letter(n, a), _letter(n, b)])


def m_series(n: int) -> Dfa:
    """Ternary slowly synchronizing series with reset length n^2-3n+3.

    a almost-cycles the states (q_n re-enters at q_2, merging with q_1's
    successor), b merges q_1 into q_2 and fixes everything else, and c
    swaps q_1 with q_n.  Removing any letter breaks synchronization.
    """
    _check_param("m-series", n)
    a = _cycle(1, n) | {n: 2}
    return Dfa(n, 3, [_letter(n, a), _letter(n, {1: 2}), _letter(n, {1: n, n: 1})])


def m_prime_series(n: int) -> Dfa:
    """Variant of :func:`m_series` with reset length n^2-3n+2.

    Identical except that c merges q_n into q_1 instead of swapping.
    """
    _check_param("m-prime", n)
    a = _cycle(1, n) | {n: 2}
    return Dfa(n, 3, [_letter(n, a), _letter(n, {1: 2}), _letter(n, {n: 1})])


def cerny(n: int) -> Dfa:
    """The classical binary series attaining reset length (n-1)^2.

    a cyclically shifts all states; b merges q_1 into q_2 and fixes the
    rest.  Any convention with the same reset length would do; this one
    is pinned so serialized output stays stable.
    """
    _check_param("cerny", n)
    return Dfa(n, 2, [_letter(n, _cycle(1, n)), _letter(n, {1: 2})])


#: family name -> (builder, minimum parameter, parameter meaning)
FAMILIES = {
    "a-odd": (a_odd, 3, "m (n = 2m-1)"),
    "a-even": (a_even, 3, "m (n = 2m)"),
    "conservative": (conservative, 3, "m (n = 2m)"),
    "b-series": (b_series, 4, "m (n = 2m)"),
    "m-series": (m_series, 3, "n"),
    "m-prime": (m_prime_series, 3, "n"),
    "cerny": (cerny, 2, "n"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family name together with its size parameter."""

    name: str
    param: int

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise ValueError(
                f"unknown family {self.name!r}; choose from {sorted(FAMILIES)}"
            )
        _check_param(self.name, self.param)

    def build(self) -> Dfa:
        return FAMILIES[self.name][0](self.param)


def build_family(name: str, param: int) -> Dfa:
    return FamilySpec(name, param).build()


def named_subset(spec: FamilySpec, which: str) -> StateSet:
    """The canonical 'upper' or 'lower' state block of an a-odd/a-even family.

    For a-odd the upper block is q_{m+1}..q_{2m-1}; for a-even it is
    q_{m+1}..q_{2m}.  The lower block is q_1..q_m in both.
    """
    if spec.name not in ("a-odd", "a-even"):
        raise ValueError(f"family {spec.name!r} has no named upper/lower subsets")
    m = spec.param
    n = 2 * m - 1 if spec.name == "a-odd" else 2 * m
    if which == "lower":
        return StateSet(range(1, m + 1), n)
    if which == "upper":
        return StateSet(range(m + 1, n + 1), n)
    raise ValueError(f"unknown subset name {which!r}; use 'upper' or 'lower'")


# ---------------------------------------------------------------------------
# explicit words
# ---------------------------------------------------------------------------

def _check_a_odd_word(m: int, low: int) -> None:
    """Refuse m unless a_odd(m) can be built and m >= low."""
    _check_param("a-odd", m)
    if not low <= m <= (MAX_STATES + 1) // 2:
        raise ValueError(
            f"an a-odd word needs {low} <= m <= {(MAX_STATES + 1) // 2} "
            f"(2m-1 <= {MAX_STATES} states), got {m!r}"
        )


def a_odd_sync_word(m: int) -> Word:
    """The explicit word of length 2m^2-2m+2 that resets a_odd(m) to q_1.

    Shape: b a b a^m b followed by m-2 repetitions of a^{m-1} b a^m b.
    Each repetition peels one more state off the lower cycle.
    """
    _check_a_odd_word(m, 3)
    head = Word([B, A, B]) + Word([A]) * m + Word([B])
    block = Word([A]) * (m - 1) + Word([B]) + Word([A]) * m + Word([B])
    return head + block * (m - 2)


def m_series_sync_word(n: int) -> Word:
    """The word a c b (a^{n-2} c b)^{n-3} of length n^2-3n+3 resetting m_series(n)."""
    _check_param("m-series", n)
    return Word([A, C, B]) + (Word([A]) * (n - 2) + Word([C, B])) * (n - 3)


def m_prime_series_sync_word(n: int) -> Word:
    """The word c b (a^{n-2} c b)^{n-3} of length n^2-3n+2 resetting m_prime_series(n)."""
    _check_param("m-prime", n)
    return Word([C, B]) + (Word([A]) * (n - 2) + Word([C, B])) * (n - 3)


def greedy_extending_word(m: int) -> Word:
    """The greedy-strategy word that extends the upper block of a_odd(m).

    Shape: b a^t (b a^{2m-1})^{d-2} b a^{2m-3} b a^2 b with d = floor(m/2),
    and t = m/2 + 1 for even m or t = 2m-1 for odd m; its length is
    m^2 - 3m/2 + 4 for even m and m^2 - m + 2 for odd m.  The blocks
    b a^{2m-1}, seeded by b a^{2m-3} b a^2, collect lower-cycle states
    one at a time, and a^t rotates the collected run so that the final b
    doubles it.
    """
    _check_a_odd_word(m, 4)
    t = m // 2 + 1 if m % 2 == 0 else 2 * m - 1
    a = Word([A])
    return (Word([B]) + a * t + (Word([B]) + a * (2 * m - 1)) * (m // 2 - 2)
            + Word([B]) + a * (2 * m - 3) + Word([B, A, A, B]))
