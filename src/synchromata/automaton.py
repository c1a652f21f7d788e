"""Complete deterministic automata with bitmask subset algebra.

States are numbered 1..n in every public interface; letters are named
a, b, c, ... and mapped to indices 0..k-1 in order.  Words act left to
right (the first letter is applied first), so preimages of a word fold
over its letters from the last one back to the first.

Every single-source search over the subset lattice (shortest reset,
compressing, extending and avoiding words, and the reachable images)
runs on one kernel, :func:`_shortest_word`: a level-by-level
breadth-first search from one mask by image or preimage steps, with a
goal test on each completed level that also sees the links so far.
Each mask reached keeps only its predecessor, in one array of 4·2^n
bytes (64 MB at 24 states), and the letter of each step is recovered on
the way back.  A level is stepped by a function compiled once per
alphabet size k, :func:`_level_step`, which writes the steps by up to 26
letters out one after another instead of looping over the letters for
each mask; compiling it costs O(min(k, 26)), on the first search over k
letters, and every k above 26 shares one such function.

A step by one letter is the union, over the states of a mask, of each
state's successor (image step) or preimage (preimage step), and
:func:`_union_table` is the only builder of tables of such unions.  Per
automaton and letter, a pair of them, one per half of the mask, is built
once; the searches, the single steps :func:`image_mask` and
:func:`preimage_mask`, the closures behind :func:`is_strongly_connected`
and the merge-set fixpoint behind :func:`is_synchronizing` (run on any
subset of the letters for irreducibility) all look steps up in those
pairs.
"""

from __future__ import annotations

from array import array
from functools import cache
from itertools import compress
from textwrap import indent
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

#: Width of the subset bitmask; automata larger than this are rejected.
MAX_STATES = 24

LETTER_NAMES = "abcdefghijklmnopqrstuvwxyz"

#: "q1".."q24", and the table mapping a mask's binary digits to 0/1 bytes
#: that select from them in ``StateSet.__str__``
_STATE_NAMES = tuple(f"q{q}" for q in range(1, MAX_STATES + 1))
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed.

    This always indicates an implementation bug, never bad user input.
    """


class Word:
    """An immutable sequence of letter indices.  The empty word is allowed."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", tuple(letters))
        if any(type(a) is not int or a < 0 for a in self.letters):
            raise ValueError("letter indices must be non-negative integers")

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __mul__(self, times: int) -> "Word":
        return Word(self.letters * times)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return "".join(LETTER_NAMES[a] for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


WordLike = Union[Word, str, Sequence[int]]


class StateSet:
    """A subset of the states of an n-state automaton, stored as a bitmask.

    Bit i-1 of ``mask`` is set iff state q_i belongs to the set.
    """

    __slots__ = ("mask", "n")

    def __init__(self, states: Iterable[int], n: int):
        if type(n) is not int or not 1 <= n <= MAX_STATES:
            raise ValueError(f"need an integer number of states in 1..{MAX_STATES}, got {n!r}")
        mask = 0
        for q in states:
            if type(q) is not int or not 1 <= q <= n:
                raise ValueError(f"state {q!r} out of range: need an integer in 1..{n}")
            mask |= 1 << (q - 1)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "StateSet":
        if type(mask) is not int or type(n) is not int or not 1 <= n <= MAX_STATES:
            raise ValueError(f"need an integer mask and n in 1..{MAX_STATES}: {mask!r}, {n!r}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside 1..{n}")
        s = cls.__new__(cls)
        object.__setattr__(s, "mask", mask)
        object.__setattr__(s, "n", n)
        return s

    @classmethod
    def full(cls, n: int) -> "StateSet":
        return cls.from_mask((1 << n) - 1, n)

    def __setattr__(self, name, value):
        raise AttributeError("StateSet is immutable")

    def __reduce__(self):
        return StateSet, (self.states(), self.n)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, q: int) -> bool:
        return type(q) is int and 1 <= q <= self.n and self.mask >> (q - 1) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length()
            m ^= low

    def states(self) -> tuple[int, ...]:
        return tuple(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateSet)
            and self.mask == other.mask
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __or__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask | other.mask, self.n)

    def __and__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask & other.mask, self.n)

    def __sub__(self, other: "StateSet") -> "StateSet":
        return StateSet.from_mask(self.mask & ~other.mask, self.n)

    def __le__(self, other: "StateSet") -> bool:
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        bits = f"{self.mask:b}"[::-1].encode().translate(_BIT_BYTES)
        return "{" + ", ".join(compress(_STATE_NAMES, bits)) + "}"

    def __repr__(self) -> str:
        return f"StateSet({list(self)}, n={self.n})"


class Dfa:
    """A complete deterministic automaton over n states and k letters.

    ``rows`` holds one row per letter with n entries, each a 1-based
    successor index: rows[a][i-1] is where letter a sends state q_i.
    Per-letter preimage masks are precomputed at construction because
    preimages are the hot path of every analysis; the split tables of the
    search kernel are built on first use and kept with the automaton.
    Instances are immutable (the tables are a cache, outside equality and
    hashing, and copies and pickles leave them behind) and safe to share
    between threads.
    """

    __slots__ = ("n", "k", "delta", "inverse", "full_mask", "letters", "_steps")

    def __init__(
        self,
        n: int,
        k: int,
        rows: Sequence[Sequence[int]],
        letters: Optional[str] = None,
    ):
        if type(n) is not int or n < 1:
            raise ValueError(f"need a positive integer number of states, got n={n!r}")
        if n > MAX_STATES:
            raise ValueError(f"n={n} exceeds the supported mask width {MAX_STATES}")
        if type(k) is not int or k < 1:
            raise ValueError(f"need a positive integer number of letters, got k={k!r}")
        if len(rows) != k:
            raise ValueError(f"expected {k} transition rows, got {len(rows)}")
        if letters is None:
            letters = LETTER_NAMES[:k]
        if type(letters) is not str or len(letters) != k or len(set(letters)) != k:
            raise ValueError(f"need a string of {k} distinct letter names, got {letters!r}")
        delta = []
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"letter {letters[a]}: expected {n} entries, got {len(row)}"
                )
            for i, t in enumerate(row):
                if type(t) is not int or not 1 <= t <= n:
                    raise ValueError(
                        f"letter {letters[a]}, state q{i + 1}: "
                        f"target {t!r} out of range: need an integer in 1..{n}"
                    )
            delta.append(tuple(t - 1 for t in row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "delta", tuple(delta))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "letters", letters)
        inverse = []
        for a in range(k):
            inv = [0] * n
            for q in range(n):
                inv[delta[a][q]] |= 1 << q
            inverse.append(tuple(inv))
        object.__setattr__(self, "inverse", tuple(inverse))
        # split tables for preimage (index 0) and image (1) steps, see _step_tables
        object.__setattr__(self, "_steps", [None, None])

    def __setattr__(self, name, value):
        raise AttributeError("Dfa is immutable")

    def __reduce__(self):
        return Dfa, (self.n, self.k, self.rows(), self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dfa)
            and self.n == other.n
            and self.k == other.k
            and self.delta == other.delta
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.delta, self.letters))

    def __repr__(self) -> str:
        return f"Dfa(n={self.n}, k={self.k})"

    def step(self, q: int, a: int) -> int:
        """Successor of state q (1-based) under letter index a."""
        return self.delta[a][q - 1] + 1

    def rows(self) -> list[list[int]]:
        """Transition table as 1-based rows, one per letter."""
        return [[t + 1 for t in row] for row in self.delta]

    def full_set(self) -> StateSet:
        return StateSet.from_mask(self.full_mask, self.n)

    def word(self, text: str) -> Word:
        """Parse a word using this automaton's letter names."""
        out = []
        for ch in text:
            idx = self.letters.find(ch)
            if idx < 0:
                raise ValueError(f"unknown letter {ch!r} (alphabet {self.letters!r})")
            out.append(idx)
        return Word(out)

    def word_str(self, w: Word) -> str:
        """Render a word with this automaton's letter names."""
        return "".join(self.letters[a] for a in w)


# ---------------------------------------------------------------------------
# mask-level helpers (internal hot path; public ops wrap them)
# ---------------------------------------------------------------------------

def image_mask(dfa: Dfa, mask: int, a: int) -> int:
    h, tables = _step_tables(dfa, True)
    lo, hi = tables[a]
    return lo[mask & ((1 << h) - 1)] | hi[mask >> h]


def image_word_mask(dfa: Dfa, mask: int, letters: Sequence[int]) -> int:
    for a in letters:
        mask = image_mask(dfa, mask, a)
    return mask


def preimage_mask(dfa: Dfa, mask: int, a: int) -> int:
    h, tables = _step_tables(dfa, False)
    lo, hi = tables[a]
    return lo[mask & ((1 << h) - 1)] | hi[mask >> h]


def preimage_word_mask(dfa: Dfa, mask: int, letters: Sequence[int]) -> int:
    # S(uv)^-1 = (Sv^-1)u^-1, so fold from the last letter backwards.
    for a in reversed(letters):
        mask = preimage_mask(dfa, mask, a)
    return mask


def _union_table(contrib: Sequence[int]) -> list[int]:
    """table[m] = the union of contrib[q] over the bits q of m.

    Filled by doubling: the second half of the table for states 0..q is
    the first half with contrib[q] added, in O(2^len(contrib)).
    """
    table = [0]
    for bits in contrib:
        table += [x | bits for x in table]
    return table


def _split_tables(
    n: int, contrib: Sequence[Sequence[int]]
) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """Per-letter union tables of contrib[a] split into two halves of the mask.

    Returns h = ceil(n/2) and one pair (lo, hi) per letter: lo covers the
    low h bits and hi the rest, so the union for letter a and mask m is
    lo[m & (2^h - 1)] | hi[m >> h], two lookups instead of a loop over
    the set bits, from tables of 2^h entries instead of 2^n.
    """
    h = (n + 1) // 2
    return h, [(_union_table(row[:h]), _union_table(row[h:n])) for row in contrib]


def _step_tables(dfa: Dfa, forward: bool) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """The split tables of image (forward) or preimage steps of dfa.

    Built on first use and kept in the automaton, so every later search
    on it starts without set-up.  Two threads racing on the first use
    build equal tables, and either may be kept.
    """
    tables = dfa._steps[forward]
    if tables is None:
        contrib = [[1 << t for t in row] for row in dfa.delta] if forward else dfa.inverse
        tables = dfa._steps[forward] = _split_tables(dfa.n, contrib)
    return tables


#: Letters the compiled level step writes out one after another; any
#: further letters are stepped by one loop at the end of its body, so
#: every larger alphabet shares the step compiled for _UNROLLED + 1.
_UNROLLED = len(LETTER_NAMES)

# The source of the level step: {pairs} unpacks the first {unrolled}
# pairs of split tables, {letters} steps by each of them in turn.
_STEP_SOURCE = """\
def step(level, links, h, tables):
    [{pairs}] = tables[:{unrolled}]
    rest = tables[{unrolled}:]
    low_bits = (1 << h) - 1
    following = []
    append = following.append
    for cur in level:
        lo_key = cur & low_bits
        hi_key = cur >> h
        link = cur + 1
{letters}    return following
"""

# One letter's step in the level step's mask loop.
_LETTER_SOURCE = """\
        nxt = lo{a}[lo_key] | hi{a}[hi_key]
        if not links[nxt]:
            links[nxt] = link
            append(nxt)
"""


@cache
def _level_step(k: int) -> Callable[[list[int], array, int, list], list[int]]:
    """The step of one search level over k letters, compiled once per k.

    ``step(level, links, h, tables)`` steps each mask of ``level``, in
    order, by letter 0, then letter 1, up to the last letter of
    ``tables``, two lookups in the split tables each, and links and
    collects every mask not reached before; it returns the masks
    collected, in that order.  The first min(k, 26) letters are written
    out one after another, so no letter loop runs per mask for them, and
    compilation costs O(min(k, 26)).  Past 26 letters the step does not
    depend on k, so callers pass min(k, 27).  The source is filled in
    with letter indices alone.
    """
    unrolled = min(k, _UNROLLED)
    letters = "".join(_LETTER_SOURCE.format(a=a) for a in range(unrolled))
    if k > unrolled:
        letters += "        for lo, hi in rest:\n" + indent(_LETTER_SOURCE.format(a=""), "    ")
    source = _STEP_SOURCE.format(
        pairs=", ".join(f"(lo{a}, hi{a})" for a in range(unrolled)),
        unrolled=unrolled,
        letters=letters,
    )
    namespace: dict = {}
    more = " or more" if k > unrolled else ""
    exec(compile(source, f"<level step over {k}{more} letters>", "exec"), namespace)
    return namespace["step"]


def _shortest_word(
    dfa: Dfa,
    forward: bool,
    start: int,
    goal: Callable[[list[int], array], Optional[int]],
) -> tuple[Optional[list[int]], array]:
    """Shortest path from start to a goal set by image or preimage steps.

    Level-by-level breadth-first search over masks, memoized in
    ``links``, one 4-byte entry per mask (4·2^n bytes): ``links[m]`` is
    the predecessor of m plus one, 0 while m is unreached and -1 for
    start.  Each level is stepped by :func:`_level_step` for the
    automaton's alphabet size, compiled once per size.  ``goal`` gets
    [start] and then each completed level, in discovery order, together
    with ``links`` as it stands after that level, and returns the first
    goal mask in the level or None.  Returns the letters of the steps to
    that mask in step order, or None if no level holds one, together
    with ``links``, whose non-zero entries are every mask reached.  Ties
    between equal-length paths are broken by letter order: a mask is
    linked from the first letter of its predecessor that reaches it, and
    on the way back each letter is recovered as that first letter.
    """
    h, tables = _step_tables(dfa, forward)
    step = _level_step(min(dfa.k, _UNROLLED + 1))
    links = array("i", [0]) * (1 << dfa.n)
    links[start] = -1
    level = [start]
    found = goal(level, links)
    while found is None and level:
        level = step(level, links, h, tables)
        found = goal(level, links)
    if found is None:
        return None, links
    low_bits = (1 << h) - 1
    letters = []
    while found != start:
        prev = links[found] - 1
        lo_key, hi_key = prev & low_bits, prev >> h
        letters.append(next(
            a for a, (lo, hi) in enumerate(tables) if lo[lo_key] | hi[hi_key] == found
        ))
        found = prev
    letters.reverse()
    return letters, links


def _check_set(dfa: Dfa, s: StateSet) -> int:
    if s.n != dfa.n:
        raise ValueError(f"state set is over {s.n} states, automaton has {dfa.n}")
    return s.mask


def _check_letter(dfa: Dfa, a: Union[int, str]) -> int:
    if isinstance(a, str):
        idx = dfa.letters.find(a)
        if idx < 0:
            raise ValueError(f"unknown letter {a!r} (alphabet {dfa.letters!r})")
        return idx
    if type(a) is not int or not 0 <= a < dfa.k:
        raise ValueError(f"letter index {a!r} out of range: need an integer in 0..{dfa.k - 1}")
    return a


def _check_word(dfa: Dfa, w: WordLike) -> Word:
    word = dfa.word(w) if isinstance(w, str) else Word(w)
    for a in word:
        if a >= dfa.k:
            raise ValueError(f"letter index {a} out of range for k={dfa.k}")
    return word


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def image(dfa: Dfa, s: StateSet, w: WordLike) -> StateSet:
    """The set s moved forward by the word w (first letter acts first)."""
    word = _check_word(dfa, w)
    return StateSet.from_mask(image_word_mask(dfa, _check_set(dfa, s), word.letters), dfa.n)


def preimage(dfa: Dfa, s: StateSet, a: Union[int, str]) -> StateSet:
    """All states that the single letter a sends into s."""
    return StateSet.from_mask(
        preimage_mask(dfa, _check_set(dfa, s), _check_letter(dfa, a)), dfa.n
    )


def preimage_word(dfa: Dfa, s: StateSet, w: WordLike) -> StateSet:
    """All states that the word w sends into s."""
    word = _check_word(dfa, w)
    return StateSet.from_mask(
        preimage_word_mask(dfa, _check_set(dfa, s), word.letters), dfa.n
    )


def rank(dfa: Dfa, w: WordLike) -> int:
    """Size of the image of the full state set under w."""
    word = _check_word(dfa, w)
    return image_word_mask(dfa, dfa.full_mask, word.letters).bit_count()


def shortest_compressing_word(dfa: Dfa, s: StateSet) -> Optional[Word]:
    """Shortest word w with |sw| < |s|, or None if s is incompressible.

    Breadth-first search over the images of s; ties are broken by letter
    order.
    """
    mask = _check_set(dfa, s)
    card = mask.bit_count()
    if card < 2:
        raise ValueError("compressibility needs a set of at least two states")
    letters, _ = _shortest_word(
        dfa, True, mask,
        lambda level, _: next((m for m in level if m.bit_count() < card), None),
    )
    return None if letters is None else Word(letters)


def is_compressible(dfa: Dfa, s: StateSet) -> bool:
    """True iff some word strictly shrinks the image of s."""
    return shortest_compressing_word(dfa, s) is not None


def _closure(dfa: Dfa, forward: bool, mask: int) -> int:
    """The states that some word sends mask to (forward), or into mask.

    The image (or preimage) step of every letter is added to the set
    until it stops growing: at most n rounds of k lookups each.
    """
    h, tables = _step_tables(dfa, forward)
    low_bits = (1 << h) - 1
    while True:
        grown = mask
        for lo, hi in tables:
            grown |= lo[mask & low_bits] | hi[mask >> h]
        if grown == mask:
            return mask
        mask = grown


def is_strongly_connected(dfa: Dfa) -> bool:
    """True iff every state reaches every other along letter transitions.

    That is, q1 reaches every state and every state reaches q1.
    """
    full = dfa.full_mask
    return _closure(dfa, True, 1) == full and _closure(dfa, False, 1) == full


def is_synchronizing(dfa: Dfa) -> bool:
    """True iff some word maps every state to one state."""
    return _synchronizes(dfa, range(dfa.k))


def _synchronizes(dfa: Dfa, letters: Sequence[int]) -> bool:
    """True iff some word over the given letter indices synchronizes dfa.

    That holds iff some such word merges each pair of states.
    ``merge[p]`` grows from {p} to the states that some word sends to
    the same state as p: a visit to p adds merge[p·a]·a⁻¹ for every
    letter a, and when merge[p] grows, the predecessors of p are due for
    another visit.  Each set grows at most n - 1 times, and the
    predecessor lists of all states have k·n entries together, so there
    are at most n + k·n·(n - 1) visits of k preimage lookups, however
    the states are numbered.  The lookups use the automaton's own
    preimage tables, so a subset of its letters needs no new tables.
    """
    h, tables = _step_tables(dfa, False)
    low_bits = (1 << h) - 1
    steps = [(*tables[a], dfa.delta[a]) for a in letters]
    inverse = [dfa.inverse[a] for a in letters]
    merge = [1 << p for p in range(dfa.n)]
    due = dfa.full_mask
    while due:
        p = due.bit_length() - 1
        due ^= 1 << p
        grown = merge[p]
        for lo, hi, row in steps:
            m = merge[row[p]]
            grown |= lo[m & low_bits] | hi[m >> h]
        if grown != merge[p]:
            merge[p] = grown
            for inv in inverse:
                due |= inv[p]
    return all(m == dfa.full_mask for m in merge)

