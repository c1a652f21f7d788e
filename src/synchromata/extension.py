"""Extending words, extension profiles, reachable images and avoiding words.

An extending word for a subset S is one whose preimage of S is strictly
larger than S.  Searches here never prune by cardinality: a shortest
extending path may dip far below |S| before growing, so the full
preimage-step graph over the subset lattice is explored.

The single-subset searches are thin wrappers over the search kernel of
the automaton module: the extending word by preimage steps from S with
goal |T| > |S| (the word is the steps in reverse), the avoiding word by
image steps from the full set with goal "q missing", and the reachable
images as every set an unbounded image search from the full set meets.

Both whole-lattice reports run on one kernel, :func:`_worst_distances`.
For each query set S of size c it finds the shortest word w such that
S·w⁻¹ contains a query set larger than S, that is f0[S·w⁻¹] > c with
f0[T] the size of the largest query set inside T.  The extension
profile queries every subset, so f0[T] = |T|; the image-extension bound
queries the reachable images, so f0[T] is the size of the largest
reachable image inside T.  f0 is computed once per report, and
distance 1 is gathered rather than searched: each letter's union table
is read once through f0, so the sets one letter away from f0 > c are a
few byte operations per c, and the search pushes predecessors only from
distance 2 on.  The kernel is pure Python: importing numpy
alone raises resident memory from about 16 to 28 MB, more than the
reports themselves need at up to 12 states.  Both reports refuse more
than :data:`PROFILE_BOUND` states before any search or table build; the
kernel's time and memory roughly double with each state beyond that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Optional

from .automaton import (
    MAX_STATES,
    ConsistencyError,
    Dfa,
    StateSet,
    Word,
    _check_set,
    _shortest_word,
    _union_table,
    is_synchronizing,
    remove_letter,
)

#: Largest n for which whole-lattice reports (profile, image-extension
#: bound) are attempted; both refuse larger automata before any search or
#: table build.  Single-subset queries work up to the mask width.
PROFILE_BOUND = 20

# _ABOVE[c] translates a byte v to 1 if v > c and to 0 otherwise
_ABOVE = [bytes(c + 1) + b"\1" * (255 - c) for c in range(MAX_STATES)]


def shortest_extending_word(dfa: Dfa, s: StateSet) -> Optional[Word]:
    """A minimum-length word whose preimage of s beats |s|, or None.

    Breadth-first search from s where each step applies one more letter
    in front of the word built so far (a preimage step).  Ties are broken
    by letter order.
    """
    mask = _check_set(dfa, s)
    if mask == 0 or mask == dfa.full_mask:
        raise ValueError("extending needs a non-empty proper subset")
    card = mask.bit_count()
    letters, _ = _shortest_word(
        dfa, False, mask,
        lambda level: next((m for m in level if m.bit_count() > card), None),
    )
    # the letter of the last preimage step is the first letter of the word
    return None if letters is None else Word(reversed(letters))


@dataclass(frozen=True)
class ExtensionReport:
    """Worst-case shortest-extending length over all non-empty proper subsets.

    ``per_cardinality_max[c-1]`` covers the subsets of size c; a None
    entry means some subset of that size has no extending word at all,
    in which case ``max_length`` is None as well and ``witness_set`` is
    such a subset.
    """

    max_length: Optional[int]
    witness_set: StateSet
    witness_word: Optional[Word]
    per_cardinality_max: tuple[Optional[int], ...]


def _largest_query_inside(queries: bytes, n: int) -> bytes:
    """f0[T], the size of the largest query set inside T, for every mask T.

    f0 is the sum over c of the up-closure of the queries larger than c,
    since T lies in that closure exactly when f0[T] > c.  A function of
    its own so that ``lows`` is freed before the predecessor lists are
    built: holding both raises the kernel's peak memory.
    """
    size = 1 << n
    # A family of sets is one big integer with a byte per mask; lows[q] is 1
    # at each mask without state q, so (x & lows[q]) << (8 << q) copies x
    # from each such mask to the mask with q added.
    lows = [
        int.from_bytes((b"\1" * (1 << q) + bytes(1 << q)) * (size >> q + 1), "little")
        for q in range(n)
    ]
    f0 = 0
    for c in range(n):
        up = int.from_bytes(queries.translate(_ABOVE[c]), "little")
        for q, low in enumerate(lows):
            up |= (up & low) << (8 << q)
        f0 += up  # each closure is 0 or 1 per byte, so no byte carries
    return f0.to_bytes(size, "little")


def _worst_distances(dfa: Dfa, queries: bytes) -> list[tuple[Optional[int], int]]:
    """Worst growth distance for each size of query set.

    ``queries[S]`` is |S| for each query set S and 0 for every other
    subset.  The distance of a query S of size c is the length of a
    shortest word w with f0[S·w⁻¹] > c (see the module docstring).  f0 is
    computed once, and so is steps[a][T] = f0[T·a⁻¹] for each letter a.
    For each c that has queries, distance 0 is the sets with f0[T] > c
    and distance 1 the others with steps[a][T] > c for some a, both read
    off in mask order by byte translation.  From there one backward
    search through the predecessor lists reaches the sets in order of
    distance, and stops once every query of size c has been reached.

    Returns one (distance, mask) pair per size c that has queries, in
    increasing c: the largest distance in that group and the first query
    in mask order that attains it, or None and the first query that
    never grows.
    """
    n = dfa.n
    size = 1 << n
    f0 = _largest_query_inside(queries, n)
    preds: list[list[int]] = [[] for _ in range(size)]  # all T with T·a⁻¹ = S
    steps: list[bytes] = []  # steps[a][T] = f0[T·a⁻¹]
    for inv in dfa.inverse:
        table = _union_table(inv)  # table[T] = T·a⁻¹
        steps.append(bytes(map(f0.__getitem__, table)))
        for t, s in enumerate(table):
            preds[s].append(t)
    wanted = Counter(queries)
    out: list[tuple[Optional[int], int]] = []
    for c in range(1, n):
        left = wanted[c]
        if not left:
            continue
        above = _ABOVE[c]
        up = int.from_bytes(f0.translate(above), "little")  # distance 0
        near = 0  # distance at most 1: some letter steps into f0 > c
        for step in steps:
            near |= int.from_bytes(step.translate(above), "little")
        frontier = list(compress(range(size), (near & ~up).to_bytes(size, "little")))
        seen = bytearray((up | near).to_bytes(size, "little"))
        firsts = [s for s in frontier if queries[s] == c]
        left -= len(firsts)
        worst, worst_set = (1, firsts[0]) if firsts else (0, 0)
        d = 1
        while frontier and left:
            d += 1
            following = []
            for cur in frontier:
                for prev in preds[cur]:
                    if not seen[prev]:
                        seen[prev] = 1
                        following.append(prev)
                        if queries[prev] == c:
                            left -= 1
                            # d never falls, so ties keep the smallest mask
                            if d > worst or prev < worst_set:
                                worst, worst_set = d, prev
            frontier = following
        if left:
            stuck = next(s for s in range(size) if queries[s] == c and not seen[s])
            out.append((None, stuck))
        else:
            out.append((worst, worst_set))
    return out


def extension_profile(dfa: Dfa) -> ExtensionReport:
    """Exact extension profile of the whole automaton.

    Every subset is a query of the lattice kernel, so one backward search
    per cardinality answers all subsets of that size at once.  The
    witness is the first worst subset in (cardinality, mask) order, or
    the first subset that never extends.  Refuses automata above
    :data:`PROFILE_BOUND` states; query single subsets with
    :func:`shortest_extending_word` instead for those.
    """
    n = dfa.n
    if n > PROFILE_BOUND:
        raise ValueError(
            f"profile over 2^{n} subsets exceeds the bound ({PROFILE_BOUND} "
            "states); query individual subsets with shortest_extending_word"
        )
    if n < 2:
        raise ValueError("a single-state automaton has no proper subsets to extend")
    worst = _worst_distances(dfa, bytes(s.bit_count() for s in range(1 << n)))
    per_card = tuple(length for length, _ in worst)
    stuck = next((s for length, s in worst if length is None), None)
    if stuck is not None:
        return ExtensionReport(
            max_length=None,
            witness_set=StateSet.from_mask(stuck, n),
            witness_word=None,
            per_cardinality_max=per_card,
        )
    max_length, mask = max(worst, key=itemgetter(0))
    witness = StateSet.from_mask(mask, n)
    return ExtensionReport(
        max_length=max_length,
        witness_set=witness,
        witness_word=shortest_extending_word(dfa, witness),
        per_cardinality_max=per_card,
    )


def _reachable_masks(dfa: Dfa) -> list[int]:
    """Every image of the full set, in mask order: what one search reaches."""
    _, links = _shortest_word(dfa, True, dfa.full_mask, lambda level: None)
    return list(compress(range(1 << dfa.n), links))


def reachable_images(dfa: Dfa) -> tuple[StateSet, ...]:
    """All subsets that arise as the image of the full state set.

    Includes the full set itself (empty word).  Sorted by decreasing
    size, then by mask, so the full set comes first.
    """
    masks = sorted(_reachable_masks(dfa), key=lambda m: (-m.bit_count(), m))
    return tuple(StateSet.from_mask(m, dfa.n) for m in masks)


@dataclass(frozen=True)
class ImageExtensionReport:
    """Worst case over reachable images of the image-aware extension length.

    For each reachable proper image S this measures the shortest u whose
    preimage of S contains some reachable image larger than S, and
    reports the maximum together with the witness S and the ratio
    worst_length / n.
    """

    reachable_image_count: int
    worst_set: StateSet
    worst_length: int
    constant_witness: Fraction


def image_extension_bound(dfa: Dfa) -> ImageExtensionReport:
    """Worst image-aware extension length over all reachable proper images.

    The reachable images are the queries of the lattice kernel; the
    worst set is the first worst image in (cardinality, mask) order.
    Requires a synchronizing automaton: reversing a reset word shows
    every image grows, so a miss means an implementation bug rather than
    bad input.  Refuses automata above :data:`PROFILE_BOUND` states.
    """
    n = dfa.n
    if n > PROFILE_BOUND:
        raise ValueError(
            f"image-extension search over 2^{n} subsets exceeds the bound "
            f"({PROFILE_BOUND} states)"
        )
    if n < 2:
        raise ValueError("a single-state automaton has no proper images to extend")
    if not is_synchronizing(dfa):
        raise ValueError("image-extension bound needs a synchronizing automaton")
    reach = _reachable_masks(dfa)
    queries = bytearray(1 << n)
    for s in reach:
        queries[s] = s.bit_count()
    worst = _worst_distances(dfa, queries)
    stuck = next((s for length, s in worst if length is None), None)
    if stuck is not None:
        raise ConsistencyError(
            f"reachable image {StateSet.from_mask(stuck, n)} admits no "
            "image-extending word in a synchronizing automaton"
        )
    worst_len, worst_mask = max(worst, key=itemgetter(0))
    return ImageExtensionReport(
        reachable_image_count=len(reach),
        worst_set=StateSet.from_mask(worst_mask, n),
        worst_length=worst_len,
        constant_witness=Fraction(worst_len, n),
    )


def shortest_avoiding_word(dfa: Dfa, q: int) -> Optional[Word]:
    """A minimum-length word whose image of the full set misses state q.

    None if every image contains q.  Search over forward images of the
    full state set.
    """
    if not 1 <= q <= dfa.n:
        raise ValueError(f"state {q} out of range 1..{dfa.n}")
    bit = 1 << (q - 1)
    letters, _ = _shortest_word(
        dfa, True, dfa.full_mask,
        lambda level: next((m for m in level if not m & bit), None),
    )
    return None if letters is None else Word(letters)


def is_irreducibly_synchronizing(dfa: Dfa) -> bool:
    """True iff synchronizing and removing any single letter breaks it.

    Raises if the input does not synchronize in the first place.  A
    synchronizing automaton over a single letter counts as irreducible,
    since no letter can be spared.
    """
    if not is_synchronizing(dfa):
        raise ValueError("irreducibility is defined for synchronizing automata")
    if dfa.k == 1:
        return True
    return all(
        not is_synchronizing(remove_letter(dfa, a)) for a in range(dfa.k)
    )
