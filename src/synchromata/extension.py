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
S·w⁻¹ contains a query set larger than S.  The extension profile
queries every subset, the image-extension bound the reachable images.
Every family of subsets is one int with a bit per mask, and one value
iteration answers all sizes c at once: V_d(T) counts the sizes c, among
those with queries still open, for which T·w⁻¹ contains a query larger
than c for some word w of length at most d.  V is a few bit-planes, each
a family, and an iteration pulls each plane through each letter by at
most n masked shift steps (:func:`_pull`) and keeps the bit-sliced
maximum; a query is reached when its value grows.  A size closes when
its last query is reached, and every open size closes unreached at the
fixpoint, the first iteration that grows V nowhere.  The queries and each
size class of subsets are families too.  The kernel is pure Python:
importing numpy alone raises resident memory from about 16 to 28 MB.

Cost model: both reports run at every size :class:`Dfa` accepts.  Memory
is about n masks of 2^n bits for each letter's pull program (one per
step), a few dozen 2^n-bit families, and for the image bound the 4·2^n
bytes of links of its image search; a 2^n-bit family is 2 MB at 24
states.  Time and memory grow two- to threefold with each state, and
running out of memory raises MemoryError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Optional, Sequence

from .automaton import (
    ConsistencyError,
    Dfa,
    StateSet,
    Word,
    _check_set,
    _shortest_word,
    _synchronizes,
    is_synchronizing,
)

# translates the bytes 0 and 1 to the digits '0' and '1'
_DIGITS = bytes.maketrans(b"\0\1", b"01")


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


def _pull_program(inv: Sequence[int], lows: list[int]) -> tuple[list, list]:
    """Copies (m, s, low) and swaps (m, s) turning x into y, y[T] = x[T·a⁻¹].

    ``inv[q]`` is the mask of q·a⁻¹ and ``lows[q]`` the family of masks
    without q; :func:`_pull` runs the steps.  A copy of the bit of a
    representative r into state e (s = 2^e, low = lows[e], m the masks
    with r but not e) makes x[T] depend only on the representatives in T;
    r is q if q·a = q, else the first state of the block inv[q].  A swap
    of states i < j (s = 2^j - 2^i, m the masks with i but not j) then
    places each image state q in turn on its representative's bit, so a
    letter has at most n steps.
    """
    n = len(inv)
    copies, swaps, reps, at = [], [], {}, list(range(n))  # at[p]: whose bit is at p
    for q, block in enumerate(inv):
        if block:
            r = reps[q] = q if block >> q & 1 else (block & -block).bit_length() - 1
            for e in range(n):
                if block >> e & 1 and e != r:
                    copies.append((lows[e] ^ lows[e] & lows[r], 1 << e, lows[e]))
    for q, r in reps.items():
        p = at.index(r)
        if p != q:
            at[p], at[q] = at[q], r
            i, j = min(p, q), max(p, q)
            swaps.append((lows[j] ^ lows[j] & lows[i], (1 << j) - (1 << i)))
    return copies, swaps


def _pull(x: int, program: tuple[list, list]) -> int:
    """The family x pulled through one letter's :func:`_pull_program`."""
    copies, swaps = program
    for m, s, low in copies:  # y[T] = x[T with e in it iff r is]
        x = (x ^ (x ^ x >> s) & m) & low
        x |= x << s
    for m, s in swaps:  # y[T] = x[T with i and j exchanged]
        t = (x ^ x >> s) & m
        x ^= t ^ t << s
    return x


def _greater(a: list[int], b: list[int], everything: int) -> int:
    """The family [A > B] of two bit-sliced values, most significant plane first.

    ``everything`` is the all-ones family; ``x ^ (x & v)`` is x without v.
    """
    gt, eq = 0, everything
    for x, y in zip(reversed(a), reversed(b)):
        diff = x ^ y
        gt |= eq & diff & x
        eq ^= eq & diff
    return gt


def _worst_distances(dfa: Dfa, queries: int) -> list[tuple[Optional[int], int]]:
    """Worst growth distance for each size of query set.

    ``queries`` is the family of query sets, one bit per mask, like every
    family of subsets here.  The distance of a query S of size c is the
    length of a shortest word w such that S·w⁻¹ contains a query larger
    than c.  A size is open while some query of that size is not reached
    and may still be.  One value iteration answers every size: V_d(T)
    counts the open sizes c for which T·w⁻¹ contains a query larger than
    c, for some word w with |w| <= d.  V is held in bit-planes, each a
    family, as few as the open sizes need.  V_0 comes from the
    up-closures of the larger queries, and V_d is the maximum of V_(d-1)
    and each letter's pull of it, one pull program per letter and plane.
    A query S of size c is reached at the first d where V_d(S) grows.
    A size closes, and leaves the count, when its last query is reached.
    An unreached query S of size c gains value only through the threshold
    family of c, the masks whose count includes c: the families of larger
    sizes lie inside it, and S lies in those of smaller sizes from d = 0.
    So once an iteration grows V nowhere, its fixpoint, every open size
    closes with its queries unreached and the iteration ends.

    Returns one (distance, mask) pair per size c < n that has queries, in
    increasing c: the largest distance in that group and the first query
    in mask order that attains it, or None and the first query that
    never grows.
    """
    n = dfa.n
    # lows[q]: the masks without state q; sizes[c]: the masks of size c.
    # Adding state q doubles the lattice: its new masks are the old ones
    # shifted up by 2^q, each with q added.
    lows, sizes = [], [1]
    for q in range(n):
        half = 1 << q
        lows = [low | low << half for low in lows] + [(1 << half) - 1]
        sizes = [x | y << half for x, y in zip(sizes + [0], [0] + sizes)]
    # left[c]: the queries of size c not reached yet, for each open size c
    left = {c: queries & sizes[c] for c in range(1, n) if queries & sizes[c]}
    up = queries & sizes[n]
    del sizes  # freed before the programs are built, lows after V_0: peak memory
    programs = [_pull_program(inv, lows) for inv in dfa.inverse]
    count = len(left)
    planes, above = [0] * count.bit_length(), 0
    for c in reversed(left):
        for q, low in enumerate(lows):  # up: the queries larger than c, closed upwards
            up |= (up & low) << (1 << q)
        for b, plane in enumerate(planes):  # V_0 = count on up but not above
            if count >> b & 1:
                planes[b] = plane | up ^ above
        above, count, up = up, count - 1, up | left[c]
    del lows, up, above  # frees the lows[e] that no copy step holds as its low
    everything = (1 << (1 << n)) - 1
    worst: dict[int, tuple[Optional[int], int]] = {}
    d = 0
    while left:
        d += 1
        new, grown = planes, 0
        for program in programs:
            pulled = [_pull(x, program) for x in planes]
            gt = _greater(pulled, new, everything)  # new = max(new, pulled)
            new = [v ^ (v ^ p) & gt for v, p in zip(new, pulled)]
            grown |= gt
        if not grown:  # the fixpoint: no open query is ever reached
            for c, open_ in left.items():
                worst[c] = None, (open_ & -open_).bit_length() - 1
            break
        closed = []
        for j, (c, open_) in enumerate(left.items()):
            hits = grown & open_
            if hits:
                # d never falls, so the last iteration with hits is the worst
                worst[c] = d, (hits & -hits).bit_length() - 1
                left[c] = open_ ^ hits
                if open_ == hits:
                    closed.append((j, c))
        for j, c in reversed(closed):  # c leaves the count: V -= [V > j]
            borrow = _greater(new, [everything if j >> b & 1 else 0 for b in range(len(new))],
                              everything)
            for b, plane in enumerate(new):
                new[b] = plane ^ borrow
                borrow ^= borrow & plane
            del left[c]
        planes = new[:len(left).bit_length()]
    return [worst[c] for c in sorted(worst)]


def _lattice_size(dfa: Dfa, report: str) -> int:
    """dfa.n, after refusing too few states to have a proper subset."""
    n = dfa.n
    if n < 2:
        raise ValueError(f"a single-state automaton has no proper subsets for the {report}")
    return n


def extension_profile(dfa: Dfa) -> ExtensionReport:
    """Exact extension profile of the whole automaton.

    Every subset is a query of the lattice kernel, so one value iteration
    answers all subsets at once.  The witness is the first worst subset
    in (cardinality, mask) order, or the first subset that never extends.
    A breadth-first search finds the witness word, and ConsistencyError
    is raised if its length is not the kernel's maximum.
    """
    n = _lattice_size(dfa, "profile")
    worst = _worst_distances(dfa, (1 << (1 << n)) - 1)
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
    word = shortest_extending_word(dfa, witness)
    if word is None or len(word) != max_length:
        raise ConsistencyError(
            f"profile witness {witness} extends in {None if word is None else len(word)} "
            f"letters, the lattice kernel says {max_length}"
        )
    return ExtensionReport(
        max_length=max_length,
        witness_set=witness,
        witness_word=word,
        per_cardinality_max=per_card,
    )


def _image_links(dfa: Dfa) -> Sequence[int]:
    """Links of one image search from the full set: non-zero at each image."""
    return _shortest_word(dfa, True, dfa.full_mask, lambda level: None)[1]


def _image_masks(dfa: Dfa) -> list[int]:
    """The masks of :func:`reachable_images`, in its order."""
    # stable: masks of one size stay in increasing order
    return sorted(compress(range(1 << dfa.n), _image_links(dfa)),
                  key=int.bit_count, reverse=True)


def reachable_images(dfa: Dfa) -> tuple[StateSet, ...]:
    """All subsets that arise as the image of the full state set.

    Includes the full set itself (empty word).  Sorted by decreasing
    size, then by mask, so the full set comes first.
    """
    return tuple(StateSet.from_mask(m, dfa.n) for m in _image_masks(dfa))


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
    bad input.
    """
    n = _lattice_size(dfa, "image-extension bound")
    links = _image_links(dfa)
    # the automaton synchronizes iff some image is a singleton
    if not any(links[1 << q] for q in range(n)):
        raise ValueError("image-extension bound needs a synchronizing automaton")
    # one bit per reached mask, most significant digit first
    queries = int(bytes(map(bool, links))[::-1].translate(_DIGITS), 2)
    del links
    worst = _worst_distances(dfa, queries)
    stuck = next((s for length, s in worst if length is None), None)
    if stuck is not None:
        raise ConsistencyError(
            f"reachable image {StateSet.from_mask(stuck, n)} admits no "
            "image-extending word in a synchronizing automaton"
        )
    worst_len, worst_mask = max(worst, key=itemgetter(0))
    return ImageExtensionReport(
        reachable_image_count=queries.bit_count(),
        worst_set=StateSet.from_mask(worst_mask, n),
        worst_length=worst_len,
        constant_witness=Fraction(worst_len, n),
    )


def shortest_avoiding_word(dfa: Dfa, q: int) -> Optional[Word]:
    """A minimum-length word whose image of the full set misses state q.

    None if every image contains q.  Search over forward images of the
    full state set.
    """
    if type(q) is not int or not 1 <= q <= dfa.n:
        raise ValueError(f"state {q!r} out of range: need an integer in 1..{dfa.n}")
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
    since no letter can be spared.  Leaving a letter out builds no
    automaton: the other letters' step tables are used as they are.
    """
    if not is_synchronizing(dfa):
        raise ValueError("irreducibility is defined for synchronizing automata")
    return _irreducible(dfa)


def _irreducible(dfa: Dfa) -> bool:
    """Irreducibility of an automaton already known to synchronize."""
    if dfa.k == 1:
        return True
    return not any(
        _synchronizes(dfa, [b for b in range(dfa.k) if b != a])
        for a in range(dfa.k)
    )
