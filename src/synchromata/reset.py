"""Exact shortest-reset-word computation by two independent methods.

The forward method searches the image subsets of the full state set.
The inverse method grows the layer families L_0, L_1, ... of maximal
subsets reachable from mergeable singletons by repeated one-letter
preimages; the first layer containing the full set gives the reset
length.  The two must always agree; :func:`checked_reset_word` runs each
of them once and compares them.  Neither takes a cap: the forward search
meets at most 2^n images, and each set the layer search keeps after L_0
is a non-singleton that no earlier kept set covers, so no set is kept
twice and the layers reach the full set or die out within 2^n layers.

The forward method is the shared search kernel of the automaton module
with a singleton as its goal, O(2^n k) steps at worst.  Both methods step
with the automaton's split tables, two lookups per image or preimage of a
subset instead of a loop over its states.  The layer search finds a
candidate's supersets among the sets it has recorded by ANDing, over the
candidate's states, one bitset per state of the recorded sets that
contain it; each round's bitsets are built in one pass over the states
of its fresh sets.  So it takes k steps per kept set, but its cover
tests cost up to (recorded sets × candidates × n) bit operations, which
dominate where the layers are wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automaton import (
    ConsistencyError,
    Dfa,
    StateSet,
    Word,
    WordLike,
    _check_word,
    _shortest_word,
    _step_tables,
    image_word_mask,
)


def _first_singleton(level: list[int]) -> Optional[int]:
    return next((m for m in level if m & (m - 1) == 0), None)


def shortest_reset_word(dfa: Dfa) -> Optional[Word]:
    """A minimum-length word of rank 1, or None if the automaton never resets.

    Breadth-first search over images of the full state set on the
    shared search kernel, stopping at the first singleton; ties between
    equal-length words are broken by letter order.
    """
    letters, _ = _shortest_word(dfa, True, dfa.full_mask, _first_singleton)
    return None if letters is None else Word(letters)


@dataclass(frozen=True)
class LayerTrace:
    """The layer families produced by the inverse search.

    ``layers[i]`` holds the maximal non-singleton subsets first reached
    after i preimage steps; ``found_at`` is the first index whose layer
    contains the full state set, or None when the layers died out.
    """

    layers: tuple[tuple[StateSet, ...], ...]
    found_at: Optional[int]


def _covering(member: list[int], mask: int) -> int:
    """AND of member[q] over the states q of mask: the sets containing mask."""
    acc = -1
    while mask and acc:
        low = mask & -mask
        acc &= member[low.bit_length() - 1]
        mask ^= low
    return acc


def _members(masks: list[int], n: int) -> list[int]:
    """Per-state bitsets: bit i of the entry for q is set iff q is in masks[i]."""
    member = [0] * n
    for i, s in enumerate(masks):
        bit = 1 << i
        while s:
            low = s & -s
            member[low.bit_length() - 1] |= bit
            s ^= low
    return member


def _layer_search(dfa: Dfa) -> tuple[list[list[int]], Optional[int]]:
    """The layers of :func:`inverse_layers` as lists of masks, and ``found_at``."""
    n = dfa.n
    full = dfa.full_mask
    h, tables = _step_tables(dfa, False)
    low_bits = (1 << h) - 1

    level0 = [
        1 << q
        for q in range(n)
        if n == 1 or any(dfa.inverse[a][q].bit_count() >= 2 for a in range(dfa.k))
    ]
    layer_masks: list[list[int]] = [level0]
    # member[q]: bitset of the indices of the recorded sets holding q: the
    # kept sets of all layers so far, and the fresh sets left out of their
    # layer, which lie inside a kept set of their round and so cover nothing
    # that set does not.
    member = _members(level0, n)
    recorded = len(level0)
    found_at = 0 if full in level0 else None

    i = 0
    while found_at is None and layer_masks[-1]:
        i += 1
        candidates = {
            lo[s & low_bits] | hi[s >> h]
            for s in layer_masks[-1]
            for lo, hi in tables
        }
        fresh = [
            s for s in sorted(candidates)
            if s & (s - 1) and not _covering(member, s)
        ]
        # A candidate inside a covered candidate is covered too, so the
        # same-round superset test only needs the fresh ones.  They are in
        # increasing mask order, so a proper superset of fresh[j] comes later.
        round_member = _members(fresh, n)
        level = [
            s for j, s in enumerate(fresh)
            if not _covering(round_member, s) >> j + 1
        ]
        layer_masks.append(level)
        member = [m | r << recorded for m, r in zip(member, round_member)]
        recorded += len(fresh)
        if full in level:
            found_at = i
    return layer_masks, found_at


def inverse_layers(dfa: Dfa) -> LayerTrace:
    """Grow the layer families L_0, L_1, ... and report where Q first appears.

    L_0 holds the singletons that some letter maps at least two states
    onto, or the full set itself when there is only one state.  Each next
    layer takes all one-letter preimages of the previous layer and
    discards the visited ones: singletons, sets contained in a member of
    any earlier layer, and proper subsets of another candidate in the
    same round.  Stops early once the full set appears or a layer
    comes out empty.
    """
    layer_masks, found_at = _layer_search(dfa)
    layers = tuple(
        tuple(StateSet.from_mask(s, dfa.n) for s in level) for level in layer_masks
    )
    return LayerTrace(layers=layers, found_at=found_at)


def checked_reset_word(dfa: Dfa) -> Optional[Word]:
    """A shortest reset word whose length both methods confirm, or None.

    Runs the forward search once and the layer search once.  Raises
    ConsistencyError if the two searches disagree, which would mean a bug
    in one of them.
    """
    word = shortest_reset_word(dfa)
    _, found_at = _layer_search(dfa)
    forward = None if word is None else len(word)
    if forward != found_at:
        raise ConsistencyError(
            f"forward search found {forward}, layer search found {found_at}"
        )
    return word


def reset_length(dfa: Dfa) -> Optional[int]:
    """Reset length computed by both methods, or None if not synchronizing.

    See :func:`checked_reset_word` for the cross-check.
    """
    word = checked_reset_word(dfa)
    return None if word is None else len(word)


def check_sync_word(dfa: Dfa, w: WordLike) -> Optional[int]:
    """The single state that w maps every state to, or None if rank(w) > 1."""
    word = _check_word(dfa, w)
    out = image_word_mask(dfa, dfa.full_mask, word.letters)
    if out.bit_count() != 1:
        return None
    return out.bit_length()
