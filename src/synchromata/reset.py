"""Exact shortest-reset-word computation by two independent methods.

The forward method searches the image subsets of the full state set.
The inverse method, :func:`inverse_layers`, grows the layer families
L_0, L_1, ... of maximal subsets reachable from mergeable singletons by
repeated one-letter preimages, as masks that become StateSets only when
read; the first layer containing the full set gives the reset length.
The two must always agree; :func:`checked_reset_word` runs each of them
once and compares the lengths, so it builds no StateSet.  Neither takes
a cap: the forward search meets at most 2^n images, and each set the
layer search keeps after L_0 is a non-singleton that no earlier kept set
covers, so no set is kept twice and the layers reach the full set or die
out within 2^n layers.

The forward method is the shared search kernel of the automaton module
with a singleton as its goal, O(2^n k) steps at worst; each level is
tested for a singleton with one set-disjointness call.  Both methods
step with the automaton's split tables, two lookups per image or
preimage of a subset instead of a loop over its states.  The layer
search keeps a candidate iff it is not a singleton and no kept set
covers it.  Each round visits its candidates once, in decreasing mask
order, so a proper superset is kept before the candidates inside it.
A candidate met in an earlier round is skipped, at one byte per mask
(2^n bytes): it was kept then, or covered by a set that is still kept.
Each new candidate gets one cover test: a reduce ANDs, over the
candidate's states, one bitset per state of the kept sets that hold it,
first for the current round's kept sets and then for the earlier rounds'.
The states come from two lookups in split tables of state tuples.  At
the end of a round, the round's bitsets are folded into the earlier
rounds' for the states its kept sets touch.  So the search takes k steps
per kept set, but its cover tests cost up to (kept sets × new candidates
× n) bit operations, and these ANDs still dominate where the layers are
wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import and_
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


def shortest_reset_word(dfa: Dfa) -> Optional[Word]:
    """A minimum-length word of rank 1, or None if the automaton never resets.

    Breadth-first search over images of the full state set on the
    shared search kernel, stopping at the first singleton; ties between
    equal-length words are broken by letter order.
    """
    singletons = frozenset(1 << q for q in range(dfa.n))

    def first_singleton(level: list[int]) -> Optional[int]:
        if singletons.isdisjoint(level):
            return None
        return next(m for m in level if m in singletons)

    letters, _ = _shortest_word(dfa, True, dfa.full_mask, first_singleton)
    return None if letters is None else Word(letters)


@dataclass(frozen=True)
class LayerTrace:
    """The layer families produced by the inverse search.

    ``masks[i]`` holds, as masks over ``n`` states, the maximal
    non-singleton subsets first reached after i preimage steps;
    ``found_at`` is the first index whose layer contains the full state
    set, or None when the layers died out.  ``layers`` holds the same
    sets as StateSets, built on first read.
    """

    masks: tuple[tuple[int, ...], ...]
    n: int
    found_at: Optional[int]

    @cached_property
    def layers(self) -> tuple[tuple[StateSet, ...], ...]:
        return tuple(tuple(StateSet.from_mask(s, self.n) for s in m) for m in self.masks)


@cache
def _state_tables(n: int) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Split tables of the states of each mask over n states.

    Returns h = ceil(n/2) and tables lo and hi such that the 0-based
    states of mask m, in increasing order, are lo[m & (2^h - 1)] +
    hi[m >> h], split as the automaton's step tables are.  Each is
    filled by doubling, as ``automaton._union_table`` fills step tables,
    once per n on first use.
    """
    h = (n + 1) // 2
    halves = []
    for states in (range(h), range(h, n)):
        table: list[tuple[int, ...]] = [()]
        for q in states:
            table += [t + (q,) for t in table]
        halves.append(table)
    return h, halves[0], halves[1]


def inverse_layers(dfa: Dfa) -> LayerTrace:
    """Grow the layer families L_0, L_1, ... and report where Q first appears.

    L_0 holds the singletons that some letter maps at least two states
    onto, or the full set itself when there is only one state.  The
    candidates for the next layer are the one-letter preimages of the
    previous layer.  A candidate is kept iff it is not a singleton and no
    kept set covers it: no member of an earlier layer, and no candidate
    of the same round kept before it.  Candidates are visited in
    decreasing mask order, so a superset is kept before the sets inside
    it, and no layer holds a proper subset of another candidate of its
    round.  Stops early once the full set appears or a layer comes out
    empty.  The only layer search; its trace keeps the layers as masks.
    """
    n = dfa.n
    full = dfa.full_mask
    h, tables = _step_tables(dfa, False)
    _, lo_states, hi_states = _state_tables(n)
    low_bits = (1 << h) - 1

    level0 = tuple(
        1 << q
        for q in range(n)
        if n == 1 or any(dfa.inverse[a][q].bit_count() >= 2 for a in range(dfa.k))
    )
    layer_masks = [level0]
    # member[q]: bitset of the indices of the kept sets of earlier rounds
    # that hold q; round_member[q]: the same for the current round.
    member = [0] * n
    for i, s in enumerate(level0):
        member[s.bit_length() - 1] = 1 << i
    round_member = [0] * n
    in_member, in_round = member.__getitem__, round_member.__getitem__
    kept = len(level0)
    # seen[s]: s was met as a candidate before; met in an earlier round,
    # it was kept then or covered by a set that is still kept.
    seen = bytearray(1 << n)
    found_at = 0 if full in level0 else None

    i = 0
    while found_at is None and layer_masks[-1]:
        i += 1
        candidates = {
            lo[s & low_bits] | hi[s >> h]
            for s in layer_masks[-1]
            for lo, hi in tables
        }
        # A proper superset has a larger mask, so in decreasing mask order
        # it is visited, and kept, before the candidates inside it.
        level: list[int] = []
        touched = 0
        for s in sorted(candidates, reverse=True):
            if seen[s]:
                continue
            seen[s] = 1
            if not s & (s - 1):
                continue
            states = lo_states[s & low_bits] + hi_states[s >> h]
            if level and reduce(and_, map(in_round, states)):
                continue
            if reduce(and_, map(in_member, states)):
                continue
            bit = 1 << len(level)
            level.append(s)
            touched |= s
            for q in states:
                round_member[q] |= bit
        layer_masks.append(tuple(reversed(level)))
        for q in lo_states[touched & low_bits] + hi_states[touched >> h]:
            member[q] |= round_member[q] << kept
            round_member[q] = 0
        kept += len(level)
        if full in level:
            found_at = i
    return LayerTrace(tuple(layer_masks), n, found_at)


def checked_reset_word(dfa: Dfa) -> Optional[Word]:
    """A shortest reset word whose length both methods confirm, or None.

    Runs the forward search once and the layer search once.  Raises
    ConsistencyError if the two searches disagree, which would mean a bug
    in one of them.
    """
    word = shortest_reset_word(dfa)
    found_at = inverse_layers(dfa).found_at
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
