"""Independent brute-force oracles used to cross-check the library.

Everything here works on the public 1-based transition table and plain
Python sets (or naive per-state scans), deliberately avoiding the
library's bitmask helpers, precomputed inverse tables and shared-search
shortcuts, so that agreement is meaningful.
"""

from collections import deque
from itertools import product

from synchromata import Dfa


def o_image(rows, states, word):
    out = frozenset(states)
    for a in word:
        out = frozenset(rows[a][q - 1] for q in out)
    return out


def o_preimage(rows, states, a):
    n = len(rows[0])
    return frozenset(q for q in range(1, n + 1) if rows[a][q - 1] in states)


def o_preimage_word(rows, states, word):
    out = frozenset(states)
    for a in reversed(list(word)):
        out = o_preimage(rows, out, a)
    return out


def o_reset_length(rows):
    """Shortest-reset length by breadth-first search over frozensets."""
    n = len(rows[0])
    k = len(rows)
    full = frozenset(range(1, n + 1))
    if len(full) == 1:
        return 0
    seen = {full}
    queue = deque([(full, 0)])
    while queue:
        cur, d = queue.popleft()
        for a in range(k):
            nxt = frozenset(rows[a][q - 1] for q in cur)
            if nxt in seen:
                continue
            seen.add(nxt)
            if len(nxt) == 1:
                return d + 1
            queue.append((nxt, d + 1))
    return None


def o_shortest_word(rows, start, goal, forward=True):
    """First shortest word from start to a set that satisfies goal, or None.

    Breadth-first search over frozensets with the letters tried in order.
    With ``forward`` each step moves the set by one more letter at the end
    of the word; otherwise each step takes the preimage under one more
    letter at the front.  Either way the word returned is the first, in
    letter order of its steps, among the shortest ones: the word itself
    for image steps, the word read backwards for preimage steps.
    """
    start = frozenset(start)
    if goal(start):
        return []
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        cur, steps = queue.popleft()
        for a in range(len(rows)):
            nxt = o_image(rows, cur, [a]) if forward else o_preimage(rows, cur, a)
            if nxt in seen:
                continue
            seen.add(nxt)
            if goal(nxt):
                steps = steps + [a]
                return steps if forward else steps[::-1]
            queue.append((nxt, steps + [a]))
    return None


def o_extending_length(dfa: Dfa, mask: int):
    """Shortest extending length by per-subset BFS with per-state preimage scans."""
    rows = dfa.rows()
    n, k = dfa.n, dfa.k
    card = bin(mask).count("1")
    seen = {mask}
    queue = deque([(mask, 0)])
    while queue:
        cur, d = queue.popleft()
        for a in range(k):
            nxt = 0
            for q in range(1, n + 1):
                if cur >> (rows[a][q - 1] - 1) & 1:
                    nxt |= 1 << (q - 1)
            if nxt in seen:
                continue
            seen.add(nxt)
            if bin(nxt).count("1") > card:
                return d + 1
            queue.append((nxt, d + 1))
    return None


def o_profile(dfa: Dfa):
    """Extension profile as a per-cardinality list, one naive BFS per subset."""
    n = dfa.n
    out = []
    for c in range(1, n):
        worst = 0
        for mask in range(1, 1 << n):
            if bin(mask).count("1") != c:
                continue
            length = o_extending_length(dfa, mask)
            if length is None:
                worst = None
                break
            worst = max(worst, length)
        out.append(worst)
    return out


def o_profile_witness(dfa: Dfa):
    """The profile's witness set, from one naive BFS per subset.

    The first subset in (cardinality, mask) order that never extends, or
    else the first one whose shortest extending length is the largest.
    """
    n = dfa.n
    masks = sorted(range(1, (1 << n) - 1), key=lambda m: (bin(m).count("1"), m))
    lengths = [o_extending_length(dfa, m) for m in masks]
    if None in lengths:
        mask = masks[lengths.index(None)]
    else:
        mask = masks[lengths.index(max(lengths))]
    return frozenset(q for q in range(1, n + 1) if mask >> (q - 1) & 1)


def o_strongly_connected(rows):
    """True iff every state reaches every other: one plain-set search per state."""
    n = len(rows[0])
    for start in range(1, n + 1):
        seen = {start}
        stack = [start]
        while stack:
            p = stack.pop()
            for row in rows:
                if row[p - 1] not in seen:
                    seen.add(row[p - 1])
                    stack.append(row[p - 1])
        if len(seen) < n:
            return False
    return True


def o_reachable_images(rows):
    """Every image of the full state set, by breadth-first search over frozensets."""
    full = frozenset(range(1, len(rows[0]) + 1))
    seen = {full}
    queue = deque([full])
    while queue:
        cur = queue.popleft()
        for row in rows:
            nxt = frozenset(row[q - 1] for q in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def o_image_extension_length(rows, reach, s):
    """Shortest u whose preimage of s contains a reachable image larger than s."""
    larger = [t for t in reach if len(t) > len(s)]
    dist = {s: 0}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for a in range(len(rows)):
            nxt = o_preimage(rows, cur, a)
            if nxt in dist:
                continue
            dist[nxt] = dist[cur] + 1
            if any(t <= nxt for t in larger):
                return dist[nxt]
            queue.append(nxt)
    return None


def o_image_bound(dfa: Dfa):
    """(reachable image count, worst length, worst set) of the image bound.

    One frozenset search per proper reachable image; the worst set is the
    first in (cardinality, mask) order, and the length is None, with that
    image as the set, if some image never grows.
    """
    rows = dfa.rows()
    reach = o_reachable_images(rows)
    worst, worst_set = -1, None
    for s in sorted(reach, key=lambda s: (len(s), sum(1 << (q - 1) for q in s))):
        if len(s) == dfa.n:
            continue
        length = o_image_extension_length(rows, reach, s)
        if length is None:
            return len(reach), None, s
        if length > worst:
            worst, worst_set = length, s
    return len(reach), worst, worst_set


def no_shorter_extending_word(dfa: Dfa, states, length):
    """True iff no word shorter than ``length`` extends the given subset.

    Exhaustive enumeration over all k^l words; only usable for small
    lengths and alphabets.
    """
    rows = dfa.rows()
    start = frozenset(states)
    for l in range(length):
        for word in product(range(dfa.k), repeat=l):
            if len(o_preimage_word(rows, start, word)) > len(start):
                return False
    return True


def random_dfa(rng, n, k):
    rows = [[rng.randint(1, n) for _ in range(n)] for _ in range(k)]
    return Dfa(n, k, rows)
