"""Output checks: each returns a list of problems, empty when the answer is right.

Every length is checked against a closed form where the paper gives one
and otherwise against ``expected.json``, values frozen from the library
at the commit that added this benchmark (``freeze.py`` rebuilds the file).
Every word the program returns is applied with the public
``check_sync_word``, ``preimage_word`` and ``image``.  On ``sweep`` the
answers are compared with the brute-force oracles in ``tests/helpers.py``,
which do not use the library's bitmask code.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

# paper closed forms, by family, of the parameter the family is built from
CLOSED_RESET = {
    "cerny": lambda n: (n - 1) ** 2,
    "m-series": lambda n: n * n - 3 * n + 3,
    "m-prime": lambda n: n * n - 3 * n + 2,
}
CLOSED_IMAGE_BOUND = {"b-series": lambda m: 3 * m - 1}

# output lines that name a state set or a word: they depend on the state
# labelling, so they are checked by applying them, not by comparison
LABELLED_FIELDS = ("shortest reset word", "witness subset", "witness word",
                   "worst image")

# the whole-lattice oracle runs one search per subset; above this size it
# costs more than the analysis it checks
ORACLE_PROFILE_MAX_N = 9


def parse_fields(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def frozen_fields(text: str) -> dict:
    """The output lines that do not depend on the state labelling."""
    return {key: value for key, value in parse_fields(text).items()
            if key not in LABELLED_FIELDS}


def _parse_set(text: str, n: int, sm):
    states = [int(t.strip()[1:]) for t in text.strip("{}").split(",") if t.strip()]
    return sm.StateSet(states, n)


def check_cli(item, answer, expected: dict, sm) -> list:
    code, text = answer
    if code != 0:
        return [f"exit code {code}"]
    fields = parse_fields(text)
    problems = []
    if item.key not in expected:
        problems.append("no frozen value")
    elif frozen_fields(text) != expected[item.key]:
        problems.append(f"output {frozen_fields(text)} != frozen {expected[item.key]}")
    dfa = sm.Dfa(item.n, item.k, item.rows)
    command = item.argv[0]
    try:
        if command == "analyze":
            length = int(fields["reset length"])
            if item.family in CLOSED_RESET and length != CLOSED_RESET[item.family](item.param):
                problems.append(f"reset length {length} breaks the closed form")
            word = fields["shortest reset word"]
            if len(word) != length or sm.check_sync_word(dfa, word) is None:
                problems.append(f"reset word {word!r} does not reset in {length} letters")
        elif command == "profile":
            length = int(fields["profile"])
            subset = _parse_set(fields["witness subset"], item.n, sm)
            word = fields["witness word"]
            grown = sm.preimage_word(dfa, subset, word)
            if len(word) != length or len(grown) <= len(subset):
                problems.append(f"witness word {word!r} does not extend {subset}")
            if fields.get(f"cardinality {len(subset)}") != str(length):
                problems.append("witness subset is not in the worst cardinality")
        elif command == "conjecture":
            worst = int(fields["worst length"])
            if (item.family in CLOSED_IMAGE_BOUND
                    and worst != CLOSED_IMAGE_BOUND[item.family](item.param)):
                problems.append(f"image bound {worst} breaks the closed form")
            if fields["constant witness"].split()[0] != str(Fraction(worst, item.n)):
                problems.append("constant witness is not worst length / n")
            if not 0 < len(_parse_set(fields["worst image"], item.n, sm)) < item.n:
                problems.append("worst image is not a proper subset")
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _oracle_connected(rows) -> bool:
    n = len(rows[0])
    forward = {q: {row[q - 1] for row in rows} for q in range(1, n + 1)}
    backward = {q: {p for p in range(1, n + 1) if q in forward[p]}
                for q in range(1, n + 1)}
    for edges in (forward, backward):
        seen = {1}
        stack = [1]
        while stack:
            for q in edges[stack.pop()] - seen:
                seen.add(q)
                stack.append(q)
        if len(seen) != n:
            return False
    return True


def _oracle_images(rows, helpers) -> dict:
    """Every image of the full set, with the length of a shortest word to it."""
    full = frozenset(range(1, len(rows[0]) + 1))
    depth = {full: 0}
    queue = deque([full])
    while queue:
        cur = queue.popleft()
        for a in range(len(rows)):
            nxt = helpers.o_image(rows, cur, [a])
            if nxt not in depth:
                depth[nxt] = depth[cur] + 1
                queue.append(nxt)
    return depth


def _mask(states) -> int:
    return sum(1 << (q - 1) for q in states)


def check_sweep(item, answer, sm, helpers) -> list:
    rows, n, k = item.rows, item.n, item.k
    dfa = sm.Dfa(n, k, rows)
    problems = []

    if answer["connected"] != _oracle_connected(rows):
        problems.append("strong connectivity disagrees with the oracle")
    length = helpers.o_reset_length(rows)
    if answer["sync"] != (length is not None) or answer["length"] != length:
        problems.append(f"reset length {answer['length']} != oracle {length}")
    word = answer["word"]
    if (word is None) != (length is None) or (
            word is not None and (len(word) != length
                                  or sm.check_sync_word(dfa, word) is None)):
        problems.append(f"reset word {word!r} is wrong")
    if length is not None:
        irreducible = all(
            helpers.o_reset_length([r for b, r in enumerate(rows) if b != a]) is None
            for a in range(k)) if k > 1 else True
        if answer["irreducible"] != irreducible:
            problems.append("irreducibility disagrees with the oracle")

    per_card, max_length, witness, witness_word = answer["profile"]
    if n <= ORACLE_PROFILE_MAX_N and list(per_card) != helpers.o_profile(dfa):
        problems.append("extension profile disagrees with the oracle")
    witness_set = sm.StateSet(witness, n)
    if max_length is None:
        if helpers.o_extending_length(dfa, witness_set.mask) is not None:
            problems.append("profile witness is extendable")
    elif (len(witness_word) != max_length or per_card[len(witness) - 1] != max_length
          or len(sm.preimage_word(dfa, witness_set, witness_word)) <= len(witness)):
        problems.append("profile witness word is wrong")

    depth = _oracle_images(rows, helpers)
    if set(answer["images"]) != {_mask(s) for s in depth}:
        problems.append("reachable images disagree with the oracle")
    if answer["bound"] is not None:
        count, worst, worst_set, constant = answer["bound"]
        if (count != len(depth) or _mask(worst_set) not in set(answer["images"])
                or worst_set == tuple(range(1, n + 1))
                or constant != str(Fraction(worst, n))):
            problems.append("image-extension report is inconsistent")

    full = dfa.full_set()
    for q, word in enumerate(answer["avoiding"], start=1):
        best = min((d for s, d in depth.items() if q not in s), default=None)
        if (word is None) != (best is None) or (
                word is not None and (len(word) != best
                                      or q in sm.image(dfa, full, word))):
            problems.append(f"avoiding word for q{q} is wrong")

    for states, word in zip(item.queries, answer["extending"]):
        best = helpers.o_extending_length(dfa, _mask(states))
        subset = sm.StateSet(states, n)
        if (word is None) != (best is None) or (
                word is not None and (len(word) != best or len(
                    sm.preimage_word(dfa, subset, word)) <= len(states))):
            problems.append(f"extending word for {subset} is wrong")
    return problems
