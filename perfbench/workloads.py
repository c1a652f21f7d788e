"""Workload inputs and the analysis each input runs.

A workload is a fixed list of items, and one item is one analysis:

* ``reset`` and ``lattice``: ``cli.main([subcommand, file])`` on a JSON
  file holding a member of a named family;
* ``sweep``: a battery of public-function calls on the JSON text of a
  seeded random automaton.

The seed picks a relabelling of the states of each automaton and the
order of the items.  Every answer the checks look at is invariant under
relabelling, and so is the search work, so each workload does the same
work on every seed and its timings vary only with the machine.  The
``sweep`` automata are drawn once from SWEEP_POOL_SEED, a fixed number
per (states, letters) class: with automata drawn afresh for each seed,
the few slow outliers among them moved the p99 latency by 15% from seed
to seed.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

# (subcommand, family, parameters).  The walls left out for run length
# are listed in README.md.
PLANS = {
    "reset": [
        # forward-heavy: up to 2^n images, layers at most 2 wide
        ("analyze", "cerny", range(10, 19)),
        ("analyze", "m-series", range(10, 18)),
        ("analyze", "m-prime", range(10, 18)),
        # layer-heavy: layers up to 167 wide, at most 16k images
        ("analyze", "a-odd", range(4, 9)),
        ("analyze", "a-even", range(4, 9)),
        ("analyze", "conservative", range(4, 9)),
        ("analyze", "b-series", range(4, 7)),
    ],
    "lattice": [
        ("profile", "b-series", range(4, 9)),
        ("profile", "a-odd", range(4, 10)),
        ("profile", "conservative", range(4, 8)),
        ("profile", "cerny", range(8, 17)),
        ("conjecture", "b-series", range(4, 6)),
        ("conjecture", "a-odd", range(3, 7)),
        ("conjecture", "cerny", range(6, 12)),
        ("conjecture", "m-series", range(6, 12)),
    ],
}
WORKLOADS = ("reset", "lattice", "sweep")

SWEEP_CLASSES = [(n, k) for n in range(6, 13) for k in (2, 3)]
SWEEP_PER_CLASS = 72
SWEEP_POOL_SEED = "sweep-pool-1"
EXTEND_QUERIES = 3


@dataclass
class Item:
    """One analysis: its input and what the checks need to judge it."""

    key: str
    n: int
    k: int
    rows: list  # the 1-based transition table the program receives
    family: Optional[str] = None
    param: Optional[int] = None
    argv: Optional[list] = None  # reset, lattice
    text: Optional[str] = None  # sweep
    queries: tuple = ()  # sweep: state lists for extending-word queries


def generate(name: str, seed: int, sm, workdir: Path) -> list:
    """The items of workload ``name`` for ``seed``; writes the CLI input files."""
    rng = random.Random(f"{name}/{seed}")
    if name == "sweep":
        items = _sweep_items(rng, sm)
    else:
        items = _family_items(PLANS[name], rng, sm, workdir)
    rng.shuffle(items)
    return items


def _relabel(rows, rng):
    """The rows with the states renumbered at random, and the renumbering."""
    n = len(rows[0])
    perm = list(range(1, n + 1))
    rng.shuffle(perm)  # state q becomes perm[q-1]
    out = [[0] * n for _ in rows]
    for a, row in enumerate(rows):
        for q, t in enumerate(row, start=1):
            out[a][perm[q - 1] - 1] = perm[t - 1]
    return out, perm


def _family_items(plan, rng, sm, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for command, family, params in plan:
        for p in params:
            dfa = sm.build_family(family, p)
            rows, _ = _relabel(dfa.rows(), rng)
            path = workdir / f"{command}-{family}-{p}.json"
            path.write_text(sm.io.to_json(sm.Dfa(dfa.n, dfa.k, rows, dfa.letters)),
                            encoding="utf-8")
            items.append(Item(key=f"{command}/{family}/{p}", n=dfa.n, k=dfa.k,
                              rows=rows, family=family, param=p,
                              argv=[command, str(path)]))
    return items


def _sweep_items(rng, sm) -> list:
    pool = random.Random(SWEEP_POOL_SEED)
    items = []
    for n, k in SWEEP_CLASSES:
        for i in range(SWEEP_PER_CLASS):
            rows = [[pool.randint(1, n) for _ in range(n)] for _ in range(k)]
            queries = [pool.sample(range(1, n + 1), pool.randint(1, n - 1))
                       for _ in range(EXTEND_QUERIES)]
            rows, perm = _relabel(rows, rng)
            items.append(Item(
                key=f"sweep/n{n}k{k}/{i:02d}", n=n, k=k, rows=rows,
                text=sm.io.to_json(sm.Dfa(n, k, rows)),
                queries=tuple(tuple(sorted(perm[q - 1] for q in states))
                              for states in queries)))
    return items


def run_cli(item: Item, sm):
    """Time one ``cli.main`` call; the answer is (exit code, stdout)."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        code = sm.cli.main(item.argv)
        elapsed = perf_counter() - t0
    return elapsed, (code, buf.getvalue())


def run_battery(item: Item, sm):
    """Time the sweep battery on one automaton; the answer is plain data."""
    t0 = perf_counter()
    dfa = sm.io.loads(item.text)
    connected = sm.is_strongly_connected(dfa)
    sync = sm.is_synchronizing(dfa)
    length = sm.reset_length(dfa)
    word = sm.shortest_reset_word(dfa)
    irreducible = bound = None
    if sync:
        irreducible = sm.is_irreducibly_synchronizing(dfa)
    profile = sm.extension_profile(dfa)
    if sync:
        bound = sm.image_extension_bound(dfa)
    images = sm.reachable_images(dfa)
    avoiding = [sm.shortest_avoiding_word(dfa, q) for q in range(1, dfa.n + 1)]
    extending = [sm.shortest_extending_word(dfa, sm.StateSet(states, dfa.n))
                 for states in item.queries]
    elapsed = perf_counter() - t0
    answer = {
        "connected": connected,
        "sync": sync,
        "length": length,
        "word": _word(word),
        "irreducible": irreducible,
        "profile": (profile.per_cardinality_max, profile.max_length,
                    profile.witness_set.states(), _word(profile.witness_word)),
        "bound": None if bound is None else (
            bound.reachable_image_count, bound.worst_length,
            bound.worst_set.states(), str(bound.constant_witness)),
        "images": tuple(s.mask for s in images),
        "avoiding": [_word(w) for w in avoiding],
        "extending": [_word(w) for w in extending],
    }
    return elapsed, answer


def _word(w) -> Optional[str]:
    return None if w is None else str(w)


RUNNERS = {"reset": run_cli, "lattice": run_cli, "sweep": run_battery}
