"""Command-line front end.

Exit codes: 0 on success (and when every checked claim passes), 1 when a
claim or property check fails or two independent computations disagree
(ConsistencyError), 2 on usage or input errors (ValueError) and on files
that cannot be read or written (OSError), 3 when a search runs out of
memory (MemoryError), 130 when interrupted (KeyboardInterrupt).  Every
error exit prints one ``error:`` line to stderr.

No subcommand takes a search cap: the reset searches always settle, and
``profile`` and ``conjecture`` run at every size the library accepts,
with the cost model of :mod:`synchromata.extension`.

The argument parser is built once per process, on the first :func:`main`
call, and shared by every later call.  Each subcommand runs the
``cmd_<name>`` function of this module (``-`` read as ``_``), looked up
by name when it is called.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext
from functools import cache
from typing import Optional

from . import io
from .automaton import (
    ConsistencyError,
    Dfa,
    StateSet,
    is_strongly_connected,
    is_synchronizing,
)
from .extension import (
    _image_links,
    _image_masks,
    _irreducible,
    extension_profile,
    image_extension_bound,
    shortest_avoiding_word,
    shortest_extending_word,
)
from .families import FAMILIES, build_family
from .replication import check_caps, iter_claims
from .reset import checked_reset_word, inverse_layers


def _parse_subset(text: str, dfa: Dfa) -> StateSet:
    try:
        states = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"subset must be comma-separated state numbers, got {text!r}")
    return StateSet(states, dfa.n)


# the output formats of ``gen``, by name
_FORMATS = {"json": io.to_json, "text": io.to_text, "dot": io.to_dot}


def cmd_gen(args) -> int:
    out = _FORMATS[args.format](build_family(args.family, args.size))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_analyze(args) -> int:
    dfa = io.load_path(args.automaton)
    print(f"states: {dfa.n}")
    print(f"alphabet: {dfa.letters}")
    print(f"strongly connected: {'yes' if is_strongly_connected(dfa) else 'no'}")
    sync = is_synchronizing(dfa)
    print(f"synchronizing: {'yes' if sync else 'no'}")
    if sync:
        word = checked_reset_word(dfa)
        print(f"reset length: {len(word)}")
        print(f"shortest reset word: {dfa.word_str(word)}")
        irr = _irreducible(dfa)
        print(f"irreducibly synchronizing: {'yes' if irr else 'no'}")
    return 0


def cmd_extend(args) -> int:
    dfa = io.load_path(args.automaton)
    subset = _parse_subset(args.set, dfa)
    word = shortest_extending_word(dfa, subset)
    if word is None:
        print(f"subset {subset} is not extendable")
    else:
        print(f"shortest extending length: {len(word)}")
        print(f"word: {dfa.word_str(word)}")
    return 0


def cmd_profile(args) -> int:
    dfa = io.load_path(args.automaton)
    report = extension_profile(dfa)
    for c, value in enumerate(report.per_cardinality_max, start=1):
        shown = "unbounded" if value is None else value
        print(f"cardinality {c}: {shown}")
    if report.max_length is None:
        print(f"profile: unbounded (subset {report.witness_set} is not extendable)")
    else:
        print(f"profile: {report.max_length}")
        print(f"witness subset: {report.witness_set}")
        print(f"witness word: {dfa.word_str(report.witness_word)}")
    return 0


def cmd_avoid(args) -> int:
    dfa = io.load_path(args.automaton)
    word = shortest_avoiding_word(dfa, args.state)
    if word is None:
        print(f"state q{args.state} cannot be avoided")
    else:
        print(f"shortest avoiding length: {len(word)}")
        print(f"word: {dfa.word_str(word)}")
    return 0


def cmd_images(args) -> int:
    dfa = io.load_path(args.automaton)
    if not args.list:
        links = _image_links(dfa)
        print(f"reachable images: {len(links) - links.count(0)}")
        return 0
    masks = _image_masks(dfa)
    print(f"reachable images: {len(masks)}")
    for m in masks:
        print(f"  {StateSet.from_mask(m, dfa.n)}")
    return 0


def cmd_conjecture(args) -> int:
    dfa = io.load_path(args.automaton)
    report = image_extension_bound(dfa)
    print(f"reachable images: {report.reachable_image_count}")
    print(f"worst length: {report.worst_length}")
    print(f"worst image: {report.worst_set}")
    print(f"constant witness: {report.constant_witness} "
          f"(~{float(report.constant_witness):.3f})")
    return 0


def cmd_layers(args) -> int:
    dfa = io.load_path(args.automaton)
    trace = inverse_layers(dfa)
    if args.trace:
        for i, layer in enumerate(trace.masks):
            sets = " ".join(str(StateSet.from_mask(s, trace.n)) for s in layer)
            print(f"L_{i}: {sets if sets else '(empty)'}")
    if trace.found_at is not None:
        print(f"full set reached at layer {trace.found_at}")
    else:
        print("layers died out; the automaton is not synchronizing")
    return 0


def cmd_verify_paper(args) -> int:
    # check the caps and open a file beside the report before the suite
    # runs, so a bad cap or path fails up front; the file replaces the
    # report only once complete, so a run stopped in the suite leaves an
    # existing report as it was
    check_caps(args.max_m, args.max_n)
    part = f"{args.json}.{os.getpid()}.tmp" if args.json else None
    if part and os.path.isdir(args.json):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.json)
    try:
        fh = open(part, "w", encoding="utf-8") if part else nullcontext()
    except OSError as exc:
        exc.filename = args.json  # name the report, not the file beside it
        raise
    try:
        with fh:
            results = []
            # each line is flushed as its claim is computed, so a run is
            # followed live even when stdout is a pipe
            for r in iter_claims(max_m=args.max_m, max_n=args.max_n):
                results.append(r)
                expected = r.expected if isinstance(r.expected, int) else list(r.expected)
                print(f"{r.status.upper():8s} {r.claim_id}({r.parameter}): "
                      f"computed={r.computed} expected={expected}", flush=True)
            failed = sum(not r.ok for r in results)
            print(f"{len(results) - failed}/{len(results)} claims passed")
            if part:
                json.dump([r.to_dict() for r in results], fh, indent=2)
                fh.write("\n")
        if part:
            os.replace(part, args.json)
    finally:
        if part and os.path.exists(part):
            os.remove(part)
    if failed:
        print(f"error: {failed} claims failed", file=sys.stderr)
        return 1
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; callers share it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="synchromata",
        description="Exact synchronization analysis of deterministic automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named automaton family member")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--size", required=True, type=int,
                   help="family parameter (m for the 2m-state families, n otherwise)")
    p.add_argument("--format", choices=list(_FORMATS), default="json")
    p.add_argument("--output", "-o", help="write to a file instead of stdout")

    p = sub.add_parser("analyze", help="connectivity, synchronization, reset length")
    p.add_argument("automaton", help="automaton file (JSON or text)")

    p = sub.add_parser("extend", help="shortest extending word for a subset")
    p.add_argument("automaton")
    p.add_argument("--set", required=True,
                   help="comma-separated 1-based state numbers, e.g. 6,7,8,9")

    p = sub.add_parser("profile", help="extension profile over all subsets")
    p.add_argument("automaton")

    p = sub.add_parser("avoid", help="shortest word keeping a state out of the image")
    p.add_argument("automaton")
    p.add_argument("--state", required=True, type=int)

    p = sub.add_parser("images", help="subsets reachable as images of the full set")
    p.add_argument("automaton")
    p.add_argument("--list", action="store_true", help="print every image")

    p = sub.add_parser("conjecture", help="image-aware extension bound report")
    p.add_argument("automaton")

    p = sub.add_parser("layers", help="inverse layer search for the reset length")
    p.add_argument("automaton")
    p.add_argument("--trace", action="store_true", help="dump every layer")

    p = sub.add_parser("verify-paper", help="run the full replication claim suite")
    p.add_argument("--max-m", type=int, default=8,
                   help="cap for the two-letter family parameter")
    p.add_argument("--max-n", type=int, default=10,
                   help="cap for the ternary series size")
    p.add_argument("--json", help="also write the report as JSON to this path")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
