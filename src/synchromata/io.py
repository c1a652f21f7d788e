"""Reading and writing automata: JSON and plain-text tables, DOT export.

JSON document shape: {"n": int, "alphabet": ["a", "b"], "delta": [[...]]}
with one row per letter holding n 1-based successor indices.  The plain
text form is a header line "n k" followed by k whitespace-separated rows
of n 1-based targets (letters default to a, b, c, ...).
"""

from __future__ import annotations

import json

from .automaton import Dfa


def to_json_dict(dfa: Dfa) -> dict:
    return {
        "n": dfa.n,
        "alphabet": list(dfa.letters),
        "delta": dfa.rows(),
    }


def from_json_dict(doc: dict) -> Dfa:
    try:
        n = doc["n"]
        alphabet = doc["alphabet"]
        delta = doc["delta"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"automaton document needs n, alphabet, delta: {exc}")
    if not isinstance(alphabet, list) or not all(
        isinstance(ch, str) and len(ch) == 1 for ch in alphabet
    ):
        raise ValueError("alphabet must be a list of single-character names")
    if not isinstance(delta, list) or not all(isinstance(row, list) for row in delta):
        raise ValueError("delta must be a list of rows of integer state numbers")
    if len(delta) != len(alphabet):
        raise ValueError(
            f"delta has {len(delta)} rows but the alphabet has {len(alphabet)} letters"
        )
    return Dfa(n, len(alphabet), delta, "".join(alphabet))


def to_json(dfa: Dfa) -> str:
    return json.dumps(to_json_dict(dfa), indent=2) + "\n"


def from_json(text: str) -> Dfa:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}")
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse")
    return from_json_dict(doc)


def to_text(dfa: Dfa) -> str:
    lines = [f"{dfa.n} {dfa.k}"]
    for row in dfa.rows():
        lines.append(" ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Dfa:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("text automaton needs a header line 'n k'")
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ValueError("text automaton must contain only integers")
    n, k = values[0], values[1]
    body = values[2:]
    if n < 1 or k < 1:
        raise ValueError(f"bad header n={n} k={k}")
    if len(body) != n * k:
        raise ValueError(f"expected {n * k} transition entries, got {len(body)}")
    rows = [body[a * n : (a + 1) * n] for a in range(k)]
    return Dfa(n, k, rows)


def loads(text: str) -> Dfa:
    """Parse either format, sniffing JSON by its leading brace."""
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_text(text)


def load_path(path: str) -> Dfa:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def to_dot(dfa: Dfa) -> str:
    """Graphviz digraph with one edge per state pair, letters merged in the label."""
    merged: dict[tuple[int, int], list[str]] = {}
    for a in range(dfa.k):
        for q in range(1, dfa.n + 1):
            key = (q, dfa.step(q, a))
            merged.setdefault(key, []).append(dfa.letters[a])
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for q in range(1, dfa.n + 1):
        lines.append(f"  q{q};")
    for (src, dst), letters in sorted(merged.items()):
        label = ",".join(letters)
        lines.append(f'  q{src} -> q{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
