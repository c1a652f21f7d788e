import pytest

from synchromata import Dfa, a_odd, b_series, cerny, m_series
from synchromata.io import (
    from_json,
    from_text,
    loads,
    to_dot,
    to_json,
    to_json_dict,
    to_text,
)


@pytest.mark.parametrize(
    "dfa", [a_odd(3), b_series(4), m_series(5), cerny(2)],
    ids=["a-odd", "b-series", "m-series", "cerny"],
)
def test_json_round_trip(dfa):
    assert from_json(to_json(dfa)) == dfa


@pytest.mark.parametrize(
    "dfa", [a_odd(4), m_series(4)], ids=["a-odd", "m-series"]
)
def test_text_round_trip(dfa):
    assert from_text(to_text(dfa)) == dfa


def test_loads_sniffs_format():
    dfa = m_series(4)
    assert loads(to_json(dfa)) == dfa
    assert loads(to_text(dfa)) == dfa
    assert loads("  " + to_json(dfa)) == dfa


def test_json_document_shape():
    doc = to_json_dict(m_series(4))
    assert doc["n"] == 4
    assert doc["alphabet"] == ["a", "b", "c"]
    assert doc["delta"][2] == [4, 2, 3, 1]


def test_custom_alphabet_survives_round_trip():
    dfa = Dfa(2, 2, [[2, 1], [1, 1]], letters="xy")
    again = from_json(to_json(dfa))
    assert again.letters == "xy"
    assert again == dfa


def test_json_validation_errors():
    with pytest.raises(ValueError, match="needs n, alphabet, delta"):
        from_json('{"n": 3}')
    with pytest.raises(ValueError, match="alphabet"):
        from_json('{"n": 2, "alphabet": ["ab"], "delta": [[1, 2]]}')
    with pytest.raises(ValueError, match="rows"):
        from_json('{"n": 2, "alphabet": ["a", "b"], "delta": [[1, 2]]}')
    with pytest.raises(ValueError, match="not valid JSON"):
        from_json("{broken")
    with pytest.raises(ValueError, match="distinct"):
        from_json('{"n": 2, "alphabet": ["a", "a"], "delta": [[1, 2], [2, 1]]}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "alphabet": ["a"], "delta": [[1.0, 2]]}',
        '{"n": true, "alphabet": ["a"], "delta": [[true]]}',
        '{"n": 1, "alphabet": ["a"], "delta": [[true]]}',
        '{"n": 2, "alphabet": ["a"], "delta": ["12"]}',
        '{"n": 2, "alphabet": ["a"], "delta": 5}',
        '{"n": 2, "alphabet": ["a"], "delta": [[1, null]]}',
    ],
    ids=["float-entry", "bool-n", "bool-entry", "string-row", "scalar-delta", "null-entry"],
)
def test_json_rejects_non_integer_tables(doc):
    with pytest.raises(ValueError, match="integer"):
        from_json(doc)


def test_text_validation_errors():
    with pytest.raises(ValueError, match="header"):
        from_text("3")
    with pytest.raises(ValueError, match="integers"):
        from_text("2 1\n1 x")
    with pytest.raises(ValueError, match="entries"):
        from_text("2 2\n1 2")
    with pytest.raises(ValueError, match="out of range"):
        from_text("2 1\n1 3")


def test_dot_output():
    dot = to_dot(m_series(4))
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    for q in range(1, 5):
        assert f"q{q};" in dot
    # parallel edges with the same endpoints merge their labels
    assert 'q2 -> q2 [label="b,c"];' in dot
    assert 'q1 -> q2 [label="a,b"];' in dot
    # every line is a node, an edge, or structural
    for line in dot.splitlines()[1:-1]:
        line = line.strip()
        assert line.endswith(";")
        assert line.startswith("q") or line.startswith("rankdir")
