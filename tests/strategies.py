"""Hypothesis strategies shared by the property tests.

Kept apart from ``helpers`` so that importing the oracles (the benchmark
does) does not import hypothesis.
"""

from hypothesis import strategies as st


@st.composite
def transition_rows(draw, max_n, max_k=3):
    """1-based transition rows of an automaton with 1..max_n states, 1..max_k letters."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    row = st.lists(st.integers(1, n), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=k, max_size=k))
