"""Exact synchronization analysis of deterministic finite automata.

Builds the extremal families of slowly synchronizing and
hard-to-extend automata and computes their reset lengths, shortest
extending and avoiding words, extension profiles and image-extension
bounds, all by exact search over the subset lattice.
"""

from .automaton import (
    MAX_STATES,
    ConsistencyError,
    Dfa,
    StateSet,
    Word,
    image,
    is_compressible,
    is_strongly_connected,
    is_synchronizing,
    preimage,
    preimage_word,
    rank,
    shortest_compressing_word,
)
from .extension import (
    ExtensionReport,
    ImageExtensionReport,
    extension_profile,
    image_extension_bound,
    is_irreducibly_synchronizing,
    reachable_images,
    shortest_avoiding_word,
    shortest_extending_word,
)
from .families import (
    FAMILIES,
    FamilySpec,
    a_even,
    a_odd,
    a_odd_sync_word,
    b_series,
    build_family,
    cerny,
    conservative,
    greedy_extending_word,
    m_prime_series,
    m_prime_series_sync_word,
    m_series,
    m_series_sync_word,
    named_subset,
)
from .replication import (
    ClaimResult,
    all_passing,
    run_all,
)
from .reset import (
    LayerTrace,
    check_sync_word,
    checked_reset_word,
    inverse_layers,
    reset_length,
    shortest_reset_word,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_STATES",
    "ConsistencyError",
    "Dfa",
    "StateSet",
    "Word",
    "ClaimResult",
    "ExtensionReport",
    "ImageExtensionReport",
    "FamilySpec",
    "FAMILIES",
    "LayerTrace",
    "a_even",
    "a_odd",
    "a_odd_sync_word",
    "all_passing",
    "b_series",
    "build_family",
    "cerny",
    "check_sync_word",
    "checked_reset_word",
    "conservative",
    "extension_profile",
    "greedy_extending_word",
    "image",
    "image_extension_bound",
    "inverse_layers",
    "is_compressible",
    "is_irreducibly_synchronizing",
    "is_strongly_connected",
    "is_synchronizing",
    "m_prime_series",
    "m_prime_series_sync_word",
    "m_series",
    "m_series_sync_word",
    "named_subset",
    "preimage",
    "preimage_word",
    "rank",
    "reachable_images",
    "reset_length",
    "run_all",
    "shortest_avoiding_word",
    "shortest_compressing_word",
    "shortest_extending_word",
    "shortest_reset_word",
]
