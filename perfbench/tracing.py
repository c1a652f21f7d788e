"""Spans around the library's public functions, for the traced run.

``Tracer.install`` rebinds each traced function, under every name any
``synchromata`` module holds it by, to a wrapper that records a span:
function, start, end, parent span and the item being analysed.  Calls
between library modules go through those module globals, so nested
calls are caught too.  ``uninstall`` puts the originals back, so
untraced passes run the library unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

# layer.function -> work counts read off the function's result
TRACED = {
    "cli.main": None,
    "io.load_path": None,
    "io.loads": None,
    "families.build_family": None,
    "automaton.is_strongly_connected": None,
    "automaton.is_synchronizing": None,
    "reset.shortest_reset_word": None,
    "reset.inverse_layers": lambda r: {"layer_widths": [len(x) for x in r.layers]},
    "extension.extension_profile": None,
    "extension.image_extension_bound":
        lambda r: {"bound_images": r.reachable_image_count},
    "extension.reachable_images": lambda r: {"reachable_images": len(r)},
    "extension.shortest_extending_word": None,
    "extension.shortest_avoiding_word": None,
    "extension.is_irreducibly_synchronizing": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    item: Optional[str]
    counts: Optional[dict]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item: Optional[str] = None
        self._stack: list = []
        self._bound: list = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "synchromata" or name.startswith("synchromata.")]
        for name, count in TRACED.items():
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"synchromata.{layer}"], attr)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bound.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in self._bound:
            setattr(module, key, original)
        self._bound.clear()

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.item, None)
            if count is not None:
                spans[index].counts = count(result)
            return result

        return traced
