"""Package attributes that import their submodule on first use (PEP 562).

The serving path (``python -m repro serve``) imports a few packages whose
``__init__`` re-exports everything, including submodules built on
networkx or numpy or on the whole phase-algorithm stack.  Those
re-exports are declared here instead and resolved on first access, so a
restart pays only for what it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable


def lazy_attributes(
    package: str, table: Dict[str, Iterable[str]]
) -> Callable[[str], object]:
    """A module ``__getattr__`` serving ``table``'s names lazily.

    ``table`` maps a submodule's dotted name to the attribute names it
    provides.  The first access imports the submodule and caches the
    value in the package namespace, so later accesses are plain lookups.
    """
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
