"""Every name a ``repro`` module exports through ``__all__`` must resolve.

``__all__`` entries are only strings, and several packages serve theirs
lazily through a module ``__getattr__``, so a deleted function can leave
a stale export behind that nothing else notices.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    stale = []
    checked = 0
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                stale.append(f"{module_name}.{name}")
    assert checked > 0
    assert stale == []
