"""Compatibility shim: every entry point runs one implementation.

The compact kernels are the public entry points; the dict paths live
beside them under ``*_reference`` names (see the README's "Reference
oracles" table).  Nothing in ``src/`` resolves a backend any more.
"""

from __future__ import annotations

from typing import Optional


def resolve_backend(backend: Optional[str] = None) -> str:
    """Always ``"compact"``.

    Compatibility shim for ``perfbench/run.py``; delete with the next
    benchmark change.
    """
    return "compact"
