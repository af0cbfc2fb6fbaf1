#!/usr/bin/env python3
"""Check the 10^6 scale-layered instance against pinned sha256 digests.

The scale family's generator replays its scalar geometric-skip loop in
NumPy, and ``CompactGraph.from_arrays`` builds CSR from its arrays; both
must stay bit-identical to the pure-Python definitions.  Tier-1 pins the
100k tier (``tests/workloads/test_scale_scenarios.py``); this script
checks the 1m tier's graph-seed-11 instance at full size:

* the generator arrays: sha256 of ``child`` then ``parent`` bytes, for a
  ``random.Random(11)`` passed in, and that ``Random``'s next
  ``random()``, which pins the state the generator hands back;
* the five CSR buffers of ``scale_layered_orientation``, in
  ``CSR_FIELDS`` order.

::

    PYTHONPATH=src python scripts/check_scale_digests.py

Exit status 0 when every digest matches, 1 with the mismatches otherwise.
"""

from __future__ import annotations

import hashlib
import random
import sys

from repro.graphs.compact import CSR_FIELDS
from repro.graphs.generators import layered_dag_edge_arrays
from repro.workloads.scenarios import SCALE_TIER_PARAMS, scale_layered_orientation

PARAMS = dict(SCALE_TIER_PARAMS["1m"], seed=11)

#: As the scalar generator loop and ``from_edges`` produced them.
ARRAYS_SHA256 = "28b856022322d985bda0e9ffc5366f4bc1ceed42ebda1cdd8891f501ddc1f429"
NEXT_RANDOM = 0.4446813157762828
CSR_SHA256 = "e615ed8db00476ff5dc9bb6204ac161175609d288deaece95865ac738d9d99d5"


def measure():
    rng = random.Random(PARAMS["seed"])
    child, parent = layered_dag_edge_arrays(**dict(PARAMS, seed=rng))
    arrays = hashlib.sha256(memoryview(child).cast("B"))
    arrays.update(memoryview(parent).cast("B"))
    next_draw = rng.random()
    del child, parent
    graph = scale_layered_orientation(**PARAMS)
    csr = hashlib.sha256()
    for field in CSR_FIELDS:
        csr.update(memoryview(getattr(graph, field)).cast("B"))
    return arrays.hexdigest(), next_draw, csr.hexdigest()


def main() -> int:
    names = ("generator arrays", "next random()", "CSR buffers")
    pinned = (ARRAYS_SHA256, NEXT_RANDOM, CSR_SHA256)
    failed = False
    for name, got, want in zip(names, measure(), pinned):
        failed |= got != want
        print(f"1m seed 11 {name}: {got} ({'ok' if got == want else 'MISMATCH'})")
        if got != want:
            print(f"  expected {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
