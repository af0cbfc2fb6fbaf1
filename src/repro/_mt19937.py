"""``random.Random``'s stream, replayed in NumPy bit for bit.

``random.Random`` is MT19937, and ``random()`` is its ``genrand_res53``
(Matsumoto and Nishimura, ACM TOMACS 1998): two 32-bit words ``a, b``
give ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, which is exact in
``float64``.  :class:`numpy.random.MT19937` loaded with the same state
yields the same words in the same order, so a vector of draws equals
that many ``random()`` calls, and handing NumPy's state back leaves the
``Random`` as if it had made them.  This module imports NumPy; import it
where NumPy is already due.
"""

from __future__ import annotations

import random

import numpy as np


def numpy_bits(rng: random.Random) -> np.random.MT19937:
    """A :class:`numpy.random.MT19937` in ``rng``'s current state."""
    _, (*key, pos), _ = rng.getstate()
    bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key, dtype=np.uint32), "pos": pos},
    }
    return bits


def res53(words: np.ndarray) -> np.ndarray:
    """The ``random()`` floats of consecutive word pairs, as ``float64``."""
    return ((words[0::2] >> 5) * 2**26 + (words[1::2] >> 6)) / 2**53


def hand_back(rng: random.Random, bits: np.random.MT19937) -> None:
    """Set ``rng`` to ``bits``' state, keeping its version and Gaussian."""
    version, _, gauss_next = rng.getstate()
    after = bits.state["state"]
    rng.setstate((version, (*after["key"].tolist(), after["pos"]), gauss_next))
