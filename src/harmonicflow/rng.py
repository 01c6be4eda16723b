"""Deterministic random streams.

Every random draw in the package flows from one scenario seed, an int >= 0
(unmasked: seed 2**64 + 1 does not draw what seed 1 draws), through
a counter-based Philox generator; independent subsystems get their own stream
derived from a fixed string label, so adding draws in one place never shifts
the values seen by another.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the named Philox stream for ``seed``; a negative seed raises ValueError."""
    tag = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag,))
    return np.random.Generator(np.random.Philox(ss))
