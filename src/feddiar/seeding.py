"""Deterministic RNG substreams.

Every stochastic component draws from default_rng seeded with the experiment
seed plus tag words, so unrelated stages never share a stream and any stage
can be replayed in isolation. String tags hash through crc32 to keep the
seed sequence integer-valued.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import InvalidConfig


def substream(seed: int, *tags) -> np.random.Generator:
    if int(seed) < 0:
        raise InvalidConfig(f"seed must be non-negative, got {seed}")
    parts = [int(seed)]
    for tag in tags:
        if isinstance(tag, str):
            parts.append(zlib.crc32(tag.encode("utf-8")))
        else:
            parts.append(int(tag))
    return np.random.default_rng(parts)
