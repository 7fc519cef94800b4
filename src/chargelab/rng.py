"""Deterministic random streams for every randomized component.

Every stream is keyed by `derive_key`, a hash of a user seed plus a tuple of
purpose tags. Most randomness flows through `substream`, an independent
Philox (counter-based) generator for that key. The d = 3 Sobol scrambles
draw from PCG64 `np.random.default_rng(derive_key(seed, "rqmc-bulk", rep))`
(or "rqmc-stratum") instead, because that is the generator scipy's Sobol
engine seeds from an integer, so the points keep the bits scipy gave them.
Identical (seed, tags) always yield the identical stream, on any platform
and regardless of how many other streams were drawn, so results never
depend on evaluation order or worker count.
"""

import hashlib

import numpy as np

__all__ = ["substream", "derive_key"]


def derive_key(seed, *tags):
    """128-bit key from (seed, tags), stable across runs and platforms."""
    material = repr((int(seed),) + tuple(tags)).encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def substream(seed, *tags):
    """Independent generator for the given seed and purpose tags.

    Parameters
    ----------
    seed : int
        User-facing seed.
    *tags : str | int
        Purpose labels, e.g. ``substream(seed, "mc", round_idx, block)``.

    Returns
    -------
    numpy.random.Generator backed by counter-based Philox.
    """
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *tags)))
