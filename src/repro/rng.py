"""Deterministic random-number management.

Every stochastic component of the library (solar clouds, price spikes,
demand bursts, observation noise) draws from an independent, named
substream derived from a single root seed.  This gives two properties the
experiment harness relies on:

* **reproducibility** — the same root seed always produces bit-identical
  traces, so paper figures regenerate exactly;
* **independence under change** — adding draws to one component (say, the
  solar model) does not perturb any other component's stream, because
  substreams are derived by hashing the component name rather than by
  sharing a sequential generator.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from repro.exceptions import ConfigurationError

#: Root seed used by the paper-preset traces when none is given.
DEFAULT_SEED = 20130708  # ICDCS 2013 began July 8, 2013.


def substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit seed for a named substream.

    The derivation hashes ``(root_seed, name)`` with SHA-256, so streams
    for different names are statistically independent and insensitive to
    the order in which components are constructed.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(root_seed: int, name: str) -> np.random.Generator:
    """Create an independent generator for the component ``name``.

    Constructed as ``Generator(PCG64(SeedSequence(seed)))`` — the
    explicit form of ``numpy.random.default_rng(seed)``, bit-identical
    streams, but skipping ``default_rng``'s argument dispatch (fleet
    cursors mint nine generators per scenario, so construction cost is
    on the sweep hot path).
    """
    seed = substream_seed(root_seed, name)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed)))


# ----------------------------------------------------------------------
# Batched generator construction
# ----------------------------------------------------------------------
#
# ``SeedSequence`` construction dominates fleet-cursor setup (nine
# generators per scenario, ~14 us each), so the batch path computes the
# seed-hashing for *all* (scenario, substream) pairs in one vectorized
# pass and feeds the precomputed words straight into ``PCG64``.  The
# arithmetic below replicates numpy's ``SeedSequence`` mixing exactly
# (same constants, same hash-constant schedule, same pool cycling), so
# the resulting generators are bit-identical to
# ``Generator(PCG64(SeedSequence(seed)))`` — property-tested against
# numpy in ``tests/test_rng.py``.

#: ``SeedSequence`` hashing constants (numpy/random/bit_generator.pyx).
_XSHIFT = np.uint32(16)
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_L = np.uint32(0xca01f9dd)
_MIX_R = np.uint32(0x4973f715)
_POOL_SIZE = 4
_MASK32 = 0xffffffff


def batch_seed_states(seeds: np.ndarray) -> np.ndarray:
    """``PCG64`` seed words for many seeds in one vectorized pass.

    ``seeds`` is a ``(B,)`` array of non-negative integers below
    ``2**64``; the result is the ``(B, 4)`` uint64 matrix whose row
    ``i`` equals ``np.random.SeedSequence(int(seeds[i]))
    .generate_state(4, np.uint64)`` bit for bit.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise ConfigurationError(f"seeds must be 1-D, got shape {seeds.shape}")
    b = seeds.shape[0]

    # Entropy words, zero-padded to the pool size.  numpy coerces an
    # int seed to its little-endian uint32 words (1 word when the seed
    # fits 32 bits); padding with zeros is exact because the mixer
    # hashes a literal 0 for missing words.
    entropy = np.zeros((b, _POOL_SIZE), dtype=np.uint32)
    entropy[:, 0] = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    entropy[:, 1] = (seeds >> np.uint64(32)).astype(np.uint32)

    # mix_entropy: the hash constant advances per *call*, independent
    # of the hashed values, so it stays a scalar schedule under
    # vectorization.
    hash_const = _INIT_A

    def hashmix(column: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = column ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    pool = np.empty((b, _POOL_SIZE), dtype=np.uint32)
    for i in range(_POOL_SIZE):
        pool[:, i] = hashmix(entropy[:, i])
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src == i_dst:
                continue
            hashed = hashmix(pool[:, i_src])
            mixed = (pool[:, i_dst] * _MIX_L) - (hashed * _MIX_R)
            mixed ^= mixed >> _XSHIFT
            pool[:, i_dst] = mixed

    # generate_state(4, uint64): 8 uint32 words off the cycled pool,
    # viewed as little-endian uint64 pairs (numpy's own .view).
    state = np.empty((b, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        data = pool[:, i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        data = data * np.uint32(hash_const)
        data ^= data >> _XSHIFT
        state[:, i_dst] = data
    return state.view(np.uint64)


class _PrecomputedSeedState(ISeedSequence):
    """Adapter feeding precomputed seed words to a bit generator.

    ``PCG64(seed_sequence)`` only calls ``generate_state(4, uint64)``;
    this shim serves exactly that request from a row of
    :func:`batch_seed_states`, skipping per-generator ``SeedSequence``
    hashing.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        words = self._words
        if n_words != words.shape[0] or np.dtype(dtype) != words.dtype:
            raise ConfigurationError(
                f"precomputed state holds {words.shape[0]} words of "
                f"{words.dtype}, not {n_words} of {np.dtype(dtype)}")
        return words


def substream_rngs_batch(root_seeds: Sequence[int],
                         names: Sequence[str]
                         ) -> dict[str, list[np.random.Generator]]:
    """Generators for every ``(root_seed, name)`` pair, batch-seeded.

    Returns ``{name: [generator per root seed]}``; each generator's
    stream is bit-identical to ``make_rng(root_seed, name)`` (the
    per-generator reference), but the seed hashing runs as one
    vectorized pass over all pairs.
    """
    names = list(names)
    seeds = np.array([substream_seed(seed, name)
                      for seed in root_seeds for name in names],
                     dtype=np.uint64)
    if seeds.size == 0:
        return {name: [] for name in names}
    states = batch_seed_states(seeds)
    rngs: dict[str, list[np.random.Generator]] = {
        name: [] for name in names}
    index = 0
    for _ in root_seeds:
        for name in names:
            rngs[name].append(np.random.Generator(np.random.PCG64(
                _PrecomputedSeedState(states[index]))))
            index += 1
    return rngs
