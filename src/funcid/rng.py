"""Deterministic random-stream derivation.

Every stochastic step in the toolkit (instance transforms, sample draws,
shuffles, weight init, noise) pulls from its own counter-based Philox
stream, keyed by a 64-bit seed plus a tuple of integer tags.  Streams with
different tags never overlap, so datasets regenerate bit-identically no
matter how generation work is ordered or which BLAS kernel runs
(``suite.bbob`` sums in numpy's own order; the discrete sums are exact).
Training bytes (float32 GEMMs, and so LMDL files, ``results.json`` and the
benchmark's training pins) still depend on the kernel.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# Stream tags.  Values are part of the reproducibility contract: changing
# them changes every generated artifact.
TRANSLATION = 1
ROTATION_R = 2
ROTATION_Q = 3
F_OFFSET = 4
AUX = 5
SAMPLES = 6
SHUFFLE = 7
INSTANCE_SEEDS = 8
UNSEEN_INSTANCE_SEEDS = 9
WEIGHT_INIT = 10
BATCH_ORDER = 11
NOISE = 12


def _mix(word: int, tag: int) -> int:
    """One splitmix64 step folding ``tag`` into ``word``."""
    z = (word + 0x9E3779B97F4A7C15 * (tag + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _Key(ISeedSequence):
    """A pass-through seed sequence that hands Philox its two key words as given.

    Philox asks its seed sequence for two uint64 words and uses them as the
    key, with the counter at 0, which is the state ``Philox(key=...)`` sets.
    Passing the key this way skips the ``SeedSequence()`` entropy pull that
    ``Philox(key=...)`` makes and then discards.  The sequence cannot spawn, so
    neither can the generators built on it.
    """

    def __init__(self, words: list[int]):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return np.array(self.words, dtype=np.uint64)


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Return the Philox generator for (seed, tags).

    The Philox key is ``[seed mod 2**64, tag word]`` and the counter starts
    at 0.  The seed occupies the first key word verbatim, so distinct seeds
    always give distinct streams; the tag tuple is hashed into the second
    word by a chain of splitmix64 steps.  The key reaches Philox through a
    pass-through ``ISeedSequence``, so the generator is not spawnable.
    """
    word = 0x243F6A8885A308D3
    for tag in tags:
        word = _mix(word, int(tag) & _MASK64)
    return np.random.Generator(np.random.Philox(_Key([int(seed) & _MASK64, word])))


def derive_seed(seed: int, *tags: int) -> int:
    """Derive a nonzero 63-bit child seed from (seed, tags).

    Zero is avoided because a zero instance seed selects the identity
    (untransformed) instance.
    """
    value = int(substream(seed, *tags).integers(1, 1 << 63))
    return value
