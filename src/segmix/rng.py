"""Named derivation of independent random streams from one root seed.

Every piece of randomness in the package flows from a single integer seed
fanned out by a (label, index, ...) path, so adding a new consumer never
perturbs an existing stream. A generation run reads a few run-level
streams (for example ``(seed, "lambda")`` and ``(seed, "choice")``) as
blocks with one row per slot; row k depends only on (seed, k), because a
block's leading rows do not depend on its length. Serial and parallel runs
therefore draw identical values. Many streams that differ only in a last
string part, such as one per distinct trigram, are seeded at once by
``derive_rngs``. Seeds and integer path parts must lie in
[0, 2**32): they enter the stream as one 32-bit word each, so a wider
value would silently alias a narrower one.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Iterator

import numpy as np

_WORD = 1 << 32


@functools.lru_cache(maxsize=1024)
def _label_words(label: str) -> tuple[int, int]:
    # sha256, not hash(): Python string hashing is salted per process.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 8, 4))


def _word(value, what: str) -> int:
    value = int(value)
    if not 0 <= value < _WORD:
        raise ValueError(f"{what} must lie in [0, 2**32), got {value}")
    return value


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator for the stream named by ``(seed, *path)``.

    Path elements may be ints (used directly) or strings (hashed to two
    32-bit words). Equal paths give bit-identical streams; any difference
    in the path gives an independent stream. A seed or integer path part
    outside [0, 2**32) raises ValueError.
    """
    entropy: list[int] = [_word(seed, "seed")]
    for part in path:
        if isinstance(part, (int, np.integer)):
            entropy.append(_word(part, "integer path part"))
        else:
            entropy.extend(_label_words(str(part)))
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence: a pool of 4 uint32 words, hashed and mixed with
# 32-bit multiplies under a running hash constant, and read out as a cycle.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(const: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The running hash constant before and after each multiply, step by step."""
    while True:
        yield np.uint32(const), np.uint32(const := const * mult & 0xFFFFFFFF)


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _seed_states(entropy: np.ndarray, n_words: int = 8) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for every row of an
    (n, L) uint32 entropy array, in whole-column uint32 steps."""
    entropy = np.asarray(entropy, np.uint32)
    hashes = _hash_constants(_INIT_A, _MULT_A)
    padding = np.zeros(len(entropy), np.uint32)  # a short entropy is padded by hashing 0
    pool = [_hashmix(entropy[:, i] if i < entropy.shape[1] else padding, hashes) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for src in range(_POOL, entropy.shape[1]):  # words past the pool are mixed into every pool word
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], hashes))
    hashes = _hash_constants(_INIT_B, _MULT_B)
    return np.stack([_hashmix(pool[i % _POOL], hashes) for i in range(n_words)], axis=1)


def derive_rngs(seed: int, label: str, names: Iterable[str]) -> Iterator[np.random.Generator]:
    """``derive_rng(seed, label, name)`` for each name in turn, seeded at once.

    numpy's SeedSequence entropy mixing runs for all names together in
    uint32 array steps, and each PCG64 seeds itself from its words through
    the ``ISeedSequence`` interface as it is yielded, so only the caller's
    current generator is alive. Names are hashed on every call, not cached
    as labels are.
    """

    class Words(np.random.bit_generator.ISeedSequence):  # here, so importing loads no numpy.random
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds {len(self.words)} uint64 words, not {n_words} of {dtype}")
            return self.words

    digests = b"".join(hashlib.sha256(name.encode("utf-8")).digest()[:8] for name in names)
    entropy = np.empty((len(digests) // 8, 5), np.uint32)
    entropy[:, :3] = (_word(seed, "seed"), *_label_words(str(label)))
    entropy[:, 3:] = np.frombuffer(digests, "<u4").reshape(-1, 2)
    # PCG64 reads 4 uint64 words; numpy pairs the uint32 words little-endian
    states = _seed_states(entropy).astype("<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(Words(words))) for words in states)
