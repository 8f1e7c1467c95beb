"""Named derivation of independent random streams from one root seed.

Every piece of randomness in the package flows from a single integer seed
fanned out by a (label, index, ...) path, so adding a new consumer never
perturbs an existing stream. A generation run reads a few run-level
streams (for example ``(seed, "lambda")`` and ``(seed, "choice")``) as
blocks with one row per slot; row k depends only on (seed, k), because a
block's leading rows do not depend on its length. Serial and parallel runs
therefore draw identical values. Seeds and integer path parts must lie in
[0, 2**32): they enter the stream as one 32-bit word each, so a wider
value would silently alias a narrower one.
"""

from __future__ import annotations

import functools
import hashlib

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
