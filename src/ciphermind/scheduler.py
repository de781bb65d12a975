"""Chained layer scheduling and the shared 64-bit mixing primitive.

Every transmitted token advances a 64-bit chain state; the state picks
which transformer block's output is tapped for the next frame. Both ends
run the same chain off the same token stream, so the layer sequence never
travels on the wire.

The mixing function is the SplitMix64 finalizer. It is also reused as the
project-wide deterministic generator (weight init, synthetic data), so the
whole artifact has exactly one PRF primitive.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer of a Python int, or of each element of a uint64
    array (whose products wrap as the masks do). Bijective on 64-bit
    integers; mix64(0) == 0."""
    z = z & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


class Stream:
    """SplitMix64 output stream: state += GOLDEN, emit mix64(state)."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array: n calls to next_u64 in one
        vectorized draw, leaving the stream in the same state."""
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        self._state = (self._state + n * GOLDEN) & MASK64
        return mix64(z)

    def next_below(self, n: int) -> int:
        """Uniform-ish draw in [0, n). Modulo bias < n/2**64, accepted."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates driven by the stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def init_chain(key_bytes: bytes, nonce: int, message_seq: int) -> int:
    """The chain's 64-bit IV, from the session key, nonce and message number."""
    if len(key_bytes) != 16:
        raise ValueError("session key must be 16 bytes")
    key_low = int.from_bytes(key_bytes[0:8], "little")
    key_high = int.from_bytes(key_bytes[8:16], "little")
    return mix64(key_low ^ key_high ^ (nonce & MASK64) ^ ((message_seq * GOLDEN) & MASK64))


def advance(state: int, token_id: int, vocab_size: int = 260) -> int:
    """Chain one transmitted token into the 64-bit state."""
    if not 0 <= token_id < vocab_size:
        raise ValueError(f"token id {token_id} out of range [0, {vocab_size})")
    return mix64(state ^ (((token_id + 1) * GOLDEN) & MASK64))


def layer_of(state: int, n_blocks: int) -> int:
    """Tapped block for the next frame: uniform over 1..n_blocks-1.

    The final block is never tapped; its output is one head multiplication
    away from logits.
    """
    if n_blocks < 2:
        raise ValueError("need at least 2 blocks to schedule a middle layer")
    return 1 + (state % (n_blocks - 1))
