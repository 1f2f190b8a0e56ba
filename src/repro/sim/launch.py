"""Kernel-launch state: device memory, grid geometry, parameters."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD = 4          # every data element is one 4-byte word


class GlobalMemory:
    """Flat device memory, word-addressed internally, byte-addressed in the
    ISA.  Values are float64 words (exact for integers up to 2**53).

    The default 1 MiB holds every registry launch: the largest, BS at
    paper scale, allocates 213,120 B."""

    def __init__(self, size_bytes: int = 1 << 20):
        if size_bytes % WORD:
            raise ValueError("memory size must be a multiple of 4 bytes")
        self.words = np.zeros(size_bytes // WORD, dtype=np.float64)
        self._next_free = 128           # keep address 0 unused
        #: byte address -> requested byte length, for every allocation.
        #: The lint bounds pass (``analysis.passes``) reads this map
        #: directly to check indexing against the extents.
        self.allocations: dict[int, int] = {}

    @property
    def size_bytes(self) -> int:
        return len(self.words) * WORD

    def image(self) -> np.ndarray:
        """An owned copy of every word a launch can have changed: the
        allocated prefix, extended to one past the last word beyond it
        whose bits are non-zero (so an out-of-bounds write, even of
        ``-0.0``, still shows).  The words past the image are all zero."""
        end = self._next_free // WORD
        tail = self.words[end:].view(np.uint64)
        if tail.any():
            end += int(np.flatnonzero(tail)[-1]) + 1
        return self.words[:end].copy()

    def alloc(self, num_words: int) -> int:
        """Bump-allocate; returns the byte address (128-byte aligned)."""
        addr = self._next_free
        self._next_free += ((num_words * WORD + 127) // 128) * 128
        if self._next_free > self.size_bytes:
            raise MemoryError("device memory exhausted")
        self.allocations[addr] = num_words * WORD
        return addr

    def alloc_array(self, values) -> int:
        data = np.asarray(values, dtype=np.float64)
        addr = self.alloc(data.size)
        self.words[addr // WORD: addr // WORD + data.size] = data
        return addr

    def read_array(self, byte_addr: int, num_words: int) -> np.ndarray:
        start = byte_addr // WORD
        return self.words[start:start + num_words].copy()

    def load(self, byte_addrs: np.ndarray, mask: np.ndarray) -> np.ndarray:
        out = np.zeros(len(byte_addrs), dtype=np.float64)
        idx = (byte_addrs[mask].astype(np.int64)) // WORD
        out[mask] = self.words[idx]
        return out

    def store(self, byte_addrs: np.ndarray, values: np.ndarray,
              mask: np.ndarray) -> None:
        idx = (byte_addrs[mask].astype(np.int64)) // WORD
        self.words[idx] = values[mask]

    def atomic_add(self, byte_addrs: np.ndarray, values: np.ndarray,
                   mask: np.ndarray) -> None:
        idx = (byte_addrs[mask].astype(np.int64)) // WORD
        np.add.at(self.words, idx, values[mask])


@dataclass
class KernelLaunch:
    """One kernel launch: the kernel, grid geometry, parameter values, and
    the device memory image it runs against."""

    kernel: "object"                       # repro.isa.Kernel
    grid_dim: tuple[int, int, int]
    block_dim: tuple[int, int, int]
    params: dict[str, float]
    memory: GlobalMemory
    shared_words: int = 0                  # shared memory per CTA

    def __post_init__(self) -> None:
        missing = set(self.kernel.params) - set(self.params)
        if missing:
            raise ValueError(f"missing kernel parameters: {sorted(missing)}")

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block_dim
        return bx * by * bz

    @property
    def num_blocks(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    @property
    def warps_per_block(self) -> int:
        return (self.threads_per_block + 31) // 32

    def block_indices(self) -> list[tuple[int, int, int]]:
        gx, gy, gz = self.grid_dim
        return [(x, y, z) for z in range(gz) for y in range(gy)
                for x in range(gx)]


@dataclass
class CTAState:
    """A resident cooperative thread array on an SM."""

    block_idx: tuple[int, int, int]
    launch: KernelLaunch
    shared: np.ndarray = field(default=None)
    warps_done: int = 0
    barrier_count: int = 0
    barrier_generation: int = 0

    def __post_init__(self) -> None:
        if self.shared is None:
            self.shared = np.zeros(max(1, self.launch.shared_words),
                                   dtype=np.float64)
