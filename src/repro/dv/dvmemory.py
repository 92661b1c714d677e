"""The VIC's on-board "DV memory" (32 MB of QDR SRAM).

Word-addressable (64-bit words), readable and writable from both the host
(across PCIe) and the network.  Slots hold a single word and only the
last-written value can be read (paper §II) — there is no queueing at a
memory slot, which is why multiple writers to one address must coordinate.

Backing storage is chunked and allocated on first touch so that a 32-VIC
cluster does not eagerly commit 1 GB of host RAM.
"""

from __future__ import annotations

from typing import Dict, Union

import numpy as np

_CHUNK_WORDS = 1 << 16  # 64 Ki words (512 KB) per chunk

ArrayLike = Union[int, np.ndarray]


class DVMemory:
    """Sparse, chunked 64-bit-word memory.

    All values are ``numpy.uint64``.  Vectorised gather/scatter mirrors
    how the benchmarks use the DV memory (bulk pre-caching of headers,
    payload staging, address-map lookups).
    """

    def __init__(self, n_words: int) -> None:
        if n_words < 1:
            raise ValueError("n_words must be positive")
        self.n_words = int(n_words)
        self._chunks: Dict[int, np.ndarray] = {}

    # -- bounds ----------------------------------------------------------
    def _check(self, addrs: np.ndarray) -> None:
        if addrs.size == 0:
            return
        lo, hi = int(addrs.min()), int(addrs.max())
        if lo < 0 or hi >= self.n_words:
            raise IndexError(
                f"DV memory address out of range: [{lo}, {hi}] "
                f"vs capacity {self.n_words} words")

    # -- scalar ops ----------------------------------------------------------
    def read_word(self, addr: int) -> int:
        """Read one 64-bit word."""
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range")
        chunk = self._chunks.get(addr // _CHUNK_WORDS)
        if chunk is None:
            return 0
        return int(chunk[addr % _CHUNK_WORDS])

    def write_word(self, addr: int, value: int) -> None:
        """Write one 64-bit word (overwrites; slots hold one word)."""
        if not 0 <= addr < self.n_words:
            raise IndexError(f"address {addr} out of range")
        cidx = addr // _CHUNK_WORDS
        chunk = self._chunks.get(cidx)
        if chunk is None:
            chunk = self._chunks[cidx] = np.zeros(_CHUNK_WORDS, np.uint64)
        chunk[addr % _CHUNK_WORDS] = np.uint64(value & (2**64 - 1))

    # -- vector ops ----------------------------------------------------------
    def scatter(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Write ``values[i]`` to ``addrs[i]``; later entries win ties
        (matching last-writer semantics)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.uint64)
        if addrs.shape != values.shape:
            raise ValueError("addrs and values must have identical shapes")
        if addrs.size == 1:
            # one-word writes (count exchanges, query replies) are the
            # common delivery: plain ints, no reductions or fancy index
            a = int(addrs.item())
            if not 0 <= a < self.n_words:
                raise IndexError(
                    f"DV memory address out of range: [{a}, {a}] "
                    f"vs capacity {self.n_words} words")
            cidx, off = divmod(a, _CHUNK_WORDS)
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = self._chunks[cidx] = np.zeros(_CHUNK_WORDS, np.uint64)
            chunk[off] = values.item()
            return
        if addrs.size == 0:
            return
        lo, hi = int(addrs.min()), int(addrs.max())
        if lo < 0 or hi >= self.n_words:
            raise IndexError(
                f"DV memory address out of range: [{lo}, {hi}] "
                f"vs capacity {self.n_words} words")
        clo = lo // _CHUNK_WORDS
        if clo == hi // _CHUNK_WORDS:
            # common case: the whole batch lands in one chunk (fancy
            # assignment already gives later-entry-wins on duplicates)
            chunk = self._chunks.get(clo)
            if chunk is None:
                chunk = self._chunks[clo] = np.zeros(_CHUNK_WORDS, np.uint64)
            chunk[addrs % _CHUNK_WORDS] = values
            return
        order = np.argsort(addrs // _CHUNK_WORDS, kind="stable")
        addrs, values = addrs[order], values[order]
        bounds = np.flatnonzero(np.diff(addrs // _CHUNK_WORDS)) + 1
        for seg_a, seg_v in zip(np.split(addrs, bounds),
                                np.split(values, bounds)):
            if seg_a.size == 0:
                continue
            cidx = int(seg_a[0]) // _CHUNK_WORDS
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = self._chunks[cidx] = np.zeros(_CHUNK_WORDS, np.uint64)
            chunk[seg_a % _CHUNK_WORDS] = seg_v

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        """Read ``addrs`` into a fresh array (zeros where untouched)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        self._check(addrs)
        out = np.zeros(addrs.shape, np.uint64)
        flat_a = addrs.ravel()
        flat_o = out.ravel()
        cids = flat_a // _CHUNK_WORDS
        for cidx in np.unique(cids):
            chunk = self._chunks.get(int(cidx))
            if chunk is None:
                continue
            mask = cids == cidx
            flat_o[mask] = chunk[flat_a[mask] % _CHUNK_WORDS]
        return out

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Contiguous block write starting at ``start``."""
        values = np.asarray(values, dtype=np.uint64)
        self.scatter(np.arange(start, start + values.size), values)

    def read_range(self, start: int, n: int) -> np.ndarray:
        """Contiguous block read of ``n`` words."""
        return self.gather(np.arange(start, start + n))

    @property
    def touched_bytes(self) -> int:
        """Host RAM actually committed (diagnostics)."""
        return len(self._chunks) * _CHUNK_WORDS * 8
