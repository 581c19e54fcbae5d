"""Systematic Reed–Solomon erasure coding, RS(k, m), over GF(2^8).

Splits a data block into ``k`` fragments and computes ``m`` parity
fragments such that *any* ``k`` of the ``k+m`` survive-and-decode.  The
code matrix is a systematic Cauchy-style matrix: the top k×k block is the
identity (data fragments are stored verbatim — systematic codes are what
HDFS-EC/Ceph use), and the parity rows come from a Cauchy matrix, which
guarantees every k×k submatrix of the full matrix is invertible.

Supports ``k + m <= 256``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..common.errors import InsufficientReplicasError
from .gf256 import gf_inv, gf_mat_inv, gf_matmul

__all__ = ["RSCode"]


def _cauchy_parity(k: int, m: int) -> np.ndarray:
    """An m×k Cauchy matrix over GF(256): C[i][j] = 1 / (x_i + y_j).

    With x_i = k + i and y_j = j all elements x_i + y_j (XOR) are nonzero
    for k + m <= 256, and every square submatrix of a Cauchy matrix is
    invertible — exactly the property systematic MDS codes need.
    """
    out = np.zeros((m, k), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            out[i, j] = gf_inv((k + i) ^ j)
    return out


class RSCode:
    """A systematic RS(k, m) codec for byte blocks.

    >>> code = RSCode(4, 2)
    >>> frags = code.encode(b"hello world!")
    >>> code.decode({0: frags[0], 2: frags[2], 4: frags[4], 5: frags[5]},
    ...             orig_len=12)
    b'hello world!'
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 0 or k + m > 256:
            raise ValueError("need 1 <= k, 0 <= m, k + m <= 256")
        self.k = k
        self.m = m
        self.n = k + m
        self._parity = _cauchy_parity(k, m) if m else np.zeros((0, k), np.uint8)
        self._matrix = np.concatenate(
            [np.eye(k, dtype=np.uint8), self._parity], axis=0)

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per data byte: (k+m)/k."""
        return self.n / self.k

    def fragment_size(self, orig_len: int) -> int:
        """Bytes per fragment for a block of ``orig_len`` bytes."""
        return (orig_len + self.k - 1) // self.k if orig_len else 0

    def encode(self, data: bytes) -> List[bytes]:
        """Split + encode ``data`` into ``k+m`` equal-size fragments.

        Fragments ``0..k-1`` are the (zero-padded) data shards; ``k..n-1``
        are parity.
        """
        data = bytes(data)
        frag = self.fragment_size(len(data))
        if frag == 0:
            return [b""] * self.n
        padded = np.zeros(self.k * frag, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        shards = padded.reshape(self.k, frag)
        if self.m:
            parity = gf_matmul(self._parity, shards)
            all_shards = np.concatenate([shards, parity], axis=0)
        else:
            all_shards = shards
        return [s.tobytes() for s in all_shards]

    def decode(self, fragments: Dict[int, bytes], orig_len: int) -> bytes:
        """Rebuild the original block from any ``k`` fragments.

        ``fragments`` maps fragment index → bytes.  Raises
        :class:`InsufficientReplicasError` with fewer than ``k`` fragments.
        """
        if orig_len == 0:
            return b""
        if len(fragments) < self.k:
            raise InsufficientReplicasError(
                f"need {self.k} fragments, have {len(fragments)}")
        idxs = sorted(fragments)[: self.k]
        frag = self.fragment_size(orig_len)
        rows = np.stack([
            np.frombuffer(fragments[i], dtype=np.uint8) for i in idxs])
        if rows.shape[1] != frag:
            raise ValueError(
                f"fragment size {rows.shape[1]} != expected {frag}")
        if idxs == list(range(self.k)):
            data = rows.reshape(-1)
        else:
            sub = self._matrix[idxs]           # k×k, invertible by Cauchy
            inv = gf_mat_inv(sub)
            data = gf_matmul(inv, rows).reshape(-1)
        return data.tobytes()[:orig_len]

    def reconstruct_fragment(self, fragments: Dict[int, bytes],
                             missing: int, orig_len: int) -> bytes:
        """Rebuild a single lost fragment from any ``k`` survivors.

        This is the repair path: decode to data shards, re-encode the one
        missing row.  Network cost (k fragment reads) is charged by the
        storage layer, not here.
        """
        if not (0 <= missing < self.n):
            raise ValueError(f"fragment index {missing} out of range")
        data = self.decode(fragments, orig_len=self.fragment_size(orig_len) * self.k)
        frag = self.fragment_size(orig_len)
        shards = np.frombuffer(data, dtype=np.uint8).reshape(self.k, frag)
        if missing < self.k:
            return shards[missing].tobytes()
        row = self._parity[missing - self.k: missing - self.k + 1]
        return gf_matmul(row, shards)[0].tobytes()
