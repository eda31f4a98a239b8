"""Delay-Doppler effective channel matrix: assembly, decomposition, fast apply.

For an integer-grid channel the MN x MN input-output matrix H is block
lower-banded in delay, with phase-rotated wrap blocks in the upper-right
corner, and decomposes as H = sum_p h_p * H_p where each per-path coefficient
matrix H_p is a phase-decorated permutation (exactly one unit-modulus entry
per row and per column).  That structure is stored explicitly, so applying H
or its adjoint costs O(P*M*N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FrameConfig

DENSE_LIMIT = 4096  # largest MN for which dense fallbacks are allowed


def cyclic_permutation(N: int) -> np.ndarray:
    """Forward cyclic shift: (C x)[n] = x[(n-1) mod N]; C^N = I."""
    if N < 1:
        raise ValueError("N must be >= 1")
    C = np.zeros((N, N))
    idx = np.arange(N)
    C[idx, (idx - 1) % N] = 1.0
    return C


def phase_rotation(N: int) -> np.ndarray:
    """Unitary diagonal diag(1, e^{-j2pi/N}, ..., e^{-j2pi(N-1)/N})."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.diag(np.exp(-2j * np.pi * np.arange(N) / N))


def build_block(G: np.ndarray, l: int, m: int, config: FrameConfig) -> np.ndarray:
    """N x N Doppler-coupling block for delay offset l at block row m.

    Sums the Doppler rows of the gain matrix G, each contributing its cyclic
    Doppler shift weighted by the accumulated phase exp(j*2*pi*k*(m-l)/(MN)).
    Negative Doppler uses the transposed (inverse) cyclic shift.
    """
    G = np.asarray(G)
    rows, L = G.shape
    if rows % 2 != 1:
        raise ValueError("G must have an odd number of Doppler rows (2*L1+1)")
    L1 = (rows - 1) // 2
    if not 0 <= l < L:
        raise ValueError(f"delay offset l={l} outside [0, {L})")
    if not 0 <= m < config.M:
        raise ValueError(f"block row m={m} outside [0, {config.M})")
    N = config.N
    C = cyclic_permutation(N)
    A = np.zeros((N, N), dtype=complex)
    for k in range(-L1, L1 + 1):
        g = G[k + L1, l]
        if g == 0:
            continue
        Ck = np.linalg.matrix_power(C if k >= 0 else C.T, abs(k))
        A += g * np.exp(2j * np.pi * k * (m - l) / (config.M * config.N)) * Ck
    return A


@dataclass(frozen=True, eq=False)
class PathCoeff:
    """Unit-gain per-path matrix H_p as a row-indexed permutation with phases.

    Row i = m*N + n has its single nonzero at column cols[i] with value
    vals[i]; |vals[i]| = 1 everywhere.
    """

    l: int
    k: int
    cols: np.ndarray
    vals: np.ndarray

    @property
    def size(self) -> int:
        return self.cols.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.vals * x[self.cols]

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.empty_like(y)
        out[self.cols] = np.conj(self.vals) * y
        return out

    def to_dense(self) -> np.ndarray:
        n = self.size
        if n > DENSE_LIMIT:
            raise ValueError(f"dense fallback refused for MN={n} > {DENSE_LIMIT}")
        H = np.zeros((n, n), dtype=complex)
        H[np.arange(n), self.cols] = self.vals
        return H


def path_coefficient_matrix(l: int, k: int, config: FrameConfig) -> PathCoeff:
    """Coefficient matrix of a unit-gain path at integer grid cell (l, k)."""
    M, N = config.M, config.N
    if not 0 <= l < M:
        raise ValueError(f"delay bin l={l} outside [0, {M})")
    if not -(N // 2) <= k <= (N + 1) // 2 - 1:
        raise ValueError(f"Doppler bin k={k} outside the signed grid range")
    m = np.arange(M)[:, None]
    n = np.arange(N)[None, :]
    src_m = m - l
    wrap = src_m < 0
    src_m = np.where(wrap, src_m + M, src_m)
    src_n = (n - k) % N
    vals = np.exp(2j * np.pi * k * (m - l) / (M * N)) * np.ones((M, N))
    vals = np.where(wrap, vals * np.exp(-2j * np.pi * src_n / N), vals)
    cols = src_m * N + src_n
    return PathCoeff(l=l, k=k, cols=cols.reshape(-1).astype(np.int64),
                     vals=vals.reshape(-1).astype(complex))


@dataclass(eq=False)
class EffectiveChannel:
    """H = sum_p gains[p] * per_path[p], stored path-wise for O(P*MN) products."""

    config: FrameConfig
    gains: np.ndarray
    per_path: tuple
    _stage: object = field(default=None, repr=False)  # detector.LinearStage, built on first use

    @property
    def shape(self):
        n = self.config.mn
        return (n, n)

    @property
    def P(self) -> int:
        return len(self.per_path)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.config.mn:
            raise ValueError(f"vector length {x.shape[0]} != MN = {self.config.mn}")
        out = np.zeros_like(x, dtype=complex)
        for h, pc in zip(self.gains, self.per_path):
            out += h * pc.apply(x)
        return out

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        out = np.zeros_like(y, dtype=complex)
        for h, pc in zip(self.gains, self.per_path):
            out += np.conj(h) * pc.apply_adjoint(y)
        return out

    def coo(self):
        """Merged sparse entries as (rows, cols, vals), duplicates summed."""
        n = self.config.mn
        rows = np.tile(np.arange(n, dtype=np.int64), self.P)
        cols = np.concatenate([pc.cols for pc in self.per_path]) if self.P else np.zeros(0, np.int64)
        vals = np.concatenate([h * pc.vals for h, pc in zip(self.gains, self.per_path)]) \
            if self.P else np.zeros(0, complex)
        keys = rows * n + cols
        uniq, inv = np.unique(keys, return_inverse=True)
        merged = np.zeros(uniq.size, dtype=complex)
        np.add.at(merged, inv, vals)
        return uniq // n, uniq % n, merged

    def to_dense(self) -> np.ndarray:
        n = self.config.mn
        if n > DENSE_LIMIT:
            raise ValueError(f"dense fallback refused for MN={n} > {DENSE_LIMIT}")
        H = np.zeros((n, n), dtype=complex)
        for h, pc in zip(self.gains, self.per_path):
            H[np.arange(n), pc.cols] += h * pc.vals
        return H

    def frobenius_norm_sq(self) -> float:
        _, _, vals = self.coo()
        return float(np.sum(np.abs(vals) ** 2))

    def entry_map(self):
        """Sorted (flat_key, value) arrays of the merged nonzeros."""
        rows, cols, vals = self.coo()
        return rows * self.config.mn + cols, vals


def assemble_H(chan, config: FrameConfig) -> EffectiveChannel:
    """Assemble the effective matrix of a channel realization path by path."""
    if chan.P and chan.L > config.M:
        raise ValueError("channel delay spread exceeds the frame grid")
    per_path = tuple(path_coefficient_matrix(p.l, p.k, config) for p in chan.paths)
    gains = np.array([p.h for p in chan.paths], dtype=complex)
    return EffectiveChannel(config=config, gains=gains, per_path=per_path)


def effective_channel_from_cells(cells, gains, config: FrameConfig) -> EffectiveChannel:
    """Effective matrix directly from (l, k) hypotheses and gains."""
    per_path = tuple(path_coefficient_matrix(l, k, config) for l, k in cells)
    return EffectiveChannel(config=config, gains=np.asarray(gains, dtype=complex),
                            per_path=per_path)


def frobenius_distance_sq(a: EffectiveChannel, b: EffectiveChannel) -> float:
    """||A - B||_F^2 via the merged sparse entries."""
    ka, va = a.entry_map()
    kb, vb = b.entry_map()
    keys = np.concatenate([ka, kb])
    vals = np.concatenate([va, -vb])
    uniq, inv = np.unique(keys, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=complex)
    np.add.at(merged, inv, vals)
    return float(np.sum(np.abs(merged) ** 2))

