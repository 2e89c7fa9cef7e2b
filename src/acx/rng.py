"""Counter-based pseudorandom generator for reproducible test batteries.

SplitMix-style recurrence with the usual 64-bit constants; every battery in
the package draws from this generator so that a fixed seed reproduces the
identical battery on any platform, independent of numpy's global state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class CounterRng:
    """Deterministic stream of doubles from a 64-bit counter recurrence."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def normal(self) -> float:
        # Box-Muller, caching the spare draw.
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = max(self.uniform(), 1e-300)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, shape) -> np.ndarray:
        flat = np.array([self.normal() for _ in range(int(np.prod(shape)))])
        return flat.reshape(shape)

    def uniforms(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        flat = np.array([self.uniform(lo, hi) for _ in range(int(np.prod(shape)))])
        return flat.reshape(shape)

    def symmetric(self, d: int, scale: float = 1.0) -> np.ndarray:
        m = self.normals((d, d))
        return scale * 0.5 * (m + m.T)

    def spd(self, d: int, shift: float = 0.1) -> np.ndarray:
        m = self.normals((d, d))
        return m @ m.T + shift * np.eye(d)

    def complex_normals(self, shape) -> np.ndarray:
        return self.normals(shape) + 1j * self.normals(shape)

    def hermitian(self, n: int, scale: float = 1.0) -> np.ndarray:
        m = self.complex_normals((n, n))
        return scale * 0.5 * (m + m.conj().T)
