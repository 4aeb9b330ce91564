"""Poseidon-style permutation parameters.

Round constants are derived deterministically from a byte seed:

    candidate(j, i) = SHAKE-256(seed || j_be8 || i_be4), read as a
    big-endian integer of ceil((bitlen(p)-1)/8) bytes, masked to the
    lowest bitlen(p)-1 bits.

The j-th constant is the first candidate (i = 0, 1, ...) below p.  The MDS
matrix is the Cauchy matrix M[i][j] = 1/(x_i + y_j) with x_i = i and
y_j = t + j, which is invertible for distinct x and y.

These parameters are self-consistent by construction; no byte
compatibility with any external Poseidon instance is intended, and the
round numbers follow the usual ballpark for ~128-bit fields without a
fresh security derivation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .field import FieldParams, f_inv

DEFAULT_SEED = b"zk-pol-poseidon-v1"


class PoseidonParamError(Exception):
    pass


def _derive_constant(seed: bytes, j: int, p: int) -> int:
    nbytes = math.ceil((p.bit_length() - 1) / 8)
    mask = (1 << (p.bit_length() - 1)) - 1
    for attempt in range(1000):
        h = hashlib.shake_256(seed + j.to_bytes(8, "big") + attempt.to_bytes(4, "big"))
        c = int.from_bytes(h.digest(nbytes), "big") & mask
        if c < p:
            return c
    raise PoseidonParamError("constant derivation failed to terminate")


def _cauchy_mds(t: int, p: int) -> list[list[int]]:
    return [[f_inv(p, i + t + j) for j in range(t)] for i in range(t)]


def _is_invertible(m: list[list[int]], p: int) -> bool:
    # Gaussian elimination mod p.
    a = [row[:] for row in m]
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = f_inv(p, a[col][col])
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return True


@dataclass(frozen=True)
class PoseidonParams:
    prime: int
    t: int = 3
    alpha: int = 5
    r_full: int = 8
    r_partial: int = 56
    seed: bytes = DEFAULT_SEED
    round_constants: tuple[int, ...] = field(default=(), repr=False)
    mds: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    @property
    def rate(self) -> int:
        return self.t - 1

    @property
    def n_rounds(self) -> int:
        return self.r_full + self.r_partial

    def __post_init__(self):
        p = self.prime
        if math.gcd(self.alpha, p - 1) != 1:
            raise PoseidonParamError(f"alpha={self.alpha} not coprime with p-1")
        if self.t < 2:
            raise PoseidonParamError("state width must be at least 2")
        if self.r_full % 2 != 0:
            raise PoseidonParamError("r_full must be even")
        if not self.round_constants:
            rc = tuple(
                _derive_constant(self.seed, j, p) for j in range(self.t * self.n_rounds)
            )
            object.__setattr__(self, "round_constants", rc)
        if len(self.round_constants) != self.t * self.n_rounds:
            raise PoseidonParamError("wrong number of round constants")
        if not self.mds:
            object.__setattr__(
                self, "mds", tuple(tuple(r) for r in _cauchy_mds(self.t, p))
            )
        if not _is_invertible([list(r) for r in self.mds], p):
            raise PoseidonParamError("MDS matrix is singular")


@lru_cache(maxsize=16)
def default_poseidon_params(prime: int, seed: bytes = DEFAULT_SEED) -> PoseidonParams:
    return PoseidonParams(prime=prime, seed=seed)


def params_for(field_params: FieldParams, seed: bytes = DEFAULT_SEED) -> PoseidonParams:
    return default_poseidon_params(field_params.modulus, seed)
