"""Prime-field parameters and the bit-width ledger.

Everything in the circuit and gadget layers computes in GF(p), on plain
int residues, for a single configurable prime p.  The default is the
Mersenne prime 2^127 - 1.  ``FieldParams`` requires p > 2^(3*k_c + 6),
where k_c bounds the bit-length of any coordinate or radius; ``widths``
derives every bit width the statements range-check at,
``FieldParams.pack`` how many coordinates the trail hash packs into one
field element, and a
``statements.StatementInstance`` whose widest range check does not fit
below p fails validation when it is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

DEFAULT_MODULUS = 2**127 - 1
DEFAULT_COORD_BITS = 24


class FieldError(Exception):
    """Base class for field-level failures."""


_SMALL_PRIMES = tuple(n for n in range(2, 1000) if all(n % d for d in range(2, isqrt(n) + 1)))


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_prp_base2(n: int) -> bool:
    """Strong (Miller-Rabin) probable-prime test to base 2, odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters (the
    first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4),
    odd n > 2."""
    if isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k for k the leading bits of d, from k = 1.
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(P * U + V), half(D * U + P * V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


@lru_cache(maxsize=None)
def _checked_prime(p: int) -> bool:
    """Baillie-PSW: trial division by the primes below 1000, then a strong
    base-2 test and a strong Lucas test.  No composite is known to pass
    both, and none exists below 2^64."""
    if p < 2:
        return False
    for d in _SMALL_PRIMES:
        if p % d == 0:
            return p == d
    if p < 1000 * 1000:
        return True  # no prime factor below its square root
    return _strong_prp_base2(p) and _strong_lucas_prp(p)


class Widths(NamedTuple):
    seg: int
    tot: int
    cover: int
    shape: int


def widths(coord_bits: int, n_traj: int) -> Widths:
    """Every bit width the statements use, for coordinates and radii below
    2^k (k = coord_bits) and trails of 1..n_traj points:

        seg     k + 1                  segment length isqrt(dx^2 + dy^2)
        tot     k + 1 + bitlen(n_traj) accumulated length (tot, cc, hw, d_req)
        cover   tot + 7                tot * p_req and 100 * cc (p_req <= 100)
        shape   2k                     membership weights r^2 - dist^2 and s, t,
                                       u: below 2^(2k) at a point inside
        pack    k per coordinate       each trail coordinate (region digest),
                                       so an absorbed element packing pack of
                                       them, sum c_j * 2^(kj) < 2^(pack*k) < p,
                                       packs them injectively

    A range check at width m decomposes m bits: ``gadgets.leq`` is sound
    while p > 2^(m+1), a membership check while p > 2^(m+2).  The exact
    root decomposes its remainders at seg + 1 bits and pins d = isqrt(sq)
    while p > 2^(2*seg + 5).  ``FieldParams`` guarantees
    p > 2^(3k + 6), which covers seg and shape; tot and cover grow with
    n_traj and are checked as each instance is constructed, by
    ``statements.validate_instance``, as is the instance's pack, at most
    ``FieldParams.pack`` = floor((bitlen(p) - 1) / k) >= 3.
    """
    seg = coord_bits + 1
    tot = seg + n_traj.bit_length()
    return Widths(seg, tot, cover=tot + 7, shape=2 * coord_bits)


@dataclass(frozen=True)
class FieldParams:
    """Modulus and coordinate-size bound shared by a whole statement."""

    modulus: int = DEFAULT_MODULUS
    coord_bits: int = DEFAULT_COORD_BITS

    def __post_init__(self):
        if self.coord_bits < 1:
            raise FieldError("coord_bits must be positive")
        # p > 2^m, decided on bit lengths first: 2^m is never built for an
        # m beyond the modulus, however large coord_bits is.
        m = 3 * self.coord_bits + 6
        if self.modulus.bit_length() <= m or self.modulus == 1 << m:
            raise FieldError(
                "modulus too small: need p > 2^(3*coord_bits + 6) "
                f"for coord_bits={self.coord_bits}"
            )
        if not _checked_prime(self.modulus):
            raise FieldError(f"modulus {self.modulus} is not prime")

    @property
    def pack(self) -> int:
        """The most k-bit coordinates that fit in one element below p:
        m = floor((bitlen(p) - 1) / k), so 2^(mk) <= 2^(bitlen(p) - 1) < p.
        p > 2^(3k + 6) makes m >= 3."""
        return (self.modulus.bit_length() - 1) // self.coord_bits
