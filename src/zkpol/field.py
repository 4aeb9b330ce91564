"""Prime-field parameters and the bit-width ledger.

Everything in the circuit and gadget layers computes in GF(p), on plain
int residues, for a single configurable prime p.  The default is the
Mersenne prime 2^127 - 1.  ``FieldParams`` requires p > 2^(3*k_c + 6),
where k_c bounds the bit-length of any coordinate or radius; ``widths``
derives every bit width the statements range-check at, and a
``statements.StatementInstance`` whose widest range check does not fit
below p fails validation when it is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import sympy

DEFAULT_MODULUS = 2**127 - 1
DEFAULT_COORD_BITS = 24


class FieldError(Exception):
    """Base class for field-level failures."""


class InversionOfZero(FieldError):
    """Raised when inverting the zero element."""


@lru_cache(maxsize=None)
def _checked_prime(p: int) -> bool:
    return bool(sympy.isprime(p))


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

    A range check at width m decomposes m bits: ``gadgets.leq`` is sound
    while p > 2^(m+1), a membership check while p > 2^(m+2).  The exact
    root decomposes its remainders at seg + 1 bits and pins d = isqrt(sq)
    while p > 2^(2*seg + 5).  ``FieldParams`` guarantees
    p > 2^(3k + 6), which covers seg and shape; tot and cover grow with
    n_traj and are checked as each instance is constructed, by
    ``statements.validate_instance``.
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


def f_inv(p: int, a: int) -> int:
    """Modular inverse of a raw residue; raises on zero."""
    if a % p == 0:
        raise InversionOfZero("0 has no inverse")
    return pow(a, -1, p)
