"""Prime-field parameters and the overflow ledger.

Everything in the circuit and gadget layers computes in GF(p), on plain
int residues, for a single configurable prime p.  The default is the
Mersenne prime 2^127 - 1, which leaves ample headroom above every
intermediate value produced by the location statements.  The headroom
requirement is captured as a hard invariant on ``FieldParams``:
p > 2^(3*k_c + 6) where k_c bounds the bit-length of any coordinate or
radius.

Overflow ledger (all bounds for inputs with coordinates/radii < 2^k_c,
trails of up to n_traj points):

    squared segment/center distance   < 2^(2*k_c + 1)
    doubled triangle area             < 2^(2*k_c + 3)
    barycentric reconstruction term   < 2^(3*k_c + 4)
    tot * P_req                       < 2^(k_c + 1 + log2(n_traj) + 7)
    sqrt remainder r=sq-d^2 and 2d-r  < 2^(k_seg + 1), k_seg = k_c + 1

All of these stay below p/2 at the defaults (k_c = 24, n_traj <= 4096), so
a signed quantity of that size, held as its residue mod p, never wraps.
The exact square root puts no range proof on d; its two remainder
decompositions pin d = isqrt(sq) as long as p > 2^(2*k_seg + 5), which
p > 2^(3*k_c + 6) implies for every k_c >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def overflow_ledger(coord_bits: int, n_traj: int = 4096) -> dict[str, int]:
    """Bit-length bounds of the largest intermediates, as a constant table."""
    k = coord_bits
    return {
        "squared_distance": 2 * k + 1,
        "doubled_area": 2 * k + 3,
        "barycentric_term": 3 * k + 4,
        "tot_times_preq": k + 1 + max(n_traj, 1).bit_length() + 7,
    }


@dataclass(frozen=True)
class FieldParams:
    """Modulus and coordinate-size bound shared by a whole statement."""

    modulus: int = DEFAULT_MODULUS
    coord_bits: int = DEFAULT_COORD_BITS

    def __post_init__(self):
        if self.coord_bits < 1:
            raise FieldError("coord_bits must be positive")
        if not _checked_prime(self.modulus):
            raise FieldError(f"modulus {self.modulus} is not prime")
        if self.modulus <= 2 ** (3 * self.coord_bits + 6):
            raise FieldError(
                "modulus too small: need p > 2^(3*coord_bits + 6) "
                f"for coord_bits={self.coord_bits}"
            )


def f_inv(p: int, a: int) -> int:
    """Modular inverse of a raw residue; raises on zero."""
    if a % p == 0:
        raise InversionOfZero("0 has no inverse")
    return pow(a, -1, p)
