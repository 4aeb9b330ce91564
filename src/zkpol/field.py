"""Prime-field arithmetic with a signed-integer embedding.

Everything in the circuit and gadget layers computes in GF(p) for a single
configurable prime p.  The default is the Mersenne prime 2^127 - 1, which
leaves ample headroom above every intermediate value produced by the
location statements.  The headroom requirement is captured as a hard
invariant on ``FieldParams``: p > 2^(3*k_c + 6) where k_c bounds the
bit-length of any coordinate or radius.

Overflow ledger (all bounds for inputs with coordinates/radii < 2^k_c,
trails of up to n_traj points):

    squared segment/center distance   < 2^(2*k_c + 1)
    doubled triangle area             < 2^(2*k_c + 3)
    barycentric reconstruction term   < 2^(3*k_c + 4)
    tot * P_req                       < 2^(k_c + 1 + log2(n_traj) + 7)
    sqrt remainder r=sq-d^2 and 2d-r  < 2^(k_seg + 1), k_seg = k_c + 1

All of these stay below p/2 at the defaults (k_c = 24, n_traj <= 4096), so
signed quantities embedded via ``from_signed`` never wrap.  The square
root's range proof also needs sq - d^2, negative for a dishonest
d < 2^k_seg, not to wrap mod p; that takes p > 2^(2*k_seg + 1), which
p > 2^(3*k_c + 6) implies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import sympy

DEFAULT_MODULUS = 2**127 - 1
DEFAULT_COORD_BITS = 24


class FieldError(Exception):
    """Base class for field-level failures."""


class InversionOfZero(FieldError):
    """Raised when inverting the zero element."""


class OutOfRange(FieldError):
    """Raised when a signed integer does not fit the embedding range."""


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

    def elem(self, value: int) -> "FieldElement":
        return FieldElement(value % self.modulus, self.modulus)

    def from_signed(self, n: int) -> int:
        """Embed a signed integer |n| < p/2 as a field residue."""
        if 2 * abs(n) >= self.modulus:
            raise OutOfRange(f"|{n}| >= p/2")
        return n % self.modulus

    def to_signed(self, v: int) -> int:
        """Inverse of ``from_signed`` on [0, p)."""
        v %= self.modulus
        return v if 2 * v < self.modulus else v - self.modulus


class FieldElement:
    """Residue in GF(p); thin value wrapper over a reduced int."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int = DEFAULT_MODULUS):
        self.modulus = modulus
        self.value = value % modulus

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.modulus != self.modulus:
                raise FieldError("mixed moduli")
            return other.value
        return int(other) % self.modulus

    def __add__(self, other):
        return FieldElement(self.value + self._coerce(other), self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.value - self._coerce(other), self.modulus)

    def __rsub__(self, other):
        return FieldElement(self._coerce(other) - self.value, self.modulus)

    def __mul__(self, other):
        return FieldElement(self.value * self._coerce(other), self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def __pow__(self, e: int):
        return FieldElement(pow(self.value, e, self.modulus), self.modulus)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise InversionOfZero("0 has no inverse")
        return FieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        o = FieldElement(self._coerce(other), self.modulus)
        return self * o.inv()

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"FieldElement({self.value})"


def f_inv(p: int, a: int) -> int:
    """Modular inverse of a raw residue; raises on zero."""
    if a % p == 0:
        raise InversionOfZero("0 has no inverse")
    return pow(a, -1, p)
