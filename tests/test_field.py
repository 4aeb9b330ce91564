import random

import pytest
import sympy
from hypothesis import given, strategies as st

from zkpol.circuit import ConstraintSystem, Domain
from zkpol.field import (
    DEFAULT_MODULUS,
    FieldError,
    FieldParams,
    InversionOfZero,
    f_inv,
    widths,
)

P = DEFAULT_MODULUS
PARAMS = FieldParams()


def _egcd_inverse(a: int, p: int) -> int:
    # Independent extended-gcd oracle for inversion.
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


# Field arithmetic happens on plain int residues inside the circuit's
# gates, so the arithmetic oracles below check the gates' eager values.


def _gate(op, a, b):
    cs = ConstraintSystem(PARAMS)
    return cs.value(op(cs, cs.wire_input(a, Domain.PROVER), cs.wire_input(b, Domain.PROVER)))


def test_mul_trivial():
    assert _gate(ConstraintSystem.mul, 2, 3) == 6


def test_minus_one_squared():
    assert _gate(ConstraintSystem.mul, P - 1, P - 1) == 1


def test_mul_random_against_int_oracle():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.getrandbits(126)
        b = rng.getrandbits(126)
        assert _gate(ConstraintSystem.mul, a, b) == (a * b) % P


def test_inv_of_one():
    assert f_inv(P, 1) == 1


def test_inv_of_two():
    assert f_inv(P, 2) == (P + 1) // 2


def test_inv_random_against_egcd_oracle():
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randrange(1, P)
        inv = f_inv(P, a)
        assert inv == _egcd_inverse(a, P)
        assert a * inv % P == 1


def test_inv_zero_raises():
    with pytest.raises(InversionOfZero):
        f_inv(P, 0)
    with pytest.raises(InversionOfZero):
        f_inv(P, P)


@given(
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
)
def test_ring_axioms(a, b, c):
    cs = ConstraintSystem(PARAMS)
    fa, fb, fc = (cs.wire_input(v, Domain.PROVER) for v in (a, b, c))
    add, mul = cs.add, cs.mul
    for lhs, rhs in [
        (add(fa, fb), add(fb, fa)),
        (mul(fa, fb), mul(fb, fa)),
        (add(add(fa, fb), fc), add(fa, add(fb, fc))),
        (mul(mul(fa, fb), fc), mul(fa, mul(fb, fc))),
        (mul(fa, add(fb, fc)), add(mul(fa, fb), mul(fa, fc))),
    ]:
        assert cs.value(lhs) == cs.value(rhs)


def test_params_reject_composite_modulus():
    with pytest.raises(FieldError):
        FieldParams(modulus=2**127 - 3, coord_bits=8)


def test_params_reject_insufficient_headroom():
    with pytest.raises(FieldError):
        FieldParams(modulus=2**61 - 1, coord_bits=24)


def test_params_reject_huge_coord_bits_without_building_the_bound():
    # The bound 2^(3k + 6) is never built: at k = 10^12 it would need
    # about 375 GB.  The modulus is compared by bit length first.
    with pytest.raises(FieldError, match="coord_bits=1000000000000"):
        FieldParams(coord_bits=10**12)


def test_params_accept_exactly_the_primes_above_the_bound():
    # p > 2^(3k + 6), decided on bit lengths, at the edge: k = 4 needs
    # p > 2^18 = 262144, whose next prime is 262147.
    assert FieldParams(modulus=262147, coord_bits=4).modulus == 262147
    for p in (sympy.prevprime(1 << 18), 131071, 2):
        with pytest.raises(FieldError, match="too small"):
            FieldParams(modulus=p, coord_bits=4)
    with pytest.raises(FieldError, match="not prime"):
        FieldParams(modulus=(1 << 18) + 1, coord_bits=4)


def test_small_prime_with_small_coords_ok():
    fp = FieldParams(modulus=2**61 - 1, coord_bits=12)
    assert (fp.modulus, fp.coord_bits) == (2**61 - 1, 12)


def test_widths_below_half_p_at_defaults():
    w = widths(PARAMS.coord_bits, 4096)
    assert w == (25, 38, 45, 48)  # seg, tot, cover, shape
    for bits in w:
        assert 2**bits < P // 2
