import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp, mr
from hypothesis import given, strategies as st

import zkpol
from zkpol.circuit import ConstraintSystem, Domain
from zkpol.field import (
    DEFAULT_MODULUS,
    FieldError,
    FieldParams,
    _checked_prime,
    _strong_lucas_prp,
    _strong_prp_base2,
    widths,
)

P = DEFAULT_MODULUS
PARAMS = FieldParams()


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


# -- primality (Baillie-PSW) ----------------------------------------------

# The lru_cache of _checked_prime would keep every n of these batteries.
_is_prime = _checked_prime.__wrapped__


def test_checked_prime_matches_sympy_below_200000():
    assert [n for n in range(200_000) if _is_prime(n)] == list(sympy.primerange(200_000))


def test_each_stage_passes_exactly_its_known_pseudoprimes():
    # The odd composites below 30,000 that pass each stage alone: OEIS
    # A001262 (strong base 2) and A217255 (strong Lucas, Selfridge).
    odd_composites = [n for n in range(3, 30_000, 2) if not sympy.isprime(n)]
    assert [n for n in odd_composites if _strong_prp_base2(n)] == [
        2047, 3277, 4033, 4681, 8321, 15841, 29341
    ]
    assert [n for n in odd_composites if _strong_lucas_prp(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199
    ]
    for n in range(3, 100_000, 2):
        assert _strong_prp_base2(n) == mr(n, [2]), n
        assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n


@pytest.mark.parametrize(
    "n",
    [
        561, 2047, 3215031751, 5459, 5777, 10877,  # pseudoprimes of one stage
        25326001,  # 2251 * 11251: passes base 2, no factor below 1000
        1711469,  # 1069 * 1601: passes Lucas, no factor below 1000
        1093**2, 3511**2,  # Wieferich squares: pass base 2, end in Lucas
        (2**61 - 1) ** 2,
    ],
)
def test_checked_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)
    assert not sympy.isprime(n)


def test_checked_prime_matches_sympy_up_to_2048_bits():
    rng = random.Random(17)
    for bits, count in ((20, 300), (64, 300), (127, 300), (200, 300), (521, 100), (2048, 40)):
        odd = [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(count)]
        primes = [sympy.nextprime(n) for n in odd[:5]] if bits <= 521 else []
        for n in odd + primes:
            assert _is_prime(n) == sympy.isprime(n), n
    for n in (2**127 - 1, 2**521 - 1, 2**607 - 1, 2**2203 - 1):  # Mersenne primes
        assert _is_prime(n)


def test_import_loads_no_sympy():
    src = Path(zkpol.__file__).parents[1]
    code = "import sys, zkpol, zkpol.cli; assert 'sympy' not in sys.modules, 'sympy loaded'"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr


def test_widths_below_half_p_at_defaults():
    w = widths(PARAMS.coord_bits, 4096)
    assert w == (25, 38, 45, 48)  # seg, tot, cover, shape
    for bits in w:
        assert 2**bits < P // 2
