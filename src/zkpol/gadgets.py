"""Reusable circuit fragments.

Booleanity, bit decomposition, comparisons, the exact floor square root
with prover-supplied hint, the Poseidon sponge, the characteristic-vector
lookup of a row of a public table, and circle and triangle membership in
one such row.  All gadgets append to a caller-owned ConstraintSystem.
The only prover hints are the root of ``sqrt_floor`` and the index of
``lookup``; both are derived from the builder's eager values unless the
caller supplies them explicitly (which the adversarial tests do).
"""

from __future__ import annotations

from .circuit import ConstraintSystem, Domain
from .localcalc import isqrt
from .poseidon import PoseidonParams


class EmptyMessage(Exception):
    pass


def assert_boolean(cs: ConstraintSystem, w: int) -> None:
    """Assert w * (w - 1) = 0."""
    cs.assert_zero(cs.mul(w, cs.sub(w, cs.const(1))))


def decompose_bits(cs: ConstraintSystem, w: int, k: int) -> range:
    """Split w into k boolean-asserted bits with a recomposition assertion;
    returns the bit ids, low bit first.

    The bits enter as prover-only inputs computed from the prover-local
    value of w; if that value does not fit k bits the recomposition
    assertion fails and the system is unsatisfiable.
    """
    return cs.decompose(w, k)


def leq(cs: ConstraintSystem, a: int, b: int, k: int) -> int:
    """Boolean wire: 1 iff a <= b, for prover-local values in [0, 2^k).

    Realized as the top bit of the (k+1)-bit decomposition of
    b - a + 2^k.  Callers must have range-constrained a and b; the
    statement builders do so by construction.
    """
    shifted = cs.affine([1, cs.p - 1], [b, a], 1 << k)
    return decompose_bits(cs, shifted, k + 1)[k]


def assert_leq(cs: ConstraintSystem, a: int, b: int, k: int) -> None:
    cs.assert_eq(leq(cs, a, b, k), cs.const(1))


def sqrt_floor(
    cs: ConstraintSystem,
    sq: int,
    k: int,
    hint: int | None = None,
) -> int:
    """Exact floor square root d = isqrt(sq) of an integer sq < 2^(2k).

    d = isqrt(sq) iff 0 <= sq - d^2 <= 2d: the prover wires d, and the
    circuit decomposes r = sq - d*d and 2d - r into k + 1 bits each (2k + 3
    muls; d gets no range proof).  An honest d has r <= 2d < 2^(k+1).

    Soundness, for p > 2^(2k+5): the decompositions make r and 2d - r
    residues below 2^(k+1), so 2d is congruent to m = r + (2d - r) with
    m < 2^(k+2), and the residue d is m/2 or (m + p)/2.
      - m even: d = m/2 < 2^(k+1).  Over the integers sq - d^2 differs
        from the residue r by less than 2^(2k+2) + 2^(k+1) < p, and 2d - r
        from its residue by less than 2^(k+2) < p.  Neither congruence
        wraps, so 0 <= sq - d^2 <= 2d holds over the integers.
      - m odd: d = (m + p)/2, so 4r is congruent to 4sq - (m + p)^2, i.e.
        to 4sq - m^2.  Both sides are below 2^(2k+4) in absolute value,
        so 4r = 4sq - m^2 over the integers once p > 2^(2k+5), and then
        m^2 = 4(sq - r) is 0 mod 4, which no odd m has.
    The statements pass k = ``field.widths(...).seg`` = coord_bits + 1, and
    FieldParams guarantees p > 2^(3*coord_bits + 6) = 2^(3k + 3) >= 2^(2k + 5).

    Returns d; its prover inputs, in wire order, are d, the bits of r,
    then the bits of 2d - r (read them from a ``ConstraintSystem.region``).
    """
    d_val = hint if hint is not None else isqrt(cs.value(sq))
    d = cs.wire_input(d_val, Domain.PROVER)
    r = cs.sub(sq, cs.mul(d, d))
    decompose_bits(cs, r, k + 1)
    decompose_bits(cs, cs.affine([2, cs.p - 1], [d, r]), k + 1)
    return d


def is_nonneg(cs: ConstraintSystem, v: int, m: int) -> int:
    """Boolean: the signed value of v lies in [0, 2^m), given |v| < 2^m."""
    shifted = cs.affine([1], [v], 1 << m)
    return decompose_bits(cs, shifted, m + 1)[m]


def check_inside(cs: ConstraintSystem, row: tuple[int, int, int], x: int, y: int, width: int) -> int:
    """Boolean: (x, y) lies inside the circle row = (u, v, s), s the squared
    radius.

    Membership is the non-strict inequality (x-u)^2 + (y-v)^2 <= s,
    compared with ``leq`` at ``width`` bits, which must bound both sides
    (the statements pass ``field.widths(...).shape``).
    """
    u, v, s = row
    dx = cs.sub(x, u)
    dy = cs.sub(y, v)
    return leq(cs, cs.add(cs.mul(dx, dx), cs.mul(dy, dy)), s, width)


def check_inside_triangle(
    cs: ConstraintSystem,
    row: tuple[int, int, int, int, int, int, int],
    x: int,
    y: int,
    width: int,
) -> int:
    """Boolean: (x, y) inside or on the boundary of the triangle whose
    row = (c_s, dx_s, dy_s, c_t, dx_t, dy_t, A) holds the affine
    coefficients of the unnormalized barycentric weights and the doubled
    area (``statements.TriangleSet.rows``).

    The circuit computes s = c_s + dx_s*x + dy_s*y, t likewise and
    u = A - s - t (4 muls), and returns the conjunction of the three sign
    checks, each an ``is_nonneg`` at ``width`` bits, which must bound
    |s|, |t| and |u| (the statements pass ``field.widths(...).shape``).
    Nothing here is a prover hint: the weights follow from the row and
    the point.
    """
    c_s, dx_s, dy_s, c_t, dx_t, dy_t, A = row
    s = cs.affine([1, 1, 1], [c_s, cs.mul(dx_s, x), cs.mul(dy_s, y)])
    t = cs.affine([1, 1, 1], [c_t, cs.mul(dx_t, x), cs.mul(dy_t, y)])
    u = cs.affine([1, cs.p - 1, cs.p - 1], [A, s, t])
    inside = cs.mul(is_nonneg(cs, s, width), is_nonneg(cs, t, width))
    return cs.mul(inside, is_nonneg(cs, u, width))


def lookup(cs: ConstraintSystem, index: int, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Row ``index`` (1-based) of a public table of ints, read through one
    prover-supplied characteristic vector.

    The vector's entries are boolean-asserted and must sum to 1, so an
    index outside [1, len(rows)] or any vector that is not one-hot makes
    the system unsatisfiable.  Each column is one affine over the vector
    with the column's entries as coefficients, so the lookup costs one
    mul per row (the booleanity), whatever the row width, and the result
    is one row of the table, never columns mixed from different rows.
    The one-hot vector of a one-row table is the constant (1), so that
    row comes back as constants, with no input, mul or assertion, and
    ``index`` is not read.
    """
    n = len(rows)
    if n == 1:
        return tuple(cs.const(v) for v in rows[0])
    sel = [cs.wire_input(int(i == index), Domain.PROVER) for i in range(1, n + 1)]
    for xi in sel:
        assert_boolean(cs, xi)
    cs.assert_zero(cs.affine([1] * n, sel, -1))
    return tuple(cs.affine(col, sel) for col in zip(*rows))


# -- Poseidon gadget ----------------------------------------------------


def poseidon_hash(cs: ConstraintSystem, msg: list[int], pp: PoseidonParams) -> int:
    """Sponge digest of a non-empty wire message; lane 0 is the capacity
    lane seeded with the public message length and squeezed at the end."""
    if not msg:
        raise EmptyMessage("cannot hash an empty message")
    state = [cs.const(len(msg))] + [cs.const(0)] * (pp.t - 1)
    for start in range(0, len(msg), pp.rate):
        chunk = msg[start : start + pp.rate]
        for i, m in enumerate(chunk):
            state[1 + i] = cs.add(state[1 + i], m)
        state = cs.poseidon_rounds(state, pp)
    return state[0]
