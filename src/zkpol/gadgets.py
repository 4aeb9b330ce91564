"""Reusable circuit fragments.

Bit decomposition, the range check ``leq``, the exact floor square root,
the Poseidon sponge, the characteristic-vector lookup of a row of a
public table, and circle and triangle membership in one such row
(booleanity is ``ConstraintSystem.assert_boolean``).  All gadgets append to a caller-owned ConstraintSystem, and every
inequality is a range check.  The prover's hints are the index of
``lookup`` (0 names no row) and the root of ``sqrt_floor``, derived from
the builder's eager values unless a caller passes one.
"""

from __future__ import annotations

from .circuit import ConstraintSystem, Domain
from .localcalc import isqrt
from .poseidon import PoseidonParams


class EmptyMessage(Exception):
    pass


def decompose_bits(cs: ConstraintSystem, w: int, k: int) -> range:
    """Split w into k boolean-asserted bits with a recomposition assertion;
    returns the bit ids, low bit first.

    The bits enter as prover-only inputs computed from the prover-local
    value of w; if that value does not fit k bits the recomposition
    assertion fails and the system is unsatisfiable.
    """
    return cs.decompose(w, k)


def leq(cs: ConstraintSystem, a: int, b: int, k: int) -> None:
    """Assert a <= b, for a and b in [0, 2^k): b - a is decomposed into k
    bits.  If a > b, b - a lies in (-2^k, 0) and its residue is at least
    p - 2^k, which is 2^k or more while p > 2^(k+1), so the decomposition
    fails.  Callers must have range-constrained a and b; the statement
    builders do so by construction."""
    decompose_bits(cs, cs.sub(b, a), k)


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


def _claim_inside(cs: ConstraintSystem, b: int, weights: list[int], width: int) -> None:
    """Range-check b*w at ``width`` bits for each weight w: with b = 1 every
    w must be non-negative, with b = 0 nothing is claimed.  The weights lie
    in (-2^(width+1), 2^width), so a negative w fails: its residue is at
    least p - 2^(width+1) >= 2^width, as p > 2^(3k+6) >= 2^(width+2) at 2k."""
    for w in weights:
        decompose_bits(cs, cs.mul(b, w), width)


def check_inside(cs: ConstraintSystem, b: int, row: tuple[int, int, int], x: int, y: int, width: int) -> None:
    """With b = 1, (x, y) lies in the circle row = (u, v, s), s the squared
    radius: the weight s - (x-u)^2 - (y-v)^2 is non-negative, checked at
    ``width`` = ``field.widths(...).shape`` = 2k bits (s < 2^(2k), and the
    squared distance < 2^(2k+1))."""
    u, v, s = row
    dx = cs.sub(x, u)
    dy = cs.sub(y, v)
    w = cs.affine([1, cs.p - 1, cs.p - 1], [s, cs.mul(dx, dx), cs.mul(dy, dy)])
    _claim_inside(cs, b, [w], width)


def check_inside_triangle(
    cs: ConstraintSystem,
    b: int,
    row: tuple[int, int, int, int, int, int, int],
    x: int,
    y: int,
    width: int,
) -> None:
    """With b = 1, (x, y) lies inside or on the boundary of the triangle
    whose row = (c_s, dx_s, dy_s, c_t, dx_t, dy_t, A) holds the affine
    coefficients of the unnormalized barycentric weights and the doubled
    area (``statements.TriangleSet.rows``).  The circuit computes
    s = c_s + dx_s*x + dy_s*y, t likewise and u = A - s - t (4 muls, none
    if the row is constants) and checks them at ``width`` = 2k bits: each
    is a doubled signed area of a lattice triangle in [0, 2^k)^2."""
    c_s, dx_s, dy_s, c_t, dx_t, dy_t, A = row
    s = cs.affine([1, 1, 1], [c_s, cs.mul(dx_s, x), cs.mul(dy_s, y)])
    t = cs.affine([1, 1, 1], [c_t, cs.mul(dx_t, x), cs.mul(dy_t, y)])
    u = cs.affine([1, cs.p - 1, cs.p - 1], [A, s, t])
    _claim_inside(cs, b, [s, t, u], width)


def lookup(cs: ConstraintSystem, index: int, rows: list[tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """(b, row): row ``index`` (1-based) of a public table of ints, read
    through one prover-supplied selector vector, and its sum b, 1 if a
    row is named and 0 if none is (an index outside [1, len(rows)]).

    The entries and b are boolean-asserted, and the table has fewer rows
    than p (``statements.validate_instance``), so at most one entry is 1.
    Each column is one affine over the selector with the column's entries
    as coefficients, so the lookup costs one mul per row plus one, whatever
    the row width, and a named row is one row of the table, never columns
    mixed from different rows.  A one-row table's row comes back as
    constants, and its one entry is b.
    """
    n = len(rows)
    sel = [cs.wire_input(int(i == index), Domain.PROVER) for i in range(1, n + 1)]
    for xi in sel:
        cs.assert_boolean(xi)
    if n == 1:
        return sel[0], tuple(cs.const(v) for v in rows[0])
    b = cs.affine([1] * n, sel)
    cs.assert_boolean(b)
    return b, tuple(cs.affine(col, sel) for col in zip(*rows))


# -- Poseidon gadget ----------------------------------------------------


def poseidon_hash(cs: ConstraintSystem, msg: list[int], pp: PoseidonParams,
                  length: int | None = None) -> int:
    """Sponge digest of a non-empty wire message; lane 0 is the capacity
    lane seeded with the public ``length``, the message length unless
    given, and squeezed at the end."""
    if not msg:
        raise EmptyMessage("cannot hash an empty message")
    state = [cs.const(len(msg) if length is None else length)] + [cs.const(0)] * (pp.t - 1)
    for start in range(0, len(msg), pp.rate):
        chunk = msg[start : start + pp.rate]
        for i, m in enumerate(chunk):
            state[1 + i] = cs.add(state[1 + i], m)
        state = cs.poseidon_rounds(state, pp)
    return state[0]
