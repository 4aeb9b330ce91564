"""Prover-local computations and plaintext oracles.

Everything here runs on plain Python integers, off-circuit.  The circle
and triangle searches name the row a prover wires, or none (its other
hints are the square roots, ``isqrt``); the barycentric
conversion ``get_bcoords`` is the one formula for the triangle weights,
from which ``statements.TriangleSet.rows`` derives the public table's
affine coefficients; the ``oracle_*`` functions are independent
straight-line evaluations of the two policies, used as ground truth when
checking circuit satisfiability.  They deliberately do not share code
with the gadget implementations or with ``get_bcoords``.  The reference
Poseidon permutation runs the factored form of ``PoseidonParams.factored``,
and the circuit calls it for every permutation (``_PERM`` gates of
``ConstraintSystem.poseidon_rounds``); the tests check it against a
straight-line dense permutation that shares no code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .poseidon import FactoredRounds, PoseidonParams


class DegenerateTriangle(Exception):
    pass


isqrt = math.isqrt  # rounded toward zero; ValueError on a negative input


def area_dbl_sgn(a1: int, b1: int, a2: int, b2: int, a3: int, b3: int) -> int:
    """Signed double area: det [[a1,a2,a3],[b1,b2,b3],[1,1,1]]."""
    return a1 * (b2 - b3) - a2 * (b1 - b3) + a3 * (b1 - b2)


def area_dbl(a1: int, b1: int, a2: int, b2: int, a3: int, b3: int) -> int:
    return abs(area_dbl_sgn(a1, b1, a2, b2, a3, b3))


def find_triangle(x: int, y: int, triangles) -> int:
    """1-based index of the first triangle containing (x, y), or 0 if none.

    Containment is decided by the area-sum criterion: the three triangles
    formed by the point and each pair of vertices cover exactly the
    original triangle iff the point is inside or on its boundary.
    """
    for i, ((x1, y1), (x2, y2), (x3, y3)) in enumerate(triangles, start=1):
        a = area_dbl(x1, y1, x2, y2, x3, y3)
        b = area_dbl(x1, y1, x2, y2, x, y)
        c = area_dbl(x1, y1, x, y, x3, y3)
        d = area_dbl(x, y, x2, y2, x3, y3)
        if a == b + c + d:
            return i
    return 0


def find_circle(x: int, y: int, circles) -> int:
    """1-based index of the first circle (u, v, r) containing (x, y), or 0
    if none does; the boundary counts as inside."""
    for i, (u, v, r) in enumerate(circles, start=1):
        if (x - u) ** 2 + (y - v) ** 2 <= r * r:
            return i
    return 0


@dataclass(frozen=True)
class BaryCoords:
    """Unnormalized barycentric pair; u = A - s - t is implied."""

    s: int
    t: int


def get_bcoords(x, y, a1, b1, a2, b2, a3, b3) -> BaryCoords:
    """Vertex-approach barycentric conversion, division-free.

    The sign correction makes all three coordinates non-negative exactly
    when the point is inside or on the boundary, regardless of vertex
    orientation.
    """
    area = area_dbl_sgn(a1, b1, a2, b2, a3, b3)
    if area == 0:
        raise DegenerateTriangle("zero-area triangle")
    sgn = 1 if area >= 0 else -1
    s = sgn * (b1 * a3 - a1 * b3 + (b3 - b1) * x + (a1 - a3) * y)
    t = sgn * (a1 * b2 - b1 * a2 + (b1 - b2) * x + (a2 - a1) * y)
    return BaryCoords(s, t)


# -- plaintext membership oracles (independent of the circuit gadgets) --


def point_in_triangle(x: int, y: int, tri) -> bool:
    """Sign-of-edge-crosses test; boundary counts as inside."""
    (x1, y1), (x2, y2), (x3, y3) = tri
    c1 = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    c2 = (x3 - x2) * (y - y2) - (y3 - y2) * (x - x2)
    c3 = (x1 - x3) * (y - y3) - (y1 - y3) * (x - x3)
    return (c1 >= 0 and c2 >= 0 and c3 >= 0) or (c1 <= 0 and c2 <= 0 and c3 <= 0)


def point_in_any_triangle(x: int, y: int, triangles) -> bool:
    return any(point_in_triangle(x, y, tri) for tri in triangles)


def point_in_circles(x: int, y: int, circles) -> bool:
    """Non-strict membership in the union of circles."""
    return any((x - u) ** 2 + (y - v) ** 2 <= r * r for u, v, r in circles)


def segment_walk(points, inside) -> tuple[int, int]:
    """(total length, length of the segments with both endpoints inside) of
    the polyline ``points``; ``inside(x, y)`` decides membership and each
    segment's length is the floor integer square root of its squared
    length."""
    tot = both = 0
    inside_prev = inside(*points[0]) if points else False
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        d = isqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
        tot += d
        inside_cur = inside(x1, y1)
        if inside_prev and inside_cur:
            both += d
        inside_prev = inside_cur
    return tot, both


def oracle_ev(trail, circles, policy) -> bool:
    """Plaintext verdict of the subsidy policy on a point list; membership
    is the non-strict in-circle inequality."""
    tot, cc = segment_walk(trail, lambda x, y: point_in_circles(x, y, circles))
    return tot >= policy.d_req and cc * 100 >= tot * policy.p_req


def taxed_distance(trail, tris) -> int:
    """tot - hw: the trail's total length less the length of its segments
    with both endpoints in the tax-free triangles."""
    tot, hw = segment_walk(trail, lambda x, y: point_in_any_triangle(x, y, tris))
    return tot - hw


def oracle_hwtax(trail, tris, policy) -> bool:
    """Plaintext verdict of the highway-tax policy on a trail."""
    return taxed_distance(trail, tris) <= policy.d_max


# -- reference Poseidon permutation and sponge (plaintext oracle) --------


@lru_cache(maxsize=16)
def _partial_rounds(f: FactoredRounds, half: int) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """Per partial round of ``f``: its lane-0 constant, row0[0], row0[1:]
    and col (``FactoredRounds.sparse``).  A ``FactoredRounds`` hashes by
    identity, so the cache costs one lookup per permutation."""
    return tuple((c[0], row0[0], row0[1:], col) for c, (row0, col) in zip(f.constants[half:], f.sparse))


def poseidon_permutation_ref(state, pp: PoseidonParams) -> list[int]:
    """Reference permutation on plain residues, in the factored form of
    ``pp.factored`` (see the ``poseidon`` module docstring).

    Round structure: half the full rounds, all partial rounds, then the
    remaining full rounds.  A full round adds its constants, applies
    x^alpha to every lane and multiplies by the dense MDS matrix (by the
    bridge matrix in the last full round before the partial rounds).  A
    partial round adds its one constant and applies x^alpha to lane 0,
    then its sparse matrix: a t-term row for lane 0 and s_i + col_i * s_0
    for each other lane.  Lanes 1..t-1 are left unreduced through the
    partial rounds and reduced once after the last; lane 0 and the full
    rounds reduce every round.
    """
    p = pp.prime
    t = pp.t
    if len(state) != t:
        raise ValueError(f"state width must be {t}")
    s = [v % p for v in state]
    alpha = pp.alpha
    f = pp.factored
    half = pp.r_full // 2
    mds = pp.mds
    # Constants are added unreduced; the matrix rows reduce every lane.
    for c, rows in zip(f.constants[:half], (mds,) * (half - 1) + (f.bridge,)):
        s = [pow(v + ci, alpha, p) for v, ci in zip(s, c)]
        s = [sum(map(mul, row, s)) % p for row in rows]
    x, rest = s[0], s[1:]
    for c0, r00, row, col in _partial_rounds(f, half):
        x = pow(x + c0, alpha, p)
        x, rest = (r00 * x + sum(map(mul, row, rest))) % p, list(map(add, rest, map(mul, col, repeat(x))))
    s = [x] + [v % p for v in rest]
    for c in f.constants[half + pp.r_partial :]:
        s = [pow(v + ci, alpha, p) for v, ci in zip(s, c)]
        s = [sum(map(mul, row, s)) % p for row in mds]
    return s


def poseidon_digest_ref(msg, pp: PoseidonParams, length: int | None = None) -> int:
    """Reference sponge digest of a non-empty message of residues.

    Lane 0 is the capacity lane, seeded with ``length``, the message length
    unless given (a packed message gives the count it packs); chunks of
    ``rate`` elements are added into the remaining lanes (zero-padded at
    the end) with a permutation after each chunk; the digest is lane 0 of
    the final state.
    """
    if not msg:
        raise ValueError("empty message")
    p = pp.prime
    state = [(len(msg) if length is None else length) % p] + [0] * (pp.t - 1)
    for start in range(0, len(msg), pp.rate):
        chunk = msg[start : start + pp.rate]
        for i, m in enumerate(chunk):
            state[1 + i] = (state[1 + i] + m) % p
        state = poseidon_permutation_ref(state, pp)
    return state[0]
