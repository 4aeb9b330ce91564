"""Reusable circuit fragments.

Booleanity, bit decomposition, comparisons, the floor square root with
prover-supplied hint, Poseidon permutation/sponge, circle and triangle
membership, and the characteristic-vector lookup.  All gadgets append to a
caller-owned ConstraintSystem; prover-local hint values are derived from
the builder's eager values unless the caller supplies them explicitly
(which the adversarial tests do).
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


def decompose_bits(cs: ConstraintSystem, w: int, k: int, hint: int | None = None) -> range:
    """Split w into k boolean-asserted bits with a recomposition assertion;
    returns the bit ids, low bit first.

    The bits enter as prover-only inputs computed from the prover-local
    value of w; if that value does not fit k bits the recomposition
    assertion fails and the system is unsatisfiable.
    """
    return cs.decompose(w, k, hint)


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
    mode: str = "both",
    hint: int | None = None,
) -> int:
    """Prover-supplied root d of sq in [0, 2^(2k)), range-proved to k bits.

    In every mode d is wired as a prover input and decomposed into k bits,
    so d < 2^k as an integer.  mode selects what else is enforced:

    "both" (subsidy use) makes d = isqrt(sq), through the identity
    d = isqrt(sq)  <=>  0 <= sq - d^2 <= 2d.  It sets r = sq - d*d and
    decomposes r and 2d - r into k + 1 bits each: 1 + k + 2(k + 1) muls.
    Soundness, for p > 2^(2k+1):
      - d < 2^k gives r <= 2d < 2^(k+1), so an honest r and 2d - r fit.
      - The decompositions make the residues r and 2d - r integers in
        [0, 2^(k+1)).  As integers sq, d^2 < 2^(2k), so sq - d^2 differs
        from the residue r by less than 2^(2k) + 2^(k+1) <= 2^(2k+1) < p,
        and 2d - r from its residue by less than 2^(k+2) < p.  Neither
        congruence can wrap, so 0 <= sq - d^2 <= 2d over the integers,
        i.e. d^2 <= sq < (d + 1)^2.
    The statements use k = coord_bits + 1, and FieldParams guarantees
    p > 2^(3*coord_bits + 6) = 2^(3k + 3).

    "upper_only" (tax use) enforces only sq < (d+1)^2, with one 2k-bit
    comparison; any d in [isqrt(sq), 2^k) satisfies it.
    """
    if mode not in ("both", "upper_only"):
        raise ValueError(f"unknown mode {mode!r}")
    d_val = hint if hint is not None else isqrt(cs.value(sq))
    d = cs.wire_input(d_val, Domain.PROVER)
    decompose_bits(cs, d, k)
    if mode == "both":
        r = cs.sub(sq, cs.mul(d, d))
        decompose_bits(cs, r, k + 1)
        decompose_bits(cs, cs.affine([2, cs.p - 1], [d, r]), k + 1)
    else:
        dp = cs.add(d, cs.const(1))
        dpsq = cs.mul(dp, dp)
        # sq < (d+1)^2  <=>  sq <= (d+1)^2 - 1
        assert_leq(cs, sq, cs.sub(dpsq, cs.const(1)), 2 * k)
    return d


def or_gate(cs: ConstraintSystem, a: int, b: int) -> int:
    """Boolean OR as a + b - a*b."""
    return cs.sub(cs.add(a, b), cs.mul(a, b))


def is_nonneg(cs: ConstraintSystem, v: int, m: int) -> int:
    """Boolean: the signed value of v lies in [0, 2^m), given |v| < 2^m."""
    shifted = cs.affine([1], [v], 1 << m)
    return decompose_bits(cs, shifted, m + 1)[m]


def check_inside(
    cs: ConstraintSystem,
    us: list[int],
    vs: list[int],
    ss: list[int],
    x: int,
    y: int,
    coord_bits: int,
) -> int:
    """Boolean: (x, y) lies inside at least one circle.

    ss holds the squared radii; membership per circle is the non-strict
    inequality (x-u)^2 + (y-v)^2 <= s checked at width 2*coord_bits + 1.
    """
    acc = cs.const(0)
    width = 2 * coord_bits + 1
    for u, v, s in zip(us, vs, ss):
        dx = cs.sub(x, u)
        dy = cs.sub(y, v)
        sqdist = cs.add(cs.mul(dx, dx), cs.mul(dy, dy))
        acc = or_gate(cs, acc, leq(cs, sqdist, s, width))
    return acc


def area_dbl_wire(cs, a1, b1, a2, b2, a3, b3) -> int:
    """Doubled triangle area as the determinant expansion.

    No absolute value on-circuit: ingestion guarantees positive
    orientation.
    """
    prods = [
        cs.mul(a1, b2),
        cs.mul(a1, b3),
        cs.mul(a2, b1),
        cs.mul(a2, b3),
        cs.mul(a3, b1),
        cs.mul(a3, b2),
    ]
    return cs.affine([1, cs.p - 1, cs.p - 1, 1, 1, cs.p - 1], prods)


def check_inside_triangle(
    cs: ConstraintSystem,
    a_wires: tuple[int, int, int],
    b_wires: tuple[int, int, int],
    x: int,
    y: int,
    bcoords: tuple[int, int],
    coord_bits: int,
) -> int:
    """Boolean: (x, y) inside or on the boundary of the triangle.

    The prover wires the unnormalized barycentric pair (s, t); the circuit
    derives u = A - s - t, asserts the exact Cartesian reconstruction
    identities, and returns the conjunction of the three sign checks.
    """
    a1, a2, a3 = a_wires
    b1, b2, b3 = b_wires
    A = area_dbl_wire(cs, a1, b1, a2, b2, a3, b3)
    p = cs.p
    s = cs.wire_input(bcoords[0] % p, Domain.PROVER)
    t = cs.wire_input(bcoords[1] % p, Domain.PROVER)
    u = cs.affine([1, p - 1, p - 1], [A, s, t])
    x_rec = cs.affine([1, 1, 1], [cs.mul(u, a1), cs.mul(s, a2), cs.mul(t, a3)])
    y_rec = cs.affine([1, 1, 1], [cs.mul(u, b1), cs.mul(s, b2), cs.mul(t, b3)])
    cs.assert_eq(x_rec, cs.mul(x, A))
    cs.assert_eq(y_rec, cs.mul(y, A))
    m = 2 * coord_bits + 3
    inside = cs.mul(is_nonneg(cs, s, m), is_nonneg(cs, t, m))
    return cs.mul(inside, is_nonneg(cs, u, m))


def lookup(cs: ConstraintSystem, t_index: int, rows: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """Oblivious row selection via a prover-supplied characteristic vector.

    t_index is 1-based; the vector is boolean-asserted and must sum to 1,
    so a malformed vector makes the system unsatisfiable.
    """
    n = len(rows)
    sel = []
    for i in range(1, n + 1):
        xi = cs.wire_input(1 if i == t_index else 0, Domain.PROVER)
        assert_boolean(cs, xi)
        sel.append(xi)
    total = cs.affine([1] * n, sel)
    cs.assert_eq(total, cs.const(1))
    out = []
    for k in range(3):
        prods = [cs.mul(sel[i], rows[i][k]) for i in range(n)]
        out.append(cs.affine([1] * n, prods))
    return tuple(out)


# -- Poseidon gadget ----------------------------------------------------


def poseidon_permute(cs: ConstraintSystem, state: list[int], pp: PoseidonParams) -> list[int]:
    """In-circuit Poseidon permutation; computes the reference round
    structure exactly.

    A thin wrapper over the bulk primitive ``cs.poseidon_rounds``, which
    appends all rounds in one batch and folds each round's constants into
    the previous round's MDS affines; the gate counters equal those of
    the round-by-round composition.
    """
    return cs.poseidon_rounds(state, pp)


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
        state = poseidon_permute(cs, state, pp)
    return state[0]
