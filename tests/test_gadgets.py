import math
import random

import pytest
import sympy

from zkpol import gadgets, localcalc
from zkpol.circuit import _INPUT, ConstraintSystem, Domain
from zkpol.field import FieldParams, widths
from zkpol.statements import CircleSet, TriangleSet

from conftest import membership_weights, random_triangles

FP = FieldParams(coord_bits=12)


def fresh():
    return ConstraintSystem(FP)


# -- booleanity and bits -------------------------------------------------


@pytest.mark.parametrize("v,ok", [(0, True), (1, True), (2, False)])
def test_assert_boolean(v, ok):
    cs = fresh()
    cs.assert_boolean(cs.wire_input(v, Domain.PROVER))
    assert cs.evaluate_and_check().satisfied == ok


@pytest.mark.parametrize("source", ["input", "affine", "const"])
@pytest.mark.parametrize("v", [0, 1, 2, -1])
def test_assert_boolean_is_the_gates_it_stands_for(source, v):
    # The booleanity entry appends no wire, counts what mul(w, sub(w, 1))
    # asserted zero counts (no mul when w is a constant, as such a product
    # is an affine) and reports what those gates report, overridden too.
    def wire(cs):
        if source == "const":
            return cs.const(v), None
        x = cs.wire_input(v, Domain.PROVER)
        return (x if source == "input" else cs.affine([1], [x])), x

    built = []
    for as_gates in (False, True):
        cs = fresh()
        w, x = wire(cs)
        n_wires = len(cs._gates)
        if as_gates:
            cs.assert_zero(cs.mul(w, cs.sub(w, cs.const(1))))
        else:
            cs.assert_boolean(w)
            assert len(cs._gates) == n_wires
        moved = [{}] if x is None else [{}, {x: 0}, {x: 1}, {x: 2}, {x: cs.p - 1}]
        built.append([cs.evaluate_and_check(m) for m in moved])
    assert built[0] == built[1]
    assert built[0][0].satisfied == (v in (0, 1))


def test_decompose_bits_five():
    cs = fresh()
    w = cs.wire_input(5, Domain.PROVER)
    bits = gadgets.decompose_bits(cs, w, 3)
    assert [cs.value(b) for b in bits] == [1, 0, 1]
    assert cs.evaluate_and_check().satisfied


def test_decompose_bits_zero():
    cs = fresh()
    bits = gadgets.decompose_bits(cs, cs.wire_input(0, Domain.PROVER), 4)
    assert [cs.value(b) for b in bits] == [0, 0, 0, 0]
    assert cs.evaluate_and_check().satisfied


def test_decompose_bits_overflow_unsatisfiable():
    k = 6
    cs = fresh()
    gadgets.decompose_bits(cs, cs.wire_input(1 << k, Domain.PROVER), k)
    assert not cs.evaluate_and_check().satisfied


# -- range checks --------------------------------------------------------


def _leq_system(a, b, k, fp=FP):
    cs = ConstraintSystem(fp)
    out = gadgets.leq(cs, cs.wire_input(a, Domain.PROVER), cs.wire_input(b, Domain.PROVER), k)
    assert out is None  # an assertion, not a comparison bit
    return cs


@pytest.mark.parametrize("a,b,expected", [(3, 5, 1), (5, 3, 0), (7, 7, 1)])
def test_leq_examples(a, b, expected):
    assert _leq_system(a, b, 4).evaluate_and_check().satisfied == bool(expected)


def test_leq_agrees_with_integer_order():
    # Satisfiable iff a <= b: on random pairs, and on every pair at the
    # edges of [0, 2^k) at the smallest prime FieldParams admits
    # (p = 521 > 2^9), where k = 8 is the widest range check with
    # p > 2^(k+1).  There the bits are those a prover derives from the
    # residue of b - a, the best witness for the pair.
    rng = random.Random(5)
    k = 16
    for _ in range(300):
        a, b = rng.randrange(1 << k), rng.randrange(1 << k)
        assert _leq_system(a, b, k).evaluate_and_check().satisfied == (a <= b)
    p, k = 521, 8
    cs = _leq_system(0, 0, k, FieldParams(modulus=p, coord_bits=1))
    wa, wb, *bits = [w for w in range(len(cs._gates)) if cs._gates[w] == (_INPUT,)]
    top = (1 << k) - 1
    for a in range(1 << k):
        for b in {0, 1, a - 1, a, a + 1, top - 1, top} & set(range(1 << k)):
            diff = (b - a) % p
            overrides = {wa: a, wb: b, **{w: (diff >> i) & 1 for i, w in enumerate(bits)}}
            assert cs.evaluate_and_check(overrides).satisfied == (a <= b), (a, b)


@pytest.mark.parametrize("a,b,ok", [(0, 0, True), (10, 12, True), (12, 10, False)])
def test_assert_leq(a, b, ok):
    # leq is the assertion: a range check of b - a at k bits (k muls, k
    # bit inputs, k booleanity assertions and the recomposition).
    k = 5
    cs = _leq_system(a, b, k)
    assert cs.evaluate_and_check().satisfied == ok
    assert (cs.n_mul, cs.n_prover_inputs, cs.counters.n_assert) == (k, 2 + k, k + 1)


# -- floor square root ---------------------------------------------------


def _sqrt_system(sq, k, hint=None):
    cs = fresh()
    w = cs.wire_input(sq, Domain.PROVER)
    d = gadgets.sqrt_floor(cs, w, k, hint)
    return cs, d


def test_sqrt_perfect_square():
    cs, d = _sqrt_system(25, 4)
    assert cs.value(d) == 5
    assert cs.evaluate_and_check().satisfied


def test_sqrt_rounds_down():
    cs, d = _sqrt_system(24, 4)
    assert cs.value(d) == 4
    assert cs.evaluate_and_check().satisfied


def test_sqrt_adversarial_over_rejected():
    cs, _ = _sqrt_system(25, 4, hint=6)
    assert not cs.evaluate_and_check().satisfied


def _sqrt_witness(p, sq, d, k):
    # Values of the inputs sqrt_floor wires: d, bits of r, bits of 2d - r.
    r = (sq - d * d) % p
    s = (2 * d - r) % p
    return [d] + [(r >> i) & 1 for i in range(k + 1)] + [(s >> i) & 1 for i in range(k + 1)]


def test_sqrt_exact_at_smallest_admitted_primes():
    # For coord_bits c = 1..4 at the smallest prime FieldParams admits
    # (p > 2^(3c+6)), width k = c + 1 and every squared segment length a
    # c-bit trail can produce, the gadget holds iff the hint is isqrt(sq).
    # Hints: all of [0, p) for c <= 2; otherwise d < 2^(k+3), the wrapped
    # p - d and the halves (m + p)/2 of odd m < 2^(k+2), the only residues
    # besides m/2 whose double is below 2^(k+2).  One system per prime is
    # checked with overrides: sq, the hint and the bits a prover derives
    # for it, the best witness for that hint.
    for c in (1, 2, 3, 4):
        p = sympy.nextprime(1 << (3 * c + 6))
        k = c + 1
        cs = ConstraintSystem(FieldParams(modulus=p, coord_bits=c))
        w = cs.wire_input(5, Domain.PROVER)
        cs.scope("root")
        gadgets.sqrt_floor(cs, w, k)
        inputs = cs.region("root")[2]
        assert [cs.value(i) for i in inputs] == _sqrt_witness(p, 5, 2, k)
        if c <= 2:
            hints = range(p)
        else:
            window = range(1, 1 << (k + 3))
            odd = range(1, 1 << (k + 2), 2)
            hints = {0, *window, *(p - d for d in window), *((m + p) // 2 for m in odd)}
        squares = {dx * dx + dy * dy for dx in range(1 << c) for dy in range(1 << c)}
        for sq in squares:
            root = localcalc.isqrt(sq)
            for d in hints:
                overrides = dict(zip(inputs, _sqrt_witness(p, sq, d, k)))
                overrides[w] = sq
                assert cs.evaluate_and_check(overrides).satisfied == (d == root), (p, sq, d)


def test_sqrt_range_proves_root_in_every_mode():
    # d*d plus the (k+1)-bit decompositions of r and 2d - r; d itself gets
    # no range proof.
    k = 10
    cs, _ = _sqrt_system(200, k)
    assert cs.n_mul == 2 * k + 3
    assert cs.evaluate_and_check().satisfied


def test_sqrt_totality_small_exhaustive():
    for v in range(1 << 10):
        d = localcalc.isqrt(v)
        assert d * d <= v < (d + 1) * (d + 1)
    # Circuit-level spot checks across the range.
    for v in (0, 1, 2, 255, 1023, 65535, 2**20 - 1):
        cs, d = _sqrt_system(v, 10)
        assert cs.value(d) == localcalc.isqrt(v)
        assert cs.evaluate_and_check().satisfied


# -- circle membership ---------------------------------------------------


def _circle_system(circle, x, y, fp=FP, index=None):
    """check_inside on the one-row table of circle (u, v, r), whose row is
    (u, v, r^2), in a region of its own; ``index`` is the row the prover
    names (default: the honest one, 1 if (x, y) is inside, else 0).
    Returns (cs, b)."""
    cs = ConstraintSystem(fp)
    wx = cs.wire_input(x, Domain.PROVER)
    wy = cs.wire_input(y, Domain.PROVER)
    circles = CircleSet((circle,))
    if index is None:
        index = localcalc.find_circle(x, y, circles.circles)
    cs.scope("circle")
    b, row = gadgets.lookup(cs, index, circles.rows)
    gadgets.check_inside(cs, b, row, wx, wy, widths(fp.coord_bits, 2).shape)
    return cs, b


def test_point_at_center():
    cs, out = _circle_system((100, 100, 5), 100, 100)
    assert cs.value(out) == 1
    assert cs.evaluate_and_check().satisfied


def test_point_on_circle_boundary_counts_inside():
    # Squared distance exactly r^2: non-strict comparison.
    cs, out = _circle_system((100, 100, 5), 103, 104)
    assert cs.value(out) == 1
    assert cs.evaluate_and_check().satisfied


def test_point_outside_all_circles():
    # Outside, the honest prover names no row; naming the circle fails.
    rng = random.Random(3)
    circles = [(rng.randrange(1000), rng.randrange(1000), rng.randrange(1, 50)) for _ in range(8)]
    x, y = 3000, 3000
    assert not localcalc.point_in_circles(x, y, circles)
    for circle in circles:
        cs, out = _circle_system(circle, x, y)
        assert cs.value(out) == 0
        assert cs.evaluate_and_check().satisfied
        assert not _circle_system(circle, x, y, index=1)[0].evaluate_and_check().satisfied


def test_circle_gadget_matches_oracle_randomly():
    # Per circle, naming it holds exactly when the point is inside; on the
    # row the honest prover names (find_circle, 0 if none) of the whole
    # (u, v, r^2) table, the bit is the oracle's verdict.
    rng = random.Random(9)
    for _ in range(100):
        circles = CircleSet(tuple(
            (rng.randrange(4096), rng.randrange(4096), rng.randrange(1, 2048))
            for _ in range(rng.randint(1, 4))
        ))
        x, y = rng.randrange(4096), rng.randrange(4096)
        for circle in circles.circles:
            cs, out = _circle_system(circle, x, y, index=1)
            inside = localcalc.point_in_circles(x, y, [circle])
            assert cs.evaluate_and_check().satisfied == inside
        cs = fresh()
        wx, wy = cs.wire_input(x, Domain.PROVER), cs.wire_input(y, Domain.PROVER)
        b, row = gadgets.lookup(cs, localcalc.find_circle(x, y, circles.circles), circles.rows)
        gadgets.check_inside(cs, b, row, wx, wy, widths(FP.coord_bits, 2).shape)
        assert cs.value(b) == int(localcalc.point_in_circles(x, y, circles.circles))
        assert cs.evaluate_and_check().satisfied


# -- triangle membership -------------------------------------------------


def _triangle_system(tri, x, y, fp=FP, table=None, index=None):
    """check_inside_triangle on row ``index`` of ``table`` (default: tri
    alone; the honest row, or 0 if none holds the point), in a region of
    its own.  Returns (cs, b, weights): weights are the signed values of
    the weight wires s, t and u."""
    cs = ConstraintSystem(fp)
    wx = cs.wire_input(x, Domain.PROVER)
    wy = cs.wire_input(y, Domain.PROVER)
    table = table or TriangleSet((tri,))
    if index is None:
        index = localcalc.find_triangle(x, y, table.triangles)
    cs.scope("triangle")
    b, row = gadgets.lookup(cs, index, table.rows)
    gadgets.check_inside_triangle(cs, b, row, wx, wy, widths(fp.coord_bits, 2).shape)
    return cs, b, membership_weights(cs, "triangle", b)


TRI = ((0, 0), (3, 0), (0, 3))


def test_triangle_centroid_inside():
    cs, out, weights = _triangle_system(TRI, 1, 1)
    assert cs.value(out) == 1 and weights == [3, 3, 3]
    assert cs.evaluate_and_check().satisfied
    # No barycentric hint: a one-row table's region wires only the
    # membership bit and the bits of three range checks, and the weights
    # (the row's constants times the point) cost no mul.
    m = widths(FP.coord_bits, 2).shape
    assert len(cs.region("triangle")[2]) == 1 + 3 * m
    assert cs.n_mul == 1 + 3 + 3 * m  # booleanity, b * weight, range checks


def test_triangle_vertex_on_boundary_inside():
    cs, out, weights = _triangle_system(TRI, 0, 0)
    assert cs.value(out) == 1 and weights == [0, 0, 9]
    assert cs.evaluate_and_check().satisfied


def test_triangle_point_outside():
    cs, out, weights = _triangle_system(TRI, 3, 3)
    assert cs.value(out) == 0 and weights == [9, 9, -9]
    assert cs.evaluate_and_check().satisfied
    assert not _triangle_system(TRI, 3, 3, index=1)[0].evaluate_and_check().satisfied


def _edge_points(tri, rng, per_edge):
    """Lattice points on the edges of tri, vertices included."""
    out = list(tri)
    for (ax, ay), (bx, by) in zip(tri, tri[1:] + tri[:1]):
        g = math.gcd(bx - ax, by - ay)
        for j in rng.sample(range(g + 1), min(per_edge, g + 1)):
            out.append((ax + j * (bx - ax) // g, ay + j * (by - ay) // g))
    return out


@pytest.mark.parametrize("k, modulus", [
    (12, None), (24, None),
    (4, sympy.nextprime(1 << 18)),  # the smallest prime FieldParams admits at k = 4
])
def test_triangle_weights_equal_get_bcoords(k, modulus):
    # s, t and u as the circuit computes them from the named row are
    # get_bcoords' s and t and A - s - t, and naming the row holds exactly
    # when the edge-sign oracle puts the point inside: on random points, on
    # the vertices and on lattice points of the edges, for triangles of
    # either orientation.
    fp = FieldParams(coord_bits=k, **({"modulus": modulus} if modulus else {}))
    rng = random.Random(k)
    bound = 1 << k
    checked = 0
    while checked < 40:
        tris = [tuple((rng.randrange(bound), rng.randrange(bound)) for _ in range(3))
                for _ in range(3)]
        if any(localcalc.area_dbl_sgn(*t[0], *t[1], *t[2]) == 0 for t in tris):
            continue
        table = TriangleSet(tuple(tris))
        index = rng.randint(1, 3)
        tri = tris[index - 1]
        area = localcalc.area_dbl(*tri[0], *tri[1], *tri[2])
        points = _edge_points(tri, rng, 3) + [(rng.randrange(bound), rng.randrange(bound))
                                              for _ in range(6)]
        for x, y in points:
            cs, out, weights = _triangle_system(tri, x, y, fp, table, index)
            bc = localcalc.get_bcoords(x, y, *tri[0], *tri[1], *tri[2])
            assert weights == [bc.s, bc.t, area - bc.s - bc.t]
            assert cs.value(out) == 1
            assert cs.evaluate_and_check().satisfied == localcalc.point_in_triangle(x, y, tri)
        checked += 1


def test_triangle_gadget_matches_sign_oracle_randomly():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        tri = tuple((rng.randrange(64), rng.randrange(64)) for _ in range(3))
        if localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2]) <= 0:
            continue
        x, y = rng.randrange(64), rng.randrange(64)
        cs, out, _ = _triangle_system(tri, x, y)
        assert cs.evaluate_and_check().satisfied
        assert cs.value(out) == int(localcalc.point_in_triangle(x, y, tri))
        checked += 1


# -- membership claims ---------------------------------------------------


def _claim_one(cs, region, bit):
    """Overrides that claim ``bit`` = 1 in ``region`` (a one-row table's
    region: the bit, then the bits of each range check), with the bits a
    prover derives for each weight: the low bits of its residue."""
    inputs = cs.region(region)[2]
    weights = membership_weights(cs, region, bit)
    width = (len(inputs) - 1) // len(weights)
    bits = [(w % cs.p >> i) & 1 for w in weights for i in range(width)]
    assert inputs[0] == bit
    return dict(zip(inputs, [1] + bits))


def _near_circle(circle, rng, bound):
    """Lattice points in [0, bound)^2 at each end of some rows of the disc
    (u, v, r), and one step beyond: inside on the rim, or just outside."""
    u, v, r = circle
    out = []
    for dy in {-r - 1, -r, 0, r, r + 1, *(rng.randint(-r, r) for _ in range(4))}:
        reach = localcalc.isqrt(r * r - dy * dy) if dy * dy <= r * r else -1
        for dx in (reach, reach + 1, -reach, -reach - 1):
            out.append((u + dx, v + dy))
    return [(x, y) for x, y in out if 0 <= x < bound and 0 <= y < bound]


def _near_triangle(tri, rng, bound):
    """Lattice points on the edges of tri and their eight neighbours, in
    [0, bound)^2: inside on an edge, or just outside one."""
    out = {(x + dx, y + dy) for x, y in _edge_points(tri, rng, 4)
           for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
    return [(x, y) for x, y in out if 0 <= x < bound and 0 <= y < bound]


@pytest.mark.parametrize("k, modulus", [
    (12, None), (24, None),
    (4, sympy.nextprime(1 << 18)),  # the smallest prime FieldParams admits at k = 4
    (1, sympy.nextprime(1 << 9)),  # ... and at k = 1
])
def test_overclaimed_membership_bit_unsatisfiable(k, modulus):
    # The prover may name no row anywhere, but its one row only inside:
    # claiming b = 1 at a point outside the circle or triangle, with the
    # best range bits for the weights, is unsatisfiable, also a lattice
    # step outside an edge or the rim; the same claim inside holds.
    fp = FieldParams(coord_bits=k, **({"modulus": modulus} if modulus else {}))
    rng = random.Random(100 + k)
    bound = 1 << k
    outside = 0
    for _ in range(8):
        circle = (rng.randrange(bound), rng.randrange(bound), rng.randrange(1, bound))
        for x, y in _near_circle(circle, rng, bound) + [(rng.randrange(bound),) * 2]:
            cs, out = _circle_system(circle, x, y, fp)
            inside = localcalc.point_in_circles(x, y, [circle])
            assert cs.value(out) == int(inside) and cs.evaluate_and_check().satisfied
            assert cs.evaluate_and_check(_claim_one(cs, "circle", out)).satisfied == inside
            outside += not inside
        tri = random_triangles(rng, 1, bound).triangles[0]
        for x, y in _near_triangle(tri, rng, bound):
            cs, out, _ = _triangle_system(tri, x, y, fp)
            inside = localcalc.point_in_triangle(x, y, tri)
            assert cs.value(out) == int(inside) and cs.evaluate_and_check().satisfied
            assert cs.evaluate_and_check(_claim_one(cs, "triangle", out)).satisfied == inside
            outside += not inside
    assert outside > 0


# -- lookup --------------------------------------------------------------


def _lookup_system(t_index, table):
    """(cs, b, row) of ``gadgets.lookup`` naming row ``t_index`` of table."""
    cs = fresh()
    b, row = gadgets.lookup(cs, t_index, table)
    return cs, b, row


TABLE = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]


def test_lookup_middle_row():
    cs, b, out = _lookup_system(2, TABLE)
    assert [cs.value(w) for w in out] == [4, 5, 6] and cs.value(b) == 1
    assert cs.evaluate_and_check().satisfied


def test_lookup_first_row():
    cs, b, out = _lookup_system(1, TABLE)
    assert [cs.value(w) for w in out] == [1, 2, 3] and cs.value(b) == 1


def test_lookup_exhaustive_in_index():
    for t in range(1, len(TABLE) + 1):
        cs, b, out = _lookup_system(t, TABLE)
        assert tuple(cs.value(w) for w in out) == TABLE[t - 1]
        assert cs.evaluate_and_check().satisfied


@pytest.mark.parametrize("table", [TABLE, TABLE[:1]], ids=["three-rows", "one-row"])
@pytest.mark.parametrize("index", [0, -1, 4, 10**9])
def test_lookup_out_of_range_names_no_row(table, index):
    # An index outside [1, n] gives the all-zero selector: b = 0, and a
    # multi-row table reads the all-zero row.  It is satisfiable.
    cs, b, out = _lookup_system(index, table)
    assert cs.value(b) == 0
    if len(table) > 1:
        assert [cs.value(w) for w in out] == [0, 0, 0]
    assert cs.evaluate_and_check().satisfied


def _selector(cs):
    """The lookup's prover inputs: its selector entries, in row order."""
    doms = cs.domains()
    return [wid for wid in range(len(cs._gates))
            if cs._gates[wid][0] == _INPUT and doms[wid] == Domain.PROVER]


def test_lookup_one_row_is_constants():
    # A one-row table's row comes back as public constants, and its one
    # selector entry is the bit b: one input, its booleanity, nothing else.
    for index in (0, 1, 2):
        cs, b, out = _lookup_system(index, TABLE[:1])
        assert [cs.value(w) for w in out] == [1, 2, 3]
        assert all(cs.domains()[w] == Domain.PUBLIC for w in out)
        assert _selector(cs) == [b] and cs.value(b) == int(index == 1)
        counters = cs.counters
        assert (counters.n_prover_inputs, counters.n_mul, counters.n_assert) == (1, 1, 1)
        assert cs.evaluate_and_check({b: 2}).first_failed_assertion == 0


def test_lookup_two_ones_unsatisfiable():
    cs, b, _ = _lookup_system(2, TABLE)
    sel_ids = _selector(cs)
    assert len(sel_ids) == len(TABLE)
    # Force a second one into the selector: every entry stays boolean, so
    # the first assertion to fail is the booleanity of b = 2, the lookup's
    # own last assertion.
    for other in (0, 2):
        report = cs.evaluate_and_check(overrides={sel_ids[other]: 1})
        assert not report.satisfied
        assert report.first_failed_assertion == len(TABLE) == cs.counters.n_assert - 1


def test_lookup_reads_every_column_through_one_vector():
    # A six-column triangle row (x1, x2, x3, y1, y2, y3) of a public table:
    # one selector per row, and each column is one affine over the vector
    # with the column's entries as coefficients, so the only muls are the
    # booleanity of the selector's entries and of its sum b.
    table = [tuple(range(6 * i, 6 * i + 6)) for i in range(4)]
    for t in range(1, len(table) + 1):
        cs, b, out = _lookup_system(t, table)
        assert tuple(cs.value(w) for w in out) == table[t - 1]
        assert cs.n_prover_inputs == len(table)
        assert cs.n_mul == len(table) + 1
        assert cs.n_shared_inputs == 0
        assert cs.evaluate_and_check().satisfied
