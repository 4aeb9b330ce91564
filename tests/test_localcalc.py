import random

import pytest
from hypothesis import given, strategies as st

from zkpol import localcalc
from zkpol.statements import CircleSet, TriangleSet
from zkpol.localcalc import (
    BaryCoords,
    DegenerateTriangle,
    area_dbl,
    area_dbl_sgn,
    find_circle,
    find_triangle,
    get_bcoords,
    isqrt,
    oracle_ev,
    oracle_hwtax,
    point_in_any_triangle,
    point_in_circles,
    point_in_triangle,
    taxed_distance,
)


class _Policy:
    def __init__(self, **kw):
        self.__dict__.update(kw)


# -- integer square root -------------------------------------------------


def test_isqrt_small_values():
    assert [isqrt(v) for v in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]


def test_isqrt_negative_rejected():
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=2**60))
def test_isqrt_bracketing(v):
    d = isqrt(v)
    assert d * d <= v < (d + 1) * (d + 1)


# -- signed areas --------------------------------------------------------


def test_area_sign_flips_under_vertex_swap():
    assert area_dbl_sgn(0, 0, 4, 0, 0, 4) == 16
    assert area_dbl_sgn(0, 0, 0, 4, 4, 0) == -16
    assert area_dbl(0, 0, 0, 4, 4, 0) == 16


def test_area_collinear_is_zero():
    assert area_dbl_sgn(1, 1, 2, 2, 5, 5) == 0


def test_area_translation_invariant():
    rng = random.Random(31)
    for _ in range(50):
        pts = [rng.randrange(-100, 100) for _ in range(6)]
        dx, dy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        shifted = [pts[0] + dx, pts[1] + dy, pts[2] + dx, pts[3] + dy, pts[4] + dx, pts[5] + dy]
        assert area_dbl_sgn(*pts) == area_dbl_sgn(*shifted)


# -- row searches --------------------------------------------------------

TRIS = [
    ((0, 0), (4, 0), (0, 4)),
    ((4, 0), (8, 0), (4, 4)),
    ((10, 10), (14, 10), (10, 14)),
]
ROWS = TriangleSet(tuple(TRIS)).rows


def test_find_triangle_hits():
    assert find_triangle(1, 1, ROWS) == 1
    assert find_triangle(5, 1, ROWS) == 2
    assert find_triangle(11, 11, ROWS) == 3


def test_find_triangle_miss_names_no_row():
    assert find_triangle(100, 100, ROWS) == 0


def test_find_circle_hits_first_or_names_no_row():
    rows = CircleSet(((5, 5, 2), (6, 5, 3), (20, 20, 1))).rows
    assert find_circle(5, 7, rows) == 1  # on the rim of circle 1, inside 2
    assert find_circle(9, 5, rows) == 2
    assert find_circle(20, 21, rows) == 3
    assert find_circle(0, 0, rows) == 0


def test_find_triangle_shared_edge_first_match():
    # (4, 0) lies on the boundary of both of the first two triangles;
    # the scan returns the earliest index.
    assert find_triangle(4, 0, ROWS) == 1


def test_find_triangle_agrees_with_membership():
    rng = random.Random(37)
    for _ in range(200):
        x, y = rng.randrange(16), rng.randrange(16)
        i = find_triangle(x, y, ROWS)
        if point_in_any_triangle(x, y, TRIS):
            assert point_in_triangle(x, y, TRIS[i - 1])
        else:
            assert i == 0


def _first_oracle_row(shapes, inside):
    return next((i for i, shape in enumerate(shapes, start=1) if inside(shape)), 0)


def test_searches_name_the_oracles_first_row_on_every_lattice_point():
    # On random small circle and triangle sets, either orientation, some
    # triangles sharing an edge (a quadrilateral split on its diagonal),
    # each search names the first row the independent oracle puts the
    # point in, and 0 exactly where the oracle puts it outside every one;
    # every lattice point of a box around the sets is tried, so the rims,
    # edges and vertices are.  A wrong table coefficient fails here without
    # going through the circuit.
    rng = random.Random(43)
    lattice = [(x, y) for x in range(-2, 12) for y in range(-2, 12)]
    outside = {"circle": 0, "triangle": 0}
    for _ in range(30):
        circles = tuple((rng.randrange(10), rng.randrange(10), rng.randrange(1, 5))
                        for _ in range(rng.randint(1, 4)))
        tris = []
        while len(tris) < 4:
            a, b, c, d = ((rng.randrange(10), rng.randrange(10)) for _ in range(4))
            for tri in ((a, b, c), (c, d, a)):
                if area_dbl_sgn(*tri[0], *tri[1], *tri[2]) != 0:
                    tris.append(tri)
        rows, tri_rows = CircleSet(circles).rows, TriangleSet(tuple(tris)).rows
        for x, y in lattice:
            named = find_circle(x, y, rows)
            assert named == _first_oracle_row(circles, lambda c: point_in_circles(x, y, [c]))
            assert (named == 0) == (not point_in_circles(x, y, circles))
            outside["circle"] += named == 0
            named = find_triangle(x, y, tri_rows)
            assert named == _first_oracle_row(tris, lambda t: point_in_triangle(x, y, t))
            assert (named == 0) == (not point_in_any_triangle(x, y, tris))
            outside["triangle"] += named == 0
    assert all(outside.values())


# -- barycentric conversion ----------------------------------------------


def test_bcoords_centroid():
    bc = get_bcoords(1, 1, 0, 0, 3, 0, 0, 3)
    assert bc == BaryCoords(3, 3)


def test_bcoords_vertices():
    # At a1: (s, t) = (0, 0) and u = area; at a2: s = area; at a3: t = area.
    area = area_dbl(0, 0, 3, 0, 0, 3)
    assert get_bcoords(0, 0, 0, 0, 3, 0, 0, 3) == BaryCoords(0, 0)
    assert get_bcoords(3, 0, 0, 0, 3, 0, 0, 3) == BaryCoords(area, 0)
    assert get_bcoords(0, 3, 0, 0, 3, 0, 0, 3) == BaryCoords(0, area)


def test_bcoords_degenerate():
    with pytest.raises(DegenerateTriangle):
        get_bcoords(1, 1, 0, 0, 2, 2, 4, 4)


def test_bcoords_reconstruction_identity():
    # x * area == s * a2 + t * a3 + u * a1 (and similarly for y), with
    # u = area - s - t, for positively oriented triangles.
    rng = random.Random(41)
    done = 0
    while done < 200:
        a1, b1, a2, b2, a3, b3 = (rng.randrange(-64, 64) for _ in range(6))
        area = area_dbl_sgn(a1, b1, a2, b2, a3, b3)
        if area <= 0:
            continue
        x, y = rng.randrange(-64, 64), rng.randrange(-64, 64)
        bc = get_bcoords(x, y, a1, b1, a2, b2, a3, b3)
        u = area - bc.s - bc.t
        assert x * area == u * a1 + bc.s * a2 + bc.t * a3
        assert y * area == u * b1 + bc.s * b2 + bc.t * b3
        done += 1


def test_bcoords_sign_characterizes_membership():
    # All three coordinates non-negative iff the edge-cross test says
    # inside; the two implementations share no code.
    rng = random.Random(43)
    done = 0
    while done < 300:
        tri = tuple((rng.randrange(32), rng.randrange(32)) for _ in range(3))
        if area_dbl_sgn(*tri[0], *tri[1], *tri[2]) == 0:
            continue
        x, y = rng.randrange(32), rng.randrange(32)
        bc = get_bcoords(x, y, *tri[0], *tri[1], *tri[2])
        u = area_dbl(*tri[0], *tri[1], *tri[2]) - bc.s - bc.t
        inside = bc.s >= 0 and bc.t >= 0 and u >= 0
        assert inside == point_in_triangle(x, y, tri)
        done += 1


def test_bcoords_orientation_insensitive():
    # Swapping two vertices flips the raw signs but the corrected
    # coordinates still classify membership the same way.
    bc_ccw = get_bcoords(1, 1, 0, 0, 3, 0, 0, 3)
    bc_cw = get_bcoords(1, 1, 0, 0, 0, 3, 3, 0)
    assert bc_ccw.s >= 0 and bc_ccw.t >= 0
    assert bc_cw.s >= 0 and bc_cw.t >= 0


# -- membership oracles --------------------------------------------------


def test_point_in_circles_boundary():
    assert point_in_circles(3, 4, [(0, 0, 5)])
    assert not point_in_circles(3, 5, [(0, 0, 5)])


def test_point_in_triangle_boundary():
    tri = ((0, 0), (4, 0), (0, 4))
    assert point_in_triangle(2, 0, tri)
    assert point_in_triangle(2, 2, tri)
    assert not point_in_triangle(3, 3, tri)


# -- policy oracles ------------------------------------------------------


def test_oracle_ev_fully_inside():
    # Straight run inside one large circle: every unit counts.
    trail = [(0, 0), (3, 4), (6, 8)]
    circles = [(3, 4, 100)]
    assert oracle_ev(trail, circles, _Policy(d_req=10, p_req=100))
    assert not oracle_ev(trail, circles, _Policy(d_req=11, p_req=100))


def test_oracle_ev_partial_coverage():
    # Only the second hop has both endpoints in the circle: 50% coverage.
    trail = [(0, 0), (0, 5), (0, 10)]
    circles = [(0, 10, 6)]
    assert oracle_ev(trail, circles, _Policy(d_req=10, p_req=50))
    assert not oracle_ev(trail, circles, _Policy(d_req=10, p_req=51))


def test_oracle_ev_single_point_trail():
    # No segments: zero distance trivially meets d_req = 0 at any share.
    assert oracle_ev([(5, 5)], [(0, 0, 1)], _Policy(d_req=0, p_req=100))
    assert not oracle_ev([(5, 5)], [(0, 0, 1)], _Policy(d_req=1, p_req=0))


def test_taxed_distance_totals():
    tri = [((0, 0), (20, 0), (0, 20))]
    pts = [(0, 0), (3, 4), (100, 4), (103, 8)]
    tot = taxed_distance(pts, [])  # no tax-free road: every hop is taxed
    assert tot == 5 + 97 + 5
    # Only the first hop has both endpoints on the road: hw = 5.
    assert taxed_distance(pts, tri) == tot - 5


def test_taxed_distance_and_verdict():
    tri = [((0, 0), (20, 0), (0, 20))]
    trail = [(0, 0), (3, 4), (100, 4), (103, 8)]
    assert taxed_distance(trail, tri) == 102
    assert oracle_hwtax(trail, tri, _Policy(d_max=102))
    assert not oracle_hwtax(trail, tri, _Policy(d_max=101))


def test_taxed_distance_all_on_road_is_zero():
    tri = [((0, 0), (200, 0), (0, 200))]
    trail = [(0, 0), (3, 4), (6, 8)]
    assert taxed_distance(trail, tri) == 0
