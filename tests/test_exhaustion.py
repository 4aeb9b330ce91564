"""Soundness and completeness of the statement layer by exhaustion, at
the smallest fields validation admits.

The selector entries and b are boolean-asserted and the geometry table
has fewer rows than p, so a satisfying selector names one row or none,
which ``row_hints`` in [0, n]^n_traj covers (0 names none).  Every
decomposition's bits are forced by its value, every root is pinned by
``sqrt_floor``'s own argument, and the digest fixes the trail modulo
Poseidon collisions, which this does not cover.  So at these sizes "some
row_hints satisfies iff the oracle accepts" is the whole claim: no
witness makes a rejected instance pass, and an accepted one has one.
"""

import itertools

import pytest

from zkpol.circuit import ConstraintSystem
from zkpol.field import FieldParams
from zkpol.statements import (
    CircleSet,
    SubsidyPolicy,
    TaxPolicy,
    TriangleSet,
    Trail,
    build_statement,
    make_instance,
    oracle_verdict,
)

LATTICE = [(x, y) for x in range(2) for y in range(2)]  # coord_bits 1
N_TRAJ = 3
# Every trail of exactly N_TRAJ points; a shorter one pads to one of them.
TRAILS = [Trail(pts) for pts in itertools.product(LATTICE, repeat=N_TRAJ)]


def _one_or_two(shapes):
    return [c for n in (1, 2) for c in itertools.combinations(shapes, n)]


def _some_row_hints_satisfy(inst) -> bool:
    n = inst.ad.geometry.count
    return any(build_statement(inst, ConstraintSystem(inst.field_params), row_hints=hints).check().satisfied
               for hints in itertools.product(range(n + 1), repeat=N_TRAJ))


def _mismatches(kind, fp, geometries, policies):
    out = []
    for geometry, policy, trail in itertools.product(geometries, policies, TRAILS):
        inst = make_instance(kind, fp, N_TRAJ, policy, geometry, trail)
        if _some_row_hints_satisfy(inst) != oracle_verdict(inst):
            out.append((geometry, policy, trail.points))
    return out


def test_ev_by_exhaustion():
    # p = 4,099 is the smallest prime whose cover range check fits at
    # n_traj 3; every circle on the lattice has r = 1.  Segment lengths are
    # 0 or 1, so tot is in [0, 2] and the coverage share in {0, 1/2, 1}.
    fp = FieldParams(modulus=4099, coord_bits=1)
    circles = [CircleSet(c) for c in _one_or_two([(u, v, 1) for u, v in LATTICE])]
    policies = [SubsidyPolicy(d_req, p_req) for d_req, p_req in ((0, 0), (1, 50), (2, 100), (0, 100))]
    assert _mismatches("ev", fp, circles, policies) == []


def test_tax_by_exhaustion():
    # p = 523 is the smallest prime FieldParams admits at coord_bits 1
    # (p > 2^9) with Poseidon parameters (gcd(5, p - 1) = 1).  The four
    # triangles on the lattice, each positively oriented.
    fp = FieldParams(modulus=523, coord_bits=1)
    oriented = TriangleSet.oriented(itertools.combinations(LATTICE, 3)).triangles
    assert len(oriented) == 4
    triangles = [TriangleSet(t) for t in _one_or_two(oriented)]
    policies = [TaxPolicy(d_max) for d_max in range(3)]
    assert _mismatches("tax", fp, triangles, policies) == []
