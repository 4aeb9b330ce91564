"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from zkpol import localcalc, poseidon
from zkpol.appio import serialize_instance
from zkpol.circuit import _MUL, _SUB, ConstraintSystem
from zkpol.field import FieldParams
from zkpol.poseidon import params_for
from zkpol.statements import (
    AuthorityData,
    CircleSet,
    SubsidyPolicy,
    TaxPolicy,
    Trail,
    TriangleSet,
    honest_hash,
    make_instance,
)

FP12 = FieldParams(coord_bits=12)
COORD_BOUND = 1 << 12


def membership_weights(cs: ConstraintSystem, region: str, bit: int) -> list[int]:
    """The signed values of the weights that the membership bit ``bit``
    multiplies in ``region`` before each range check, in gate order: the
    weight wires of ``gadgets.check_inside`` or ``check_inside_triangle``.
    The bit's booleanity, bit * (bit - 1), is its one other product there."""
    p, gates = cs.p, cs._gates
    vals = [cs.value(gates[g][2]) for g in cs.region(region)[0]
            if gates[g][:2] == (_MUL, bit) and gates[gates[g][2]][:2] != (_SUB, bit)]
    return [v - p if v > p // 2 else v for v in vals]


def independent_permutation(state, pp):
    """The dense Poseidon permutation of ``pp``, straight-line from its round
    constants and MDS matrix: every round adds t constants, applies the
    S-box to every lane (full) or lane 0 (partial) and multiplies by the
    MDS matrix.  It shares no code with ``localcalc.poseidon_permutation_ref``
    or ``pp.factored``, so tests use it as the independent reference."""
    p = pp.prime
    s = list(state)
    idx = 0
    for rnd in range(pp.r_full + pp.r_partial):
        s = [(s[i] + pp.round_constants[idx + i]) % p for i in range(pp.t)]
        idx += pp.t
        full = rnd < pp.r_full // 2 or rnd >= pp.r_full // 2 + pp.r_partial
        if full:
            s = [pow(v, pp.alpha, p) for v in s]
        else:
            s[0] = pow(s[0], pp.alpha, p)
        s = [
            sum(pp.mds[r][c] * s[c] for c in range(pp.t)) % p
            for r in range(pp.t)
        ]
    return s


@pytest.fixture(scope="session")
def fp12() -> FieldParams:
    return FP12


class Derived(BaseException):
    """Raised by a Poseidon derivation a test forbids; escapes every
    ``except Exception``, the CLI's included."""


@pytest.fixture
def no_poseidon_derivation(monkeypatch):
    """Make deriving round numbers or round constants raise ``Derived``."""
    def derive(*args):
        raise Derived(args)

    monkeypatch.setattr(poseidon, "_derive_constant", derive)
    monkeypatch.setattr(poseidon, "round_numbers", derive)


def unvalidated_doc(ad: AuthorityData, trail: Trail, h_ex: int) -> dict:
    """The instance file a stray writer would produce for (ad, trail,
    h_ex): serialized as it is, with no ``StatementInstance`` (which would
    validate it) ever constructed."""
    return serialize_instance(SimpleNamespace(ad=ad, trail=trail, h_ex=h_ex))


def small_prime_ev() -> tuple[AuthorityData, list[tuple[int, int]]]:
    """Authority data that validation rejects, and a trail for it: at
    1-bit coordinates and p = 1009 the coverage comparison
    tot * p_req <= 100 * cc is 11 bits wide, and 2^12 >= p.  Left
    unvalidated, the oracle accepts the trail (tot = cc = 0) and the
    circuit, whose comparison wraps mod p, rejects it."""
    fp = FieldParams(modulus=1009, coord_bits=1)
    ad = AuthorityData("ev", 2, SubsidyPolicy(d_req=0, p_req=100), CircleSet(((1, 1, 1),)),
                       fp, params_for(fp))
    return ad, [(0, 1), (0, 1)]


def small_prime_ev_doc() -> dict:
    """``small_prime_ev`` as a stray instance file carries it, with the
    trail's honest hash."""
    ad, moves = small_prime_ev()
    trail = Trail(tuple(moves))
    return unvalidated_doc(ad, trail, honest_hash(ad, trail))


def random_trail(rng: random.Random, n_traj: int, bound: int = COORD_BOUND) -> Trail:
    n_pts = rng.randint(1, n_traj)
    return Trail(tuple((rng.randrange(bound), rng.randrange(bound)) for _ in range(n_pts)))


def random_circles(rng: random.Random, n_circ: int, bound: int = COORD_BOUND) -> CircleSet:
    return CircleSet(
        tuple(
            (rng.randrange(bound), rng.randrange(bound), rng.randrange(1, bound))
            for _ in range(n_circ)
        )
    )


def random_triangles(rng: random.Random, n_tri: int, bound: int = COORD_BOUND) -> TriangleSet:
    tris = []
    while len(tris) < n_tri:
        verts = tuple((rng.randrange(bound), rng.randrange(bound)) for _ in range(3))
        if localcalc.area_dbl_sgn(*verts[0], *verts[1], *verts[2]) != 0:
            tris.append(verts)
    return TriangleSet.oriented(tris)


def _trail_stats_ev(trail: Trail, n_traj: int, circles: CircleSet) -> tuple[int, int]:
    return localcalc.segment_walk(
        trail.padded(n_traj), lambda x, y: localcalc.point_in_circles(x, y, circles.circles)
    )


def random_ev_instance(rng: random.Random, max_traj: int = 64, max_circ: int = 8):
    """Random subsidy instance with a policy sampled near the achieved
    values, so verdicts mix between true and false."""
    n_traj = rng.randint(2, max_traj)
    n_circ = rng.randint(1, max_circ)
    circles = random_circles(rng, n_circ)
    # Bias some trails into the first circle so in-circle shares vary.
    if rng.random() < 0.5:
        u, v, r = circles.circles[0]
        half = max(1, r // 2)
        n_pts = rng.randint(1, n_traj)
        pts = tuple(
            (
                min(COORD_BOUND - 1, max(0, u + rng.randint(-half, half))),
                min(COORD_BOUND - 1, max(0, v + rng.randint(-half, half))),
            )
            for _ in range(n_pts)
        )
        trail = Trail(pts)
    else:
        trail = random_trail(rng, n_traj)
    tot, cc = _trail_stats_ev(trail, n_traj, circles)
    d_req = max(0, tot + rng.randint(-3, 3))
    pct = (cc * 100) // tot if tot else 100
    p_req = min(100, max(0, pct + rng.randint(-3, 3)))
    policy = SubsidyPolicy(d_req=d_req, p_req=p_req)
    return make_instance("ev", FP12, n_traj, policy, circles, trail)


def random_tax_instance(rng: random.Random, max_traj: int = 64, max_tri: int = 16):
    n_traj = rng.randint(2, max_traj)
    n_tri = rng.randint(1, max_tri)
    tris = random_triangles(rng, n_tri)
    trail = random_trail(rng, n_traj)
    taxed = localcalc.taxed_distance(trail.padded(n_traj), tris.triangles)
    d_max = max(0, taxed + rng.randint(-3, 3))
    return make_instance("tax", FP12, n_traj, TaxPolicy(d_max=d_max), tris, trail)
