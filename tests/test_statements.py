import itertools
import random
from dataclasses import replace
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from zkpol import gadgets, localcalc
from zkpol.appio import (
    FixtureSpec,
    SchemaError,
    gen_fixture,
    instance_from_doc,
    load_instance,
    save_instance,
    serialize_instance,
)
from zkpol.circuit import _AFFINE, ConstraintSystem, Domain
from zkpol.field import FieldParams, widths
from zkpol.poseidon import PoseidonParamError, PoseidonParams, params_for
from zkpol.protocol import ideal_outputs, run_session
from zkpol.statements import (
    MAX_N_GEO,
    MAX_N_PAIRS,
    MAX_N_TRAJ,
    AuthorityData,
    CircleSet,
    InstanceError,
    StatementInstance,
    SubsidyPolicy,
    TaxPolicy,
    Trail,
    TriangleSet,
    _dummy_instance,
    build_statement,
    honest_hash,
    make_instance,
    oracle_verdict,
    packing,
    point_inside,
    statement_cost,
    trail_message,
)

from conftest import (
    FP12,
    random_circles,
    random_ev_instance,
    random_tax_instance,
    random_trail,
    random_triangles,
    membership_weights,
    small_prime_ev,
    unvalidated_doc,
)

CIRCLE = CircleSet(((1, 1, 1),))
TRIANGLE = TriangleSet((((0, 0), (3, 0), (0, 3)),))


def _build(inst, **hints):
    cs = ConstraintSystem(inst.field_params)
    handle = build_statement(inst, cs, **hints)
    return cs, handle


# -- instance plumbing ---------------------------------------------------


def test_trail_padding_repeats_last_point():
    t = Trail(((1, 2), (3, 4)))
    assert t.padded(4) == [(1, 2), (3, 4), (3, 4), (3, 4)]


def test_trail_too_long_rejected():
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 4, SubsidyPolicy(0, 0), CIRCLE, Trail(((0, 0),) * 5))


def test_empty_trail_rejected():
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 4, SubsidyPolicy(0, 0), CIRCLE, Trail(()))


def test_oriented_rejects_degenerate():
    with pytest.raises(InstanceError):
        make_instance("tax", FP12, 4, TaxPolicy(0),
                      TriangleSet.oriented([((0, 0), (1, 1), (2, 2))]), Trail(((1, 1),)))


def test_oriented_fixes_clockwise():
    ts = TriangleSet.oriented([((0, 0), (0, 3), (3, 0))])
    tri = ts.triangles[0]
    assert localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2]) > 0


def test_policy_validation():
    trail = Trail(((1, 1),))
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 4, SubsidyPolicy(d_req=-1, p_req=50), CIRCLE, trail)
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 4, SubsidyPolicy(d_req=0, p_req=101), CIRCLE, trail)
    with pytest.raises(InstanceError):
        make_instance("tax", FP12, 4, TaxPolicy(d_max=-1), TRIANGLE, trail)


# Each check that used to live in a policy, Trail.padded or
# TriangleSet.oriented, as (kind, policy, geometry, trail, pointer).
MOVED_CHECKS = {
    "p_req-above-100": ("ev", SubsidyPolicy(0, 101), CIRCLE, Trail(((1, 1), (2, 2))), "/policy/p_req"),
    "p_req-negative": ("ev", SubsidyPolicy(0, -1), CIRCLE, Trail(((1, 1), (2, 2))), "/policy/p_req"),
    "d_req-negative": ("ev", SubsidyPolicy(-1, 50), CIRCLE, Trail(((1, 1), (2, 2))), "/policy/d_req"),
    "d_max-negative": ("tax", TaxPolicy(-1), TRIANGLE, Trail(((1, 1), (2, 2))), "/policy/d_max"),
    "trail-too-long": ("ev", SubsidyPolicy(0, 0), CIRCLE, Trail(((0, 0),) * 5), "/trail/points"),
    "trail-empty": ("ev", SubsidyPolicy(0, 0), CIRCLE, Trail(()), "/trail/points"),
    "degenerate-triangle": ("tax", TaxPolicy(0), TriangleSet.oriented([((0, 0), (1, 1), (2, 2))]),
                            Trail(((1, 1), (2, 2))), "/geometry/triangles/0: degenerate"),
}


@pytest.mark.parametrize("case", MOVED_CHECKS.values(), ids=MOVED_CHECKS.keys())
def test_moved_check_rejects_through_every_entry_point(case):
    kind, policy, geometry, trail, pointer = case
    with pytest.raises(InstanceError, match=f"^{pointer}"):
        make_instance(kind, FP12, 4, policy, geometry, trail)
    ad = AuthorityData(kind, 4, policy, geometry, FP12, params_for(FP12))
    with pytest.raises(SchemaError, match=f"^{pointer}"):
        instance_from_doc(unvalidated_doc(ad, trail, h_ex=0))
    moves = list(trail.points)
    outputs = run_session("honest", ad, moves).outputs
    assert outputs == ideal_outputs(moves, ad, ad) == {"prover": "not_ok", "verifier": "not_ok"}


def test_instance_rejects_out_of_range_coordinates():
    trail = Trail(((1 << 12, 0),))
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 2, SubsidyPolicy(0, 0), CircleSet(((1, 1, 1),)), trail)


def test_instance_rejects_oversized_d_req():
    w = widths(FP12.coord_bits, 2).tot
    trail = Trail(((1, 1),))
    with pytest.raises(InstanceError):
        make_instance(
            "ev", FP12, 2, SubsidyPolicy(1 << w, 0), CircleSet(((1, 1, 1),)), trail
        )


def test_instance_rejects_prime_without_poseidon_parameters():
    # 32771 is a valid field for 2-bit coordinates, but 5 | p - 1 leaves
    # the default S-box (alpha = 5) without an inverse.
    fp = FieldParams(modulus=32771, coord_bits=2)
    with pytest.raises(InstanceError, match="Poseidon"):
        make_instance(
            "ev", fp, 2, SubsidyPolicy(d_req=0, p_req=0),
            CircleSet(((1, 1, 1),)), Trail(((0, 0), (1, 1))),
        )


def test_make_instance_caps_n_traj_before_hashing(monkeypatch):
    def no_hash(*args):
        raise AssertionError("the trail was hashed before validation")

    monkeypatch.setattr(localcalc, "poseidon_digest_ref", no_hash)
    with pytest.raises(InstanceError, match="^/sizes/n_traj"):
        make_instance(
            "ev", FieldParams(coord_bits=12), MAX_N_TRAJ + 1, SubsidyPolicy(0, 0),
            CircleSet(((1, 1, 1),)), Trail(((0, 0), (1, 1))),
        )


@pytest.mark.parametrize("kind, policy, geometry", [
    ("ev", SubsidyPolicy(0, 0), CircleSet(CIRCLE.circles * (MAX_N_GEO + 1))),
    ("tax", TaxPolicy(0), TriangleSet(TRIANGLE.triangles * (MAX_N_GEO + 1))),
], ids=["circles", "triangles"])
def test_make_instance_caps_the_geometry_count(kind, policy, geometry):
    pointer = "/geometry/circles" if kind == "ev" else "/geometry/triangles"
    with pytest.raises(InstanceError, match=f"^{pointer}: outside desk-scale cap"):
        make_instance(kind, FP12, 4, policy, geometry, Trail(((1, 1),)))


@pytest.mark.parametrize("kind, policy, geometry", [
    ("ev", SubsidyPolicy(0, 0), CIRCLE), ("tax", TaxPolicy(0), TRIANGLE),
], ids=["circles", "triangles"])
def test_instance_caps_n_traj_times_the_geometry_count(kind, policy, geometry):
    # Checked before the trail is hashed: h_ex is given, so only validation runs.
    pointer, items = (("/geometry/circles", geometry.circles) if kind == "ev"
                      else ("/geometry/triangles", geometry.triangles))
    n_geo = MAX_N_PAIRS // MAX_N_TRAJ

    def instance(count):
        ad = AuthorityData(kind, MAX_N_TRAJ, policy, type(geometry)(items * count), FP12,
                           params_for(FP12))
        return StatementInstance(ad, Trail(((1, 1),)), h_ex=0)

    instance(n_geo)
    with pytest.raises(InstanceError, match=f"^{pointer}: n_traj x n_geo = {MAX_N_PAIRS + MAX_N_TRAJ} above"):
        instance(n_geo + 1)


def test_instance_needs_fewer_geometry_rows_than_p():
    # The lookup's bit is the sum of its selector, which is boolean over the
    # integers only while the table has fewer than p rows: at p = 523 a
    # selector of 524 ones sums to 1 and reads the sum of every row.
    fp = FieldParams(modulus=523, coord_bits=1)
    cs = ConstraintSystem(fp)
    cs.scope("lookup")
    gadgets.lookup(cs, 1, [(j,) for j in range(524)])
    sel = cs.region("lookup")[2]
    assert len(sel) == 524 and cs.evaluate_and_check(dict.fromkeys(sel, 1)).satisfied
    for kind, policy, row in (("ev", SubsidyPolicy(0, 0), (1, 1, 1)),
                              ("tax", TaxPolicy(0), ((0, 0), (1, 0), (0, 1)))):
        geo_type, pointer = ((CircleSet, "/geometry/circles") if kind == "ev"
                             else (TriangleSet, "/geometry/triangles"))
        with pytest.raises(InstanceError, match=f"^{pointer}: 523 rows, not fewer than p = 523"):
            make_instance(kind, fp, 2, policy, geo_type((row,) * 523), Trail(((1, 1),)))
    # (At p = 523 an ev instance's coverage check is too wide for the field.)
    make_instance("tax", fp, 2, TaxPolicy(0), TriangleSet((row,) * 522), Trail(((1, 1),)))


def test_statement_cost_caps_n_traj_times_n_geo(monkeypatch):
    monkeypatch.setattr("zkpol.statements._dummy_instance", mock.Mock(side_effect=AssertionError))
    with pytest.raises(InstanceError, match="^n_geo: n_traj x n_geo"):
        statement_cost("ev", MAX_N_TRAJ, MAX_N_PAIRS // MAX_N_TRAJ + 1, FP12)


def test_instance_rejects_prime_too_small_for_its_shape():
    ad, moves = small_prime_ev()
    with pytest.raises(InstanceError, match="^/field_params/modulus"):
        StatementInstance(ad, Trail(tuple(moves)))


def test_instance_rejects_mismatched_geometry():
    trail = Trail(((1, 1),))
    with pytest.raises(InstanceError):
        make_instance("ev", FP12, 2, SubsidyPolicy(0, 0), TriangleSet.oriented([((0, 0), (3, 0), (0, 3))]), trail)


def test_instance_rejects_a_poseidon_prime_other_than_the_modulus():
    # Hashed mod 32779 by the reference and mod 2^127 - 1 by the circuit,
    # the digest would fail while the oracle says True.
    with pytest.raises(InstanceError, match="^/poseidon: prime 32779"):
        make_instance("ev", FieldParams(coord_bits=4), 4, SubsidyPolicy(0, 0), CircleSet(((1, 1, 1),)),
                      Trail(((1, 1), (2, 2))), pp=PoseidonParams(prime=32779))


# Numbers that are not ints: wired, a float would be truncated (p_req 33.5
# as 33, so the circuit accepts what the oracle rejects) or fail in the
# reference hash.  Each as (kind, n_traj, policy, geometry, trail, pointer).
_LINE = Trail(((0, 0), (100, 0), (200, 0), (300, 0)))
NON_INTEGERS = {
    "p_req-float": ("ev", 4, SubsidyPolicy(0, 33.5), CircleSet(((50, 0, 60),)), _LINE, "/policy/p_req"),
    "d_req-float": ("ev", 4, SubsidyPolicy(0.5, 0), CircleSet(((50, 0, 60),)), _LINE, "/policy/d_req"),
    "d_max-float": ("tax", 4, TaxPolicy(2.5), TRIANGLE, _LINE, "/policy/d_max"),
    "trail-float": ("ev", 4, SubsidyPolicy(0, 0), CIRCLE, Trail(((0.5, 0), (100, 0))), "/trail/points/0"),
    "trail-bool": ("ev", 4, SubsidyPolicy(0, 0), CIRCLE, Trail(((1, 1), (2, True))), "/trail/points/1"),
    "n_traj-float": ("ev", 4.0, SubsidyPolicy(0, 0), CIRCLE, _LINE, "/sizes/n_traj"),
    "radius-bool": ("ev", 4, SubsidyPolicy(0, 0), CircleSet(((1, 1, True),)), _LINE, "/geometry/circles/0"),
    "vertex-float": ("tax", 4, TaxPolicy(0), TriangleSet((((0, 0), (3.0, 0), (0, 3)),)), _LINE,
                     "/geometry/triangles/0/1"),
}


@pytest.mark.parametrize("case", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_instance_rejects_numbers_that_are_not_integers(case):
    kind, n_traj, policy, geometry, trail, pointer = case
    with pytest.raises(InstanceError, match=f"^{pointer}: .* is not an integer"):
        make_instance(kind, FieldParams(coord_bits=12), n_traj, policy, geometry, trail)


# Points, circles and triangles of the wrong shape: unvalidated, they
# crash the build, the oracle and the reference hash, or (a fourth vertex)
# are silently ignored by the orientation check.  Each as (kind, geometry,
# trail, pointer).
_POINT = Trail(((1, 1),))
WRONG_SHAPES = {
    "triangle-with-4-vertices": ("tax", TriangleSet((((0, 0), (5, 0), (0, 5), (9, 9)),)), _POINT,
                                 "/geometry/triangles/0"),
    "triangle-with-2-vertices": ("tax", TriangleSet((((0, 0), (5, 0)),)), _POINT, "/geometry/triangles/0"),
    # TriangleSet.oriented leaves such triangles as given, for validation.
    "oriented-with-4-vertices": ("tax", TriangleSet.oriented([((0, 0), (5, 0), (0, 5), (9, 9))]), _POINT,
                                 "/geometry/triangles/0"),
    "oriented-with-2-vertices": ("tax", TriangleSet.oriented([((0, 0), (5, 0))]), _POINT,
                                 "/geometry/triangles/0"),
    "vertex-with-3-coordinates": ("tax", TriangleSet((((0, 0, 1), (5, 0), (0, 5)),)), _POINT,
                                  "/geometry/triangles/0/0"),
    "circle-pair": ("ev", CircleSet(((100, 100),)), _POINT, "/geometry/circles/0"),
    "circle-quadruple": ("ev", CircleSet(((100, 100, 5, 1),)), _POINT, "/geometry/circles/0"),
    "point-triple": ("ev", CIRCLE, Trail(((100, 100, 7),)), "/trail/points/0"),
    "point-single": ("ev", CIRCLE, Trail(((100,),)), "/trail/points/0"),
}


@pytest.mark.parametrize("case", WRONG_SHAPES.values(), ids=WRONG_SHAPES.keys())
def test_instance_rejects_wrong_shaped_points_circles_and_triangles(case):
    kind, geometry, trail, pointer = case
    policy = SubsidyPolicy(0, 0) if kind == "ev" else TaxPolicy(0)
    with pytest.raises(InstanceError, match=f"^{pointer}: "):
        make_instance(kind, FP12, 4, policy, geometry, trail)
    ad = AuthorityData(kind, 4, policy, geometry, FP12, params_for(FP12))
    moves = list(trail.points)
    assert run_session("honest", ad, moves).outputs == {"prover": "not_ok", "verifier": "not_ok"}
    assert ideal_outputs(moves, ad, ad) == {"prover": "not_ok", "verifier": "not_ok"}


# -- subsidy statement ---------------------------------------------------

# A 3-point L-shaped trail: two hops of length 5 and 5, entirely inside
# one large circle, so tot = 10 and cc = 10.
EV_TRAIL = Trail(((0, 0), (3, 4), (6, 8)))
EV_CIRCLES = CircleSet(((3, 4, 100),))


def _ev(d_req, p_req, **kw):
    return make_instance(
        "ev", FP12, 4, SubsidyPolicy(d_req, p_req), EV_CIRCLES, EV_TRAIL, **kw
    )


def test_ev_exact_distance_satisfied():
    cs, h = _build(_ev(10, 100))
    assert h.check().satisfied


def test_ev_distance_shortfall_unsatisfied():
    cs, h = _build(_ev(11, 100))
    assert not h.check().satisfied


def test_ev_verdict_matches_oracle():
    for d_req, p_req in [(0, 0), (9, 100), (10, 100), (11, 0)]:
        inst = _ev(d_req, p_req)
        cs, h = _build(inst)
        assert h.check().satisfied == oracle_verdict(inst)


def test_ev_tampered_hash_unsatisfied():
    good = honest_hash(_ev(0, 0).ad, EV_TRAIL)
    inst = _ev(0, 0, h_ex=(good + 1) % FP12.modulus)
    cs, h = _build(inst)
    report = h.check()
    assert not report.satisfied


def test_ev_padding_does_not_change_verdict():
    # Same trail under a larger n_traj: padded segments are length zero.
    for n in (3, 5, 9):
        inst = make_instance("ev", FP12, n, SubsidyPolicy(10, 100), EV_CIRCLES, EV_TRAIL)
        cs, h = _build(inst)
        assert h.check().satisfied


def test_ev_trail_mutation_breaks_hash_binding():
    inst = _ev(0, 0)
    cs, h = _build(inst)
    assert h.check().satisfied
    rng = random.Random(47)
    for _ in range(10):
        wid = rng.choice(h.trail_input_ids)
        # Coordinates are < 2^12, so this override always changes the wire.
        report = h.check(overrides={wid: 1 << 20})
        assert not report.satisfied


def test_ev_dishonest_sqrt_hints_rejected():
    # Two-sided square-root checks pin every segment length exactly, so
    # both under- and overstatement make the system unsatisfiable.
    inst = _ev(10, 0)
    cs, h = _build(inst, sqrt_hints=[4, 5, 0])
    assert not h.check().satisfied
    cs, h = _build(inst, sqrt_hints=[6, 5, 0])
    assert not h.check().satisfied


def test_ev_understating_uncovered_segments_cannot_inflate_coverage():
    # The classic ratio attack: with only lower-bounded square roots a
    # prover could understate segments outside the circles, shrinking tot
    # while cc stays put.  tot=10 with cc=5 here; p_req=80 fails honestly
    # and must stay unsatisfiable under the understated witness.
    trail = Trail(((0, 0), (0, 5), (0, 10)))
    circles = CircleSet(((0, 10, 6),))  # covers the second hop only
    inst = make_instance("ev", FP12, 3, SubsidyPolicy(d_req=5, p_req=80), circles, trail)
    cs, h = _build(inst)
    assert not h.check().satisfied  # 50% coverage < 80%
    assert not oracle_verdict(inst)
    # Understate the uncovered first hop to 0: claimed tot=5, cc=5 -> 100%.
    cs, h = _build(inst, sqrt_hints=[0, 5])
    assert not h.check().satisfied


def test_ev_random_instances_agree_with_oracle():
    rng = random.Random(53)
    for _ in range(40):
        inst = random_ev_instance(rng, max_traj=16, max_circ=4)
        cs, h = _build(inst)
        assert h.check().satisfied == oracle_verdict(inst)


def test_ev_domain_monotonicity():
    # Every assertion constrains a value derived from prover data.
    cs, _ = _build(_ev(10, 100))
    assert {cs._domains[a] for a in cs._assertions} == {Domain.PROVER}


@pytest.mark.parametrize("h_ex", [
    lambda honest, p: honest + p, lambda honest, p: honest - p, lambda honest, p: -1,
    lambda honest, p: p, lambda honest, p: True,
], ids=["honest+p", "honest-p", "-1", "p", "bool"])
def test_h_ex_outside_the_field_is_rejected(h_ex):
    # The circuit wires h_ex mod p, so an unreduced h_ex would be a second
    # instance that verifies the same trail.
    honest, p = honest_hash(_ev(0, 0).ad, EV_TRAIL), FP12.modulus
    with pytest.raises(InstanceError, match="^/h_ex: "):
        _ev(0, 0, h_ex=h_ex(honest, p))
    assert _ev(0, 0, h_ex=honest).h_ex == honest
    assert _ev(0, 0, h_ex=p - 1).h_ex == p - 1


# -- the honest digest, hashed once ----------------------------------------

RANDOM_INSTANCE = pytest.mark.parametrize("make", [random_ev_instance, random_tax_instance],
                                          ids=["ev", "tax"])


def _no_reference_hash(*args):
    raise AssertionError("the reference hash ran")


@RANDOM_INSTANCE
def test_make_build_and_check_run_no_reference_hash(make, monkeypatch):
    monkeypatch.setattr(localcalc, "poseidon_digest_ref", _no_reference_hash)
    rng = random.Random(59)
    for _ in range(5):
        inst = make(rng, 16)  # through make_instance, without h_ex
        cs, h = _build(inst)
        assert h.check().satisfied == oracle_verdict(inst)


@RANDOM_INSTANCE
def test_h_ex_is_the_honest_hash_whether_a_build_or_a_read_resolves_it(make, monkeypatch):
    rng = random.Random(61)
    for _ in range(10):
        built = make(rng, 16)
        read = StatementInstance(built.ad, built.trail)
        with monkeypatch.context() as m:
            m.setattr(localcalc, "poseidon_digest_ref", _no_reference_hash)
            cs, _ = _build(built)
            from_build = built.h_ex
        honest = honest_hash(built.ad, built.trail)
        assert from_build == read.h_ex == honest
        assert cs.value(cs.region("digest")[2][-1]) == honest  # the one shared input
        cs, h = _build(read)
        assert h.check().satisfied == oracle_verdict(read)


@RANDOM_INSTANCE
def test_a_trail_override_fails_in_digest_without_a_given_h_ex(make):
    inst = make(random.Random(67), 8)
    cs, h = _build(inst)
    for wid in h.trail_input_ids:  # coordinates are below 2^12: x ^ 1 changes each
        first = h.check(overrides={wid: cs.value(wid) ^ 1}).first_failed_assertion
        assert cs.scope_of(first) == "digest"


@RANDOM_INSTANCE
def test_equality_and_hash_agree_before_and_after_resolution(make):
    inst = make(random.Random(71), 8)
    honest = honest_hash(inst.ad, inst.trail)
    given = StatementInstance(inst.ad, inst.trail, honest)

    def fresh():
        return StatementInstance(inst.ad, inst.trail)

    built = fresh()
    _build(built)
    for unresolved, resolved in ((fresh(), built), (built, fresh())):
        assert unresolved == resolved == given
        assert hash(unresolved) == hash(resolved) == hash(given)
    assert hash(fresh()) == hash(fresh()) and fresh() == fresh()
    wrong = StatementInstance(inst.ad, inst.trail, (honest + 1) % inst.field_params.modulus)
    assert wrong != fresh() and wrong != built and hash(wrong) != hash(given)


def test_a_build_over_another_field_does_not_resolve_h_ex():
    # The hash's value on a system over another prime is no digest of the
    # trail; h_ex then comes from the reference hash.
    fp = FieldParams(modulus=32779, coord_bits=2)
    inst = make_instance("ev", fp, 3, SubsidyPolicy(6, 100), CircleSet(((2, 1, 3),)),
                         Trail(((0, 0), (3, 0), (3, 3))))
    build_statement(inst, ConstraintSystem())
    assert inst.h_ex == honest_hash(inst.ad, inst.trail)


# -- the packed trail ----------------------------------------------------


@pytest.mark.parametrize("pack", [0, -1, 6, 1000, 2.0, True], ids=["0", "-1", "6", "1000", "float", "bool"])
def test_instance_rejects_a_pack_that_could_wrap_or_is_not_an_int(pack):
    # At 24 bits and p = 2^127 - 1 at most 5 coordinates fit below p.
    fp = FieldParams()
    assert fp.pack == 5 and FP12.pack == 10
    with pytest.raises(InstanceError, match=r"^/poseidon/pack: .* is not an integer in \[1, 5\]"):
        make_instance("ev", fp, 4, SubsidyPolicy(0, 0), CIRCLE, EV_TRAIL, pack=pack)
    ad = AuthorityData("ev", 4, SubsidyPolicy(0, 0), CIRCLE, fp, params_for(fp), pack)
    moves = list(EV_TRAIL.points)
    assert run_session("honest", ad, moves).outputs == {"prover": "not_ok", "verifier": "not_ok"}
    assert ideal_outputs(moves, ad, ad) == {"prover": "not_ok", "verifier": "not_ok"}


def test_authority_data_without_a_pack_takes_the_fields():
    ad = _ev(0, 0).ad
    assert ad.pack == FP12.pack == 10
    assert AuthorityData(ad.kind, ad.n_traj, ad.policy, ad.geometry, FP12, ad.pp) == ad
    assert make_instance("ev", FP12, 4, SubsidyPolicy(0, 0), EV_CIRCLES, EV_TRAIL, pack=1).ad.pack == 1


def _rebound(cs, h, j, value):
    """Overrides that move trail coordinate j to value together with the
    k range bits the digest derives for it."""
    k = cs.params.coord_bits
    bits = cs.region("digest")[2][j * k : (j + 1) * k]
    return {h.trail_input_ids[j]: value, **{b: (value >> i) & 1 for i, b in enumerate(bits)}}


@pytest.mark.parametrize("pack", [1, None], ids=["pack-1", "derived"])
@RANDOM_INSTANCE
def test_a_rebound_coordinate_fails_at_the_h_ex_equality(make, pack):
    # A flip with stale range bits stops at its recomposition; one with its
    # honestly re-derived bits passes every range check and must fail at
    # the hash, the last assertion of region digest.
    base = make(random.Random(73), 8)
    inst = StatementInstance(replace(base.ad, pack=pack), base.trail)
    cs, h = _build(inst)
    assert inst.ad.pack == (pack or FP12.pack)
    h_ex_eq = cs.region("digest")[1][-1]
    rng = random.Random(79)
    for j in rng.sample(range(len(h.trail_input_ids)), 6):
        value = cs.value(h.trail_input_ids[j]) ^ (1 << rng.randrange(cs.params.coord_bits))
        assert h.check(_rebound(cs, h, j, value)).first_failed_assertion == h_ex_eq


def test_packed_trails_of_different_lengths_differ():
    # At 24 bits 5 coordinates pack into one element, and these two trails
    # pack to the same elements: 4 points (a,d),(b,f),(c,g),(d,h) give
    # [a b c d d | f g h], 5 points (a,f),(b,g),(c,h),(d,0) padded with
    # (d,0) give [a b c d d | f g h 0 0].  Only the capacity seed, the
    # coordinate count, tells them apart.
    a, b, c, d, f, g, h = 11, 22, 33, 44, 66, 77, 88
    fp = FieldParams()
    four = make_instance("ev", fp, 4, SubsidyPolicy(0, 0), CIRCLE, Trail(((a, d), (b, f), (c, g), (d, h))))
    five = make_instance("ev", fp, 5, SubsidyPolicy(0, 0), CIRCLE, Trail(((a, f), (b, g), (c, h), (d, 0))))

    def elements(inst):
        msg = trail_message(inst.trail, inst.ad.n_traj)
        return [sum(w * v for w, v in zip(ws, vs)) for ws, vs in packing(msg, inst.ad.pack, 24)]

    assert elements(four) == elements(five)
    assert four.h_ex != five.h_ex
    for inst in (four, five):
        assert _build(inst)[1].check().satisfied


# The digests of an ev and a tax instance, computed before the trail was
# packed; a /poseidon block without "pack" keeps them.
LEGACY_DIGESTS = {
    "ev": 129346129988838828775556661546303034088,
    "tax": 110007227412855219787455372761723212212,
}


def _legacy(kind):
    if kind == "ev":
        return make_instance("ev", FP12, 4, SubsidyPolicy(10, 100), EV_CIRCLES, EV_TRAIL, pack=1)
    return make_instance("tax", FieldParams(), 4, TaxPolicy(102), TAX_TRIS, TAX_TRAIL, pack=1)


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_a_document_without_pack_keeps_its_digest(kind, tmp_path):
    doc = serialize_instance(_legacy(kind))
    assert doc["poseidon"].pop("pack") == 1
    doc["h_ex"] = str(LEGACY_DIGESTS[kind])
    inst = instance_from_doc(doc)
    assert inst.ad.pack == 1 and inst.h_ex == LEGACY_DIGESTS[kind] == honest_hash(inst.ad, inst.trail)
    packed = StatementInstance(replace(inst.ad, pack=None), inst.trail)
    assert packed.ad.pack == inst.field_params.pack and packed.h_ex != inst.h_ex
    for one in (inst, packed):
        path = tmp_path / "inst.json"
        save_instance(one, path)
        assert load_instance(path) == one
        cs, h = _build(one)
        assert h.check().satisfied
        # A coordinate of 2^k passes no k-bit range check.
        wid = h.trail_input_ids[1]
        first = h.check({wid: 1 << one.field_params.coord_bits}).first_failed_assertion
        assert cs.scope_of(first) == "digest"


# -- prover-named rows ---------------------------------------------------


def _tight_ev_instances(rng, count):
    """Small ev instances (2-3 points in [0, 32)^2, 2 circles, some of
    the length covered) with a tight policy: d_req = tot and p_req the
    coverage percentage, or one above it.  Any lowered cc rejects an
    accepting one."""
    out = []
    while len(out) < count:
        circles = CircleSet(tuple((rng.randrange(32), rng.randrange(32), rng.randint(6, 20))
                                  for _ in range(2)))
        pts = tuple((rng.randrange(32), rng.randrange(32)) for _ in range(rng.randint(2, 3)))
        tot, cc = localcalc.segment_walk(
            pts, lambda x, y: localcalc.point_in_circles(x, y, circles.circles))
        if cc:
            p_req = min(100, cc * 100 // tot + rng.randint(0, 1))
            out.append(make_instance("ev", FP12, len(pts), SubsidyPolicy(tot, p_req), circles,
                                     Trail(pts)))
    return out


def test_ev_every_named_row_only_hurts_the_prover():
    # Every row_hints choice 0..n+1 per point, where 0 and n+1 name no row:
    # a satisfied circuit means the oracle accepts, and the honest rows
    # (find_circle) satisfy it exactly when the oracle accepts.
    rng = random.Random(71)
    verdicts, lies_rejected = set(), 0
    for inst in _tight_ev_instances(rng, 12):
        n_geo, n = inst.ad.geometry.count, inst.ad.n_traj
        accepted = oracle_verdict(inst)
        verdicts.add(accepted)
        honest = tuple(localcalc.find_circle(x, y, inst.ad.geometry.circles)
                       for x, y in inst.trail.padded(n))
        for hints in itertools.product(range(n_geo + 2), repeat=n):
            satisfied = _build(inst, row_hints=hints)[1].check().satisfied
            assert accepted or not satisfied, hints
            if hints == honest:
                assert satisfied == accepted
            elif accepted and not satisfied and 0 not in hints and n_geo + 1 not in hints:
                lies_rejected += 1  # a real row that does not hold its point
    assert verdicts == {True, False} and lies_rejected > 0


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_selector_that_is_not_one_hot_fails_in_its_point(kind):
    inst = gen_fixture(FixtureSpec(kind=kind, seed=5, n_traj=6, n_geo=3 if kind == "ev" else 8))
    cs, h = _build(inst)
    p, n_geo = FP12.modulus, inst.ad.geometry.count
    for i in range(inst.ad.n_traj):
        sel = cs.region(f"point[{i}]")[2][:n_geo]
        named = max(range(n_geo), key=lambda j: cs.value(sel[j]))
        other = (named + 1) % n_geo
        vectors = [[1] * n_geo, [0] * n_geo, [0] * n_geo]
        vectors[1][named] = vectors[1][other] = 1  # two-hot: b = 2
        vectors[2][named], vectors[2][other] = 2, p - 1  # sums to 1, not boolean
        # The region opens with the lookup's own checks: n_geo booleanity
        # assertions, then that of their sum b.
        own = cs.region(f"point[{i}]")[1][: n_geo + 1]
        for vector in vectors:
            assert h.check(dict(zip(sel, vector))).first_failed_assertion in own


def _selector_sum(cs, region, n_geo):
    """The membership bit of a multi-row point region: the affine that sums
    the selector, its first n_geo inputs."""
    sel = tuple(cs.region(region)[2][:n_geo])
    return next(g for g in cs.region(region)[0] if cs._gates[g][:3] == (_AFFINE, (1,) * n_geo, sel))


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_all_zero_selector_at_an_inside_point_counts_it_outside(kind):
    # Naming no row (row hint 0) at a point inside a shape satisfies the
    # point's region: the bit is 0 and the point counts as outside.  At the
    # boundary fixture's tight policy that fails only in region policy,
    # and only if the point ends a segment of positive length whose other
    # end is inside too: that length no longer counts as covered (ev) or
    # tax-free (tax).
    inst = gen_fixture(FixtureSpec(kind=kind, seed=5, n_traj=6, n_geo=3 if kind == "ev" else 8,
                                   mode="boundary"))
    n, n_geo = inst.ad.n_traj, inst.ad.geometry.count
    pts = inst.trail.padded(n)
    shapes = inst.ad.geometry.circles if kind == "ev" else inst.ad.geometry.triangles
    contains = localcalc.point_in_circles if kind == "ev" else localcalc.point_in_any_triangle
    flipped = 0
    for i in (i for i in range(n) if contains(*pts[i], shapes)):
        hints = [None] * n
        hints[i] = 0
        cs, h = _build(inst, row_hints=hints)
        assert [cs.value(w) for w in cs.region(f"point[{i}]")[2][:n_geo]] == [0] * n_geo
        assert cs.value(_selector_sum(cs, f"point[{i}]", n_geo)) == 0
        lost = any(pts[a] != pts[b] and contains(*pts[a], shapes) and contains(*pts[b], shapes)
                   for a, b in ((i - 1, i), (i, i + 1)) if a >= 0 and b < n)
        failed = cs.scope_of(h.check().first_failed_assertion)
        assert failed == ("policy" if lost else None)
        flipped += lost
    assert flipped > 0


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_point_inside_reads_its_point_from_the_wires(kind):
    # With no row hint, the row named is found from the values of the
    # wires x and y: the bit is 1 exactly at the points a shape holds, and
    # the honest region is satisfied either way.
    inst = gen_fixture(FixtureSpec(kind=kind, seed=5, n_traj=6, n_geo=3 if kind == "ev" else 8))
    shapes = inst.ad.geometry.circles if kind == "ev" else inst.ad.geometry.triangles
    contains = localcalc.point_in_circles if kind == "ev" else localcalc.point_in_any_triangle
    seen = set()
    rng = random.Random(5)
    points = inst.trail.points + tuple((rng.randrange(4096), rng.randrange(4096)) for _ in range(20))
    for px, py in points:
        cs = ConstraintSystem(FP12)
        b = point_inside(cs, inst.ad, cs.wire_input(px, Domain.PROVER), cs.wire_input(py, Domain.PROVER))
        assert cs.value(b) == int(contains(px, py, shapes))
        assert cs.evaluate_and_check().satisfied
        seen.add(cs.value(b))
    assert seen == {0, 1}


def test_one_row_table_wires_the_bit_as_its_only_selector():
    # A one-circle table's row is constants, and region point[i]'s first
    # input is the membership bit, which multiplies the weight before its
    # range check; the rest are the range bits.
    inst = gen_fixture(FixtureSpec(kind="ev", seed=5, n_traj=6, n_geo=1))
    cs, _ = _build(inst)
    m = widths(FP12.coord_bits, inst.ad.n_traj).shape
    for i, (x, y) in enumerate(inst.trail.padded(inst.ad.n_traj)):
        inputs = cs.region(f"point[{i}]")[2]
        assert len(inputs) == 1 + m
        bit = inputs[0]
        assert cs.value(bit) == int(localcalc.point_in_circles(x, y, inst.ad.geometry.circles))
        (u, v, r), = inst.ad.geometry.circles
        assert membership_weights(cs, f"point[{i}]", bit) == [r * r - (x - u) ** 2 - (y - v) ** 2]


def test_tax_point_region_wires_only_its_selector_bit_and_range_bits():
    # The prover names a row or none, and nothing else: region point[i]'s
    # inputs are the selector, whose sum is the membership bit, then the
    # bits of three range checks at the shape width m.  The weight wires
    # are the weights get_bcoords gives for the named triangle (zero if
    # none is named), and the bit is 1 exactly when the point is on a
    # triangle.  The non-compliant fixture's trail leaves the road, so it
    # has both bits.
    inst = gen_fixture(FixtureSpec(kind="tax", seed=5, n_traj=6, n_geo=8, mode="non_compliant"))
    cs, _ = _build(inst)
    tris, n_geo = inst.ad.geometry.triangles, inst.ad.geometry.count
    m = widths(FP12.coord_bits, inst.ad.n_traj).shape
    bits_seen = set()
    for i, (x, y) in enumerate(inst.trail.padded(inst.ad.n_traj)):
        wires = cs.region(f"point[{i}]")[2]
        inputs = [cs.value(w) for w in wires]
        assert len(inputs) == n_geo + 3 * m
        sel, bits = inputs[:n_geo], inputs[n_geo:]
        named = localcalc.find_triangle(x, y, tris)
        assert sel == [int(j == named) for j in range(1, n_geo + 1)]
        assert set(bits) <= {0, 1}
        weights = [0, 0, 0]
        if named:
            tri = tris[named - 1]
            bc = localcalc.get_bcoords(x, y, *tri[0], *tri[1], *tri[2])
            weights = [bc.s, bc.t, localcalc.area_dbl(*tri[0], *tri[1], *tri[2]) - bc.s - bc.t]
            assert min(weights) >= 0
        bit = _selector_sum(cs, f"point[{i}]", n_geo)
        assert membership_weights(cs, f"point[{i}]", bit) == weights
        assert cs.value(bit) == sum(sel) == int(localcalc.point_in_any_triangle(x, y, tris))
        bits_seen.add(cs.value(bit))
    assert bits_seen == {0, 1}


# -- highway-tax statement -----------------------------------------------

# Road: one big triangle over the lower-left region.  Trail leaves the
# road for one 97-unit hop.
TAX_TRIS = TriangleSet.oriented([((0, 0), (20, 0), (0, 20))])
TAX_TRAIL = Trail(((0, 0), (3, 4), (100, 4), (103, 8)))


def _tax(d_max, n_traj=4, **kw):
    return make_instance("tax", FP12, n_traj, TaxPolicy(d_max), TAX_TRIS, TAX_TRAIL, **kw)


def test_tax_exact_bound_satisfied():
    assert localcalc.taxed_distance(TAX_TRAIL.points, TAX_TRIS.triangles) == 102
    cs, h = _build(_tax(102))
    assert h.check().satisfied


def test_tax_bound_exceeded_unsatisfied():
    cs, h = _build(_tax(101))
    assert not h.check().satisfied


def test_tax_huge_d_max_clamped_not_rejected():
    w = widths(FP12.coord_bits, 4).tot
    cs, h = _build(_tax(1 << (w + 5)))
    assert h.check().satisfied


def test_tax_tampered_hash_unsatisfied():
    good = honest_hash(_tax(200).ad, TAX_TRAIL)
    inst = _tax(200, h_ex=good ^ 1)
    cs, h = _build(inst)
    assert not h.check().satisfied


def test_tax_wrong_triangle_hint_never_decreases_taxed_distance():
    # Points 0 and 1 are on the road triangle, 2 and 3 off it.  Naming
    # triangle 1 at an off-road point is rejected in its region; naming no
    # row at an on-road point counts it off-road, raising tot - hw past the
    # tight bound, so the statement fails in policy.
    inst = _tax(102)
    for i in range(4):
        for hint in (0, 1):
            hints = [None] * 4
            hints[i] = hint
            cs, h = _build(inst, row_hints=hints)
            failed = cs.scope_of(h.check().first_failed_assertion)
            honest = hint == int(i < 2)
            assert failed == (None if honest else "policy" if hint == 0 else f"point[{i}]")
    # Square roots are exact: overstating an on-road hop and understating
    # the off-road hop are both rejected.
    cs, h = _build(inst, sqrt_hints=[6, 97, 5])
    assert not h.check().satisfied
    cs, h = _build(inst, sqrt_hints=[5, 96, 5])
    assert not h.check().satisfied


def _mixed_row_witness(tri_1, tri_2, trail):
    """Build a tax statement (d_max 0) whose prover alternates its lookups
    between triangles 1 and 2, for a trail inside the mixed triangle: x
    coordinates of tri_1, y coordinates of tri_2.  A lookup that selected
    columns separately could pair the columns of triangle 1 with those of
    triangle 2 at every point."""
    inst = make_instance(
        "tax", FP12, len(trail), TaxPolicy(0), TriangleSet((tri_1, tri_2)), Trail(trail)
    )
    real_lookup = gadgets.lookup
    picks = itertools.cycle((1, 2))
    with mock.patch.object(
        gadgets, "lookup", lambda cs, t, rows: real_lookup(cs, next(picks), rows)
    ):
        _, h = _build(inst)
    return inst, h


def test_tax_mixed_triangle_row_unsatisfiable():
    # Two tax-free triangles and a trail inside neither, but inside the
    # mixed triangle ((0,100), (10,100), (0,110)).
    tri_1 = ((0, 0), (10, 0), (0, 10))
    tri_2 = ((100, 100), (110, 100), (100, 110))
    inst, h = _mixed_row_witness(tri_1, tri_2, ((1, 101), (2, 102), (3, 103)))
    assert localcalc.taxed_distance(inst.trail.points, inst.ad.geometry.triangles) == 2
    assert not oracle_verdict(inst)
    assert not _build(inst)[1].check().satisfied
    assert not h.check().satisfied


_POINT = st.tuples(st.integers(0, 1023), st.integers(0, 1023))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_POINT, _POINT, _POINT), st.integers(1, 2), st.integers(1, 2))
def test_tax_mixed_triangle_row_unsatisfiable_on_disjoint_pairs(tri, sx, sy):
    # tri_1 lies in [0, 1024)^2 and tri_2, its image under
    # (x, y) -> (sx*x + 2048, sy*y + 2048), in [2048, 4096)^2.  The mixed
    # triangle (x from tri_1, y from tri_2) lies in [0, 1024) x [2048, 4096),
    # apart from both, so a trail through its vertices is taxed in full and
    # d_max 0 fails.  The scaling keeps all three positively oriented.
    assume(localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2]) != 0)
    (tri_1,) = TriangleSet.oriented([tri]).triangles
    tri_2 = tuple((sx * x + 2048, sy * y + 2048) for x, y in tri_1)
    mixed = tuple((x, y) for (x, _), (_, y) in zip(tri_1, tri_2))
    inst, h = _mixed_row_witness(tri_1, tri_2, mixed)
    assert not oracle_verdict(inst)
    assert not h.check().satisfied


def test_tax_fully_on_road_trail_meets_zero_bound():
    # A trail of only on-road points satisfies a zero bound.
    on_road = make_instance(
        "tax", FP12, 2, TaxPolicy(0), TAX_TRIS, Trail(((0, 0), (3, 4)))
    )
    cs, h = _build(on_road)
    assert h.check().satisfied


def test_tax_random_instances_agree_with_oracle():
    rng = random.Random(59)
    for _ in range(30):
        inst = random_tax_instance(rng, max_traj=12, max_tri=4)
        cs, h = _build(inst)
        assert h.check().satisfied == oracle_verdict(inst)


def test_tax_multi_triangle_road():
    tris = TriangleSet.oriented(
        [((0, 0), (10, 0), (0, 10)), ((10, 0), (10, 10), (0, 10))]
    )
    # Square road [0,10]^2: the diagonal crossing stays on-road.
    trail = Trail(((0, 0), (6, 8), (9, 9)))
    inst = make_instance("tax", FP12, 3, TaxPolicy(0), tris, trail)
    cs, h = _build(inst)
    assert h.check().satisfied
    assert oracle_verdict(inst)


# -- cost model ----------------------------------------------------------


def test_statement_cost_deterministic():
    assert statement_cost("ev", 8, 2, FP12) == statement_cost("ev", 8, 2, FP12)
    assert statement_cost("tax", 8, 2, FP12) == statement_cost("tax", 8, 2, FP12)


def test_statement_cost_independent_of_witness():
    rng = random.Random(61)
    inst = random_ev_instance(rng, max_traj=8, max_circ=2)
    cs, _ = _build(inst)
    expected = statement_cost("ev", inst.ad.n_traj, inst.ad.geometry.count, FP12)
    assert cs.counters.as_dict() == expected


def test_statement_cost_monotone_in_sizes():
    base = statement_cost("ev", 8, 2, FP12)
    more_traj = statement_cost("ev", 16, 2, FP12)
    more_circ = statement_cost("ev", 8, 4, FP12)
    for key in ("n_mul", "n_add", "n_assert"):
        assert more_traj[key] > base[key]
        assert more_circ[key] > base[key]


def test_statement_cost_rejects_bad_sizes():
    with pytest.raises(InstanceError):
        statement_cost("ev", 0, 1, FP12)
    with pytest.raises(InstanceError):
        statement_cost("tax", 4, 0, FP12)


def test_statement_cost_pinned():
    # Counters of the round-by-round Poseidon construction; each
    # permutation call must charge them exactly.  Both rows are those of the
    # exact square root (2k + 3 muls), of one selector vector per point
    # over the public geometry table (its columns are affines with the
    # table's entries as coefficients, so the only lookup muls are the
    # booleanity of each entry and of their sum, the membership bit b; a
    # one-row table's one entry is b), of triangle weights computed from
    # the row (4 muls, no hint), of a product with b and a 2k-bit range
    # check per weight, of policy range checks at their
    # ledger widths, of h_ex as the only shared input, of a k-bit range
    # check per trail coordinate (k muls), and of the t = 9 sponge (rate 8,
    # R_F = 8, R_P = 56: 384 muls and, with sparse partial rounds, 1,600
    # adds per permutation) over the trail packed FieldParams.pack
    # coordinates per element: 5 at 24 bits (512 coordinates in 103
    # elements, 13 permutations), 10 at 12 bits.
    assert statement_cost("ev", 256, 1, FieldParams()) == {
        "n_mul": 45202, "n_add": 100202, "n_assert": 39448,
        "n_prover_inputs": 38934, "n_shared_inputs": 1,
    }
    assert statement_cost("tax", 64, 16, FieldParams()) == {
        "n_mul": 18983, "n_add": 47316, "n_assert": 17132,
        "n_prover_inputs": 16811, "n_shared_inputs": 1,
    }
    # The shapes whose membership cost the public table moved most.
    assert statement_cost("ev", 64, 16, FP12) == {
        "n_mul": 7246, "n_add": 18722, "n_assert": 6292,
        "n_prover_inputs": 6098, "n_shared_inputs": 1,
    }
    assert statement_cost("tax", 64, 64, FP12) == {
        "n_mul": 13619, "n_add": 56428, "n_assert": 12536,
        "n_prover_inputs": 12215, "n_shared_inputs": 1,
    }
    # A one-row triangle table is read as constants, and a product with a
    # constant is an affine: its weights cost no mul.
    assert statement_cost("tax", 64, 1, FieldParams()) == {
        "n_mul": 17703, "n_add": 38612, "n_assert": 16108,
        "n_prover_inputs": 15851, "n_shared_inputs": 1,
    }
    # Wire counts of the same statements: every wire is one gate, and a
    # permutation call is its t outputs (13 calls for ev, 4 for tax).
    for kind, n_traj, n_geo, wires in (("ev", 256, 1, 122_756), ("tax", 64, 16, 53_076)):
        cs = ConstraintSystem(FieldParams())
        build_statement(_dummy_instance(kind, n_traj, n_geo, FieldParams()), cs)
        assert len(cs._gates) == len(cs._values) == len(cs._domains) == wires


# -- named regions -------------------------------------------------------


REGION_CASES = {
    **{f"dummy-{k}-{n}x{g}-{b}": (k, n, g, b) for k, n, g, b in (
        ("ev", 256, 1, 24), ("ev", 64, 4, 12), ("tax", 64, 16, 12), ("tax", 8, 3, 24))},
    **{f"{k}-{mode}": (k, 16, g, mode) for k, g in (("ev", 4), ("tax", 16))
       for mode in ("compliant", "non_compliant", "boundary")},
}


@pytest.mark.parametrize("case", REGION_CASES.values(), ids=REGION_CASES.keys())
def test_every_assertion_lies_in_exactly_one_named_region(case):
    kind, n_traj, n_geo, bits_or_mode = case
    if isinstance(bits_or_mode, int):
        inst = _dummy_instance(kind, n_traj, n_geo, FieldParams(coord_bits=bits_or_mode))
    else:
        inst = gen_fixture(FixtureSpec(kind=kind, seed=7, n_traj=n_traj, n_geo=n_geo, mode=bits_or_mode))
    cs, h = _build(inst)
    n = inst.ad.n_traj
    names = ["trail", "digest", "point[0]",
             *(r for i in range(1, n) for r in (f"point[{i}]", f"segment[{i - 1}]")), "policy"]
    owner = {}
    for name in names:
        for a in cs.region(name)[1]:
            assert a not in owner, (a, owner.get(a), name)
            owner[a] = name
    assert sorted(owner) == list(range(cs.counters.n_assert))
    assert all(cs.scope_of(a) == name for a, name in owner.items())
    # Digest: k booleanities and a recomposition per coordinate, then h_ex.
    k = inst.field_params.coord_bits
    assert cs.region("digest")[1] == range(2 * n * (k + 1) + 1)
    assert owner[cs.counters.n_assert - 1] == "policy"
    assert h.trail_input_ids == cs.region("trail")[2] and len(h.trail_input_ids) == 2 * n
    failed = cs.scope_of(h.check().first_failed_assertion)
    assert failed == (None if oracle_verdict(inst) else "policy")


# -- small primes --------------------------------------------------------


def _small_prime_instance(rng, k, p_bits, kind, n_traj):
    """A random instance at k-bit coordinates over the first prime above a
    random (p_bits + 1)-bit number that has Poseidon parameters, or None
    where validation rejects the shape."""
    p = sympy.nextprime(rng.randrange(1 << p_bits, 1 << (p_bits + 1)))
    while True:
        fp = FieldParams(modulus=p, coord_bits=k)
        try:
            params_for(fp)
            break
        except PoseidonParamError:
            p = sympy.nextprime(p)
    bound = 1 << k
    trail = random_trail(rng, n_traj, bound)
    pts = trail.padded(n_traj)
    if kind == "ev":
        geometry = random_circles(rng, rng.randint(1, 3), bound)
        tot, cc = localcalc.segment_walk(
            pts, lambda x, y: localcalc.point_in_circles(x, y, geometry.circles)
        )
        pct = (cc * 100) // tot if tot else 100
        policy = SubsidyPolicy(
            max(0, tot + rng.randint(-2, 2)), min(100, max(0, pct + rng.randint(-3, 3)))
        )
    else:
        geometry = random_triangles(rng, rng.randint(1, 3), bound)
        taxed = localcalc.taxed_distance(pts, geometry.triangles)
        policy = TaxPolicy(max(0, taxed + rng.randint(-2, 2)))
    try:
        return make_instance(kind, fp, n_traj, policy, geometry, trail)
    except InstanceError:
        return None


@st.composite
def _small_prime_shapes(draw):
    """k in 1..4, a prime p in (2^(3k+6), 2^(3k+14)), ev or tax, n_traj
    2..8, and for tax at k = 1 up to 512."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ev", "tax"]))
    p_bits = draw(st.integers(3 * k + 6, 3 * k + 13))
    n_traj = draw(st.integers(2, 512 if kind == "tax" and k == 1 else 8))
    return k, p_bits, kind, n_traj


@settings(max_examples=80, deadline=None)
@given(_small_prime_shapes(), st.randoms(use_true_random=False))
def test_small_prime_circuit_matches_oracle_whenever_validation_accepts(shape, rng):
    inst = _small_prime_instance(rng, *shape)
    if inst is not None:
        assert _build(inst)[1].check().satisfied == oracle_verdict(inst)


def test_small_prime_shapes_are_both_accepted_and_rejected():
    # The property above says nothing unless validation accepts some of
    # its shapes and rejects others.
    rng = random.Random(67)
    verdicts = set()
    for _ in range(60):
        k = rng.randint(1, 4)
        kind = rng.choice(["ev", "tax"])
        shape = (k, rng.randint(3 * k + 6, 3 * k + 13), kind, rng.randint(2, 8))
        verdicts.add(_small_prime_instance(rng, *shape) is not None)
    assert verdicts == {True, False}
