"""Acceptance battery.

Each test covers one release criterion end to end and prints a single
pass/fail line outside pytest's capture.  The batteries are seeded, so
reruns are reproducible.
"""

import random
from dataclasses import replace
from math import gcd

from zkpol import gadgets, localcalc, protocol, statements
from zkpol.appio import FixtureSpec, gen_fixture, save_instance
from zkpol.circuit import ConstraintSystem, Domain
from zkpol.cli import main as cli_main
from zkpol.field import FieldParams
from zkpol.poseidon import params_for
from zkpol.statements import (
    CircleSet,
    SubsidyPolicy,
    Trail,
    build_statement,
    make_instance,
    oracle_verdict,
    statement_cost,
)

from conftest import FP12, random_ev_instance, random_tax_instance

PP12 = params_for(FP12)


def _line(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    msg = f"[criterion {num:02d}] {name}: {status}{suffix}"
    # Suspend capture so the line shows in plain (non -s) runs too.
    with capsys.disabled():
        print(msg, flush=True)
    assert ok, msg


def _build_check(inst, **hints):
    cs = ConstraintSystem(inst.field_params)
    return build_statement(inst, cs, **hints).check()


def test_criterion_01_oracle_equivalence_ev(capsys):
    rng = random.Random(1001)
    disagreements = 0
    for _ in range(1000):
        inst = random_ev_instance(rng, max_traj=64, max_circ=8)
        if _build_check(inst).satisfied != oracle_verdict(inst):
            disagreements += 1
    _line(capsys, 1, "oracle equivalence, subsidy statement (1000 instances)",
          disagreements == 0, f"{disagreements} disagreements")


def test_criterion_02_oracle_equivalence_tax(capsys):
    rng = random.Random(1002)
    disagreements = 0
    for _ in range(1000):
        inst = random_tax_instance(rng, max_traj=64, max_tri=16)
        if _build_check(inst).satisfied != oracle_verdict(inst):
            disagreements += 1
    _line(capsys, 2, "oracle equivalence, tax statement (1000 instances)",
          disagreements == 0, f"{disagreements} disagreements")


def _sqrt_system(v, k, hint=None):
    cs = ConstraintSystem(FP12)
    w = cs.wire_input(v, Domain.PROVER)
    gadgets.sqrt_floor(cs, w, k, hint)
    return cs.evaluate_and_check().satisfied


def test_criterion_03_sqrt_totality(capsys):
    k = 10  # v < 2^20 = 2^(2k)
    failures = 0
    # Exhaustive honest sweep at the level of the algebra the gadget
    # asserts: d^2 <= v <= (d+1)^2 - 1 with both differences in range.
    bound = 1 << (2 * k)
    for v in range(bound):
        d = localcalc.isqrt(v)
        if not (d * d <= v <= (d + 1) * (d + 1) - 1 and d < 1 << k
                and v - d * d < bound and (d + 1) * (d + 1) - 1 - v < bound):
            failures += 1
    # Full-circuit confirmation on a stratified subsample plus the edges.
    sample = list(range(0, bound, 1024)) + [1, 2, 3, bound - 1]
    for v in sample:
        if not _sqrt_system(v, k):
            failures += 1
    # Adversarial witnesses: any d' != isqrt(v) must be rejected.
    rng = random.Random(1003)
    for _ in range(10_000):
        v = rng.randrange(bound)
        d = localcalc.isqrt(v)
        candidates = {d - 1, d + 1, rng.randrange(1 << k), FP12.modulus - max(d, 1)}
        for dp in candidates:
            if dp == d or dp < 0:
                continue
            if _sqrt_system(v, k, hint=dp):
                failures += 1
    _line(capsys, 3, "sqrt gadget totality and hint uniqueness", failures == 0,
          f"{failures} failures")


def test_criterion_04_barycentric_exactness(capsys):
    rng = random.Random(1004)
    failures = 0
    boundary_cases = 0
    checked = 0
    while checked < 10_000:
        tri = tuple((rng.randrange(256), rng.randrange(256)) for _ in range(3))
        area = localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2])
        if area == 0:
            continue
        if checked % 50 == 0:
            # Lattice point on a triangle edge: guaranteed boundary case.
            (x1, y1), (x2, y2) = tri[0], tri[1]
            g = gcd(abs(x2 - x1), abs(y2 - y1))
            j = rng.randrange(g + 1) if g else 0
            x = x1 + (x2 - x1) // g * j if g else x1
            y = y1 + (y2 - y1) // g * j if g else y1
            boundary_cases += 1
        else:
            x, y = rng.randrange(256), rng.randrange(256)
        bc = localcalc.get_bcoords(x, y, *tri[0], *tri[1], *tri[2])
        a = abs(area)
        u = a - bc.s - bc.t
        sgn = 1 if area > 0 else -1
        # Exact reconstruction against the signed area.
        if sgn * x * a != sgn * (u * tri[0][0] + bc.s * tri[1][0] + bc.t * tri[2][0]):
            failures += 1
        if sgn * y * a != sgn * (u * tri[0][1] + bc.s * tri[1][1] + bc.t * tri[2][1]):
            failures += 1
        inside = bc.s >= 0 and bc.t >= 0 and u >= 0
        if inside != localcalc.point_in_triangle(x, y, tri):
            failures += 1
        checked += 1
    ok = failures == 0 and boundary_cases >= 100
    _line(capsys, 4, "barycentric reconstruction and containment (10000 pairs)",
          ok, f"{failures} failures, {boundary_cases} boundary cases")


def test_criterion_05_hash_binding(capsys):
    rng = random.Random(1005)
    broken = 0
    for case in range(500):
        kind = "ev" if case % 2 == 0 else "tax"
        n_geo = 2 if kind == "ev" else 8
        inst = gen_fixture(FixtureSpec(kind=kind, seed=case, n_traj=8, n_geo=n_geo))
        cs = ConstraintSystem(inst.field_params)
        handle = build_statement(inst, cs)
        assert handle.check().satisfied
        # trail_input_ids lists the x wires then the y wires, in trail order.
        padded = inst.trail.padded(inst.ad.n_traj)
        coords = [x for x, _ in padded] + [y for _, y in padded]
        j = rng.randrange(len(coords))
        wid = handle.trail_input_ids[j]
        if handle.check(overrides={wid: coords[j] ^ 1}).satisfied:
            broken += 1
    _line(capsys, 5, "hash binding under single-coordinate flips (500 instances)",
          broken == 0, f"{broken} flips went undetected")


def test_criterion_06_poseidon_self_consistency(capsys):
    rng = random.Random(1006)
    failures = 0
    for _ in range(1000):
        state = [rng.randrange(PP12.prime) for _ in range(PP12.t)]
        cs = ConstraintSystem(FP12)
        wires = [cs.wire_input(v, Domain.PROVER) for v in state]
        out = cs.poseidon_rounds(wires, PP12)
        if [cs.value(w) for w in out] != localcalc.poseidon_permutation_ref(state, PP12):
            failures += 1
    for _ in range(1000):
        msg = [rng.randrange(PP12.prime) for _ in range(4)]
        base = localcalc.poseidon_digest_ref(msg, PP12)
        if base != localcalc.poseidon_digest_ref(msg, PP12):
            failures += 1
        i = rng.randrange(len(msg))
        perturbed = list(msg)
        perturbed[i] = (perturbed[i] + 1 + rng.randrange(PP12.prime - 1)) % PP12.prime
        if perturbed[i] == msg[i]:
            perturbed[i] = (msg[i] + 1) % PP12.prime
        if localcalc.poseidon_digest_ref(perturbed, PP12) == base:
            failures += 1
    _line(capsys, 6, "Poseidon gadget/reference consistency and sponge sensitivity",
          failures == 0, f"{failures} failures")


def _segment_data(inst):
    pts = inst.trail.padded(inst.ad.n_traj)
    dists = []
    for i in range(1, len(pts)):
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        dists.append(localcalc.isqrt((x1 - x0) ** 2 + (y1 - y0) ** 2))
    return pts, dists


def _ev_adversarial_hint_sets(inst, rng):
    """Understated square-root witnesses aimed at the two subsidy
    conditions: shrink tot towards d_req and starve uncovered segments to
    inflate the coverage ratio."""
    pts, dists = _segment_data(inst)
    flags = [localcalc.point_in_circles(x, y, inst.ad.geometry.circles) for x, y in pts]
    covered = [flags[i] and flags[i + 1] for i in range(len(dists))]
    yield [max(0, d - 1) for d in dists]
    yield [rng.randrange(d + 1) for d in dists]
    # Targeted ratio attack: honest covered hints, zeroed uncovered hints,
    # then pay back just enough uncovered distance to clear d_req.
    targeted = [d if c else 0 for d, c in zip(dists, covered)]
    shortfall = inst.ad.policy.d_req - sum(targeted)
    for i, c in enumerate(covered):
        if shortfall <= 0:
            break
        if not c:
            pay = min(dists[i], shortfall)
            targeted[i] = pay
            shortfall -= pay
    yield targeted


def _tax_adversarial_hint_sets(inst, rng):
    """Overstated square-root witnesses aimed at shrinking tot - hw."""
    pts, dists = _segment_data(inst)
    k_seg = inst.field_params.coord_bits + 1
    cap = (1 << k_seg) - 1
    flags = [localcalc.point_in_any_triangle(x, y, inst.ad.geometry.triangles) for x, y in pts]
    untaxed = [flags[i] and flags[i + 1] for i in range(len(dists))]
    yield [min(cap, d + 1) for d in dists]
    yield [rng.randrange(d, cap + 1) for d in dists]
    # Inflate only the untaxed stretches as far as the width allows.
    yield [cap if u else d for d, u in zip(dists, untaxed)]


def test_criterion_07_one_sided_sqrt_relaxation_safety(capsys):
    rng = random.Random(1007)
    violations = 0
    for kind, sampler, attacks in (
        ("ev", lambda r: random_ev_instance(r, max_traj=12, max_circ=3),
         _ev_adversarial_hint_sets),
        ("tax", lambda r: random_tax_instance(r, max_traj=12, max_tri=4),
         _tax_adversarial_hint_sets),
    ):
        collected = 0
        while collected < 500:
            inst = sampler(rng)
            if oracle_verdict(inst):
                continue
            collected += 1
            for hints in attacks(inst, rng):
                if _build_check(inst, sqrt_hints=hints).satisfied:
                    violations += 1
    _line(capsys, 7, "one-sided sqrt witnesses cannot flip false statements "
             "(500 per statement)", violations == 0, f"{violations} violations")


def test_criterion_08_cost_linearity(capsys):
    mul = {
        (n, c): statement_cost("ev", n, c, FP12)["n_mul"]
        for n, c in [(8, 4), (16, 4), (32, 4), (64, 4), (64, 1), (64, 2), (64, 8)]
    }
    slope_n = (mul[(16, 4)] - mul[(8, 4)]) / 8
    slope_c = (mul[(64, 2)] - mul[(64, 1)]) / 1
    preds = {
        (32, 4): mul[(16, 4)] + slope_n * 16,
        (64, 4): mul[(16, 4)] + slope_n * 48,
        (64, 8): mul[(64, 2)] + slope_c * 6,
    }
    off = {pt: abs(mul[pt] - pred) / pred for pt, pred in preds.items()}
    linear_ok = all(v <= 0.10 for v in off.values())

    # Witness independence: 20 random witnesses per criterion size point.
    rng = random.Random(1008)
    independent = True
    for n_traj, n_circ in [(32, 4), (64, 4), (64, 8)]:
        expected = statement_cost("ev", n_traj, n_circ, FP12)
        for _ in range(20):
            circles = CircleSet(
                tuple((rng.randrange(4096), rng.randrange(4096), rng.randrange(1, 2048))
                      for _ in range(n_circ))
            )
            n_pts = rng.randint(1, n_traj)
            trail = Trail(tuple((rng.randrange(4096), rng.randrange(4096))
                                for _ in range(n_pts)))
            policy = SubsidyPolicy(d_req=rng.randrange(1000), p_req=rng.randrange(101))
            inst = make_instance("ev", FP12, n_traj, policy, circles, trail)
            cs = ConstraintSystem(FP12)
            build_statement(inst, cs)
            if cs.counters.as_dict() != expected:
                independent = False
    worst = max(off.values())
    _line(capsys, 8, "multiplication count linear in sizes and witness-independent",
          linear_ok and independent, f"max deviation {worst * 100:.2f}%")


def test_criterion_09_protocol_battery(capsys):
    failures = 0
    logs = []

    def fixture(kind, seed, mode):
        n_geo = 2 if kind == "ev" else 8
        return gen_fixture(FixtureSpec(kind=kind, seed=seed, n_traj=8,
                                       n_geo=n_geo, mode=mode))

    for i in range(100):
        kind = "ev" if i % 2 == 0 else "tax"
        seed = i // 2

        inst = fixture(kind, seed, "compliant")
        t = protocol.run_session("honest", inst.ad, list(inst.trail.points))
        logs.append(t.witness_access_log)
        if t.outputs != {"prover": "ok", "verifier": "ok"}:
            failures += 1

        inst = fixture(kind, seed, "non_compliant")
        t = protocol.run_session("honest", inst.ad, list(inst.trail.points))
        logs.append(t.witness_access_log)
        if t.outputs != {"prover": "not_ok", "verifier": "not_ok"}:
            failures += 1

        # Corrupt prover substitutes an unsigned trail into the ZK check.
        inst = fixture(kind, seed, "compliant")

        def substitute(mkind, payload):
            if mkind != "fzk":
                return payload
            ad, h, points = payload
            forged = [(x ^ 1, y) for x, y in points]
            return (ad, h, tuple(forged))

        t = protocol.run_session("corrupt_prover", inst.ad,
                                 list(inst.trail.points), prover_tamper=substitute)
        logs.append(t.witness_access_log)
        if t.outputs["verifier"] != "not_ok":
            failures += 1

        # Authority-data disagreement between the parties.
        ad_p = inst.ad
        if kind == "ev":
            stricter = SubsidyPolicy(d_req=ad_p.policy.d_req + 1, p_req=ad_p.policy.p_req)
        else:
            stricter = statements.TaxPolicy(d_max=ad_p.policy.d_max + 1)
        ad_v = replace(ad_p, policy=stricter)
        t = protocol.run_session("honest", ad_p, list(inst.trail.points), ad_v=ad_v)
        logs.append(t.witness_access_log)
        if t.outputs["verifier"] != "not_ok":
            failures += 1

    readers = set().union(*logs) if logs else set()
    audit_clean = "verifier" not in readers
    _line(capsys, 9, "protocol battery (400 sessions) with clean verifier audit",
          failures == 0 and audit_clean,
          f"{failures} wrong outcomes, readers={sorted(readers)}")


def test_criterion_10_realistic_parameter_smoke(tmp_path, capsys):
    fp = FieldParams()  # 24-bit coordinates: a country-scale metric grid
    c = 1 << 22
    # Zig-zag of 400 m hops: 255 segments, 102 km total, all inside one
    # coverage circle.
    pts = tuple((c + 400 * (i % 2), c) for i in range(256))
    circles = CircleSet(((c + 200, c, 1000),))
    ok = True

    inst = make_instance("ev", fp, 256, SubsidyPolicy(d_req=80_000, p_req=80),
                         circles, Trail(pts))
    report = _build_check(inst)
    ok &= report.satisfied and oracle_verdict(inst)

    stricter = make_instance("ev", fp, 256, SubsidyPolicy(d_req=103_000, p_req=80),
                             circles, Trail(pts))
    ok &= (not _build_check(stricter).satisfied) and not oracle_verdict(stricter)

    good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
    save_instance(inst, good_path)
    save_instance(stricter, bad_path)
    ok &= cli_main(["check", str(good_path)]) == 0
    ok &= cli_main(["check", str(bad_path)]) == 1
    ok &= cli_main(["check", str(tmp_path / "absent.json")]) == 2
    _line(capsys, 10, "realistic subsidy parameters (80000 m, 80%, 256 points) "
              "and CLI exit codes", ok)
