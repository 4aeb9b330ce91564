"""The benchmark workloads: seeded inputs, the timed operation, its check.

Inputs are plain ints drawn from ``random.Random(seed)``. Everything a check
compares against (oracle verdicts, ideal-functionality outputs, the
circuit cost of a session statement) is computed here, when the workload
is constructed, outside any timed interval.

Each workload calls the program through module attributes
(``statements.make_instance``, never a bound name), so that the tracer in
``spans.py`` sees every call it wraps.
"""

from __future__ import annotations

import math
import random
import time

from zkpol import appio, circuit, field, localcalc, poseidon, protocol, statements


# -- plain-int input generation ------------------------------------------


def _walk(rng, n, start, hop_lo, hop_hi, bound):
    """n points: start, then hops of integer length in [hop_lo, hop_hi]
    in a random direction, clamped to [0, bound)."""
    x, y = start
    pts = [(x, y)]
    while len(pts) < n:
        hop = rng.randint(hop_lo, hop_hi)
        dx = rng.randint(-hop, hop)
        dy = math.isqrt(hop * hop - dx * dx) * rng.choice((-1, 1))
        x = min(max(x + dx, 0), bound - 1)
        y = min(max(y + dy, 0), bound - 1)
        pts.append((x, y))
    return pts


def _coverage(pts, circles):
    """(tot, cc) of a trail: total length and length inside the circles.
    Used only to place policies near the achieved values; verdicts come
    from the localcalc oracle."""

    def inside(p):
        return any((p[0] - u) ** 2 + (p[1] - v) ** 2 <= r * r for u, v, r in circles)

    tot = cc = 0
    for p, q in zip(pts, pts[1:]):
        d = math.isqrt((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2)
        tot += d
        if inside(p) and inside(q):
            cc += d
    return tot, cc


def _ev_inputs(rng, n_traj, coord_bits, n_circ, hop, radius):
    bound = 1 << coord_bits
    c = bound // 2
    start = (c + rng.randrange(-c // 4, c // 4), c + rng.randrange(-c // 4, c // 4))
    pts = _walk(rng, n_traj, start, hop[0], hop[1], bound)
    circles = []
    for _ in range(n_circ):
        u, v = rng.choice(pts)
        r = rng.randint(*radius)
        circles.append((min(max(u, r), bound - 1 - r), min(max(v, r), bound - 1 - r), r))
    return pts, circles


def _road(rng, bbox, margin, n_tri):
    """A seeded axis-aligned road inside bbox, grown one segment at a time
    until ``corridor_triangulate`` gives at least n_tri triangles; the
    first n_tri are kept. Returns (polyline, triangles, seconds spent in
    corridor_triangulate)."""
    x0, y0, x1, y1 = bbox
    w = x1 - x0
    lo, hi = x0 + 2 * margin, x1 - 2 * margin
    x, y = rng.randint(lo, hi), rng.randint(lo, hi)
    road = [(x, y)]
    spent = 0.0
    for seg in range(64):
        step = rng.randint(w // 10, w // 3) * rng.choice((-1, 1))
        if seg % 2 == 0:
            nx = min(max(x + step, lo), hi)
            if nx == x:
                nx = min(max(x - step, lo), hi)
            x = nx
        else:
            ny = min(max(y + step, lo), hi)
            if ny == y:
                ny = min(max(y - step, lo), hi)
            y = ny
        road.append((x, y))
        t0 = time.perf_counter()
        tris = appio.corridor_triangulate(road, margin, bbox).triangles
        spent += time.perf_counter() - t0
        if len(tris) >= n_tri:
            return road, list(tris[:n_tri]), spent
    raise RuntimeError("road did not reach the triangle count")


def _tax_trail(rng, n_traj, road, tris, hop, bound):
    """Alternating on-road and off-road stretches of 4..12 points. On-road
    stretches walk along one road segment; off-road ones random-walk from
    the centroid of a tax-free triangle."""
    pts = []
    on_road = rng.random() < 0.5
    while len(pts) < n_traj:
        k = min(rng.randint(4, 12), n_traj - len(pts))
        if on_road:
            i = rng.randrange(len(road) - 1)
            (ax, ay), (bx, by) = road[i], road[i + 1]
            length = abs(bx - ax) + abs(by - ay)
            sx, sy = (bx > ax) - (bx < ax), (by > ay) - (by < ay)
            pos = rng.randint(0, length)
            for _ in range(k):
                pts.append((ax + sx * pos, ay + sy * pos))
                pos = min(max(pos + rng.choice((-1, 1)) * rng.randint(*hop), 0), length)
        else:
            tri = rng.choice(tris)
            start = (sum(v[0] for v in tri) // 3, sum(v[1] for v in tri) // 3)
            pts.extend(_walk(rng, k, start, hop[0], hop[1], bound))
        on_road = not on_road
    return pts


def _tax_inputs(rng, n_traj, coord_bits, n_tri, hop, width, margin):
    bound = 1 << coord_bits
    x0 = rng.randrange(0, bound - width)
    y0 = rng.randrange(0, bound - width)
    road, tris, spent = _road(rng, (x0, y0, x0 + width, y0 + width), margin, n_tri)
    pts = _tax_trail(rng, n_traj, road, tris, hop, bound)
    return pts, tris, spent


# -- workloads --------------------------------------------------------------


class Workload:
    """A pool of inputs cycled through by ``op``. ``cycle`` is the number of
    ops after which the mix of input kinds repeats; a run ends only on a
    cycle boundary, so per-op averages do not depend on where time ran out."""

    cycle = 1
    coord_bits = 24
    corridor_s = 0.0  # time the input generation spent in corridor_triangulate
    session_lat = ()  # latency of each protocol session run inside the ops

    def op(self, i):
        """The timed operation on input i; returns a small outcome."""
        raise NotImplementedError

    def check(self, i, outcome) -> tuple[bool, int]:
        """(outcome is correct, n_mul of the circuits the op built)."""
        raise NotImplementedError


class Subsidy(Workload):
    """subsidy-256: make_instance -> build_statement -> check, verdict
    compared with the localcalc oracle."""

    POOL = 16
    N_TRAJ = 256
    N_CIRC = 1

    def __init__(self, seed):
        rng = random.Random(seed)
        self.fp = field.FieldParams(coord_bits=self.coord_bits)
        self.inputs = []
        self.expected = []
        for _ in range(self.POOL):
            pts, circles = _ev_inputs(rng, self.N_TRAJ, self.coord_bits, self.N_CIRC,
                                      (100, 1000), (3000, 9000))
            tot, cc = _coverage(pts, circles)
            step = max(1, tot // 100)
            d_req = max(0, tot + rng.randint(-2 * step, step))
            pct = cc * 100 // max(tot, 1)
            p_req = min(100, max(0, pct + rng.randint(-3, 1)))
            self.inputs.append((pts, circles, (d_req, p_req)))
            self.expected.append(localcalc.oracle_ev(
                pts, circles, statements.SubsidyPolicy(d_req, p_req)))

    def op(self, i):
        pts, circles, pol = self.inputs[i % self.POOL]
        inst = statements.make_instance("ev", self.fp, self.N_TRAJ,
                                        statements.SubsidyPolicy(*pol),
                                        statements.CircleSet(tuple(circles)),
                                        statements.Trail(tuple(pts)))
        cs = circuit.ConstraintSystem(self.fp)
        report = statements.build_statement(inst, cs).check()
        return report.satisfied, report.counters.n_mul

    def check(self, i, outcome):
        satisfied, n_mul = outcome
        return satisfied == self.expected[i % self.POOL], n_mul


class Binding(Workload):
    """Compliant subsidy (4 circles) and tax (16 triangles) instances at
    n_traj=64, 12-bit coordinates, alternating. Op: instance_from_doc on the
    serialized instance -> build -> honest check -> 16 coordinate flips."""

    POOL = 8  # instances, alternating ev / tax
    FLIPS = 16
    N_TRAJ = 64
    cycle = 2
    coord_bits = 12

    def __init__(self, seed):
        rng = random.Random(seed)
        fp = field.FieldParams(coord_bits=self.coord_bits)
        self.docs = []
        self.flips = []
        for k in range(self.POOL):
            if k % 2 == 0:
                pts, circles = _ev_inputs(rng, self.N_TRAJ, self.coord_bits, 4, (5, 60), (100, 400))
                tot, cc = _coverage(pts, circles)
                policy = statements.SubsidyPolicy(
                    max(0, tot - rng.randint(0, 50)),
                    max(0, cc * 100 // max(tot, 1) - rng.randint(0, 3)))
                inst = statements.make_instance("ev", fp, self.N_TRAJ, policy,
                                                statements.CircleSet(tuple(circles)),
                                                statements.Trail(tuple(pts)))
            else:
                pts, tris, spent = _tax_inputs(rng, self.N_TRAJ, self.coord_bits, 16,
                                               (5, 60), 3000, 20)
                self.corridor_s += spent
                policy = statements.TaxPolicy(localcalc.taxed_distance(pts, tris)
                                              + rng.randint(0, 50))
                inst = statements.make_instance("tax", fp, self.N_TRAJ, policy,
                                                statements.TriangleSet(tuple(tris)),
                                                statements.Trail(tuple(pts)))
            if not statements.oracle_verdict(inst):
                raise RuntimeError("binding input generator made a non-compliant instance")
            coords = [x for x, _ in pts] + [y for _, y in pts]
            picks = rng.sample(range(len(coords)), self.FLIPS)
            self.docs.append(appio.serialize_instance(inst))
            self.flips.append([(j, coords[j] ^ 1) for j in picks])

    def op(self, i):
        k = i % self.POOL
        inst = appio.instance_from_doc(self.docs[k])
        handle = statements.build_statement(inst, circuit.ConstraintSystem(inst.field_params))
        honest = handle.check()
        ids = handle.trail_input_ids
        flipped = [handle.check(overrides={ids[j]: v}).satisfied for j, v in self.flips[k]]
        return honest.satisfied, flipped, honest.counters.n_mul

    def check(self, i, outcome):
        honest, flipped, n_mul = outcome
        return honest and not any(flipped) and len(flipped) == self.FLIPS, n_mul


def _forge(mkind, payload):
    """Corrupt prover: substitute a trail with every x flipped in its low
    bit into the ZK check (criterion 09's forged trail)."""
    if mkind != "fzk":
        return payload
    ad, h, points = payload
    return ad, h, tuple((x ^ 1, y) for x, y in points)


class Sessions(Workload):
    """protocol.run_session at n_traj=8, 12-bit coordinates, 2 circles or 8
    triangles, cycling through criterion 09's four cases for each kind."""

    CASES = ("honest", "non_compliant", "corrupt_prover", "ad_disagreement")
    CYCLES = 4  # distinct input sets; ops repeat them after that
    N_TRAJ = 8
    cycle = 2 * len(CASES)
    coord_bits = 12

    def __init__(self, seed):
        rng = random.Random(seed)
        fp = field.FieldParams(coord_bits=self.coord_bits)
        pp = poseidon.params_for(fp)
        self.n_mul = {
            kind: statements.statement_cost(kind, self.N_TRAJ, n_geo, fp)["n_mul"]
            for kind, n_geo in (("ev", 2), ("tax", 8))
        }
        self.sessions = []
        self.expected = []
        for _ in range(self.CYCLES):
            for kind in ("ev", "tax"):
                good, bad = self._ads(rng, kind, fp, pp)
                for case in self.CASES:
                    ad_p, moves = bad if case == "non_compliant" else good
                    ad_v = ad_p
                    scenario, tamper = "honest", None
                    if case == "corrupt_prover":
                        scenario, tamper = "corrupt_prover", _forge
                    if case == "ad_disagreement":
                        pol = ad_p.policy
                        other = (statements.SubsidyPolicy(pol.d_req + 1, pol.p_req)
                                 if kind == "ev" else statements.TaxPolicy(pol.d_max + 1))
                        ad_v = protocol.AuthorityData(kind, ad_p.n_traj, other,
                                                      ad_p.geometry, fp, pp)
                    ideal = protocol.ideal_outputs(moves, ad_p, ad_v)
                    want = {
                        "honest": {"prover": "ok", "verifier": "ok"},
                        "non_compliant": {"prover": "not_ok", "verifier": "not_ok"},
                        # The forged trail must not pass the ZK check.
                        "corrupt_prover": {"prover": ideal["prover"], "verifier": "not_ok"},
                        "ad_disagreement": {"prover": "ok", "verifier": "not_ok"},
                    }[case]
                    if case != "corrupt_prover" and want != ideal:
                        raise RuntimeError(f"{case} input disagrees with ideal_outputs")
                    self.sessions.append((scenario, ad_p, moves, ad_v, tamper,
                                          rng.randrange(1 << 32)))
                    self.expected.append((kind, want))

    def _ads(self, rng, kind, fp, pp):
        """(compliant, non-compliant) pairs of (AuthorityData, moves)."""
        n = rng.randint(2, self.N_TRAJ)
        if kind == "ev":
            pts, circles = _ev_inputs(rng, n, self.coord_bits, 2, (5, 60), (100, 400))
            tot, cc = _coverage(pts, circles)
            ok = statements.SubsidyPolicy(max(0, tot - rng.randint(0, 20)),
                                          max(0, cc * 100 // max(tot, 1) - rng.randint(0, 3)))
            bad = statements.SubsidyPolicy(tot + 1 + rng.randint(0, 20), ok.p_req)
            geometry = statements.CircleSet(tuple(circles))
        else:
            while True:
                pts, tris, spent = _tax_inputs(rng, n, self.coord_bits, 8, (5, 60), 3000, 20)
                self.corridor_s += spent
                taxed = localcalc.taxed_distance(pts, tris)
                if taxed > 0:
                    break
            ok = statements.TaxPolicy(taxed + rng.randint(0, 20))
            bad = statements.TaxPolicy(rng.randint(0, taxed - 1))
            geometry = statements.TriangleSet(tuple(tris))
        return ((protocol.AuthorityData(kind, self.N_TRAJ, ok, geometry, fp, pp), pts),
                (protocol.AuthorityData(kind, self.N_TRAJ, bad, geometry, fp, pp), pts))

    def op(self, i):
        scenario, ad_p, moves, ad_v, tamper, seed = self.sessions[i % len(self.sessions)]
        t = protocol.run_session(scenario, ad_p, moves, ad_v=ad_v, sid=f"bench-{i}",
                                 seed=seed, prover_tamper=tamper)
        return t.outputs, t.witness_access_log

    def check(self, i, outcome):
        outputs, log = outcome
        kind, want = self.expected[i % len(self.expected)]
        # fzk_check reads the trail store as "fzk" exactly when it builds the
        # statement circuit; the traced run cross-checks this count.
        n_mul = self.n_mul[kind] if "fzk" in log else 0
        return outputs == want and "verifier" not in log, n_mul


class BindingSessions(Workload):
    """Criterion 05's and criterion 09's traffic in one op: one cycle of
    ``Binding`` (a subsidy and a tax statement, each loaded, built, checked
    and flipped) and one cycle of ``Sessions`` (the four criterion-09 cases
    for each kind). Every op does the same mix of work. The latency of each
    session is appended to ``session_lat``."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.binding = Binding(rng.randrange(1 << 32))
        self.sessions = Sessions(rng.randrange(1 << 32))
        self.corridor_s = self.binding.corridor_s + self.sessions.corridor_s
        self.session_lat = []

    def _parts(self, i):
        b, s = self.binding.cycle, self.sessions.cycle
        return range(b * i, b * (i + 1)), range(s * i, s * (i + 1))

    def op(self, i):
        rounds, sessions = self._parts(i)
        bound = [self.binding.op(k) for k in rounds]
        outs = []
        for j in sessions:
            t0 = time.perf_counter()
            outs.append(self.sessions.op(j))
            self.session_lat.append(time.perf_counter() - t0)
        return bound, outs

    def check(self, i, outcome):
        ok, n_mul = True, 0
        for part, idx, outs in zip((self.binding, self.sessions), self._parts(i), outcome):
            ok = ok and len(outs) == len(idx)
            for k, out in zip(idx, outs):
                ok_k, n_mul_k = part.check(k, out)
                ok, n_mul = ok and ok_k, n_mul + n_mul_k
        return ok, n_mul


def make(name: str, seed: int) -> Workload:
    if name == "subsidy-256":
        return Subsidy(seed)
    if name == "binding-sessions":
        return BindingSessions(seed)
    raise ValueError(f"unknown workload {name!r}")
