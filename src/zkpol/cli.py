"""Command-line driver.

Exit codes: 0 success, 1 statement unsatisfied (or fuzz violation),
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import random
import sys

from .circuit import ConstraintSystem, Domain
from .field import FieldError, FieldParams, widths
from . import appio, gadgets, localcalc, protocol, statements

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _cmd_check(args) -> int:
    inst = appio.load_instance(args.instance)
    cs = ConstraintSystem(inst.field_params)
    handle = statements.build_statement(inst, cs)
    report = handle.check()
    out = {
        "satisfied": report.satisfied,
        "first_failed_assertion": report.first_failed_assertion,
        "failed_scope": cs.scope_of(report.first_failed_assertion),
        **report.counters.as_dict(),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.satisfied else EXIT_UNSAT


def _cmd_oracle(args) -> int:
    inst = appio.load_instance(args.instance)
    verdict = statements.oracle_verdict(inst)
    print(json.dumps({"verdict": verdict}))
    return EXIT_OK if verdict else EXIT_UNSAT


def holding_pair(ev: bool, rows, x: int, y: int, shape: int) -> tuple[int, int] | None:
    """The first pair of rows, in lexicographic order, whose summed row
    holds (x, y) at b = 2, or None: each weight w of the summed row in the
    shape check (``gadgets.check_inside`` for ev's (u, v, r^2) rows,
    ``check_inside_triangle`` for tax's) has 2w in [0, 2^shape).

    For each r1 in order only the partners r2 > r1 that can hold are
    tried, found by bisection on one key per row.  An ev weight is
    s1 + s2 - (x - u1 - u2)^2 - (y - v1 - v2)^2, so u2 lies within
    isqrt(s1 + s_max) of x - u1.  A tax row's weights are affine in the
    row, so the summed row's are sums, and the first lies in
    [-s1, 2^(shape-1) - s1)."""
    lim = 1 << (shape - 1)
    if ev:
        s_max = max(s for _, _, s in rows)
        key = [u for u, _, _ in rows]

        def window(r1):
            u1, _, s1 = rows[r1]
            reach = localcalc.isqrt(s1 + s_max)
            return x - u1 - reach, x - u1 + reach

        def holds(r1, r2):
            (u1, v1, s1), (u2, v2, s2) = rows[r1], rows[r2]
            return 0 <= s1 + s2 - (x - u1 - u2) ** 2 - (y - v1 - v2) ** 2 < lim
    else:
        weights = []
        for c_s, dx_s, dy_s, c_t, dx_t, dy_t, area in rows:
            s, t = c_s + dx_s * x + dy_s * y, c_t + dx_t * x + dy_t * y
            weights.append((s, t, area - s - t))
        key = [w[0] for w in weights]

        def window(r1):
            return -key[r1], lim - 1 - key[r1]

        def holds(r1, r2):
            return all(0 <= a + c < lim for a, c in zip(weights[r1], weights[r2]))
    order = sorted(range(len(rows)), key=key.__getitem__)
    keys = [key[r] for r in order]
    for r1 in range(len(rows)):
        lo, hi = window(r1)
        fits = [r2 for r2 in order[bisect.bisect_left(keys, lo) : bisect.bisect_right(keys, hi)]
                if r2 > r1 and holds(r1, r2)]
        if fits:
            return r1, min(fits)
    return None


def _cmd_fuzz(args) -> int:
    """Build the statement once, then check mutations by overriding inputs.

    Each mutation changes one trail coordinate and its range bits, which
    only region digest (by its hash) may reject; then, which only region
    point[i] or segment[j] may reject: names two rows at point i, with
    the honest range bits and with the bits the gadgets derive for b = 2
    and the sum of the two rows
    (a pair whose summed row holds the point where one exists, so that
    the lie can pass its range checks, else a random pair; skipped for a
    one-row table, whose one selector entry is the membership bit); with
    the inputs a prover derives for the lie, claims
    membership for a point i outside every row, as if it were row 1's
    circle centre or first triangle vertex (skipped if no point is
    outside); and gives segment j a wrong root.  Hints further downstream
    are not re-derived, so a mutation whose first failure comes before its
    region is not judged."""
    inst = appio.load_instance(args.instance)
    rng = random.Random(args.seed)
    cs = ConstraintSystem(inst.field_params)
    handle = statements.build_statement(inst, cs)
    honest = handle.check().satisfied
    oracle = statements.oracle_verdict(inst)
    found = [] if honest == oracle else [f"EQUIVALENCE VIOLATION: circuit={honest} oracle={oracle}"]

    def passes(region, overrides):
        """True if the mutation reaches region and region does not reject it."""
        first = handle.check(overrides).first_failed_assertion
        reached = first is None or first >= cs.region(region)[1].start
        return reached and cs.scope_of(first) != region

    def passes_rewired(region, wire):
        """``passes`` with region's inputs replaced by those ``wire`` wires on
        a scratch system: the gadgets themselves derive a mutation's bits."""
        scratch = ConstraintSystem(inst.field_params)
        scratch.scope("mutated")
        wire(scratch)
        wired = [scratch.value(w) for w in scratch.region("mutated")[2]]
        return passes(region, dict(zip(cs.region(region)[2], wired)))

    k = inst.field_params.coord_bits
    bound = 1 << k
    n = inst.ad.n_traj
    range_bits = cs.region("digest")[2]  # k per coordinate, in trail order, then h_ex
    wd = widths(k, n)
    pts = inst.trail.points
    padded = inst.trail.padded(n)
    geo = inst.ad.geometry
    ev = inst.ad.kind == "ev"  # (ax, ay) lies in row 1, the row the claim names
    contains = localcalc.point_in_circles if ev else localcalc.point_in_any_triangle
    check_inside = gadgets.check_inside if ev else gadgets.check_inside_triangle

    def two_hot(sc, pair, x, y):
        """The selector naming both rows of pair, and the range bits the
        shape check derives for b = 2 and the sum of the two rows."""
        for r in range(geo.count):
            sc.wire_input(int(r in pair), Domain.PROVER)
        row = [sc.const(a + c) for a, c in zip(*(geo.rows[r] for r in pair))]
        check_inside(sc, sc.const(2), row, sc.const(x), sc.const(y), wd.shape)

    holding = functools.cache(lambda x, y: holding_pair(ev, geo.rows, x, y, wd.shape))

    shapes, (ax, ay) = (geo.circles, geo.circles[0][:2]) if ev else (geo.triangles, geo.triangles[0][0])
    outside = [i for i, pt in enumerate(padded) if not contains(*pt, shapes)]
    for trial in range(args.mutations):
        i = rng.randrange(len(pts))
        axis = rng.randrange(2)
        new_coord = rng.randrange(bound)
        while new_coord == pts[i][axis]:
            new_coord = rng.randrange(bound)
        # Padding repeats the last point, so a mutated last point moves its
        # padded copies too.
        moved = [axis * n + c for c in range(i, n if i == len(pts) - 1 else i + 1)]
        lie = {handle.trail_input_ids[j]: new_coord for j in moved}
        lie.update((range_bits[j * k + b], (new_coord >> b) & 1) for j in moved for b in range(k))
        if passes("digest", lie):
            found.append(f"HASH BINDING VIOLATION at mutation {trial} (point {i})")
        i = rng.randrange(n)
        if geo.count > 1:
            sel = cs.region(f"point[{i}]")[2][: geo.count]
            pair = holding(*padded[i]) or rng.sample(range(geo.count), 2)
            if (passes(f"point[{i}]", {w: int(r in pair) for r, w in enumerate(sel)})
                    or passes_rewired(f"point[{i}]", lambda sc: two_hot(sc, pair, *padded[i]))):
                found.append(f"SELECTOR VIOLATION at mutation {trial} (point {i})")
        if outside:
            i = rng.choice(outside)
            if passes_rewired(f"point[{i}]", lambda sc: statements.point_inside(
                    sc, inst.ad, sc.const(ax), sc.const(ay), 1)):
                found.append(f"CLAIM VIOLATION at mutation {trial} (point {i})")
        if n < 2:
            continue
        j = rng.randrange(n - 1)
        (x0, y0), (x1, y1) = padded[j : j + 2]
        sq = (x1 - x0) ** 2 + (y1 - y0) ** 2
        root = localcalc.isqrt(sq)
        wrong = rng.choice([v for v in (root - 1, root + 1, rng.randrange(1 << wd.seg))
                            if v not in (root, -1)])
        if passes_rewired(f"segment[{j}]", lambda sc: gadgets.sqrt_floor(sc, sc.const(sq), wd.seg, wrong)):
            found.append(f"ROOT VIOLATION at mutation {trial} (segment {j}, root {wrong} != {root})")
    for line in found:
        print(line)
    print(json.dumps({"mutations": args.mutations, "violations": len(found)}))
    return EXIT_OK if not found else EXIT_UNSAT


def _cmd_cost(args) -> int:
    rows = []
    for n_traj in args.n_traj:
        for n_geo in args.n_geo:
            counters = statements.statement_cost(
                args.kind, n_traj, n_geo, FieldParams(coord_bits=args.coord_bits)
            )
            rows.append({"kind": args.kind, "n_traj": n_traj, "n_geo": n_geo, **counters})
    if args.csv:
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(map(str, row.values())))
    else:
        print(json.dumps(rows, indent=2))
    return EXIT_OK


def _cmd_session(args) -> int:
    inst = appio.load_instance(args.instance)
    scenario = args.scenario.replace("-", "_")
    prover_tamper = None
    verifier_tamper = None
    if scenario == "corrupt_prover":
        def prover_tamper(kind, payload):
            if kind != "fzk":
                return payload
            ad_p, h, points = payload
            pts = list(points)
            x, y = pts[0]
            pts[0] = ((x + 1) % (1 << ad_p.field_params.coord_bits), y)
            return (ad_p, h, tuple(pts))
    elif scenario == "corrupt_verifier":
        def verifier_tamper(ad_v, h):
            return (ad_v, (h + 1) % ad_v.field_params.modulus)
    transcript = protocol.run_session(
        scenario,
        inst.ad,
        list(inst.trail.points),
        sid=args.sid,
        seed=args.seed,
        prover_tamper=prover_tamper,
        verifier_tamper=verifier_tamper,
    )
    print(json.dumps(transcript.to_json(), indent=2))
    return EXIT_OK if transcript.outputs["verifier"] == "ok" else EXIT_UNSAT


def _cmd_gen(args) -> int:
    inst = appio.gen_fixture(appio.load_spec(args.spec))
    if args.out:
        appio.save_instance(inst, args.out)
    else:
        print(json.dumps(appio.serialize_instance(inst), indent=2))
    return EXIT_OK


def _count(text: str) -> int:
    """A non-negative int argument; anything else is a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _sid(text: str) -> str:
    """A session id that encodes as UTF-8, as ``protocol.signing_bytes``
    encodes it; a lone surrogate (argv bytes that are not UTF-8) is a
    usage error."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"{text!r} is not valid UTF-8")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zkpol")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="build the circuit and report satisfiability")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="plaintext policy verdict")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", help="witness-mutation soundness battery")
    p.add_argument("instance")
    p.add_argument("--mutations", type=_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("cost", help="gate-counter table over sizes")
    p.add_argument("--kind", choices=["ev", "tax"], required=True)
    p.add_argument("--n-traj", dest="n_traj", type=int, nargs="+", required=True)
    p.add_argument("--n-circ", "--n-tri", dest="n_geo", type=int, nargs="+", required=True)
    p.add_argument("--coord-bits", type=int, default=12)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("session", help="run a protocol session and emit the transcript")
    p.add_argument("instance")
    p.add_argument(
        "--scenario",
        choices=["honest", "corrupt-prover", "corrupt-verifier"],
        default="honest",
    )
    p.add_argument("--sid", type=_sid, default="session-1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("gen", help="generate a fixture from a spec file")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (appio.SchemaError, appio.GenerationFailed, appio.Unsupported,
            statements.InstanceError, FieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
