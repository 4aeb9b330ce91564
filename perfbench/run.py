"""Run one zkpol benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is one fresh process, one workload, one client in a closed loop:
the next operation starts when the previous one has returned and been
checked. One cycle of ops (the workload's repeating mix) runs untimed as a
warm-up; its outputs are checked all the same. No threads or child
processes are started. The package is
imported from ``src/`` of the checkout the script sits in, never from
anywhere else; without it the run exits with code 2 and prints no result.

--trace 0 measures the end-to-end metrics:

    setup_s        median of SETUPS set-ups: import zkpol and derive
                   FieldParams / params_for. The first is the process's own
                   cold import; the others purge the modules that import
                   added and import them again, after the loop has run.
    ops_per_cal      operations completed / time spent in them, in cal
    latency_cal.p50  median operation latency, in cal
    n_mul.per_op     multiplication gates of the circuits built, per op (exact)
    peak_rss_mb      ru_maxrss of the process after the loop (before re-imports)

A cal is the time ``calibrate`` takes: a fixed piece of pure-Python work
that uses nothing from zkpol, timed after every op. Each op's latency is
divided by the mean of the calibrations just before and just after it.
Shared virtual machines run Python at speeds that drift by up to ~1.8x over
minutes, which no run length averages out; the calibration drifts with
them. The same latencies in seconds (ops_per_s, latency_s.p50) and the
median calibration time are printed in the summary lines.

--trace 1 runs every op twice, once untraced and once with every layer
wrapped by ``spans.Tracer`` (in alternating order), checks that verdicts
and gate counts agree between the two, and reports the per-layer metrics
plus the tracing overhead. Spans are written to perfbench/out/.

The last line of standard output is the JSON result; lines before it are a
human-readable summary, including fail_ratio and, where a run has at least
100 samples, latency_s.p90 with its sample count (on binding-sessions, of
the single protocol sessions inside the ops). Any wrong output or exception
is counted in "failed" and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("subsidy-256", "binding-sessions")
MODULES = ("zkpol", "zkpol.field", "zkpol.poseidon", "zkpol.circuit", "zkpol.gadgets",
           "zkpol.localcalc", "zkpol.statements", "zkpol.protocol", "zkpol.appio")
SETUPS = 7
CAL_MOD = (1 << 254) + 29  # an odd modulus of the field's size
CAL_STEPS = 40_000


def import_zkpol():
    for name in MODULES:
        importlib.import_module(name)


def derive():
    # Poseidon parameters depend only on the modulus, which every workload
    # shares with the default FieldParams.
    sys.modules["zkpol.poseidon"].params_for(sys.modules["zkpol.field"].FieldParams())


def set_up():
    t0 = time.perf_counter()
    import_zkpol()
    derive()
    return time.perf_counter() - t0


def calibrate():
    """Seconds taken by fixed work of the kinds the program does: 254-bit
    modular squaring, tuples appended to a list, stores into a dict."""
    t0 = time.perf_counter()
    x, items, table = 3, [], {}
    for i in range(CAL_STEPS):
        x = (x * x + i) % CAL_MOD
        items.append((x, i))
        table[i] = x & 0xFFFF
    return time.perf_counter() - t0


def timed_op(wl, i, tracer=None):
    """Run op i once, with ``tracer`` installed around it if given, and check
    the outcome outside the timed interval. Returns (latency, (outcome,
    correct, n_mul))."""
    if tracer is not None:
        tracer.install()
        tracer.op = i
    t0 = time.perf_counter()
    try:
        outcome = wl.op(i)
    except Exception:  # the loop must go on; the op counts as failed
        t1 = time.perf_counter()
        traceback.print_exc()
        outcome, ok, n_mul = None, False, None
    else:
        t1 = time.perf_counter()
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()
    if outcome is not None:
        ok, n_mul = wl.check(i, outcome)
        if not ok:
            print(f"op {i}: wrong outcome {outcome!r}", file=sys.stderr)
    return t1 - t0, (outcome, ok, n_mul)


def closed_loop(seconds, cycle, step):
    """Call step(0), step(1), ... one after another until ``seconds`` have
    passed and the op count is a whole number of cycles; return the count."""
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i % cycle:
        step(i)
        i += 1
    return i


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentiles(name, lat, what):
    if len(lat) >= 100:
        p50, p90 = statistics.median(lat), statistics.quantiles(lat, n=10)[-1]
        print(f"  {name}.p50 {p50:.6f} s, {name}.p90 {p90:.6f} s (over {len(lat)} {what})")


def summary(workload, seed, lat, attempted, failed, metrics):
    print(f"workload {workload} seed {seed}: {attempted} ops, "
          f"fail_ratio {failed / attempted:.4f} ratio")
    percentiles("latency_s", lat, "ops")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zkpol" / "__init__.py").is_file():
        print(f"no zkpol package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    before = set(sys.modules)
    if args.trace:
        import spans

        import_zkpol()
        tracer = spans.Tracer()
        tracer.install()
        with tracer.span("bench.setup"):
            derive()
        tracer.uninstall()
    else:
        setup_times = [set_up()]
    zkpol_file = Path(sys.modules["zkpol"].__file__).resolve()
    if SRC.resolve() not in zkpol_file.parents:
        print(f"zkpol imported from {zkpol_file}, not {SRC}", file=sys.stderr)
        return 2
    added = set(sys.modules) - before

    import workloads

    wl = workloads.make(args.workload, args.seed)
    warm_up = [timed_op(wl, i)[1] for i in range(wl.cycle)]
    warm_sessions = len(wl.session_lat)

    if not args.trace:
        lat, results, cal = [], [], [calibrate()]

        def step(i):
            t, r = timed_op(wl, i)
            lat.append(t)
            results.append(r)
            cal.append(calibrate())

        closed_loop(args.seconds, wl.cycle, step)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(warm_up) + len(results)
        failed = sum(not ok for _, ok, _ in warm_up + results)
        n_mul = [m for _, ok, m in results if ok]
        session_lat = wl.session_lat[warm_sessions:]
        # Re-run the set-up; only the median is reported, so the cold first
        # import and the warm ones count alike.
        del wl, results
        for _ in range(SETUPS - 1):
            for name in added:
                sys.modules.pop(name, None)
            gc.collect()
            setup_times.append(set_up())
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_times))
        print(f"in seconds: ops_per_s {len(lat) / sum(lat):.6g} 1/s, latency_s.p50 "
              f"{statistics.median(lat):.6g} s; calibration median {statistics.median(cal):.6g} s")
        # Op i ran between calibrations i and i + 1.
        rel = [t / ((a + b) / 2) for t, a, b in zip(lat, cal, cal[1:])]
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "ops_per_cal": metric(len(rel) / sum(rel), "1/cal"),
            "latency_cal.p50": metric(statistics.median(rel), "cal"),
            "n_mul.per_op": metric(sum(n_mul) / len(n_mul) if n_mul else 0, "count"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
    else:
        # Each op runs untraced and traced, in alternating order, so that
        # warm-up and drift weigh on both sides alike.
        lat_u, res_u, lat_t, res_t = [], [], [], []

        def step(i):
            for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                lat, res = (lat_u, res_u) if t is None else (lat_t, res_t)
                dt, r = timed_op(wl, i, t)
                lat.append(dt)
                res.append(r)

        n = closed_loop(args.seconds, wl.cycle, step)
        attempted = len(warm_up) + 2 * n
        failed = sum(not ok for _, ok, _ in warm_up + res_u + res_t)
        for i, ((out_u, _, mul_u), (out_t, _, mul_t)) in enumerate(zip(res_u, res_t)):
            mul_traced = tracer.build_n_mul(i)
            if out_u != out_t or mul_u != mul_t or mul_u != mul_traced:
                print(f"op {i}: traced run disagrees: {out_u!r}/{mul_u} untraced, "
                      f"{out_t!r}/{mul_t}/{mul_traced} traced", file=sys.stderr)
                failed += 1
        metrics = tracer.metrics(range(n))
        metrics["appio.corridor_triangulate.setup_s"] = metric(wl.corridor_s, "s")
        metrics["trace.untraced_ops_per_s"] = metric(n / sum(lat_u), "1/s")
        metrics["trace.ops_per_s"] = metric(n / sum(lat_t), "1/s")
        metrics["trace.overhead_ratio"] = metric(sum(lat_t) / sum(lat_u), "ratio")
        if tracer.missing:
            print(f"missing (not measured): {sorted(tracer.missing)}", file=sys.stderr)
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
        lat, session_lat = lat_u, []

    summary(args.workload, args.seed, lat, attempted, failed, metrics)
    percentiles("session.latency_s", session_lat, "sessions")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
