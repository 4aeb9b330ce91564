"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark command for a second or two at a time, so they
take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from zkpol.circuit import ConstraintSystem  # noqa: E402
from zkpol.field import FieldParams  # noqa: E402
from zkpol.statements import (  # noqa: E402
    CircleSet,
    SubsidyPolicy,
    Trail,
    build_statement,
    make_instance,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_criterion_10_gate_counts():
    fp = FieldParams()
    c = 1 << 22
    pts = tuple((c + 400 * (i % 2), c) for i in range(256))
    inst = make_instance("ev", fp, 256, SubsidyPolicy(d_req=80_000, p_req=80),
                         CircleSet(((c + 200, c, 1000),)), Trail(pts))
    cs = ConstraintSystem(fp)
    assert build_statement(inst, cs).check().satisfied
    assert cs.counters.n_mul == 109_001
    assert len(cs._gates) == 306_020


def test_n_mul_per_op_repeats_exactly_for_one_seed():
    # Sessions build a circuit only when fzk reads the trail, so the count
    # depends on which cases ran; every op runs the whole mix.
    a, b = (result(bench("binding-sessions", 3, 1, 0))["metrics"]["n_mul.per_op"]["value"]
            for _ in range(2))
    assert a == b


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(bench("binding-sessions", 1, 1, 0))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_agrees():
    # result() asserts correct=True, which includes the traced run matching
    # the untraced one op by op, in verdicts and in n_mul.
    res = result(bench("binding-sessions", 1, 1, 1))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units("per_layer")
    assert res["metrics"]["protocol.fzk_check.calls"]["value"] > 0
    assert res["metrics"]["appio.instance_from_doc.s"]["value"] > 0


def test_missing_target_is_left_out_not_estimated(monkeypatch):
    targets = [t if t[3] != "lookup" else t[:3] + ("no_such_gadget",) + t[4:]
               for t in spans.TARGETS]
    monkeypatch.setattr(spans, "TARGETS", targets)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"gadgets.lookup"}
    names = tracer.metrics([0])
    assert not any(n.startswith("gadgets.lookup.") for n in names)
    assert "gadgets.leq.s" in names


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("binding-sessions", 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_come_from_the_seed_and_mix_verdicts():
    a, b = workloads.make("subsidy-256", 4), workloads.make("subsidy-256", 4)
    assert a.inputs == b.inputs and a.expected == b.expected
    assert workloads.make("subsidy-256", 5).inputs != a.inputs
    verdicts = [v for seed in (1, 2) for v in workloads.make("subsidy-256", seed).expected]
    assert 0.25 <= sum(verdicts) / len(verdicts) <= 0.75


def test_gate_rejects_wrong_verdicts():
    wl = workloads.make("subsidy-256", 1)
    outcome = wl.op(0)
    assert wl.check(0, outcome)[0]
    wl.expected = [not v for v in wl.expected]
    assert not wl.check(0, outcome)[0]


def test_gate_rejects_a_flip_that_changes_nothing():
    wl = workloads.Binding(1)
    assert wl.check(0, wl.op(0))[0]
    doc = wl.docs[0]
    coords = [int(x) for x, _ in doc["trail"]["points"]] + \
             [int(y) for _, y in doc["trail"]["points"]]
    j, _ = wl.flips[0][0]
    wl.flips[0][0] = (j, coords[j])
    assert not wl.check(0, wl.op(0))[0]


def test_gate_rejects_a_corrupt_prover_that_gets_through():
    wl = workloads.Sessions(1)
    i = wl.CASES.index("corrupt_prover")
    assert wl.check(i, wl.op(i))[0]
    scenario, ad_p, moves, ad_v, _, seed = wl.sessions[i]
    wl.sessions[i] = (scenario, ad_p, moves, ad_v, None, seed)
    assert not wl.check(i, wl.op(i))[0]


def test_binding_sessions_op_checks_every_part():
    wl = workloads.make("binding-sessions", 1)
    bound, outs = wl.op(0)
    assert len(bound) == wl.binding.cycle and len(outs) == wl.sessions.cycle
    assert wl.check(0, (bound, outs))[0]
    assert not wl.check(0, (bound, outs[:-1]))[0]
    _, log = outs[0]
    assert not wl.check(0, (bound, [({"prover": "wrong"}, log)] + outs[1:]))[0]
