"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper that
records a span (op id, span id, parent span id, name, start, end) and, for
gadgets and the statement builder, the gate counters of the constraint
system passed in. Module-level functions are replaced in every ``zkpol``
module that binds them, so calls between modules are seen too.
``uninstall`` puts the originals back. A target that no longer exists is
listed in ``missing`` and every metric drawn from it is left out of the
report; nothing is estimated in its place.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

_GADGETS = ("poseidon_hash", "sqrt_floor", "decompose_bits", "leq",
            "check_inside", "check_inside_triangle", "lookup")

# (span name, module, class or None, attribute, probe)
TARGETS = [
    ("field.params", "zkpol.field", "FieldParams", "__post_init__", None),
    ("poseidon.params", "zkpol.poseidon", "PoseidonParams", "__post_init__", None),
    ("localcalc.hash_ref", "zkpol.localcalc", None, "poseidon_digest_ref", None),
    ("localcalc.hints", "zkpol.localcalc", None, "find_triangle", None),
    ("localcalc.hints", "zkpol.localcalc", None, "get_bcoords", None),
    ("localcalc.oracle", "zkpol.localcalc", None, "oracle_ev", None),
    ("localcalc.oracle", "zkpol.localcalc", None, "oracle_hwtax", None),
    *((f"gadgets.{g}", "zkpol.gadgets", None, g, "n_mul") for g in _GADGETS),
    ("circuit.check", "zkpol.circuit", "ConstraintSystem", "evaluate_and_check", None),
    ("statements.make_instance", "zkpol.statements", None, "make_instance", None),
    ("statements.validate", "zkpol.statements", None, "validate_instance", None),
    ("statements.build", "zkpol.statements", None, "build_statement", "counters"),
    ("protocol.session", "zkpol.protocol", None, "run_session", None),
    ("protocol.schnorr.keygen", "zkpol.protocol", "SchnorrSignature", "keygen", None),
    ("protocol.schnorr.sign", "zkpol.protocol", "SchnorrSignature", "sign", None),
    ("protocol.schnorr.verify", "zkpol.protocol", "SchnorrSignature", "verify", None),
    ("protocol.trail_hash", "zkpol.protocol", None, "trail_hash", None),
    ("protocol.fzk_check", "zkpol.protocol", None, "fzk_check", None),
    ("protocol.policy_holds", "zkpol.protocol", None, "policy_holds", None),
    ("appio.instance_from_doc", "zkpol.appio", None, "instance_from_doc", None),
]

_COUNTERS = ("n_mul", "n_add", "n_assert", "n_prover_inputs")

# Per-op metrics of the traced loop: (metric, span, statistic, unit).
# "s" is the inclusive time in the span, "self_s" that time minus the time
# of its direct child spans, "calls" the number of spans, "n_mul" the
# multiplication-counter delta over the span, and a counter name the value
# of that counter on the circuit the statement builder returned.
OP_METRICS = [
    ("field.params.s", "field.params", "s", "s/op"),
    ("field.params.calls", "field.params", "calls", "calls/op"),
    ("poseidon.params.s", "poseidon.params", "s", "s/op"),
    ("poseidon.params.calls", "poseidon.params", "calls", "calls/op"),
    ("localcalc.hash_ref.s", "localcalc.hash_ref", "s", "s/op"),
    ("localcalc.hash_ref.calls", "localcalc.hash_ref", "calls", "calls/op"),
    ("localcalc.hints.s", "localcalc.hints", "s", "s/op"),
    ("localcalc.hints.calls", "localcalc.hints", "calls", "calls/op"),
    ("localcalc.oracle.s", "localcalc.oracle", "s", "s/op"),
    ("localcalc.oracle.calls", "localcalc.oracle", "calls", "calls/op"),
    *(m for g in _GADGETS for m in (
        (f"gadgets.{g}.s", f"gadgets.{g}", "s", "s/op"),
        (f"gadgets.{g}.calls", f"gadgets.{g}", "calls", "calls/op"),
        (f"gadgets.{g}.n_mul", f"gadgets.{g}", "n_mul", "count/op"),
    )),
    ("circuit.check.s", "circuit.check", "s", "s/op"),
    ("circuit.check.calls", "circuit.check", "calls", "calls/op"),
    ("circuit.wires", "statements.build", "wires", "count/op"),
    *((f"circuit.{c}", "statements.build", c, "count/op") for c in _COUNTERS[1:]),
    ("statements.make_instance.s", "statements.make_instance", "s", "s/op"),
    ("statements.validate.s", "statements.validate", "s", "s/op"),
    ("statements.build.s", "statements.build", "s", "s/op"),
    ("statements.build.self_s", "statements.build", "self_s", "s/op"),
    ("protocol.session.s", "protocol.session", "s", "s/op"),
    ("protocol.schnorr.keygen_s", "protocol.schnorr.keygen", "s", "s/op"),
    ("protocol.schnorr.sign_s", "protocol.schnorr.sign", "s", "s/op"),
    ("protocol.schnorr.verify_s", "protocol.schnorr.verify", "s", "s/op"),
    ("protocol.schnorr.verify_calls", "protocol.schnorr.verify", "calls", "calls/op"),
    ("protocol.trail_hash.s", "protocol.trail_hash", "s", "s/op"),
    ("protocol.trail_hash.calls", "protocol.trail_hash", "calls", "calls/op"),
    ("protocol.fzk_check.s", "protocol.fzk_check", "s", "s/op"),
    ("protocol.fzk_check.calls", "protocol.fzk_check", "calls", "calls/op"),
    ("protocol.policy_holds.s", "protocol.policy_holds", "s", "s/op"),
    ("appio.instance_from_doc.s", "appio.instance_from_doc", "s", "s/op"),
]

# Metrics of the traced set-up (FieldParams / params_for derivation), in s.
SETUP_METRICS = [
    ("field.params.setup_s", "field.params"),
    ("poseidon.params.setup_s", "poseidon.params"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end, probe result]
        self.missing = set()  # span names, or "span:statistic" for one statistic
        self.op = None
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [self.op, len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, probe):
        tracer = self

        def n_mul(cs):
            try:
                return cs.n_mul
            except AttributeError:
                tracer.missing.add(f"{name}:n_mul")
                return None

        def counters(cs):
            out = {}
            for c in _COUNTERS:
                try:
                    out[c] = getattr(cs.counters, c)
                except AttributeError:
                    tracer.missing.add(f"{name}:{c}")
            try:
                # The one read of a private attribute: gates are wires.
                out["wires"] = len(cs._gates)
            except AttributeError:
                tracer.missing.add(f"{name}:wires")
            return out

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            before = n_mul(args[0]) if probe == "n_mul" else None
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if probe == "n_mul" and before is not None:
                    after = n_mul(args[0])
                    rec[6] = None if after is None else after - before
                elif probe == "counters":
                    rec[6] = counters(args[1] if len(args) > 1 else kwargs["cs"])

        return wrapper

    def install(self):
        for name, mod_name, cls_name, attr, probe in TARGETS:
            mod = sys.modules.get(mod_name)
            owner = getattr(mod, cls_name, None) if cls_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, fn, probe)
            if cls_name:
                self._patch(owner, attr, fn, wrapper)
                continue
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] == "zkpol" and getattr(other, attr, None) is fn:
                    self._patch(other, attr, fn, wrapper)

    def _patch(self, owner, attr, fn, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- aggregation ------------------------------------------------------

    def totals(self, phase):
        """{span name: {"calls", "s", "self_s", "n_mul", counters...}} over
        the spans recorded while ``self.op`` was in ``phase`` (a set of op
        ids, or None for spans outside any op)."""
        child = {}
        for rec in self.spans:
            if rec[2] is not None:
                child[rec[2]] = child.get(rec[2], 0.0) + rec[5] - rec[4]
        out = {}
        for rec in self.spans:
            if (rec[0] is not None) if phase is None else (rec[0] not in phase):
                continue
            t = out.setdefault(rec[3], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = rec[5] - rec[4]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += dur - child.get(rec[1], 0.0)
            if isinstance(rec[6], int):
                t["n_mul"] = t.get("n_mul", 0) + rec[6]
            elif isinstance(rec[6], dict):
                for k, v in rec[6].items():
                    t[k] = t.get(k, 0) + v
        return out

    def build_n_mul(self, op):
        """Sum of n_mul over the circuits built by statements.build in op."""
        return sum(rec[6].get("n_mul", 0) for rec in self.spans
                   if rec[0] == op and rec[3] == "statements.build" and rec[6])

    def metrics(self, ops):
        """Per-op metrics over the ops in ``ops`` and set-up metrics over the
        spans recorded outside any op. Metrics of missing targets are
        absent."""
        n = len(ops)
        per_op = self.totals(set(ops))
        setup = self.totals(None)
        out = {}
        for metric, span, stat, unit in OP_METRICS:
            if span in self.missing or f"{span}:{stat}" in self.missing:
                continue
            value = per_op.get(span, {}).get(stat, 0) / n
            out[metric] = {"value": value, "unit": unit}
        for metric, span in SETUP_METRICS:
            if span not in self.missing:
                out[metric] = {"value": setup.get(span, {}).get("s", 0.0), "unit": "s"}
        return out

    def dump(self):
        """Spans as lists, times relative to the first span's start."""
        base = self.spans[0][4] if self.spans else 0.0
        return [[op, i, parent, name, round(t0 - base, 7), round(t1 - base, 7)]
                for op, i, parent, name, t0, t1, _ in self.spans]
