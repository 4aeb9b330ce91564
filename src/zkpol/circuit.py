"""Visibility-tagged arithmetic circuit builder and satisfiability checker.

The circuit is an append-only list of gates.  A wire is the plain int id
of the gate that outputs it: ``_gates[w]`` is its gate, ``_values[w]`` its
construction-time value and ``_domains[w]`` its visibility domain
(prover-only / shared / public).  The domain of a gate output is the most
secret domain among its operands.

Every wire has a value from the moment it is appended: an input is
wired with its witness (an int; ``wire_input(None, ...)`` fails at
wiring) and every gate's value is computed as it is appended, so gadget
code can derive prover-local hints (bit decompositions, square roots,
characteristic vectors) from intermediate values.  This mirrors the
prover's side of a real backend, which holds the whole witness.
``evaluate_and_check``, standing in for the verifier-side protocol run,
checks the assertions against the eager values and re-evaluates only the
forward cone of any input witnesses it is asked to override.

Each Poseidon permutation that ``poseidon_rounds`` lays down is recorded
as a span (first gate, end gate, input lanes), the way SIEVE IR calls a
sub-circuit as one unit, and the override walk re-evaluates a span as one
block: it jumps over a span whose lanes kept their values and otherwise
runs ``localcalc.poseidon_permutation_ref`` on the new lane values.  A
span's interior wires, every gate but its t outputs, are private to it:
no gate outside the span reads them and no assertion names them.

Two hot gadgets append through bulk primitives instead of one method call
per gate: ``decompose`` (bit decomposition, whose per-bit gates, domains,
values and booleanity assertions each go in with one ``list.extend``) and
``poseidon_rounds`` (the Poseidon permutation in the factored form of
``PoseidonParams.factored``: t affines per round, sparse two-term ones on
lanes 1..t-1 of a partial round, with each round's constants folded into
the previous round's affines).  They write straight into the gate, domain
and value lists and keep every counter equal to the per-gate composition.

A bit's booleanity pair uses two operand-relative opcodes, so every bit of
every decomposition shares the same three gate tuples: ``_BIT_SUB`` at
wire w is value(w - 1) - 1 and ``_BIT_MUL`` at wire w is value(w - 2) *
value(w - 1).  Made absolute, they are the per-gate composition's
``(_SUB, w - 1, one)`` and ``(_MUL, w - 2, w - 1)``, with ``one`` the
constant 1's wire; a count of mul gates counts ``_MUL`` and ``_BIT_MUL``.

``scope(name)`` opens a named region that runs to the next ``scope`` call;
it costs one mark, and ``scope_of`` and ``region`` read the marks.
"""

from __future__ import annotations

import bisect
import enum
import operator
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat

from . import localcalc
from .field import FieldParams
from .poseidon import FactoredRounds, PoseidonParams


class CircuitError(Exception):
    pass


class PublicNeedsNoWire(CircuitError):
    """Public constants enter through ``const``, not ``wire_input``."""


class Domain(enum.IntEnum):
    """Visibility of a value; larger means more secret."""

    PUBLIC = 0
    SHARED = 1
    PROVER = 2


# Gate opcodes (stored as plain tuples for evaluation speed).
_INPUT = 0
_CONST = 1
_ADD = 2
_SUB = 3
_MUL = 4
_AFFINE = 5  # (op, coeffs, wire_ids, const)
_BIT_SUB = 6  # (op,): value(w - 1) - 1 at wire w
_BIT_MUL = 7  # (op,): value(w - 2) * value(w - 1) at wire w

# The gates of one decomposed bit b: the input b, b - 1 and b * (b - 1).
_BIT_GATES = ((_INPUT,), (_BIT_SUB,), (_BIT_MUL,))


@lru_cache(maxsize=None)
def _pow2_coeffs(k: int, p: int) -> tuple[int, ...]:
    """Recomposition coefficients 2^0 .. 2^(k-1), reduced mod p."""
    return tuple((1 << i) % p for i in range(k))


@lru_cache(maxsize=16)
def _bit_values(p: int) -> dict[str, tuple[int, int, int]]:
    """Per binary digit, the values (b, b - 1, b * (b - 1)) mod p of a
    decomposed bit's three wires."""
    return {"0": (0, p - 1, 0), "1": (1, 0, 0)}


@lru_cache(maxsize=16)
def _partial_round_coeffs(f: FactoredRounds) -> tuple:
    """Per partial round of ``f``, the coefficient tuples of its affines:
    row0 for lane 0 and (1, col_i) for lane i >= 1."""
    return tuple((row0, tuple((1, c) for c in col)) for row0, col in f.sparse)


_first = operator.itemgetter(0)


@dataclass(frozen=True)
class Counters:
    n_mul: int
    n_add: int
    n_assert: int
    n_prover_inputs: int
    n_shared_inputs: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    first_failed_assertion: int | None
    counters: Counters


class ConstraintSystem:
    """Single-writer builder; evaluation is read-only."""

    def __init__(self, params: FieldParams | None = None):
        self.params = params or FieldParams()
        self.p = self.params.modulus
        self._gates: list[tuple] = []
        self._domains: list[int] = []
        self._values: list[int] = []
        self._assertions: list[int] = []  # wire ids asserted == 0
        self.n_mul = 0
        self.n_add = 0
        self.n_prover_inputs = 0
        self.n_shared_inputs = 0
        self._const_cache: dict[int, int] = {}  # value -> wire id
        self._marks: list[tuple[int, int, str]] = []  # per region: first gate, first assertion, name
        self._scopes: dict[str, int] = {}  # region name -> index into _marks
        # Per poseidon_rounds call, in id order: first gate, end gate, input
        # lane ids and parameters.  The last t gates are the outputs.
        self._spans: list[tuple[int, int, tuple[int, ...], PoseidonParams]] = []

    # -- wire creation -------------------------------------------------

    def _new_wire(self, gate: tuple, domain: int, value: int) -> int:
        wid = len(self._gates)
        self._gates.append(gate)
        self._domains.append(domain)
        self._values.append(value)
        return wid

    def wire_input(self, value: int, domain: Domain) -> int:
        """Inject a local value into the circuit as a protocol input."""
        if domain == Domain.PUBLIC:
            raise PublicNeedsNoWire("public constants use const()")
        value = int(value) % self.p
        if domain == Domain.PROVER:
            self.n_prover_inputs += 1
        else:
            self.n_shared_inputs += 1
        return self._new_wire((_INPUT,), int(domain), value)

    def const(self, value: int) -> int:
        v = int(value) % self.p
        w = self._const_cache.get(v)
        if w is None:
            w = self._const_cache[v] = self._new_wire((_CONST, v), int(Domain.PUBLIC), v)
        return w

    # -- gates ---------------------------------------------------------

    def _binary(self, op: int, a: int, b: int, v: int) -> int:
        doms = self._domains
        return self._new_wire((op, a, b), max(doms[a], doms[b]), v % self.p)

    def add(self, a: int, b: int) -> int:
        self.n_add += 1
        return self._binary(_ADD, a, b, self._values[a] + self._values[b])

    def sub(self, a: int, b: int) -> int:
        self.n_add += 1
        return self._binary(_SUB, a, b, self._values[a] - self._values[b])

    def mul(self, a: int, b: int) -> int:
        if self._gates[a][0] == _CONST:
            a, b = b, a
        if self._gates[b][0] == _CONST:  # linear: the one-term affine c * a, no mul
            return self.affine([self._gates[b][1]], [a])
        self.n_mul += 1
        return self._binary(_MUL, a, b, self._values[a] * self._values[b])

    def affine(self, coeffs: list[int], wires: list[int], const: int = 0) -> int:
        """Linear combination sum(c_i * w_i) + const; counts len(coeffs)-1 adds.

        Exists so long summations (lookups, hash linear layers) do not
        inflate n_add misleadingly relative to a backend with cheap linear
        gates.
        """
        if len(coeffs) != len(wires) or not coeffs:
            raise CircuitError("affine needs matching non-empty coeffs/wires")
        p = self.p
        ids = tuple(wires)
        dom = max(map(self._domains.__getitem__, ids))
        self.n_add += len(coeffs) - 1 + (1 if const else 0)
        cs = tuple(c if 0 <= c < p else c % p for c in coeffs)
        vals = self._values
        v = const
        for c, i in zip(cs, ids):
            v += c * vals[i]
        return self._new_wire((_AFFINE, cs, ids, const % p), dom, v % p)

    # -- assertions ----------------------------------------------------

    def assert_zero(self, w: int) -> None:
        self._assertions.append(w)

    def assert_eq(self, a: int, b: int) -> None:
        self.assert_zero(self.sub(a, b))

    def decompose(self, w: int, k: int) -> range:
        """Bulk primitive behind bit decomposition: k prover-only input
        bits b_i = (v >> i) & 1 of w's value v, each boolean-asserted as
        b*(b-1) = 0, then the recomposition affine sum(2^i * b_i) asserted
        equal to w.

        Wire ids, domains, values, assertion order and counters are those
        of the per-gate composition wire_input / sub / mul / assert_zero
        per bit, then affine / assert_eq, and so is each gate once its
        relative operands are made absolute: every bit appends the shared
        ``_BIT_GATES`` (input, ``_BIT_SUB``, ``_BIT_MUL``), which read as
        ``(_SUB, b, one)`` and ``(_MUL, b, b + 1)`` for the bit at wire b.
        The 3k bit gates, their domains and values, and the k booleanity
        assertions each go in with one ``list.extend``; a bit takes the
        values (1, 0, 0) or (0, p-1, 0).  ``const(1)`` is still wired
        first, so ids match the composition's.  The recomposition affine's
        value is (v mod 2^k) mod p.  Returns the bit ids, low bit first."""
        if k < 1:
            raise CircuitError("decompose needs k >= 1 bits")
        v = self._values[w]
        p = self.p
        self.const(1)  # the wire every _BIT_SUB's absolute form reads
        gates = self._gates
        start = len(gates)
        ids = range(start, start + 3 * k, 3)
        gates.extend(_BIT_GATES * k)
        self._domains.extend(repeat(int(Domain.PROVER), 3 * k + 2))
        low = v & ((1 << k) - 1)
        self._values.extend(chain.from_iterable(map(_bit_values(p).__getitem__, format(low, f"0{k}b")[::-1])))
        self._assertions.extend(range(start + 2, start + 3 * k, 3))
        # Recomposition affine and its equality with w (assert_eq's sub).
        rid = start + 3 * k
        gates.append((_AFFINE, _pow2_coeffs(k, p), tuple(ids), 0))
        gates.append((_SUB, rid, w))
        rec = low % p
        self._values.append(rec)
        self._values.append((rec - v) % p)
        self._assertions.append(rid + 1)
        self.n_prover_inputs += k
        self.n_mul += k
        self.n_add += 2 * k  # k bit subs, k - 1 affine adds, the final sub
        return ids

    def poseidon_rounds(self, state: list[int], pp: PoseidonParams) -> list[int]:
        """Bulk primitive behind the Poseidon permutation: every round of
        ``pp`` applied to ``state`` in the factored form of ``pp.factored``
        (see the ``poseidon`` module docstring), appended in one batch.

        Round 0 adds its constants with t one-term affines; every later
        round's constants are folded into the ``const`` of the previous
        round's affines.  Each S-box x^alpha is a left-to-right
        square-and-multiply over alpha's bits: a squaring per bit below
        the top one, then a mul by x for each such bit that is set (2 muls
        for alpha = 3, 3 for 5, 4 for 7).  A full round then appends t
        dense t-term affines; a partial round appends one t-term affine
        for lane 0 and, for each lane i >= 1, the two-term affine
        s_i + col_i * s_0, whose coefficient tuples are built once per
        parameter set and shared by every permutation.  So every round
        appends t affines, as the dense form did, and wire ids and n_mul
        do not depend on the form; a partial round costs 2(t - 1) adds
        instead of t(t - 1).  An S-box output keeps its lane's domain and
        an affine output takes the most secret lane domain (a partial
        round follows a full one, so its lanes share one domain).  Every
        lane has a value, so each gate's value is computed as it is
        appended, as on the per-gate path.  Counters equal those of the
        per-gate composition with unfolded constants: a non-zero const
        counts one add on whichever affine carries it.  The batch is
        recorded as a span (first id, end id, input lane ids, ``pp``) for
        ``evaluate_and_check``; it appends no assertion, and its last t
        gates are the outputs.  Returns the t output ids."""
        t = pp.t
        if len(state) != t:
            raise ValueError(f"state width must be {t}")
        p = self.p
        f = pp.factored
        sparse = _partial_round_coeffs(f)
        consts = f.constants
        # Per bit of alpha below the top one: square (False), then multiply
        # by x (True) if the bit is set.
        sbox_steps = [by_x for bit in bin(pp.alpha)[3:] for by_x in (False, True)[: 1 + int(bit)]]
        gates = self._gates
        vals = self._values
        add_gate = gates.append
        add_dom = self._domains.append
        add_val = vals.append
        wid = first = len(gates)
        ids = list(state)
        doms = [self._domains[i] for i in ids]
        xs = [vals[i] for i in ids]
        n_add = t - consts[0].count(0)
        n_mul = 0
        for i, c in enumerate(consts[0]):
            add_gate((_AFFINE, (1,), (ids[i],), c))
            add_dom(doms[i])
            xs[i] = (xs[i] + c) % p
            add_val(xs[i])
            ids[i] = wid
            wid += 1
        all_lanes = range(t)
        first_partial = pp.r_full // 2
        last_partial = first_partial + pp.r_partial
        last = pp.n_rounds - 1
        no_consts = (0,) * t
        for rnd in range(pp.n_rounds):
            partial = first_partial <= rnd < last_partial
            for i in (0,) if partial else all_lanes:
                a = w = ids[i]
                x = y = xs[i]
                d = doms[i]
                for by_x in sbox_steps:
                    y = y * (x if by_x else y) % p
                    add_gate((_MUL, w, a if by_x else w))
                    add_dom(d)
                    add_val(y)
                    w = wid
                    wid += 1
                ids[i] = w
                xs[i] = y
                n_mul += len(sbox_steps)
            nxt = consts[rnd + 1] if rnd < last else no_consts
            n_add += t - nxt.count(0)
            lanes = tuple(ids)
            if partial:
                row0, pairs = sparse[rnd - first_partial]
                w0, x0 = ids[0], xs[0]
                new_xs = [(nxt[0] + sum(map(operator.mul, row0, xs))) % p]
                new_xs += [(x + c * x0 + k) % p for x, (_, c), k in zip(xs[1:], pairs, nxt[1:])]
                add_gate((_AFFINE, row0, lanes, nxt[0]))
                gates.extend([(_AFFINE, pr, (i, w0), k) for pr, i, k in zip(pairs, lanes[1:], nxt[1:])])
                n_add += 2 * (t - 1)
            else:
                rows = f.bridge if rnd == first_partial - 1 else pp.mds
                new_xs = [(k + sum(map(operator.mul, row, xs))) % p for row, k in zip(rows, nxt)]
                gates.extend([(_AFFINE, row, lanes, k) for row, k in zip(rows, nxt)])
                n_add += t * (t - 1)
            dmax = max(doms)
            self._domains.extend([dmax] * t)
            vals.extend(new_xs)
            xs = new_xs
            ids = list(range(wid, wid + t))
            doms = [dmax] * t
            wid += t
        self.n_mul += n_mul
        self.n_add += n_add
        self._spans.append((first, wid, tuple(state), pp))
        return ids

    # -- named regions --------------------------------------------------

    def scope(self, name: str) -> None:
        """Open region ``name``: every gate and assertion appended until the
        next ``scope`` call.  Names are unique within a system."""
        if self._scopes.setdefault(name, len(self._marks)) != len(self._marks):
            raise CircuitError(f"scope {name!r} already opened")
        self._marks.append((len(self._gates), len(self._assertions), name))

    def scope_of(self, assertion: int | None) -> str | None:
        """The region holding assertion index ``assertion``; None for None
        (no failed assertion) or an assertion before the first region."""
        i = 0 if assertion is None else bisect.bisect_right(self._marks, assertion, key=operator.itemgetter(1))
        return self._marks[i - 1][2] if i else None

    def region(self, name: str) -> tuple[range, range, list[int]]:
        """Region ``name``'s gate ids, assertion indices and input wire ids."""
        end = (len(self._gates), len(self._assertions), None)
        i = self._scopes[name]
        (g0, a0, _), (g1, a1, _) = (self._marks + [end])[i : i + 2]
        return range(g0, g1), range(a0, a1), [w for w in range(g0, g1) if self._gates[w][0] == _INPUT]

    # -- prover-local access -------------------------------------------

    def value(self, w: int) -> int:
        """Construction-time value of a wire (the prover's local view)."""
        return self._values[w]

    # -- evaluation ----------------------------------------------------

    @property
    def counters(self) -> Counters:
        return Counters(
            n_mul=self.n_mul,
            n_add=self.n_add,
            n_assert=len(self._assertions),
            n_prover_inputs=self.n_prover_inputs,
            n_shared_inputs=self.n_shared_inputs,
        )

    def evaluate_and_check(self, overrides: dict[int, int] | None = None) -> SatisfactionReport:
        """Check the assertions in order against the eager values, stopping
        at the first that fails.  Every wire has an eager value, so with no
        ``overrides`` nothing is re-evaluated.  ``overrides`` maps input
        wire ids to replacement int witnesses; only gates with a changed
        operand are re-evaluated, in id order and no further than the
        assertions walked so far reach.  The assertions before the first
        that reads a wire at or past the first changed one (all of them
        when no override changes a value) read eager values and are
        scanned in one pass.

        A permutation laid down by ``poseidon_rounds`` is re-evaluated as
        one block: if none of its input lanes changed the walk jumps over
        it, and otherwise ``localcalc.poseidon_permutation_ref`` runs on
        the new lane values and only its outputs are compared.  Its
        interior wires are private to it: no gate outside reads them, and
        an assertion on one that the walk reaches raises ``CircuitError``
        rather than read a value the block skipped."""
        p, gates, stored, spans = self.p, self._gates, self._values, self._spans
        asserts = self._assertions
        overrides = overrides or {}
        new: dict[int, int] = {}  # wire id -> value differing from the eager one
        for wid, v in overrides.items():
            if not (isinstance(wid, int) and 0 <= wid < len(gates) and gates[wid][0] == _INPUT):
                raise CircuitError(f"override key {wid!r} is not an input wire id")
            if not isinstance(v, int):
                raise CircuitError(f"override value {v!r} for wire {wid} is not an int")
            if v % p != stored[wid]:
                new[wid] = v % p
        start = done = min(new, default=len(gates))  # gates below keep their eager values
        k = bisect.bisect_left(spans, start, key=_first)  # the next span the walk reaches
        # The assertions before the first that reads a wire at or past start
        # read eager values; with no changed wire, that is all of them.
        first_walked = len(asserts)
        if new:
            first_walked = next(compress(count(), map(operator.le, repeat(start), asserts)), first_walked)
        first_fail = next(compress(count(), map(stored.__getitem__, islice(asserts, first_walked))), None)
        walked = range(first_walked, len(asserts)) if first_fail is None else ()
        for idx in walked:
            aw = asserts[idx]
            while aw >= done:
                if k < len(spans) and spans[k][0] <= aw:
                    s0, s1, lanes, pp = spans[k]
                    k += 1
                    self._reevaluate(new, done, s0)
                    if not new.keys().isdisjoint(lanes):
                        outs = localcalc.poseidon_permutation_ref([new.get(i, stored[i]) for i in lanes], pp)
                        for wid, v in enumerate(outs, s1 - len(outs)):
                            if v != stored[wid]:
                                new[wid] = v
                    done = s1
                else:
                    self._reevaluate(new, done, aw + 1)
                    done = aw + 1
            if start <= aw < done - 1 and self._in_span_interior(aw):
                raise CircuitError(f"assertion {idx} reads wire {aw}, interior to a Poseidon permutation")
            if new.get(aw, stored[aw]):
                first_fail = idx
                break
        return SatisfactionReport(
            satisfied=first_fail is None,
            first_failed_assertion=first_fail,
            counters=self.counters,
        )

    def _reevaluate(self, new: dict[int, int], lo: int, hi: int) -> None:
        """Re-evaluate gates lo..hi-1 gate by gate, recording in ``new`` each
        value that differs from the eager one."""
        p, stored = self.p, self._values
        for wid, g in enumerate(self._gates[lo:hi], lo):
            op = g[0]
            if op == _AFFINE:
                if new.keys().isdisjoint(g[2]):
                    continue
                v = g[3]
                for c, i in zip(g[1], g[2]):
                    v += c * new.get(i, stored[i])
            elif op <= _CONST:
                continue  # overridden inputs are in new; constants never change
            elif op == _BIT_SUB:
                if wid - 1 not in new:
                    continue
                v = new[wid - 1] - 1
            elif op == _BIT_MUL:
                a, b = wid - 2, wid - 1
                if a not in new and b not in new:
                    continue
                v = new.get(a, stored[a]) * new.get(b, stored[b])
            else:
                a, b = g[1], g[2]
                if a not in new and b not in new:
                    continue
                va, vb = new.get(a, stored[a]), new.get(b, stored[b])
                v = va * vb if op == _MUL else va + vb if op == _ADD else va - vb
            v %= p
            if v != stored[wid]:
                new[wid] = v

    def _in_span_interior(self, w: int) -> bool:
        """Whether wire w is a gate of a permutation span other than its outputs."""
        j = bisect.bisect_right(self._spans, w, key=_first) - 1
        return j >= 0 and w < self._spans[j][1] - len(self._spans[j][2])
