"""Visibility-tagged arithmetic circuit builder and satisfiability checker.

The circuit is an append-only list of gates.  A wire is the plain int id
of the gate that outputs it: ``_gates[w]`` is its gate and ``_values[w]``
its construction-time value.  Its visibility domain (prover-only / shared
/ public) is not stored: ``domains`` derives it on read, an input's from
its gate, which carries it, and any other wire's by the join rule.

Every wire has a value from the moment it is appended: an input or a
constant is wired with its int witness (anything else, ``None`` included,
is a ``CircuitError`` at wiring) and every gate's value is computed as it
is appended, so gadget code can derive prover-local hints (bit
decompositions, square roots, characteristic vectors) from intermediate
values.  This mirrors the prover's side of a real backend, which holds the
whole witness.  ``evaluate_and_check``, standing in for the verifier-side
protocol run, checks the assertions against the eager values.  Each entry
is tested as it is appended, as an interactive backend tests each
constraint as it is emitted, and ``_failing`` records the indices of those
that fail: a check that changes no value reads its first one.  An override
check walks only the forward cone of the inputs it changes, the way an
interactive backend checks only the gates an input feeds.  It reads a
reader index (who reads each wire, and each assertion entry's lowest
index), built lazily by the first check of a system that changes a value
and again once the system has grown; a system that is only ever checked
honestly never holds one.  ``_first_failure`` is the walk.

A Poseidon permutation is one call, the way SIEVE IR calls a sub-circuit
as one unit: ``poseidon_rounds`` appends its t output wires, ``_PERM``
gates whose values ``localcalc.poseidon_permutation_ref`` computes from
the input lanes, and records a span (first output, input lanes,
parameters), which the override walk evaluates as one block.  The
counters charge each call what the permutation's gates would cost.

An assertion entry is a wire id w, asserting value(w) = 0, or ~b (a
negative int), asserting booleanity value(b) * (value(b) - 1) = 0 with no
wire of its own; it counts the mul and sub it stands for.  ``decompose``
(bit decomposition) is a bulk primitive: k prover-only input bits with
booleanity entries, then the recomposition affine and its sub.

``scope(name)`` opens a named region that runs to the next ``scope`` call;
it costs one mark, and ``scope_of`` and ``region`` read the marks.
"""

from __future__ import annotations

import bisect
import enum
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat

from . import localcalc
from .field import FieldParams
from .poseidon import MAX_T, PoseidonParams


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
_AFFINE = 5  # (op, coeffs, wire_ids): a tuple, or a recomposition's range of bits
_PERM = 6  # (op, j): output lane j of the permutation span holding wire w

# Every prover-only input's gate, and every shared input's: one tuple each.
_INPUT_GATE = (_INPUT,)
_SHARED_INPUT_GATE = (_INPUT, Domain.SHARED)
# The gates of a permutation's t outputs are the first t of these.
_PERM_GATES = tuple((_PERM, j) for j in range(MAX_T))
# Maps the digits of a binary string to the bit values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=None)
def _pow2_coeffs(k: int, p: int) -> tuple[int, ...]:
    """Recomposition coefficients 2^0 .. 2^(k-1), reduced mod p."""
    return tuple((1 << i) % p for i in range(k))


@lru_cache(maxsize=16)
def _permutation_cost(pp: PoseidonParams) -> tuple[int, int]:
    """(n_mul, n_add) of one permutation of ``pp`` composed gate by gate in
    the factored form of ``pp.factored``.  Each S-box x^alpha is a
    left-to-right square-and-multiply over alpha's bits, a squaring per bit
    below the top one and a mul by x per such bit that is set (2 muls for
    alpha = 3, 3 for 5, 4 for 7), on t lanes of a full round and lane 0 of
    a partial one.  A full round's dense matrix costs t(t - 1) adds, a
    partial round's sparse one 2(t - 1), and each non-zero round constant
    one."""
    t, alpha = pp.t, pp.alpha
    sbox = alpha.bit_length() + alpha.bit_count() - 2
    n_mul = sbox * (t * pp.r_full + pp.r_partial)
    n_consts = sum(map(bool, chain.from_iterable(pp.factored.constants)))
    return n_mul, pp.r_full * t * (t - 1) + 2 * pp.r_partial * (t - 1) + n_consts


def _is_int(v) -> bool:
    """True for an int that is not a bool: True would wire 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def _witness(v):
    """v itself if it is an int; a bool, a float or a str is not coerced."""
    if not _is_int(v):
        raise CircuitError(f"witness {v!r} is not an int")
    return v


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
        self._values: list[int] = []
        self._assertions: list[int] = []  # entries: w (value 0) or ~b (b boolean)
        self._failing: list[int] = []  # indices of the entries failing on the eager values, in order
        self.n_mul = 0
        self.n_add = 0
        self.n_prover_inputs = 0
        self.n_shared_inputs = 0
        self._const_cache: dict[int, int] = {}  # value -> wire id
        self._marks: list[tuple[int, int, str]] = []  # per region: first gate, first assertion, name
        self._scopes: dict[str, int] = {}  # region name -> index into _marks
        # Per poseidon_rounds call, in id order: first output id, input lane
        # ids and parameters; the span is its t outputs.
        self._spans: list[tuple[int, tuple[int, ...], PoseidonParams]] = []
        self._index: _ReaderIndex | None = None  # built by the first check that overrides a value

    # -- wire creation -------------------------------------------------

    def _new_wire(self, gate: tuple, value: int) -> int:
        wid = len(self._gates)
        self._gates.append(gate)
        self._values.append(value)
        return wid

    def wire_input(self, value: int, domain: Domain) -> int:
        """Inject a local int value as a prover-only or shared input; its
        gate carries its domain: ``_INPUT_GATE`` or ``_SHARED_INPUT_GATE``."""
        if domain is not Domain.PROVER and domain is not Domain.SHARED:
            if domain is Domain.PUBLIC:
                raise PublicNeedsNoWire("public constants use const()")
            raise CircuitError(f"input domain {domain!r} is not Domain.PROVER or Domain.SHARED")
        if type(value) is not int:
            _witness(value)
        if domain is Domain.PROVER:
            self.n_prover_inputs += 1
            return self._new_wire(_INPUT_GATE, value % self.p)
        self.n_shared_inputs += 1
        return self._new_wire(_SHARED_INPUT_GATE, value % self.p)

    def const(self, value: int) -> int:
        v = _witness(value) % self.p
        w = self._const_cache.get(v)
        if w is None:
            w = self._const_cache[v] = self._new_wire((_CONST, v), v)
        return w

    # -- gates ---------------------------------------------------------

    def _binary(self, op: int, a: int, b: int, v: int) -> int:
        gates = self._gates
        gates.append((op, a, b))
        self._values.append(v % self.p)
        return len(gates) - 1

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

    def affine(self, coeffs: list[int], wires: list[int]) -> int:
        """Linear combination sum(c_i * w_i); counts len(coeffs)-1 adds.

        Exists so long summations (lookups, hash linear layers) do not
        inflate n_add misleadingly relative to a backend with cheap linear
        gates.
        """
        if len(coeffs) != len(wires) or not coeffs:
            raise CircuitError("affine needs matching non-empty coeffs/wires")
        p = self.p
        cs, ids = tuple(coeffs), tuple(wires)
        if min(cs) < 0 or max(cs) >= p:
            cs = tuple(c % p for c in cs)
        self.n_add += len(cs) - 1
        v = sum(map(operator.mul, cs, map(self._values.__getitem__, ids)))
        return self._new_wire((_AFFINE, cs, ids), v % p)

    # -- assertions ----------------------------------------------------

    def assert_zero(self, w: int) -> None:
        if self._values[w]:
            self._failing.append(len(self._assertions))
        self._assertions.append(w)

    def assert_boolean(self, w: int) -> None:
        """Assert value(w) * (value(w) - 1) = 0 as the entry ~w, with no
        wire; it counts what mul(w, sub(w, const(1))) would, one add and,
        unless w is a constant, one mul."""
        v = self._values[w]
        self.n_add += 1
        self.n_mul += self._gates[w][0] != _CONST
        if v * (v - 1) % self.p:
            self._failing.append(len(self._assertions))
        self._assertions.append(~w)

    def assert_eq(self, a: int, b: int) -> None:
        self.assert_zero(self.sub(a, b))

    def decompose(self, w: int, k: int) -> range:
        """Bulk primitive behind bit decomposition: k prover-only input
        bits b_i = (v >> i) & 1 of w's value v, each with a booleanity
        entry ~b_i, then the recomposition affine sum(2^i * b_i) asserted
        equal to w: k + 2 wires and k + 1 assertions.

        Assertion order and every counter are those of the per-gate
        composition wire_input / ``assert_boolean`` per bit, then affine /
        assert_eq.  The bits' values are the binary digits of v mod 2^k,
        low digit first; their gate ``_INPUT_GATE`` carries their domain,
        prover-only.  The recomposition affine's value is (v mod 2^k) mod
        p.  Returns the bit ids, low bit first."""
        if k < 1:
            raise CircuitError("decompose needs k >= 1 bits")
        v = self._values[w]
        p = self.p
        gates = self._gates
        start = len(gates)
        ids = range(start, start + k)
        gates.extend(repeat(_INPUT_GATE, k))
        low = v & ((1 << k) - 1)
        # A sentinel bit k makes bin() write "0b1" and then all k digits.
        self._values.extend(bin(low | (1 << k))[:2:-1].encode().translate(_BIT_VALUES))
        self._assertions.extend(range(~start, ~start - k, -1))
        # Recomposition affine and its equality with w (assert_eq's sub).
        rid = start + k
        gates.append((_AFFINE, _pow2_coeffs(k, p), ids))
        gates.append((_SUB, rid, w))
        rec = low % p
        self._values.append(rec)
        self._values.append((rec - v) % p)
        if rec != v:
            self._failing.append(len(self._assertions))
        self._assertions.append(rid + 1)
        self.n_prover_inputs += k
        self.n_mul += k
        self.n_add += 2 * k  # k booleanity subs, k - 1 affine adds, the final sub
        return ids

    def poseidon_rounds(self, state: list[int], pp: PoseidonParams) -> list[int]:
        """One call of the Poseidon permutation of ``pp`` on ``state``: the
        t output wires, ``_PERM`` gates valued by
        ``localcalc.poseidon_permutation_ref`` on the lane values (the
        factored form of the ``poseidon`` module docstring).  The call is
        recorded as a span (first output id, input lane ids, ``pp``) for
        ``evaluate_and_check`` and appends no assertion.  It adds to n_mul
        and n_add what the factored permutation composed gate by gate
        would (``_permutation_cost``).  Returns the t output ids."""
        t = pp.t
        if len(state) != t:
            raise ValueError(f"state width must be {t}")
        lanes = tuple(state)
        first = len(self._gates)
        self._gates.extend(_PERM_GATES[:t])
        self._values.extend(localcalc.poseidon_permutation_ref(list(map(self._values.__getitem__, lanes)), pp))
        n_mul, n_add = _permutation_cost(pp)
        self.n_mul += n_mul
        self.n_add += n_add
        self._spans.append((first, lanes, pp))
        return list(range(first, first + t))

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

    def domains(self) -> list[Domain]:
        """Every wire's visibility domain, by wire id, in one forward pass
        by the join rule: an input's is the one its gate carries, a
        constant's is public, and an add, sub, mul or affine output's is its
        most secret operand's, a permutation output's its call's most
        secret lane's.  A decomposed bit is a prover-only input."""
        lanes = {s0: span_lanes for s0, span_lanes, _ in self._spans}
        doms: list[Domain] = []
        for w, gate in enumerate(self._gates):
            op = gate[0]
            if op == _INPUT:
                d = gate[1] if len(gate) > 1 else Domain.PROVER
            elif op == _CONST:
                d = Domain.PUBLIC
            else:  # output lane j of a call is j wires past its first
                reads = lanes[w - gate[1]] if op == _PERM else gate[2] if op == _AFFINE else gate[1:]
                d = max(map(doms.__getitem__, reads))
            doms.append(d)
        return doms

    # -- evaluation ----------------------------------------------------

    @property
    def counters(self) -> Counters:
        return Counters(self.n_mul, self.n_add, len(self._assertions), self.n_prover_inputs, self.n_shared_inputs)

    def evaluate_and_check(self, overrides: dict[int, int] | None = None) -> SatisfactionReport:
        """Check the assertions in order and report the first that fails.

        ``overrides`` maps input wire ids to replacement int witnesses.
        With none, or with every one equal to its wire's eager value, the
        first failure is the first index recorded in ``_failing`` as its
        entry was appended; nothing is re-evaluated and no index is built.
        Otherwise ``_first_failure`` walks the forward cone of the changed
        inputs only."""
        p, gates, stored = self.p, self._gates, self._values
        new: dict[int, int] = {}  # wire id -> value differing from the eager one
        for wid, v in (overrides or {}).items():
            if not (_is_int(wid) and 0 <= wid < len(gates) and gates[wid][0] == _INPUT):
                raise CircuitError(f"override key {wid!r} is not an input wire id")
            if not _is_int(v):
                raise CircuitError(f"override value {v!r} for wire {wid} is not an int")
            if v % p != stored[wid]:
                new[wid] = v % p
        first_fail = self._first_failure(new) if new else self._failing[0] if self._failing else None
        return SatisfactionReport(first_fail is None, first_fail, self.counters)

    def _first_failure(self, new: dict[int, int]) -> int | None:
        """The index of the first assertion that fails once the input wires
        in ``new`` take their new values, or None if none does.

        Gates are taken from a sorted list of pending ids, in id order, each
        once: a gate is pending once one of its operands has changed, and is
        re-evaluated from the new or stored values of its operands; a
        permutation span is pending once one of its lanes has changed, and
        ``localcalc.poseidon_permutation_ref`` runs on the new lanes.  For
        each wire whose value changes, its entries w and ~w are tested at
        their lowest assertion index.  Every other entry keeps its eager
        verdict, so an entry recorded in ``_failing`` fails unless its wire
        changed to a value that passes.  The walk stops once every assertion
        up to the first failure found reads only wires below the next pending
        gate, whose values are then final; abs(e) bounds the wire an entry e
        reads (e for w, b + 1 for ~b)."""
        p, gates, stored, asserts = self.p, self._gates, self._values, self._assertions
        index = self._index
        if index is None or index.size != (len(gates), len(asserts)):  # none yet, or the system grew
            index = self._index = _ReaderIndex(self)
        readers, ranged, first_at, spans = index.readers, index.ranged, index.first_at, index.spans
        n = len(asserts)
        best = n  # the lowest failing index among the entries of changed wires
        cured: set[int] = set()  # eagerly failing entries whose wire changed to a passing value
        pending: list[int] = []  # gate ids, sorted; a gate twice if two operands changed
        changed = list(new.items())
        last = -1
        retest = True
        while True:
            for w, v in changed:
                for e, bad in ((w, v), (~w, v * (v - 1) % p)):
                    i = first_at.get(e)
                    if i is None:
                        continue
                    if bad:
                        if i < best:
                            best, retest = i, True
                    elif i in index.eager:
                        cured.add(e)
                        retest = True
                for r in readers.get(w, ()):
                    bisect.insort(pending, r)
                j = bisect.bisect_right(ranged, w)  # the recomposition that may read bit w
                if j < len(ranged) and w in gates[ranged[j]][2]:
                    bisect.insort(pending, ranged[j])
            if retest:
                first = min(best, next((i for i in self._failing if asserts[i] not in cured), n))
                bound = max(map(abs, islice(asserts, first + 1))) if first < n else len(gates)
                retest = False
            if not pending or pending[0] > bound:
                return first if first < n else None
            g = pending.pop(0)
            if g == last:
                changed = ()
                continue
            last = g
            gate = gates[g]
            op = gate[0]
            if op == _PERM:
                lanes, pp = spans[g]
                outs = localcalc.poseidon_permutation_ref([new.get(i, stored[i]) for i in lanes], pp)
                changed = [(wid, v) for wid, v in enumerate(outs, g) if v != stored[wid]]
            else:
                if op == _AFFINE:
                    v = 0
                    for c, i in zip(gate[1], gate[2]):
                        v += c * new.get(i, stored[i])
                else:
                    a, b = gate[1], gate[2]
                    va, vb = new.get(a, stored[a]), new.get(b, stored[b])
                    v = va * vb if op == _MUL else va + vb if op == _ADD else va - vb
                v %= p
                changed = [(g, v)] if v != stored[g] else ()
            new.update(changed)


class _ReaderIndex:
    """Who reads each wire, for the override walk of one system at one size.

    ``readers`` maps a wire to the gates that read it, a permutation span
    standing as its first output id for each of its lanes (inputs and
    constants read nothing), except the recomposition affines of
    ``decompose``: ``ranged`` holds their ids in id order, and as each
    reads the range of bits laid just before it, the first such id above
    a bit is the one that may read it.
    ``first_at`` maps each assertion entry to its lowest index, ``eager``
    is the set of the indices in ``ConstraintSystem._failing`` and
    ``spans`` maps each span's first output id to its lanes and
    parameters."""

    def __init__(self, cs: ConstraintSystem):
        gates, asserts = cs._gates, cs._assertions
        self.size = (len(gates), len(asserts))
        readers: defaultdict[int, list[int]] = defaultdict(list)
        ranged = []
        for g in compress(count(), map(operator.is_not, gates, repeat(_INPUT_GATE))):
            gate = gates[g]
            op = gate[0]
            if op == _AFFINE:
                if type(gate[2]) is range:
                    ranged.append(g)
                else:
                    for i in gate[2]:
                        readers[i].append(g)
            elif _ADD <= op <= _MUL:
                readers[gate[1]].append(g)
                readers[gate[2]].append(g)
        for s0, lanes, _ in cs._spans:
            for i in lanes:
                readers[i].append(s0)
        self.readers = readers
        self.ranged = ranged
        self.first_at = dict(zip(reversed(asserts), range(len(asserts) - 1, -1, -1)))
        self.eager = set(cs._failing)
        self.spans = {s0: (lanes, pp) for s0, lanes, pp in cs._spans}
