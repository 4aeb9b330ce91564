"""Visibility-tagged arithmetic circuit builder and satisfiability checker.

The circuit is an append-only list of gates.  A wire is the plain int id
of the gate that outputs it: ``_gates[w]`` is its gate, ``_values[w]`` its
construction-time value and ``_domains[w]`` its visibility domain
(prover-only / shared / public).  The domain of a gate output is the most
secret domain among its operands.

Every wire has a value from the moment it is appended: an input or a
constant is wired with its int witness (anything else, ``None`` included,
is a ``CircuitError`` at wiring) and every gate's value is computed as it
is appended, so gadget code can derive prover-local hints (bit
decompositions, square roots, characteristic vectors) from intermediate
values.  This mirrors the prover's side of a real backend, which holds
the whole witness.  ``evaluate_and_check``, standing in for the
verifier-side protocol run, checks the assertions against the eager
values and re-evaluates only the forward cone of any input witnesses it
is asked to override.

A Poseidon permutation is one call, the way SIEVE IR calls a sub-circuit
as one unit: ``poseidon_rounds`` appends its t output wires, ``_PERM``
gates whose values ``localcalc.poseidon_permutation_ref`` computes from
the input lanes, and records a span (first output, input lanes,
parameters).  The override walk evaluates a span as one block: it jumps
over it if its lanes kept their values and otherwise runs the reference
on the new lane values.  The counters charge each call what the
permutation's gates would cost (see ``poseidon_rounds``).

``decompose`` (bit decomposition) is a bulk primitive: instead of one
method call per gate, its per-bit gates, domains, values and booleanity
assertions each go in with one ``list.extend``, and every counter equals
the per-gate composition's.

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
_AFFINE = 5  # (op, coeffs, wire_ids)
_BIT_SUB = 6  # (op,): value(w - 1) - 1 at wire w
_BIT_MUL = 7  # (op,): value(w - 2) * value(w - 1) at wire w
_PERM = 8  # (op, j): output lane j of the permutation span holding wire w

# The gates of one decomposed bit b: the input b, b - 1 and b * (b - 1).
_BIT_GATES = ((_INPUT,), (_BIT_SUB,), (_BIT_MUL,))
# The gates of a permutation's t outputs are the first t of these.
_PERM_GATES = tuple((_PERM, j) for j in range(MAX_T))


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


_first = operator.itemgetter(0)


def _witness(v):
    """v itself if it is an int, as ``evaluate_and_check`` requires of an
    override value; a float or a str is not coerced."""
    if not isinstance(v, int):
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
        # Per poseidon_rounds call, in id order: first output id, input lane
        # ids and parameters; the span is its t outputs.
        self._spans: list[tuple[int, tuple[int, ...], PoseidonParams]] = []

    # -- wire creation -------------------------------------------------

    def _new_wire(self, gate: tuple, domain: int, value: int) -> int:
        wid = len(self._gates)
        self._gates.append(gate)
        self._domains.append(domain)
        self._values.append(value)
        return wid

    def wire_input(self, value: int, domain: Domain) -> int:
        """Inject a local int value into the circuit as a protocol input."""
        if domain == Domain.PUBLIC:
            raise PublicNeedsNoWire("public constants use const()")
        value = _witness(value) % self.p
        if domain == Domain.PROVER:
            self.n_prover_inputs += 1
        else:
            self.n_shared_inputs += 1
        return self._new_wire((_INPUT,), int(domain), value)

    def const(self, value: int) -> int:
        v = _witness(value) % self.p
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

    def affine(self, coeffs: list[int], wires: list[int]) -> int:
        """Linear combination sum(c_i * w_i); counts len(coeffs)-1 adds.

        Exists so long summations (lookups, hash linear layers) do not
        inflate n_add misleadingly relative to a backend with cheap linear
        gates.
        """
        if len(coeffs) != len(wires) or not coeffs:
            raise CircuitError("affine needs matching non-empty coeffs/wires")
        p = self.p
        ids = tuple(wires)
        dom = max(map(self._domains.__getitem__, ids))
        self.n_add += len(coeffs) - 1
        cs = tuple(c if 0 <= c < p else c % p for c in coeffs)
        vals = self._values
        v = 0
        for c, i in zip(cs, ids):
            v += c * vals[i]
        return self._new_wire((_AFFINE, cs, ids), dom, v % p)

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
        gates.append((_AFFINE, _pow2_coeffs(k, p), tuple(ids)))
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
        """One call of the Poseidon permutation of ``pp`` on ``state``: the
        t output wires, ``_PERM`` gates valued by
        ``localcalc.poseidon_permutation_ref`` on the lane values (the
        factored form of the ``poseidon`` module docstring), each in the
        most secret lane domain.  The call is recorded as a span (first
        output id, input lane ids, ``pp``) for ``evaluate_and_check`` and
        appends no assertion.  It adds to n_mul and n_add what the
        factored permutation composed gate by gate would
        (``_permutation_cost``).  Returns the t output ids."""
        t = pp.t
        if len(state) != t:
            raise ValueError(f"state width must be {t}")
        lanes = tuple(state)
        first = len(self._gates)
        self._gates.extend(_PERM_GATES[:t])
        self._domains.extend(repeat(max(map(self._domains.__getitem__, lanes)), t))
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

        A permutation called by ``poseidon_rounds`` is re-evaluated as one
        block: if none of its input lanes changed the walk jumps over it,
        and otherwise ``localcalc.poseidon_permutation_ref`` runs on the
        new lane values, so ``_reevaluate`` never meets a ``_PERM``
        gate."""
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
                    s0, lanes, pp = spans[k]
                    k += 1
                    self._reevaluate(new, done, s0)
                    if not new.keys().isdisjoint(lanes):
                        outs = localcalc.poseidon_permutation_ref([new.get(i, stored[i]) for i in lanes], pp)
                        for wid, v in enumerate(outs, s0):
                            if v != stored[wid]:
                                new[wid] = v
                    done = s0 + len(lanes)
                else:
                    self._reevaluate(new, done, aw + 1)
                    done = aw + 1
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
                v = 0
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
