import random

import pytest
from hypothesis import given, settings, strategies as st

from zkpol.circuit import (
    _ADD,
    _AFFINE,
    _BIT_MUL,
    _BIT_SUB,
    _CONST,
    _INPUT,
    _MUL,
    _PERM,
    _SUB,
    CircuitError,
    ConstraintSystem,
    Domain,
    PublicNeedsNoWire,
    SatisfactionReport,
)
from zkpol import localcalc
from zkpol.field import FieldParams, widths
from zkpol.poseidon import PoseidonParams, params_for
from zkpol.statements import _dummy_instance, build_statement

from conftest import independent_permutation, random_ev_instance, random_tax_instance

FP = FieldParams(coord_bits=12)


def fresh():
    return ConstraintSystem(FP)


def _absolute(cs, wid):
    """Gate ``wid`` with its relative operands made absolute: a bit's
    ``_BIT_SUB`` and ``_BIT_MUL`` read as the per-gate composition's sub
    and mul, whose ``one`` is the constant 1's wire."""
    g = cs._gates[wid]
    if g[0] == _BIT_SUB:
        return (_SUB, wid - 1, cs._const_cache[1])
    if g[0] == _BIT_MUL:
        return (_MUL, wid - 2, wid - 1)
    return g


def _span_of(cs, wid):
    """(input lane ids, parameters) of the permutation call whose outputs
    hold wire ``wid``."""
    return next((lanes, pp) for s0, lanes, pp in cs._spans if s0 <= wid < s0 + len(lanes))


def _reads(cs, wid):
    """The wire ids gate ``wid`` reads; fails on an opcode it does not know.
    A permutation output reads its call's input lanes."""
    g = _absolute(cs, wid)
    if g[0] in (_ADD, _SUB, _MUL):
        return g[1:]
    if g[0] == _AFFINE:
        return g[2]
    if g[0] == _PERM:
        return _span_of(cs, wid)[0]
    assert g[0] in (_INPUT, _CONST), (wid, g)
    return ()


def test_wire_input_prover():
    cs = fresh()
    w = cs.wire_input(5, Domain.PROVER)
    assert cs.value(w) == 5
    assert cs._domains[w] == Domain.PROVER
    assert cs.counters.n_prover_inputs == 1


def test_wire_input_shared():
    cs = fresh()
    w = cs.wire_input(42, Domain.SHARED)
    assert cs._domains[w] == Domain.SHARED
    assert cs.counters.n_shared_inputs == 1


def test_wire_input_public_rejected():
    cs = fresh()
    with pytest.raises(PublicNeedsNoWire):
        cs.wire_input(1, Domain.PUBLIC)


def test_mul_gate():
    cs = fresh()
    a = cs.wire_input(2, Domain.PROVER)
    b = cs.wire_input(3, Domain.PROVER)
    assert cs.value(cs.mul(a, b)) == 6
    assert cs.counters.n_mul == 1


def test_mul_by_a_constant_is_an_affine():
    # A product with a constant wire, on either side, is the one-term
    # affine c * w: no mul gate, no add, the wire's domain, and an
    # override of w re-evaluates it.
    cs = fresh()
    a = cs.wire_input(7, Domain.SHARED)
    for prod in (cs.mul(cs.const(3), a), cs.mul(a, cs.const(3))):
        assert cs._gates[prod] == (_AFFINE, (3,), (a,), 0)
        assert cs.value(prod) == 21 and cs._domains[prod] == Domain.SHARED
        cs.assert_eq(prod, cs.const(21))
    assert (cs.n_mul, cs.n_add) == (0, 2)  # the two assert_eq subs
    assert cs.evaluate_and_check().satisfied
    assert not cs.evaluate_and_check({a: 8}).satisfied


def test_add_zero_identity():
    cs = fresh()
    a = cs.wire_input(9, Domain.PROVER)
    assert cs.value(cs.add(a, cs.const(0))) == 9


def test_domain_join_rule():
    cs = fresh()
    a = cs.wire_input(2, Domain.PROVER)
    b = cs.wire_input(3, Domain.SHARED)
    assert cs._domains[cs.mul(a, b)] == Domain.PROVER
    assert cs._domains[cs.add(b, cs.const(1))] == Domain.SHARED
    assert cs._domains[cs.affine([1, 2], [a, b], 5)] == Domain.PROVER
    assert cs._domains[cs.affine([3], [b], 5)] == Domain.SHARED


def test_assert_eq_satisfied():
    cs = fresh()
    a = cs.wire_input(3, Domain.PROVER)
    b = cs.wire_input(3, Domain.PROVER)
    cs.assert_eq(a, b)
    assert cs.evaluate_and_check().satisfied


def test_assert_eq_failure_index():
    cs = fresh()
    cs.assert_eq(cs.wire_input(3, Domain.PROVER), cs.wire_input(4, Domain.PROVER))
    report = cs.evaluate_and_check()
    assert not report.satisfied
    assert report.first_failed_assertion == 0


def test_assert_eq_reflexive():
    cs = fresh()
    w = cs.wire_input(77, Domain.PROVER)
    cs.assert_eq(w, w)
    assert cs.evaluate_and_check().satisfied


def test_empty_system_report():
    report = fresh().evaluate_and_check()
    assert report.satisfied
    assert report.counters.n_mul == 0
    assert report.counters.n_assert == 0


def test_wire_input_needs_a_value():
    # Every wire has a value from the moment it is appended: an input
    # without a witness fails at wiring and leaves the system as it was.
    cs = fresh()
    cs.wire_input(1, Domain.PROVER)
    before = (list(cs._gates), cs.counters)
    for domain in (Domain.PROVER, Domain.SHARED):
        with pytest.raises(CircuitError):
            cs.wire_input(None, domain)
    assert (cs._gates, cs.counters) == before


@pytest.mark.parametrize("value", [1.5, 2.9, "3", None], ids=["float", "float-2.9", "str", "None"])
@pytest.mark.parametrize("method", ["wire_input", "const"])
def test_witnesses_must_be_ints(method, value):
    # A witness is never coerced: int(1.5) would wire 1 and int("3") 3.
    cs = fresh()
    wire = (lambda v: cs.wire_input(v, Domain.PROVER)) if method == "wire_input" else cs.const
    with pytest.raises(CircuitError, match="not an int"):
        wire(value)
    assert (cs._gates, cs._values, cs.counters) == ([], [], fresh().counters)
    assert cs.value(wire(3)) == 3


def test_affine_combo_counts_adds():
    cs = fresh()
    ws = [cs.wire_input(i, Domain.PROVER) for i in (1, 2, 3)]
    before = cs.counters.n_add
    out = cs.affine([1, 10, 100], ws)
    assert cs.counters.n_add == before + 2
    assert cs.value(out) == 321


def test_override_reevaluates_downstream():
    cs = fresh()
    a = cs.wire_input(2, Domain.PROVER)
    b = cs.wire_input(3, Domain.PROVER)
    prod = cs.mul(a, b)
    cs.assert_eq(prod, cs.const(6))
    assert cs.evaluate_and_check().satisfied
    assert not cs.evaluate_and_check(overrides={a: 5}).satisfied


@pytest.mark.parametrize("target", ["gate", "const", "out_of_range", "negative"])
def test_override_must_name_an_input_wire(target):
    cs = fresh()
    a = cs.wire_input(2, Domain.PROVER)
    prod = cs.mul(a, a)
    four = cs.const(4)
    cs.assert_eq(prod, four)
    wid = {"gate": prod, "const": four, "out_of_range": 10**6, "negative": -1}[target]
    with pytest.raises(CircuitError, match="not an input wire"):
        cs.evaluate_and_check({wid: 5})


@pytest.mark.parametrize("value", ["3", None, 1.5, 3.0, 2.0**60, [1]])
def test_override_values_must_be_ints(value):
    # A float would run float arithmetic and, past 2^53, lose its residue.
    cs = fresh()
    a = cs.wire_input(3, Domain.PROVER)
    cs.assert_eq(a, cs.const(3))
    with pytest.raises(CircuitError, match="not an int"):
        cs.evaluate_and_check({a: value})
    assert cs.evaluate_and_check({a: 3}).satisfied and not cs.evaluate_and_check({a: 2**60}).satisfied


def test_assertion_on_an_overridden_input_reads_the_override():
    cs = fresh()
    z = cs.wire_input(0, Domain.PROVER)
    cs.assert_zero(z)
    assert cs.evaluate_and_check().satisfied
    assert cs.evaluate_and_check({z: 1}).first_failed_assertion == 0


@pytest.mark.parametrize("early_fails", [False, True])
def test_assertions_out_of_wire_order_under_an_override(early_fails):
    # Assertion 0 reads a wire past the override, so the scan of eager
    # values stops before it and the walk checks assertion 1, whose wire
    # lies before the override, against its eager value.
    cs = fresh()
    early = cs.wire_input(1 if early_fails else 0, Domain.PROVER)
    x = cs.wire_input(2, Domain.PROVER)
    late = cs.sub(cs.mul(x, x), cs.const(4))
    cs.assert_zero(late)
    cs.assert_zero(early)
    for overrides in ({}, {x: 2}, {x: 3}, {x: cs.p - 2}):
        report = cs.evaluate_and_check(overrides)
        assert report == _reference_report(cs, overrides)
    assert cs.evaluate_and_check({x: 3}).first_failed_assertion == 0
    assert cs.evaluate_and_check({x: cs.p - 2}).first_failed_assertion == (1 if early_fails else None)


def test_domain_monotonicity_structural():
    # No gate output is less secret than any of its operands, on the
    # per-gate path, on the bulk decomposition path and on a permutation
    # call, whose outputs read its lanes.
    cs = fresh()
    a = cs.wire_input(2, Domain.PROVER)
    b = cs.wire_input(3, Domain.SHARED)
    cs.mul(a, b)
    cs.affine([1, 2], [a, b], 5)
    bits = cs.decompose(cs.add(b, cs.const(4)), 4)
    pp = params_for(FP)
    out = cs.poseidon_rounds([cs.const(1), b] + [cs.const(0)] * (pp.t - 2), pp)
    assert {cs._domains[w] for w in out} == {Domain.SHARED}
    doms = cs._domains
    for wid in range(len(cs._gates)):
        reads = _reads(cs, wid)
        assert doms[wid] >= max(map(doms.__getitem__, reads), default=0), wid
    # The bit gates, relative operands included, and the call's outputs are
    # among those checked.
    assert {cs._gates[b + j][0] for b in bits for j in (1, 2)} == {_BIT_SUB, _BIT_MUL}
    assert [cs._gates[w] for w in out] == [(_PERM, j) for j in range(pp.t)]


@pytest.mark.parametrize("kind", ["ev", "tax"])
@pytest.mark.parametrize(
    "coord_bits, n_traj, modulus",
    # The default prime, and the smallest prime that admits the ev shape
    # and has Poseidon parameters.
    [(1, 2, None), (12, 64, None), (24, 300, None), (2, 4, 16417), (3, 8, 65537)],
)
def test_decompositions_at_ledger_widths(kind, coord_bits, n_traj, modulus):
    # Every recomposition affine (coefficients 1, 2, 4, ... over input bits)
    # decomposes at a width that field.widths names, and fits below p: a
    # range check at width m decomposes m bits, the exact root its
    # remainders at seg + 1, and the digest each trail coordinate at k (a
    # one-bit decomposition is a one-term affine, not counted here).  The
    # digest's packing affines read trail coordinates, not bits.
    fp = FieldParams(coord_bits=coord_bits, **({"modulus": modulus} if modulus else {}))
    cs = ConstraintSystem(fp)
    build_statement(_dummy_instance(kind, n_traj, 2, fp), cs)
    w = widths(coord_bits, n_traj)
    trail = set(cs.region("trail")[2])
    used = set()
    for g in cs._gates:
        if (g[0] == _AFFINE and len(g[1]) > 1 and g[3] == 0
                and g[1] == tuple(1 << i for i in range(len(g[1])))
                and all(cs._gates[i][0] == _INPUT for i in g[2]) and trail.isdisjoint(g[2])):
            bits = len(g[1])
            assert bits <= max(w) + 1 and 2**bits < fp.modulus
            used.add(bits)
    named = {w.seg + 1, w.tot, w.shape} | ({w.cover} if kind == "ev" else set())
    named |= {coord_bits} if coord_bits > 1 else set()
    assert used == named


def test_counter_determinism():
    def build():
        cs = fresh()
        a = cs.wire_input(2, Domain.PROVER)
        b = cs.wire_input(3, Domain.SHARED)
        cs.assert_eq(cs.mul(a, b), cs.const(6))
        return cs.counters

    assert build() == build()


# -- differential test against the full re-evaluation --------------------


def _rederive(cs, overrides=None):
    """Every wire's value re-derived from the input witnesses alone, one
    gate at a time in id order: the reference ``evaluate_and_check`` must
    agree with.  A permutation call runs the dense permutation, not the
    factored reference that ``evaluate_and_check`` runs."""
    p = cs.p
    vals = [0] * len(cs._gates)
    for wid, g in enumerate(cs._gates):
        op = g[0]
        if op == _PERM:
            if g[1] == 0:
                lanes, pp = _span_of(cs, wid)
                outs = independent_permutation([vals[i] for i in lanes], pp)
            vals[wid] = outs[g[1]]
        elif op == _ADD:
            vals[wid] = (vals[g[1]] + vals[g[2]]) % p
        elif op == _MUL:
            vals[wid] = (vals[g[1]] * vals[g[2]]) % p
        elif op == _SUB:
            vals[wid] = (vals[g[1]] - vals[g[2]]) % p
        elif op == _BIT_SUB:
            vals[wid] = (vals[wid - 1] - 1) % p
        elif op == _BIT_MUL:
            vals[wid] = (vals[wid - 2] * vals[wid - 1]) % p
        elif op == _AFFINE:
            acc = g[3]
            for c, i in zip(g[1], g[2]):
                acc += c * vals[i]
            vals[wid] = acc % p
        elif op == _INPUT:
            if overrides is not None and wid in overrides:
                vals[wid] = overrides[wid] % p
            else:
                vals[wid] = cs._values[wid]
        else:
            assert op == _CONST, (wid, g)
            vals[wid] = g[1]
    return vals


def _reference_report(cs, overrides=None):
    vals = _rederive(cs, overrides)
    first = next((idx for idx, wid in enumerate(cs._assertions) if vals[wid]), None)
    return SatisfactionReport(first is None, first, cs.counters)


def _statement_systems():
    """Small ev and tax statements, built with honest hints and with
    adversarial square-root and row hints."""
    rng = random.Random(3141)
    systems = []
    for make in (random_ev_instance, random_tax_instance):
        for _ in range(3):
            inst = make(rng, 6, 3)
            n = inst.ad.n_traj
            n_geo = inst.ad.geometry.count
            hint_sets = [{}, {"sqrt_hints": [rng.randrange(1 << 14) for _ in range(n - 1)]},
                         {"row_hints": [rng.randrange(n_geo + 2) for _ in range(n)]}]
            for hints in hint_sets:
                cs = ConstraintSystem(inst.field_params)
                build_statement(inst, cs, **hints)
                systems.append(cs)
    return systems


SYSTEMS = _statement_systems()


def test_eager_values_match_rederivation():
    verdicts = set()
    for cs in SYSTEMS:
        assert cs._values == _rederive(cs)
        report = cs.evaluate_and_check()
        assert report == _reference_report(cs)
        verdicts.add(report.satisfied)
    assert verdicts == {True, False}


def test_every_single_bit_flip_matches_the_reference():
    # Flip each decomposed bit, on its own, of a compliant ev and a
    # compliant tax statement: the walk re-evaluates the bit's relative
    # booleanity gates and must report what the full re-derivation does.
    for group in (SYSTEMS[:9], SYSTEMS[9:]):
        cs = next(cs for cs in group if cs.evaluate_and_check().satisfied)
        bits = [wid - 1 for wid, g in enumerate(cs._gates) if g[0] == _BIT_SUB]
        assert bits
        for b in bits:
            overrides = {b: 1 - cs._values[b]}
            report = cs.evaluate_and_check(overrides)
            assert report == _reference_report(cs, overrides), b
            assert not report.satisfied


def _draw_overrides(data, cs):
    inputs = [wid for wid, g in enumerate(cs._gates) if g[0] == _INPUT]
    picks = data.draw(st.lists(st.sampled_from(inputs), min_size=1, max_size=3, unique=True))
    overrides = {}
    for wid in sorted(picks):
        old = cs._values[wid]
        overrides[wid] = data.draw(st.one_of(
            st.sampled_from([old, old ^ 1, old + 1, old - 1, 0, 1]),
            st.integers(min_value=0, max_value=cs.p - 1),
        ))
    return overrides


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_overrides_match_reference_evaluator(data):
    cs = data.draw(st.sampled_from(SYSTEMS))
    overrides = _draw_overrides(data, cs)
    assert cs.evaluate_and_check(overrides) == _reference_report(cs, overrides)


# -- bulk bit decomposition against the per-gate composition ---------------


def _per_gate_decompose(cs, w, k):
    v = cs._values[w]
    one = cs.const(1)
    bits = []
    for i in range(k):
        b = cs.wire_input((v >> i) & 1, Domain.PROVER)
        cs.assert_zero(cs.mul(b, cs.sub(b, one)))
        bits.append(b)
    cs.assert_eq(cs.affine([1 << i for i in range(k)], bits), w)
    return bits


SMALL_FP = FieldParams(modulus=521, coord_bits=1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decompose_matches_per_gate_composition(data):
    fp = data.draw(st.sampled_from([FP, SMALL_FP]))
    k = data.draw(st.integers(min_value=1, max_value=40))
    # In range, any residue, out of range by up to 2^45, and negative: the
    # residue p - x of a small x, whose low k bits do not recompose it.
    v = data.draw(st.one_of(
        st.integers(min_value=0, max_value=(1 << k) - 1),
        st.integers(min_value=0, max_value=fp.modulus - 1),
        st.integers(min_value=1 << k, max_value=(1 << k) + (1 << 45)),
        st.integers(min_value=-(1 << 45), max_value=-1),
    ))
    source = data.draw(st.sampled_from(["prover", "shared", "const"]))
    one_first = data.draw(st.booleans())
    built = []
    for decompose in (ConstraintSystem.decompose, _per_gate_decompose):
        cs = ConstraintSystem(fp)
        if one_first:
            cs.const(1)
        if source == "const":
            w = cs.const(v)
        else:
            w = cs.wire_input(v, Domain.PROVER if source == "prover" else Domain.SHARED)
        bits = decompose(cs, w, k)
        built.append((
            [_absolute(cs, wid) for wid in range(len(cs._gates))],
            cs._domains, cs._values, cs._assertions, cs.counters,
            [(b, cs._domains[b]) for b in bits],
        ))
    assert built[0] == built[1]


def test_decompositions_share_their_gate_tuples():
    # Every bit of every decomposition, in one system or two, appends the
    # same three gate tuples; only the recomposition is built per call.
    systems = [fresh(), ConstraintSystem(SMALL_FP)]
    bit_gates = []
    for cs in systems:
        for v, k in ((5, 3), (2**40 + 3, 41)):
            for b in cs.decompose(cs.wire_input(v, Domain.PROVER), k):
                assert [_absolute(cs, b + j)[0] for j in range(3)] == [_INPUT, _SUB, _MUL]
                bit_gates.append(cs._gates[b : b + 3])
    first = bit_gates[0]
    for gates in bit_gates:
        assert all(g is f for g, f in zip(gates, first, strict=True))


def test_decompose_needs_a_bit():
    cs = fresh()
    with pytest.raises(CircuitError):
        cs.decompose(cs.wire_input(0, Domain.PROVER), 0)


# -- named regions -------------------------------------------------------


def test_scope_regions_run_to_the_next_mark():
    cs = fresh()
    before = cs.wire_input(1, Domain.PROVER)
    cs.assert_zero(cs.sub(before, cs.const(1)))
    cs.scope("a")
    x = cs.wire_input(3, Domain.PROVER)
    y = cs.wire_input(4, Domain.SHARED)
    cs.assert_eq(cs.mul(x, y), cs.const(12))
    cs.scope("empty")
    cs.scope("b")
    z = cs.wire_input(5, Domain.PROVER)
    cs.assert_zero(z)
    a, empty, b = cs.region("a"), cs.region("empty"), cs.region("b")
    assert (a[2], empty[2], b[2]) == ([x, y], [], [z])
    assert (a[1], empty[1], b[1]) == (range(1, 2), range(2, 2), range(2, 3))
    assert (a[0], empty[0], b[0]) == (range(x, z), range(z, z), range(z, len(cs._gates)))
    assert [cs.scope_of(i) for i in (None, 0, 1, 2)] == [None, None, "a", "b"]


def test_scope_adds_no_gates_and_names_are_unique():
    cs = fresh()
    cs.scope("a")
    assert cs._gates == [] and cs.counters.as_dict() == fresh().counters.as_dict()
    with pytest.raises(CircuitError, match="already opened"):
        cs.scope("a")


# -- Poseidon permutations re-evaluated as blocks ----------------------------

# 2^80 + 13 is prime and admits both alpha = 5 and alpha = 3.
FP_80 = FieldParams(modulus=2**80 + 13, coord_bits=8)
SPONGE_PARAMS = [PoseidonParams(prime=FP_80.modulus, t=3, alpha=a, r_full=8, r_partial=10) for a in (5, 3)]
N_CHUNKS = 4


def _sponge_system(pp, per_permutation):
    """A sponge over N_CHUNKS * rate prover inputs, laid down as
    ``gadgets.poseidon_hash`` lays it down.  With ``per_permutation`` every
    output lane of every permutation is asserted equal to a shared input
    holding its eager value; otherwise only the digest is.  Returns the
    system, the message ids and the ids of those shared inputs."""
    rng = random.Random(pp.alpha)
    cs = ConstraintSystem(FP_80)
    msg = [cs.wire_input(rng.randrange(cs.p), Domain.PROVER) for _ in range(N_CHUNKS * pp.rate)]
    state = [cs.const(len(msg))] + [cs.const(0)] * (pp.t - 1)
    expected = []

    def expect(w):
        expected.append(cs.wire_input(cs.value(w), Domain.SHARED))
        cs.assert_eq(w, expected[-1])

    for start in range(0, len(msg), pp.rate):
        for i, m in enumerate(msg[start : start + pp.rate]):
            state[1 + i] = cs.add(state[1 + i], m)
        state = cs.poseidon_rounds(state, pp)
        if per_permutation:
            for w in state:
                expect(w)
    if not per_permutation:
        expect(state[0])
    return cs, msg, expected


@pytest.mark.parametrize("pp", SPONGE_PARAMS, ids=["alpha5", "alpha3"])
@pytest.mark.parametrize("per_permutation", [True, False])
@pytest.mark.parametrize("chunk", [0, N_CHUNKS // 2, N_CHUNKS - 1])
def test_sponge_overrides_match_reference(pp, per_permutation, chunk):
    cs, msg, expected = _sponge_system(pp, per_permutation)
    assert cs.evaluate_and_check() == _reference_report(cs) and cs.evaluate_and_check().satisfied
    for lane in range(pp.rate):
        w = msg[chunk * pp.rate + lane]
        for v in (cs.value(w), cs.value(w) + 1, 0):
            overrides = {w: v}
            report = cs.evaluate_and_check(overrides)
            assert report == _reference_report(cs, overrides)
            assert report.satisfied == (v == cs.value(w))
            # With every expected value moved to the re-derived one, the
            # walk runs through every permutation and must accept.
            vals = _rederive(cs, overrides)
            fixed = {**overrides, **{e: vals[cs._gates[e + 1][1]] for e in expected}}
            assert cs.evaluate_and_check(fixed) == _reference_report(cs, fixed)
            assert cs.evaluate_and_check(fixed).satisfied


@pytest.mark.parametrize("pp", SPONGE_PARAMS, ids=["alpha5", "alpha3"])
def test_permutation_runs_once_per_span_whose_inputs_changed(pp, monkeypatch):
    cs, msg, expected = _sponge_system(pp, per_permutation=False)
    calls = []
    ref = localcalc.poseidon_permutation_ref
    monkeypatch.setattr(localcalc, "poseidon_permutation_ref", lambda s, q: calls.append(1) or ref(s, q))
    assert len(cs._spans) == N_CHUNKS
    for chunk in range(N_CHUNKS):
        w = msg[chunk * pp.rate]
        for v, changed in ((cs.value(w), 0), (cs.value(w) + 1, N_CHUNKS - chunk)):
            calls.clear()
            assert cs.evaluate_and_check({w: v}).satisfied == (not changed)
            assert len(calls) == changed
    # The digest's expected value lies past every span: nothing re-runs.
    calls.clear()
    assert not cs.evaluate_and_check({expected[0]: 0}).satisfied
    assert calls == []


def test_assertion_on_a_permutation_output_reads_the_block():
    pp = SPONGE_PARAMS[0]
    cs = ConstraintSystem(FP_80)
    lanes = [cs.wire_input(v, Domain.PROVER) for v in range(pp.t)]
    out = cs.poseidon_rounds(lanes, pp)
    cs.assert_zero(cs.sub(out[0], out[0]))
    # An assertion on a middle output stops the walk inside the span.
    cs.assert_zero(out[1])
    cs.assert_zero(out[2])
    for overrides in ({}, {lanes[0]: 7}, {lanes[2]: 0}):
        assert cs.evaluate_and_check(overrides) == _reference_report(cs, overrides)


def test_every_permutation_call_is_its_t_outputs():
    # Structural: spans are in id order, each is t _PERM gates, lane j at
    # its j-th gate, reading only lanes wired before it; no other gate is a
    # _PERM gate.
    for cs in SYSTEMS:
        assert cs._spans
        prev_end = 0
        for s0, lanes, pp in cs._spans:
            assert prev_end <= s0 and max(lanes) < s0 and len(lanes) == pp.t
            assert cs._gates[s0 : s0 + pp.t] == [(_PERM, j) for j in range(pp.t)]
            prev_end = s0 + pp.t
        assert sum(g[0] == _PERM for g in cs._gates) == sum(len(lanes) for _, lanes, _ in cs._spans)
