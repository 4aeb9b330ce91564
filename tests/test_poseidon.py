import random

import pytest

from zkpol import gadgets, localcalc
from zkpol.circuit import ConstraintSystem, Domain, IncompleteWitness
from zkpol.field import DEFAULT_MODULUS, FieldParams
from zkpol.poseidon import (
    PoseidonParamError,
    PoseidonParams,
    default_poseidon_params,
    params_for,
)

FP = FieldParams(coord_bits=12)
PP = params_for(FP)


def _independent_permutation(state, pp):
    """Straight-line re-derivation of the permutation from the parameters,
    written before the gadget; used to freeze expected values."""
    p = pp.prime
    s = list(state)
    idx = 0
    for rnd in range(pp.r_full + pp.r_partial):
        s = [(s[i] + pp.round_constants[idx + i]) % p for i in range(pp.t)]
        idx += pp.t
        full = rnd < pp.r_full // 2 or rnd >= pp.r_full // 2 + pp.r_partial
        if full:
            s = [pow(v, pp.alpha, p) for v in s]
        else:
            s[0] = pow(s[0], pp.alpha, p)
        s = [
            sum(pp.mds[r][c] * s[c] for c in range(pp.t)) % p
            for r in range(pp.t)
        ]
    return s


def test_alpha_three_rejected_for_mersenne():
    # p - 1 = 2 * (2^126 - 1) and 3 | 2^126 - 1, so x^3 is not a bijection.
    with pytest.raises(PoseidonParamError):
        PoseidonParams(prime=DEFAULT_MODULUS, alpha=3)


def test_alpha_five_accepted():
    assert PP.alpha == 5


def test_constant_derivation_deterministic():
    a = PoseidonParams(prime=DEFAULT_MODULUS)
    b = PoseidonParams(prime=DEFAULT_MODULUS)
    assert a.round_constants == b.round_constants
    assert a.mds == b.mds


def test_different_seed_different_constants():
    a = PoseidonParams(prime=DEFAULT_MODULUS, seed=b"a")
    b = PoseidonParams(prime=DEFAULT_MODULUS, seed=b"b")
    assert a.round_constants != b.round_constants


def test_constants_in_field():
    assert all(0 <= c < PP.prime for c in PP.round_constants)
    assert len(PP.round_constants) == PP.t * (PP.r_full + PP.r_partial)


def test_singular_mds_rejected():
    zero_mds = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(PoseidonParamError):
        PoseidonParams(prime=DEFAULT_MODULUS, mds=zero_mds)


def test_reference_permutation_zero_state_frozen():
    # Expected values computed by the independent straight-line
    # reimplementation above and frozen.
    expected = _independent_permutation([0, 0, 0], PP)
    got = localcalc.poseidon_permutation_ref([0, 0, 0], PP)
    assert got == expected


def test_permutation_determinism():
    state = [123, 456, 789]
    assert localcalc.poseidon_permutation_ref(state, PP) == localcalc.poseidon_permutation_ref(
        state, PP
    )


def test_reference_matches_independent_on_random_states():
    rng = random.Random(21)
    for _ in range(50):
        state = [rng.randrange(PP.prime) for _ in range(3)]
        assert localcalc.poseidon_permutation_ref(state, PP) == _independent_permutation(
            state, PP
        )


def test_gadget_matches_reference_on_random_states():
    rng = random.Random(22)
    for _ in range(20):
        state = [rng.randrange(PP.prime) for _ in range(3)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in state]
        out = gadgets.poseidon_permute(cs, wires, PP)
        assert [cs.value(w) for w in out] == localcalc.poseidon_permutation_ref(state, PP)


def test_sponge_deterministic_and_sensitive():
    rng = random.Random(23)
    msg = [rng.randrange(PP.prime) for _ in range(8)]
    d1 = localcalc.poseidon_digest_ref(msg, PP)
    assert d1 == localcalc.poseidon_digest_ref(msg, PP)
    for i in range(len(msg)):
        perturbed = list(msg)
        perturbed[i] = (perturbed[i] + 1) % PP.prime
        assert localcalc.poseidon_digest_ref(perturbed, PP) != d1


def test_sponge_empty_message_rejected():
    with pytest.raises(ValueError):
        localcalc.poseidon_digest_ref([], PP)
    cs = ConstraintSystem(FP)
    with pytest.raises(gadgets.EmptyMessage):
        gadgets.poseidon_hash(cs, [], PP)


def test_gadget_sponge_matches_reference():
    rng = random.Random(24)
    for n in (1, 2, 3, 7):
        msg = [rng.randrange(PP.prime) for _ in range(n)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in msg]
        out = gadgets.poseidon_hash(cs, wires, PP)
        assert cs.value(out) == localcalc.poseidon_digest_ref(msg, PP)
        assert cs.evaluate_and_check().satisfied


def test_default_params_cached():
    assert default_poseidon_params(DEFAULT_MODULUS) is default_poseidon_params(DEFAULT_MODULUS)


# -- the bulk permutation against the per-gate composition ---------------

# 2^80 + 13 is prime with gcd(3, p - 1) = 1, so it admits alpha = 3.
FP_A3 = FieldParams(modulus=2**80 + 13, coord_bits=8)
PP_A3 = PoseidonParams(prime=FP_A3.modulus, alpha=3, r_partial=10)


def _per_gate_permutation(cs, state, pp):
    """The permutation composed one method call per gate, with t one-term
    constant affines in every round: the construction that
    ``ConstraintSystem.poseidon_rounds`` replaces."""

    def sbox(w):
        if pp.alpha == 5:
            w2 = cs.mul(w, w)
            return cs.mul(cs.mul(w2, w2), w)
        out = w
        for _ in range(pp.alpha - 1):
            out = cs.mul(out, w)
        return out

    t = pp.t
    s = list(state)
    half = pp.r_full // 2
    for rnd in range(pp.n_rounds):
        s = [cs.affine([1], [s[i]], pp.round_constants[rnd * t + i]) for i in range(t)]
        if half <= rnd < half + pp.r_partial:
            s[0] = sbox(s[0])
        else:
            s = [sbox(v) for v in s]
        s = [cs.affine(list(pp.mds[i]), s) for i in range(t)]
    return s


def _sponge_state(cs, values):
    """A first-permutation sponge state: public length in lane 0, prover
    message lanes after it, as ``poseidon_hash`` lays it out."""
    return [cs.const(values[0])] + [cs.wire_input(v, Domain.PROVER) for v in values[1:]]


def _build_both(fp, pp, values, make_state):
    built = []
    for permute in (gadgets.poseidon_permute, _per_gate_permutation):
        cs = ConstraintSystem(fp)
        state = make_state(cs, values)
        built.append((cs, state, permute(cs, state, pp)))
    return built


def test_bulk_gates_evaluate_to_reference_and_bind_every_input():
    rng = random.Random(25)
    for _ in range(3):
        state = [rng.randrange(PP.prime) for _ in range(3)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in state]
        out = gadgets.poseidon_permute(cs, wires, PP)
        for w, ref in zip(out, localcalc.poseidon_permutation_ref(state, PP)):
            cs.assert_eq(w, cs.const(ref))
        assert cs.evaluate_and_check().satisfied
        for w, v in zip(wires, state):
            assert not cs.evaluate_and_check({w: v + 1}).satisfied


def test_bulk_mixed_domain_state_matches_per_gate_composition():
    rng = random.Random(26)
    values = [2] + [rng.randrange(PP.prime) for _ in range(2)]
    (bulk, _, out), (ref, _, ref_out) = _build_both(FP, PP, values, _sponge_state)
    assert bulk.counters == ref.counters
    assert [bulk.value(w) for w in out] == [ref.value(w) for w in ref_out]
    assert [bulk.value(w) for w in out] == localcalc.poseidon_permutation_ref(values, PP)
    assert [bulk._domains[w] for w in out] == [ref._domains[w] for w in ref_out] == [Domain.PROVER] * 3
    # Folding the constants leaves n_rounds - 1 sets of t affines out.
    assert len(ref._gates) - len(bulk._gates) == (PP.n_rounds - 1) * PP.t
    for w in out:
        bulk.assert_eq(w, bulk.const(bulk.value(w)))
    assert bulk.evaluate_and_check().satisfied


def test_bulk_output_domain_is_most_secret_lane():
    def state(cs, values):
        return [cs.const(values[0]), cs.wire_input(values[1], Domain.SHARED), cs.const(values[2])]

    (bulk, _, out), (ref, _, ref_out) = _build_both(FP, PP, [1, 2, 3], state)
    assert [bulk._domains[w] for w in out] == [ref._domains[w] for w in ref_out] == [Domain.SHARED] * 3
    assert bulk.counters == ref.counters


def test_bulk_general_alpha_matches_per_gate_composition():
    rng = random.Random(27)
    values = [rng.randrange(FP_A3.modulus) for _ in range(3)]
    (bulk, _, out), (ref, _, ref_out) = _build_both(FP_A3, PP_A3, values, _sponge_state)
    full_lanes = PP_A3.r_full * PP_A3.t + PP_A3.r_partial
    assert bulk.counters == ref.counters
    assert bulk.n_mul == full_lanes * (PP_A3.alpha - 1) == 68
    assert [bulk.value(w) for w in out] == localcalc.poseidon_permutation_ref(values, PP_A3)
    for w in out:
        bulk.assert_eq(w, bulk.const(bulk.value(w)))
    assert bulk.evaluate_and_check().satisfied


def test_bulk_default_alpha_keeps_three_muls_per_sbox():
    cs = ConstraintSystem(FP)
    gadgets.poseidon_permute(cs, [cs.wire_input(v, Domain.PROVER) for v in (1, 2, 3)], PP)
    assert cs.n_mul == 3 * (PP.r_full * PP.t + PP.r_partial) == 240


def test_bulk_missing_input_builds_then_check_raises():
    cs = ConstraintSystem(FP)
    state = [cs.const(1), cs.wire_input(None, Domain.PROVER), cs.wire_input(4, Domain.PROVER)]
    out = gadgets.poseidon_permute(cs, state, PP)
    assert cs.n_mul == 240
    with pytest.raises(IncompleteWitness):
        cs.value(out[0])
    with pytest.raises(IncompleteWitness):
        cs.evaluate_and_check()
    assert cs.evaluate_and_check({state[1]: 2}).satisfied


def test_bulk_rejects_wrong_state_width():
    cs = ConstraintSystem(FP)
    with pytest.raises(ValueError):
        gadgets.poseidon_permute(cs, [cs.const(1)] * 2, PP)
