import random

import pytest

from zkpol import gadgets, localcalc, statements
from zkpol.circuit import ConstraintSystem, Domain
from zkpol.field import DEFAULT_MODULUS, FieldParams
from zkpol.poseidon import (
    DEFAULT_SEED,
    MAX_T,
    PoseidonParamError,
    PoseidonParams,
    _cauchy_mds,
    _fewest_sboxes,
    _secure,
    params_for,
    poseidon_params,
    round_numbers,
)

from conftest import independent_permutation

FP = FieldParams(coord_bits=12)
PP = params_for(FP)


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


def test_reference_permutation_zero_state_frozen():
    # Expected values computed by the independent straight-line
    # reimplementation in conftest.
    expected = independent_permutation([0] * PP.t, PP)
    got = localcalc.poseidon_permutation_ref([0] * PP.t, PP)
    assert got == expected


def test_permutation_determinism():
    state = [123 * (i + 1) for i in range(PP.t)]
    assert localcalc.poseidon_permutation_ref(state, PP) == localcalc.poseidon_permutation_ref(
        state, PP
    )


def test_reference_matches_independent_on_random_states():
    rng = random.Random(21)
    for _ in range(50):
        state = [rng.randrange(PP.prime) for _ in range(PP.t)]
        assert localcalc.poseidon_permutation_ref(state, PP) == independent_permutation(
            state, PP
        )


def test_gadget_matches_reference_on_random_states():
    rng = random.Random(22)
    for _ in range(20):
        state = [rng.randrange(PP.prime) for _ in range(PP.t)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in state]
        out = cs.poseidon_rounds(wires, PP)
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
    for n in (1, 2, 3, 7, 8, 9, 17):
        msg = [rng.randrange(PP.prime) for _ in range(n)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in msg]
        out = gadgets.poseidon_hash(cs, wires, PP)
        assert cs.value(out) == localcalc.poseidon_digest_ref(msg, PP)
        assert cs.evaluate_and_check().satisfied


# -- round numbers -------------------------------------------------------


@pytest.mark.parametrize("t", range(2, MAX_T + 1))
def test_fewest_sboxes_are_secure_and_least_in_r_partial(t):
    r_full, r_partial = _fewest_sboxes(DEFAULT_MODULUS, t, 5)
    assert _secure(DEFAULT_MODULUS, t, 5, r_full, r_partial)
    assert not _secure(DEFAULT_MODULUS, t, 5, r_full, r_partial - 1)


def test_round_numbers_at_default_modulus_pinned():
    # The table in the poseidon module docstring.
    assert [_fewest_sboxes(DEFAULT_MODULUS, t, 5) for t in (3, 5, 9)] == [
        (6, 51), (6, 51), (6, 52)]
    assert [round_numbers(DEFAULT_MODULUS, t, 5) for t in (3, 5, 9)] == [
        (8, 55), (8, 55), (8, 56)]
    assert (PP.t, PP.r_full, PP.r_partial) == (9, 8, 56)


def test_given_round_numbers_are_kept():
    pp = PoseidonParams(prime=DEFAULT_MODULUS, t=3, r_full=8, r_partial=56)
    assert (pp.r_full, pp.r_partial) == (8, 56)


@pytest.mark.parametrize("given", [{"r_full": 10}, {"r_partial": 1}])
def test_one_round_number_alone_is_rejected(given):
    # The derived pair is secure only as a pair; half of it is not derived.
    with pytest.raises(PoseidonParamError, match="both"):
        PoseidonParams(prime=DEFAULT_MODULUS, **given)


@pytest.mark.parametrize("r_full, r_partial", [(0, 0), (0, 56), (3, 56), (-2, 56), (8, -1)])
def test_round_numbers_below_the_floor_are_rejected(r_full, r_partial):
    with pytest.raises(PoseidonParamError, match="r_full|r_partial"):
        PoseidonParams(prime=DEFAULT_MODULUS, t=3, r_full=r_full, r_partial=r_partial)


def test_fewest_admitted_round_numbers_match_the_reference():
    pp = PoseidonParams(prime=DEFAULT_MODULUS, t=3, r_full=2, r_partial=0)
    cs = ConstraintSystem(FP)
    values = [1, 2, 3]
    out = cs.poseidon_rounds([cs.wire_input(v, Domain.PROVER) for v in values], pp)
    assert cs.n_mul == 3 * 2 * 3
    assert ([cs.value(w) for w in out] == localcalc.poseidon_permutation_ref(values, pp)
            == independent_permutation(values, pp))


@pytest.mark.parametrize("t", [-1, 0, 1, MAX_T + 1, 4000])
def test_width_outside_range_rejected_before_any_derivation(no_poseidon_derivation, t):
    with pytest.raises(PoseidonParamError, match=f"width t={t} outside 2..{MAX_T}"):
        PoseidonParams(prime=DEFAULT_MODULUS, t=t)


def _invertible(m, p):
    # Gaussian elimination mod p.
    a = [list(row) for row in m]
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col] % p), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, len(a)):
            f = a[r][col] * inv % p
            a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return True


@pytest.mark.parametrize("t", range(2, MAX_T + 1))
def test_every_admitted_width_has_an_invertible_mds(t):
    # The argument in _cauchy_mds's docstring, checked at the smallest prime
    # FieldParams admits and on the parameters derived at the default one.
    assert _invertible(_cauchy_mds(t, 521), 521)
    assert _invertible(PoseidonParams(prime=DEFAULT_MODULUS, t=t).mds, DEFAULT_MODULUS)


def _egcd_inverse(a: int, p: int) -> int:
    # Independent extended-gcd oracle for inversion.
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_cauchy_entries_match_egcd_inverses():
    # Every entry is 1/(x_i + y_j), checked against an independent inverse
    # at the smallest prime FieldParams admits and at the default one.
    for p in (521, DEFAULT_MODULUS):
        for t in range(2, MAX_T + 1):
            m = _cauchy_mds(t, p)
            for i in range(t):
                assert m[i] == [_egcd_inverse(i + t + j, p) for j in range(t)]


def test_constants_are_derived_not_given():
    with pytest.raises(TypeError):
        PoseidonParams(prime=DEFAULT_MODULUS, mds=PP.mds)
    with pytest.raises(TypeError):
        PoseidonParams(prime=DEFAULT_MODULUS, round_constants=PP.round_constants)


def test_small_prime_derives_and_builds():
    # 32779 is prime with 5 not dividing p - 1 (32771, the prime below it,
    # has 5 | p - 1 and no alpha = 5 parameters).  Here floor(log2 p - 2) =
    # 13, so the statistical bound allows R_F = 6 only from t = 9 up, where
    # 13 (t + 1) >= 128.
    fp = FieldParams(modulus=32779, coord_bits=2)
    pp = params_for(fp)
    assert (pp.t, pp.r_full, pp.r_partial) == (9, 8, 9)
    trail = statements.Trail(((0, 0), (3, 0), (3, 3)))
    inst = statements.make_instance(
        "ev", fp, 3, statements.SubsidyPolicy(d_req=6, p_req=100),
        statements.CircleSet(((2, 1, 3),)), trail)
    assert inst.ad.pp is pp
    handle = statements.build_statement(inst, ConstraintSystem(fp))
    assert handle.check().satisfied == statements.oracle_verdict(inst) is True


def test_default_params_cached():
    fp = FieldParams(DEFAULT_MODULUS)
    assert params_for(fp) is params_for(fp)


def test_a_set_over_its_caps_raises_on_every_call():
    before = poseidon_params.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PoseidonParamError, match="r_partial"):
            poseidon_params(DEFAULT_MODULUS, 3, 5, 8, 10**9, DEFAULT_SEED)
    assert poseidon_params.cache_info().currsize == before


# -- the bulk permutation against the per-gate composition ---------------

# 2^80 + 13 is prime with gcd(3, p - 1) = 1, so it admits alpha = 3.
FP_A3 = FieldParams(modulus=2**80 + 13, coord_bits=8)
PP_A3 = PoseidonParams(prime=FP_A3.modulus, t=3, alpha=3, r_full=8, r_partial=10)


def _per_gate_permutation(cs, state, pp):
    """The factored permutation of ``pp.factored`` composed one method call
    per gate, with t one-term constant affines in every round: the
    gate-level construction whose counters each
    ``ConstraintSystem.poseidon_rounds`` call charges."""

    def sbox(w):
        if pp.alpha == 5:
            w2 = cs.mul(w, w)
            return cs.mul(cs.mul(w2, w2), w)
        out = w
        for _ in range(pp.alpha - 1):
            out = cs.mul(out, w)
        return out

    f = pp.factored
    s = list(state)
    half = pp.r_full // 2
    for rnd, consts in enumerate(f.constants):
        s = [cs.affine([1], [w], c) for w, c in zip(s, consts)]
        if half <= rnd < half + pp.r_partial:
            s[0] = sbox(s[0])
            row0, col = f.sparse[rnd - half]
            s = [cs.affine(list(row0), s)] + [cs.affine([1, c], [w, s[0]]) for w, c in zip(s[1:], col)]
        else:
            s = [sbox(v) for v in s]
            s = [cs.affine(list(row), s) for row in (f.bridge if rnd == half - 1 else pp.mds)]
    return s


def _sponge_state(cs, values):
    """A first-permutation sponge state: public length in lane 0, prover
    message lanes after it, as ``poseidon_hash`` lays it out."""
    return [cs.const(values[0])] + [cs.wire_input(v, Domain.PROVER) for v in values[1:]]


def _build_both(fp, pp, values, make_state):
    built = []
    for permute in (ConstraintSystem.poseidon_rounds, _per_gate_permutation):
        cs = ConstraintSystem(fp)
        state = make_state(cs, values)
        built.append((cs, state, permute(cs, state, pp)))
    return built


def test_bulk_gates_evaluate_to_reference_and_bind_every_input():
    rng = random.Random(25)
    for _ in range(3):
        state = [rng.randrange(PP.prime) for _ in range(PP.t)]
        cs = ConstraintSystem(FP)
        wires = [cs.wire_input(v, Domain.PROVER) for v in state]
        out = cs.poseidon_rounds(wires, PP)
        for w, ref in zip(out, localcalc.poseidon_permutation_ref(state, PP)):
            cs.assert_eq(w, cs.const(ref))
        assert cs.evaluate_and_check().satisfied
        for w, v in zip(wires, state):
            assert not cs.evaluate_and_check({w: v + 1}).satisfied


def test_bulk_mixed_domain_state_matches_per_gate_composition():
    rng = random.Random(26)
    values = [2] + [rng.randrange(PP.prime) for _ in range(PP.t - 1)]
    (bulk, _, out), (ref, _, ref_out) = _build_both(FP, PP, values, _sponge_state)
    assert bulk.counters == ref.counters
    assert [bulk.value(w) for w in out] == [ref.value(w) for w in ref_out]
    assert [bulk.value(w) for w in out] == localcalc.poseidon_permutation_ref(values, PP)
    assert [bulk._domains[w] for w in out] == [ref._domains[w] for w in ref_out] == [Domain.PROVER] * PP.t
    # The call appends exactly its t outputs after the t state wires.
    assert out == list(range(PP.t, 2 * PP.t)) == list(range(PP.t, len(bulk._gates)))
    for w in out:
        bulk.assert_eq(w, bulk.const(bulk.value(w)))
    assert bulk.evaluate_and_check().satisfied


def test_bulk_output_domain_is_most_secret_lane():
    def state(cs, values):
        return ([cs.const(values[0]), cs.wire_input(values[1], Domain.SHARED)]
                + [cs.const(v) for v in values[2:]])

    values = list(range(1, PP.t + 1))
    (bulk, _, out), (ref, _, ref_out) = _build_both(FP, PP, values, state)
    assert [bulk._domains[w] for w in out] == [ref._domains[w] for w in ref_out] == [Domain.SHARED] * PP.t
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


# -- the factored form against the dense permutation ---------------------

# (prime, alpha): the default field, two small primes with gcd(5, p - 1) = 1
# and a prime that admits alpha = 3.
FACTORED_FIELDS = [(DEFAULT_MODULUS, 5), (1009, 5), (32779, 5), (2**80 + 13, 3)]


def _check_factored_form(pp, seed, n_states=3):
    """The reference and the bulk circuit equal the dense independent
    permutation on random states, and the bulk circuit's counters, values
    and output domains equal the per-gate composition's."""
    fp = FieldParams(modulus=pp.prime, coord_bits=1)
    rng = random.Random(seed)
    for _ in range(n_states):
        values = [rng.randrange(pp.prime) for _ in range(pp.t)]
        expected = independent_permutation(values, pp)
        assert localcalc.poseidon_permutation_ref(values, pp) == expected
        (bulk, _, out), (ref, _, ref_out) = _build_both(fp, pp, values, _sponge_state)
        assert [bulk.value(w) for w in out] == [ref.value(w) for w in ref_out] == expected
        assert bulk.counters == ref.counters
        assert [bulk._domains[w] for w in out] == [ref._domains[w] for w in ref_out]


@pytest.mark.parametrize("t", [2, 3, 9, 16])
@pytest.mark.parametrize("prime, alpha", FACTORED_FIELDS, ids=["2^127-1", "1009", "32779", "2^80+13"])
def test_factored_form_matches_dense_permutation(prime, alpha, t):
    _check_factored_form(PoseidonParams(prime=prime, t=t, alpha=alpha), seed=t * prime)


def test_factored_form_without_partial_rounds():
    pp = PoseidonParams(prime=DEFAULT_MODULUS, t=5, r_full=4, r_partial=0)
    assert pp.factored.sparse == () and pp.factored.bridge == pp.mds
    _check_factored_form(pp, seed=29)


def test_factored_form_of_the_v1_parameters():
    pp = PoseidonParams(prime=DEFAULT_MODULUS, t=3, r_full=8, r_partial=56, seed=b"zk-pol-poseidon-v1")
    _check_factored_form(pp, seed=30)


def test_factored_partial_rounds_keep_one_constant():
    f = PP.factored
    half = PP.r_full // 2
    partial = f.constants[half : half + PP.r_partial]
    assert all(c[1:] == (0,) * (PP.t - 1) and c[0] for c in partial)
    assert f.constants[:half] == tuple(zip(*[iter(PP.round_constants)] * PP.t))[:half]


def test_bulk_n_add_per_permutation():
    # R_F t (t - 1) dense adds, R_P 2 (t - 1) sparse adds and one add per
    # non-zero constant: t in each full round, one in each partial round,
    # none after the last round.
    cs = ConstraintSystem(FP)
    cs.poseidon_rounds([cs.wire_input(v, Domain.PROVER) for v in range(1, PP.t + 1)], PP)
    t, n_consts = PP.t, PP.r_full * PP.t + PP.r_partial
    assert cs.n_add == PP.r_full * t * (t - 1) + PP.r_partial * 2 * (t - 1) + n_consts == 1600


def test_alpha_seven_squares_and_multiplies():
    # x^7 = ((x^2 x)^2) x: 4 muls per S-box where a chain of x's takes 6.
    pp = PoseidonParams(prime=FP_A3.modulus, t=3, alpha=7, r_full=8, r_partial=10)
    rng = random.Random(28)
    values = [rng.randrange(pp.prime) for _ in range(3)]
    cs = ConstraintSystem(FP_A3)
    out = cs.poseidon_rounds([cs.wire_input(v, Domain.PROVER) for v in values], pp)
    assert cs.n_mul == 4 * (pp.r_full * pp.t + pp.r_partial) == 136
    assert ([cs.value(w) for w in out] == localcalc.poseidon_permutation_ref(values, pp)
            == independent_permutation(values, pp))


def test_bulk_default_alpha_keeps_three_muls_per_sbox():
    cs = ConstraintSystem(FP)
    cs.poseidon_rounds([cs.wire_input(v, Domain.PROVER) for v in range(1, PP.t + 1)], PP)
    assert cs.n_mul == 3 * (PP.r_full * PP.t + PP.r_partial) == 3 * (8 * 9 + 56) == 384


def test_bulk_rejects_wrong_state_width():
    cs = ConstraintSystem(FP)
    with pytest.raises(ValueError):
        cs.poseidon_rounds([cs.const(1)] * 2, PP)
