import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import isprime, nextprime

import zkpol
from zkpol import appio, cli
from zkpol.field import FieldParams
from zkpol.poseidon import params_for
from zkpol.protocol import (
    _G,
    _P,
    _Q,
    _ROWS,
    _W,
    AuthorityData,
    InvalidScenario,
    ProtocolOrderViolation,
    SchnorrSignature,
    TrailStore,
    WitnessDevice,
    _g_pow,
    _g_table,
    fzk_check,
    ideal_outputs,
    policy_holds,
    run_session,
    signing_bytes,
    trail_hash,
)
from zkpol.statements import CircleSet, SubsidyPolicy, TaxPolicy, Trail, TriangleSet, make_instance

from conftest import FP12, small_prime_ev

PP12 = params_for(FP12)

AD_EV = AuthorityData(
    kind="ev",
    n_traj=4,
    policy=SubsidyPolicy(d_req=10, p_req=100),
    geometry=CircleSet(((3, 4, 100),)),
    field_params=FP12,
    pp=PP12,
)
AD_TAX = AuthorityData(
    kind="tax",
    n_traj=4,
    policy=TaxPolicy(d_max=102),
    geometry=TriangleSet.oriented([((0, 0), (20, 0), (0, 20))]),
    field_params=FP12,
    pp=PP12,
)

GOOD_EV_MOVES = [(0, 0), (3, 4), (6, 8)]
BAD_EV_MOVES = [(0, 0), (1, 1)]  # total distance 1 < 10
TAX_MOVES = [(0, 0), (3, 4), (100, 4), (103, 8)]


# -- group and signature scheme ------------------------------------------


def test_group_is_schnorr_group():
    assert isprime(_P) and _P.bit_length() == 2048
    assert isprime(_Q) and _Q.bit_length() == 256
    assert (_P - 1) % _Q == 0


def test_group_follows_its_derivation():
    tag = b"zkpol/schnorr-group/v1"
    assert _Q == nextprime(int.from_bytes(hashlib.sha256(tag).digest(), "big") | 1 << 255)
    x = int.from_bytes(hashlib.shake_256(tag).digest(256), "big") | 1 << 2047
    # 907 is the first offset that makes p prime; searching for it again
    # takes seconds.
    assert _P == 2 * (x // (2 * _Q) + 907) * _Q + 1
    assert _G == pow(2, (_P - 1) // _Q, _P)


def test_generator_has_order_q():
    assert pow(_G, _Q, _P) == 1
    assert _G != 1


def test_keygen_secret_in_range():
    scheme = SchnorrSignature()
    for seed in range(20):
        pk, sk = scheme.keygen(random.Random(seed))
        assert 1 <= sk < _Q
        assert pk == pow(_G, sk, _P)


def test_signature_rejects_e_or_s_not_below_q():
    # e + q and s + q give the same r, so only the range check rejects them.
    scheme = SchnorrSignature()
    pk, sk = scheme.keygen(random.Random(7))
    e, s = scheme.sign(sk, b"msg")
    assert 0 <= e < _Q and 0 <= s < _Q
    assert scheme.verify(pk, b"msg", (e, s))
    assert not scheme.verify(pk, b"msg", (e + _Q, s))
    assert not scheme.verify(pk, b"msg", (e, s + _Q))


def test_nonce_reduces_a_512_bit_digest():
    # k = s + sk*e mod q.  A 256-bit digest reduced mod q would bias k.
    scheme = SchnorrSignature()
    _, sk = scheme.keygen(random.Random(8))
    e, s = scheme.sign(sk, b"msg")
    h = hashlib.sha512()
    for part in (b"nonce", sk.to_bytes(32, "big"), b"msg"):
        h.update(len(part).to_bytes(4, "big") + part)
    assert (s + sk * e) % _Q == int.from_bytes(h.digest(), "big") % _Q


def test_sign_verify_round_trip():
    scheme = SchnorrSignature()
    pk, sk = scheme.keygen(random.Random(1))
    sig = scheme.sign(sk, b"hello")
    assert scheme.verify(pk, b"hello", sig)


def test_signature_rejects_wrong_message():
    scheme = SchnorrSignature()
    pk, sk = scheme.keygen(random.Random(2))
    sig = scheme.sign(sk, b"hello")
    assert not scheme.verify(pk, b"hullo", sig)


def test_signature_rejects_wrong_key():
    scheme = SchnorrSignature()
    pk1, sk1 = scheme.keygen(random.Random(3))
    pk2, _ = scheme.keygen(random.Random(4))
    assert not scheme.verify(pk2, b"msg", scheme.sign(sk1, b"msg"))


def test_signature_rejects_garbage():
    scheme = SchnorrSignature()
    pk, _ = scheme.keygen(random.Random(5))
    assert not scheme.verify(pk, b"msg", None)
    assert not scheme.verify(pk, b"msg", (0, 0))
    assert not scheme.verify(pk, b"msg", (-1, 5))
    # A component that int() would read as the signature's is no int.
    pk, sk = scheme.keygen(random.Random(7))
    e, s = scheme.sign(sk, b"msg")
    assert scheme.verify(pk, b"msg", (e, s))
    for sig in ((str(e), str(s)), (Fraction(2 * e + 1, 2), s), (e, Fraction(s)), (True, s), (e, False)):
        assert not scheme.verify(pk, b"msg", sig), sig


def test_signing_is_deterministic():
    scheme = SchnorrSignature()
    _, sk = scheme.keygen(random.Random(6))
    assert scheme.sign(sk, b"x") == scheme.sign(sk, b"x")


def test_g_pow_matches_pow():
    rng = random.Random(23)
    ks = [rng.randrange(1 << 256) for _ in range(200)] + [0, 1, _Q - 1, _Q, 2**256 - 1]
    for k in ks:
        assert _g_pow(k) == pow(_G, k, _P), k


def test_g_pow_rejects_an_exponent_outside_the_table():
    assert _W * _ROWS >= _Q.bit_length()
    for k in (-1, 1 << (_W * _ROWS)):
        with pytest.raises(ValueError):
            _g_pow(k)


def test_g_table_is_not_built_at_import():
    src = Path(zkpol.__file__).parents[1]
    code = "import zkpol.protocol as p; assert p._g_table.cache_info().currsize == 0"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert len(_g_table()) == _ROWS and all(len(row) == 1 << _W for row in _g_table())


# keygen(random.Random(1)) and sign(sk, b"hello") as computed with pow
# before the fixed-base comb: the comb must reproduce them bit for bit.
PINNED_PK = int(
    "8e5305526318dcc9ce2c15958594b1ee79a7fccb05a9de214c435b0afd44e162"
    "b4e4a88f57a17b12e86447fead981aeaec570ec6be23f02be5d5bc6d5b8f3857"
    "59fdbb7deee674eb223663ae069fe11fac7eacd9090f521c9b2f47904935e648"
    "c691297083f3fccc4f6f54b74e8d0e3c85d466e05a7af8dc4ebd9ba12bdb8ff3"
    "533ef0f5e71aad8ab775bf0d1c425a1e203b41225b9fc76a17fb827e60d27b4e"
    "e60fa2b35beec1abf3339b30b76f3e6ded0b900253f6f22803209946686ab6d1"
    "58b1056e1af6367699d3fd6d1e7155db309b67cbc95e897fe133b788b925de4b"
    "6c67e8310bfc46e99a183017b2da46a13205c9f4835086899157c41f97ee04f7",
    16,
)
PINNED_SIG = (
    0x159703115b69afbe13e8bb1928df12dceb026b27b790cac9d046670dfe20da02,
    0x19288bceb377f7dae5471ec1dee803d211a8bb527609a76d7f12ad6b753770e1,
)


def test_keys_and_signatures_pinned():
    scheme = SchnorrSignature()
    pk, sk = scheme.keygen(random.Random(1))
    assert pk == PINNED_PK
    assert scheme.sign(sk, b"hello") == PINNED_SIG
    assert scheme.verify(pk, b"hello", PINNED_SIG)


def test_signing_bytes_domain_separated():
    assert signing_bytes("a", 1) != signing_bytes("b", 1)
    assert signing_bytes("a", 1) != signing_bytes("a", 2)
    # Length prefix prevents sid/hash boundary confusion.
    assert signing_bytes("ab", 1)[:12] == b"zkpol-sig-v1"


def test_signing_bytes_widen_the_hash_only_above_256_bits():
    # Every h below 2^256 keeps its 32 bytes, so every signature over a
    # field of up to 256 bits is unchanged; a larger h, the last field,
    # takes the bytes it needs.
    assert signing_bytes("a", 5) == b"zkpol-sig-v1" + (1).to_bytes(4, "big") + b"a" + (5).to_bytes(32, "big")
    assert len(signing_bytes("a", (1 << 256) - 1)) == len(signing_bytes("a", 0))
    assert signing_bytes("a", 1 << 256).endswith((1 << 256).to_bytes(33, "big"))
    assert signing_bytes("a", (1 << 607) - 2).endswith(((1 << 607) - 2).to_bytes(76, "big"))


# -- witness device ------------------------------------------------------


def test_device_requires_init_first():
    dev = WitnessDevice(SchnorrSignature(), lambda pts: 0)
    with pytest.raises(ProtocolOrderViolation):
        dev.handle(("move", "s", (1, 2)), random.Random(0))
    with pytest.raises(ProtocolOrderViolation):
        dev.handle(("getcoords",), random.Random(0))


def test_device_signs_its_own_coords():
    scheme = SchnorrSignature()
    dev = WitnessDevice(scheme, lambda pts: trail_hash(pts, AD_EV))
    rng = random.Random(7)
    [(_, _, pk)] = dev.handle(("init", "sess"), rng)
    for p in GOOD_EV_MOVES:
        dev.handle(("move", "sess", p), rng)
    [(_, _, points, sigma)] = dev.handle(("getcoords",), rng)
    assert list(points) == GOOD_EV_MOVES
    h = trail_hash(points, AD_EV)
    assert scheme.verify(pk, signing_bytes("sess", h), sigma)


# -- trail store audit ---------------------------------------------------


def test_store_logs_every_read():
    store = TrailStore([(1, 2)])
    store.read("prover")
    store.read("fzk")
    assert store.access_log == ["prover", "fzk"]


def test_fzk_check_accepts_true_statement():
    assert fzk_check(AD_EV, trail_hash(GOOD_EV_MOVES, AD_EV), TrailStore(GOOD_EV_MOVES))


def test_fzk_check_rejects_wrong_hash():
    h = trail_hash(GOOD_EV_MOVES, AD_EV)
    assert not fzk_check(AD_EV, h ^ 1, TrailStore(GOOD_EV_MOVES))


def test_fzk_check_rejects_false_statement():
    assert not fzk_check(AD_EV, trail_hash(BAD_EV_MOVES, AD_EV), TrailStore(BAD_EV_MOVES))


def test_fzk_check_rejects_malformed_trail():
    too_long = [(0, 0)] * 10
    assert not fzk_check(AD_EV, 0, TrailStore(too_long))


# -- full sessions -------------------------------------------------------


def test_honest_session_compliant_trail():
    t = run_session("honest", AD_EV, GOOD_EV_MOVES)
    assert t.outputs == {"prover": "ok", "verifier": "ok"}


def test_honest_session_non_compliant_trail():
    t = run_session("honest", AD_EV, BAD_EV_MOVES)
    assert t.outputs == {"prover": "not_ok", "verifier": "not_ok"}


def test_honest_session_tax_statement():
    t = run_session("honest", AD_TAX, TAX_MOVES)
    assert t.outputs == {"prover": "ok", "verifier": "ok"}


def test_session_authority_data_mismatch():
    stricter = replace(AD_EV, policy=SubsidyPolicy(d_req=11, p_req=100))
    t = run_session("honest", AD_EV, GOOD_EV_MOVES, ad_v=stricter)
    # The prover believes its relaxed policy, but the verifier's F_ZK
    # submission check fails on the differing authority data.
    assert t.outputs == {"prover": "ok", "verifier": "not_ok"}


def test_corrupt_prover_hash_substitution_caught():
    def tamper(kind, payload):
        if kind == "sig":
            h, sigma = payload
            return (h ^ 1, sigma)
        return payload

    t = run_session("corrupt_prover", AD_EV, GOOD_EV_MOVES, prover_tamper=tamper)
    # The substituted hash no longer matches the device signature.
    assert t.outputs["verifier"] == "not_ok"


@pytest.mark.parametrize("h", [-1, 1 << 256, "x", None, True, 2.0],
                         ids=["-1", "2^256", "str", "None", "True", "float"])
def test_corrupt_prover_hash_that_is_no_field_element_fails_the_check(h):
    # A sent h that is not a non-negative int has no signing bytes; the
    # verifier's check fails on it, as on any h the device did not sign,
    # and does not raise.
    t = run_session("corrupt_prover", AD_EV, GOOD_EV_MOVES,
                    prover_tamper=lambda kind, payload: (h, payload[1]) if kind == "sig" else payload)
    assert t.outputs == {"prover": "ok", "verifier": "not_ok"}


# A Mersenne prime FieldParams accepts, so wide that the trail hash needs
# more than the 32 bytes of a hash below 2^256.
M607 = FieldParams(modulus=(1 << 607) - 1, coord_bits=12)
AD_EV_M607 = replace(AD_EV, field_params=M607, pp=params_for(M607))


def test_session_over_a_field_wider_than_256_bits_matches_ideal_outputs():
    assert trail_hash(GOOD_EV_MOVES, AD_EV_M607) >= 1 << 256
    t = run_session("honest", AD_EV_M607, GOOD_EV_MOVES)
    assert t.outputs == ideal_outputs(GOOD_EV_MOVES, AD_EV_M607, AD_EV_M607)
    assert t.outputs == {"prover": "ok", "verifier": "ok"}


def test_cli_session_over_a_field_wider_than_256_bits_exits_0(tmp_path, capsys):
    ad = AD_EV_M607
    inst = make_instance("ev", ad.field_params, ad.n_traj, ad.policy, ad.geometry, Trail(tuple(GOOD_EV_MOVES)))
    path = tmp_path / "ev-m607.json"
    appio.save_instance(inst, path)
    assert cli.main(["session", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"] == {"prover": "ok", "verifier": "ok"}


# (session, the number of signature checks in it): the device is trusted,
# so the one check is the verifier's, made only when the prover sends a
# signature, and none when the prover ends not_ok.
SIGNATURE_CHECKS = {
    "honest": (lambda: run_session("honest", AD_EV, GOOD_EV_MOVES), 1),
    "non_compliant": (lambda: run_session("honest", AD_EV, BAD_EV_MOVES), 0),
    "corrupt_prover": (lambda: run_session("corrupt_prover", AD_EV, GOOD_EV_MOVES,
                                           prover_tamper=_shift_first_point), 1),
    "ad_disagreement": (lambda: run_session(
        "honest", AD_EV, GOOD_EV_MOVES, ad_v=replace(AD_EV, policy=SubsidyPolicy(d_req=11, p_req=100))), 1),
}


@pytest.mark.parametrize("session, checks", SIGNATURE_CHECKS.values(), ids=SIGNATURE_CHECKS.keys())
def test_one_signature_check_per_session(monkeypatch, session, checks):
    calls = []
    verify = SchnorrSignature.verify
    monkeypatch.setattr(SchnorrSignature, "verify", lambda self, *args: calls.append(args) or verify(self, *args))
    t = session()
    sent = [m for m in t.messages if m["from"] == "prover" and m["to"] == "verifier" and m["payload"][0] == "sig"]
    assert len(sent) == len(calls) == checks
    assert t.outputs["prover"] == ("ok" if checks else "not_ok")


def test_corrupt_prover_trail_substitution_caught():
    def tamper(kind, payload):
        if kind == "fzk":
            ad, h, points = payload
            forged = [(0, 0), (40, 30), (80, 60)]  # long but unsigned
            return (ad, h, tuple(forged))
        return payload

    t = run_session("corrupt_prover", AD_EV, BAD_EV_MOVES, prover_tamper=tamper)
    assert t.outputs["verifier"] == "not_ok"


def test_corrupt_verifier_learns_nothing_beyond_verdict():
    def tamper(ad, h):
        return ad, h ^ 1  # probe with a modified hash

    t = run_session("corrupt_verifier", AD_EV, GOOD_EV_MOVES, verifier_tamper=tamper)
    assert t.outputs["verifier"] == "not_ok"
    # The verifier context never appears in the witness access audit.
    assert "verifier" not in t.witness_access_log
    # No raw coordinate ever reaches a verifier-addressed message.
    for msg in t.messages:
        if msg["to"] == "verifier":
            assert "coords" not in str(msg["payload"])


def test_audit_log_never_contains_verifier():
    for scenario, moves in [("honest", GOOD_EV_MOVES), ("honest", BAD_EV_MOVES)]:
        t = run_session(scenario, AD_EV, moves)
        assert set(t.witness_access_log) <= {"prover", "fzk"}


def test_invalid_scenarios_rejected():
    with pytest.raises(InvalidScenario):
        run_session("eavesdropper", AD_EV, GOOD_EV_MOVES)
    with pytest.raises(InvalidScenario):
        run_session("honest", AD_EV, GOOD_EV_MOVES, prover_tamper=lambda k, p: p)
    with pytest.raises(InvalidScenario):
        run_session(
            "corrupt_prover",
            AD_EV,
            GOOD_EV_MOVES,
            prover_tamper=lambda k, p: p,
            verifier_tamper=lambda a, h: (a, h),
        )


def test_transcript_deterministic_and_serializable():
    t1 = run_session("honest", AD_EV, GOOD_EV_MOVES, seed=9)
    t2 = run_session("honest", AD_EV, GOOD_EV_MOVES, seed=9)
    j1, j2 = t1.to_json(), t2.to_json()
    assert j1 == j2
    assert j1["schema_version"] == 1
    json.dumps(j1)  # must be plain-JSON serializable


def _shift_first_point(kind, payload):
    """The CLI's corrupt prover: the first point moves by one in x in what
    it submits to the ZK check."""
    if kind != "fzk":
        return payload
    ad, h, points = payload
    (x, y), *rest = points
    return ad, h, (((x + 1) % (1 << ad.field_params.coord_bits), y), *rest)


# SHA-256 of each sorted-key JSON transcript on the CLI's ev and tax
# fixtures, as recorded before the fixed-base comb.
PINNED_TRANSCRIPTS = {
    ("ev", "honest"): "511607fd2c43af1196c5cacb89bd3872abf6b6fa5c5a5ef6b34b707bbcc8a541",
    ("ev", "corrupt_prover"): "927e12ee45efc330e6a9a4b6337b717b46dc20b73fb2d98f7f4dd533e537bf6c",
    ("ev", "corrupt_verifier"): "2c0b8e48337bff4746825e04aca1c8c3e47b5fd3716841595f7c84ec4c771338",
    ("tax", "honest"): "0fea657c5c20b7c195495b4ddc3e1f2d15d0808c8118ecf3a7f4e9084dc7fe48",
    ("tax", "corrupt_prover"): "06118e8f4672dbe501ea6487e1aea98825506cee9e80a189b5b78423c6ccfdaf",
    ("tax", "corrupt_verifier"): "6f3b524a81ab884a91c55af87c167ad89708f67c95f58e697b8ca01415e1eebe",
}


@pytest.mark.parametrize("kind, n_geo", [("ev", 2), ("tax", 8)])
def test_session_transcripts_pinned(kind, n_geo):
    inst = appio.gen_fixture(appio.FixtureSpec(kind, seed=1, n_traj=8, n_geo=n_geo))
    tampers = {
        "honest": {},
        "corrupt_prover": {"prover_tamper": _shift_first_point},
        "corrupt_verifier": {"verifier_tamper": lambda ad, h: (ad, (h + 1) % ad.field_params.modulus)},
    }
    for scenario, tamper in tampers.items():
        t = run_session(scenario, inst.ad, list(inst.trail.points), **tamper)
        digest = hashlib.sha256(json.dumps(t.to_json(), sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_TRANSCRIPTS[kind, scenario], scenario


def test_real_outputs_match_ideal_functionality():
    cases = [
        (GOOD_EV_MOVES, AD_EV, AD_EV),
        (BAD_EV_MOVES, AD_EV, AD_EV),
        (TAX_MOVES, AD_TAX, AD_TAX),
    ]
    for moves, ad_p, ad_v in cases:
        real = run_session("honest", ad_p, moves, ad_v=ad_v)
        ideal = ideal_outputs(moves, ad_p, ad_v)
        assert real.outputs == ideal


def test_out_of_range_trail_length_ends_not_ok_like_ideal():
    def tamper(kind, payload):
        return payload

    for moves in ([], [(0, 0)] * (AD_EV.n_traj + 1)):
        t1 = run_session("honest", AD_EV, moves, seed=5)
        t2 = run_session("honest", AD_EV, moves, seed=5)
        assert t1.outputs == ideal_outputs(moves, AD_EV, AD_EV)
        assert t1.outputs == {"prover": "not_ok", "verifier": "not_ok"}
        assert t1.to_json() == t2.to_json()
        json.dumps(t1.to_json())
        t = run_session("corrupt_prover", AD_EV, moves, prover_tamper=tamper)
        assert t.outputs == ideal_outputs(moves, AD_EV, AD_EV, corrupted="prover")


# Moves that are not pairs of ints, at a policy every pair of ints near
# them meets: the witness device keeps each move as given and signs no
# trail holding one, so the session ends as the ideal functionality does
# (a device that coerced them with int() would end ok/ok).
LAX_EV = replace(AD_EV, policy=SubsidyPolicy(d_req=0, p_req=0))
MALFORMED_MOVES = {
    "float": [(100.9, 100), (101, 101)],
    "bool-and-str": [(True, 100), ("101", 101)],
    "integral-float": [(100.0, 100)],
    "one-coordinate": [(100,), (101, 101)],
    "none": [(None, 1)],
    "three-coordinates": [(100, 100, 7)],
    "not-a-sequence": [(100, 100), 5, None],
}


@pytest.mark.parametrize("moves", MALFORMED_MOVES.values(), ids=MALFORMED_MOVES.keys())
def test_malformed_moves_end_not_ok_like_ideal(moves):
    t = run_session("honest", LAX_EV, moves)
    assert t.outputs == ideal_outputs(moves, LAX_EV, LAX_EV) == {"prover": "not_ok", "verifier": "not_ok"}
    json.dumps(t.to_json())


@pytest.mark.parametrize("n_traj", ["4", 4.0])
def test_n_traj_that_is_not_an_int_ends_not_ok_like_ideal(n_traj):
    ad = replace(LAX_EV, n_traj=n_traj)
    t = run_session("honest", ad, GOOD_EV_MOVES)
    assert t.outputs == ideal_outputs(GOOD_EV_MOVES, ad, ad) == {"prover": "not_ok", "verifier": "not_ok"}


def test_ideal_functionality_corruption_override():
    out = ideal_outputs(BAD_EV_MOVES, AD_EV, AD_EV, corrupted="prover", adversary_result="ok")
    assert out["prover"] == "ok"
    assert out["verifier"] == "not_ok"
    with pytest.raises(InvalidScenario):
        ideal_outputs(BAD_EV_MOVES, AD_EV, AD_EV, corrupted="environment")


def test_policy_holds_bounds_checking():
    assert not policy_holds([], AD_EV)
    assert not policy_holds([(1 << 12, 0)], AD_EV)
    assert not policy_holds([(0, 0)] * 10, AD_EV)


def test_small_prime_session_matches_ideal_outputs():
    # The oracle accepts this trail but the field is too small for the
    # statement's comparisons; policy_holds validates first, so the
    # session and the ideal functionality both end not_ok.
    ad, moves = small_prime_ev()
    t = run_session("honest", ad, moves)
    assert t.outputs == ideal_outputs(moves, ad, ad)
    assert t.outputs == {"prover": "not_ok", "verifier": "not_ok"}
