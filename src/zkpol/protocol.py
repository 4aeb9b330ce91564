"""Executable model of the Witness / Prover / Verifier system.

Three machines communicate through a deterministic single-threaded
scheduler.  The parties exchange authority data (``AuthorityData``, the
public half of a statement, defined in ``statements``), never a
``StatementInstance``, which would carry the trail.  The zero-knowledge
sub-protocol is realized by the constraint-check stand-in (the circuit is
built from the authority's data and the prover-submitted witness and
evaluated for satisfiability); the verifier machine itself never reads
prover-only witness values, which an access audit on the trail store
enforces.

The witness device is trusted (tamper-evident).  Its signature is checked
once, by the verifier, and that check is what binds the hash h to the
device's trail; the ideal functionality has no witness corruption.

An executable reference of the ideal functionality is provided so tests
can compare per-party outputs of the real system against it under the
same corruption scenarios.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field

from .circuit import ConstraintSystem
from . import statements
from .statements import AuthorityData, StatementInstance, SubsidyPolicy, TaxPolicy, Trail


class ProtocolOrderViolation(Exception):
    pass


class InvalidScenario(Exception):
    pass


# -- pluggable signature scheme -----------------------------------------

# A Schnorr group: a 2048-bit prime p = 2kq + 1 with a 256-bit prime q,
# and g of order q.  Exponents are 256 bits, as in the DSA groups of
# FIPS 186.  The constants were derived once with sympy, from
# TAG = b"zkpol/schnorr-group/v1":
#
#     q = nextprime(int(SHA-256(TAG)) | 2^255)
#     x = int(SHAKE-256(TAG), 256 bytes) | 2^2047
#     k = x // 2q, x // 2q + 1, ... up to the first k that makes
#         p = 2kq + 1 a 2048-bit prime (k = x // 2q + 907)
#     g = h^((p - 1)/q) mod p for the first h = 2, 3, ... with g != 1 (h = 2)
_P = int(
    "deec4d7a1dc27bf94e210fdda132f168fb571828062ffc1663b31bd9f4784740"
    "3b87b7ee6ca4a4eccfa1ee017b1371e383f3643175e7934f520d657ff84fb56e"
    "8dbbd5601472751d7ecf2fb19a2cea63bbf420bd7f5161f49bcb839d2fc518c5"
    "a51b50faec181bd9e7a856cd1b1b79d1fb5e466d3badbc21c6675d992f1373e9"
    "4a7ed059c6f72e21c3c53faf29ebbb2087068217d99f032ffd04083badf5d8d1"
    "d66ab9ca35be4f189da03e8ed3297fc126f4b84bc8767c068791118b9235eda6"
    "e495deeb711ceb30db148ad3a4c755451f1b4928cf945e344d61801cfd1be5c1"
    "6ea2b0328a050c0e88dbe9d47539993c6c3bce8c22ba95089f0772e0353256b9",
    16,
)
_Q = 0xe68bfa1aec9348073886a81c1f9ff3d176936ce55026d24f59a1e645fb916559
_G = int(
    "25519181c02d01670828ea5a702437c014901e81d9cfcbff6baac1dee72cb1a5"
    "c1940e24547ac9e77cc8cfad9d392c12775f9fbf4ce3c2bb17aba99d99204ee3"
    "f7c947fbf86739269b60d44f960e110d1939325f2412e859047df621222df9da"
    "ed2e499a347732ec8bccaa2777d1ff1791484648911b73913181a570fa73bfd1"
    "135583eb7a18362247c7bdd93d8062d7b11f043ab148a8eeff6e1a094bd70f8b"
    "25aadf5ed76e49050c4148479c2064a11e5a7af57339b93f2de7a68fb06f5133"
    "0dbf05c1cf74d2dff07ee01279796d31c0b2aa65a5763bfbfd8e301e961b0b16"
    "30e8c9a99dcc4133d9dd5c691fc1bea42a04ac9eb727a237888d6a917e39203c",
    16,
)


_W = 5  # bits of the exponent each row of the comb for _G consumes
_ROWS = -(-_Q.bit_length() // _W)  # 52 rows cover every exponent below q


@functools.cache
def _g_table() -> tuple[tuple[int, ...], ...]:
    """The fixed-base comb for _G: row i holds _G^(j * 2^(W*i)) mod p for j
    in [0, 2^W).  Built on first use, never at import."""
    rows, base = [], _G
    for _ in range(_ROWS):
        row = [1]
        for _ in range((1 << _W) - 1):
            row.append(row[-1] * base % _P)
        rows.append(tuple(row))
        base = row[-1] * base % _P  # base^(2^W), the next row's base
    return tuple(rows)


def _g_pow(k: int) -> int:
    """_G^k mod p, one table entry per W-bit digit of k (least significant
    first): about 51 modular products where pow takes about 300."""
    if not 0 <= k < 1 << (_W * _ROWS):
        raise ValueError(f"exponent outside [0, 2^{_W * _ROWS})")
    r, mask = 1, (1 << _W) - 1
    for row in _g_table():
        r = r * row[k & mask] % _P
        k >>= _W
    return r


def _h_int(h, *parts: bytes) -> int:
    """The digest of hash object h over length-prefixed parts, as an int."""
    for part in parts:
        h.update(len(part).to_bytes(4, "big") + part)
    return int.from_bytes(h.digest(), "big")


class SchnorrSignature:
    """Schnorr signatures in the order-q subgroup of Z_p^*.

    Nonces are derived deterministically from the secret key and message,
    so signing is reproducible across runs.  The nonce reduces a 512-bit
    digest mod the 256-bit q, so its bias is about 2^-256.

    Every power of the fixed generator g (g^sk in keygen, g^k in sign, g^s
    in verify) is read from a fixed-base comb (Brickell, Gordon, McCurley
    and Wilson, 1992): 52 rows of 2^5 entries, row i holding
    g^(j * 2^(5i)), 1,664 ints of 2048 bits, about 0.5 MB.  The table is
    built on the first signature operation of a process, not at import.
    It gives the same values as ``pow``; verify still raises the per-session
    key with ``pow``.  Like ``pow``, the comb is not constant-time: its
    memory reads follow the exponent's digits, which is acceptable only
    because this is a desk model, not a signer to deploy.
    """

    def keygen(self, rng: random.Random) -> tuple[int, int]:
        sk = rng.randrange(1, _Q)
        pk = _g_pow(sk)
        return pk, sk

    def sign(self, sk: int, msg: bytes) -> tuple[int, int]:
        k = _h_int(hashlib.sha512(), b"nonce", sk.to_bytes(32, "big"), msg) % _Q
        if k == 0:
            k = 1
        r = _g_pow(k)
        e = _h_int(hashlib.sha256(), b"chal", r.to_bytes(256, "big"), msg) % _Q
        s = (k - sk * e) % _Q
        return e, s

    def verify(self, pk: int, msg: bytes, sig) -> bool:
        try:
            e, s = sig
        except (TypeError, ValueError):
            return False
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (e, s)):
            return False  # not coerced: int() would parse a str and truncate a Fraction
        if not (0 <= e < _Q and 0 <= s < _Q):
            return False
        r = _g_pow(s) * pow(pk, e, _P) % _P
        return _h_int(hashlib.sha256(), b"chal", r.to_bytes(256, "big"), msg) % _Q == e


def signing_bytes(sid: str, h: int) -> bytes:
    """Canonical bytes signed by the witness device: a domain tag, the
    length-prefixed UTF-8 session id, and h >= 0 big-endian in 32 bytes or the fewest that hold it."""
    sid_b, h_len = sid.encode("utf-8"), max(32, (h.bit_length() + 7) // 8)
    return b"zkpol-sig-v1" + len(sid_b).to_bytes(4, "big") + sid_b + h.to_bytes(h_len, "big")


# -- witness store and relation ------------------------------------------


class TrailStore:
    """Holds the raw trail; every read is recorded with the reader's
    context label so tests can audit who touched prover-only data."""

    def __init__(self, points):
        self._points = tuple(points)
        self.access_log: list[str] = []

    def read(self, reader: str):
        self.access_log.append(reader)
        return self._points


def policy_holds(trail_points, ad: AuthorityData) -> bool:
    """The relation R evaluated in plaintext (prover-local): the instance
    validates and the oracle accepts it.  R does not involve the hash."""
    try:
        inst = StatementInstance(ad, Trail(tuple(trail_points)))
    except statements.InstanceError:
        return False
    return statements.oracle_verdict(inst)


def trail_hash(trail_points, ad: AuthorityData) -> int:
    trail = Trail(tuple(trail_points))
    return statements.honest_hash(ad, trail)


def _signable_hash(trail_points, ad: AuthorityData) -> int | None:
    """The trail hash, or None when n_traj is not an int, the trail's
    length lies outside (0, n_traj], ad's pack is not an int in
    [1, field_params.pack] or a point is not a pair of ints (bools
    excluded): no instance of the statement admits the trail, so there is
    nothing to sign or prove."""
    n, pack = ad.n_traj, ad.pack
    if isinstance(n, bool) or not isinstance(n, int) or not 0 < len(trail_points) <= n:
        return None
    if isinstance(pack, bool) or not isinstance(pack, int) or not 1 <= pack <= ad.field_params.pack:
        return None
    if not all(isinstance(pt, (tuple, list)) and len(pt) == 2
               and all(isinstance(v, int) and not isinstance(v, bool) for v in pt)
               for pt in trail_points):
        return None
    return trail_hash(trail_points, ad)


def fzk_check(ad: AuthorityData, h: int, store: TrailStore) -> bool:
    """Constraint-check stand-in for the ideal ZK functionality: build the
    statement circuit from (AD, h) and the submitted witness, evaluate."""
    points = store.read("fzk")
    try:
        inst = StatementInstance(ad, Trail(points), h)
    except statements.InstanceError:
        return False
    return statements.build_statement(inst, ConstraintSystem(ad.field_params)).check().satisfied


# -- machines ------------------------------------------------------------


class WitnessDevice:
    def __init__(self, scheme: SchnorrSignature, hash_fn):
        self.scheme = scheme
        self.hash_fn = hash_fn  # points -> int, or None when unsignable
        self.sid = None
        self.pk = None
        self._sk = None
        self.coords: list = []

    def handle(self, cmd: tuple, rng: random.Random):
        name = cmd[0]
        if name == "init":
            self.sid = cmd[1]
            self.pk, self._sk = self.scheme.keygen(rng)
            self.coords = []
            return [("witpk", self.sid, self.pk)]
        if self.sid is None:
            raise ProtocolOrderViolation(f"{name} before init")
        if name == "move":
            _, sid, point = cmd
            self.coords.append(point)  # as given: a malformed move leaves the trail unsigned
            return []
        if name == "getcoords":
            h = self.hash_fn(self.coords)
            sigma = None if h is None else self.scheme.sign(self._sk, signing_bytes(self.sid, h))
            return [("coords", self.sid, tuple(self.coords), sigma)]
        raise ProtocolOrderViolation(f"unknown command {name!r}")


@dataclass
class SessionTranscript:
    sid: str
    scenario: str
    messages: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    witness_access_log: list = field(default_factory=list)

    def record(self, sender: str, receiver: str, payload):
        self.messages.append({"from": sender, "to": receiver, "payload": _plain(payload)})

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "sid": self.sid,
            "scenario": self.scenario,
            "messages": self.messages,
            "outputs": dict(self.outputs),
            "witness_access_log": list(self.witness_access_log),
        }


def _plain(obj):
    """Transcript-friendly representation (big ints as decimal strings)."""
    if isinstance(obj, int) and abs(obj) >= 2**63:
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (SubsidyPolicy, TaxPolicy)):
        return repr(obj)
    return obj


# -- session driver ------------------------------------------------------


def run_session(
    scenario: str,
    ad_p: AuthorityData,
    moves,
    ad_v: AuthorityData | None = None,
    sid: str = "session-1",
    seed: int = 0,
    prover_tamper=None,
    verifier_tamper=None,
) -> SessionTranscript:
    """Drive one full session and return its transcript.

    scenario is one of "honest", "corrupt_prover", "corrupt_verifier".
    Tamper specs are pure functions rewriting the corrupted party's
    outgoing messages: prover_tamper(kind, payload) -> payload where kind
    is "sig" (payload (h, sigma)) or "fzk" (payload (ad, h, points));
    verifier_tamper(ad_v, h) -> (ad_v, h) rewrites what the verifier
    submits to the ZK check.  The witness device keeps each move as it is
    given; a trail whose length lies outside (0, n_traj], or with a point
    that is not a pair of ints, is left unsigned and ends not_ok for both
    parties, as it does in ``ideal_outputs``.

    The device is trusted, so the prover does not verify its signature; the
    verifier does, once, and that binds the h it receives.
    """
    if scenario not in ("honest", "corrupt_prover", "corrupt_verifier"):
        raise InvalidScenario(f"unknown scenario {scenario!r}")
    if prover_tamper is not None and verifier_tamper is not None:
        raise InvalidScenario("at most one party may be corrupted")
    if scenario == "honest" and (prover_tamper or verifier_tamper):
        raise InvalidScenario("honest scenario admits no tampering")

    ad_v = ad_v if ad_v is not None else ad_p
    rng = random.Random(seed)
    scheme = SchnorrSignature()
    witness = WitnessDevice(scheme, lambda pts: _signable_hash(pts, ad_p))
    transcript = SessionTranscript(sid=sid, scenario=scenario)

    # init + moves
    for out in witness.handle(("init", sid), rng):
        transcript.record("witness", "prover+verifier", out)
    pk = witness.pk
    for point in moves:
        witness.handle(("move", sid, point), rng)
        transcript.record("env", "witness", ("move", sid, point))

    # Prover turn.
    transcript.record("env", "prover", ("prove", sid))
    transcript.record("prover", "witness", ("getcoords", sid))
    (_, _, points, sigma) = witness.handle(("getcoords", sid), rng)[0]
    transcript.record("witness", "prover", ("coords", sid, points, sigma))
    store = TrailStore(points)

    prover_out = "not_ok"
    sig_msg = fzk_submission = None
    h = _signable_hash(store.read("prover"), ad_p)
    if h is not None and policy_holds(store.read("prover"), ad_p):
        prover_out = "ok"
        sig_msg = (h, sigma)
        fzk_submission = (ad_p, h, store.read("prover"))
        if prover_tamper is not None:
            sig_msg = prover_tamper("sig", sig_msg)
            fzk_submission = prover_tamper("fzk", fzk_submission)
        transcript.record("prover", "verifier", ("sig", sid, sig_msg[0], "sigma"))
        transcript.record("prover", "fzk", ("prove!", sid))

    # Verifier turn.
    transcript.record("env", "verifier", ("verify", sid))
    verifier_out = "not_ok"
    if sig_msg is not None:
        h_recv, sigma_recv = sig_msg
        if type(h_recv) is int and h_recv >= 0 and scheme.verify(pk, signing_bytes(sid, h_recv), sigma_recv):
            ad_check, h_check = ad_v, h_recv
            if verifier_tamper is not None:
                ad_check, h_check = verifier_tamper(ad_check, h_check)
            transcript.record("verifier", "fzk", ("prove?", sid))
            # F_ZK: instances must agree and the relation must hold.
            sub_ad, sub_h, sub_points = fzk_submission
            sub_store = TrailStore(sub_points)
            if sub_ad == ad_check and sub_h == h_check and fzk_check(
                ad_check, h_check, sub_store
            ):
                verifier_out = "ok"
                transcript.record("fzk", "verifier", ("proven", sid))
            store.access_log.extend(sub_store.access_log)

    transcript.outputs = {"prover": prover_out, "verifier": verifier_out}
    transcript.witness_access_log = list(store.access_log)
    return transcript


# -- ideal functionality reference --------------------------------------


def ideal_outputs(
    trail_points,
    ad_p: AuthorityData,
    ad_v: AuthorityData,
    corrupted: str | None = None,
    adversary_result: str | None = None,
) -> dict:
    """Per-party outputs of the ideal functionality for relation R.

    corrupted is None, "prover", or "verifier"; adversary_result, when a
    party is corrupted, is the output the adversary forces for it.
    """
    if corrupted not in (None, "prover", "verifier"):
        raise InvalidScenario(f"unknown corruption {corrupted!r}")
    res_p = policy_holds(trail_points, ad_p)
    res_v = ad_p == ad_v and policy_holds(trail_points, ad_v)
    if corrupted == "prover" and adversary_result is not None:
        res_p = adversary_result == "ok"
    if corrupted == "verifier" and adversary_result is not None:
        res_v = adversary_result == "ok"
    return {
        "prover": "ok" if res_p else "not_ok",
        "verifier": "ok" if res_v else "not_ok",
    }
