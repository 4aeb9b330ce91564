"""Poseidon-style permutation parameters.

Round constants are derived deterministically from a byte seed:

    candidate(j, i) = SHAKE-256(seed || j_be8 || i_be4), read as a
    big-endian integer of ceil((bitlen(p)-1)/8) bytes, masked to the
    lowest bitlen(p)-1 bits.

The j-th constant is the first candidate (i = 0, 1, ...) below p.  The MDS
matrix is the Cauchy matrix M[i][j] = 1/(x_i + y_j) with x_i = i and
y_j = t + j (see ``_cauchy_mds`` for why it is invertible).  Both are
always derived, never given.  No byte compatibility with any external
Poseidon instance is intended.

Round numbers.  ``round_numbers`` derives (R_F, R_P) for a prime p of
n = bitlen(p) bits, width t and S-box x^alpha at M = ``SECURITY`` = 128
bits of security from the inequalities of the Poseidon paper (Grassi et
al., USENIX Security 2021, eprint 2019/458, and its round-number script),
with the binomial bound that eprint 2023/537 added.  Writing log_a for the logarithm to base
alpha, a pair (R_F, R_P) is secure when

    statistical    R_F >= 6 if M <= floor(log2 p - (alpha-1)/2) * (t+1), else 10
    interpolation  R_F >= 1 + ceil(log_a 2 * min(M, n)) + ceil(log_a t) - R_P
    Groebner 1     R_F >= log_a 2 * min(M, log2 p) - R_P
    Groebner 2     R_F >= t - 1 + log_a 2 * min(M/(t+1), log2(p)/2) - R_P
    Groebner 3     R_F >= (t - 2 + M/(2 log2 alpha) - R_P) / (t - 1)
    binomial       ceil(2 log2 C(v, u)) >= M, with r = floor(t/3),
                   v = (R_F - 1) t + 2 R_P + r + r R_F/2 + alpha and
                   u = r R_F/2 + R_P + alpha

with the right-hand sides of the Groebner bounds rounded up.  The search
takes the secure pair with the fewest S-boxes, t R_F + R_P, then adds the
paper's margin: R_F + 2 and ceil(1.075 R_P).  For p = 2^127 - 1,
alpha = 5 and M = 128:

    t    fewest S-boxes    with margin (R_F, R_P)
    3    (6, 51)           (8, 55)
    5    (6, 51)           (8, 55)
    9    (6, 52)           (8, 56)

The default width is t = 9 (rate 8), the width Filecoin uses for its
arity-8 Poseidon trees: 64 permutations of 3 (9 R_F + R_P) = 384
multiplications hash a 256-point trail, against 256 of 240 at t = 3.
Instance files written with the v1 parameters (t = 3, R_F = 8, R_P = 56,
seed ``zk-pol-poseidon-v1``) keep them; see ``appio.instance_from_doc``.

Factored form.  The permutation is R_F/2 full rounds, R_P partial rounds
and R_F/2 full rounds; each adds t constants, applies x^alpha to every
lane (full) or to lane 0 only (partial), then multiplies by the MDS
matrix M.  Both the reference (``localcalc.poseidon_permutation_ref``)
and the circuit (``ConstraintSystem.poseidon_rounds``) run the same
permutation rewritten as in Appendix B of eprint 2019/458, derived once
per parameter set into ``PoseidonParams.factored`` by ``_factor_rounds``:

- each partial round adds one constant, on lane 0; the others are pushed
  forward through M, and the residue lands on the first full round after
  the partial rounds;
- each partial round multiplies by a sparse matrix [[m00, row0],
  [col, I]], which costs 2(t - 1) additions instead of t(t - 1);
- the last full round before the partial rounds multiplies by the dense
  diag(1, A^R_P) M, A being the lower-right (t-1) x (t-1) block of M;
  every other full round by M.

Outputs are those of the dense form (the tests check them against a
straight-line dense permutation); intermediate states differ.  Per
permutation the circuit counts R_F t (t - 1) + 2 R_P (t - 1) linear adds
plus one per non-zero constant (t per full round, one per partial round):
1,600 at t = 9, R_F = 8, R_P = 56, against 5,184 for the dense form.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .field import FieldParams

DEFAULT_SEED = b"zk-pol-poseidon-v2"
DEFAULT_T = 9  # state width of the default set (rate 8)
DEFAULT_ALPHA = 5
SECURITY = 128  # M, bits of security the round numbers are derived for
MAX_T = 16  # widest state: round_numbers is verified and tested for t = 2..16
# Caps on the parameters an instance file may give, checked before any
# constant is derived; derived round numbers peak at R_F 12 and R_P 85 for
# t <= MAX_T and alpha in {3, 5, 7} at a 127-bit prime.
MAX_ALPHA = 255
MAX_R_FULL = 64
MAX_R_PARTIAL = 1024


class PoseidonParamError(Exception):
    pass


def _derive_constant(seed: bytes, j: int, p: int) -> int:
    nbytes = math.ceil((p.bit_length() - 1) / 8)
    mask = (1 << (p.bit_length() - 1)) - 1
    for attempt in range(1000):
        h = hashlib.shake_256(seed + j.to_bytes(8, "big") + attempt.to_bytes(4, "big"))
        c = int.from_bytes(h.digest(nbytes), "big") & mask
        if c < p:
            return c
    raise PoseidonParamError("constant derivation failed to terminate")


def _statistical_r_full(prime: int, t: int, alpha: int) -> int:
    fits = SECURITY <= math.floor(math.log2(prime) - (alpha - 1) / 2) * (t + 1)
    return 6 if fits else 10


def _secure(prime: int, t: int, alpha: int, r_full: int, r_partial: int) -> bool:
    """Whether (r_full, r_partial), before the margin, meets every bound in
    the module docstring."""
    m, log2p, log_a2 = SECURITY, math.log2(prime), math.log(2, alpha)
    log_a_t = next(k for k in range(t) if alpha**k >= t)  # ceil(log_alpha t), exact
    lower = (
        _statistical_r_full(prime, t, alpha),
        1 + math.ceil(log_a2 * min(m, prime.bit_length())) + log_a_t - r_partial,
        math.ceil(log_a2 * min(m, log2p) - r_partial),
        math.ceil(t - 1 + log_a2 * min(m / (t + 1), log2p / 2) - r_partial),
        math.ceil((t - 2 + m / (2 * math.log2(alpha)) - r_partial) / (t - 1)),
    )
    if r_full < max(lower):
        return False
    r = t // 3
    over = (r_full - 1) * t + 2 * r_partial + r + r * (r_full // 2) + alpha
    under = r * (r_full // 2) + r_partial + alpha
    return math.ceil(2 * math.log2(math.comb(over, under))) >= m


def _fewest_sboxes(prime: int, t: int, alpha: int) -> tuple[int, int]:
    """The secure (R_F, R_P) with the fewest S-boxes t R_F + R_P, before the
    margin.  R_F runs over four even values from the statistical bound up
    (6..12 or 10..16); each R_F takes the least R_P that is secure, which
    exists because every other bound loosens as R_P grows."""
    lowest = _statistical_r_full(prime, t, alpha)
    best = None
    for r_full in range(lowest, lowest + 8, 2):
        r_partial = 1
        while not _secure(prime, t, alpha, r_full, r_partial):
            r_partial += 1
        if best is None or t * r_full + r_partial < t * best[0] + best[1]:
            best = (r_full, r_partial)
    return best


@lru_cache(maxsize=64)
def round_numbers(prime: int, t: int, alpha: int) -> tuple[int, int]:
    """(R_F, R_P) for ``SECURITY`` bits: the fewest S-boxes that meet every
    bound, plus the margin R_F + 2 and ceil(1.075 R_P) = ceil(43 R_P / 40)."""
    r_full, r_partial = _fewest_sboxes(prime, t, alpha)
    return r_full + 2, -(-43 * r_partial // 40)


def _cauchy_mds(t: int, p: int) -> list[list[int]]:
    """M[i][j] = 1/(x_i + y_j) with x_i = i and y_j = t + j, invertible with
    no check: the x_i are distinct, and so are the y_j, and every x_i + y_j
    lies in [t, 3t - 2], within [2, 46] for t <= MAX_T, so it is non-zero
    mod any prime FieldParams admits (p > 2^9, so p >= 521).  The Cauchy
    determinant, prod (x_j - x_i)(y_j - y_i) over i < j divided by
    prod (x_i + y_j), is then non-zero."""
    return [[pow(i + t + j, -1, p) for j in range(t)] for i in range(t)]


def _mat_vec(m, v, p: int) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) % p for row in m)


def _mat_mul(a, b, p: int) -> tuple[tuple[int, ...], ...]:
    cols = tuple(zip(*b))
    return tuple(_mat_vec(cols, row, p) for row in a)


def _mat_pow(m, e: int, p: int) -> tuple[tuple[int, ...], ...]:
    out = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    while e:
        if e & 1:
            out = _mat_mul(out, m, p)
        m = _mat_mul(m, m, p)
        e >>= 1
    return out


def _mat_inv(m, p: int) -> tuple[tuple[int, ...], ...]:
    """Gauss-Jordan inverse of an invertible square matrix mod p."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] % p)
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


@dataclass(frozen=True, eq=False)
class FactoredRounds:
    """The permutation of a ``PoseidonParams`` in the factored form of the
    module docstring.  Round r adds ``constants[r]`` (a partial round's
    are 0 off lane 0), applies its S-boxes, then multiplies by ``pp.mds``
    (a full round), ``bridge`` (the last full round before the partial
    rounds) or the sparse matrix [[row0], [col | I]] of ``sparse[j]`` (the
    j-th partial round), which sets lane 0 to row0 . s and lane i to
    s_i + col[i-1] * s_0."""

    constants: tuple[tuple[int, ...], ...]
    bridge: tuple[tuple[int, ...], ...]
    sparse: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (row0, col)


def _factor_rounds(mds, rc, t: int, r_full: int, r_partial: int, p: int) -> FactoredRounds:
    """Appendix B of eprint 2019/458, in two passes.

    Constants, forward: a partial round's lanes 1..t-1 pass its S-box
    unchanged, so their constants can be added after it instead, where M
    carries them into the next round's constants.  Each partial round
    keeps its lane-0 constant; the residue of the last lands on the first
    full round after the partial rounds.

    Matrices, backward from the last partial round: with M = [[m00, m0],
    [m1, A]] split into its first row and column and the lower-right block
    A, a round matrix N_j = diag(1, A^j) M (N_0 = M) factors as

        N_j = [[m00, m0 A^-(j+1)], [A^j m1, I]] . diag(1, A^(j+1)),

    and diag(1, A^(j+1)) commutes with the partial round's S-box and its
    lane-0 constant, so it moves into the round before, giving N_(j+1).
    The last full round before the partial rounds keeps
    diag(1, A^R_P) M.  A is invertible: it is the Cauchy matrix on
    x_1..x_(t-1) and y_1..y_(t-1), and every square submatrix of a Cauchy
    matrix is a Cauchy matrix, non-singular by the argument of
    ``_cauchy_mds``; every carried block A^(j+1) is a power of it.  So
    one inversion of A and O(R_P t^2) vector steps give every sparse
    round, and O(t^3 log R_P) steps the power for the bridge."""
    half = r_full // 2
    consts = [list(rc[r * t : (r + 1) * t]) for r in range(r_full + r_partial)]
    for r in range(half, half + r_partial):
        rest = [0] + consts[r][1:]
        consts[r][1:] = [0] * (t - 1)
        consts[r + 1] = [(c + d) % p for c, d in zip(consts[r + 1], _mat_vec(mds, rest, p))]
    block = tuple(row[1:] for row in mds[1:])
    block_inv_cols = tuple(zip(*_mat_inv(block, p)))  # v A^-1 = (A^-1)^T v
    row, col = mds[0][1:], tuple(r[0] for r in mds[1:])
    sparse = []
    for _ in range(r_partial):
        row = _mat_vec(block_inv_cols, row, p)
        sparse.append(((mds[0][0], *row), col))
        col = _mat_vec(block, col, p)
    sparse.reverse()
    bridge = (mds[0], *_mat_mul(_mat_pow(block, r_partial, p), mds[1:], p))
    return FactoredRounds(tuple(map(tuple, consts)), bridge, tuple(sparse))


@dataclass(frozen=True)
class PoseidonParams:
    prime: int
    t: int = DEFAULT_T
    alpha: int = DEFAULT_ALPHA
    r_full: int | None = None  # both None: from round_numbers
    r_partial: int | None = None
    seed: bytes = DEFAULT_SEED
    round_constants: tuple[int, ...] = field(init=False, repr=False)
    mds: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    factored: FactoredRounds = field(init=False, repr=False, compare=False)

    @property
    def rate(self) -> int:
        return self.t - 1

    @property
    def n_rounds(self) -> int:
        return self.r_full + self.r_partial

    def __post_init__(self):
        p = self.prime
        if not 2 <= self.t <= MAX_T:
            raise PoseidonParamError(f"state width t={self.t} outside 2..{MAX_T}")
        if not 3 <= self.alpha <= MAX_ALPHA:
            raise PoseidonParamError(f"alpha={self.alpha} must be >= 3 and <= {MAX_ALPHA}")
        if math.gcd(self.alpha, p - 1) != 1:
            raise PoseidonParamError(f"alpha={self.alpha} not coprime with p-1")
        if (self.r_full is None) != (self.r_partial is None):
            raise PoseidonParamError("give both r_full and r_partial, or neither")
        if self.r_full is None:
            r_full, r_partial = round_numbers(p, self.t, self.alpha)
            object.__setattr__(self, "r_full", r_full)
            object.__setattr__(self, "r_partial", r_partial)
        if not 2 <= self.r_full <= MAX_R_FULL or self.r_full % 2 != 0:
            raise PoseidonParamError(f"r_full={self.r_full} must be even and in 2..{MAX_R_FULL}")
        if not 0 <= self.r_partial <= MAX_R_PARTIAL:
            raise PoseidonParamError(f"r_partial={self.r_partial} outside 0..{MAX_R_PARTIAL}")
        rc = tuple(_derive_constant(self.seed, j, p) for j in range(self.t * self.n_rounds))
        object.__setattr__(self, "round_constants", rc)
        object.__setattr__(self, "mds", tuple(tuple(r) for r in _cauchy_mds(self.t, p)))
        object.__setattr__(self, "factored", _factor_rounds(
            self.mds, rc, self.t, self.r_full, self.r_partial, p))


@lru_cache(maxsize=16)
def poseidon_params(prime: int, t: int, alpha: int, r_full: int | None,
                    r_partial: int | None, seed: bytes) -> PoseidonParams:
    """The ``PoseidonParams`` of one parameter set, derived once per process.
    Checks and derivation stay in ``__post_init__``, so a set over its caps
    raises before any constant is derived; a raise is not cached.  Call it
    with all six arguments by position: the cache keys on them as given."""
    return PoseidonParams(prime, t, alpha, r_full, r_partial, seed)


def params_for(field_params: FieldParams) -> PoseidonParams:
    """The default set at field_params' modulus, round numbers from
    ``round_numbers``."""
    return poseidon_params(field_params.modulus, DEFAULT_T, DEFAULT_ALPHA, None, None,
                           DEFAULT_SEED)
