"""The two proof statements: EV subsidy and highway tax.

Each builder lays down the full circuit for one statement instance on a
caller-supplied ConstraintSystem and returns a handle whose ``check``
method evaluates the system and reports satisfiability plus gate
counters.  Both statements share one circuit segment walk, split by a
per-point membership bit; a builder supplies only its geometry wiring,
that bit and its final assertions.

The paper's relation is R(AD, h; trail).  ``AuthorityData`` is AD, the
public half that both parties hold; it checks nothing when it is
constructed.  A ``StatementInstance`` is (AD, trail, h_ex), and it checks
itself with ``validate_instance`` when it is constructed, so builders,
loaders and the protocol take it as valid.  Hint parameters allow tests
to substitute adversarial prover-local values (square roots, triangle
indices) while keeping the rest of the witness honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import ConstraintSystem, Domain, SatisfactionReport
from .field import FieldParams, widths
from . import gadgets, localcalc
from .poseidon import PoseidonParamError, PoseidonParams, params_for


MAX_N_TRAJ = 4096  # desk-scale cap on n_traj for every entry point
MAX_N_GEO = 4096  # desk-scale cap on the number of circles or triangles
# Desk-scale cap on n_traj x (circles or triangles).  At the widest
# coordinates the default field admits (40 bits), an ev point costs about
# 185 muls and each (point, circle) pair 85 more, so the worst shape under
# the caps, ev 4096 points x 4 circles, is about 2.2 M muls (4096 x 4096
# would be about 1.4 G); tax costs 453 per point and 7 per pair.
MAX_N_PAIRS = 16_384


class InstanceError(Exception):
    pass


@dataclass(frozen=True)
class Trail:
    """Raw coordinate trail; padding repeats the last real point, so padded
    segments have zero length and never change tot/cc/hw."""

    points: tuple[tuple[int, int], ...]

    @property
    def declared_len(self) -> int:
        return len(self.points)

    def padded(self, n_traj: int) -> list[tuple[int, int]]:
        pts = list(self.points)
        pts.extend(pts[-1:] * (n_traj - len(pts)))
        return pts


@dataclass(frozen=True)
class CircleSet:
    circles: tuple[tuple[int, int, int], ...]  # (u, v, r)

    @property
    def count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True)
class TriangleSet:
    triangles: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.triangles)

    @classmethod
    def oriented(cls, triangles) -> "TriangleSet":
        """Re-orient clockwise triangles (swap vertices 2 and 3);
        degenerate ones stay as they are, for validation to reject."""
        out = []
        for tri in triangles:
            (x1, y1), (x2, y2), (x3, y3) = tri
            if localcalc.area_dbl_sgn(x1, y1, x2, y2, x3, y3) < 0:
                tri = ((x1, y1), (x3, y3), (x2, y2))
            out.append(tuple(tuple(v) for v in tri))
        return cls(tuple(out))


@dataclass(frozen=True)
class SubsidyPolicy:
    d_req: int
    p_req: int


@dataclass(frozen=True)
class TaxPolicy:
    d_max: int


@dataclass(frozen=True)
class AuthorityData:
    """AD: everything the verifier knows about the statement (policy,
    geometry, sizes, field and hash parameters), never prover-only
    material.  It checks nothing on construction: a session over invalid
    authority data ends not_ok, when the instance over it fails to
    validate."""

    kind: str  # "ev" | "tax"
    n_traj: int
    policy: SubsidyPolicy | TaxPolicy
    geometry: CircleSet | TriangleSet
    field_params: FieldParams
    pp: PoseidonParams


@dataclass(frozen=True)
class StatementInstance:
    """A statement over authority data and a trail.  Constructing one runs
    ``validate_instance``, so every instance that exists is valid; an h_ex
    of None is then replaced by the honest hash of the trail."""

    ad: AuthorityData
    trail: Trail
    h_ex: int | None = None

    def __post_init__(self):
        validate_instance(self)
        if self.h_ex is None:
            object.__setattr__(self, "h_ex", honest_hash(self.ad.pp, self.trail, self.ad.n_traj))

    @property
    def field_params(self) -> FieldParams:
        """The field a circuit over this instance is built in."""
        return self.ad.field_params


def trail_message(trail: Trail, n_traj: int) -> list[int]:
    """The padded trail as it is hashed and wired: every x, then every y."""
    pts = trail.padded(n_traj)
    return [x for x, _ in pts] + [y for _, y in pts]


def honest_hash(pp: PoseidonParams, trail: Trail, n_traj: int) -> int:
    return localcalc.poseidon_digest_ref(trail_message(trail, n_traj), pp)


def _check_geometry_count(ad: AuthorityData, pointer: str) -> None:
    n_geo = ad.geometry.count
    if not 1 <= n_geo <= MAX_N_GEO:
        raise InstanceError(f"{pointer}: outside desk-scale cap [1, {MAX_N_GEO}]")
    if ad.n_traj * n_geo > MAX_N_PAIRS:
        raise InstanceError(
            f"{pointer}: n_traj x count = {ad.n_traj * n_geo} above desk-scale cap {MAX_N_PAIRS}")


def validate_instance(inst: StatementInstance) -> None:
    """Raise InstanceError unless the circuit decides inst exactly as the
    oracle does; ``StatementInstance`` runs it when it is constructed, and
    no one else does.  Each message starts with the JSON pointer of the
    offending field in the instance file format.

    Beyond the ranges of the sizes (and of n_traj x the geometry count),
    trail length, coordinates, radii, triangle orientation and policy
    values, the statement's widest comparison m must fit below p,
    2^(m+1) < p: for ev that is ``widths(...).cover``, for tax the wider
    of tot and bary (see ``field.widths``).  A small prime with a long
    trail fails this check.
    """
    ad = inst.ad
    fp = ad.field_params
    k = fp.coord_bits
    bound = 1 << k
    if ad.kind not in ("ev", "tax"):
        raise InstanceError(f"/kind: unknown statement kind {ad.kind!r}")
    if not 1 <= ad.n_traj <= MAX_N_TRAJ:
        raise InstanceError(f"/sizes/n_traj: outside desk-scale cap [1, {MAX_N_TRAJ}]")
    if not 0 < inst.trail.declared_len <= ad.n_traj:
        raise InstanceError("/trail/points: trail length outside (0, n_traj]")
    for i, (x, y) in enumerate(inst.trail.points):
        if not (0 <= x < bound and 0 <= y < bound):
            raise InstanceError(f"/trail/points/{i}: outside [0, 2^{k})")
    w = widths(k, ad.n_traj)
    if ad.kind == "ev":
        if not isinstance(ad.geometry, CircleSet) or not isinstance(ad.policy, SubsidyPolicy):
            raise InstanceError("/geometry: ev instance needs CircleSet + SubsidyPolicy")
        _check_geometry_count(ad, "/geometry/circles")
        for i, (u, v, r) in enumerate(ad.geometry.circles):
            if not (0 <= u < bound and 0 <= v < bound and 0 < r < bound):
                raise InstanceError(f"/geometry/circles/{i}: out of coordinate range")
        if not 0 <= ad.policy.p_req <= 100:
            raise InstanceError("/policy/p_req: must be in [0, 100]")
        if ad.policy.d_req < 0:
            raise InstanceError("/policy/d_req: must be non-negative")
        if ad.policy.d_req >= 1 << w.tot:
            raise InstanceError("/policy/d_req: exceeds the accumulator width")
        m = w.cover
    else:
        if not isinstance(ad.geometry, TriangleSet) or not isinstance(ad.policy, TaxPolicy):
            raise InstanceError("/geometry: tax instance needs TriangleSet + TaxPolicy")
        _check_geometry_count(ad, "/geometry/triangles")
        for j, tri in enumerate(ad.geometry.triangles):
            for v, (x, y) in enumerate(tri):
                if not (0 <= x < bound and 0 <= y < bound):
                    raise InstanceError(f"/geometry/triangles/{j}/{v}: out of range")
            a = localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2])
            if a == 0:
                raise InstanceError(f"/geometry/triangles/{j}: degenerate triangle {tri}")
            if a < 0:
                raise InstanceError(f"/geometry/triangles/{j}: not positively oriented")
        if ad.policy.d_max < 0:
            raise InstanceError("/policy/d_max: must be non-negative")
        m = max(w.tot, w.bary)
    if 1 << (m + 1) >= fp.modulus:
        raise InstanceError(
            f"/field_params/modulus: too small for a {m}-bit comparison "
            f"(coord_bits={k}, n_traj={ad.n_traj}); need p > 2^{m + 1}"
        )


def make_instance(kind, field_params, n_traj, policy, geometry, trail, pp=None, h_ex=None) -> StatementInstance:
    """A validated instance, with the Poseidon parameters of the field
    unless pp is given and the honest trail hash unless h_ex is given."""
    if pp is None:
        try:
            pp = params_for(field_params)
        except PoseidonParamError as exc:
            raise InstanceError(f"no Poseidon parameters for this field: {exc}") from exc
    ad = AuthorityData(kind, n_traj, policy, geometry, field_params, pp)
    return StatementInstance(ad, trail, h_ex)


@dataclass
class StatementHandle:
    cs: ConstraintSystem
    trail_input_ids: list[int]
    digest_assertion: int  # index of the assertion digest == h_ex
    roots: list[tuple[list[int], range]]  # per segment: root inputs, assertions

    def check(self, overrides: dict[int, int] | None = None) -> SatisfactionReport:
        return self.cs.evaluate_and_check(overrides)


def _wire_trail(cs: ConstraintSystem, inst: StatementInstance):
    pts = inst.trail.padded(inst.ad.n_traj)
    xs = [cs.wire_input(x, Domain.PROVER) for x, _ in pts]
    ys = [cs.wire_input(y, Domain.PROVER) for _, y in pts]
    digest = gadgets.poseidon_hash(cs, xs + ys, inst.ad.pp)
    h_ex = cs.wire_input(inst.h_ex, Domain.SHARED)
    digest_assertion = len(cs._assertions)
    cs.assert_eq(digest, h_ex)
    return pts, xs, ys, digest_assertion


def _segment_walk(cs, xs, ys, inside, k_seg, sqrt_hints=None):
    """Circuit twin of ``localcalc.segment_walk``: (tot, both, roots).

    ``inside(i)`` wires point i's membership bit.  Segment lengths are
    exact roots (``gadgets.sqrt_floor`` at k_seg bits); both sums the lengths of the
    segments with both endpoints inside, and roots holds each root's
    prover inputs and assertion indices.
    """
    tot = both = cs.const(0)
    roots = []
    in_prev = inside(0)
    for i in range(1, len(xs)):
        in_cur = inside(i)
        dx = cs.sub(xs[i], xs[i - 1])
        dy = cs.sub(ys[i], ys[i - 1])
        sq = cs.add(cs.mul(dx, dx), cs.mul(dy, dy))
        hint = sqrt_hints[i - 1] if sqrt_hints is not None else None
        first = len(cs._assertions)
        d, wired = gadgets.sqrt_floor(cs, sq, k_seg, hint)
        roots.append((wired, range(first, len(cs._assertions))))
        tot = cs.add(tot, d)
        both = cs.oblivious_choice(cs.mul(in_prev, in_cur), cs.add(both, d), both)
        in_prev = in_cur
    return tot, both, roots


def build_ev_subsidy(
    inst: StatementInstance,
    cs: ConstraintSystem,
    sqrt_hints: list[int] | None = None,
) -> StatementHandle:
    """Circuit for the subsidy statement.

    Binds the trail to h_ex, walks the segments with circle membership as
    the inside bit (tot, and cc for the in-circles length), and asserts
    d_req <= tot and tot * p_req <= cc * 100.  Segment lengths are exact
    roots: an understated length outside the circles would shrink tot
    while cc stays put and inflate the coverage share.
    """
    ad = inst.ad
    if ad.kind != "ev":
        raise InstanceError("not an ev instance")
    w = widths(ad.field_params.coord_bits, ad.n_traj)
    _, xs, ys, digest_assertion = _wire_trail(cs, inst)
    us = [cs.wire_input(u, Domain.SHARED) for u, _, _ in ad.geometry.circles]
    vs = [cs.wire_input(v, Domain.SHARED) for _, v, _ in ad.geometry.circles]
    ss = [cs.wire_input(r * r, Domain.SHARED) for _, _, r in ad.geometry.circles]

    def inside(i):
        return gadgets.check_inside(cs, us, vs, ss, xs[i], ys[i], w.circle)

    tot, cc, roots = _segment_walk(cs, xs, ys, inside, w.seg, sqrt_hints)
    d_req = cs.wire_input(ad.policy.d_req, Domain.SHARED)
    gadgets.assert_leq(cs, d_req, tot, w.tot)
    p_req = cs.wire_input(ad.policy.p_req, Domain.SHARED)
    lhs = cs.mul(tot, p_req)
    rhs = cs.affine([100], [cc])
    gadgets.assert_leq(cs, lhs, rhs, w.cover)
    return StatementHandle(cs, xs + ys, digest_assertion, roots)


def build_highway_tax(
    inst: StatementInstance,
    cs: ConstraintSystem,
    sqrt_hints: list[int] | None = None,
    tri_hints: list[int] | None = None,
) -> StatementHandle:
    """Circuit for the highway-tax statement.

    Per point the prover locally finds a containing triangle; the circuit
    looks up that triangle's whole (x1, x2, x3, y1, y2, y3) row with one
    selector vector and verifies the barycentric membership claim.  The
    segment walk's both-inside length hw is the length off the taxed
    road, and the final assertion bounds tot - hw by d_max.
    """
    ad = inst.ad
    if ad.kind != "tax":
        raise InstanceError("not a tax instance")
    w = widths(ad.field_params.coord_bits, ad.n_traj)
    tris = ad.geometry.triangles
    pts, xs, ys, digest_assertion = _wire_trail(cs, inst)
    rows = [
        tuple(cs.wire_input(vx, Domain.SHARED) for vx, _ in tri)
        + tuple(cs.wire_input(vy, Domain.SHARED) for _, vy in tri)
        for tri in tris
    ]

    def inside(i):
        x, y = pts[i]
        if tri_hints is not None and tri_hints[i] is not None:
            t_i = tri_hints[i]
        else:
            t_i = localcalc.find_triangle(x, y, tris)
        ref = tris[t_i - 1] if 1 <= t_i <= len(tris) else tris[0]
        bc = localcalc.get_bcoords(x, y, *ref[0], *ref[1], *ref[2])
        row = gadgets.lookup(cs, t_i, rows)
        return gadgets.check_inside_triangle(cs, row, xs[i], ys[i], (bc.s, bc.t), w.bary)

    tot, hw, roots = _segment_walk(cs, xs, ys, inside, w.seg, sqrt_hints)
    taxed = cs.sub(tot, hw)
    # d_max beyond the accumulator width always satisfies; clamp keeps the
    # comparison in range without changing the verdict.
    d_max = min(ad.policy.d_max, (1 << w.tot) - 1)
    gadgets.assert_leq(cs, taxed, cs.wire_input(d_max, Domain.SHARED), w.tot)
    return StatementHandle(cs, xs + ys, digest_assertion, roots)


def build_statement(inst: StatementInstance, cs: ConstraintSystem, **hints) -> StatementHandle:
    if inst.ad.kind == "ev":
        return build_ev_subsidy(inst, cs, **hints)
    return build_highway_tax(inst, cs, **hints)


def oracle_verdict(inst: StatementInstance) -> bool:
    ad = inst.ad
    pts = inst.trail.padded(ad.n_traj)
    if ad.kind == "ev":
        return localcalc.oracle_ev(pts, ad.geometry.circles, ad.policy)
    return localcalc.oracle_hwtax(pts, ad.geometry.triangles, ad.policy)


def _dummy_instance(kind: str, n_traj: int, n_geo: int, field_params: FieldParams) -> StatementInstance:
    trail = Trail(((1, 1),))  # padded to n_traj copies of (1, 1)
    if kind == "ev":
        geometry = CircleSet(tuple((1, 1, 1) for _ in range(n_geo)))
        policy = SubsidyPolicy(d_req=0, p_req=0)
    else:
        geometry = TriangleSet.oriented([((0, 0), (1, 0), (0, 1))] * n_geo)
        policy = TaxPolicy(d_max=0)
    return make_instance(kind, field_params, n_traj, policy, geometry, trail)


def statement_cost(kind: str, n_traj: int, n_geo: int, field_params: FieldParams | None = None) -> dict[str, int]:
    """Gate counters of a statement as a function of its sizes only."""
    if not 1 <= n_geo <= MAX_N_GEO:
        raise InstanceError(f"n_geo: outside desk-scale cap [1, {MAX_N_GEO}]")
    if n_traj * n_geo > MAX_N_PAIRS:
        raise InstanceError(f"n_traj x n_geo: {n_traj * n_geo} above desk-scale cap {MAX_N_PAIRS}")
    fp = field_params or FieldParams()
    inst = _dummy_instance(kind, n_traj, n_geo, fp)
    cs = ConstraintSystem(fp)
    build_statement(inst, cs)
    return cs.counters.as_dict()
