"""The two proof statements: EV subsidy and highway tax.

``build_statement`` lays down the full circuit for one statement
instance on a caller-supplied ConstraintSystem and returns a handle whose
``check`` method evaluates the system and reports satisfiability plus
gate counters.  Both statements are laid down in one pass over the
trail: a per-point membership bit that ``point_inside`` wires the same
way for both, and the exact length of each segment.  Every assertion
lies in one named region (``ConstraintSystem.scope``): trail, digest,
point[0], then point[i] and segment[i - 1] for each later point i, and
policy.  Every prover hint (a named row, a root, a bit) is read from the
values of the wires it speaks of, never from a plaintext copy.

The paper's relation is R(AD, h; trail).  ``AuthorityData`` is AD, the
public half that both parties hold; it checks nothing when it is
constructed.  AD is fixed before any session, so the circuit takes it as
constants (``cs.const`` and affine coefficients): one circuit per AD, and
h_ex is the only shared input.  A ``StatementInstance`` is the plain
value (AD, trail, h_ex), equal to another with the same fields, and it
checks itself with ``validate_instance`` when it is constructed, so
builders, loaders and the protocol take it as valid.  Nothing writes to
it, and construction hashes nothing.  An h_ex of None stands for the
honest hash of the trail: a build over such an instance wires the value
of its own in-circuit hash as h_ex, as it reads every other prover value,
and ``appio.serialize_instance`` writes ``honest_hash``.  The ``digest``
assertion still compares that input with the hash of the trail wires, so
the circuit binds the trail whichever way h_ex was found.
The trail enters the hash packed: region digest range-checks every
coordinate at coord_bits = k bits and absorbs ``ad.pack`` of them per
sponge element, as sum c_j * 2^(kj) (``packing``), which the range
checks make injective below p; the capacity lane is seeded with the
coordinate count 2 * n_traj, so the digest still commits to the length.
Hint parameters allow tests to substitute adversarial prover-local values
(square roots, named rows) while keeping the rest of the witness honest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .circuit import CircuitError, ConstraintSystem, Domain, SatisfactionReport
from .field import FieldParams, widths
from . import gadgets, localcalc
from .poseidon import PoseidonParamError, PoseidonParams, params_for


MAX_N_TRAJ = 4096  # desk-scale cap on n_traj for every entry point
MAX_N_GEO = 4096  # desk-scale cap on the number of circles or triangles
# Desk-scale cap on n_traj x (circles or triangles).  At the widest
# coordinates the default field admits (40 bits), a point costs about 270
# muls (ev) or 440 (tax), and each (point, row) pair one more, its
# selector's booleanity, so the worst shape under the caps, tax 4096
# points x 4 triangles, is about 1.8 M muls (4096 x 4096 would be 18.6 M).
MAX_N_PAIRS = 16_384


class InstanceError(Exception):
    pass


def check_sizes(n_traj: int, n_geo: int, traj_at: str, geo_at: str) -> None:
    """Raise InstanceError unless n_traj, the count n_geo of circles or
    triangles and n_traj x n_geo are within the desk-scale caps; messages
    start with the pointer ``traj_at`` or ``geo_at``."""
    if not 1 <= n_traj <= MAX_N_TRAJ:
        raise InstanceError(f"{traj_at}: outside desk-scale cap [1, {MAX_N_TRAJ}]")
    if not 1 <= n_geo <= MAX_N_GEO:
        raise InstanceError(f"{geo_at}: outside desk-scale cap [1, {MAX_N_GEO}]")
    if n_traj * n_geo > MAX_N_PAIRS:
        raise InstanceError(
            f"{geo_at}: n_traj x n_geo = {n_traj * n_geo} above desk-scale cap {MAX_N_PAIRS}")


def _check_ints(pointer: str, values, lo: int = 0, hi: float = float("inf")) -> None:
    """Raise InstanceError unless each of ``values`` is an int in [lo, hi]
    and not a bool: wired, a float would be truncated; the oracle would not."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not lo <= v <= hi:
            raise InstanceError(f"{pointer}: {v!r} is not an integer in [{lo}, {hi}]")


@dataclass(frozen=True)
class Trail:
    """Raw coordinate trail; padding repeats the last real point, so padded
    segments have zero length and never change tot/cc/hw."""

    points: tuple[tuple[int, int], ...]

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

    @cached_property
    def rows(self) -> list[tuple[int, int, int]]:
        """The public table the prover names rows of: (u, v, r^2)."""
        return [(u, v, r * r) for u, v, r in self.circles]


@dataclass(frozen=True)
class TriangleSet:
    triangles: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.triangles)

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The public table the prover names rows of, computed once per
        set: (c_s, dx_s, dy_s, c_t, dx_t, dy_t, A) with A the doubled area.
        ``localcalc.get_bcoords``' s and t are affine in the point, so its
        values at (0, 0), (1, 0) and (0, 1) give their coefficients:
        s = c_s + dx_s*x + dy_s*y, t likewise, and u = A - s - t."""
        out = []
        for (a1, b1), (a2, b2), (a3, b3) in self.triangles:
            o, ex, ey = (localcalc.get_bcoords(x, y, a1, b1, a2, b2, a3, b3)
                         for x, y in ((0, 0), (1, 0), (0, 1)))
            out.append((o.s, ex.s - o.s, ey.s - o.s, o.t, ex.t - o.t, ey.t - o.t,
                        localcalc.area_dbl(a1, b1, a2, b2, a3, b3)))
        return out

    @classmethod
    def oriented(cls, triangles) -> "TriangleSet":
        """Re-orient clockwise triangles (swap vertices 2 and 3);
        degenerate ones, and any that are not three pairs of ints, stay as
        they are, for validation to reject."""
        out = []
        for tri in triangles:
            try:
                (x1, y1), (x2, y2), (x3, y3) = tri
                clockwise = localcalc.area_dbl_sgn(x1, y1, x2, y2, x3, y3) < 0
            except (TypeError, ValueError):
                out.append(tri)
                continue
            if clockwise:
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
    geometry, sizes, field and hash parameters, and the hash's message
    layout ``pack``), never prover-only material.  It checks nothing on
    construction: a session over invalid authority data ends not_ok, when
    the instance over it fails to validate.  Left out, ``pack`` is the
    most the field admits, ``field_params.pack``."""

    kind: str  # "ev" | "tax"
    n_traj: int
    policy: SubsidyPolicy | TaxPolicy
    geometry: CircleSet | TriangleSet
    field_params: FieldParams
    pp: PoseidonParams
    pack: int | None = None  # trail coordinates per absorbed sponge element

    def __post_init__(self):
        if self.pack is None:
            object.__setattr__(self, "pack", self.field_params.pack)


@dataclass(frozen=True)
class StatementInstance:
    """A statement over authority data and a trail, and the digest h_ex it
    asserts; None stands for the honest hash of the trail, which a build
    takes from its own in-circuit hash and ``appio.serialize_instance``
    from ``honest_hash``.  Constructing one runs ``validate_instance``, so
    every instance that exists is valid, and hashes nothing."""

    ad: AuthorityData
    trail: Trail
    h_ex: int | None = None

    def __post_init__(self):
        validate_instance(self)

    @property
    def field_params(self) -> FieldParams:
        """The field a circuit over this instance is built in."""
        return self.ad.field_params


def trail_message(trail: Trail, n_traj: int) -> list[int]:
    """The padded trail as it is hashed and wired: every x, then every y."""
    pts = trail.padded(n_traj)
    return [x for x, _ in pts] + [y for _, y in pts]


def packing(msg: list, pack: int, k: int) -> list[tuple[list[int], list]]:
    """The absorbed elements of a message of k-bit coordinates (ints or
    wires): per element, its up to ``pack`` consecutive entries of msg and
    their weights 2^(kj), so the element is sum c_j * 2^(kj).  The
    reference hash and the circuit both pack through it."""
    out = []
    for i in range(0, len(msg), pack):
        chunk = msg[i : i + pack]
        out.append(([1 << (k * j) for j in range(len(chunk))], chunk))
    return out


def honest_hash(ad: AuthorityData, trail: Trail) -> int:
    """The digest of trail under ad: its message packed ``ad.pack``
    coordinates per element, with the coordinate count as the capacity
    seed."""
    msg = trail_message(trail, ad.n_traj)
    elements = [sum(map(operator.mul, w, c)) for w, c in packing(msg, ad.pack, ad.field_params.coord_bits)]
    return localcalc.poseidon_digest_ref(elements, ad.pp, len(msg))


def validate_instance(inst: StatementInstance) -> None:
    """Raise InstanceError unless the circuit decides inst exactly as the
    oracle does; ``StatementInstance`` runs it when it is constructed, and
    no one else does.  Each message starts with the JSON pointer of the
    offending field in the instance file format.

    Beyond the sizes (``check_sizes``, and fewer geometry rows than p,
    else p + 1 selector entries of 1 sum to 1 in ``gadgets.lookup``), the
    Poseidon prime (the field modulus), the pack (in [1, fp.pack], else a
    packed element could wrap mod p), h_ex (below p), trail length,
    coordinates, radii, triangle orientation and policy values, every
    point must be an (x, y) pair, every circle a (u, v, r) triple and
    every triangle three points, every number must be an int, and the
    statement's widest policy range check m must fit below p,
    2^(m+1) < p: for ev that is ``widths(...).cover``, for tax ``tot``
    (``FieldParams`` already covers the shape width; see
    ``field.widths``).  A small prime with a long trail fails this check.
    """
    ad = inst.ad
    fp = ad.field_params
    k = fp.coord_bits
    top = (1 << k) - 1
    if ad.kind not in ("ev", "tax"):
        raise InstanceError(f"/kind: unknown statement kind {ad.kind!r}")
    ev = ad.kind == "ev"
    geo_type, pol_type = (CircleSet, SubsidyPolicy) if ev else (TriangleSet, TaxPolicy)
    if not isinstance(ad.geometry, geo_type) or not isinstance(ad.policy, pol_type):
        raise InstanceError(f"/geometry: {ad.kind} instance needs {geo_type.__name__} + {pol_type.__name__}")
    _check_ints("/sizes/n_traj", [ad.n_traj])
    geo_at = "/geometry/circles" if ev else "/geometry/triangles"
    check_sizes(ad.n_traj, ad.geometry.count, "/sizes/n_traj", geo_at)
    if ad.geometry.count >= fp.modulus:
        raise InstanceError(f"{geo_at}: {ad.geometry.count} rows, not fewer than p = {fp.modulus}")
    if ad.pp.prime != fp.modulus:
        raise InstanceError(f"/poseidon: prime {ad.pp.prime} is not the field modulus {fp.modulus}")
    _check_ints("/poseidon/pack", [ad.pack], 1, fp.pack)
    if inst.h_ex is not None:
        _check_ints("/h_ex", [inst.h_ex], 0, fp.modulus - 1)  # else h_ex +- p verifies too
    if not 0 < len(inst.trail.points) <= ad.n_traj:
        raise InstanceError("/trail/points: trail length outside (0, n_traj]")
    for i, pt in enumerate(inst.trail.points):
        if not isinstance(pt, (tuple, list)) or len(pt) != 2:
            raise InstanceError(f"/trail/points/{i}: {pt!r} is not an (x, y) pair")
        _check_ints(f"/trail/points/{i}", pt, 0, top)
    w = widths(k, ad.n_traj)
    if ev:
        for i, c in enumerate(ad.geometry.circles):
            if not isinstance(c, (tuple, list)) or len(c) != 3:
                raise InstanceError(f"/geometry/circles/{i}: {c!r} is not a (u, v, r) triple")
            _check_ints(f"/geometry/circles/{i}", c[:2], 0, top)
            _check_ints(f"/geometry/circles/{i}", c[2:], 1, top)
        _check_ints("/policy/p_req", [ad.policy.p_req], 0, 100)
        _check_ints("/policy/d_req", [ad.policy.d_req], 0, (1 << w.tot) - 1)  # the accumulator width
        m = w.cover
    else:
        for j, tri in enumerate(ad.geometry.triangles):
            if not isinstance(tri, (tuple, list)) or len(tri) != 3:
                raise InstanceError(f"/geometry/triangles/{j}: {tri!r} does not have 3 vertices")
            for v, pt in enumerate(tri):
                if not isinstance(pt, (tuple, list)) or len(pt) != 2:
                    raise InstanceError(f"/geometry/triangles/{j}/{v}: {pt!r} is not an (x, y) pair")
                _check_ints(f"/geometry/triangles/{j}/{v}", pt, 0, top)
            a = localcalc.area_dbl_sgn(*tri[0], *tri[1], *tri[2])
            if a == 0:
                raise InstanceError(f"/geometry/triangles/{j}: degenerate triangle {tri}")
            if a < 0:
                raise InstanceError(f"/geometry/triangles/{j}: not positively oriented")
        _check_ints("/policy/d_max", [ad.policy.d_max])
        m = w.tot
    if 1 << (m + 1) >= fp.modulus:
        raise InstanceError(
            f"/field_params/modulus: too small for a {m}-bit range check "
            f"(coord_bits={k}, n_traj={ad.n_traj}); need p > 2^{m + 1}"
        )


def make_instance(kind, field_params, n_traj, policy, geometry, trail, pp=None, h_ex=None,
                  pack=None) -> StatementInstance:
    """A validated instance, with the Poseidon parameters of the field
    unless pp is given, the field's pack unless pack is given and h_ex as
    given, None (the honest trail hash, ``StatementInstance``) if not."""
    if pp is None:
        try:
            pp = params_for(field_params)
        except PoseidonParamError as exc:
            raise InstanceError(f"no Poseidon parameters for this field: {exc}") from exc
    ad = AuthorityData(kind, n_traj, policy, geometry, field_params, pp, pack)
    return StatementInstance(ad, trail, h_ex)


@dataclass
class StatementHandle:
    cs: ConstraintSystem
    trail_input_ids: list[int]  # the inputs of region trail: every x, then every y

    def check(self, overrides: dict[int, int] | None = None) -> SatisfactionReport:
        return self.cs.evaluate_and_check(overrides)


def point_inside(cs: ConstraintSystem, ad: AuthorityData, x: int, y: int, row_hint=None) -> int:
    """Membership bit b of the point wired as x and y: the prover names a
    row of ad's public geometry table (row_hint, else the first row whose
    weights at the values of x and y are all non-negative, or 0 for none),
    and ``gadgets.lookup`` reads it and b, 1 iff a row is named.

    The argument is one-sided.  With b = 1 the named row is a real one,
    and its b*w range checks pass only if the point lies in its shape.
    With b = 0 every b*w is zero and the point counts as outside, which
    only lowers cc (the in-circles length of a subsidy) or raises tot - hw
    (the taxed length): naming no row only hurts the prover.
    """
    width = widths(ad.field_params.coord_bits, ad.n_traj).shape
    geo = ad.geometry
    if isinstance(geo, CircleSet):
        find, check = localcalc.find_circle, gadgets.check_inside
    else:
        find, check = localcalc.find_triangle, gadgets.check_inside_triangle
    index = find(cs.value(x), cs.value(y), geo.rows) if row_hint is None else row_hint
    b, row = gadgets.lookup(cs, index, geo.rows)
    check(cs, b, row, x, y, width)
    return b


def build_statement(inst: StatementInstance, cs: ConstraintSystem, *, sqrt_hints=None,
                    row_hints=None) -> StatementHandle:
    """Lay down inst's statement on cs, a system over inst's prime (else
    CircuitError), one region after another: trail (the padded trail as
    ``trail_message`` orders it), digest (a k-bit range check of each
    coordinate, one affine per absorbed element as ``packing`` groups
    them, and their hash == h_ex, the shared input; an instance whose h_ex
    is None has this hash's own value wired as h_ex, and is not written
    to), then for each point i the region point[i] (its membership bit,
    ``point_inside``) and, from the second
    point on, segment[i - 1] (the exact root that is the length of the
    segment ending at point i, ``gadgets.sqrt_floor`` at
    ``widths(...).seg`` bits), and policy:
      - subsidy: d_req <= tot and tot * p_req <= cc * 100, tot the summed
        segment lengths and cc the length of the segments with both ends
        in a circle.  Segment lengths are exact roots: an understated
        length outside the circles would shrink tot while cc stays put and
        inflate the coverage share.
      - tax: tot - hw <= d_max, hw the length on the tax-free road.
    Every prover hint is read from the values of the wires it speaks of.
    ``sqrt_hints`` (one per segment) and ``row_hints`` (one per point; a
    None entry keeps the honest row, and an index outside the table names
    none) replace the prover's honest local values.
    """
    ad = inst.ad
    if cs.p != ad.field_params.modulus:
        raise CircuitError(f"statement over p = {ad.field_params.modulus} on a system over p = {cs.p}")
    n = ad.n_traj
    k = ad.field_params.coord_bits
    w = widths(k, n)
    cs.scope("trail")
    msg = [cs.wire_input(v, Domain.PROVER) for v in trail_message(inst.trail, n)]
    xs, ys = msg[:n], msg[n:]
    cs.scope("digest")
    for c in msg:
        cs.decompose(c, k)
    elements = [cs.affine(weights, chunk) for weights, chunk in packing(msg, ad.pack, k)]
    digest = gadgets.poseidon_hash(cs, elements, ad.pp, len(msg))
    h_ex = cs.value(digest) if inst.h_ex is None else inst.h_ex
    cs.assert_eq(digest, cs.wire_input(h_ex, Domain.SHARED))
    tot = both = cs.const(0)
    for i in range(n):
        cs.scope(f"point[{i}]")
        in_cur = point_inside(cs, ad, xs[i], ys[i], None if row_hints is None else row_hints[i])
        if i:
            cs.scope(f"segment[{i - 1}]")
            dx = cs.sub(xs[i], xs[i - 1])
            dy = cs.sub(ys[i], ys[i - 1])
            sq = cs.add(cs.mul(dx, dx), cs.mul(dy, dy))
            d = gadgets.sqrt_floor(cs, sq, w.seg, None if sqrt_hints is None else sqrt_hints[i - 1])
            tot = cs.add(tot, d)
            both = cs.add(both, cs.mul(cs.mul(in_prev, in_cur), d))
        in_prev = in_cur
    cs.scope("policy")
    if ad.kind == "ev":
        gadgets.leq(cs, cs.const(ad.policy.d_req), tot, w.tot)
        lhs = cs.affine([ad.policy.p_req], [tot])
        gadgets.leq(cs, lhs, cs.affine([100], [both]), w.cover)
    else:
        # d_max beyond the accumulator width always satisfies; clamping keeps
        # it within the range check's width without changing the verdict.
        d_max = min(ad.policy.d_max, (1 << w.tot) - 1)
        gadgets.leq(cs, cs.sub(tot, both), cs.const(d_max), w.tot)
    return StatementHandle(cs, msg)


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
    check_sizes(n_traj, n_geo, "n_traj", "n_geo")
    fp = field_params or FieldParams()
    handle = build_statement(_dummy_instance(kind, n_traj, n_geo, fp), ConstraintSystem(fp))
    return handle.cs.counters.as_dict()
