"""Instance file formats, fixture generation, and corridor triangulation.

Instances travel as JSON.  An integer is written as a decimal string
(field elements exceed 64-bit ranges) or, for small parameters, a JSON
int; any other number is rejected, not truncated.  Loading validates
against the statement invariants and re-orients clockwise triangles;
errors carry a JSON-pointer-style path to the offending field.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .field import FieldError, FieldParams
from . import localcalc, statements
from .poseidon import poseidon_params
from .statements import (
    AuthorityData,
    CircleSet,
    InstanceError,
    StatementInstance,
    SubsidyPolicy,
    TaxPolicy,
    Trail,
    TriangleSet,
)

SCHEMA_VERSION = 1

# The Poseidon parameters of files written before the width became 9, and
# the message layout of files written before the trail was packed (one
# coordinate per absorbed element); a /poseidon block that leaves a key
# out means the key's v1 value.
V1_POSEIDON = {"t": 3, "alpha": 5, "r_full": 8, "r_partial": 56,
               "seed": b"zk-pol-poseidon-v1".hex(), "pack": 1}


class SchemaError(Exception):
    """Instance document malformed; message carries a JSON pointer."""


class GenerationFailed(Exception):
    pass


class Unsupported(Exception):
    pass


# -- instance (de)serialization -----------------------------------------


def _want(doc: dict, key: str, ptr: str, kind: type | None = None):
    """doc[key], which must be present and, if ``kind`` is given, a JSON
    object (dict) or array (list)."""
    if key not in doc:
        raise SchemaError(f"{ptr}/{key}: missing")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{ptr}/{key}: expected {'an object' if kind is dict else 'a list'}")
    return value


def _as_int(value, ptr: str) -> int:
    """A JSON int that is not a bool, or a string of ASCII digits with an
    optional leading '-'.  Anything else, a non-integral number included,
    is rejected, never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise SchemaError(f"{ptr}: not an integer (decimal string expected)")


def _tuple(value, n: int, ptr: str, item=_as_int) -> tuple:
    """A list of exactly n entries, each read by ``item``, as a tuple."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(f"{ptr}: expected a list of {n}")
    return tuple(item(v, f"{ptr}/{i}") for i, v in enumerate(value))


def serialize_instance(inst: StatementInstance) -> dict:
    ad = inst.ad
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": ad.kind,
        "field_params": {
            "modulus": str(ad.field_params.modulus),
            "coord_bits": ad.field_params.coord_bits,
        },
        "poseidon": {
            "seed": ad.pp.seed.hex(),
            "t": ad.pp.t,
            "alpha": ad.pp.alpha,
            "r_full": ad.pp.r_full,
            "r_partial": ad.pp.r_partial,
            "pack": ad.pack,
        },
        "sizes": {"n_traj": ad.n_traj},
        "h_ex": str(statements.honest_hash(ad, inst.trail) if inst.h_ex is None else inst.h_ex),
        "trail": {
            "declared_len": len(inst.trail.points),
            "points": [[str(x), str(y)] for x, y in inst.trail.points],
        },
    }
    if ad.kind == "ev":
        doc["sizes"]["n_circ"] = ad.geometry.count
        doc["policy"] = {"d_req": str(ad.policy.d_req), "p_req": str(ad.policy.p_req)}
        doc["geometry"] = {
            "circles": [[str(u), str(v), str(r)] for u, v, r in ad.geometry.circles]
        }
    else:
        doc["sizes"]["n_tri"] = ad.geometry.count
        doc["policy"] = {"d_max": str(ad.policy.d_max)}
        doc["geometry"] = {
            "triangles": [
                [[str(x), str(y)] for x, y in tri] for tri in ad.geometry.triangles
            ]
        }
    return doc


def instance_from_doc(doc: dict) -> StatementInstance:
    if _as_int(doc.get("schema_version", 0), "/schema_version") != SCHEMA_VERSION:
        raise SchemaError("/schema_version: unsupported")
    kind = _want(doc, "kind", "")
    if kind not in ("ev", "tax"):
        raise SchemaError("/kind: must be 'ev' or 'tax'")
    fp_doc = _want(doc, "field_params", "", dict)
    try:
        fp = FieldParams(
            modulus=_as_int(_want(fp_doc, "modulus", "/field_params"), "/field_params/modulus"),
            coord_bits=_as_int(_want(fp_doc, "coord_bits", "/field_params"), "/field_params/coord_bits"),
        )
    except FieldError as exc:
        raise SchemaError(f"/field_params: {exc}")
    ps_doc = {**V1_POSEIDON, **_want(doc, "poseidon", "", dict)}
    ps_ints = [_as_int(ps_doc[key], f"/poseidon/{key}")
               for key in ("t", "alpha", "r_full", "r_partial")]
    pack = _as_int(ps_doc["pack"], "/poseidon/pack")
    try:
        pp = poseidon_params(fp.modulus, *ps_ints, bytes.fromhex(ps_doc["seed"]))
    except Exception as exc:
        raise SchemaError(f"/poseidon: {exc}")
    sizes = _want(doc, "sizes", "", dict)
    n_traj = _as_int(_want(sizes, "n_traj", "/sizes"), "/sizes/n_traj")
    trail_doc = _want(doc, "trail", "", dict)
    points = [
        _tuple(pt, 2, f"/trail/points/{i}")
        for i, pt in enumerate(_want(trail_doc, "points", "/trail", list))
    ]
    declared = trail_doc.get("declared_len", len(points))
    if _as_int(declared, "/trail/declared_len") != len(points):
        raise SchemaError("/trail/declared_len: does not match point count")
    pol_doc = _want(doc, "policy", "", dict)
    geo_doc = _want(doc, "geometry", "", dict)
    h_ex = _as_int(_want(doc, "h_ex", ""), "/h_ex")
    try:
        if kind == "ev":
            policy = SubsidyPolicy(
                d_req=_as_int(_want(pol_doc, "d_req", "/policy"), "/policy/d_req"),
                p_req=_as_int(_want(pol_doc, "p_req", "/policy"), "/policy/p_req"),
            )
            geo = [
                _tuple(c, 3, f"/geometry/circles/{i}")
                for i, c in enumerate(_want(geo_doc, "circles", "/geometry", list))
            ]
            geometry, size_key = CircleSet(tuple(geo)), "n_circ"
        else:
            policy = TaxPolicy(d_max=_as_int(_want(pol_doc, "d_max", "/policy"), "/policy/d_max"))
            geo = [
                _tuple(tri, 3, f"/geometry/triangles/{j}", lambda pt, ptr: _tuple(pt, 2, ptr))
                for j, tri in enumerate(_want(geo_doc, "triangles", "/geometry", list))
            ]
            geometry, size_key = TriangleSet.oriented(geo), "n_tri"
        if size_key in sizes and _as_int(sizes[size_key], f"/sizes/{size_key}") != len(geo):
            raise SchemaError(f"/sizes/{size_key}: does not match geometry")
        ad = AuthorityData(kind, n_traj, policy, geometry, fp, pp, pack)
        return StatementInstance(ad, Trail(tuple(points)), h_ex)
    except InstanceError as exc:
        raise SchemaError(str(exc)) from exc


def _read_object(path) -> dict:
    """The JSON object stored at ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8: {exc}")
        except ValueError as exc:  # JSONDecodeError, or an int past the interpreter's digit limit
            raise SchemaError(f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("/: expected an object")
    return doc


def load_instance(path) -> StatementInstance:
    return instance_from_doc(_read_object(path))


def save_instance(inst: StatementInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(serialize_instance(inst), fh, indent=2)
        fh.write("\n")


# -- fixture generation --------------------------------------------------

FIXTURE_TRIES = 20  # draws gen_fixture makes before it gives up
MIN_FIXTURE_BITS = 3  # narrower coordinates leave the generators no room
MIN_TAX_GEO = 4  # triangles of _gen_tax's corridor, at every coord_bits


@dataclass(frozen=True)
class FixtureSpec:
    kind: str  # "ev" | "tax"
    seed: int
    n_traj: int
    n_geo: int
    coord_bits: int = 12
    mode: str = "compliant"  # compliant | non_compliant | boundary

    def __post_init__(self):
        if self.kind not in ("ev", "tax"):
            raise GenerationFailed(f"unknown kind {self.kind!r}")
        if self.mode not in ("compliant", "non_compliant", "boundary"):
            raise GenerationFailed(f"unknown mode {self.mode!r}")
        try:
            statements.check_sizes(self.n_traj, self.n_geo, "/n_traj", "/n_geo")
            FieldParams(coord_bits=self.coord_bits)
        except (InstanceError, FieldError) as exc:
            raise GenerationFailed(str(exc))
        if self.coord_bits < MIN_FIXTURE_BITS:
            raise GenerationFailed(f"/coord_bits: {self.coord_bits} is below {MIN_FIXTURE_BITS}, "
                                   "too narrow for the generators")
        if self.kind == "tax" and self.n_geo < MIN_TAX_GEO:
            raise GenerationFailed(f"/n_geo: {self.n_geo} is below {MIN_TAX_GEO}, the triangles "
                                   "of the tax fixtures' corridor triangulation")
        if self.kind == "tax" and self.mode == "non_compliant" and self.n_traj < 2:
            raise GenerationFailed("/n_traj: 1 point has no segment, so no /mode non_compliant")


def load_spec(path) -> FixtureSpec:
    """Read a fixture spec file: a JSON object with ``kind``, ``n_traj``
    and ``n_geo``, plus optional ``seed``, ``coord_bits`` and ``mode``."""
    doc = _read_object(path)
    return FixtureSpec(
        kind=_want(doc, "kind", ""),
        seed=_as_int(doc.get("seed", 0), "/seed"),
        n_traj=_as_int(_want(doc, "n_traj", ""), "/n_traj"),
        n_geo=_as_int(_want(doc, "n_geo", ""), "/n_geo"),
        coord_bits=_as_int(doc.get("coord_bits", 12), "/coord_bits"),
        mode=doc.get("mode", "compliant"),
    )


def _gen_ev(spec: FixtureSpec, rng: random.Random) -> StatementInstance:
    fp = FieldParams(coord_bits=spec.coord_bits)
    bound = 1 << spec.coord_bits
    span = bound // 4
    circles = []
    for _ in range(spec.n_geo):
        r = rng.randrange(max(2, span // 4), max(3, span))
        u = rng.randrange(r, bound - r)
        v = rng.randrange(r, bound - r)
        circles.append((u, v, r))
    # Walk inside the first circle: every point in its inscribed box.
    u0, v0, r0 = circles[0]
    half = max(1, localcalc.isqrt(r0 * r0 // 2))
    n_pts = rng.randrange(2, spec.n_traj + 1) if spec.n_traj > 1 else 1
    pts = [
        (rng.randrange(u0 - half, u0 + half + 1), rng.randrange(v0 - half, v0 + half + 1))
        for _ in range(n_pts)
    ]
    trail = Trail(tuple(pts))
    # All points inside circle 0, so cc == tot and the achieved share is 100%.
    tot, _ = localcalc.segment_walk(trail.padded(spec.n_traj), lambda x, y: True)
    if spec.mode == "compliant":
        policy = SubsidyPolicy(d_req=rng.randrange(0, tot + 1), p_req=rng.randrange(0, 101))
    elif spec.mode == "boundary":
        policy = SubsidyPolicy(d_req=tot, p_req=100)
    else:
        policy = SubsidyPolicy(d_req=tot + 1, p_req=rng.randrange(0, 101))
    return statements.make_instance(
        "ev", fp, spec.n_traj, policy, CircleSet(tuple(circles)), trail
    )


def _gen_tax(spec: FixtureSpec, rng: random.Random) -> StatementInstance:
    fp = FieldParams(coord_bits=spec.coord_bits)
    bound = 1 << spec.coord_bits
    side = bound - 1
    road_y = side // 2
    margin = max(1, side // 16)
    tris = corridor_triangulate([(0, road_y), (side, road_y)], margin, (0, 0, side, side)).triangles
    tri_set = TriangleSet(tris + tris[-1:] * (spec.n_geo - len(tris)))

    def pick_off_road():
        y = rng.randrange(0, road_y - margin) if rng.random() < 0.5 else rng.randrange(
            road_y + margin + 1, side + 1
        )
        return (rng.randrange(0, side + 1), y)

    def pick_on_road():
        return (rng.randrange(0, side + 1), road_y)

    n_pts = rng.randrange(2, spec.n_traj + 1) if spec.n_traj > 1 else 1
    pts = [pick_off_road() for _ in range(n_pts)]
    if spec.mode in ("non_compliant", "boundary") and n_pts >= 2:
        # Plant a taxed stretch: consecutive on-road points.
        k = rng.randrange(0, n_pts - 1)
        pts[k] = pick_on_road()
        pts[k + 1] = (min(side, pts[k][0] + margin + 5), road_y)
    trail = Trail(tuple(pts))
    taxed = localcalc.taxed_distance(trail.padded(spec.n_traj), tris)
    if spec.mode == "compliant":
        policy = TaxPolicy(d_max=taxed + rng.randrange(0, 100))
    elif spec.mode == "boundary":
        policy = TaxPolicy(d_max=taxed)
    else:
        if taxed == 0:
            raise GenerationFailed("could not plant a taxed segment")
        policy = TaxPolicy(d_max=taxed - 1)
    return statements.make_instance("tax", fp, spec.n_traj, policy, tri_set, trail)


def gen_fixture(spec: FixtureSpec) -> StatementInstance:
    """Deterministic fixture whose oracle verdict matches the mode flag."""
    rng = random.Random(spec.seed)
    last_err = None
    for _ in range(FIXTURE_TRIES):
        try:
            inst = _gen_ev(spec, rng) if spec.kind == "ev" else _gen_tax(spec, rng)
        except (GenerationFailed, InstanceError) as exc:
            last_err = exc
            continue
        verdict = statements.oracle_verdict(inst)
        want = spec.mode != "non_compliant"
        if verdict == want:
            return inst
        last_err = GenerationFailed(f"verdict {verdict} != wanted {want}")
    raise GenerationFailed(f"no fixture after {FIXTURE_TRIES} tries: {last_err}")


# -- corridor triangulation ---------------------------------------------


def _inflate(polyline, margin: int):
    rects = []
    for (x0, y0), (x1, y1) in zip(polyline, polyline[1:]):
        if x0 != x1 and y0 != y1:
            raise Unsupported("only axis-aligned segments are supported")
        rects.append(
            (
                min(x0, x1) - margin,
                min(y0, y1) - margin,
                max(x0, x1) + margin,
                max(y0, y1) + margin,
            )
        )
    return rects


def corridor_triangulate(polyline, margin: int, bbox) -> TriangleSet:
    """Triangulate bbox minus the margin-inflated axis-aligned corridor.

    The complement is decomposed on the grid induced by all rectangle
    edges; every kept cell is split into two positively oriented
    triangles, so total triangle area exactly equals bbox area minus the
    corridor's intersection with the bbox.
    """
    if margin <= 0:
        raise Unsupported("margin must be positive")
    if len(polyline) < 2:
        raise Unsupported("polyline needs at least two points")
    bx0, by0, bx1, by1 = bbox
    rects = _inflate(polyline, margin)
    xs = {bx0, bx1}
    ys = {by0, by1}
    for rx0, ry0, rx1, ry1 in rects:
        for v in (rx0, rx1):
            if bx0 < v < bx1:
                xs.add(v)
        for v in (ry0, ry1):
            if by0 < v < by1:
                ys.add(v)
    xs = sorted(xs)
    ys = sorted(ys)
    tris = []
    for cx0, cx1 in zip(xs, xs[1:]):
        for cy0, cy1 in zip(ys, ys[1:]):
            covered = any(
                rx0 <= cx0 and cx1 <= rx1 and ry0 <= cy0 and cy1 <= ry1
                for rx0, ry0, rx1, ry1 in rects
            )
            if covered:
                continue
            tris.append(((cx0, cy0), (cx1, cy0), (cx1, cy1)))
            tris.append(((cx0, cy0), (cx1, cy1), (cx0, cy1)))
    return TriangleSet.oriented(tris) if tris else TriangleSet(())
