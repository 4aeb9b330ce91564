import functools
import itertools
import json
import operator
import random
from dataclasses import replace

import pytest

from zkpol import appio, cli, gadgets, localcalc, poseidon, statements
from zkpol.appio import (
    FixtureSpec,
    GenerationFailed,
    SchemaError,
    Unsupported,
    corridor_triangulate,
    gen_fixture,
    instance_from_doc,
    load_instance,
    load_spec,
    save_instance,
    serialize_instance,
)
from zkpol.circuit import ConstraintSystem, Domain
from zkpol.cli import holding_pair, main as cli_main
from zkpol.field import FieldParams, widths
from zkpol.poseidon import PoseidonParams, params_for

from conftest import random_ev_instance, random_tax_instance, small_prime_ev_doc


# -- serialization -------------------------------------------------------


def test_round_trip_ev(tmp_path):
    inst = random_ev_instance(random.Random(71), max_traj=8, max_circ=3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == replace(inst, h_ex=statements.honest_hash(inst.ad, inst.trail))


def test_round_trip_tax(tmp_path):
    inst = random_tax_instance(random.Random(73), max_traj=8, max_tri=3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == replace(inst, h_ex=statements.honest_hash(inst.ad, inst.trail))


def test_loads_derive_each_poseidon_set_once(tmp_path, monkeypatch):
    path = _write_fixture(tmp_path)
    first = load_instance(path)
    derived = []
    monkeypatch.setattr(poseidon, "_derive_constant", lambda *args: derived.append(args))
    again = load_instance(path)
    assert again.ad.pp is first.ad.pp and derived == []


def test_integers_travel_as_decimal_strings():
    inst = random_ev_instance(random.Random(79), max_traj=4, max_circ=1)
    doc = serialize_instance(inst)
    assert isinstance(doc["h_ex"], str)
    assert isinstance(doc["field_params"]["modulus"], str)
    assert all(isinstance(c, str) for c in doc["trail"]["points"][0])
    json.dumps(doc)  # plain JSON throughout


def _doc():
    inst = random_ev_instance(random.Random(83), max_traj=4, max_circ=2)
    return serialize_instance(inst)


def test_schema_error_carries_json_pointer():
    doc = _doc()
    del doc["policy"]["d_req"]
    with pytest.raises(SchemaError, match="/policy/d_req"):
        instance_from_doc(doc)


def test_schema_rejects_bad_version():
    doc = _doc()
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="/schema_version"):
        instance_from_doc(doc)


def test_schema_rejects_non_integer_coordinate():
    doc = _doc()
    doc["trail"]["points"][0][0] = "twelve"
    with pytest.raises(SchemaError, match="/trail/points/0"):
        instance_from_doc(doc)


def test_schema_rejects_mismatched_declared_len():
    doc = _doc()
    doc["trail"]["declared_len"] = 99
    with pytest.raises(SchemaError, match="declared_len"):
        instance_from_doc(doc)


def test_schema_rejects_out_of_range_circle():
    doc = _doc()
    doc["geometry"]["circles"][0] = ["0", "0", "99999999"]
    with pytest.raises(SchemaError, match="/geometry/circles/0"):
        instance_from_doc(doc)


@pytest.mark.parametrize("where, value", [
    (("geometry", "triangles"), [5]),
    (("geometry", "triangles"), [[["0", "0"], ["1", "0"]]]),
    (("sizes", "n_tri"), "x"),
    (("trail", "declared_len"), "x"),
    (("poseidon", "pack"), "x"),
    # More coordinates per element than fit below p: a packed element
    # could wrap mod p.
    (("poseidon", "pack"), 1000),
    (("poseidon", "pack"), "0"),
])
def test_schema_rejects_malformed_shapes(tmp_path, where, value):
    doc = serialize_instance(random_tax_instance(random.Random(89), max_traj=4, max_tri=1))
    doc[where[0]][where[1]] = value
    with pytest.raises(SchemaError, match=f"^/{where[0]}/{where[1]}"):
        instance_from_doc(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check", str(path)]) == 2


@pytest.mark.parametrize("where, value", [
    (("sizes",), 5),
    (("trail",), 5),
    (("policy",), 5),
    (("poseidon",), 5),
    (("trail", "points"), 5),
    (("geometry", "circles"), 5),
])
def test_schema_rejects_wrong_container_types(tmp_path, capsys, where, value):
    doc = _doc()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    pointer = "/" + "/".join(where)
    with pytest.raises(SchemaError, match=f"^{pointer}: expected"):
        instance_from_doc(doc)
    path = tmp_path / "container.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check", str(path)]) == 2
    assert pointer in capsys.readouterr().err


# A v1 instance file, written out by hand: its digest is that of the v1
# sponge (t = 3, R_F = 8, R_P = 56, seed zk-pol-poseidon-v1).  The trail
# walks 100 units, all inside the circle, and d_req = 100 is just met.
V1_PARAMS = {"seed": b"zk-pol-poseidon-v1".hex(), "t": 3, "alpha": 5, "r_full": 8, "r_partial": 56}
V1_POINTS = ((100, 100), (130, 140), (160, 180))


def _v1_doc(poseidon, d_req):
    pp = PoseidonParams(prime=2**127 - 1, t=3, alpha=5, r_full=8, r_partial=56,
                        seed=b"zk-pol-poseidon-v1")
    message = statements.trail_message(statements.Trail(V1_POINTS), 4)
    h_ex = localcalc.poseidon_digest_ref(message, pp)
    assert h_ex != localcalc.poseidon_digest_ref(message, params_for(FieldParams()))
    return {
        "schema_version": 1,
        "kind": "ev",
        "field_params": {"modulus": str(2**127 - 1), "coord_bits": 12},
        "poseidon": poseidon,
        "sizes": {"n_traj": 4, "n_circ": 1},
        "h_ex": str(h_ex),
        "trail": {"declared_len": 3, "points": [[str(x), str(y)] for x, y in V1_POINTS]},
        "policy": {"d_req": str(d_req), "p_req": "100"},
        "geometry": {"circles": [["130", "140", "100"]]},
    }


@pytest.mark.parametrize("poseidon", [V1_PARAMS, {}], ids=["explicit", "no-keys"])
@pytest.mark.parametrize("d_req, code", [(100, 0), (101, 1)])
def test_v1_instance_file_keeps_its_verdict(tmp_path, capsys, poseidon, d_req, code):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(_v1_doc(dict(poseidon), d_req)))
    assert load_instance(path).ad.pp.t == 3
    assert cli_main(["check", str(path)]) == code
    assert json.loads(capsys.readouterr().out)["satisfied"] is (code == 0)


@pytest.mark.parametrize("n_traj", [0, 4097])
def test_schema_rejects_n_traj_outside_cap(tmp_path, n_traj):
    doc = _doc()
    doc["sizes"]["n_traj"] = str(n_traj)
    with pytest.raises(SchemaError, match="/sizes/n_traj"):
        instance_from_doc(doc)
    path = tmp_path / "sized.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["check", str(path)]) == 2


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_cli_rejects_prime_too_small_for_the_shape(tmp_path, capsys, command):
    path = tmp_path / "small_prime.json"
    path.write_text(json.dumps(small_prime_ev_doc()))
    assert cli_main([command, str(path)]) == 2
    assert "/field_params/modulus" in capsys.readouterr().err


def test_load_reorients_clockwise_triangles():
    inst = random_tax_instance(random.Random(89), max_traj=4, max_tri=1)
    doc = serialize_instance(inst)
    tri = doc["geometry"]["triangles"][0]
    doc["geometry"]["triangles"][0] = [tri[0], tri[2], tri[1]]  # flip orientation
    again = instance_from_doc(doc)
    for t in again.ad.geometry.triangles:
        assert localcalc.area_dbl_sgn(*t[0], *t[1], *t[2]) > 0


def test_load_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_instance(path)


# -- fixture generation --------------------------------------------------


def test_fixture_spec_validation():
    with pytest.raises(GenerationFailed):
        FixtureSpec(kind="bus", seed=0, n_traj=4, n_geo=1)
    with pytest.raises(GenerationFailed):
        FixtureSpec(kind="ev", seed=0, n_traj=0, n_geo=1)
    with pytest.raises(GenerationFailed):
        FixtureSpec(kind="ev", seed=0, n_traj=4, n_geo=1, mode="maybe")


@pytest.mark.parametrize("mode", ["compliant", "non_compliant", "boundary"])
def test_gen_ev_modes_match_verdict(mode):
    for seed in range(25):
        spec = FixtureSpec(kind="ev", seed=seed, n_traj=8, n_geo=2, mode=mode)
        inst = gen_fixture(spec)
        want = mode != "non_compliant"
        assert statements.oracle_verdict(inst) == want


@pytest.mark.parametrize("mode", ["compliant", "non_compliant", "boundary"])
def test_gen_tax_modes_match_verdict(mode):
    for seed in range(25):
        spec = FixtureSpec(kind="tax", seed=seed, n_traj=8, n_geo=8, mode=mode)
        inst = gen_fixture(spec)
        want = mode != "non_compliant"
        assert statements.oracle_verdict(inst) == want


def test_gen_is_deterministic():
    spec = FixtureSpec(kind="ev", seed=42, n_traj=8, n_geo=2)
    assert gen_fixture(spec) == gen_fixture(spec)


def test_gen_fixture_survives_round_trip(tmp_path):
    spec = FixtureSpec(kind="tax", seed=5, n_traj=8, n_geo=8)
    inst = gen_fixture(spec)
    path = tmp_path / "fix.json"
    save_instance(inst, path)
    assert load_instance(path) == replace(inst, h_ex=statements.honest_hash(inst.ad, inst.trail))


# -- corridor triangulation ----------------------------------------------


def _total_area_dbl(tris):
    return sum(localcalc.area_dbl(*t[0], *t[1], *t[2]) for t in tris)


def test_corridor_area_bookkeeping_straight_road():
    # Horizontal road across a 100x100 box, margin 10: the inflated
    # corridor is a 100x20 strip (clipped), complement area 8000.
    ts = corridor_triangulate([(0, 50), (100, 50)], 10, (0, 0, 100, 100))
    assert _total_area_dbl(ts.triangles) == 2 * (100 * 100 - 100 * 20)
    for t in ts.triangles:
        assert localcalc.area_dbl_sgn(*t[0], *t[1], *t[2]) > 0


def test_corridor_area_bookkeeping_l_shaped_road():
    # L-shaped road; the two inflated rectangles overlap at the corner, so
    # compute covered cells directly for the expected area.
    bbox = (0, 0, 100, 100)
    ts = corridor_triangulate([(0, 50), (60, 50), (60, 100)], 10, bbox)
    covered = 0
    for x in range(100):
        for y in range(100):
            in_h = 0 <= x < 100 and 40 <= y < 60 and x < 70
            in_v = 50 <= x < 70 and 40 <= y < 100
            if in_h or in_v:
                covered += 1
    assert _total_area_dbl(ts.triangles) == 2 * (100 * 100 - covered)


def test_corridor_covering_whole_bbox_yields_empty_set():
    ts = corridor_triangulate([(0, 5), (10, 5)], 50, (0, 0, 10, 10))
    assert ts.triangles == ()


def test_corridor_rejects_diagonal_segment():
    with pytest.raises(Unsupported):
        corridor_triangulate([(0, 0), (10, 10)], 5, (0, 0, 20, 20))


def test_corridor_rejects_bad_margin():
    with pytest.raises(Unsupported):
        corridor_triangulate([(0, 0), (10, 0)], 0, (0, 0, 20, 20))


def test_corridor_points_off_road_are_in_triangles():
    ts = corridor_triangulate([(0, 50), (100, 50)], 10, (0, 0, 100, 100))
    assert localcalc.point_in_any_triangle(5, 5, ts.triangles)
    assert localcalc.point_in_any_triangle(95, 95, ts.triangles)
    assert not localcalc.point_in_any_triangle(50, 50, ts.triangles)


# -- CLI -----------------------------------------------------------------


def _write_fixture(tmp_path, mode="compliant", kind="ev"):
    n_geo = 2 if kind == "ev" else 8
    inst = gen_fixture(FixtureSpec(kind=kind, seed=3, n_traj=8, n_geo=n_geo, mode=mode))
    path = tmp_path / f"{kind}-{mode}.json"
    save_instance(inst, path)
    return str(path)


def test_cli_check_compliant_exits_zero(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert cli_main(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["satisfied"] is True
    assert out["n_mul"] > 0


def test_cli_check_non_compliant_exits_one(tmp_path, capsys):
    path = _write_fixture(tmp_path, mode="non_compliant")
    assert cli_main(["check", path]) == 1
    assert json.loads(capsys.readouterr().out)["satisfied"] is False


def _tamper_h_ex(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["h_ex"] = str(int(doc["h_ex"]) + 1)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_cli_check_names_the_failed_scope(tmp_path, capsys, kind):
    cases = [
        (_write_fixture(tmp_path, kind=kind), 0, None),
        (_write_fixture(tmp_path, "non_compliant", kind), 1, "policy"),
        (_tamper_h_ex(_write_fixture(tmp_path, "boundary", kind)), 1, "digest"),
    ]
    for path, code, scope in cases:
        assert cli_main(["check", path]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["failed_scope"] == scope
        assert (out["first_failed_assertion"] is None) == (scope is None)


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_cli_check_rejects_h_ex_outside_the_field(tmp_path, capsys, kind):
    # h_ex + p is the honest digest mod p; as a second h_ex for the same
    # trail it is an input error.
    path = _write_fixture(tmp_path, kind=kind)
    with open(path) as fh:
        doc = json.load(fh)
    doc["h_ex"] = str(int(doc["h_ex"]) + int(doc["field_params"]["modulus"]))
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli_main(["check", path]) == 2
    assert "/h_ex" in capsys.readouterr().err


def test_cli_fuzz_does_not_judge_roots_behind_a_failed_digest(tmp_path, capsys):
    # Every mutation fails at the digest first, before any root's own
    # assertions are reached: only the circuit/oracle disagreement counts.
    inst = gen_fixture(FixtureSpec(kind="ev", seed=1, n_traj=8, n_geo=2))
    path = tmp_path / "tampered.json"
    save_instance(inst, path)
    assert cli_main(["fuzz", str(_tamper_h_ex(path)), "--mutations", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "EQUIVALENCE VIOLATION: circuit=False oracle=True"
    assert not any("ROOT VIOLATION" in line for line in lines)
    assert json.loads(lines[-1]) == {"mutations": 4, "violations": 1}


def test_cli_oracle_agrees_with_check(tmp_path, capsys):
    for mode, code in [("compliant", 0), ("non_compliant", 1)]:
        path = _write_fixture(tmp_path, mode=mode)
        assert cli_main(["oracle", path]) == code
        capsys.readouterr()


def test_cli_fuzz_clean_run(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert cli_main(["fuzz", path, "--mutations", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.splitlines()[-1])["violations"] == 0


def test_cli_fuzz_builds_the_statement_once(tmp_path, capsys, monkeypatch):
    builds = []
    real_build = statements.build_statement

    def counting_build(*args, **kwargs):
        builds.append(args[0].ad.kind)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(statements, "build_statement", counting_build)
    for kind in ("ev", "tax"):
        builds.clear()
        path = _write_fixture(tmp_path, kind=kind)
        assert cli_main(["fuzz", path, "--mutations", "6", "--seed", "2"]) == 0
        assert builds == [kind]
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {
            "mutations": 6, "violations": 0,
        }


def test_cli_fuzz_one_circle_has_no_selector_to_mutate(tmp_path, capsys):
    # A one-row table is read as constants: no selector, so no selector
    # mutation is judged and none is reported.
    inst = gen_fixture(FixtureSpec(kind="ev", seed=3, n_traj=8, n_geo=1))
    path = tmp_path / "one-circle.json"
    save_instance(inst, path)
    assert cli_main(["check", str(path)]) == 0
    assert cli_main(["fuzz", str(path), "--mutations", "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any("SELECTOR VIOLATION" in line for line in lines)
    assert json.loads(lines[-1]) == {"mutations": 5, "violations": 0}


def test_cli_fuzz_reports_a_hash_that_ignores_the_message(tmp_path, capsys, monkeypatch):
    path = _write_fixture(tmp_path)
    h_ex = load_instance(path).h_ex
    # The digest matches h_ex whatever the trail, so the honest check still
    # holds and only the mutations, which re-derive the moved coordinate's
    # range bits, expose the missing binding.
    monkeypatch.setattr(gadgets, "poseidon_hash", lambda cs, msg, pp, length: cs.const(h_ex))
    assert cli_main(["fuzz", path, "--mutations", "5", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "EQUIVALENCE VIOLATION" not in "\n".join(lines)
    assert sum("HASH BINDING VIOLATION" in line for line in lines) == 5
    assert json.loads(lines[-1]) == {"mutations": 5, "violations": 5}


@pytest.mark.parametrize("dropped", ["r", "2d - r"])
def test_cli_fuzz_reports_a_root_missing_a_decomposition(tmp_path, capsys, monkeypatch, dropped):
    # sqrt_floor with the bits of r (or of 2d - r) wired as free inputs:
    # a wrong root with the bits a prover derives for it then passes.
    path = _write_fixture(tmp_path)
    real_sqrt, real_decompose = gadgets.sqrt_floor, gadgets.decompose_bits
    free = []  # popped once per decomposition: 2d - r's flag, then r's

    def decompose(cs, w, k):
        if free and free.pop():
            return [cs.wire_input((cs.value(w) >> i) & 1, Domain.PROVER) for i in range(k)]
        return real_decompose(cs, w, k)

    def loose_sqrt(cs, sq, k, hint=None):
        free[:] = [dropped == "2d - r", dropped == "r"]
        return real_sqrt(cs, sq, k, hint)

    monkeypatch.setattr(gadgets, "decompose_bits", decompose)
    monkeypatch.setattr(gadgets, "sqrt_floor", loose_sqrt)
    assert cli_main(["fuzz", path, "--mutations", "10", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    roots = sum("ROOT VIOLATION" in line for line in lines)
    assert roots > 0
    assert json.loads(lines[-1]) == {"mutations": 10, "violations": roots}


def test_cli_fuzz_reports_a_membership_bit_apart_from_the_selector(tmp_path, capsys, monkeypatch):
    # A lookup whose bit is an input of its own, not the selector's sum,
    # and with no sum check: at a point outside every triangle (b = 0) a
    # two-hot selector reads a mixed row, every b*w stays 0, and the
    # point's region passes.  The real lookup rejects it (b = 2).
    path = _write_fixture(tmp_path, mode="non_compliant", kind="tax")
    assert cli_main(["fuzz", path, "--mutations", "10", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 0

    def lookup(cs, index, rows):
        sel = [cs.wire_input(int(i == index), Domain.PROVER) for i in range(1, len(rows) + 1)]
        for w in sel:
            cs.assert_boolean(w)
        b = cs.wire_input(int(1 <= index <= len(rows)), Domain.PROVER)
        cs.assert_boolean(b)
        return b, tuple(cs.affine(col, sel) for col in zip(*rows))

    monkeypatch.setattr(gadgets, "lookup", lookup)
    assert cli_main(["fuzz", path, "--mutations", "10", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    selectors = sum("SELECTOR VIOLATION" in line for line in lines)
    assert selectors > 0
    assert json.loads(lines[-1]) == {"mutations": 10, "violations": selectors}


def _lookup_without_the_booleanity_of_b(cs, index, rows):
    """``gadgets.lookup`` for a table of two or more rows, without
    ``cs.assert_boolean(b)``: a two-hot selector then gives b = 2."""
    sel = [cs.wire_input(int(i == index), Domain.PROVER) for i in range(1, len(rows) + 1)]
    for w in sel:
        cs.assert_boolean(w)
    return cs.affine([1] * len(rows), sel), tuple(cs.affine(col, sel) for col in zip(*rows))


def test_cli_fuzz_reports_a_selector_sum_without_its_booleanity(tmp_path, capsys, monkeypatch):
    # Two circles, and a trail inside the circle of their summed row
    # (1, 1, 10^2 + 20^2), whose weights w keep 2w within the range check.
    # A lookup that drops the booleanity of b then accepts the two-hot
    # selector (b = 2) at every point, once the range bits are derived for
    # the lie; with the stale honest bits it would fail there.
    inst = statements.make_instance(
        "ev", FieldParams(coord_bits=12), 4, statements.SubsidyPolicy(0, 0),
        statements.CircleSet(((0, 0, 10), (1, 1, 20))), statements.Trail(((1, 1), (2, 2), (3, 1), (2, 3))))
    path = tmp_path / "two-circles.json"
    save_instance(inst, path)
    assert cli_main(["fuzz", str(path), "--mutations", "10", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 0

    monkeypatch.setattr(gadgets, "lookup", _lookup_without_the_booleanity_of_b)
    assert cli_main(["fuzz", str(path), "--mutations", "10", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum("SELECTOR VIOLATION" in line for line in lines) == 10
    assert json.loads(lines[-1]) == {"mutations": 10, "violations": 10}


@pytest.mark.parametrize("spec", [
    FixtureSpec(kind="ev", seed=6, n_traj=16, n_geo=4),
    FixtureSpec(kind="tax", seed=8, n_traj=16, n_geo=8, mode="non_compliant"),
], ids=["ev-16x4", "tax-16x8-non-compliant"])
def test_cli_fuzz_picks_a_two_hot_pair_whose_summed_row_holds_the_point(tmp_path, capsys, monkeypatch, spec):
    # Generated fixtures where some pair of rows has a summed row that
    # holds a trail point at b = 2 (2w in range for each weight w of the
    # summed row): fuzz names such a pair there, so a lookup that drops
    # the booleanity of b is caught; a random pair seldom holds the point.
    inst = gen_fixture(spec)
    geo, wd = inst.ad.geometry, widths(inst.field_params.coord_bits, inst.ad.n_traj)
    check = gadgets.check_inside if spec.kind == "ev" else gadgets.check_inside_triangle

    def holds(pair, x, y):
        cs = ConstraintSystem(inst.field_params)
        row = [cs.const(a + c) for a, c in zip(*(geo.rows[r] for r in pair))]
        check(cs, cs.const(2), row, cs.const(x), cs.const(y), wd.shape)
        return cs.evaluate_and_check().satisfied

    assert any(holds(pair, *pt) for pair in itertools.combinations(range(geo.count), 2)
               for pt in inst.trail.points)
    path = tmp_path / "fixture.json"
    save_instance(inst, path)
    assert cli_main(["fuzz", str(path), "--mutations", "20", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 0

    monkeypatch.setattr(gadgets, "lookup", _lookup_without_the_booleanity_of_b)
    assert cli_main(["fuzz", str(path), "--mutations", "20", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    selectors = sum("SELECTOR VIOLATION" in line for line in lines)
    assert selectors > 0
    assert json.loads(lines[-1]) == {"mutations": 20, "violations": selectors}


def _summed_row_weights(ev, row, x, y):
    """The weights of the shape check at b = 1 for one (summed) row."""
    if ev:
        u, v, s = row
        return (s - (x - u) ** 2 - (y - v) ** 2,)
    c_s, dx_s, dy_s, c_t, dx_t, dy_t, area = row
    s, t = c_s + dx_s * x + dy_s * y, c_t + dx_t * x + dy_t * y
    return s, t, area - s - t


@pytest.mark.parametrize("ev", [True, False], ids=["ev", "tax"])
def test_holding_pair_matches_the_exhaustive_scan(ev):
    # The bisected search returns the pair the scan over every pair in
    # lexicographic order finds first (each weight w of the summed row has
    # 2w in [0, 2^shape)), or None where no pair holds; both outcomes occur.
    # Two tables in three are tiny, so that summed weights often land exactly
    # on the edges of the search windows.
    rng = random.Random(21 if ev else 22)
    outcomes = set()
    for trial in range(600):
        n = rng.randrange(2, 14)
        c = (2, 4, 32)[trial % 3]
        if ev:
            rows = [(rng.randrange(c), rng.randrange(c), rng.randrange(c // 4 + 1) ** 2) for _ in range(n)]
        else:
            rows = [tuple(rng.randrange(-c, c + 1) for _ in range(6)) + (rng.randrange(2 * c),)
                    for _ in range(n)]
        x, y = rng.randrange(2 * c), rng.randrange(2 * c)
        shape = rng.choice([2, 4, 6, 8, 10])
        lim = 1 << (shape - 1)
        expected = next((pair for pair in itertools.combinations(range(n), 2)
                         if all(0 <= w < lim for w in _summed_row_weights(
                             ev, [a + c for a, c in zip(rows[pair[0]], rows[pair[1]])], x, y))), None)
        assert holding_pair(ev, rows, x, y, shape) == expected, (rows, x, y, shape)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_cli_fuzz_rejects_a_negative_mutation_count(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert cli_main(["fuzz", path, "--mutations", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--mutations" in captured.err and not captured.out
    assert cli_main(["fuzz", path, "--mutations", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"mutations": 0, "violations": 0}


def test_cli_fuzz_reports_a_membership_claim_without_its_range_checks(tmp_path, capsys, monkeypatch):
    # The non-compliant tax fixture has points outside every triangle, so
    # every mutation claims membership for one of them.  With the range
    # checks' bits wired as free inputs, naming row 1 (b = 1) with the bits
    # derived inside it passes its point's region; with them, it fails
    # there.
    path = _write_fixture(tmp_path, mode="non_compliant", kind="tax")
    inst = load_instance(path)
    assert not all(localcalc.point_in_any_triangle(*pt, inst.ad.geometry.triangles)
                   for pt in inst.trail.padded(inst.ad.n_traj))
    assert cli_main(["fuzz", path, "--mutations", "5", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 0

    def unchecked(cs, b, weights, width):
        for _ in range(len(weights) * width):
            cs.wire_input(0, Domain.PROVER)

    monkeypatch.setattr(gadgets, "_claim_inside", unchecked)
    assert cli_main(["fuzz", path, "--mutations", "5", "--seed", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum("CLAIM VIOLATION" in line for line in lines) == 5
    assert json.loads(lines[-1]) == {"mutations": 5, "violations": 5}


def _rewrite_poseidon(tmp_path, **keys):
    path = _write_fixture(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["poseidon"].update(keys)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("keys", [{"r_full": 0, "r_partial": 0}, {"r_partial": -1}],
                         ids=["no-rounds", "negative-partial"])
def test_cli_rejects_round_numbers_below_the_floor(tmp_path, capsys, keys):
    path = _rewrite_poseidon(tmp_path, **keys)
    assert cli_main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "/poseidon: r_" in err
    assert "internal error" not in err


def test_cli_rejects_a_state_too_wide_before_deriving(tmp_path, capsys, no_poseidon_derivation):
    path = _rewrite_poseidon(tmp_path, t=4000)
    assert cli_main(["check", path]) == 2
    assert "/poseidon: state width t=4000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize("alpha", [1, -1])
def test_cli_rejects_an_sbox_exponent_below_three(tmp_path, capsys, alpha, command):
    # x^1 makes the permutation linear; x^-1 has no mul chain in the
    # circuit while the reference inverts.
    path = _rewrite_poseidon(tmp_path, alpha=alpha)
    assert cli_main([command, path]) == 2
    err = capsys.readouterr().err
    assert f"/poseidon: alpha={alpha} must be >= 3" in err


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize("keys", [
    {"r_partial": 10**9}, {"r_partial": 1025}, {"r_full": 66}, {"r_full": 10**9},
    {"alpha": str(2**521 - 1)}, {"alpha": 257},
], ids=["r_partial-1e9", "r_partial-1025", "r_full-66", "r_full-1e9", "alpha-521-bits", "alpha-257"])
def test_cli_rejects_poseidon_parameters_above_their_caps(tmp_path, capsys, no_poseidon_derivation,
                                                          keys, command):
    # Decided before any round constant is derived: an r_partial of 10^9
    # would first derive 9 * 10^9 constants, a 521-bit alpha would build
    # an S-box chain of 1,040 muls per lane, and oracle never hashes.
    path = _rewrite_poseidon(tmp_path, **keys)
    assert cli_main([command, path]) == 2
    err = capsys.readouterr().err
    (key, value), = keys.items()
    assert err.startswith(f"error: /poseidon: {key}={value} ") and "internal error" not in err


def test_poseidon_caps_admit_every_derived_pair():
    # The derived round numbers at the test primes and every admitted width
    # stay below the caps, at each S-box exponent the tests use.  They peak
    # at R_F 12 and R_P 85, at 2^127 - 39, the prime below 2^127 - 1 where
    # alpha = 3 is admitted.
    peak = (0, 0)
    for prime in (2**127 - 1, 2**127 - 39, 262147, 32779, 521):
        for alpha in (3, 5, 7):
            if (prime - 1) % alpha == 0:
                continue
            for t in range(2, poseidon.MAX_T + 1):
                r_full, r_partial = poseidon.round_numbers(prime, t, alpha)
                peak = (max(peak[0], r_full), max(peak[1], r_partial))
    assert peak == (12, 85)
    assert peak[0] <= poseidon.MAX_R_FULL and peak[1] <= poseidon.MAX_R_PARTIAL
    pp = PoseidonParams(prime=2**127 - 1, t=2, alpha=poseidon.MAX_ALPHA - 2,
                        r_full=poseidon.MAX_R_FULL, r_partial=poseidon.MAX_R_PARTIAL)
    assert (pp.r_full, pp.r_partial) == (poseidon.MAX_R_FULL, poseidon.MAX_R_PARTIAL)


@pytest.mark.parametrize("coord_bits", [1, 2])
@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_cli_gen_too_narrow_coord_bits_exits_two(tmp_path, capsys, kind, coord_bits):
    # The generators need room for a circle or a road corridor; narrower
    # widths are a spec error, not a generator crash.
    n_geo = 2 if kind == "ev" else 8
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, "n_traj": 8, "n_geo": n_geo, "coord_bits": coord_bits}))
    assert cli_main(["gen", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /coord_bits:") and "internal error" not in err
    with pytest.raises(GenerationFailed, match="below 3"):
        FixtureSpec(kind=kind, seed=0, n_traj=8, n_geo=n_geo, coord_bits=coord_bits)
    for bits in (3, 4):
        inst = gen_fixture(FixtureSpec(kind=kind, seed=0, n_traj=8, n_geo=n_geo, coord_bits=bits))
        assert inst.field_params.coord_bits == bits


@pytest.mark.parametrize("n_geo", [1, 2, 3])
def test_tax_spec_with_too_few_triangles_is_rejected_up_front(tmp_path, capsys, monkeypatch, n_geo):
    # The corridor of a tax fixture has 4 triangles whatever the seed, so a
    # smaller n_geo is a spec error, found before any corridor is drawn.
    with pytest.raises(GenerationFailed, match="^/n_geo: .* below 4"):
        FixtureSpec(kind="tax", seed=1, n_traj=8, n_geo=n_geo)
    drawn = []
    monkeypatch.setattr(appio, "corridor_triangulate", lambda *args: drawn.append(args))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "tax", "seed": 1, "n_traj": 8, "n_geo": n_geo}))
    assert cli_main(["gen", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /n_geo:") and "tries" not in err
    assert drawn == []


def test_non_compliant_one_point_tax_spec_is_rejected_up_front(tmp_path, capsys, monkeypatch):
    # One point has no segment, so its taxed distance is 0 and every
    # d_max >= 0 holds: no seed gives a non-compliant fixture, and the spec
    # is an error found before any corridor is drawn.
    with pytest.raises(GenerationFailed, match="^/n_traj: 1 point .*/mode non_compliant"):
        FixtureSpec(kind="tax", seed=1, n_traj=1, n_geo=4, mode="non_compliant")
    drawn = []
    monkeypatch.setattr(appio, "corridor_triangulate", lambda *args: drawn.append(args))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "tax", "seed": 1, "n_traj": 1, "n_geo": 4, "mode": "non_compliant"}))
    assert cli_main(["gen", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: /n_traj:") and "after 20 tries" not in err
    assert drawn == []


@pytest.mark.parametrize("kind, mode", [("ev", "non_compliant"), ("ev", "compliant"),
                                        ("tax", "boundary"), ("tax", "compliant")])
def test_one_point_specs_that_can_hold_generate(kind, mode):
    inst = gen_fixture(FixtureSpec(kind=kind, seed=1, n_traj=1, n_geo=4, mode=mode))
    assert len(inst.trail.points) == 1
    assert statements.oracle_verdict(inst) == (mode != "non_compliant")


@pytest.mark.parametrize("coord_bits", [3, 4, 12, 24, 40])
def test_tax_spec_at_the_corridor_triangles_generates(coord_bits):
    spec = FixtureSpec(kind="tax", seed=1, n_traj=8, n_geo=appio.MIN_TAX_GEO, coord_bits=coord_bits)
    triangles = gen_fixture(spec).ad.geometry.triangles
    assert len(set(triangles)) == len(triangles) == 4  # the corridor, unpadded


def test_cli_cost_n_traj_above_cap_exits_two(capsys, monkeypatch):
    # Rejected before the dummy trail of 4097 points is hashed.
    hashed = []
    monkeypatch.setattr(localcalc, "poseidon_digest_ref", lambda *args: hashed.append(args))
    argv = ["cost", "--kind", "ev", "--n-traj", "4097", "--n-circ", "1"]
    assert cli_main(argv) == 2
    assert "cap" in capsys.readouterr().err
    assert not hashed


def test_cli_cost_csv(capsys):
    assert cli_main(["cost", "--kind", "ev", "--n-traj", "4", "8", "--n-circ", "2", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("kind,n_traj,n_geo,n_mul")
    assert len(lines) == 3


@pytest.mark.parametrize("coord_bits", ["0", "41"])
def test_cli_cost_bad_coord_bits_exits_two(coord_bits, capsys):
    # 0 is not positive; 41 needs p > 2^129, above the default 2^127 - 1.
    argv = ["cost", "--kind", "ev", "--n-traj", "2", "--n-circ", "1", "--coord-bits", coord_bits]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "coord_bits" in err


HUGE_COORD_BITS = "1000000000000"  # 2^(3k + 6) would take about 375 GB


@pytest.mark.parametrize("command", ["cost", "gen", "check"])
def test_cli_huge_coord_bits_exits_two(tmp_path, capsys, command):
    # The field bound is decided on bit lengths, so a coord_bits this large
    # is an input error from the command line, a spec file and an instance
    # file alike, not a MemoryError.
    if command == "cost":
        argv = ["cost", "--kind", "ev", "--n-traj", "2", "--n-circ", "1",
                "--coord-bits", HUGE_COORD_BITS]
    elif command == "gen":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            {"kind": "ev", "n_traj": 2, "n_geo": 1, "coord_bits": HUGE_COORD_BITS}))
        argv = ["gen", str(path)]
    else:
        path = _write_fixture(tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace('"coord_bits": 12', f'"coord_bits": "{HUGE_COORD_BITS}"'))
        argv = ["check", path]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"coord_bits={HUGE_COORD_BITS}" in err


def test_cli_session_honest(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert cli_main(["session", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"] == {"prover": "ok", "verifier": "ok"}


def test_cli_session_corrupt_prover(tmp_path, capsys):
    path = _write_fixture(tmp_path)
    assert cli_main(["session", path, "--scenario", "corrupt-prover"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["verifier"] == "not_ok"


def test_cli_session_sid_that_is_not_utf8_exits_two(tmp_path, capsys):
    # The bytes b"\xff" reach argv as the lone surrogate "\udcff", which
    # signing_bytes could not encode: a usage error, before any session.
    path = _write_fixture(tmp_path)
    assert cli_main(["session", path, "--sid", "\udcff"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --sid" in captured.err
    assert "internal error" not in captured.err


def test_cli_gen_writes_loadable_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "ev", "seed": 1, "n_traj": 8, "n_geo": 2}))
    out_path = tmp_path / "out.json"
    assert cli_main(["gen", str(spec_path), "--out", str(out_path)]) == 0
    inst = load_instance(out_path)
    assert statements.oracle_verdict(inst)


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli_main(["check", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["latin-1", "directory"])
@pytest.mark.parametrize("command", ["check", "oracle", "fuzz", "session", "gen"])
def test_cli_unreadable_input_exits_two(tmp_path, capsys, command, bad):
    path = tmp_path / "input.json"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"kind": "ev", "n_traj": 8, "n_geo": 2, "mode": "é"}'.encode("latin-1"))
    assert cli_main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


def test_cli_gen_into_a_directory_exits_two(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "ev", "seed": 1, "n_traj": 8, "n_geo": 2}))
    assert cli_main(["gen", str(spec_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err


def test_cli_gen_malformed_spec_exits_two(tmp_path, capsys):
    good = {"kind": "ev", "seed": 1, "n_traj": 8, "n_geo": 2}
    texts = [
        "{bad",
        "[1, 2]",
        json.dumps({**good, "n_traj": "eight"}),
        json.dumps({**good, "n_traj": 8.5}),
        json.dumps({**good, "seed": [1]}),
        json.dumps({**good, "coord_bits": 0}),
        json.dumps({"kind": "ev", "n_traj": 8}),
    ]
    for i, text in enumerate(texts):
        path = tmp_path / f"spec{i}.json"
        path.write_text(text)
        assert cli_main(["gen", str(path)]) == 2, text
    # check treats the same malformed files the same way
    assert cli_main(["check", str(tmp_path / "spec0.json")]) == 2
    assert cli_main(["check", str(tmp_path / "spec1.json")]) == 2
    capsys.readouterr()


def test_load_spec_error_carries_json_pointer(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "ev", "n_traj": 8, "n_geo": "two"}))
    with pytest.raises(SchemaError, match="/n_geo"):
        load_spec(path)


# -- integers are read, never truncated ----------------------------------


# Each of these is neither a JSON int nor ASCII digits with an optional
# leading '-', though int() would convert it.
@pytest.mark.parametrize("value", [2907.75, 12.0, True, False, " 12", "1_000", "+5", "١٢"])
def test_as_int_rejects_what_int_would_convert(value):
    with pytest.raises(SchemaError, match="^/x: not an integer"):
        appio._as_int(value, "/x")


def _set_first_x(doc):
    doc["trail"]["points"][0][0] = int(doc["trail"]["points"][0][0]) + 0.75
    return "/trail/points/0/0"


def _set_p_req(doc):
    doc["policy"]["p_req"] = int(doc["policy"]["p_req"]) + 0.9
    return "/policy/p_req"


def _set_poseidon_t(doc):
    doc["poseidon"]["t"] = 9.6
    return "/poseidon/t"


def _set_schema_version(doc):
    doc["schema_version"] = True
    return "/schema_version"


@pytest.mark.parametrize("command", ["check", "oracle"])
@pytest.mark.parametrize(
    "rewrite", [_set_first_x, _set_p_req, _set_poseidon_t, _set_schema_version],
    ids=["first-x", "p_req", "poseidon-t", "schema_version"])
def test_cli_rejects_a_number_that_is_not_an_integer(tmp_path, capsys, command, rewrite):
    # The fixture is compliant, so a truncating reader would exit 0.
    path = _write_fixture(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    pointer = rewrite(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert cli_main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: not an integer")


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_cli_integer_literal_past_the_digit_limit_exits_two(tmp_path, capsys, command):
    # json.load raises a plain ValueError for an int of more than 4,300
    # digits (the interpreter's int-string limit), not a JSONDecodeError.
    path = _write_fixture(tmp_path)
    with open(path) as fh:
        text = fh.read()
    assert '"coord_bits": 12' in text
    with open(path, "w") as fh:
        fh.write(text.replace('"coord_bits": 12', '"coord_bits": ' + "9" * 5001))
    assert cli_main([command, path]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_cli_gen_integer_literal_past_the_digit_limit_exits_two(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"kind": "ev", "n_traj": ' + "9" * 5001 + ', "n_geo": 1}')
    assert cli_main(["gen", str(spec_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# -- geometry count cap ---------------------------------------------------


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_cli_gen_n_geo_above_cap_exits_two(tmp_path, capsys, monkeypatch, kind):
    # Rejected before any geometry is drawn.
    def drawn(*args):
        raise AssertionError("geometry drawn")

    monkeypatch.setattr(appio, "_gen_ev", drawn)
    monkeypatch.setattr(appio, "_gen_tax", drawn)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": kind, "seed": 1, "n_traj": 8, "n_geo": 4097}))
    assert cli_main(["gen", str(spec_path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_cost_n_traj_times_n_geo_above_cap_exits_two(capsys, monkeypatch):
    # Each size is within its own cap; their product is not.  Nothing is built.
    def built(*args, **kwargs):
        raise AssertionError("statement built")

    monkeypatch.setattr(statements, "_dummy_instance", built)
    monkeypatch.setattr(statements, "build_statement", built)
    argv = ["cost", "--kind", "ev", "--n-traj", "4096", "--n-circ", "4096"]
    assert cli_main(argv) == 2
    assert "n_traj x n_geo" in capsys.readouterr().err


def test_fixture_spec_caps_n_traj_times_n_geo(tmp_path, capsys):
    with pytest.raises(GenerationFailed, match="n_traj x n_geo"):
        FixtureSpec(kind="tax", seed=0, n_traj=4096, n_geo=5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "ev", "seed": 1, "n_traj": 4096, "n_geo": 4096}))
    assert cli_main(["gen", str(spec_path)]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_cost_n_geo_above_cap_exits_two(capsys, monkeypatch):
    # Rejected before the 4097 dummy circles are allocated.
    def allocated(*args):
        raise AssertionError("dummy geometry allocated")

    monkeypatch.setattr(statements, "_dummy_instance", allocated)
    argv = ["cost", "--kind", "ev", "--n-traj", "2", "--n-circ", "4097"]
    assert cli_main(argv) == 2
    assert "cap" in capsys.readouterr().err


# -- malformed-input sweep -------------------------------------------------

# Each bad value a sweep writes at every JSON pointer of a file: the
# integers at the edges of the caps and the field, and every JSON type
# that is not the one expected.  The long list is one past the 4,096 cap.
BAD_VALUES = (None, True, False, -1, 0, 1, 2, 2**130, -2**130, 1.5, "x", "7", [], {},
              ["1"], list(range(4097)))
# session builds and signs whatever loads, so it sweeps a subset: one
# value of each JSON type, an edge of the caps and a digit string.
SESSION_BAD_VALUES = (None, True, 2, 2**130, 1.5, "x", "7", [], {})
DELETED = object()


def _pointers(node, path=()):
    """Every path into a JSON document below its root, taking the first
    entry of each list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:1])
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _pointers(child, path + (key,))


def _sweep(doc, values):
    """(pointer, value, document) for each pointer of doc set to each of
    values, and deleted."""
    for path in _pointers(doc):
        for value in (*values, DELETED):
            bad = json.loads(json.dumps(doc))
            *head, last = path
            parent = functools.reduce(operator.getitem, head, bad)
            if value is DELETED:
                del parent[last]
            else:
                parent[last] = value
            yield "/" + "/".join(map(str, path)), value, bad


@pytest.fixture
def one_parser(monkeypatch):
    """cli.main with its argument parser built once: building it is most of
    the cost of a run that the file rejects."""
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))


def _assert_exits_cleanly(capsys, argv, pointer, value):
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "internal error" not in err, (argv[0], pointer, repr(value)[:40], code, err)


@pytest.mark.parametrize("command", ["check", "oracle", "session"])
@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_malformed_instance_sweep(tmp_path, capsys, one_parser, kind, command):
    inst = gen_fixture(FixtureSpec(kind=kind, seed=1, n_traj=4, n_geo=2 if kind == "ev" else 4))
    values = SESSION_BAD_VALUES if command == "session" else BAD_VALUES
    path = tmp_path / "inst.json"
    for pointer, value, bad in _sweep(serialize_instance(inst), values):
        path.write_text(json.dumps(bad))
        _assert_exits_cleanly(capsys, [command, str(path)], pointer, value)


@pytest.mark.parametrize("kind", ["ev", "tax"])
def test_malformed_spec_sweep(tmp_path, capsys, one_parser, kind):
    spec = {"kind": kind, "seed": 1, "n_traj": 4, "n_geo": 4, "coord_bits": 12, "mode": "compliant"}
    path = tmp_path / "spec.json"
    for pointer, value, bad in _sweep(spec, BAD_VALUES):
        path.write_text(json.dumps(bad))
        _assert_exits_cleanly(capsys, ["gen", str(path)], pointer, value)
