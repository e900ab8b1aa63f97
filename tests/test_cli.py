import json

import pytest

from plektonlab.cli import main
from tests.conftest import ASSETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_model_validate_pass(capsys):
    code, out, _ = run(capsys, "model-validate", "--model", str(ASSETS / "z2_fermion.json"))
    assert code == 0
    assert "PASSED" in out


def test_model_validate_fail(tmp_path, capsys):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({
        "group": {"ZN": 3}, "omega": {"k": 1, "M": 4},
        "omega_sqrt": {"k": 1, "M": 8}, "spin": {"p": 1, "q": 4},
    }))
    code, out, _ = run(capsys, "model-validate", "--model", str(bad))
    assert code == 1
    assert "omega^3" in out


def test_model_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{\n  broken\n}")
    code, _, err = run(capsys, "model-validate", "--model", str(bad))
    assert code == 2
    assert "line 2" in err


def test_winding_antipodal_scene(capsys):
    code, out, _ = run(capsys, "winding", "--scene", str(ASSETS / "antipodal_scene.json"),
                       "--pairs", "C2:C1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "plektonlab/1"
    row = doc["rows"][0]
    assert row["second"] == "C2" and row["first"] == "C1"
    assert row["N"] == -1


def test_winding_flags_non_separated_pairs(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "cones": [
            {"id": "A", "apex": [0, 0, 0], "center_angle": 0.0, "half_opening": 0.3},
            {"id": "B", "apex": [2.0, 0, 0], "center_angle": 0.0, "half_opening": 0.3},
        ]
    }))
    code, out, _ = run(capsys, "winding", "--scene", str(scene), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert all(row["status"] == "error" for row in doc["rows"])
    assert not doc["passed"]


def test_winding_unknown_pair_id(capsys):
    code, _, err = run(capsys, "winding", "--scene", str(ASSETS / "antipodal_scene.json"),
                       "--pairs", "C2:NOPE")
    assert code == 2
    assert "unknown path id" in err


def test_scene_parse_error(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps({"cones": [{"id": "A", "apex": [0, 0, 0]}]}))
    code, _, err = run(capsys, "winding", "--scene", str(bad))
    assert code == 2
    assert "center_angle" in err


def test_verify_suite_runs_and_is_deterministic(capsys):
    args = ["verify", "--suite", "braid", "--model", str(ASSETS / "z3_anyon.json"),
            "--seed", "11", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "plektonlab/1"
    assert doc["suite"] == "braid"
    assert doc["passed"]


def test_verify_requires_model(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cpt", "--seed", "1")
    assert code == 1
    assert "requires --model" in out


def test_verify_wigner_needs_mass(tmp_path, capsys):
    massless = tmp_path / "massless.json"
    massless.write_text(json.dumps({
        "group": {"ZN": 3}, "omega": {"k": 1, "M": 3},
        "omega_sqrt": {"k": 2, "M": 3}, "spin": {"p": 1, "q": 3},
    }))
    code, out, _ = run(capsys, "verify", "--suite", "wigner",
                       "--model", str(massless), "--seed", "1")
    assert code == 1
    assert "mass" in out


def test_verify_geometry_with_scene(capsys):
    import os

    os.environ["PLEKTONLAB_SWEEP"] = "0.05"
    try:
        code, out, _ = run(capsys, "verify", "--suite", "geometry",
                           "--scene", str(ASSETS / "antipodal_scene.json"), "--seed", "2")
    finally:
        del os.environ["PLEKTONLAB_SWEEP"]
    assert code == 0
    assert "scene-winding-definition-agreement" in out


def test_verify_cpt_rejects_non_invariant_reference_cone(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "frame": {"reference_angle": 0.3},
        "cones": [{"id": "A", "apex": [0, 0, 0], "center_angle": 0.0,
                   "half_opening": 0.2}],
    }))
    code, out, _ = run(capsys, "verify", "--suite", "cpt",
                       "--model", str(ASSETS / "z3_anyon.json"),
                       "--scene", str(scene), "--seed", "1")
    assert code == 1
    assert "precondition" in out and "reference cone" in out


def test_verify_all_smoke(capsys):
    import os

    os.environ["PLEKTONLAB_SWEEP"] = "0.05"
    try:
        code, out, _ = run(capsys, "verify", "--suite", "all",
                           "--model", str(ASSETS / "z3_anyon.json"),
                           "--scene", str(ASSETS / "antipodal_scene.json"),
                           "--seed", "4", "--format", "json")
    finally:
        del os.environ["PLEKTONLAB_SWEEP"]
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert {"winding-antisymmetry", "exchange-involution",
            "twisted-locality-commutator", "cpt-involution",
            "pseudo-tomita-involution", "wigner-cocycle"} <= names


@pytest.mark.parametrize("value", ["abc", "nan", "inf"])
def test_verify_rejects_bad_sweep_scale(value, monkeypatch, capsys):
    monkeypatch.setenv("PLEKTONLAB_SWEEP", value)
    code, out, err = run(capsys, "verify", "--suite", "twist",
                         "--model", str(ASSETS / "z3_anyon.json"), "--seed", "7")
    assert code == 2
    assert out == ""
    assert "PLEKTONLAB_SWEEP" in err and repr(value) in err


def test_usage_error_exit_code(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["no-such-command"]) == 2


def test_verify_isolates_a_suite_that_raises(monkeypatch, capsys):
    from plektonlab import suites
    from plektonlab.cones import SeparationError

    def raising(exc):
        def suite(model, scene, seed):
            raise exc
        return suite

    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.05")
    monkeypatch.setitem(suites._SUITE_FUNCS, "braid",
                        raising(SeparationError("grazing pair")))
    monkeypatch.setitem(suites._SUITE_FUNCS, "cpt",
                        raising(RuntimeError("failed to generate a separated pair")))
    code, out, err = run(capsys, "verify", "--suite", "all",
                         "--model", str(ASSETS / "z3_anyon.json"),
                         "--seed", "4", "--format", "json")
    assert code == 1
    assert "Traceback" in err
    doc = json.loads(out)
    # the geometry, twist, tomita and wigner suites still ran and passed
    passed = {c["name"] for c in doc["checks"] if c["status"] == "pass"}
    assert {"winding-antisymmetry", "twisted-locality-commutator",
            "pseudo-tomita-involution", "wigner-cocycle"} <= passed
    assert [c for c in doc["checks"] if c["status"] != "pass"] == [
        {"name": "braid-aborted", "status": "error", "note": "SeparationError: grazing pair"},
        {"name": "cpt-aborted", "status": "error",
         "note": "RuntimeError: failed to generate a separated pair"},
    ]
