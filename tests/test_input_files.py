"""Scene, model and word files: every number must be a finite number (not a
boolean or a string), every integer field must hold an integer, a path id must
be a string, and a bad value is a usage error (exit 2) or a
ValueError whose message names the entry or field."""

import json
import math
import re

import pytest

from plektonlab.cli import main
from plektonlab.fields import load_word
from plektonlab.scenes import load_scene
from plektonlab.sectors import load_model
from tests.conftest import ASSETS
from tests.test_golden_report import GOLDEN_DIR

TWO_PI = 2.0 * math.pi


def _scene(first: dict, frame: dict | None = None) -> dict:
    doc = {"cones": [
        {"id": "A", "apex": [0, 0, 0], "center_angle": 0.0, "half_opening": 0.3, **first},
        {"id": "B", "apex": [0, 0, 0], "center_angle": 3.0, "half_opening": 0.3},
    ]}
    if frame is not None:
        doc["frame"] = frame
    return doc


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("doc, named", [
    (_scene({"apex": [math.nan, 0, 0]}), "cones[0]: apex[0] must be a finite number"),
    (_scene({"apex": [0, 0, -math.inf]}), "cones[0]: apex[2] must be a finite number"),
    (_scene({"center_angle": math.inf}), "cones[0]: center_angle must be a finite number"),
    (_scene({"center_angle": "-Infinity"}), "cones[0]: center_angle must be a finite number"),
    (_scene({"sheet": math.inf}), "cones[0]: sheet must be a finite number"),
    (_scene({"half_opening": math.nan}), "cones[0]: half_opening must be a finite number"),
    (_scene({"kind": "wedge", "half_opening": math.nan}),
     "cones[0]: half_opening must be a finite number"),
    (_scene({}, frame={"reference_angle": math.nan}), "reference_angle must be a finite number"),
    (_scene({"half_opening": 0.0}), "cones[0]: half_opening must lie in (0, pi/2)"),
    (_scene({"half_opening": math.pi / 2.0}), "cones[0]: half_opening must lie in (0, pi/2)"),
    (_scene({"center_angle": 1e300}),
     "cones[0]: center_angle + 2 pi sheet = 1e+300 is too far from 0 (sheet 0)"),
])
def test_scene_rejects_bad_numbers(tmp_path, capsys, doc, named):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))  # writes NaN and Infinity as JSON tokens
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert named in err


def test_scene_rejects_an_overflowing_literal(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene({"center_angle": 123.0})).replace("123.0", "1e999"))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert "cones[0]: center_angle must be a finite number" in err


@pytest.mark.parametrize("change, named", [
    ({"mass": math.nan}, "mass must be a finite positive number"),
    ({"mass": math.inf}, "mass must be a finite positive number"),
    ({"group": {"ZN": math.inf}}, "group.ZN must be a finite number"),
    ({"omega": {"k": math.nan, "M": 3}}, "omega.k must be a finite number"),
    ({"spin": {"p": 1, "q": -math.inf}}, "spin.q must be a finite number"),
])
def test_model_rejects_non_finite_numbers(tmp_path, capsys, change, named):
    doc = json.loads((ASSETS / "z3_anyon.json").read_text())
    doc.update(change)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["model-validate"], ["verify", "--suite", "wigner", "--seed", "1"]):
        code, err = _run(capsys, *argv, "--model", str(path))
        assert code == 2
        assert named in err


@pytest.mark.parametrize("change, named", [
    ({"group": {"ZN": 3.5}}, "group.ZN must be an integer, got 3.5"),
    ({"group": {"ZN": True}}, "group.ZN must be an integer, got True"),
    ({"omega": {"k": 1.9, "M": 3}}, "omega.k must be an integer, got 1.9"),
    ({"spin": {"p": 1, "q": 0}}, "spin.q must be nonzero, got 0"),
    ({"omega": {"k": 1, "M": 0}}, "omega.M must be positive, got 0"),
    ({"omega_sqrt": {"k": 1, "M": -3}}, "omega_sqrt.M must be positive, got -3"),
    ({"group": {"ZN": 0}}, "group.ZN must be positive, got 0"),
])
def test_model_rejects_non_integer_fields(tmp_path, capsys, change, named):
    doc = json.loads((ASSETS / "z3_anyon.json").read_text())
    doc.update(change)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["model-validate"], ["verify", "--suite", "wigner", "--seed", "1"]):
        code, err = _run(capsys, *argv, "--model", str(path))
        assert code == 2
        assert f"{path}: {named}" in err


def test_scene_rejects_a_fractional_sheet(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene({"sheet": 1.5})))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert "cones[0]: sheet must be an integer, got 1.5" in err


@pytest.mark.parametrize("field, value, named", [
    ("charge", 1.5, "factors[0].charge must be an integer, got 1.5"),
    ("charge", True, "factors[0].charge must be an integer, got True"),
    ("charge", "2", "factors[0].charge must be an integer, got '2'"),
    ("charge", math.inf, "factors[0].charge must be a finite number, got inf"),
    ("charge", math.nan, "factors[0].charge must be a finite number, got nan"),
    ("k", 0.5, "coeff.k must be an integer, got 0.5"),
    ("M", 2.5, "coeff.M must be an integer, got 2.5"),
    ("M", 0, "coeff.M must be positive, got 0"),
    ("M", -3, "coeff.M must be positive, got -3"),
])
def test_word_rejects_bad_integer_fields(tmp_path, field, value, named):
    doc = json.loads((ASSETS / "example_word.json").read_text())
    if field == "charge":
        doc["factors"][0]["charge"] = value
    else:
        doc["coeff"][field] = value
    path = tmp_path / "word.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(ASSETS / "antipodal_scene.json")
    with pytest.raises(ValueError, match=re.escape(named)):
        load_word(path, scene)
    # the shipped word loads
    assert len(load_word(ASSETS / "example_word.json", scene).factors) == 2


@pytest.mark.parametrize("doc, named", [
    (_scene({"apex": [True, 0, 0]}), "cones[0]: apex[0] must be a finite number, got True"),
    (_scene({"center_angle": False}), "cones[0]: center_angle must be a finite number, got False"),
    (_scene({"half_opening": True}), "cones[0]: half_opening must be a finite number, got True"),
    (_scene({"center_angle": [1]}), "cones[0]: center_angle must be a finite number, got [1]"),
    (_scene({"center_angle": None}), "cones[0]: center_angle must be a finite number, got None"),
    (_scene({}, frame={"reference_angle": True}),
     "frame: reference_angle must be a finite number, got True"),
])
def test_scene_rejects_booleans_and_non_numbers(tmp_path, capsys, doc, named):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert named in err


def test_scene_rejects_an_integer_beyond_float(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene({"center_angle": 10 ** 400})))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert "cones[0]: center_angle must be a finite number" in err


@pytest.mark.parametrize("entry", [{"kind": "cone"},
                                   {"kind": "wedge", "half_opening": math.pi / 2}],
                         ids=["cone", "wedge"])
@pytest.mark.parametrize("sheet", [10 ** 400, -10 ** 400, 10 ** 308],
                         ids=["1e400", "-1e400", "1e308"])
def test_scene_rejects_a_sheet_beyond_float(tmp_path, capsys, entry, sheet):
    # 10**400 is no float at all; 2 pi 10**308 overflows to infinity
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene({"sheet": sheet, **entry})))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert "cones[0]: center_angle + 2 pi sheet must be a finite number" in err


@pytest.mark.parametrize("entry", [{"kind": "cone"},
                                   {"kind": "wedge", "half_opening": math.pi / 2}],
                         ids=["cone", "wedge"])
def test_scene_names_a_sheet_that_rounds_the_arc(tmp_path, capsys, entry):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene({"sheet": 10 ** 15, **entry})))
    code, err = _run(capsys, "winding", "--scene", str(path))
    assert code == 2
    assert (f"cones[0]: center_angle + 2 pi sheet = {TWO_PI * 10 ** 15!r} is too far from 0 "
            f"(sheet {10 ** 15})") in err


@pytest.mark.parametrize("mass, named", [
    (True, "mass must be a finite positive number, got True"),
    ([1], "mass must be a finite positive number, got [1]"),
    ({"a": 1}, "mass must be a finite positive number, got {'a': 1}"),
    ("1.0", "mass must be a finite positive number, got '1.0'"),
    (0, "mass must be a finite positive number, got 0"),
])
def test_model_rejects_a_mass_that_is_not_a_positive_number(tmp_path, capsys, mass, named):
    doc = json.loads((ASSETS / "z3_anyon.json").read_text())
    doc["mass"] = mass
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, err = _run(capsys, "model-validate", "--model", str(path))
    assert code == 2
    assert named in err


def test_shipped_assets_load():
    for name in ("z3_anyon.json", "z2_fermion.json", "free_boson.json"):
        load_model(ASSETS / name)
    scene = load_scene(ASSETS / "antipodal_scene.json")
    for name in ("winding_fan.json", "winding_edges.json"):
        load_scene(GOLDEN_DIR / name)
    assert len(load_word(ASSETS / "example_word.json", scene).factors) == 2


@pytest.mark.parametrize("path_id", [["C1"], {"id": "C1"}])
def test_word_rejects_a_path_id_that_is_not_a_string(tmp_path, path_id):
    doc = json.loads((ASSETS / "example_word.json").read_text())
    doc["factors"][0]["path"] = path_id
    path = tmp_path / "word.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(ASSETS / "antipodal_scene.json")
    named = f"factors[0].path must be a string, got {path_id!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        load_word(path, scene)
