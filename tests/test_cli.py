import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import plektonlab
from plektonlab.cli import main
from plektonlab.suites import SUITES
from tests.conftest import ASSETS


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the suites run in forked workers only where fork exists")


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


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--suite", "geometry", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err and "Traceback" not in err


@needs_fork
def test_verify_all_prints_tracebacks_in_suite_order(monkeypatch, capsys):
    # braid fails last in time, cpt first; their tracebacks still come in
    # SUITES order, from the workers back to this process
    from plektonlab import suites

    def slow_raise(model, scene, seed):
        time.sleep(0.5)
        raise ValueError("braid raised late")

    def fast_raise(model, scene, seed):
        raise KeyError("cpt raised early")

    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.05")
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(suites._SUITE_FUNCS, "braid", slow_raise)
    monkeypatch.setitem(suites._SUITE_FUNCS, "cpt", fast_raise)
    code, _, err = run(capsys, "verify", "--suite", "all",
                       "--model", str(ASSETS / "z3_anyon.json"), "--seed", "4")
    assert code == 1
    assert err.count("Traceback") == 2
    assert 0 <= err.index("braid raised late") < err.index("cpt raised early")


_DYING_WORKER = """
import os, sys
from plektonlab import suites
from plektonlab.cli import main

suites._usable_cpus = lambda: 2
suites._SUITE_FUNCS["cpt"] = lambda model, scene, seed: os._exit(3)
sys.exit(main(sys.argv[1:]))
"""


@needs_fork
def test_verify_all_turns_a_dead_worker_into_error_rows():
    env = {**os.environ, "PLEKTONLAB_SWEEP": "0.05",
           "PYTHONPATH": str(Path(plektonlab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _DYING_WORKER, "verify", "--suite", "all",
         "--model", str(ASSETS / "z3_anyon.json"), "--seed", "4", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    failed = [c for c in json.loads(proc.stdout)["checks"] if c["status"] != "pass"]
    aborted = [f"{name}-aborted" for name in SUITES[:-1]]
    assert "cpt-aborted" in [c["name"] for c in failed]
    for c in failed:
        assert c["name"] in aborted and c["status"] == "error"
        assert c["note"].startswith("BrokenProcessPool: ")


def test_importing_the_cli_imports_no_process_machinery():
    # the pool's modules are imported only when `verify --suite all` runs
    env = {**os.environ, "PYTHONPATH": str(Path(plektonlab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, plektonlab.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_runs_the_cli():
    # an uninstalled checkout runs the CLI as `python -m plektonlab`
    env = {**os.environ, "PYTHONPATH": str(Path(plektonlab.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "plektonlab", "model-validate", "--model", "assets/z3_anyon.json"],
        cwd=ASSETS.parent, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASSED" in proc.stdout
