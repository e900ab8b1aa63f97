"""Tests for the benchmark's correctness checks.

Each check must accept the program's real output and reject a deliberately
perturbed copy of it, so that a broken check cannot pass silently.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from plektonlab import cones, fields, lattice, minkowski, wigner  # noqa: E402
from plektonlab.report import Report  # noqa: E402

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _verify_text(status: str = "pass", suite: str = "all") -> str:
    rep = Report(command="verify", suite=suite, seed=7)
    rep.add_pass("winding-antisymmetry", exact="0/300 violations")
    rep.add("wigner-cocycle", status, residual=1e-13)
    return rep.to_json()


def test_verify_accepts_passing_report():
    text = _verify_text()
    assert checks.verify_report_problems(0, text, None) == []
    assert checks.verify_report_problems(0, text, text) == []


@pytest.mark.parametrize("code, text, first", [
    (1, _verify_text(), None),
    (0, _verify_text(status="fail"), None),
    (0, _verify_text(suite="twist"), None),
    (0, _verify_text().replace("plektonlab/1", "plektonlab/2"), None),
    (0, "not json", None),
    (0, _verify_text(), _verify_text().replace("1e-13", "2e-13")),
])
def test_verify_rejects(code, text, first):
    assert checks.verify_report_problems(code, text, first)


# ---------------------------------------------------------------------------
# winding-table
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def winding_output(tmp_path_factory):
    fan = workloads.make_fan(np.random.default_rng(11), 6)
    path = tmp_path_factory.mktemp("scene") / "fan.json"
    path.write_text(json.dumps({"cones": fan}), encoding="utf-8")
    code, text = workloads._cli(["winding", "--scene", str(path), "--format", "json"])
    return fan, code, text


def test_winding_accepts_program_output(winding_output):
    fan, code, text = winding_output
    assert len({c["sheet"] for c in fan}) > 1
    assert checks.winding_table_problems(code, text, fan) == []


def _perturbed_rows(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["rows"])
    return json.dumps(doc)


def _shift_pair(rows):
    # keeps N(i,j) + N(j,i) = -1, so only the floor formula can catch it
    a, b = rows[0]["second"], rows[0]["first"]
    for row in rows:
        if (row["second"], row["first"]) == (a, b):
            row["N"] += 1
        elif (row["second"], row["first"]) == (b, a):
            row["N"] -= 1


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0].update(N=rows[0]["N"] + 1),
    _shift_pair,
    lambda rows: rows.pop(),
    lambda rows: rows.append(dict(rows[0])),
    lambda rows: rows[0].update(status="error"),
])
def test_winding_rejects_perturbed_rows(winding_output, edit):
    fan, code, text = winding_output
    assert checks.winding_table_problems(code, _perturbed_rows(text, edit), fan)


def test_winding_rejects_bad_exit_code(winding_output):
    fan, _code, text = winding_output
    assert checks.winding_table_problems(1, text, fan)


def test_winding_rejects_moved_sheet(winding_output):
    fan, code, text = winding_output
    moved = copy.deepcopy(fan)
    moved[0]["sheet"] += 1
    assert checks.winding_table_problems(code, text, moved)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _element(theta: float, rapidity: float, psi: float):
    return minkowski.cover_compose(
        minkowski.cover_rotation(theta + psi),
        minkowski.cover_compose(minkowski.cover_boost1(rapidity),
                                minkowski.cover_rotation(-psi)))


G = _element(9.0, 0.7, 0.4)
H = _element(-2.5, 2.9, -1.9)
PATH = cones.cone_path(minkowski.MVec3(0.1, -0.2, 0.3), 2.0, 0.4, sheet=-2)
POINTS = wigner.shell_points(1.0, np.array([[0.3, -1.2], [2.0, 0.5], [-1.0, -1.5]]))


def _bump(m: np.ndarray, rel: float) -> np.ndarray:
    out = m.copy()
    out[1, 2] += rel * np.abs(m).max()
    return out


def test_compose_accepts_and_rejects():
    gh = minkowski.cover_compose(G, H)
    args = (G.matrix.m, G.angle, H.matrix.m, H.angle)
    assert checks.compose_problems(*args, gh.matrix.m, gh.angle) == []
    assert checks.compose_problems(*args, gh.matrix.m, gh.angle + TWO_PI)
    assert checks.compose_problems(*args, gh.matrix.m, gh.angle + 1e-8)
    assert checks.compose_problems(*args, _bump(gh.matrix.m, 1e-10), gh.angle)


def test_closed_form_product_of_rotations_adds_angles():
    r1, r2 = minkowski.cover_rotation(7.0), minkowski.cover_rotation(-3.0)
    assert checks.lifted_product(7.0, r1.matrix.m, -3.0, r2.matrix.m) == pytest.approx(4.0)


def test_inverse_accepts_and_rejects():
    inv = minkowski.cover_inverse(H)
    args = (H.matrix.m, H.angle)
    assert checks.inverse_problems(*args, inv.matrix.m, inv.angle) == []
    assert checks.inverse_problems(*args, inv.matrix.m, inv.angle - TWO_PI)
    assert checks.inverse_problems(*args, _bump(inv.matrix.m, 1e-10), inv.angle)


def test_wigner_accepts_and_rejects():
    omegas = wigner.wigner_rotation(G, POINTS)
    args = (G.matrix.m, G.angle, POINTS)
    assert checks.wigner_problems(*args, omegas) == []
    off = omegas.copy()
    off[1] += TWO_PI
    assert checks.wigner_problems(*args, off)
    assert checks.wigner_problems(*args, omegas[:2])


def test_act_accepts_and_rejects():
    before = workloads._path_data(PATH)
    after = workloads._path_data(cones.act(H, PATH))
    args = (H.matrix.m, H.angle, before)
    assert checks.act_problems(*args, after) == []
    lo, hi = after["arc"]
    assert checks.act_problems(*args, dict(after, arc=(lo + TWO_PI, hi + TWO_PI)))
    assert checks.act_problems(*args, dict(after, arc=(lo, hi - 1e-8)))
    assert checks.act_problems(*args, dict(after, apex=after["apex"] + 1e-9))


def test_rotation_shift_is_exact():
    moved = cones.act(minkowski.cover_rotation(TWO_PI * 3), PATH)
    before = (PATH.arc.alpha_minus, PATH.arc.alpha_plus)
    after = (moved.arc.alpha_minus, moved.arc.alpha_plus)
    assert checks.rotation_shift_problems(before, after, 3) == []
    assert checks.rotation_shift_problems(before, after, 2)
    assert checks.rotation_shift_problems(before, (after[0], after[1] + 1e-12), 3)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lattice_rung():
    rung = workloads.Lattice().setup(ROOT, 5, ROOT)[1]  # Z_3, three factors
    word, model = rung["word"], rung["model"]
    rep = lattice.lattice_oracle(model, word)
    turns = [fields.exchange(word, i, model).coeff.turns for i in range(len(word.factors) - 1)]
    return rung, rep, turns


def _lattice_args(rung, rep, turns, **changes):
    args = dict(n_group=rung["model"].group_order, charges=rung["charges"], arcs=rung["arcs"],
                dimension=rep.dimension, exchange_residual=rep.exchange_residual,
                adjoint_residual=rep.adjoint_residual, checks=rep.checks,
                exchange_turns=turns)
    args.update(changes)
    return args


def test_lattice_accepts_program_output(lattice_rung):
    rung, rep, turns = lattice_rung
    # the seeded angular order must exercise both windings, -1 and 0
    arcs = rung["arcs"]
    assert {math.floor((arcs[i][0] - arcs[i + 1][1]) / TWO_PI) for i in range(2)} == {-1, 0}
    assert checks.lattice_problems(**_lattice_args(rung, rep, turns)) == []


@pytest.mark.parametrize("change", [
    {"exchange_residual": 1e-6},
    {"adjoint_residual": 1e-6},
    {"dimension": 81},
    {"checks": 6},
])
def test_lattice_rejects_report(lattice_rung, change):
    rung, rep, turns = lattice_rung
    assert checks.lattice_problems(**_lattice_args(rung, rep, turns, **change))


def test_lattice_rejects_exchange_coefficient(lattice_rung):
    rung, rep, turns = lattice_rung
    wrong = [turns[0] + Fraction(1, 3)] + turns[1:]
    assert checks.lattice_problems(**_lattice_args(rung, rep, turns, exchange_turns=wrong))
    # the coefficient of the opposite winding, omega^(c1 c2 (2(-1-n)+1)), is wrong too
    flipped = [-t for t in turns]
    assert checks.lattice_problems(**_lattice_args(rung, rep, turns, exchange_turns=flipped))


# ---------------------------------------------------------------------------
# tracer (in a fresh process: it patches the package's modules)
# ---------------------------------------------------------------------------

_TRACER_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from plektonlab import cli, cones, fields, suites
import tracer, workloads
t = tracer.Tracer()
t.install()
wrapped = {
    "cones": hasattr(cones.causally_separated, "__wrapped__"),
    "fields": fields.causally_separated is cones.causally_separated,
    "cli": cli.relative_winding is cones.relative_winding,
    "suites": suites._SUITE_FUNCS["geometry"] is suites.geometry_suite,
}
t.active = True
workloads._cli(["winding", "--scene", sys.argv[3], "--format", "json"])
comp = cones.cone_path(cones.MVec3(0.0, 0.0, 0.0), 0.0, 0.2, kind="cone-complement")
try:
    cones.causally_separated(comp, comp)
except cones.SeparationError:
    pass
t.active = False
print(json.dumps({"wrapped": wrapped, "metrics": t.metrics(1)}))
"""


def test_tracer_wraps_every_binding_and_counts(tmp_path):
    fan = workloads.make_fan(np.random.default_rng(3), 5)
    scene = tmp_path / "fan.json"
    scene.write_text(json.dumps({"cones": fan}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_SCRIPT, str(ROOT / "src"), str(HERE), str(scene)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(out["wrapped"].values()), out["wrapped"]
    m = out["metrics"]
    assert m["cones.relative_winding.calls"] == 20
    assert m["cones.causally_separated.calls"] == 21
    assert m["cones.causally_separated.raised"] == 1
    assert m["scenes.load_scene.ms"] > 0.0
    assert m["cli.main.ms"] >= m["cones.causally_separated.ms"] > 0.0


def test_benchmark_json_names_the_reported_metrics():
    import tracer

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(tracer.METRICS)
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "op_p50_ms", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
