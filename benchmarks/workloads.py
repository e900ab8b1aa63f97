"""The benchmark workloads: seeded inputs, one timed operation, and checks.

Each workload has ``setup(root, seed, out_dir)`` returning its state,
``run(state)`` (the timed operation), ``check(state, output, first_output)``
returning a list of problems, and ``cleanup(state)``, which removes any file
that set-up wrote.  The program is always
reached through module attributes at call time, so the tracer's wrappers
see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks

TWO_PI = 2.0 * math.pi

VERIFY_SEED = 7
WINDING_CONES = 20
TRANSPORT_ELEMENTS = 16
TRANSPORT_PATHS = 3
TRANSPORT_MAX_RAPIDITY = 3.0
SHELL_POINTS = 12
# (N, word length); dimension N^L from 4 to 729.  4^6 = 4096 is left out:
# it does not finish in minutes (see CHANGES.md).
LATTICE_LADDER = ((2, 2), (3, 3), (2, 6), (4, 3), (5, 3), (3, 5), (4, 4), (5, 4), (3, 6))
# omega = 1/N turns with spin 1/N, and a square root of omega valid for Z_N
_OMEGA_SQRT = {2: (1, 4), 3: (2, 3), 4: (1, 8), 5: (3, 5)}
_LATTICE_CHARGE_SIZES = (1, 2, 1, 2, 1, 2)


def _cli(argv: list[str]) -> tuple[int, str]:
    from plektonlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    def cleanup(self, state) -> None:
        pass


class VerifyAll(Workload):
    """`plektonlab verify --suite all` on the shipped z3 model and antipodal
    scene at the fixed seed 7; the workload seed does not change it."""

    def setup(self, root: Path, seed: int, out_dir: Path):
        from plektonlab import scenes, sectors

        model = root / "assets" / "z3_anyon.json"
        scene = root / "assets" / "antipodal_scene.json"
        sectors.load_model(model)
        scenes.load_scene(scene)
        return ["verify", "--suite", "all", "--model", str(model), "--scene", str(scene),
                "--seed", str(VERIFY_SEED), "--format", "json"]

    def run(self, argv):
        return _cli(argv)

    def check(self, argv, out, first) -> list[str]:
        return checks.verify_report_problems(out[0], out[1], None if first is None else first[1])


def make_fan(rng: np.random.Generator, count: int) -> list[dict]:
    """Scene entries for ``count`` cones spread over one turn, each on a
    random sheet in [-3, 3].

    Neighbouring arcs keep a gap of at least 0.2 of the angular step, and
    each apex lies on its own cone's axis, so each cone sits inside the cone
    of the same arc at the origin; disjoint arcs there make every pair
    causally separated.
    """
    step = TWO_PI / count
    base = rng.uniform(-math.pi, math.pi)
    cones = []
    for k in range(count):
        center = math.remainder(base + (k + rng.uniform(-0.1, 0.1)) * step, TWO_PI)
        radius = rng.uniform(0.0, 0.5)
        cones.append({
            "id": f"K{k:02d}",
            "apex": [0.0, radius * math.cos(center), radius * math.sin(center)],
            "center_angle": center,
            "half_opening": rng.uniform(0.1, 0.3) * step,
            "sheet": int(rng.integers(-3, 4)),
            "kind": "cone",
        })
    return cones


class WindingTable(Workload):
    """`plektonlab winding --scene <generated>` over every ordered pair of a
    seeded fan of WINDING_CONES cones."""

    def setup(self, root: Path, seed: int, out_dir: Path):
        import plektonlab.cli  # noqa: F401  (the package import is part of set-up)

        cones = make_fan(np.random.default_rng(seed), WINDING_CONES)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"scene-seed{seed}-{os.getpid()}.json"
        doc = {"frame": {"reference_angle": math.pi / 2.0}, "cones": cones}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return {"cones": cones, "path": path,
                "argv": ["winding", "--scene", str(path), "--format", "json"]}

    def run(self, state):
        return _cli(state["argv"])

    def check(self, state, out, first) -> list[str]:
        return checks.winding_table_problems(out[0], out[1], state["cones"])

    def cleanup(self, state) -> None:
        state["path"].unlink(missing_ok=True)


def _path_data(path) -> dict:
    return {
        "apex": path.apex.as_array(),
        "normals": np.array([n.as_array() for n in path.normals]),
        "corners": np.array([c.as_array() for c in path.corners]),
        "arc": (path.arc.alpha_minus, path.arc.alpha_plus),
    }


class Transport(Workload):
    """Covering-group work: compose, invert, act on cone paths and Wigner
    rotations, for TRANSPORT_ELEMENTS elements R(theta) B(t, psi).

    The continuation cost of an element grows with its rapidity |t| and its
    lifted angle |theta|, so both follow fixed ladders (rapidity from 0.05 to
    TRANSPORT_MAX_RAPIDITY, |theta| from 12 down to 0.3, about two turns)
    with a seeded 3% jitter; the seed also picks signs, boost directions,
    paths and shell points.  This keeps the work per operation the same for
    every seed.
    """

    def setup(self, root: Path, seed: int, out_dir: Path):
        from plektonlab import cones, minkowski

        rng = np.random.default_rng(seed)
        rapidities = np.linspace(0.05, TRANSPORT_MAX_RAPIDITY, TRANSPORT_ELEMENTS)
        angles = np.linspace(12.0, 0.3, TRANSPORT_ELEMENTS)
        elements = []
        for rapidity, angle in zip(rapidities, angles):
            t = rapidity * rng.uniform(0.97, 1.03) * rng.choice((-1.0, 1.0))
            theta = angle * rng.uniform(0.97, 1.03) * rng.choice((-1.0, 1.0))
            psi = rng.uniform(-math.pi, math.pi)
            # r(theta + psi) b1(t) r(-psi): boost along -psi, lifted angle theta
            elements.append(minkowski.cover_compose(
                minkowski.cover_rotation(theta + psi),
                minkowski.cover_compose(minkowski.cover_boost1(t),
                                        minkowski.cover_rotation(-psi))))
        paths = [
            cones.cone_path(minkowski.MVec3(*rng.normal(0.0, 0.3, 3)),
                            rng.uniform(-math.pi, math.pi), rng.uniform(0.05, 0.6),
                            sheet=int(rng.integers(-2, 3)))
            for _ in range(TRANSPORT_PATHS)
        ]
        turns = [int(rng.integers(1, 4)) * int(rng.choice((-1, 1))) for _ in paths]
        spatial = rng.uniform(-2.5, 2.5, size=(SHELL_POINTS, 2))
        energy = np.sqrt(1.0 + (spatial ** 2).sum(axis=1))
        points = np.column_stack([energy, spatial])
        return {"elements": elements, "paths": paths, "turns": turns, "points": points}

    def run(self, state):
        from plektonlab import cones, minkowski, wigner

        elements, paths = state["elements"], state["paths"]
        batch = []
        for k, g in enumerate(elements):
            # pair strong with mild boosts so products stay within the range
            h = elements[-1 - k]
            batch.append((
                minkowski.cover_compose(g, h),
                minkowski.cover_inverse(g),
                [cones.act(g, c) for c in paths],
                wigner.wigner_rotation(g, state["points"]),
            ))
        shifted = [cones.act(minkowski.cover_rotation(TWO_PI * m), c)
                   for m, c in zip(state["turns"], paths)]
        return batch, shifted

    def check(self, state, out, first) -> list[str]:
        batch, shifted = out
        elements, paths = state["elements"], state["paths"]
        before = [_path_data(c) for c in paths]
        problems = []
        for k, (g, (gh, g_inv, moved, omegas)) in enumerate(zip(elements, batch)):
            h = elements[-1 - k]
            m, th = g.matrix.m, g.angle
            problems += checks.compose_problems(m, th, h.matrix.m, h.angle, gh.matrix.m, gh.angle)
            problems += checks.inverse_problems(m, th, g_inv.matrix.m, g_inv.angle)
            for b, c in zip(before, moved):
                problems += checks.act_problems(m, th, b, _path_data(c))
            problems += checks.wigner_problems(m, th, state["points"], omegas)
        for b, c, turns in zip(before, shifted, state["turns"]):
            problems += checks.rotation_shift_problems(
                b["arc"], (c.arc.alpha_minus, c.arc.alpha_plus), turns)
        return problems


class Lattice(Workload):
    """One pass of `lattice_oracle` over LATTICE_LADDER; each word has seeded
    charge signs and a seeded angular order of its factors."""

    def setup(self, root: Path, seed: int, out_dir: Path):
        from plektonlab import cones, fields, minkowski, sectors

        rng = np.random.default_rng(seed)
        half = 0.1
        rungs = []
        for n_group, length in LATTICE_LADDER:
            k, m = _OMEGA_SQRT[n_group]
            model = sectors.AnyonModel(n_group, sectors.CyclotomicPhase(Fraction(1, n_group)),
                                       sectors.CyclotomicPhase.from_pair(k, m),
                                       Fraction(1, n_group))
            centers = np.linspace(-2.6, 2.6, length) + rng.uniform(-0.05, 0.05, length)
            centers = [float(c) for c in rng.permutation(centers)]
            charges = [int(rng.choice((-1, 1))) * size
                       for size in _LATTICE_CHARGE_SIZES[:length]]
            word = fields.FieldWord.of(*(
                fields.FieldSymbol(c, fields.ObservableWord.identity(),
                                   cones.cone_path(minkowski.ZERO_VEC, center, half))
                for c, center in zip(charges, centers)))
            rungs.append({"model": model, "word": word, "charges": charges,
                          "arcs": [(c - half, c + half) for c in centers]})
        return rungs

    def run(self, rungs):
        from plektonlab import lattice

        return [lattice.lattice_oracle(r["model"], r["word"]) for r in rungs]

    def check(self, rungs, reports, first) -> list[str]:
        from plektonlab import fields

        problems = []
        for r, rep in zip(rungs, reports):
            word, model = r["word"], r["model"]
            turns = [(fields.exchange(word, i, model).coeff.turns - word.coeff.turns)
                     for i in range(len(word.factors) - 1)]
            problems += checks.lattice_problems(
                model.group_order, r["charges"], r["arcs"], rep.dimension,
                rep.exchange_residual, rep.adjoint_residual, rep.checks, turns)
        if len(reports) != len(rungs):
            problems.append(f"{len(reports)} oracle reports for {len(rungs)} words")
        return problems


WORKLOADS = {
    "verify-all": VerifyAll(),
    "winding-table": WindingTable(),
    "transport": Transport(),
    "lattice": Lattice(),
}
