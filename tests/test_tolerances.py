"""The tolerance table is the one place that holds a threshold."""

import ast
from pathlib import Path

import plektonlab

PACKAGE = Path(plektonlab.__file__).resolve().parent


def _small_floats(path: Path) -> list[str]:
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) <= 1e-5]


def test_no_tolerance_literal_outside_the_table():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"
            for hit in _small_floats(path)]
    assert hits == []


def test_minkowski_reexports_the_table():
    from plektonlab import minkowski, tolerances

    assert minkowski.LIFT_TOL is tolerances.LIFT_TOL
    assert minkowski.MAT_TOL is tolerances.MAT_TOL
