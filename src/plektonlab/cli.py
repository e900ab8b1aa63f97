"""Command-line driver.

Commands:

  plektonlab model-validate --model m.json
  plektonlab winding --scene s.json [--pairs "C2:C1,C1:C2"] [--format json]
  plektonlab verify --suite all --model m.json --scene s.json --seed 7

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .cones import SeparationError, WindingError, relative_winding
from .report import ERROR, FAIL, PASS, Report
from .scenes import SceneError, load_scene
from .sectors import ModelError, load_model, validate_model
from .suites import SUITES, run_suite, sweep_scale

USAGE_EXIT = 2


def _emit(report: Report, fmt: str) -> int:
    sys.stdout.write(report.to_json() if fmt == "json" else report.to_text())
    return report.exit_code


def cmd_model_validate(args) -> int:
    report = Report(command="model-validate")
    model = load_model(args.model)
    result = validate_model(model)
    if result.ok:
        report.add_pass("model-consistency", exact=str(model.omega),
                        note="spin-statistics and periodicity rules")
    else:
        for failure in result.failures:
            report.add("model-consistency", FAIL, note=failure)
    return _emit(report, args.format)


def _parse_pairs(spec: str | None, ids: list[str]) -> list[tuple[str, str]]:
    if spec is None:
        return list(itertools.permutations(ids, 2))
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise SceneError(f"bad pair {chunk!r}, expected 'id2:id1'")
        for p in parts:
            if p not in ids:
                raise SceneError(f"unknown path id {p!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def cmd_winding(args) -> int:
    report = Report(command="winding")
    scene = load_scene(args.scene)
    pairs = _parse_pairs(args.pairs, scene.ids())
    values: dict[tuple[str, str], int] = {}
    for second, first in pairs:
        row = {"second": second, "first": first}
        try:
            n = relative_winding(scene[second], scene[first])
            values[(second, first)] = n
            row["N"] = n
            row["status"] = PASS
        except (SeparationError, WindingError) as exc:
            row["status"] = ERROR
            row["note"] = str(exc)
        report.rows.append(row)
    for row in report.rows:
        key = (row["second"], row["first"])
        rev = (row["first"], row["second"])
        if key in values and rev in values:
            row["antisymmetry"] = "ok" if values[key] + values[rev] == -1 else "violated"
    ok = all(r["status"] == PASS for r in report.rows)
    anti_ok = all(r.get("antisymmetry", "ok") == "ok" for r in report.rows)
    report.add_outcome("winding-table", ok and anti_ok,
                       exact=f"{len(report.rows)} pairs",
                       note="separation failures are flagged per row")
    return _emit(report, args.format)


def _seed(text: str) -> int:
    """The --seed value: numpy seeds the suites' streams only with a
    non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def cmd_verify(args) -> int:
    sweep_scale()  # reject a bad PLEKTONLAB_SWEEP before any suite runs
    model = load_model(args.model) if args.model else None
    scene = load_scene(args.scene) if args.scene else None
    report = run_suite(args.suite, model, scene, args.seed)
    return _emit(report, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plektonlab",
        description="winding numbers, exchange phases and representation checks "
                    "for anyons in 2+1 dimensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model-validate", help="validate a model file")
    p_model.add_argument("--model", required=True)
    p_model.add_argument("--format", choices=("text", "json"), default="text")
    p_model.set_defaults(func=cmd_model_validate)

    p_wind = sub.add_parser("winding", help="relative winding table for a scene")
    p_wind.add_argument("--scene", required=True)
    p_wind.add_argument("--pairs", default=None,
                        help="comma-separated 'id2:id1' pairs; default all ordered pairs")
    p_wind.add_argument("--format", choices=("text", "json"), default="text")
    p_wind.set_defaults(func=cmd_winding)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--model", default=None)
    p_ver.add_argument("--scene", default=None)
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ModelError, SceneError, OSError, ValueError) as exc:
        sys.stderr.write(f"plektonlab: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
