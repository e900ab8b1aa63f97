"""The product commands against committed reports, byte for byte."""

from pathlib import Path

import pytest

from plektonlab.cli import main
from tests.conftest import ASSETS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("seed", [1, 3, 7, 11, 42])
def test_verify_all_seed7_matches_golden_report(monkeypatch, capsys, seed):
    # regenerate with: plektonlab verify --suite all --model assets/z3_anyon.json
    #   --scene assets/antipodal_scene.json --seed <seed> --format json
    monkeypatch.delenv("PLEKTONLAB_SWEEP", raising=False)
    code = main(["verify", "--suite", "all", "--model", str(ASSETS / "z3_anyon.json"),
                 "--scene", str(ASSETS / "antipodal_scene.json"), "--seed", str(seed),
                 "--format", "json"])
    assert code == 0
    golden = GOLDEN_DIR / f"verify_all_seed{seed}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_winding_fan_matches_golden_report(capsys):
    # a fan of 12 cones in the causal complement of one wedge; K06 and K07
    # overlap, so their two rows are errors and the command exits 1.
    # regenerate with: plektonlab winding --scene tests/golden/winding_fan.json
    #   --format json
    code = main(["winding", "--scene", str(GOLDEN_DIR / "winding_fan.json"),
                 "--format", "json"])
    assert code == 1
    golden = (GOLDEN_DIR / "winding_fan_report.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_winding_edges_matches_golden_report(capsys):
    # two wedges, a cone-complement, cones sharing an apex (one pair with
    # arcs 1e-8 apart: separation undecidable, one pair sharing an arc
    # endpoint: no winding number) and an overlapping pair; every row count
    # from 8 to 13.  regenerate with: plektonlab winding --scene
    #   tests/golden/winding_edges.json --format json
    code = main(["winding", "--scene", str(GOLDEN_DIR / "winding_edges.json"),
                 "--format", "json"])
    assert code == 1
    golden = (GOLDEN_DIR / "winding_edges_report.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
