"""The seed-7 product run against a committed report, byte for byte."""

from pathlib import Path

from plektonlab.cli import main
from tests.conftest import ASSETS

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all_seed7.json"


def test_verify_all_seed7_matches_golden_report(monkeypatch, capsys):
    # regenerate with: plektonlab verify --suite all --model assets/z3_anyon.json
    #   --scene assets/antipodal_scene.json --seed 7 --format json
    monkeypatch.delenv("PLEKTONLAB_SWEEP", raising=False)
    code = main(["verify", "--suite", "all", "--model", str(ASSETS / "z3_anyon.json"),
                 "--scene", str(ASSETS / "antipodal_scene.json"), "--seed", "7",
                 "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
