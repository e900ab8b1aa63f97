"""The suites' random generators (batched separated pairs, fans and streams)
and the worker pool of `run_suite("all")`."""

import math
import multiprocessing

import numpy as np
import pytest

from plektonlab import cones, suites
from plektonlab.cones import SeparationError, causally_separated, cone_path
from plektonlab.minkowski import LiftError, MVec3
from plektonlab.scenes import load_scene
from plektonlab.sectors import load_model
from plektonlab.tolerances import SEP_AMBIGUOUS, SEP_ZERO
from tests.conftest import ASSETS

TWO_PI = 2.0 * math.pi


def _recording_certificates(monkeypatch, band=lambda p: np.zeros(p, bool)):
    """Patch `cones._certificates` to record every row set it decides.

    Lanes picked by ``band`` get a future margin inside the ambiguity band;
    returns (all recorded row bytes, banded row bytes)."""
    real = cones._certificates
    seen, banded = set(), set()

    def certificates(rows):
        viol = real(rows)
        pick = band(len(rows))
        viol[pick, 0] = math.sqrt(SEP_ZERO * SEP_AMBIGUOUS)
        seen.update(r.tobytes() for r in rows)
        banded.update(r.tobytes() for r in rows[pick])
        return viol

    monkeypatch.setattr(cones, "_certificates", certificates)
    return seen, banded


def _cell(c2, c1):
    """(sheet of C2, sheet of C1, arc-gap decile) of a generated pair.

    C1 is drawn at a centre in [-pi, pi) and C2 at C1's centre plus
    rel in (0, 2 pi); the decile places C2's lower arc end in the range
    [margin, 2 pi - 2 (d1 + d2) - margin] that the gap is drawn from."""
    m1 = (c1.arc.alpha_minus + c1.arc.alpha_plus) / 2.0
    m2 = (c2.arc.alpha_minus + c2.arc.alpha_plus) / 2.0
    s1 = math.floor(m1 / TWO_PI + 0.5)
    s2 = s1 + math.floor((m2 - m1) / TWO_PI)
    d1, d2 = c1.arc.width / 2.0, c2.arc.width / 2.0
    gap = (c2.arc.alpha_minus - c1.arc.alpha_plus) % TWO_PI
    frac = (gap - 0.15) / (TWO_PI - 2.0 * (d1 + d2 + 0.15))
    return s2, s1, min(9, int(10 * frac))


@pytest.mark.parametrize("count", [1, 7, 300])
def test_certified_rows_are_the_returned_pairs_rows(monkeypatch, count):
    seen, _ = _recording_certificates(monkeypatch)
    rng = np.random.default_rng(500 + count)
    pairs = [p for _ in range(300 // count) for p in suites.random_separated_pairs(rng, count)]
    assert len(pairs) == 300 // count * count
    for c2, c1 in pairs:
        assert cones._separation_rows(c1, c2).tobytes() in seen


def test_returned_pairs_redecide_separated():
    # more pairs than 64 full batches hold at the generator's yield
    pairs = list(suites.random_separated_pairs(np.random.default_rng(600), 2000))
    assert len(pairs) == 2000
    for c2, c1 in pairs:
        assert causally_separated(c1, c2)


def test_in_band_margins_are_never_accepted(monkeypatch):
    seen, banded = _recording_certificates(monkeypatch, lambda p: np.arange(p) % 2 == 0)
    pairs = list(suites.random_separated_pairs(np.random.default_rng(700), 200))
    returned = {cones._separation_rows(c1, c2).tobytes() for c2, c1 in pairs}
    assert returned <= seen and not returned & banded
    # the banded lanes include pairs the real certificate separates
    monkeypatch.undo()
    assert any(max(cones._certificate(np.frombuffer(b).reshape(-1, 3))) <= SEP_ZERO
               for b in banded)


def test_fan_regenerates_when_a_pair_is_in_band(monkeypatch):
    real = cones._certificates
    stacks, banded = [], []

    def certificates(rows):
        viol = real(rows)
        if not banded and (viol <= SEP_ZERO).all():
            # the first fan that is separated gets one pair in the band
            banded.append(rows[0].tobytes())
            viol[0, 0] = math.sqrt(SEP_ZERO * SEP_AMBIGUOUS)
        stacks.append(rows)
        return viol

    monkeypatch.setattr(cones, "_certificates", certificates)
    fan = suites._separated_fan(np.random.default_rng(800), 4)
    assert banded and all(rows.shape == (6, 9, 3) for rows in stacks)
    rows = [cones._separation_rows(a, b).tobytes()
            for i, a in enumerate(fan) for b in fan[i + 1:]]
    assert rows == [r.tobytes() for r in stacks[-1]]
    assert banded[0] not in rows


def test_stacked_verdicts_match_single_decisions():
    # random cone pairs at overlap and separation, a third sharing their apex
    # (the apex-gap row dropped); a raise counts as not separated
    rng = np.random.default_rng(900)
    p = 240
    apex1 = rng.normal(0.0, 0.3, (p, 3))
    apex2 = np.where((np.arange(p) % 3 == 0)[:, None], apex1, rng.normal(0.0, 0.3, (p, 3)))
    center1, center2 = rng.uniform(-4.0, 4.0, p), rng.uniform(-4.0, 4.0, p)
    half1, half2 = rng.uniform(0.05, 1.2, p), rng.uniform(0.05, 1.2, p)
    stacked = cones._cones_separated(apex1, center1, half1, apex2, center2, half2)
    single = []
    for i in range(p):
        c1 = cone_path(MVec3(*apex1[i].tolist()), float(center1[i]), float(half1[i]))
        c2 = cone_path(MVec3(*apex2[i].tolist()), float(center2[i]), float(half2[i]))
        assert (cones._cone_rays(center1[i:i + 1], half1[i:i + 1])[0].tobytes()
                == c1.closure_rays.tobytes())
        try:
            single.append(causally_separated(c1, c2))
        except SeparationError:
            single.append(False)
    assert stacked.tolist() == single
    assert 0 < sum(single) < p


class _FirstDraw(Exception):
    pass


def test_suites_draw_from_their_own_streams(monkeypatch, z3):
    # each suite stops at its first pair draw; the first pair is then drawn
    # from that generator's state, so batch sizes play no part
    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.05")
    states = {}

    def record(rng, count):
        states[current] = rng.bit_generator.state
        raise _FirstDraw

    monkeypatch.setattr(suites, "random_separated_pairs", record)
    for current in ("geometry", "braid", "twist", "cpt"):
        with pytest.raises(_FirstDraw):
            suites._SUITE_FUNCS[current](z3, None, 7)
    monkeypatch.undo()
    arcs = set()
    for state in states.values():
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        c2, c1 = suites.random_separated_pair(rng)
        arcs.add((c2.arc, c1.arc))
    assert len(arcs) == 4
    draws = [rng.random() for name in suites.SUITES[:-1]
             for rng in suites._streams(7, name)]
    assert len(set(draws)) == len(draws)


def test_longest_first_order_names_every_suite_once():
    assert sorted(suites._LONGEST_FIRST) == sorted(suites.SUITES[:-1])


def test_pairs_cover_every_sheet_cell_and_gap_decile():
    cells = {_cell(c2, c1)
             for c2, c1 in suites.random_separated_pairs(np.random.default_rng(1000), 300)}
    assert {(s2, s1) for s2, s1, _ in cells} == {(a, b) for a in range(-2, 3)
                                                 for b in range(-2, 3)}
    assert {d for _, _, d in cells} == set(range(10))


def test_oracle_agrees_on_the_quarter_sweep_seed_42_pairs(monkeypatch, z3):
    # one of these 38 random cone pairs overlaps narrowly (future margin 1.48e-4)
    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.25")
    rows = suites.geometry_suite(z3, load_scene(ASSETS / "antipodal_scene.json"), 42).checks
    row, = (r for r in rows if r.name == "separation-oracle-agreement")
    assert (row.status, row.exact) == ("pass", "0/38 disagreements")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the suites run in forked workers only where fork exists")
@pytest.mark.parametrize("seed", [1, 3, 7, 11, 42])
def test_pooled_and_in_process_reports_are_byte_identical(monkeypatch, seed):
    monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.25")
    model = load_model(ASSETS / "z3_anyon.json")
    scene = load_scene(ASSETS / "antipodal_scene.json")
    reports = []
    for cpus in (2, 1):  # the pool, then the in-process loop
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        reports.append(suites.run_suite("all", model, scene, seed))
    pooled, in_process = reports
    assert pooled.to_json() == in_process.to_json()
    assert pooled.to_text() == in_process.to_text()



def _patched_separations(monkeypatch, patch):
    """`cones._separated_many` with ``patch(call, verdicts)`` applied to the
    verdicts of each call, counted from 0."""
    real, calls = cones._separated_many, []

    def separated_many(pairs):
        verdicts = real(pairs)
        patch(len(calls), verdicts)
        calls.append(len(pairs))
        return verdicts

    monkeypatch.setattr(cones, "_separated_many", separated_many)
    return calls


def test_geometry_meets_stacked_verdicts_where_its_loops_did(monkeypatch, z3):
    # without a scene, call 0 decides the covariance pairs, 1 the reflected
    # pairs, 2 the oracle pairs and 3 the precedes triples, four orders each
    real_act, acts = cones.act, [0]

    def act(g, path):  # the seventh covariance pair fails to transport
        acts[0] += 1
        if acts[0] == 13:
            raise LiftError("patched transport failure")
        return real_act(g, path)

    def refuse_fourth_pair(call, verdicts):
        if call == 0:
            verdicts[3] = False

    def precedes_raising(*orders):  # every triple raises in these orders
        def patch(call, verdicts):
            for t in range(0, len(verdicts), 4) if call == 3 else ():
                for k in orders:
                    verdicts[t + k] = SeparationError(f"order {k}")
        return patch

    for patch, transport_fails, raised in (
            (refuse_fourth_pair, False, "relative winding requires causally separated"),
            # a loop meets the fourth pair's refusal before the seventh's transport
            (refuse_fourth_pair, True, "relative winding requires causally separated"),
            (lambda call, verdicts: None, True, "patched transport failure"),
            # the fourth order is met outside the try, and only where p01 holds
            (precedes_raising(3), False, "order 3"),
            (precedes_raising(0, 3), False, None)):
        monkeypatch.undo()
        monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.1")
        calls = _patched_separations(monkeypatch, patch)
        if transport_fails:
            acts[0] = 0
            monkeypatch.setattr(cones, "act", act)
        if raised is None:
            suites.geometry_suite(z3, None, 7)
            assert len(calls) == 4 and calls[3] == 4 * 10
        else:
            with pytest.raises((SeparationError, LiftError), match=raised):
                suites.geometry_suite(z3, None, 7)
