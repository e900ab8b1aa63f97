"""The suites' random generators (batched separated pairs, fans and streams)
and the worker pool of `run_suite("all")`."""

import math
import multiprocessing

import numpy as np
import pytest

from plektonlab import cones, suites
from plektonlab.cones import SeparationError, causally_separated, cone_path
from plektonlab.minkowski import (CoveringLorentz, CoveringPoincare, LorentzMatrix, MVec3,
                                  cover_boost1, cover_compose, cover_rotation)
from plektonlab.report import ERROR
from plektonlab.scenes import load_scene
from plektonlab.sectors import load_model
from plektonlab.tolerances import SEP_AMBIGUOUS, SEP_FILTER, SEP_ZERO
from tests import su11
from tests.conftest import ASSETS
from tests.test_cones import certificate

TWO_PI = 2.0 * math.pi


def _recording_filter(monkeypatch, band=lambda p: np.zeros(p, bool)):
    """Patch `cones._minimiser_margins` to record every row set it filters.

    Lanes picked by ``band`` get a future margin inside the ambiguity band;
    returns (all recorded row bytes, banded row bytes)."""
    real = cones._minimiser_margins
    seen, banded = set(), set()

    def margins(rows):
        viol = real(rows)
        pick = band(len(rows))
        viol[pick, 0] = math.sqrt(SEP_ZERO * SEP_AMBIGUOUS)
        seen.update(r.tobytes() for r in rows)
        banded.update(r.tobytes() for r in rows[pick])
        return viol

    monkeypatch.setattr(cones, "_minimiser_margins", margins)
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
    seen, _ = _recording_filter(monkeypatch)
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
    seen, banded = _recording_filter(monkeypatch, lambda p: np.arange(p) % 2 == 0)
    pairs = list(suites.random_separated_pairs(np.random.default_rng(700), 200))
    returned = {cones._separation_rows(c1, c2).tobytes() for c2, c1 in pairs}
    assert returned <= seen and not returned & banded
    # the banded lanes include pairs the real certificate separates
    monkeypatch.undo()
    assert any(max(certificate(np.frombuffer(b).reshape(-1, 3))) <= SEP_ZERO
               for b in banded)


def test_fan_regenerates_when_a_pair_is_in_band(monkeypatch):
    real = cones._minimiser_margins
    stacks, banded = [], []

    def margins(rows):
        viol = real(rows)
        if not banded and (viol <= SEP_FILTER).all():
            # the first fan whose 6 pairs all pass the filter gets one pair
            # in the band
            banded.append(rows[0].tobytes())
            viol[0, 0] = math.sqrt(SEP_ZERO * SEP_AMBIGUOUS)
        stacks.append(rows)
        return viol

    monkeypatch.setattr(cones, "_minimiser_margins", margins)
    fan = suites._separated_fan(np.random.default_rng(800), 4)
    # six tries, each filtering its 6 pairs in one call, the fifth banded
    assert banded and [rows.shape for rows in stacks] == [(6, 9, 3)] * 6
    assert banded[0] == stacks[4][0].tobytes()
    rows = [cones._separation_rows(a, b).tobytes()
            for i, a in enumerate(fan) for b in fan[i + 1:]]
    assert rows == [r.tobytes() for r in stacks[-1]]
    assert banded[0] not in rows


def test_stacked_verdicts_match_single_decisions():
    # random cone pairs at overlap and separation, a third sharing their apex
    # (exactly, or to under SEP_DEGENERATE, so the apex-gap row is dropped);
    # a raise counts as not separated.  A lane with a gap is accepted iff it
    # is separated; a lane without one is rejected, separated or not
    rng = np.random.default_rng(900)
    p = 240
    apex1 = rng.normal(0.0, 0.3, (p, 3))
    shared = np.arange(p) % 3 == 0
    apex2 = np.where(shared[:, None], apex1, rng.normal(0.0, 0.3, (p, 3)))
    apex2[shared & (np.arange(p) % 2 == 0), 1] += 2e-15
    center1, center2 = rng.uniform(-4.0, 4.0, p), rng.uniform(-4.0, 4.0, p)
    half1, half2 = rng.uniform(0.05, 1.2, p), rng.uniform(0.05, 1.2, p)
    stacked = cones._cones_separated(apex1, cones._cone_rays(center1, half1),
                                     apex2, cones._cone_rays(center2, half2))
    single = []
    for i in range(p):
        c1 = cone_path(MVec3(*apex1[i].tolist()), float(center1[i]), float(half1[i]))
        c2 = cone_path(MVec3(*apex2[i].tolist()), float(center2[i]), float(half2[i]))
        assert (cones._cone_rays(center1[i:i + 1], half1[i:i + 1])[0].tobytes()
                == c1.closure_rays.tobytes())
        assert len(cones._separation_rows(c1, c2)) == (8 if shared[i] else 9)
        try:
            single.append(causally_separated(c1, c2))
        except SeparationError:
            single.append(False)
    single = np.array(single)
    assert (stacked[~shared] == single[~shared]).all() and not stacked[shared].any()
    assert 0 < single[~shared].sum() < (~shared).sum()
    # among the shared-apex lanes, exact and sub-SEP_DEGENERATE gaps alike,
    # are separated ones
    assert single[shared & (np.arange(p) % 2 == 0)].any()
    assert single[shared & (np.arange(p) % 2 == 1)].any()


class _RecordingRng:
    """A generator that records every value it hands out, in draw order."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args):
            x = draw(*args)
            self.drawn.append(x)
            return x
        return recorded


def _separated_or_false(c1, c2):
    try:
        return causally_separated(c1, c2)
    except SeparationError:
        return False


def _assert_same_path_bits(got, want):
    assert got.rows.tobytes() == want.rows.tobytes()  # signed zeros included
    assert got.arc == want.arc and got.kind == want.kind
    assert {type(x) for x in (got.arc.alpha_minus, got.arc.alpha_plus)} == {float}


@pytest.mark.parametrize("count", [1, 7, 300])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_pairs_are_the_public_paths_of_their_lanes(seed, count):
    # each batch's lanes rebuilt from its draws through cone_path and decided
    # one by one; the first accepted lanes of each batch are the pairs
    rng = _RecordingRng(seed)
    pairs = list(suites.random_separated_pairs(rng, count))
    draws, want = iter(rng.drawn), []
    while len(want) < count:
        d1, d2, base, gap, apex1, apex2, sheet1, sheet2 = (next(draws) for _ in range(8))
        center2 = base + (d1 + d2 + 0.15 + gap)
        for i in range(len(d1)):
            c1 = cone_path(MVec3(*apex1[i].tolist()), float(base[i]), float(d1[i]),
                           sheet=int(sheet1[i]))
            c2 = cone_path(MVec3(*apex2[i].tolist()), float(center2[i]), float(d2[i]),
                           sheet=int(sheet2[i]))
            if len(want) < count and _separated_or_false(c1, c2):
                want.append((c2, c1))
    assert next(draws, None) is None and len(pairs) == count
    for got, ref in zip(pairs, want):
        _assert_same_path_bits(got[0], ref[0])
        _assert_same_path_bits(got[1], ref[1])


@pytest.mark.parametrize("count", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fan_is_the_public_paths_of_its_last_attempt(seed, count):
    rng = _RecordingRng(seed)
    fan = suites._separated_fan(rng, count)
    base, *attempts = rng.drawn
    centers = base + np.arange(count) * (2.0 * math.pi / count)
    for jitter, halves in zip(attempts[::2], attempts[1::2]):
        paths = [cone_path(MVec3(0.0, *xy), center, half) for xy, center, half
                 in zip(jitter.tolist(), centers.tolist(), halves.tolist())]
        separated = all(_separated_or_false(a, b)
                        for i, a in enumerate(paths) for b in paths[i + 1:])
        assert separated == (halves is attempts[-1])
    assert len(fan) == count
    for got, want in zip(fan, paths):
        _assert_same_path_bits(got, want)


def test_generators_build_no_vector_and_each_cone_corner_set_once(monkeypatch):
    made, corner_calls, lanes = [], [], []
    new, make = MVec3.__new__, MVec3._make
    corners, decide = cones._cone_corners, cones._cones_separated
    monkeypatch.setattr(MVec3, "__new__", staticmethod(
        lambda cls, *args: made.append(args) or new(cls, *args)))
    monkeypatch.setattr(MVec3, "_make", classmethod(lambda cls, it: made.append(it) or make(it)))
    monkeypatch.setattr(cones, "_cone_corners",
                        lambda *args: corner_calls.append(args) or corners(*args))
    monkeypatch.setattr(cones, "_cones_separated",
                        lambda *args: lanes.append(len(args[0])) or decide(*args))
    pairs = list(suites.random_separated_pairs(np.random.default_rng(1300), 300))
    assert len(pairs) == 300 and len(lanes) > 1
    assert made == [] and len(corner_calls) == 2 * sum(lanes)
    for seed in range(1300, 1340):
        corner_calls.clear(), lanes.clear()
        suites._separated_fan(np.random.default_rng(seed), 4)
        assert made == [] and lanes == [6] * len(lanes)  # 6 pairs per attempt
        assert len(corner_calls) == 4 * len(lanes)


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


@pytest.mark.parametrize("seed", [12, 49])
def test_braid_runs_where_a_fan_needs_more_than_32_tries(z3, seed):
    # at these seeds a fan of the braid suite took more than 32 tries
    rep = suites.run_suite("braid", z3, None, seed)
    assert rep.checks and all(c.status != ERROR for c in rep.checks)


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
    # without a scene, call 0 decides the oracle pairs and 1 the precedes
    # triples, four orders each
    def precedes_raising(*orders):  # every triple raises in these orders
        def patch(call, verdicts):
            for t in range(0, len(verdicts), 4) if call == 1 else ():
                for k in orders:
                    verdicts[t + k] = SeparationError(f"order {k}")
        return patch

    for patch, raised in (
            # the fourth order is met outside the try, and only where p01 holds
            (precedes_raising(3), "order 3"),
            (precedes_raising(0, 3), None)):
        monkeypatch.undo()
        monkeypatch.setenv("PLEKTONLAB_SWEEP", "0.1")
        calls = _patched_separations(monkeypatch, patch)
        if raised is None:
            suites.geometry_suite(z3, None, 7)
            assert len(calls) == 2 and calls[1] == 4 * 10
        else:
            with pytest.raises(SeparationError, match=raised):
                suites.geometry_suite(z3, None, 7)


def test_generator_batches_filter_once_and_reach_no_kernel(monkeypatch):
    # one filter call per batch of at most 64 lanes; no generator lane
    # reaches _decide or _certificates
    filtered, batches, kernel = [], [], []
    for name, log in (("_minimiser_margins", filtered), ("_cones_separated", batches),
                      ("_decide", kernel), ("_certificates", kernel)):
        real = getattr(cones, name)
        monkeypatch.setattr(cones, name, lambda *args, real=real, log=log:
                            log.append(len(args[0])) or real(*args))
    pairs = list(suites.random_separated_pairs(np.random.default_rng(1100), 300))
    assert len(pairs) == 300 and len(batches) > 1
    for seed in range(1100, 1120):
        suites._separated_fan(np.random.default_rng(seed), 4)
    assert filtered == batches and max(batches) <= 64 and 6 in batches
    assert kernel == []


class _EndsRng:
    """A generator that hands out the ends of each uniform range, and the
    float just inside them, about half the time; it records every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []

    def uniform(self, lo, hi):
        x = (lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
             *self.rng.uniform(lo, hi, 4))[int(self.rng.integers(0, 8))]
        self.drawn.append(float(x))
        return float(x)

    def normal(self, loc, scale, size):
        x = self.rng.normal(loc, scale, size)
        self.drawn.append(x)
        return x


@pytest.mark.parametrize("translations", [False, True])
def test_random_cover_element_is_the_public_product_of_its_draws(translations):
    # the chart's closed form R(a + b) B(|t|, (0 or pi) - b) against the
    # 80-digit product of the three drawn factors and the public product
    rng = _EndsRng(1200 + translations)
    for _ in range(1000):
        g = suites.random_cover_element(rng, translations=translations)
        alpha, t, beta, *normal = rng.drawn
        rng.drawn.clear()
        want = cover_compose(cover_rotation(alpha),
                             cover_compose(cover_boost1(t), cover_rotation(beta)))
        if translations:
            assert type(g) is CoveringPoincare
            assert np.array(g.translation).tobytes() == normal[0].tobytes()
            g = g.lorentz
        assert type(g) is CoveringLorentz
        assert {type(x) for x in (g.angle, g.rapidity, g.direction)} == {float}
        ref = su11.compose(su11.rotation(alpha), su11.boost1(t), su11.rotation(beta))
        assert max(su11.chart_errors(g, ref)) <= 1e-14
        assert g.is_close(want, 1e-13)
        assert not g.matrix.m.flags.writeable
        CoveringLorentz(LorentzMatrix(g.matrix.m), g.angle)  # passes every check
