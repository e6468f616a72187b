"""The benchmark's own tests: oracles on hand-computed cases, tracer, probe.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402

M_PER_DEG = oracle.EARTH_RADIUS_M * math.pi / 180.0


def rec(rid, north_m, place=None, east_m=0.0):
    """A record north_m metres north (and east_m east) of (0, 0)."""
    return SimpleNamespace(id=rid, lat=north_m / M_PER_DEG, lon=east_m / M_PER_DEG,
                           place_id=place)


def test_haversine_one_degree_of_latitude():
    d = oracle.haversine_m([0.0, 10.0], [20.0, 20.0], [1.0], [20.0])
    assert d[0, 0] == pytest.approx(111194.926644, rel=1e-9)
    assert d[1, 0] == pytest.approx(9 * 111194.926644, rel=1e-9)


def test_ranking_hand_case():
    q = np.array([1.0, 0.0])
    db = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
    ids = ["c", "b", "a", "d"]
    # sims 0, 1, 1, 0.6: a and b tie exactly, so a (lower id) comes first
    assert oracle.check_ranking(["a", "b", "d"], q, db, ids) == []
    assert oracle.check_ranking(["a", "d", "b"], q, db, ids)
    assert oracle.check_ranking(["c"], q, db, ids)
    assert oracle.check_ranking(["a", "a"], q, db, ids)
    assert oracle.check_ranking(["b", "a"], q, db, ids, got_sims=[1.0, 1.0])
    notes = []
    assert oracle.check_ranking(["b", "a"], q, db, ids, got_sims=[1.0, 1.0 - 1e-16],
                                notes=notes) == []
    assert len(notes) == 1


def test_norm_and_batch_tolerances():
    v = np.array([[0.6, 0.8]])
    assert oracle.check_unit_norm(v) == []
    assert oracle.check_unit_norm(v * (1 + 1e-9))
    assert oracle.check_batch_independent(v[0], v[0] + 5e-10) == []
    assert oracle.check_batch_independent(v[0], v[0] + 2e-9)


def test_recall_hand_case():
    # q1: d1 is 5 m away; q2: d2 shares its place id from 1 km; q3: nothing within 25 m
    queries = [rec("q1", 0.0), rec("q2", 1000.0, "p2"), rec("q3", 5000.0)]
    db = [rec("d1", 5.0), rec("d2", 2000.0, "p2"), rec("d3", 30.0)]
    topk = [["d3", "d1"], ["d2", "d1"], ["d1", "d2"]]
    recalls, evaluated, excluded = oracle.expected_recall(topk, queries, db, (1, 2))
    assert (recalls, evaluated, excluded) == ({1: 0.5, 2: 1.0}, 2, 1)
    good = SimpleNamespace(recalls={1: 0.5, 2: 1.0}, num_queries=2, num_excluded=1)
    assert oracle.check_recall(good, topk, queries, db, (1, 2)) == []
    bad = SimpleNamespace(recalls={1: 1.0, 2: 1.0}, num_queries=2, num_excluded=1)
    assert oracle.check_recall(bad, topk, queries, db, (1, 2))


def test_mining_hand_case():
    # a, b: one place 5 m apart. c, d: no place ids, 3 m apart, 100 m east.
    # e: alone 500 m east, so it has negatives but no positive.
    records = [rec("a", 0.0, "p1"), rec("b", 5.0, "p1"), rec("c", 0.0, None, 100.0),
               rec("d", 3.0, None, 100.0), rec("e", 0.0, None, 500.0)]
    desc = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0], [0.6, 0.0, 0.8],
                     [0.0, 0.6, 0.8], [0.0, 0.0, 1.0]])
    want, skipped = oracle.expected_triplets(records, desc, k=2)
    # a: positive b; negatives by sim c 0.6, d 0 and e 0 tie -> d before e.
    # b: pair {a, b} already emitted. c: positive d; negatives e 0.8, a 0.6.
    # d: pair {c, d} already emitted. e: skipped.
    assert want == [("a", "b", ["c", "d"]), ("c", "d", ["e", "a"])]
    assert skipped == 1

    def result(triplets, skip=1):
        return SimpleNamespace(
            triplets=[SimpleNamespace(anchor=a, positive=p, negatives=n) for a, p, n in triplets],
            skipped=skip)

    assert oracle.check_mining(result(want), records, desc, 2) == []
    assert oracle.check_mining(result(want[:1]), records, desc, 2)
    assert oracle.check_mining(result(want, skip=0), records, desc, 2)
    assert oracle.check_mining(result([("a", "b", ["d", "c"]), want[1]]), records, desc, 2)
    # d and e tie for a's second negative: the other order passes, with a note
    notes = []
    assert oracle.check_mining(result([("a", "b", ["c", "e"]), want[1]]), records, desc, 2,
                               notes) == []
    assert len(notes) == 1


def test_parameter_checks():
    before = {"vit.w": np.zeros(3), "head.w": np.zeros(2)}
    same = {k: v.copy() for k, v in before.items()}
    moved = {"vit.w": np.zeros(3), "head.w": np.ones(2)}
    assert oracle.check_frozen(before, moved) == []
    assert oracle.check_frozen(before, {"vit.w": np.array([0.0, 0.0, 5e-324]),
                                        "head.w": np.ones(2)})
    assert oracle.check_trained(before, moved, ("head.",)) == []
    assert oracle.check_trained(before, same, ("head.",))
    assert oracle.check_losses([0.0, 0.25]) == []
    assert oracle.check_losses([0.1, math.nan])
    assert oracle.check_losses([-1e-3])
    assert oracle.check_losses([])


def test_tracer_restores_every_binding():
    bindings = [tracer.resolve(module, path) for module, path, _ in tracer.LAYERS]
    before = [owner.__dict__[attr] for owner, attr in bindings]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(bindings, before))
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(bindings, before))


def test_tracer_self_times_cover_a_forward():
    from lgcn import model
    from lgcn.config import AblationFlags, ModelConfig

    cfg = ModelConfig.toy()
    params = model.init_model(cfg, AblationFlags(), 0)
    images = np.random.default_rng(0).random((2, cfg.image_size, cfg.image_size, 3))
    t = tracer.Tracer()
    t.install()
    try:
        t.phase = "timed"
        import time
        t0 = time.perf_counter()
        model.compute_descriptors(images, params, cfg)
        total = time.perf_counter() - t0
    finally:
        t.uninstall()
    spans = {span for (_, span) in t.self_s}
    assert {"model.encode", "model.fwd", "vit.patch.fwd", "vit.attn.fwd", "vit.ffn.fwd",
            "fsa.fwd", "cnn.stages.fwd", "cnn.align.fwd", "dfm.fwd", "head.fwd",
            "ops.gelu.fwd"} <= spans
    covered = sum(t.self_s.values())
    assert 0.9 * total <= covered <= total
    assert t.counts[("timed", "images_encoded")] == 2


def test_probe_calls_no_program_code():
    import lgcn.model  # noqa: F401  (loaded, so a stray call could happen)

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        probe.probe_seconds(reps=2)
    finally:
        sys.setprofile(None)
    assert "probe" in seen
    assert not any(name.startswith("lgcn") for name in seen)


def test_speed_clock_normalises_between_readings():
    clock = probe.SpeedClock(nominal_s=1.0)
    # readings 1, 2 and 4 over [0, 1], [10, 11] and [20, 21], further apart
    # than the window: a stretch takes the median of the readings bounding it
    clock.starts, clock.ends, clock.readings = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0], [1.0, 2.0, 4.0]
    assert clock.measure([(-1.0, 0.5)]) == pytest.approx((1.0, 1.0))
    # [5, 10] at 1/1.5, the probe [10, 11] is not work, [11, 15] at 1/3
    assert clock.measure([(5.0, 15.0)]) == pytest.approx((9.0, 5.0 / 1.5 + 4.0 / 3.0))
    assert clock.measure([(21.0, 23.0), (30.0, 31.0)]) == pytest.approx((3.0, 0.75))
    # readings within the window of a stretch all count
    clock.starts, clock.ends, clock.readings = [0.0, 1.5, 3.0], [0.5, 2.0, 3.5], [1.0, 2.0, 8.0]
    assert clock.measure([(0.5, 1.5)]) == pytest.approx((1.0, 0.5))


def test_setups_are_paced_over_the_run():
    import time

    import run

    class Fake:
        n_setups = 5
        times = []

        def round(self):
            time.sleep(0.01)

        def setup(self, calls):
            self.times.append(time.perf_counter())

    t0 = time.perf_counter()
    setups = [[]]
    run.run_rounds(Fake(), 0.4, setups)
    assert len(setups) == Fake.n_setups
    # the k-th of the four set-ups left comes at the first round's end after
    # a share (k - 1) / 4 of the time, not all together at the end
    for k, at in enumerate(Fake.times, 1):
        assert (k - 1) * 0.1 <= at - t0 <= (k - 1) * 0.1 + 0.1
