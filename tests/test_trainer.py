"""Trainer tests: mining, triplet loss, Adam, determinism, freezing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcn import trainer
from lgcn.checkpoint import group_sha256
from lgcn.config import AblationFlags, ModelConfig, TrainConfig
from lgcn.model import init_model
from lgcn.retrieval import ManifestRecord
from lgcn.synthworld import _meters_to_degrees, make_place, render_view, sample_condition


def tiny_cfg():
    return ModelConfig(preset="toy", image_size=32, patch_size=8, embed_dim=16,
                       num_heads=2, depth=2, cnn_channels=8, cnn_grid=2, align_mid=3)


def make_world(seed, n_places, views, size=32):
    """In-memory world for trainer tests (no disk round trip needed)."""
    records, images = [], []
    n_db = (views + 1) // 2
    for idx in range(n_places):
        dlat, dlon = _meters_to_degrees(0.0, idx * 60.0, 37.0)
        place = make_place(seed, idx, 37.0 + dlat, -122.0 + dlon)
        for v in range(views):
            images.append(render_view(place, sample_condition(seed, idx, v), size))
            records.append(ManifestRecord(f"p{idx:04d}_v{v}", "", place.lat, place.lon,
                                          place.place_id,
                                          "database" if v < n_db else "query"))
    return records, np.stack(images)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

def co_located(rid, dy_m, split="database", place=None):
    dlat, dlon = _meters_to_degrees(0.0, dy_m, 0.0)
    return ManifestRecord(rid, "", dlat, 0.0, place, split)


def test_mining_threshold_logic_exactly_one_triplet(rng):
    """Two images 5 m apart plus one 100 m away: one (deduped) triplet."""
    records = [co_located("a", 0.0), co_located("b", 5.0), co_located("c", 100.0)]
    desc = unit_rows(rng.normal(size=(3, 8)))
    result = trainer.mine_triplets(records, desc, k=1)
    assert len(result.triplets) == 1
    t = result.triplets[0]
    assert {t.anchor, t.positive} == {"a", "b"}
    assert t.negatives == ["c"]
    assert result.skipped == 1  # "c" has no positive


def test_mining_no_positives_skips_everything(rng):
    records = [co_located(f"r{i}", 100.0 * i) for i in range(4)]
    desc = unit_rows(rng.normal(size=(4, 8)))
    result = trainer.mine_triplets(records, desc, k=2)
    assert result.triplets == []
    assert result.skipped == 4


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 24), st.integers(1, 4), st.integers(0, 4))
def test_mining_matches_exhaustive_oracle(seed, n, k, copies):
    """Replicate the rule with plain loops.

    Ids are shuffled against row order, some records carry no place id, some
    rows are exact copies of distant rows, and descriptors take a few values
    a quarter apart, so similarities are exact and ties common. Small worlds
    leave anchors without a positive or without a negative.
    """
    gen = np.random.default_rng(seed)
    records = []
    for i in gen.permutation(n):
        place = int(gen.integers(0, 4))
        records.append(co_located(f"r{i}", place * 60.0 + float(gen.uniform(0.0, 30.0)),
                                  place=None if gen.random() < 0.3 else f"p{place}"))
    desc = gen.integers(-2, 3, size=(n, 3)) / 4.0
    for _ in range(copies if n > 1 else 0):
        desc[gen.integers(n // 2, n)] = desc[gen.integers(0, n // 2)]
    result = trainer.mine_triplets(records, desc, k=k)

    sims = desc @ desc.T
    from lgcn.retrieval import geodistance
    expected = []
    seen = set()
    for i, r in enumerate(records):
        pos = [j for j, o in enumerate(records) if j != i and
               (geodistance((r.lat, r.lon), (o.lat, o.lon)) <= 10.0 or
                (r.place_id is not None and o.place_id is not None and
                 r.place_id == o.place_id))]
        neg = [j for j, o in enumerate(records) if j != i and
               (geodistance((r.lat, r.lon), (o.lat, o.lon)) > 25.0 or
                (r.place_id is not None and o.place_id is not None and
                 r.place_id != o.place_id))]
        if not pos or not neg:
            continue
        best = sorted(pos, key=lambda j: (-sims[i, j], records[j].id))[0]
        pair = frozenset((r.id, records[best].id))
        if pair in seen:
            continue
        seen.add(pair)
        hard = sorted(neg, key=lambda j: (-sims[i, j], records[j].id))[:k]
        expected.append((r.id, records[best].id, [records[j].id for j in hard]))

    got = [(t.anchor, t.positive, t.negatives) for t in result.triplets]
    assert got == expected


def test_mining_exact_duplicates_tie_by_ascending_id(rng):
    """Identical descriptors far apart in the batch tie exactly; the lower id wins."""
    base = unit_rows(rng.normal(size=(728, 256)))
    anchors = unit_rows(np.repeat(base[:7], 40, axis=0) + 0.01 * rng.normal(size=(280, 256)))
    desc = np.concatenate([base, base[:7], anchors])  # rows i and 728 + i are identical
    places = [f"b{i}" for i in range(735)] + [f"a{i // 2}" for i in range(280)]
    records = [ManifestRecord(f"r{i:04d}", "", 0.0, 0.0, p, "database")
               for i, p in enumerate(places)]
    result = trainer.mine_triplets(records, desc, k=2)
    for t in result.triplets:
        i = int(t.anchor[1:])
        if i >= 735:  # each anchor sits next to base row (i - 735) // 40 and its copy
            j = (i - 735) // 40
            assert t.negatives == [f"r{j:04d}", f"r{728 + j:04d}"]


def test_mining_nan_descriptor_pairs_only_valid_records():
    """A NaN similarity ranks last among the valid pairs, never before an invalid one."""
    records = [co_located("a", 0.0), co_located("b", 5.0), co_located("c", 100.0),
               co_located("d", 200.0)]
    desc = np.eye(4)[:, :3]
    desc[0] = np.nan
    result = trainer.mine_triplets(records, desc, k=2)
    assert [(t.anchor, t.positive, t.negatives) for t in result.triplets] == [
        ("a", "b", ["c", "d"])]


def test_mining_descriptor_count_mismatch(rng):
    records = [co_located("a", 0.0), co_located("b", 5.0)]
    with pytest.raises(ValueError):
        trainer.mine_triplets(records, rng.normal(size=(3, 4)), k=1)


# ---------------------------------------------------------------------------
# triplet loss
# ---------------------------------------------------------------------------

def test_triplet_loss_satisfied_is_zero(rng):
    a = unit_rows(rng.normal(size=(1, 8)))
    n = unit_rows(rng.normal(size=(1, 8)))
    while ((a - n) ** 2).sum() <= 0.5:
        n = unit_rows(rng.normal(size=(1, 8)))
    loss, _ = trainer.triplet_loss_fwd(a, a.copy(), n, margin=0.1)
    assert loss == 0.0


def test_triplet_loss_worst_case_anchor_equals_negative(rng):
    a = unit_rows(rng.normal(size=(1, 8)))
    p = unit_rows(rng.normal(size=(1, 8)))
    loss, _ = trainer.triplet_loss_fwd(a, p, a.copy(), margin=0.1)
    expected = ((a - p) ** 2).sum() + 0.1
    assert abs(loss - expected) < 1e-12


def test_triplet_loss_matches_hand_formula(rng):
    a, p, n = (unit_rows(rng.normal(size=(6, 8))) for _ in range(3))
    loss, _ = trainer.triplet_loss_fwd(a, p, n, margin=0.1)
    per_row = [max(0.0, float(((a[i] - p[i]) ** 2).sum() - ((a[i] - n[i]) ** 2).sum() + 0.1))
               for i in range(6)]
    assert abs(loss - np.mean(per_row)) < 1e-12


def test_triplet_loss_nonnegative_property(rng):
    for _ in range(25):
        a, p, n = (unit_rows(rng.normal(size=(4, 6))) for _ in range(3))
        loss, _ = trainer.triplet_loss_fwd(a, p, n, margin=0.1)
        assert loss >= 0.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_single_step_matches_hand_computation():
    cfg = TrainConfig(learning_rate=0.1, seed=0)
    theta = np.array([1.0, 2.0])
    params = {"w": theta.copy()}
    opt = trainer.Adam(cfg, ["w"])
    g = 2 * theta  # gradient of sum(theta^2)
    opt.step(params, {"w": g.copy()})

    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = (1 - beta1) * g
    v = (1 - beta2) * g * g
    mhat = m / (1 - beta1)
    vhat = v / (1 - beta2)
    expected = theta - cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
    assert np.abs(params["w"] - expected).max() < 1e-10


def test_adam_two_steps_reduce_quadratic():
    cfg = TrainConfig(learning_rate=0.05, seed=0)
    params = {"w": np.array([3.0, -2.0])}
    opt = trainer.Adam(cfg, ["w"])
    f0 = (params["w"] ** 2).sum()
    for _ in range(20):
        opt.step(params, {"w": 2 * params["w"]})
    assert (params["w"] ** 2).sum() < f0


def test_adam_skips_frozen_names():
    cfg = TrainConfig(learning_rate=0.1, seed=0)
    params = {"vit.w": np.array([1.0]), "head.w": np.array([1.0])}
    opt = trainer.Adam(cfg, ["head.w"])
    opt.step(params, {"vit.w": np.array([5.0]), "head.w": np.array([5.0])})
    assert params["vit.w"][0] == 1.0
    assert params["head.w"][0] != 1.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_lr_zero_is_a_null_step():
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(3, 4, 4)
    params = init_model(cfg, ablation, seed=1)
    before = {k: v.copy() for k, v in params.items()}
    tc = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4, seed=0)
    trainer.train(params, cfg, ablation, records, images, tc)
    for name in before:
        np.testing.assert_array_equal(params[name], before[name])


def test_training_is_deterministic(tmp_path):
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(5, 4, 4)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        params = init_model(cfg, ablation, seed=2)
        tc = TrainConfig(epochs=2, batch_size=4, seed=2)
        trainer.train(params, cfg, ablation, records, images, tc, out_dir=out)
        outs.append(out)
    for name in ("checkpoint-epoch001.ckpt", "checkpoint-epoch002.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_freeze_backbone_contract():
    """Frozen run: backbone digest constant, adapter digest changes."""
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(7, 4, 4)
    params = init_model(cfg, ablation, seed=3)
    backbone_before = group_sha256(params, "vit.")
    adapters_before = group_sha256(params, "fsa.")
    tc = TrainConfig(epochs=1, batch_size=4, seed=3, freeze_backbone=True)
    trainer.train(params, cfg, ablation, records, images, tc)
    assert group_sha256(params, "vit.") == backbone_before
    assert group_sha256(params, "fsa.") != adapters_before


def test_unfrozen_backbone_moves():
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(7, 4, 4)
    params = init_model(cfg, ablation, seed=3)
    backbone_before = group_sha256(params, "vit.")
    tc = TrainConfig(epochs=1, batch_size=4, seed=3, freeze_backbone=False)
    trainer.train(params, cfg, ablation, records, images, tc)
    assert group_sha256(params, "vit.") != backbone_before


def read_nan_dump(out_dir):
    """nan_dump.json through a strict parser: a NaN or Infinity in it fails the test."""
    dump = json.loads((out_dir / "nan_dump.json").read_text(),
                      parse_constant=lambda name: pytest.fail(f"nan_dump.json holds {name}"))
    for s in dump["param_stats"].values():  # a non-finite min or max is written as null
        assert s["finite"] == (s["min"] is not None and s["max"] is not None)
    return dump


def test_nan_loss_aborts_with_diagnostic(tmp_path):
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(9, 4, 4)
    params = init_model(cfg, ablation, seed=4)
    params["cnn.align.w"] = params["cnn.align.w"] * np.nan
    tc = TrainConfig(epochs=1, batch_size=4, seed=4)
    with pytest.raises(trainer.NanLossError), \
            pytest.warns(RuntimeWarning, match="invalid value encountered in logaddexp"):
        trainer.train(params, cfg, ablation, records, images, tc, out_dir=tmp_path)
    stats = read_nan_dump(tmp_path)["param_stats"]
    assert stats["cnn.align.w"] == {"min": None, "max": None, "finite": False}


def test_non_finite_validation_aborts_before_checkpoint(tmp_path):
    # Adam's first step at this rate leaves finite weights that overflow the
    # forward; unchecked, the epoch would log a recall from NaN descriptors
    # and save those weights as its checkpoint.
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(3, 6, 4)
    params = init_model(cfg, ablation, seed=0)
    tc = TrainConfig(epochs=1, batch_size=64, seed=0, learning_rate=1e200)
    rows = []
    with pytest.raises(trainer.NanLossError, match="validation descriptors at epoch 1"), \
            pytest.warns(RuntimeWarning):  # numpy's overflow and invalid-value warnings
        trainer.train(params, cfg, ablation, records, images, tc, out_dir=tmp_path,
                      log=lambda report: rows.append(report.rows[-1]))
    assert [row["epoch"] for row in rows] == [0]
    assert all(np.all(np.isfinite(v)) for v in params.values())
    dump = read_nan_dump(tmp_path)
    assert (dump["epoch"], dump["step"]) == (1, None)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nan_dump.json"]


def test_report_rows_structure():
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(11, 4, 4)
    params = init_model(cfg, ablation, seed=5)
    tc = TrainConfig(epochs=2, batch_size=4, seed=5)
    report = trainer.train(params, cfg, ablation, records, images, tc)
    assert [row["epoch"] for row in report.rows] == [0, 1, 2]
    assert report.rows[0]["loss"] is None
    for row in report.rows[1:]:
        assert row["loss"] >= 0.0
        for n in (1, 5, 10):
            assert 0.0 <= row[f"recall@{n}"] <= 1.0
    assert set(report.checksums) == {"backbone_sha256", "adapters_sha256", "all_sha256"}


def test_report_rows_record_each_epochs_mining(monkeypatch):
    cfg = tiny_cfg()
    ablation = AblationFlags()
    records, images = make_world(11, 4, 4)
    keep = list(range(1, len(records)))  # place 0 keeps one database view: its anchor is skipped
    records, images = [records[i] for i in keep], images[keep]
    mined = []

    def record(*args):
        mined.append(real(*args))
        return mined[-1]

    real = trainer.mine_triplets
    monkeypatch.setattr(trainer, "mine_triplets", record)
    params = init_model(cfg, ablation, seed=5)
    tc = TrainConfig(epochs=2, batch_size=4, seed=5)
    report = trainer.train(params, cfg, ablation, records, images, tc)
    assert [(row["triplets"], row["skipped"]) for row in report.rows] == \
        [(None, None)] + [(len(m.triplets), m.skipped) for m in mined]
    assert len(mined) == 2 and all(m.skipped == 1 and m.triplets for m in mined)
