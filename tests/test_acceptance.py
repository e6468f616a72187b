"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them as
they complete). The learning-signal and ablation-ordering criteria train
real models and dominate the runtime; everything here is deterministic
for its fixed seeds.
"""

import hashlib
import math
import statistics
import time

import numpy as np

from lgcn import dfm, fsa, model as model_mod, spectral, trainer, vit
from lgcn.checkpoint import group_sha256
from lgcn.cnn import align_trace, align_upsample, cnn_forward, cnn_spec
from lgcn.config import AblationFlags, ModelConfig, TrainConfig
from lgcn.params import draw
from lgcn.retrieval import ManifestRecord, recall_at_n, search
from lgcn.synthworld import (BASE_LAT, BASE_LON, _meters_to_degrees, make_place,
                             render_view, sample_condition)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {number}: {name} {detail}".rstrip())
    assert ok, f"acceptance criterion {number} failed: {name} {detail}"


def build_world(seed: int, n_places: int, views: int, size: int = 64):
    """In-memory seeded world matching the on-disk generator layout."""
    records, images = [], []
    grid_side = math.ceil(math.sqrt(n_places))
    n_db = (views + 1) // 2
    for idx in range(n_places):
        row, col = divmod(idx, grid_side)
        dlat, dlon = _meters_to_degrees(col * 60.0, row * 60.0, BASE_LAT)
        place = make_place(seed, idx, BASE_LAT + dlat, BASE_LON + dlon)
        for v in range(views):
            images.append(render_view(place, sample_condition(seed, idx, v), size))
            jr = np.random.default_rng([seed, idx, v, 11])
            ang = jr.uniform(0, 2 * math.pi)
            rad = jr.uniform(0, 4.5)
            jlat, jlon = _meters_to_degrees(rad * math.cos(ang), rad * math.sin(ang), place.lat)
            records.append(ManifestRecord(
                f"p{idx:04d}_v{v}", "", place.lat + jlat, place.lon + jlon,
                place.place_id, "database" if v < n_db else "query"))
    return records, np.stack(images)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite(gradcheck_suite):
    reports, elapsed = gradcheck_suite
    failed = [r.op_name for r in reports if not r.passed]
    worst = max(r.max_rel_error for r in reports)
    ok = not failed and elapsed <= 300.0
    report(1, "gradient suite", ok,
           f"({len(reports)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s)"
           + (f" failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 2. spectral invariants
# ---------------------------------------------------------------------------

def test_criterion_2_spectral_invariants():
    worst_rt = 0.0
    worst_pv = 0.0
    for seed in range(100):
        x = np.random.default_rng(seed).normal(size=(8, 8, 4))
        grid, _ = spectral.dft2d_fwd(x[None])
        back, _ = spectral.idft2d_fwd(grid)
        worst_rt = max(worst_rt, float(np.abs(back - x).max()))
        spatial = float((x ** 2).sum())
        freq = float((grid.re ** 2 + grid.im ** 2).sum()) / 64.0
        worst_pv = max(worst_pv, abs(spatial - freq) / spatial)
    x = np.random.default_rng(1234).normal(size=(2, 8, 8, 4))
    ident, _ = fsa.frequency_branch_fwd(x, np.ones((8, 8, 4)))
    ident_err = float(np.abs(ident - x).max())
    ok = worst_rt <= 1e-9 and worst_pv <= 1e-9 and ident_err <= 1e-9
    report(2, "spectral invariants", ok,
           f"(roundtrip {worst_rt:.1e}, parseval {worst_pv:.1e}, unit-gain {ident_err:.1e})")


# ---------------------------------------------------------------------------
# 3. gated-fusion algebra
# ---------------------------------------------------------------------------

def test_criterion_3_dfm_algebra():
    cfg = ModelConfig.toy()
    params = draw(dfm.dfm_spec(cfg), np.random.default_rng(0))
    r = np.random.default_rng(1)
    fvit = r.normal(size=(2, 8, 8, 64))
    fres = r.normal(size=(2, 8, 8, 64))
    omega, _ = dfm.gate_weights_fwd(fvit + fres, params)
    comp_err = float(np.abs(omega + (1.0 - omega) - 1.0).max())
    verb, _ = dfm.dfm_forward(fvit, fres, params, mode="verbatim-eq5")
    verb_err = float(np.abs(verb - fvit).max())
    out1, _ = dfm.dfm_forward(fvit, fres, params, mode="paper-text")
    out2, _ = dfm.dfm_forward(fvit, fres + 0.25, params, mode="paper-text")
    d1 = hashlib.sha256(out1.tobytes()).hexdigest()
    d2 = hashlib.sha256(out2.tobytes()).hexdigest()
    ok = comp_err <= 1e-15 and verb_err <= 1e-12 and d1 != d2
    report(3, "gated-fusion algebra", ok,
           f"(complementarity {comp_err:.1e}, verbatim identity {verb_err:.1e}, "
           f"cnn-stream sensitivity {'ok' if d1 != d2 else 'MISSING'})")


# ---------------------------------------------------------------------------
# 4. full-size shape parity
# ---------------------------------------------------------------------------

def test_criterion_4_paper_shape_parity():
    cfg = ModelConfig.paper()
    gen = np.random.default_rng(0)
    params = draw(vit.vit_spec(cfg), gen)
    for i in range(cfg.depth):
        params.update(draw(fsa.fsa_spec(cfg, f"fsa.block{i}"), gen))
    params.update(draw(cnn_spec(cfg), gen))
    dfm_params = draw(dfm.dfm_spec(cfg), gen)

    image = np.random.default_rng(7).random((1, 224, 224, 3))
    fvit, _ = vit.vit_forward(image, params, cfg)
    fres, _ = cnn_forward(image, params, cfg)
    aligned, cache = align_upsample(fres, params, cfg)
    trace = align_trace(cache)

    checks = {
        "F_ViT 16x16x768": fvit.shape[1:] == (16, 16, 768),
        "F_Res 7x7x1024": fres.shape[1:] == (7, 7, 1024),
        "align mid 14x14": trace[1][1:3] == (14, 14) and trace[2][1:3] == (14, 14),
        "align out 16x16": trace[3][1:3] == (16, 16) and aligned.shape[1:] == (16, 16, 768),
        "w1 768x192": dfm_params["dfm.w1"].shape == (768, 192),
        "w2 192x768": dfm_params["dfm.w2"].shape == (192, 768),
    }
    bad = [k for k, v in checks.items() if not v]
    report(4, "full-size shape parity", not bad,
           "(all six shape contracts)" if not bad else f"failed: {bad}")


# ---------------------------------------------------------------------------
# 5. retrieval harness equals the brute-force oracle
# ---------------------------------------------------------------------------

def _oracle_recall(q_desc, db_desc, q_records, db_records, ns, threshold):
    from lgcn.retrieval import geodistance

    hits = {n: 0 for n in ns}
    evaluated = 0
    for qi, q in enumerate(q_records):
        gt = set()
        for d in db_records:
            same = (q.place_id is not None and d.place_id is not None
                    and q.place_id == d.place_id)
            if same or geodistance((q.lat, q.lon), (d.lat, d.lon)) <= threshold:
                gt.add(d.id)
        if not gt:
            continue
        evaluated += 1
        order = sorted(((float(q_desc[qi] @ db_desc[di]), d.id)
                        for di, d in enumerate(db_records)), key=lambda t: (-t[0], t[1]))
        for n in ns:
            if any(did in gt for _, did in order[:n]):
                hits[n] += 1
    return {n: hits[n] / evaluated for n in ns} if evaluated else None


def test_criterion_5_retrieval_oracle():
    mismatches = 0
    non_monotone = 0
    checked = 0
    for seed in range(200):
        r = np.random.default_rng(10_000 + seed)
        n_db = int(r.integers(5, 81))
        n_q = int(r.integers(2, 20))
        dim = int(r.integers(4, 12))
        use_places = bool(r.integers(0, 2))
        db_records, q_records = [], []
        for i in range(n_db):
            place = f"pl{int(r.integers(0, max(2, n_db // 4)))}" if use_places else None
            db_records.append(ManifestRecord(f"d{i:03d}", "", float(r.uniform(0, 0.004)),
                                             float(r.uniform(0, 0.004)), place, "database"))
        for i in range(n_q):
            place = f"pl{int(r.integers(0, max(2, n_db // 4)))}" if use_places else None
            q_records.append(ManifestRecord(f"q{i:03d}", "", float(r.uniform(0, 0.004)),
                                            float(r.uniform(0, 0.004)), place, "query"))
        db = r.normal(size=(n_db, dim))
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        qs = r.normal(size=(n_q, dim))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        ns = [1, 5, 10]
        k = min(max(ns), n_db)
        topk, _ = search(qs, db, [d.id for d in db_records], k)
        oracle = _oracle_recall(qs, db, q_records, db_records, ns, 25.0)
        if oracle is None:
            continue
        checked += 1
        res = recall_at_n(topk, q_records, db_records, ns)
        if res.recalls != oracle:
            mismatches += 1
        values = [res.recalls[n] for n in ns]
        if values != sorted(values):
            non_monotone += 1
    ok = mismatches == 0 and non_monotone == 0 and checked >= 150
    report(5, "retrieval oracle equality", ok,
           f"({checked} instances, {mismatches} mismatches, {non_monotone} non-monotone)")


# ---------------------------------------------------------------------------
# 6. end-to-end learning signal (the long one)
# ---------------------------------------------------------------------------

def test_criterion_6_learning_signal(tmp_path):
    from lgcn.dataset import load_dataset
    from lgcn.synthworld import generate_world

    cfg = ModelConfig.toy()
    ablation = AblationFlags()
    generate_world(42, n_places=200, views_per_place=6, out_dir=tmp_path)
    records, images = load_dataset(tmp_path)
    params = model_mod.init_model(cfg, ablation, seed=0)
    tc = TrainConfig(epochs=5, seed=0)
    t0 = time.monotonic()
    rep = trainer.train(params, cfg, ablation, records, images, tc)
    elapsed = time.monotonic() - t0
    untrained = rep.rows[0]["recall@1"]
    trained = rep.rows[-1]["recall@1"]
    chance = 1.0 / 200.0
    ok = untrained > chance and trained >= 0.60 and (trained - untrained) >= 0.25
    report(6, "end-to-end learning signal", ok,
           f"(untrained R@1 {untrained:.3f} > chance {chance:.3f}, "
           f"trained {trained:.3f} >= 0.60, delta {trained - untrained:+.3f} >= 0.25, "
           f"{elapsed / 60:.1f} min)")


# ---------------------------------------------------------------------------
# 7. ablation ordering over seed medians
# ---------------------------------------------------------------------------

VARIANTS = {
    "baseline": AblationFlags(disable_fsa=True, disable_cnn_stream=True),
    "plus_fsa": AblationFlags(disable_cnn_stream=True),
    "plus_cnn": AblationFlags(disable_fsa=True, disable_dfm=True),
    "plus_dfm": AblationFlags(disable_fsa=True),
    "full": AblationFlags(),
}


def test_criterion_7_ablation_ordering():
    cfg = ModelConfig.toy()
    medians = {}
    for name, ablation in VARIANTS.items():
        finals = []
        for seed in (0, 1, 2):
            records, images = build_world(100 + seed, n_places=24, views=6)
            params = model_mod.init_model(cfg, ablation, seed=seed)
            rep = trainer.train(params, cfg, ablation, records, images,
                                TrainConfig(epochs=3, seed=seed))
            finals.append(rep.rows[-1]["recall@1"])
        medians[name] = statistics.median(finals)
    orderings = {
        "full >= plus_dfm": medians["full"] >= medians["plus_dfm"],
        "full >= plus_fsa": medians["full"] >= medians["plus_fsa"],
        "full >= plus_cnn": medians["full"] >= medians["plus_cnn"],
        "plus_cnn >= baseline": medians["plus_cnn"] >= medians["baseline"],
    }
    bad = [k for k, v in orderings.items() if not v]
    detail = ", ".join(f"{k} {v:.3f}" for k, v in medians.items())
    report(7, "ablation ordering", not bad,
           f"({detail})" + (f" violated: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 8. freezing contract
# ---------------------------------------------------------------------------

def test_criterion_8_freezing_contract():
    cfg = ModelConfig.toy()
    ablation = AblationFlags()
    records, images = build_world(77, n_places=8, views=4)
    params = model_mod.init_model(cfg, ablation, seed=5)
    backbone_before = group_sha256(params, "vit.")
    adapters_before = group_sha256(params, "fsa.")
    trainer.train(params, cfg, ablation, records, images,
                  TrainConfig(epochs=1, seed=5, freeze_backbone=True))
    backbone_after = group_sha256(params, "vit.")
    adapters_after = group_sha256(params, "fsa.")
    ok = backbone_after == backbone_before and adapters_after != adapters_before
    report(8, "freezing contract", ok,
           f"(backbone sha {'constant' if backbone_after == backbone_before else 'CHANGED'}, "
           f"adapters {'updated' if adapters_after != adapters_before else 'UNTOUCHED'})")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    from lgcn.cli import main

    digests = []
    for run in ("a", "b"):
        world = tmp_path / f"world_{run}"
        out = tmp_path / f"run_{run}"
        hm = tmp_path / f"hm_{run}"
        assert main(["gen", "--seed", "9", "--places", "6", "--views", "4",
                     "--out", str(world), "--size", "64"]) == 0
        assert main(["train", "--data", str(world), "--out", str(out),
                     "--seed", "9", "--epochs", "1", "--batch-size", "4"]) == 0
        assert main(["heatmap", "--checkpoint", str(out / "checkpoint-epoch001.ckpt"),
                     "--image", str(world / "images" / "p0000_v0.ppm"),
                     "--out", str(hm)]) == 0
        blobs = b""
        for path in (out / "checkpoint-epoch001.ckpt", out / "report.jsonl",
                     out / "summary.json", hm / "fvit.ppm", hm / "fres.ppm",
                     hm / "omega.ppm", hm / "fused.ppm", world / "manifest.csv"):
            blobs += hashlib.sha256(path.read_bytes()).digest()
        digests.append(hashlib.sha256(blobs).hexdigest())
    ok = digests[0] == digests[1]
    report(9, "determinism", ok, f"(combined digest {'match' if ok else 'MISMATCH'})")
