"""Metric-learning loop: hard-negative mining, triplet loss, Adam updates.

Mining runs once per epoch against the database descriptors the previous
validation encoded with the current parameters. Each anchor takes its
most-similar valid positive (easiest) and its k most similar valid
negatives (hardest); duplicate unordered anchor/positive pairs are dropped.
Training is byte-deterministic for a fixed seed, whatever the host (README "Determinism").
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .checkpoint import atomic_write, group_sha256, save_checkpoint
from .config import AblationFlags, ModelConfig, TrainConfig
from .params import trainable_names
from .retrieval import geodistance_matrix, place_relations, rank, recall_at_n, search, similarities

POSITIVE_RADIUS_M = 10.0
NEGATIVE_RADIUS_M = 25.0
MARGIN = 0.1  # the triplet hinge's margin on squared L2 distances
RECALL_NS = (1, 5, 10)


class NanLossError(RuntimeError):
    """Raised when the training loss or the validation descriptors go non-finite."""


@dataclass
class TripletBatch:
    anchor: str
    positive: str
    negatives: list[str]


@dataclass
class MiningResult:
    triplets: list[TripletBatch]
    skipped: int


def _pair_masks(records):
    lats = [r.lat for r in records]
    lons = [r.lon for r in records]
    dists = geodistance_matrix(lats, lons, lats, lons)
    same_place, diff_place = place_relations(records, records)
    pos_ok = (dists <= POSITIVE_RADIUS_M) | same_place
    neg_ok = (dists > NEGATIVE_RADIUS_M) | diff_place
    np.fill_diagonal(pos_ok, False)
    np.fill_diagonal(neg_ok, False)
    return pos_ok, neg_ok


def mine_triplets(records, descriptors: np.ndarray, k: int) -> MiningResult:
    """Per-epoch offline mining over the provided records.

    Positive: the valid co-located sample most similar to the anchor.
    Negatives: the k most similar valid non-matches. Anchors with no valid
    positive (or no negatives) are skipped and counted. Equal similarities
    rank by ascending record id (see retrieval.rank); unordered (anchor,
    positive) pairs are emitted once.
    """
    if descriptors.shape[0] != len(records):
        raise ValueError("mine_triplets: descriptor count does not match records")
    pos_ok, neg_ok = _pair_masks(records)
    sims = similarities(descriptors, descriptors)
    sims[np.isnan(sims)] = -np.inf  # ahead of the NaN that masks a pair out below
    ids = [r.id for r in records]
    best_pos = rank(np.where(pos_ok, sims, np.nan), ids, 1).ravel()
    hard_negs = rank(np.where(neg_ok, sims, np.nan), ids, k)
    n_neg = neg_ok.sum(axis=1)
    valid = pos_ok.any(axis=1) & (n_neg > 0)
    triplets, seen_pairs = [], set()
    for i in np.flatnonzero(valid):
        pair = frozenset((ids[i], ids[best_pos[i]]))
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            negs = [ids[j] for j in hard_negs[i, :n_neg[i]]]
            triplets.append(TripletBatch(ids[i], ids[best_pos[i]], negs))
    return MiningResult(triplets, len(records) - int(valid.sum()))


def triplet_loss_fwd(a, p, n, margin: float):
    """Hinge on squared L2: mean over rows of max(0, |a-p|^2 - |a-n|^2 + m)."""
    dap = ((a - p) ** 2).sum(axis=-1)
    dan = ((a - n) ** 2).sum(axis=-1)
    raw = dap - dan + margin
    active = raw > 0
    if raw.size == 0:
        loss = 0.0
    elif not np.all(np.isfinite(raw)):
        loss = float("nan")  # the hinge must not mask non-finite descriptors
    else:
        loss = float(np.where(active, raw, 0.0).mean())
    return loss, (a, p, n, active, raw.size)


def triplet_loss_bwd(dloss, cache):
    a, p, n, active, count = cache
    w = (dloss / count) * active[..., None]
    da = w * (2.0 * (a - p) - 2.0 * (a - n))
    dp = w * (-2.0 * (a - p))
    dn = w * (2.0 * (a - n))
    return da, dp, dn


class Adam:
    """Standard Adam with bias correction; frozen names receive no update."""

    b1, b2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, cfg: TrainConfig, trainable: list[str]):
        self.lr = cfg.learning_rate
        self.trainable = set(trainable)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name in params:
            if name not in self.trainable or name not in grads:
                continue
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            v = self.v[name]
            m = self.b1 * m + (1 - self.b1) * g
            v = self.b2 * v + (1 - self.b2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            params[name] = params[name] - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class TrainReport:
    rows: list[dict] = field(default_factory=list)
    checksums: dict = field(default_factory=dict)
    timings: list[dict] = field(default_factory=list)


def _val_recall(params, cfg, db_records, db_images, q_records, q_images, epoch, out_dir):
    """Query->database Recall@N and the database descriptors; NanLossError if non-finite."""
    db_desc = model_mod.compute_descriptors(db_images, params, cfg)
    q_desc = model_mod.compute_descriptors(q_images, params, cfg)
    if not (np.all(np.isfinite(db_desc)) and np.all(np.isfinite(q_desc))):
        if out_dir:
            _dump_nan_diag(out_dir, epoch, None, params)
        raise NanLossError(f"non-finite validation descriptors at epoch {epoch}")
    k = min(max(RECALL_NS), len(db_records))
    topk, _ = search(q_desc, db_desc, [r.id for r in db_records], k)
    res = recall_at_n(topk, q_records, db_records, RECALL_NS)
    return {n: res.recalls[n] for n in RECALL_NS}, db_desc


def train(params: dict, cfg: ModelConfig, ablation: AblationFlags,
          records, images: np.ndarray, train_cfg: TrainConfig,
          out_dir=None, log=None) -> TrainReport:
    """Fine-tune on the database split; validate query->database recall.

    records/images: the full manifest with the image stack in record order.
    Emits one checkpoint per epoch plus report rows (epoch 0 = untrained).
    log(report) runs as each epoch ends, after its checkpoint is saved.
    """
    rng = np.random.default_rng(train_cfg.seed)
    idx_of = {r.id: i for i, r in enumerate(records)}
    db_records = [r for r in records if r.split == "database"]
    q_records = [r for r in records if r.split == "query"]
    if not db_records or not q_records:
        raise ValueError("train: manifest needs both database and query records")
    db_images = images[[idx_of[r.id] for r in db_records]]
    q_images = images[[idx_of[r.id] for r in q_records]]

    report = TrainReport()
    header = {"model": dataclasses.asdict(cfg), "ablation": dataclasses.asdict(ablation)}

    recalls, db_desc = _val_recall(params, cfg, db_records, db_images, q_records, q_images,
                                   0, out_dir)
    report.rows.append({"epoch": 0, "loss": None, "triplets": None, "skipped": None,
                        **{f"recall@{n}": recalls[n] for n in RECALL_NS}})
    if log:
        log(report)

    opt = Adam(train_cfg, trainable_names(params, train_cfg.freeze_backbone))
    b = train_cfg.batch_size
    k = train_cfg.k_negatives
    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.monotonic()
        mined = mine_triplets(db_records, db_desc, k)
        triplets = list(mined.triplets)
        rng.shuffle(triplets)
        losses = []
        for start in range(0, len(triplets), b):
            chunk = triplets[start:start + b]
            nb = len(chunk)
            a_idx = [idx_of[t.anchor] for t in chunk]
            p_idx = [idx_of[t.positive] for t in chunk]
            n_idx = [idx_of[nid] for t in chunk for nid in t.negatives]
            batch_imgs = images[a_idx + p_idx + n_idx]
            desc_all, tape = model_mod.model_forward(batch_imgs, params, cfg, cross=True,
                                                     trainable=opt.trainable)
            ka = np.repeat(np.arange(nb), [len(t.negatives) for t in chunk])
            a_d = desc_all[ka]
            p_d = desc_all[nb + ka]
            n_d = desc_all[2 * nb:]
            loss, c_loss = triplet_loss_fwd(a_d, p_d, n_d, MARGIN)
            if not np.isfinite(loss):
                if out_dir:
                    _dump_nan_diag(out_dir, epoch, start // b, params)
                raise NanLossError(f"non-finite loss at epoch {epoch}")
            losses.append(loss)
            da, dp, dn = triplet_loss_bwd(1.0, c_loss)
            ddesc = np.zeros_like(desc_all)
            np.add.at(ddesc, ka, da)
            np.add.at(ddesc, nb + ka, dp)
            ddesc[2 * nb:] += dn
            grads: dict = {}
            model_mod.model_backward(ddesc, tape, params, grads)
            opt.step(params, grads)
        recalls, db_desc = _val_recall(params, cfg, db_records, db_images, q_records,
                                       q_images, epoch, out_dir)
        epoch_loss = float(np.mean(losses)) if losses else 0.0
        report.rows.append({"epoch": epoch, "loss": epoch_loss, "triplets": len(triplets),
                            "skipped": mined.skipped,
                            **{f"recall@{n}": recalls[n] for n in RECALL_NS}})
        report.timings.append({"epoch": epoch, "wall_time_s": time.monotonic() - t0})
        if out_dir:
            save_checkpoint(os.path.join(out_dir, f"checkpoint-epoch{epoch:03d}.ckpt"),
                            params, header)
        if log:
            log(report)

    report.checksums = {
        "backbone_sha256": group_sha256(params, "vit."),
        "adapters_sha256": group_sha256(params, "fsa."),
        "all_sha256": group_sha256(params),
    }
    return report


def _dump_nan_diag(out_dir, epoch, step, params):
    def stat(x):  # strict JSON has no NaN or Infinity; "finite" says why a stat is null
        return float(x) if np.isfinite(x) else None

    diag = {
        "epoch": epoch,
        "step": step,
        "param_stats": {
            name: {"min": stat(np.min(v)), "max": stat(np.max(v)),
                   "finite": bool(np.all(np.isfinite(v)))}
            for name, v in params.items()
        },
    }
    with atomic_write(os.path.join(out_dir, "nan_dump.json"), encoding="utf-8") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True, allow_nan=False)


def write_rows(report: TrainReport, out_dir) -> None:
    """report.jsonl and timing.jsonl of the epochs so far, each replaced atomically."""
    for name, rows in (("report.jsonl", report.rows), ("timing.jsonl", report.timings)):
        with atomic_write(os.path.join(out_dir, name), encoding="utf-8") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def write_summary(report: TrainReport, out_dir) -> None:
    with atomic_write(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        json.dump({"checksums": report.checksums, "final": report.rows[-1]},
                  fh, indent=2, sort_keys=True)
