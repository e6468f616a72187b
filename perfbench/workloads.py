"""The three workloads: localize, train and retrieval.

Each workload is a closed loop with one caller. It calls `lgcn` only through
module attributes (so the tracer can see every call) and records the wall
interval of every program call it makes. A round keeps each output that
differs from every output already kept; all kept outputs are checked against
the independent oracles once the rounds are over, so that the oracles' own
memory does not show in the run's peak.

A workload exposes:
  setup(calls)    the program calls that set it up; intervals go to `calls`
  prepare()       reference data for the checks, outside any timing
  round()         one round of identical work -> Round
  check_all()     (errors, near-tie notes) over every kept output
  controls()      negative controls: (name, caught) per planted wrong answer
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import oracle
from tracer import Patcher

from lgcn import checkpoint, dataset, model, retrieval, synthworld, trainer
from lgcn.config import AblationFlags, ModelConfig, TrainConfig


@dataclass
class Round:
    items: int = 0
    attempted: int = 0
    failed: int = 0
    ops: list = field(default_factory=list)    # (t0, t1) of each unit operation
    work: list = field(default_factory=list)   # (t0, t1) of each program call


class Workload:
    name: str
    n_setups: int  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, workdir: str, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.setup_errors: list[str] = []
        self.kept: list = []  # (key, output) of each distinct output, in order

    def prepare(self) -> None:
        pass

    def keep(self, key, output) -> None:
        """Keep an output for the checks unless an equal one is already kept."""
        if all(key != k for k, _ in self.kept):
            self.kept.append((key, output))

    def call(self, calls, fn, *args, **kwargs):
        """Run one program call in set-up, record its interval, then maybe probe."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        calls.append((t0, time.perf_counter()))
        self.clock.tick()
        return out


def _failure(rnd: Round, what: str) -> None:
    """Count a failed operation; its output is missing, not wrong, so no check fails."""
    rnd.failed += 1
    print(f"# {what} failed:\n{traceback.format_exc(limit=3)}", file=sys.stderr)


class Localize(Workload):
    """Deployed use: encode one query image, search the encoded database, read top-k."""

    name = "localize"
    n_setups = 9
    PLACES = 40
    VIEWS = 2      # one database view and one query view per place
    TOP_K = 5

    def setup(self, calls):
        world = os.path.join(self.workdir, "world")
        ckpt = os.path.join(self.workdir, "model.ckpt")
        cfg, ablation = ModelConfig.toy(), AblationFlags()
        self.call(calls, synthworld.generate_world, self.seed, self.PLACES, self.VIEWS, world)
        records, images = self.call(calls, dataset.load_dataset, world)
        params = self.call(calls, model.init_model, cfg, ablation, self.seed)
        header = {"model": dataclasses.asdict(cfg), "ablation": dataclasses.asdict(ablation)}
        self.call(calls, checkpoint.save_checkpoint, ckpt, params, header)
        params, header = self.call(calls, checkpoint.load_checkpoint, ckpt)
        self.cfg = ModelConfig(**header["model"])
        self.params = params
        db = [i for i, r in enumerate(records) if r.split == "database"]
        qs = [i for i, r in enumerate(records) if r.split == "query"]
        self.db_ids = [records[i].id for i in db]
        self.q_images = images[qs]
        db_desc = self.call(calls, model.compute_descriptors, images[db], params, self.cfg,
                            batch_size=64)
        if hasattr(self, "db_desc") and not np.array_equal(db_desc, self.db_desc):
            self.setup_errors.append("localize: a set-up encoded a different database")
        self.db_desc = db_desc

    def prepare(self):
        self.q_batch = model.compute_descriptors(self.q_images, self.params, self.cfg,
                                                 batch_size=64)

    def round(self) -> Round:
        rnd = Round()
        for j in range(self.q_images.shape[0]):
            rnd.attempted += 1
            t0 = time.perf_counter()
            try:
                d = model.compute_descriptors(self.q_images[j:j + 1], self.params, self.cfg)
                ids, sims = retrieval.search(d, self.db_desc, self.db_ids, self.TOP_K)
                top = ids[0][0]
            except Exception:
                _failure(rnd, "localize query")
                continue
            t1 = time.perf_counter()
            rnd.ops.append((t0, t1))
            rnd.work.append((t0, t1))
            rnd.items += 1
            self.keep((j, d.tobytes(), ids[0], top, sims.tobytes()),
                      (j, d[0], top, ids[0], sims[0]))
            self.clock.tick()
        return rnd

    def check_all(self):
        errors, notes = oracle.check_unit_norm(self.db_desc), []
        for _, (j, d, top, ids, sims) in self.kept:
            errors += (oracle.check_unit_norm(d[None])
                       + oracle.check_batch_independent(d, self.q_batch[j])
                       + oracle.check_ranking(ids, d, self.db_desc, self.db_ids, sims, notes))
            if top != ids[0]:
                errors.append(f"localize: top-1 {top} is not the first of {ids}")
        return errors, notes

    def controls(self):
        _, (j, d, _, _, _) = self.kept[0]
        order, _ = oracle.cosine_order(d, self.db_desc, self.db_ids)
        ranked = [self.db_ids[i] for i in order[:self.TOP_K]]
        swapped = [ranked[1], ranked[0]] + ranked[2:]
        wrong_top = [self.db_ids[order[-1]]] + ranked[1:]
        return [
            ("ranking: top-1 and top-2 swapped",
             bool(oracle.check_ranking(swapped, d, self.db_desc, self.db_ids))),
            ("ranking: worst match as top-1",
             bool(oracle.check_ranking(wrong_top, d, self.db_desc, self.db_ids))),
            ("batch independence: row off by 1e-8",
             bool(oracle.check_batch_independent(d + 1e-8, self.q_batch[j]))),
            ("unit norm: scaled by 1 + 1e-9",
             bool(oracle.check_unit_norm(d[None] * (1.0 + 1e-9)))),
        ]


class Train(Workload):
    """Whole epochs of trainer.train on a small world, from the same start every round."""

    name = "train"
    n_setups = 15
    PLACES = 16
    VIEWS = 3      # two database views and one query view per place
    EPOCHS = 1
    TRAINED_GROUPS = ("fsa.", "cnn.", "dfm.", "head.")

    def setup(self, calls):
        world = os.path.join(self.workdir, "world")
        self.cfg, self.ablation = ModelConfig.toy(), AblationFlags()
        self.call(calls, synthworld.generate_world, self.seed, self.PLACES, self.VIEWS, world)
        self.records, self.images = self.call(calls, dataset.load_dataset, world)
        self.params0 = self.call(calls, model.init_model, self.cfg, self.ablation, self.seed)
        if hasattr(self, "snapshot") and any(not np.array_equal(v, self.snapshot[n])
                                             for n, v in self.params0.items()):
            self.setup_errors.append("train: a set-up initialised different parameters")

    def prepare(self):
        self.snapshot = {n: np.array(v, copy=True) for n, v in self.params0.items()}
        self.run_dir = os.path.join(self.workdir, "run")
        os.makedirs(self.run_dir, exist_ok=True)
        self.train_cfg = TrainConfig(epochs=self.EPOCHS, seed=self.seed)

    def _hooks(self, steps, mined):
        """Delimit optimizer steps, probe between program calls, capture mining."""
        patch = Patcher()
        clock = self.clock
        start = [0.0]

        def forward(fn):
            def hooked(*args, **kwargs):
                if kwargs.get("cross"):
                    start[0] = time.perf_counter()
                return fn(*args, **kwargs)
            return hooked

        def step(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                steps.append((start[0], time.perf_counter()))
                clock.tick()
                return out
            return hooked

        def encode(fn):
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                clock.tick()
                return out
            return hooked

        def mine(fn):
            def hooked(records, descriptors, k):
                out = fn(records, descriptors, k)
                mined.append((records, descriptors, k, out))
                return out
            return hooked

        patch.wrap("lgcn.model", "model_forward", forward)
        patch.wrap("lgcn.trainer", "Adam.step", step)
        patch.wrap("lgcn.model", "compute_descriptors", encode)
        patch.wrap("lgcn.trainer", "mine_triplets", mine)
        return patch

    def round(self) -> Round:
        rnd = Round(attempted=1)
        params = dict(self.params0)
        mined = []
        patch = self._hooks(rnd.ops, mined)
        t0 = time.perf_counter()
        try:
            report = trainer.train(params, self.cfg, self.ablation, self.records, self.images,
                                   self.train_cfg, out_dir=self.run_dir)
        except Exception:
            _failure(rnd, "trainer.train")
            return rnd
        finally:
            t1 = time.perf_counter()
            patch.restore()
        rnd.work.append((t0, t1))
        rnd.attempted = rnd.failed + len(rnd.ops)
        rnd.items = sum(len(m[3].triplets) for m in mined)
        key = (report.checksums, [row["loss"] for row in report.rows],
               [(d.tobytes(), [(t.anchor, t.positive, t.negatives) for t in r.triplets], r.skipped)
                for _, d, _, r in mined])
        self.keep(key, (params, report, mined))
        return rnd

    def check_all(self):
        errors, notes = [], []
        if len(self.kept) > 1:
            errors.append(f"train: rounds from the same start ended {len(self.kept)} ways")
        for _, (params, report, mined) in self.kept:
            errors += (oracle.check_frozen(self.snapshot, params)
                       + oracle.check_trained(self.snapshot, params, self.TRAINED_GROUPS)
                       + oracle.check_losses([row["loss"] for row in report.rows[1:]]))
            if len(mined) != self.EPOCHS:
                errors.append(f"train: {len(mined)} mining passes for {self.EPOCHS} epochs")
            for records, desc, k, result in mined:
                errors += oracle.check_mining(result, records, desc, k, notes)
        return errors, notes

    def controls(self):
        _, (params, report, mined) = self.kept[0]
        records, desc, k, result = mined[0]
        name = next(n for n in params if n.startswith("vit."))
        flipped = dict(params)
        flipped[name] = params[name].copy()
        flipped[name].view(np.uint64).flat[0] ^= 1
        dropped = dataclasses.replace(result, triplets=result.triplets[:-1])
        t = result.triplets[0]
        other = trainer.TripletBatch(t.anchor, t.positive, t.negatives[::-1])
        reordered = dataclasses.replace(result, triplets=[other] + result.triplets[1:])
        losses = [row["loss"] for row in report.rows[1:]]
        return [
            ("frozen: one backbone bit flipped", bool(oracle.check_frozen(self.snapshot, flipped))),
            ("trained: parameters left at their start",
             bool(oracle.check_trained(self.snapshot, self.params0, self.TRAINED_GROUPS))),
            ("loss: NaN", bool(oracle.check_losses(losses + [math.nan]))),
            ("loss: negative", bool(oracle.check_losses(losses + [-0.01]))),
            ("mining: last triplet dropped",
             bool(oracle.check_mining(dropped, records, desc, k))),
            ("mining: negatives of the first triplet reversed",
             bool(oracle.check_mining(reordered, records, desc, k))),
        ]


class Retrieval(Workload):
    """Recall@N harness and mining over generated descriptors; no image is encoded."""

    name = "retrieval"
    n_setups = 41
    PLACES = 400
    VIEWS = 2             # query views per place, and database views of most places
    DIM = 256
    NOISE = 0.6           # view spread around the place centre, per unit-norm centre
    NO_DB_EVERY = 20      # every 20th place has queries but no database view
    LONE_DB_EVERY = 7     # and every 7th has a single one, so mining skips it
    DUPLICATE_EVERY = 25  # every 25th database row is uploaded twice
    NO_PLACE_ID = 0.15    # share of records without a place id
    N_VALUES = (1, 5, 10)
    K_NEGATIVES = 4

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        self._generate()

    def _generate(self):
        """Geotagged records on a 60 m place grid, descriptors clustered by place."""
        rng = np.random.default_rng([self.seed, 5])
        side = math.ceil(math.sqrt(self.PLACES))
        m_per_deg = oracle.EARTH_RADIUS_M * math.pi / 180.0
        base_lat, base_lon = 37.0, -122.0
        centres = rng.normal(size=(self.PLACES, self.DIM))
        centres /= np.linalg.norm(centres, axis=1, keepdims=True)

        def view(p, split, v=None):
            row, col = divmod(p, side)
            ang, rad = rng.uniform(0, 2 * math.pi), rng.uniform(0, 4.5)
            lat = base_lat + (row * 60.0 + rad * math.sin(ang)) / m_per_deg
            lon = base_lon + (col * 60.0 + rad * math.cos(ang)) / (
                m_per_deg * math.cos(math.radians(base_lat)))
            place = None if rng.random() < self.NO_PLACE_ID else f"place{p:04d}"
            if v is None:
                v = centres[p] + self.NOISE * rng.normal(size=self.DIM) / math.sqrt(self.DIM)
                v = v / np.linalg.norm(v)
            return p, (lat, lon, place, split), v

        db, q = [], []
        for p in range(self.PLACES):
            n_db = 0 if p % self.NO_DB_EVERY == 0 else 1 if p % self.LONE_DB_EVERY == 3 else 2
            db += [view(p, "database") for _ in range(n_db)]
            q += [view(p, "query") for _ in range(self.VIEWS)]
        db += [view(p, "database", v.copy()) for p, _, v in db[::self.DUPLICATE_EVERY]]
        db_ids = [f"d{i:05d}" for i in rng.permutation(len(db))]
        q_ids = [f"q{i:05d}" for i in rng.permutation(len(q))]
        self.records = [retrieval.ManifestRecord(rid, f"desc/{rid}", lat, lon, place, split)
                        for rid, (_, (lat, lon, place, split), _) in zip(db_ids + q_ids, db + q)]
        self.db_gen = np.array([v for _, _, v in db])
        self.q_gen = np.array([v for _, _, v in q])

    def setup(self, calls):
        manifest = os.path.join(self.workdir, "manifest.csv")
        db_path = os.path.join(self.workdir, "database.desc")
        q_path = os.path.join(self.workdir, "query.desc")
        self.call(calls, retrieval.save_manifest, self.records, manifest)
        self.call(calls, checkpoint.save_descriptors, db_path, self.db_gen)
        self.call(calls, checkpoint.save_descriptors, q_path, self.q_gen)
        records = self.call(calls, retrieval.load_manifest, manifest)
        self.db = self.call(calls, checkpoint.load_descriptors, db_path)
        self.q = self.call(calls, checkpoint.load_descriptors, q_path)
        self.db_records = [r for r in records if r.split == "database"]
        self.q_records = [r for r in records if r.split == "query"]
        self.db_ids = [r.id for r in self.db_records]
        if records != self.records:
            self.setup_errors.append("retrieval: manifest did not round-trip")
        if not (np.array_equal(self.db, self.db_gen) and np.array_equal(self.q, self.q_gen)):
            self.setup_errors.append("retrieval: descriptor dumps did not round-trip")

    def round(self) -> Round:
        rnd = Round(attempted=1)
        t0 = time.perf_counter()
        try:
            topk, sims = retrieval.search(self.q, self.db, self.db_ids, max(self.N_VALUES))
            recall = retrieval.recall_at_n(topk, self.q_records, self.db_records, self.N_VALUES)
            mined = trainer.mine_triplets(self.db_records, self.db, self.K_NEGATIVES)
        except Exception:
            _failure(rnd, "retrieval round")
            return rnd
        t1 = time.perf_counter()
        rnd.ops.append((t0, t1))
        rnd.work.append((t0, t1))
        rnd.items = len(self.q_records) + len(self.db_records)
        key = (topk, sims.tobytes(), recall.recalls, recall.num_queries, recall.num_excluded,
               [(t.anchor, t.positive, t.negatives) for t in mined.triplets], mined.skipped)
        self.keep(key, (topk, sims, recall, mined))
        self.clock.tick()
        return rnd

    def check_all(self):
        errors, notes = [], []
        for _, (topk, sims, recall, mined) in self.kept:
            for qi, ids in enumerate(topk):
                errors += oracle.check_ranking(ids, self.q[qi], self.db, self.db_ids, sims[qi],
                                               notes)
            errors += oracle.check_recall(recall, topk, self.q_records, self.db_records,
                                          self.N_VALUES)
            errors += oracle.check_mining(mined, self.db_records, self.db, self.K_NEGATIVES, notes)
        return errors, notes

    def controls(self):
        _, (topk, sims, recall, mined) = self.kept[0]
        dup = self._tied_query(topk)
        tied = sorted(topk[dup][:2], reverse=True) + list(topk[dup][2:])
        tied_sims = np.concatenate([sims[dup][:1], sims[dup][:1], sims[dup][2:]])
        shifted = dataclasses.replace(recall, recalls={**recall.recalls, 1: recall.recalls[1] + 1e-3})
        fewer = dataclasses.replace(recall, num_excluded=recall.num_excluded - 1)
        t = mined.triplets[0]
        wrong_pos = dataclasses.replace(
            mined, triplets=[trainer.TripletBatch(t.anchor, t.negatives[0], t.negatives)]
            + mined.triplets[1:])
        return [
            ("ranking: equal similarities ordered by descending id",
             bool(oracle.check_ranking(tied, self.q[dup], self.db, self.db_ids, tied_sims))),
            ("recall: R@1 off by 1e-3",
             bool(oracle.check_recall(shifted, topk, self.q_records, self.db_records,
                                      self.N_VALUES))),
            ("recall: one excluded query fewer",
             bool(oracle.check_recall(fewer, topk, self.q_records, self.db_records,
                                      self.N_VALUES))),
            ("mining: a negative as the positive",
             bool(oracle.check_mining(wrong_pos, self.db_records, self.db, self.K_NEGATIVES))),
        ]

    def _tied_query(self, topk) -> int:
        """A query whose top two results are an exact duplicate pair."""
        index = {v: i for i, v in enumerate(self.db_ids)}
        for qi, ids in enumerate(topk):
            a, b = self.db[index[ids[0]]], self.db[index[ids[1]]]
            if np.array_equal(a, b):
                return qi
        raise RuntimeError("retrieval: no query ranks a duplicate pair first")


WORKLOADS = {w.name: w for w in (Localize, Train, Retrieval)}
