"""Command-line interface: gen, train, eval, gradcheck, heatmap.

Exit codes: 0 success, 1 usage/config error, 2 runtime or numeric failure.
A run's settings come from the config file and the flags; explicit flags
win over the config file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys

import numpy as np

from . import ops, spectral
from .checkpoint import CheckpointError, atomic_write, load_checkpoint, save_descriptors
from .checksuite import run_suite
from .config import (ConfigError, dump_run_config, load_run_config, run_config_from_dict,
                     run_config_to_dict)
from .dataset import load_dataset
from .heatmap import export_heatmaps
from .model import (DROPPED_GROUPS, compute_descriptors, dropped_groups, fusion_of, init_model,
                    param_spec)
from .ppm import read_ppm
from .retrieval import DEFAULT_MATCH_THRESHOLD_M, ManifestError, recall_at_n, search
from .synthworld import generate_world
from .trainer import NanLossError, train, write_rows, write_summary


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_ablation_flags(p):
    p.add_argument("--disable-fsa", action="store_true", help="drop/skip the adapters")
    p.add_argument("--disable-cnn-stream", action="store_true", help="transformer stream only")
    p.add_argument("--disable-dfm", action="store_true", help="no gated fusion")


def build_parser() -> _Parser:
    parser = _Parser(prog="lgcn", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic place world")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--places", type=int, required=True, help="at least 2")
    p.add_argument("--views", type=int, required=True, help="views per place, at least 1")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=64, help="image side in pixels, at least 28")

    p = sub.add_parser("train", help="fine-tune on a generated dataset")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--k-negatives", type=int, default=None)
    freeze = p.add_mutually_exclusive_group()
    freeze.add_argument("--freeze-backbone", dest="freeze", action="store_true", default=None)
    freeze.add_argument("--no-freeze-backbone", dest="freeze", action="store_false")
    _add_ablation_flags(p)

    p = sub.add_parser("eval", help="Recall@N retrieval benchmark")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", default="1,5,10", help="comma-separated N values")
    p.add_argument("--out", required=True, help="JSON report path")
    p.add_argument("--per-query", default=None, help="optional per-query CSV path")
    p.add_argument("--threshold", type=float, default=DEFAULT_MATCH_THRESHOLD_M,
                   help="match radius in meters, finite and >= 0")
    p.add_argument("--oracle-check", action="store_true",
                   help="cross-check against a brute-force recall computation")
    p.add_argument("--dump-descriptors", default=None, help="optional descriptor dump path")
    _add_ablation_flags(p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("scope", nargs="?", default="all",
                   help="all or a module name (ops, spectral, vit, fsa, cnn, dfm, head, model, trainer)")
    p.add_argument("--inject-bug", action="store_true",
                   help="negative control: corrupt one backward and expect failure")

    p = sub.add_parser("heatmap", help="export per-stream response maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    _add_ablation_flags(p)

    return parser


def cmd_gen(args) -> int:
    records = generate_world(args.seed, args.places, args.views, args.out, image_size=args.size)
    n_db = sum(1 for r in records if r.split == "database")
    print(f"wrote {len(records)} images ({n_db} database, {len(records) - n_db} query) "
          f"to {args.out}")
    return 0


def _effective_run_config(args):
    """Flags over the config file, all checked by the config parser."""
    data = run_config_to_dict(load_run_config(args.config))
    flags = {("train", "seed"): args.seed, ("train", "epochs"): args.epochs,
             ("train", "batch_size"): args.batch_size, ("train", "learning_rate"): args.lr,
             ("train", "k_negatives"): args.k_negatives, ("train", "freeze_backbone"): args.freeze,
             **{("ablation", flag): getattr(args, flag) or None for flag in DROPPED_GROUPS}}
    for (section, key), value in flags.items():
        if value is not None:
            data[section][key] = value
    return run_config_from_dict(data)


def cmd_train(args) -> int:
    cfg = _effective_run_config(args)
    os.makedirs(args.out, exist_ok=True)
    dump_run_config(cfg, os.path.join(args.out, "config.json"))
    records, images = load_dataset(args.data)
    if images.shape[1] != cfg.model.image_size:
        raise ConfigError(f"dataset images are {images.shape[1]}px but the model expects "
                          f"{cfg.model.image_size}px")
    params = init_model(cfg.model, cfg.ablation, cfg.train.seed)

    def epoch_done(report):  # a run that stops later keeps the rows of the epochs before
        print(json.dumps(report.rows[-1], sort_keys=True))
        write_rows(report, args.out)

    report = train(params, cfg.model, cfg.ablation, records, images, cfg.train,
                   out_dir=args.out, log=epoch_done)
    write_summary(report, args.out)
    return 0


def _load_model(path):
    """Parameters and model config of a checkpoint that matches its header."""
    params, header = load_checkpoint(path)
    params = {n: v for n, v in params.items() if not n.endswith(".attn.bk")}  # old key biases
    try:  # both sections are required: a None in their place fails the parser
        cfg = run_config_from_dict({"model": None, "ablation": None, **header})
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    # A header can claim any depth: list at most one entry more than the file holds.
    spec = list(itertools.islice(param_spec(cfg.model, cfg.ablation), len(params) + 1))
    if len(spec) > len(params):
        raise CheckpointError(f"{path}: the file's {len(params)} tensors differ from the "
                              "header's model, which has more")
    bad = sorted(n for n, v in params.items() if not np.all(np.isfinite(v)))
    if bad:  # ahead of the fold below, which would warn on them
        raise CheckpointError(f"{path}: {len(bad)} tensors hold NaN or infinite values, "
                              f"such as {', '.join(bad[:3])}")
    shapes = {n: shape for n, shape, _ in spec}
    g = cfg.model.grid
    for n, shape in shapes.items():  # earlier versions wrote 0-d tensors as shape (1,)
        if shape == () and n in params and params[n].shape == (1,):
            params[n] = params[n].reshape(())
        elif n.endswith(".gains_log") and n in params and params[n].shape == (g, g, shape[1]):
            params[n] = spectral.fold_gains_log(params[n])  # and gains as a (G, G, C) field
    bad = sorted(n for n in shapes.keys() | params.keys()
                 if n not in params or shapes.get(n) != params[n].shape)
    if bad:
        raise CheckpointError(f"{path}: {len(bad)} tensor names or shapes differ from the "
                              f"header's model, such as {', '.join(bad[:3])}")
    return params, cfg.model


def _ablated(params, mcfg, args):
    """The checkpoint's parameters less the groups the ablation flags drop.

    The rest must be a variant param_spec builds: a head as wide as its fusion's input."""
    drop = dropped_groups(args)
    params = {n: v for n, v in params.items() if not n.startswith(drop)}
    fusion = fusion_of(params)
    width = (2 if fusion == "concat" else 1) * mcfg.embed_dim
    have = params["head.attn.wq"].shape[0]
    if have != width:
        raise UsageError(f"the ablation flags leave a {fusion} fusion, whose head reads {width} "
                         f"channels, but this checkpoint's head reads {have}")
    return params


def _brute_force_recall(q_desc, db_desc, db_ids, query_records, db_records, ns, threshold):
    """Independent double-loop recall used by --oracle-check."""
    from .retrieval import geodistance

    hits = {n: 0 for n in ns}
    evaluated = 0
    for qi, q in enumerate(query_records):
        gt = set()
        for d in db_records:
            same = q.place_id is not None and d.place_id is not None and q.place_id == d.place_id
            if same or geodistance((q.lat, q.lon), (d.lat, d.lon)) <= threshold:
                gt.add(d.id)
        if not gt:
            continue
        evaluated += 1
        sims = sorted(((float(q_desc[qi] @ db_desc[di]), db_ids[di])
                       for di in range(len(db_records))), key=lambda t: (-t[0], t[1]))
        for n in ns:
            if any(did in gt for _, did in sims[:n]):
                hits[n] += 1
    return {n: hits[n] / evaluated for n in ns} if evaluated else {}


def cmd_eval(args) -> int:
    try:
        ns = sorted({int(s) for s in args.n.split(",") if s.strip()})
    except ValueError:
        ns = []
    if not ns or ns[0] < 1:
        raise UsageError(f"bad --n list {args.n!r}")
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        raise UsageError(f"--threshold must be a finite distance >= 0 m, got {args.threshold}")
    params, mcfg = _load_model(args.checkpoint)
    params = _ablated(params, mcfg, args)
    records, images = load_dataset(args.data)
    if images.shape[1] != mcfg.image_size:
        raise ConfigError(f"dataset images are {images.shape[1]}px but the checkpoint expects "
                          f"{mcfg.image_size}px")
    db_idx = [i for i, r in enumerate(records) if r.split == "database"]
    q_idx = [i for i, r in enumerate(records) if r.split == "query"]
    db_records = [records[i] for i in db_idx]
    q_records = [records[i] for i in q_idx]
    db_desc = compute_descriptors(images[db_idx], params, mcfg)
    q_desc = compute_descriptors(images[q_idx], params, mcfg)
    if not (np.all(np.isfinite(db_desc)) and np.all(np.isfinite(q_desc))):
        raise FloatingPointError("eval: the descriptors hold NaN or infinite values; the "
                                 "checkpoint's weights overflow the forward")
    k = min(max(ns), len(db_records))
    topk, sims = search(q_desc, db_desc, [r.id for r in db_records], k)
    result = recall_at_n(topk, q_records, db_records, ns, threshold_m=args.threshold)

    desc_all = np.zeros((len(records), db_desc.shape[1]))
    desc_all[db_idx] = db_desc
    desc_all[q_idx] = q_desc
    digest = hashlib.sha256(np.ascontiguousarray(desc_all).astype("<f8").tobytes()).hexdigest()

    report = result.to_dict(dataset=os.path.basename(os.path.normpath(args.data)))
    report["descriptor_sha256"] = digest
    report["fusion"] = fusion_of(params)
    report["adapters_enabled"] = any(n.startswith("fsa.") for n in params)
    # The report goes last, so a failed write leaves no report to pass for success.
    if args.dump_descriptors:
        save_descriptors(args.dump_descriptors, desc_all)
    if args.per_query:
        with atomic_write(args.per_query, encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["query_id", "rank", "db_id", "similarity"])
            for qi, q in enumerate(q_records):
                for rank, did in enumerate(topk[qi], start=1):
                    writer.writerow([q.id, rank, did, float(sims[qi][rank - 1])])
    with atomic_write(args.out, encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for n in ns:
        print(f"recall@{n}: {result.recalls[n]:.4f}")
    if args.oracle_check:
        oracle = _brute_force_recall(q_desc, db_desc, [r.id for r in db_records],
                                     q_records, db_records, ns, args.threshold)
        if oracle != result.recalls:
            print(f"oracle mismatch: harness={result.recalls} oracle={oracle}", file=sys.stderr)
            return 2
        print("oracle-check: ok")
    return 0


def cmd_gradcheck(args) -> int:
    ops.INJECT_GRADIENT_BUG = bool(args.inject_bug)
    try:
        reports = run_suite(args.scope)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    finally:
        ops.INJECT_GRADIENT_BUG = False
    for rep in reports:
        print(rep)
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 2 if failed else 0


def cmd_heatmap(args) -> int:
    params, mcfg = _load_model(args.checkpoint)
    params = _ablated(params, mcfg, args)
    image = read_ppm(args.image)
    if image.shape[0] != mcfg.image_size or image.shape[1] != mcfg.image_size:
        raise ConfigError(f"image is {image.shape[0]}x{image.shape[1]} but the checkpoint "
                          f"expects {mcfg.image_size}px")
    written = export_heatmaps(image, params, mcfg, args.out)
    for name in sorted(written):
        print(f"{name}: {written[name]}")
    return 0


_DISPATCH = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
             "gradcheck": cmd_gradcheck, "heatmap": cmd_heatmap}

_USAGE_ERRORS = (UsageError, ConfigError, ManifestError, FileNotFoundError,
                 NotADirectoryError)
_RUNTIME_ERRORS = (NanLossError, ops.ShapeError, CheckpointError, ValueError,
                   FloatingPointError, OSError)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
