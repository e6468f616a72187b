"""End-to-end CLI tests: subcommands, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcn.checkpoint import load_checkpoint
from lgcn.cli import main
from lgcn.config import load_run_config, run_config_from_dict, run_config_to_dict
from lgcn.model import fusion_of, init_model

TINY_MODEL = {"preset": "toy", "image_size": 32, "patch_size": 8, "embed_dim": 16,
              "num_heads": 2, "depth": 2, "cnn_channels": 8, "cnn_grid": 2,
              "align_mid": 3}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, **overrides):
    cfg = {"model": dict(TINY_MODEL), "train": {"epochs": 1, "batch_size": 4, "seed": 0}}
    for key, val in overrides.items():
        cfg.setdefault(key.split(".")[0], {})
        section, field = key.split(".")
        cfg[section][field] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    assert main(["gen", "--seed", "5", "--places", "6", "--views", "4",
                 "--out", str(out), "--size", "32"]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, world):
    out = tmp_path_factory.mktemp("trained")
    cfg = write_config(out)
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(out)]) == 0
    return out


def test_gen_counts_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--seed", "7", "--places", "3", "--views", "2",
                     "--out", str(out), "--size", "32"]) == 0
    assert sha(a / "manifest.csv") == sha(b / "manifest.csv")
    lines = (a / "manifest.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6  # header + 3 places x 2 views


def test_gen_different_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--seed", "1", "--places", "3", "--views", "2",
                 "--out", str(a), "--size", "32"]) == 0
    assert main(["gen", "--seed", "2", "--places", "3", "--views", "2",
                 "--out", str(b), "--size", "32"]) == 0
    assert sha(a / "manifest.csv") != sha(b / "manifest.csv")


def _gen_train_eval(root, cfg):
    """Digests of the manifest, checkpoint, report and descriptor dump of a small run."""
    world, out = root / "world", root / "train"
    assert main(["gen", "--places", "6", "--views", "4", "--out", str(world), "--size", "32"]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(world), "--out", str(out)]) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(out / "eval.json"),
                 "--dump-descriptors", str(out / "desc.bin")]) == 0
    return [sha(path) for path in (world / "manifest.csv", out / "checkpoint-epoch001.ckpt",
                                   out / "report.jsonl", out / "desc.bin")]


def test_lgcn_environment_variables_are_ignored(tmp_path, monkeypatch):
    # settings come from flags and --config only, so these change no byte
    cfg = write_config(tmp_path)
    for name in [n for n in os.environ if n.startswith("LGCN_")]:
        monkeypatch.delenv(name)
    clean = _gen_train_eval(tmp_path / "clean", cfg)
    for name, value in (("LGCN_SEED", "5"), ("LGCN_EPOCHS", "many"), ("LGCN_BATCH_SIZE", "3"),
                        ("LGCN_LEARNING_RATE", "nan")):
        monkeypatch.setenv(name, value)
    assert _gen_train_eval(tmp_path / "set", cfg) == clean


def test_train_artifacts(world, trained):
    assert (trained / "checkpoint-epoch001.ckpt").exists()
    assert (trained / "report.jsonl").exists()
    assert (trained / "timing.jsonl").exists()
    assert (trained / "summary.json").exists()
    rows = [json.loads(l) for l in (trained / "report.jsonl").read_text().splitlines()]
    assert rows[0]["epoch"] == 0 and rows[0]["loss"] is None
    assert rows[1]["epoch"] == 1 and rows[1]["loss"] >= 0
    assert rows[0]["triplets"] is None and rows[0]["skipped"] is None
    assert rows[1]["triplets"] > 0 and rows[1]["skipped"] == 0
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    assert header["model"]["image_size"] == 32


def test_config_echo_round_trips(trained):
    echoed = load_run_config(str(trained / "config.json"))
    again = load_run_config(str(trained / "config.json"))
    assert echoed == again
    assert run_config_to_dict(echoed)["model"]["image_size"] == 32


def test_train_lr_zero_null_step(tmp_path, world):
    out = tmp_path / "run0"
    cfg = write_config(tmp_path, **{"train.learning_rate": 0.0, "train.epochs": 2})
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(out)]) == 0
    assert sha(out / "checkpoint-epoch001.ckpt") == sha(out / "checkpoint-epoch002.ckpt")


def test_train_stopped_at_epoch_1_keeps_epoch_0_rows(tmp_path, world, capsys):
    # At this rate Adam's first step overflows the forward, so epoch 1 stops with
    # exit 2; the rows of the epochs before it are on disk, not only on stdout.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, **{"train.epochs": 2})
    with warnings.catch_warnings():  # numpy's overflow and invalid-value warnings
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["train", "--config", str(cfg), "--data", str(world), "--out", str(out),
                     "--lr", "1e200"])
    assert code == 2
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    rows = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert [row["epoch"] for row in rows] == [0] and rows == printed
    assert (out / "timing.jsonl").read_text() == ""
    assert not (out / "summary.json").exists()
    assert not list(out.glob("checkpoint-*"))


def test_train_determinism_byte_identical(tmp_path, world):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--data", str(world),
                     "--out", str(out)]) == 0
        outs.append(out)
    assert sha(outs[0] / "checkpoint-epoch001.ckpt") == sha(outs[1] / "checkpoint-epoch001.ckpt")
    assert sha(outs[0] / "report.jsonl") == sha(outs[1] / "report.jsonl")


# A child restricted to one CPU by itself, so the test process keeps its own.
ONE_CPU = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from lgcn.cli import main; sys.exit(main(sys.argv[1:]))")


def test_outputs_do_not_depend_on_blas_threads_or_cpus(tmp_path):
    world = tmp_path / "world"
    assert main(["gen", "--seed", "5", "--places", "6", "--views", "3",
                 "--out", str(world)]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_size": 4, "seed": 0}}))
    ways = {"blas-1": ({"OPENBLAS_NUM_THREADS": "1"}, ["-m", "lgcn"]),
            "blas-2": ({"OPENBLAS_NUM_THREADS": "2"}, ["-m", "lgcn"]),
            "one-cpu": ({}, ["-c", ONE_CPU])}
    digests = {}
    for way, (env, launch) in ways.items():
        out = tmp_path / way
        for args in (["train", "--config", str(cfg), "--data", str(world), "--out", str(out)],
                     ["eval", "--checkpoint", str(out / "checkpoint-epoch001.ckpt"),
                      "--data", str(world), "--out", str(out / "eval.json"),
                      "--dump-descriptors", str(out / "desc.bin")]):
            proc = subprocess.run([sys.executable, *launch, *args], capture_output=True,
                                  text=True, env={**os.environ, **env})
            assert proc.returncode == 0, proc.stderr
        digests[way] = [sha(out / name) for name in
                        ("checkpoint-epoch001.ckpt", "report.jsonl", "desc.bin")]
    assert digests["blas-2"] == digests["blas-1"]
    assert digests["one-cpu"] == digests["blas-1"]


def test_train_freeze_backbone_checksums(trained):
    summary = json.loads((trained / "summary.json").read_text())
    params, _ = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    from lgcn.checkpoint import group_sha256
    from lgcn.config import ModelConfig
    from lgcn.config import AblationFlags
    init = init_model(ModelConfig(**json.loads((trained / "config.json").read_text())["model"]),
                      AblationFlags(), seed=0)
    assert group_sha256(params, "vit.") == group_sha256(init, "vit.")
    assert group_sha256(params, "fsa.") != group_sha256(init, "fsa.")


def test_eval_report_and_oracle(tmp_path, world, trained):
    report_path = tmp_path / "report.json"
    pq = tmp_path / "per_query.csv"
    code = main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(report_path),
                 "--per-query", str(pq), "--oracle-check",
                 "--dump-descriptors", str(tmp_path / "desc.bin")])
    assert code == 0
    report = json.loads(report_path.read_text())
    recalls = [report["recall"][str(n)] for n in report["n_values"]]
    assert recalls == sorted(recalls)  # monotone in N
    assert pq.read_text().startswith("query_id,rank,db_id,similarity")
    from lgcn.checkpoint import load_descriptors
    vecs = load_descriptors(tmp_path / "desc.bin")
    assert vecs.shape[0] == 24  # 6 places x 4 views
    np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("flag", ["--dump-descriptors", "--per-query"])
def test_eval_failed_side_file_leaves_no_report(tmp_path, world, trained, flag):
    blocked = tmp_path / "a_directory"
    blocked.mkdir()
    report_path = tmp_path / "r.json"
    code = main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(report_path), flag, str(blocked)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]
    assert list(blocked.iterdir()) == []


def test_per_query_csv_reads_back_for_any_id(tmp_path, world, trained):
    data = tmp_path / "odd-ids"
    shutil.copytree(world, data)
    manifest = data / "manifest.csv"
    with manifest.open(newline="") as fh:
        rows = list(csv.reader(fh))
    with manifest.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [rows[0]] + [[row[0] + ',"x', *row[1:]] for row in rows[1:]])
    tables = []
    for name, d in (("plain", world), ("odd", data)):
        out = tmp_path / f"{name}.csv"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                     "--data", str(d), "--out", str(tmp_path / "r.json"),
                     "--per-query", str(out)]) == 0
        with out.open(newline="") as fh:
            tables.append((out.read_text(), list(csv.reader(fh))))
    (plain_text, plain), (_, odd) = tables
    assert plain[0] == odd[0] == ["query_id", "rank", "db_id", "similarity"]
    assert odd[1:] == [[q + ',"x', rank, db + ',"x', sim] for q, rank, db, sim in plain[1:]]
    # ordinary ids keep the bytes of the plain comma-joined rows
    assert plain_text == "query_id,rank,db_id,similarity\n" + "".join(
        f"{q},{rank},{db},{float(sim)!r}\n" for q, rank, db, sim in plain[1:])


def test_eval_ablation_flag_changes_descriptors(tmp_path, world, trained):
    ckpt = str(trained / "checkpoint-epoch001.ckpt")
    plain, nocnn, nofsa = (tmp_path / n for n in ("p.json", "nc.json", "nf.json"))
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(plain)]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(nocnn), "--disable-cnn-stream"]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(nofsa), "--disable-fsa"]) == 0
    digests = {json.loads(p.read_text())["descriptor_sha256"] for p in (plain, nocnn, nofsa)}
    assert len(digests) == 3


def test_heatmap_deterministic_and_flag_sensitive(tmp_path, world, trained):
    # boost the adapters so their effect clearly survives 8-bit quantization
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    gen = np.random.default_rng(0)
    for name in params:
        if name.endswith(".fuse_w"):
            params[name] = params[name] + gen.normal(size=params[name].shape)
    from lgcn.checkpoint import save_checkpoint
    ckpt = tmp_path / "boosted.ckpt"
    save_checkpoint(ckpt, params, header)

    image = str(world / "images" / "p0000_v0.ppm")
    h1, h2, h3 = (tmp_path / n for n in ("h1", "h2", "h3"))
    assert main(["heatmap", "--checkpoint", str(ckpt), "--image", image, "--out", str(h1)]) == 0
    assert main(["heatmap", "--checkpoint", str(ckpt), "--image", image, "--out", str(h2)]) == 0
    assert main(["heatmap", "--checkpoint", str(ckpt), "--image", image, "--out", str(h3),
                 "--disable-fsa"]) == 0
    for name in ("fvit.ppm", "fres.ppm", "omega.ppm", "fused.ppm"):
        assert sha(h1 / name) == sha(h2 / name)
    assert sha(h1 / "fvit.ppm") != sha(h3 / "fvit.ppm")


def test_gradcheck_scoped_run(capsys):
    assert main(["gradcheck", "trainer"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "trainer.triplet_loss" in out


def test_gradcheck_spectral_runs_the_one_branch_check(capsys):
    assert main(["gradcheck", "spectral"]) == 0
    out = capsys.readouterr().out
    assert "spectral.frequency_branch" in out and "1/1 checks passed" in out


def test_gradcheck_inject_bug_fails(capsys):
    assert main(["gradcheck", "cnn", "--inject-bug"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_unknown_scope_is_usage_error():
    assert main(["gradcheck", "nonsense"]) == 1
    assert main(["gradcheck", "end_to_end"]) == 1  # module names are the only scopes


def test_help_for_every_subcommand(capsys):
    for sub in ("gen", "train", "eval", "gradcheck", "heatmap"):
        assert main([sub, "--help"]) == 0
        assert "--help" in capsys.readouterr().out or True


def test_unknown_flag_is_usage_error():
    assert main(["gen", "--bogus", "1", "--places", "2", "--views", "2",
                 "--out", "/tmp/x"]) == 1


def test_unknown_config_key_is_usage_error(tmp_path, world):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"bogus": 3}}))
    assert main(["train", "--config", str(bad), "--data", str(world),
                 "--out", str(tmp_path / "o")]) == 1


def test_corrupt_checkpoint_is_runtime_error(tmp_path, world):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT per")
    assert main(["eval", "--checkpoint", str(bad), "--data", str(world),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_image_size_mismatch_is_usage_error(tmp_path, world, trained):
    big = tmp_path / "big"
    assert main(["gen", "--seed", "1", "--places", "2", "--views", "2",
                 "--out", str(big), "--size", "64"]) == 0
    assert main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(big), "--out", str(tmp_path / "r.json")]) == 1


def test_module_entry_point(world, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "lgcn", "gen", "--seed", "3",
                           "--places", "2", "--views", "2", "--out",
                           str(tmp_path / "w"), "--size", "32"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 4 images" in proc.stdout


def _eval_exit(tmp_path, world, ckpt, capsys):
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(world),
                 "--out", str(tmp_path / "r.json")])
    return code, capsys.readouterr().err


def _with_header(tmp_path, trained, edit):
    from lgcn.checkpoint import save_checkpoint
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    edit(header)
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, params, header)
    return path


@pytest.mark.parametrize("edit", [
    lambda h: h["ablation"].update(bogus=1),
    lambda h: h.pop("ablation"),
    lambda h: h["model"].update(embed_dim="16"),
    lambda h: h["model"].update(patch_size=0),
    lambda h: h.update(bogus=1),
    lambda h: h["model"].update(adapter_ratio=1e308),
], ids=["unknown-key", "missing-key", "mistyped-value", "zero-patch", "unknown-section",
        "huge-adapter-ratio"])
def test_bad_checkpoint_header_is_runtime_error(tmp_path, world, trained, capsys, edit):
    code, err = _eval_exit(tmp_path, world, _with_header(tmp_path, trained, edit), capsys)
    assert code == 2
    assert err.startswith("error: ") and "bad header" in err


@pytest.mark.parametrize("damage", ["truncated", "dtype-7", "json-bang", "json-nested"])
def test_damaged_checkpoint_is_runtime_error(tmp_path, world, trained, capsys, damage):
    data = (trained / "checkpoint-epoch001.ckpt").read_bytes()
    hlen = int.from_bytes(data[12:16], "little")
    if damage == "truncated":
        data = data[:10]
    elif damage == "dtype-7":
        at = 16 + hlen + 8
        at += 4 + int.from_bytes(data[at:at + 4], "little")  # skip the first name
        data = data[:at] + b"\x07" + data[at + 1:]
    elif damage == "json-bang":
        data = data[:16] + b"!" + data[17:]
    else:  # json raises RecursionError, not ValueError, on this header
        nested = b"[" * 100_000
        data = data[:12] + len(nested).to_bytes(4, "little") + nested + data[16 + hlen:]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    code, err = _eval_exit(tmp_path, world, bad, capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert main(["heatmap", "--checkpoint", str(bad), "--out", str(tmp_path / "h"),
                 "--image", str(world / "images" / "p0000_v0.ppm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ckpt"]


@pytest.mark.parametrize("edit", [
    lambda params, header: params.pop("head.attn.wq"),
    lambda params, header: header["model"].update(depth=3),
    lambda params, header: params.update(
        {"head.attn.wq": params["head.attn.wq"][:, :-1].copy()}),
], ids=["missing-tensor", "deeper-header", "wrong-shape"])
def test_tensors_not_matching_header_are_runtime_errors(tmp_path, world, trained, capsys, edit):
    from lgcn.checkpoint import save_checkpoint
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    edit(params, header)
    ckpt = tmp_path / "edited.ckpt"
    save_checkpoint(ckpt, params, header)
    code, err = _eval_exit(tmp_path, world, ckpt, capsys)
    assert code == 2
    assert err.startswith("error: ") and "differ from the header" in err
    assert main(["heatmap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "h"),
                 "--image", str(world / "images" / "p0000_v0.ppm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_huge_header_depth_is_rejected_from_a_short_table(tmp_path, world, trained, capsys,
                                                         monkeypatch):
    """The check lists at most one entry more than the file holds, whatever the depth."""
    import lgcn.cli
    params, _ = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    ckpt = _with_header(tmp_path, trained, lambda h: h["model"].update(depth=10**5))
    spec, listed = lgcn.cli.param_spec, []

    def counted(*args):
        for entry in spec(*args):
            listed.append(entry[0])
            yield entry

    monkeypatch.setattr(lgcn.cli, "param_spec", counted)
    code, err = _eval_exit(tmp_path, world, ckpt, capsys)
    assert code == 2
    assert err.startswith("error: ") and "differ from the header" in err
    assert len(listed) == len(params) + 1
    listed.clear()
    assert main(["heatmap", "--checkpoint", str(ckpt), "--out", str(tmp_path / "h"),
                 "--image", str(world / "images" / "p0000_v0.ppm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "differ from the header" in err
    assert len(listed) == len(params) + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.ckpt"]


def test_non_finite_adapter_gains_are_runtime_error(tmp_path, world, trained, capsys):
    # exp(1000) overflows to +inf; with a non-zero fuse_w that made NaN descriptors
    from lgcn.checkpoint import save_checkpoint
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    params["fsa.block1.gains_log"] = np.full_like(params["fsa.block1.gains_log"], 1000.0)
    params["fsa.block1.fuse_w"] = np.full_like(params["fsa.block1.fuse_w"], 0.1)
    ckpt = tmp_path / "inf-gains.ckpt"
    save_checkpoint(ckpt, params, header)
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        code, err = _eval_exit(tmp_path, world, ckpt, capsys)
    assert code == 2
    assert err.startswith("error: ") and "finite and strictly positive" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["eval", "heatmap"])
def test_non_finite_checkpoint_tensor_is_runtime_error(tmp_path, world, trained, capsys,
                                                       command, bad):
    # unchecked, such a tensor gives eval NaN descriptors and heatmap an IndexError
    from lgcn.checkpoint import save_checkpoint
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    params["cnn.align.w"] = np.full_like(params["cnn.align.w"], bad)
    ckpt = tmp_path / "non-finite.ckpt"
    save_checkpoint(ckpt, params, header)
    out = tmp_path / ("r.json" if command == "eval" else "h.ppm")
    args = (["--data", str(world)] if command == "eval"
            else ["--image", str(world / "images" / "p0000_v0.ppm")])
    assert main([command, "--checkpoint", str(ckpt), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or infinite" in err and "cnn.align.w" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "heatmap"])
def test_overflowing_checkpoint_is_runtime_error(tmp_path, world, capsys, command):
    # finite weights that overflow the forward: eval wrote recalls from NaN
    # descriptors and exited 0, and heatmap's colormap raised an IndexError
    from lgcn.checkpoint import save_checkpoint
    cfg = run_config_from_dict({"model": TINY_MODEL})
    params = init_model(cfg.model, cfg.ablation, seed=0)
    params["vit.block1.ffn.w2"] = params["vit.block1.ffn.w2"] * 1e250
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(ckpt, params, {"model": dataclasses.asdict(cfg.model),
                                   "ablation": dataclasses.asdict(cfg.ablation)})
    out = tmp_path / "out"
    out.mkdir()
    args = (["--data", str(world), "--out", str(out / "r.json"), "--per-query",
             str(out / "q.csv"), "--dump-descriptors", str(out / "d.desc")]
            if command == "eval" else
            ["--image", str(world / "images" / "p0000_v0.ppm"), "--out", str(out / "h")])
    with pytest.warns(RuntimeWarning):  # numpy's overflow and invalid-value warnings
        assert main([command, "--checkpoint", str(ckpt), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN or infinite" in err and "Traceback" not in err
    assert [p for p in out.rglob("*") if p.is_file()] == []


def _mutated(data, mutation):
    """A truncation (cut, None) or a byte flip (position, xor mask) of data."""
    at, mask = mutation
    if mask is None:
        return data[:at]
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_checkpoint_exits_cleanly(tmp_path_factory, world, trained, data):
    # Every mutation of a valid checkpoint loads and runs (0) or is a runtime
    # error (2); nothing escapes main and no output file holds a NaN.
    from lgcn.checkpoint import load_descriptors
    good = (trained / "checkpoint-epoch001.ckpt").read_bytes()
    mutation = data.draw(st.one_of(
        st.tuples(st.integers(0, len(good) - 1), st.none()),
        st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255))))
    root = tmp_path_factory.mktemp("mutated")
    ckpt, out = root / "m.ckpt", root / "out"
    ckpt.write_bytes(_mutated(good, mutation))
    out.mkdir()
    with warnings.catch_warnings():  # a mutated weight may overflow the forward
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(world),
                     "--out", str(out / "r.json"), "--per-query", str(out / "q.csv"),
                     "--dump-descriptors", str(out / "d.desc")]) in (0, 2)
        assert main(["heatmap", "--checkpoint", str(ckpt), "--image",
                     str(world / "images" / "p0000_v0.ppm"), "--out", str(out / "h")]) in (0, 2)
    for path in out.rglob("*"):
        if path.suffix in (".json", ".csv"):
            assert "nan" not in path.read_text().lower(), path.name
        elif path.suffix == ".desc":
            assert np.all(np.isfinite(load_descriptors(path)))


def test_legacy_static_fusion_header_evaluates_unchanged(tmp_path, world, trained):
    legacy = _with_header(tmp_path, trained, lambda h: h["ablation"].update(static_fusion=False))
    reports = []
    for ckpt in (trained / "checkpoint-epoch001.ckpt", legacy):
        out = tmp_path / f"{len(reports)}.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(world),
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["descriptor_sha256"] == reports[1]["descriptor_sha256"]
    assert reports[1]["fusion"] == "dfm"


def test_checkpoint_with_scalars_stored_as_shape_1_evaluates_unchanged(tmp_path, world, trained):
    # the form earlier versions wrote 0-d tensors in
    from lgcn.checkpoint import save_checkpoint
    params, header = load_checkpoint(trained / "checkpoint-epoch001.ckpt")
    scalars = [n for n, v in params.items() if v.ndim == 0]
    assert "dfm.alpha1" in scalars and "fsa.block0.scale" in scalars
    legacy = tmp_path / "legacy.ckpt"
    save_checkpoint(legacy, {n: v.reshape(-1) if v.ndim == 0 else v for n, v in params.items()},
                    header)
    reports = []
    for ckpt in (trained / "checkpoint-epoch001.ckpt", legacy):
        out = tmp_path / f"{len(reports)}.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(world),
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == reports[1]


def test_legacy_static_fusion_config_trains_concat(tmp_path, world):
    cfg = write_config(tmp_path, **{"ablation.static_fusion": True})
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(world), "--out", str(out)]) == 0
    echoed = load_run_config(str(out / "config.json"))
    assert echoed.ablation.disable_dfm
    assert fusion_of(init_model(echoed.model, echoed.ablation, 0)) == "concat"
    assert main(["eval", "--checkpoint", str(out / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["fusion"] == "concat"


def test_static_fusion_flag_is_gone(tmp_path, world):
    assert main(["train", "--data", str(world), "--out", str(tmp_path / "o"),
                 "--static-fusion"]) == 1


def test_malformed_config_is_usage_error(tmp_path, world, capsys):
    bad = tmp_path / "bad.json"
    # 100,000 nested lists make json raise RecursionError, not ValueError
    for text in ('{"model": ', '\xff', '[1, 2]', '3', "[" * 100_000):
        bad.write_bytes(text.encode("latin-1"))
        assert main(["train", "--config", str(bad), "--data", str(world),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [
    ["--k-negatives", "0"], ["--lr", "-1"], ["--batch-size", "0"], ["--epochs", "-1"],
    ["--seed", "-1"],
], ids=["k-negatives-0", "lr-minus-1", "batch-size-0", "epochs-minus-1", "seed-minus-1"])
def test_out_of_range_train_flag_is_usage_error(tmp_path, world, capsys, flags):
    # the same values in the config file are rejected by the config parser
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# beta1, beta2, adam_eps, margin, adapter_ratio and adapter_scale_init are
# retired keys: any value but the one every run held is rejected by name.
@pytest.mark.parametrize("key,value", [
    ("model.embed_dim", 0), ("model.cnn_channels", 0), ("model.depth", 0),
    ("train.beta1", 1.0), ("train.beta1", -0.5), ("train.beta2", 1.0), ("train.beta2", -0.5),
    ("train.adam_eps", 0.0), ("train.adam_eps", -1.0),
    ("train.learning_rate", float("inf")), ("train.learning_rate", float("nan")),
    ("train.margin", float("nan")), ("train.margin", float("inf")),
    *[pytest.param(key, 10**400, id=f"{key}-10**400")
      for key in ("train.learning_rate", "train.margin", "train.adam_eps")],
    ("train.seed", -1), ("model.adapter_ratio", 1e308), ("model.adapter_ratio", -1),
    ("model.adapter_scale_init", float("nan")),
])
def test_out_of_range_config_value_is_usage_error(tmp_path, world, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})  # json writes NaN, Infinity and long ints
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and key.split(".")[1] in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_paper_header_is_rejected_without_building_the_model(tmp_path, world, capsys):
    """The shape check reads the header's parameter table and draws nothing."""
    import tracemalloc

    from lgcn.checkpoint import CheckpointError, save_checkpoint
    from lgcn.cli import _load_model
    ckpt = tmp_path / "paper.ckpt"
    save_checkpoint(ckpt, {"head.attn.wq": np.zeros((4, 4))},
                    {"model": {"preset": "paper"}, "ablation": {}})
    code, err = _eval_exit(tmp_path, world, ckpt, capsys)
    assert code == 2
    assert err.startswith("error: ") and "differ from the header" in err
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="differ from the header"):
            _load_model(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20  # the paper model itself is 113,185,998 float64 values


@pytest.mark.parametrize("command,value", [("train", "1"), ("eval", "2")])
def test_threads_flag_is_gone(tmp_path, world, trained, capsys, command, value):
    argv = {"train": ["train", "--out", str(tmp_path / "o")],
            "eval": ["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                     "--out", str(tmp_path / "r.json")]}[command]
    assert main([*argv, "--data", str(world), "--threads", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r.json").exists()


def test_legacy_threads_key_and_env_are_ignored(tmp_path, world, monkeypatch):
    # config.json files and environments set up for the removed thread pool still run
    cfg = write_config(tmp_path)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "threads": 1}))
    monkeypatch.setenv("LGCN_THREADS", "0")
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o")]) == 0
    assert "threads" not in json.loads((tmp_path / "o" / "config.json").read_text())


@pytest.mark.parametrize("argv", [
    ["train", "--dfm-mode", "paper-text"], ["gradcheck", "--eps", "1e-4"],
    ["gradcheck", "--tol", "1e-4"],
], ids=["train-dfm-mode", "gradcheck-eps", "gradcheck-tol"])
def test_removed_options_are_usage_errors(tmp_path, world, capsys, argv):
    if argv[0] == "train":
        argv = [*argv, "--data", str(world), "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert out == "" and not (tmp_path / "o").exists()


# Each retired key at the one value every run held, which still loads, and at
# another value, which is rejected by name: (section, key, value, loads).
def _retired(section, key, held, other):
    return [pytest.param(section, key, held, True, id=f"{key}-{held}"),
            pytest.param(section, key, other, False, id=f"{key}-{other}")]


RETIRED_MODEL_KEYS = [
    pytest.param("model", "dfm_mode", "paper-text", True, id="paper-text"),
    pytest.param("model", "dfm_mode", "verbatim-eq5", False, id="verbatim-eq5"),
    *_retired("model", "adapter_ratio", 0.5, 0.25),
    *_retired("model", "adapter_scale_init", 0.1, 0.0),
]
RETIRED_KEYS = [*RETIRED_MODEL_KEYS, *_retired("train", "margin", 0.1, 0.2),
                *_retired("train", "beta1", 0.9, 0.5), *_retired("train", "beta2", 0.999, 0.99),
                *_retired("train", "adam_eps", 1e-8, 1e-6)]


@pytest.mark.parametrize("section,key,value,loads", RETIRED_MODEL_KEYS)
def test_legacy_dfm_mode_header(tmp_path, world, trained, capsys, section, key, value, loads):
    # every header written while these were settings holds them
    legacy = _with_header(tmp_path, trained, lambda h: h[section].update({key: value}))
    if not loads:
        code, err = _eval_exit(tmp_path, world, legacy, capsys)
        assert code == 2
        assert err.startswith("error: ") and f"{key}={value!r}" in err
        assert "Traceback" not in err and not (tmp_path / "r.json").exists()
        return
    reports = []
    for ckpt in (trained / "checkpoint-epoch001.ckpt", legacy):
        out = tmp_path / f"{len(reports)}.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(world),
                     "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["descriptor_sha256"] == reports[1]["descriptor_sha256"]


@pytest.mark.parametrize("section,key,value,loads", RETIRED_KEYS)
def test_legacy_dfm_mode_config(tmp_path, world, trained, capsys, monkeypatch, section, key,
                                value, loads):
    # every config.json written while these were settings holds them
    cfg = write_config(tmp_path, **{f"{section}.{key}": value})
    monkeypatch.setenv("LGCN_DFM_MODE", "verbatim-eq5")  # ignored like every LGCN_ name
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--data", str(world), "--out", str(out)])
    if not loads:
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"{key}={value!r}" in err
        assert "Traceback" not in err and not out.exists()
        return
    assert code == 0
    assert key not in json.loads((out / "config.json").read_text())[section]
    ckpt = "checkpoint-epoch001.ckpt"
    assert sha(out / ckpt) == sha(trained / ckpt)


def _break_manifest_coordinate(world):
    manifest = world / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    row[2] = "abc"
    manifest.write_text(lines[0] + ",".join(row) + "".join(lines[2:]))
    return manifest, 1


def _break_ppm_header(world):
    image = world / "images" / "p0001_v1.ppm"
    image.write_bytes(image.read_bytes().replace(b"\n32 32\n", b"\nabc 32\n", 1))
    return image, 2


def _truncate_ppm(world):
    image = world / "images" / "p0001_v1.ppm"
    image.write_bytes(image.read_bytes()[:-10])
    return image, 2


def _empty_manifest(world):
    manifest = world / "manifest.csv"
    manifest.write_text(manifest.read_text().splitlines(keepends=True)[0])
    return manifest, 1


def _mixed_image_sizes(world):
    from lgcn.ppm import write_ppm
    image = world / "images" / "p0001_v1.ppm"
    write_ppm(image, np.zeros((16, 16, 3)))
    return image, 2


def _non_utf8_manifest(world):
    manifest = world / "manifest.csv"
    lines = manifest.read_bytes().splitlines(keepends=True)
    manifest.write_bytes(b"".join(lines[:2]) + lines[2].replace(b".ppm", b"\xff.ppm", 1)
                         + b"".join(lines[3:]))
    return manifest, 1


def _oversized_manifest_field(world):
    # csv refuses a field above 131,072 characters
    manifest = world / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text(lines[0] + lines[1].replace(".ppm", "x" * 200_000 + ".ppm", 1)
                        + "".join(lines[2:]))
    return manifest, 1


@pytest.mark.parametrize("corrupt", [_break_manifest_coordinate, _break_ppm_header,
                                     _truncate_ppm, _empty_manifest, _mixed_image_sizes,
                                     _non_utf8_manifest, _oversized_manifest_field],
                         ids=["non-numeric-coordinate", "ppm-header", "ppm-truncated",
                              "empty-manifest", "mixed-sizes", "manifest-not-utf8",
                              "manifest-field-too-large"])
def test_bad_dataset_file_is_named(tmp_path, world, trained, capsys, corrupt):
    data = tmp_path / "world"
    shutil.copytree(world, data)
    path, code = corrupt(data)
    assert main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(data), "--out", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: " if code == 1 else "error: ")
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_train_flags_over_file(tmp_path):
    from lgcn.cli import _effective_run_config, build_parser
    cfg = write_config(tmp_path, **{"train.seed": 1, "train.epochs": 1, "train.batch_size": 4})
    args = build_parser().parse_args(["train", "--config", str(cfg), "--data", "d", "--out", "o",
                                      "--seed", "4", "--disable-dfm"])
    run = _effective_run_config(args)
    assert (run.train.seed, run.train.epochs, run.train.batch_size) == (4, 1, 4)
    assert run.ablation.disable_dfm and not run.ablation.disable_fsa


@pytest.fixture(scope="module")
def variants(tmp_path_factory, world, trained):
    """One tiny checkpoint per fusion the train flags build."""
    ckpts = {"dfm": trained / "checkpoint-epoch001.ckpt"}
    for name, flag in (("concat", "--disable-dfm"), ("vit-only", "--disable-cnn-stream")):
        out = tmp_path_factory.mktemp(name)
        assert main(["train", "--config", str(write_config(out)), "--data", str(world),
                     "--out", str(out), flag]) == 0
        ckpts[name] = out / "checkpoint-epoch001.ckpt"
    return ckpts


EVAL_FLAG_SETS = [[], ["--disable-fsa"], ["--disable-dfm"], ["--disable-cnn-stream"],
                  ["--disable-dfm", "--disable-fsa"], ["--disable-cnn-stream", "--disable-dfm"]]
# Fusion left by each flag set above; None is the usage error for a head whose
# width does not fit the fusion left: a gated head without its DFM, or a concat
# head without its CNN half.
EVAL_FUSIONS = {
    "dfm": ["dfm", "dfm", None, "vit-only", None, "vit-only"],
    "concat": ["concat", "concat", "concat", None, "concat", None],
    "vit-only": ["vit-only"] * 6,
}


EVAL_CASES = [(variant, flags, fusion) for variant, fusions in EVAL_FUSIONS.items()
              for flags, fusion in zip(EVAL_FLAG_SETS, fusions)]


@pytest.mark.parametrize("variant,flags,fusion", EVAL_CASES, ids=[
    f"{variant}-{'+'.join(f.removeprefix('--disable-') for f in flags) or 'none'}"
    for variant, flags, _ in EVAL_CASES])
def test_eval_ablation_flags_drop_groups(tmp_path, world, variants, capsys,
                                         variant, flags, fusion):
    out = tmp_path / "r.json"
    code = main(["eval", "--checkpoint", str(variants[variant]), "--data", str(world),
                 "--out", str(out), *flags])
    if fusion is None:
        left = "vit-only" if "--disable-cnn-stream" in flags else "concat"
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: the ablation flags leave a {left} fusion")
        assert "Traceback" not in err and not out.exists()
        return
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fusion"] == fusion
    assert report["adapters_enabled"] == ("--disable-fsa" not in flags)


@pytest.mark.parametrize("flags,bound", [
    (["--places", "1"], "places must be >= 2"), (["--views", "0"], "views per place must be >= 1"),
    (["--size", "27"], "image size must be >= 28"), (["--size", "0"], "image size must be >= 28"),
    (["--seed", "-1"], "seed must be >= 0"),
], ids=["places-1", "views-0", "size-27", "size-0", "seed-minus-1"])
def test_gen_out_of_range_flag_is_usage_error(tmp_path, capsys, flags, bound):
    # a repeated flag overrides the valid value before it
    assert main(["gen", "--places", "2", "--views", "1", "--size", "28",
                 "--out", str(tmp_path / "w"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {bound}")
    assert not (tmp_path / "w" / "manifest.csv").exists()


def test_gen_smallest_world_renders(tmp_path):
    assert main(["gen", "--places", "2", "--views", "1", "--size", "28",
                 "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "manifest.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("flags", [
    ["--n", "a,b"], ["--n", "1,x"], ["--n", "1.5"], ["--n", "0"], ["--n", ","],
    ["--threshold", "nan"], ["--threshold", "inf"], ["--threshold", "-5"],
], ids=["n-a-b", "n-1-x", "n-1.5", "n-0", "n-empty", "threshold-nan", "threshold-inf",
        "threshold-minus-5"])
def test_eval_bad_n_or_threshold_is_usage_error(tmp_path, world, trained, capsys, flags):
    out = tmp_path / "r.json"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {'bad --n' if flags[0] == '--n' else '--threshold'}")
    assert not out.exists()
