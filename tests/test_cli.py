"""End-to-end CLI tests: subcommands, exit codes, determinism."""

import hashlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lgcn.checkpoint import load_checkpoint
from lgcn.cli import main
from lgcn.config import load_run_config, run_config_to_dict
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


def test_env_seed_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("LGCN_SEED", "31")
    assert main(["gen", "--places", "3", "--views", "2", "--out", str(a),
                 "--size", "32"]) == 0
    monkeypatch.setenv("LGCN_SEED", "32")
    assert main(["gen", "--places", "3", "--views", "2", "--out", str(b),
                 "--size", "32"]) == 0
    assert sha(a / "manifest.csv") != sha(b / "manifest.csv")


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


def test_eval_ablation_flag_changes_descriptors(tmp_path, world, trained):
    ckpt = str(trained / "checkpoint-epoch001.ckpt")
    plain, nodfm, nofsa = (tmp_path / n for n in ("p.json", "nd.json", "nf.json"))
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(plain)]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(nodfm), "--disable-dfm"]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--data", str(world),
                 "--out", str(nofsa), "--disable-fsa"]) == 0
    digests = {json.loads(p.read_text())["descriptor_sha256"] for p in (plain, nodfm, nofsa)}
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
], ids=["unknown-key", "missing-key", "mistyped-value", "zero-patch", "unknown-section"])
def test_bad_checkpoint_header_is_runtime_error(tmp_path, world, trained, capsys, edit):
    code, err = _eval_exit(tmp_path, world, _with_header(tmp_path, trained, edit), capsys)
    assert code == 2
    assert err.startswith("error: ") and "bad header" in err


@pytest.mark.parametrize("damage", ["truncated", "dtype-7", "json-bang"])
def test_damaged_checkpoint_is_runtime_error(tmp_path, world, trained, capsys, damage):
    data = (trained / "checkpoint-epoch001.ckpt").read_bytes()
    hlen = int.from_bytes(data[12:16], "little")
    if damage == "truncated":
        data = data[:10]
    elif damage == "dtype-7":
        at = 16 + hlen + 8
        at += 4 + int.from_bytes(data[at:at + 4], "little")  # skip the first name
        data = data[:at] + b"\x07" + data[at + 1:]
    else:
        data = data[:16] + b"!" + data[17:]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    code, err = _eval_exit(tmp_path, world, bad, capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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
    for text in ('{"model": ', '\xff', '[1, 2]', '3'):
        bad.write_bytes(text.encode("latin-1"))
        assert main(["train", "--config", str(bad), "--data", str(world),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("flags", [
    ["--k-negatives", "0"], ["--lr", "-1"], ["--batch-size", "0"], ["--epochs", "-1"],
], ids=["k-negatives-0", "lr-minus-1", "batch-size-0", "epochs-minus-1"])
def test_out_of_range_train_flag_is_usage_error(tmp_path, world, capsys, flags):
    # the same values in the config file are rejected by the config parser
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("model.embed_dim", 0), ("model.cnn_channels", 0), ("model.depth", 0),
    ("train.beta1", 1.0), ("train.beta1", -0.5), ("train.beta2", 1.0), ("train.beta2", -0.5),
    ("train.adam_eps", 0.0), ("train.adam_eps", -1.0),
    ("train.learning_rate", float("inf")), ("train.learning_rate", float("nan")),
    ("train.margin", float("nan")), ("train.margin", float("inf")),
])
def test_out_of_range_config_value_is_usage_error(tmp_path, world, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})  # json writes NaN and Infinity
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not (tmp_path / "o" / "checkpoint-epoch001.ckpt").exists()


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_env_learning_rate_is_usage_error(tmp_path, world, capsys, monkeypatch, value):
    monkeypatch.setenv("LGCN_LEARNING_RATE", value)
    assert main(["train", "--config", str(write_config(tmp_path)), "--data", str(world),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error: learning_rate")


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


@pytest.mark.parametrize("corrupt", [_break_manifest_coordinate, _break_ppm_header,
                                     _truncate_ppm, _empty_manifest, _mixed_image_sizes],
                         ids=["non-numeric-coordinate", "ppm-header", "ppm-truncated",
                              "empty-manifest", "mixed-sizes"])
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


@pytest.mark.parametrize("command", ["gen", "eval"])
def test_malformed_unrelated_env_value_is_usage_error(tmp_path, world, trained, capsys,
                                                      monkeypatch, command):
    monkeypatch.setenv("LGCN_EPOCHS", "many")
    argv = {"gen": ["gen", "--places", "2", "--views", "1", "--out", str(tmp_path / "w")],
            "eval": ["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                     "--data", str(world), "--out", str(tmp_path / "r.json")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == "usage error: bad value for LGCN_EPOCHS: 'many'\n"
    assert not (tmp_path / "w").exists() and not (tmp_path / "r.json").exists()


def test_train_flags_over_env_over_file(tmp_path, monkeypatch):
    from lgcn.cli import _effective_run_config, build_parser
    cfg = write_config(tmp_path, **{"train.seed": 1, "train.epochs": 1, "train.batch_size": 4})
    monkeypatch.setenv("LGCN_SEED", "2")
    monkeypatch.setenv("LGCN_EPOCHS", "3")
    args = build_parser().parse_args(["train", "--config", str(cfg), "--data", "d", "--out", "o",
                                      "--seed", "4", "--disable-dfm"])
    run = _effective_run_config(args)
    assert (run.train.seed, run.train.epochs, run.train.batch_size) == (4, 3, 4)
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
# Fusion left by each flag set above; None is the usage error for a concat head
# whose CNN half would be missing.
EVAL_FUSIONS = {
    "dfm": ["dfm", "dfm", "sum", "vit-only", "sum", "vit-only"],
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
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: cannot disable the CNN stream")
        return
    assert code == 0
    report = json.loads(out.read_text())
    assert report["fusion"] == fusion
    assert report["adapters_enabled"] == ("--disable-fsa" not in flags)


@pytest.mark.parametrize("flags,bound", [
    (["--places", "1"], "places must be >= 2"), (["--views", "0"], "views per place must be >= 1"),
    (["--size", "27"], "image size must be >= 28"), (["--size", "0"], "image size must be >= 28"),
], ids=["places-1", "views-0", "size-27", "size-0"])
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
