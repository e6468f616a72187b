"""End-to-end CLI tests: subcommands, exit codes, determinism."""

import hashlib
import json
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
    ["--threads", "0"],
], ids=["k-negatives-0", "lr-minus-1", "batch-size-0", "epochs-minus-1", "threads-0"])
def test_out_of_range_train_flag_is_usage_error(tmp_path, world, capsys, flags):
    # the same values in the config file are rejected by the config parser
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--data", str(world),
                 "--out", str(tmp_path / "o"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags,env", [(["--threads", "0"], None), ([], "0"), ([], "-2")],
                         ids=["flag-0", "env-0", "env-minus-2"])
def test_eval_threads_below_one_is_usage_error(tmp_path, world, trained, capsys, monkeypatch,
                                               flags, env):
    if env is not None:
        monkeypatch.setenv("LGCN_THREADS", env)
    assert main(["eval", "--checkpoint", str(trained / "checkpoint-epoch001.ckpt"),
                 "--data", str(world), "--out", str(tmp_path / "r.json"), *flags]) == 1
    assert capsys.readouterr().err == "usage error: threads must be >= 1\n"


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
