"""Config parsing and presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcn.config import (AblationFlags, ConfigError, ModelConfig, RunConfig,
                         TrainConfig, run_config_from_dict, run_config_to_dict)
from lgcn.model import fusion_of, init_model, model_backward, model_forward


def test_toy_preset_dimensions():
    cfg = ModelConfig.toy()
    assert (cfg.image_size, cfg.patch_size, cfg.grid) == (64, 8, 8)
    assert (cfg.embed_dim, cfg.num_heads, cfg.depth) == (64, 4, 4)
    assert (cfg.cnn_channels, cfg.cnn_grid, cfg.align_mid) == (96, 4, 6)
    assert cfg.adapter_dim == 32
    assert cfg.head_dim == 16


def test_paper_preset_dimensions():
    cfg = ModelConfig.paper()
    assert cfg.grid == 16
    assert cfg.embed_dim == 768
    assert cfg.cnn_grid == 7
    assert cfg.cnn_channels == 1024
    assert cfg.align_mid == 14
    assert cfg.gate_dim == 192


def test_invalid_dimensions_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(image_size=60, patch_size=8)
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30, num_heads=4)
    with pytest.raises(ConfigError, match="dfm_mode='bogus'"):
        run_config_from_dict({"model": {"dfm_mode": "bogus"}})


def test_odd_token_grid_rejected_by_name():
    # the head pools the token grid into 2x2 regions; a 9x9 grid would pass
    # every other check and fail in the first forward
    with pytest.raises(ConfigError, match="image_size/patch_size = 9 must be even"):
        ModelConfig(image_size=72, cnn_grid=3, align_mid=6)
    with pytest.raises(ConfigError, match="image_size/patch_size = 1 must be even"):
        ModelConfig(image_size=8, patch_size=8, cnn_grid=1, align_mid=1)
    assert ModelConfig.toy().grid == 8 and ModelConfig.paper().grid == 16


def test_image_smaller_than_the_local_stream_is_rejected():
    # image_size/8 = 0 passed the divisibility check and failed in the first forward
    with pytest.raises(ConfigError, match="image_size/8 = 0 not divisible by cnn_grid 1"):
        ModelConfig(image_size=4, patch_size=2, cnn_grid=1, align_mid=1)


@st.composite
def model_fields(draw):
    """Small ModelConfig fields: a consistent draw, then often one field moved by one.

    Most moves break a check, so draws both pass and fail the parser.
    """
    cnn_grid = draw(st.integers(1, 3))
    image_size = 8 * cnn_grid * draw(st.integers(1, 4))
    patch_size = draw(st.sampled_from([p for p in range(1, 17) if image_size % p == 0
                                       and cnn_grid <= image_size // p <= 16
                                       and image_size // p % 2 == 0]))
    num_heads = draw(st.integers(1, 4))
    fields = dict(image_size=image_size, patch_size=patch_size, num_heads=num_heads,
                  embed_dim=num_heads * draw(st.integers(1, 2)), depth=1,
                  cnn_channels=draw(st.integers(1, 4)), cnn_grid=cnn_grid,
                  align_mid=draw(st.integers(cnn_grid, image_size // patch_size)))
    moved = draw(st.sampled_from([None, *fields]))
    if moved:
        fields[moved] += draw(st.sampled_from([-1, 1]))
    return fields


@settings(max_examples=50, deadline=None)
@given(model_fields(), st.integers(0, 2 ** 32 - 1))
def test_every_config_the_parser_accepts_runs(fields, seed):
    """A config raises ConfigError, or every fusion runs a cross-image step with finite values."""
    try:
        cfg = ModelConfig(**fields)
    except ConfigError:
        return
    gen = np.random.default_rng(seed)
    images = gen.random((2, cfg.image_size, cfg.image_size, 3))
    for fusion, flags in (("dfm", AblationFlags()), ("concat", AblationFlags(disable_dfm=True)),
                          ("vit-only", AblationFlags(disable_cnn_stream=True))):
        params = init_model(cfg, flags, seed=0)
        assert fusion_of(params) == fusion
        desc, tape = model_forward(images, params, cfg, cross=True)
        grads = {}
        model_backward(gen.normal(size=desc.shape), tape, params, grads)
        assert np.all(np.isfinite(desc)) and sorted(grads) == sorted(params)
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)


def test_round_trip_through_dict():
    cfg = RunConfig(model=ModelConfig.toy(),
                    train=TrainConfig(epochs=3, seed=9),
                    ablation=AblationFlags(disable_fsa=True))
    again = run_config_from_dict(run_config_to_dict(cfg))
    assert again == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        run_config_from_dict({"model": {}, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown model"):
        run_config_from_dict({"model": {"bogus": 1}})
    with pytest.raises(ConfigError, match="unknown train"):
        run_config_from_dict({"train": {"lr": 0.1}})


def _fusion(ablation):
    return fusion_of(init_model(ModelConfig(), ablation, seed=0))


def test_ablation_fusion_modes():
    assert _fusion(AblationFlags()) == "dfm"
    assert _fusion(AblationFlags(disable_cnn_stream=True)) == "vit-only"
    assert _fusion(AblationFlags(disable_dfm=True)) == "concat"
    legacy = run_config_from_dict({"ablation": {"static_fusion": True}}).ablation
    assert legacy == AblationFlags(disable_dfm=True) and _fusion(legacy) == "concat"


def test_legacy_static_fusion_key():
    # files written while static_fusion was a switch of its own still load
    off = run_config_from_dict({"ablation": {"static_fusion": False, "disable_dfm": False}})
    assert off.ablation == AblationFlags()
    on = run_config_from_dict({"ablation": {"static_fusion": True, "disable_cnn_stream": True}})
    assert _fusion(on.ablation) == "vit-only"
    assert "static_fusion" not in run_config_to_dict(on)["ablation"]
    with pytest.raises(ConfigError, match="static_fusion"):
        run_config_from_dict({"ablation": {"static_fusion": 1}})


def test_legacy_threads_key():
    # config.json files written while inference had a thread pool still load
    cfg = run_config_from_dict({"threads": 1})
    assert cfg == RunConfig()
    assert "threads" not in run_config_to_dict(cfg)


def test_settable_keys():
    # one more key here is one more setting; a value every run holds is a constant
    keys = {section: sorted(values) for section, values in run_config_to_dict(RunConfig()).items()}
    assert keys == {
        "model": ["align_mid", "cnn_channels", "cnn_grid", "depth", "embed_dim", "image_size",
                  "num_heads", "patch_size", "preset"],
        "train": ["batch_size", "epochs", "freeze_backbone", "k_negatives", "learning_rate",
                  "seed"],
        "ablation": ["disable_cnn_stream", "disable_dfm", "disable_fsa"],
    }


def test_legacy_dfm_mode_key():
    # every header and config.json written while the fusion rule was a setting holds one
    cfg = run_config_from_dict({"model": {"preset": "toy", "dfm_mode": "paper-text"}})
    assert cfg == RunConfig()
    assert "dfm_mode" not in run_config_to_dict(cfg)["model"]
    # so do the retired adapter and optimizer keys, at the values every run held
    written = {"model": {"adapter_ratio": 0.5, "adapter_scale_init": 0.1,
                         "dfm_mode": "paper-text"},
               "train": {"adam_eps": 1e-08, "beta1": 0.9, "beta2": 0.999, "margin": 0.1}}
    cfg = run_config_from_dict(written)
    assert cfg == RunConfig()
    for section, keys in written.items():
        for key in keys:
            with pytest.raises(ConfigError, match=f"unsupported {section} config key {key}=0.25"):
                run_config_from_dict({section: {key: 0.25}})
    with pytest.raises(ConfigError, match="dfm_mode='verbatim-eq5'"):
        run_config_from_dict({"model": {"dfm_mode": "verbatim-eq5"}})
    with pytest.raises(ConfigError, match="dfm_mode"):
        run_config_from_dict({"model": {"dfm_mode": None}})


# beta1, beta2, adam_eps, margin, adapter_ratio and adapter_scale_init are
# retired keys: any value but the one every run held is rejected by name.
@pytest.mark.parametrize("data", [
    3, [],
    {"model": 3},
    {"ablation": ["disable_fsa"]},
    {"model": {"embed_dim": "64"}},
    {"model": {"embed_dim": 64.0}},
    {"model": {"dfm_mode": None}},
    {"train": {"epochs": True}},
    {"ablation": {"disable_fsa": 1}},
    {"threads": "2"},
    {"model": {"patch_size": 0}},
    {"model": {"num_heads": 0}},
    {"model": {"cnn_grid": 0}},
    {"model": {"embed_dim": 0}},
    {"model": {"cnn_channels": 0}},
    {"model": {"depth": 0}},
    {"train": {"beta1": 1.0}},
    {"train": {"beta1": -0.1}},
    {"train": {"beta2": 1.0}},
    {"train": {"beta2": -0.1}},
    {"train": {"adam_eps": 0.0}},
    {"train": {"adam_eps": -1.0}},
    {"train": {"adam_eps": float("inf")}},
    {"train": {"learning_rate": float("nan")}},
    {"train": {"learning_rate": float("inf")}},
    {"train": {"margin": float("nan")}},
    {"train": {"margin": float("inf")}},
    {"train": {"learning_rate": 10**400}},
    {"train": {"margin": 10**400}},
    {"train": {"adam_eps": 10**400}},
    {"train": {"seed": -1}},
    {"model": {"adapter_ratio": 1e308}},
    {"model": {"adapter_ratio": -1}},
    {"model": {"adapter_ratio": 0}},
    {"model": {"adapter_scale_init": float("nan")}},
])
def test_bad_values_rejected(data):
    with pytest.raises(ConfigError):
        run_config_from_dict(data)


def test_int_accepted_for_float_field():
    # kept as an int, so config.json and checkpoint headers write it back unchanged
    lr = run_config_from_dict({"train": {"learning_rate": 0}}).train.learning_rate
    assert lr == 0 and type(lr) is int
    with pytest.raises(ConfigError,
                       match="train config value learning_rate is too large for a float"):
        run_config_from_dict({"train": {"learning_rate": 10**400}})
