"""Gated fusion tests: gate algebra, both recombination modes."""

import numpy as np
import pytest

from lgcn import dfm
from lgcn.config import ModelConfig
from lgcn.ops import ShapeError
from lgcn.params import draw


def toy_cfg():
    return ModelConfig.toy()


def make_params(seed=0):
    return draw(dfm.dfm_spec(toy_cfg()), np.random.default_rng(seed))


def test_gate_of_zero_input_is_half():
    params = make_params()
    f = np.zeros((1, 8, 8, 64))
    omega, _ = dfm.gate_weights_fwd(f, params)
    np.testing.assert_allclose(omega, 0.5, atol=1e-12)


def test_gate_values_in_open_interval(rng):
    params = make_params()
    omega, _ = dfm.gate_weights_fwd(rng.normal(size=(2, 8, 8, 64)) * 10, params)
    assert (omega > 0).all() and (omega < 1).all()


def test_gate_matches_per_position_matrix_oracle(rng):
    """2x2x8 case against an independent per-pixel two-matrix composition."""
    cfg = ModelConfig(preset="toy", image_size=16, patch_size=8, embed_dim=8,
                      num_heads=2, depth=1, cnn_channels=4, cnn_grid=2, align_mid=2)
    params = draw(dfm.dfm_spec(cfg), np.random.default_rng(3))
    f = rng.normal(size=(1, 2, 2, 8))
    omega, _ = dfm.gate_weights_fwd(f, params)
    for i in range(2):
        for j in range(2):
            h1 = params["dfm.w1"].T @ f[0, i, j] + params["dfm.b1"]
            h2 = params["dfm.w2"].T @ np.maximum(h1, 0) + params["dfm.b2"]
            ref = 1 / (1 + np.exp(-h2))
            np.testing.assert_allclose(omega[0, i, j], ref, atol=1e-12)


def test_balanced_gate_averages_streams(rng):
    params = make_params()
    params["dfm.w1"] = np.zeros_like(params["dfm.w1"])
    params["dfm.w2"] = np.zeros_like(params["dfm.w2"])
    fvit = rng.normal(size=(1, 8, 8, 64))
    fres = rng.normal(size=(1, 8, 8, 64))
    out, _ = dfm.dfm_forward(fvit, fres, params, mode="paper-text")
    np.testing.assert_allclose(out, 0.5 * (fvit + fres), atol=1e-12)


def test_degenerate_cnn_stream(rng):
    params = make_params()
    fvit = rng.normal(size=(1, 8, 8, 64))
    zero = np.zeros_like(fvit)
    out, _ = dfm.dfm_forward(fvit, zero, params, mode="paper-text")
    omega, _ = dfm.gate_weights_fwd(fvit, params)
    np.testing.assert_allclose(out, omega * fvit, atol=1e-12)


def test_verbatim_mode_identity(rng):
    """With equal unit balance weights the verbatim equation returns the
    transformer stream untouched: both masks hit the same tensor."""
    params = make_params()
    fvit = rng.normal(size=(2, 8, 8, 64))
    fres = rng.normal(size=(2, 8, 8, 64))
    out, _ = dfm.dfm_forward(fvit, fres, params, mode="verbatim-eq5")
    assert np.abs(out - fvit).max() < 1e-12


def test_verbatim_identity_for_any_alpha(rng):
    params = make_params()
    params["dfm.alpha1"] = np.array(0.7)
    params["dfm.alpha2"] = np.array(0.7)
    fvit = rng.normal(size=(1, 8, 8, 64))
    fres = rng.normal(size=(1, 8, 8, 64))
    out, _ = dfm.dfm_forward(fvit, fres, params, mode="verbatim-eq5")
    assert np.abs(out - 0.7 * fvit).max() < 1e-12


def test_gate_complementarity(rng):
    params = make_params()
    omega, _ = dfm.gate_weights_fwd(rng.normal(size=(1, 8, 8, 64)), params)
    assert np.abs(omega + (1.0 - omega) - 1.0).max() <= 1e-15


def test_paper_text_mode_sensitive_to_cnn_stream(rng):
    params = make_params()
    fvit = rng.normal(size=(1, 8, 8, 64))
    fres = rng.normal(size=(1, 8, 8, 64))
    out1, _ = dfm.dfm_forward(fvit, fres, params, mode="paper-text")
    out2, _ = dfm.dfm_forward(fvit, fres + 0.1, params, mode="paper-text")
    assert np.abs(out1 - out2).max() > 1e-6


def test_monotone_gate_response(rng):
    """Raising the pre-sigmoid logits raises every gate weight."""
    params = make_params()
    f = rng.normal(size=(1, 8, 8, 64))
    omega1, _ = dfm.gate_weights_fwd(f, params)
    params2 = dict(params)
    params2["dfm.b2"] = params["dfm.b2"] + 0.5
    omega2, _ = dfm.gate_weights_fwd(f, params2)
    assert (omega2 > omega1).all()


def test_shape_mismatch_rejected(rng):
    params = make_params()
    with pytest.raises(ShapeError):
        dfm.dfm_forward(rng.normal(size=(1, 8, 8, 64)),
                        rng.normal(size=(1, 4, 4, 64)), params)


def test_unknown_mode_rejected(rng):
    params = make_params()
    f = rng.normal(size=(1, 8, 8, 64))
    with pytest.raises(ValueError):
        dfm.dfm_forward(f, f, params, mode="nonsense")


def test_paper_preset_gate_dims():
    cfg = ModelConfig.paper()
    params = draw(dfm.dfm_spec(cfg), np.random.default_rng(0))
    assert params["dfm.w1"].shape == (768, 192)
    assert params["dfm.w2"].shape == (192, 768)
