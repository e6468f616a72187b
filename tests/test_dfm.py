"""Gated fusion tests: gate algebra and the fusion rule.

`dfm_forward_reference` and `dfm_backward_reference` are the earlier
two-mode fusion, kept as the reference for the one rule that remains: in
its "paper-text" mode they must give the same bytes, compared on
`.view(np.uint64)`.
"""

import numpy as np
import pytest

from lgcn import dfm
from lgcn.checksuite import micro_cfg
from lgcn.config import ModelConfig
from lgcn.ops import ShapeError
from lgcn.params import acc_grad, draw


def dfm_forward_reference(fvit, fres, params, mode="paper-text"):
    f = fvit + fres
    omega, c_gate = dfm.gate_weights_fwd(f, params)
    a1 = params["dfm.alpha1"]
    a2 = params["dfm.alpha2"]
    second = fvit if mode == "verbatim-eq5" else fres
    out = a1 * (omega * fvit) + a2 * ((1.0 - omega) * second)
    return out, (fvit, fres, omega, c_gate, a1, a2, mode)


def dfm_backward_reference(dout, cache, params, grads):
    fvit, fres, omega, c_gate, a1, a2, mode = cache
    second = fvit if mode == "verbatim-eq5" else fres
    acc_grad(grads, "dfm.alpha1", np.array((dout * omega * fvit).sum()))
    acc_grad(grads, "dfm.alpha2", np.array((dout * (1.0 - omega) * second).sum()))
    dfvit = dout * a1 * omega
    dsecond = dout * a2 * (1.0 - omega)
    domega = dout * a1 * fvit - dout * a2 * second
    if mode == "verbatim-eq5":
        dfvit = dfvit + dsecond
        dfres = np.zeros_like(fres)
    else:
        dfres = dsecond
    df = dfm.gate_weights_bwd(domega, c_gate, grads)
    return dfvit + df, dfres + df


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    out, _ = dfm.dfm_forward(fvit, fres, params)
    np.testing.assert_allclose(out, 0.5 * (fvit + fres), atol=1e-12)


def test_degenerate_cnn_stream(rng):
    params = make_params()
    fvit = rng.normal(size=(1, 8, 8, 64))
    zero = np.zeros_like(fvit)
    out, _ = dfm.dfm_forward(fvit, zero, params)
    omega, _ = dfm.gate_weights_fwd(fvit, params)
    np.testing.assert_allclose(out, omega * fvit, atol=1e-12)


def test_gate_complementarity(rng):
    params = make_params()
    omega, _ = dfm.gate_weights_fwd(rng.normal(size=(1, 8, 8, 64)), params)
    assert np.abs(omega + (1.0 - omega) - 1.0).max() <= 1e-15


def test_paper_text_mode_sensitive_to_cnn_stream(rng):
    params = make_params()
    fvit = rng.normal(size=(1, 8, 8, 64))
    fres = rng.normal(size=(1, 8, 8, 64))
    out1, _ = dfm.dfm_forward(fvit, fres, params)
    out2, _ = dfm.dfm_forward(fvit, fres + 0.1, params)
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


def test_paper_preset_gate_dims():
    cfg = ModelConfig.paper()
    params = draw(dfm.dfm_spec(cfg), np.random.default_rng(0))
    assert params["dfm.w1"].shape == (768, 192)
    assert params["dfm.w2"].shape == (192, 768)


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("cfg", [ModelConfig.toy(), micro_cfg(), ModelConfig.paper()],
                         ids=["toy", "micro", "paper"])
def test_fusion_matches_two_mode_reference(batch, cfg):
    gen = np.random.default_rng([batch, cfg.embed_dim])
    params = draw(dfm.dfm_spec(cfg), gen)
    params["dfm.alpha1"] = np.array(1.3)
    params["dfm.alpha2"] = np.array(0.6)
    shape = (batch, cfg.grid, cfg.grid, cfg.embed_dim)
    fvit, fres, dout = (gen.normal(size=shape) for _ in range(3))
    out, cache = dfm.dfm_forward(fvit, fres, params)
    ref, ref_cache = dfm_forward_reference(fvit, fres, params)
    assert same_bytes(out, ref)
    grads, ref_grads = {}, {}
    dfvit, dfres = dfm.dfm_backward(dout, cache, params, grads)
    ref_dfvit, ref_dfres = dfm_backward_reference(dout, ref_cache, params, ref_grads)
    assert same_bytes(dfvit, ref_dfvit) and same_bytes(dfres, ref_dfres)
    assert sorted(grads) == sorted(ref_grads) == sorted(params)
    for name in params:
        assert same_bytes(grads[name], ref_grads[name]), name
