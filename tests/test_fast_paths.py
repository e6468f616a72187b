"""The training step's fast paths against the code they replaced, bit for bit.

Each reference below is the earlier implementation: conv2d's input
gradient as one stacked matmul per tap on the 4-d dy, sigmoid as two
boolean-masked branches, and regional GeM as one whole gem_pool per
region. The fast paths must give the same bytes, so comparisons are on
`.view(np.uint64)`, which also tells -0.0 from 0.0. conv2d's dx keeps its
bytes on the model's convs; on other shapes it is held to rounding.
"""

import numpy as np
import pytest

from lgcn import head, ops
from lgcn.config import AblationFlags, ModelConfig
from lgcn.model import init_model, model_backward, model_forward


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# the replaced implementations
# ---------------------------------------------------------------------------

def conv2d_bwd_reference(dy, cache):
    """conv2d_bwd with dx as `dy @ w[:, :, i, j]` per tap on the 4-d dy."""
    cols, w, has_b, stride, padding, xshape = cache
    cout, cin, kh, kw = w.shape
    B, H, W, _ = xshape
    oh, ow = dy.shape[1], dy.shape[2]
    dy_flat = dy.reshape(-1, cout)
    dwmat = cols.reshape(-1, kh * kw * cin).T @ dy_flat
    dw = dwmat.reshape(kh, kw, cin, cout).transpose(3, 2, 0, 1)
    db = dy.sum(axis=(0, 1, 2)) if has_b else None
    dxp = np.zeros((B, H + 2 * padding, W + 2 * padding, cin), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride, :] += dy @ w[:, :, i, j]
    return dxp[:, padding:padding + H, padding:padding + W, :], dw, db


def sigmoid_reference(x):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def gem_pool_fwd_reference(x, p):
    u = np.logaddexp(0.0, x)
    m = (u ** p).mean(axis=(1, 2))
    return m ** (1.0 / p), (u, m, p, x, x.shape[1] * x.shape[2])


def gem_pool_bwd_reference(dy, cache):
    u, m, p, x, n_pix = cache
    dm = dy * (1.0 / p) * m ** (1.0 / p - 1.0)
    dm = dm[:, None, None, :]
    du = (p * u ** (p - 1.0)) * (dm / n_pix)
    return du * sigmoid_reference(x)


def regional_pool_fwd_reference(fmap):
    """One gem_pool per region on its slice of the map."""
    outs, caches = [], []
    for rows, cols in head._region_slices(fmap.shape[1]):
        y, cache = gem_pool_fwd_reference(fmap[:, rows, cols, :], head.GEM_P)
        outs.append(y)
        caches.append(cache)
    return np.stack(outs, axis=1), (caches, fmap.shape)


def regional_pool_bwd_reference(dy, cache):
    caches, shape = cache
    dmap = np.zeros(shape)
    for r, (rows, cols) in enumerate(head._region_slices(shape[1])):
        dmap[:, rows, cols, :] += gem_pool_bwd_reference(dy[:, r, :], caches[r])
    return dmap


# ---------------------------------------------------------------------------
# conv2d_bwd: per-tap 2-D GEMMs
# ---------------------------------------------------------------------------

# (cin, cout, input side, (stride, padding) or None for every pair) of each conv
# in the toy preset and in the tests' tiny config (image 32, cnn_channels 8).
# Training computes dx for stages 2 and 3 and for align; stage 1's dx is the
# image gradient, which only a direct cnn_backward (gradcheck) computes.
MODEL_CONVS = {
    "toy-stage1": (3, 24, 64, (2, 1)), "toy-stage2": (24, 48, 32, None),
    "toy-stage3": (48, 96, 16, None), "toy-align": (96, 64, 6, (1, 1)),
    "tiny-stage1": (3, 2, 32, (2, 1)), "tiny-stage2": (2, 4, 16, None),
    "tiny-stage3": (4, 8, 8, None), "tiny-align": (8, 16, 3, (1, 1)),
}
CONV_CASES = [pytest.param(cin, cout, side, stride, padding, id=f"{name}-s{stride}-p{padding}")
              for name, (cin, cout, side, own) in MODEL_CONVS.items()
              for stride, padding in ([own] if own else [(1, 0), (1, 1), (2, 0), (2, 1)])]


def _conv_case(rng, batch, cin, cout, side, stride, padding):
    x = rng.normal(size=(batch, side, side, cin))
    w = rng.normal(size=(cout, cin, 3, 3))
    y, cache = ops.conv2d_fwd(x, w, rng.normal(size=cout), stride=stride, padding=padding)
    return rng.normal(size=y.shape), cache


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("cin,cout,side,stride,padding", CONV_CASES)
def test_conv2d_bwd_matches_per_tap_stacked_matmul(rng, batch, cin, cout, side, stride, padding):
    dy, cache = _conv_case(rng, batch, cin, cout, side, stride, padding)
    for got, want in zip(ops.conv2d_bwd(dy, cache), conv2d_bwd_reference(dy, cache)):
        assert same_bytes(got, want)


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("order", ["resize-gradient", "fortran"])
def test_conv2d_bwd_matches_reference_on_strided_dy(rng, batch, order):
    """align_backward hands conv2d_bwd the gradient bilinear_resize_bwd returns, a view."""
    dy, cache = _conv_case(rng, batch, 96, 64, 6, 1, 1)
    _, c_up = ops.bilinear_resize_fwd(dy, 8, 8)
    dy = ops.bilinear_resize_bwd(rng.normal(size=(batch, 8, 8, 64)), c_up)
    assert dy.base is not None
    if order == "fortran":
        dy = np.asfortranarray(dy)
        assert not dy.flags.c_contiguous
    for got, want in zip(ops.conv2d_bwd(dy, cache), conv2d_bwd_reference(dy, cache)):
        assert same_bytes(got, want)


@pytest.mark.parametrize("cin,cout,side,stride,padding", [
    (3, 24, 64, 1, 0), (3, 24, 17, 1, 1), (3, 256, 20, 2, 1), (8, 16, 3, 1, 0), (9, 48, 9, 2, 1),
], ids=["stage1-s1-p0", "stage1-odd-side", "wide-stage1", "one-column", "odd-channels"])
def test_conv2d_bwd_dx_within_rounding_on_other_shapes(rng, cin, cout, side, stride, padding):
    """Off the model's shapes dx may differ from the stacked matmul in the last bits.

    OpenBLAS blocks the rows of a GEMM, and the stacked matmul ran one GEMM of
    ow rows per output row where the fast path runs one of B * oh * ow, so the
    rows that fall in a block's tail are summed differently. dw and db keep
    their bytes on every shape.
    """
    dy, cache = _conv_case(rng, 8, cin, cout, side, stride, padding)
    dx, dw, db = ops.conv2d_bwd(dy, cache)
    ref_dx, ref_dw, ref_db = conv2d_bwd_reference(dy, cache)
    assert same_bytes(dw, ref_dw) and same_bytes(db, ref_db)
    np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-14 * np.abs(ref_dx).max())


# ---------------------------------------------------------------------------
# sigmoid_fwd: one exp(-|x|), no boolean gathers
# ---------------------------------------------------------------------------

def test_sigmoid_matches_two_branch_reference(rng):
    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny,
                      -tiny, 36.0, -36.0, 37.5, -37.5, 709.0, -709.0, 746.0, -746.0, 1e308,
                      -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max])
    x = np.concatenate([edges] + [rng.normal(size=2000) * s for s in (1e-9, 1.0, 8.0, 60.0)])
    assert same_bytes(ops.sigmoid_fwd(x)[0], sigmoid_reference(x))
    fmap = rng.normal(size=(48, 8, 8, 64)) * 4
    assert same_bytes(ops.sigmoid_fwd(fmap)[0], sigmoid_reference(fmap))


def test_sigmoid_keeps_nan():
    x = np.array([np.nan, -np.nan, 1.0, -1.0])
    y, _ = ops.sigmoid_fwd(x)
    assert np.isnan(y[:2]).all()
    assert same_bytes(y[2:], sigmoid_reference(x[2:]))


# ---------------------------------------------------------------------------
# regional GeM: softplus and powers once per map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batch", [1, 48])
def test_regional_gem_matches_one_pool_per_region(rng, batch):
    fmap = rng.normal(size=(batch, 8, 8, 64)) * 2
    y, cache = head.regional_pool_fwd(fmap)
    want, ref_cache = regional_pool_fwd_reference(fmap)
    assert same_bytes(y, want)
    dy = rng.normal(size=y.shape)
    assert same_bytes(ops.gem_pool_bwd(dy, cache), regional_pool_bwd_reference(dy, ref_cache))


def test_whole_map_gem_matches_reference(rng):
    x = rng.normal(size=(3, 5, 7, 4))
    y, cache = ops.gem_pool_fwd(x, ((slice(None), slice(None)),), p=3.0)
    want, ref_cache = gem_pool_fwd_reference(x, 3.0)
    assert same_bytes(y[:, 0], want)
    dy = rng.normal(size=y.shape)
    assert same_bytes(ops.gem_pool_bwd(dy, cache), gem_pool_bwd_reference(dy[:, 0], ref_cache))


# ---------------------------------------------------------------------------
# the whole model
# ---------------------------------------------------------------------------

def _replaced(monkeypatch):
    """Route the model through the replaced implementations."""
    monkeypatch.setattr(ops, "conv2d_bwd", lambda dy, cache, inputs=True: (
        conv2d_bwd_reference(dy, cache) if inputs
        else (None, *conv2d_bwd_reference(dy, cache)[1:])))
    monkeypatch.setattr(ops, "sigmoid_fwd", lambda x: (sigmoid_reference(x),) * 2)
    monkeypatch.setattr(head, "regional_pool_fwd", regional_pool_fwd_reference)
    monkeypatch.setattr(ops, "gem_pool_bwd", regional_pool_bwd_reference)


@pytest.mark.parametrize("fusion", ["dfm", "concat", "vit-only"])
def test_model_matches_replaced_implementations(rng, monkeypatch, fusion):
    """Descriptors with and without cross attention, and every gradient, are the old bytes."""
    cfg = ModelConfig.toy()
    flags = {"dfm": AblationFlags(), "concat": AblationFlags(disable_dfm=True),
             "vit-only": AblationFlags(disable_cnn_stream=True)}[fusion]
    params = init_model(cfg, flags, seed=5)
    for name in params:  # zero-initialised projections would hide the gate and the head
        if name.endswith((".fuse_w", "head.attn.wo")):
            params[name] = rng.normal(size=params[name].shape) * 0.1
    images = rng.random((9, cfg.image_size, cfg.image_size, 3))  # two sub-batches
    ddesc = rng.normal(size=(9, model_forward(images[:1], params, cfg)[0].shape[1]))

    def run():
        plain, _ = model_forward(images, params, cfg, cross=False, trainable=set())
        crossed, tape = model_forward(images, params, cfg, cross=True)
        grads: dict = {}
        model_backward(ddesc, tape, params, grads)
        return plain, crossed, grads

    fast = run()
    with monkeypatch.context() as m:
        _replaced(m)
        old = run()
    assert same_bytes(fast[0], old[0]) and same_bytes(fast[1], old[1])
    assert set(fast[2]) == set(old[2]) == set(params)
    for name in params:
        assert same_bytes(fast[2][name], old[2][name]), name
