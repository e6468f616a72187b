"""Operator tests against naive reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgcn import ops, spectral, vit
from lgcn.config import ModelConfig


# ---------------------------------------------------------------------------
# naive references (written first; loops only, no shared code with lgcn.ops)
# ---------------------------------------------------------------------------

def conv2d_ref(x, w, b, stride, padding):
    """Six nested loops over batch, output pixels, kernel taps, channels."""
    B, H, W, cin = x.shape
    cout, _, kh, kw = w.shape
    oh = (H + 2 * padding - kh) // stride + 1
    ow = (W + 2 * padding - kw) // stride + 1
    xp = np.zeros((B, H + 2 * padding, W + 2 * padding, cin))
    xp[:, padding:padding + H, padding:padding + W, :] = x
    y = np.zeros((B, oh, ow, cout))
    for bi in range(B):
        for oy in range(oh):
            for ox in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            for ci in range(cin):
                                acc += xp[bi, oy * stride + i, ox * stride + j, ci] * w[co, ci, i, j]
                    y[bi, oy, ox, co] = acc + (b[co] if b is not None else 0.0)
    return y


def bilinear_ref(x, out_h, out_w):
    """Per-pixel half-pixel-center formula, scalar arithmetic only."""
    H, W, C = x.shape
    y = np.zeros((out_h, out_w, C))
    for i in range(out_h):
        si = min(max((i + 0.5) * H / out_h - 0.5, 0.0), H - 1.0)
        i0, fi = int(np.floor(si)), si - int(np.floor(si))
        i1 = min(i0 + 1, H - 1)
        for j in range(out_w):
            sj = min(max((j + 0.5) * W / out_w - 0.5, 0.0), W - 1.0)
            j0, fj = int(np.floor(sj)), sj - int(np.floor(sj))
            j1 = min(j0 + 1, W - 1)
            y[i, j] = (x[i0, j0] * (1 - fi) * (1 - fj) + x[i0, j1] * (1 - fi) * fj
                       + x[i1, j0] * fi * (1 - fj) + x[i1, j1] * fi * fj)
    return y


def softmax_ref(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.array([np.exp(v - max(x[i])) for v in x[i]])
        out[i] = e / e.sum()
    return out


def layernorm_ref(x, gamma, beta, eps=1e-5):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = gamma * (x[i] - mu) / np.sqrt(var + eps) + beta
    return out


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv2d_scalar_multiply():
    x = np.array([[[2.0]]])
    w = np.array([[[[3.0]]]])
    (y,), _ = ops.conv2d_fwd(x[None], w, None, stride=1, padding=0)
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == 6.0


def test_conv2d_overlap_counting():
    x = np.ones((3, 3, 1))
    w = np.ones((1, 1, 3, 3))
    (y,), _ = ops.conv2d_fwd(x[None], w, None, stride=1, padding=1)
    assert y[1, 1, 0] == 9.0
    assert y[0, 0, 0] == 4.0
    assert y[0, 1, 0] == 6.0


def test_conv2d_matches_nested_loop_oracle(rng):
    x = rng.normal(size=(1, 5, 5, 2))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    y, _ = ops.conv2d_fwd(x, w, b, stride=1, padding=0)
    ref = conv2d_ref(x, w, b, 1, 0)
    assert np.abs(y[None] - ref).max() < 1e-12


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 0), (3, 2)])
def test_conv2d_stride_padding_vs_oracle(rng, stride, padding):
    x = rng.normal(size=(2, 7, 6, 3))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    y, _ = ops.conv2d_fwd(x, w, b, stride=stride, padding=padding)
    assert np.abs(y - conv2d_ref(x, w, b, stride, padding)).max() < 1e-12


def test_conv2d_channel_mismatch_names_axis(rng):
    x = rng.normal(size=(4, 4, 2))
    w = rng.normal(size=(3, 3, 3, 3))
    with pytest.raises(ops.ShapeError, match="channel"):
        ops.conv2d_fwd(x[None], w, None)


def test_conv2d_kernel_larger_than_padded_input():
    x = np.ones((2, 2, 1))
    w = np.ones((1, 1, 5, 5))
    with pytest.raises(ops.ShapeError, match="height"):
        ops.conv2d_fwd(x[None], w, None, stride=1, padding=1)


def test_conv2d_linear_in_input_and_kernel(rng):
    x1, x2 = rng.normal(size=(2, 4, 4, 2)), rng.normal(size=(2, 4, 4, 2))
    w = rng.normal(size=(3, 2, 3, 3))
    ya, _ = ops.conv2d_fwd(x1 + x2, w, None, stride=1, padding=1)
    y1, _ = ops.conv2d_fwd(x1, w, None, stride=1, padding=1)
    y2, _ = ops.conv2d_fwd(x2, w, None, stride=1, padding=1)
    np.testing.assert_allclose(ya, y1 + y2, atol=1e-12)


# ---------------------------------------------------------------------------
# depthwise conv
# ---------------------------------------------------------------------------

def test_depthwise_identity_kernel(rng):
    x = rng.normal(size=(4, 4, 3))
    k = np.zeros((3, 3, 3))
    k[:, 1, 1] = 1.0
    (y,), _ = ops.depthwise_conv2d_fwd(x[None], k, padding=1)
    np.testing.assert_array_equal(y, x)


def test_depthwise_reduces_to_per_channel_conv2d(rng):
    x = rng.normal(size=(4, 4, 2))
    k = rng.normal(size=(2, 3, 3))
    (y,), _ = ops.depthwise_conv2d_fwd(x[None], k, padding=1)
    for c in range(2):
        ref = conv2d_ref(x[None, :, :, c:c + 1], k[c][None, None], None, 1, 1)
        assert np.abs(y[:, :, c] - ref[0, :, :, 0]).max() < 1e-12


def test_depthwise_channel_separability(rng):
    x = rng.normal(size=(5, 5, 2))
    k = rng.normal(size=(2, 3, 3))
    (y0,), _ = ops.depthwise_conv2d_fwd(x[None], k, padding=1)
    x2 = x.copy()
    x2[:, :, 0] += rng.normal(size=(5, 5))
    (y1,), _ = ops.depthwise_conv2d_fwd(x2[None], k, padding=1)
    np.testing.assert_array_equal(y0[:, :, 1], y1[:, :, 1])
    assert np.any(y0[:, :, 0] != y1[:, :, 0])


def test_depthwise_channel_count_mismatch(rng):
    with pytest.raises(ops.ShapeError, match="channel"):
        ops.depthwise_conv2d_fwd(rng.normal(size=(4, 4, 2))[None], rng.normal(size=(3, 3, 3)))


def _np_pad(x, p):
    return np.pad(x, [(0, 0)] * (x.ndim - 3) + [(p, p), (p, p), (0, 0)])


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape", [(2, 7, 6, 3), (5, 6, 3)], ids=["batched", "unbatched"])
def test_slice_padding_matches_np_pad_bitwise(rng, shape, stride, padding):
    """A batched map pads bitwise like np.pad; an unbatched one is rejected."""
    x = rng.normal(size=shape)
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    k = rng.normal(size=(3, 3, 3))
    if x.ndim == 3:
        with pytest.raises(ops.ShapeError, match="^conv2d:"):
            ops.conv2d_fwd(x, w, b, stride=stride, padding=padding)
        with pytest.raises(ops.ShapeError, match="^depthwise_conv2d:"):
            ops.depthwise_conv2d_fwd(x, k, padding=padding)
        return
    y, _ = ops.conv2d_fwd(x, w, b, stride=stride, padding=padding)
    ref, _ = ops.conv2d_fwd(_np_pad(x, padding), w, b, stride=stride, padding=0)
    np.testing.assert_array_equal(y, ref)
    y, (xp, *_) = ops.depthwise_conv2d_fwd(x, k, padding=padding)
    ref, _ = ops.depthwise_conv2d_fwd(_np_pad(x, padding), k, padding=0)
    np.testing.assert_array_equal(y, ref)
    np.testing.assert_array_equal(xp, _np_pad(x, padding).reshape(xp.shape))


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def test_bilinear_constant_preserved():
    x = np.full((3, 5, 2), 7.0)
    for oh, ow in [(1, 1), (4, 4), (9, 2), (6, 10)]:
        (y,), _ = ops.bilinear_resize_fwd(x[None], oh, ow)
        np.testing.assert_allclose(y, 7.0, atol=1e-12)


def test_bilinear_2x2_to_4x4_corners_and_convexity():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
    (y,), _ = ops.bilinear_resize_fwd(x[None], 4, 4)
    assert y[0, 0, 0] == 0.0 and y[0, 3, 0] == 1.0
    assert y[3, 0, 0] == 2.0 and y[3, 3, 0] == 3.0
    assert y.min() >= 0.0 and y.max() <= 3.0


def test_bilinear_matches_formula_oracle(rng):
    x = rng.normal(size=(7, 7, 3))
    (y,), _ = ops.bilinear_resize_fwd(x[None], 14, 14)
    assert np.abs(y - bilinear_ref(x, 14, 14)).max() < 1e-12


def test_bilinear_downsample_matches_oracle(rng):
    x = rng.normal(size=(8, 6, 2))
    (y,), _ = ops.bilinear_resize_fwd(x[None], 3, 5)
    assert np.abs(y - bilinear_ref(x, 3, 5)).max() < 1e-12


def _gather_axis(n_in, n_out):
    src = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(int)
    return lo, np.minimum(lo + 1, n_in - 1), src - lo


def bilinear_gather_ref(x, out_h, out_w):
    """Four corner gathers per output pixel, and their np.add.at scatter as the backward."""
    B, H, W, C = x.shape
    i0, i1, fi = _gather_axis(H, out_h)
    j0, j1, fj = _gather_axis(W, out_w)
    wi, wj = fi[:, None, None], fj[None, :, None]
    corners = [(i0, j0, (1 - wi) * (1 - wj)), (i0, j1, (1 - wi) * wj),
               (i1, j0, wi * (1 - wj)), (i1, j1, wi * wj)]
    y = sum(x[:, ii[:, None], jj[None, :], :] * wt for ii, jj, wt in corners)

    def bwd(dy):
        dx = np.zeros(x.shape)
        for ii, jj, wt in corners:
            np.add.at(dx, (slice(None), ii[:, None], jj[None, :]), dy * wt)
        return dx

    return y, bwd


@pytest.mark.parametrize("in_hw,out_hw", [
    ((5, 5), (5, 5)), ((4, 4), (6, 6)), ((6, 6), (8, 8)), ((1, 3), (4, 2)),
    ((8, 6), (3, 5)), ((7, 7), (2, 2)), ((3, 5), (9, 2)),
], ids=["identity", "4-to-6", "6-to-8", "1x3-to-4x2", "down-8x6-to-3x5", "down-7-to-2",
        "mixed-3x5-to-9x2"])
def test_bilinear_matrix_form_matches_gather_reference(rng, in_hw, out_hw):
    x = rng.normal(size=(3, *in_hw, 4))
    y, cache = ops.bilinear_resize_fwd(x, *out_hw)
    ref, ref_bwd = bilinear_gather_ref(x, *out_hw)
    assert y.shape == ref.shape
    assert np.abs(y - ref).max() <= 1e-14
    dy = rng.normal(size=y.shape)
    assert np.abs(ops.bilinear_resize_bwd(dy, cache) - ref_bwd(dy)).max() <= 1e-14


# ---------------------------------------------------------------------------
# dense / activations / normalization
# ---------------------------------------------------------------------------

def test_linear_matches_manual(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=5)
    y, _ = ops.linear_fwd(x, w, b)
    ref = np.array([[sum(x[i, k] * w[k, j] for k in range(4)) + b[j]
                     for j in range(5)] for i in range(3)])
    np.testing.assert_allclose(y, ref, atol=1e-12)


def test_softmax_matches_reference_and_sums_to_one(rng):
    x = rng.normal(size=(6, 9)) * 5
    y, _ = ops.softmax_fwd(x, axis=-1)
    np.testing.assert_allclose(y, softmax_ref(x), atol=1e-12)
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)
    assert (y >= 0).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one_property(n, m, seed):
    x = np.random.default_rng(seed).normal(size=(n, m)) * 10
    y, _ = ops.softmax_fwd(x, axis=-1)
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)


def test_layernorm_matches_reference(rng):
    x = rng.normal(size=(5, 8)) * 3 + 1
    g = rng.normal(size=8) + 1
    b = rng.normal(size=8)
    y, _ = ops.layernorm_fwd(x, g, b)
    np.testing.assert_allclose(y, layernorm_ref(x, g, b), atol=1e-10)


def test_relu_values():
    y, _ = ops.relu_fwd(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(y, [0, 0, 0, 1, 2])


def test_sigmoid_values(rng):
    x = rng.normal(size=7) * 4
    y, _ = ops.sigmoid_fwd(x)
    np.testing.assert_allclose(y, 1 / (1 + np.exp(-x)), atol=1e-12)
    assert (y > 0).all() and (y < 1).all()


def test_gelu_matches_power_formula_on_signed_inputs(rng):
    x = np.concatenate([rng.normal(size=500) * 3, np.linspace(-10, 10, 41)])
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
    y, cache = ops.gelu_fwd(x)
    np.testing.assert_allclose(y, 0.5 * x * (1.0 + t), rtol=0, atol=1e-14)
    dy = rng.normal(size=x.shape)
    dt = (1.0 - np.power(t, 2)) * c * (1.0 + 3 * 0.044715 * np.power(x, 2))
    np.testing.assert_allclose(ops.gelu_bwd(dy, cache), dy * (0.5 * (1.0 + t) + 0.5 * x * dt),
                               rtol=0, atol=1e-14)


def gelu_expression(x):
    """gelu_fwd's output and cached tanh as whole-array expressions."""
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def softmax_expression(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def layernorm_expression(x, gamma, beta, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + eps))
    return gamma * xhat + beta, xhat


@pytest.mark.parametrize("batch", [1, 48])
def test_in_place_elementwise_ops_match_expressions_bitwise(rng, batch):
    """The buffer-reusing forwards run the expressions' ops in the same order."""
    x = rng.normal(size=(batch, 65, 256)) * 4
    before = x.copy()
    y, (_, t) = ops.gelu_fwd(x)
    ref_y, ref_t = gelu_expression(x)
    np.testing.assert_array_equal(y, ref_y)
    np.testing.assert_array_equal(t, ref_t)
    np.testing.assert_array_equal(x, before)

    s = rng.normal(size=(batch, 4, 65, 65)) * 4
    before = s.copy()
    np.testing.assert_array_equal(ops.softmax_fwd(s)[0], softmax_expression(s))
    np.testing.assert_array_equal(ops.softmax_fwd(s, axis=1)[0], softmax_expression(s, axis=1))
    np.testing.assert_array_equal(s, before)

    h = rng.normal(size=(batch, 65, 64)) * 3 + 1
    g, b = rng.normal(size=64) + 1, rng.normal(size=64)
    before = h.copy()
    y, (xhat, _, _) = ops.layernorm_fwd(h, g, b)
    ref_y, ref_xhat = layernorm_expression(h, g, b)
    np.testing.assert_array_equal(y, ref_y)
    np.testing.assert_array_equal(xhat, ref_xhat)
    np.testing.assert_array_equal(h, before)


def test_gelu_fixed_points():
    y, _ = ops.gelu_fwd(np.array([0.0]))
    assert y[0] == 0.0
    y, _ = ops.gelu_fwd(np.array([10.0]))
    assert abs(y[0] - 10.0) < 1e-6  # saturates to identity for large x


def test_l2_normalize_unit_and_scale_invariant(rng):
    x = rng.normal(size=(4, 6)) + 0.5
    y, _ = ops.l2_normalize_fwd(x)
    np.testing.assert_allclose(np.linalg.norm(y, axis=-1), 1.0, atol=1e-12)
    y10, _ = ops.l2_normalize_fwd(x * 10)
    np.testing.assert_allclose(y, y10, atol=1e-9)


def test_avg_pool_matches_mean(rng):
    x = rng.normal(size=(2, 4, 4, 3))
    y, _ = ops.avg_pool2d_fwd(x, 2)
    assert y.shape == (2, 2, 2, 3)
    np.testing.assert_allclose(y[0, 0, 0], x[0, :2, :2].mean(axis=(0, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# GeM pooling
# ---------------------------------------------------------------------------

def softplus(x):
    return np.logaddexp(0.0, x)


WHOLE_MAP = ((slice(None), slice(None)),)


def test_gem_constant_map_constant_output():
    x = np.full((4, 4, 3), 1.5)
    ((y,),), _ = ops.gem_pool_fwd(x[None], WHOLE_MAP, p=3.0)
    # the power mean of a constant is that constant (after the positive shift)
    np.testing.assert_allclose(y, softplus(1.5), atol=1e-12)
    assert np.ptp(y) == 0.0


def test_gem_p1_reduces_to_mean_pool(rng):
    x = rng.normal(size=(5, 5, 2))
    ((y,),), _ = ops.gem_pool_fwd(x[None], WHOLE_MAP, p=1.0)
    np.testing.assert_allclose(y, softplus(x).mean(axis=(0, 1)), atol=1e-12)


def test_gem_direct_formula_oracle(rng):
    x = rng.normal(size=(6, 6, 4))
    p = 3.0
    ((y,),), _ = ops.gem_pool_fwd(x[None], WHOLE_MAP, p=p)
    ref = (softplus(x).reshape(-1, 4) ** p).mean(axis=0) ** (1 / p)
    np.testing.assert_allclose(y, ref, atol=1e-12)


def test_gem_between_mean_and_max(rng):
    x = rng.normal(size=(8, 8, 1))
    u = softplus(x)
    ((y,),), _ = ops.gem_pool_fwd(x[None], WHOLE_MAP, p=3.0)
    assert u.mean() - 1e-12 <= y[0] <= u.max() + 1e-12


# ---------------------------------------------------------------------------
# finiteness invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_ops_preserve_finiteness(rng, scale):
    x = rng.normal(size=(3, 6, 6, 4)) * scale
    w = rng.normal(size=(4, 4, 3, 3)) * scale
    for result in (
        ops.conv2d_fwd(x, w, None, stride=1, padding=1)[0],
        ops.gelu_fwd(x)[0],
        ops.sigmoid_fwd(x)[0],
        ops.softmax_fwd(x, axis=-1)[0],
        ops.layernorm_fwd(x, np.ones(4), np.zeros(4))[0],
        ops.gem_pool_fwd(x, WHOLE_MAP, p=3.0)[0],
        ops.bilinear_resize_fwd(x, 9, 5)[0],
    ):
        assert np.all(np.isfinite(result))


# ---------------------------------------------------------------------------
# one map layout
# ---------------------------------------------------------------------------

_TOY = ModelConfig.toy()


_GAINS = np.ones((spectral.n_bins(4, 4), 3))  # the frequency branch's gain rows on a 4x4x3 map


def _branch_bwd(dy):
    """The frequency branch's backward, handed dy of any rank after a valid forward."""
    _, cache = spectral.frequency_branch_fwd(np.ones((1, 4, 4, 3)), _GAINS)
    return spectral.frequency_branch_bwd(dy, cache)


# case -> (op named in the error, side of the square map it is given, call on that map).
# The frequency branch's forward (x) and backward (dy) each transform the map
# they are handed and transform the result back; their cases keep the names
# of the dft2d and idft2d ops the branch replaced.
_MAP_OPS = {
    "conv2d": ("conv2d", 4, lambda x: ops.conv2d_fwd(x, np.ones((1, 3, 1, 1)))),
    "depthwise_conv2d": ("depthwise_conv2d", 4,
                         lambda x: ops.depthwise_conv2d_fwd(x, np.ones((3, 3, 3)))),
    "avg_pool2d": ("avg_pool2d", 4, lambda x: ops.avg_pool2d_fwd(x, 2)),
    "bilinear_resize": ("bilinear_resize", 4, lambda x: ops.bilinear_resize_fwd(x, 3, 3)),
    "gem_pool": ("gem_pool", 4, lambda x: ops.gem_pool_fwd(x, WHOLE_MAP)),
    "dft2d": ("frequency_branch", 4,
              lambda x: spectral.frequency_branch_fwd(x, _GAINS)),
    "idft2d": ("frequency_branch", 4, _branch_bwd),
    "patch_embed": ("patch_embed", _TOY.image_size, lambda x: vit.patch_embed_fwd(x, {}, _TOY)),
}


@pytest.mark.parametrize("lead", [(), (1, 1)], ids=["3-d", "5-d"])
@pytest.mark.parametrize("name", list(_MAP_OPS))
def test_map_ops_take_only_batched_maps(name, lead):
    op, side, call = _MAP_OPS[name]
    with pytest.raises(ops.ShapeError, match=f"^{op}: expected a \\(B, H, W, C\\) map"):
        call(np.ones(lead + (side, side, 3)))
