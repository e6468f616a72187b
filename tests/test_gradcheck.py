"""Tests of the finite-difference checking facility itself."""

import numpy as np

from lgcn import ops
from lgcn.checksuite import run_suite
from lgcn.gradcheck import grad_check


def quadratic(p):
    x = p["x"]
    return float((x ** 2).sum()), {"x": 2 * x}


def test_quadratic_passes_tightly():
    x = np.random.default_rng(0).normal(size=(3, 4)) * 0.5
    rep = grad_check(quadratic, {"x": x}, name="quadratic")
    assert rep.passed
    assert rep.max_rel_error < 1e-10


def test_wrong_gradient_fails(rng):
    def doubled(p):
        loss, grads = quadratic(p)
        return loss, {"x": 2 * grads["x"]}

    rep = grad_check(doubled, {"x": rng.normal(size=(2, 2))})
    assert not rep.passed


def test_nonfinite_gradient_reported_not_raised(rng):
    def nan_grad(p):
        return float(p["x"].sum()), {"x": np.full_like(p["x"], np.nan)}

    rep = grad_check(nan_grad, {"x": rng.normal(size=3)})
    assert not rep.passed
    assert rep.max_rel_error == float("inf")
    assert "non-finite" in rep.detail


def test_missing_gradient_fails(rng):
    def forgetful(p):
        return float(p["x"].sum() + p["y"].sum()), {"x": np.ones_like(p["x"])}

    rep = grad_check(forgetful, {"x": rng.normal(size=2), "y": rng.normal(size=2)})
    assert not rep.passed
    assert "missing" in rep.detail


def test_per_parameter_errors_recorded(rng):
    rep = grad_check(quadratic, {"x": rng.normal(size=5)})
    assert set(rep.per_param_errors) == {"x"}
    assert rep.passed == (rep.max_rel_error <= rep.tol)


def test_coordinate_sampling_deterministic(rng):
    x = rng.normal(size=100)
    reps = [grad_check(quadratic, {"x": x}, max_coords_per_param=7,
                       rng=np.random.default_rng(3)) for _ in range(2)]
    assert reps[0].max_rel_error == reps[1].max_rel_error


def test_suite_scope_filter():
    names = [r.op_name for r in run_suite("dfm")]
    assert names and all(n.startswith("dfm.") for n in names)


def test_suite_negative_control():
    ops.INJECT_GRADIENT_BUG = True
    try:
        reports = run_suite("cnn")
    finally:
        ops.INJECT_GRADIENT_BUG = False
    assert any(not r.passed for r in reports)


def test_suite_composition_is_pinned(gradcheck_suite):
    """Every check and every checked tensor stays registered, in order."""
    reports, _ = gradcheck_suite
    assert [(r.op_name, len(r.per_param_errors)) for r in reports] == [
        ("ops.linear", 3), ("ops.relu", 1), ("ops.gelu", 1), ("ops.sigmoid", 1),
        ("ops.softplus", 1), ("ops.softmax", 1), ("ops.l2_normalize", 1),
        ("ops.layernorm", 3), ("ops.conv2d_stride1", 3), ("ops.conv2d_stride2", 3),
        ("ops.depthwise_conv2d", 2), ("ops.bilinear_resize", 1), ("ops.avg_pool2d", 1),
        ("ops.attention", 3), ("ops.gem_pool", 1), ("spectral.frequency_branch", 2),
        ("trainer.triplet_loss", 3), ("vit.patch_embed", 5), ("vit.block_with_fsa", 21),
        ("vit.two_block_with_adapters", 45), ("fsa.forward", 6), ("cnn.forward", 7),
        ("cnn.align_upsample", 3), ("dfm.forward", 8),
        ("head.forward", 8), ("model.end_to_end", 65),
        ("model.split_batch", 65), ("model.repeated_image", 65),
    ]
