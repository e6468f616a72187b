"""Frequency-branch tests: DFT-matrix identities and the branch as a filter."""

import numpy as np
import pytest

from lgcn import ops, spectral
from lgcn.spectral import frequency_branch_bwd, frequency_branch_fwd


def dft2d_loop_ref(x):
    """Quadruple-loop DFT, one channel at a time."""
    H, W, C = x.shape
    out = np.zeros((H, W, C), dtype=complex)
    for u in range(H):
        for v in range(W):
            for h in range(H):
                for w in range(W):
                    out[u, v] += x[h, w] * np.exp(-2j * np.pi * (u * h / H + v * w / W))
    return out


def dft2d(x):
    """Complex spectrum of a (B, H, W, C) map through the cached DFT matrix."""
    B, H, W, C = x.shape
    n = H * W
    spec = spectral._dft_matrix(H, W) @ x.reshape(B, n, C)
    return (spec[:, :n] + 1j * spec[:, n:]).reshape(x.shape)


def idft2d(z):
    """Real part of the inverse DFT through the transposed DFT matrix."""
    B, H, W, C = z.shape
    n = H * W
    spec = np.concatenate([z.real.reshape(B, n, C), z.imag.reshape(B, n, C)], axis=1)
    return (spectral._dft_matrix(H, W).T @ spec / n).reshape(z.shape)


def test_dft_matches_loop_reference(rng):
    x = rng.normal(size=(4, 4, 2))
    z = dft2d(x[None])[0]
    ref = dft2d_loop_ref(x)
    assert np.abs(z.real - ref.real).max() < 1e-10
    assert np.abs(z.imag - ref.imag).max() < 1e-10


def test_constant_map_has_dc_only_spectrum():
    c = 3.25
    x = np.full((6, 5, 2), c)
    amp = np.abs(dft2d(x[None]))[0]
    np.testing.assert_allclose(amp[0, 0], c * 6 * 5, atol=1e-9)
    rest = amp.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-9


def test_impulse_has_flat_amplitude_spectrum():
    x = np.zeros((8, 8, 1))
    x[3, 5, 0] = 1.0
    np.testing.assert_allclose(np.abs(dft2d(x[None])), 1.0, atol=1e-9)


def test_roundtrip_and_parseval(rng):
    x = rng.normal(size=(8, 8, 3))
    z = dft2d(x[None])
    assert np.abs(idft2d(z)[0] - x).max() < 1e-9
    spatial = (x ** 2).sum()
    freq = (np.abs(z) ** 2).sum() / (8 * 8)
    assert abs(spatial - freq) / spatial < 1e-9


def test_batched_matches_per_image(rng):
    x = rng.normal(size=(3, 4, 4, 2))
    z = dft2d(x)
    for b in range(3):
        np.testing.assert_allclose(z[b:b + 1], dft2d(x[b:b + 1]), atol=1e-12)


def test_amplitude_modulate_scales_modulus_preserves_phase(rng):
    """Bin k of the output is bin k of the input times (g[k] + g[-k]) / 2.

    Taking the real part pairs each bin with its mirror, so the effective
    gain is real and positive: the modulus scales and the phase is kept.
    """
    x = rng.normal(size=(1, 4, 5, 2))
    gains = np.exp(rng.normal(size=(4, 5, 2)) * 0.5)
    y, _ = frequency_branch_fwd(x, gains)
    mirrored = np.roll(np.flip(gains, axis=(0, 1)), 1, axis=(0, 1))  # g[-u, -v]
    effective = (gains + mirrored) / 2
    zx, zy = np.fft.fft2(x, axes=(1, 2)), np.fft.fft2(y, axes=(1, 2))
    np.testing.assert_allclose(np.abs(zy), np.abs(zx) * effective, rtol=0, atol=1e-9)
    # phase comparison only where the modulus is meaningfully nonzero
    mask = np.abs(zx) > 1e-6
    np.testing.assert_allclose(np.angle(zy * np.conj(zx))[mask], 0.0, atol=1e-9)  # no wrap at +-pi


def test_amplitude_modulate_shape_check(rng):
    with pytest.raises(ops.ShapeError, match="^frequency_branch: gain field"):
        frequency_branch_fwd(rng.normal(size=(1, 4, 4, 2)), np.ones((4, 4, 3)))


def test_frequency_branch_unit_gains_is_identity(rng):
    x = rng.normal(size=(8, 8, 4))
    y, _ = frequency_branch_fwd(x[None], np.ones((8, 8, 4)))
    assert np.abs(y - x).max() < 1e-9


def test_frequency_branch_uniform_gain_is_homogeneous(rng):
    x = rng.normal(size=(8, 8, 2))
    y, _ = frequency_branch_fwd(x[None], np.full((8, 8, 2), 2.0))
    assert np.abs(y - 2 * x).max() < 1e-9
    # for any fixed positive gains the branch is linear in its input
    gains = np.exp(rng.normal(size=(8, 8, 2)))
    a, b = rng.normal(size=(8, 8, 2)), rng.normal(size=(8, 8, 2))
    fa, fb, fab = (frequency_branch_fwd(v[None], gains)[0] for v in (a, b, 2.0 * a - 3.0 * b))
    assert np.abs(fab - (2.0 * fa - 3.0 * fb)).max() < 1e-9


def test_frequency_branch_dc_boost_oracle(rng):
    """Boost only the DC bin of a constant-plus-impulse map.

    The mean shifts by (gain-1) * mean; the impulse shape rides on top
    untouched. Verified against direct spectrum manipulation.
    """
    H = W = 8
    x = np.full((H, W, 1), 2.0)
    x[4, 2, 0] += 1.0
    gains = np.ones((H, W, 1))
    gains[0, 0, 0] = 3.0
    (y,), _ = frequency_branch_fwd(x[None], gains)

    spec = np.fft.fft2(x[:, :, 0])
    spec[0, 0] *= 3.0
    ref = np.fft.ifft2(spec).real[:, :, None]
    assert np.abs(y - ref).max() < 1e-9
    # impulse shape preserved: subtracting the new mean leaves the old residue
    np.testing.assert_allclose(y - y.mean(), x - x.mean(), atol=1e-9)


def test_frequency_branch_rejects_nonpositive_gains(rng):
    x = rng.normal(size=(4, 4, 1))
    with pytest.raises(ValueError):
        frequency_branch_fwd(x[None], np.zeros((4, 4, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frequency_branch_rejects_non_finite_gains(rng, bad):
    x = rng.normal(size=(4, 4, 1))
    gains = np.ones((4, 4, 1))
    gains[1, 2, 0] = bad
    with pytest.raises(ValueError, match="finite and strictly positive"):
        frequency_branch_fwd(x[None], gains)


@pytest.mark.parametrize("shape", [(2, 3, 5, 2), (1, 8, 8, 32)])
def test_dft_and_idft_match_numpy_fft(rng, shape):
    """Non-square grids pin the Kronecker order of the 2-d DFT matrix."""
    x = rng.normal(size=shape)
    np.testing.assert_allclose(dft2d(x), np.fft.fft2(x, axes=(-3, -2)), rtol=0, atol=1e-12)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    np.testing.assert_allclose(idft2d(z), np.fft.ifft2(z, axes=(-3, -2)).real,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 3, 5, 2), (1, 8, 8, 32)])
def test_frequency_branch_matches_numpy_fft(rng, shape):
    """The branch is Re(ifft2(g * fft2(x))); a non-square map pins the bin order."""
    x = rng.normal(size=shape)
    gains = np.exp(rng.normal(size=shape[1:]) * 0.5)
    y, _ = frequency_branch_fwd(x, gains)
    ref = np.fft.ifft2(gains * np.fft.fft2(x, axes=(1, 2)), axes=(1, 2)).real
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)


def test_dft_matrix_is_cached_and_read_only():
    m = spectral._dft_matrix(3, 5)
    assert m.shape == (2 * 15, 15)
    assert spectral._dft_matrix(3, 5) is m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_frequency_branch_batch_rows_match_single_calls(rng):
    x = rng.normal(size=(48, 8, 8, 32))
    gains = np.exp(rng.normal(size=(8, 8, 32)) * 0.5)
    dy = rng.normal(size=x.shape)
    y, cache = frequency_branch_fwd(x, gains)
    dx, _ = frequency_branch_bwd(dy, cache)
    for b in range(48):
        yb, cb = frequency_branch_fwd(x[b:b + 1], gains)
        assert np.abs(y[b:b + 1] - yb).max() <= 1e-12
        assert np.abs(dx[b:b + 1] - frequency_branch_bwd(dy[b:b + 1], cb)[0]).max() <= 1e-12
