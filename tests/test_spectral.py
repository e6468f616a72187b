"""Spectral transform tests: DFT identities and amplitude modulation."""

import numpy as np
import pytest

from lgcn import spectral
from lgcn.fsa import frequency_branch_bwd, frequency_branch_fwd


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


def test_dft_matches_loop_reference(rng):
    x = rng.normal(size=(4, 4, 2))
    grid, _ = spectral.dft2d_fwd(x[None])
    ref = dft2d_loop_ref(x)
    assert np.abs(grid.re - ref.real).max() < 1e-10
    assert np.abs(grid.im - ref.imag).max() < 1e-10


def test_constant_map_has_dc_only_spectrum():
    c = 3.25
    x = np.full((6, 5, 2), c)
    grid, _ = spectral.dft2d_fwd(x[None])
    amp = grid.amplitude()[0]
    np.testing.assert_allclose(amp[0, 0], c * 6 * 5, atol=1e-9)
    rest = amp.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() < 1e-9


def test_impulse_has_flat_amplitude_spectrum():
    x = np.zeros((8, 8, 1))
    x[3, 5, 0] = 1.0
    grid, _ = spectral.dft2d_fwd(x[None])
    np.testing.assert_allclose(grid.amplitude(), 1.0, atol=1e-9)


def test_roundtrip_and_parseval(rng):
    x = rng.normal(size=(8, 8, 3))
    grid, _ = spectral.dft2d_fwd(x[None])
    back, _ = spectral.idft2d_fwd(grid)
    assert np.abs(back - x).max() < 1e-9
    spatial = (x ** 2).sum()
    freq = (grid.re ** 2 + grid.im ** 2).sum() / (8 * 8)
    assert abs(spatial - freq) / spatial < 1e-9


def test_batched_matches_per_image(rng):
    x = rng.normal(size=(3, 4, 4, 2))
    grid, _ = spectral.dft2d_fwd(x)
    for b in range(3):
        gb, _ = spectral.dft2d_fwd(x[b:b + 1])
        np.testing.assert_allclose(grid.re[b:b + 1], gb.re, atol=1e-12)
        np.testing.assert_allclose(grid.im[b:b + 1], gb.im, atol=1e-12)


def test_amplitude_modulate_scales_modulus_preserves_phase(rng):
    x = rng.normal(size=(4, 4, 2))
    grid, _ = spectral.dft2d_fwd(x[None])
    gains = np.exp(rng.normal(size=(4, 4, 2)) * 0.5)
    out, _ = spectral.amplitude_modulate_fwd(grid, gains)
    np.testing.assert_allclose(out.amplitude(), grid.amplitude() * gains, atol=1e-9)
    # phase comparison only where the modulus is meaningfully nonzero
    mask = grid.amplitude() > 1e-9
    np.testing.assert_allclose(out.phase()[mask], grid.phase()[mask], atol=1e-12)


def test_amplitude_modulate_shape_check(rng):
    grid, _ = spectral.dft2d_fwd(rng.normal(size=(4, 4, 2))[None])
    with pytest.raises(ValueError):
        spectral.amplitude_modulate_fwd(grid, np.ones((4, 4, 3)))


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

    grid, _ = spectral.dft2d_fwd(x[None])
    spec = (grid.re + 1j * grid.im)[0]
    spec[0, 0, 0] *= 3.0
    ref = np.fft.ifft2(spec[:, :, 0]).real[:, :, None]
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
    grid, _ = spectral.dft2d_fwd(x)
    ref = np.fft.fft2(x, axes=(-3, -2))
    np.testing.assert_allclose(grid.re, ref.real, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grid.im, ref.imag, rtol=0, atol=1e-12)
    re, im = rng.normal(size=shape), rng.normal(size=shape)
    y, _ = spectral.idft2d_fwd(spectral.ComplexGrid(re, im))
    np.testing.assert_allclose(y, np.fft.ifft2(re + 1j * im, axes=(-3, -2)).real,
                               rtol=0, atol=1e-12)


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
