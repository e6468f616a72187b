"""Frequency-branch tests: the Hartley matrix, the bin layout and the branch as a filter."""

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


def mirror(h, w):
    """Index of bin -k for each bin k = u * w + v of an h x w grid."""
    u, v = np.divmod(np.arange(h * w), w)
    return (-u % h) * w + (-v % w)


def dft2d(x):
    """Complex spectrum of a real (B, H, W, C) map through the cached Hartley matrix.

    With h = Hm x, Re X(k) = (h(k) + h(-k)) / 2 and Im X(k) = (h(-k) - h(k)) / 2.
    """
    B, H, W, C = x.shape
    n = H * W
    h = spectral._hartley_matrix(H, W) @ x.reshape(B, n, C)
    hm = h[:, mirror(H, W)]
    return ((h + hm) / 2 + 1j * (hm - h) / 2).reshape(x.shape)


def idft2d(z):
    """Real part of the inverse DFT through the Hartley matrix.

    Re F^-1 z = Hm (a_even - b_odd) / N for z = a + ib: the odd part of a and
    the even part of b do not reach the real part.
    """
    B, H, W, C = z.shape
    n = H * W
    a, b = z.real.reshape(B, n, C), z.imag.reshape(B, n, C)
    m = mirror(H, W)
    spec = (a + a[:, m]) / 2 - (b - b[:, m]) / 2
    return (spectral._hartley_matrix(H, W) @ spec / n).reshape(z.shape)


def gain_field(gains, h, w):
    """The (h, w, C) field that (n_bins, C) gain rows stand for."""
    return gains[spectral._bin_rows(h, w)].reshape(h, w, -1)


def random_gains(rng, h, w, c):
    return np.exp(rng.normal(size=(spectral.n_bins(h, w), c)) * 0.5)


@pytest.mark.parametrize("h,w,count", [(8, 8, 34), (16, 16, 130), (3, 5, 8), (4, 6, 14)])
def test_bin_layout_pairs_each_bin_with_its_mirror(h, w, count):
    """Rows number the pairs {k, -k}; 1, 2 or 4 bins are their own mirror."""
    assert spectral.n_bins(h, w) == count
    rows, m = spectral._bin_rows(h, w), mirror(h, w)
    assert rows.shape == (h * w,) and sorted(set(rows.tolist())) == list(range(count))
    assert np.array_equal(rows[m], rows)  # k and -k share a row
    sizes = np.bincount(rows)  # and no other bin does
    assert np.array_equal(sizes[rows], np.where(m == np.arange(h * w), 1, 2))
    assert rows[0] == 0 and sizes[0] == 1  # row 0 is the DC bin alone
    assert (sizes == 1).sum() == 2 * count - h * w


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
    """Bin k of the output is bin k of the input times the gain of its row.

    Bins k and -k share that real, positive gain: the modulus scales and
    the phase is kept.
    """
    x = rng.normal(size=(1, 4, 5, 2))
    gains = random_gains(rng, 4, 5, 2)
    y, _ = frequency_branch_fwd(x, gains)
    effective = gain_field(gains, 4, 5)
    zx, zy = np.fft.fft2(x, axes=(1, 2)), np.fft.fft2(y, axes=(1, 2))
    np.testing.assert_allclose(np.abs(zy), np.abs(zx) * effective, rtol=0, atol=1e-9)
    # phase comparison only where the modulus is meaningfully nonzero
    mask = np.abs(zx) > 1e-6
    np.testing.assert_allclose(np.angle(zy * np.conj(zx))[mask], 0.0, atol=1e-9)  # no wrap at +-pi


def test_amplitude_modulate_shape_check(rng):
    x = rng.normal(size=(1, 4, 4, 2))
    for shape in ((10, 3), (4, 4, 2), (16, 2)):  # another width, a full field, a row per bin
        with pytest.raises(ops.ShapeError, match="^frequency_branch: gains"):
            frequency_branch_fwd(x, np.ones(shape))


def test_frequency_branch_unit_gains_is_identity(rng):
    x = rng.normal(size=(8, 8, 4))
    y, _ = frequency_branch_fwd(x[None], np.ones((34, 4)))
    assert np.abs(y - x).max() < 1e-9


def test_frequency_branch_uniform_gain_is_homogeneous(rng):
    x = rng.normal(size=(8, 8, 2))
    y, _ = frequency_branch_fwd(x[None], np.full((34, 2), 2.0))
    assert np.abs(y - 2 * x).max() < 1e-9
    # for any fixed positive gains the branch is linear in its input
    gains = random_gains(rng, 8, 8, 2)
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
    gains = np.ones((34, 1))
    gains[0, 0] = 3.0  # row 0 is the DC bin
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
        frequency_branch_fwd(x[None], np.zeros((10, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_frequency_branch_rejects_non_finite_gains(rng, bad):
    x = rng.normal(size=(4, 4, 1))
    gains = np.ones((10, 1))
    gains[3, 0] = bad
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


BRANCH_SHAPES = [(2, 3, 5, 2), (1, 8, 8, 32), (2, 4, 6, 3), (1, 16, 16, 384)]


@pytest.mark.parametrize("shape", BRANCH_SHAPES)
def test_frequency_branch_matches_numpy_fft(rng, shape):
    """The branch is Re(ifft2(g * fft2(x))); a non-square map pins the bin order."""
    x = rng.normal(size=shape)
    gains = random_gains(rng, *shape[1:])
    y, _ = frequency_branch_fwd(x, gains)
    g = gain_field(gains, *shape[1:3])
    ref = np.fft.ifft2(g * np.fft.fft2(x, axes=(1, 2)), axes=(1, 2)).real
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", BRANCH_SHAPES)
def test_frequency_branch_gradients_match_numpy_fft(rng, shape):
    """dx is the filter's adjoint; each row's gradient is its bins' full-field gradients summed.

    On a full gain field, y = Re(ifft2(g * X)) has dL/dg(k) = Re(conj(D(k)) X(k)) / N
    summed over the batch, with D = fft2(dy).
    """
    B, H, W, C = shape
    x, dy = rng.normal(size=shape), rng.normal(size=shape)
    gains = random_gains(rng, H, W, C)
    _, cache = frequency_branch_fwd(x, gains)
    dx, dgains = frequency_branch_bwd(dy, cache)
    g = gain_field(gains, H, W)
    d = np.fft.fft2(dy, axes=(1, 2))
    np.testing.assert_allclose(dx, np.fft.ifft2(g * d, axes=(1, 2)).real, rtol=0, atol=1e-12)
    full = (np.conj(d) * np.fft.fft2(x, axes=(1, 2))).real.sum(axis=0) / (H * W)
    pair_sums = np.zeros_like(dgains)
    np.add.at(pair_sums, spectral._bin_rows(H, W), full.reshape(H * W, C))
    np.testing.assert_allclose(dgains, pair_sums, rtol=0, atol=1e-12 * np.abs(full).max())


@pytest.mark.parametrize("shape", [(2, 3, 5, 2), (2, 8, 8, 4), (2, 4, 6, 3)])
def test_folded_gains_keep_the_function_of_a_full_field(rng, shape):
    """A full (H, W, C) field of log-gains, folded to rows, filters as the field does."""
    x = rng.normal(size=shape)
    a = rng.normal(size=shape[1:])
    rows = spectral.fold_gains_log(a)
    assert rows.shape == (spectral.n_bins(*shape[1:3]), shape[3])
    y, _ = frequency_branch_fwd(x, np.exp(rows))
    ref = np.fft.ifft2(np.exp(a) * np.fft.fft2(x, axes=(1, 2)), axes=(1, 2)).real
    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)
    # a field that already has g(k) = g(-k) folds to its own rows
    same = gain_field(rows, *shape[1:3])
    np.testing.assert_allclose(spectral.fold_gains_log(same), rows, rtol=0, atol=1e-14)


def test_hartley_matrix_is_cached_and_read_only():
    m = spectral._hartley_matrix(3, 5)
    assert m.shape == (15, 15)
    assert spectral._hartley_matrix(3, 5) is m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_allclose(m @ m, 15 * np.eye(15), rtol=0, atol=1e-12)
    assert not spectral._bin_rows(3, 5).flags.writeable


def test_frequency_branch_batch_rows_match_single_calls(rng):
    x = rng.normal(size=(48, 8, 8, 32))
    gains = random_gains(rng, 8, 8, 32)
    dy = rng.normal(size=x.shape)
    y, cache = frequency_branch_fwd(x, gains)
    dx, _ = frequency_branch_bwd(dy, cache)
    for b in range(48):
        yb, cb = frequency_branch_fwd(x[b:b + 1], gains)
        assert np.abs(y[b:b + 1] - yb).max() <= 1e-12
        assert np.abs(dx[b:b + 1] - frequency_branch_bwd(dy[b:b + 1], cb)[0]).max() <= 1e-12
