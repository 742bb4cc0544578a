"""The periodic cubic-spline kernel in d = 1, 2, 3 against exact oracles."""

import numpy as np
import pytest

from fourier_oracle import PeriodicFourier
from peierls_lab.interp import BLOCK, PeriodicSpline

# non-cubic grids, so a mixed-up axis stride or offset table shows
SHAPES = {1: (48,), 2: (40, 44), 3: (20, 22, 24)}


def trig_fields(d, n_fields=2, seed=0):
    """Random real trigonometric polynomials of degree <= 1 per axis in
    alpha (period 1), as F callables of points (..., d)."""
    rng = np.random.default_rng(seed)
    P = np.stack(np.meshgrid(*[np.arange(-1, 2)] * d, indexing="ij"), -1).reshape(-1, d)
    coeffs = rng.normal(size=(n_fields, len(P))) + 1j * rng.normal(size=(n_fields, len(P)))

    def field(f):
        return lambda a: (np.exp(2j * np.pi * np.asarray(a) @ P.T) @ coeffs[f]).real
    return [field(f) for f in range(n_fields)]


def fine_grid(shape):
    """Zero-anchored nodes alpha_m = -1/2 + m / n of a fine grid, (..., d)."""
    axes = [-0.5 + np.arange(n) / n for n in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1)


def spline_of(fields, shape):
    nodes = fine_grid(shape)
    values = np.stack([f(nodes) for f in fields], -1)
    return PeriodicSpline(values, -0.5, [1.0 / n for n in shape])


def oracles(fields, d, n_coarse=5):
    """Exact trigonometric interpolants from cell-centered coarse samples."""
    axes = [(np.arange(n_coarse) + 0.5) / n_coarse - 0.5] * d
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), -1)
    return [PeriodicFourier(f(centers)) for f in fields]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_values_and_gradients_match_fourier_oracle(d):
    fields = trig_fields(d)
    exact = oracles(fields, d)
    pts = np.random.default_rng(1).uniform(-2.0, 2.0, (300, d))
    errs = []
    for scale in (1, 2):
        shape = tuple(scale * n for n in SHAPES[d])
        out = spline_of(fields, shape)(pts)
        assert out.shape == (300, 1 + d, len(fields))
        err = np.zeros(1 + d)
        for f, oracle in enumerate(exact):
            ref = [oracle(pts)] + [oracle(pts, deriv=tuple(np.eye(d, dtype=int)[m]))
                                   for m in range(d)]
            scale_f = max(np.abs(r).max() for r in ref)
            err = np.maximum(err, [np.abs(out[:, r, f] - ref[r]).max() / scale_f
                                   for r in range(1 + d)])
        errs.append(err)
    coarse, fine = errs
    # cubic splines: O(h^4) values and O(h^3) first derivatives
    assert coarse[0] < 2e-5 and np.all(coarse[1:] < 1e-3)
    assert np.all(coarse[0] / fine[0] > 12)
    assert np.all(coarse[1:] / fine[1:] > 5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_node_reproduction(d):
    shape = tuple(n // 4 + 1 for n in SHAPES[d])
    values = np.random.default_rng(2).normal(size=shape + (3,))
    spacing = np.array([0.7 / n for n in shape])
    origin = np.linspace(-0.3, 0.2, d)
    spline = PeriodicSpline(values, origin, spacing)
    nodes = origin + np.indices(shape).reshape(d, -1).T * spacing
    out = spline(nodes)
    assert np.abs(out[:, 0] - values.reshape(-1, 3)).max() < 1e-12 * np.abs(values).max()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_seam_points_match_period_shifted_twins(d):
    fields = trig_fields(d, seed=3)
    shape = SHAPES[d]
    spline = spline_of(fields, shape)
    h = np.array([1.0 / n for n in shape])
    rng = np.random.default_rng(4)
    # u = n - 1 (last node), u = -1/2 (between the last and the first node),
    # and interior points, each against twins shifted by whole periods
    u = np.concatenate([np.array(shape, float)[None] - 1, np.full((1, d), -0.5),
                        rng.uniform(0, np.array(shape), (40, d))])
    pts = -0.5 + u * h
    base = spline(pts)
    scale = np.abs(base).max()
    for shift, tol in ((1.0, 1e-12), (-3.0, 1e-12), (4096.0, 1e-9)):
        twin = spline(pts + shift)
        assert np.abs(twin - base).max() < tol * scale
    # one period along a single axis
    for ax in range(d):
        step = np.zeros(d)
        step[ax] = 1.0
        assert np.abs(spline(pts - step) - base).max() < 1e-12 * scale


def test_batches_spanning_blocks_match_single_block():
    spline = spline_of(trig_fields(2), SHAPES[2])
    pts = np.random.default_rng(5).uniform(-1, 1, (2 * BLOCK + 7, 2))
    whole = spline(pts)
    assert np.array_equal(whole[BLOCK:BLOCK + 7], spline(pts[BLOCK:BLOCK + 7]))


# The kernel before the ghost-padded rewrite: every tap wrapped by a modulo,
# weights from the power basis, and a separate contraction for d = 1 and 2.
_B3 = np.array([[1, 4, 1, 0], [-3, 0, 3, 0], [3, -6, 3, 0], [-1, 3, -3, 1]]) / 6.0
_DB3 = np.arange(1, 4)[:, None] * _B3[1:]


def modulo_tap_kernel(values, origin, spacing, pts):
    d = values.ndim - 1
    shape = values.shape[:-1]
    F = np.fft.fftn(values, axes=tuple(range(d)))
    for ax, n in enumerate(shape):
        bhat = (4.0 + 2.0 * np.cos(2 * np.pi * np.arange(n) / n)) / 6.0
        F = F / bhat.reshape([n if a == ax else 1 for a in range(d + 1)])
    c = np.fft.ifftn(F, axes=tuple(range(d))).real.reshape(-1, values.shape[-1])
    u = (pts - origin) / spacing
    base = np.floor(u).astype(int)
    t = u - base
    taps = (base[..., None] + np.arange(-1, 3)) % np.array(shape)[:, None]
    flat = taps[:, 0]
    if d == 2:
        flat = flat[..., None] * shape[1] + taps[:, 1][:, None, :]
    powers = t[..., None] ** np.arange(4)
    W0, W1 = powers @ _B3, powers[..., :3] @ _DB3 / spacing[:, None]
    g = np.take(c, flat, axis=0)
    Wx = np.stack([W0[:, 0], W1[:, 0]], axis=1)
    if d == 1:
        return Wx @ g
    rows = np.stack([W0[:, 1], W1[:, 1]], axis=1)[:, None] @ g
    return np.concatenate([Wx @ rows[:, :, 0], W0[:, :1] @ rows[:, :, 1]], axis=1)


@pytest.mark.parametrize("d", [1, 2])
def test_matches_modulo_tap_kernel(d):
    shape = SHAPES[d]
    values = 400.0 * np.random.default_rng(6).normal(size=shape + (5,))
    origin, spacing = np.full(d, -0.5), np.array([1.0 / n for n in shape])
    pts = np.random.default_rng(7).uniform(-3, 3, (500, d))
    new = PeriodicSpline(values, origin, spacing)(pts)
    old = modulo_tap_kernel(values, origin, spacing, pts)
    for r in range(1 + d):
        assert np.abs(new[:, r] - old[:, r]).max() < 1e-12 * np.abs(old[:, r]).max()
