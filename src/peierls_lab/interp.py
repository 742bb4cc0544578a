"""Periodic interpolation helpers for grid-sampled band quantities.

Band data lives on uniform grids over the Brillouin-zone coefficient box
(period 1 per axis, cell-centered sampling).  Band fields are evaluated by a
cubic spline of all fields at once on an FFT-upsampled fine grid (one tap
gather per block of points, error well under the expansion budgets).  The
exact trigonometric interpolant is kept as the oracle the tests compare
against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fourier_coeffs_centered", "PeriodicFourier", "PeriodicSpline"]


def _sym_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def fourier_coeffs_centered(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients c_P of data sampled at alpha_m = (m + 1/2)/n - 1/2.

    f(alpha) = sum_P c_P exp(2 pi i P . alpha); coefficients in FFT layout.
    """
    c = np.fft.fftn(samples) / np.prod(samples.shape)
    for ax, n in enumerate(samples.shape):
        P = _sym_freqs(n)
        phase = np.exp(-2j * np.pi * P * (0.5 / n - 0.5))
        sh = [1] * samples.ndim
        sh[ax] = n
        c = c * phase.reshape(sh)
    return c


class PeriodicFourier:
    """Exact trigonometric interpolation of real periodic grid data.

    Data is sampled cell-centered on [-1/2, 1/2)^d; evaluation accepts
    arbitrary alpha (period-1 wrap is automatic).
    """

    def __init__(self, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        self.shape = samples.shape
        self.coeffs = fourier_coeffs_centered(samples)
        self.freqs = [_sym_freqs(n) for n in samples.shape]

    def __call__(self, alpha: np.ndarray, deriv=None) -> np.ndarray:
        """Evaluate at alpha (..., d); deriv is an optional tuple of per-axis
        derivative orders (w.r.t. alpha).  Real output (real data)."""
        d = len(self.shape)
        alpha = np.asarray(alpha, dtype=float)
        if d == 1 and (alpha.ndim == 0 or alpha.shape[-1] != 1):
            alpha = alpha[..., None]
        lead = alpha.shape[:-1]
        flat = alpha.reshape(-1, d)
        r = None
        for ax in range(d):
            P = self.freqs[ax]
            ph = np.exp(2j * np.pi * np.outer(flat[:, ax], P))
            if deriv is not None and deriv[ax] > 0:
                ph = ph * (2j * np.pi * P[None, :]) ** deriv[ax]
            if ax == 0:
                r = np.tensordot(ph, self.coeffs, axes=([1], [0]))
            else:
                r = np.einsum("pa,pa...->p...", ph, r)
        return r.real.reshape(lead)


# Points per tap gather: bounds the (BLOCK, 4^d, F) tap array of a batch.
BLOCK = 1024

# Cubic B-spline tap weights for a fractional offset t in [0, 1), as
# polynomials: w(t) = [1, t, t^2, t^3] @ _B3 and w'(t) = [1, t, t^2] @ _DB3.
_B3 = np.array([[1, 4, 1, 0], [-3, 0, 3, 0], [3, -6, 3, 0], [-1, 3, -3, 1]]) / 6.0
_DB3 = np.arange(1, 4)[:, None] * _B3[1:]


class PeriodicSpline:
    """Cubic B-splines of F fields on one uniform periodic grid, with exact
    prefilter.

    values has shape (n_1, ..., n_d, F): F fields sampled on the same grid
    (typically FFT-upsampled from coarse data).  All fields share one tap
    gather per point, and the value and first-derivative weights are
    contracted in the same pass.
    """

    def __init__(self, values: np.ndarray, origin, spacing):
        values = np.asarray(values, dtype=float)
        self.ndim = values.ndim - 1
        self.shape = values.shape[:-1]
        self.n_fields = values.shape[-1]
        self._n = np.array(self.shape)[:, None]       # tap indices wrap per axis
        self.origin = np.broadcast_to(np.asarray(origin, dtype=float), (self.ndim,)).copy()
        self.spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (self.ndim,)).copy()
        axes = tuple(range(self.ndim))
        F = np.fft.fftn(values, axes=axes)
        for ax, n in enumerate(self.shape):
            w = 2 * np.pi * np.arange(n) / n
            bhat = (4.0 + 2.0 * np.cos(w)) / 6.0
            sh = [1] * values.ndim
            sh[ax] = n
            F = F / bhat.reshape(sh)
        # contiguous, flat grid index first: a gather is one take along axis 0
        c = np.fft.ifftn(F, axes=axes).real
        self.c = np.ascontiguousarray(c).reshape(-1, self.n_fields)

    def prep(self, pts: np.ndarray) -> "SplinePrep":
        """Flat tap indices and per-axis weights for a block of points (B, d)."""
        u = (pts - self.origin) / self.spacing
        base = np.floor(u).astype(int)
        t = u - base
        taps = (base[..., None] + np.arange(-1, 3)) % self._n       # (B, d, 4)
        flat = taps[:, 0]
        for ax in range(1, self.ndim):
            flat = flat[..., None] * self.shape[ax] + taps[:, ax].reshape(
                (-1,) + (1,) * ax + (4,))
        powers = t[..., None] ** np.arange(4)           # (B, d, 4)
        # derivative weights in units of the point coordinates
        return SplinePrep(flat=flat, W0=powers @ _B3,
                          W1=powers[..., :3] @ _DB3 / self.spacing[:, None])

    def eval_prepped(self, prep: "SplinePrep") -> np.ndarray:
        """Values and first derivatives of all F fields, shape (B, 1 + d, F):
        [value, d/du_1, ..., d/du_d].  The contraction shapes do not depend
        on which of them a caller keeps, so neither do the rounded results."""
        W0, W1 = prep.W0, prep.W1
        taps = np.take(self.c, prep.flat, axis=0)     # (B, 4, ..., 4, F)
        Wx = np.stack([W0[:, 0], W1[:, 0]], axis=1)
        if self.ndim == 1:
            return Wx @ taps
        if self.ndim != 2:
            raise ValueError("spline evaluation implemented for d <= 2")
        # contract the second axis, then the first
        rows = np.stack([W0[:, 1], W1[:, 1]], axis=1)[:, None] @ taps  # (B, 4, 2, F)
        return np.concatenate([Wx @ rows[:, :, 0], W0[:, :1] @ rows[:, :, 1]], axis=1)

    def __call__(self, pts: np.ndarray, n_grad: int = 0) -> np.ndarray:
        """Values of all F fields and the gradients of the first n_grad ones
        at points (P, d), shape (P, F + d n_grad): [values | d/du_1 | ... |
        d/du_d].  Evaluated in blocks of BLOCK points."""
        F = self.n_fields
        out = np.empty((len(pts), F + self.ndim * n_grad))
        for s in range(0, len(pts), BLOCK):
            vd = self.eval_prepped(self.prep(pts[s:s + BLOCK]))
            out[s:s + BLOCK, :F] = vd[:, 0]
            out[s:s + BLOCK, F:] = vd[:, 1:, :n_grad].reshape(len(vd), -1)
        return out


class SplinePrep:
    __slots__ = ("flat", "W0", "W1")

    def __init__(self, flat, W0, W1):
        self.flat = flat
        self.W0 = W0
        self.W1 = W1
