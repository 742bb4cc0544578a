"""Exact trigonometric interpolation of periodic grid data: the oracle the
spline kernel (peierls_lab.interp) and the band data are compared against."""

import numpy as np

from peierls_lab.interp import _sym_freqs


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
