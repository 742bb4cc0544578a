"""Periodic interpolation helpers for grid-sampled band quantities.

Band data lives on uniform grids over the Brillouin-zone coefficient box
(period 1 per axis, cell-centered sampling).  Band fields are evaluated by a
cubic spline of all fields at once on an FFT-upsampled fine grid, in any
dimension d.  A spline is built from the fields' spectrum: from values by
one FFT, or from coarse samples' spectrum zero-padded (from_spectrum).  One
division by the B-spline symbol and one inverse transform, slab by slab,
write the coefficients into the interior of a grid with wrapped ghost
layers; beside the spectrum only one slab of values is held (about an
eighth of the grid for d >= 2).  With the ghost layers a block of points
needs one tap gather and one batched contraction that returns values and
first derivatives together as a (P, 1 + d, F) array (error well under the
expansion budgets).  The tap weights of a block are one matmul of its
monomials by a table built once per spline, so a point costs the same few
array operations whatever the batch.  The tests compare it against the
exact trigonometric interpolant (tests/fourier_oracle.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PeriodicSpline"]


def _sym_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


# Points per tap gather: bounds the (BLOCK, 4^d, F) tap array of a batch.
BLOCK = 1024

# Cubic B-spline tap weights (taps at -1, 0, 1, 2) for a fractional offset t
# in [0, 1) as polynomials: w(t) = [1, t, t^2, t^3] @ _B3, w'(t) the same
# monomials @ _DB3.
_B3 = np.array([[1, 4, 1, 0], [-3, 0, 3, 0], [3, -6, 3, 0], [-1, 3, -3, 1]]) / 6.0
_DB3 = np.vstack([np.arange(1, 4)[:, None] * _B3[1:], np.zeros(4)])    # d/dt t^j = j t^(j-1)
_POWERS = np.arange(4.0)[:, None]
# The prefilter writes the coefficients in this many slabs along the first
# axis (d >= 2), so it holds one slab of values beside them, not a grid.
SLABS = 8


def _zero_filled(a, ax, n):
    """a with its m <= n frequencies in FFT order along ax zero-filled to n."""
    m = a.shape[ax]
    return a if m == n else np.insert(a, [(m + 1) // 2] * (n - m), 0, axis=ax)


def _prefilter(spectrum, shape, out):
    """Write the cubic B-spline coefficients of the fields with the given
    spectrum (laid out as for PeriodicSpline.from_spectrum) into out
    (n_1, ..., n_d, F): divide by the spline's symbol, then transform back
    axis by axis, the zero frequencies left out until each axis is reached,
    and the axes after the first slab by slab."""
    d = len(shape)
    symbol = 1.0
    for ax, (m, n) in enumerate(zip(spectrum.shape, shape)):
        P = np.arange(m) if ax == d - 1 else np.fft.fftfreq(m, 1.0 / m)
        symbol = symbol * ((4.0 + 2.0 * np.cos(2 * np.pi * P / n)) / 6.0).reshape(
            (m,) + (1,) * (d - ax))
    spectrum = spectrum / symbol
    first = spectrum if d == 1 else np.fft.ifft(_zero_filled(spectrum, 0, shape[0]), axis=0)
    step = shape[0] if d == 1 else -(-shape[0] // SLABS)
    for i in range(0, shape[0], step):
        slab = first[i:i + step]
        for ax in range(1, d - 1):
            slab = np.fft.ifft(_zero_filled(slab, ax, shape[ax]), axis=ax)
        out[i:i + step] = np.fft.irfft(slab, shape[-1], axis=d - 1)


class PeriodicSpline:
    """Cubic B-splines of F fields on one uniform periodic grid in any
    dimension d, with exact prefilter.

    values has shape (n_1, ..., n_d, F): F fields sampled on the same grid;
    from_spectrum takes their spectrum instead.  Node i sits at
    origin + i @ steps, where spacing gives the steps: a scalar or (d,) per
    axis, or a (d, d) matrix whose rows are the step vectors of a skewed
    grid.  The prefiltered coefficients are stored with wrapped ghost
    layers, one before and two after each axis, so the 4^d taps of a point
    are its base index (one floor and one modulo per axis) plus a fixed
    table of flat offsets.  All fields share that one gather, and values and
    first derivatives come from one contraction: calls return blocks of
    shape (P, 1 + d, F), [value, d/dx_1, ..., d/dx_d] in the units of the
    point coordinates.
    """

    def __init__(self, values: np.ndarray, origin, spacing):
        values = np.asarray(values, dtype=float)
        d = values.ndim - 1
        self._build(np.fft.rfftn(values, axes=tuple(range(d))), values.shape[:-1],
                    origin, spacing)

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, shape, origin, spacing) -> "PeriodicSpline":
        """The spline of the fields whose DFT over the grid axes (n_1, ..., n_d)
        is spectrum (m_1, ..., m_d, F): frequencies 0..m_d - 1 of the last axis
        (the rfftn half) and m_a <= n_a of every other axis in FFT order; the
        frequencies left out are zero.  No grid of values is formed."""
        self = cls.__new__(cls)
        self._build(np.asarray(spectrum), tuple(shape), origin, spacing)
        return self

    def _build(self, spectrum, shape, origin, spacing):
        d = self.ndim = len(shape)
        self.shape = shape
        self.n_fields = spectrum.shape[-1]
        self.origin = np.broadcast_to(np.asarray(origin, dtype=float), (d,)).copy()
        spacing = np.asarray(spacing, dtype=float)
        self.steps = spacing.copy() if spacing.ndim == 2 else \
            np.diag(np.broadcast_to(spacing, (d,)))
        # prefilter into the interior of the padded grid; ghost layers:
        # padded index i holds coefficient (i - 1) mod n
        pad = np.empty(tuple(n + 3 for n in self.shape) + (self.n_fields,))
        _prefilter(spectrum, shape, pad[(slice(1, -2),) * d])
        for ax, n in enumerate(self.shape):
            lead = (slice(None),) * ax
            pad[lead + (0,)] = pad[lead + (n,)]
            pad[lead + (slice(n + 1, n + 3),)] = pad[lead + (slice(1, 3),)]
        # flat grid index first: a gather is one take along axis 0
        self.c = pad.reshape(-1, self.n_fields)
        strides = np.cumprod((1,) + tuple(n + 3 for n in self.shape[:0:-1]))[::-1]
        self._strides = strides
        self._n = np.array(self.shape)[:, None]
        self._offsets = np.indices((4,) * d).reshape(d, -1).T @ strides
        # grid coordinates u = inv(steps)^T (x - origin), so du_l/dx_m = inv[m, l]
        inv = np.linalg.inv(self.steps)
        self._to_grid = inv.T
        # the tap weights of a point are polynomials in its offsets t_l:
        # [W_0 | W_1 | ... | W_d] = mono(t) @ _K, with mono the 4^d products
        # t_1^j_1 ... t_d^j_d and W_r the weights of the value (r = 0) and of
        # d/dx_r per unit of the points; rows and columns in C order
        def table(factors):
            out = factors[0]
            for f in factors[1:]:
                out = np.kron(out, f)
            return out
        blocks = [table([_B3] * d)]
        for m in range(d):
            blocks.append(sum(inv[m, l] * table([_DB3 if a == l else _B3
                                                 for a in range(d)])
                              for l in range(d)))
        self._K = np.hstack(blocks)                     # (4^d, (1 + d) 4^d)

    def prep(self, pts: np.ndarray) -> tuple:
        """(flat tap indices (B, 4^d), contraction weights (B, 1 + d, 4^d))
        for a block of points (B, d).  Row r of the weights is the outer
        product over the axes of the tap weights, differentiated along x_r
        for r >= 1."""
        d, n_pts = self.ndim, len(pts)
        u = self._to_grid @ (pts - self.origin).T                  # (d, B)
        base = np.floor(u)
        V = (u - base)[:, None] ** _POWERS              # (d, 4, B): t_l^j
        mono = V[0]
        for l in range(1, d):
            mono = (mono[:, None] * V[l]).reshape(4 ** (l + 1), n_pts)
        flat = self._strides @ (base.astype(np.intp) % self._n)
        return flat[:, None] + self._offsets, (mono.T @ self._K).reshape(n_pts, 1 + d, len(self._K))

    def eval_prepped(self, prep: tuple) -> np.ndarray:
        """Values and first derivatives of all F fields, shape (B, 1 + d, F),
        from the taps and weights of prep.  The contraction shapes do not
        depend on which rows a caller keeps, so neither do the rounded results."""
        flat, W = prep
        return W @ np.take(self.c, flat, axis=0)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Values and first derivatives of all F fields at points (P, d),
        shape (P, 1 + d, F).  Evaluated in blocks of BLOCK points."""
        if len(pts) <= BLOCK:
            return self.eval_prepped(self.prep(pts))
        out = np.empty((len(pts), 1 + self.ndim, self.n_fields))
        for s in range(0, len(pts), BLOCK):
            out[s:s + BLOCK] = self.eval_prepped(self.prep(pts[s:s + BLOCK]))
        return out
