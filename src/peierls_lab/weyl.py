"""Grid-level magnetic Weyl quantization.

Operators live on a truncated uniform position grid with odd point counts per
axis; momenta are the symmetric FFT-dual frequencies.  The quantizer composes
an exactly invertible discrete Weyl correspondence with the gauge phase
factors e^{-i lam Gamma} built from line integrals of the vector potential.
Its exact inverse, dequantize, and the symbol product
dequantize(quantize(f) @ quantize(g)) built on it are test oracles
(tests/oracles.py), beside the small-eps product expansion they are compared
with.  Comparisons against continuum formulas are meaningful on interior
windows and on band-limited states; the box seam carries the usual
truncation artifacts.

quantize is one transform pair and one gather:
T = ifft_x(S * fftn(ifftshift_xi f)) with the half-shift signs
S = (-1)^{P_l Q_l}, then kernel entry (a, b) reads T at mu = (a + b) / 2 and
the reversed offset delta = b - a, times the magnetic phase.  The momentum
axes stay in the frequency domain, because a second inverse DFT there only
reverses delta; ifftshift carries the centering phase of the momentum
samples.  dequantize scatters through the same index and runs the pair
backwards: f = fftshift_xi(ifftn(S * fft_x(T))).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import PeierlsError
from .fields import LINEAR_GAUGES, EMFieldConfig
from .interp import _sym_freqs

__all__ = [
    "PhaseSpaceGrid",
    "GridSymbol",
    "DenseMemoryError",
    "QuantizedOperator",
    "sample_symbol",
    "quantize",
    "operator_norm",
    "resample_periodic",
]


class WeylError(PeierlsError, ValueError):
    pass


class DenseMemoryError(PeierlsError, MemoryError):
    """A dense path would need more memory than the machine has."""


CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
MEMINFO = "/proc/meminfo"


def _memory_figures() -> dict:
    """The memory figures the platform reports, in bytes by name: physical
    memory, the cgroup limit (absent when it reads "max") and MemAvailable."""
    figures = {}
    try:
        figures["physical memory"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        pass
    try:
        with open(CGROUP_MEMORY_MAX) as fh:
            figures["the cgroup memory limit"] = int(fh.read())
    except (OSError, ValueError):
        pass
    try:
        with open(MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    figures["available memory"] = 1024 * int(line.split()[1])
    except (OSError, ValueError):
        pass
    return figures


def check_dense_memory(what: str, grid, nbytes: float) -> None:
    """Raise DenseMemoryError when a dense path on `grid` (described in the
    message) is estimated to peak above the smallest memory figure the
    platform reports (_memory_figures), which the message names."""
    figures = _memory_figures()
    if not figures:
        return      # the platform does not report its memory
    name, limit = min(figures.items(), key=lambda item: item[1])
    if nbytes > limit:
        raise DenseMemoryError(
            f"{what} on grid {grid} needs an estimated {nbytes / 2**30:.1f} GiB, "
            f"more than the {limit / 2**30:.1f} GiB of {name}")


INTERIOR_FRACTION = 0.5    # central share of each axis that interior windows keep


def _interior_margin(n: int) -> int:
    """Points cut from each end of an n-point axis by the interior window."""
    return int(round(n * (1 - INTERIOR_FRACTION) / 2))


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Tensor phase-space grid: micro positions x, macro positions X = eps x,
    and the dual momentum grid.

    ns : positive odd point count per axis.
    h : positive micro spacing per axis (momenta then live on [-pi/h, pi/h)).
    eps : positive scale factor relating micro and macro position.
    """

    ns: tuple
    h: tuple
    eps: float

    def __post_init__(self):
        if not self.ns or any(n < 1 or n % 2 == 0 for n in self.ns):
            raise WeylError(f"grid sizes must be positive and odd, got {self.ns}")
        if len(self.h) != len(self.ns):
            raise WeylError(f"{len(self.h)} spacings h for the {len(self.ns)} axes of {self.ns}")
        if not all(np.isfinite(v) and v > 0 for v in self.h):
            raise WeylError(f"spacings h must be positive and finite, got {self.h}")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise WeylError(f"eps must be positive and finite, got {self.eps}")

    @classmethod
    def build(cls, ns, h, eps: float) -> "PhaseSpaceGrid":
        if np.isscalar(ns):
            ns = (int(ns),)
        ns = tuple(int(n) for n in ns)
        if np.isscalar(h):
            h = (float(h),) * len(ns)
        return cls(ns=ns, h=tuple(float(v) for v in h), eps=float(eps))

    @property
    def dim(self) -> int:
        return len(self.ns)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.ns))

    def x_axis(self, l: int) -> np.ndarray:
        n = self.ns[l]
        return (np.arange(n) - (n - 1) // 2) * self.h[l]

    def xi_axis(self, l: int) -> np.ndarray:
        n = self.ns[l]
        return 2 * np.pi * (np.arange(n) - (n - 1) // 2) / (n * self.h[l])

    def X_axis(self, l: int) -> np.ndarray:
        return self.eps * self.x_axis(l)

    def points_micro(self) -> np.ndarray:
        """(N, d) micro position grid points, C-ordered."""
        mesh = np.meshgrid(*[self.x_axis(l) for l in range(self.dim)], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def phase_points(self):
        """Positions X of shape ns + (1,)*d + (d,) and momenta K of shape
        (1,)*d + ns + (d,): broadcast together they are the full phase-space
        grid (position axes first), at n^d points each instead of n^(2d)."""
        d = self.dim
        X = np.stack(np.meshgrid(*[self.X_axis(l) for l in range(d)],
                                 indexing="ij"), axis=-1)
        K = np.stack(np.meshgrid(*[self.xi_axis(l) for l in range(d)],
                                 indexing="ij"), axis=-1)
        return (X.reshape(self.ns + (1,) * d + (d,)),
                K.reshape((1,) * d + self.ns + (d,)))

    def interior_mask_1d(self, l: int) -> np.ndarray:
        n = self.ns[l]
        lo = _interior_margin(n)
        m = np.zeros(n, dtype=bool)
        m[lo:n - lo] = True
        return m

    def interior_indices(self) -> np.ndarray:
        """Flat indices of position-grid points in the central window."""
        masks = [self.interior_mask_1d(l) for l in range(self.dim)]
        mesh = np.meshgrid(*masks, indexing="ij")
        keep = np.ones(self.ns, dtype=bool)
        for m in mesh:
            keep &= m
        return np.nonzero(keep.ravel())[0]


@dataclass(frozen=True)
class GridSymbol:
    """Phase-space samples f(X_i, xi_j) on a tensor grid.

    samples has shape ns + ns (position axes first, then momentum axes).
    """

    grid: PhaseSpaceGrid
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != self.grid.ns + self.grid.ns:
            raise WeylError(
                f"sample shape {self.samples.shape} does not match grid {self.grid.ns}")

    def spectral_tail_fraction(self) -> float:
        """Energy fraction of the top 10% frequency shell (aliasing guard)."""
        return _tail_fraction(np.fft.fftn(self.samples))


def _tail_fraction(F: np.ndarray) -> float:
    """Energy fraction of the spectrum F (FFT layout) in its top 10%
    frequency shell; any normalization of F gives the same fraction."""
    p = np.abs(F) ** 2
    total = p.sum()
    if total == 0:
        return 0.0
    mask = np.zeros(F.shape, dtype=bool)
    for ax, n in enumerate(F.shape):
        f = np.abs(_sym_freqs(n))
        sel = f >= 0.9 * (n // 2)
        sh = [1] * F.ndim
        sh[ax] = n
        mask |= sel.reshape(sh)
    return float(p[mask].sum() / total)


def sample_symbol(func, grid: PhaseSpaceGrid) -> GridSymbol:
    """Sample func(k, r) (momentum first) on the phase-space grid.

    func is called once on the axis pair of grid.phase_points(), so it must
    broadcast k against r; its result is broadcast to the full grid.  A
    symbol built from k-fields and r-fields then costs n^d evaluations of
    each instead of n^(2d).
    """
    X, K = grid.phase_points()
    vals = np.broadcast_to(np.asarray(func(K, X)), grid.ns + grid.ns)
    return GridSymbol(grid=grid, samples=vals.astype(complex))


@dataclass(frozen=True)
class QuantizedOperator:
    grid: PhaseSpaceGrid
    matrix: np.ndarray

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


# -- core discrete correspondence ---------------------------------------


def _half_shift(F: np.ndarray, d: int) -> np.ndarray:
    """Multiply the (P_l, Q_l) spectrum F in place by (-1)^{P_l Q_l} per
    axis pair (the half-shift correction on symbol harmonics)."""
    for l in range(d):
        P = _sym_freqs(F.shape[l])
        F *= ((-1.0) ** np.multiply.outer(P, P)).reshape(_pair_shape(F.shape[:d], l, l))
    return F


# Peak bytes per N^2 matrix entry, from tracemalloc at N = 441 and 625 in 1D
# and 2D, inputs included, rounded up.  With cached tables quantize and
# dequantize peak at 57 bytes (no magnetic phase) or 72; a call that builds
# the tables peaks at 57 (no phase), 72 (Landau, symmetric), 112 (transversal
# gauge of a constant B) and 168 (transversal gauge of a position-dependent
# B).  A 3D build peaks higher (264 in the transversal gauge); the build
# checks its own estimate, _table_bytes, before it allocates.
_QUANTIZE_BYTES = 176


def _table_bytes(d: int, field: EMFieldConfig) -> int:
    """Peak bytes per N^2 entry of a quantizer table build, from tracemalloc
    at N = 441 in 1D, 2D and 3D, rounded up.  The gather index is 8 bytes,
    built from per-axis tables (8.7 measured in 2D and 3D; 24 in 1D, where
    the one axis table is N x N itself).  A linear gauge's phase adds 16 (25.4
    measured), and the transversal gauge evaluates B(s r) as (N, N, d, d)
    arrays along its line integral (152 / 264 measured in 2D / 3D for a
    position-dependent B that allocates one such array per call)."""
    gather = 26 if d == 1 else 10
    if field.lam == 0.0:
        return gather
    if field.gauge in LINEAR_GAUGES:
        return gather + 18
    return 32 + 32 * d + 16 * d * d


def _pair_shape(ns: tuple, l: int, j: int) -> list:
    """Shape that broadcasts an (n_l, n_j) table in (a_l, b_j) over the
    kernel axes ns + ns, which hold the row index a, then the column b."""
    d = len(ns)
    shape = [1] * (2 * d)
    shape[l], shape[d + j] = ns[l], ns[j]
    return shape


def _linear_phase(grid: PhaseSpaceGrid, field: EMFieldConfig) -> np.ndarray:
    """exp(-i lam Gamma[a, b]) over the N x N kernel for a linear gauge.

    With A(r) = A(0) + G r (field.gauge_matrix) and micro positions, the
    midpoint rule gives Gamma(a, b) = eps a^T S b / 2 + p(b) - p(a) with
    S = G^T - G (that is B) and p(x) = Gamma(0, x).  The phase is the outer
    product u(a)* u(b) of u = exp(-i lam p), times one (n_l, n_j) table in
    (x_l(a_l), x_j(b_j)) per ordered axis pair with S_lj != 0."""
    d, ns, lam = grid.dim, grid.ns, field.lam
    G = field.gauge_matrix()
    S = G.T - G
    u = np.exp(-1j * lam * field.line_integral(np.zeros(d), grid.points_micro()))
    weight = np.multiply.outer(u.conj(), u).reshape(ns + ns)
    x = [grid.x_axis(l) for l in range(d)]
    for l in range(d):
        for j in range(d):
            if l != j and S[l, j] != 0.0:
                arg = (-0.5j * lam * field.eps * S[l, j]) * np.multiply.outer(x[l], x[j])
                weight *= np.exp(arg).reshape(_pair_shape(ns, l, j))
    return weight.reshape(grid.n_points, grid.n_points)


@dataclass(frozen=True)
class _QuantizerTables:
    """gather[a, b] = mu_flat * N + delta_flat, with mu = (a + b) / 2 and the
    reversed offset delta = b - a (mod n per axis), indexes the flattened
    offset table for kernel entry (a, b); weight is the magnetic phase
    exp(-i lam Gamma[a, b]), or None when it is trivial.  The gather, and
    the weight of a linear gauge, are built from per-axis factors
    (_quantizer_tables, _linear_phase)."""

    gather: np.ndarray
    weight: np.ndarray | None


_last_tables = None     # (grid, field, tables) of the latest build


def _quantizer_tables(grid: PhaseSpaceGrid, field: EMFieldConfig) -> _QuantizerTables:
    """Kernel tables for one (grid, field), rebuilt only when either changes.

    The grid is compared by value, the field by identity (EMFieldConfig holds
    arrays and callables, so it has no usable hash or equality)."""
    global _last_tables
    last = _last_tables
    if last is not None and last[1] is field and last[0] == grid:
        return last[2]
    ns, d, N = grid.ns, grid.dim, grid.n_points
    check_dense_memory("quantizer tables", ns, _table_bytes(d, field) * N * N)
    # mu_l = (a_l + b_l) / 2 and delta_l = b_l - a_l, mod n_l (2 is invertible,
    # n_l odd), depend on axis l alone, so the flat index
    # mu * N + delta = sum_l (mu_l * N + delta_l) * stride_l
    # is a sum of d broadcast (n_l, n_l) tables, full-size only at the last
    gather, stride = 0, N
    for l, n in enumerate(ns):
        stride //= n
        a, b = np.ogrid[:n, :n]
        table = (((a + b) * ((n + 1) // 2)) % n * N + (b - a) % n) * stride
        gather = gather + table.reshape(_pair_shape(ns, l, l))
    weight = None
    if field.lam != 0.0:
        if field.gauge in LINEAR_GAUGES:
            weight = _linear_phase(grid, field)
        else:
            pts = grid.points_micro()
            weight = np.exp(-1j * field.lam * field.line_integral(pts[:, None, :],
                                                                  pts[None, :, :]))
    tables = _QuantizerTables(gather=gather.reshape(N, N), weight=weight)
    _last_tables = (grid, field, tables)
    return tables


ALIASING_TOL = 1e-6    # largest spectral tail fraction quantize accepts


def quantize(symbol: GridSymbol, field: EMFieldConfig,
             assume_bandlimited: bool = False) -> QuantizedOperator:
    """Dense matrix of the magnetic Weyl operator of a grid symbol.

    The field's eps must match the symbol grid.  Raises on strong spectral
    tails unless assume_bandlimited is set (polynomial symbols such as the
    coordinate functions are exact by construction and may opt out), and
    raises DenseMemoryError before allocating when the dense matrix and its
    work arrays would not fit in physical memory.
    """
    grid = symbol.grid
    if abs(field.eps - grid.eps) > 1e-12 * max(1.0, field.eps):
        raise WeylError("field.eps does not match the symbol grid")
    if field.dim != grid.dim:
        raise WeylError("field dimension does not match the symbol grid")
    N, d = grid.n_points, grid.dim
    check_dense_memory("quantize", grid.ns, _QUANTIZE_BYTES * N * N)
    # built first, so that its transient peak does not meet the spectrum below
    tables = _quantizer_tables(grid, field)
    # ifftshift on the momentum axes applies the offset phase e^{-2 pi i c delta / n}
    # (c = (n - 1) / 2) and leaves |F| unchanged for the aliasing guard; it
    # returns a new array, which the transforms then overwrite in place
    xi_axes = tuple(range(d, 2 * d))
    F = np.fft.ifftshift(symbol.samples, axes=xi_axes).astype(complex, copy=False)
    np.fft.fftn(F, norm="forward", out=F)
    if not assume_bandlimited:
        tail = _tail_fraction(F)
        if tail > ALIASING_TOL:
            raise WeylError(
                f"symbol spectral tail fraction {tail:.2e} exceeds {ALIASING_TOL:.0e}; "
                "refine the grid or pass assume_bandlimited=True")
    # momenta stay in the frequency domain: a second inverse transform there
    # would only reverse delta, which the gather index does instead
    np.fft.ifftn(_half_shift(F, d), axes=tuple(range(d)), norm="forward", out=F)
    M = np.take(F.reshape(-1), tables.gather)
    del F
    if tables.weight is not None:
        M *= tables.weight
    return QuantizedOperator(grid=grid, matrix=M)


OPNORM_ITERS = 60      # power iterations of operator_norm, from a seed-0 start


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value by power iteration on M*M (deterministic)."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=M.shape[1]) + 1j * rng.normal(size=M.shape[1])
    v /= np.linalg.norm(v)
    Mh = M.conj().T
    s = 0.0
    for _ in range(OPNORM_ITERS):
        w = Mh @ (M @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        s = nw
    return float(np.sqrt(s))


def resample_periodic(samples: np.ndarray, new_shape) -> np.ndarray:
    """Trigonometric resampling of a periodic array onto a new grid shape.

    Every input and output size must be odd: an even size has a Nyquist bin
    that belongs to neither half of the spectrum."""
    old, new_shape = samples.shape, tuple(new_shape)
    if any(n % 2 == 0 for n in old + new_shape):
        raise WeylError(f"resample_periodic needs odd sizes, got {old} -> {new_shape}")
    F = np.fft.fftn(samples)
    out = np.zeros(new_shape, dtype=complex)
    slices_src = []
    slices_dst = []
    for n_old, n_new in zip(old, new_shape):
        half = (min(n_old, n_new) - 1) // 2
        slices_src.append(np.r_[0:half + 1, n_old - half:n_old])
        slices_dst.append(np.r_[0:half + 1, n_new - half:n_new])
    out[np.ix_(*slices_dst)] = F[np.ix_(*slices_src)]
    scale = np.prod(new_shape) / np.prod(old)
    return np.fft.ifftn(out) * scale
